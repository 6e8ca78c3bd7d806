//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records a layer name, start and end (nanoseconds since the
//! tracer was created), its parent span and a request id shared by every
//! span of one operation. Spans nest through a stack, so a span opened
//! while another is open becomes its child. Nothing is written until the
//! run ends. A disabled tracer records nothing, which is how the untraced
//! runs measure end-to-end numbers.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
    pub failed: bool,
}

/// Span recorder; see the module docs.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    last_closed: Option<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            last_closed: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` as a child of the innermost open span;
    /// returns the token [`Tracer::close`] takes (`None` when disabled).
    pub fn open(&mut self, name: &'static str, request: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
            failed: false,
        });
        self.open.push(index);
        Some(index)
    }

    /// Closes the span `token` names, which must be the innermost open one.
    pub fn close(&mut self, token: Option<usize>) {
        let Some(index) = token else { return };
        assert_eq!(
            self.open.pop(),
            Some(index),
            "spans must close innermost first"
        );
        self.spans[index].end_ns = self.now_ns();
        self.last_closed = Some(index);
    }

    /// Marks the most recently closed span as failed.
    pub fn fail_last(&mut self) {
        if let Some(i) = self.last_closed {
            self.spans[i].failed = true;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Tab-separated spans, one a line:
    /// `index name start_ns end_ns parent request failed`.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("index\tname\tstart_ns\tend_ns\tparent\trequest\tfailed\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, s.request, s.failed
            )
            .expect("write to String");
        }
        out
    }
}

/// Per-layer totals from a span list.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerSummary {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
    pub failed: u64,
}

/// A span's duration minus the part of its interval that its direct
/// children cover (overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.clamp(parent.start_ns, parent.end_ns);
            let end = s.end_ns.clamp(parent.start_ns, parent.end_ns);
            children[p].push((start, end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Count, total time, self time and failures per layer name.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, LayerSummary> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, LayerSummary> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_s += (s.end_ns - s.start_ns) as f64 / 1e9;
        e.self_s += self_ns as f64 / 1e9;
        e.failed += u64::from(s.failed);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
            failed: false,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals_once() {
        let spans = vec![
            span("outer", 0, 100, None),
            span("a", 10, 30, Some(0)),
            // Overlaps `a`: only 30..40 is new coverage.
            span("b", 20, 40, Some(0)),
            span("c", 90, 120, Some(0)), // clipped to the parent's end
            span("grandchild", 12, 18, Some(1)),
        ];
        assert_eq!(
            self_times_ns(&spans),
            vec![100 - 30 - 10, 20 - 6, 20, 30, 6]
        );
    }

    #[test]
    fn nested_spans_record_parents_and_summaries() {
        let mut t = Tracer::new(true);
        let request = t.open("request", 7);
        let wire = t.open("wire", 7);
        t.close(wire);
        let verify = t.open("verify", 7);
        t.close(verify);
        t.fail_last();
        t.close(request);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans
            .iter()
            .all(|s| s.request == 7 && s.end_ns >= s.start_ns));
        let summary = summarize(spans);
        assert_eq!(summary["verify"].failed, 1);
        assert_eq!(summary["request"].count, 1);
        let req = &summary["request"];
        assert!(req.self_s <= req.total_s);
        assert_eq!(summary["request"].failed, 0);
        assert_eq!(t.to_tsv().lines().count(), 4);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let x = t.open("x", 1);
        assert_eq!(x, None);
        t.close(x);
        t.fail_last();
        assert!(t.spans().is_empty());
    }
}
