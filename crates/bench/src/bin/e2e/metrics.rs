//! The metrics the benchmark reports, with their units, direction and
//! regression bounds. `BENCHMARK.json` mirrors these tables; a unit test
//! keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median the metric may worsen by; 0 marks an
    /// exact metric that must not change at all.
    pub bound: f64,
}

const fn def(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

/// End-to-end metrics every workload reports (`BENCHMARK.json`'s
/// `end_to_end`). Rates, latencies and set-up times are taken at the
/// fast end of their timed units (see `stats::fast`):
/// - `nodes_per_s`: node outputs per second of encode + decode on the
///   pipelines and shards; answered queries per second of round trips on
///   serving;
/// - `latency_ms`: one node's output decompressed from its own ball
///   (median) on the pipelines and shards; one batch round trip (median)
///   on serving;
/// - `advice_bits_per_node`, `rounds_max`: the paper's two measures on
///   the workload's reference input (the one seed 0 builds), so they are
///   the same for every seed and must not change at all;
/// - `peak_rss_mb`: the workload process's resident high-water mark.
pub const END_TO_END: [MetricDef; 6] = [
    def("nodes_per_s", "1/s", Better::Higher, 0.25),
    def("latency_ms", "ms", Better::Lower, 0.25),
    def("advice_bits_per_node", "bits", Better::Lower, 0.0),
    def("rounds_max", "rounds", Better::Lower, 0.0),
    def("peak_rss_mb", "MB", Better::Lower, 0.20),
    def("setup_s", "s", Better::Lower, 0.25),
];

/// Further end-to-end metrics: `run` prints them and `compare` judges
/// them, but they are not gated (see README.md). The two measures on the
/// seeded input differ between seeds, so `compare` pairs them by seed;
/// `failed_share` is 0 whenever the program is correct, and the result
/// line's `failed` and `attempted` already carry it. The plain medians
/// over passes (`median_*`) are printed beside them and judged by neither.
pub const DETAIL: [MetricDef; 7] = [
    def("encode_nodes_per_s", "1/s", Better::Higher, 0.25),
    def("decode_nodes_per_s", "1/s", Better::Higher, 0.25),
    def("serve_p50_us", "us", Better::Lower, 0.25),
    def("serve_p99_us", "us", Better::Lower, 0.25),
    def("seeded_advice_bits_per_node", "bits", Better::Lower, 0.0),
    def("seeded_rounds_max", "rounds", Better::Lower, 0.0),
    def("failed_share", "share", Better::Lower, 0.0),
];

/// Per-layer metrics every workload's traced run reports
/// (`BENCHMARK.json`'s `per_layer`), all on the cluster-coloring schema,
/// which every workload runs.
pub const PER_LAYER: [(&str, &str, Better); 18] = [
    ("encode.cluster_s", "s", Better::Lower),
    ("decode.cluster_s", "s", Better::Lower),
    ("verify.cluster_s", "s", Better::Lower),
    ("plan.cluster.probe_s", "s", Better::Lower),
    ("plan.cluster.class_share", "share", Better::Lower),
    ("ball.cluster.collect_us", "us", Better::Lower),
    ("ball.cluster.nodes", "count", Better::Lower),
    ("canonical.cluster.key_us", "us", Better::Lower),
    ("memo.cluster.class_share", "share", Better::Lower),
    ("eval.cluster.us", "us", Better::Lower),
    ("eval.cluster.rungs", "count", Better::Lower),
    ("bind.cluster.us", "us", Better::Lower),
    ("store.get_us", "us", Better::Lower),
    ("wire.encode_us", "us", Better::Lower),
    ("wire.parse_us", "us", Better::Lower),
    ("wire.decode_us", "us", Better::Lower),
    ("wire.request_words", "count", Better::Lower),
    ("serve.handle_us", "us", Better::Lower),
];

/// The definition `compare` judges `name` by.
pub fn judged(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(DETAIL.iter())
        .find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;
    use std::path::PathBuf;

    fn benchmark_json() -> Json {
        let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        loop {
            let candidate = dir.join("BENCHMARK.json");
            if candidate.is_file() {
                let text = std::fs::read_to_string(&candidate).expect("readable BENCHMARK.json");
                return Json::parse(&text).expect("BENCHMARK.json parses");
            }
            assert!(
                dir.pop(),
                "no BENCHMARK.json above {}",
                env!("CARGO_MANIFEST_DIR")
            );
        }
    }

    fn names(list: &Json, keys: &[&str]) -> Vec<Vec<String>> {
        list.as_arr()
            .expect("a list")
            .iter()
            .map(|item| {
                keys.iter()
                    .map(|k| match item.get(k).expect("key present") {
                        Json::Num(x) => x.to_string(),
                        other => other.as_str().expect("string").to_string(),
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_mirrors_the_metric_tables() {
        let bench = benchmark_json();
        let e2e: Vec<Vec<String>> = END_TO_END
            .iter()
            .map(|d| {
                vec![
                    d.name.into(),
                    d.unit.into(),
                    d.better.name().into(),
                    d.bound.to_string(),
                ]
            })
            .collect();
        assert_eq!(
            names(
                bench.get("end_to_end").unwrap(),
                &["name", "unit", "better", "bound"]
            ),
            e2e
        );
        let layers: Vec<Vec<String>> = PER_LAYER
            .iter()
            .map(|(n, u, b)| vec![n.to_string(), u.to_string(), b.name().to_string()])
            .collect();
        assert_eq!(
            names(bench.get("per_layer").unwrap(), &["name", "unit", "better"]),
            layers
        );
        let workloads: Vec<Vec<String>> = WORKLOADS
            .iter()
            .map(|w| vec![w.name().to_string()])
            .collect();
        assert_eq!(names(bench.get("workloads").unwrap(), &["name"]), workloads);
        assert_eq!(
            bench.get("paths").and_then(Json::as_arr).map(|p| p.len()),
            Some(1),
            "the benchmark lives in one directory"
        );
    }

    #[test]
    fn setup_time_has_the_largest_bound() {
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s");
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound <= setup.bound && d.bound <= 0.25));
    }
}
