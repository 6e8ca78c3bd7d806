//! Performance and memory gate for the sharded runtime: diffs a fresh
//! `shard_bench` run against the committed `BENCH_shard.json` snapshot.
//!
//! Three checks, in order of severity:
//!
//! 1. **Correctness flags.** Every committed row and every fresh row must
//!    carry `"verified": true` — a snapshot with an unverified row is not
//!    a baseline, and a fresh run that decodes an improper coloring is a
//!    bug regardless of speed.
//! 2. **Throughput.** Each fresh row is matched to the committed row of
//!    the same `(mode, k, resident)` with the nearest `n` (sizes must
//!    agree within 1.5×, so smoke rows pair with the committed
//!    smoke-scale rows and skip the 10⁶/10⁷ entries). The gate fails
//!    when committed `nodes_per_s` exceeds fresh by more than the
//!    allowed ratio (default 3× — wide enough for CI-runner noise,
//!    tight enough to catch an accidentally serialized wave).
//! 3. **Peak RSS ceiling.** For the same matched pairs, fresh
//!    `peak_rss_mb` must stay within `--max-rss-ratio` (default 1.5×) of
//!    the committed value, per shard count. This is the bounded-memory
//!    contract: a leaked slice, an eviction that stopped evicting, or a
//!    halo that quietly ballooned shows up here as a per-`k` memory
//!    regression even when throughput looks fine. Rows whose sizes
//!    differ are skipped (RSS does not scale linearly in `n` once the
//!    allocator floor dominates), which is why the committed snapshot
//!    keeps smoke-scale rows alongside the large ones.
//!
//! Parsing is deliberately hand-rolled, matching `pipeline_gate`: the
//! workspace has no JSON dependency and `shard_bench` writes one row
//! object per line.
//!
//! Usage:
//! `shard_gate <fresh.json> <committed.json> [--max-ratio R] [--max-rss-ratio S]`

use std::process::ExitCode;

#[derive(Debug, Clone, PartialEq)]
struct Row {
    mode: String,
    n: f64,
    k: f64,
    resident: f64,
    nodes_per_s: f64,
    verified: bool,
    /// Absent off-Linux; both sides must carry it for the RSS check.
    peak_rss_mb: Option<f64>,
}

/// Extracts the raw text of `"key": <value>` from a one-line JSON object,
/// stopping at the next `,` or closing `}`.
fn raw_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let rest = line[start..].trim_start();
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn str_field(line: &str, key: &str) -> Option<String> {
    let raw = raw_field(line, key)?;
    Some(raw.trim_matches('"').to_string())
}

fn num_field(line: &str, key: &str) -> Option<f64> {
    raw_field(line, key)?.parse().ok()
}

/// Parses every result row out of a `shard_bench` JSON file. Unverified
/// rows are kept (the gate fails on them explicitly rather than silently
/// losing their baseline).
fn parse_rows(text: &str, origin: &str) -> Vec<Row> {
    let mut rows = Vec::new();
    for line in text.lines() {
        if !line.contains("\"mode\"") || !line.contains("\"nodes_per_s\"") {
            continue;
        }
        match (
            str_field(line, "mode"),
            num_field(line, "n"),
            num_field(line, "k"),
            num_field(line, "resident"),
            num_field(line, "nodes_per_s"),
            raw_field(line, "verified"),
        ) {
            (Some(mode), Some(n), Some(k), Some(resident), Some(nodes_per_s), Some(v)) => rows
                .push(Row {
                    mode,
                    n,
                    k,
                    resident,
                    nodes_per_s,
                    verified: v == "true",
                    peak_rss_mb: num_field(line, "peak_rss_mb"),
                }),
            _ => eprintln!("warning: unparseable row in {origin}: {}", line.trim()),
        }
    }
    rows
}

/// The committed row of the same (mode, k, resident) whose size is
/// nearest to `fresh.n`, provided the sizes agree within 1.5×.
fn baseline_for<'a>(fresh: &Row, committed: &'a [Row]) -> Option<&'a Row> {
    committed
        .iter()
        .filter(|r| r.mode == fresh.mode && r.k == fresh.k && r.resident == fresh.resident)
        .min_by(|a, b| (a.n - fresh.n).abs().total_cmp(&(b.n - fresh.n).abs()))
        .filter(|r| {
            let (lo, hi) = if r.n < fresh.n {
                (r.n, fresh.n)
            } else {
                (fresh.n, r.n)
            };
            lo > 0.0 && hi / lo <= 1.5
        })
}

fn main() -> ExitCode {
    let mut paths: Vec<String> = Vec::new();
    let mut max_ratio = 3.0f64;
    let mut max_rss_ratio = 1.5f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--max-ratio" {
            max_ratio = args
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--max-ratio needs a number");
        } else if arg == "--max-rss-ratio" {
            max_rss_ratio = args
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--max-rss-ratio needs a number");
        } else {
            paths.push(arg);
        }
    }
    let [fresh_path, committed_path] = paths.as_slice() else {
        eprintln!(
            "usage: shard_gate <fresh.json> <committed.json> [--max-ratio R] [--max-rss-ratio S]"
        );
        return ExitCode::from(2);
    };
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_else(|e| panic!("read {p}: {e}"));
    let fresh = parse_rows(&read(fresh_path), fresh_path);
    let committed = parse_rows(&read(committed_path), committed_path);
    if fresh.is_empty() || committed.is_empty() {
        eprintln!(
            "error: no comparable rows ({} fresh, {} committed)",
            fresh.len(),
            committed.len()
        );
        return ExitCode::FAILURE;
    }
    let mut failures = Vec::new();
    for (origin, rows) in [("fresh", &fresh), ("committed", &committed)] {
        for row in rows.iter().filter(|r| !r.verified) {
            failures.push(format!(
                "{origin} {} row at n={} k={} is not verified",
                row.mode, row.n, row.k
            ));
        }
    }
    let mut compared = 0usize;
    eprintln!(
        "{:>6} {:>9} {:>3} {:>14} {:>14} {:>7} {:>10} {:>10}",
        "mode", "n", "k", "fresh nodes/s", "base nodes/s", "ratio", "fresh MB", "base MB"
    );
    for row in &fresh {
        let Some(base) = baseline_for(row, &committed) else {
            continue;
        };
        compared += 1;
        let ratio = base.nodes_per_s / row.nodes_per_s.max(f64::MIN_POSITIVE);
        eprintln!(
            "{:>6} {:>9} {:>3} {:>14.0} {:>14.0} {:>7.2} {:>10} {:>10}",
            row.mode,
            row.n,
            row.k,
            row.nodes_per_s,
            base.nodes_per_s,
            ratio,
            row.peak_rss_mb.map_or("-".into(), |v| format!("{v:.1}")),
            base.peak_rss_mb.map_or("-".into(), |v| format!("{v:.1}")),
        );
        if ratio > max_ratio {
            failures.push(format!(
                "{} k={} at n={}: {:.0} nodes/s vs committed {:.0} ({ratio:.2}x > {max_ratio}x)",
                row.mode, row.k, row.n, row.nodes_per_s, base.nodes_per_s
            ));
        }
        if let (Some(fresh_mb), Some(base_mb)) = (row.peak_rss_mb, base.peak_rss_mb) {
            let rss_ratio = fresh_mb / base_mb.max(f64::MIN_POSITIVE);
            if rss_ratio > max_rss_ratio {
                failures.push(format!(
                    "{} k={} at n={}: peak RSS {fresh_mb:.1} MB vs committed {base_mb:.1} MB \
                     ({rss_ratio:.2}x > {max_rss_ratio}x memory ceiling)",
                    row.mode, row.k, row.n
                ));
            }
        }
    }
    if compared == 0 {
        eprintln!("error: no (mode, k, resident) row matched between the two files");
        return ExitCode::FAILURE;
    }
    if failures.is_empty() {
        eprintln!(
            "shard gate passed: {compared} rows within {max_ratio}x throughput and \
             {max_rss_ratio}x peak-RSS of the committed snapshot"
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("shard gate FAILED ({} checks):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "results": [
    {"mode": "mono", "rows": 48, "cols": 48, "n": 2304, "k": 1, "resident": 18446744073709551615, "halo": 64, "nodes_per_s": 21576, "verified": true, "peak_rss_mb": 4.3},
    {"mode": "shard", "rows": 48, "cols": 48, "n": 2304, "k": 8, "resident": 2, "halo": 64, "nodes_per_s": 20468, "verified": true, "peak_rss_mb": 4.5},
    {"mode": "shard", "rows": 1000, "cols": 1000, "n": 1000000, "k": 8, "resident": 2, "halo": 64, "nodes_per_s": 150000, "verified": false, "peak_rss_mb": 90.0}
  ]
}"#;

    #[test]
    fn parses_rows_including_unverified() {
        let rows = parse_rows(SAMPLE, "sample");
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].mode, "mono");
        assert!(rows[0].verified);
        assert_eq!(rows[0].peak_rss_mb, Some(4.3));
        assert!(!rows[2].verified);
    }

    #[test]
    fn baseline_requires_same_shape_and_size_band() {
        let rows = parse_rows(SAMPLE, "sample");
        let fresh = Row {
            mode: "shard".into(),
            n: 2304.0,
            k: 8.0,
            resident: 2.0,
            nodes_per_s: 19000.0,
            verified: true,
            peak_rss_mb: Some(4.6),
        };
        let base = baseline_for(&fresh, &rows).expect("smoke shard row matches");
        assert_eq!(base.n, 2304.0);
        let other_k = Row {
            k: 4.0,
            ..fresh.clone()
        };
        assert!(baseline_for(&other_k, &rows).is_none(), "k must match");
        let big = Row {
            n: 250_000.0,
            ..fresh
        };
        assert!(
            baseline_for(&big, &rows).is_none(),
            "250k vs 1M is out of the 1.5x band"
        );
    }
}
