//! Performance gate: diffs a fresh `pipeline_bench` run against the
//! committed `BENCH_pipeline.json` snapshot and fails on regressions.
//!
//! For every `(schema, family)` pair present in both files, each fresh row
//! is matched to the committed row of the same pair with the nearest `n`
//! (sizes must agree within 1.5×, so a 1024-node smoke grid compares to
//! the committed 1024-node grid row and a 1024-node smoke cycle to the
//! committed 1000-node cycle row, while 256-node smoke rows have no
//! committed partner and are skipped). The gate fails when committed
//! throughput exceeds fresh throughput by more than the allowed ratio:
//!
//! ```text
//! committed nodes_per_s / fresh nodes_per_s > max_ratio  (default 3)
//! ```
//!
//! The 3× default absorbs CI-runner noise and debug-vs-bare-metal skew
//! while still catching order-of-magnitude cliffs.
//!
//! Parsing is deliberately hand-rolled: the workspace has no JSON
//! dependency, and `pipeline_bench` writes one row object per line.
//!
//! Usage:
//! `pipeline_gate <fresh.json> <committed.json> [--max-ratio R]`

use std::process::ExitCode;

#[derive(Debug, Clone, PartialEq)]
struct Row {
    schema: String,
    family: String,
    n: f64,
    nodes_per_s: f64,
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

/// Parses every non-errored result row out of a `pipeline_bench` JSON file.
fn parse_rows(text: &str, origin: &str) -> Vec<Row> {
    let mut rows = Vec::new();
    for line in text.lines() {
        if !line.contains("\"schema\"") {
            continue;
        }
        if line.contains("\"error\"") {
            eprintln!("note: skipping errored row in {origin}: {}", line.trim());
            continue;
        }
        match (
            str_field(line, "schema"),
            str_field(line, "family"),
            num_field(line, "n"),
            num_field(line, "nodes_per_s"),
        ) {
            (Some(schema), Some(family), Some(n), Some(nodes_per_s)) => rows.push(Row {
                schema,
                family,
                n,
                nodes_per_s,
            }),
            _ => eprintln!("warning: unparseable row in {origin}: {}", line.trim()),
        }
    }
    rows
}

/// The committed row of the same (schema, family) whose size is nearest to
/// `fresh.n`, provided the sizes agree within 1.5× — otherwise the fresh
/// row has no meaningful baseline and is skipped.
fn baseline_for<'a>(fresh: &Row, committed: &'a [Row]) -> Option<&'a Row> {
    committed
        .iter()
        .filter(|r| r.schema == fresh.schema && r.family == fresh.family)
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
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--max-ratio" {
            max_ratio = args
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--max-ratio needs a number");
        } else {
            paths.push(arg);
        }
    }
    let [fresh_path, committed_path] = paths.as_slice() else {
        eprintln!("usage: pipeline_gate <fresh.json> <committed.json> [--max-ratio R]");
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
    let mut compared = 0usize;
    let mut failures = Vec::new();
    eprintln!(
        "{:>16} {:>6} {:>8} {:>14} {:>14} {:>7}",
        "schema", "family", "n", "fresh nodes/s", "base nodes/s", "ratio"
    );
    for row in &fresh {
        let Some(base) = baseline_for(row, &committed) else {
            continue;
        };
        compared += 1;
        let ratio = base.nodes_per_s / row.nodes_per_s.max(f64::MIN_POSITIVE);
        let flag = if ratio > max_ratio {
            "  << REGRESSION"
        } else {
            ""
        };
        eprintln!(
            "{:>16} {:>6} {:>8} {:>14.0} {:>14.0} {:>7.2}{flag}",
            row.schema, row.family, row.n, row.nodes_per_s, base.nodes_per_s, ratio
        );
        if ratio > max_ratio {
            failures.push(format!(
                "{}/{} at n={}: {:.0} nodes/s vs committed {:.0} ({:.2}x > {max_ratio}x)",
                row.schema, row.family, row.n, row.nodes_per_s, base.nodes_per_s, ratio
            ));
        }
    }
    if compared == 0 {
        eprintln!("error: no (schema, family) pair matched between the two files");
        return ExitCode::FAILURE;
    }
    if failures.is_empty() {
        eprintln!(
            "pipeline gate passed: {compared} rows within {max_ratio}x of the committed snapshot"
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "pipeline gate FAILED ({} of {compared} rows):",
            failures.len()
        );
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
    {"schema": "balanced", "family": "cycle", "n": 1024, "reps": 1, "gather_s": 0.1024, "nodes_per_s": 100000, "verified": true},
    {"schema": "balanced", "family": "cycle", "n": 256, "reps": 1, "nodes_per_s": 90000, "verified": true},
    {"schema": "cluster_coloring", "family": "grid", "n": 1024, "error": "decode: boom"}
  ]
}"#;

    #[test]
    fn parses_rows_and_skips_errors() {
        let rows = parse_rows(SAMPLE, "sample");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].schema, "balanced");
        assert_eq!(rows[0].n, 1024.0);
        assert_eq!(rows[0].nodes_per_s, 100000.0);
    }

    #[test]
    fn baseline_matches_nearest_size_within_band() {
        let rows = parse_rows(SAMPLE, "sample");
        let fresh = Row {
            schema: "balanced".into(),
            family: "cycle".into(),
            n: 1000.0,
            nodes_per_s: 50000.0,
        };
        let base = baseline_for(&fresh, &rows).expect("1000 matches 1024");
        assert_eq!(base.n, 1024.0);
        let tiny = Row { n: 64.0, ..fresh };
        assert!(
            baseline_for(&tiny, &rows).is_none(),
            "64 vs 256 is out of band"
        );
    }
}
