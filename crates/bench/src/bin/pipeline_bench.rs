//! End-to-end advice-pipeline throughput, written as JSON.
//!
//! For every schema × graph family × size, measures the full
//! encode → deliver advice → decode → verify loop:
//!
//! * `encode_s` — centralized encoder wall-clock (min over reps);
//! * `decode_s` — LOCAL decoder wall-clock over the advised network
//!   (min over reps);
//! * advice shape — total bits, max bits per node, holder count, kind —
//!   straight from [`AdviceMap::stats`];
//! * `rounds` — decoder locality as measured by the runtime;
//! * `verified` — the decoded output passes the schema's correctness
//!   predicate (almost-balanced orientation / proper coloring).
//!
//! Schemas: balanced orientation, cluster coloring, Δ-coloring. Families
//! are bounded-growth (cycle, path, torus grid) so decoder ball sizes stay
//! polynomial in the radius and throughput reflects pipeline cost, not
//! ball explosion.
//!
//! Usage:
//! `cargo run --release -p lad-bench --bin pipeline_bench [--smoke] [OUT.json]`
//! (default output `BENCH_pipeline.json`). `--smoke` shrinks sizes and
//! reps for CI. Exits nonzero if any schema errored, after writing the
//! JSON (errored cells carry an `"error"` field).

use lad_core::advice::AdviceMap;
use lad_core::balanced::BalancedOrientationSchema;
use lad_core::cluster_coloring::ClusterColoringSchema;
use lad_core::delta_coloring::DeltaColoringSchema;
use lad_core::schema::AdviceSchema;
use lad_graph::{coloring, generators, Graph};
use lad_runtime::Network;
use std::fmt::Write as _;
use std::time::Instant;

fn families(n: usize) -> Vec<(&'static str, Graph)> {
    let side = (n as f64).sqrt().round() as usize;
    // Even cycle lengths / grid sides keep every family 2-colorable, so
    // the Δ-coloring instances are solvable by construction.
    vec![
        ("cycle", generators::cycle(n + n % 2)),
        ("path", generators::path(n)),
        (
            "grid",
            generators::grid2d(side + side % 2, side + side % 2, true),
        ),
    ]
}

fn time_min(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// One measured cell, already formatted as a JSON object literal.
struct Cell {
    json: String,
    errored: bool,
}

fn measure<S: AdviceSchema>(
    schema: &S,
    label: &str,
    family: &str,
    net: &Network,
    reps: usize,
    verify: impl Fn(&Network, &S::Output) -> bool,
) -> Cell {
    let n = net.graph().n();
    let advice: AdviceMap = match schema.encode(net) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{label:>16} {family:>6} n={n:<7} ENCODE ERROR: {e}");
            return Cell {
                json: format!(
                    "    {{\"schema\": \"{label}\", \"family\": \"{family}\", \"n\": {n}, \
                     \"error\": \"encode: {e}\"}}"
                ),
                errored: true,
            };
        }
    };
    let (output, stats) = match schema.decode(net, &advice) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{label:>16} {family:>6} n={n:<7} DECODE ERROR: {e}");
            return Cell {
                json: format!(
                    "    {{\"schema\": \"{label}\", \"family\": \"{family}\", \"n\": {n}, \
                     \"error\": \"decode: {e}\"}}"
                ),
                errored: true,
            };
        }
    };
    let verified = verify(net, &output);
    let encode_s = time_min(reps, || {
        schema.encode(net).unwrap();
    });
    let decode_s = time_min(reps, || {
        schema.decode(net, &advice).unwrap();
    });
    let total_s = encode_s + decode_s;
    let a = advice.stats();
    let rounds = stats.rounds();
    let nodes_per_s = n as f64 / total_s;
    eprintln!(
        "{label:>16} {family:>6} n={n:<7} encode {encode_s:.4}s  decode {decode_s:.4}s  \
         {nodes_per_s:>10.0} nodes/s  {} bits on {} holders  T={rounds}  verified={verified}",
        a.total_bits, a.holders,
    );
    // Process-wide resident high water at row completion (monotone across
    // rows — see `lad_bench::rss`); absent off Linux.
    let rss_json = lad_bench::peak_rss_mb()
        .map(|v| format!(", \"peak_rss_mb\": {v:.1}"))
        .unwrap_or_default();
    Cell {
        json: format!(
            "    {{\"schema\": \"{label}\", \"family\": \"{family}\", \"n\": {n}, \
             \"reps\": {reps}, \"encode_s\": {encode_s:.6}, \"decode_s\": {decode_s:.6}, \
             \"total_s\": {total_s:.6}, \"nodes_per_s\": {nodes_per_s:.0}, \
             \"advice_total_bits\": {}, \"advice_max_bits\": {}, \"advice_holders\": {}, \
             \"advice_kind\": \"{:?}\", \"rounds\": {rounds}, \"verified\": {verified}\
             {rss_json}}}",
            a.total_bits, a.max_bits, a.holders, a.kind,
        ),
        errored: !verified,
    }
}

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_pipeline.json".to_string();
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_path = arg;
        }
    }
    let sizes: &[usize] = if smoke {
        &[256, 1_024]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let mut cells: Vec<Cell> = Vec::new();
    for &n in sizes {
        // Millisecond-scale rows need more reps for a stable minimum;
        // even the second-scale rows get two so one scheduling hiccup
        // can't distort the snapshot.
        let reps = if smoke {
            1
        } else if n >= 100_000 {
            2
        } else if n <= 1_024 {
            9
        } else {
            3
        };
        for (family, g) in families(n) {
            let delta = g.max_degree();
            let net = Network::with_identity_ids(g);
            cells.push(measure(
                &BalancedOrientationSchema::default(),
                "balanced",
                family,
                &net,
                reps,
                |net, o| o.is_almost_balanced(net.graph()),
            ));
            cells.push(measure(
                &ClusterColoringSchema::default(),
                "cluster_coloring",
                family,
                &net,
                reps,
                |net, chi| coloring::is_proper_k_coloring(net.graph(), chi, delta + 1),
            ));
            cells.push(measure(
                &DeltaColoringSchema::default(),
                "delta_coloring",
                family,
                &net,
                reps,
                |net, chi| coloring::is_proper_k_coloring(net.graph(), chi, delta),
            ));
        }
    }
    let errored = cells.iter().any(|c| c.errored);
    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(
        json,
        "  \"description\": \"full advice pipeline encode -> deliver -> decode -> verify; \
         times are min over reps, seconds\","
    )
    .unwrap();
    writeln!(json, "  \"smoke\": {smoke},").unwrap();
    writeln!(
        json,
        "  \"available_parallelism\": {},",
        std::thread::available_parallelism().map_or(1, |p| p.get())
    )
    .unwrap();
    writeln!(json, "  \"results\": [").unwrap();
    writeln!(
        json,
        "{}",
        cells
            .iter()
            .map(|c| c.json.as_str())
            .collect::<Vec<_>>()
            .join(",\n")
    )
    .unwrap();
    writeln!(json, "  ]").unwrap();
    writeln!(json, "}}").unwrap();
    std::fs::write(&out_path, json).expect("write benchmark output");
    eprintln!("wrote {out_path}");
    if errored {
        eprintln!("one or more schema cells errored or failed verification");
        std::process::exit(1);
    }
}
