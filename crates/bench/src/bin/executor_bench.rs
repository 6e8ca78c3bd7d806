//! Wall-clock snapshot of the executor paths, written as JSON.
//!
//! Runs `ctx.view(2).n()` at every node over cycle / grid / random-regular
//! graphs at n ∈ {1e3, 1e4, 1e5} through two paths:
//!
//! * `seq` — [`run_local`], the fresh-BFS-per-view reference;
//! * `par` — [`Run::nodes`] under the default spec, scratch-backed,
//!   threaded when the host has more than one core.
//!
//! Usage: `cargo run --release -p lad-bench --bin executor_bench [OUT.json]`
//! (default output `BENCH_executor.json` in the current directory). Each
//! cell is the minimum of several repetitions.

use lad_graph::{generators, Graph};
use lad_runtime::{effective_parallelism, run_local, Network, NodeCtx, Run};
use std::fmt::Write as _;
use std::time::Instant;

fn families(n: usize) -> Vec<(&'static str, Graph)> {
    let side = (n as f64).sqrt().round() as usize;
    vec![
        ("cycle", generators::cycle(n)),
        ("grid", generators::grid2d(side, side, true)),
        ("random-regular", generators::random_regular(n, 4, 42)),
    ]
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_executor.json".to_string());
    let radius = 2usize;
    let mut rows = Vec::new();
    for n in [1_000usize, 10_000, 100_000] {
        let reps = if n >= 100_000 { 7 } else { 11 };
        for (family, g) in families(n) {
            let n_actual = g.n();
            let net = Network::with_identity_ids(g);
            let algo = |ctx: &NodeCtx| ctx.view(radius).n();
            let threads = effective_parallelism(n_actual);

            // Interleave the two paths within each rep (instead of timing
            // each path in its own phase) so slow machine drift biases both
            // paths equally rather than whichever phase ran last.
            let mut seq = f64::INFINITY;
            let mut par = f64::INFINITY;
            for _ in 0..reps {
                let start = Instant::now();
                run_local(&net, algo);
                seq = seq.min(start.elapsed().as_secs_f64());

                let start = Instant::now();
                Run::default().nodes(&net, algo);
                par = par.min(start.elapsed().as_secs_f64());
            }

            eprintln!(
                "{family:>15} n={n_actual:<7} seq {seq:.4}s  par {par:.4}s ({:.2}x)",
                seq / par,
            );
            rows.push(format!(
                "    {{\"family\": \"{family}\", \"n\": {n_actual}, \"radius\": {radius}, \
                 \"threads\": {threads}, \"reps\": {reps}, \
                 \"seq_s\": {seq:.6}, \"par_s\": {par:.6}, \
                 \"speedup_par\": {:.3}}}",
                seq / par,
            ));
        }
    }
    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(
        json,
        "  \"description\": \"run_local executor paths, algo = ctx.view(2).n() at every node; \
         times are min over reps, seconds\","
    )
    .unwrap();
    writeln!(
        json,
        "  \"available_parallelism\": {},",
        std::thread::available_parallelism().map_or(1, |p| p.get())
    )
    .unwrap();
    writeln!(json, "  \"results\": [").unwrap();
    writeln!(json, "{}", rows.join(",\n")).unwrap();
    writeln!(json, "  ]").unwrap();
    writeln!(json, "}}").unwrap();
    std::fs::write(&out_path, json).expect("write benchmark output");
    eprintln!("wrote {out_path}");
}
