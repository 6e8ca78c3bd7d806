//! End-to-end advice-pipeline throughput, written as JSON.
//!
//! For every schema × graph family × size, measures the full
//! encode → deliver advice → decode → verify loop:
//!
//! * `encode_s` — centralized encoder wall-clock (min over reps);
//! * `decode_s` — LOCAL decoder wall-clock over the advised network
//!   (min over reps), split into `gather_s` (shared shell sweep + canonical
//!   keying; itself split into `sweep_s` and `key_s`) and `eval_s`
//!   (decoder-step evaluations) as attributed by the memoized executor,
//!   plus the memo `hit_rate` (share of per-node lookups served from an
//!   already-decoded canonical class; 0 on schemas/paths that bypass the
//!   memo) and `fp_reject_rate` (share of misses rejected by the class
//!   pre-fingerprint before any exact key comparison);
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
use lad_runtime::{memo_stats, memo_stats_reset, MemoStats, Network};
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
    // Time decode per rep so the memo attribution (gather vs eval, hit
    // rate) can be taken from exactly the rep that achieved the minimum.
    let mut decode_s = f64::INFINITY;
    let mut memo = MemoStats::default();
    for _ in 0..reps {
        memo_stats_reset();
        let start = Instant::now();
        schema.decode(net, &advice).unwrap();
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed < decode_s {
            decode_s = elapsed;
            memo = memo_stats();
        }
    }
    let gather_s = memo.gather_ns as f64 / 1e9;
    let sweep_s = memo.sweep_ns as f64 / 1e9;
    let key_s = memo.key_ns as f64 / 1e9;
    let eval_s = memo.eval_ns as f64 / 1e9;
    let hit_rate = memo.hit_rate();
    let fp_reject_rate = memo.fp_reject_rate();
    // The planner's call is part of the decode it planned: report which
    // path it chose and what the instance probe cost.
    let plan = if memo.plans_memo > 0 { "memo" } else { "plain" };
    let probe_s = memo.probe_ns as f64 / 1e9;
    let total_s = encode_s + decode_s;
    let a = advice.stats();
    let rounds = stats.rounds();
    let nodes_per_s = n as f64 / total_s;
    eprintln!(
        "{label:>16} {family:>6} n={n:<7} encode {encode_s:.4}s  decode {decode_s:.4}s  \
         (plan {plan}, probe {probe_s:.4}s, gather {gather_s:.4}s = sweep {sweep_s:.4}s + \
         key {key_s:.4}s, eval {eval_s:.4}s, \
         hit {hit_rate:.3}, fp-reject {fp_reject_rate:.3})  \
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
             \"plan\": \"{plan}\", \"probe_s\": {probe_s:.6}, \
             \"gather_s\": {gather_s:.6}, \"sweep_s\": {sweep_s:.6}, \"key_s\": {key_s:.6}, \
             \"eval_s\": {eval_s:.6}, \
             \"hit_rate\": {hit_rate:.4}, \"fp_reject_rate\": {fp_reject_rate:.4}, \
             \"total_s\": {total_s:.6}, \"nodes_per_s\": {nodes_per_s:.0}, \
             \"advice_total_bits\": {}, \"advice_max_bits\": {}, \"advice_holders\": {}, \
             \"advice_kind\": \"{:?}\", \"rounds\": {rounds}, \"verified\": {verified}\
             {rss_json}}}",
            a.total_bits, a.max_bits, a.holders, a.kind,
        ),
        errored: !verified,
    }
}

/// Re-measures the planner's per-schema cost priors and rewrites
/// `PLAN_calibration.json` (compiled into `lad_runtime::plan` on the next
/// build). Each schema decodes a class-diverse torus twice per rep:
/// plain-forced for `t_plain` (wall clock / n), memo-forced for `t_memo`
/// (attributed evaluation time / misses — one class-representative
/// reconstruction per miss) and `t_key` (attributed sweep + keying time /
/// n, i.e. the tiled gather's amortized per-ball overhead).
fn calibrate(out_path: &str) {
    let n = 10_000usize;
    let side = (n as f64).sqrt().round() as usize;
    let g = generators::grid2d(side + side % 2, side + side % 2, true);
    let net = Network::with_identity_ids(g);
    let mut priors: Vec<(String, f64, f64, f64)> = Vec::new();
    let mut measure = |label: &str, run: &dyn Fn()| {
        const REPS: usize = 2;
        lad_runtime::set_force_path(Some(lad_runtime::ExecPath::Plain));
        let plain_ns = (0..REPS)
            .map(|_| {
                let t = Instant::now();
                run();
                t.elapsed().as_nanos() as f64 / n as f64
            })
            .fold(f64::INFINITY, f64::min);
        lad_runtime::set_force_path(Some(lad_runtime::ExecPath::Memo));
        let (mut memo_eval_ns, mut key_ns) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..REPS {
            memo_stats_reset();
            run();
            let memo = memo_stats();
            let evals = memo.lookups.saturating_sub(memo.hits).max(1);
            memo_eval_ns = memo_eval_ns.min(memo.eval_ns as f64 / evals as f64);
            key_ns = key_ns.min((memo.sweep_ns + memo.key_ns) as f64 / n as f64);
        }
        lad_runtime::set_force_path(None);
        eprintln!(
            "{label:>20}: eval_memo {memo_eval_ns:>9.0} ns/miss  \
             eval_plain {plain_ns:>8.0} ns/ball  key {key_ns:>8.0} ns/ball"
        );
        priors.push((label.to_string(), memo_eval_ns, plain_ns, key_ns));
    };
    let balanced = BalancedOrientationSchema::default();
    let advice = balanced.encode(&net).expect("balanced encode");
    measure("balanced-orientation", &|| {
        balanced.decode(&net, &advice).expect("balanced decode");
    });
    let cluster = ClusterColoringSchema::default();
    let advice = cluster.encode(&net).expect("cluster encode");
    measure("cluster-coloring", &|| {
        cluster.decode(&net, &advice).expect("cluster decode");
    });
    let delta = DeltaColoringSchema::default();
    let advice = delta.encode(&net).expect("delta encode");
    measure("delta-coloring", &|| {
        delta.decode(&net, &advice).expect("delta decode");
    });
    let mut json = String::new();
    writeln!(
        json,
        "{{\"version\": 2, \"memo_margin\": 1.2, \"bypass_hit_rate\": 0.05, \
         \"eval_sample_cap\": 16, \"key_sample_floor\": 16, \"key_sample_ceil\": 1024,"
    )
    .unwrap();
    writeln!(json, "\"schemas\": [").unwrap();
    let rows: Vec<String> = priors
        .iter()
        .map(|(name, eval_memo, eval_plain, key)| {
            format!(
                "{{\"schema\": \"{name}\", \"eval_memo_ns_per_ball\": {eval_memo:.1}, \
                 \"eval_plain_ns_per_ball\": {eval_plain:.1}, \"key_ns_per_ball\": {key:.1}}}"
            )
        })
        .collect();
    writeln!(json, "{}", rows.join(",\n")).unwrap();
    writeln!(json, "]}}").unwrap();
    std::fs::write(out_path, json).expect("write calibration");
    eprintln!("wrote {out_path} (rebuild to compile the new priors in)");
}

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_pipeline.json".to_string();
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        if arg == "--smoke" {
            smoke = true;
        } else if arg == "--calibrate" {
            let cal_path = args
                .next()
                .unwrap_or_else(|| "PLAN_calibration.json".to_string());
            calibrate(&cal_path);
            return;
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
