//! Sustained-churn benchmark: incremental repair vs full recompute, as JSON.
//!
//! Drives the three churn sessions the library ships with interleaved
//! edit batches and decode queries, and measures per-batch repair latency
//! against a from-scratch recompute of the same state:
//!
//! * `decode_repair` — [`ChurnLocal`] running a radius-2 order-invariant
//!   view digest (the representative decode-side local evaluation);
//!   recompute baseline is [`run_local`] over the mutated network.
//! * `memo_repair` — [`ChurnMemoLocal`] running the same digest through
//!   the canonical-class memo (the production decode path); same baseline.
//! * `advice_repair` — [`BalancedChurnSession`]: full encoder-side advice
//!   repair plus re-decode; baseline is a from-scratch
//!   `schema.encode + schema.decode` of the mutated graph.
//!
//! Every batch is **checker-verified**: the repaired outputs are compared
//! against the from-scratch recompute (bit-identity for outputs and
//! advice), so the `verified` field certifies the whole run, and the
//! baseline timing is taken from exactly those recomputes (min per batch).
//!
//! Family choice is deliberate. Decode-side repair is *ball*-local, so the
//! dense even-degree torus — the paper's bounded-growth workhorse — is
//! where the n≈10⁵, ≤1%-churn speedup target lives. Encoder-side balanced
//! repair is *trail*-local: on the torus the Euler partition concentrates
//! ~70% of all edges into one giant trail, so any batch that touches it
//! rewrites the bulk of the advice and a full re-encode is genuinely the
//! right call (see DESIGN.md §6.5 on the crossover); the `advice_repair`
//! rows therefore run on the odd-degree-rich bounded-degree family, where
//! trails are short and the splice pays off, plus one honest torus row at
//! a small size documenting the crossover.
//!
//! Usage:
//! `cargo run --release -p lad-bench --bin churn_bench [--smoke] [OUT.json]`
//! (default output `BENCH_churn.json`). `--smoke` shrinks sizes and batch
//! counts for CI. Exits nonzero if any row failed verification.

use lad_core::balanced::BalancedOrientationSchema;
use lad_core::churn::BalancedChurnSession;
use lad_core::schema::AdviceSchema;
use lad_graph::mutate::{Edit, MutableGraph};
use lad_graph::{generators, Graph, IdAssignment, NodeId};
use lad_runtime::{
    run_local, Ball, ChurnLocal, ChurnMemoLocal, MemoStep, Network, NodeCtx, NotOrderInvariant,
    PlannedChurnLocal,
};
use std::time::Instant;

const DIGEST_RADIUS: usize = 2;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

fn batch_for(n: usize, seed: &mut u64, edits: usize) -> Vec<Edit> {
    (0..edits)
        .filter_map(|_| {
            let u = (xorshift(seed) % n as u64) as u32;
            let v = (xorshift(seed) % n as u64) as u32;
            if u == v {
                return None;
            }
            Some(if xorshift(seed).is_multiple_of(2) {
                Edit::Insert(NodeId(u), NodeId(v))
            } else {
                Edit::Remove(NodeId(u), NodeId(v))
            })
        })
        .collect()
}

/// What [`oi_digest`] returns: size, edge count, inputs weighted by
/// distance, and the center's uid rank.
type Digest = (usize, usize, u64, usize);

/// Order-invariant digest of a ball: its size, its edge count, its inputs
/// weighted by distance, and the center's rank among the ball's uids. It
/// reads uids only through their order, so the class memo may evaluate
/// it once per class.
fn oi_digest(ball: &Ball<u32>) -> Digest {
    let c = ball.center();
    let center_rank = ball.uids().iter().filter(|&&u| u < ball.uid(c)).count();
    let weighted: u64 = (0..ball.n())
        .map(|i| {
            let v = NodeId(i as u32);
            u64::from(*ball.input(v)) * (ball.dist(v) as u64 + 1)
        })
        .sum();
    (ball.n(), ball.graph().m(), weighted, center_rank)
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

struct Row {
    json: String,
    verified: bool,
}

struct Samples {
    repair_s: Vec<f64>,
    scratch_s: Vec<f64>,
    repaired: Vec<usize>,
    query_s: f64,
    queries: usize,
    verified: bool,
}

impl Samples {
    fn new() -> Self {
        Samples {
            repair_s: Vec::new(),
            scratch_s: Vec::new(),
            repaired: Vec::new(),
            query_s: 0.0,
            queries: 0,
            verified: true,
        }
    }

    fn into_row(mut self, kind: &str, family: &str, g: &Graph, batch_edits: usize) -> Row {
        self.repair_s.sort_by(f64::total_cmp);
        self.scratch_s.sort_by(f64::total_cmp);
        self.repaired.sort_unstable();
        let batches = self.repair_s.len();
        let repair_p50 = quantile(&self.repair_s, 0.5);
        let repair_p99 = quantile(&self.repair_s, 0.99);
        let scratch_p50 = quantile(&self.scratch_s, 0.5);
        let speedup = scratch_p50 / repair_p50.max(f64::MIN_POSITIVE);
        let repaired_p50 = self.repaired[self.repaired.len() / 2];
        let repaired_max = *self.repaired.last().unwrap_or(&0);
        let edits_per_s = batch_edits as f64 / repair_p50.max(f64::MIN_POSITIVE);
        let (n, m) = (g.n(), g.m());
        let verified = self.verified;
        eprintln!(
            "{kind:>14} {family:>16} n={n:<7} batch={batch_edits:<5} repair p50 {repair_p50:.5}s \
             p99 {repair_p99:.5}s  scratch p50 {scratch_p50:.5}s  speedup {speedup:>7.1}x  \
             repaired p50 {repaired_p50} max {repaired_max}  verified={verified}"
        );
        // Process-wide resident high water at row completion (monotone
        // across rows — see `lad_bench::rss`); absent off Linux.
        let rss_json = lad_bench::peak_rss_mb()
            .map(|v| format!(", \"peak_rss_mb\": {v:.1}"))
            .unwrap_or_default();
        Row {
            json: format!(
                "    {{\"kind\": \"{kind}\", \"family\": \"{family}\", \"n\": {n}, \"m\": {m}, \
                 \"batches\": {batches}, \"batch_edits\": {batch_edits}, \
                 \"repair_p50_s\": {repair_p50:.6}, \"repair_p99_s\": {repair_p99:.6}, \
                 \"scratch_p50_s\": {scratch_p50:.6}, \"speedup\": {speedup:.2}, \
                 \"edits_per_s\": {edits_per_s:.0}, \
                 \"repaired_p50\": {repaired_p50}, \"repaired_max\": {repaired_max}, \
                 \"queries\": {}, \"query_s\": {:.6}, \"verified\": {verified}{rss_json}}}",
                self.queries, self.query_s,
            ),
            verified,
        }
    }
}

/// One decode-repair run: `ChurnLocal` under `batches` edit batches, each
/// followed by `queries` random output reads and a verified from-scratch
/// recompute of the mutated network.
fn bench_decode_repair(
    family: &str,
    g: Graph,
    batch_edits: usize,
    batches: usize,
    queries: usize,
) -> Row {
    let n = g.n();
    let inputs: Vec<u32> = (0..n).map(|i| (i % 13) as u32).collect();
    let ids = IdAssignment::random_permutation(n, 0xBEEF);
    let net = Network::with_ids(g.clone(), ids.clone()).with_inputs(inputs.clone());
    let algo = |ctx: &NodeCtx<u32>| oi_digest(&ctx.ball(DIGEST_RADIUS));
    let mut session = ChurnLocal::new(net, DIGEST_RADIUS, algo);
    let mut mirror = MutableGraph::new(g.clone());
    let mut seed = 0x5EED_0001u64;
    let mut s = Samples::new();
    let mut sink = 0u64;
    for _ in 0..batches {
        let batch = batch_for(n, &mut seed, batch_edits);
        let t0 = Instant::now();
        let report = session.apply(&batch);
        s.repair_s.push(t0.elapsed().as_secs_f64());
        s.repaired.push(report.repaired);
        let t0 = Instant::now();
        for q in 0..queries {
            let v = (xorshift(&mut seed).wrapping_add(q as u64) % n as u64) as usize;
            sink = sink.wrapping_add(session.outputs()[v].2);
        }
        s.query_s += t0.elapsed().as_secs_f64();
        s.queries += queries;
        // From-scratch recompute on the mutated graph: the baseline timing
        // and the differential oracle in one.
        mirror.apply(&batch);
        mirror.clear_dirty();
        let scratch_net =
            Network::with_ids(mirror.graph().clone(), ids.clone()).with_inputs(inputs.clone());
        let t0 = Instant::now();
        let (expected, _) = run_local(&scratch_net, algo);
        s.scratch_s.push(t0.elapsed().as_secs_f64());
        s.verified &= session.outputs() == &expected[..];
    }
    std::hint::black_box(sink);
    s.into_row(
        "decode_repair",
        family,
        session.network().graph(),
        batch_edits,
    )
}

/// Same drive loop through the canonical-class memo session.
fn bench_memo_repair(
    family: &str,
    g: Graph,
    batch_edits: usize,
    batches: usize,
    queries: usize,
) -> Row {
    let n = g.n();
    let inputs: Vec<u32> = (0..n).map(|i| (i % 13) as u32).collect();
    let ids = IdAssignment::random_permutation(n, 0xBEEF);
    let net = Network::with_ids(g.clone(), ids.clone()).with_inputs(inputs.clone());
    let tag = |input: &u32, words: &mut Vec<u64>| words.push(*input as u64);
    let step = |ball: &Ball<u32>| -> Result<MemoStep<Digest>, NotOrderInvariant> {
        Ok(MemoStep::Done(oi_digest(ball)))
    };
    let mut session =
        ChurnMemoLocal::new::<NotOrderInvariant>(net, DIGEST_RADIUS, DIGEST_RADIUS, tag, step)
            .expect("memo session build");
    let reference = |ctx: &NodeCtx<u32>| oi_digest(&ctx.ball(DIGEST_RADIUS));
    let mut mirror = MutableGraph::new(g.clone());
    let mut seed = 0x5EED_0002u64;
    let mut s = Samples::new();
    let mut sink = 0u64;
    for _ in 0..batches {
        let batch = batch_for(n, &mut seed, batch_edits);
        let t0 = Instant::now();
        let report = session
            .apply::<NotOrderInvariant>(&batch)
            .expect("memo repair");
        s.repair_s.push(t0.elapsed().as_secs_f64());
        s.repaired.push(report.repaired);
        let outs = session.outputs();
        let t0 = Instant::now();
        for q in 0..queries {
            let v = (xorshift(&mut seed).wrapping_add(q as u64) % n as u64) as usize;
            sink = sink.wrapping_add(outs[v].2);
        }
        s.query_s += t0.elapsed().as_secs_f64();
        s.queries += queries;
        mirror.apply(&batch);
        mirror.clear_dirty();
        let scratch_net =
            Network::with_ids(mirror.graph().clone(), ids.clone()).with_inputs(inputs.clone());
        let t0 = Instant::now();
        let (expected, _) = run_local(&scratch_net, reference);
        s.scratch_s.push(t0.elapsed().as_secs_f64());
        s.verified &= outs == expected;
    }
    std::hint::black_box(sink);
    s.into_row(
        "memo_repair",
        family,
        session.network().graph(),
        batch_edits,
    )
}

/// Same drive loop with the adaptive planner choosing the session family
/// (plain session vs persistent class memo) from its instance probe at open
/// time — the production entry for churn under planner control.
fn bench_planned_repair(
    family: &str,
    g: Graph,
    batch_edits: usize,
    batches: usize,
    queries: usize,
) -> Row {
    let n = g.n();
    let inputs: Vec<u32> = (0..n).map(|i| (i % 13) as u32).collect();
    let ids = IdAssignment::random_permutation(n, 0xBEEF);
    let net = Network::with_ids(g.clone(), ids.clone()).with_inputs(inputs.clone());
    let tag = |input: &u32, words: &mut Vec<u64>| words.push(*input as u64);
    let step = |ball: &Ball<u32>| -> Result<MemoStep<Digest>, NotOrderInvariant> {
        Ok(MemoStep::Done(oi_digest(ball)))
    };
    let algo = |ctx: &NodeCtx<u32>| oi_digest(&ctx.ball(DIGEST_RADIUS));
    let (mut session, plan) = PlannedChurnLocal::open::<NotOrderInvariant>(
        net,
        DIGEST_RADIUS,
        DIGEST_RADIUS,
        algo,
        tag,
        step,
    )
    .expect("planned session build");
    eprintln!(
        "planned_repair {family}: planner chose {:?} (predicted hit {:.3}, probe {:.4}s)",
        plan.path,
        plan.predicted_hit_rate,
        plan.probe_ns as f64 / 1e9,
    );
    let reference = |ctx: &NodeCtx<u32>| oi_digest(&ctx.ball(DIGEST_RADIUS));
    let mut mirror = MutableGraph::new(g.clone());
    let mut seed = 0x5EED_0004u64;
    let mut s = Samples::new();
    let mut sink = 0u64;
    for _ in 0..batches {
        let batch = batch_for(n, &mut seed, batch_edits);
        let t0 = Instant::now();
        let report = session
            .apply::<NotOrderInvariant>(&batch)
            .expect("planned repair");
        s.repair_s.push(t0.elapsed().as_secs_f64());
        s.repaired.push(report.repaired);
        let outs = session.outputs();
        let t0 = Instant::now();
        for q in 0..queries {
            let v = (xorshift(&mut seed).wrapping_add(q as u64) % n as u64) as usize;
            sink = sink.wrapping_add(outs[v].2);
        }
        s.query_s += t0.elapsed().as_secs_f64();
        s.queries += queries;
        mirror.apply(&batch);
        mirror.clear_dirty();
        let scratch_net =
            Network::with_ids(mirror.graph().clone(), ids.clone()).with_inputs(inputs.clone());
        let t0 = Instant::now();
        let (expected, _) = run_local(&scratch_net, reference);
        s.scratch_s.push(t0.elapsed().as_secs_f64());
        s.verified &= outs == expected;
    }
    std::hint::black_box(sink);
    s.into_row(
        "planned_repair",
        family,
        session.network().graph(),
        batch_edits,
    )
}

/// Encoder-side advice repair: the balanced churn session against a
/// from-scratch `encode + decode` per batch.
fn bench_advice_repair(family: &str, g: Graph, batch_edits: usize, batches: usize) -> Row {
    let n = g.n();
    let schema = BalancedOrientationSchema::new(4, 3);
    let ids = IdAssignment::random_permutation(n, 0xBEEF);
    let net = Network::new(g.clone(), ids.clone(), vec![(); n]);
    let mut session = BalancedChurnSession::new(net, schema).expect("session build");
    let mut seed = 0x5EED_0003u64;
    let mut s = Samples::new();
    for _ in 0..batches {
        let batch = batch_for(n, &mut seed, batch_edits);
        let t0 = Instant::now();
        let report = session.apply(&batch).expect("advice repair");
        s.repair_s.push(t0.elapsed().as_secs_f64());
        s.repaired.push(report.redecoded);
        let scratch_net = Network::new(session.graph().clone(), ids.clone(), vec![(); n]);
        let t0 = Instant::now();
        let fresh = schema.encode(&scratch_net).expect("scratch encode");
        let (o, _) = schema.decode(&scratch_net, &fresh).expect("scratch decode");
        s.scratch_s.push(t0.elapsed().as_secs_f64());
        s.verified &= session.advice().strings() == fresh.strings() && session.orientation() == &o;
    }
    s.into_row("advice_repair", family, session.graph(), batch_edits)
}

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_churn.json".to_string();
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_path = arg;
        }
    }
    // Torus sides: the full grid ends at 316² = 99 856 ≈ 10⁵ nodes
    // (m ≈ 2·10⁵); batch sizes stay at or below 1% of m.
    let torus_sides: &[usize] = if smoke { &[64] } else { &[64, 316] };
    let batches = if smoke { 6 } else { 12 };
    let queries = 256;
    let mut rows: Vec<Row> = Vec::new();
    for &side in torus_sides {
        let g = generators::grid2d(side, side, true);
        let m = g.m();
        // 0.1% and 1% churn per batch.
        for batch_edits in [m / 1000, m / 100] {
            rows.push(bench_decode_repair(
                "torus",
                g.clone(),
                batch_edits.max(4),
                batches,
                queries,
            ));
            rows.push(bench_memo_repair(
                "torus",
                g.clone(),
                batch_edits.max(4),
                batches,
                queries,
            ));
            rows.push(bench_planned_repair(
                "torus",
                g.clone(),
                batch_edits.max(4),
                batches,
                queries,
            ));
        }
    }
    // Encoder-side repair: odd-degree-rich sparse graphs keep Euler trails
    // short, which is the regime where the splice beats re-encoding.
    let sparse_sizes: &[usize] = if smoke { &[4_096] } else { &[4_096, 100_000] };
    for &n in sparse_sizes {
        let g = generators::random_bounded_degree(n, 5, 2 * n, 11);
        let m = g.m();
        for batch_edits in [(m / 1000).max(4), (m / 100).max(4)] {
            rows.push(bench_advice_repair(
                "random-bounded-degree",
                g.clone(),
                batch_edits,
                batches,
            ));
        }
    }
    // The honest crossover row: on an even-degree torus the giant Euler
    // trail makes encoder-side repair comparable to (or worse than) a
    // full re-encode. Kept small so the row documents the regime without
    // dominating the run; the gate only requires it to stay verified.
    {
        let side = if smoke { 24 } else { 48 };
        let g = generators::grid2d(side, side, true);
        let m = g.m();
        rows.push(bench_advice_repair(
            "torus",
            g,
            (m / 100).max(4),
            if smoke { 2 } else { 4 },
        ));
    }
    let failed = rows.iter().any(|r| !r.verified);
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(
        "  \"description\": \"sustained churn: per-batch incremental repair vs from-scratch \
         recompute; latencies are per-batch quantiles, seconds; every batch differentially \
         verified against the recompute\",\n",
    );
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(&format!(
        "  \"available_parallelism\": {},\n",
        std::thread::available_parallelism().map_or(1, |p| p.get())
    ));
    json.push_str("  \"results\": [\n");
    json.push_str(
        &rows
            .iter()
            .map(|r| r.json.as_str())
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    json.push_str("\n  ]\n}\n");
    std::fs::write(&out_path, json).expect("write benchmark output");
    eprintln!("wrote {out_path}");
    if failed {
        eprintln!("one or more rows failed differential verification");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_reads_uids_only_through_their_order() {
        let g = generators::grid2d(8, 8, true);
        let n = g.n();
        let ids = IdAssignment::random_permutation(n, 0xBEEF);
        let doubled = IdAssignment::from_uids(ids.as_slice().iter().map(|&u| 2 * u).collect());
        let inputs: Vec<u32> = (0..n).map(|i| (i % 13) as u32).collect();
        let a = Network::with_ids(g.clone(), ids).with_inputs(inputs.clone());
        let b = Network::with_ids(g, doubled).with_inputs(inputs);
        for v in a.graph().nodes() {
            assert_eq!(
                oi_digest(&Ball::collect(&a, v, DIGEST_RADIUS)),
                oi_digest(&Ball::collect(&b, v, DIGEST_RADIUS)),
                "node {v:?}"
            );
        }
    }
}
