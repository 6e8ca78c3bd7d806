//! The five workloads: set-up, the timed loop, and the output checks.
//!
//! Every workload does a fixed amount of work for a given `--seconds`:
//! the number of passes is `seconds / nominal pass time`, where the
//! nominal times were measured on a 2-core x86-64 host. Parent and
//! change therefore repeat identical work, and a run lasts about
//! `--seconds` on that host. All inputs derive from the seed.

use crate::json::Json;
use crate::probe;
use crate::stats;
use crate::trace::Tracer;
use lad_bench::rss::peak_rss_mb;
use lad_core::balanced::BalancedOrientationSchema;
use lad_core::cluster_coloring::ClusterColoringSchema;
use lad_core::delta_coloring::DeltaColoringSchema;
use lad_core::schema::AdviceSchema;
use lad_core::{ball_to_words, train_store, AdviceMap, BitString, DecodeError, ServedSchema};
use lad_graph::{coloring, generators, IdAssignment, NodeId, Partition};
use lad_runtime::{Ball, ClassStore, MemoStep, Network, RoundStats, ShardOpts};
use lad_serve::protocol::BatchResult;
use lad_serve::{Client, DecodeServer};
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PipelineShared,
    PipelineUnique,
    ServeHot,
    ServeFresh,
    ShardSpill,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload::PipelineShared,
    Workload::PipelineUnique,
    Workload::ServeHot,
    Workload::ServeFresh,
    Workload::ShardSpill,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::PipelineShared => "pipeline-shared",
            Workload::PipelineUnique => "pipeline-unique",
            Workload::ServeHot => "serve-hot",
            Workload::ServeFresh => "serve-fresh",
            Workload::ShardSpill => "shard-spill",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Seconds one pass takes on the reference host; see the module docs.
    /// A serve-fresh pass includes resolving its fresh queries on the
    /// client, which is not in its timed round trips.
    fn nominal_pass_s(self) -> f64 {
        match self {
            Workload::PipelineShared => 1.8,
            Workload::PipelineUnique => 1.4,
            Workload::ServeHot => 0.017,
            Workload::ServeFresh => 0.022,
            Workload::ShardSpill => 3.0,
        }
    }
}

/// Input sizes. [`Scale::FULL`] is the benchmark; [`Scale::TINY`] keeps
/// the same code paths small enough for a unit test in a debug build.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Side of the pipeline torus (even, so Δ-coloring is solvable).
    pub torus_side: usize,
    /// Side of the sharded torus.
    pub shard_side: usize,
    pub shard_k: usize,
    pub shard_resident: usize,
    pub shard_halo: usize,
    /// Training set of the decode server: this many random-ID cycles.
    pub train_cycles: usize,
    pub train_len: usize,
    /// Cached (hot) queries: every node of this many random-ID cycles.
    pub query_cycles: usize,
    pub query_len: usize,
    /// Never-seen cycles generated per refill of the fresh supply.
    pub fresh_cycles: usize,
    pub batch: usize,
    /// Fresh queries per batch on serve-fresh; the rest are hot.
    pub fresh_per_batch: usize,
    /// Batches per timed pass of serve-fresh.
    pub fresh_pass_batches: usize,
    /// Set-ups per run for `setup_s`; see [`Setups`].
    pub setup_reps: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        torus_side: 128,
        shard_side: 224,
        shard_k: 8,
        shard_resident: 2,
        shard_halo: 64,
        train_cycles: 3,
        train_len: 40,
        query_cycles: 40,
        query_len: 48,
        fresh_cycles: 4,
        batch: 16,
        fresh_per_batch: 4,
        fresh_pass_batches: 120,
        setup_reps: 9,
    };

    #[cfg(test)]
    pub const TINY: Scale = Scale {
        torus_side: 12,
        shard_side: 24,
        shard_k: 4,
        shard_resident: 2,
        shard_halo: 32,
        train_cycles: 1,
        train_len: 24,
        query_cycles: 2,
        query_len: 24,
        fresh_cycles: 1,
        batch: 8,
        fresh_per_batch: 2,
        fresh_pass_batches: 8,
        setup_reps: 2,
    };
}

/// Times calls into the program: each call becomes a span (when tracing)
/// and its duration is kept under the span name.
pub struct Recorder {
    pub tracer: Tracer,
    pub tracing: bool,
    pub durations: BTreeMap<&'static str, Vec<f64>>,
}

impl Recorder {
    pub fn new(tracing: bool) -> Self {
        Recorder {
            tracer: Tracer::new(tracing),
            tracing,
            durations: BTreeMap::new(),
        }
    }

    /// Runs `f` as a span named `name`; returns its result and seconds.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, f64) {
        let token = self.tracer.open(name, request);
        let start = Instant::now();
        let out = f(self);
        let secs = start.elapsed().as_secs_f64();
        self.tracer.close(token);
        self.durations.entry(name).or_default().push(secs);
        (out, secs)
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Metric>,
    pub info: Vec<(String, Json)>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), Metric { value, unit });
    }

    /// Counts one checked operation; a failed one is logged.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("check failed: {}", what());
            }
        }
        ok
    }

    pub fn note(&mut self, key: &str, value: Json) {
        self.info.push((key.to_string(), value));
    }
}

/// One workload run: its seed, length, sizes and scratch directory.
pub struct Run<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub scale: &'a Scale,
    pub scratch: &'a Path,
    pub rec: Recorder,
}

impl Run<'_> {
    fn passes(&self, w: Workload) -> usize {
        ((self.seconds / w.nominal_pass_s()).round() as usize).max(1)
    }

    /// A seed for one kind of input, derived from the run's seed.
    fn sub_seed(&self, tag: u64) -> u64 {
        sub_seed(self.seed, tag)
    }
}

fn sub_seed(seed: u64, tag: u64) -> u64 {
    splitmix64(seed ^ splitmix64(tag))
}

/// The seed of every workload's reference input. The paper's measures
/// (`advice_bits_per_node`, `rounds_max`) are taken there, so they read
/// the same whatever `--seed` a run gets; on the seeded inputs they vary
/// (see README.md) and are reported as `seeded_*`.
const REFERENCE_SEED: u64 = 0;

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `w` and returns every metric it measured, with its checks.
pub fn run(w: Workload, ctx: &mut Run) -> Outcome {
    let mut out = Outcome::default();
    match w {
        Workload::PipelineShared => pipeline(ctx, &mut out, IdKind::Shifted),
        Workload::PipelineUnique => pipeline(ctx, &mut out, IdKind::Random),
        Workload::ServeHot => serve(ctx, &mut out, false),
        Workload::ServeFresh => serve(ctx, &mut out, true),
        Workload::ShardSpill => shard(ctx, &mut out),
    }
    // VmHWM is monotone over the process: the figure is this workload's
    // own because every workload runs in a process of its own.
    if let Some(mb) = peak_rss_mb() {
        out.set("peak_rss_mb", mb, "MB");
    }
    // Every encoder, decoder, checker, client and store file call is a
    // layer metric: the median seconds of one call.
    for (span, secs) in &ctx.rec.durations {
        let layer = span.split('.').next().unwrap_or_default();
        let store_io = ["store.train", "store.save", "store.open"].contains(span);
        if store_io || ["encode", "decode", "verify", "client"].contains(&layer) {
            out.set(format!("{span}_s"), stats::median(secs), "s");
        }
    }
    let failed_share = out.failed as f64 / out.attempted.max(1) as f64;
    out.set("failed_share", failed_share, "share");
    out
}

/// Set-up timing. The first set-up builds the state the run uses; the
/// other `setup_reps - 1` are spread evenly between the timed passes and
/// their results dropped, so they meet the host in different spells.
/// `setup_s` is their fast end ([`stats::fast`]), like the timed metrics.
struct Setups {
    reps: usize,
    passes: usize,
    times: Vec<f64>,
}

impl Setups {
    fn new(reps: usize, passes: usize) -> Self {
        Setups {
            reps: reps.max(1),
            passes,
            times: Vec::new(),
        }
    }

    /// Times one set-up as a `setup` span.
    fn time<T>(
        &mut self,
        rec: &mut Recorder,
        out: &mut Outcome,
        build: impl FnOnce(&mut Recorder, &mut Outcome) -> T,
    ) -> T {
        let rep = self.times.len() as u64;
        let (state, secs) = rec.timed("setup", rep, |rec| build(rec, out));
        self.times.push(secs);
        state
    }

    /// Repeats the set-ups that fall due after timed pass `pass`.
    fn repeat_after<T>(
        &mut self,
        pass: usize,
        rec: &mut Recorder,
        out: &mut Outcome,
        mut build: impl FnMut(&mut Recorder, &mut Outcome) -> T,
    ) {
        let due = (1..self.reps)
            .filter(|k| (k * self.passes / self.reps).min(self.passes - 1) == pass)
            .count();
        for _ in 0..due {
            drop(self.time(rec, out, &mut build));
        }
    }

    fn finish(self, out: &mut Outcome) {
        out.set("setup_s", stats::fast(&self.times), "s");
        out.note("setup_reps", Json::Num(self.times.len() as f64));
        out.note(
            "setup_s_all",
            Json::Arr(self.times.into_iter().map(Json::Num).collect()),
        );
    }
}

/// The paper's two measures, total advice bits and decoder rounds, from
/// one encode and decode whose output `verify` must accept. Counts one
/// check; `None` when it failed.
fn measures<O, E: std::fmt::Display, F: std::fmt::Display>(
    out: &mut Outcome,
    what: &str,
    encode: impl FnOnce() -> Result<AdviceMap, E>,
    decode: impl FnOnce(&AdviceMap) -> Result<(O, RoundStats), F>,
    verify: impl FnOnce(&O) -> bool,
) -> Option<(usize, usize)> {
    let measured = encode()
        .map_err(|e| format!("encode: {e}"))
        .and_then(|advice| {
            let (output, rounds) = decode(&advice).map_err(|e| format!("decode: {e}"))?;
            if verify(&output) {
                Ok((advice.total_bits(), rounds.rounds()))
            } else {
                Err("the decoded output is wrong".into())
            }
        });
    match measured {
        Ok(m) => {
            out.check(true, String::new);
            Some(m)
        }
        Err(e) => {
            out.check(false, || format!("{what}: {e}"));
            None
        }
    }
}

/// Sets `advice_bits_per_node` and `rounds_max` on the reference input
/// (`reference`) and on the seeded one (`seeded`), each `(total advice
/// bits, rounds)` over `n` nodes.
fn set_measures(
    out: &mut Outcome,
    n: usize,
    reference: Option<(usize, usize)>,
    seeded: Option<(usize, usize)>,
) {
    for (prefix, m) in [("", reference), ("seeded_", seeded)] {
        if let Some((bits, rounds)) = m {
            out.set(
                format!("{prefix}advice_bits_per_node"),
                bits as f64 / n as f64,
                "bits",
            );
            out.set(format!("{prefix}rounds_max"), rounds as f64, "rounds");
        }
    }
}

/// Sum of bits and maximum of rounds over several schemas' measures, or
/// `None` if any failed.
fn combine(parts: &[Option<(usize, usize)>]) -> Option<(usize, usize)> {
    parts.iter().try_fold((0, 0), |(bits, rounds), m| {
        m.map(|(b, r)| (bits + b, rounds.max(r)))
    })
}

/// Every this many nodes one local query is timed per pass on the
/// pipelines and shards; coprime to the torus sides, so the sampled
/// nodes spread over every column.
const QUERY_STRIDE: usize = 17;

/// Local decompression at sampled nodes: each query climbs the
/// cluster-coloring ladder at one node of `advised`, from its own ball
/// only, and must answer the node's color in `colors`, the whole-network
/// decode. Returns the median query time in seconds and the sample count.
fn local_queries(
    rec: &mut Recorder,
    out: &mut Outcome,
    schema: &ClusterColoringSchema,
    advised: &Network<BitString>,
    colors: &[usize],
) -> (f64, usize) {
    let mut secs = Vec::new();
    for v in (0..colors.len()).step_by(QUERY_STRIDE) {
        let node = NodeId::from_index(v);
        let (query, s) = rec.timed("query.cluster", v as u64, |_| climb(schema, advised, node));
        secs.push(s);
        let ok = query.is_ok_and(|(_, answer)| answer == [colors[v] as u64]);
        if !out.check(ok, || {
            format!("local query at node {v} disagrees with the decode")
        }) {
            rec.tracer.fail_last();
        }
    }
    (stats::median(&secs), secs.len())
}

/// Sets `latency_ms` from each pass's median local query time: their
/// fast end ([`stats::fast`]), like the pass rates.
fn set_query_latency(out: &mut Outcome, per_pass: &[(f64, usize)]) {
    if per_pass.is_empty() {
        return;
    }
    let medians: Vec<f64> = per_pass.iter().map(|p| p.0).collect();
    out.set("latency_ms", stats::fast(&medians) * 1e3, "ms");
    let samples: usize = per_pass.iter().map(|p| p.1).sum();
    out.note("latency_samples", Json::Num(samples as f64));
}

// ---------------------------------------------------------------------------
// Pipelines
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
enum IdKind {
    /// Row-major IDs, each row rotated by the same seeded offset: ID order
    /// repeats across the torus, and every seed gives the same row-seam.
    Shifted,
    /// A random permutation: no two balls share a class.
    Random,
}

fn torus(side: usize, ids: IdKind, seed: u64) -> Network {
    let g = generators::grid2d(side, side, true);
    let n = g.n();
    let ids = match ids {
        IdKind::Shifted => {
            let offset = (seed % side as u64) as usize;
            let uid = |i: usize| (i / side * side + (i + offset) % side) as u64 + 1;
            IdAssignment::from_uids((0..n).map(uid).collect())
        }
        IdKind::Random => IdAssignment::random_permutation(n, seed),
    };
    Network::with_ids(g, ids)
}

/// A schema's label and the span names of its stages.
struct Stages {
    label: &'static str,
    encode: &'static str,
    decode: &'static str,
    verify: &'static str,
}

/// One schema's pass: times, advice size, rounds and the advice itself.
struct StageRun {
    encode_s: f64,
    decode_s: f64,
    advice: AdviceMap,
    rounds: usize,
}

/// Encode → decode → verify one schema, counting the check; returns the
/// pass and the decoded output.
fn stage<S: AdviceSchema>(
    rec: &mut Recorder,
    out: &mut Outcome,
    pass: u64,
    names: &Stages,
    schema: &S,
    net: &Network,
    verify: impl Fn(&S::Output) -> bool,
) -> Option<(StageRun, S::Output)> {
    let (advice, encode_s) = rec.timed(names.encode, pass, |_| schema.encode(net));
    let advice = match advice {
        Ok(a) => a,
        Err(e) => {
            rec.tracer.fail_last();
            out.check(false, || format!("{}: {e}", names.encode));
            return None;
        }
    };
    let (decoded, decode_s) = rec.timed(names.decode, pass, |_| schema.decode(net, &advice));
    let (output, rounds) = match decoded {
        Ok(d) => d,
        Err(e) => {
            rec.tracer.fail_last();
            out.check(false, || format!("{}: {e}", names.decode));
            return None;
        }
    };
    let (ok, _) = rec.timed(names.verify, pass, |_| verify(&output));
    if !out.check(ok, || format!("{} rejected the output", names.verify)) {
        rec.tracer.fail_last();
        return None;
    }
    let run = StageRun {
        encode_s,
        decode_s,
        advice,
        rounds: rounds.rounds(),
    };
    Some((run, output))
}

const BALANCED: Stages = Stages {
    label: "balanced",
    encode: "encode.balanced",
    decode: "decode.balanced",
    verify: "verify.balanced",
};
const CLUSTER: Stages = Stages {
    label: "cluster",
    encode: "encode.cluster",
    decode: "decode.cluster",
    verify: "verify.cluster",
};
const DELTA: Stages = Stages {
    label: "delta",
    encode: "encode.delta",
    decode: "decode.delta",
    verify: "verify.delta",
};

/// Sets the rate metrics from `(encode, decode)` seconds per stage per
/// pass; `outputs` is the node outputs of one pass.
///
/// The gated metrics take every stage at the fast end of its times
/// ([`stats::fast`]) and add the stages up, so a slow spell of the host
/// during one call does not move them; the plain medians over whole
/// passes are kept beside them as `median_*`.
fn set_pass_rates(out: &mut Outcome, outputs: f64, passes: &[Vec<(f64, f64)>]) {
    let Some(first) = passes.first() else { return };
    let fast_sum = |pick: fn(&(f64, f64)) -> f64| -> f64 {
        (0..first.len())
            .map(|j| stats::fast(&passes.iter().map(|p| pick(&p[j])).collect::<Vec<_>>()))
            .sum()
    };
    let (encode, decode) = (fast_sum(|t| t.0), fast_sum(|t| t.1));
    out.set("nodes_per_s", outputs / (encode + decode), "1/s");
    out.set("encode_nodes_per_s", outputs / encode, "1/s");
    out.set("decode_nodes_per_s", outputs / decode, "1/s");
    let totals: Vec<f64> = passes
        .iter()
        .map(|p| p.iter().map(|t| t.0 + t.1).sum())
        .collect();
    let median = stats::median(&totals);
    out.set("median_nodes_per_s", outputs / median, "1/s");
    out.note("passes", Json::Num(totals.len() as f64));
    out.note(
        "pass_s",
        Json::Arr(totals.into_iter().map(Json::Num).collect()),
    );
}

fn pipeline(ctx: &mut Run, out: &mut Outcome, ids: IdKind) {
    let side = ctx.scale.torus_side;
    let seed = ctx.sub_seed(1);
    let workload = match ids {
        IdKind::Shifted => Workload::PipelineShared,
        IdKind::Random => Workload::PipelineUnique,
    };
    let passes = ctx.passes(workload);
    let mut setups = Setups::new(ctx.scale.setup_reps, passes);
    let build = |_: &mut Recorder, _: &mut Outcome| torus(side, ids, seed);
    let net = setups.time(&mut ctx.rec, out, build);
    let g = net.graph();
    let (n, delta) = (g.n(), g.max_degree());
    let balanced = BalancedOrientationSchema::default();
    let cluster = ClusterColoringSchema::default();
    let delta_schema = DeltaColoringSchema::default();
    let mut times: Vec<Vec<(f64, f64)>> = Vec::new();
    let mut queries = Vec::new();
    let mut last: Option<[StageRun; 3]> = None;
    for pass in 0..passes as u64 {
        let rec = &mut ctx.rec;
        let token = rec.tracer.open("pipeline.pass", pass);
        let b = stage(rec, out, pass, &BALANCED, &balanced, &net, |o| {
            o.is_almost_balanced(g)
        });
        let c = stage(rec, out, pass, &CLUSTER, &cluster, &net, |chi| {
            coloring::is_proper_k_coloring(g, chi, delta + 1)
        });
        let d = stage(rec, out, pass, &DELTA, &delta_schema, &net, |chi| {
            coloring::is_proper_k_coloring(g, chi, delta)
        });
        if let Some((c, colors)) = &c {
            let advised = net.with_inputs(c.advice.strings());
            queries.push(local_queries(rec, out, &cluster, &advised, colors));
        }
        rec.tracer.close(token);
        // A pass with a failed stage does no comparable work: it counts
        // as failed and stays out of the rates.
        if let (Some(b), Some(c), Some(d)) = (b, c, d) {
            let stages = [b.0, c.0, d.0];
            times.push(stages.iter().map(|s| (s.encode_s, s.decode_s)).collect());
            last = Some(stages);
        }
        setups.repeat_after(pass as usize, rec, out, build);
    }
    setups.finish(out);
    set_pass_rates(out, (3 * n) as f64, &times);
    set_query_latency(out, &queries);

    let reference = torus(side, ids, sub_seed(REFERENCE_SEED, 1));
    let rg = reference.graph();
    let reference = combine(&[
        measures(
            out,
            "reference balanced orientation",
            || AdviceSchema::encode(&balanced, &reference),
            |a| AdviceSchema::decode(&balanced, &reference, a),
            |o| o.is_almost_balanced(rg),
        ),
        measures(
            out,
            "reference cluster coloring",
            || AdviceSchema::encode(&cluster, &reference),
            |a| AdviceSchema::decode(&cluster, &reference, a),
            |chi| coloring::is_proper_k_coloring(rg, chi, rg.max_degree() + 1),
        ),
        measures(
            out,
            "reference delta coloring",
            || AdviceSchema::encode(&delta_schema, &reference),
            |a| AdviceSchema::decode(&delta_schema, &reference, a),
            |chi| coloring::is_proper_k_coloring(rg, chi, rg.max_degree()),
        ),
    ]);
    let seeded = last.as_ref().map(|stages| {
        let bits = stages.iter().map(|s| s.advice.total_bits()).sum();
        (bits, stages.iter().map(|s| s.rounds).max().unwrap_or(0))
    });
    set_measures(out, n, reference, seeded);
    if let Some(stages) = &last {
        for (names, s) in [&BALANCED, &CLUSTER, &DELTA].iter().zip(stages) {
            let bits = s.advice.total_bits() as f64 / n as f64;
            out.set(
                format!("advice.{}_bits_per_node", names.label),
                bits,
                "bits",
            );
            out.set(format!("rounds.{}", names.label), s.rounds as f64, "rounds");
        }
    }
    out.note("nodes", Json::Num(n as f64));
    out.note(
        "effective_parallelism",
        Json::Num(lad_runtime::effective_parallelism(n) as f64),
    );
    if ctx.rec.tracing {
        if let Some([b, c, _]) = last {
            let advised_b = net.with_inputs(b.advice.strings());
            probe::probe(&mut ctx.rec, out, "balanced", &balanced, &advised_b, None);
            let advised_c = net.with_inputs(c.advice.strings());
            probe::probe(
                &mut ctx.rec,
                out,
                "cluster",
                &cluster,
                &advised_c,
                Some(Box::new(cluster)),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------------

/// A query resolved on the client: the ball at the radius where its class
/// answers, and the answer a live `eval` + `bind` gives.
#[derive(Debug, Clone)]
pub struct Query {
    pub words: Vec<u64>,
    pub expected: Vec<u64>,
}

/// Climbs the decode ladder at `v` from the node's own ball: returns the
/// ball at the radius where its class answers, and the answer a live
/// `eval` + `bind` gives.
fn climb(
    schema: &dyn ServedSchema,
    advised: &Network<BitString>,
    v: NodeId,
) -> Result<(Ball<BitString>, Vec<u64>), DecodeError> {
    let mut radius = schema.initial_radius();
    for _ in 0..64 {
        let ball = Ball::collect(advised, v, radius);
        match schema.eval(&ball)? {
            MemoStep::Done(class) => {
                let answer = schema.bind(&ball, &class)?;
                return Ok((ball, answer));
            }
            MemoStep::Expand(r) => radius = r,
        }
    }
    Err(DecodeError::Inconsistent(format!(
        "ladder at {v:?} did not resolve"
    )))
}

/// A query resolved on the client side: [`climb`], with the ball in wire
/// form.
fn resolve(
    schema: &dyn ServedSchema,
    advised: &Network<BitString>,
    v: NodeId,
) -> Result<Query, DecodeError> {
    let (ball, expected) = climb(schema, advised, v)?;
    Ok(Query {
        words: ball_to_words(&ball),
        expected,
    })
}

/// `count` disjoint cycles of `len` nodes under one random ID permutation.
fn cycles(count: usize, len: usize, seed: u64) -> Network {
    let parts: Vec<_> = (0..count).map(|_| generators::cycle(len)).collect();
    let g = generators::disjoint_union(&parts);
    let n = g.n();
    Network::with_ids(g, IdAssignment::random_permutation(n, seed))
}

/// A decode server on a loopback port with one connected client. Dropping
/// it shuts the server down and joins its thread.
struct Session {
    server: Arc<DecodeServer>,
    client: Client<TcpStream>,
    addr: SocketAddr,
    thread: Option<JoinHandle<io::Result<()>>>,
}

impl Session {
    fn start(server: DecodeServer) -> io::Result<Session> {
        let server = Arc::new(server);
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let thread = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.serve_tcp(&listener))
        };
        let client = Client::connect(addr)?;
        Ok(Session {
            server,
            client,
            addr,
            thread: Some(thread),
        })
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // If the connection broke, the server is back in `accept`: a new
        // connection can still ask it to stop. Join only an acknowledged
        // shutdown, so a wedged server cannot hang the benchmark.
        let stopped = self.client.shutdown().is_ok()
            || Client::connect(self.addr)
                .and_then(|mut c| c.shutdown())
                .is_ok();
        if let (true, Some(thread)) = (stopped, self.thread.take()) {
            match thread.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => eprintln!("decode server stopped with an error: {e}"),
                Err(_) => eprintln!("decode server thread panicked"),
            }
        }
    }
}

/// The serving workloads' state after set-up.
struct ServeState {
    session: Session,
    query_net: Network,
    query_advice: AdviceMap,
    hot: Vec<Query>,
    store_bytes: u64,
}

/// Counts one check per query: the server's answer must equal the
/// client-side `eval` + `bind` result.
fn check_answers(
    rec: &mut Recorder,
    out: &mut Outcome,
    request: u64,
    results: &io::Result<Vec<BatchResult>>,
    expected: &[&Query],
) {
    let (wrong, _) = rec.timed("verify.answers", request, |_| {
        let mut wrong = 0;
        for (i, q) in expected.iter().enumerate() {
            let ok = match results {
                Ok(r) => {
                    r.len() == expected.len() && r[i] == BatchResult::Answer(q.expected.clone())
                }
                Err(_) => false,
            };
            out.check(ok, || match results {
                Ok(r) => format!("query {i} of request {request}: got {:?}", r.get(i)),
                Err(e) => format!("request {request} failed: {e}"),
            });
            wrong += usize::from(!ok);
        }
        wrong
    });
    if wrong > 0 {
        rec.tracer.fail_last();
    }
}

/// Sends one batch, times its round trip as span `span`, checks every
/// answer; returns the round-trip seconds.
fn round_trip(
    rec: &mut Recorder,
    out: &mut Outcome,
    session: &mut Session,
    span: &'static str,
    request: u64,
    queries: &[&Query],
) -> f64 {
    let words: Vec<Vec<u64>> = queries.iter().map(|q| q.words.clone()).collect();
    let (results, rtt) = rec.timed(span, request, |_| session.client.batch(&words));
    check_answers(rec, out, request, &results, queries);
    rtt
}

/// What a serving set-up builds from.
struct ServeInputs {
    scale: Scale,
    train_seed: u64,
    query_seed: u64,
    store_path: PathBuf,
}

fn serve_setup(rec: &mut Recorder, out: &mut Outcome, inputs: &ServeInputs) -> ServeState {
    let scale = &inputs.scale;
    let schema = ClusterColoringSchema::default();
    let train = cycles(scale.train_cycles, scale.train_len, inputs.train_seed);
    let query_net = cycles(scale.query_cycles, scale.query_len, inputs.query_seed);
    let path = &inputs.store_path;
    let (store, _) = rec.timed("store.train", 0, |_| train_store(&schema, &[train]));
    let store = store.expect("training the class store");
    let (saved, _) = rec.timed("store.save", 0, |_| store.save(path));
    saved.expect("saving the class store");
    let store_bytes = std::fs::metadata(path).map_or(0, |m| m.len());
    let id = ServedSchema::schema_id(&schema);
    let (opened, _) = rec.timed("store.open", 0, |_| ClassStore::open(path, Some(&id)));
    let opened = opened.expect("opening the saved class store");
    let server = DecodeServer::new(Box::new(schema), opened, true)
        .expect("the store was trained for this schema");
    let mut session = Session::start(server).expect("starting the loopback decode server");

    let (advice, _) = rec.timed("encode.cluster", 0, |_| {
        AdviceSchema::encode(&schema, &query_net)
    });
    let query_advice = advice.expect("encoding the query cycles");
    let advised = query_net.with_inputs(query_advice.strings());
    let (hot, _) = rec.timed("client.resolve", 0, |_| {
        query_net
            .graph()
            .nodes()
            .map(|v| resolve(&schema, &advised, v))
            .collect::<Result<Vec<_>, _>>()
    });
    let hot = hot.expect("resolving the hot queries");
    // Warm-up: the dictionary learns every hot class, and every answer is
    // checked once before timing starts.
    for (b, chunk) in hot.chunks(scale.batch).enumerate() {
        let batch: Vec<&Query> = chunk.iter().collect();
        round_trip(rec, out, &mut session, "serve.warmup", b as u64, &batch);
    }
    ServeState {
        session,
        query_net,
        query_advice,
        hot,
        store_bytes,
    }
}

/// Never-seen queries, generated and resolved on the client between
/// batches, outside the timed round trips.
struct FreshSupply {
    seed: u64,
    refills: u64,
    cycles: usize,
    len: usize,
    queue: VecDeque<Query>,
}

impl FreshSupply {
    fn take(&mut self, rec: &mut Recorder, k: usize) -> Vec<Query> {
        let schema = ClusterColoringSchema::default();
        while self.queue.len() < k {
            let net = cycles(self.cycles, self.len, splitmix64(self.seed ^ self.refills));
            self.refills += 1;
            let (fresh, _) = rec.timed("client.fresh", self.refills, |_| {
                let advice = AdviceSchema::encode(&schema, &net).expect("encoding fresh cycles");
                let advised = net.with_inputs(advice.strings());
                net.graph()
                    .nodes()
                    .map(|v| resolve(&schema, &advised, v).expect("resolving fresh queries"))
                    .collect::<Vec<_>>()
            });
            self.queue.extend(fresh);
        }
        self.queue.drain(..k).collect()
    }
}

fn serve(ctx: &mut Run, out: &mut Outcome, fresh: bool) {
    let scale = ctx.scale.clone();
    let workload = if fresh {
        Workload::ServeFresh
    } else {
        Workload::ServeHot
    };
    let passes = ctx.passes(workload);
    let inputs = ServeInputs {
        scale: scale.clone(),
        train_seed: ctx.sub_seed(2),
        query_seed: ctx.sub_seed(3),
        store_path: ctx.scratch.join("classes.ladstore"),
    };
    let mut setups = Setups::new(scale.setup_reps, passes);
    let build = |rec: &mut Recorder, out: &mut Outcome| serve_setup(rec, out, &inputs);
    let mut state = setups.time(&mut ctx.rec, out, build);
    let mut supply = FreshSupply {
        seed: ctx.sub_seed(4),
        refills: 0,
        cycles: scale.fresh_cycles,
        len: scale.query_len,
        queue: VecDeque::new(),
    };
    let rec = &mut ctx.rec;
    let ServeState { session, hot, .. } = &mut state;
    let hot_per_batch = if fresh {
        scale.batch - scale.fresh_per_batch
    } else {
        scale.batch
    };
    let mut rtts_s: Vec<f64> = Vec::new();
    // Per pass: its first batch's index into `rtts_s`, and its queries.
    let mut pass_start: Vec<(usize, usize)> = Vec::new();
    let mut cursor = 0usize;
    for pass in 0..passes {
        let token = rec.tracer.open("serve.pass", pass as u64);
        let start = rtts_s.len();
        let mut queries = 0usize;
        let batches = if fresh {
            scale.fresh_pass_batches
        } else {
            hot.len().div_ceil(hot_per_batch)
        };
        for _ in 0..batches {
            let fresh_queries = if fresh {
                supply.take(rec, scale.fresh_per_batch)
            } else {
                Vec::new()
            };
            // Serve-hot walks the hot set in order, one pass per sweep;
            // serve-fresh keeps cycling through it beside the fresh ones.
            let take = if fresh {
                hot_per_batch
            } else {
                hot_per_batch.min(hot.len() - cursor)
            };
            let mut batch: Vec<&Query> =
                (0..take).map(|i| &hot[(cursor + i) % hot.len()]).collect();
            cursor = (cursor + take) % hot.len();
            batch.extend(fresh_queries.iter());
            let request = rtts_s.len() as u64;
            rtts_s.push(round_trip(
                rec,
                out,
                session,
                "serve.batch",
                request,
                &batch,
            ));
            queries += batch.len();
        }
        rec.tracer.close(token);
        pass_start.push((start, queries));
        setups.repeat_after(pass, rec, out, build);
    }
    setups.finish(out);
    set_serve_rates(out, &rtts_s, &pass_start);
    out.note("passes", Json::Num(passes as f64));
    out.note("batch", Json::Num(scale.batch as f64));
    out.note(
        "effective_parallelism",
        Json::Num(lad_runtime::effective_parallelism(scale.batch) as f64),
    );

    let schema = ClusterColoringSchema::default();
    let cluster_measures = |out: &mut Outcome, what: &str, net: &Network| {
        let g = net.graph();
        measures(
            out,
            what,
            || AdviceSchema::encode(&schema, net),
            |a| AdviceSchema::decode(&schema, net, a),
            |chi| coloring::is_proper_k_coloring(g, chi, g.max_degree() + 1),
        )
    };
    let seeded = cluster_measures(out, "seeded query cycles", &state.query_net);
    let reference = cycles(
        scale.query_cycles,
        scale.query_len,
        sub_seed(REFERENCE_SEED, 3),
    );
    let reference = cluster_measures(out, "reference query cycles", &reference);
    set_measures(out, state.query_net.graph().n(), reference, seeded);

    let server = &state.session.server;
    let st = server.stats();
    let answered = (st.hits + st.misses).max(1) as f64;
    out.set("serve.hit_share", st.hits as f64 / answered, "share");
    out.set("serve.miss_share", st.misses as f64 / answered, "share");
    out.set(
        "serve.verify_share",
        st.verified as f64 / st.hits.max(1) as f64,
        "share",
    );
    out.set("serve.appended", st.appended as f64, "count");
    out.set("serve.errors", st.errors as f64, "count");
    out.set("store.classes", server.class_count() as f64, "count");
    out.set("store.bytes", state.store_bytes as f64, "bytes");
    if supply.refills > 0 {
        out.note("fresh_refills", Json::Num(supply.refills as f64));
    }

    if ctx.rec.tracing {
        serve_trace(&mut ctx.rec, out, &state);
    }
}

/// Traced-run extras for serving: the monolithic decode of the query
/// cycles must agree with every client-side answer, and the layer probes
/// run on the same cycles.
fn serve_trace(rec: &mut Recorder, out: &mut Outcome, state: &ServeState) {
    let schema = ClusterColoringSchema::default();
    let net = &state.query_net;
    let g = net.graph();
    let (decoded, _) = rec.timed("decode.cluster", 0, |_| {
        AdviceSchema::decode(&schema, net, &state.query_advice)
    });
    match decoded {
        Ok((colors, _)) => {
            let delta = g.max_degree();
            let (ok, _) = rec.timed("verify.cluster", 0, |_| {
                coloring::is_proper_k_coloring(g, &colors, delta + 1)
            });
            out.check(ok, || {
                "monolithic decode of the query cycles is improper".into()
            });
            for (v, q) in state.hot.iter().enumerate() {
                out.check(q.expected == [colors[v] as u64], || {
                    format!("client answer at node {v} differs from the monolithic decode")
                });
            }
        }
        Err(e) => {
            out.check(false, || {
                format!("monolithic decode of the query cycles: {e}")
            });
        }
    }
    let advised = net.with_inputs(state.query_advice.strings());
    probe::probe(
        rec,
        out,
        "cluster",
        &schema,
        &advised,
        Some(Box::new(schema)),
    );
    if let (Some(rtt), Some(handle)) = (
        out.metrics.get("serve.rtt_us"),
        out.metrics.get("serve.handle_us"),
    ) {
        out.set("serve.transport_us", rtt.value - handle.value, "us");
    }
}

/// Serving rates and latencies from every batch round trip, grouped in
/// passes by `pass_start` (first batch index, queries).
///
/// As on the pipelines, the gated metrics come from the fast end: the
/// passes whose round trips add up to at most [`stats::fast`] of all
/// passes' sums. The tail percentiles and the medians use every batch.
fn set_serve_rates(out: &mut Outcome, rtts_s: &[f64], pass_start: &[(usize, usize)]) {
    let pass_secs: Vec<(f64, usize, std::ops::Range<usize>)> = pass_start
        .iter()
        .enumerate()
        .map(|(i, &(start, queries))| {
            let end = pass_start.get(i + 1).map_or(rtts_s.len(), |p| p.0);
            (rtts_s[start..end].iter().sum(), queries, start..end)
        })
        .collect();
    let cut = stats::fast(&pass_secs.iter().map(|p| p.0).collect::<Vec<_>>());
    let fast: Vec<_> = pass_secs.iter().filter(|p| p.0 <= cut).collect();
    let secs: f64 = fast.iter().map(|p| p.0).sum();
    let queries: usize = fast.iter().map(|p| p.1).sum();
    out.set("nodes_per_s", queries as f64 / secs, "1/s");
    let fast_rtts: Vec<f64> = fast
        .iter()
        .flat_map(|p| rtts_s[p.2.clone()].iter().copied())
        .collect();
    out.set("latency_ms", stats::median(&fast_rtts) * 1e3, "ms");

    let pass_qps: Vec<f64> = pass_secs.iter().map(|p| p.1 as f64 / p.0).collect();
    out.set("median_nodes_per_s", stats::median(&pass_qps), "1/s");
    let rtts_us = stats::sorted(&rtts_s.iter().map(|s| s * 1e6).collect::<Vec<_>>());
    let p50_us = stats::percentile(&rtts_us, 50.0);
    out.set("median_latency_ms", p50_us / 1e3, "ms");
    out.set("serve_p50_us", p50_us, "us");
    out.set("serve.rtt_us", p50_us, "us");
    let supported = stats::supported_percentile(rtts_us.len());
    if supported.is_some_and(|p| p >= 99.0) {
        out.set("serve_p99_us", stats::percentile(&rtts_us, 99.0), "us");
    }
    out.note("latency_samples", Json::Num(rtts_us.len() as f64));
    out.note(
        "latency_supported_percentile",
        supported.map_or(Json::Null, Json::Num),
    );
    out.note(
        "pass_qps",
        Json::Arr(pass_qps.into_iter().map(Json::Num).collect()),
    );
}

// ---------------------------------------------------------------------------
// Shards
// ---------------------------------------------------------------------------

/// One timed pass of `shard-spill`.
struct ShardPass {
    encode_s: f64,
    decode_s: f64,
    /// Bytes and files the decode spilled.
    spill: (u64, u64),
    advice: AdviceMap,
    colors: Vec<usize>,
    rounds: RoundStats,
}

/// Total size and count of the files in `dir`, which are then removed.
fn drain_dir(dir: &Path) -> (u64, u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    let (mut bytes, mut files) = (0, 0);
    for entry in entries.flatten() {
        bytes += entry.metadata().map_or(0, |m| m.len());
        files += 1;
        let _ = std::fs::remove_file(entry.path());
    }
    (bytes, files)
}

fn shard(ctx: &mut Run, out: &mut Outcome) {
    let scale = ctx.scale.clone();
    let seed = ctx.sub_seed(5);
    let passes = ctx.passes(Workload::ShardSpill);
    let mut setups = Setups::new(scale.setup_reps, passes);
    let build = |_: &mut Recorder, _: &mut Outcome| torus(scale.shard_side, IdKind::Shifted, seed);
    let net = setups.time(&mut ctx.rec, out, build);
    let g = net.graph();
    let (n, delta) = (g.n(), g.max_degree());
    let schema = ClusterColoringSchema::default();
    let part = Partition::contiguous(n, scale.shard_k);
    let encode_opts = ShardOpts::new(scale.shard_halo);
    let spill_dir = ctx.scratch.join("spill");
    let spill_opts = ShardOpts::new(scale.shard_halo)
        .resident(scale.shard_resident)
        .spill_dir(&spill_dir);
    let rec = &mut ctx.rec;
    let proper = |colors: &[usize]| coloring::is_proper_k_coloring(g, colors, delta + 1);

    // Traced runs first decode with every shard resident, before anything
    // spills, so the resident peak RSS is read uncontaminated.
    let mut resident_s = None;
    if rec.tracing {
        let advice = schema
            .encode_sharded(&net, &part, &encode_opts)
            .expect("sharded encode for the resident leg");
        let all_resident = ShardOpts::new(scale.shard_halo);
        let (decoded, secs) = rec.timed("shard.decode_resident", 0, |_| {
            schema.decode_sharded(&net, &advice, &part, &all_resident)
        });
        out.check(decoded.is_ok_and(|(c, _)| proper(&c)), || {
            "resident sharded decode failed or is improper".into()
        });
        resident_s = Some(secs);
        if let Some(mb) = peak_rss_mb() {
            out.set("shard.resident_rss_mb", mb, "MB");
        }
    }

    let one_pass = |rec: &mut Recorder, pass: u64| -> Result<ShardPass, String> {
        let (advice, encode_s) = rec.timed("encode.sharded", pass, |_| {
            schema.encode_sharded(&net, &part, &encode_opts)
        });
        let advice = advice.map_err(|e| format!("sharded encode: {e}"))?;
        let (decoded, decode_s) = rec.timed("decode.sharded", pass, |_| {
            schema.decode_sharded(&net, &advice, &part, &spill_opts)
        });
        let spill = drain_dir(&spill_dir);
        let (colors, rounds) = decoded.map_err(|e| format!("sharded decode: {e}"))?;
        // decode_sharded checks properness itself; this check shares no
        // code path with it beyond the graph.
        let (ok, _) = rec.timed("verify.sharded", pass, |_| proper(&colors));
        if !ok {
            return Err("sharded decode is improper".into());
        }
        Ok(ShardPass {
            encode_s,
            decode_s,
            spill,
            advice,
            colors,
            rounds,
        })
    };
    let (mut times, mut decode_s, mut spill_mb) = (Vec::new(), Vec::new(), Vec::new());
    let mut queries = Vec::new();
    let mut spill_files = 0;
    let mut last: Option<ShardPass> = None;
    for pass in 0..passes {
        let result = one_pass(rec, pass as u64);
        if result.is_err() {
            rec.tracer.fail_last();
        }
        match result {
            Ok(p) => {
                out.check(true, String::new);
                let advised = net.with_inputs(p.advice.strings());
                queries.push(local_queries(rec, out, &schema, &advised, &p.colors));
                times.push(vec![(p.encode_s, p.decode_s)]);
                decode_s.push(p.decode_s);
                spill_mb.push(p.spill.0 as f64 / (1024.0 * 1024.0));
                spill_files = p.spill.1;
                last = Some(p);
            }
            Err(msg) => {
                out.check(false, || msg);
            }
        }
        setups.repeat_after(pass, rec, out, build);
    }
    setups.finish(out);
    set_pass_rates(out, n as f64, &times);
    set_query_latency(out, &queries);
    if !spill_mb.is_empty() {
        out.set("shard.spill_mb", stats::median(&spill_mb), "MB");
        out.set("shard.spill_files", spill_files as f64, "count");
    }
    out.note("nodes", Json::Num(n as f64));
    out.note(
        "effective_parallelism",
        Json::Num(lad_runtime::effective_parallelism(n) as f64),
    );

    let reference = torus(
        scale.shard_side,
        IdKind::Shifted,
        sub_seed(REFERENCE_SEED, 5),
    );
    let rg = reference.graph();
    let reference = measures(
        out,
        "reference sharded cluster coloring",
        || schema.encode_sharded(&reference, &part, &encode_opts),
        |a| {
            let decoded = schema.decode_sharded(&reference, a, &part, &spill_opts);
            drain_dir(&spill_dir);
            decoded
        },
        |chi| coloring::is_proper_k_coloring(rg, chi, rg.max_degree() + 1),
    );
    let seeded = last
        .as_ref()
        .map(|p| (p.advice.total_bits(), p.rounds.rounds()));
    set_measures(out, n, reference, seeded);

    let Some(ShardPass {
        advice,
        colors,
        rounds,
        ..
    }) = last
    else {
        return;
    };

    if let Some(resident_s) = resident_s {
        out.set("shard.decode_resident_s", resident_s, "s");
        out.set(
            "shard.spill_overhead_s",
            stats::median(&decode_s) - resident_s,
            "s",
        );
        // Bit-identity against the monolithic encoder and decoder.
        let (mono, _) = rec.timed("encode.cluster", 0, |_| AdviceSchema::encode(&schema, &net));
        out.check(mono.as_ref().is_ok_and(|m| *m == advice), || {
            "sharded advice differs from the monolithic encoder's".into()
        });
        let (decoded, _) = rec.timed("decode.cluster", 0, |_| {
            AdviceSchema::decode(&schema, &net, &advice)
        });
        let (ok, _) = rec.timed("verify.cluster", 0, |_| {
            decoded.as_ref().is_ok_and(|(c, _)| proper(c))
        });
        out.check(ok, || "monolithic decode failed or is improper".into());
        out.check(
            decoded.is_ok_and(|(c, r)| c == colors && r == rounds),
            || "sharded decode is not bit-identical to the monolithic decode".into(),
        );
        let advised = net.with_inputs(advice.strings());
        probe::probe(
            rec,
            out,
            "cluster",
            &schema,
            &advised,
            Some(Box::new(schema)),
        );
    }
}
