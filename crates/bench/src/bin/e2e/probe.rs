//! Layer probes for traced runs: every call below is a public function
//! timed from outside, on sampled nodes of a workload's own advised
//! network, so each workload reports the same layers for its inputs.
//!
//! * `plan` — `plan_decode` on the whole advised network: its cost, its
//!   choice, its predicted hit rate and the share of distinct classes
//!   among the centers it probed;
//! * `ball`, `eval`, `canonical`, `bind` — the decode ladder climbed at
//!   every 64th node (more often on small networks, for at least 256
//!   samples), measured at the radius where the node's class resolves;
//! * with a served schema: `store` (a `ClassStore` of the sampled
//!   classes), `wire` (request encode, ball parse, response decode) and
//!   `serve` (`handle_request` on an in-process `DecodeServer` holding
//!   those classes, replayed so most batches take the hit path).

use crate::stats;
use crate::workloads::{Outcome, Query, Recorder};
use lad_core::schema::AdviceSchema;
use lad_core::{ball_from_words, ball_to_words, query_key, BitString, ServedSchema};
use lad_graph::NodeId;
use lad_runtime::{
    plan_decode, Ball, CanonScratch, CanonicalKey, ClassStore, ClassVerdict, ExecPath, MemoStep,
    Network,
};
use lad_serve::protocol::{decode_batch_response, encode_batch_request, BatchResult};
use lad_serve::DecodeServer;
use std::collections::HashSet;

const STRIDE: usize = 64;
const MIN_SAMPLES: usize = 256;
const BATCH: usize = 16;
/// Replays of the sampled batches through `handle_request`. Hits are
/// re-verified on the 1st, 2nd, 4th, 8th and 16th replay; the median
/// batch takes the plain hit path.
const REPLAYS: usize = 16;

struct Sample {
    collect_s: f64,
    nodes: usize,
    eval_s: f64,
    rungs: usize,
    key_s: f64,
    bind_s: f64,
    key: CanonicalKey,
    class: Vec<u64>,
    query: Query,
}

/// Climbs the ladder at `v`, timing each layer call.
fn sample<S: ServedSchema>(
    rec: &mut Recorder,
    schema: &S,
    advised: &Network<BitString>,
    v: NodeId,
    scratch: &mut CanonScratch,
) -> Option<Sample> {
    let request = v.index() as u64;
    let mut radius = schema.initial_radius();
    for rungs in 1..=64 {
        let (ball, collect_s) = rec.timed("ball.collect", request, |_| {
            Ball::collect(advised, v, radius)
        });
        let (step, eval_s) = rec.timed("eval", request, |_| schema.eval(&ball));
        match step.ok()? {
            MemoStep::Expand(next) => radius = next,
            MemoStep::Done(class) => {
                let (key, key_s) =
                    rec.timed("canonical.key", request, |_| query_key(&ball, scratch));
                let (answer, bind_s) = rec.timed("bind", request, |_| schema.bind(&ball, &class));
                return Some(Sample {
                    collect_s,
                    nodes: ball.n(),
                    eval_s,
                    rungs,
                    key_s,
                    bind_s,
                    key,
                    class,
                    query: Query {
                        words: ball_to_words(&ball),
                        expected: answer.ok()?,
                    },
                });
            }
        }
    }
    None
}

fn median_us(values: impl Iterator<Item = f64>) -> f64 {
    stats::median(&values.map(|s| s * 1e6).collect::<Vec<_>>())
}

/// Probes `schema` on `advised`, naming its metrics `<layer>.<label>.…`.
/// With `served`, also probes the store, wire and serve layers.
pub fn probe<S: AdviceSchema + ServedSchema>(
    rec: &mut Recorder,
    out: &mut Outcome,
    label: &str,
    schema: &S,
    advised: &Network<BitString>,
    served: Option<Box<dyn ServedSchema>>,
) {
    let n = advised.graph().n();
    let radius = ServedSchema::initial_radius(schema);
    let (plan, plan_s) = rec.timed("plan", 0, |_| {
        plan_decode(
            advised,
            radius,
            |bits: &BitString, words: &mut Vec<u64>| bits.push_key_words(words),
            &AdviceSchema::name(schema),
            None,
        )
    });
    let memo = if plan.path == ExecPath::Memo {
        1.0
    } else {
        0.0
    };
    out.set(format!("plan.{label}.memo"), memo, "flag");
    out.set(format!("plan.{label}.probe_s"), plan_s, "s");
    out.set(
        format!("plan.{label}.predicted_hit_rate"),
        plan.predicted_hit_rate,
        "share",
    );
    let sampled = plan.sampled.max(1) as f64;
    out.set(
        format!("plan.{label}.class_share"),
        plan.distinct as f64 / sampled,
        "share",
    );

    let stride = (n / MIN_SAMPLES).clamp(1, STRIDE);
    let mut scratch = CanonScratch::new();
    let mut samples = Vec::new();
    for v in (0..n).step_by(stride).map(NodeId::from_index) {
        let s = sample(rec, schema, advised, v, &mut scratch);
        if out.check(s.is_some(), || {
            format!("{label} ladder failed at node {}", v.index())
        }) {
            samples.extend(s);
        }
    }
    if samples.is_empty() {
        return;
    }
    let count = samples.len() as f64;
    out.set(
        format!("ball.{label}.collect_us"),
        median_us(samples.iter().map(|s| s.collect_s)),
        "us",
    );
    let nodes: usize = samples.iter().map(|s| s.nodes).sum();
    out.set(format!("ball.{label}.nodes"), nodes as f64 / count, "count");
    out.set(
        format!("eval.{label}.us"),
        median_us(samples.iter().map(|s| s.eval_s)),
        "us",
    );
    let rungs: usize = samples.iter().map(|s| s.rungs).sum();
    out.set(format!("eval.{label}.rungs"), rungs as f64 / count, "count");
    out.set(
        format!("canonical.{label}.key_us"),
        median_us(samples.iter().map(|s| s.key_s)),
        "us",
    );
    let distinct: HashSet<&CanonicalKey> = samples.iter().map(|s| &s.key).collect();
    out.set(
        format!("memo.{label}.class_share"),
        distinct.len() as f64 / count,
        "share",
    );
    out.set(
        format!("bind.{label}.us"),
        median_us(samples.iter().map(|s| s.bind_s)),
        "us",
    );

    let Some(served) = served else { return };
    let mut store = ClassStore::new(ServedSchema::schema_id(schema), radius);
    for s in &samples {
        let inserted = store.insert(s.key.clone(), ClassVerdict::Done(s.class.clone()));
        out.check(inserted.is_ok(), || {
            format!("{label}: sampled classes conflict in the store")
        });
    }
    let mut get_s = Vec::with_capacity(samples.len());
    for s in &samples {
        let (found, secs) = rec.timed("store.get", 0, |_| store.get(&s.key));
        get_s.push(secs);
        out.check(
            matches!(found, Some(ClassVerdict::Done(c)) if *c == s.class),
            || format!("{label}: store lost a sampled class"),
        );
    }
    out.set("store.get_us", median_us(get_s.into_iter()), "us");

    let mut parse_s = Vec::new();
    let mut requests = Vec::new();
    let mut encode_s = Vec::new();
    for (b, chunk) in samples.chunks(BATCH).enumerate() {
        let words: Vec<Vec<u64>> = chunk.iter().map(|s| s.query.words.clone()).collect();
        let (request, secs) = rec.timed("wire.encode", b as u64, |_| encode_batch_request(&words));
        encode_s.push(secs);
        for w in &words {
            let (parsed, secs) = rec.timed("wire.parse", b as u64, |_| ball_from_words(w));
            parse_s.push(secs);
            out.check(parsed.is_ok(), || {
                format!("{label}: a sampled ball does not parse")
            });
        }
        requests.push((request, chunk));
    }
    let words: usize = requests.iter().map(|(r, _)| r.len()).sum();
    out.set(
        "wire.request_words",
        words as f64 / requests.len() as f64,
        "count",
    );
    out.set("wire.encode_us", median_us(encode_s.into_iter()), "us");
    out.set("wire.parse_us", median_us(parse_s.into_iter()), "us");

    let server = DecodeServer::new(served, store, false).expect("probe store matches its schema");
    let (mut handle_s, mut decode_s) = (Vec::new(), Vec::new());
    for replay in 0..REPLAYS {
        for (b, (request, chunk)) in requests.iter().enumerate() {
            let id = (replay * requests.len() + b) as u64;
            let ((response, _), secs) =
                rec.timed("serve.handle", id, |_| server.handle_request(request));
            handle_s.push(secs);
            let (results, secs) =
                rec.timed("wire.decode", id, |_| decode_batch_response(&response));
            decode_s.push(secs);
            for (i, s) in chunk.iter().enumerate() {
                let ok = results.as_ref().is_ok_and(|r| {
                    r.get(i) == Some(&BatchResult::Answer(s.query.expected.clone()))
                });
                out.check(ok, || {
                    format!("{label}: in-process server answered query {i} wrongly")
                });
            }
        }
    }
    out.set("serve.handle_us", median_us(handle_s.into_iter()), "us");
    out.set("wire.decode_us", median_us(decode_s.into_iter()), "us");
}
