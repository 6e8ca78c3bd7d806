//! Adaptive execution planning: pick a churn session's family per
//! instance.
//!
//! A class memo trades per-node step evaluation for per-node keying;
//! whether that trade wins depends on the *instance*, not the schema. A
//! cycle's balls collapse into a handful of canonical classes (hit rate
//! ≈ 1); a small torus wraps every ball into a distinct class (hit rate
//! ≈ 0, keying is pure overhead); a large-radius step on a grid can have a
//! high hit rate and *still* lose because one keying costs more than one
//! evaluation. [`plan_decode`] measures the instance with a cheap probe
//! and picks the family [`crate::PlannedChurnLocal`] opens:
//!
//! 1. **Probe** ~√n golden-stride centers: gather and key their balls
//!    exactly as the memo does (one BFS membership and one canonical key
//!    per ball), timing keying per ball, and optionally time the caller's
//!    plain per-node step on a capped sub-sample.
//! 2. **Predict the full-run hit rate** from the sample's class counts.
//!    Over a full run each of the instance's `C` classes costs exactly
//!    one evaluation, so the full-run miss rate is `C/n`; the probe
//!    estimates `C` with Chao1, `Ĉ = d + f₁²/2f₂` (`d` distinct classes
//!    in the sample, `f₁`/`f₂` classes seen once/twice) — repeats in a
//!    √n sample pin the class total through the birthday effect. Keys
//!    are exact canonical forms, not hashes, so a sample with *zero*
//!    repeats (`d = k`) is zero evidence of sharing and predicts
//!    `miss = 1`. (The Good–Turing marginal rate `f₁/k` is the wrong
//!    estimator here: it gives the novelty probability of the *next*
//!    draw at sample size `k`, which on a class-rich-but-shareable
//!    instance — say 3 000 classes over 100 000 nodes — calls a
//!    mostly-singleton sample "mostly novel" and overestimates the
//!    full-run miss by 30×.)
//! 3. **Decide** from the probe's own measurements. Per ball the memo
//!    pays its keying (`t_key`, measured) plus, on a miss, one
//!    evaluation; the plain family pays one evaluation (`t_eval`: the
//!    caller's `eval_probe` timed on the sample, or else four keyings'
//!    worth). The memo wins when `1.2 · (t_key + miss · t_eval) < t_eval`.
//!    A predicted hit rate below 5% skips keying outright regardless of
//!    costs.
//!
//! Correctness never depends on the decision: both churn sessions are
//! pinned bit-identical to a from-scratch reference run, so the planner
//! can only be slow, never wrong. Decodes do not consult it: every
//! decode ladder climbs each node's ladder on its own
//! ([`crate::Run::ladder`]).

use crate::ball::{BallMembers, Scratch};
use crate::canonical::{key_of_members, CanonScratch, CanonicalKey};
use crate::network::Network;
use lad_graph::NodeId;
use std::collections::HashMap;
use std::time::Instant;

/// Safety factor on the memo's predicted cost: it must win by this margin.
const MEMO_MARGIN: f64 = 1.2;
/// Predicted hit rates below this skip keying outright.
const BYPASS_HIT_RATE: f64 = 0.05;
/// At most this many live step evaluations per probe.
const EVAL_SAMPLE_CAP: usize = 16;
/// Probe at least this many centers (when the graph has them).
const KEY_SAMPLE_FLOOR: usize = 16;
/// Probe at most this many centers.
const KEY_SAMPLE_CEIL: usize = 1024;

/// Which executor family a plan selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPath {
    /// Plain execution: every node evaluates its own step, no keying.
    Plain,
    /// Class-memoized execution: one step evaluation per canonical
    /// class, each node paying one gather and one keying per rung.
    Memo,
}

/// One planning decision with the probe evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanDecision {
    /// The selected path.
    pub path: ExecPath,
    /// Predicted full-run memo hit rate, `1 − Ĉ/n` with `Ĉ` the Chao1
    /// class-count estimate (`0.0` on an empty instance, or when the
    /// sample had no repeated class).
    pub predicted_hit_rate: f64,
    /// Probed centers.
    pub sampled: usize,
    /// Distinct canonical classes among the probed centers.
    pub distinct: usize,
    /// Chao1 estimate of the instance's total class count; the predicted
    /// miss rate is `min(1, est_classes/n)`.
    pub est_classes: f64,
    /// Measured keying cost per ball during the probe, nanoseconds.
    pub key_ns_per_ball: f64,
    /// Step cost per ball used by the model: measured when a live probe
    /// closure was supplied, otherwise four times `key_ns_per_ball`.
    pub eval_ns_per_ball: f64,
    /// Total probe wall time, nanoseconds.
    pub probe_ns: u64,
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// The planner's probe stride for an `n`-node instance: the golden-ratio
/// step `⌊n·φ⁻¹⌋`, bumped to the nearest value coprime to `n`.
///
/// Coprimality makes `j·s mod n` injective (deterministic, collision-free
/// probe centers), and the golden step — unlike the even stride `n/k` —
/// is structurally unaligned with the instance. On a `w×h` torus an even
/// stride that is a multiple of `w` walks a single column, and the probe
/// then reads the column's repeating advice pattern as a high global hit
/// rate; adversarially composite `n` (powers of two, torus row counts)
/// must still yield a coprime stride, which the regression tests pin.
///
/// # Panics
///
/// Panics if `n` is 0.
fn probe_stride(n: usize) -> usize {
    assert!(n > 0, "probe_stride needs a nonempty instance");
    let mut s = ((n as f64) * 0.618_033_988_749_895) as usize % n;
    s = s.max(1);
    while gcd(s, n) != 1 {
        s = s % n + 1;
    }
    s
}

/// Plans a memoized ladder over `net` that starts at `radius`.
///
/// `input_tag` must be the same prefix-free word writer the memo would
/// key with. `eval_probe`, when given, is timed on a capped sub-sample of
/// the probed centers (it should run the *plain* per-node step —
/// materialize the ball, evaluate, discard — and must tolerate any node,
/// including ones whose step would error); without it, evaluation is
/// assumed to cost four keyings. `_schema` is unused.
pub fn plan_decode<In: Clone>(
    net: &Network<In>,
    radius: usize,
    input_tag: impl Fn(&In, &mut Vec<u64>),
    _schema: &str,
    eval_probe: Option<&mut dyn FnMut(NodeId)>,
) -> PlanDecision {
    let n = net.graph().n();
    if n == 0 {
        return PlanDecision {
            path: ExecPath::Plain,
            predicted_hit_rate: 0.0,
            sampled: 0,
            distinct: 0,
            est_classes: 0.0,
            key_ns_per_ball: 0.0,
            eval_ns_per_ball: 0.0,
            probe_ns: 0,
        };
    }
    let start = Instant::now();
    // Half of √n keeps the probe under ~1% of a plain decode; the
    // birthday repeats that drive the Chao1 estimate degrade gracefully
    // (quarter the collisions, same expectation structure).
    let k = ((n as f64).sqrt().ceil() as usize / 2)
        .clamp(KEY_SAMPLE_FLOOR, KEY_SAMPLE_CEIL)
        .min(n);
    let stride = probe_stride(n);
    let centers: Vec<NodeId> = (0..k)
        .map(|j| NodeId::from_index((j as u128 * stride as u128 % n as u128) as usize))
        .collect();
    let g = net.graph();
    let mut scratch = Scratch::new(n);
    let mut cs = CanonScratch::new();
    let mut counts: HashMap<CanonicalKey, u32> = HashMap::with_capacity(k);
    let key_t = Instant::now();
    for &c in &centers {
        let members = BallMembers::gather(g, c, radius, &mut scratch);
        let key = key_of_members(net, &members, &scratch, &input_tag, &mut cs);
        members.recycle(&mut scratch);
        *counts.entry(key).or_insert(0) += 1;
    }
    let key_ns_per_ball = key_t.elapsed().as_nanos() as f64 / k as f64;
    let d = counts.len();
    let f1 = counts.values().filter(|&&c| c == 1).count();
    let f2 = counts.values().filter(|&&c| c == 2).count();
    let est_classes = if f2 > 0 {
        d as f64 + (f1 * f1) as f64 / (2 * f2) as f64
    } else {
        d as f64 + (f1 * f1.saturating_sub(1)) as f64 / 2.0
    }
    .min(n as f64);
    // Full-run miss rate = classes/n: every class costs one evaluation
    // over the run. Exact keys make an all-singleton sample (`d == k`)
    // zero evidence of sharing — predict all-distinct and bypass.
    let miss = if d == k {
        1.0
    } else {
        (est_classes / n as f64).min(1.0)
    };
    let predicted_hit_rate = 1.0 - miss;
    let eval_ns_per_ball = match eval_probe {
        Some(probe) => {
            let sample = EVAL_SAMPLE_CAP.clamp(1, k);
            let eval_t = Instant::now();
            for &c in centers.iter().take(sample) {
                probe(c);
            }
            eval_t.elapsed().as_nanos() as f64 / sample as f64
        }
        // No live probe: assume evaluation is a few keyings' worth, which
        // lets a high hit rate still choose the memo.
        None => 4.0 * key_ns_per_ball,
    };
    let memo = predicted_hit_rate >= BYPASS_HIT_RATE
        && MEMO_MARGIN * (key_ns_per_ball + miss * eval_ns_per_ball) < eval_ns_per_ball;
    let probe_ns = start.elapsed().as_nanos() as u64;
    PlanDecision {
        path: if memo {
            ExecPath::Memo
        } else {
            ExecPath::Plain
        },
        predicted_hit_rate,
        sampled: k,
        distinct: d,
        est_classes,
        key_ns_per_ball,
        eval_ns_per_ball,
        probe_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_graph::generators;

    fn tag(x: &u8, words: &mut Vec<u64>) {
        words.push(*x as u64);
    }

    #[test]
    fn cycle_picks_memo_small_torus_picks_plain() {
        // A long cycle collapses to a handful of classes; with a live
        // probe showing an expensive step, the memo wins. (A sleep stands
        // in for the step so the decision is independent of build
        // profile.)
        let cyc =
            Network::with_identity_ids(generators::cycle(20_000)).with_inputs(vec![0u8; 20_000]);
        let slow = &mut |_c: NodeId| std::thread::sleep(std::time::Duration::from_millis(2));
        let d = plan_decode(&cyc, 3, tag, "cluster-coloring", Some(slow));
        assert!(d.predicted_hit_rate > 0.9, "{d:?}");
        assert_eq!(d.path, ExecPath::Memo, "{d:?}");
        // A small torus carrying per-node-distinct advice makes every
        // ball its own class: the probe must predict a sub-bypass hit
        // rate and skip keying.
        let n = 32 * 32;
        let torus = Network::with_identity_ids(generators::grid2d(32, 32, true))
            .with_inputs((0..n as u64).collect());
        let d = plan_decode(
            &torus,
            10,
            |x: &u64, w: &mut Vec<u64>| w.push(*x),
            "cluster-coloring",
            None,
        );
        assert!(
            d.predicted_hit_rate < 0.05,
            "tagged torus balls are all distinct: {d:?}"
        );
        assert_eq!(d.path, ExecPath::Plain, "{d:?}");
    }

    #[test]
    fn chao1_extrapolates_class_rich_but_shareable_instances() {
        // Radius-1 path balls tagged from a 4-letter alphabet: ~68
        // classes (center tag × unordered neighbor pair, plus boundary
        // variants) over 5000 nodes. A √n sample repeats classes by the birthday
        // effect, which pins the class total. The marginal-novelty
        // estimate f₁/k would predict a large miss here; the full-run
        // truth is ≈ 68/5000. (Tags are hash-scrambled so the strided
        // centers can't alias a periodic input pattern.)
        let n = 5000;
        let tags: Vec<u64> = (0..n as u64)
            .map(|i| {
                // splitmix64 finalizer: a plain multiply-and-shift of
                // consecutive integers is a Weyl sequence whose adjacent
                // tags correlate, which collapses the window classes.
                let mut x = i;
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (x ^ (x >> 31)) % 4
            })
            .collect();
        let net = Network::with_identity_ids(generators::path(n)).with_inputs(tags);
        let d = plan_decode(
            &net,
            1,
            |x: &u64, w: &mut Vec<u64>| w.push(*x),
            "cluster-coloring",
            None,
        );
        assert!(
            d.distinct < d.sampled,
            "sample should repeat classes: {d:?}"
        );
        assert!(
            d.est_classes > 30.0 && d.est_classes < 250.0,
            "Chao1 should land near the true ~68 classes: {d:?}"
        );
        assert!(d.predicted_hit_rate > 0.9, "{d:?}");
        assert_eq!(d.path, ExecPath::Memo, "{d:?}");
    }

    #[test]
    fn probe_stride_is_coprime_on_adversarial_composites() {
        // Powers of two, primorials (many small factors), squares, and
        // assorted highly composite n: the bump loop must always land on
        // a unit of Z/n.
        let adversarial = [
            1usize,
            2,
            3,
            4,
            6,
            10,
            64,
            256,
            1024,
            4096,
            65_536,
            30,
            210,
            2_310,
            30_030,
            510_510,
            32 * 32,
            48 * 48,
            100 * 100,
            999_999,
            1_000_000,
        ];
        for &n in &adversarial {
            let s = probe_stride(n);
            assert!(s >= 1 && s <= n, "stride {s} out of range for n={n}");
            assert_eq!(gcd(s, n), 1, "stride {s} shares a factor with n={n}");
        }
    }

    #[test]
    fn probe_stride_never_walks_a_torus_column() {
        // Regression pin for the even-stride aliasing fix: a stride that
        // is a multiple of the torus width w visits a single column, and
        // the probe then reads the column's repeating advice pattern as a
        // high global hit rate. A stride coprime to n = w·h cannot divide
        // by w or h, and its probe centers are pairwise distinct.
        for (w, h) in [(32, 32), (40, 25), (96, 64), (128, 72), (64, 64), (50, 20)] {
            let n = w * h;
            let s = probe_stride(n);
            assert_ne!(s % w, 0, "stride {s} aliases the {w}-wide torus columns");
            assert_ne!(s % h, 0, "stride {s} aliases the {h}-tall torus rows");
            let k = ((n as f64).sqrt().ceil() as usize) / 2;
            let centers: std::collections::HashSet<usize> = (0..k).map(|j| j * s % n).collect();
            assert_eq!(centers.len(), k, "strided centers collide for n={n}");
        }
    }

    #[test]
    fn live_eval_probe_feeds_the_decision() {
        let net =
            Network::with_identity_ids(generators::cycle(5_000)).with_inputs(vec![0u8; 5_000]);
        let mut evals = 0usize;
        let d = plan_decode(&net, 2, tag, "x", Some(&mut |_c| evals += 1));
        assert!(evals > 0 && evals <= EVAL_SAMPLE_CAP);
        assert!(d.eval_ns_per_ball >= 0.0);
    }
}
