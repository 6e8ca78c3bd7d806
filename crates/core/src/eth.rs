//! Contribution 2 (Section 8): the machinery behind the ETH lower bound.
//!
//! The paper's conditional lower bound argues: *if* every LCL could be
//! solved with `β` bits of advice, then a centralized algorithm could
//! solve the LCL by trying all `2^{βn}` advice assignments, decoding each
//! with the local algorithm, and checking the result — contradicting the
//! Exponential-Time Hypothesis, *provided* the local algorithm is cheap to
//! simulate. The two algorithmic ingredients, which we implement and
//! measure (experiments E7/E8):
//!
//! 1. [`brute_force_advice_search`] — the `2^{βn} · n · s(n)` reduction
//!    itself. Its cost visibly explodes exponentially in `n` (the wall the
//!    ETH argument leans on).
//! 2. Cheap simulation via **order invariance**: an order-invariant local
//!    algorithm on bounded-degree graphs is a finite table from canonical
//!    views to outputs (a trained [`lad_runtime::ClassStore`]); here we
//!    additionally memoize decoder evaluations by canonical view, showing
//!    that across all `2^{βn}` iterations only `f(Δ, T, β)` *distinct*
//!    views ever occur — the "`s(n)` is constant" half of the argument.

use crate::bits::BitString;
use lad_lcl::{verify, Labeling, Lcl};
use lad_runtime::canonical::canonicalize_with;
use lad_runtime::{run_local, Ball, CanonScratch, CanonicalKey, Network};
use std::collections::HashMap;
use std::fmt;

/// The brute-force search exceeded its attempt budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchBudgetExceeded {
    /// The exhausted budget.
    pub cap: u64,
}

impl fmt::Display for SearchBudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "advice enumeration exceeded {} attempts", self.cap)
    }
}

impl std::error::Error for SearchBudgetExceeded {}

/// Result of a brute-force advice search.
#[derive(Debug, Clone)]
pub struct BruteForceOutcome {
    /// Advice assignments tried (`≤ 2^{βn}`).
    pub attempts: u64,
    /// The first valid solution found, if any.
    pub found: Option<Labeling>,
    /// Total decoder evaluations (`attempts × n` without memoization).
    pub evaluations: u64,
    /// Distinct canonical (view, advice) pairs the decoder ever saw —
    /// the size of the lookup table an order-invariant simulation needs.
    pub distinct_views: usize,
}

/// Enumerates all `2^{β·n}` advice assignments; for each, runs the
/// radius-`radius` decoder at every node and checks the resulting node
/// labeling against `lcl`. Stops at the first valid solution.
///
/// With `memoize`, decoder evaluations are cached by the canonical form of
/// the (view + advice) ball — the constructive face of the paper's
/// order-invariance reduction. The provided `decoder` must itself be
/// order-invariant for the memoized and direct runs to coincide (all
/// decoders passed by our experiments are).
///
/// # Errors
///
/// [`SearchBudgetExceeded`] once more than `cap` assignments were tried.
///
/// # Panics
///
/// Panics if `β·n ≥ 48` (enumeration would never finish anyway).
pub fn brute_force_advice_search(
    net: &Network,
    lcl: &dyn Lcl,
    beta: usize,
    radius: usize,
    decoder: impl Fn(&Ball<BitString>) -> usize,
    memoize: bool,
    cap: u64,
) -> Result<BruteForceOutcome, SearchBudgetExceeded> {
    let g = net.graph();
    let n = g.n();
    let total_bits = beta * n;
    assert!(total_bits < 48, "advice space too large to enumerate");
    let cache: std::cell::RefCell<HashMap<CanonicalKey, usize>> =
        std::cell::RefCell::new(HashMap::new());
    // One keying workspace for the entire 2^{βn} enumeration, instead of
    // a fresh allocation per canonicalized ball.
    let scratch = std::cell::RefCell::new(CanonScratch::new());
    let evaluations = std::cell::Cell::new(0u64);
    let mut attempts = 0u64;
    let tag = |bits: &BitString| -> u64 {
        let mut t = 1u64; // leading 1 distinguishes lengths
        for b in bits.iter() {
            t = (t << 1) | b as u64;
        }
        t
    };
    for counter in 0u64..(1u64 << total_bits) {
        attempts += 1;
        if attempts > cap {
            return Err(SearchBudgetExceeded { cap });
        }
        // Node i holds bits [i·β, (i+1)·β) of the counter.
        let advice: Vec<BitString> = (0..n)
            .map(|i| {
                let mut s = BitString::new();
                for b in 0..beta {
                    s.push((counter >> (i * beta + b)) & 1 == 1);
                }
                s
            })
            .collect();
        let advised = net.with_inputs(advice);
        // Stays on the sequential executor: the canonical-view memo is a
        // RefCell shared across the whole enumeration, and `evaluations`
        // must count deterministically for the reported outcome.
        let (labels, _) = run_local(&advised, |ctx| {
            let ball = ctx.ball(radius);
            if memoize {
                let key = canonicalize_with(&ball, tag, &mut scratch.borrow_mut());
                if let Some(&out) = cache.borrow().get(&key) {
                    return out;
                }
                evaluations.set(evaluations.get() + 1);
                let out = decoder(&ball);
                cache.borrow_mut().insert(key, out);
                out
            } else {
                evaluations.set(evaluations.get() + 1);
                decoder(&ball)
            }
        });
        let labeling = Labeling::from_node_labels(labels, g.m());
        if verify::verify_centralized(net, lcl, &labeling).is_empty() {
            let distinct_views = cache.borrow().len();
            return Ok(BruteForceOutcome {
                attempts,
                found: Some(labeling),
                evaluations: evaluations.get(),
                distinct_views,
            });
        }
    }
    let distinct_views = cache.borrow().len();
    Ok(BruteForceOutcome {
        attempts,
        found: None,
        evaluations: evaluations.get(),
        distinct_views,
    })
}

/// The canonical demonstration decoder: "my advice *is* my label"
/// (radius 0). With `β = ⌈log₂ k⌉` this makes the brute-force search
/// equivalent to trying all labelings — the trivial schema the paper's
/// introduction mentions (`β = 2` suffices to encode a 3-coloring).
pub fn advice_is_label(ball: &Ball<BitString>) -> usize {
    let bits = ball.input(ball.center());
    let mut v = 0usize;
    for b in bits.iter() {
        v = (v << 1) | b as usize;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_graph::generators;
    use lad_lcl::problems::{Mis, ProperColoring};

    #[test]
    fn finds_two_coloring_of_even_cycle() {
        let net = Network::with_identity_ids(generators::cycle(8));
        let out = brute_force_advice_search(
            &net,
            &ProperColoring::new(2),
            1,
            0,
            advice_is_label,
            false,
            1 << 20,
        )
        .unwrap();
        assert!(out.found.is_some());
        // The valid assignments are 0101.. and 1010..; the first is found
        // long before exhausting 2^8.
        assert!(out.attempts < 256);
    }

    #[test]
    fn exhausts_on_odd_cycle() {
        // No 2-coloring exists: the search provably visits all 2^n advice
        // strings — the exponential wall of the ETH argument.
        let net = Network::with_identity_ids(generators::cycle(9));
        let out = brute_force_advice_search(
            &net,
            &ProperColoring::new(2),
            1,
            0,
            advice_is_label,
            false,
            1 << 20,
        )
        .unwrap();
        assert!(out.found.is_none());
        assert_eq!(out.attempts, 512);
        assert_eq!(out.evaluations, 512 * 9);
    }

    #[test]
    fn memoization_collapses_evaluations() {
        let net = Network::with_identity_ids(generators::cycle(9));
        let out = brute_force_advice_search(
            &net,
            &ProperColoring::new(2),
            1,
            0,
            advice_is_label,
            true,
            1 << 20,
        )
        .unwrap();
        assert!(out.found.is_none());
        assert_eq!(out.attempts, 512);
        // Radius-0 views with 1 advice bit: only 2 canonical views exist!
        assert_eq!(out.distinct_views, 2);
        assert_eq!(out.evaluations, 2);
    }

    #[test]
    fn memoized_radius_one_decoder_table_is_small() {
        // A radius-1 order-invariant decoder: join the set iff my advice
        // bit is 1 and no smaller-uid neighbor has bit 1.
        let decoder = |ball: &Ball<BitString>| -> usize {
            let c = ball.center();
            if !ball.input(c).get(0) {
                return 0;
            }
            let me = ball.uid(c);
            let blocked = ball
                .graph()
                .neighbors(c)
                .iter()
                .any(|&u| ball.input(u).get(0) && ball.uid(u) < me);
            usize::from(!blocked)
        };
        let net = Network::with_identity_ids(generators::cycle(7));
        let out = brute_force_advice_search(&net, &Mis, 1, 1, decoder, true, 1 << 20).unwrap();
        assert!(out.found.is_some());
        // Canonical radius-1 cycle views with 3 advice bits and 3 uid
        // orderings: far fewer than attempts × n.
        assert!(out.distinct_views <= 24, "{}", out.distinct_views);
        assert!(out.evaluations <= out.distinct_views as u64);
    }

    #[test]
    fn budget_is_enforced() {
        let net = Network::with_identity_ids(generators::cycle(9));
        let err = brute_force_advice_search(
            &net,
            &ProperColoring::new(2),
            1,
            0,
            advice_is_label,
            false,
            100,
        )
        .unwrap_err();
        assert_eq!(err.cap, 100);
    }

    #[test]
    fn beta_two_encodes_three_coloring() {
        // The paper's trivial β = 2 schema for 3-coloring.
        let net = Network::with_identity_ids(generators::cycle(5));
        let out = brute_force_advice_search(
            &net,
            &ProperColoring::new(3),
            2,
            0,
            advice_is_label,
            false,
            1 << 22,
        )
        .unwrap();
        assert!(out.found.is_some());
    }
}
