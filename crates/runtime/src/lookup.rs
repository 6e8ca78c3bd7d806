//! Lookup-table (order-invariant) local algorithms.
//!
//! A `T`-round order-invariant algorithm on bounded-degree graphs is a
//! finite map from canonical radius-`T` views to outputs. [`LookupTable`]
//! materializes such a map by *observing* a black-box algorithm on training
//! networks; conflicting observations (the same canonical view producing
//! different outputs) prove the base algorithm is **not** order-invariant.
//!
//! This is the constructive counterpart of the paper's Ramsey-based
//! order-invariance reduction (Section 8): once an algorithm is a table,
//! simulating it at one node costs a dictionary lookup — the ingredient
//! that makes the brute-force-over-advice ETH argument go through.

use crate::ball::Ball;
use crate::canonical::{canonicalize, canonicalize_with, CanonScratch, CanonicalKey};
use crate::executor::Run;
use crate::network::Network;
use lad_graph::NodeId;
use std::collections::HashMap;
use std::fmt;

/// A conflict discovered while training: one canonical view, two outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotOrderInvariant {
    /// The offending canonical view.
    pub key: CanonicalKey,
}

impl fmt::Display for NotOrderInvariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "base algorithm is not order-invariant: one canonical view produced two outputs"
        )
    }
}

impl std::error::Error for NotOrderInvariant {}

/// A finite table from canonical radius-`r` views to outputs.
#[derive(Debug, Clone)]
pub struct LookupTable<Out> {
    radius: usize,
    table: HashMap<CanonicalKey, Out>,
}

impl<Out: Clone + PartialEq> LookupTable<Out> {
    /// An empty table for views of the given radius.
    pub fn new(radius: usize) -> Self {
        LookupTable {
            radius,
            table: HashMap::new(),
        }
    }

    /// The view radius the table answers for.
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// Number of distinct canonical views stored.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Records an observation.
    ///
    /// # Errors
    ///
    /// Returns [`NotOrderInvariant`] if the key is already mapped to a
    /// different output.
    pub fn observe(&mut self, key: CanonicalKey, out: Out) -> Result<(), NotOrderInvariant> {
        match self.table.get(&key) {
            Some(existing) if *existing != out => Err(NotOrderInvariant { key }),
            Some(_) => Ok(()),
            None => {
                self.table.insert(key, out);
                Ok(())
            }
        }
    }

    /// Trains a table by running `algo` (restricted to radius-`radius`
    /// views) on each training network. Observation gathering fans out
    /// under `run` *across networks* ([`Run::map_with`]; training sets are
    /// many small witness networks), or across contiguous node ranges for
    /// a single large network; each worker keys every view through one
    /// explicit [`CanonScratch`], reused across its whole chunk.
    /// Observations are *recorded* sequentially in network × node order,
    /// so which conflict is reported is deterministic.
    ///
    /// `algo` is evaluated **once per canonical class per worker chunk**,
    /// not once per node — the same discipline the memo executor applies
    /// to decoding: repeat encounters reuse the class's stored output, and
    /// every encounter whose per-class hit count reaches a power of two
    /// re-evaluates `algo` fresh as a safety net. A non-order-invariant
    /// `algo` whose conflicting outputs all fall between verification
    /// points of every chunk can evade detection (detection was exhaustive
    /// when every node was evaluated); on success the table is unchanged —
    /// each class maps to the output of its first evaluation.
    ///
    /// # Errors
    ///
    /// Returns [`NotOrderInvariant`] on any conflicting observation.
    pub fn train<In: Clone + Send + Sync>(
        radius: usize,
        training: &[Network<In>],
        input_tag: impl Fn(&In) -> u64 + Copy + Sync,
        algo: impl Fn(&Ball<In>) -> Out + Sync,
        run: &Run,
    ) -> Result<Self, NotOrderInvariant>
    where
        Out: Send,
    {
        let observe = |scratch: &mut CanonScratch,
                       net: &Network<In>,
                       nodes: std::ops::Range<usize>|
         -> Vec<(CanonicalKey, Out)> {
            let mut memo: HashMap<CanonicalKey, (Out, u64)> = HashMap::new();
            nodes
                .map(|i| {
                    let ball = Ball::collect(net, NodeId::from_index(i), radius);
                    let key = canonicalize_with(&ball, input_tag, scratch);
                    let out = match memo.get_mut(&key) {
                        Some((stored, hits)) => {
                            *hits += 1;
                            if hits.is_power_of_two() {
                                // Safety-net re-evaluation: recorded as-is,
                                // so a disagreement surfaces as a conflict
                                // in the sequential observe pass below.
                                algo(&ball)
                            } else {
                                stored.clone()
                            }
                        }
                        None => {
                            let out = algo(&ball);
                            memo.insert(key.clone(), (out.clone(), 0));
                            out
                        }
                    };
                    (key, out)
                })
                .collect()
        };
        let per_chunk: Vec<Vec<(CanonicalKey, Out)>> = if training.len() > 1 {
            run.map_with(training, CanonScratch::new, |scratch, _, net| {
                observe(scratch, net, 0..net.graph().n())
            })
        } else if let Some(net) = training.first() {
            // One network: fan out across contiguous node ranges instead.
            let n = net.graph().n();
            let chunk = n.div_ceil(run.thread_count(n)).max(1);
            let ranges: Vec<std::ops::Range<usize>> = (0..n)
                .step_by(chunk)
                .map(|s| s..(s + chunk).min(n))
                .collect();
            run.map_with(&ranges, CanonScratch::new, |scratch, _, range| {
                observe(scratch, net, range.clone())
            })
        } else {
            Vec::new()
        };
        let mut t = LookupTable::new(radius);
        for pairs in per_chunk {
            for (key, out) in pairs {
                t.observe(key, out)?;
            }
        }
        Ok(t)
    }

    /// Evaluates the table on a view; `None` when the view was never seen
    /// in training.
    pub fn eval<In>(&self, ball: &Ball<In>, input_tag: impl Fn(&In) -> u64) -> Option<Out> {
        self.table.get(&canonicalize(ball, input_tag)).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_graph::{generators, IdAssignment, NodeId};

    /// An order-invariant toy algorithm: "am I a local minimum among the
    /// uids in my radius-1 view?"
    fn local_min(ball: &Ball) -> bool {
        let me = ball.uid(ball.center());
        ball.graph().nodes().all(|v| ball.uid(v) >= me)
    }

    fn nets(seed0: u64, count: u64) -> Vec<Network> {
        (0..count)
            .map(|s| {
                Network::with_ids(
                    generators::cycle(12),
                    IdAssignment::random_permutation(12, seed0 + s),
                )
            })
            .collect()
    }

    #[test]
    fn train_and_eval_order_invariant_algo() {
        let training = nets(1, 10);
        let table = LookupTable::train(1, &training, |_| 0, local_min, &Run::default()).unwrap();
        assert!(!table.is_empty());
        // Evaluate on a fresh network: table must agree with the algorithm
        // wherever it answers.
        let test = Network::with_ids(
            generators::cycle(12),
            IdAssignment::random_permutation(12, 999),
        );
        let mut answered = 0;
        for v in test.graph().nodes() {
            let ball = Ball::collect(&test, v, 1);
            if let Some(ans) = table.eval(&ball, |_| 0) {
                assert_eq!(ans, local_min(&ball));
                answered += 1;
            }
        }
        assert!(answered > 0);
    }

    #[test]
    fn detects_non_order_invariance() {
        // "Is my uid even?" depends on numerical values, not order.
        let training = nets(50, 10);
        let res = LookupTable::train(
            1,
            &training,
            |_| 0,
            |ball: &Ball| ball.uid(ball.center()) % 2 == 0,
            &Run::default(),
        );
        assert!(res.is_err());
    }

    #[test]
    fn table_size_is_bounded_by_structure() {
        // On a cycle with radius 1 there are finitely many canonical views:
        // center rank among 3 uids (3 orderings of distinct ranks with the
        // center in any position) -> at most 3.
        let training = nets(100, 30);
        let table = LookupTable::train(1, &training, |_| 0, local_min, &Run::default()).unwrap();
        assert!(table.len() <= 3, "got {}", table.len());
    }

    #[test]
    fn eval_unknown_view_is_none() {
        let table: LookupTable<bool> = LookupTable::new(1);
        let net = Network::with_identity_ids(generators::path(3));
        let ball = Ball::collect(&net, NodeId(0), 1);
        assert_eq!(table.eval(&ball, |_| 0), None);
    }
}

/// All permutations of `0..n` (Heap's algorithm; intended for tiny `n`).
fn permutations(n: usize) -> Vec<Vec<usize>> {
    let mut items: Vec<usize> = (0..n).collect();
    let mut out = Vec::new();
    fn heap(k: usize, items: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if k <= 1 {
            out.push(items.clone());
            return;
        }
        for i in 0..k {
            heap(k - 1, items, out);
            if k.is_multiple_of(2) {
                items.swap(i, k - 1);
            } else {
                items.swap(0, k - 1);
            }
        }
    }
    heap(n, &mut items, &mut out);
    out
}

impl<Out: Clone + PartialEq> LookupTable<Out> {
    /// Exhaustively trains a radius-`radius` table that is *total* on
    /// graphs of maximum degree ≤ 2 (disjoint unions of paths and
    /// cycles): every canonical view arising in any such network is
    /// realized — as a path segment of ≤ `2·radius + 1` nodes or a full
    /// cycle of ≤ `2·radius + 1` nodes — on a concrete witness network
    /// with every possible identifier ordering, and the black-box
    /// algorithm is observed on all of them.
    ///
    /// This is the constructive heart of the paper's Section-8 claim that
    /// order-invariant algorithms on bounded-degree graphs are finite
    /// lookup tables: the table below has size `f(radius)`, independent of
    /// any particular input graph.
    ///
    /// # Errors
    ///
    /// [`NotOrderInvariant`] if the observed algorithm is not
    /// order-invariant.
    ///
    /// # Panics
    ///
    /// Panics if `radius > 3` (the witness count grows factorially).
    pub fn train_exhaustive_deg2(
        radius: usize,
        algo: impl Fn(&Ball<()>) -> Out + Copy + Sync,
    ) -> Result<Self, NotOrderInvariant>
    where
        Out: Send,
    {
        assert!(
            radius <= 3,
            "witness enumeration is factorial in the radius"
        );
        let mut witnesses: Vec<lad_graph::Graph> = Vec::new();
        for n in 1..=(2 * radius + 2) {
            if n >= 2 {
                witnesses.push(lad_graph::generators::path(n));
            } else {
                witnesses.push(lad_graph::GraphBuilder::new(1).build());
            }
        }
        for n in 3..=(2 * radius + 1).max(3) {
            witnesses.push(lad_graph::generators::cycle(n));
        }
        let mut training = Vec::new();
        for g in &witnesses {
            for perm in permutations(g.n()) {
                let uids: Vec<u64> = perm.iter().map(|&p| p as u64 + 1).collect();
                training.push(Network::with_ids(
                    g.clone(),
                    lad_graph::IdAssignment::from_uids(uids),
                ));
            }
        }
        Self::train(radius, &training, |_| 0, algo, &Run::default())
    }
}

#[cfg(test)]
mod exhaustive_tests {
    use super::*;
    use lad_graph::{generators, IdAssignment, NodeId};

    fn local_min(ball: &Ball<()>) -> bool {
        let me = ball.uid(ball.center());
        ball.graph().nodes().all(|v| ball.uid(v) >= me)
    }

    #[test]
    fn exhaustive_table_is_total_on_deg2_networks() {
        let table = LookupTable::train_exhaustive_deg2(1, local_min).unwrap();
        // Evaluate on fresh networks with sparse random identifiers:
        // every view must be answered, and answered correctly.
        for seed in 0..5 {
            for g in [
                generators::cycle(40),
                generators::path(23),
                generators::disjoint_union(&[generators::cycle(5), generators::path(9)]),
            ] {
                let n = g.n();
                let net = Network::with_ids(g, IdAssignment::random_sparse(n, 10_000, seed));
                for v in net.graph().nodes() {
                    let ball = Ball::collect(&net, v, 1);
                    let ans = table
                        .eval(&ball, |_| 0)
                        .expect("exhaustive table must be total");
                    assert_eq!(ans, local_min(&ball));
                }
            }
        }
    }

    #[test]
    fn exhaustive_table_size_is_a_constant() {
        let t1 = LookupTable::train_exhaustive_deg2(1, local_min).unwrap();
        let t2 = LookupTable::train_exhaustive_deg2(2, local_min).unwrap();
        // f(radius), certainly not a function of any n we later run on.
        assert!(t1.len() < t2.len());
        assert!(t2.len() < 1000, "table stays small: {}", t2.len());
    }

    #[test]
    fn permutations_count() {
        assert_eq!(super::permutations(1).len(), 1);
        assert_eq!(super::permutations(3).len(), 6);
        assert_eq!(super::permutations(4).len(), 24);
        // All distinct.
        let mut p = super::permutations(4);
        p.sort();
        p.dedup();
        assert_eq!(p.len(), 24);
    }

    #[test]
    fn radius_zero_single_node() {
        let table = LookupTable::train_exhaustive_deg2(0, |ball: &Ball<()>| ball.n()).unwrap();
        let net = Network::with_identity_ids(generators::cycle(9));
        let ball = Ball::collect(&net, NodeId(4), 0);
        assert_eq!(table.eval(&ball, |_| 0), Some(1));
    }
}
