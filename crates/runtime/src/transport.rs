//! Pluggable message delivery with deterministic fault injection.
//!
//! The synchronous simulator ([`crate::messaging`]) routes every message
//! through a [`Transport`]: given all outboxes of a round, the transport
//! decides what each node actually hears. [`PerfectLink`] reproduces the
//! classical LOCAL model (every message delivered exactly once, in order);
//! [`FaultPlan`] describes an adversarial network — per-round, per-port
//! message drops, duplication, bounded delays, payload corruption, and
//! crash-stop nodes — whose every decision is a **pure function of the
//! plan's seed**, so a run is reproducible bit for bit across executions
//! and build configurations.
//!
//! Determinism is structural, not incidental: fault decisions are computed
//! by stateless hashing of `(seed, round, sender, port, salt)` rather than
//! by a stream RNG, so they do not depend on iteration order, on how many
//! random draws earlier rounds consumed, or on the thread count. Every
//! injected fault is tallied in [`FaultStats`].

use lad_graph::{Graph, NodeId};
use std::collections::BTreeMap;

/// A payload that a faulty network can garble in transit.
///
/// `corrupt` must deterministically mutate `self` as a function of
/// `entropy` (two equal values corrupted with equal entropy stay equal).
/// Implementations should prefer *plausible* mutations — the point of the
/// fault harness is to probe whether receivers detect tampering, and a
/// wildly malformed payload is easier to reject than a subtly wrong one.
pub trait Corruptible {
    /// Deterministically mutates `self` using `entropy` as the fault seed.
    fn corrupt(&mut self, entropy: u64);
}

impl Corruptible for () {
    fn corrupt(&mut self, _entropy: u64) {}
}

impl Corruptible for bool {
    fn corrupt(&mut self, _entropy: u64) {
        *self = !*self;
    }
}

macro_rules! corruptible_int {
    ($($t:ty),*) => {$(
        impl Corruptible for $t {
            fn corrupt(&mut self, entropy: u64) {
                // Flip one bit — the smallest plausible lie.
                let bit = (entropy % (<$t>::BITS as u64)) as u32;
                *self ^= 1 << bit;
            }
        }
    )*};
}

corruptible_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: Corruptible> Corruptible for Option<T> {
    fn corrupt(&mut self, entropy: u64) {
        if let Some(inner) = self {
            inner.corrupt(entropy);
        }
    }
}

impl<T: Corruptible> Corruptible for Vec<T> {
    fn corrupt(&mut self, entropy: u64) {
        if let Some(k) = (!self.is_empty()).then(|| (entropy % self.len() as u64) as usize) {
            self[k].corrupt(splitmix(entropy));
        }
    }
}

impl<A: Corruptible, B: Corruptible> Corruptible for (A, B) {
    fn corrupt(&mut self, entropy: u64) {
        if entropy.is_multiple_of(2) {
            self.0.corrupt(splitmix(entropy));
        } else {
            self.1.corrupt(splitmix(entropy));
        }
    }
}

/// Counters for every fault a transport injected during one run.
///
/// Two runs of the same [`FaultPlan`] over the same execution produce
/// identical statistics — that reproducibility is part of the plan's
/// contract and is pinned by `crates/runtime/tests/faults.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Message copies handed to a receiver (including duplicates and
    /// delayed arrivals; excluding copies still in flight at the end).
    pub delivered: u64,
    /// Messages destroyed outright.
    pub dropped: u64,
    /// Extra copies injected by duplication.
    pub duplicated: u64,
    /// Copies that arrived at least one round late.
    pub delayed: u64,
    /// Copies whose payload was mutated in transit.
    pub corrupted: u64,
    /// Sends suppressed because the sender had crash-stopped.
    pub suppressed: u64,
}

impl FaultStats {
    /// Total number of injected faults (everything except clean deliveries).
    pub fn total_faults(&self) -> u64 {
        self.dropped + self.duplicated + self.delayed + self.corrupted + self.suppressed
    }
}

/// How message delivery happens: the seam between the synchronous
/// simulator and the (possibly adversarial) network.
///
/// `exchange` receives every node's outbox for one round (`outboxes[v][i]`
/// is the message `v` sends on port `i`) and returns every node's inbox
/// (`inboxes[v][i]` is the list of messages arriving at `v` on port `i`
/// this round — possibly empty, possibly several). Port `i` of `v` leads
/// to its `i`-th neighbor in sorted index order, matching
/// [`lad_graph::Graph::port`].
pub trait Transport<Msg: Clone> {
    /// Routes one round of messages; called with rounds strictly
    /// increasing within a run.
    fn exchange(&mut self, g: &Graph, round: usize, outboxes: &[Vec<Msg>]) -> Vec<Vec<Vec<Msg>>>;

    /// Whether `v` has crash-stopped by `round`. Crashed nodes send,
    /// receive, and output nothing from their crash round on.
    fn is_crashed(&self, v: NodeId, round: usize) -> bool {
        let _ = (v, round);
        false
    }

    /// Fault counters accumulated so far.
    fn fault_stats(&self) -> FaultStats {
        FaultStats::default()
    }
}

/// The classical LOCAL-model network: every message is delivered to the
/// matching port exactly once, unmodified, in the round it was sent.
#[derive(Debug, Clone, Copy, Default)]
pub struct PerfectLink;

impl<Msg: Clone> Transport<Msg> for PerfectLink {
    fn exchange(&mut self, g: &Graph, _round: usize, outboxes: &[Vec<Msg>]) -> Vec<Vec<Vec<Msg>>> {
        g.nodes()
            .map(|v| {
                g.neighbors(v)
                    .iter()
                    .map(|&u| {
                        let port_back = g.port(u, v).expect("symmetric adjacency");
                        vec![outboxes[u.index()][port_back].clone()]
                    })
                    .collect()
            })
            .collect()
    }
}

/// SplitMix64 finalizer — the deterministic mixing primitive behind every
/// fault decision.
#[inline]
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps 64 hash bits to a uniform value in `[0, 1)`.
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The fate of one copy of a message under a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyFate {
    /// Rounds of extra latency (0 = arrives in the round it was sent).
    pub delay: usize,
    /// `Some(entropy)` if the copy's payload is corrupted in transit.
    pub corrupt: Option<u64>,
}

/// The fate of a `(round, sender, port)` send under a [`FaultPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fate {
    /// The sender has crash-stopped; nothing leaves the node.
    Suppressed,
    /// The message is destroyed.
    Dropped,
    /// One or more copies travel, each with its own delay/corruption.
    Deliver(Vec<CopyFate>),
}

/// A seeded, fully deterministic description of a misbehaving network.
///
/// The plan is pure configuration: rates, a delay bound, and a crash
/// schedule. Every decision it makes is a hash of
/// `(seed, round, sender, port)`, so the same plan produces the same
/// faults on every run — start an execution with [`FaultPlan::start`],
/// which yields the stateful [`FaultRun`] transport (the state is only the
/// in-flight queue of delayed messages and the fault counters).
///
/// # Example
///
/// ```
/// use lad_runtime::{FaultPlan, Fate};
/// use lad_graph::NodeId;
///
/// let plan = FaultPlan::new(7).drop_rate(0.5);
/// // Decisions are reproducible: same (round, sender, port) ⇒ same fate.
/// assert_eq!(plan.fate(3, NodeId(0), 1), plan.fate(3, NodeId(0), 1));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    drop: f64,
    duplicate: f64,
    corrupt: f64,
    delay: f64,
    max_delay: usize,
    crashes: BTreeMap<u32, usize>,
}

impl FaultPlan {
    /// A fault-free plan with the given seed; compose rates onto it.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop: 0.0,
            duplicate: 0.0,
            corrupt: 0.0,
            delay: 0.0,
            max_delay: 0,
            crashes: BTreeMap::new(),
        }
    }

    /// Probability that a message is destroyed outright.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1` (for all rate setters).
    pub fn drop_rate(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "rate must be in [0, 1]");
        self.drop = p;
        self
    }

    /// Probability that a surviving message is duplicated (one extra copy).
    pub fn duplicate_rate(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "rate must be in [0, 1]");
        self.duplicate = p;
        self
    }

    /// Probability that a copy's payload is corrupted in transit.
    pub fn corrupt_rate(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "rate must be in [0, 1]");
        self.corrupt = p;
        self
    }

    /// Probability that a copy is delayed, and the (inclusive) bound on how
    /// many rounds late it may arrive.
    pub fn delay(mut self, p: f64, max_delay: usize) -> Self {
        assert!((0.0..=1.0).contains(&p), "rate must be in [0, 1]");
        assert!(max_delay >= 1 || p == 0.0, "delays need a positive bound");
        self.delay = p;
        self.max_delay = max_delay;
        self
    }

    /// Crash-stops `node` from `from_round` on: it sends, receives, and
    /// outputs nothing in rounds `≥ from_round`.
    pub fn crash(mut self, node: NodeId, from_round: usize) -> Self {
        self.crashes.insert(node.0, from_round);
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether the plan injects no faults at all (equivalent to
    /// [`PerfectLink`]).
    pub fn is_fault_free(&self) -> bool {
        self.drop == 0.0
            && self.duplicate == 0.0
            && self.corrupt == 0.0
            && self.delay == 0.0
            && self.crashes.is_empty()
    }

    /// Whether the plan can alter payloads or silence nodes (as opposed to
    /// merely reordering/duplicating/losing re-sendable messages).
    pub fn is_content_preserving(&self) -> bool {
        self.corrupt == 0.0 && self.crashes.is_empty()
    }

    /// Whether `v` has crash-stopped by `round` under this plan.
    pub fn is_crashed(&self, v: NodeId, round: usize) -> bool {
        self.crashes.get(&v.0).is_some_and(|&from| round >= from)
    }

    /// Stateless decision hash for `(round, src, port, salt)`.
    fn h(&self, round: usize, src: NodeId, port: usize, salt: u64) -> u64 {
        let mut x = splitmix(self.seed ^ 0x7478_6f70_5f64_6574); // "ted_port"
        for w in [round as u64, u64::from(src.0), port as u64, salt] {
            x = splitmix(x ^ w);
        }
        x
    }

    /// The fate of the message sent on `(round, src, port)` — a pure
    /// function of the plan, usable outside a simulator run (e.g. by
    /// advice-delivery harnesses).
    pub fn fate(&self, round: usize, src: NodeId, port: usize) -> Fate {
        if self.is_crashed(src, round) {
            return Fate::Suppressed;
        }
        if self.drop > 0.0 && unit(self.h(round, src, port, 1)) < self.drop {
            return Fate::Dropped;
        }
        let copies = 1 + usize::from(
            self.duplicate > 0.0 && unit(self.h(round, src, port, 2)) < self.duplicate,
        );
        let fates = (0..copies)
            .map(|c| {
                let salt = 16 + c as u64;
                let delay = if self.max_delay > 0
                    && self.delay > 0.0
                    && unit(self.h(round, src, port, salt)) < self.delay
                {
                    1 + (self.h(round, src, port, salt + 16) % self.max_delay as u64) as usize
                } else {
                    0
                };
                let corrupt = (self.corrupt > 0.0
                    && unit(self.h(round, src, port, salt + 32)) < self.corrupt)
                    .then(|| self.h(round, src, port, salt + 48));
                CopyFate { delay, corrupt }
            })
            .collect();
        Fate::Deliver(fates)
    }

    /// Begins an execution under this plan: a stateful [`Transport`]
    /// carrying the in-flight queue and fault counters.
    pub fn start<Msg>(&self) -> FaultRun<Msg> {
        FaultRun {
            plan: self.clone(),
            in_flight: BTreeMap::new(),
            stats: FaultStats::default(),
        }
    }
}

/// One execution of a [`FaultPlan`]: implements [`Transport`] by applying
/// the plan's per-message fates, queueing delayed copies, and counting
/// every injected fault.
#[derive(Debug)]
pub struct FaultRun<Msg> {
    plan: FaultPlan,
    /// Delayed copies keyed by arrival round: `(receiver, port, payload)`.
    in_flight: BTreeMap<usize, Vec<(usize, usize, Msg)>>,
    stats: FaultStats,
}

impl<Msg> FaultRun<Msg> {
    /// The plan this run executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

impl<Msg: Clone + Corruptible> Transport<Msg> for FaultRun<Msg> {
    fn exchange(&mut self, g: &Graph, round: usize, outboxes: &[Vec<Msg>]) -> Vec<Vec<Vec<Msg>>> {
        let mut inboxes: Vec<Vec<Vec<Msg>>> =
            g.nodes().map(|v| vec![Vec::new(); g.degree(v)]).collect();
        // Delayed copies sent in earlier rounds arrive first.
        for (receiver, port, msg) in self.in_flight.remove(&round).unwrap_or_default() {
            self.stats.delivered += 1;
            inboxes[receiver][port].push(msg);
        }
        for v in g.nodes() {
            for (i, &u) in g.neighbors(v).iter().enumerate() {
                let port_back = g.port(u, v).expect("symmetric adjacency");
                match self.plan.fate(round, v, i) {
                    Fate::Suppressed => self.stats.suppressed += 1,
                    Fate::Dropped => self.stats.dropped += 1,
                    Fate::Deliver(copies) => {
                        self.stats.duplicated += copies.len() as u64 - 1;
                        for fate in copies {
                            let mut msg = outboxes[v.index()][i].clone();
                            if let Some(entropy) = fate.corrupt {
                                msg.corrupt(entropy);
                                self.stats.corrupted += 1;
                            }
                            if fate.delay == 0 {
                                self.stats.delivered += 1;
                                inboxes[u.index()][port_back].push(msg);
                            } else {
                                self.stats.delayed += 1;
                                self.in_flight.entry(round + fate.delay).or_default().push((
                                    u.index(),
                                    port_back,
                                    msg,
                                ));
                            }
                        }
                    }
                }
            }
        }
        inboxes
    }

    fn is_crashed(&self, v: NodeId, round: usize) -> bool {
        self.plan.is_crashed(v, round)
    }

    fn fault_stats(&self) -> FaultStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_graph::generators;

    #[test]
    fn perfect_link_routes_to_matching_ports() {
        let g = generators::path(3);
        // Node v sends "v:i" on port i.
        let outboxes: Vec<Vec<String>> = g
            .nodes()
            .map(|v| {
                (0..g.degree(v))
                    .map(|i| format!("{}:{i}", v.index()))
                    .collect()
            })
            .collect();
        let inboxes = PerfectLink.exchange(&g, 1, &outboxes);
        // Node 1's port 0 leads to node 0; node 0 sends to node 1 on its port 0.
        assert_eq!(inboxes[1][0], vec!["0:0".to_string()]);
        assert_eq!(inboxes[1][1], vec!["2:0".to_string()]);
        assert_eq!(inboxes[0][0], vec!["1:0".to_string()]);
    }

    #[test]
    fn fates_are_reproducible_and_seed_sensitive() {
        let plan = FaultPlan::new(3).drop_rate(0.4).corrupt_rate(0.3);
        let other = FaultPlan::new(4).drop_rate(0.4).corrupt_rate(0.3);
        let mut diverged = false;
        for round in 0..20 {
            for port in 0..3 {
                let f = plan.fate(round, NodeId(5), port);
                assert_eq!(f, plan.fate(round, NodeId(5), port));
                diverged |= f != other.fate(round, NodeId(5), port);
            }
        }
        assert!(
            diverged,
            "different seeds must give different fault streams"
        );
    }

    #[test]
    fn extreme_rates_behave() {
        let blackout = FaultPlan::new(1).drop_rate(1.0);
        assert_eq!(blackout.fate(0, NodeId(0), 0), Fate::Dropped);
        let clean = FaultPlan::new(1);
        assert!(clean.is_fault_free());
        match clean.fate(9, NodeId(2), 1) {
            Fate::Deliver(copies) => {
                assert_eq!(copies.len(), 1);
                assert_eq!(
                    copies[0],
                    CopyFate {
                        delay: 0,
                        corrupt: None
                    }
                );
            }
            other => panic!("clean plan produced {other:?}"),
        }
    }

    #[test]
    fn crash_schedule_is_respected() {
        let plan = FaultPlan::new(0).crash(NodeId(2), 3);
        assert!(!plan.is_crashed(NodeId(2), 2));
        assert!(plan.is_crashed(NodeId(2), 3));
        assert!(plan.is_crashed(NodeId(2), 9));
        assert!(!plan.is_crashed(NodeId(1), 9));
        assert_eq!(plan.fate(5, NodeId(2), 0), Fate::Suppressed);
        assert!(!plan.is_fault_free());
        assert!(!plan.is_content_preserving());
    }

    #[test]
    fn fault_run_counts_faults_deterministically() {
        let g = generators::cycle(8);
        let plan = FaultPlan::new(11)
            .drop_rate(0.3)
            .duplicate_rate(0.2)
            .delay(0.2, 2)
            .corrupt_rate(0.1);
        let run_once = || {
            let mut run: FaultRun<u64> = plan.start();
            let mut all = Vec::new();
            for round in 1..=6 {
                let outboxes: Vec<Vec<u64>> = g
                    .nodes()
                    .map(|v| vec![v.index() as u64; g.degree(v)])
                    .collect();
                all.push(run.exchange(&g, round, &outboxes));
            }
            (all, run.fault_stats())
        };
        let (a, sa) = run_once();
        let (b, sb) = run_once();
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert!(
            sa.total_faults() > 0,
            "rates this high must inject something"
        );
        assert!(sa.delivered > 0);
    }

    #[test]
    fn corruptible_impls_mutate_deterministically() {
        let mut a = 5u64;
        let mut b = 5u64;
        a.corrupt(9);
        b.corrupt(9);
        assert_eq!(a, b);
        assert_ne!(a, 5);
        let mut v = vec![1u32, 2, 3];
        v.corrupt(4);
        assert_ne!(v, vec![1, 2, 3]);
        let mut flag = true;
        flag.corrupt(0);
        assert!(!flag);
        let mut none: Option<u8> = None;
        none.corrupt(1); // no-op, must not panic
        assert_eq!(none, None);
        let mut pair = (1u8, 2u8);
        pair.corrupt(8);
        assert_ne!(pair, (1, 2));
    }
}
