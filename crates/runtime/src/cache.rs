//! A shared, thread-safe cache of ball views.
//!
//! Gathering a radius-`r` ball is the dominant cost of executing a LOCAL
//! algorithm, and neighboring nodes' balls overlap heavily — on bounded-
//! degree graphs a single ball is re-explored `Θ(Δ^r)` times across an
//! execution, and adaptive decoders ask the *same node* for radii
//! `1, 2, …, r` in sequence. [`ViewCache`] eliminates both redundancies:
//!
//! * **Reuse across calls**: the first request for `(v, r)` materializes the
//!   ball and stores it behind an [`Arc`]; every later request (same run,
//!   later phase, other thread) is a clone of the `Arc`.
//! * **Incremental expansion**: once a node has been asked for a second
//!   distinct radius, the cache keeps its BFS membership at the largest
//!   radius seen so far. A request for a bigger radius *continues* that
//!   BFS from its frontier instead of restarting from the center, and a
//!   request for a smaller radius takes a prefix — BFS discovery order
//!   makes radius-`r` membership a prefix of radius-`r+1` membership.
//!   (A node's *first* touch deliberately skips this bookkeeping: most
//!   nodes are served at exactly one radius, and a cold population then
//!   retains exactly one ball per node and nothing else.)
//!
//! Cached balls are **bit-identical** to what [`Ball::collect`] produces
//! (`crates/runtime/tests/equivalence.rs` enforces this differentially):
//! membership order is the BFS queue order either way, and both paths build
//! the final [`Ball`] through one shared constructor.
//!
//! Concurrency is per-node: each node has its own mutex-guarded slot, so
//! parallel workers contend only when they ask for the *same* center at the
//! same time. The cache never blocks a slot while gathering another.

use crate::ball::{Ball, BallMembers, Scratch};
use crate::network::Network;
use lad_graph::NodeId;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Per-node cache entry: the widest BFS membership seen plus materialized
/// balls by radius.
///
/// The first materialized ball lives inline: the overwhelmingly common
/// access pattern — every node touched at exactly one radius per phase —
/// then never allocates a `BTreeMap` node, and a cold population's only
/// retained allocation per slot is the ball itself. Membership bookkeeping
/// (`members`) is likewise deferred to a node's *second* distinct radius;
/// see [`ViewCache::ball_with_scratch`].
#[derive(Debug)]
struct Slot<In> {
    members: Option<BallMembers>,
    first: Option<(usize, Arc<Ball<In>>)>,
    more: BTreeMap<usize, Arc<Ball<In>>>,
}

impl<In> Default for Slot<In> {
    fn default() -> Self {
        Slot {
            members: None,
            first: None,
            more: BTreeMap::new(),
        }
    }
}

impl<In> Slot<In> {
    fn lookup(&self, radius: usize) -> Option<&Arc<Ball<In>>> {
        match &self.first {
            Some((r, ball)) if *r == radius => Some(ball),
            _ => self.more.get(&radius),
        }
    }

    fn store(&mut self, radius: usize, ball: &Arc<Ball<In>>) {
        if self.first.is_none() {
            self.first = Some((radius, Arc::clone(ball)));
        } else {
            self.more.insert(radius, Arc::clone(ball));
        }
    }
}

/// Counters describing how a [`ViewCache`] has been used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests answered by an already-materialized ball.
    pub hits: u64,
    /// Requests that gathered a ball from scratch.
    pub misses: u64,
    /// Requests answered by growing or slicing an existing membership
    /// (cheaper than a miss, costlier than a hit).
    pub expansions: u64,
    /// Slots evicted by [`ViewCache::invalidate`] that actually held
    /// content (a warm ball or membership). Evicting an empty slot is
    /// free and not counted.
    pub invalidations: u64,
}

impl CacheStats {
    /// Total requests served.
    pub fn requests(&self) -> u64 {
        self.hits + self.misses + self.expansions
    }
}

/// A shared, thread-safe ball/view cache for one network.
///
/// Create one per [`Network`] (sizes must match) and query it with
/// [`ViewCache::ball`]; a [`crate::ChurnLocal`] session keeps one warm
/// across edit batches.
///
/// Memory grows with the number of distinct `(node, radius)` balls
/// materialized; call [`ViewCache::clear`] between phases if that matters
/// more than reuse.
#[derive(Debug)]
pub struct ViewCache<In> {
    slots: Vec<Mutex<Slot<In>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    expansions: AtomicU64,
    invalidations: AtomicU64,
}

impl<In: Clone> ViewCache<In> {
    /// An empty cache for an `n`-node network.
    pub fn new(n: usize) -> Self {
        ViewCache {
            slots: (0..n).map(|_| Mutex::new(Slot::default())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            expansions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// An empty cache sized for `net`.
    pub fn for_network(net: &Network<In>) -> Self {
        ViewCache::new(net.graph().n())
    }

    /// Number of node slots (the network size this cache serves).
    pub fn n(&self) -> usize {
        self.slots.len()
    }

    /// The radius-`radius` ball of `center`, from cache when possible.
    ///
    /// Equivalent to `Arc::new(Ball::collect(net, center, radius))` — the
    /// returned ball is structurally identical — but amortizes gathering
    /// across requests.
    pub fn ball(&self, net: &Network<In>, center: NodeId, radius: usize) -> Arc<Ball<In>> {
        let mut scratch = Scratch::new(net.graph().n());
        self.ball_with_scratch(net, center, radius, &mut scratch)
    }

    /// Like [`ViewCache::ball`] with caller-provided BFS scratch space
    /// (reused across a churn session's requests).
    pub(crate) fn ball_with_scratch(
        &self,
        net: &Network<In>,
        center: NodeId,
        radius: usize,
        scratch: &mut Scratch,
    ) -> Arc<Ball<In>> {
        let mut slot = self.slots[center.index()]
            .lock()
            .expect("view-cache slot poisoned");
        if let Some(ball) = slot.lookup(radius) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(ball);
        }
        let g = net.graph();
        if slot.members.is_none() {
            // No membership tracked yet: gather and build in one fused
            // pass — `build_current` reuses the stamps `gather` just
            // wrote, so no re-stamping pass over the membership is paid.
            let members = BallMembers::gather(g, center, radius, scratch);
            let ball = Arc::new(members.build_current(net, scratch));
            if slot.first.is_none() {
                // Cold first touch. The membership is *not* stored: most
                // nodes are only ever asked for one radius, and skipping
                // the bookkeeping keeps a cold population's retained
                // memory at exactly one ball per node. A second distinct
                // radius re-gathers once and starts the incremental
                // bookkeeping below.
                members.recycle(scratch);
                slot.first = Some((radius, Arc::clone(&ball)));
                self.misses.fetch_add(1, Ordering::Relaxed);
            } else {
                // Second distinct radius: the node is evidently served at
                // several radii, so keep the membership from here on.
                // Classified as an expansion — the request shape (slot
                // already populated) is what the counters describe, not
                // the work done.
                slot.members = Some(members);
                slot.store(radius, &ball);
                self.expansions.fetch_add(1, Ordering::Relaxed);
            }
            return ball;
        }
        let m = slot.members.as_mut().expect("members checked above");
        if m.radius() < radius {
            m.expand(g, radius, scratch);
        }
        // Larger radius: BFS continued from the stored frontier; smaller:
        // prefix of an already-gathered wider membership. Both are
        // expansions.
        self.expansions.fetch_add(1, Ordering::Relaxed);
        let members = slot.members.as_ref().expect("members just ensured");
        let ball = Arc::new(members.build(net, radius, scratch));
        slot.store(radius, &ball);
        ball
    }

    /// Usage counters so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            expansions: self.expansions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }

    /// Evicts the cached state of exactly `nodes` — their materialized
    /// balls *and* their BFS memberships — leaving every other slot warm.
    ///
    /// This is the churn eviction primitive: after an edit batch, only the
    /// nodes reported by `MutableGraph::dirty_within(radius)` can have
    /// stale radius-`≤ radius` views, so evicting exactly that set restores
    /// cache/`Ball::collect` agreement on the mutated graph while keeping
    /// the (typically vast) clean majority hot. The next request for an
    /// evicted node re-gathers and re-enters the normal cold-slot protocol.
    ///
    /// Counters: `invalidations` grows by the number of evicted slots that
    /// actually held content; hits/misses/expansions are untouched, so
    /// warm-hit stats across evict/re-key cycles remain a faithful request
    /// log.
    pub fn invalidate(&self, nodes: &[NodeId]) {
        let mut evicted = 0u64;
        for &v in nodes {
            let mut slot = self.slots[v.index()]
                .lock()
                .expect("view-cache slot poisoned");
            if slot.members.is_some() || slot.first.is_some() || !slot.more.is_empty() {
                evicted += 1;
            }
            slot.members = None;
            slot.first = None;
            slot.more.clear();
        }
        self.invalidations.fetch_add(evicted, Ordering::Relaxed);
    }

    /// Drops all cached memberships and balls, keeping the counters.
    pub fn clear(&self) {
        for slot in &self.slots {
            let mut slot = slot.lock().expect("view-cache slot poisoned");
            slot.members = None;
            slot.first = None;
            slot.more.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_graph::generators;

    #[test]
    fn cached_ball_matches_collect_at_every_radius() {
        let net = Network::with_identity_ids(generators::grid2d(5, 4, false));
        let cache = ViewCache::for_network(&net);
        for v in net.graph().nodes() {
            for r in 0..=4 {
                let cached = cache.ball(&net, v, r);
                let fresh = Ball::collect(&net, v, r);
                assert_eq!(*cached, fresh, "node {v:?} radius {r}");
            }
        }
    }

    #[test]
    fn shrinking_and_growing_radii_stay_consistent() {
        // Ask big first (prefix path), then ask bigger (expansion path).
        let net = Network::with_identity_ids(generators::cycle(12));
        let cache = ViewCache::for_network(&net);
        for &r in &[3usize, 1, 0, 5, 2, 4] {
            let cached = cache.ball(&net, NodeId(7), r);
            assert_eq!(*cached, Ball::collect(&net, NodeId(7), r), "radius {r}");
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.requests(), 6);
    }

    #[test]
    fn repeat_requests_hit() {
        let net = Network::with_identity_ids(generators::path(6));
        let cache = ViewCache::for_network(&net);
        let a = cache.ball(&net, NodeId(2), 2);
        let b = cache.ball(&net, NodeId(2), 2);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                expansions: 0,
                invalidations: 0
            }
        );
    }

    #[test]
    fn counters_classify_every_request_shape() {
        let net = Network::with_identity_ids(generators::cycle(16));
        let cache = ViewCache::for_network(&net);
        assert_eq!(cache.stats(), CacheStats::default());

        // First-ever request for a node: a miss, whatever the radius.
        cache.ball(&net, NodeId(0), 3);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 0,
                misses: 1,
                expansions: 0,
                invalidations: 0
            }
        );

        // Smaller radius at the same node: prefix of the membership —
        // an expansion, not a miss (no BFS restart) and not a hit (a new
        // ball is still materialized).
        cache.ball(&net, NodeId(0), 1);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 0,
                misses: 1,
                expansions: 1,
                invalidations: 0
            }
        );

        // Larger radius at the same node: BFS continues from the stored
        // frontier — also an expansion.
        cache.ball(&net, NodeId(0), 5);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 0,
                misses: 1,
                expansions: 2,
                invalidations: 0
            }
        );

        // Exact repeats of any materialized radius: hits.
        cache.ball(&net, NodeId(0), 3);
        cache.ball(&net, NodeId(0), 1);
        cache.ball(&net, NodeId(0), 5);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 3,
                misses: 1,
                expansions: 2,
                invalidations: 0
            }
        );

        // A different node has its own slot: a fresh miss.
        cache.ball(&net, NodeId(9), 2);
        let stats = cache.stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.requests(), 7);
    }

    #[test]
    fn counters_count_requests_not_work() {
        // An adaptive-decoder-style radius sweep at one node: exactly one
        // miss, every later radius an expansion, every repeat a hit.
        let net = Network::with_identity_ids(generators::grid2d(6, 6, false));
        let cache = ViewCache::for_network(&net);
        for r in 0..=4 {
            cache.ball(&net, NodeId(14), r);
        }
        for r in 0..=4 {
            cache.ball(&net, NodeId(14), r);
        }
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 5,
                misses: 1,
                expansions: 4,
                invalidations: 0
            }
        );
        assert_eq!(cache.stats().requests(), 10);
    }

    #[test]
    fn clear_resets_contents_so_misses_recur() {
        let net = Network::with_identity_ids(generators::cycle(8));
        let cache = ViewCache::for_network(&net);
        cache.ball(&net, NodeId(3), 2);
        cache.ball(&net, NodeId(3), 2);
        cache.clear();
        cache.ball(&net, NodeId(3), 2);
        // Counters survive clear(); only the cached contents are dropped.
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 2,
                expansions: 0,
                invalidations: 0
            }
        );
    }

    #[test]
    fn clear_empties_but_keeps_counting() {
        let net = Network::with_identity_ids(generators::path(6));
        let cache = ViewCache::for_network(&net);
        cache.ball(&net, NodeId(0), 1);
        cache.clear();
        let again = cache.ball(&net, NodeId(0), 1);
        assert_eq!(*again, Ball::collect(&net, NodeId(0), 1));
        assert_eq!(cache.stats().misses, 2);
    }
}
