//! Per-node execution contexts with round accounting.

use crate::ball::{Ball, Scratch};
use crate::network::Network;
use lad_graph::NodeId;
use std::cell::{Cell, RefCell};

/// Where a context materializes its views from. Both sources produce
/// bit-identical balls; they differ only in what work is amortized.
enum ViewSource<'a> {
    /// Fresh `Ball::collect_reference` per request — the independent
    /// `HashMap`-based implementation, kept as the differential baseline.
    Direct,
    /// The chunk's BFS scratch, reused for every view its nodes request
    /// (the body of [`Ball::collect`] on a scratch the caller owns).
    Scratch(&'a RefCell<Scratch>),
}

/// The handle a LOCAL algorithm runs against at one node.
///
/// Everything a node knows *initially* (Section 3.2: its identifier, its
/// degree, `Δ`, and `n`) is available for free; everything else costs
/// rounds via [`NodeCtx::ball`]. The largest radius ever requested is
/// recorded and aggregated into [`crate::RoundStats`].
pub struct NodeCtx<'a, In = ()> {
    net: &'a Network<In>,
    node: NodeId,
    max_radius: Cell<usize>,
    source: ViewSource<'a>,
}

impl<'a, In: Clone> NodeCtx<'a, In> {
    pub(crate) fn new(net: &'a Network<In>, node: NodeId) -> Self {
        Self::with_source(net, node, ViewSource::Direct)
    }

    pub(crate) fn with_scratch(
        net: &'a Network<In>,
        node: NodeId,
        scratch: &'a RefCell<Scratch>,
    ) -> Self {
        Self::with_source(net, node, ViewSource::Scratch(scratch))
    }

    fn with_source(net: &'a Network<In>, node: NodeId, source: ViewSource<'a>) -> Self {
        NodeCtx {
            net,
            node,
            max_radius: Cell::new(0),
            source,
        }
    }

    /// This node's unique identifier.
    pub fn uid(&self) -> u64 {
        self.net.uid(self.node)
    }

    /// This node's degree.
    pub fn degree(&self) -> usize {
        self.net.graph().degree(self.node)
    }

    /// This node's own input.
    pub fn input(&self) -> &In {
        self.net.input(self.node)
    }

    /// Global knowledge: the number of nodes `n`.
    pub fn n(&self) -> usize {
        self.net.graph().n()
    }

    /// Global knowledge: the maximum degree `Δ`.
    pub fn max_degree(&self) -> usize {
        self.net.graph().max_degree()
    }

    /// The radius-`r` view of this node. Calling with radius `r` commits
    /// the algorithm to at least `r` rounds.
    ///
    /// The returned ball is identical regardless of which executor entry
    /// point ([`crate::run_local`] or a [`crate::Run`]) created this
    /// context.
    pub fn ball(&self, r: usize) -> Ball<In> {
        self.note_radius(r);
        match &self.source {
            ViewSource::Direct => Ball::collect_reference(self.net, self.node, r),
            ViewSource::Scratch(scratch) => {
                Ball::collect_with(self.net, self.node, r, &mut scratch.borrow_mut())
            }
        }
    }

    fn note_radius(&self, r: usize) {
        if r > self.max_radius.get() {
            self.max_radius.set(r);
        }
    }

    /// The largest radius requested so far.
    pub fn rounds_used(&self) -> usize {
        self.max_radius.get()
    }

    /// The global name of this node — for addressing outputs only; LOCAL
    /// decisions must be based on [`NodeCtx::uid`].
    pub fn node(&self) -> NodeId {
        self.node
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_graph::generators;

    #[test]
    fn ctx_tracks_max_radius() {
        let net = Network::with_identity_ids(generators::cycle(10));
        let ctx = NodeCtx::new(&net, NodeId(0));
        assert_eq!(ctx.rounds_used(), 0);
        ctx.ball(2);
        ctx.ball(1);
        assert_eq!(ctx.rounds_used(), 2);
        ctx.ball(4);
        assert_eq!(ctx.rounds_used(), 4);
    }

    #[test]
    fn initial_knowledge_is_free() {
        let net = Network::with_identity_ids(generators::star(4));
        let ctx = NodeCtx::new(&net, NodeId(0));
        assert_eq!(ctx.uid(), 1);
        assert_eq!(ctx.degree(), 4);
        assert_eq!(ctx.n(), 5);
        assert_eq!(ctx.max_degree(), 4);
        assert_eq!(ctx.rounds_used(), 0);
    }

    #[test]
    fn all_sources_agree_on_balls() {
        let net = Network::with_identity_ids(generators::grid2d(4, 4, true));
        let scratch = RefCell::new(Scratch::new(net.graph().n()));
        for v in net.graph().nodes() {
            let direct = NodeCtx::new(&net, v);
            let scratched = NodeCtx::with_scratch(&net, v, &scratch);
            // Interleave radii: every request gathers afresh on the shared
            // scratch, so a smaller radius after a larger one must not see
            // the earlier membership.
            for r in [1usize, 3, 2, 0, 4] {
                let reference = direct.ball(r);
                assert_eq!(scratched.ball(r), reference, "scratch node {v:?} r {r}");
            }
            assert_eq!(direct.rounds_used(), 4);
            assert_eq!(scratched.rounds_used(), 4);
        }
    }
}
