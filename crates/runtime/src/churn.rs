//! Incremental execution under edge churn.
//!
//! A LOCAL algorithm's output at `v` is a pure function of `v`'s
//! radius-`T` view, so an edge edit can change outputs only within
//! distance `T` of its endpoints — `O(Δ^T)` nodes, independent of `n`.
//! The sessions here exploit that: run once from scratch, then after each
//! edit batch recompute **only** the nodes
//! [`MutableGraph::dirty_within`]`(T)` reports, keeping everything else
//! (outputs, memoized classes) as it was.
//!
//! Two sessions, mirroring the two executor families:
//!
//! * [`ChurnLocal`] — the plain path. A batch re-runs the per-node
//!   algorithm at exactly the dirty nodes, gathering their views afresh
//!   on the mutated graph through one BFS scratch the session keeps.
//!   Clean nodes keep their outputs: a ball at radius `≤ T` of a
//!   non-dirty node is — by the same locality argument — identical in
//!   the old and new graphs, and a node's output is a function of its
//!   own ball only.
//! * [`ChurnMemoLocal`] — the memoized path. Keeps a persistent class
//!   memo with **per-class membership counts**: every node logs the chain
//!   of classes it confirmed (each `Expand` rung plus its final verdict),
//!   a batch releases the dirty nodes' chains, classes that lose their
//!   last member are retired, and the dirty nodes re-probe one ball at a
//!   time — paying gathering and canonical re-keying for `O(dirty)`
//!   centers, not `n`. Classes are keyed by canonical ball
//!   structure, which is graph-independent, so surviving classes serve
//!   the mutated graph unchanged (and stay under the same geometric
//!   re-verification schedule as a trained table).
//!
//! Both sessions are pinned by the churn differential harness
//! (`crates/runtime/tests/churn.rs`): after every batch, their outputs
//! must be **bit-identical** to a from-scratch [`run_local`] on the
//! mutated graph.
//!
//! One scoping caveat: the contract covers outputs determined by the
//! LOCAL-model view — structure, distances, identifiers, inputs, global
//! degrees. Global [`EdgeId`]s are *not* view information (the model has
//! no edge identifiers; ours index the CSR's lex-sorted edge list and
//! renumber wholesale on any edit), so an algorithm that copies
//! [`crate::Ball::global_edge`] values into its output is not a function
//! of its view and falls outside the repair guarantee — a clean node's
//! ball is identical across an edit in every respect *except* that
//! table.
//!
//! [`EdgeId`]: lad_graph::EdgeId
//!
//! [`run_local`]: crate::run_local

use crate::ball::Scratch;
use crate::ctx::NodeCtx;
use crate::executor::{
    bfs_visit_order, memo_first_error, memo_run, ClassMemo, ClassRef, MemoStats, MemoStep,
    NotOrderInvariant, RoundStats,
};
use crate::network::Network;
use crate::plan::{plan_decode, ExecPath, PlanDecision};
use lad_graph::mutate::{Edit, MutableGraph};
use lad_graph::NodeId;
use std::cell::RefCell;

/// What one [`ChurnLocal::apply`] / [`ChurnMemoLocal::apply`] batch did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepairReport {
    /// Edits that changed the edge set.
    pub applied: usize,
    /// No-op edits (inserting a present edge, removing an absent one).
    pub skipped: usize,
    /// Nodes invalidated and recomputed this batch.
    pub repaired: usize,
    /// Repaired nodes whose output actually changed.
    pub changed: usize,
    /// Memo classes retired because the batch released their last member
    /// (always 0 for [`ChurnLocal`], which has no memo).
    pub retired_classes: usize,
    /// Class-memo counters of the batch's re-probe (all zero for
    /// [`ChurnLocal`]).
    pub memo: MemoStats,
}

/// Incremental plain-executor session: outputs kept current under edge
/// churn by recomputing only invalidated nodes.
///
/// `radius` is the algorithm's locality bound `T`: the session asserts
/// that no node ever requests a view beyond it (the invalidation argument
/// is unsound past the bound, so this is a hard contract, not a hint).
pub struct ChurnLocal<In, Out, A> {
    mg: MutableGraph,
    net: Network<In>,
    /// BFS scratch for every view the session gathers, sized once.
    scratch: RefCell<Scratch>,
    algo: A,
    radius: usize,
    outs: Vec<Out>,
    per_node: Vec<usize>,
}

impl<In: Clone, Out: PartialEq, A: Fn(&NodeCtx<In>) -> Out> ChurnLocal<In, Out, A> {
    /// Runs `algo` at every node of `net` in index order (the same outputs
    /// and round statistics as [`crate::run_local`]) and opens a churn
    /// session over the result.
    ///
    /// # Panics
    ///
    /// Panics if any node requests a view of radius greater than `radius`.
    pub fn new(net: Network<In>, radius: usize, algo: A) -> Self {
        let n = net.graph().n();
        let mg = MutableGraph::new(net.graph().clone());
        let mut session = ChurnLocal {
            mg,
            net,
            scratch: RefCell::new(Scratch::new(n)),
            algo,
            radius,
            outs: Vec::with_capacity(n),
            per_node: Vec::with_capacity(n),
        };
        for v in session.net.graph().nodes() {
            let ctx = NodeCtx::with_scratch(&session.net, v, &session.scratch);
            let out = (session.algo)(&ctx);
            session.check_radius(v, ctx.rounds_used());
            session.outs.push(out);
            session.per_node.push(ctx.rounds_used());
        }
        session
    }

    fn check_radius(&self, v: NodeId, used: usize) {
        assert!(
            used <= self.radius,
            "locality bound violated: node {v:?} used radius {used} > {} — \
             incremental repair would be unsound",
            self.radius
        );
    }

    /// Applies an edit batch, repairs every invalidated node, and returns
    /// what changed. After this call [`Self::outputs`] is bit-identical to
    /// a from-scratch run on the mutated graph.
    pub fn apply(&mut self, edits: &[Edit]) -> RepairReport {
        let edit_report = self.mg.apply(edits);
        let dirty = self.mg.dirty_within(self.radius);
        // Same node set, new adjacency; uids and inputs carry over.
        self.net = Network::new(
            self.mg.graph().clone(),
            self.net.ids().clone(),
            self.net.inputs().to_vec(),
        );
        let mut changed = 0usize;
        for &v in &dirty {
            let ctx = NodeCtx::with_scratch(&self.net, v, &self.scratch);
            let out = (self.algo)(&ctx);
            self.check_radius(v, ctx.rounds_used());
            self.per_node[v.index()] = ctx.rounds_used();
            if self.outs[v.index()] != out {
                self.outs[v.index()] = out;
                changed += 1;
            }
        }
        self.mg.clear_dirty();
        RepairReport {
            applied: edit_report.applied,
            skipped: edit_report.skipped,
            repaired: dirty.len(),
            changed,
            retired_classes: 0,
            memo: MemoStats::default(),
        }
    }

    /// The current per-node outputs (always consistent with
    /// [`Self::network`]).
    pub fn outputs(&self) -> &[Out] {
        &self.outs
    }

    /// The current network.
    pub fn network(&self) -> &Network<In> {
        &self.net
    }

    /// Per-node view radii of the current outputs.
    pub fn round_stats(&self) -> RoundStats {
        RoundStats::from_per_node(self.per_node.clone())
    }
}

/// Incremental memoized session: like [`ChurnLocal`] but decoding once
/// per canonical class, with the class store kept alive across batches.
///
/// `initial_radius`/`step` follow the [`crate::Run::ladder`] contract
/// ([`MemoStep::Done`] / [`MemoStep::Expand`]); `max_radius` bounds every
/// rung the ladder may reach and doubles as the invalidation radius.
/// Errors are the ladder's — the first-in-node-order per-node error,
/// regenerated by replaying the failing node without the memo — or
/// [`NotOrderInvariant`] if the step is not class-determined. Only dirty
/// nodes can *start* failing after a batch, so the smallest-index dirty
/// failure is the global first error. A batch that errors poisons the session (its partial
/// state is unreleased); every later call panics.
pub struct ChurnMemoLocal<In, Out, Tag, Step> {
    mg: MutableGraph,
    net: Network<In>,
    input_tag: Tag,
    step: Step,
    initial_radius: usize,
    max_radius: usize,
    memo: ClassMemo<Out>,
    /// Per node: the chain of classes it currently pins (one per ladder
    /// rung, final verdict last). Released on invalidation.
    assign: Vec<Vec<ClassRef>>,
    outs: Vec<Option<Out>>,
    per_node: Vec<usize>,
    /// Memo counters of the opening decode.
    opened: MemoStats,
    poisoned: bool,
}

impl<In, Out, Tag, Step> ChurnMemoLocal<In, Out, Tag, Step>
where
    In: Clone,
    Out: Clone + PartialEq,
    Tag: Fn(&In, &mut Vec<u64>),
{
    /// Decodes every node of `net` through a fresh class memo and opens a
    /// churn session over the result.
    pub fn new<E>(
        net: Network<In>,
        initial_radius: usize,
        max_radius: usize,
        input_tag: Tag,
        step: Step,
    ) -> Result<Self, E>
    where
        E: From<NotOrderInvariant>,
        Step: Fn(&crate::Ball<In>) -> Result<MemoStep<Out>, E>,
    {
        assert!(initial_radius <= max_radius);
        let n = net.graph().n();
        let mut session = ChurnMemoLocal {
            mg: MutableGraph::new(net.graph().clone()),
            net,
            input_tag,
            step,
            initial_radius,
            max_radius,
            memo: ClassMemo::default(),
            assign: vec![Vec::new(); n],
            outs: std::iter::repeat_with(|| None).take(n).collect(),
            per_node: vec![0; n],
            opened: MemoStats::default(),
            poisoned: false,
        };
        let order = bfs_visit_order(session.net.graph());
        session.opened = session.repair(&order)?;
        Ok(session)
    }

    /// Re-decodes `centers` against the persistent memo and returns the
    /// pass's counters. Every confirmed or created class is appended to
    /// the centers' assignment chains (the caller must have released the
    /// old chains first).
    fn repair<E>(&mut self, centers: &[NodeId]) -> Result<MemoStats, E>
    where
        E: From<NotOrderInvariant>,
        Step: Fn(&crate::Ball<In>) -> Result<MemoStep<Out>, E>,
    {
        let mut failed: Vec<usize> = Vec::new();
        let stats = match memo_run(
            &self.net,
            centers,
            self.initial_radius,
            &self.input_tag,
            &self.step,
            &mut self.memo,
            &mut failed,
            &mut self.outs,
            &mut self.per_node,
            Some(&mut self.assign),
        ) {
            Ok(stats) => stats,
            Err(c) => {
                self.poisoned = true;
                return Err(c.into());
            }
        };
        if let Some(&i) = failed.iter().min() {
            self.poisoned = true;
            return Err(memo_first_error(
                &self.net,
                NodeId::from_index(i),
                self.initial_radius,
                &self.input_tag,
                &self.step,
            ));
        }
        for &v in centers {
            assert!(
                self.per_node[v.index()] <= self.max_radius,
                "locality bound violated: node {v:?} reached radius {} > {} — \
                 incremental repair would be unsound",
                self.per_node[v.index()],
                self.max_radius
            );
        }
        Ok(stats)
    }

    /// Applies an edit batch: releases the dirty nodes' class memberships
    /// (retiring classes at zero members), re-probes exactly those nodes,
    /// and returns what changed. After an `Ok`, [`Self::outputs`] is
    /// bit-identical to a from-scratch run on the mutated graph.
    ///
    /// # Panics
    ///
    /// Panics if a previous batch returned an error (the session is
    /// poisoned).
    pub fn apply<E>(&mut self, edits: &[Edit]) -> Result<RepairReport, E>
    where
        E: From<NotOrderInvariant>,
        Step: Fn(&crate::Ball<In>) -> Result<MemoStep<Out>, E>,
    {
        assert!(
            !self.poisoned,
            "churn session poisoned by an earlier error; rebuild it"
        );
        let edit_report = self.mg.apply(edits);
        let dirty = self.mg.dirty_within(self.max_radius);
        self.net = Network::new(
            self.mg.graph().clone(),
            self.net.ids().clone(),
            self.net.inputs().to_vec(),
        );
        let mut retired = 0usize;
        let old: Vec<Option<Out>> = dirty
            .iter()
            .map(|v| {
                for class in std::mem::take(&mut self.assign[v.index()]) {
                    if self.memo.release(class) {
                        retired += 1;
                    }
                }
                self.outs[v.index()].take()
            })
            .collect();
        let memo = self.repair(&dirty)?;
        let changed = dirty
            .iter()
            .zip(&old)
            .filter(|(v, old)| old.as_ref() != self.outs[v.index()].as_ref())
            .count();
        self.mg.clear_dirty();
        Ok(RepairReport {
            applied: edit_report.applied,
            skipped: edit_report.skipped,
            repaired: dirty.len(),
            changed,
            retired_classes: retired,
            memo,
        })
    }

    /// The current per-node outputs.
    ///
    /// # Panics
    ///
    /// Panics if the session is poisoned.
    pub fn outputs(&self) -> Vec<Out> {
        assert!(!self.poisoned, "churn session poisoned");
        self.outs
            .iter()
            .map(|o| o.clone().expect("healthy session fills every node"))
            .collect()
    }

    /// The current network.
    pub fn network(&self) -> &Network<In> {
        &self.net
    }

    /// Per-node view radii of the current outputs.
    pub fn round_stats(&self) -> RoundStats {
        RoundStats::from_per_node(self.per_node.clone())
    }

    /// The memo counters of the opening decode; each batch's counters
    /// come back in its [`RepairReport`].
    pub fn opening_stats(&self) -> MemoStats {
        self.opened
    }

    /// Live classes in the persistent memo.
    pub fn class_count(&self) -> usize {
        self.memo.class_count()
    }

    /// Total class memberships — equals the summed length of all
    /// assignment chains (one membership per confirmed ladder rung per
    /// node); an invariant the churn tests check across batches.
    pub fn member_count(&self) -> usize {
        self.memo.member_count()
    }
}

/// A churn session whose family is chosen at open time by the adaptive
/// planner ([`plan_decode`]).
///
/// The caller supplies *both* formulations of the same algorithm — the
/// per-node closure the plain session runs and the
/// tag/[`MemoStep`]-ladder the memoized session runs — and the planner's
/// instance probe decides which one carries the session. The churn
/// differential harness pins both sessions bit-identical to a
/// from-scratch run, so the choice is pure speed: a class-heavy instance
/// (cycles, uniform inputs) keeps its persistent memo warm across
/// batches, while a class-sparse one (small tori, distinct advice) skips
/// canonical keying entirely.
pub enum PlannedChurnLocal<In, Out, A, Tag, Step> {
    /// The planner chose the plain session.
    Plain(ChurnLocal<In, Out, A>),
    /// The planner chose the persistent class-memo session.
    Memo(ChurnMemoLocal<In, Out, Tag, Step>),
}

impl<In, Out, A, Tag, Step> PlannedChurnLocal<In, Out, A, Tag, Step>
where
    In: Clone,
    Out: Clone + PartialEq,
    A: Fn(&NodeCtx<In>) -> Out,
    Tag: Fn(&In, &mut Vec<u64>),
{
    /// Probes `net`, opens the session the planner picked, and returns it
    /// together with the decision (probe evidence included). `algo` and
    /// the `input_tag`/`step` ladder must compute the same per-node
    /// output. Sessions repair sequentially.
    ///
    /// # Errors
    ///
    /// Exactly [`ChurnMemoLocal::new`]'s contract when the memoized
    /// session is chosen; the plain session is infallible to open.
    ///
    /// # Panics
    ///
    /// Panics if `initial_radius > max_radius`, or (plain leg) if a node
    /// requests a view beyond `max_radius`.
    pub fn open<E>(
        net: Network<In>,
        initial_radius: usize,
        max_radius: usize,
        algo: A,
        input_tag: Tag,
        step: Step,
    ) -> Result<(Self, PlanDecision), E>
    where
        E: From<NotOrderInvariant>,
        Step: Fn(&crate::Ball<In>) -> Result<MemoStep<Out>, E>,
    {
        assert!(initial_radius <= max_radius);
        let plan = plan_decode(&net, initial_radius, &input_tag, "", None);
        let session = match plan.path {
            ExecPath::Plain => PlannedChurnLocal::Plain(ChurnLocal::new(net, max_radius, algo)),
            ExecPath::Memo => PlannedChurnLocal::Memo(ChurnMemoLocal::new(
                net,
                initial_radius,
                max_radius,
                input_tag,
                step,
            )?),
        };
        Ok((session, plan))
    }

    /// Which family carries this session.
    pub fn path(&self) -> ExecPath {
        match self {
            PlannedChurnLocal::Plain(_) => ExecPath::Plain,
            PlannedChurnLocal::Memo(_) => ExecPath::Memo,
        }
    }

    /// Applies an edit batch through whichever session is live. See
    /// [`ChurnLocal::apply`] / [`ChurnMemoLocal::apply`].
    ///
    /// # Errors
    ///
    /// Only the memoized leg can fail (first-in-node-order step error or
    /// [`NotOrderInvariant`]); the plain leg always succeeds.
    ///
    /// # Panics
    ///
    /// Panics if the memoized leg was poisoned by an earlier error.
    pub fn apply<E>(&mut self, edits: &[Edit]) -> Result<RepairReport, E>
    where
        E: From<NotOrderInvariant>,
        Step: Fn(&crate::Ball<In>) -> Result<MemoStep<Out>, E>,
    {
        match self {
            PlannedChurnLocal::Plain(s) => Ok(s.apply(edits)),
            PlannedChurnLocal::Memo(s) => s.apply(edits),
        }
    }

    /// The current per-node outputs.
    ///
    /// # Panics
    ///
    /// Panics if the memoized leg is poisoned.
    pub fn outputs(&self) -> Vec<Out> {
        match self {
            PlannedChurnLocal::Plain(s) => s.outputs().to_vec(),
            PlannedChurnLocal::Memo(s) => s.outputs(),
        }
    }

    /// The current network.
    pub fn network(&self) -> &Network<In> {
        match self {
            PlannedChurnLocal::Plain(s) => s.network(),
            PlannedChurnLocal::Memo(s) => s.network(),
        }
    }

    /// Per-node view radii of the current outputs.
    pub fn round_stats(&self) -> RoundStats {
        match self {
            PlannedChurnLocal::Plain(s) => s.round_stats(),
            PlannedChurnLocal::Memo(s) => s.round_stats(),
        }
    }
}
