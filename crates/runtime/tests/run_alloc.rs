//! A `Run` allocates per node what its views allocate, and a decode
//! ladder's views allocate nothing. Every [`Run::nodes`] chunk gathers its
//! views on one reusable BFS scratch, the same body `Ball::collect` runs
//! on its thread's scratch, so a node that asks for one ball costs one
//! ball's allocations. A [`Run::ladder`] rung reads its view in place (a
//! [`lad_runtime::BallView`] over the chunk's scratch), so a node that
//! climbs one rung or two costs no allocation at all. Nothing else is paid
//! per node: a membership that is grown from empty, kept past its node, or
//! assembled into a ball shows up as allocations per node.
//!
//! This binary holds one test, and the allocator counts per thread, so
//! the counts are the test's own. Every run takes one chunk, on this
//! thread.

use lad_graph::{generators, IdAssignment, NodeId};
use lad_runtime::{Ball, LocalView, MemoStep, Network, Run};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::convert::Infallible;

/// The system allocator, counting allocations made on each thread.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn tally() {
    ALLOCS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every method passes its arguments unchanged to `System`, which
// meets the `GlobalAlloc` contract; the tally is a const-initialized
// thread-local cell, which allocates nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations per node that `f` makes on this thread over `net`.
fn per_node(net: &Network, f: impl FnOnce()) -> f64 {
    let before = ALLOCS.with(Cell::get);
    f();
    (ALLOCS.with(Cell::get) - before) as f64 / net.graph().n() as f64
}

/// Allocations per ball of `Ball::collect` over every node at `radius`,
/// after one warm-up collect sizes the thread's reusable scratch.
fn collect_allocs(net: &Network, radius: usize) -> f64 {
    drop(Ball::collect(net, NodeId(0), radius));
    per_node(net, || {
        for v in net.graph().nodes() {
            drop(Ball::collect(net, v, radius));
        }
    })
}

/// What a chunk may allocate beyond its views, per node: the outputs, the
/// radii and the chunk's scratch, once per run.
const RUN_SLACK: f64 = 0.1;

#[test]
fn runs_allocate_per_node_what_their_views_allocate() {
    // A 32² random-ID torus: 1,024 nodes, balls of 13 to 613 nodes.
    let side = 32;
    let net = Network::with_ids(
        generators::grid2d(side, side, true),
        IdAssignment::random_permutation(side * side, 3),
    );
    let run = Run::default().threads(1);
    for radius in [2, 10, 17] {
        let collect = collect_allocs(&net, radius);

        let nodes = per_node(&net, || {
            let (sizes, stats) = run.nodes(&net, |ctx| ctx.ball(radius).n());
            assert!(sizes.iter().all(|&k| k > 1));
            assert_eq!(stats.rounds(), radius);
        });
        eprintln!(
            "radius {radius}: Run::nodes {nodes:.2} allocations per node, \
             Ball::collect {collect:.2} per ball"
        );
        assert!(
            nodes <= collect + RUN_SLACK,
            "Run::nodes at radius {radius}: {nodes:.2} allocations per node against \
             {collect:.2} per Ball::collect"
        );

        // One rung: every node finishes on its first view.
        let one_rung = per_node(&net, || {
            let (sizes, stats) = run
                .ladder(&net, radius, |view| {
                    Ok::<_, Infallible>(MemoStep::Done(view.n()))
                })
                .expect("infallible");
            assert!(sizes.iter().all(|&k| k > 1));
            assert_eq!(stats.rounds(), radius);
        });
        // Two rungs: every node expands once, from `radius` to `radius + 1`.
        let two_rungs = per_node(&net, || {
            let (sizes, stats) = run
                .ladder(&net, radius, |view| {
                    Ok::<_, Infallible>(if view.radius() == radius {
                        MemoStep::Expand(radius + 1)
                    } else {
                        MemoStep::Done(view.n())
                    })
                })
                .expect("infallible");
            assert!(sizes.iter().all(|&k| k > 1));
            assert_eq!(stats.rounds(), radius + 1);
        });
        eprintln!(
            "radius {radius}: Run::ladder {one_rung:.2} allocations per node with one rung, \
             {two_rungs:.2} with two"
        );
        for (rungs, allocs) in [(1, one_rung), (2, two_rungs)] {
            assert!(
                allocs <= RUN_SLACK,
                "{rungs}-rung ladder from radius {radius}: {allocs:.2} allocations per node; \
                 its views should allocate none"
            );
        }
    }
}
