//! A churn session holds no per-node views. [`ChurnLocal`] keeps the
//! graph, the outputs, the per-node radii and one BFS scratch, and gathers
//! a node's ball only while that node runs, so the heap an open session
//! holds is linear in `n` with a constant that does not grow with the
//! locality radius.
//!
//! This binary holds one test, and the allocator tallies live bytes per
//! thread, so the figures are the test's own.

use lad_graph::mutate::Edit;
use lad_graph::{generators, IdAssignment, NodeId};
use lad_runtime::{ChurnLocal, Network, NodeCtx};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, tracking the bytes each thread holds.
struct LiveBytes;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn tally(delta: i64) {
    LIVE.with(|c| c.set(c.get() + delta));
}

// SAFETY: every method passes its arguments unchanged to `System`, which
// meets the `GlobalAlloc` contract; the tally is a const-initialized
// thread-local cell, which allocates nothing.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        tally(-(layout.size() as i64));
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

/// Live bytes on this thread.
fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// The bytes a session over `net` holds once open at `radius`, and again
/// after one batch of `edits`. The network it takes over is allocated
/// before the first reading, so only the session's own state counts.
fn session_bytes(net: &Network, radius: usize, edits: &[Edit]) -> (i64, i64) {
    let net = net.clone();
    let before = live();
    let mut session = ChurnLocal::new(net, radius, move |ctx: &NodeCtx| ctx.ball(radius).n());
    let opened = live() - before;
    session.apply(edits);
    let repaired = live() - before;
    drop(session);
    (opened, repaired)
}

#[test]
fn churn_session_heap_does_not_grow_with_radius() {
    let side = 64;
    let n = side * side;
    let net = Network::with_ids(
        generators::grid2d(side, side, true),
        IdAssignment::random_permutation(n, 0xC4A2),
    );
    // Cut 8 torus edges and add 8 chords, spread over the torus.
    let edits: Vec<Edit> = (0..8)
        .flat_map(|i| {
            let u = NodeId::from_index(i * 517 % n);
            let row_next = NodeId::from_index(u.index() / side * side + (u.index() + 1) % side);
            let chord = NodeId::from_index((u.index() + n / 2 + 3) % n);
            [Edit::Remove(u, row_next), Edit::Insert(u, chord)]
        })
        .collect();
    let per_radius: Vec<(usize, i64, i64)> = [1, 2, 4]
        .into_iter()
        .map(|r| {
            let (opened, repaired) = session_bytes(&net, r, &edits);
            (r, opened, repaired)
        })
        .collect();
    for &(r, opened, repaired) in &per_radius {
        eprintln!("radius {r}: {opened} bytes open, {repaired} after one batch");
        for (phase, bytes) in [("open", opened), ("after one batch", repaired)] {
            assert!(
                bytes < 512 * n as i64,
                "radius {r}, {phase}: {bytes} bytes for {n} nodes is over 512 per node"
            );
        }
    }
    let growth = per_radius[2].1 - per_radius[0].1;
    assert!(
        growth < 4096,
        "an open session grew by {growth} bytes from radius 1 to radius 4"
    );
}
