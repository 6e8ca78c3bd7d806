//! Advice costs no heap allocation per ball member. A gathered ball clones
//! every member's advice string and a parsed wire ball builds one per
//! node; strings of at most 64 bits live inline in [`BitString`], so a
//! ball with advice makes exactly as many allocations as the same ball
//! with none.
//!
//! This binary holds one test, and the allocator counts per thread, so
//! the counts are the test's own.

use lad_core::balanced::BalancedOrientationSchema;
use lad_core::cluster_coloring::ClusterColoringSchema;
use lad_core::{ball_from_words, ball_to_words, AdviceMap, AdviceSchema, BitString, ServedSchema};
use lad_graph::{generators, IdAssignment, NodeId};
use lad_runtime::{Ball, MemoStep, Network};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Allocations per ball of `Ball::collect` over every node at `radius`,
/// after one warm-up collect sizes the thread's reusable scratch.
fn collect_allocs(net: &Network<BitString>, radius: usize) -> f64 {
    drop(Ball::collect(net, NodeId(0), radius));
    let n = net.graph().n();
    let count = allocations(|| {
        for v in net.graph().nodes() {
            drop(Ball::collect(net, v, radius));
        }
    });
    count as f64 / n as f64
}

/// Allocations per parse of `ball_from_words` over `frames`.
fn parse_allocs(frames: &[Vec<u64>]) -> f64 {
    let count = allocations(|| {
        for words in frames {
            drop(ball_from_words(words).expect("a serialized ball parses"));
        }
    });
    count as f64 / frames.len() as f64
}

fn with_advice(net: &Network, advice: &AdviceMap) -> Network<BitString> {
    net.with_inputs(advice.strings())
}

#[test]
fn advice_adds_no_allocation_per_ball_member() {
    // (a) Gathered balls on a 32² random-ID torus.
    let side = 32;
    let net = Network::with_ids(
        generators::grid2d(side, side, true),
        IdAssignment::random_permutation(side * side, 3),
    );
    let empty = net.with_inputs(vec![BitString::new(); net.graph().n()]);
    let cluster = ClusterColoringSchema::default()
        .encode(&net)
        .expect("encode");
    let balanced = BalancedOrientationSchema::default()
        .encode(&net)
        .expect("encode");
    for radius in [10, 17] {
        let bare = collect_allocs(&empty, radius);
        for (name, advice) in [("cluster", &cluster), ("balanced", &balanced)] {
            assert!(advice.holders().count() > 0, "{name} advice has holders");
            let advised = collect_allocs(&with_advice(&net, advice), radius);
            eprintln!("Ball::collect radius {radius}: {name} advice {advised:.2} allocations per ball, empty advice {bare:.2}");
            assert_eq!(
                advised, bare,
                "{name} advice at radius {radius}: {advised:.2} allocations per ball against \
                 {bare:.2} with empty advice"
            );
        }
    }

    // (b) Parsed wire balls: every node of four random-ID 48-cycles under
    // cluster advice, serialized at the rung where its class answers, and
    // the same balls with their advice left empty.
    let schema = ClusterColoringSchema::default();
    let cycles = Network::with_ids(
        generators::disjoint_union(&vec![generators::cycle(48); 4]),
        IdAssignment::random_permutation(4 * 48, 11),
    );
    let advice = ServedSchema::encode_advice(&schema, &cycles).expect("cycles encode");
    let advised = with_advice(&cycles, &advice);
    let bare = cycles.with_inputs(vec![BitString::new(); cycles.graph().n()]);
    let (mut advised_frames, mut bare_frames) = (Vec::new(), Vec::new());
    for v in cycles.graph().nodes() {
        let mut radius = schema.initial_radius();
        loop {
            let ball = Ball::collect(&advised, v, radius);
            match schema.eval(&ball).expect("honest advice decodes") {
                MemoStep::Done(_) => break,
                MemoStep::Expand(r) => radius = r,
            }
        }
        advised_frames.push(ball_to_words(&Ball::collect(&advised, v, radius)));
        bare_frames.push(ball_to_words(&Ball::collect(&bare, v, radius)));
    }
    let holders: usize = advised_frames
        .iter()
        .map(|w| ball_from_words(w).expect("parses"))
        .map(|b| {
            b.graph()
                .nodes()
                .filter(|&u| !b.input(u).is_empty())
                .count()
        })
        .sum();
    assert!(holders > 0, "the served balls hold advice");
    let (with, without) = (parse_allocs(&advised_frames), parse_allocs(&bare_frames));
    eprintln!(
        "ball_from_words: {with:.2} allocations per parse with advice, {without:.2} without \
         ({} balls)",
        advised_frames.len()
    );
    assert_eq!(
        with, without,
        "{with:.2} allocations per parse with advice against {without:.2} without"
    );
}
