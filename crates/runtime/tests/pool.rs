//! The worker pool behind every parallel fan-out, checked through the
//! public entry points against sequential runs for chunk counts
//! {1, 2, 3, 8}:
//!
//! * nested fan-outs (a [`Run::map`] inside a [`Run::map`], a parallel
//!   ladder decode inside a [`Run::map`]) complete and match sequential —
//!   a chunk that fans out again must never wait on work that is merely
//!   queued;
//! * a panicking chunk reaches the caller with its original payload, and
//!   the pool serves the next call normally;
//! * two OS threads fanning out at the same time each get their own
//!   results, and two class-memo decodes at the same time each get their
//!   own counters.
//!
//! Every case passes its thread count in its own [`Run`], so the tests
//! share no state and run in parallel.

use lad_graph::{generators, Graph};
use lad_runtime::{
    ChurnMemoLocal, LocalView, MemoStats, MemoStep, Network, NotOrderInvariant, RoundStats, Run,
};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Barrier;

const THREAD_GRID: [usize; 4] = [1, 2, 3, 8];

/// An order-invariant two-rung ladder: expand to radius 2, then report
/// the view's size.
fn ladder(ball: &impl LocalView<()>) -> Result<MemoStep<usize>, NotOrderInvariant> {
    Ok(if ball.radius() < 2 {
        MemoStep::Expand(2)
    } else {
        MemoStep::Done(ball.n())
    })
}

fn networks() -> Vec<Graph> {
    vec![
        generators::cycle(24),
        generators::grid2d(6, 5, true),
        generators::random_tree(30, 3),
        generators::random_regular(24, 3, 5),
    ]
}

#[test]
fn nested_map_matches_sequential() {
    let outer: Vec<usize> = (0..13).collect();
    let inner_of = |i: usize| -> Vec<u64> { (0..17 + 3 * i as u64).collect() };
    let expect: Vec<Vec<u64>> = outer
        .iter()
        .map(|&i| inner_of(i).iter().map(|&x| x * x + i as u64).collect())
        .collect();
    for t in THREAD_GRID {
        let run: Run = Run::default().threads(t);
        let got = run.map(&outer, |_, &i| {
            run.map(&inner_of(i), |_, &x| x * x + i as u64)
        });
        assert_eq!(got, expect, "threads {t}");
    }
}

/// [`ladder`] decoded through a class memo (a churn session's opening
/// decode), with the pass's counters.
fn memo_run(net: &Network<()>) -> (Vec<usize>, RoundStats, MemoStats) {
    let session =
        ChurnMemoLocal::new(net.clone(), 1, 2, |_, _| {}, ladder).expect("order-invariant");
    (
        session.outputs(),
        session.round_stats(),
        session.opening_stats(),
    )
}

#[test]
fn nested_ladder_decode_matches_memo() {
    let nets: Vec<Network<()>> = networks()
        .into_iter()
        .map(Network::with_identity_ids)
        .collect();
    let expect: Vec<_> = nets
        .iter()
        .map(|net| {
            let (outs, rounds, _) = memo_run(net);
            (outs, rounds)
        })
        .collect();
    for t in THREAD_GRID {
        let run: Run = Run::default().threads(t);
        let got = run.map(&nets, |_, net| {
            Run::default()
                .threads(t)
                .ladder(net, 1, |view| ladder(view))
                .expect("order-invariant")
        });
        assert_eq!(got, expect, "threads {t}");
    }
}

/// The payload a chunk panics with, so the test can tell it arrived
/// unchanged.
#[derive(Debug, PartialEq)]
struct ChunkFailed(usize);

#[test]
fn chunk_panic_reaches_the_caller_and_the_pool_recovers() {
    let items: Vec<usize> = (0..40).collect();
    let expect: Vec<usize> = items.iter().map(|&x| x + 1).collect();
    for t in THREAD_GRID {
        let run: Run = Run::default().threads(t);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            run.map(&items, |_, &x| {
                if x == 29 {
                    panic::panic_any(ChunkFailed(x));
                }
                x + 1
            })
        }))
        .expect_err("the chunk's panic must reach the caller");
        assert_eq!(
            caught.downcast_ref::<ChunkFailed>(),
            Some(&ChunkFailed(29)),
            "threads {t}: the original payload"
        );
        assert_eq!(
            run.map(&items, |_, &x| x + 1),
            expect,
            "threads {t}: next call"
        );
    }
}

#[test]
fn concurrent_callers_get_their_own_results() {
    const ROUNDS: usize = 50;
    for t in THREAD_GRID {
        let run: Run = Run::default().threads(t);
        let start = Barrier::new(2);
        // Each caller counts its wrong rounds instead of asserting, so a
        // failure cannot leave the other caller stuck at the barrier.
        let wrong: Vec<usize> = std::thread::scope(|s| {
            let callers: Vec<_> = (0..2u64)
                .map(|caller| {
                    let start = &start;
                    let run = &run;
                    s.spawn(move || {
                        let items: Vec<u64> = (0..64 + 7 * caller).collect();
                        (0..ROUNDS as u64)
                            .filter(|&round| {
                                start.wait();
                                let got = run.map_with(
                                    &items,
                                    || caller * 1000 + round,
                                    |base, i, &x| *base + x + i as u64,
                                );
                                let expect: Vec<u64> = items
                                    .iter()
                                    .map(|&x| caller * 1000 + round + 2 * x)
                                    .collect();
                                got != expect
                            })
                            .count()
                    })
                })
                .collect();
            callers
                .into_iter()
                .map(|c| c.join().expect("caller thread"))
                .collect()
        });
        assert_eq!(wrong, vec![0, 0], "threads {t}: wrong rounds per caller");
    }
}

#[test]
fn concurrent_memo_decodes_get_independent_counters() {
    const ROUNDS: usize = 20;
    // Unlabeled cycle and torus balls collapse into a few classes, so each
    // decode carries nonzero counters that a shared tally would mix.
    let nets = [
        Network::with_identity_ids(generators::cycle(600)),
        Network::with_identity_ids(generators::grid2d(24, 24, true)),
    ];
    let alone: Vec<_> = nets.iter().map(memo_run).collect();
    for (_, _, stats) in &alone {
        assert!(stats.lookups > 0 && stats.hits > 0, "{stats:?}");
    }
    let start = Barrier::new(2);
    // Each thread counts its mismatched rounds instead of asserting, so a
    // failure cannot leave the other thread stuck at the barrier.
    let wrong: Vec<usize> = std::thread::scope(|s| {
        let runners: Vec<_> = nets
            .iter()
            .zip(&alone)
            .map(|(net, expect)| {
                let start = &start;
                s.spawn(move || {
                    (0..ROUNDS)
                        .filter(|_| {
                            start.wait();
                            memo_run(net) != *expect
                        })
                        .count()
                })
            })
            .collect();
        runners
            .into_iter()
            .map(|r| r.join().expect("runner thread"))
            .collect()
    });
    assert_eq!(wrong, vec![0, 0], "mismatched rounds per decode");
}
