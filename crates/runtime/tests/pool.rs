//! The worker pool behind every parallel fan-out, checked through the
//! public entry points against sequential runs for chunk counts
//! {1, 2, 3, 8}:
//!
//! * nested fan-outs (a [`Run::map`] inside a [`Run::map`], a parallel
//!   memo decode inside a [`Run::map`]) complete and match sequential — a
//!   chunk that fans out again must never wait on work that is merely
//!   queued;
//! * a panicking chunk reaches the caller with its original payload, and
//!   the pool serves the next call normally;
//! * two OS threads fanning out at the same time each get their own
//!   results, and two memoized runs at the same time each get their own
//!   report.
//!
//! Every case passes its thread count in its own [`Run`], so the tests
//! share no state and run in parallel. Without the `parallel` feature
//! every entry point runs sequentially and the assertions are unchanged.

use lad_graph::{generators, Graph};
use lad_runtime::{
    Ball, ExecPath, MemoStep, Network, NotOrderInvariant, PlanDecision, RoundStats, Run, RunReport,
};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Barrier;

const THREAD_GRID: [usize; 4] = [1, 2, 3, 8];

/// An order-invariant two-rung ladder: expand to radius 2, then report
/// the ball size.
fn ladder(ball: &Ball<()>) -> Result<MemoStep<usize>, NotOrderInvariant> {
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

/// The memoized ladder of [`ladder`] on `net`, on `threads` chunks.
fn memo_run(net: &Network<()>, threads: usize) -> (Vec<usize>, RoundStats, RunReport) {
    Run::default()
        .threads(threads)
        .path(ExecPath::Memo)
        .ladder(net, "test", 1, |_, _| {}, ladder)
        .expect("order-invariant")
}

#[test]
fn nested_memo_decode_matches_sequential() {
    let nets: Vec<Network<()>> = networks()
        .into_iter()
        .map(Network::with_identity_ids)
        .collect();
    let decoded = |net: &Network<()>, threads: usize| {
        let (outs, rounds, _) = memo_run(net, threads);
        (outs, rounds)
    };
    let expect: Vec<_> = nets.iter().map(|net| decoded(net, 1)).collect();
    for t in THREAD_GRID {
        let run: Run = Run::default().threads(t);
        let got = run.map(&nets, |_, net| decoded(net, t));
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

/// The parts of a plan decision that do not depend on timing: path,
/// forced, sampled, distinct, and the bits of the class estimate and the
/// predicted hit rate.
type PlanFacts = (ExecPath, bool, usize, usize, u64, u64);

fn plan_facts(d: &PlanDecision) -> PlanFacts {
    (
        d.path,
        d.forced,
        d.sampled,
        d.distinct,
        d.est_classes.to_bits(),
        d.predicted_hit_rate.to_bits(),
    )
}

/// The exact counters and decisions of a report: everything but time.
fn report_facts(r: &RunReport) -> ([u64; 5], Vec<PlanFacts>) {
    let m = &r.memo;
    (
        [m.lookups, m.classes, m.hits, m.verifications, m.fp_rejects],
        r.plans.iter().map(plan_facts).collect(),
    )
}

#[test]
fn concurrent_runs_get_independent_reports() {
    const ROUNDS: usize = 20;
    // Unlabeled cycle and torus balls collapse into a few classes, so the
    // planner memoizes both: each report carries a real decision and
    // nonzero counters that a shared tally would mix.
    let nets = [
        Network::with_identity_ids(generators::cycle(600)),
        Network::with_identity_ids(generators::grid2d(24, 24, true)),
    ];
    for t in [1, 2] {
        let planned = |net: &Network<()>| {
            Run::default()
                .threads(t)
                .ladder(net, "test", 1, |_, _| {}, ladder)
                .expect("order-invariant")
        };
        let alone: Vec<_> = nets.iter().map(&planned).collect();
        for (_, _, report) in &alone {
            assert_eq!(report.plans.len(), 1);
            assert_eq!(report.plans[0].path, ExecPath::Memo, "{report:?}");
            assert!(report.memo.lookups > 0);
        }
        let start = Barrier::new(2);
        // Each thread counts its mismatched rounds instead of asserting, so
        // a failure cannot leave the other thread stuck at the barrier.
        let wrong: Vec<usize> = std::thread::scope(|s| {
            let runners: Vec<_> = nets
                .iter()
                .zip(&alone)
                .map(|(net, (outs, rounds, report))| {
                    let start = &start;
                    let planned = &planned;
                    s.spawn(move || {
                        (0..ROUNDS)
                            .filter(|_| {
                                start.wait();
                                let (o, r, rep) = planned(net);
                                (&o, &r, report_facts(&rep)) != (outs, rounds, report_facts(report))
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
        assert_eq!(wrong, vec![0, 0], "threads {t}: mismatched rounds per run");
    }
}
