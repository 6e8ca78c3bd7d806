//! The worker pool behind every parallel fan-out, checked through the
//! public entry points against sequential runs for chunk counts
//! {1, 2, 3, 8}:
//!
//! * nested fan-outs (a `par_map` inside a `par_map`, a parallel memo
//!   decode inside a `par_map`) complete and match sequential — a chunk
//!   that fans out again must never wait on work that is merely queued;
//! * a panicking chunk reaches the caller with its original payload, and
//!   the pool serves the next call normally;
//! * two OS threads fanning out at the same time each get their own
//!   results.
//!
//! Without the `parallel` feature every entry point runs sequentially and
//! the assertions are unchanged.

use lad_graph::{generators, Graph};
use lad_runtime::{
    par_map, par_map_with, run_local_memo_fallible, run_local_memo_fallible_par,
    set_thread_override, Ball, MemoStep, Network, NotOrderInvariant,
};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Barrier, Mutex, MutexGuard};

const THREAD_GRID: [usize; 4] = [1, 2, 3, 8];

/// Serializes the tests of this binary: they set the process-wide thread
/// override, and each must see its own value.
static OVERRIDE: Mutex<()> = Mutex::new(());

/// Holds the override lock and resets the override on drop, even when an
/// assertion unwinds.
struct Threads {
    _serial: MutexGuard<'static, ()>,
}

impl Threads {
    fn lock() -> Self {
        Threads {
            _serial: OVERRIDE.lock().unwrap_or_else(|e| e.into_inner()),
        }
    }

    fn set(&self, threads: usize) {
        set_thread_override(Some(threads));
    }
}

impl Drop for Threads {
    fn drop(&mut self) {
        set_thread_override(None);
    }
}

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
fn nested_par_map_matches_sequential() {
    let outer: Vec<usize> = (0..13).collect();
    let inner_of = |i: usize| -> Vec<u64> { (0..17 + 3 * i as u64).collect() };
    let expect: Vec<Vec<u64>> = outer
        .iter()
        .map(|&i| inner_of(i).iter().map(|&x| x * x + i as u64).collect())
        .collect();
    let threads = Threads::lock();
    for t in THREAD_GRID {
        threads.set(t);
        let got = par_map(&outer, |_, &i| {
            par_map(&inner_of(i), |_, &x| x * x + i as u64)
        });
        assert_eq!(got, expect, "threads {t}");
    }
}

#[test]
fn nested_memo_decode_matches_sequential() {
    let nets: Vec<Network<()>> = networks()
        .into_iter()
        .map(Network::with_identity_ids)
        .collect();
    let expect: Vec<_> = nets
        .iter()
        .map(|net| run_local_memo_fallible(net, 1, |_, _| {}, ladder).expect("order-invariant"))
        .collect();
    let threads = Threads::lock();
    for t in THREAD_GRID {
        threads.set(t);
        let got = par_map(&nets, |_, net| {
            run_local_memo_fallible_par(net, 1, |_, _| {}, ladder).expect("order-invariant")
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
    let threads = Threads::lock();
    for t in THREAD_GRID {
        threads.set(t);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            par_map(&items, |_, &x| {
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
            par_map(&items, |_, &x| x + 1),
            expect,
            "threads {t}: next call"
        );
    }
}

#[test]
fn concurrent_callers_get_their_own_results() {
    const ROUNDS: usize = 50;
    let threads = Threads::lock();
    for t in THREAD_GRID {
        threads.set(t);
        let start = Barrier::new(2);
        // Each caller counts its wrong rounds instead of asserting, so a
        // failure cannot leave the other caller stuck at the barrier.
        let wrong: Vec<usize> = std::thread::scope(|s| {
            let callers: Vec<_> = (0..2u64)
                .map(|caller| {
                    let start = &start;
                    s.spawn(move || {
                        let items: Vec<u64> = (0..64 + 7 * caller).collect();
                        (0..ROUNDS as u64)
                            .filter(|&round| {
                                start.wait();
                                let got = par_map_with(
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
