//! The process-wide worker pool behind every parallel fan-out.
//!
//! The executors, [`crate::Run::map_with`] and everything built on them
//! split their work into contiguous chunks and hand the chunks to [`map`].
//! The pool starts `host_threads() − 1` workers the first time it is used
//! and keeps them for the life of the process, so a fan-out costs a queue
//! push and a wake-up instead of a thread spawn and join per chunk. That
//! matters where fan-outs are small and frequent: the decode server fans
//! out every 16-query batch.
//!
//! # How a call runs
//!
//! A call publishes one ticket per worker it could use, then claims and
//! runs chunks itself. Chunks are claimed through one atomic counter, so
//! each chunk runs exactly once, on whichever thread claimed it; the
//! caller takes back every chunk no worker has claimed yet and then waits
//! only on chunks that are already running. Two consequences:
//!
//! * **Nested fan-outs cannot deadlock.** A chunk that fans out again (the
//!   shard driver maps over views and each view decodes in parallel) is a
//!   caller like any other: it never waits on a chunk that is merely
//!   queued, so a waiting thread always waits on one that is making
//!   progress.
//! * **More chunks than workers is fine.** `LAD_THREADS=8` on a 2-core
//!   host makes eight chunks; the caller and the one worker share them.
//!
//! Chunk boundaries are chosen by the caller and never depend on which
//! thread ran what, so outputs stay bit-identical across thread counts.
//!
//! # Panics
//!
//! A panicking chunk is caught; the call still finishes its other chunks
//! and then resumes the panic of the lowest-indexed panicking chunk on the
//! caller, with its original payload. Workers never die.

use crate::executor::host_threads;
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// One fan-out's body: runs the chunk with the given index.
type Job<'a> = dyn Fn(usize) + Sync + 'a;

/// Runs `f` on every task, spreading the tasks over the pool's workers
/// and the calling thread, and returns the results in task order.
///
/// Blocks until every task has finished. If any task panicked, the panic
/// of the lowest-indexed one is resumed here after the rest completed.
pub(crate) fn map<T: Send, R: Send>(tasks: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let tasks: Vec<Mutex<Option<T>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = tasks.iter().map(|_| Mutex::new(None)).collect();
    run(tasks.len(), &|i| {
        let task = lock(&tasks[i]).take().expect("each chunk is claimed once");
        let result = f(task);
        *lock(&results[i]) = Some(result);
    });
    results
        .into_iter()
        .map(|r| {
            r.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every chunk ran to completion")
        })
        .collect()
}

/// Runs `job(0..chunks)` across the pool; see the module docs.
fn run(chunks: usize, job: &Job<'_>) {
    // The call's shared state outlives this frame when a worker still
    // holds a ticket, but `job` does not: keep it behind a raw pointer
    // that only a claimed chunk dereferences (see `Call::work`).
    let job_ptr: *const &Job<'_> = &job;
    let call = Arc::new(Call {
        job: AtomicPtr::new(job_ptr.cast::<&'static Job<'static>>().cast_mut()),
        chunks,
        next: AtomicUsize::new(0),
        progress: Mutex::new(Progress::default()),
        all_done: Condvar::new(),
    });
    let helpers = workers().min(chunks.saturating_sub(1));
    if helpers > 0 {
        lock(&POOL.queue).extend(std::iter::repeat_with(|| Arc::clone(&call)).take(helpers));
        for _ in 0..helpers {
            POOL.wake.notify_one();
        }
    }
    call.work();
    // Every chunk is claimed now; wait for the ones other threads run.
    let mut progress = lock(&call.progress);
    while progress.finished < chunks {
        progress = call
            .all_done
            .wait(progress)
            .unwrap_or_else(PoisonError::into_inner);
    }
    if let Some((_, payload)) = progress.panic.take() {
        drop(progress);
        panic::resume_unwind(payload);
    }
}

/// The shared state of one fan-out. Queued tickets are `Arc`s to it.
struct Call {
    /// The caller's `&Job` with its lifetime erased. Valid until the
    /// caller has seen every claimed chunk finish; only dereferenced by a
    /// thread that claimed a chunk index below `chunks`, which the caller
    /// then waits for.
    job: AtomicPtr<&'static Job<'static>>,
    chunks: usize,
    /// The next unclaimed chunk index. It hands out indices only — chunk
    /// effects are published through the `progress` lock — so it is
    /// `Relaxed`.
    next: AtomicUsize,
    progress: Mutex<Progress>,
    /// Signalled when `progress.finished` reaches `chunks`.
    all_done: Condvar,
}

#[derive(Default)]
struct Progress {
    finished: usize,
    /// The lowest-indexed panicking chunk and its payload.
    panic: Option<(usize, Box<dyn Any + Send>)>,
}

impl Call {
    /// Claims and runs chunks until none is left unclaimed.
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.chunks {
                return;
            }
            // SAFETY: `job` points at the `job` argument of the `run` frame
            // that created this call, and it was written before the call
            // was shared. Index `i < chunks` is ours alone, so `finished`
            // cannot reach `chunks` before we count this chunk below,
            // after the last use of the reference. `run` neither returns
            // nor lets its argument or the closure it borrows go out of
            // scope until `finished == chunks`, so the reference is valid
            // for as long as this chunk uses it, and it is never stored.
            let job: &Job<'_> = unsafe { *self.job.load(Ordering::Relaxed) };
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| job(i)));
            let mut progress = lock(&self.progress);
            if let Err(payload) = outcome {
                if progress.panic.as_ref().is_none_or(|&(j, _)| i < j) {
                    progress.panic = Some((i, payload));
                }
            }
            progress.finished += 1;
            if progress.finished == self.chunks {
                self.all_done.notify_all();
            }
        }
    }
}

struct Pool {
    /// Tickets: each lets one worker join a call's chunk claiming. A
    /// ticket whose call has no chunks left is simply dropped.
    queue: Mutex<VecDeque<Arc<Call>>>,
    wake: Condvar,
}

static POOL: Pool = Pool {
    queue: Mutex::new(VecDeque::new()),
    wake: Condvar::new(),
};

/// How many workers the pool runs, starting them on first use:
/// `host_threads() − 1`, fewer if the OS refuses a thread. The workers
/// are detached and live for the whole process; they never panic (chunk
/// panics are caught in [`Call::work`]), so there is nothing to join.
fn workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        (1..host_threads())
            .take_while(|w| {
                std::thread::Builder::new()
                    .name(format!("lad-pool-{w}"))
                    .spawn(worker)
                    .is_ok()
            })
            .count()
    })
}

fn worker() {
    loop {
        let call = {
            let mut queue = lock(&POOL.queue);
            loop {
                if let Some(call) = queue.pop_front() {
                    break call;
                }
                queue = POOL
                    .wake
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        call.work();
    }
}

/// Locks a pool mutex. None is ever held across user code, and every
/// update leaves its data valid, so a poisoned guard is still sound.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
