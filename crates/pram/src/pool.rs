//! A minimal persistent worker pool for the simulator's hot paths.
//!
//! The simulator previously fanned the compute phase out over rayon. This
//! pool replaces it with a std-only, dependency-free equivalent that is
//! tailored to the step pipeline's needs:
//!
//! * **Persistent workers** — threads are spawned once (lazily, on first
//!   parallel step) and reused for every subsequent step, so steady-state
//!   steps pay no spawn cost.
//! * **Chunk-indexed dispatch** — a job is a closure over a chunk index
//!   `0..nchunks`; workers pull indices from a shared atomic counter, which
//!   load-balances uneven chunks for free.
//! * **Caller participation** — the dispatching thread works through chunks
//!   too, so a pool on an `N`-core host uses all `N` cores, and on a 1-core
//!   host (`available_parallelism() == 1`) the pool spawns **zero** threads
//!   and [`ThreadPool::run`] degenerates to an inline sequential loop with no
//!   synchronisation at all.
//! * **One dispatcher at a time** — the pool runs one job at a time. A
//!   caller that finds it busy (another machine stepping on another
//!   thread) runs its chunks inline rather than sharing the job slot.
//!
//! Determinism note: which thread executes a chunk is scheduling-dependent,
//! but chunks are data-independent (each owns its slice of processors and
//! its own write buffer), so the simulator's observable state never depends
//! on the assignment.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock, TryLockError};
use std::thread;

/// A chunk-indexed job: called with each index in `0..nchunks` exactly once.
type Job<'a> = &'a (dyn Fn(usize) + Sync);

struct Slot {
    /// Monotone dispatch epoch; bumped once per [`ThreadPool::run`].
    epoch: u64,
    /// The current job, lifetime-erased. Present only while an epoch is
    /// being executed; cleared before `run` returns, so workers can never
    /// observe a dangling job.
    job: Option<&'static (dyn Fn(usize) + Sync)>,
    /// Number of chunks in the current job.
    nchunks: usize,
    /// Workers currently executing the job.
    active: usize,
    /// Workers admitted to the current epoch so far (monotone within an
    /// epoch; never decremented, unlike `active`).
    joined: usize,
    /// Worker admission cap for the current epoch
    /// ([`ThreadPool::run_bounded`]'s `max_lanes - 1`: the caller is the
    /// extra lane).
    max_workers: usize,
    /// Pool shutdown flag (used by tests; the global pool lives forever).
    shutdown: bool,
}

struct Shared {
    /// Held by the one caller dispatching an epoch, for the whole epoch.
    /// The slot and `cursor` describe a single job, so a second concurrent
    /// dispatcher must never touch them; it runs its chunks inline instead.
    dispatch: Mutex<()>,
    slot: Mutex<Slot>,
    /// Next chunk index to claim for the current epoch.
    cursor: AtomicUsize,
    /// The lowest-index chunk that panicked during the current epoch, with
    /// its payload, re-raised by the dispatcher once the epoch drains.
    panic: Mutex<Option<(usize, Box<dyn Any + Send>)>>,
    work_cv: Condvar,
    done_cv: Condvar,
}

/// A persistent chunk-dispatch pool.
pub struct ThreadPool {
    shared: &'static Shared,
    workers: usize,
}

/// Constructions of [`ThreadPool::with_workers`] in this process. The pool
/// intentionally leaks one `Shared` per construction (see the SAFETY note
/// below); the leak is sound only because construction happens at most once
/// per process — asserted by the `pool_is_constructed_at_most_once` test.
static CONSTRUCTIONS: AtomicUsize = AtomicUsize::new(0);

impl ThreadPool {
    fn with_workers(workers: usize) -> Self {
        CONSTRUCTIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY/lifetime: `Box::leak` gives `Shared` a true `'static`
        // lifetime, which the detached worker threads (and the job slot's
        // lifetime-erased references) require — workers may outlive any
        // scope that could own the allocation, and joining them on drop
        // would deadlock a worker parked in `work_cv.wait`. The memory is
        // never reclaimed, which is intentional and bounded: the only
        // caller is `global()`'s `OnceLock`, so exactly one `Shared` (a few
        // hundred bytes plus the worker stacks) leaks for the life of the
        // process.
        let shared: &'static Shared = Box::leak(Box::new(Shared {
            dispatch: Mutex::new(()),
            slot: Mutex::new(Slot {
                epoch: 0,
                job: None,
                nchunks: 0,
                active: 0,
                joined: 0,
                max_workers: 0,
                shutdown: false,
            }),
            cursor: AtomicUsize::new(0),
            panic: Mutex::new(None),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        }));
        for _ in 0..workers {
            #[expect(
                clippy::expect_used,
                reason = "fail-fast at pool construction: a host that cannot spawn threads cannot run at all"
            )]
            thread::Builder::new()
                .name("pram-pool".into())
                .spawn(move || worker_loop(shared))
                .expect("spawn pool worker");
        }
        Self { shared, workers }
    }

    /// Worker threads (excluding the caller). 0 on single-core hosts.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Execute `job(c)` for every `c in 0..nchunks`, returning when all
    /// chunks are done. The caller participates; with zero workers this is
    /// an inline loop.
    pub fn run(&self, nchunks: usize, job: Job<'_>) {
        self.run_bounded(usize::MAX, nchunks, job);
    }

    /// [`ThreadPool::run`] with at most `max_lanes` execution lanes (the
    /// caller plus up to `max_lanes - 1` pool workers). `max_lanes <= 1`
    /// degenerates to an inline sequential loop. Which lane executes a chunk
    /// is scheduling-dependent either way; callers must keep chunks
    /// data-independent, which is also what makes the observable result
    /// independent of `max_lanes`.
    ///
    /// Returns the lanes the job was dispatched to: 1 when it ran inline
    /// (zero workers, one chunk, a one-lane cap, or a busy pool), otherwise
    /// `max_lanes` capped by the pool width and by `nchunks`.
    pub fn run_bounded(&self, max_lanes: usize, nchunks: usize, job: Job<'_>) -> usize {
        if nchunks == 0 {
            return 1;
        }
        let shared = self.shared;
        // Trivial dispatches (no workers, one chunk, one lane) run inline, and
        // so does a caller that finds the pool busy: one dispatcher at a time,
        // and another machine stepping on another thread waits for no one.
        // Chunks are data-independent, so the result is the same as a pooled
        // run. The lock guards no data, so a poisoned one is simply taken.
        let dispatch = if self.workers == 0 || nchunks == 1 || max_lanes <= 1 {
            None
        } else {
            match shared.dispatch.try_lock() {
                Ok(guard) => Some(guard),
                Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
                Err(TryLockError::WouldBlock) => None,
            }
        };
        let Some(_dispatch) = dispatch else {
            for c in 0..nchunks {
                job(c);
            }
            return 1;
        };
        {
            // Lock poisoning carries no invariant here (critical sections
            // only assign plain fields), so recover the guard and continue;
            // job panics are reported via the separate `panic` slot.
            let mut slot = lock_slot(shared);
            // Lifetime erasure, argued for one dispatcher at a time: this
            // caller holds `dispatch` for the whole epoch, so no other caller
            // can replace `slot.job` or reset `cursor` while its chunks are
            // being claimed.
            // SAFETY: `job` outlives this call, and this call does not return
            // (nor release `dispatch`) until it has cleared `slot.job` with no
            // worker active, so no worker uses the reference after it dies.
            let eternal: &'static (dyn Fn(usize) + Sync) =
                unsafe { std::mem::transmute::<Job<'_>, Job<'static>>(job) };
            shared.cursor.store(0, Ordering::Relaxed);
            slot.job = Some(eternal);
            slot.nchunks = nchunks;
            slot.joined = 0;
            slot.max_workers = max_lanes.saturating_sub(1);
            slot.epoch += 1;
        }
        shared.work_cv.notify_all();

        // Participate.
        execute_chunks(shared, nchunks, job);

        // Wait for stragglers, then retire the job before returning.
        let mut slot = lock_slot(shared);
        while slot.active > 0 {
            slot = shared
                .done_cv
                .wait(slot)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        slot.job = None;
        drop(slot);

        // A chunk panic surfaces as it would inline: the lowest-index
        // panicking chunk's own payload.
        let panic = lock_panic(shared).take();
        if let Some((_, payload)) = panic {
            resume_unwind(payload);
        }
        max_lanes.min(self.workers + 1).min(nchunks)
    }
}

fn execute_chunks(shared: &Shared, nchunks: usize, job: Job<'_>) {
    loop {
        let c = shared.cursor.fetch_add(1, Ordering::Relaxed);
        if c >= nchunks {
            return;
        }
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| job(c))) {
            let mut first = lock_panic(shared);
            if first.as_ref().is_none_or(|(at, _)| c < *at) {
                *first = Some((c, payload));
            }
        }
    }
}

/// Lock the epoch's panic slot, recovering from poison (its critical
/// sections only assign the slot).
fn lock_panic(shared: &Shared) -> std::sync::MutexGuard<'_, Option<(usize, Box<dyn Any + Send>)>> {
    shared
        .panic
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Lock the job slot, recovering from poison: the slot's critical
/// sections only assign plain fields, so a panicking lane cannot leave a
/// broken invariant behind (job panics surface via `Shared::panic`).
fn lock_slot(shared: &Shared) -> std::sync::MutexGuard<'_, Slot> {
    shared
        .slot
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn worker_loop(shared: &'static Shared) {
    let mut seen_epoch = 0u64;
    loop {
        let (job, nchunks) = {
            let mut slot = lock_slot(shared);
            loop {
                if slot.shutdown {
                    return;
                }
                if slot.epoch != seen_epoch {
                    seen_epoch = slot.epoch;
                    if slot.joined < slot.max_workers {
                        if let Some(job) = slot.job {
                            slot.joined += 1;
                            slot.active += 1;
                            break (job, slot.nchunks);
                        }
                        // job already retired: keep waiting on the next epoch
                    }
                    // epoch full (bounded run): sit this one out
                }
                slot = shared
                    .work_cv
                    .wait(slot)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };

        execute_chunks(shared, nchunks, job);

        let mut slot = lock_slot(shared);
        slot.active -= 1;
        if slot.active == 0 {
            shared.done_cv.notify_all();
        }
    }
}

/// The process-wide pool, sized to the host (`available_parallelism - 1`
/// workers, since the caller participates) unless the `IPCH_THREADS`
/// environment variable overrides the lane count (`IPCH_THREADS=1` forces a
/// workerless, purely sequential pool; values above the core count
/// oversubscribe, which the determinism suites use to vary the worker count
/// on small hosts). Spawned lazily on first use; the size is fixed for the
/// life of the process.
pub fn global() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let lanes = configured_lanes();
        ThreadPool::with_workers(lanes.saturating_sub(1))
    })
}

/// The lane count the global pool is (or will be) built with: the
/// `IPCH_THREADS` override when set to a positive integer, otherwise the
/// host's `available_parallelism`. Does not spawn the pool.
pub fn configured_lanes() -> usize {
    if let Ok(v) = std::env::var("IPCH_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Total execution lanes (workers + the calling thread).
pub fn num_threads() -> usize {
    global().workers() + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn pool_is_constructed_at_most_once() {
        // The leaked `Shared` is bounded only because `with_workers` runs at
        // most once per process (through `global()`'s OnceLock). Force the
        // pool into existence, exercise it, and check the counter.
        let pool = global();
        pool.run(4, &|_| {});
        let p2 = global();
        assert!(std::ptr::eq(pool, p2), "global() returns one pool");
        assert_eq!(
            CONSTRUCTIONS.load(Ordering::Relaxed),
            1,
            "ThreadPool::with_workers must run at most once per process"
        );
    }

    #[test]
    fn runs_every_chunk_exactly_once() {
        let pool = global();
        let hits: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
        pool.run(100, &|c| {
            hits[c].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn zero_chunks_is_a_noop() {
        global().run(0, &|_| panic!("must not be called"));
    }

    #[test]
    fn bounded_runs_every_chunk_exactly_once_at_every_lane_cap() {
        let pool = global();
        for lanes in [1usize, 2, 3, usize::MAX] {
            let hits: Vec<AtomicU64> = (0..67).map(|_| AtomicU64::new(0)).collect();
            pool.run_bounded(lanes, 67, &|c| {
                hits[c].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "lanes={lanes}: every chunk must run exactly once"
            );
        }
    }

    #[test]
    fn bounded_then_unbounded_dispatches_share_the_pool() {
        let pool = global();
        let total = AtomicUsize::new(0);
        for round in 1..=20 {
            pool.run_bounded(1 + round % 3, round, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
            pool.run(round, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 2 * (1..=20).sum::<usize>());
    }

    #[test]
    fn a_chunk_panic_reraises_the_lowest_panicking_chunks_payload() {
        for lanes in [1usize, 2, usize::MAX] {
            let caught = catch_unwind(|| {
                global().run_bounded(lanes, 16, &|c| {
                    if c == 3 || c == 11 {
                        panic!("chunk {c}");
                    }
                });
            });
            let payload = caught.expect_err("a chunk panic reaches the caller");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("chunk 3"),
                "lanes {lanes}"
            );
        }
        // the pool stays usable after a panicking epoch
        let total = AtomicUsize::new(0);
        global().run(8, &|_| {
            total.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn reusable_across_many_dispatches() {
        let pool = global();
        let total = AtomicUsize::new(0);
        for round in 1..=50 {
            pool.run(round, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), (1..=50).sum::<usize>());
    }

    #[test]
    fn chunks_can_mutate_disjoint_state() {
        // the machine's usage pattern: each chunk owns cell c
        struct Cell(std::cell::UnsafeCell<u64>);
        // SAFETY: the test touches cell c from exactly one chunk at a time.
        unsafe impl Sync for Cell {}
        let cells: Vec<Cell> = (0..64)
            .map(|_| Cell(std::cell::UnsafeCell::new(0)))
            .collect();
        // SAFETY: chunk c is the only writer of cells[c].
        global().run(64, &|c| unsafe {
            *cells[c].0.get() = c as u64 * 3;
        });
        for (i, c) in cells.iter().enumerate() {
            // SAFETY: the pool has quiesced; reads race with nothing.
            assert_eq!(unsafe { *c.0.get() }, i as u64 * 3);
        }
    }
}
