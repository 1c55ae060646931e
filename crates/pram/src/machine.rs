//! The step-synchronous CRCW machine.
//!
//! One call to [`Machine::step`] is one synchronous PRAM step:
//!
//! 1. **Compute phase** — every active processor runs the step closure
//!    against an immutable snapshot of shared memory, buffering its writes
//!    and (optionally) producing a private result. Processors are evaluated
//!    in chunks over the persistent [`crate::pool`] once the active set
//!    reaches [`Tuning::par_threshold`] (2^15 by default,
//!    `IPCH_PAR_THRESHOLD=<n>` to override); since each processor only
//!    reads the pre-step snapshot, evaluation order is unobservable.
//! 2. **Commit phase** — buffered writes are resolved per cell under the
//!    machine's [`WritePolicy`] and the winners are committed, over the
//!    pool once there are twice `par_threshold` of them. Metrics record
//!    one step and `|active|` work.
//!
//! # One step function
//!
//! Every simulated step — including each named [`crate::kernel`] shape,
//! which is this generic step — runs in [`Machine::step_map_with_policy`]:
//! it opens the step (cancel poll, step number, [`Metrics`] step and work,
//! fault budget, pooled arena and analyzer state, clock), runs its chunks
//! (the sequential-or-pool decision, cancel polls at every chunk entry,
//! lanes used), then closes it (commit of a buffered log, host time,
//! analyzer classification, cell corruption, workspace peak) or unwinds on
//! cancellation, so each per-step charge is made in one place.
//!
//! This gives exactly the textbook semantics: concurrent reads are free,
//! concurrent writes are resolved by the model rule, and *nothing a
//! processor writes is visible to any processor until the next step*.
//!
//! # Fork children
//!
//! The paper's simultaneous subproblems are child machines:
//! [`Machine::fork_join`] runs one child per item at the same time on the
//! pool and folds them back in item order, so every simulated counter,
//! memory image and analyzer report is the same at any lane count.
//! Children that borrow the parent's memory mutably use
//! [`Machine::fork_join_seq`], which runs them one after another and
//! shares the same fold.
//!
//! # The commit pipeline
//!
//! The commit phase is the simulator's hot path and is engineered to cost
//! nothing it doesn't have to:
//!
//! * **Write-buffer arena** — every chunk of processors appends to a pooled
//!   per-chunk buffer owned by the machine. Buffers (and the flat gather /
//!   sort-scratch buffers behind them) survive across steps, so steady-state
//!   steps perform **zero heap allocation**. Each buffer sits in its own
//!   128-byte `ChunkCell`, so lanes appending to neighbouring chunks never
//!   share a cache line.
//! * **Run folding at buffer time** — under every rule but `Arbitrary`, a
//!   write to the cell of its chunk's last log entry is folded into that
//!   entry by the rule itself (`WritePolicy::fold`): the knock-out steps
//!   in which every processor of a candidate ORs one flag buffer one entry
//!   per run instead of one per write. A folded entry carries the
//!   `FOLDED` bit, so the commit still counts its cell as one conflict,
//!   and `writes_buffered` still counts every write. Nothing folds while the
//!   concurrency analyzer is attached: it reads the raw log.
//! * **Conflict-free fast path** — scatter-style steps (each cell written at
//!   most once, in increasing cell order: the overwhelmingly common shape of
//!   the hull algorithms' marking steps) are detected by a single strictly-
//!   monotone scan over the buffered log and committed **directly**: no
//!   gather, no sort, no policy resolution, no per-cell tiebreak hash. A
//!   run folded into one entry takes this path too, when the log is
//!   otherwise monotone.
//! * **Sorted slow path** — otherwise the log is gathered flat, sorted by a
//!   packed 64-bit `(array, idx)` key (in parallel above a threshold), and
//!   resolved run-by-run *in place*: singleton runs commit directly, and
//!   only genuinely conflicted cells pay the policy dispatch and the seeded
//!   tiebreak hash.
//! * **Deterministic resolution order** — each buffered write carries its
//!   processor id and a per-processor sequence number, making the sort key
//!   total. The committed state is a pure function of (seed, program),
//!   independent of chunking, thread count, or which commit path ran.

use std::cell::UnsafeCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

use crate::analyze::{Analysis, ReadEntry, ReadTrace, READ_ALL};
use crate::cancel::CancelToken;
use crate::faults::{FaultPlan, FaultState, StepFaults};
use crate::memory::{ArrayId, Shm};
use crate::metrics::Metrics;
use crate::policy::WritePolicy;
use crate::pool;
use crate::rng::{mix64, SplitMix64};
use crate::Word;

/// Active-processor set for one step.
#[derive(Clone, Debug)]
pub enum Pids<'a> {
    /// Processors `lo..hi`.
    Range(usize, usize),
    /// An explicit pid list (need not be sorted or contiguous — this is what
    /// the paper's *in-place* methods exploit: the processors of one
    /// subproblem are scattered through the input).
    List(&'a [usize]),
    /// The row-major product `0..a × 0..b × 0..c` of processor
    /// coordinates: the `pid` of coordinates `[i, j, k]` is its linear
    /// index `(i·b + j)·c + k`, so a grid step runs, draws coins and
    /// writes exactly as `Range(0, a·b·c)`, and [`Ctx::coord`] hands each
    /// processor `[i, j, k]` without a division. A 2-D grid is
    /// `Grid([1, b, c])`.
    Grid([usize; 3]),
}

impl Pids<'_> {
    /// Number of active processors.
    pub fn count(&self) -> usize {
        match self {
            Pids::Range(lo, hi) => hi.saturating_sub(*lo),
            Pids::List(l) => l.len(),
            Pids::Grid([a, b, c]) => match a.checked_mul(*b).and_then(|ab| ab.checked_mul(*c)) {
                Some(n) => n,
                None => panic!("grid {a}×{b}×{c} overflows usize"),
            },
        }
    }

    #[inline]
    pub(crate) fn get(&self, i: usize) -> usize {
        match self {
            Pids::Range(lo, _) => lo + i,
            Pids::List(l) => l[i],
            Pids::Grid(_) => i,
        }
    }
}

impl From<std::ops::Range<usize>> for Pids<'static> {
    fn from(r: std::ops::Range<usize>) -> Self {
        Pids::Range(r.start, r.end)
    }
}

impl<'a> From<&'a [usize]> for Pids<'a> {
    fn from(l: &'a [usize]) -> Self {
        Pids::List(l)
    }
}

impl<'a> From<&'a Vec<usize>> for Pids<'a> {
    fn from(l: &'a Vec<usize>) -> Self {
        Pids::List(l.as_slice())
    }
}

/// One buffered write, packed for sort speed: 24 bytes, and the cell
/// address is a single `u64` so the sort comparator is one wide compare.
#[derive(Clone, Copy, Debug)]
pub(crate) struct WriteEntry {
    /// `array << 32 | idx` — the cell address.
    pub(crate) key: u64,
    /// `pid << 32 | seq << 1 | folded` — writer id and its per-step write
    /// sequence number, which make the total sort key unique, so
    /// resolution is deterministic even under an unstable sort; the low
    /// bit is [`FOLDED`].
    pub(crate) pidseq: u64,
    /// The written value.
    pub(crate) val: Word,
}

impl WriteEntry {
    #[inline]
    fn array(&self) -> u32 {
        (self.key >> 32) as u32
    }

    #[inline]
    fn idx(&self) -> u32 {
        self.key as u32
    }

    /// Full unique sort key.
    #[inline]
    pub(crate) fn sort_key(&self) -> u128 {
        ((self.key as u128) << 64) | self.pidseq as u128
    }
}

/// Low bit of [`WriteEntry::pidseq`]: the entry holds two or more writes
/// to its cell folded by the step's rule ([`WritePolicy`]'s fold), so its
/// cell is conflicted even when no other entry names it. Every `seq` is
/// shifted above it, so it never changes the sort order.
pub(crate) const FOLDED: u64 = 1;

/// Interior-mutable cell handed to pool chunks; each chunk index touches
/// exactly one cell, which is what makes the unsafe access sound. Aligned
/// to 128 bytes (two cache lines, the adjacent-line prefetch pair), so
/// lanes working on neighbouring chunks never share a line.
#[repr(align(128))]
pub(crate) struct ChunkCell<T>(pub(crate) UnsafeCell<T>);

// SAFETY: access discipline is "chunk c touches cell c only", enforced by
// the pool delivering each chunk index exactly once.
unsafe impl<T: Send> Sync for ChunkCell<T> {}

impl<T> ChunkCell<T> {
    pub(crate) fn new(v: T) -> Self {
        Self(UnsafeCell::new(v))
    }

    /// Exclusive access from the chunk that owns this cell.
    ///
    /// # Safety
    /// Caller must be the unique accessor of this cell for the duration of
    /// the returned borrow (the pool's exactly-once chunk dispatch).
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn get_mut_unchecked(&self) -> &mut T {
        // SAFETY: uniqueness is forwarded from this function's contract.
        unsafe { &mut *self.0.get() }
    }

    pub(crate) fn into_inner(self) -> T {
        self.0.into_inner()
    }
}

/// Pooled buffers reused by every step: per-chunk write logs, the flat
/// gathered log, and merge scratch. Capacities are retained across steps so
/// the steady state allocates nothing.
#[derive(Default)]
pub(crate) struct WriteArena {
    pub(crate) chunk_bufs: Vec<ChunkCell<Vec<WriteEntry>>>,
    flat: Vec<WriteEntry>,
    scratch: Vec<WriteEntry>,
}

impl std::fmt::Debug for WriteArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WriteArena")
            .field("chunks", &self.chunk_bufs.len())
            .field("flat_cap", &self.flat.capacity())
            .finish()
    }
}

impl WriteArena {
    /// Make at least `n` cleared chunk buffers available.
    pub(crate) fn prepare(&mut self, n: usize) {
        for buf in self.chunk_bufs.iter_mut().take(n) {
            buf.0.get_mut().clear();
        }
        while self.chunk_bufs.len() < n {
            self.chunk_bufs.push(ChunkCell::new(Vec::new()));
        }
    }
}

/// Per-processor view during the compute phase of a step. One `Ctx`
/// serves a whole chunk; its per-processor fields are reset before each
/// processor runs.
pub struct Ctx<'a, 'b> {
    /// This processor's id.
    pub pid: usize,
    /// This processor's position in the step's pid set.
    rank: usize,
    /// This processor's coordinates, in a [`Pids::Grid`] step.
    coord: [usize; 3],
    /// The step's pids are a [`Pids::Grid`].
    grid: bool,
    shm: &'a Shm,
    seed: u64,
    step_no: u64,
    rng: Option<SplitMix64>,
    writes: &'b mut Vec<WriteEntry>,
    /// `seq << 1` of this processor's next write: its write sequence
    /// number, kept above the [`FOLDED`] bit.
    wseq: u32,
    /// The step's rule when writes fold into the previous log entry of
    /// the same cell (`None` while the analyzer is attached).
    fold: Option<WritePolicy>,
    /// Writes of this chunk folded into an earlier entry.
    folded: u64,
    /// Read-trace buffer of this processor's chunk, when the concurrency
    /// analyzer ([`crate::analyze`]) is attached.
    trace: Option<&'b ReadTrace>,
    /// Fault plane ([`crate::faults`]): forced coin outcome of this
    /// processor's RNG stream, when the stream is biased this step.
    bias: Option<bool>,
    /// Fault plane: this processor is dropped this step — it computes, but
    /// none of its writes reach shared memory (a stalled processor).
    dropped: bool,
}

impl<'a, 'b> Ctx<'a, 'b> {
    /// This processor's position in the step's pid set: `i` for the
    /// `i`-th pid of a [`Pids::List`] or [`Pids::Range`]. Private
    /// registers of a subproblem's processors are indexed by it, so they
    /// are sized by the subproblem, not by the largest pid.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// This processor's coordinates `[i, j, k]` in a [`Pids::Grid`] step
    /// (`[0, 0, rank]` in any other step).
    #[inline]
    pub fn coord(&self) -> [usize; 3] {
        if self.grid {
            self.coord
        } else {
            [0, 0, self.rank]
        }
    }

    /// Read a cell of the pre-step memory snapshot.
    #[inline]
    pub fn read(&self, a: ArrayId, i: usize) -> Word {
        if let Some(t) = self.trace {
            t.borrow_mut().push(ReadEntry {
                key: ((a.slot() as u64) << 32) | i as u64,
                pid: self.pid as u32,
            });
        }
        self.shm.get(a, i)
    }

    /// Borrow a whole array of the pre-step snapshot.
    ///
    /// The slice lives as long as the snapshot (not just the `Ctx` borrow),
    /// so inner loops can hoist it once and index directly — one bounds
    /// check per access instead of [`Shm::get`]'s double indirection:
    ///
    /// ```
    /// # use ipch_pram::{Machine, Shm};
    /// # let mut m = Machine::new(1);
    /// # let mut shm = Shm::new();
    /// # let a = shm.alloc("a", 64, 1);
    /// # let out = shm.alloc("out", 64, 0);
    /// m.step(&mut shm, 0..64, |ctx| {
    ///     let row = ctx.slice(a);            // hoisted once
    ///     let s: i64 = row.iter().sum();     // tight loop, no Shm lookups
    ///     ctx.write(out, ctx.pid, s);
    /// });
    /// ```
    #[inline]
    pub fn slice(&self, a: ArrayId) -> &'a [Word] {
        if let Some(t) = self.trace {
            t.borrow_mut().push(ReadEntry {
                key: ((a.slot() as u64) << 32) | READ_ALL as u64,
                pid: self.pid as u32,
            });
        }
        self.shm.slice(a)
    }

    /// Length of a shared array (metadata, not a traced cell read).
    #[inline]
    pub fn len(&self, a: ArrayId) -> usize {
        self.shm.len(a)
    }

    /// Buffer a write to be committed at the end of the step.
    ///
    /// A write to the same cell as the chunk's last buffered write is
    /// folded into that entry by the step's rule, unless the rule is
    /// `Arbitrary` or the analyzer is attached (see the module doc); the
    /// committed value and every counter are the same either way.
    ///
    /// # Panics
    /// With a typed [`crate::memory::ShmError`] message on an out-of-range
    /// index or a stale (scope-exited) array id — in every build profile:
    /// the commit phase writes through raw pointers, so an unchecked bad
    /// index would be undefined behaviour, not a recoverable error. (The
    /// panics are out of line, so this per-write hot path inlines into
    /// every step closure.)
    #[inline(always)]
    pub fn write(&mut self, a: ArrayId, i: usize, v: Word) {
        if !self.shm.access_ok(a, i) {
            self.shm.access_failed(a, i);
        }
        if self.pid > u32::MAX as usize {
            pid_overflow(self.pid);
        }
        if self.dropped {
            // Fault plane: a dropped processor's writes silently vanish
            // (bounds are still validated above so a buggy index panics
            // identically with and without the fault).
            return;
        }
        let key = ((a.slot() as u64) << 32) | i as u64;
        let pidseq = ((self.pid as u64) << 32) | self.wseq as u64;
        self.wseq += 2;
        if let (Some(policy), Some(last)) = (self.fold, self.writes.last_mut()) {
            if last.key == key && policy.fold(last, pidseq, v) {
                self.folded += 1;
                return;
            }
        }
        self.writes.push(WriteEntry {
            key,
            pidseq,
            val: v,
        });
    }

    /// This processor's private RNG for this step (constructed lazily, so
    /// steps that never flip coins skip the stream derivation entirely).
    #[inline]
    pub fn rng(&mut self) -> &mut SplitMix64 {
        let (seed, step_no, pid, bias) = (self.seed, self.step_no, self.pid, self.bias);
        self.rng.get_or_insert_with(|| {
            let mut r = SplitMix64::for_step_pid(seed, step_no, pid as u64);
            if let Some(force) = bias {
                r.set_bias(force);
            }
            r
        })
    }
}

/// Panic for a writer whose pid does not fit the write log's 32 bits.
/// Out of line, like [`Shm::access_failed`].
#[cold]
#[inline(never)]
fn pid_overflow(pid: usize) -> ! {
    panic!("pid {pid} exceeds u32 range")
}

/// Performance knobs. Defaults are right for production use; tests force
/// specific paths to prove they are all equivalent. None of them changes
/// memory, [`Metrics`] or [`crate::AnalysisReport`]s: the determinism
/// suites assert bit-identical results at every setting.
#[derive(Clone, Copy, Debug)]
pub struct Tuning {
    /// Active-processor count at which a step's chunk loop fans out over the
    /// [`crate::pool`]; below it the chunks run on the calling thread (the
    /// small-n fast path). The commit phase fans out at twice this many
    /// buffered writes. `0` fans every step out, `usize::MAX` none.
    /// Overridable via `IPCH_PAR_THRESHOLD=<n>`.
    pub par_threshold: usize,
    /// Cap on execution lanes (calling thread + pool workers) any parallel
    /// phase of this machine may use. `None` = all pool lanes; `Some(1)`
    /// runs everything on the calling thread. This knob exists for
    /// capacity control and for the worker-count-independence suites.
    pub num_threads: Option<usize>,
    /// Disable the conflict-free fast path (always gather + sort).
    pub disable_fast_path: bool,
}

impl Default for Tuning {
    fn default() -> Self {
        Self {
            par_threshold: env_par_threshold().unwrap_or(1 << 15),
            num_threads: None,
            disable_fast_path: false,
        }
    }
}

/// Process-wide `IPCH_PAR_THRESHOLD=<n>` override, parsed once.
/// Unset or unparseable values leave the compiled default.
fn env_par_threshold() -> Option<usize> {
    static OVERRIDE: OnceLock<Option<usize>> = OnceLock::new();
    *OVERRIDE.get_or_init(|| {
        std::env::var("IPCH_PAR_THRESHOLD")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
    })
}

/// Processors per compute chunk (one pooled write buffer each).
///
/// Chunk boundaries are a pure function of the active-set size — never of
/// the worker count — which is one of the three legs the parallel backend's
/// bit-identical guarantee stands on (the others: per-chunk state is folded
/// in fixed chunk order, and per-(step, pid) RNG streams are derived, not
/// shared).
pub(crate) const CHUNK: usize = 8192;

/// One finished fork child: its costs, and its result or panic payload.
struct Joined<T, E> {
    metrics: Metrics,
    out: std::thread::Result<Result<T, E>>,
}

impl<T, E> Joined<T, E> {
    /// Run one child under its own `catch_unwind` and keep its metrics
    /// whatever it returned.
    fn run(child: &mut Machine, f: impl FnOnce(&mut Machine) -> Result<T, E>) -> Self {
        let out = catch_unwind(AssertUnwindSafe(|| f(child)));
        Self {
            metrics: std::mem::take(&mut child.metrics),
            out,
        }
    }

    fn failed(&self) -> bool {
        !matches!(self.out, Ok(Ok(_)))
    }
}

/// Lock a fork slot. A slot's critical sections only move a value in or
/// out (the child itself runs under `catch_unwind`), so a poisoned lock
/// holds nothing broken.
fn lock<V>(m: &Mutex<V>) -> std::sync::MutexGuard<'_, V> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A randomized CRCW PRAM.
///
/// # Examples
///
/// Eight processors concurrently increment their own cells in one
/// synchronous step; a ninth step has them all contend for one cell under
/// the Combining-Sum rule:
///
/// ```
/// use ipch_pram::{Machine, Shm, WritePolicy};
///
/// let mut m = Machine::new(42);
/// let mut shm = Shm::new();
/// let cells = shm.alloc("cells", 8, 0);
/// m.step(&mut shm, 0..8, |ctx| {
///     let pid = ctx.pid;
///     ctx.write(cells, pid, pid as i64);
/// });
/// assert_eq!(shm.get(cells, 7), 7);
///
/// let acc = shm.alloc("acc", 1, 0);
/// m.step_with_policy(&mut shm, 0..8, WritePolicy::CombineSum, |ctx| {
///     ctx.write(acc, 0, 1);
/// });
/// assert_eq!(shm.get(acc, 0), 8);
/// assert_eq!(m.metrics.steps, 2);
/// assert_eq!(m.metrics.work, 16);
/// ```
#[derive(Debug)]
pub struct Machine {
    /// Accumulated costs; read freely, reset via [`Machine::reset_metrics`].
    pub metrics: Metrics,
    /// Default concurrent-write rule for [`Machine::step`].
    pub policy: WritePolicy,
    /// Host-performance knobs (never affect simulated semantics).
    pub tuning: Tuning,
    seed: u64,
    pub(crate) step_counter: u64,
    pub(crate) arena: WriteArena,
    /// Concurrency-analyzer state, when attached
    /// ([`Machine::enable_analysis`]); the report lives in
    /// [`Metrics::analysis`] so it follows the child-absorb flow.
    pub(crate) analysis: Option<Box<Analysis>>,
    /// Fault-injection state, when a [`FaultPlan`] is installed
    /// ([`Machine::install_faults`]). Boxed so the (default) disabled case
    /// costs one pointer and one branch per hook.
    pub(crate) faults: Option<Box<FaultState>>,
    /// Cooperative cancellation token, when installed
    /// ([`Machine::set_cancel_token`]): polled at every step entry and at
    /// every chunk boundary of compute loops; see [`crate::cancel`].
    pub(crate) cancel: Option<CancelToken>,
}

impl Machine {
    /// A machine with the given seed and the `Arbitrary` write rule.
    pub fn new(seed: u64) -> Self {
        Self {
            metrics: Metrics::new(),
            policy: WritePolicy::Arbitrary,
            tuning: Tuning::default(),
            seed,
            step_counter: 0,
            arena: WriteArena::default(),
            analysis: None,
            faults: None,
            cancel: None,
        }
    }

    /// A machine with an explicit write rule.
    pub fn with_policy(seed: u64, policy: WritePolicy) -> Self {
        Self {
            policy,
            ..Self::new(seed)
        }
    }

    /// The machine seed (used to derive child machines deterministically).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of steps executed so far (monotone; survives metric resets).
    pub fn step_counter(&self) -> u64 {
        self.step_counter
    }

    /// Zero the metrics (the step counter keeps advancing so RNG streams
    /// never repeat within a run).
    pub fn reset_metrics(&mut self) {
        self.metrics = Metrics::new();
    }

    /// Deterministic host-side RNG stream tagged by `tag` (for host logic
    /// like choosing experiment seeds; not a PRAM operation).
    pub fn host_rng(&self, tag: u64) -> SplitMix64 {
        SplitMix64::new(mix64(self.seed ^ mix64(tag ^ 0xD1B5_4A32_D192_ED03)))
    }

    /// Parallel composition: run `run` on one child machine per item, each
    /// on its own processor group, and fold the children into this
    /// machine — time = max, work = sum, peaks = sum. `tag` derives each
    /// child's seed from its item, exactly as [`Machine::sub`]'s tag does
    /// (equal tags give equal child seeds).
    ///
    /// The children are built up front in item order and run at the same
    /// time on the [`crate::pool`], one chunk per item, within this
    /// machine's lane cap ([`Tuning::num_threads`]; `Some(1)` runs them
    /// inline, in item order). A child's own pooled steps find the pool
    /// busy and run inline, so nesting cannot deadlock.
    ///
    /// The fold is in item order whatever order the children ran in: it
    /// absorbs every child up to and including the first `Err` or panic
    /// in *item* order. Later children may have run, but their metrics
    /// and results are dropped (items past a known failure are skipped),
    /// so the counters equal those of [`Machine::fork_join_seq`], which
    /// runs nothing after the first failure. Results come back in item
    /// order. Each child runs under its own `catch_unwind`, and a caught
    /// panic is re-raised with its own payload after the fold — so a
    /// deadline that expires inside a child still unwinds as a typed
    /// [`crate::cancel::CancelUnwind`]. Memory images, [`Metrics`] and
    /// analyzer reports are therefore bit-identical at every lane count;
    /// only the host-time counters differ, and the fork adds its wall
    /// time to them, not the children's summed time.
    pub fn fork_join<I, T, E>(
        &mut self,
        items: impl IntoIterator<Item = I>,
        tag: impl Fn(&I) -> u64,
        run: impl Fn(&mut Machine, I) -> Result<T, E> + Sync,
    ) -> Result<Vec<T>, E>
    where
        I: Send,
        T: Send,
        E: Send,
    {
        let t0 = Instant::now();
        let todo: Vec<Mutex<Option<(Machine, I)>>> = items
            .into_iter()
            .map(|item| Mutex::new(Some((self.child(tag(&item)), item))))
            .collect();
        let done: Vec<Mutex<Option<Joined<T, E>>>> =
            todo.iter().map(|_| Mutex::new(None)).collect();
        // Lowest failed item so far: only a hint to skip items the fold
        // will drop. Children and results travel through the slot mutexes
        // and the pool's join, so `Relaxed` publishes nothing else.
        let first_failure = AtomicUsize::new(usize::MAX);
        let lanes = pool::global().run_bounded(self.max_lanes(), todo.len(), &|k| {
            if k > first_failure.load(Ordering::Relaxed) {
                return;
            }
            let Some((mut child, item)) = lock(&todo[k]).take() else {
                return;
            };
            let joined = Joined::run(&mut child, |c| run(c, item));
            if joined.failed() {
                first_failure.fetch_min(k, Ordering::Relaxed);
            }
            *lock(&done[k]) = Some(joined);
        });
        self.metrics.record_threads(lanes);
        let done = done
            .into_iter()
            .map(|d| d.into_inner().unwrap_or_else(PoisonError::into_inner));
        self.fold_children(done, t0)
    }

    /// [`Machine::fork_join`] for children that borrow shared state
    /// mutably (typically the parent's [`Shm`]): they run one after
    /// another in item order, and nothing runs after the first `Err` or
    /// panic. The fold is the same item-order fold, so both entry points
    /// charge identical counters for the same children.
    pub fn fork_join_seq<I, T, E>(
        &mut self,
        items: impl IntoIterator<Item = I>,
        tag: impl Fn(&I) -> u64,
        mut run: impl FnMut(&mut Machine, I) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let t0 = Instant::now();
        let mut done = Vec::new();
        for item in items {
            let joined = Joined::run(&mut self.child(tag(&item)), |c| run(c, item));
            let failed = joined.failed();
            done.push(Some(joined));
            if failed {
                break;
            }
        }
        self.fold_children(done, t0)
    }

    /// The one fork fold: absorb the children in item order up to and
    /// including the first failure ([`Metrics::absorb_parallel`], with the
    /// fork's wall time since `t0`), then return the results, the first
    /// `Err`, or re-raise the first panic with its own payload.
    fn fold_children<T, E>(
        &mut self,
        done: impl IntoIterator<Item = Option<Joined<T, E>>>,
        t0: Instant,
    ) -> Result<Vec<T>, E> {
        let (mut metrics, mut out) = (Vec::new(), Vec::new());
        let (mut err, mut panic) = (None, None);
        // A missing child was skipped after an earlier failure, which
        // ends the fold first.
        for joined in done.into_iter().map_while(|d| d) {
            metrics.push(joined.metrics);
            match joined.out {
                Ok(Ok(v)) => out.push(v),
                Ok(Err(e)) => {
                    err = Some(e);
                    break;
                }
                Err(payload) => {
                    panic = Some(payload);
                    break;
                }
            }
        }
        self.metrics
            .absorb_parallel(&metrics, t0.elapsed().as_nanos() as u64);
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        err.map_or(Ok(out), Err)
    }

    /// Sequential composition: run `run` on one child machine seeded by
    /// `tag` and fold its costs into this machine ([`Metrics::absorb`]:
    /// time and work add) whatever it returns.
    pub fn sub<T>(&mut self, tag: u64, run: impl FnOnce(&mut Machine) -> T) -> T {
        let mut child = self.child(tag);
        let out = run(&mut child);
        self.metrics.absorb(&child.metrics);
        out
    }

    /// A child machine for a subcomputation: derived seed, fresh metrics,
    /// the parent's fault plan, analysis mode and cancel token. Outside
    /// this crate children come only from [`Machine::fork_join`],
    /// [`Machine::fork_join_seq`] and [`Machine::sub`], which also fold the
    /// child's costs back.
    pub(crate) fn child(&self, tag: u64) -> Machine {
        let mut metrics = Metrics::new();
        if self.analysis.is_some() {
            metrics.analysis = Some(Box::default());
        }
        let seed = mix64(self.seed ^ mix64(tag.wrapping_mul(0xDEAD_BEEF_1234_5677)));
        Machine {
            metrics,
            policy: self.policy,
            tuning: self.tuning,
            seed,
            step_counter: 0,
            arena: WriteArena::default(),
            analysis: self.analysis.as_ref().map(|a| Box::new(a.child())),
            // Children inherit the fault plan (so injection reaches
            // subcomputations) with a schedule derived from their own seed
            // and a fresh budget latch.
            faults: self.faults.as_ref().map(|f| Box::new(f.child(seed))),
            // Children share the parent's cancel token, so a deadline
            // covers the whole machine tree.
            cancel: self.cancel.clone(),
        }
    }

    /// Install a [`CancelToken`]: every subsequent step polls it on entry
    /// (and chunk loops — sequential or pool-parallel — poll it at every
    /// chunk boundary), aborting
    /// with a typed [`crate::cancel::CancelUnwind`] once the token is
    /// cancelled or past its deadline. Children created after this call
    /// share the token. Replaces any previously installed token.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Remove any installed cancel token; subsequent behaviour is identical
    /// to a machine that never had one.
    pub fn clear_cancel_token(&mut self) {
        self.cancel = None;
    }

    /// The installed cancel token, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Poll the installed cancel token (no-op without one), unwinding with
    /// a typed [`crate::cancel::CancelUnwind`] on expiry. Crate-internal:
    /// called at step entry ([`Machine::step_map_with_policy`]).
    #[inline]
    pub(crate) fn poll_cancel(&self) {
        if let Some(tok) = &self.cancel {
            if let Err(cause) = tok.check() {
                crate::cancel::unwind(cause);
            }
        }
    }

    /// Install a fault-injection plan ([`crate::faults`]): subsequent steps
    /// are perturbed per the plan, deterministically in (machine seed,
    /// [`FaultPlan::salt`]). Replaces any previously installed plan. Child
    /// machines created after this call inherit the plan.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(Box::new(FaultState::new(plan, self.seed)));
    }

    /// Remove any installed fault plan; subsequent behaviour is
    /// byte-identical to a machine that never had one.
    pub fn clear_faults(&mut self) {
        self.faults = None;
    }

    /// True when a fault plan is installed.
    pub fn faults_installed(&self) -> bool {
        self.faults.is_some()
    }

    /// The adversarial-write fault seed, when that fault is active
    /// (crate-internal: threaded into commit resolution and the analyzer's
    /// winner replay).
    #[inline]
    pub(crate) fn adversary_seed(&self) -> Option<u64> {
        self.faults
            .as_deref()
            .and_then(|f| f.plan.adversarial_writes.then_some(f.fault_seed))
    }

    /// The installed noisy-predicate plan plus the seed its lie schedule
    /// derives from, when predicate noise is active (a non-empty
    /// [`crate::faults::NoisePlan`]). Noise-aware entry points build their
    /// predicate noise context from this pair; the seed mixes the machine
    /// seed, the plan salt, and the noise domain constant, so the schedule
    /// reseeds with the machine exactly like every other fault family and
    /// child machines ([`Machine::fork_join`], [`Machine::sub`]) draw
    /// decorrelated schedules.
    #[inline]
    pub fn noise_spec(&self) -> Option<(crate::faults::NoisePlan, u64)> {
        let f = self.faults.as_deref()?;
        let n = f.plan.noise?;
        (!n.is_empty()).then(|| (n, f.noise_seed()))
    }

    /// Record an analytic cost (see [`Metrics`] docs for the contract).
    pub fn charge(&mut self, steps: u64, work: u64) {
        self.metrics.record_charge(steps, work);
    }

    /// Fold `shm`'s live-cell high-water mark into
    /// [`Metrics::peak_live_cells`]. Called as every non-empty step closes,
    /// so a machine that stepped against a memory has seen its peak;
    /// idempotent (max-fold), so explicit calls — e.g. by a bounded-
    /// workspace wrapper after host-side allocations past the last step —
    /// are always safe.
    #[inline]
    pub fn note_workspace(&mut self, shm: &Shm) {
        self.metrics.peak_live_cells = self.metrics.peak_live_cells.max(shm.peak_live_cells());
    }

    /// The lane cap of this machine's parallel phases
    /// ([`Tuning::num_threads`]; `usize::MAX` when uncapped).
    #[inline]
    pub(crate) fn max_lanes(&self) -> usize {
        self.tuning.num_threads.unwrap_or(usize::MAX).max(1)
    }

    /// Execute one synchronous step over `pids` with the machine policy.
    pub fn step<'a, P, F>(&mut self, shm: &mut Shm, pids: P, f: F)
    where
        P: Into<Pids<'a>>,
        F: Fn(&mut Ctx) + Sync,
    {
        let policy = self.policy;
        self.step_with_policy(shm, pids, policy, f);
    }

    /// Execute one synchronous step with an explicit write rule.
    pub fn step_with_policy<'a, P, F>(&mut self, shm: &mut Shm, pids: P, policy: WritePolicy, f: F)
    where
        P: Into<Pids<'a>>,
        F: Fn(&mut Ctx) + Sync,
    {
        let _ignored: Vec<()> = self.step_map_with_policy(shm, pids, policy, |ctx| f(ctx));
    }

    /// Execute one step, returning each processor's private result in the
    /// order of the pid set. (Private results model processor-local
    /// registers; they are invisible to other processors until a later
    /// step's shared write, so this does not weaken the model.)
    pub fn step_map<'a, P, R, F>(&mut self, shm: &mut Shm, pids: P, f: F) -> Vec<R>
    where
        P: Into<Pids<'a>>,
        R: Send,
        F: Fn(&mut Ctx) -> R + Sync,
    {
        let policy = self.policy;
        self.step_map_with_policy(shm, pids, policy, f)
    }

    /// [`Machine::step_map`] with an explicit write rule: the one step
    /// function every simulated step runs through.
    pub fn step_map_with_policy<'a, P, R, F>(
        &mut self,
        shm: &mut Shm,
        pids: P,
        policy: WritePolicy,
        f: F,
    ) -> Vec<R>
    where
        P: Into<Pids<'a>>,
        R: Send,
        F: Fn(&mut Ctx) -> R + Sync,
    {
        let pids = pids.into();
        let count = pids.count();
        // Cancellation poll at the step boundary, *before* the step is
        // recorded: a machine past its deadline executes zero further
        // steps, so `metrics.steps` counts completed steps exactly.
        self.poll_cancel();
        let step_no = self.step_counter;
        self.step_counter += 1;
        self.metrics.record_step(count as u64);
        // Fault plane: budget meters tick on every executed step (including
        // empty ones) and trip at most once per machine. Execution is never
        // cut short — the supervisor interprets the tripped latch.
        if let Some(fs) = self.faults.as_deref_mut() {
            if !fs.budget_tripped {
                if let Some(b) = fs.plan.budget {
                    if self.metrics.steps > b.max_steps || self.metrics.work > b.max_work {
                        fs.budget_tripped = true;
                        self.metrics.faults.budget_exhaustions += 1;
                    }
                }
            }
        }
        // An empty pid set costs a step and ends there.
        if count == 0 {
            return Vec::new();
        }
        // The pooled write arena and analyzer state leave the machine for
        // the step, prepared for its chunks, and go back when it closes or
        // unwinds.
        let nchunks = count.div_ceil(CHUNK);
        let mut arena = std::mem::take(&mut self.arena);
        arena.prepare(nchunks);
        let mut analysis = self.analysis.take();
        if let Some(an) = &mut analysis {
            an.prepare(nchunks);
        }
        let t_start = Instant::now();
        // Per-pid fault decisions for this step, if any are live (pure
        // hashes of (fault seed, step, pid): identical across chunking and
        // thread count).
        let step_faults: Option<StepFaults> = self.faults.as_deref().and_then(|fs| {
            let sf = StepFaults::for_step(fs, step_no);
            sf.any_per_pid().then_some(sf)
        });

        let seed = self.seed;
        let shm_ref: &Shm = shm;
        let pids_ref = &pids;
        let bufs = &arena.chunk_bufs[..nchunks];
        let trace_bufs = analysis.as_deref().map(|a| &a.read_bufs[..nchunks]);
        // The analyzer reads the raw log, so nothing folds while it runs.
        let fold = trace_bufs.is_none().then_some(policy);
        // Per chunk: the processors' results and the writes folded.
        let outs: Vec<ChunkCell<(Vec<R>, u64)>> = (0..nchunks)
            .map(|_| ChunkCell::new((Vec::new(), 0)))
            .collect();

        // One compute chunk: run processors `c*CHUNK ..` against the
        // snapshot, appending writes to the chunk's pooled buffer.
        let run_chunk = |c: usize| {
            let lo = c * CHUNK;
            let hi = ((c + 1) * CHUNK).min(count);
            // SAFETY: chunk c is executed exactly once; cells c are ours.
            let writes = unsafe { bufs[c].get_mut_unchecked() };
            // SAFETY: likewise, result slot c belongs to chunk c alone.
            let (results, folded) = unsafe { outs[c].get_mut_unchecked() };
            // SAFETY: same chunk-exclusive discipline for the read trace.
            let trace = trace_bufs.map(|t| unsafe { &*t[c].0.get() });
            results.reserve(hi - lo);
            let mut ctx = Ctx {
                pid: 0,
                rank: 0,
                coord: [0; 3],
                grid: matches!(pids_ref, Pids::Grid(_)),
                shm: shm_ref,
                seed,
                step_no,
                rng: None,
                writes,
                wseq: 0,
                trace,
                bias: None,
                dropped: false,
                fold,
                folded: 0,
            };
            // A grid chunk divides out its first coordinates once, then
            // advances them as an odometer (innermost fastest).
            let [_, gb, gc] = match pids_ref {
                Pids::Grid(dims) => *dims,
                _ => [1, 1, 1],
            };
            ctx.coord = [lo / (gb * gc), lo / gc % gb, lo % gc];
            for i in lo..hi {
                let pid = pids_ref.get(i);
                (ctx.bias, ctx.dropped) = match &step_faults {
                    Some(sf) => (
                        sf.bias_for(step_no, pid as u64),
                        sf.dropped(step_no, pid as u64),
                    ),
                    None => (None, false),
                };
                ctx.pid = pid;
                ctx.rank = i;
                ctx.rng = None;
                ctx.wseq = 0;
                results.push(f(&mut ctx));
                if ctx.grid {
                    let [x, y, z] = &mut ctx.coord;
                    *z += 1;
                    if *z == gc {
                        *z = 0;
                        *y += 1;
                        if *y == gb {
                            *y = 0;
                            *x += 1;
                        }
                    }
                }
            }
            *folded = ctx.folded;
        };
        // Run the chunks over the pool (lane cap `Tuning::num_threads`)
        // once the step has `Tuning::par_threshold` processors, otherwise
        // on the calling thread. Both ways poll the cancel token at every
        // chunk entry; once a poll observes expiry the remaining chunks are
        // skipped (chunks already claimed run to completion, so a pooled
        // wave drains within one chunk per lane), and the step unwinds
        // only after the join, once no lane still references its state.
        let expired = OnceLock::new();
        let cancel = self.cancel.as_ref();
        let guarded = |c: usize| {
            if expired.get().is_some() {
                return;
            }
            if let Some(Err(cause)) = cancel.map(CancelToken::check) {
                let _ = expired.set(cause);
                return;
            }
            run_chunk(c);
        };
        let lanes = if count >= self.tuning.par_threshold {
            pool::global().run_bounded(self.max_lanes(), nchunks, &guarded)
        } else {
            (0..nchunks).for_each(guarded);
            1
        };
        self.metrics.record_threads(lanes);
        if let Some(cause) = expired.into_inner() {
            // The step was already recorded; its buffered log is dropped
            // whole, never partially committed. The pooled state goes back
            // so the machine stays reusable.
            self.arena = arena;
            self.analysis = analysis;
            crate::cancel::unwind(cause);
        }

        let mut results: Vec<R> = Vec::with_capacity(count);
        let mut folded = 0;
        for out in outs {
            let (chunk_results, chunk_folded) = out.into_inner();
            results.extend(chunk_results);
            folded += chunk_folded;
        }

        // Count this step's per-pid fault events (host-side recount of the
        // same pure hashes the chunks used, so no shared mutation races).
        if let Some(sf) = &step_faults {
            let (mut biased, mut dropped) = (0u64, 0u64);
            for i in 0..count {
                let pid = pids.get(i) as u64;
                biased += sf.bias_for(step_no, pid).is_some() as u64;
                dropped += sf.dropped(step_no, pid) as u64;
            }
            self.metrics.faults.biased_streams += biased;
            self.metrics.faults.dropped_processors += dropped;
        }

        // Close the step: commit the buffered log, then charge the step's
        // host time, analyzer classification, cell corruption and
        // workspace peak, and put the pooled state back.
        let t_computed = Instant::now();
        self.commit(shm, policy, step_no, &mut arena, nchunks, folded);
        let commit_ns = t_computed.elapsed().as_nanos() as u64;
        let compute_ns = t_computed.duration_since(t_start).as_nanos() as u64;
        self.metrics.record_host_ns(compute_ns, commit_ns);
        if let Some(an) = &mut analysis {
            let adversary = self.adversary_seed();
            let report = self.metrics.analysis.get_or_insert_with(Box::default);
            crate::analyze::finish_step(
                an,
                report,
                shm,
                self.seed,
                step_no,
                policy,
                nchunks,
                &mut arena.chunk_bufs[..nchunks],
                adversary,
            );
        }
        // Fault plane: transient cell corruption, applied *after* the
        // analyzer observed the honestly committed step so the corruption
        // reads as what it models — memory decay between steps, not a
        // different write resolution.
        if let Some(fs) = self.faults.as_deref() {
            if let Some(h) = crate::faults::corruption_draw(fs, step_no) {
                if shm.corrupt_cell(h).is_some() {
                    self.metrics.faults.corrupted_cells += 1;
                }
            }
        }
        self.note_workspace(shm);
        self.arena = arena;
        self.analysis = analysis;
        results
    }

    /// Resolve and commit the buffered writes of one step: the log's
    /// entries plus `folded` writes folded into them.
    pub(crate) fn commit(
        &mut self,
        shm: &mut Shm,
        policy: WritePolicy,
        step_no: u64,
        arena: &mut WriteArena,
        nchunks: usize,
        folded: u64,
    ) {
        let bufs = &mut arena.chunk_bufs[..nchunks];
        let total: usize = bufs.iter_mut().map(|b| b.0.get_mut().len()).sum();
        if total == 0 {
            return;
        }
        self.metrics.writes_buffered += total as u64 + folded;

        let max_lanes = self.max_lanes();
        let parallel_commit = total >= self.tuning.par_threshold.saturating_mul(2)
            && max_lanes > 1
            && pool::num_threads() > 1;
        // Lanes used for commit partitioning (run boundaries, sort segments):
        // partition-independent results, so any cap yields identical memory.
        let lanes = max_lanes.min(pool::num_threads()).max(1);

        // Fast path: if the concatenated log is strictly increasing by cell
        // key, every cell receives exactly one entry — commit it verbatim,
        // counting each folded entry's cell as one conflict. (Strict
        // monotonicity is a pure function of the log, so the fast/slow
        // decision is identical across execution modes.)
        let monotone = if self.tuning.disable_fast_path {
            None
        } else {
            monotone_log_folds(bufs)
        };
        if let Some(folded_cells) = monotone {
            let writer = ShmWriter::new(shm);
            if parallel_commit {
                let bufs_ref = &bufs[..];
                let used = pool::global().run_bounded(max_lanes, nchunks, &|c| {
                    // SAFETY: strict monotonicity ⇒ all cells distinct, so
                    // chunks write disjoint cells; chunk c reads buffer c only.
                    let buf = unsafe { &*bufs_ref[c].0.get() };
                    for e in buf {
                        // SAFETY: `e` was bounds-checked when the step
                        // buffered it, and no other chunk holds its cell.
                        unsafe { writer.commit(e.array(), e.idx(), e.val) };
                    }
                });
                self.metrics.record_threads(used);
            } else {
                for buf in bufs.iter_mut() {
                    for e in buf.0.get_mut().iter() {
                        // SAFETY: single-threaded here; cells are distinct.
                        unsafe { writer.commit(e.array(), e.idx(), e.val) };
                    }
                }
            }
            self.metrics.writes_committed += total as u64;
            self.metrics.write_conflicts += folded_cells;
            self.metrics.fastpath_steps += 1;
            return;
        }

        // Slow path: gather flat, sort by packed cell key, resolve runs.
        arena.flat.clear();
        arena.flat.reserve(total);
        for buf in bufs.iter_mut() {
            arena.flat.extend_from_slice(buf.0.get_mut());
        }

        if parallel_commit {
            let used = par_sort(&mut arena.flat, &mut arena.scratch, lanes);
            self.metrics.record_threads(used);
        } else {
            arena.flat.sort_unstable_by_key(|e| e.sort_key());
        }

        let seed = self.seed;
        let adversary = self.adversary_seed();
        let (committed, conflicts, adversarial) = if parallel_commit {
            let (tally, used) =
                resolve_runs_parallel(shm, &arena.flat, policy, seed, step_no, adversary, lanes);
            self.metrics.record_threads(used);
            tally
        } else {
            let writer = ShmWriter::new(shm);
            // SAFETY: single-threaded resolution; runs target distinct cells.
            unsafe { resolve_runs(&writer, &arena.flat, policy, seed, step_no, adversary) }
        };
        self.metrics.writes_committed += committed;
        self.metrics.write_conflicts += conflicts;
        self.metrics.faults.adversarial_resolutions += adversarial;
    }
}

/// The number of [`FOLDED`] entries, if every buffer is strictly
/// increasing by cell key and buffer boundaries preserve the order — i.e.
/// the whole log is a strictly increasing sequence of distinct cells.
fn monotone_log_folds(bufs: &mut [ChunkCell<Vec<WriteEntry>>]) -> Option<u64> {
    let mut prev: Option<u64> = None;
    let mut folds = 0;
    for buf in bufs.iter_mut() {
        for e in buf.0.get_mut().iter() {
            if prev.is_some_and(|p| e.key <= p) {
                return None;
            }
            prev = Some(e.key);
            folds += e.pidseq & FOLDED;
        }
    }
    Some(folds)
}

/// Raw shared-memory committer used where disjointness of the written cells
/// is guaranteed by construction (fast path, boundary-aligned run ranges).
/// Borrows [`Shm::raw_parts`]'s incrementally-maintained cache, so
/// constructing one is O(1) in the steady state instead of O(#arrays ever
/// allocated).
struct ShmWriter<'a> {
    arrays: &'a [*mut Word],
}

// SAFETY: every use site guarantees the set of (array, idx) cells written
// through a given `&ShmWriter` from different threads is disjoint.
unsafe impl Sync for ShmWriter<'_> {}

impl<'a> ShmWriter<'a> {
    fn new(shm: &'a mut Shm) -> Self {
        Self {
            arrays: shm.raw_parts(),
        }
    }

    /// Commit one resolved value.
    ///
    /// # Safety
    /// `(a, idx)` must be in bounds and not concurrently written by any
    /// other thread.
    #[inline]
    unsafe fn commit(&self, a: u32, idx: u32, v: Word) {
        // No bounds check here: `Ctx::write` checked every log entry with
        // `Shm::check_access` when it was buffered.
        let base = self.arrays[a as usize];
        // SAFETY: bounds and exclusivity forwarded from this function's
        // contract; `base` points at the live array `a`.
        unsafe { *base.add(idx as usize) = v };
    }
}

/// The per-cell tiebreak hash (identical to the original implementation, so
/// `Arbitrary` winners replay exactly across simulator versions). Crate
/// visibility: the analyzer replays it with salted seeds to detect
/// seed-dependent races.
#[inline]
pub(crate) fn cell_tiebreak(seed: u64, step_no: u64, key: u64) -> u64 {
    mix64(seed ^ mix64(step_no ^ key.wrapping_mul(0x9E3779B97F4A7C15)))
}

/// Resolve the sorted log's runs and commit winners through `writer`.
/// Returns `(cells_committed, conflicted_cells, adversarial_cells)`.
///
/// `adversary` is the fault seed of [`crate::faults::FaultPlan::adversarial_writes`]
/// when that fault is active: conflicted `Arbitrary` cells then commit the
/// worst-case extremal contender instead of the seeded tiebreak winner.
///
/// # Safety
/// The caller must guarantee no other thread writes the cells covered by
/// `flat` through the same `ShmWriter` concurrently.
unsafe fn resolve_runs(
    writer: &ShmWriter,
    flat: &[WriteEntry],
    policy: WritePolicy,
    seed: u64,
    step_no: u64,
    adversary: Option<u64>,
) -> (u64, u64, u64) {
    let mut committed = 0u64;
    let mut conflicts = 0u64;
    let mut adversarial = 0u64;
    let mut i = 0;
    let n = flat.len();
    while i < n {
        let e = flat[i];
        // singleton run: direct commit, no policy, no tiebreak hash (a
        // folded entry is already resolved, and its cell is conflicted)
        if i + 1 == n || flat[i + 1].key != e.key {
            // SAFETY: exclusivity forwarded from this function's contract;
            // entries come from the machine's own in-bounds write log.
            unsafe { writer.commit(e.array(), e.idx(), e.val) };
            committed += 1;
            conflicts += e.pidseq & FOLDED;
            i += 1;
            continue;
        }
        let start = i;
        i += 2;
        while i < n && flat[i].key == e.key {
            i += 1;
        }
        let run = &flat[start..i];
        let v = match (adversary, policy) {
            (Some(fseed), WritePolicy::Arbitrary) => {
                adversarial += 1;
                crate::faults::adversarial_pick(fseed, step_no, e.key, run.iter().map(|w| w.val))
            }
            _ => policy.resolve_run(run, cell_tiebreak(seed, step_no, e.key)),
        };
        // SAFETY: as above — one committer per run, in-bounds entries.
        unsafe { writer.commit(e.array(), e.idx(), v) };
        committed += 1;
        conflicts += 1;
    }
    (committed, conflicts, adversarial)
}

/// Parallel run resolution: partition the sorted log at run boundaries and
/// resolve each range on the pool (ranges cover disjoint cells, so commits
/// through the shared `ShmWriter` never race). Returns the tally and the
/// lanes the ranges ran on.
#[allow(clippy::too_many_arguments)]
fn resolve_runs_parallel(
    shm: &mut Shm,
    flat: &[WriteEntry],
    policy: WritePolicy,
    seed: u64,
    step_no: u64,
    adversary: Option<u64>,
    lanes: usize,
) -> ((u64, u64, u64), usize) {
    let n = flat.len();
    let mut bounds: Vec<usize> = Vec::with_capacity(lanes + 1);
    bounds.push(0);
    for l in 1..lanes {
        let mut b = l * n / lanes;
        // advance to the next run boundary so no run straddles two ranges
        while b < n && b > 0 && flat[b].key == flat[b - 1].key {
            b += 1;
        }
        if bounds.last().is_some_and(|&last| b > last) && b < n {
            bounds.push(b);
        }
    }
    bounds.push(n);

    let nranges = bounds.len() - 1;
    let writer = ShmWriter::new(shm);
    let tallies: Vec<ChunkCell<(u64, u64, u64)>> =
        (0..nranges).map(|_| ChunkCell::new((0, 0, 0))).collect();
    let bounds_ref = &bounds;
    let tallies_ref = &tallies;
    let used = pool::global().run_bounded(lanes, nranges, &|r| {
        let range = &flat[bounds_ref[r]..bounds_ref[r + 1]];
        // SAFETY: ranges are run-aligned ⇒ cell-disjoint; tally r is ours.
        let out = unsafe { resolve_runs(&writer, range, policy, seed, step_no, adversary) };
        // SAFETY: range r is dispatched exactly once, so tally r has one
        // writer.
        unsafe { *tallies_ref[r].get_mut_unchecked() = out };
    });
    let mut committed = 0;
    let mut conflicts = 0;
    let mut adversarial = 0;
    for t in tallies {
        let (c, k, a) = t.into_inner();
        committed += c;
        conflicts += k;
        adversarial += a;
    }
    ((committed, conflicts, adversarial), used)
}

/// Parallel merge sort by the unique packed key: segments are sorted on the
/// pool, then merged pairwise in parallel rounds, ping-ponging between the
/// log and the pooled scratch buffer. Returns the most lanes any round ran
/// on.
fn par_sort(flat: &mut Vec<WriteEntry>, scratch: &mut Vec<WriteEntry>, lanes: usize) -> usize {
    let n = flat.len();
    if lanes == 1 || n < 2 * CHUNK {
        flat.sort_unstable_by_key(|e| e.sort_key());
        return 1;
    }
    let nseg = lanes.next_power_of_two();
    let seg = n.div_ceil(nseg);

    let flat_ptr = SendMutPtr(flat.as_mut_ptr());
    let mut used = pool::global().run_bounded(lanes, nseg, &|s| {
        let lo = (s * seg).min(n);
        let hi = ((s + 1) * seg).min(n);
        // SAFETY: segments are disjoint subslices of `flat`.
        let part = unsafe { std::slice::from_raw_parts_mut(flat_ptr.get().add(lo), hi - lo) };
        part.sort_unstable_by_key(|e| e.sort_key());
    });

    scratch.clear();
    scratch.resize(
        n,
        WriteEntry {
            key: 0,
            pidseq: 0,
            val: 0,
        },
    );

    let mut in_flat = true;
    let mut width = seg;
    while width < n {
        let (src, dst): (&[WriteEntry], &mut [WriteEntry]) = if in_flat {
            (&flat[..], &mut scratch[..])
        } else {
            (&scratch[..], &mut flat[..])
        };
        let npairs = n.div_ceil(2 * width);
        let dst_ptr = SendMutPtr(dst.as_mut_ptr());
        used = used.max(pool::global().run_bounded(lanes, npairs, &|p| {
            let lo = p * 2 * width;
            let mid = (lo + width).min(n);
            let hi = (lo + 2 * width).min(n);
            // SAFETY: pair p owns dst[lo..hi]; pairs are disjoint.
            let out = unsafe { std::slice::from_raw_parts_mut(dst_ptr.get().add(lo), hi - lo) };
            merge_into(&src[lo..mid], &src[mid..hi], out);
        }));
        in_flat = !in_flat;
        width *= 2;
    }
    if !in_flat {
        flat.copy_from_slice(scratch);
    }
    used
}

struct SendMutPtr(*mut WriteEntry);

// SAFETY: used only under the disjoint-range discipline documented at each
// use site.
unsafe impl Sync for SendMutPtr {}

impl SendMutPtr {
    /// Accessor (rather than direct field use) so closures capture the
    /// `Sync` wrapper, not the bare pointer.
    fn get(&self) -> *mut WriteEntry {
        self.0
    }
}

/// Two-way merge of sorted `a` and `b` into `out` (`out.len() == a.len() + b.len()`).
fn merge_into(a: &[WriteEntry], b: &[WriteEntry], out: &mut [WriteEntry]) {
    assert_eq!(a.len() + b.len(), out.len(), "merge lengths disagree");
    let (mut i, mut j) = (0, 0);
    for slot in out.iter_mut() {
        let take_a = j >= b.len() || (i < a.len() && a[i].sort_key() <= b[j].sort_key());
        if take_a {
            *slot = a[i];
            i += 1;
        } else {
            *slot = b[j];
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EMPTY;
    use std::convert::Infallible;

    #[test]
    fn single_step_writes_commit() {
        let mut m = Machine::new(1);
        let mut shm = Shm::new();
        let a = shm.alloc("a", 8, 0);
        m.step(&mut shm, 0..8, |ctx| {
            let pid = ctx.pid;
            ctx.write(a, pid, pid as i64 * 2);
        });
        assert_eq!(shm.slice(a), &[0, 2, 4, 6, 8, 10, 12, 14]);
        assert_eq!(m.metrics.steps, 1);
        assert_eq!(m.metrics.work, 8);
        assert_eq!(m.metrics.peak_processors, 8);
        assert_eq!(m.metrics.writes_buffered, 8);
        assert_eq!(m.metrics.writes_committed, 8);
        assert_eq!(m.metrics.write_conflicts, 0);
        assert_eq!(
            m.metrics.fastpath_steps, 1,
            "in-order scatter must take the fast path"
        );
    }

    #[test]
    fn reads_see_pre_step_snapshot() {
        // Every processor swaps with its neighbour simultaneously: if reads
        // saw in-step writes this would not be a clean rotation.
        let mut m = Machine::new(2);
        let mut shm = Shm::new();
        let a = shm.alloc("a", 4, 0);
        for i in 0..4 {
            shm.host_set(a, i, i as i64);
        }
        m.step(&mut shm, 0..4, |ctx| {
            let n = ctx.len(a);
            let next = ctx.read(a, (ctx.pid + 1) % n);
            ctx.write(a, ctx.pid, next);
        });
        assert_eq!(shm.slice(a), &[1, 2, 3, 0]);
    }

    #[test]
    fn concurrent_write_priority_min() {
        let mut m = Machine::with_policy(3, WritePolicy::PriorityMin);
        let mut shm = Shm::new();
        let a = shm.alloc("cell", 1, EMPTY);
        m.step(&mut shm, 0..16, |ctx| {
            let pid = ctx.pid;
            ctx.write(a, 0, pid as i64);
        });
        assert_eq!(shm.get(a, 0), 0);
        assert_eq!(m.metrics.write_conflicts, 1);
        assert_eq!(m.metrics.writes_committed, 1);
        assert_eq!(m.metrics.writes_buffered, 16);
        // the 16 writes fold into one log entry, which commits directly
        assert_eq!(m.metrics.fastpath_steps, 1);
    }

    #[test]
    fn chunk_buffers_never_share_a_cache_line() {
        assert!(std::mem::align_of::<ChunkCell<Vec<WriteEntry>>>() >= 128);
        assert!(std::mem::size_of::<ChunkCell<Vec<WriteEntry>>>() >= 128);
    }

    #[test]
    fn concurrent_write_arbitrary_is_some_contender_and_replayable() {
        let run = |seed| {
            let mut m = Machine::new(seed);
            let mut shm = Shm::new();
            let a = shm.alloc("cell", 1, EMPTY);
            m.step(&mut shm, 0..16, |ctx| {
                let pid = ctx.pid;
                ctx.write(a, 0, pid as i64);
            });
            shm.get(a, 0)
        };
        let v = run(7);
        assert!((0..16).contains(&v));
        assert_eq!(v, run(7), "same seed must replay identically");
    }

    #[test]
    fn combine_sum_counts_writers() {
        let mut m = Machine::with_policy(4, WritePolicy::CombineSum);
        let mut shm = Shm::new();
        let a = shm.alloc("acc", 1, 0);
        m.step(&mut shm, 0..100, |ctx| ctx.write(a, 0, 1));
        assert_eq!(shm.get(a, 0), 100);
    }

    #[test]
    fn scattered_pid_lists() {
        let mut m = Machine::new(5);
        let mut shm = Shm::new();
        let a = shm.alloc("a", 10, 0);
        let pids = vec![1usize, 4, 9];
        m.step(&mut shm, &pids, |ctx| {
            let pid = ctx.pid;
            ctx.write(a, pid, 1);
        });
        assert_eq!(shm.slice(a), &[0, 1, 0, 0, 1, 0, 0, 0, 0, 1]);
        assert_eq!(m.metrics.work, 3);
    }

    #[test]
    fn step_map_returns_results_in_pid_order() {
        let mut m = Machine::new(6);
        let mut shm = Shm::new();
        let _a = shm.alloc("a", 1, 0);
        let out = m.step_map(&mut shm, 3..7, |ctx| ctx.pid * 10);
        assert_eq!(out, vec![30, 40, 50, 60]);
    }

    #[test]
    fn per_pid_rng_differs_across_steps() {
        let mut m = Machine::new(8);
        let mut shm = Shm::new();
        let _a = shm.alloc("a", 1, 0);
        let r1 = m.step_map(&mut shm, 0..4, |ctx| ctx.rng().next_u64());
        let r2 = m.step_map(&mut shm, 0..4, |ctx| ctx.rng().next_u64());
        assert_ne!(r1, r2);
        // distinct pids in the same step also differ
        assert!(r1.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn zero_processor_step_costs_a_step_but_no_work() {
        let mut m = Machine::new(9);
        let mut shm = Shm::new();
        let _a = shm.alloc("a", 1, 0);
        m.step(&mut shm, 0..0, |_| {});
        assert_eq!(m.metrics.steps, 1);
        assert_eq!(m.metrics.work, 0);
    }

    #[test]
    fn large_step_parallel_path_matches_semantics() {
        let n = (1 << 15) + 3; // over the compute fan-out threshold
        let mut m = Machine::new(10);
        let mut shm = Shm::new();
        let a = shm.alloc("a", n, 0);
        m.step(&mut shm, 0..n, |ctx| {
            let pid = ctx.pid;
            ctx.write(a, pid, pid as i64);
        });
        assert!(shm.slice(a).iter().enumerate().all(|(i, &v)| v == i as i64));
    }

    #[test]
    fn slice_reads_match_get() {
        let mut m = Machine::new(11);
        let mut shm = Shm::new();
        let a = shm.alloc("a", 32, 0);
        for i in 0..32 {
            shm.host_set(a, i, (i * i) as i64);
        }
        let b = shm.alloc("b", 32, 0);
        m.step(&mut shm, 0..32, |ctx| {
            let row = ctx.slice(a);
            ctx.write(b, ctx.pid, row[ctx.pid] + row[0]);
        });
        assert!(shm
            .slice(b)
            .iter()
            .enumerate()
            .all(|(i, &v)| v == (i * i) as i64));
    }

    #[test]
    fn reversed_scatter_takes_slow_path_but_commits_correctly() {
        let mut m = Machine::new(12);
        let mut shm = Shm::new();
        let a = shm.alloc("a", 64, 0);
        m.step(&mut shm, 0..64, |ctx| {
            let pid = ctx.pid;
            ctx.write(a, 63 - pid, pid as i64);
        });
        assert!(shm
            .slice(a)
            .iter()
            .enumerate()
            .all(|(i, &v)| v == (63 - i) as i64));
        assert_eq!(m.metrics.fastpath_steps, 0);
        assert_eq!(m.metrics.write_conflicts, 0);
        assert_eq!(m.metrics.writes_committed, 64);
    }

    #[test]
    fn all_execution_modes_agree() {
        // same program under every tuning mode: identical memory + accounting
        let run = |tuning: Tuning| {
            let mut m = Machine::new(77);
            m.tuning = tuning;
            let mut shm = Shm::new();
            let a = shm.alloc("a", 1000, 0);
            let b = shm.alloc("b", 16, 0);
            for round in 0..4u64 {
                m.step_with_policy(&mut shm, 0..1000, WritePolicy::CombineSum, move |ctx| {
                    let pid = ctx.pid;
                    ctx.write(a, pid, (pid as i64) ^ round as i64);
                    ctx.write(b, pid % 16, 1);
                });
                m.step(&mut shm, 0..1000, |ctx| {
                    let v = ctx.read(a, ctx.pid);
                    ctx.write(a, ctx.pid, v + 1);
                });
            }
            (
                shm.slice(a).to_vec(),
                shm.slice(b).to_vec(),
                m.metrics.writes_buffered,
                m.metrics.writes_committed,
                m.metrics.write_conflicts,
            )
        };
        let base = run(Tuning {
            num_threads: Some(1),
            ..Tuning::default()
        });
        let par = run(Tuning {
            par_threshold: 0,
            ..Tuning::default()
        });
        let noslow = run(Tuning {
            disable_fast_path: true,
            ..Tuning::default()
        });
        let par_noslow = run(Tuning {
            par_threshold: 0,
            disable_fast_path: true,
            ..Tuning::default()
        });
        assert_eq!(base, par);
        assert_eq!(base, noslow);
        assert_eq!(base, par_noslow);
    }

    #[test]
    fn one_chunk_step_records_the_one_lane_it_ran_on() {
        // The pool runs a one-chunk job inline, so a forced fan-out of one
        // chunk — compute, kernel or commit — uses one lane.
        let mut m = Machine::new(1);
        m.tuning.par_threshold = 0;
        let mut shm = Shm::new();
        let a = shm.alloc("a", 64, 0);
        m.step(&mut shm, 0..64, |ctx| ctx.write(a, ctx.pid, 1));
        m.kernel_map(&mut shm, 0..64, a, |_, pid| pid as i64);
        assert_eq!(m.metrics.threads, 1);
    }

    #[test]
    fn steps_kernels_and_commits_fan_out_at_the_one_threshold() {
        // Two chunks at the threshold, so a fan-out has two lanes to use.
        let thr = 2 * CHUNK;
        let want = pool::num_threads().min(2) as u64;
        // Lanes one step shape ran on, from a fresh machine.
        let lanes = |shape: &dyn Fn(&mut Machine, &mut Shm)| {
            let mut m = Machine::new(2);
            m.tuning = Tuning {
                par_threshold: thr,
                num_threads: Some(2),
                ..Tuning::default()
            };
            let mut shm = Shm::new();
            shape(&mut m, &mut shm);
            m.metrics.threads
        };
        // A pool busy with another test's job runs its caller inline, so
        // a fan-out is retried until it meets an idle pool.
        let fans_out =
            |shape: &dyn Fn(&mut Machine, &mut Shm)| (0..1000).any(|_| lanes(shape) == want);
        // `n` processors, one write each: the commit stays below 2 * thr.
        let generic = |n: usize| {
            move |m: &mut Machine, shm: &mut Shm| {
                let a = shm.alloc("a", n, 0);
                m.step(shm, 0..n, |ctx| ctx.write(a, ctx.pid, 1));
            }
        };
        let kernel = |n: usize| {
            move |m: &mut Machine, shm: &mut Shm| {
                let a = shm.alloc("a", n, 0);
                m.kernel_map(shm, 0..n, a, |_, pid| pid as i64);
            }
        };
        // `thr - 1` processors (compute below the threshold) buffering
        // `2 * (thr - 1) + extra` writes in increasing cell order.
        let commit = |extra: usize| {
            move |m: &mut Machine, shm: &mut Shm| {
                let a = shm.alloc("a", 3 * thr, 0);
                m.step(shm, 0..thr - 1, |ctx| {
                    let p = ctx.pid;
                    let k = if p < extra { 3 } else { 2 };
                    (0..k).for_each(|j| ctx.write(a, 3 * p + j, 1));
                });
            }
        };
        assert_eq!(lanes(&generic(thr - 1)), 1, "generic step below");
        assert_eq!(lanes(&kernel(thr - 1)), 1, "kernel below");
        assert_eq!(lanes(&commit(1)), 1, "commit below");
        assert!(fans_out(&generic(thr)), "generic step at the threshold");
        assert!(fans_out(&kernel(thr)), "kernel at the threshold");
        assert!(fans_out(&commit(2)), "commit at twice the threshold");
    }

    #[test]
    fn duplicate_writes_from_one_pid_resolve_deterministically() {
        for policy in POLICIES {
            let run = || {
                let mut m = Machine::with_policy(13, policy);
                let mut shm = Shm::new();
                let a = shm.alloc("a", 4, 0);
                m.step(&mut shm, 0..4, |ctx| {
                    ctx.write(a, 0, 5);
                    ctx.write(a, 0, ctx.pid as i64);
                });
                shm.slice(a).to_vec()
            };
            assert_eq!(run(), run(), "policy {policy:?} must replay");
        }
    }

    #[test]
    fn adversarial_writes_commit_extremal_contender_deterministically() {
        use crate::faults::FaultPlan;
        let run = |adversarial: bool| {
            let mut m = Machine::new(31);
            if adversarial {
                m.install_faults(FaultPlan {
                    adversarial_writes: true,
                    ..FaultPlan::default()
                });
            }
            let mut shm = Shm::new();
            let a = shm.alloc("cell", 1, EMPTY);
            m.step(&mut shm, 0..16, |ctx| {
                let pid = ctx.pid;
                ctx.write(a, 0, pid as i64);
            });
            (shm.get(a, 0), m.metrics.faults.adversarial_resolutions)
        };
        let (v, n) = run(true);
        assert!(
            v == 0 || v == 15,
            "adversary must pick an extremal, got {v}"
        );
        assert_eq!(n, 1);
        assert_eq!(run(true), (v, n), "adversary must replay identically");
        let (honest, hn) = run(false);
        assert!((0..16).contains(&honest));
        assert_eq!(hn, 0);
    }

    #[test]
    fn biased_rng_forces_coin_outcomes_per_stream() {
        use crate::faults::{FaultPlan, RngBias};
        let mut m = Machine::new(32);
        m.install_faults(FaultPlan {
            rng_bias: Some(RngBias {
                rate: 1.0,
                force: false,
            }),
            ..FaultPlan::default()
        });
        let mut shm = Shm::new();
        let _a = shm.alloc("a", 1, 0);
        let flips = m.step_map(&mut shm, 0..64, |ctx| ctx.rng().bernoulli(0.999));
        assert!(flips.iter().all(|&b| !b), "every coin must be forced false");
        assert_eq!(m.metrics.faults.biased_streams, 64);
        m.clear_faults();
        let flips = m.step_map(&mut shm, 0..64, |ctx| ctx.rng().bernoulli(0.999));
        assert!(flips.iter().filter(|&&b| b).count() > 56);
    }

    #[test]
    fn dropped_processors_writes_never_commit() {
        use crate::faults::{DropWindow, FaultPlan};
        let mut m = Machine::new(33);
        m.install_faults(FaultPlan {
            drop_window: Some(DropWindow {
                from_step: 0,
                until_step: 1,
                rate: 1.0,
            }),
            ..FaultPlan::default()
        });
        let mut shm = Shm::new();
        let a = shm.alloc("a", 8, EMPTY);
        // step 0: inside the window — all writes dropped
        m.step(&mut shm, 0..8, |ctx| ctx.write(a, ctx.pid, 1));
        assert_eq!(shm.slice(a), &[EMPTY; 8]);
        assert_eq!(m.metrics.faults.dropped_processors, 8);
        assert_eq!(m.metrics.writes_buffered, 0);
        // step 1: past the window — writes land
        m.step(&mut shm, 0..8, |ctx| ctx.write(a, ctx.pid, 1));
        assert_eq!(shm.slice(a), &[1; 8]);
        assert_eq!(m.metrics.faults.dropped_processors, 8);
    }

    #[test]
    fn corruption_flips_bits_between_steps_and_is_counted() {
        use crate::faults::FaultPlan;
        let mut m = Machine::new(34);
        m.install_faults(FaultPlan {
            corrupt_rate: 1.0,
            ..FaultPlan::default()
        });
        let mut shm = Shm::new();
        let a = shm.alloc("a", 16, 0);
        for _ in 0..5 {
            m.step(&mut shm, 0..1, |_| {});
        }
        assert_eq!(m.metrics.faults.corrupted_cells, 5);
        let ones: i64 = shm.slice(a).iter().map(|v| v.count_ones() as i64).sum();
        assert!(ones > 0, "at least one surviving flipped bit expected");
    }

    #[test]
    fn empty_plan_and_cleared_faults_are_byte_identical_to_no_faults() {
        use crate::faults::FaultPlan;
        let run = |mode: u8| {
            let mut m = Machine::new(35);
            match mode {
                1 => m.install_faults(FaultPlan::default()),
                2 => {
                    m.install_faults(FaultPlan {
                        corrupt_rate: 1.0,
                        ..FaultPlan::default()
                    });
                    m.clear_faults();
                }
                _ => {}
            }
            let mut shm = Shm::new();
            let a = shm.alloc("a", 64, 0);
            let coins = m.step_map(&mut shm, 0..64, |ctx| {
                let pid = ctx.pid;
                ctx.write(a, pid % 7, pid as i64);
                ctx.rng().bernoulli(0.5)
            });
            (shm.slice(a).to_vec(), coins, m.metrics.faults)
        };
        assert_eq!(run(0), run(1));
        assert_eq!(run(0), run(2));
        assert_eq!(run(0).2.total(), 0);
    }

    #[test]
    fn children_inherit_the_fault_plan_with_fresh_schedules() {
        use crate::faults::{FaultPlan, RngBias};
        let mut m = Machine::new(36);
        let plan = FaultPlan {
            rng_bias: Some(RngBias {
                rate: 1.0,
                force: true,
            }),
            ..FaultPlan::default()
        };
        m.install_faults(plan.clone());
        let mut child = m.child(9);
        assert!(child.faults_installed());
        let mut shm = Shm::new();
        let _a = shm.alloc("a", 1, 0);
        let flips = child.step_map(&mut shm, 0..8, |ctx| ctx.rng().bernoulli(0.0));
        assert!(flips.iter().all(|&b| b), "inherited bias must apply");
        m.metrics.absorb(&child.metrics);
        assert_eq!(m.metrics.faults.biased_streams, 8);
    }

    /// `steps` one-processor steps on `m`.
    fn spend(m: &mut Machine, shm: &mut Shm, steps: usize) {
        for _ in 0..steps {
            m.step(shm, 0..1, |_| {});
        }
    }

    #[test]
    fn sub_folds_the_child_on_every_outcome() {
        let mut shm = Shm::new();
        let mut m = Machine::new(40);
        let none: Option<u32> = m.sub(1, |c| {
            spend(c, &mut shm, 3);
            None
        });
        assert_eq!(none, None);
        assert_eq!((m.metrics.steps, m.metrics.work), (3, 3));
        let err: Result<(), &str> = m.sub(2, |c| {
            spend(c, &mut shm, 2);
            Err("failed")
        });
        assert!(err.is_err());
        assert_eq!((m.metrics.steps, m.metrics.work), (5, 5));
        assert_eq!(m.sub(3, |c| c.seed()), m.child(3).seed());
    }

    #[test]
    fn fork_join_time_is_max_and_work_is_sum() {
        let mut m = Machine::new(41);
        let Ok(out) = m.fork_join(
            [2usize, 5, 3],
            |&s| s as u64,
            |c, s| {
                spend(c, &mut Shm::new(), s);
                Ok::<_, Infallible>(s * 10)
            },
        );
        assert_eq!(out, vec![20, 50, 30]);
        assert_eq!(m.metrics.steps, 5);
        assert_eq!(m.metrics.work, 10);
        assert_eq!(m.metrics.host_steps, 10);
        // three one-processor groups run side by side
        assert_eq!(m.metrics.peak_processors, 3);
    }

    #[test]
    fn fork_join_absorbs_every_child_that_ran_exactly_once_on_early_err() {
        let mut shm = Shm::new();
        let mut m = Machine::new(42);
        let mut ran = Vec::new();
        let r = m.fork_join_seq(
            0..5usize,
            |&i| i as u64,
            |c, i| {
                ran.push(i);
                spend(c, &mut shm, i + 1);
                if i == 2 {
                    Err(i)
                } else {
                    Ok(i)
                }
            },
        );
        assert_eq!(r, Err(2));
        assert_eq!(ran, vec![0, 1, 2], "nothing runs after the first Err");
        assert_eq!(m.metrics.steps, 3);
        assert_eq!(m.metrics.work, 1 + 2 + 3);
        assert_eq!(m.metrics.host_steps, 1 + 2 + 3);
    }

    /// The simulated counters of a metrics record (host time and lanes
    /// excluded).
    fn sim_counters(m: &Metrics) -> [u64; 9] {
        [
            m.steps,
            m.work,
            m.peak_processors,
            m.peak_live_cells,
            m.host_steps,
            m.writes_buffered,
            m.writes_committed,
            m.write_conflicts,
            m.fastpath_steps,
        ]
    }

    /// A child that writes `i + 1` cells over `i + 1` steps and fails at
    /// item 1 of 4.
    fn err_at_item_1(c: &mut Machine, i: usize) -> Result<usize, usize> {
        let mut shm = Shm::new();
        let a = shm.alloc("a", 8, 0);
        for _ in 0..=i {
            c.step(&mut shm, 0..i + 1, |ctx| ctx.write(a, ctx.pid, 1));
        }
        if i == 1 {
            Err(i)
        } else {
            Ok(i)
        }
    }

    #[test]
    fn fork_join_err_in_item_1_of_4_absorbs_what_the_sequential_fold_absorbs() {
        let mut seq = Machine::new(44);
        let r = seq.fork_join_seq(0..4usize, |&i| i as u64, err_at_item_1);
        assert_eq!(r, Err(1));
        assert_eq!((seq.metrics.steps, seq.metrics.work), (2, 1 + 4));
        for lanes in [Some(1), Some(2), None] {
            let mut m = Machine::new(44);
            m.tuning.num_threads = lanes;
            let r = m.fork_join(0..4usize, |&i| i as u64, err_at_item_1);
            assert_eq!(r, Err(1), "lanes {lanes:?}");
            assert_eq!(
                sim_counters(&m.metrics),
                sim_counters(&seq.metrics),
                "lanes {lanes:?}: children after the failing item are dropped"
            );
        }
    }

    #[test]
    fn fork_join_reraises_the_first_panic_in_item_order_with_its_payload() {
        for lanes in [Some(1), Some(2), None] {
            let mut m = Machine::new(45);
            m.tuning.num_threads = lanes;
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                m.fork_join(
                    0..4usize,
                    |&i| i as u64,
                    |c, i| {
                        spend(c, &mut Shm::new(), i + 1);
                        match i {
                            1 => panic!("child one"),
                            3 => panic!("child three"),
                            _ => Ok::<_, Infallible>(i),
                        }
                    },
                )
            }));
            let payload = caught.expect_err("the fork re-raises a child panic");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"child one"));
            // items 0 and 1 are absorbed before the panic is re-raised
            assert_eq!(
                (m.metrics.steps, m.metrics.work),
                (2, 1 + 2),
                "lanes {lanes:?}"
            );
        }
    }

    #[test]
    fn fork_join_adds_at_most_its_wall_time_to_host_time() {
        // Retried until the children were dispatched to two lanes: a pool
        // busy with another test runs them inline, one after another.
        for _ in 0..1000 {
            let mut m = Machine::new(46);
            let t0 = Instant::now();
            let Ok(_) = m.fork_join(
                0..2u64,
                |&i| i,
                |c, _| {
                    let mut shm = Shm::new();
                    let a = shm.alloc("a", 4096, 0);
                    for _ in 0..20 {
                        c.step(&mut shm, 0..4096, |ctx| {
                            ctx.write(a, ctx.pid, ctx.pid as i64)
                        });
                    }
                    Ok::<_, Infallible>(())
                },
            );
            let wall = t0.elapsed().as_nanos() as u64;
            assert!(m.metrics.host_total_ns() <= wall);
            assert_eq!(m.metrics.host_steps, 40, "host steps still sum");
            if m.metrics.threads >= 2 || pool::num_threads() == 1 {
                return;
            }
        }
        panic!("the pool never ran the two children on two lanes");
    }

    #[test]
    fn a_bad_write_panics_with_the_same_message_pooled_and_inline() {
        let message = |par_threshold: usize| {
            let mut m = Machine::new(47);
            m.tuning.par_threshold = par_threshold;
            let mut shm = Shm::new();
            let a = shm.alloc("a", 3 * CHUNK, 0);
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                m.step(&mut shm, 0..3 * CHUNK, |ctx| {
                    // out of range from the second chunk on
                    ctx.write(a, ctx.pid * 2, 1);
                });
            }));
            let payload = caught.expect_err("an out-of-range write panics");
            payload.downcast_ref::<String>().cloned()
        };
        let inline = message(usize::MAX);
        assert!(
            inline
                .as_deref()
                .is_some_and(|s| s.contains("out of bounds")),
            "{inline:?}"
        );
        assert_eq!(message(0), inline);
    }

    #[test]
    fn fork_join_children_use_the_child_seeds_of_their_tags() {
        let mut m = Machine::new(43);
        let tags = [7u64, 0x5eed, 1 << 32 | 3];
        let Ok(seeds) = m.fork_join(tags, |&t| t, |c, _| Ok::<_, Infallible>(c.seed()));
        let expected: Vec<u64> = tags.iter().map(|&t| m.child(t).seed()).collect();
        assert_eq!(seeds, expected);
    }

    const POLICIES: [WritePolicy; 6] = [
        WritePolicy::Arbitrary,
        WritePolicy::PriorityMin,
        WritePolicy::CombineMin,
        WritePolicy::CombineMax,
        WritePolicy::CombineSum,
        WritePolicy::CombineOr,
    ];

    /// Length of a fold test's runs: `RUN` consecutive pid positions
    /// write one cell.
    const RUN: usize = 100;

    /// Pids `0..n` (`n` a multiple of [`RUN`]) as runs of `RUN` positions
    /// that write one cell (`pid / RUN`), with the runs and the pids
    /// inside each run shuffled.
    fn shuffled_runs(n: usize) -> Vec<usize> {
        let mut rng = SplitMix64::new(n as u64);
        let mut shuffle = |v: &mut [usize]| {
            for i in (1..v.len()).rev() {
                v.swap(i, rng.next_below(i as u64 + 1) as usize);
            }
        };
        let mut runs: Vec<usize> = (0..n / RUN).collect();
        shuffle(&mut runs);
        let mut pids = Vec::with_capacity(n);
        for r in runs {
            let start = pids.len();
            pids.extend(r * RUN..(r + 1) * RUN);
            shuffle(&mut pids[start..]);
        }
        pids
    }

    /// The fold tests' program over `pids` under `policy`: one write per
    /// processor to its run's cell, one to a cell shared by every fifth
    /// run (the sorted path), two from each processor to its run's cell.
    /// Values mix the pid with a coin, so biased streams change them.
    /// Returns each round's per-processor values, then memory.
    fn fold_program(m: &mut Machine, pids: Pids, policy: WritePolicy) -> Vec<Vec<Word>> {
        let n = pids.count();
        let mut shm = Shm::new();
        let runs = shm.alloc("runs", n / RUN, 0);
        let shared = shm.alloc("shared", 5, 0);
        let value = |ctx: &mut Ctx| {
            let coin = ctx.rng().bernoulli(0.5);
            (ctx.pid as Word).wrapping_mul(0x9E37_79B9_7F4A_7C15_u64 as Word) ^ coin as Word
        };
        let mut out = vec![];
        for round in 0..3 {
            let values = m.step_map_with_policy(&mut shm, pids.clone(), policy, |ctx| {
                let v = value(ctx);
                let cell = ctx.pid / RUN;
                match round {
                    0 => ctx.write(runs, cell, v),
                    1 => ctx.write(shared, cell % 5, v),
                    _ => {
                        ctx.write(runs, cell, v);
                        ctx.write(runs, cell, !v);
                    }
                }
                v
            });
            out.push(values);
        }
        out.extend([shm.slice(runs).to_vec(), shm.slice(shared).to_vec()]);
        out
    }

    /// Every simulated counter of a metrics record: host time, lanes and
    /// the fast-path count excluded.
    fn fold_counters(m: &Metrics) -> ([u64; 8], crate::faults::FaultCounters) {
        (
            [
                m.steps,
                m.work,
                m.peak_processors,
                m.peak_live_cells,
                m.host_steps,
                m.writes_buffered,
                m.writes_committed,
                m.write_conflicts,
            ],
            m.faults,
        )
    }

    #[test]
    fn fold_matches_the_unfolded_log_under_every_policy_pid_set_and_fault() {
        use crate::analyze::AnalyzeConfig;
        use crate::faults::{DropWindow, FaultPlan, RngBias};
        let plans = [
            FaultPlan::default(),
            FaultPlan {
                drop_window: Some(DropWindow {
                    from_step: 0,
                    until_step: u64::MAX,
                    rate: 0.3,
                }),
                ..FaultPlan::default()
            },
            FaultPlan {
                rng_bias: Some(RngBias {
                    rate: 0.5,
                    force: true,
                }),
                ..FaultPlan::default()
            },
        ];
        // 30 runs inside one chunk; 112 runs over two chunks, one of
        // them straddling the boundary at position CHUNK.
        const { assert!(30 * RUN < CHUNK && !CHUNK.is_multiple_of(RUN) && 112 * RUN < 2 * CHUNK) };
        for n in [30 * RUN, 112 * RUN] {
            let list = shuffled_runs(n);
            for pids in [Pids::Range(0, n), Pids::List(&list)] {
                for policy in POLICIES {
                    for plan in &plans {
                        let machine = |analyzed: bool, par_threshold: usize| {
                            let mut m = Machine::new(51);
                            m.tuning.par_threshold = par_threshold;
                            m.install_faults(plan.clone());
                            if analyzed {
                                m.enable_analysis(AnalyzeConfig::default());
                            }
                            m
                        };
                        let run = |mut m: Machine| {
                            let out = fold_program(&mut m, pids.clone(), policy);
                            (out, m.metrics)
                        };
                        let what = format!("n {n} {pids:?} {policy:?} {plan:?}");
                        let what = &what[..what.len().min(160)];
                        let (reference, unfolded) = run(machine(true, usize::MAX));
                        let (inline, folded) = run(machine(false, usize::MAX));
                        let (pooled, pooled_folded) = run(machine(false, 0));
                        assert_eq!(inline, reference, "{what}: memory");
                        assert_eq!(
                            fold_counters(&folded),
                            fold_counters(&unfolded),
                            "{what}: counters"
                        );
                        assert_eq!(pooled, inline, "{what}: pooled memory");
                        assert_eq!(
                            sim_counters(&pooled_folded),
                            sim_counters(&folded),
                            "{what}: pooled counters"
                        );
                        // In one chunk, in pid order, folding makes round
                        // 0's log monotone: it commits on the fast path.
                        let one_chunk_range = n < CHUNK && matches!(pids, Pids::Range(..));
                        if policy == WritePolicy::Arbitrary || !one_chunk_range {
                            continue;
                        }
                        assert!(
                            folded.fastpath_steps > unfolded.fastpath_steps,
                            "{what}: nothing folded"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fold_never_happens_under_arbitrary() {
        let mut m = Machine::new(52);
        let mut shm = Shm::new();
        let a = shm.alloc("a", 1, 0);
        m.step(&mut shm, 0..16, |ctx| ctx.write(a, 0, ctx.pid as Word));
        assert_eq!(m.arena.chunk_bufs[0].0.get_mut().len(), 16);
        assert_eq!(m.metrics.fastpath_steps, 0);
        assert_eq!(m.metrics.write_conflicts, 1);
    }

    #[test]
    fn fold_counts_one_conflict_per_folded_cell_on_the_fast_path() {
        let mut m = Machine::with_policy(53, WritePolicy::CombineOr);
        let mut shm = Shm::new();
        let a = shm.alloc("a", 4, 0);
        let cells = [0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 2, 2, 2, 2, 2, 2];
        m.step(&mut shm, 0..16, |ctx| {
            ctx.write(a, cells[ctx.pid], 1 << (ctx.pid % 4));
        });
        assert_eq!(m.arena.chunk_bufs[0].0.get_mut().len(), 3);
        assert_eq!(shm.slice(a), &[15, 1, 15, 0]);
        assert_eq!(m.metrics.fastpath_steps, 1);
        assert_eq!(m.metrics.writes_buffered, 16);
        assert_eq!(m.metrics.writes_committed, 3);
        assert_eq!(m.metrics.write_conflicts, 2);
    }

    #[test]
    fn fold_counts_one_conflict_per_folded_cell_on_the_sorted_path() {
        let mut m = Machine::with_policy(54, WritePolicy::CombineOr);
        let mut shm = Shm::new();
        let a = shm.alloc("a", 4, 0);
        // runs to cells 2 (folded), 0 (folded), 1 (single), 0 (folded
        // again: a second entry in cell 0's sorted run)
        let cells = [2, 2, 2, 2, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0];
        m.step(&mut shm, 0..16, |ctx| {
            ctx.write(a, cells[ctx.pid], 1 << (ctx.pid % 4));
        });
        assert_eq!(m.metrics.fastpath_steps, 0);
        assert_eq!(m.metrics.writes_buffered, 16);
        assert_eq!(m.metrics.writes_committed, 3);
        assert_eq!(m.metrics.write_conflicts, 2);
    }

    #[test]
    fn fold_keeps_the_first_write_of_one_pid_under_priority_min() {
        for pids in [vec![0usize], vec![3, 1, 2]] {
            let run = |analyzed: bool| {
                let mut m = Machine::with_policy(55, WritePolicy::PriorityMin);
                if analyzed {
                    m.enable_analysis(crate::analyze::AnalyzeConfig::default());
                }
                let mut shm = Shm::new();
                let a = shm.alloc("a", 1, EMPTY);
                m.step(&mut shm, &pids, |ctx| {
                    ctx.write(a, 0, 10 * ctx.pid as Word + 5);
                    ctx.write(a, 0, 10 * ctx.pid as Word + 7);
                });
                (shm.get(a, 0), fold_counters(&m.metrics))
            };
            let min_pid = *pids.iter().min().unwrap_or(&0) as Word;
            assert_eq!(run(false).0, 10 * min_pid + 5, "pids {pids:?}");
            assert_eq!(run(false), run(true), "pids {pids:?}");
        }
    }

    #[test]
    fn fold_wraps_combine_sum_like_the_sorted_run() {
        let run = |analyzed: bool| {
            let mut m = Machine::with_policy(56, WritePolicy::CombineSum);
            if analyzed {
                m.enable_analysis(crate::analyze::AnalyzeConfig::default());
            }
            let mut shm = Shm::new();
            let a = shm.alloc("a", 1, 0);
            m.step(&mut shm, 0..3, |ctx| ctx.write(a, 0, Word::MAX));
            (shm.get(a, 0), fold_counters(&m.metrics))
        };
        assert_eq!(run(false).0, Word::MAX.wrapping_mul(3));
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn steady_state_steps_do_not_allocate_new_buffer_capacity() {
        let mut m = Machine::new(14);
        let mut shm = Shm::new();
        let a = shm.alloc("a", 4096, 0);
        let warm = |m: &mut Machine, shm: &mut Shm| {
            m.step(shm, 0..4096, |ctx| ctx.write(a, ctx.pid, 1));
        };
        warm(&mut m, &mut shm);
        let cap_before: usize = m
            .arena
            .chunk_bufs
            .iter_mut()
            .map(|b| b.0.get_mut().capacity())
            .sum();
        for _ in 0..10 {
            warm(&mut m, &mut shm);
        }
        let cap_after: usize = m
            .arena
            .chunk_bufs
            .iter_mut()
            .map(|b| b.0.get_mut().capacity())
            .sum();
        assert_eq!(
            cap_before, cap_after,
            "steady-state steps must reuse arena capacity"
        );
    }

    /// Every counter of a metrics record but host time: the simulated
    /// costs, the host step, fast-path, kernel and lane counts, the fault
    /// counters and the analyzer report.
    type AllCounters = (
        [u64; 12],
        crate::faults::FaultCounters,
        Option<Box<crate::AnalysisReport>>,
    );

    fn all_counters(m: &Metrics) -> AllCounters {
        (
            [
                m.steps,
                m.work,
                m.peak_processors,
                m.peak_live_cells,
                m.charged_steps,
                m.charged_work,
                m.host_steps,
                m.writes_buffered,
                m.writes_committed,
                m.write_conflicts,
                m.fastpath_steps,
                m.kernel_steps,
            ],
            m.faults,
            m.analysis.clone(),
        )
    }

    /// The grid test's program, decoded either by [`Ctx::coord`] over a
    /// [`Pids::Grid`] or by hand, with `/` and `%`, over the equivalent
    /// range: a coin-dependent generic step that writes a shared cell per
    /// `(i, j)` row and returns the coordinates, then a kernel scatter
    /// that ORs a bit of `k` into the row's cell.
    fn grid_program(m: &mut Machine, dims: [usize; 3], grid: bool) -> Vec<Vec<Word>> {
        let [a, b, c] = dims;
        let pids = if grid {
            Pids::Grid(dims)
        } else {
            Pids::Range(0, a * b * c)
        };
        let coord = |ctx: &Ctx| {
            if grid {
                ctx.coord()
            } else {
                [ctx.pid / (b * c), ctx.pid / c % b, ctx.pid % c]
            }
        };
        let mut shm = Shm::new();
        let rows = shm.alloc("rows", a * b, 0);
        let bits = shm.alloc("bits", a * b, 0);
        let mut out = vec![];
        let values =
            m.step_map_with_policy(&mut shm, pids.clone(), WritePolicy::CombineSum, |ctx| {
                let [i, j, k] = coord(ctx);
                let coin = ctx.rng().bernoulli(0.5) as Word;
                ctx.write(rows, i * b + j, coin + k as Word);
                ((i * b + j) * c + k) as Word * 2 + coin
            });
        out.push(values);
        m.kernel_scatter_with_policy(&mut shm, pids, WritePolicy::CombineOr, |ctx, _| {
            let [i, j, k] = coord(ctx);
            (k % 3 != 0).then_some((bits, i * b + j, 1 << (k % 61)))
        });
        out.extend([shm.slice(rows).to_vec(), shm.slice(bits).to_vec()]);
        out
    }

    /// The rank test's program over a scattered pid list: private
    /// registers sized by the list, indexed by [`Ctx::rank`] or by a
    /// host-built position map, written from a coin and read back.
    fn rank_program(m: &mut Machine, list: &[usize], by_rank: bool) -> Vec<Vec<Word>> {
        let mut pos = vec![usize::MAX; list.iter().max().map_or(0, |&p| p + 1)];
        for (r, &p) in list.iter().enumerate() {
            pos[p] = r;
        }
        let slot = |ctx: &Ctx| if by_rank { ctx.rank() } else { pos[ctx.pid] };
        let mut shm = Shm::new();
        let regs = shm.alloc("regs", list.len(), EMPTY);
        let seen = shm.alloc("seen", 1, 0);
        let mut out = vec![];
        out.push(m.step_map(&mut shm, list, |ctx| {
            let r = slot(ctx);
            let v = ctx.pid as Word * 4 + ctx.rng().bernoulli(0.5) as Word;
            ctx.write(regs, r, v);
            r as Word
        }));
        m.kernel_scatter_with_policy(&mut shm, list, WritePolicy::CombineSum, |ctx, pid| {
            let v = ctx.read(regs, slot(ctx));
            (v != EMPTY && v / 4 == pid as Word).then_some((seen, 0, 1))
        });
        out.extend([shm.slice(regs).to_vec(), shm.slice(seen).to_vec()]);
        out
    }

    #[test]
    fn grid_and_rank_steps_equal_the_hand_decode() {
        use crate::analyze::AnalyzeConfig;
        use crate::faults::{DropWindow, FaultPlan, RngBias};
        let plans = [
            FaultPlan::default(),
            FaultPlan {
                drop_window: Some(DropWindow {
                    from_step: 0,
                    until_step: u64::MAX,
                    rate: 0.3,
                }),
                ..FaultPlan::default()
            },
            FaultPlan {
                rng_bias: Some(RngBias {
                    rate: 0.5,
                    force: true,
                }),
                ..FaultPlan::default()
            },
        ];
        // Two grids longer than CHUNK, so later chunks start mid-row and
        // mid-plane, and one inside a chunk.
        let grids = [[3, 7, 401], [1, 90, 100], [5, 4, 3]];
        const { assert!(3 * 7 * 401 > CHUNK && 90 * 100 > CHUNK) };
        let list: Vec<usize> = shuffled_runs(90 * RUN).iter().map(|p| 3 * p + 1).collect();
        for plan in &plans {
            for lanes in [Some(1), Some(2), None] {
                for analyzed in [false, true] {
                    let machine = || {
                        let mut m = Machine::new(61);
                        m.tuning.par_threshold = 0;
                        m.tuning.num_threads = lanes;
                        m.install_faults(plan.clone());
                        if analyzed {
                            m.enable_analysis(AnalyzeConfig::default());
                        }
                        m
                    };
                    let what = format!("{plan:?} lanes {lanes:?} analyzed {analyzed}");
                    for dims in grids {
                        let (mut g, mut h) = (machine(), machine());
                        let out = grid_program(&mut g, dims, true);
                        assert_eq!(out, grid_program(&mut h, dims, false), "{dims:?} {what}");
                        assert_eq!(
                            all_counters(&g.metrics),
                            all_counters(&h.metrics),
                            "{dims:?} {what}"
                        );
                    }
                    let (mut r, mut h) = (machine(), machine());
                    let out = rank_program(&mut r, &list, true);
                    assert_eq!(out, rank_program(&mut h, &list, false), "rank {what}");
                    assert_eq!(out[0], (0..list.len() as Word).collect::<Vec<_>>());
                    assert_eq!(
                        all_counters(&r.metrics),
                        all_counters(&h.metrics),
                        "rank {what}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn a_grid_larger_than_usize_panics_before_any_step() {
        let mut m = Machine::new(63);
        m.step(&mut Shm::new(), Pids::Grid([1 << 32, 1 << 32, 2]), |_| {});
    }

    #[test]
    fn coord_outside_a_grid_is_the_rank() {
        let mut m = Machine::new(62);
        let mut shm = Shm::new();
        let list = [9usize, 4, 7];
        let got = m.step_map(&mut shm, &list[..], |ctx| (ctx.rank(), ctx.coord()));
        assert_eq!(got, vec![(0, [0, 0, 0]), (1, [0, 0, 1]), (2, [0, 0, 2])]);
        let got = m.step_map(&mut shm, 5..7, |ctx| (ctx.rank(), ctx.coord()));
        assert_eq!(got, vec![(0, [0, 0, 0]), (1, [0, 0, 1])]);
        let got = m.step_map(&mut shm, Pids::Grid([2, 1, 2]), |ctx| {
            (ctx.pid, ctx.coord())
        });
        let want = [[0, 0, 0], [0, 0, 1], [1, 0, 0], [1, 0, 1]];
        assert_eq!(got, want.into_iter().enumerate().collect::<Vec<_>>());
    }
}
