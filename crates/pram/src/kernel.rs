//! Fused bulk-kernel execution for the step shapes that dominate the
//! reproduced algorithms.
//!
//! The generic [`Machine::step`] pays a per-processor toll: a [`crate::Ctx`]
//! is constructed for every virtual processor, its closure is dispatched,
//! and every write becomes a 24-byte log entry that the commit phase must
//! re-examine. That is the honest way to execute an *arbitrary* step — but
//! almost every step the hull algorithms actually issue has one of four
//! fixed shapes, and for those the simulator can run one tight host loop
//! per chunk instead (the same observation behind GPU ports of PRAM hull
//! algorithms: a PRAM step maps to a bulk kernel, not per-processor
//! interpretation):
//!
//! * [`Machine::kernel_map`] — processor `pid` writes `f(pid)` to
//!   `out[pid]`. Conflict-free by construction.
//! * [`Machine::kernel_permute`] — processor `pid` writes one value to a
//!   computed cell of `out`, all destinations distinct. Conflict-free by
//!   contract (violations are caught in debug builds and are a value race,
//!   never undefined behaviour, in release).
//! * [`Machine::kernel_scatter`] — processor `pid` makes at most one
//!   *conditional* write anywhere; conflicts allowed. The fused loop skips
//!   `Ctx` construction but still feeds the machine's commit pipeline, so
//!   conflict resolution and its accounting are *the generic code*, not a
//!   re-implementation.
//! * [`Machine::kernel_reduce`] — every processor contributes at most one
//!   value, combined into a single target cell under a [`ReduceOp`]
//!   (concurrent-OR, combining sum/min/max, priority-first). Partial
//!   accumulators per chunk, folded on the host.
//!
//! # The metrics-identity invariant
//!
//! Kernels are a *host-performance* device, never a model shortcut. Every
//! kernel charges exactly the metrics the generic path would charge for the
//! same step: one step, `|pids|` work, the same `writes_buffered`,
//! `writes_committed` and `write_conflicts`. The only observable differences
//! are host-side (`host_*_ns`, `fastpath_steps`, and the [`crate::Metrics::kernel_steps`]
//! counter). Each kernel body is only its chunk loop and how it lands its
//! writes (a buffered log committed by the machine, a direct store, or a
//! reduce fold); opening, running and charging the step go through the same
//! step frame as the generic path (`Machine::open_step`, `run_chunks`,
//! `close_step` in [`crate::machine`]), so the shared costs are charged by
//! one piece of code. [`crate::Tuning::disable_kernels`] routes every
//! kernel through the generic step path — the equivalence suite runs both
//! and asserts memory and metrics are bit-identical, under every write
//! policy and both sequential and parallel execution.
//!
//! # The data-parallel ("metal") backend
//!
//! A kernel whose processor count reaches [`crate::Tuning::par_threshold`]
//! (2^15 by default, `IPCH_PAR_THRESHOLD=<n>` to override) executes its
//! chunk loop across the [`crate::pool`] instead of on the calling thread;
//! smaller kernels stay on the sequential fused loops, so the small-n
//! latency profile is that of plain host loops. It is the one fan-out
//! threshold: generic compute uses it too, and the commit phase fans out
//! at twice as many buffered writes.
//! The fan-out is *proven* bit-identical — memory, [`crate::Metrics`]
//! accounting and [`crate::AnalysisReport`]s — at every worker count,
//! because nothing observable depends on lane assignment:
//!
//! * **Fixed chunk boundaries** — chunks are `CHUNK = 8192` consecutive
//!   processors, a pure function of the active-set size.
//! * **Fixed-shape combining** — reduce folds per-chunk `Partial`s on the
//!   host in chunk order; map/permute/scatter chunks write disjoint state.
//! * **Derived randomness** — per-(step, pid) RNG streams are derived, never
//!   shared, so scheduling cannot perturb a coin flip.
//!
//! Parallel chunk loops poll the machine's [`crate::CancelToken`] at every
//! chunk entry (the same granularity as the sequential loops), so the
//! abort-within-one-step guarantee of [`crate::cancel`] holds on both
//! backends.
//!
//! Kernel closures read the pre-step snapshot through a [`KCtx`], which
//! refuses reads of the kernel's own output array (for `map`/`permute` the
//! output buffer is detached during the loop, so the read the generic path
//! would have served from the snapshot must be rejected identically on the
//! fused path — the refusal keeps the two paths observably the same).
//!
//! ```
//! use ipch_pram::{Machine, ReduceOp, Shm};
//!
//! let mut m = Machine::new(1);
//! let mut shm = Shm::new();
//! let xs = shm.alloc("xs", 8, 3);
//! let out = shm.alloc("out", 8, 0);
//! let acc = shm.alloc("acc", 1, 0);
//!
//! // out[pid] = xs[pid] * 2, one synchronous step, no per-pid Ctx.
//! m.kernel_map(&mut shm, 0..8, out, |t, pid| t.read(xs, pid) * 2);
//! // acc[0] = sum over pids, one combining-CRCW step.
//! m.kernel_reduce(&mut shm, 0..8, ReduceOp::Sum, acc, 0, |t, pid| {
//!     Some(t.read(out, pid))
//! });
//! assert_eq!(shm.get(acc, 0), 48);
//! assert_eq!(m.metrics.steps, 2);
//! assert_eq!(m.metrics.work, 16);
//! assert_eq!(m.metrics.kernel_steps, 2);
//! ```

use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};

use crate::analyze::{ReadEntry, ReadTrace, READ_ALL};
use crate::machine::{Body, ChunkCell, Ctx, Machine, Pids, WriteEntry, CHUNK};
use crate::memory::{ArrayId, Shm, ShmError};
use crate::policy::WritePolicy;
use crate::Word;

/// Sentinel for "no array is off-limits" in a [`KCtx`].
const NO_FORBIDDEN: u32 = u32::MAX;

/// Read-trace hookup of one [`KCtx`]: the owning chunk's buffer plus the
/// pid of the processor currently being simulated (kernels reuse one `KCtx`
/// for a whole chunk, so the pid is set per iteration).
struct KTrace<'a> {
    buf: &'a ReadTrace,
    pid: Cell<u32>,
}

/// Read-only view of the pre-step memory snapshot handed to kernel
/// closures.
///
/// Unlike [`crate::Ctx`] it carries no write buffer and no RNG — a kernel's
/// write is the closure's *return value*, which is what lets the fused loop
/// skip the write log on conflict-free shapes.
pub struct KCtx<'a> {
    shm: &'a Shm,
    /// Array the closure may not read (`NO_FORBIDDEN` if none): the output
    /// array of `map`/`permute`, whose buffer is detached during the fused
    /// loop. Enforced identically on the generic fallback path so the two
    /// paths reject the same programs.
    forbidden: u32,
    /// Analyzer read trace, when attached (fused paths build one per chunk;
    /// generic fallbacks inherit the enclosing [`crate::Ctx`]'s buffer).
    trace: Option<KTrace<'a>>,
}

impl<'a> KCtx<'a> {
    /// A `KCtx` for one fused-loop chunk: traces into `trace` if the
    /// analyzer is attached ([`KCtx::set_pid`] attributes each iteration).
    fn for_chunk(shm: &'a Shm, forbidden: u32, trace: Option<&'a ReadTrace>) -> Self {
        Self {
            shm,
            forbidden,
            trace: trace.map(|buf| KTrace {
                buf,
                pid: Cell::new(0),
            }),
        }
    }

    /// A `KCtx` for a generic-fallback step closure, inheriting the
    /// enclosing [`crate::Ctx`]'s read-trace buffer and pid.
    fn for_ctx(ctx: &'a Ctx<'_, '_>, forbidden: u32) -> KCtx<'a> {
        KCtx {
            shm: ctx.snapshot(),
            forbidden,
            trace: ctx.read_trace().map(|buf| KTrace {
                buf,
                pid: Cell::new(ctx.pid as u32),
            }),
        }
    }

    /// Attribute subsequent traced reads to `pid` (fused loops only).
    #[inline]
    fn set_pid(&self, pid: usize) {
        if let Some(t) = &self.trace {
            t.pid.set(pid as u32);
        }
    }

    #[inline]
    fn check(&self, a: ArrayId) {
        assert!(
            a.slot() != self.forbidden,
            "kernel closure may not read the kernel's own output array \
             (reads see the pre-step snapshot; buffer the value in a prior step)"
        );
    }

    #[inline]
    fn record(&self, key: u64) {
        if let Some(t) = &self.trace {
            t.buf.borrow_mut().push(ReadEntry {
                key,
                pid: t.pid.get(),
            });
        }
    }

    /// Read a cell of the pre-step memory snapshot.
    #[inline]
    pub fn read(&self, a: ArrayId, i: usize) -> Word {
        self.check(a);
        self.record(((a.slot() as u64) << 32) | i as u64);
        self.shm.get(a, i)
    }

    /// Borrow a whole array of the pre-step snapshot (see [`crate::Ctx::slice`]).
    #[inline]
    pub fn slice(&self, a: ArrayId) -> &'a [Word] {
        self.check(a);
        self.record(((a.slot() as u64) << 32) | READ_ALL as u64);
        self.shm.slice(a)
    }

    /// Length of a shared array (metadata, not a traced cell read).
    #[inline]
    pub fn len(&self, a: ArrayId) -> usize {
        self.check(a);
        self.shm.len(a)
    }
}

/// Combining rule of a [`Machine::kernel_reduce`] step.
///
/// Each variant corresponds exactly to one CRCW [`WritePolicy`]; the kernel
/// is required to produce the value that policy would commit if every
/// contributing processor wrote the target cell in one generic step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    /// Bitwise OR of all contributions ([`WritePolicy::CombineOr`]) — the
    /// paper's §2.2 concurrent-OR.
    Or,
    /// Wrapping sum ([`WritePolicy::CombineSum`]).
    Sum,
    /// Minimum ([`WritePolicy::CombineMin`]).
    Min,
    /// Maximum ([`WritePolicy::CombineMax`]).
    Max,
    /// Contribution of the lowest-numbered contributing processor
    /// ([`WritePolicy::PriorityMin`]).
    First,
}

impl ReduceOp {
    /// The write policy this op is defined to replicate.
    pub fn policy(self) -> WritePolicy {
        match self {
            ReduceOp::Or => WritePolicy::CombineOr,
            ReduceOp::Sum => WritePolicy::CombineSum,
            ReduceOp::Min => WritePolicy::CombineMin,
            ReduceOp::Max => WritePolicy::CombineMax,
            ReduceOp::First => WritePolicy::PriorityMin,
        }
    }

    /// Fold identity (matches the empty prefix of the policy's own fold).
    #[inline]
    fn identity(self) -> Word {
        match self {
            ReduceOp::Or | ReduceOp::Sum => 0,
            ReduceOp::Min => Word::MAX,
            ReduceOp::Max => Word::MIN,
            ReduceOp::First => 0, // unused: First resolves by minimum pid
        }
    }

    /// Two-element combine. All variants are commutative and associative
    /// (Sum by two's-complement wrapping), so per-chunk partial folds are
    /// bit-identical to the generic path's sorted-run fold.
    #[inline]
    fn combine(self, a: Word, b: Word) -> Word {
        match self {
            ReduceOp::Or => a | b,
            ReduceOp::Sum => a.wrapping_add(b),
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
            ReduceOp::First => a, // unused: First resolves by minimum pid
        }
    }
}

/// `Sync` wrapper for the dense map path's detached-buffer base pointer;
/// chunks write disjoint `clo..chi` subranges, which is what makes sharing
/// it across pool lanes sound.
struct SendWordPtr(*mut Word);

// SAFETY: used only under the disjoint-subrange discipline above.
unsafe impl Sync for SendWordPtr {}

impl SendWordPtr {
    /// Accessor (rather than direct field use) so closures capture the
    /// `Sync` wrapper, not the bare pointer.
    fn get(&self) -> *mut Word {
        self.0
    }
}

/// Per-chunk accumulator of a fused reduce.
struct Partial {
    /// Number of contributing processors in the chunk.
    k: u64,
    /// Folded contribution under the op's combine.
    acc: Word,
    /// Lowest contributing pid (`u64::MAX` if none) and its value, for
    /// [`ReduceOp::First`].
    min_pid: u64,
    min_pid_val: Word,
}

impl Partial {
    fn empty(op: ReduceOp) -> Self {
        Self {
            k: 0,
            acc: op.identity(),
            min_pid: u64::MAX,
            min_pid_val: 0,
        }
    }
}

impl Machine {
    /// True when kernel entry points run their fused loops. Otherwise
    /// ([`crate::Tuning::disable_kernels`], or a fault plan installed —
    /// fault hooks live only there) they route through the generic step,
    /// the reference path the equivalence suites compare against.
    #[inline]
    fn fused(&self) -> bool {
        !self.tuning.disable_kernels && self.faults.is_none()
    }

    /// One synchronous step in which processor `pid` writes `f(pid)` to
    /// `out[pid]`.
    ///
    /// Fused path: the output buffer is detached, each chunk of processors
    /// runs a tight loop storing results directly, and the write log is
    /// skipped entirely. Charges one step, `|pids|` work, `|pids|` writes
    /// buffered and committed, zero conflicts — identical to the generic
    /// path on this shape. Contiguous pid ranges additionally take the
    /// dense path (`Machine::fused_map_dense`): each chunk owns the
    /// matching subslice of the output, so the inner loop is plain indexed
    /// stores over `&mut [Word]` — the shape LLVM autovectorizes.
    ///
    /// Contract: pids are distinct (they address distinct cells) and `f`
    /// does not read `out` (enforced by [`KCtx`]).
    pub fn kernel_map<'a, P, F>(&mut self, shm: &mut Shm, pids: P, out: ArrayId, f: F)
    where
        P: Into<Pids<'a>>,
        F: Fn(&KCtx, usize) -> Word + Sync,
    {
        let pids = pids.into();
        if !self.fused() {
            let forbidden = out.slot();
            self.step(shm, pids, |ctx| {
                let t = KCtx::for_ctx(ctx, forbidden);
                let v = f(&t, ctx.pid);
                ctx.write(out, ctx.pid, v);
            });
            return;
        }
        if let Pids::Range(lo, hi) = pids {
            self.fused_map_dense(shm, lo, hi, out, f);
            return;
        }
        self.fused_write(shm, pids, out, |t, pid| (pid, f(t, pid)));
    }

    /// Dense [`Machine::kernel_map`] fast path for contiguous pid ranges:
    /// destination cells `lo..hi` partition into per-chunk subslices of the
    /// detached output buffer, so the inner loop needs no per-element atomic
    /// stores, no per-element bounds checks and no destination bookkeeping —
    /// one hoisted range check, then straight-line stores a vectorizer can
    /// work with. Metrics, analyzer trace and cancellation behaviour are
    /// those of [`Machine::fused_write`] on the same program.
    fn fused_map_dense<F>(&mut self, shm: &mut Shm, lo: usize, hi: usize, out: ArrayId, f: F)
    where
        F: Fn(&KCtx, usize) -> Word + Sync,
    {
        let count = hi.saturating_sub(lo);
        let Some(frame) = self.open_step(count, Body::KernelStore) else {
            return;
        };
        let mut buf = shm.take_array(out);
        if hi > buf.len() {
            // The error the generic path raises at its first offending pid.
            let e = ShmError::OutOfBounds {
                name: shm.slot_name(out.slot()).to_string(),
                index: lo.max(buf.len()),
                len: buf.len(),
            };
            shm.put_back(out, buf);
            panic!("{e}");
        }
        let base = SendWordPtr(buf.as_mut_ptr());
        let shm_ref: &Shm = shm;
        let forbidden = out.slot();
        let trace_bufs = frame.reads();
        // Analyzer attached ⇒ also record the write log the generic path
        // would produce (same entries, same chunk buffers).
        let write_bufs = frame.analyzer_log();
        let run_chunk = |c: usize| {
            let clo = lo + c * CHUNK;
            let chi = (clo + CHUNK).min(hi);
            // SAFETY: chunks own disjoint subranges `clo..chi` of the
            // detached buffer, all inside `0..buf.len()` (checked above).
            let slots = unsafe { std::slice::from_raw_parts_mut(base.get().add(clo), chi - clo) };
            // SAFETY: chunk `c` is dispatched exactly once, so it is the
            // only accessor of read trace `c`.
            let trace = trace_bufs.map(|t| unsafe { &*t[c].0.get() });
            let t = KCtx::for_chunk(shm_ref, forbidden, trace);
            // SAFETY: chunk `c` exclusively owns `chunk_bufs[c]`; no
            // other lane touches it while this chunk runs.
            match write_bufs.map(|b| unsafe { b[c].get_mut_unchecked() }) {
                Some(w) => {
                    for (off, slot) in slots.iter_mut().enumerate() {
                        let pid = clo + off;
                        t.set_pid(pid);
                        let v = f(&t, pid);
                        *slot = v;
                        w.push(WriteEntry {
                            key: ((out.slot() as u64) << 32) | pid as u64,
                            pidseq: (pid as u64) << 32,
                            val: v,
                        });
                    }
                }
                // The hot case: no analyzer, no side bookkeeping — a
                // contiguous read-compute-store loop.
                None => {
                    for (off, slot) in slots.iter_mut().enumerate() {
                        *slot = f(&t, clo + off);
                    }
                }
            }
        };
        let aborted = self.run_chunks(&frame, &run_chunk);
        shm.put_back(out, buf);
        if let Some(cause) = aborted {
            // Same contract as `fused_write`: the buffer is re-attached, a
            // prefix of this step's stores may be present, and a cancelled
            // run's memory is never a result.
            self.abort_step(frame, cause);
        }
        self.metrics.writes_buffered += count as u64;
        self.metrics.writes_committed += count as u64;
        let policy = self.policy;
        self.close_step(shm, frame, policy);
    }

    /// One synchronous step in which processor `pid` writes one value to a
    /// computed cell of `out`; `f` returns `(destination, value)`.
    ///
    /// Contract: destinations are distinct across processors (a permutation
    /// into `out`); `f` does not read `out`. Duplicate destinations panic in
    /// debug builds; in release the racing relaxed stores commit *some*
    /// contender (never undefined behaviour) — but such a program is outside
    /// the kernel contract and must use [`Machine::kernel_scatter`].
    pub fn kernel_permute<'a, P, F>(&mut self, shm: &mut Shm, pids: P, out: ArrayId, f: F)
    where
        P: Into<Pids<'a>>,
        F: Fn(&KCtx, usize) -> (usize, Word) + Sync,
    {
        let pids = pids.into();
        if !self.fused() {
            let forbidden = out.slot();
            self.step(shm, pids, |ctx| {
                let t = KCtx::for_ctx(ctx, forbidden);
                let (d, v) = f(&t, ctx.pid);
                ctx.write(out, d, v);
            });
            return;
        }
        self.fused_write(shm, pids, out, f);
    }

    /// Shared fused loop of `kernel_map`/`kernel_permute`: detach the output
    /// buffer, store each processor's `(destination, value)` directly,
    /// charge conflict-free metrics.
    fn fused_write<F>(&mut self, shm: &mut Shm, pids: Pids<'_>, out: ArrayId, f: F)
    where
        F: Fn(&KCtx, usize) -> (usize, Word) + Sync,
    {
        let Some(frame) = self.open_step(pids.count(), Body::KernelStore) else {
            return;
        };
        let count = frame.count;
        let mut buf = shm.take_array(out);
        // SAFETY: AtomicI64 has the same size and bit validity as i64,
        // so the cast view is valid. Distinct destinations mean distinct
        // cells; the atomic relaxed store keeps a contract violation a
        // value race, never UB.
        let cells: &[AtomicI64] =
            unsafe { std::slice::from_raw_parts(buf.as_mut_ptr().cast::<AtomicI64>(), buf.len()) };
        #[cfg(debug_assertions)]
        let seen: Vec<std::sync::atomic::AtomicBool> =
            (0..cells.len()).map(|_| Default::default()).collect();
        let shm_ref: &Shm = shm;
        let forbidden = out.slot();
        let pids_ref = &pids;
        let trace_bufs = frame.reads();
        // With the analyzer attached, the fused loop also records its writes
        // (into the pooled arena buffers, exactly the generic log format) so
        // classification sees the same trace either way.
        let write_bufs = frame.analyzer_log();
        let run_chunk = |c: usize| {
            let lo = c * CHUNK;
            let hi = ((c + 1) * CHUNK).min(count);
            // SAFETY: chunk-exclusive buffers (chunk c touches cell c only).
            let trace = trace_bufs.map(|t| unsafe { &*t[c].0.get() });
            // SAFETY: as above, write log `c` belongs to chunk `c` alone.
            let mut writes = write_bufs.map(|b| unsafe { b[c].get_mut_unchecked() });
            let t = KCtx::for_chunk(shm_ref, forbidden, trace);
            for i in lo..hi {
                let pid = pids_ref.get(i);
                t.set_pid(pid);
                let (d, v) = f(&t, pid);
                if d >= cells.len() {
                    panic!(
                        "{}",
                        ShmError::OutOfBounds {
                            name: shm_ref.slot_name(out.slot()).to_string(),
                            index: d,
                            len: cells.len(),
                        }
                    );
                }
                #[cfg(debug_assertions)]
                assert!(
                    !seen[d].swap(true, Ordering::Relaxed),
                    "kernel wrote out[{d}] twice: map/permute destinations must be \
                     distinct (conflicting writes need kernel_scatter)"
                );
                cells[d].store(v, Ordering::Relaxed);
                if let Some(w) = writes.as_mut() {
                    w.push(WriteEntry {
                        key: ((out.slot() as u64) << 32) | d as u64,
                        pidseq: (pid as u64) << 32,
                        val: v,
                    });
                }
            }
        };
        let aborted = self.run_chunks(&frame, &run_chunk);
        shm.put_back(out, buf);
        if let Some(cause) = aborted {
            // Mid-kernel abort: the output buffer is re-attached (Shm stays
            // structurally intact and the machine reusable), but — unlike
            // the generic path, which discards its buffered log whole — the
            // fused loop stores directly, so a prefix of this step's writes
            // may already be in `out`. A cancelled run's memory is never a
            // result, so that is within the cancellation contract.
            self.abort_step(frame, cause);
        }
        // Metrics-identity with the generic path on this conflict-free
        // shape: every processor buffers one write, every write commits.
        self.metrics.writes_buffered += count as u64;
        self.metrics.writes_committed += count as u64;
        let policy = self.policy;
        self.close_step(shm, frame, policy);
    }

    /// One synchronous step in which each processor makes at most one
    /// conditional write anywhere (`f` returns `Some((array, index, value))`
    /// to write), resolved under the machine's default policy.
    pub fn kernel_scatter<'a, P, F>(&mut self, shm: &mut Shm, pids: P, f: F)
    where
        P: Into<Pids<'a>>,
        F: Fn(&KCtx, usize) -> Option<(ArrayId, usize, Word)> + Sync,
    {
        let policy = self.policy;
        self.kernel_scatter_with_policy(shm, pids, policy, f);
    }

    /// [`Machine::kernel_scatter`] with an explicit write rule.
    ///
    /// Conflicts are allowed: the fused loop only skips per-pid `Ctx`
    /// construction — buffered entries go through the machine's ordinary
    /// commit pipeline, so resolution, determinism and accounting are
    /// shared with the generic path by construction.
    pub fn kernel_scatter_with_policy<'a, P, F>(
        &mut self,
        shm: &mut Shm,
        pids: P,
        policy: WritePolicy,
        f: F,
    ) where
        P: Into<Pids<'a>>,
        F: Fn(&KCtx, usize) -> Option<(ArrayId, usize, Word)> + Sync,
    {
        let pids = pids.into();
        if !self.fused() {
            self.step_with_policy(shm, pids, policy, |ctx| {
                let t = KCtx::for_ctx(ctx, NO_FORBIDDEN);
                if let Some((a, i, v)) = f(&t, ctx.pid) {
                    ctx.write(a, i, v);
                }
            });
            return;
        }
        let Some(frame) = self.open_step(pids.count(), Body::KernelLog) else {
            return;
        };
        let count = frame.count;
        let shm_ref: &Shm = shm;
        let pids_ref = &pids;
        let bufs = frame.log();
        let trace_bufs = frame.reads();
        let run_chunk = |c: usize| {
            let lo = c * CHUNK;
            let hi = ((c + 1) * CHUNK).min(count);
            // SAFETY: chunk c is executed exactly once; buffer c is ours.
            let writes = unsafe { bufs[c].get_mut_unchecked() };
            // SAFETY: same chunk-exclusive discipline for the read trace.
            let trace = trace_bufs.map(|t| unsafe { &*t[c].0.get() });
            let t = KCtx::for_chunk(shm_ref, NO_FORBIDDEN, trace);
            for i in lo..hi {
                let pid = pids_ref.get(i);
                t.set_pid(pid);
                if let Some((a, idx, v)) = f(&t, pid) {
                    if let Err(e) = shm_ref.check_access(a, idx) {
                        panic!("{e}");
                    }
                    assert!(pid <= u32::MAX as usize, "pid {pid} exceeds u32 range");
                    writes.push(WriteEntry {
                        key: ((a.slot() as u64) << 32) | idx as u64,
                        pidseq: (pid as u64) << 32,
                        val: v,
                    });
                }
            }
        };
        if let Some(cause) = self.run_chunks(&frame, &run_chunk) {
            // Buffered writes are discarded whole: this path shares the
            // generic commit pipeline, so nothing has touched shared memory.
            self.abort_step(frame, cause);
        }
        self.close_step(shm, frame, policy);
    }

    /// One synchronous combining-CRCW step: every processor contributes at
    /// most one value (`f` returns `Some(v)` to contribute), and
    /// `target[tidx]` receives the combination under `op` — exactly what the
    /// generic path commits when all contributors write that cell under
    /// [`ReduceOp::policy`].
    ///
    /// Charges one step, `|pids|` work, one buffered write per contributor,
    /// one committed cell (if any contributor) and one conflict (if two or
    /// more) — identical to the generic path.
    pub fn kernel_reduce<'a, P, F>(
        &mut self,
        shm: &mut Shm,
        pids: P,
        op: ReduceOp,
        target: ArrayId,
        tidx: usize,
        f: F,
    ) where
        P: Into<Pids<'a>>,
        F: Fn(&KCtx, usize) -> Option<Word> + Sync,
    {
        let pids = pids.into();
        if !self.fused() {
            self.step_with_policy(shm, pids, op.policy(), |ctx| {
                let t = KCtx::for_ctx(ctx, NO_FORBIDDEN);
                if let Some(v) = f(&t, ctx.pid) {
                    ctx.write(target, tidx, v);
                }
            });
            return;
        }
        let Some(frame) = self.open_step(pids.count(), Body::KernelStore) else {
            return;
        };
        let (count, nchunks) = (frame.count, frame.nchunks);
        let partials: Vec<ChunkCell<Partial>> = (0..nchunks)
            .map(|_| ChunkCell::new(Partial::empty(op)))
            .collect();
        let shm_ref: &Shm = shm;
        let pids_ref = &pids;
        let partials_ref = &partials;
        let trace_bufs = frame.reads();
        // With the analyzer attached, record one write entry per contributor
        // (what the generic path would buffer) so the race census is
        // identical either way.
        let write_bufs = frame.analyzer_log();
        let target_key = ((target.slot() as u64) << 32) | tidx as u64;
        let run_chunk = |c: usize| {
            let lo = c * CHUNK;
            let hi = ((c + 1) * CHUNK).min(count);
            // SAFETY: chunk c is executed exactly once; partial c and the
            // trace/write buffers c are ours.
            let p = unsafe { partials_ref[c].get_mut_unchecked() };
            // SAFETY: chunk c is the only accessor of read trace c.
            let trace = trace_bufs.map(|t| unsafe { &*t[c].0.get() });
            // SAFETY: chunk c is the only accessor of write log c.
            let mut writes = write_bufs.map(|b| unsafe { b[c].get_mut_unchecked() });
            let t = KCtx::for_chunk(shm_ref, NO_FORBIDDEN, trace);
            for i in lo..hi {
                let pid = pids_ref.get(i);
                t.set_pid(pid);
                if let Some(v) = f(&t, pid) {
                    p.k += 1;
                    p.acc = op.combine(p.acc, v);
                    if (pid as u64) < p.min_pid {
                        p.min_pid = pid as u64;
                        p.min_pid_val = v;
                    }
                    if let Some(w) = writes.as_mut() {
                        w.push(WriteEntry {
                            key: target_key,
                            pidseq: (pid as u64) << 32,
                            val: v,
                        });
                    }
                }
            }
        };
        if let Some(cause) = self.run_chunks(&frame, &run_chunk) {
            // Partials are host-local and simply dropped; the target cell
            // was never touched.
            self.abort_step(frame, cause);
        }

        let mut total_k = 0u64;
        let mut acc = op.identity();
        let mut min_pid = u64::MAX;
        let mut min_pid_val = 0;
        for cell in partials {
            let p = cell.into_inner();
            if p.k == 0 {
                continue;
            }
            total_k += p.k;
            acc = op.combine(acc, p.acc);
            if p.min_pid < min_pid {
                min_pid = p.min_pid;
                min_pid_val = p.min_pid_val;
            }
        }
        self.metrics.writes_buffered += total_k;
        if total_k > 0 {
            let v = match op {
                ReduceOp::First => min_pid_val,
                _ => acc,
            };
            shm.host_set(target, tidx, v);
            self.metrics.writes_committed += 1;
            if total_k >= 2 {
                self.metrics.write_conflicts += 1;
            }
        }
        self.close_step(shm, frame, op.policy());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Tuning;
    use crate::Metrics;

    /// The metric fields kernels must replicate exactly (host-observability
    /// counters — host_ns, fastpath_steps, kernel_steps — excluded).
    fn observed(m: &Metrics) -> (u64, u64, u64, u64, u64, u64) {
        (
            m.steps,
            m.work,
            m.peak_processors,
            m.writes_buffered,
            m.writes_committed,
            m.write_conflicts,
        )
    }

    fn machines(policy: WritePolicy) -> (Machine, Machine) {
        let fused = Machine::with_policy(99, policy);
        let mut generic = Machine::with_policy(99, policy);
        generic.tuning = Tuning {
            disable_kernels: true,
            ..Tuning::default()
        };
        (fused, generic)
    }

    #[test]
    fn map_matches_generic_step_memory_and_metrics() {
        let (mut mf, mut mg) = machines(WritePolicy::Arbitrary);
        let run = |m: &mut Machine| {
            let mut shm = Shm::new();
            let xs = shm.alloc("xs", 100, 0);
            for i in 0..100 {
                shm.host_set(xs, i, i as i64);
            }
            let out = shm.alloc("out", 100, 0);
            m.kernel_map(&mut shm, 0..100, out, |t, pid| t.read(xs, pid) * 3 + 1);
            shm.slice(out).to_vec()
        };
        let a = run(&mut mf);
        let b = run(&mut mg);
        assert_eq!(a, b);
        assert_eq!(observed(&mf.metrics), observed(&mg.metrics));
        assert_eq!(mf.metrics.kernel_steps, 1);
        assert_eq!(mg.metrics.kernel_steps, 0);
    }

    #[test]
    fn map_over_pid_list_writes_those_cells_only() {
        let mut m = Machine::new(7);
        let mut shm = Shm::new();
        let out = shm.alloc("out", 10, -1);
        let pids = vec![1usize, 4, 9];
        m.kernel_map(&mut shm, &pids, out, |_, pid| pid as i64);
        assert_eq!(shm.slice(out), &[-1, 1, -1, -1, 4, -1, -1, -1, -1, 9]);
        assert_eq!(m.metrics.work, 3);
        assert_eq!(m.metrics.writes_committed, 3);
    }

    #[test]
    fn permute_reverses() {
        let (mut mf, mut mg) = machines(WritePolicy::Arbitrary);
        let run = |m: &mut Machine| {
            let mut shm = Shm::new();
            let out = shm.alloc("out", 64, 0);
            m.kernel_permute(&mut shm, 0..64, out, |_, pid| (63 - pid, pid as i64));
            shm.slice(out).to_vec()
        };
        let a = run(&mut mf);
        let b = run(&mut mg);
        assert_eq!(a, b);
        assert!(a.iter().enumerate().all(|(i, &v)| v == (63 - i) as i64));
        assert_eq!(observed(&mf.metrics), observed(&mg.metrics));
    }

    #[test]
    fn scatter_resolves_conflicts_like_generic_path() {
        for policy in [
            WritePolicy::Arbitrary,
            WritePolicy::PriorityMin,
            WritePolicy::CombineMin,
            WritePolicy::CombineMax,
            WritePolicy::CombineSum,
            WritePolicy::CombineOr,
        ] {
            let (mut mf, mut mg) = machines(policy);
            let run = |m: &mut Machine| {
                let mut shm = Shm::new();
                let out = shm.alloc("out", 16, 0);
                // every processor writes cell pid%16/4 — 4-way conflicts —
                // and odd pids abstain
                m.kernel_scatter(&mut shm, 0..64, |_, pid| {
                    if pid % 2 == 1 {
                        return None;
                    }
                    Some((out, (pid % 16) / 4, pid as i64 + 1))
                });
                shm.slice(out).to_vec()
            };
            let a = run(&mut mf);
            let b = run(&mut mg);
            assert_eq!(a, b, "policy {policy:?}");
            assert_eq!(
                observed(&mf.metrics),
                observed(&mg.metrics),
                "policy {policy:?}"
            );
            assert!(mf.metrics.write_conflicts > 0);
        }
    }

    #[test]
    fn reduce_ops_match_their_policies() {
        for op in [
            ReduceOp::Or,
            ReduceOp::Sum,
            ReduceOp::Min,
            ReduceOp::Max,
            ReduceOp::First,
        ] {
            let (mut mf, mut mg) = machines(WritePolicy::Arbitrary);
            let run = |m: &mut Machine| {
                let mut shm = Shm::new();
                let xs = shm.alloc("xs", 50, 0);
                for i in 0..50 {
                    shm.host_set(xs, i, (i as i64 * 13) % 29 - 7);
                }
                let cell = shm.alloc("cell", 1, -99);
                m.kernel_reduce(&mut shm, 0..50, op, cell, 0, |t, pid| {
                    if pid % 3 == 0 {
                        None
                    } else {
                        Some(t.read(xs, pid))
                    }
                });
                shm.get(cell, 0)
            };
            let a = run(&mut mf);
            let b = run(&mut mg);
            assert_eq!(a, b, "op {op:?}");
            assert_eq!(observed(&mf.metrics), observed(&mg.metrics), "op {op:?}");
        }
    }

    #[test]
    fn reduce_first_takes_lowest_pid_even_from_unsorted_pid_list() {
        let (mut mf, mut mg) = machines(WritePolicy::Arbitrary);
        let run = |m: &mut Machine| {
            let mut shm = Shm::new();
            let cell = shm.alloc("cell", 1, 0);
            let pids = vec![9usize, 2, 7, 30, 4];
            m.kernel_reduce(&mut shm, &pids, ReduceOp::First, cell, 0, |_, pid| {
                Some(pid as i64 * 100)
            });
            shm.get(cell, 0)
        };
        assert_eq!(run(&mut mf), 200);
        assert_eq!(run(&mut mg), 200);
    }

    #[test]
    fn reduce_with_no_contributors_commits_nothing() {
        let (mut mf, mut mg) = machines(WritePolicy::Arbitrary);
        let run = |m: &mut Machine| {
            let mut shm = Shm::new();
            let cell = shm.alloc("cell", 1, 42);
            m.kernel_reduce(&mut shm, 0..32, ReduceOp::Or, cell, 0, |_, _| None);
            shm.get(cell, 0)
        };
        assert_eq!(run(&mut mf), 42);
        assert_eq!(run(&mut mg), 42);
        assert_eq!(observed(&mf.metrics), observed(&mg.metrics));
        assert_eq!(mf.metrics.writes_committed, 0);
    }

    #[test]
    fn zero_processor_kernel_costs_a_step_but_no_work() {
        let mut m = Machine::new(3);
        let mut shm = Shm::new();
        let out = shm.alloc("out", 4, 0);
        m.kernel_map(&mut shm, 0..0, out, |_, pid| pid as i64);
        assert_eq!(m.metrics.steps, 1);
        assert_eq!(m.metrics.work, 0);
        assert_eq!(m.metrics.writes_buffered, 0);
    }

    #[test]
    fn parallel_fused_loops_match_sequential() {
        let n = (1 << 15) + 17; // over the fan-out threshold
        let run = |parallel: bool| {
            let mut m = Machine::new(5);
            if parallel {
                m.tuning.par_threshold = 0;
            } else {
                m.tuning.num_threads = Some(1);
            }
            let mut shm = Shm::new();
            let out = shm.alloc("out", n, 0);
            let acc = shm.alloc("acc", 1, 0);
            m.kernel_map(&mut shm, 0..n, out, |_, pid| (pid as i64).wrapping_mul(7));
            m.kernel_reduce(&mut shm, 0..n, ReduceOp::Sum, acc, 0, |t, pid| {
                Some(t.read(out, pid))
            });
            (shm.slice(out).to_vec(), shm.get(acc, 0))
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    #[should_panic(expected = "own output array")]
    fn reading_the_output_array_is_rejected() {
        let mut m = Machine::new(6);
        let mut shm = Shm::new();
        let out = shm.alloc("out", 8, 0);
        m.kernel_map(&mut shm, 0..8, out, |t, pid| t.read(out, pid) + 1);
    }

    #[test]
    #[should_panic(expected = "own output array")]
    fn generic_fallback_rejects_output_reads_identically() {
        let mut m = Machine::new(6);
        m.tuning.disable_kernels = true;
        let mut shm = Shm::new();
        let out = shm.alloc("out", 8, 0);
        m.kernel_map(&mut shm, 0..8, out, |t, pid| t.read(out, pid) + 1);
    }
}
