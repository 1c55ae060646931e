//! Cooperative cancellation and deadlines for simulated runs.
//!
//! The serving runtime (`ipch-service`) must be able to stop *any* PRAM
//! simulation — a hull, an LP probe, a compaction — the moment a request's
//! deadline expires or its client walks away, without waiting for the
//! algorithm to finish an unbounded number of steps. The PRAM model gives a
//! natural preemption point: the step boundary. A [`CancelToken`] installed
//! on a [`crate::Machine`] ([`crate::Machine::set_cancel_token`]) is polled
//!
//! * at the **entry of every synchronous step** ([`crate::Machine::step`]
//!   and every named [`crate::kernel`] shape built on it), *before* the
//!   step is recorded, and
//! * at **every chunk boundary** of the compute phase (a chunk is
//!   `machine::CHUNK` = 8192 virtual processors),
//!   on both the sequential loops and the parallel backend's pool waves —
//!   each lane polls the token as it claims a chunk, and once any lane
//!   observes expiry the remaining chunks are skipped, so even a single
//!   enormous kernel-shaped step aborts within roughly one chunk's worth of
//!   host work per lane. The unwind itself is raised only after the wave
//!   joins, so no pool worker ever outlives the state it borrows.
//!
//! When the poll observes expiry, the machine **unwinds** with the typed
//! payload [`CancelUnwind`] (via [`std::panic::panic_any`], so no error
//! message is formatted on the hot path). The unwind is designed to be
//! caught:
//!
//! * [`crate::supervise::supervise`] converts it to
//!   [`crate::RunError::Cancelled`] / [`crate::RunError::DeadlineExceeded`]
//!   and — unlike an ordinary attempt failure — returns immediately, with no
//!   retry and no fallback: the deadline covers the whole supervised run.
//! * The machine itself stays coherent across the unwind: its [`crate::Metrics`]
//!   reflect every step that committed (plus the compute work of a step
//!   aborted mid-compute, whose buffered writes are discarded un-committed),
//!   and they merge into a parent via [`crate::Metrics::absorb`] exactly
//!   like any child's. Shared memory handed to a cancelled run is left
//!   memory-safe and structurally intact, and its *contents* are exactly
//!   what the last committed step left: an aborted step writes nothing.
//!   Still, a cancelled run's memory must not be interpreted as a result —
//!   the run stopped part-way.
//!
//! A machine with no token installed pays one branch per step — the
//! determinism suites assert the no-token path is byte-identical to the
//! pre-cancellation simulator.
//!
//! Tokens are cheap to clone (an `Arc`), shared between the host that may
//! cancel and every machine (children inherit the parent's token, so a
//! deadline covers the entire machine tree), and monotone: once cancelled
//! or expired, always cancelled.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

/// Why a run was aborted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelCause {
    /// [`CancelToken::cancel`] was called (client disconnect, shed, admin).
    Cancelled,
    /// The token's deadline passed.
    DeadlineExceeded,
}

impl CancelCause {
    /// Stable wire code (matches [`crate::RunError::code`]).
    pub fn code(self) -> &'static str {
        match self {
            CancelCause::Cancelled => "cancelled",
            CancelCause::DeadlineExceeded => "deadline_exceeded",
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    cancelled: AtomicBool,
    /// Fixed at construction; `None` = no deadline, cancel-only.
    deadline: Option<Instant>,
}

/// A shared cancellation flag plus an optional deadline.
///
/// ```
/// use ipch_pram::{CancelToken, Machine, Shm};
/// use std::time::Duration;
///
/// let token = CancelToken::new();
/// let mut m = Machine::new(1);
/// m.set_cancel_token(token.clone());
/// let mut shm = Shm::new();
/// let a = shm.alloc("a", 8, 0);
/// m.step(&mut shm, 0..8, |ctx| ctx.write(a, ctx.pid, 1)); // runs normally
/// token.cancel();
/// let aborted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
///     m.step(&mut shm, 0..8, |ctx| ctx.write(a, ctx.pid, 2));
/// }));
/// assert!(aborted.is_err());
/// assert_eq!(m.metrics.steps, 1, "the cancelled step was never recorded");
/// ```
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token with no deadline; aborts only on [`CancelToken::cancel`].
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that expires `budget` from now.
    pub fn with_deadline(budget: Duration) -> Self {
        Self::deadline_at(Instant::now() + budget)
    }

    /// A token that expires at `at`.
    pub fn deadline_at(at: Instant) -> Self {
        Self {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Some(at),
            }),
        }
    }

    /// Trip the token. Monotone and idempotent; every machine polling this
    /// token aborts at its next poll point.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// True once [`CancelToken::cancel`] has been called (does not consult
    /// the deadline — use [`CancelToken::check`] for the full poll).
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
    }

    /// The deadline, if this token carries one.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// Time remaining until the deadline (`None` if no deadline; zero once
    /// past it).
    pub fn remaining(&self) -> Option<Duration> {
        self.inner
            .deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Poll: `Err(cause)` once the token is cancelled or past its deadline.
    /// An explicit cancel takes precedence over a passed deadline.
    #[inline]
    pub fn check(&self) -> Result<(), CancelCause> {
        if self.inner.cancelled.load(Ordering::Acquire) {
            return Err(CancelCause::Cancelled);
        }
        match self.inner.deadline {
            Some(d) if Instant::now() >= d => Err(CancelCause::DeadlineExceeded),
            _ => Ok(()),
        }
    }
}

/// The typed unwind payload of a cancelled simulation. Catch with
/// [`std::panic::catch_unwind`] and downcast; [`crate::supervise::supervise`]
/// does this for you and returns the matching [`crate::RunError`].
#[derive(Clone, Copy, Debug)]
pub struct CancelUnwind {
    /// Why the run aborted.
    pub cause: CancelCause,
}

/// Abort the current simulation with a typed [`CancelUnwind`] payload.
#[cold]
pub(crate) fn unwind(cause: CancelCause) -> ! {
    std::panic::panic_any(CancelUnwind { cause })
}

/// Install (once, process-wide) a panic hook that suppresses the default
/// "thread panicked" report for [`CancelUnwind`] payloads — cancellation is
/// control flow, not a bug — while delegating every other panic to the
/// previously installed hook. Idempotent; the serving runtime calls this on
/// construction so a busy service does not spray its stderr with expected
/// unwinds.
pub fn silence_cancel_unwinds() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<CancelUnwind>().is_none() {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::memory::Shm;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn caught_cause<T>(r: std::thread::Result<T>) -> CancelCause {
        match r {
            Err(payload) => {
                payload
                    .downcast_ref::<CancelUnwind>()
                    .expect("typed CancelUnwind payload")
                    .cause
            }
            Ok(_) => panic!("expected a cancel unwind"),
        }
    }

    #[test]
    fn fresh_token_passes_checks() {
        let t = CancelToken::new();
        assert!(t.check().is_ok());
        assert!(!t.is_cancelled());
        assert_eq!(t.deadline(), None);
        assert_eq!(t.remaining(), None);
    }

    #[test]
    fn cancel_is_monotone_and_shared() {
        let t = CancelToken::new();
        let u = t.clone();
        t.cancel();
        assert_eq!(u.check(), Err(CancelCause::Cancelled));
        assert_eq!(t.check(), Err(CancelCause::Cancelled));
    }

    #[test]
    fn expired_deadline_reports_deadline_exceeded() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        assert_eq!(t.check(), Err(CancelCause::DeadlineExceeded));
        assert_eq!(t.remaining(), Some(Duration::ZERO));
        // explicit cancel takes precedence in the cause
        t.cancel();
        assert_eq!(t.check(), Err(CancelCause::Cancelled));
    }

    #[test]
    fn far_deadline_passes() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(t.check().is_ok());
        assert!(t.remaining().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn step_aborts_at_the_next_step_boundary() {
        silence_cancel_unwinds();
        let token = CancelToken::new();
        let mut m = Machine::new(40);
        m.set_cancel_token(token.clone());
        let mut shm = Shm::new();
        let a = shm.alloc("a", 16, 0);
        for _ in 0..5 {
            m.step(&mut shm, 0..16, |ctx| {
                let v = ctx.read(a, ctx.pid);
                ctx.write(a, ctx.pid, v + 1);
            });
        }
        token.cancel();
        let r = catch_unwind(AssertUnwindSafe(|| {
            m.step(&mut shm, 0..16, |ctx| ctx.write(a, ctx.pid, 99));
        }));
        assert_eq!(caught_cause(r), CancelCause::Cancelled);
        // exactly the five completed steps are recorded; memory untouched by
        // the aborted step
        assert_eq!(m.metrics.steps, 5);
        assert_eq!(m.metrics.work, 80);
        assert!(shm.slice(a).iter().all(|&v| v == 5));
    }

    #[test]
    fn expired_deadline_stops_within_one_step_with_intact_metrics() {
        silence_cancel_unwinds();
        let mut m = Machine::new(41);
        m.set_cancel_token(CancelToken::with_deadline(Duration::ZERO));
        let mut shm = Shm::new();
        let a = shm.alloc("a", 8, 0);
        let r = catch_unwind(AssertUnwindSafe(|| {
            m.step(&mut shm, 0..8, |ctx| ctx.write(a, ctx.pid, 1));
        }));
        assert_eq!(caught_cause(r), CancelCause::DeadlineExceeded);
        assert_eq!(m.metrics.steps, 0, "no step may start past the deadline");
        // the machine is not poisoned: clearing the token resumes service
        m.clear_cancel_token();
        m.step(&mut shm, 0..8, |ctx| ctx.write(a, ctx.pid, 1));
        assert_eq!(m.metrics.steps, 1);
        assert_eq!(shm.slice(a), &[1; 8]);
    }

    #[test]
    fn kernels_poll_the_token_and_leave_shm_reattached() {
        silence_cancel_unwinds();
        let token = CancelToken::new();
        let mut m = Machine::new(42);
        m.set_cancel_token(token.clone());
        let mut shm = Shm::new();
        let xs = shm.alloc("xs", 64, 7);
        let out = shm.alloc("out", 64, 0);
        token.cancel();
        for kernel in 0..3 {
            let r = catch_unwind(AssertUnwindSafe(|| match kernel {
                0 => m.kernel_map(&mut shm, 0..64, out, |t, pid| t.read(xs, pid)),
                1 => m.kernel_scatter(&mut shm, 0..64, |_t, pid| Some((out, pid, 1))),
                _ => m.kernel_reduce(
                    &mut shm,
                    0..64,
                    crate::kernel::ReduceOp::Sum,
                    out,
                    0,
                    |t, pid| Some(t.read(xs, pid)),
                ),
            }));
            assert_eq!(caught_cause(r), CancelCause::Cancelled);
        }
        assert_eq!(m.metrics.steps, 0);
        // shared memory is structurally intact after the unwinds
        assert_eq!(shm.slice(out), &[0; 64]);
        m.clear_cancel_token();
        m.kernel_map(&mut shm, 0..64, out, |t, pid| t.read(xs, pid) * 2);
        assert_eq!(shm.slice(out), &[14; 64]);
    }

    #[test]
    fn children_inherit_the_token() {
        silence_cancel_unwinds();
        let token = CancelToken::new();
        let mut m = Machine::new(43);
        m.set_cancel_token(token.clone());
        let mut child = m.child(1);
        assert!(child.cancel_token().is_some());
        token.cancel();
        let mut shm = Shm::new();
        let a = shm.alloc("a", 4, 0);
        let r = catch_unwind(AssertUnwindSafe(|| {
            child.step(&mut shm, 0..4, |ctx| ctx.write(a, ctx.pid, 1));
        }));
        assert_eq!(caught_cause(r), CancelCause::Cancelled);
    }

    #[test]
    fn mid_kernel_cancellation_from_another_thread_is_typed_and_safe() {
        silence_cancel_unwinds();
        // Timing-dependent by nature: a worker cancels while a large
        // kernel runs chunk-by-chunk. Whichever way the race lands, the
        // outcome must be "completed" or "typed cancel with intact Shm" —
        // never a crash or a mangled machine.
        let token = CancelToken::new();
        let mut m = Machine::new(44);
        m.tuning.num_threads = Some(1); // chunk-granular poll path
        m.set_cancel_token(token.clone());
        let n = 1 << 18;
        let mut shm = Shm::new();
        let out = shm.alloc("out", n, 0);
        let t = token.clone();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_micros(200));
            t.cancel();
        });
        let r = catch_unwind(AssertUnwindSafe(|| {
            m.kernel_map(&mut shm, 0..n, out, |_t, pid| {
                (0..8).fold(pid as i64, |a, b| a.wrapping_mul(31).wrapping_add(b))
            });
        }));
        canceller.join().unwrap();
        if r.is_err() {
            assert_eq!(caught_cause(r), CancelCause::Cancelled);
        }
        // either way the machine and memory stay serviceable
        m.clear_cancel_token();
        m.kernel_map(&mut shm, 0..n, out, |_t, _pid| 5);
        assert!(shm.slice(out).iter().all(|&v| v == 5));
    }
}
