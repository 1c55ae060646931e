//! Chunk-boundary cancellation of a step whose chunks run on the pool, and
//! of a fork whose children run on the pool.
//!
//! Pinned-seed regression tests: a cancel tripped *inside* a running
//! multi-chunk kernel must abort at a chunk boundary with the typed
//! [`CancelUnwind`] payload (or [`RunError::Cancelled`] /
//! [`RunError::DeadlineExceeded`] through the supervisor), leave `Metrics`
//! intact (the aborted step is never recorded), leave shared memory exactly
//! as the last committed step left it, and leave the machine serviceable.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use ipch_pram::{
    silence_cancel_unwinds, supervise, CancelCause, CancelToken, CancelUnwind, Machine, RunError,
    Shm, SuperviseConfig, Tuning,
};

/// The kernel chunk size (`machine::CHUNK`); pinned here so the tests span
/// several chunk boundaries by construction.
const CHUNK: usize = 8192;

fn parallel_tuning(lanes: usize) -> Tuning {
    Tuning {
        par_threshold: 1,
        num_threads: Some(lanes),
        ..Tuning::default()
    }
}

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

/// A closure running under the parallel backend trips the token while the
/// kernel is mid-flight (first element of chunk 1 of 32). Later chunk
/// claims observe the flag, the wave drains, and the kernel unwinds typed —
/// with the aborted step never recorded, none of its writes in memory, and
/// the machine reusable.
#[test]
fn cancel_mid_parallel_kernel_aborts_typed_with_intact_metrics() {
    silence_cancel_unwinds();
    let token = CancelToken::new();
    let mut m = Machine::new(0xC0FFEE);
    m.tuning = parallel_tuning(2);
    m.set_cancel_token(token.clone());

    let n = 32 * CHUNK;
    let mut shm = Shm::new();
    let out = shm.alloc("out", n, 0);

    let t = token.clone();
    let r = catch_unwind(AssertUnwindSafe(|| {
        m.kernel_map(&mut shm, 0..n, out, move |_t, pid| {
            if pid == CHUNK {
                t.cancel();
            }
            pid as i64
        });
    }));
    assert_eq!(caught_cause(r), CancelCause::Cancelled);

    // Metrics intact: the aborted step's launch and compute work are
    // recorded (same as a generic step aborted mid-compute), but none of
    // its writes and no completed kernel step.
    assert_eq!(m.metrics.steps, 1);
    assert_eq!(m.metrics.work, n as u64);
    assert_eq!(m.metrics.kernel_steps, 0);
    assert_eq!(m.metrics.writes_buffered, 0);
    assert_eq!(m.metrics.writes_committed, 0);
    assert!(m.metrics.threads >= 1, "parallel dispatch records lane use");
    // Memory unchanged: the aborted step's log is discarded whole, so not
    // even the chunks that finished before the cancel reach `out`.
    assert!(
        shm.slice(out).iter().all(|&v| v == 0),
        "a cancelled step must leave memory untouched"
    );

    // The machine and memory stay serviceable after the unwind.
    m.clear_cancel_token();
    m.kernel_map(&mut shm, 0..n, out, |_t, _pid| 9);
    assert!(shm.slice(out).iter().all(|&v| v == 9));
    assert_eq!(m.metrics.steps, 2);
    assert_eq!(m.metrics.kernel_steps, 1);
    assert_eq!(m.metrics.writes_committed, n as u64);
}

/// Same shape for a deadline: the closure burns time until the token's
/// deadline passes, so a *chunk-boundary* poll (not the entry poll) is what
/// observes expiry — the unwind must carry `DeadlineExceeded`. The lane cap
/// is pinned to 1 (still the parallel backend's chunked dispatch) so chunk
/// order is deterministic: with a second lane free, it could drain every
/// remaining chunk while this one spins, leaving no boundary to poll.
#[test]
fn deadline_expiry_mid_parallel_kernel_is_typed() {
    silence_cancel_unwinds();
    let token = CancelToken::with_deadline(Duration::from_millis(20));
    let mut m = Machine::new(0xDEAD11);
    m.tuning = parallel_tuning(1);
    m.set_cancel_token(token.clone());

    let n = 16 * CHUNK;
    let mut shm = Shm::new();
    let out = shm.alloc("out", n, 0);

    let t = token.clone();
    let r = catch_unwind(AssertUnwindSafe(|| {
        m.kernel_map(&mut shm, 0..n, out, move |_t, pid| {
            if pid == CHUNK {
                // spin past the deadline inside the running chunk
                while t.check().is_ok() {
                    std::hint::spin_loop();
                }
            }
            pid as i64
        });
    }));
    assert_eq!(caught_cause(r), CancelCause::DeadlineExceeded);
    assert_eq!(m.metrics.steps, 1, "launch recorded, step never completed");
    assert_eq!(m.metrics.kernel_steps, 0);
    assert_eq!(m.metrics.writes_committed, 0);
}

/// Through the supervisor the same mid-kernel cancel surfaces as the typed
/// terminal [`RunError::Cancelled`] — no retry, no fallback — and the
/// deadline flavour as [`RunError::DeadlineExceeded`].
#[test]
fn supervisor_converts_mid_parallel_kernel_cancel_to_typed_run_error() {
    silence_cancel_unwinds();
    let token = CancelToken::new();
    let mut m = Machine::new(0x5EED);
    m.tuning = parallel_tuning(2);
    m.set_cancel_token(token.clone());

    let n = 8 * CHUNK;
    let attempts = AtomicUsize::new(0);
    let err = supervise(
        &mut m,
        "cancel-par-test",
        &SuperviseConfig::default(),
        |child| {
            attempts.fetch_add(1, Ordering::Relaxed);
            let mut shm = Shm::new();
            let out = shm.alloc("out", n, 0);
            let t = token.clone();
            child.kernel_map(&mut shm, 0..n, out, move |_t, pid| {
                if pid == CHUNK / 2 {
                    t.cancel();
                }
                pid as i64
            });
            Ok(shm.get(out, 0))
        },
        None,
    )
    .expect_err("cancelled run must not produce a value");
    assert!(
        matches!(err, RunError::Cancelled { .. }),
        "expected RunError::Cancelled, got {err:?}"
    );
    assert_eq!(
        attempts.load(Ordering::Relaxed),
        1,
        "cancellation is terminal: no retry, no fallback"
    );
}

/// A deadline that expires inside one child of a concurrent
/// `Machine::fork_join`: the child's next step entry unwinds, the fork
/// catches the unwind, folds the children up to it in item order and
/// re-raises the same typed payload — and through the supervisor it is the
/// typed terminal [`RunError::DeadlineExceeded`].
#[test]
fn deadline_expiry_inside_a_concurrent_fork_child_is_typed() {
    silence_cancel_unwinds();
    let fork = |m: &mut Machine, token: &CancelToken| {
        m.fork_join(
            0..4usize,
            |&i| i as u64,
            |child, i| {
                let mut shm = Shm::new();
                let a = shm.alloc("a", 64, 0);
                if i == 1 {
                    while token.check().is_ok() {
                        std::hint::spin_loop();
                    }
                }
                for _ in 0..3 {
                    child.step(&mut shm, 0..64, |ctx| ctx.write(a, ctx.pid, i as i64));
                }
                Ok::<_, RunError>(i)
            },
        )
    };

    let token = CancelToken::with_deadline(Duration::from_millis(20));
    let mut m = Machine::new(0xF0F0);
    m.tuning.num_threads = Some(2);
    m.set_cancel_token(token.clone());
    let r = catch_unwind(AssertUnwindSafe(|| fork(&mut m, &token)));
    assert_eq!(caught_cause(r), CancelCause::DeadlineExceeded);
    // the machine stays serviceable after the unwind
    m.clear_cancel_token();
    let mut shm = Shm::new();
    m.step(&mut shm, 0..1, |_| {});

    let token = CancelToken::with_deadline(Duration::from_millis(20));
    let mut m = Machine::new(0xF0F1);
    m.tuning.num_threads = Some(2);
    m.set_cancel_token(token.clone());
    let attempts = AtomicUsize::new(0);
    let err = supervise(
        &mut m,
        "cancel-fork-test",
        &SuperviseConfig::default(),
        |child| {
            attempts.fetch_add(1, Ordering::Relaxed);
            fork(child, &token)
        },
        None,
    )
    .expect_err("a run past its deadline must not produce a value");
    assert!(
        matches!(err, RunError::DeadlineExceeded { .. }),
        "expected RunError::DeadlineExceeded, got {err:?}"
    );
    assert_eq!(
        attempts.load(Ordering::Relaxed),
        1,
        "no retry after a deadline"
    );
}
