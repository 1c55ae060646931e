//! Las Vegas supervision: attempt → verify → retry → fall back.
//!
//! Every output-sensitive algorithm in the paper is Las Vegas: it is always
//! *checkable* (the hull certificates, pointer checks and LP feasibility
//! tests the crates already carry) and succeeds with high probability, so
//! the paper's own prescription for a failed randomized attempt is to detect
//! it and retry — and, should failures persist, to run the deterministic
//! worst-case algorithm instead. [`supervise`] packages that prescription as
//! a reusable state machine:
//!
//! 1. **Attempt** — run the randomized algorithm on a fresh child machine
//!    (new derived seed, so every retry re-randomizes; installed
//!    [`crate::faults::FaultPlan`]s are inherited, so injected faults keep
//!    applying). Panics inside the attempt are caught and converted to the
//!    typed [`RunError::Panic`] — under supervision a failure path is data,
//!    never a crash.
//! 2. **Verify** — the attempt closure returns `Err` when its certificate
//!    rejects the result ([`RunError::Verify`]) or an internal invariant
//!    fails ([`RunError::Invariant`]). An attempt whose machine tripped a
//!    fault-plane budget is voided to [`RunError::BudgetExhausted`] even if
//!    it produced a value: a run that exceeded its resource bound does not
//!    count, exactly like the paper's "restart if not finished in O(log n)
//!    steps" arguments.
//! 3. **Retry** — up to [`SuperviseConfig::max_attempts`] total attempts.
//!    Reseeding means transient failures (unlucky coin flips, injected RNG
//!    bias, corrupted cells) decorrelate across attempts, so a successful
//!    retry reports [`Outcome::Retried`].
//! 4. **Fallback** — when every attempt failed, the deterministic
//!    non-output-sensitive algorithm (folklore hull, brute-force LP, …)
//!    runs instead and the result reports [`Outcome::FellBack`]. A fault
//!    that is a deterministic function of the plan (a budget bound the
//!    algorithm always exceeds) defeats every retry and lands here.
//!
//! The supervisor's contract — asserted algorithm-by-algorithm in the chaos
//! suite — is that under *any* installed fault plan the caller receives a
//! certificate-verified value or a typed [`RunError`]: never a silently
//! wrong answer, never a panic.
//!
//! All supervision costs (every attempt's metrics, including the failed
//! ones) are absorbed into the supervising machine, and the counters in
//! [`SupervisorStats`] land in [`crate::Metrics::supervisor`].

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::cancel::{CancelCause, CancelUnwind};
use crate::machine::Machine;
use crate::rng::mix64;

/// Typed failure of a supervised run. The supervisor converts the
/// algorithms' former panicking failure paths into these.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// Every randomized attempt failed and no fallback was available (or
    /// the fallback itself failed with `last`).
    AttemptsExhausted {
        /// Name of the supervised algorithm.
        algorithm: &'static str,
        /// Total attempts made.
        attempts: u32,
        /// The last attempt's failure.
        last: Box<RunError>,
    },
    /// The result certificate rejected an attempt's output.
    Verify {
        /// Name of the supervised algorithm.
        algorithm: &'static str,
        /// What the certificate rejected.
        detail: String,
    },
    /// An internal invariant of the algorithm failed (e.g. a subproblem
    /// that its failure sweep could not solve).
    Invariant {
        /// Name of the supervised algorithm.
        algorithm: &'static str,
        /// Which invariant failed.
        detail: String,
    },
    /// The attempt's machine tripped a fault-plane step/work budget
    /// ([`crate::faults::Budget`]).
    BudgetExhausted {
        /// Name of the supervised algorithm.
        algorithm: &'static str,
    },
    /// The attempt's shared memory exceeded its declared workspace budget
    /// ([`crate::Shm::set_workspace_budget`]): more live workspace cells
    /// than the bounded-workspace (read-only / O(s) scratch) contract
    /// allows. Non-terminal: retries may escalate the scratch parameter,
    /// and the deterministic fallback runs unbounded.
    WorkspaceExceeded {
        /// Name of the supervised algorithm.
        algorithm: &'static str,
        /// The declared budget, in cells.
        budget: u64,
        /// The measured peak live cells of the voided attempt.
        peak: u64,
    },
    /// The attempt panicked; the payload message is preserved.
    Panic {
        /// Name of the supervised algorithm.
        algorithm: &'static str,
        /// The panic payload, when it was a string.
        detail: String,
    },
    /// The run was cancelled by its [`crate::CancelToken`] (client
    /// disconnect, shed, admin). Terminal: the supervisor neither retries
    /// nor falls back — the cancellation covers the whole request.
    Cancelled {
        /// Name of the supervised algorithm.
        algorithm: &'static str,
    },
    /// The run's deadline expired mid-flight. Terminal like `Cancelled`.
    DeadlineExceeded {
        /// Name of the supervised algorithm.
        algorithm: &'static str,
    },
    /// The input was rejected before any attempt ran (NaN/infinite
    /// coordinates, duplicate points where the algorithm forbids them, …).
    /// Terminal: retrying cannot repair a malformed input.
    InvalidInput {
        /// Name of the supervised algorithm.
        algorithm: &'static str,
        /// What the validator rejected.
        detail: String,
    },
}

impl RunError {
    /// Name of the algorithm the error originated in.
    pub fn algorithm(&self) -> &'static str {
        match self {
            RunError::AttemptsExhausted { algorithm, .. }
            | RunError::Verify { algorithm, .. }
            | RunError::Invariant { algorithm, .. }
            | RunError::BudgetExhausted { algorithm }
            | RunError::WorkspaceExceeded { algorithm, .. }
            | RunError::Panic { algorithm, .. }
            | RunError::Cancelled { algorithm }
            | RunError::DeadlineExceeded { algorithm }
            | RunError::InvalidInput { algorithm, .. } => algorithm,
        }
    }

    /// Stable machine-readable code for wire serialization and logs.
    /// Contract: codes never change once shipped; new variants add new
    /// codes.
    pub fn code(&self) -> &'static str {
        match self {
            RunError::AttemptsExhausted { .. } => "attempts_exhausted",
            RunError::Verify { .. } => "verify_failed",
            RunError::Invariant { .. } => "invariant_failed",
            RunError::BudgetExhausted { .. } => "budget_exhausted",
            RunError::WorkspaceExceeded { .. } => "workspace_exceeded",
            RunError::Panic { .. } => "panic",
            RunError::Cancelled { .. } => "cancelled",
            RunError::DeadlineExceeded { .. } => "deadline_exceeded",
            RunError::InvalidInput { .. } => "invalid_input",
        }
    }

    /// Shorthand for a typed input rejection (entry points validate before
    /// touching a machine).
    pub fn invalid_input(algorithm: &'static str, detail: impl std::fmt::Display) -> RunError {
        RunError::InvalidInput {
            algorithm,
            detail: detail.to_string(),
        }
    }

    /// The [`RunError`] matching a cancellation cause.
    pub fn from_cancel(algorithm: &'static str, cause: CancelCause) -> RunError {
        match cause {
            CancelCause::Cancelled => RunError::Cancelled { algorithm },
            CancelCause::DeadlineExceeded => RunError::DeadlineExceeded { algorithm },
        }
    }

    /// True for errors the supervisor treats as terminal: no retry, no
    /// fallback (cancellation covers the whole request; a malformed input
    /// stays malformed).
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            RunError::Cancelled { .. }
                | RunError::DeadlineExceeded { .. }
                | RunError::InvalidInput { .. }
        )
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::AttemptsExhausted {
                algorithm,
                attempts,
                last,
            } => write!(
                f,
                "{algorithm}: all {attempts} attempts failed; last: {last}"
            ),
            RunError::Verify { algorithm, detail } => {
                write!(f, "{algorithm}: certificate rejected result: {detail}")
            }
            RunError::Invariant { algorithm, detail } => {
                write!(f, "{algorithm}: invariant failed: {detail}")
            }
            RunError::BudgetExhausted { algorithm } => {
                write!(f, "{algorithm}: step/work budget exhausted")
            }
            RunError::WorkspaceExceeded {
                algorithm,
                budget,
                peak,
            } => write!(
                f,
                "{algorithm}: workspace budget exceeded: peak {peak} live cells > budget {budget}"
            ),
            RunError::Panic { algorithm, detail } => {
                write!(f, "{algorithm}: attempt panicked: {detail}")
            }
            RunError::Cancelled { algorithm } => {
                write!(f, "{algorithm}: run cancelled")
            }
            RunError::DeadlineExceeded { algorithm } => {
                write!(f, "{algorithm}: deadline exceeded")
            }
            RunError::InvalidInput { algorithm, detail } => {
                write!(f, "{algorithm}: invalid input: {detail}")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// How a supervised run obtained its value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The first randomized attempt succeeded (the w.h.p. case).
    FirstTry,
    /// Success after `k` failed attempts (the value is the retry count).
    Retried(u32),
    /// Every randomized attempt failed; the deterministic fallback produced
    /// the value.
    FellBack,
}

/// Supervision knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SuperviseConfig {
    /// Maximum randomized attempts before falling back. The default 3 makes
    /// a per-attempt failure probability `q` an overall `q^3` — for the
    /// paper's `q = O(1/n^c)` bounds, far below any practical horizon.
    pub max_attempts: u32,
}

impl Default for SuperviseConfig {
    fn default() -> Self {
        Self { max_attempts: 3 }
    }
}

/// A supervised run's value plus its provenance.
#[derive(Clone, Debug)]
pub struct Supervised<T> {
    /// The verified result.
    pub value: T,
    /// How it was obtained.
    pub outcome: Outcome,
    /// Total attempts made (fallback not counted).
    pub attempts: u32,
    /// The typed failures of every unsuccessful attempt, in order.
    pub errors: Vec<RunError>,
}

/// Supervisor counters, kept in [`crate::Metrics::supervisor`]. Host
/// observability: every fold of one [`crate::Metrics`] into another sums
/// them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SupervisorStats {
    /// Supervised runs started.
    pub runs: u64,
    /// Randomized attempts launched (≥ `runs`).
    pub attempts: u64,
    /// Attempts beyond each run's first.
    pub retries: u64,
    /// Runs that degraded to the deterministic fallback.
    pub fallbacks: u64,
    /// Attempts rejected by a result certificate.
    pub verify_failures: u64,
    /// Attempts that panicked (caught and typed).
    pub panics_caught: u64,
    /// Attempts voided by a tripped fault-plane budget.
    pub budget_aborts: u64,
    /// Attempts voided by a tripped workspace budget
    /// ([`RunError::WorkspaceExceeded`]).
    pub workspace_aborts: u64,
    /// Runs aborted by a [`crate::CancelToken`] (explicit cancel or
    /// deadline expiry); such runs end immediately — no retry, no fallback.
    pub cancellations: u64,
}

impl SupervisorStats {
    /// Fold another counter set into this one (used by the metrics absorbs).
    pub(crate) fn absorb(&mut self, other: &SupervisorStats) {
        self.runs += other.runs;
        self.attempts += other.attempts;
        self.retries += other.retries;
        self.fallbacks += other.fallbacks;
        self.verify_failures += other.verify_failures;
        self.panics_caught += other.panics_caught;
        self.budget_aborts += other.budget_aborts;
        self.workspace_aborts += other.workspace_aborts;
        self.cancellations += other.cancellations;
    }
}

/// Child-machine tag base for supervised attempts (mixed with the attempt
/// number, so every retry reseeds).
const ATTEMPT_TAG: u64 = 0x5AFE_0000_A77E_3071;
/// Child-machine tag for the deterministic fallback run.
const FALLBACK_TAG: u64 = 0x5AFE_0000_FA11_BACC;

/// The exact machine attempt `k` of a supervised run on `m` would execute
/// on. For apples-to-apples measurement (and debugging a specific retry):
/// running an algorithm directly on `attempt_machine(m, 0)` consumes the
/// same random streams as the supervisor's first attempt, so any timing
/// difference against the supervised call is pure supervision overhead
/// (`catch_unwind`, the certificate, metrics absorb).
pub fn attempt_machine(m: &Machine, k: u32) -> Machine {
    m.child(ATTEMPT_TAG ^ mix64(k as u64))
}

/// The deterministic give-up path of a supervised run: run after every
/// randomized attempt failed, on its own child machine, with any budget
/// fault cleared (see [`supervise`]).
pub type Fallback<'a, T> = Option<&'a mut dyn FnMut(&mut Machine) -> Result<T, RunError>>;

/// Run `attempt` under Las Vegas supervision on `m` (see the module docs
/// for the state machine). Each attempt receives a fresh child machine —
/// derived seed, inherited fault plan — and must return the verified value
/// or a typed [`RunError`]; panics are caught and typed. After
/// [`SuperviseConfig::max_attempts`] failures, `fallback` (the
/// deterministic algorithm) runs on its own child machine; without one, the
/// caller gets [`RunError::AttemptsExhausted`].
///
/// All attempts' metrics (successful or not) are absorbed into `m`
/// sequentially — supervision models one processor group retrying, not
/// parallel speculation.
pub fn supervise<T>(
    m: &mut Machine,
    algorithm: &'static str,
    cfg: &SuperviseConfig,
    mut attempt: impl FnMut(&mut Machine) -> Result<T, RunError>,
    mut fallback: Fallback<'_, T>,
) -> Result<Supervised<T>, RunError> {
    m.metrics.supervisor.runs += 1;
    let mut errors: Vec<RunError> = Vec::new();

    for k in 0..cfg.max_attempts {
        // Cancellation before launching (or relaunching): a request whose
        // deadline expired between attempts must not burn another attempt.
        if let Some(cause) = m.cancel_token().and_then(|t| t.check().err()) {
            m.metrics.supervisor.cancellations += 1;
            return Err(RunError::from_cancel(algorithm, cause));
        }
        m.metrics.supervisor.attempts += 1;
        if k > 0 {
            m.metrics.supervisor.retries += 1;
        }
        let mut child = m.child(ATTEMPT_TAG ^ mix64(k as u64));
        let caught = catch_unwind(AssertUnwindSafe(|| attempt(&mut child)));
        // The attempt's work happened whether or not it succeeded; the
        // budget latch must be read before the child's counters merge in.
        let budget_tripped = child.metrics.faults.budget_exhaustions > 0;
        m.metrics.absorb(&child.metrics);
        let result = match caught {
            Ok(r) => r,
            Err(payload) => {
                // A cancellation unwind is control flow, not a failed
                // attempt: the child's partial metrics are already merged
                // (the absorb above), and the run ends now — retrying a
                // cancelled request would defeat the deadline.
                if let Some(cu) = payload.downcast_ref::<CancelUnwind>() {
                    m.metrics.supervisor.cancellations += 1;
                    return Err(RunError::from_cancel(algorithm, cu.cause));
                }
                m.metrics.supervisor.panics_caught += 1;
                Err(RunError::Panic {
                    algorithm,
                    detail: panic_message(&*payload),
                })
            }
        };
        let result = match result {
            Ok(_) if budget_tripped => Err(RunError::BudgetExhausted { algorithm }),
            other => other,
        };
        match result {
            Ok(value) => {
                return Ok(Supervised {
                    value,
                    outcome: if k == 0 {
                        Outcome::FirstTry
                    } else {
                        Outcome::Retried(k)
                    },
                    attempts: k + 1,
                    errors,
                });
            }
            Err(e) => {
                // Terminal errors end the run at once: no further attempt
                // can change a cancelled request or a malformed input.
                if e.is_terminal() {
                    if matches!(
                        e,
                        RunError::Cancelled { .. } | RunError::DeadlineExceeded { .. }
                    ) {
                        m.metrics.supervisor.cancellations += 1;
                    }
                    return Err(e);
                }
                match &e {
                    RunError::Verify { .. } => m.metrics.supervisor.verify_failures += 1,
                    RunError::BudgetExhausted { .. } => m.metrics.supervisor.budget_aborts += 1,
                    RunError::WorkspaceExceeded { .. } => {
                        m.metrics.supervisor.workspace_aborts += 1
                    }
                    _ => {}
                }
                errors.push(e);
            }
        }
    }

    let exhausted = || RunError::AttemptsExhausted {
        algorithm,
        attempts: cfg.max_attempts,
        last: Box::new(errors.last().cloned().unwrap_or(RunError::Invariant {
            algorithm,
            detail: "no attempts were permitted".into(),
        })),
    };

    match fallback.as_mut() {
        None => Err(exhausted()),
        Some(fb) => {
            m.metrics.supervisor.fallbacks += 1;
            let mut child = m.child(FALLBACK_TAG);
            // The budget fault models the Las Vegas time bound ("restart if
            // not done in O(log n) steps"); the deterministic fallback *is*
            // the give-up path, so it runs unbudgeted. Every other injected
            // fault still applies — a corrupted fallback result is caught by
            // the caller's certificate and surfaces as a typed error.
            if let Some(fs) = child.faults.as_mut() {
                fs.plan.budget = None;
            }
            let caught = catch_unwind(AssertUnwindSafe(|| fb(&mut child)));
            m.metrics.absorb(&child.metrics);
            match caught {
                Ok(Ok(value)) => Ok(Supervised {
                    value,
                    outcome: Outcome::FellBack,
                    attempts: cfg.max_attempts,
                    errors,
                }),
                Ok(Err(e)) => Err(e),
                Err(payload) => {
                    if let Some(cu) = payload.downcast_ref::<CancelUnwind>() {
                        m.metrics.supervisor.cancellations += 1;
                        return Err(RunError::from_cancel(algorithm, cu.cause));
                    }
                    m.metrics.supervisor.panics_caught += 1;
                    Err(RunError::Panic {
                        algorithm,
                        detail: panic_message(&*payload),
                    })
                }
            }
        }
    }
}

/// Extract a printable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{Budget, FaultPlan};
    use crate::memory::Shm;

    fn count_to(m: &mut Machine, steps: usize) -> i64 {
        let mut shm = Shm::new();
        let a = shm.alloc("a", 1, 0);
        for _ in 0..steps {
            m.step(&mut shm, 0..1, |ctx| {
                let v = ctx.read(a, 0);
                ctx.write(a, 0, v + 1);
            });
        }
        shm.get(a, 0)
    }

    #[test]
    fn first_try_success() {
        let mut m = Machine::new(1);
        let out = supervise(
            &mut m,
            "count",
            &SuperviseConfig::default(),
            |child| Ok(count_to(child, 4)),
            None,
        )
        .unwrap();
        assert_eq!(out.value, 4);
        assert_eq!(out.outcome, Outcome::FirstTry);
        assert_eq!(out.attempts, 1);
        assert!(out.errors.is_empty());
        // the attempt's steps were absorbed into the supervising machine
        assert_eq!(m.metrics.steps, 4);
        assert_eq!(m.metrics.supervisor.runs, 1);
        assert_eq!(m.metrics.supervisor.attempts, 1);
        assert_eq!(m.metrics.supervisor.retries, 0);
    }

    #[test]
    fn transient_failures_are_retried() {
        let mut m = Machine::new(2);
        let mut tries = 0;
        let out = supervise(
            &mut m,
            "flaky",
            &SuperviseConfig::default(),
            |child| {
                tries += 1;
                let v = count_to(child, 1);
                if tries < 3 {
                    Err(RunError::Verify {
                        algorithm: "flaky",
                        detail: format!("attempt {tries} rejected"),
                    })
                } else {
                    Ok(v)
                }
            },
            None,
        )
        .unwrap();
        assert_eq!(out.outcome, Outcome::Retried(2));
        assert_eq!(out.attempts, 3);
        assert_eq!(out.errors.len(), 2);
        assert_eq!(m.metrics.steps, 3, "failed attempts' work still counts");
        assert_eq!(m.metrics.supervisor.retries, 2);
        assert_eq!(m.metrics.supervisor.verify_failures, 2);
    }

    #[test]
    fn attempt_seeds_differ_across_retries() {
        let mut m = Machine::new(3);
        let mut seeds = Vec::new();
        let _ = supervise(
            &mut m,
            "seeds",
            &SuperviseConfig::default(),
            |child| -> Result<(), RunError> {
                seeds.push(child.seed());
                Err(RunError::Invariant {
                    algorithm: "seeds",
                    detail: "always fails".into(),
                })
            },
            None,
        );
        assert_eq!(seeds.len(), 3);
        assert_ne!(seeds[0], seeds[1]);
        assert_ne!(seeds[1], seeds[2]);
        assert_ne!(seeds[0], seeds[2]);
    }

    #[test]
    fn exhaustion_falls_back_to_deterministic() {
        let mut m = Machine::new(4);
        let out = supervise(
            &mut m,
            "hopeless",
            &SuperviseConfig::default(),
            |_child| -> Result<i64, RunError> {
                Err(RunError::Verify {
                    algorithm: "hopeless",
                    detail: "never valid".into(),
                })
            },
            Some(&mut |child: &mut Machine| Ok(count_to(child, 2))),
        )
        .unwrap();
        assert_eq!(out.value, 2);
        assert_eq!(out.outcome, Outcome::FellBack);
        assert_eq!(out.errors.len(), 3);
        assert_eq!(m.metrics.supervisor.fallbacks, 1);
    }

    #[test]
    fn exhaustion_without_fallback_is_typed() {
        let mut m = Machine::new(5);
        let err = supervise(
            &mut m,
            "hopeless",
            &SuperviseConfig { max_attempts: 2 },
            |_child| -> Result<i64, RunError> {
                Err(RunError::Invariant {
                    algorithm: "hopeless",
                    detail: "x".into(),
                })
            },
            None,
        )
        .unwrap_err();
        match err {
            RunError::AttemptsExhausted {
                algorithm,
                attempts,
                last,
            } => {
                assert_eq!(algorithm, "hopeless");
                assert_eq!(attempts, 2);
                assert!(matches!(*last, RunError::Invariant { .. }));
            }
            other => panic!("expected AttemptsExhausted, got {other}"),
        }
    }

    #[test]
    fn panics_are_caught_and_typed() {
        let mut m = Machine::new(6);
        let mut tries = 0;
        let out = supervise(
            &mut m,
            "panicky",
            &SuperviseConfig::default(),
            |child| {
                tries += 1;
                if tries == 1 {
                    panic!("injected panic for the supervisor to catch");
                }
                Ok(count_to(child, 1))
            },
            None,
        )
        .unwrap();
        assert_eq!(out.outcome, Outcome::Retried(1));
        assert!(matches!(&out.errors[0], RunError::Panic { detail, .. }
            if detail.contains("injected panic")));
        assert_eq!(m.metrics.supervisor.panics_caught, 1);
    }

    #[test]
    fn budget_exhaustion_voids_the_attempt_and_falls_back() {
        let mut m = Machine::new(7);
        m.install_faults(FaultPlan {
            budget: Some(Budget {
                max_steps: 2,
                max_work: u64::MAX,
            }),
            ..FaultPlan::default()
        });
        // The attempt "succeeds" but needs 5 steps — over budget every time
        // (the budget is a function of the plan, so retries cannot help) —
        // while the 2-step fallback fits.
        let out = supervise(
            &mut m,
            "over-budget",
            &SuperviseConfig::default(),
            |child| Ok(count_to(child, 5)),
            Some(&mut |child: &mut Machine| Ok(count_to(child, 2))),
        )
        .unwrap();
        assert_eq!(out.value, 2);
        assert_eq!(out.outcome, Outcome::FellBack);
        assert!(out
            .errors
            .iter()
            .all(|e| matches!(e, RunError::BudgetExhausted { .. })));
        assert_eq!(m.metrics.supervisor.budget_aborts, 3);
        assert_eq!(m.metrics.faults.budget_exhaustions, 3);
    }

    #[test]
    fn cancellation_mid_attempt_is_typed_terminal_and_keeps_partial_metrics() {
        crate::cancel::silence_cancel_unwinds();
        let token = crate::CancelToken::new();
        let mut m = Machine::new(20);
        m.set_cancel_token(token.clone());
        let out = supervise(
            &mut m,
            "cancel-me",
            &SuperviseConfig::default(),
            |child| {
                // three steps succeed, then the client walks away
                let v = count_to(child, 3);
                token.cancel();
                count_to(child, 5); // unwinds at the next step boundary
                Ok(v)
            },
            Some(&mut |child: &mut Machine| Ok(count_to(child, 1))),
        );
        assert!(matches!(
            out,
            Err(RunError::Cancelled {
                algorithm: "cancel-me"
            })
        ));
        // terminal: one attempt, no retry, no fallback — and the cancelled
        // attempt's partial work is still accounted
        assert_eq!(m.metrics.supervisor.attempts, 1);
        assert_eq!(m.metrics.supervisor.fallbacks, 0);
        assert_eq!(m.metrics.supervisor.cancellations, 1);
        assert_eq!(m.metrics.steps, 3);
    }

    #[test]
    fn expired_deadline_skips_the_attempt_entirely() {
        let mut m = Machine::new(21);
        m.set_cancel_token(crate::CancelToken::with_deadline(std::time::Duration::ZERO));
        let mut launched = false;
        let out = supervise(
            &mut m,
            "late",
            &SuperviseConfig::default(),
            |child| {
                launched = true;
                Ok(count_to(child, 1))
            },
            Some(&mut |child: &mut Machine| Ok(count_to(child, 1))),
        );
        assert!(matches!(out, Err(RunError::DeadlineExceeded { .. })));
        assert!(!launched, "no attempt may launch past the deadline");
        assert_eq!(m.metrics.supervisor.attempts, 0);
        assert_eq!(m.metrics.supervisor.cancellations, 1);
    }

    #[test]
    fn invalid_input_is_terminal_without_retries() {
        let mut m = Machine::new(22);
        let mut tries = 0u32;
        let out = supervise(
            &mut m,
            "picky",
            &SuperviseConfig::default(),
            |_child| -> Result<(), RunError> {
                tries += 1;
                Err(RunError::invalid_input("picky", "NaN at index 3"))
            },
            Some(&mut |_child: &mut Machine| Ok(())),
        );
        assert!(matches!(out, Err(RunError::InvalidInput { .. })));
        assert_eq!(tries, 1, "malformed input must not be retried");
        assert_eq!(m.metrics.supervisor.fallbacks, 0);
    }

    /// Pinned-seed regression (ISSUE 5 satellite): a child cancelled mid-run
    /// must still deliver its `faults` and `supervisor` counters to the
    /// parent through the absorb that precedes the supervisor's unwind
    /// handling.
    #[test]
    fn absorb_preserves_fault_and_supervisor_counters_across_cancellation() {
        crate::cancel::silence_cancel_unwinds();
        let token = crate::CancelToken::new();
        let mut m = Machine::new(0xC0FF_EE00_0005);
        m.install_faults(FaultPlan {
            corrupt_rate: 1.0, // one corrupted cell per executed step
            ..FaultPlan::default()
        });
        m.set_cancel_token(token.clone());
        let out = supervise(
            &mut m,
            "corrupted-and-cancelled",
            &SuperviseConfig::default(),
            |child| {
                // a nested supervised run bumps the child's own supervisor
                // counters, which must also survive the cancellation
                let nested = supervise(
                    child,
                    "nested",
                    &SuperviseConfig::default(),
                    |gc| Ok(count_to(gc, 2)),
                    None,
                )?;
                assert_eq!(nested.outcome, Outcome::FirstTry);
                token.cancel();
                count_to(child, 5); // unwinds
                Ok(())
            },
            None,
        );
        assert!(matches!(out, Err(RunError::Cancelled { .. })));
        // the nested run executed 2 steps with corrupt_rate 1.0 before the
        // cancel; its fault events and supervisor counters reached the root
        assert_eq!(m.metrics.supervisor.runs, 2, "root + nested");
        assert_eq!(m.metrics.supervisor.attempts, 2);
        assert_eq!(m.metrics.supervisor.cancellations, 1);
        assert_eq!(m.metrics.steps, 2);
        assert_eq!(
            m.metrics.faults.corrupted_cells, 2,
            "fault counters of the cancelled subtree must merge"
        );
    }

    #[test]
    fn error_codes_are_stable() {
        let cases: Vec<(RunError, &str)> = vec![
            (
                RunError::AttemptsExhausted {
                    algorithm: "a",
                    attempts: 3,
                    last: Box::new(RunError::BudgetExhausted { algorithm: "a" }),
                },
                "attempts_exhausted",
            ),
            (
                RunError::Verify {
                    algorithm: "a",
                    detail: String::new(),
                },
                "verify_failed",
            ),
            (
                RunError::Invariant {
                    algorithm: "a",
                    detail: String::new(),
                },
                "invariant_failed",
            ),
            (
                RunError::BudgetExhausted { algorithm: "a" },
                "budget_exhausted",
            ),
            (
                RunError::WorkspaceExceeded {
                    algorithm: "a",
                    budget: 64,
                    peak: 65,
                },
                "workspace_exceeded",
            ),
            (
                RunError::Panic {
                    algorithm: "a",
                    detail: String::new(),
                },
                "panic",
            ),
            (RunError::Cancelled { algorithm: "a" }, "cancelled"),
            (
                RunError::DeadlineExceeded { algorithm: "a" },
                "deadline_exceeded",
            ),
            (
                RunError::InvalidInput {
                    algorithm: "a",
                    detail: String::new(),
                },
                "invalid_input",
            ),
        ];
        for (e, code) in &cases {
            assert_eq!(e.code(), *code);
            // every error renders through Display and the std Error trait
            let dyn_err: &dyn std::error::Error = e;
            assert!(!dyn_err.to_string().is_empty());
        }
        let codes: std::collections::HashSet<_> = cases.iter().map(|(e, _)| e.code()).collect();
        assert_eq!(codes.len(), cases.len(), "codes are distinct");
    }

    #[test]
    fn supervised_machine_with_faults_disabled_matches_direct_call() {
        // Overhead check at the semantic level: the child's simulated costs
        // absorb into the parent unchanged.
        let mut direct = Machine::new(8);
        let direct_v = count_to(&mut direct, 6);

        let mut sup = Machine::new(8);
        let out = supervise(
            &mut sup,
            "direct",
            &SuperviseConfig::default(),
            |child| Ok(count_to(child, 6)),
            None,
        )
        .unwrap();
        assert_eq!(out.value, direct_v);
        assert_eq!(sup.metrics.steps, direct.metrics.steps);
        assert_eq!(sup.metrics.work, direct.metrics.work);
    }
}
