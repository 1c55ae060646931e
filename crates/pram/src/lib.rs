//! # ipch-pram — a step-synchronous randomized CRCW PRAM simulator
//!
//! This crate is the execution substrate for the reproduction of
//! Ghouse & Goodrich, *"In-Place Techniques for Parallel Convex Hull
//! Algorithms"* (SPAA 1991). The paper's results are stated on a randomized
//! CRCW PRAM: `p` synchronous processors sharing a memory in which
//! concurrent reads always succeed and concurrent writes to the same cell
//! are resolved by a model-defined rule.
//!
//! A physical CRCW PRAM does not exist; what the paper's theorems actually
//! talk about is *parallel time* (number of synchronous steps), *work*
//! (processor-steps), *processor count*, and *failure probability*. This
//! simulator measures exactly those quantities:
//!
//! * [`Machine::step`] executes one synchronous step: every active virtual
//!   processor computes against a snapshot of shared memory (all reads see
//!   the pre-step state), writes are collected, conflicts are resolved under
//!   the machine's [`WritePolicy`], and the step is committed atomically.
//! * [`kernel`] names the three step shapes that dominate the algorithms
//!   (map, scatter, reduce); each is one [`Machine::step`] whose closure
//!   returns its write.
//! * [`Metrics`] accumulates time, work and peak processor count, with a
//!   named per-phase breakdown, plus a separate "charged" bucket for costs
//!   accounted analytically (documented wherever used).
//! * [`primitives`] implements the O(1)-time leftmost non-zero
//!   (Eppstein–Galil, Observation 2.1) and [`prefix`] the O(log n) prefix
//!   sum used in Section 4.1 step 3, both as genuine sequences of
//!   [`Machine::step`]s so the accounting is honest.
//! * [`schedule`] implements the Matias–Vishkin processor-allocation
//!   accounting of the paper's Lemma 7.
//!
//! Randomness is deterministic and replayable: every processor derives a
//! per-(step, pid) RNG stream from the machine seed ([`rng::SplitMix64`]).
//!
//! ## Model fidelity notes
//!
//! * All reads within a step observe pre-step memory — the textbook
//!   synchronous PRAM semantics. This matters for, e.g., the collision
//!   detection rounds of the random-sample procedure (paper §3.1).
//! * The default conflict rule is `Arbitrary` (a seeded but unpredictable
//!   winner), the weakest common CRCW variant and the one the paper's
//!   sampling analysis needs. `PriorityMin` and the `Combine*` rules are
//!   available for primitives that are usually stated on stronger variants;
//!   every use site documents which rule it assumes.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod analyze;
pub mod cancel;
pub mod faults;
pub mod kernel;
pub mod machine;
pub mod memory;
pub mod metrics;
pub mod policy;
pub mod pool;
pub mod prefix;
pub mod primitives;
pub mod rng;
pub mod schedule;
pub mod sort;
pub mod supervise;

pub use analyze::{
    AnalysisReport, AnalyzeConfig, ModelClass, ModelContract, RaceExpectation, Violation,
    ViolationKind,
};
pub use cancel::{silence_cancel_unwinds, CancelCause, CancelToken, CancelUnwind};
pub use faults::{Budget, DropWindow, FaultCounters, FaultPlan, NoiseMode, NoisePlan, RngBias};
pub use kernel::ReduceOp;
pub use machine::{Ctx, Machine, Pids, Tuning};
pub use memory::{ArrayId, Shm, ShmError};
pub use metrics::{Metrics, PhaseRecord, ServiceStats};
pub use policy::WritePolicy;
pub use supervise::{
    attempt_machine, supervise, Fallback, Outcome, RunError, SuperviseConfig, Supervised,
    SupervisorStats,
};

/// The word type of simulated shared memory.
///
/// Everything the reproduced algorithms store in shared memory — point ids,
/// problem numbers, hull-edge ids, flags, workspace slots — fits an `i64`;
/// point *coordinates* live in read-only host arrays and are referenced by
/// id, exactly as the paper's in-place methods require ("without re-ordering
/// the input").
pub type Word = i64;

/// Sentinel for an empty shared-memory cell (the paper's "zero"/unoccupied).
pub const EMPTY: Word = -1;
