//! Static (pre-execution) verification of step plans: symbolic bounds
//! proofs and PRAM-class derivation over affine index expressions.
//!
//! The dynamic analyzer ([`crate::analyze`]) proves EREW/CREW/CRCW
//! contracts by shadow-tracing every read and write at 1.4–2x runtime
//! cost. But the paper's in-place algorithms have *statically knowable*
//! access structure for most of their steps: each synchronous step maps
//! processor `pid` to a fixed set of cells through expressions that are
//! affine in `pid` and the active-set size `n` (`a·pid + b·n + c`,
//! optionally floor-divided by a constant). This module checks those
//! shapes symbolically, before a single step executes:
//!
//! * **Bounds** — every [`IndexSet::Exact`] access is affine and therefore
//!   monotone in `pid`, so in-bounds over the whole active range follows
//!   from the two endpoint evaluations; [`IndexSet::Within`] accesses
//!   carry explicit data-independent bounds. A provably out-of-range plan
//!   is rejected with [`VerifyError::OutOfBoundsPlan`] — the same class of
//!   index-map bug Ó Dúnlaing's CUDA port of Wagener's hull hit only at
//!   kernel-launch time.
//! * **Model class** — each step's access sets are classified into the
//!   weakest PRAM variant that could execute them, tracking separately
//!   what is *proven* (a collision must occur) and what is merely
//!   *possible* (a data-dependent scatter that cannot be proven
//!   exclusive). The proven class exceeding the declared
//!   [`ModelContract`] is a hard [`VerifyError::ContractViolation`]; a
//!   merely-possible exceedance falls back to the dynamic analyzer
//!   ([`Verdict::NeedsDynamic`]) unless the caller disables the escape
//!   hatch, in which case it surfaces as [`VerifyError::UnknownShape`].
//! * **Race severity** — proven write collisions must be admitted by the
//!   contract's [`RaceExpectation`]; uniform-value elections ("everyone
//!   writes 1") are recognised as benign, anything else is bounded by the
//!   step's [`WritePolicy`].
//!
//! Plans are hand-authored summaries of each paper entry point's step
//! structure (see the `verify_plan()` constructors next to every
//! `*_CONTRACT`), verified at a concrete input size `n` in microseconds —
//! zero steady-state overhead, which is why the serving runtime runs this
//! at admission time for every request (`ServiceStats::static_rejects`).
//!
//! Shapes the symbolic model cannot express — pointer-jump chains, index
//! arrays computed by earlier steps — are declared [`IndexSet::Opaque`]
//! and explicitly routed to the dynamic analyzer rather than silently
//! assumed safe.

use crate::analyze::{ModelClass, ModelContract, RaceExpectation};
use crate::policy::WritePolicy;

/// A symbolic index expression
/// `(pid·pid_coef + n·n_coef + n²·n2_coef + n³·n3_coef + k) / div`
/// (floor division, `div ≥ 1`) over the processor id and the active-set
/// size. Linear (affine) in `pid` — which makes it monotone in `pid`, the
/// property endpoint bounds checking rests on — with low-degree
/// polynomial terms in `n` for the paper's super-linear processor oracles
/// (Observation 2.3 runs on n³ processors over an n² pair space).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Affine {
    /// Coefficient of `pid`.
    pub pid_coef: i64,
    /// Coefficient of the active-set size `n`.
    pub n_coef: i64,
    /// Coefficient of `n²`.
    pub n2_coef: i64,
    /// Coefficient of `n³`.
    pub n3_coef: i64,
    /// Constant term.
    pub k: i64,
    /// Constant floor divisor (`≥ 1`).
    pub div: i64,
}

impl Affine {
    const ZERO: Affine = Affine {
        pid_coef: 0,
        n_coef: 0,
        n2_coef: 0,
        n3_coef: 0,
        k: 0,
        div: 1,
    };

    /// The identity expression `pid`.
    pub const fn pid() -> Self {
        Affine {
            pid_coef: 1,
            ..Self::ZERO
        }
    }

    /// The active-set size `n`.
    pub const fn n() -> Self {
        Affine {
            n_coef: 1,
            ..Self::ZERO
        }
    }

    /// The pair space `n²`.
    pub const fn n2() -> Self {
        Affine {
            n2_coef: 1,
            ..Self::ZERO
        }
    }

    /// The triple space `n³`.
    pub const fn n3() -> Self {
        Affine {
            n3_coef: 1,
            ..Self::ZERO
        }
    }

    /// A constant.
    pub const fn k(c: i64) -> Self {
        Affine { k: c, ..Self::ZERO }
    }

    /// General form `a·pid + b·n + c`.
    pub const fn of(a: i64, b: i64, c: i64) -> Self {
        Affine {
            pid_coef: a,
            n_coef: b,
            k: c,
            ..Self::ZERO
        }
    }

    /// Add a constant (applied before the divisor).
    pub const fn plus(self, c: i64) -> Self {
        Affine {
            k: self.k + c,
            ..self
        }
    }

    /// Subtract a constant (applied before the divisor).
    pub const fn minus(self, c: i64) -> Self {
        self.plus(-c)
    }

    /// Add another expression (only valid while both divisors are 1).
    pub const fn add(self, other: Affine) -> Self {
        assert!(self.div == 1 && other.div == 1, "add before dividing");
        Affine {
            pid_coef: self.pid_coef + other.pid_coef,
            n_coef: self.n_coef + other.n_coef,
            n2_coef: self.n2_coef + other.n2_coef,
            n3_coef: self.n3_coef + other.n3_coef,
            k: self.k + other.k,
            div: 1,
        }
    }

    /// Scale every coefficient (only valid before a divisor is applied).
    pub const fn times(self, f: i64) -> Self {
        assert!(self.div == 1, "scale before dividing");
        Affine {
            pid_coef: self.pid_coef * f,
            n_coef: self.n_coef * f,
            n2_coef: self.n2_coef * f,
            n3_coef: self.n3_coef * f,
            k: self.k * f,
            div: 1,
        }
    }

    /// Floor-divide by a positive constant.
    pub const fn over(self, d: i64) -> Self {
        assert!(d >= 1, "divisor must be positive");
        Affine {
            div: self.div * d,
            ..self
        }
    }

    /// Evaluate at a concrete `(pid, n)`; i128 keeps any authored plan far
    /// from overflow.
    pub fn eval(&self, pid: i64, n: i64) -> i128 {
        let n = n as i128;
        let raw = pid as i128 * self.pid_coef as i128
            + n * self.n_coef as i128
            + n * n * self.n2_coef as i128
            + n * n * n * self.n3_coef as i128
            + self.k as i128;
        raw.div_euclid(self.div as i128)
    }

    /// True when the expression does not mention `pid` (array lengths and
    /// processor counts must be pid-free).
    pub fn is_pid_free(&self) -> bool {
        self.pid_coef == 0
    }

    /// `(min, max)` over `pid ∈ [0, procs)` at size `n` (monotone in
    /// `pid`, so the endpoints suffice). `procs ≥ 1`.
    fn range(&self, procs: i64, n: i64) -> (i128, i128) {
        let a = self.eval(0, n);
        let b = self.eval(procs - 1, n);
        (a.min(b), a.max(b))
    }

    /// Distinct active pids always map to distinct indices: a non-zero
    /// `pid` coefficient whose magnitude clears the floor divisor.
    fn injective(&self) -> bool {
        self.pid_coef != 0 && self.pid_coef.abs() >= self.div
    }

    fn render(&self) -> String {
        let mut core = format!("{}*pid + {}*n", self.pid_coef, self.n_coef);
        if self.n2_coef != 0 {
            core.push_str(&format!(" + {}*n^2", self.n2_coef));
        }
        if self.n3_coef != 0 {
            core.push_str(&format!(" + {}*n^3", self.n3_coef));
        }
        core.push_str(&format!(" + {}", self.k));
        if self.div == 1 {
            core
        } else {
            format!("({core})/{}", self.div)
        }
    }
}

/// The set of indices one access touches as `pid` ranges over the active
/// set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexSet {
    /// Every active `pid` touches exactly `expr(pid, n)`.
    Exact(Affine),
    /// Data-dependent per pid, but provably inside `[lo(n), hi(n)]`
    /// (inclusive, pid-free bounds). Bounds are checkable; exclusivity is
    /// not, so contested classes fall back to the dynamic analyzer.
    Within {
        /// Inclusive lower bound (pid-free).
        lo: Affine,
        /// Inclusive upper bound (pid-free).
        hi: Affine,
    },
    /// Whole-array bulk read ([`crate::Ctx::slice`]). Reads only.
    All,
    /// Statically unknowable (pointer-jump chains, indirection through
    /// cells written by earlier steps). Routes the step to the dynamic
    /// analyzer.
    Opaque,
}

/// What a write access stores, as far as the plan can promise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteValue {
    /// Any two writers of this access that hit the same cell in one step
    /// write identical values (the concurrent-OR "everyone writes 1"
    /// shape, or "everyone marking group g writes g") — collisions inside
    /// the access are benign same-value races.
    Uniform,
    /// Values may differ between writers.
    Varies,
}

/// One read access of a step plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadAccess {
    /// Handle returned by [`AlgorithmPlan::array`].
    pub array: usize,
    /// Indices read.
    pub index: IndexSet,
}

/// One write access of a step plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WriteAccess {
    /// Handle returned by [`AlgorithmPlan::array`].
    pub array: usize,
    /// Indices written.
    pub index: IndexSet,
    /// Value promise (drives race-severity derivation).
    pub value: WriteValue,
}

/// One synchronous step (or a round-template executed any number of
/// times — repeated rounds share a shape, and shapes verified at the
/// maximal active-set size cover every smaller round).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepPlan {
    /// Label for error reports (`"claim"`, `"scatter"`, …).
    pub label: &'static str,
    /// Active-set size as a pid-free expression of `n`; `pid` ranges over
    /// `0..procs(n)` (negative evaluations clamp to zero).
    pub procs: Affine,
    /// Conflict-resolution rule of the step.
    pub policy: WritePolicy,
    /// Read accesses.
    pub reads: Vec<ReadAccess>,
    /// Write accesses.
    pub writes: Vec<WriteAccess>,
}

impl StepPlan {
    /// A step with no accesses yet.
    pub fn new(label: &'static str, procs: Affine, policy: WritePolicy) -> Self {
        Self {
            label,
            procs,
            policy,
            reads: Vec::new(),
            writes: Vec::new(),
        }
    }

    /// Add a read access (builder style).
    pub fn read(mut self, array: usize, index: IndexSet) -> Self {
        self.reads.push(ReadAccess { array, index });
        self
    }

    /// Add a write access whose values may differ between writers.
    pub fn write(mut self, array: usize, index: IndexSet) -> Self {
        self.writes.push(WriteAccess {
            array,
            index,
            value: WriteValue::Varies,
        });
        self
    }

    /// Add a write access whose writers all store one identical value.
    pub fn write_uniform(mut self, array: usize, index: IndexSet) -> Self {
        self.writes.push(WriteAccess {
            array,
            index,
            value: WriteValue::Uniform,
        });
        self
    }
}

/// A shared-memory array the plan steps against, with a pid-free symbolic
/// length.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArrayDecl {
    /// Debug name (matches the `Shm::alloc` name of the real run).
    pub name: &'static str,
    /// Length as an expression of `n` (negative evaluations clamp to 0).
    pub len: Affine,
}

/// The symbolic step structure of one algorithm entry point: its declared
/// contract, the arrays it allocates, and the shapes of its steps.
/// Constructed by the `verify_plan()` functions that live next to each
/// entry point's `*_CONTRACT`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AlgorithmPlan {
    /// The declared model envelope being statically checked.
    pub contract: ModelContract,
    /// Arrays, indexed by the handles [`AlgorithmPlan::array`] returns.
    pub arrays: Vec<ArrayDecl>,
    /// Step templates in program order.
    pub steps: Vec<StepPlan>,
}

impl AlgorithmPlan {
    /// An empty plan for `contract`.
    pub fn new(contract: ModelContract) -> Self {
        Self {
            contract,
            arrays: Vec::new(),
            steps: Vec::new(),
        }
    }

    /// Declare an array; the returned handle names it in accesses.
    pub fn array(&mut self, name: &'static str, len: Affine) -> usize {
        self.arrays.push(ArrayDecl { name, len });
        self.arrays.len() - 1
    }

    /// Append a step template.
    pub fn step(&mut self, step: StepPlan) {
        self.steps.push(step);
    }

    /// Append the arrays and steps of `sub`, the plan of a subroutine this
    /// entry point runs on at most `n` of its own inputs. Shapes verified
    /// at the caller's `n` cover the smaller subroutine sizes, so the
    /// class derived for the combined plan bounds the whole run.
    pub fn include(&mut self, sub: AlgorithmPlan) {
        let base = self.arrays.len();
        self.arrays.extend(sub.arrays);
        for mut step in sub.steps {
            step.reads.iter_mut().for_each(|r| r.array += base);
            step.writes.iter_mut().for_each(|w| w.array += base);
            self.steps.push(step);
        }
    }
}

/// Typed failure of a static plan check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// An access is provably out of its array's bounds at this `n`.
    OutOfBoundsPlan {
        /// Algorithm the plan belongs to.
        algorithm: &'static str,
        /// Step label.
        step: &'static str,
        /// Array name.
        array: &'static str,
        /// Index range vs length.
        detail: String,
    },
    /// The plan provably needs a stronger model (or stronger races) than
    /// its contract declares.
    ContractViolation {
        /// Algorithm the plan belongs to.
        algorithm: &'static str,
        /// Step label.
        step: &'static str,
        /// Derived-vs-declared specifics.
        detail: String,
    },
    /// The plan has shapes the symbolic model cannot decide and the
    /// caller disabled the fall-back-to-dynamic escape hatch.
    UnknownShape {
        /// Algorithm the plan belongs to.
        algorithm: &'static str,
        /// Step label.
        step: &'static str,
        /// What was undecidable.
        detail: String,
    },
}

impl VerifyError {
    /// Algorithm the rejected plan belongs to.
    pub fn algorithm(&self) -> &'static str {
        match self {
            VerifyError::OutOfBoundsPlan { algorithm, .. }
            | VerifyError::ContractViolation { algorithm, .. }
            | VerifyError::UnknownShape { algorithm, .. } => algorithm,
        }
    }

    /// Stable machine-readable code (joins the [`crate::RunError::code`]
    /// string table through [`crate::RunError::PlanRejected`]).
    pub fn code(&self) -> &'static str {
        match self {
            VerifyError::OutOfBoundsPlan { .. } => "plan_out_of_bounds",
            VerifyError::ContractViolation { .. } => "plan_contract_violation",
            VerifyError::UnknownShape { .. } => "plan_unknown_shape",
        }
    }
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::OutOfBoundsPlan {
                algorithm,
                step,
                array,
                detail,
            } => write!(
                f,
                "{algorithm}: step `{step}` indexes `{array}` out of bounds: {detail}"
            ),
            VerifyError::ContractViolation {
                algorithm,
                step,
                detail,
            } => write!(
                f,
                "{algorithm}: step `{step}` violates the declared contract: {detail}"
            ),
            VerifyError::UnknownShape {
                algorithm,
                step,
                detail,
            } => write!(
                f,
                "{algorithm}: step `{step}` is not statically decidable: {detail}"
            ),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Checker knobs.
#[derive(Clone, Copy, Debug)]
pub struct VerifyConfig {
    /// When a plan contains shapes the symbolic model cannot decide
    /// (opaque indices, unprovable exclusivity), report
    /// [`Verdict::NeedsDynamic`] instead of failing with
    /// [`VerifyError::UnknownShape`]. On by default: the dynamic analyzer
    /// is the designed escape hatch.
    pub allow_dynamic_fallback: bool,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        Self {
            allow_dynamic_fallback: true,
        }
    }
}

/// The checker's overall judgement of a plan at one input size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Every step's bounds and model class were proven consistent with
    /// the contract symbolically; no dynamic tracing is needed.
    VerifiedStatic,
    /// Bounds hold and nothing provably violates the contract, but some
    /// shapes (listed in [`StaticReport::dynamic_reasons`]) can only be
    /// confirmed by the dynamic analyzer.
    NeedsDynamic,
}

/// Result of a successful static check (errors are [`VerifyError`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StaticReport {
    /// Algorithm checked.
    pub algorithm: &'static str,
    /// Input size the symbolic expressions were evaluated at.
    pub n: usize,
    /// Step templates checked.
    pub steps_checked: usize,
    /// Individual accesses bounds-checked.
    pub accesses_checked: usize,
    /// Weakest PRAM class that provably occurs (lower bound).
    pub proven: ModelClass,
    /// Weakest PRAM class that could occur (upper bound; what the
    /// contract is compared against).
    pub derived: ModelClass,
    /// Strongest race severity that could occur.
    pub derived_races: RaceExpectation,
    /// Overall judgement.
    pub verdict: Verdict,
    /// Why the plan needs the dynamic analyzer (empty when
    /// [`Verdict::VerifiedStatic`]).
    pub dynamic_reasons: Vec<String>,
}

/// Severity lattice shared with the dynamic analyzer's census.
fn race_of(policy: WritePolicy, uniform: bool) -> RaceExpectation {
    if uniform {
        RaceExpectation::SameValue
    } else if policy == WritePolicy::Arbitrary {
        RaceExpectation::SeedDependent
    } else {
        RaceExpectation::Deterministic
    }
}

/// Per-step scratch: what concurrency was proven / possible.
#[derive(Default)]
struct StepClassing {
    read_proven: bool,
    read_possible: bool,
    write_proven: bool,
    write_possible: bool,
    /// Strongest severity over possible collisions.
    races_possible: Option<RaceExpectation>,
    /// Bounds could not be proven (opaque shapes) — always needs the
    /// dynamic analyzer.
    dynamic_reasons: Vec<String>,
    /// Bounds hold but exclusivity is unproven — only needs the dynamic
    /// analyzer if the resulting upper bound exceeds the contract
    /// (a contested write under a contract that already admits CRCW at
    /// that race severity has nothing left to confirm).
    contention_reasons: Vec<String>,
}

impl StepClassing {
    fn bump_races(&mut self, r: RaceExpectation) {
        self.races_possible = Some(match self.races_possible {
            Some(cur) => cur.max(r),
            None => r,
        });
    }
}

/// Statically verify `plan` at input size `n`.
///
/// `Ok` carries a [`StaticReport`] whose [`Verdict`] says whether the
/// check was complete or needs the dynamic analyzer; `Err` is a typed
/// rejection the caller can surface before running any step.
pub fn verify(
    plan: &AlgorithmPlan,
    n: usize,
    cfg: &VerifyConfig,
) -> Result<StaticReport, VerifyError> {
    let alg = plan.contract.algorithm;
    let nn: i64 = i64::try_from(n).map_err(|_| VerifyError::UnknownShape {
        algorithm: alg,
        step: "<plan>",
        detail: format!("input size {n} exceeds the symbolic domain"),
    })?;

    // Plan well-formedness: lengths and processor counts must be pid-free,
    // accesses must name declared arrays. These are authoring bugs, typed
    // rather than panicking so a service precheck can never take the
    // process down.
    for a in &plan.arrays {
        if !a.len.is_pid_free() {
            return Err(VerifyError::UnknownShape {
                algorithm: alg,
                step: "<arrays>",
                detail: format!("array `{}` length mentions pid", a.name),
            });
        }
    }

    let mut proven = ModelClass::Erew;
    let mut possible = ModelClass::Erew;
    let mut races = RaceExpectation::Forbidden;
    let mut accesses_checked = 0usize;
    let mut dynamic_reasons: Vec<String> = Vec::new();
    let mut contention_reasons: Vec<String> = Vec::new();

    for step in &plan.steps {
        if !step.procs.is_pid_free() {
            return Err(VerifyError::UnknownShape {
                algorithm: alg,
                step: step.label,
                detail: "active-set size mentions pid".into(),
            });
        }
        let procs = step.procs.eval(0, nn).max(0);
        if procs == 0 {
            continue; // no active processors, no accesses
        }
        let procs = i64::try_from(procs).unwrap_or(i64::MAX);

        let mut cls = StepClassing::default();

        // --- bounds + within-access classification ---------------------
        for (is_write, array, index, value) in step
            .reads
            .iter()
            .map(|r| (false, r.array, r.index, WriteValue::Varies))
            .chain(
                step.writes
                    .iter()
                    .map(|w| (true, w.array, w.index, w.value)),
            )
        {
            let decl = plan.arrays.get(array).ok_or(VerifyError::UnknownShape {
                algorithm: alg,
                step: step.label,
                detail: "access names an undeclared array".into(),
            })?;
            let len = decl.len.eval(0, nn).max(0);
            accesses_checked += 1;
            let uniform = value == WriteValue::Uniform;
            match index {
                IndexSet::Exact(e) => {
                    let (lo, hi) = e.range(procs, nn);
                    if lo < 0 || hi >= len {
                        return Err(VerifyError::OutOfBoundsPlan {
                            algorithm: alg,
                            step: step.label,
                            array: decl.name,
                            detail: format!(
                                "{} spans [{lo}, {hi}] over pid in 0..{procs} at n={n}, \
                                 but len({}) = {len}",
                                e.render(),
                                decl.name
                            ),
                        });
                    }
                    if e.pid_coef == 0 && procs >= 2 {
                        // all active pids hit one cell
                        if is_write {
                            cls.write_proven = true;
                            cls.bump_races(race_of(step.policy, uniform));
                        } else {
                            cls.read_proven = true;
                        }
                    } else if !e.injective() && procs >= 2 {
                        // floor divisor folds neighbouring pids together;
                        // collisions are likely but depend on the constant
                        // term, so keep this merely possible.
                        if is_write {
                            cls.write_possible = true;
                            cls.bump_races(race_of(step.policy, uniform));
                            cls.contention_reasons.push(format!(
                                "step `{}`: write {} folds pids by /{} — exclusivity \
                                 unproven",
                                step.label,
                                e.render(),
                                e.div
                            ));
                        } else {
                            cls.read_possible = true;
                        }
                    }
                }
                IndexSet::Within { lo, hi } => {
                    if !lo.is_pid_free() || !hi.is_pid_free() {
                        return Err(VerifyError::UnknownShape {
                            algorithm: alg,
                            step: step.label,
                            detail: "Within bounds mention pid".into(),
                        });
                    }
                    let l = lo.eval(0, nn);
                    let h = hi.eval(0, nn);
                    if h < l {
                        continue; // empty index set
                    }
                    if l < 0 || h >= len {
                        return Err(VerifyError::OutOfBoundsPlan {
                            algorithm: alg,
                            step: step.label,
                            array: decl.name,
                            detail: format!(
                                "declared range [{l}, {h}] at n={n}, but len({}) = {len}",
                                decl.name
                            ),
                        });
                    }
                    if procs >= 2 {
                        // bounds hold; which pid hits which cell is data-
                        // dependent, so exclusivity falls to the analyzer.
                        if is_write {
                            cls.write_possible = true;
                            cls.bump_races(race_of(step.policy, uniform));
                            cls.contention_reasons.push(format!(
                                "step `{}`: data-dependent scatter into `{}` — \
                                 exclusivity unproven",
                                step.label, decl.name
                            ));
                        } else {
                            cls.read_possible = true;
                        }
                    }
                }
                IndexSet::All => {
                    if is_write {
                        return Err(VerifyError::UnknownShape {
                            algorithm: alg,
                            step: step.label,
                            detail: "whole-array writes are not a plannable shape".into(),
                        });
                    }
                    if procs >= 2 && len >= 1 {
                        cls.read_proven = true;
                    }
                }
                IndexSet::Opaque => {
                    if is_write {
                        cls.write_possible = true;
                        cls.bump_races(race_of(step.policy, uniform));
                    } else {
                        cls.read_possible = true;
                    }
                    cls.dynamic_reasons.push(format!(
                        "step `{}`: opaque {} of `{}` — bounds and exclusivity \
                         fall to the dynamic analyzer",
                        step.label,
                        if is_write { "write" } else { "read" },
                        decl.name
                    ));
                }
            }
        }

        // --- cross-access overlap (same array, same direction) ---------
        classify_cross(&mut cls, step, procs, nn, false);
        classify_cross(&mut cls, step, procs, nn, true);

        // --- fold into run-level lattices ------------------------------
        let step_proven = if cls.write_proven {
            ModelClass::Crcw
        } else if cls.read_proven {
            ModelClass::Crew
        } else {
            ModelClass::Erew
        };
        let step_possible = if cls.write_proven || cls.write_possible {
            ModelClass::Crcw
        } else if cls.read_proven || cls.read_possible {
            ModelClass::Crew
        } else {
            ModelClass::Erew
        };
        proven = proven.max(step_proven);
        possible = possible.max(step_possible);

        // A proven collision proves *a race happens* (≥ SameValue); its
        // exact severity still depends on runtime values, so the hard
        // contract check uses SameValue and the severity upper bound goes
        // through the possible lattice.
        if cls.write_proven && plan.contract.races < RaceExpectation::SameValue {
            return Err(VerifyError::ContractViolation {
                algorithm: alg,
                step: step.label,
                detail: format!(
                    "a write collision provably occurs, but the contract forbids \
                     concurrent writes (races {:?})",
                    plan.contract.races
                ),
            });
        }
        if step_proven > plan.contract.class {
            return Err(VerifyError::ContractViolation {
                algorithm: alg,
                step: step.label,
                detail: format!(
                    "step provably needs {step_proven}, contract declares {}",
                    plan.contract.class
                ),
            });
        }
        if let Some(r) = cls.races_possible {
            races = races.max(r);
        }
        dynamic_reasons.append(&mut cls.dynamic_reasons);
        contention_reasons.append(&mut cls.contention_reasons);
    }

    // Possible-but-unproven exceedances are exactly what the dynamic
    // analyzer exists for. Contention whose worst case the contract
    // already admits is *not* an exceedance — the check is "could this
    // plan need more than declared", not "do we know exactly what
    // happens".
    let class_exceeds = possible > plan.contract.class;
    let races_exceed = races > plan.contract.races;
    if class_exceeds || races_exceed {
        dynamic_reasons.append(&mut contention_reasons);
    }
    if class_exceeds {
        dynamic_reasons.push(format!(
            "derived class upper bound {possible} exceeds declared {} — needs \
             dynamic confirmation",
            plan.contract.class
        ));
    }
    if races_exceed {
        dynamic_reasons.push(format!(
            "derived race upper bound {races:?} exceeds declared {:?} — needs \
             dynamic confirmation",
            plan.contract.races
        ));
    }

    let verdict = if dynamic_reasons.is_empty() {
        Verdict::VerifiedStatic
    } else if cfg.allow_dynamic_fallback {
        Verdict::NeedsDynamic
    } else {
        return Err(VerifyError::UnknownShape {
            algorithm: alg,
            step: "<plan>",
            detail: dynamic_reasons.join("; "),
        });
    };

    Ok(StaticReport {
        algorithm: alg,
        n,
        steps_checked: plan.steps.len(),
        accesses_checked,
        proven,
        derived: possible,
        derived_races: races,
        verdict,
        dynamic_reasons,
    })
}

/// Cross-access overlap census: two accesses of the same direction on the
/// same array whose index sets can land two *distinct* pids on one cell.
fn classify_cross(cls: &mut StepClassing, step: &StepPlan, procs: i64, nn: i64, writes: bool) {
    let idx_of = |i: usize| -> (usize, IndexSet, WriteValue) {
        if writes {
            let w = &step.writes[i];
            (w.array, w.index, w.value)
        } else {
            let r = &step.reads[i];
            (r.array, r.index, WriteValue::Varies)
        }
    };
    let count = if writes {
        step.writes.len()
    } else {
        step.reads.len()
    };
    for i in 0..count {
        for j in (i + 1)..count {
            let (ai, ei, _) = idx_of(i);
            let (aj, ej, _) = idx_of(j);
            if ai != aj {
                continue;
            }
            let overlap = match (ei, ej) {
                (IndexSet::Exact(a), IndexSet::Exact(b)) => exact_overlap(a, b, procs, nn),
                // All-reads overlap every other read of the array; with a
                // second reader that is proven concurrency (handled within
                // the All access when procs >= 2), and with one processor
                // there is no concurrency at all.
                (IndexSet::All, _) | (_, IndexSet::All) => {
                    if procs >= 2 {
                        Overlap::Proven
                    } else {
                        Overlap::None
                    }
                }
                (IndexSet::Opaque, _)
                | (_, IndexSet::Opaque)
                | (IndexSet::Within { .. }, _)
                | (_, IndexSet::Within { .. }) => Overlap::Possible,
            };
            match overlap {
                Overlap::None => {}
                Overlap::Proven => {
                    if writes {
                        cls.write_proven = true;
                        // cross-access values are independent expressions,
                        // so uniformity cannot be assumed
                        cls.bump_races(race_of(step.policy, false));
                    } else {
                        cls.read_proven = true;
                    }
                }
                Overlap::Possible => {
                    if writes {
                        cls.write_possible = true;
                        cls.bump_races(race_of(step.policy, false));
                        cls.contention_reasons.push(format!(
                            "step `{}`: write accesses {i} and {j} may overlap",
                            step.label
                        ));
                    } else {
                        cls.read_possible = true;
                    }
                }
            }
        }
    }
}

enum Overlap {
    None,
    Possible,
    Proven,
}

/// Can `a(pid_i) == b(pid_j)` for distinct active `pid_i != pid_j`?
fn exact_overlap(a: Affine, b: Affine, procs: i64, nn: i64) -> Overlap {
    if procs < 2 {
        return Overlap::None;
    }
    // Disjoint images can never collide.
    let (alo, ahi) = a.range(procs, nn);
    let (blo, bhi) = b.range(procs, nn);
    if ahi < blo || bhi < alo {
        return Overlap::None;
    }
    if a.div == 1 && b.div == 1 && a.pid_coef == b.pid_coef {
        let p = a.pid_coef;
        let delta = (b.n_coef - a.n_coef) as i128 * nn as i128 + (b.k - a.k) as i128;
        if p == 0 {
            // two shared cells: both are hit by *every* pid, so they
            // collide across pids exactly when they are the same cell
            return if delta == 0 {
                Overlap::Proven
            } else {
                Overlap::None
            };
        }
        // a(i) == b(j) ⟺ p·(i − j) == delta: a collision needs the shift
        // d = delta / p to be integral, non-zero, and inside the active
        // range.
        if delta % p as i128 != 0 {
            return Overlap::None;
        }
        let d = delta / p as i128;
        return if d != 0 && d.unsigned_abs() < procs as u128 {
            Overlap::Proven
        } else {
            Overlap::None
        };
    }
    // Images intersect but the stride structure differs: collisions are
    // data-position-dependent. Conservatively possible.
    Overlap::Possible
}

/// Verify many plans at one size (the registry sweep the verify suite and
/// the bench use). Stops at the first error.
pub fn verify_all(
    plans: &[AlgorithmPlan],
    n: usize,
    cfg: &VerifyConfig,
) -> Result<Vec<StaticReport>, VerifyError> {
    plans.iter().map(|p| verify(p, n, cfg)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{ModelClass, ModelContract, RaceExpectation};

    const CRCW_DET: ModelContract = ModelContract {
        algorithm: "test/crcw",
        class: ModelClass::Crcw,
        races: RaceExpectation::Deterministic,
    };
    const EREW: ModelContract = ModelContract {
        algorithm: "test/erew",
        class: ModelClass::Erew,
        races: RaceExpectation::Forbidden,
    };
    const CREW: ModelContract = ModelContract {
        algorithm: "test/crew",
        class: ModelClass::Crew,
        races: RaceExpectation::Forbidden,
    };

    fn check(plan: &AlgorithmPlan, n: usize) -> Result<StaticReport, VerifyError> {
        verify(plan, n, &VerifyConfig::default())
    }

    #[test]
    fn disjoint_scatter_is_verified_erew() {
        let mut p = AlgorithmPlan::new(EREW);
        let a = p.array("a", Affine::n());
        p.step(
            StepPlan::new("scatter", Affine::n(), WritePolicy::Arbitrary)
                .write(a, IndexSet::Exact(Affine::pid())),
        );
        let r = check(&p, 1024).unwrap();
        assert_eq!(r.verdict, Verdict::VerifiedStatic);
        assert_eq!(r.proven, ModelClass::Erew);
        assert_eq!(r.derived, ModelClass::Erew);
    }

    #[test]
    fn included_subroutine_raises_the_derived_class() {
        // An EREW-shaped caller that runs a CRCW election subroutine: the
        // combined plan derives CRCW, and the subroutine's accesses keep
        // pointing at its own arrays.
        let mut p = AlgorithmPlan::new(CRCW_DET);
        let a = p.array("a", Affine::n());
        p.step(
            StepPlan::new("scatter", Affine::n(), WritePolicy::Arbitrary)
                .write(a, IndexSet::Exact(Affine::pid())),
        );
        assert_eq!(check(&p, 64).unwrap().derived, ModelClass::Erew);
        let mut sub = AlgorithmPlan::new(CRCW_DET);
        let win = sub.array("win", Affine::k(1));
        sub.step(
            StepPlan::new("elect", Affine::n(), WritePolicy::PriorityMin)
                .write(win, IndexSet::Exact(Affine::k(0))),
        );
        p.include(sub);
        assert_eq!(p.arrays[1].name, "win");
        assert_eq!(p.steps[1].writes[0].array, 1);
        assert_eq!(check(&p, 64).unwrap().derived, ModelClass::Crcw);
    }

    #[test]
    fn neighbour_read_rotation_is_erew() {
        // pid reads a[pid+1], writes a[pid]: reads and writes each stay
        // exclusive (the read access and write access overlap, but reads
        // see the pre-step snapshot — read-write overlap is not
        // concurrency in the step-synchronous model).
        let mut p = AlgorithmPlan::new(EREW);
        let a = p.array("a", Affine::n().plus(1));
        p.step(
            StepPlan::new("rotate", Affine::n(), WritePolicy::Arbitrary)
                .read(a, IndexSet::Exact(Affine::pid().plus(1)))
                .write(a, IndexSet::Exact(Affine::pid())),
        );
        let r = check(&p, 64).unwrap();
        assert_eq!(r.verdict, Verdict::VerifiedStatic);
        assert_eq!(r.derived, ModelClass::Erew);
    }

    #[test]
    fn shifted_double_read_is_proven_crew() {
        // pid reads a[pid] and a[pid+1]: cell c is read by pid c and c-1.
        let mut p = AlgorithmPlan::new(CREW);
        let a = p.array("a", Affine::n().plus(1));
        let out = p.array("out", Affine::n());
        p.step(
            StepPlan::new("pairs", Affine::n(), WritePolicy::Arbitrary)
                .read(a, IndexSet::Exact(Affine::pid()))
                .read(a, IndexSet::Exact(Affine::pid().plus(1)))
                .write(out, IndexSet::Exact(Affine::pid())),
        );
        let r = check(&p, 64).unwrap();
        assert_eq!(r.proven, ModelClass::Crew);
        assert_eq!(r.verdict, Verdict::VerifiedStatic);
    }

    #[test]
    fn broadcast_read_is_proven_crew() {
        let mut p = AlgorithmPlan::new(CREW);
        let cell = p.array("cell", Affine::k(1));
        let out = p.array("out", Affine::n());
        p.step(
            StepPlan::new("bcast", Affine::n(), WritePolicy::Arbitrary)
                .read(cell, IndexSet::Exact(Affine::k(0)))
                .write(out, IndexSet::Exact(Affine::pid())),
        );
        let r = check(&p, 16).unwrap();
        assert_eq!(r.proven, ModelClass::Crew);
        assert_eq!(r.verdict, Verdict::VerifiedStatic);
    }

    #[test]
    fn election_write_is_proven_crcw() {
        let mut p = AlgorithmPlan::new(CRCW_DET);
        let win = p.array("win", Affine::k(1));
        p.step(
            StepPlan::new("elect", Affine::n(), WritePolicy::PriorityMin)
                .write(win, IndexSet::Exact(Affine::k(0))),
        );
        let r = check(&p, 64).unwrap();
        assert_eq!(r.proven, ModelClass::Crcw);
        assert_eq!(r.derived_races, RaceExpectation::Deterministic);
        assert_eq!(r.verdict, Verdict::VerifiedStatic);
    }

    #[test]
    fn off_by_one_scatter_bound_is_rejected() {
        // the negative control of the issue: scatter writes a[pid] for pid
        // in 0..n against an array of length n-1
        let mut p = AlgorithmPlan::new(CRCW_DET);
        let a = p.array("a", Affine::n().minus(1));
        p.step(
            StepPlan::new("scatter", Affine::n(), WritePolicy::Arbitrary)
                .write(a, IndexSet::Exact(Affine::pid())),
        );
        match check(&p, 1024) {
            Err(VerifyError::OutOfBoundsPlan { array, .. }) => assert_eq!(array, "a"),
            other => panic!("expected OutOfBoundsPlan, got {other:?}"),
        }
    }

    #[test]
    fn within_bound_overflow_is_rejected() {
        let mut p = AlgorithmPlan::new(CRCW_DET);
        let a = p.array("a", Affine::n());
        p.step(
            StepPlan::new("scatter", Affine::n(), WritePolicy::Arbitrary).write(
                a,
                IndexSet::Within {
                    lo: Affine::k(0),
                    hi: Affine::n(), // off by one: valid cells end at n-1
                },
            ),
        );
        assert!(matches!(
            check(&p, 256),
            Err(VerifyError::OutOfBoundsPlan { .. })
        ));
    }

    #[test]
    fn crew_claim_on_crcw_election_is_rejected() {
        // the second negative control: a single-cell election declared CREW
        let mut p = AlgorithmPlan::new(CREW);
        let win = p.array("win", Affine::k(1));
        p.step(
            StepPlan::new("elect", Affine::n(), WritePolicy::PriorityMin)
                .write(win, IndexSet::Exact(Affine::k(0))),
        );
        assert!(matches!(
            check(&p, 64),
            Err(VerifyError::ContractViolation { .. })
        ));
    }

    #[test]
    fn forbidden_races_with_proven_collision_is_rejected() {
        let mut p = AlgorithmPlan::new(ModelContract {
            algorithm: "test/crcw-forbidden",
            class: ModelClass::Crcw,
            races: RaceExpectation::Forbidden,
        });
        let win = p.array("win", Affine::k(1));
        p.step(
            StepPlan::new("elect", Affine::n(), WritePolicy::CombineMax)
                .write(win, IndexSet::Exact(Affine::k(0))),
        );
        assert!(matches!(
            check(&p, 8),
            Err(VerifyError::ContractViolation { .. })
        ));
    }

    #[test]
    fn contended_scatter_within_contract_is_verified() {
        // Observation 2.3's shape: n³ processors each CombineOr a constant
        // 1 somewhere in an n²-cell pair table. Exclusivity is unprovable,
        // but the contract already admits CRCW at SameValue severity — the
        // dynamic analyzer has nothing left to confirm.
        let mut p = AlgorithmPlan::new(ModelContract {
            algorithm: "test/brute-shape",
            class: ModelClass::Crcw,
            races: RaceExpectation::SameValue,
        });
        let bad = p.array("bad", Affine::n2());
        p.step(
            StepPlan::new("mark", Affine::n3(), WritePolicy::CombineOr).write_uniform(
                bad,
                IndexSet::Within {
                    lo: Affine::k(0),
                    hi: Affine::n2().minus(1),
                },
            ),
        );
        let r = check(&p, 64).unwrap();
        assert_eq!(r.verdict, Verdict::VerifiedStatic);
        assert_eq!(r.derived, ModelClass::Crcw);
        assert_eq!(r.derived_races, RaceExpectation::SameValue);
    }

    #[test]
    fn polynomial_sizes_bound_check() {
        // an n³-processor step provably overrunning its n² array
        let mut p = AlgorithmPlan::new(CRCW_DET);
        let bad = p.array("bad", Affine::n2());
        p.step(
            StepPlan::new("mark", Affine::n3(), WritePolicy::CombineOr).write_uniform(
                bad,
                IndexSet::Within {
                    lo: Affine::k(0),
                    hi: Affine::n2(), // off by one past the pair table
                },
            ),
        );
        assert!(matches!(
            check(&p, 16),
            Err(VerifyError::OutOfBoundsPlan { .. })
        ));
    }

    #[test]
    fn data_dependent_scatter_falls_back_to_dynamic() {
        let mut p = AlgorithmPlan::new(EREW);
        let a = p.array("a", Affine::n());
        p.step(
            StepPlan::new("scatter", Affine::n(), WritePolicy::Arbitrary).write(
                a,
                IndexSet::Within {
                    lo: Affine::k(0),
                    hi: Affine::n().minus(1),
                },
            ),
        );
        let r = check(&p, 256).unwrap();
        assert_eq!(r.verdict, Verdict::NeedsDynamic);
        assert!(!r.dynamic_reasons.is_empty());
        assert_eq!(r.proven, ModelClass::Erew, "nothing is proven concurrent");
        assert_eq!(r.derived, ModelClass::Crcw, "collision cannot be ruled out");
    }

    #[test]
    fn opaque_without_fallback_is_unknown_shape() {
        let mut p = AlgorithmPlan::new(CRCW_DET);
        let a = p.array("a", Affine::n());
        p.step(
            StepPlan::new("jump", Affine::n(), WritePolicy::Arbitrary)
                .read(a, IndexSet::Opaque)
                .write(a, IndexSet::Exact(Affine::pid())),
        );
        let strict = VerifyConfig {
            allow_dynamic_fallback: false,
        };
        assert!(matches!(
            verify(&p, 64, &strict),
            Err(VerifyError::UnknownShape { .. })
        ));
        // and with the default escape hatch it degrades gracefully
        assert_eq!(check(&p, 64).unwrap().verdict, Verdict::NeedsDynamic);
    }

    #[test]
    fn uniform_value_election_is_benign() {
        // concurrent-OR: everyone writes 1 into one flag cell
        let mut p = AlgorithmPlan::new(ModelContract {
            algorithm: "test/or",
            class: ModelClass::Crcw,
            races: RaceExpectation::SameValue,
        });
        let flag = p.array("flag", Affine::k(1));
        p.step(
            StepPlan::new("or", Affine::n(), WritePolicy::Arbitrary)
                .write_uniform(flag, IndexSet::Exact(Affine::k(0))),
        );
        let r = check(&p, 128).unwrap();
        assert_eq!(r.verdict, Verdict::VerifiedStatic);
        assert_eq!(r.derived_races, RaceExpectation::SameValue);
    }

    #[test]
    fn zero_and_tiny_sizes_are_safe() {
        // admission prechecks run at whatever n clients submit
        let mut p = AlgorithmPlan::new(CRCW_DET);
        let a = p.array("a", Affine::n());
        let cell = p.array("cell", Affine::k(1));
        p.step(
            StepPlan::new("scatter", Affine::n(), WritePolicy::Arbitrary)
                .write(a, IndexSet::Exact(Affine::pid())),
        );
        p.step(
            StepPlan::new("elect", Affine::n(), WritePolicy::PriorityMin)
                .write(cell, IndexSet::Exact(Affine::k(0))),
        );
        for n in 0..4 {
            let r = check(&p, n).unwrap();
            assert_eq!(r.verdict, Verdict::VerifiedStatic, "n={n}");
        }
    }

    #[test]
    fn pid_free_violations_are_typed_not_panics() {
        let mut p = AlgorithmPlan::new(CRCW_DET);
        let a = p.array("a", Affine::pid()); // malformed: length mentions pid
        p.step(
            StepPlan::new("noop", Affine::n(), WritePolicy::Arbitrary)
                .write(a, IndexSet::Exact(Affine::pid())),
        );
        assert!(matches!(
            check(&p, 8),
            Err(VerifyError::UnknownShape { .. })
        ));
    }

    #[test]
    fn strided_halving_reduce_shape() {
        // the binary-tree reduce template: pid reads a[2·pid], a[2·pid+1],
        // writes a[pid] over n/2 processors — CREW-free, EREW in fact? No:
        // reads are exclusive (2pid and 2pid+1 partition), writes
        // exclusive. The checker must prove this.
        let mut p = AlgorithmPlan::new(EREW);
        let a = p.array("a", Affine::n());
        p.step(
            StepPlan::new("halve", Affine::n().over(2), WritePolicy::Arbitrary)
                .read(a, IndexSet::Exact(Affine::pid().times(2)))
                .read(a, IndexSet::Exact(Affine::pid().times(2).plus(1)))
                .write(a, IndexSet::Exact(Affine::pid())),
        );
        let r = check(&p, 1 << 10).unwrap();
        assert_eq!(r.derived, ModelClass::Erew);
        assert_eq!(r.verdict, Verdict::VerifiedStatic);
    }

    #[test]
    fn verify_all_sweeps() {
        let mut ok = AlgorithmPlan::new(EREW);
        let a = ok.array("a", Affine::n());
        ok.step(
            StepPlan::new("id", Affine::n(), WritePolicy::Arbitrary)
                .write(a, IndexSet::Exact(Affine::pid())),
        );
        let reports = verify_all(&[ok.clone(), ok], 512, &VerifyConfig::default()).unwrap();
        assert_eq!(reports.len(), 2);
    }

    #[test]
    fn error_codes_are_stable() {
        let oob = VerifyError::OutOfBoundsPlan {
            algorithm: "x",
            step: "s",
            array: "a",
            detail: String::new(),
        };
        let cv = VerifyError::ContractViolation {
            algorithm: "x",
            step: "s",
            detail: String::new(),
        };
        let us = VerifyError::UnknownShape {
            algorithm: "x",
            step: "s",
            detail: String::new(),
        };
        assert_eq!(oob.code(), "plan_out_of_bounds");
        assert_eq!(cv.code(), "plan_contract_violation");
        assert_eq!(us.code(), "plan_unknown_shape");
        for e in [oob, cv, us] {
            assert_eq!(e.algorithm(), "x");
            assert!(!e.to_string().is_empty());
        }
    }
}
