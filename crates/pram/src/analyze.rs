//! Opt-in PRAM concurrency analyzer: shadow access tracing, EREW/CREW/CRCW
//! model classification, and race census.
//!
//! The reproduction's step/work measurements are claims *about a model*: the
//! paper's theorems hold on a CRCW PRAM with specific concurrent-write
//! assumptions, and a program that silently needs a stronger model than it
//! declares — or whose `Arbitrary`-policy races change the committed memory
//! when the tiebreak seed changes — would invalidate the measurements
//! without failing any output test. This module checks the *model
//! semantics* of a run:
//!
//! * **Per-step classification** — every traced step is classified as the
//!   weakest PRAM variant that could execute it: `EREW` if no cell is read
//!   or written by more than one processor, `CREW` if some cell is read
//!   concurrently but every cell is written at most once, `CRCW` if any
//!   cell receives two or more write events in one step. The run's class is
//!   the maximum over its steps and is diffed against the algorithm's
//!   declared [`ModelContract`].
//! * **Race census** — every concurrently-written cell is classified:
//!   *benign* (all writers agree on the value), *deterministic* (distinct
//!   values resolved by a combining/priority rule, seed-independent), or
//!   *seed-dependent* (distinct values under [`WritePolicy::Arbitrary`],
//!   where a different tiebreak seed commits a different value — confirmed
//!   by replaying the resolution under salted tiebreaks). Which of these an
//!   algorithm may produce is part of its contract
//!   ([`ModelContract::races`]).
//! * **Uninitialized reads** — with [`crate::Shm::enable_shadow`] attached
//!   in strict mode, point reads of cells that no host write or committed
//!   step write ever touched are reported. (In the default lenient mode the
//!   alloc-time fill counts as initialising — the reproduced algorithms
//!   deliberately read fill sentinels such as [`crate::EMPTY`].) Whole-array
//!   [`crate::Ctx::slice`] reads are exempt: they are bulk snapshot views
//!   and routinely cover cells the reader then ignores.
//!
//! Out-of-bounds indices and use of an [`crate::ArrayId`] after its scope
//! exits are *enforced*, not reported: they fail immediately with the
//! uniform typed [`crate::memory::ShmError`] whether or not the analyzer is
//! attached, because execution cannot meaningfully continue past them.
//!
//! # Usage
//!
//! ```
//! use ipch_pram::analyze::{AnalyzeConfig, ModelClass};
//! use ipch_pram::{Machine, Shm, WritePolicy};
//!
//! let mut m = Machine::new(1);
//! m.enable_analysis(AnalyzeConfig::default());
//! let mut shm = Shm::new();
//! let a = shm.alloc("a", 8, 0);
//! m.step(&mut shm, 0..8, |ctx| ctx.write(a, ctx.pid, 1)); // disjoint cells
//! let cell = shm.alloc("cell", 1, 0);
//! m.step_with_policy(&mut shm, 0..8, WritePolicy::CombineSum, |ctx| {
//!     ctx.write(cell, 0, 1) // 8-way concurrent write
//! });
//! let report = m.analysis_report().unwrap();
//! assert_eq!(report.class, ModelClass::Crcw);
//! assert_eq!(report.erew_steps, 1);
//! assert_eq!(report.crcw_steps, 1);
//! assert_eq!(report.benign_races, 1); // all writers wrote 1
//! assert!(report.violations.is_empty()); // no contract declared
//! ```
//!
//! The analyzer is threaded through the one [`Machine::step`] pipeline
//! (which every [`crate::kernel`] shape runs on), and its report is part
//! of [`crate::Metrics`] (merged when a child machine is folded back), so child
//! machines' traces roll up to the parent. Reports are deterministic: the
//! gathered access trace is canonicalised by sorting (cell, pid[, seq]), so
//! the same program produces an identical report regardless of chunking
//! or thread count — the determinism suite asserts exactly this.

use crate::machine::{cell_tiebreak, ChunkCell, Machine, WriteEntry};
use crate::memory::Shm;
use crate::policy::WritePolicy;
use crate::rng::mix64;
use crate::Word;

/// Whole-array read sentinel in a [`ReadEntry`] key (valid cell indices are
/// `< u32::MAX` because [`crate::Shm::alloc`] caps array length at
/// `u32::MAX`).
pub(crate) const READ_ALL: u32 = u32::MAX;

/// Violation-retention cap applied when child reports merge into a parent
/// (the per-machine cap is [`AnalyzeConfig::max_violations`]; merges use
/// this fixed bound because [`crate::Metrics`] carries no config).
pub(crate) const MERGE_VIOLATION_CAP: usize = 256;

/// One traced read: packed cell address (`slot << 32 | idx`, with
/// [`READ_ALL`] as the index for whole-array slice reads) and the reader.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ReadEntry {
    pub(crate) key: u64,
    pub(crate) pid: u32,
}

/// A chunk's read-trace buffer. `RefCell` because reads are recorded through
/// shared [`crate::Ctx`] borrows; each buffer is only ever
/// touched by the chunk that owns it (the write-arena discipline).
pub(crate) type ReadTrace = std::cell::RefCell<Vec<ReadEntry>>;

/// PRAM variant hierarchy: `Erew < Crew < Crcw`. The analyzer reports the
/// *weakest* class that could execute each step / run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ModelClass {
    /// Exclusive read, exclusive write.
    #[default]
    Erew,
    /// Concurrent read, exclusive write.
    Crew,
    /// Concurrent read, concurrent write.
    Crcw,
}

impl std::fmt::Display for ModelClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ModelClass::Erew => "EREW",
            ModelClass::Crew => "CREW",
            ModelClass::Crcw => "CRCW",
        })
    }
}

/// How much write contention an algorithm's contract admits. Each level
/// includes the ones before it (`Forbidden < SameValue < Deterministic <
/// SeedDependent`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RaceExpectation {
    /// No cell is ever written concurrently (the contract class should then
    /// be at most [`ModelClass::Crew`]).
    Forbidden,
    /// Concurrent writes occur but all writers always agree on the value
    /// (the paper's concurrent-OR-style "everyone writes 1").
    SameValue,
    /// Writers may disagree, but every contended cell is resolved by a
    /// seed-independent rule (priority / combining policies).
    Deterministic,
    /// Contended cells may be resolved by [`WritePolicy::Arbitrary`] with
    /// genuinely different possible winners — the algorithm's correctness
    /// argument must hold for *any* winner (e.g. the random-sample claim
    /// step of paper §3.1, where any claimant is as good as another).
    SeedDependent,
}

/// Declared model envelope of one algorithm entry point.
///
/// Entry points call [`Machine::declare_contract`] on entry (a no-op unless
/// analysis is enabled); the analyzer then records a [`Violation`] for any
/// step whose observed class exceeds `class`, or any race stronger than
/// `races` admits. The analyze suite additionally asserts that the observed
/// run class *equals* the contract class at sizes where the algorithm's
/// structural concurrency is exercised.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ModelContract {
    /// Name of the algorithm (for reports).
    pub algorithm: &'static str,
    /// Strongest PRAM class any step may need.
    pub class: ModelClass,
    /// Strongest write contention any step may produce.
    pub races: RaceExpectation,
}

/// Analyzer knobs.
#[derive(Clone, Copy, Debug)]
pub struct AnalyzeConfig {
    /// Number of salted tiebreak replays used to confirm that a
    /// distinct-value `Arbitrary` race is seed-dependent. Replays are
    /// resolution-only (no step re-execution).
    pub salt_checks: u32,
    /// Cap on retained [`Violation`] records (census counters keep exact
    /// totals past the cap).
    pub max_violations: usize,
}

impl Default for AnalyzeConfig {
    fn default() -> Self {
        Self {
            salt_checks: 4,
            max_violations: 64,
        }
    }
}

/// Kinds of contract/model violation the analyzer reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// A step needed a stronger PRAM class than the contract declares.
    ModelExceeded,
    /// A concurrent write stronger than [`ModelContract::races`] admits.
    RaceDisallowed,
    /// A point read of a cell never initialised by any write (strict shadow
    /// mode only; see [`crate::Shm::enable_shadow`]).
    UninitRead,
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ViolationKind::ModelExceeded => "model-exceeded",
            ViolationKind::RaceDisallowed => "race-disallowed",
            ViolationKind::UninitRead => "uninit-read",
        })
    }
}

/// One recorded violation, pinned to the step and cell that produced it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Machine step counter value of the offending step.
    pub step_no: u64,
    /// What went wrong.
    pub kind: ViolationKind,
    /// `array[index]` the violation concerns (array debug name).
    pub cell: String,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "step {:>5}  {:<16} {:<24} {}",
            self.step_no, self.kind, self.cell, self.detail
        )
    }
}

/// Structured result of an analyzed run. `PartialEq` so the determinism
/// suite can assert report equality across execution modes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AnalysisReport {
    /// Contract the run declared (outermost [`Machine::declare_contract`]
    /// wins; `None` for bare primitive runs).
    pub contract: Option<ModelContract>,
    /// Weakest PRAM class that could execute the whole run.
    pub class: ModelClass,
    /// Steps traced (work-free zero-processor steps are not traced).
    pub steps_analyzed: u64,
    /// Steps classified EREW / CREW / CRCW.
    pub erew_steps: u64,
    /// See [`AnalysisReport::erew_steps`].
    pub crew_steps: u64,
    /// See [`AnalysisReport::erew_steps`].
    pub crcw_steps: u64,
    /// Point reads traced (whole-array slice reads count once each).
    pub reads_traced: u64,
    /// Write events traced.
    pub writes_traced: u64,
    /// Concurrently-written cells whose writers all agreed on the value.
    pub benign_races: u64,
    /// Concurrently-written cells with distinct values resolved by a
    /// seed-independent policy.
    pub deterministic_races: u64,
    /// Concurrently-written cells with distinct values under `Arbitrary`
    /// whose salted replays all happened to commit the same value (counted
    /// as seed-dependent for contract purposes — distinct values under
    /// `Arbitrary` are seed-sensitive by construction).
    pub unconfirmed_arbitrary_races: u64,
    /// Concurrently-written cells where a salted tiebreak replay committed
    /// a different value than the real run: the memory contents depend on
    /// the machine seed.
    pub seed_dependent_races: u64,
    /// Point reads of never-initialised cells (strict shadow mode).
    pub uninit_reads: u64,
    /// Recorded violations, capped at [`AnalyzeConfig::max_violations`].
    pub violations: Vec<Violation>,
    /// Violations dropped by the cap.
    pub violations_dropped: u64,
}

impl AnalysisReport {
    /// True when the run produced no violations (census counters may still
    /// be non-zero: races the contract admits are not violations).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.violations_dropped == 0
    }

    /// Total concurrently-written cells of any kind.
    pub fn total_races(&self) -> u64 {
        self.benign_races
            + self.deterministic_races
            + self.unconfirmed_arbitrary_races
            + self.seed_dependent_races
    }

    /// Merge a child run's report (sequential or parallel composition — the
    /// model class of a composition is the max over components and the
    /// censuses add).
    pub(crate) fn merge(&mut self, other: &AnalysisReport, max_violations: usize) {
        if self.contract.is_none() {
            self.contract = other.contract;
        }
        self.class = self.class.max(other.class);
        self.steps_analyzed += other.steps_analyzed;
        self.erew_steps += other.erew_steps;
        self.crew_steps += other.crew_steps;
        self.crcw_steps += other.crcw_steps;
        self.reads_traced += other.reads_traced;
        self.writes_traced += other.writes_traced;
        self.benign_races += other.benign_races;
        self.deterministic_races += other.deterministic_races;
        self.unconfirmed_arbitrary_races += other.unconfirmed_arbitrary_races;
        self.seed_dependent_races += other.seed_dependent_races;
        self.uninit_reads += other.uninit_reads;
        self.violations_dropped += other.violations_dropped;
        for v in &other.violations {
            if self.violations.len() < max_violations {
                self.violations.push(v.clone());
            } else {
                self.violations_dropped += 1;
            }
        }
    }

    /// Render the report as an aligned text table (the style of the bench
    /// crate's result tables).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let title = match &self.contract {
            Some(c) => format!(
                "analysis: {} (contract {} / races {:?})",
                c.algorithm, c.class, c.races
            ),
            None => "analysis: <no contract>".to_string(),
        };
        let rows: Vec<(String, String)> = vec![
            ("observed class".into(), self.class.to_string()),
            ("steps analyzed".into(), self.steps_analyzed.to_string()),
            (
                "  EREW / CREW / CRCW".into(),
                format!(
                    "{} / {} / {}",
                    self.erew_steps, self.crew_steps, self.crcw_steps
                ),
            ),
            (
                "reads / writes traced".into(),
                format!("{} / {}", self.reads_traced, self.writes_traced),
            ),
            (
                "races: benign same-value".into(),
                self.benign_races.to_string(),
            ),
            (
                "races: deterministic".into(),
                self.deterministic_races.to_string(),
            ),
            (
                "races: seed-dependent".into(),
                format!(
                    "{} (+{} unconfirmed)",
                    self.seed_dependent_races, self.unconfirmed_arbitrary_races
                ),
            ),
            ("uninitialized reads".into(), self.uninit_reads.to_string()),
            (
                "violations".into(),
                format!(
                    "{}{}",
                    self.violations.len(),
                    if self.violations_dropped > 0 {
                        format!(" (+{} dropped)", self.violations_dropped)
                    } else {
                        String::new()
                    }
                ),
            ),
        ];
        let wl = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
        let wr = rows
            .iter()
            .map(|(_, r)| r.len())
            .max()
            .unwrap_or(0)
            .max(title.len().saturating_sub(wl + 3));
        let rule = "-".repeat(wl + wr + 5);
        out.push_str(&rule);
        out.push('\n');
        out.push_str(&format!("| {title:<w$} |\n", w = wl + wr + 1));
        out.push_str(&rule);
        out.push('\n');
        for (l, r) in &rows {
            out.push_str(&format!("| {l:<wl$} | {r:<wr$} |\n"));
        }
        out.push_str(&rule);
        out.push('\n');
        for v in &self.violations {
            out.push_str(&format!("! {v}\n"));
        }
        out
    }
}

/// Per-machine analyzer state: config, trace buffers, and the effective
/// contract. The report itself lives in [`crate::Metrics::analysis`] so it follows
/// the existing child-machine absorb flow.
pub(crate) struct Analysis {
    pub(crate) cfg: AnalyzeConfig,
    /// Per-chunk read-trace buffers (same chunk discipline as the write
    /// arena: chunk `c` appends to buffer `c` only).
    pub(crate) read_bufs: Vec<ChunkCell<ReadTrace>>,
    /// Gather/sort scratch, reused across steps.
    reads: Vec<ReadEntry>,
    writes: Vec<WriteEntry>,
    /// Outermost declared contract (inherited by children).
    pub(crate) contract: Option<ModelContract>,
}

impl std::fmt::Debug for Analysis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Analysis")
            .field("cfg", &self.cfg)
            .field("contract", &self.contract)
            .finish()
    }
}

impl Analysis {
    pub(crate) fn new(cfg: AnalyzeConfig) -> Self {
        Self {
            cfg,
            read_bufs: Vec::new(),
            reads: Vec::new(),
            writes: Vec::new(),
            contract: None,
        }
    }

    /// Make at least `n` cleared read-trace buffers available.
    pub(crate) fn prepare(&mut self, n: usize) {
        for buf in self.read_bufs.iter_mut().take(n) {
            buf.0.get_mut().get_mut().clear();
        }
        while self.read_bufs.len() < n {
            self.read_bufs.push(ChunkCell::new(ReadTrace::default()));
        }
    }

    /// A fresh analyzer for a child machine: same config and contract,
    /// empty buffers (the child's report merges into the parent's through
    /// the child-machine fold).
    pub(crate) fn child(&self) -> Self {
        Self {
            cfg: self.cfg,
            read_bufs: Vec::new(),
            reads: Vec::new(),
            writes: Vec::new(),
            contract: self.contract,
        }
    }
}

/// Classify one traced step and fold it into the report. `write_bufs` holds
/// the step's write log in chunk order; read traces were gathered into
/// `analysis.read_bufs` by the compute phase. Called after commit, so shadow
/// init marking of this step's writes lands after this step's read checks
/// (reads see the pre-step snapshot).
#[allow(clippy::too_many_arguments)] // internal hook; args mirror the commit pipeline's locals
pub(crate) fn finish_step(
    analysis: &mut Analysis,
    report: &mut AnalysisReport,
    shm: &mut Shm,
    seed: u64,
    step_no: u64,
    policy: WritePolicy,
    nchunks: usize,
    write_bufs: &mut [ChunkCell<Vec<WriteEntry>>],
    // Fault seed of `FaultPlan::adversarial_writes` when that fault is
    // active: the winner replay below then mirrors the adversarial extremal
    // pick the commit pipeline performed, so the analyzer still reports
    // exactly what was committed.
    adversary: Option<u64>,
) {
    // Gather the chunk traces and canonicalise. Sorting by (cell, pid[,seq])
    // makes the analysis independent of chunking and thread count, and for
    // writes this is exactly the commit pipeline's resolution order, so the
    // Arbitrary-winner replay below reproduces committed values precisely.
    analysis.reads.clear();
    for buf in analysis.read_bufs.iter_mut().take(nchunks) {
        analysis.reads.append(buf.0.get_mut().get_mut());
    }
    analysis.writes.clear();
    for buf in write_bufs.iter_mut().take(nchunks) {
        analysis.writes.extend_from_slice(buf.0.get_mut());
    }
    analysis
        .reads
        .sort_unstable_by_key(|r| ((r.key as u128) << 32) | r.pid as u128);
    analysis.writes.sort_unstable_by_key(|e| e.sort_key());

    report.steps_analyzed += 1;
    report.reads_traced += analysis.reads.len() as u64;
    report.writes_traced += analysis.writes.len() as u64;

    let contract = analysis.contract;
    let cfg = analysis.cfg;
    let mut violations: Vec<Violation> = Vec::new();
    let mut push_violation = |report: &mut AnalysisReport, v: Violation| {
        if report.violations.len() + violations.len() < cfg.max_violations {
            violations.push(v);
        } else {
            report.violations_dropped += 1;
        }
    };

    let mut class = ModelClass::Erew;

    // --- Read census ------------------------------------------------------
    // Walk runs of identical cell key. A run with two distinct reader pids
    // is a concurrent read. Whole-array reads (idx == READ_ALL) sort after
    // every point read of the same slot, so when a slot has any READ_ALL
    // entry by pid P, every point read of that slot by a pid != P is also
    // concurrent; two distinct READ_ALL pids likewise.
    {
        let reads = &analysis.reads;
        let n = reads.len();
        // Pass 1: per-slot whole-array reader (pid of one READ_ALL reader,
        // and whether two distinct pids READ_ALL the slot).
        let mut i = 0;
        while i < n {
            let key = reads[i].key;
            let mut j = i + 1;
            let first_pid = reads[i].pid;
            let mut multi_pid = false;
            while j < n && reads[j].key == key {
                multi_pid |= reads[j].pid != first_pid;
                j += 1;
            }
            let idx = key as u32;
            if multi_pid {
                class = class.max(ModelClass::Crew);
            }
            if idx != READ_ALL {
                // uninit check: reads observe the pre-step snapshot, and
                // this step's writes have not been marked yet.
                if shm.is_init((key >> 32) as u32, idx as usize) == Some(false) {
                    report.uninit_reads += 1;
                    push_violation(
                        report,
                        Violation {
                            step_no,
                            kind: ViolationKind::UninitRead,
                            cell: cell_label(shm, key),
                            detail: format!(
                                "pid {} read a cell never written by any host or step write",
                                first_pid
                            ),
                        },
                    );
                }
            }
            i = j;
        }
        // Pass 2: point read vs whole-array read of the same slot by a
        // different pid. READ_ALL runs sort last within a slot, so scan the
        // slot groups.
        let mut i = 0;
        while i < n {
            let slot = (reads[i].key >> 32) as u32;
            let mut j = i;
            while j < n && (reads[j].key >> 32) as u32 == slot {
                j += 1;
            }
            let group = &reads[i..j];
            // the READ_ALL suffix of the group, if any
            let all_lo = group.partition_point(|r| (r.key as u32) != READ_ALL);
            if all_lo < group.len() && all_lo > 0 && class < ModelClass::Crew {
                let all_pid = group[all_lo].pid;
                let alls_multi = group[all_lo..].iter().any(|r| r.pid != all_pid);
                if alls_multi || group[..all_lo].iter().any(|r| r.pid != all_pid) {
                    class = class.max(ModelClass::Crew);
                }
            }
            i = j;
        }
    }

    // --- Write census -----------------------------------------------------
    {
        let writes = &analysis.writes;
        let n = writes.len();
        let mut i = 0;
        while i < n {
            let key = writes[i].key;
            let mut j = i + 1;
            while j < n && writes[j].key == key {
                j += 1;
            }
            let run = &writes[i..j];
            if run.len() >= 2 {
                // Two or more write events to one cell in one synchronous
                // step: only a CRCW machine can resolve this.
                class = ModelClass::Crcw;
                let first_val = run[0].val;
                let same_value = run.iter().all(|e| e.val == first_val);
                let (race, detail): (RaceSeverity, Option<String>) = if same_value {
                    (RaceSeverity::Benign, None)
                } else if policy != WritePolicy::Arbitrary {
                    (RaceSeverity::Deterministic, None)
                } else {
                    // Distinct values under Arbitrary: replay the resolution
                    // under salted tiebreaks; any disagreement proves the
                    // committed memory depends on the machine seed. When the
                    // fault plane's adversary resolved this step, replay its
                    // extremal pick instead (salting the fault seed), so
                    // `actual` is always the value really committed.
                    let resolve_with = |salt: Option<u64>| -> Word {
                        match adversary {
                            Some(fseed) => {
                                let fs = match salt {
                                    Some(s) => mix64(fseed ^ s),
                                    None => fseed,
                                };
                                crate::faults::adversarial_pick(
                                    fs,
                                    step_no,
                                    key,
                                    run.iter().map(|e| e.val),
                                )
                            }
                            None => {
                                let tseed = match salt {
                                    Some(s) => mix64(seed ^ s),
                                    None => seed,
                                };
                                run[(cell_tiebreak(tseed, step_no, key) % run.len() as u64)
                                    as usize]
                                    .val
                            }
                        }
                    };
                    let actual = resolve_with(None);
                    let mut flipped: Option<Word> = None;
                    for s in 0..cfg.salt_checks {
                        let alt = resolve_with(Some(0xA5A5_5A5A_0F0F_F0F0 ^ s as u64));
                        if alt != actual {
                            flipped = Some(alt);
                            break;
                        }
                    }
                    match flipped {
                        Some(alt) => (
                            RaceSeverity::SeedDependent { confirmed: true },
                            Some(format!(
                                "{} writers, committed {} but a salted tiebreak commits {}",
                                distinct_pids(run),
                                actual,
                                alt
                            )),
                        ),
                        None => (
                            RaceSeverity::SeedDependent { confirmed: false },
                            Some(format!(
                                "{} writers with distinct values under Arbitrary \
                                 (salted replays agreed by chance)",
                                distinct_pids(run)
                            )),
                        ),
                    }
                };
                match race {
                    RaceSeverity::Benign => report.benign_races += 1,
                    RaceSeverity::Deterministic => report.deterministic_races += 1,
                    RaceSeverity::SeedDependent { confirmed: true } => {
                        report.seed_dependent_races += 1
                    }
                    RaceSeverity::SeedDependent { confirmed: false } => {
                        report.unconfirmed_arbitrary_races += 1
                    }
                }
                if let Some(c) = &contract {
                    let allowed = match race {
                        RaceSeverity::Benign => c.races >= RaceExpectation::SameValue,
                        RaceSeverity::Deterministic => c.races >= RaceExpectation::Deterministic,
                        RaceSeverity::SeedDependent { .. } => {
                            c.races >= RaceExpectation::SeedDependent
                        }
                    };
                    if !allowed {
                        push_violation(
                            report,
                            Violation {
                                step_no,
                                kind: ViolationKind::RaceDisallowed,
                                cell: cell_label(shm, key),
                                detail: detail.unwrap_or_else(|| {
                                    format!(
                                        "{} write events ({:?} race, contract admits {:?})",
                                        run.len(),
                                        race,
                                        c.races
                                    )
                                }),
                            },
                        );
                    }
                }
            }
            // Post-commit: mark written cells initialised in the shadow.
            shm.mark_init((key >> 32) as u32, key as u32 as usize);
            i = j;
        }
    }

    match class {
        ModelClass::Erew => report.erew_steps += 1,
        ModelClass::Crew => report.crew_steps += 1,
        ModelClass::Crcw => report.crcw_steps += 1,
    }
    report.class = report.class.max(class);
    if let Some(c) = &contract {
        if class > c.class {
            push_violation(
                report,
                Violation {
                    step_no,
                    kind: ViolationKind::ModelExceeded,
                    cell: format!("<step {step_no}>"),
                    detail: format!("step needs {class}, contract declares {}", c.class),
                },
            );
        }
    }
    report.violations.append(&mut violations);
}

/// Distinct writer pids in a (key-sorted) run.
fn distinct_pids(run: &[WriteEntry]) -> usize {
    let mut pids: Vec<u32> = run.iter().map(|e| (e.pidseq >> 32) as u32).collect();
    pids.sort_unstable();
    pids.dedup();
    pids.len()
}

/// `name[idx]` label for a packed cell key.
fn cell_label(shm: &Shm, key: u64) -> String {
    format!("{}[{}]", shm.slot_name((key >> 32) as u32), key as u32)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RaceSeverity {
    Benign,
    Deterministic,
    SeedDependent { confirmed: bool },
}

impl Machine {
    /// Attach the concurrency analyzer to this machine: subsequent steps
    /// trace their reads and writes, and
    /// [`Machine::analysis_report`] / [`crate::Metrics::analysis`] accumulate the
    /// classification. Child machines created by [`Machine::fork_join`],
    /// [`Machine::fork_join_seq`] and [`Machine::sub`] inherit the analyzer,
    /// and their reports merge into the parent's when they are folded back
    /// (fork children in item order).
    ///
    /// For uninitialized-read detection also attach
    /// [`Shm::enable_shadow`] to the memory the machine steps against.
    pub fn enable_analysis(&mut self, cfg: AnalyzeConfig) {
        self.analysis = Some(Box::new(Analysis::new(cfg)));
        self.metrics.analysis = Some(Box::new(AnalysisReport::default()));
    }

    /// True when the analyzer is attached.
    pub fn analysis_enabled(&self) -> bool {
        self.analysis.is_some()
    }

    /// Declare the model contract of the algorithm about to run. No-op when
    /// analysis is disabled. The outermost declaration wins (an algorithm's
    /// subroutines run under the caller's contract), so entry points can
    /// declare unconditionally.
    pub fn declare_contract(&mut self, contract: &ModelContract) {
        if let Some(an) = &mut self.analysis {
            if an.contract.is_none() {
                an.contract = Some(*contract);
                if let Some(report) = &mut self.metrics.analysis {
                    if report.contract.is_none() {
                        report.contract = Some(*contract);
                    }
                }
            }
        }
    }

    /// The accumulated analysis report, if analysis is enabled.
    pub fn analysis_report(&self) -> Option<&AnalysisReport> {
        self.metrics.analysis.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Machine, Shm, WritePolicy, EMPTY};

    fn analyzed(seed: u64) -> Machine {
        let mut m = Machine::new(seed);
        m.enable_analysis(AnalyzeConfig::default());
        m
    }

    #[test]
    fn disjoint_scatter_is_erew() {
        let mut m = analyzed(1);
        let mut shm = Shm::new();
        let a = shm.alloc("a", 16, 0);
        m.step(&mut shm, 0..16, |ctx| ctx.write(a, ctx.pid, 1));
        let r = m.analysis_report().unwrap();
        assert_eq!(r.class, ModelClass::Erew);
        assert_eq!(r.erew_steps, 1);
        assert_eq!(r.writes_traced, 16);
        assert!(r.is_clean());
    }

    #[test]
    fn neighbour_rotation_is_erew() {
        // pid reads cell pid+1, writes cell pid: every cell read once,
        // written once — the textbook EREW example.
        let mut m = analyzed(2);
        let mut shm = Shm::new();
        let a = shm.alloc("a", 8, 3);
        m.step(&mut shm, 0..8, |ctx| {
            let v = ctx.read(a, (ctx.pid + 1) % 8);
            ctx.write(a, ctx.pid, v);
        });
        let r = m.analysis_report().unwrap();
        assert_eq!(r.class, ModelClass::Erew);
        assert_eq!(r.reads_traced, 8);
    }

    #[test]
    fn shared_cell_read_is_crew() {
        let mut m = analyzed(3);
        let mut shm = Shm::new();
        let a = shm.alloc("a", 8, 5);
        let out = shm.alloc("out", 8, 0);
        m.step(&mut shm, 0..8, |ctx| {
            let v = ctx.read(a, 0); // everyone reads cell 0
            ctx.write(out, ctx.pid, v);
        });
        let r = m.analysis_report().unwrap();
        assert_eq!(r.class, ModelClass::Crew);
        assert_eq!(r.crew_steps, 1);
        assert_eq!(r.crcw_steps, 0);
    }

    #[test]
    fn slice_by_many_pids_is_crew() {
        let mut m = analyzed(4);
        let mut shm = Shm::new();
        let a = shm.alloc("a", 8, 5);
        let out = shm.alloc("out", 8, 0);
        m.step(&mut shm, 0..8, |ctx| {
            let row = ctx.slice(a);
            ctx.write(out, ctx.pid, row[ctx.pid]);
        });
        let r = m.analysis_report().unwrap();
        assert_eq!(r.class, ModelClass::Crew);
    }

    #[test]
    fn point_read_plus_other_pids_slice_is_crew() {
        let mut m = analyzed(5);
        let mut shm = Shm::new();
        let a = shm.alloc("a", 8, 5);
        let out = shm.alloc("out", 8, 0);
        m.step(&mut shm, 0..2, |ctx| {
            let v = if ctx.pid == 0 {
                ctx.read(a, 3)
            } else {
                ctx.slice(a)[3]
            };
            ctx.write(out, ctx.pid, v);
        });
        let r = m.analysis_report().unwrap();
        assert_eq!(r.class, ModelClass::Crew);
    }

    #[test]
    fn same_value_contention_is_benign_crcw() {
        let mut m = analyzed(6);
        let mut shm = Shm::new();
        let flag = shm.alloc("flag", 1, 0);
        m.step(&mut shm, 0..32, |ctx| ctx.write(flag, 0, 1));
        let r = m.analysis_report().unwrap();
        assert_eq!(r.class, ModelClass::Crcw);
        assert_eq!(r.benign_races, 1);
        assert_eq!(r.seed_dependent_races, 0);
        assert!(r.is_clean());
    }

    #[test]
    fn combining_contention_is_deterministic_race() {
        let mut m = analyzed(7);
        let mut shm = Shm::new();
        let acc = shm.alloc("acc", 1, 0);
        m.step_with_policy(&mut shm, 0..32, WritePolicy::CombineSum, |ctx| {
            ctx.write(acc, 0, ctx.pid as i64)
        });
        let r = m.analysis_report().unwrap();
        assert_eq!(r.deterministic_races, 1);
        assert_eq!(r.seed_dependent_races, 0);
    }

    #[test]
    fn arbitrary_distinct_values_is_seed_dependent() {
        let mut m = analyzed(8);
        let mut shm = Shm::new();
        let cell = shm.alloc("cell", 1, EMPTY);
        m.step(&mut shm, 0..32, |ctx| ctx.write(cell, 0, ctx.pid as i64));
        let r = m.analysis_report().unwrap();
        assert_eq!(r.seed_dependent_races + r.unconfirmed_arbitrary_races, 1);
        // no contract declared ⇒ census only, no violations
        assert!(r.is_clean());
    }

    #[test]
    fn contract_flags_model_exceedance_and_disallowed_race() {
        const C: ModelContract = ModelContract {
            algorithm: "toy",
            class: ModelClass::Crew,
            races: RaceExpectation::Forbidden,
        };
        let mut m = analyzed(9);
        m.declare_contract(&C);
        let mut shm = Shm::new();
        let cell = shm.alloc("cell", 1, 0);
        m.step(&mut shm, 0..4, |ctx| ctx.write(cell, 0, ctx.pid as i64));
        let r = m.analysis_report().unwrap();
        assert!(!r.is_clean());
        assert!(r
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::ModelExceeded));
        assert!(r
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::RaceDisallowed));
        assert_eq!(r.contract, Some(C));
    }

    #[test]
    fn contract_admitting_races_stays_clean() {
        const C: ModelContract = ModelContract {
            algorithm: "toy",
            class: ModelClass::Crcw,
            races: RaceExpectation::SeedDependent,
        };
        let mut m = analyzed(10);
        m.declare_contract(&C);
        let mut shm = Shm::new();
        let cell = shm.alloc("cell", 1, 0);
        m.step(&mut shm, 0..4, |ctx| ctx.write(cell, 0, ctx.pid as i64));
        assert!(m.analysis_report().unwrap().is_clean());
    }

    #[test]
    fn outermost_contract_wins() {
        const OUTER: ModelContract = ModelContract {
            algorithm: "outer",
            class: ModelClass::Crcw,
            races: RaceExpectation::SeedDependent,
        };
        const INNER: ModelContract = ModelContract {
            algorithm: "inner",
            class: ModelClass::Erew,
            races: RaceExpectation::Forbidden,
        };
        let mut m = analyzed(11);
        m.declare_contract(&OUTER);
        m.declare_contract(&INNER);
        let mut shm = Shm::new();
        let cell = shm.alloc("cell", 1, 0);
        m.step(&mut shm, 0..4, |ctx| ctx.write(cell, 0, ctx.pid as i64));
        assert!(m.analysis_report().unwrap().is_clean());
    }

    #[test]
    fn uninit_read_detected_in_strict_shadow_mode() {
        let mut m = analyzed(12);
        let mut shm = Shm::new();
        shm.enable_shadow(false); // strict: alloc fill does not initialise
        let a = shm.alloc("a", 4, 0);
        let out = shm.alloc("out", 4, 0);
        m.step(&mut shm, 0..1, |ctx| {
            let v = ctx.read(a, 2);
            ctx.write(out, 0, v);
        });
        let r = m.analysis_report().unwrap();
        assert_eq!(r.uninit_reads, 1);
        assert!(r
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::UninitRead && v.cell == "a[2]"));
    }

    #[test]
    fn step_write_initialises_for_later_steps() {
        let mut m = analyzed(13);
        let mut shm = Shm::new();
        shm.enable_shadow(false);
        let a = shm.alloc("a", 4, 0);
        m.step(&mut shm, 0..4, |ctx| ctx.write(a, ctx.pid, 1));
        let out = shm.alloc("out", 4, 0);
        m.step(&mut shm, 0..4, |ctx| {
            let v = ctx.read(a, ctx.pid);
            ctx.write(out, ctx.pid, v);
        });
        let r = m.analysis_report().unwrap();
        assert_eq!(r.uninit_reads, 0, "committed writes must mark cells init");
    }

    #[test]
    fn lenient_shadow_mode_is_quiet() {
        let mut m = analyzed(14);
        let mut shm = Shm::new();
        shm.enable_shadow(true); // lenient: the fill sentinel is legal to read
        let a = shm.alloc("a", 4, EMPTY);
        let out = shm.alloc("out", 4, 0);
        m.step(&mut shm, 0..4, |ctx| {
            let v = ctx.read(a, ctx.pid);
            ctx.write(out, ctx.pid, v);
        });
        assert_eq!(m.analysis_report().unwrap().uninit_reads, 0);
    }

    #[test]
    fn child_reports_merge_into_parent() {
        const C: ModelContract = ModelContract {
            algorithm: "parent",
            class: ModelClass::Crcw,
            races: RaceExpectation::SeedDependent,
        };
        let mut m = analyzed(15);
        m.declare_contract(&C);
        let mut shm = Shm::new();
        let a = shm.alloc("a", 8, 0);
        m.step(&mut shm, 0..8, |ctx| ctx.write(a, ctx.pid, 1)); // EREW
        let mut child = m.child(1);
        assert!(child.analysis_enabled(), "children inherit the analyzer");
        let cell = shm.alloc("cell", 1, 0);
        child.step(&mut shm, 0..8, |ctx| ctx.write(cell, 0, 1)); // CRCW benign
        m.metrics.absorb(&child.metrics);
        let r = m.analysis_report().unwrap();
        assert_eq!(r.class, ModelClass::Crcw);
        assert_eq!(r.steps_analyzed, 2);
        assert_eq!(r.erew_steps, 1);
        assert_eq!(r.crcw_steps, 1);
        assert_eq!(r.benign_races, 1);
        assert_eq!(r.contract, Some(C), "contract survives the merge");
    }

    #[test]
    fn report_is_deterministic_across_execution_modes() {
        let run = |tuning: crate::Tuning| {
            let mut m = analyzed(16);
            m.tuning = tuning;
            let mut shm = Shm::new();
            let a = shm.alloc("a", 4096, 0);
            let cell = shm.alloc("cell", 1, 0);
            m.step(&mut shm, 0..4096, |ctx| {
                let v = ctx.read(a, ctx.pid / 2);
                ctx.write(a, ctx.pid, v + 1);
            });
            m.step(&mut shm, 0..4096, |ctx| ctx.write(cell, 0, ctx.pid as i64));
            m.metrics.analysis.as_ref().unwrap().as_ref().clone()
        };
        let seq = run(crate::Tuning {
            num_threads: Some(1),
            ..crate::Tuning::default()
        });
        let par = run(crate::Tuning {
            par_threshold: 0,
            ..crate::Tuning::default()
        });
        assert_eq!(seq, par);
        assert_eq!(seq.crcw_steps, 1);
    }

    #[test]
    fn render_mentions_the_key_fields() {
        const C: ModelContract = ModelContract {
            algorithm: "render-demo",
            class: ModelClass::Crcw,
            races: RaceExpectation::SameValue,
        };
        let mut m = analyzed(17);
        m.declare_contract(&C);
        let mut shm = Shm::new();
        let cell = shm.alloc("cell", 1, 0);
        m.step(&mut shm, 0..4, |ctx| ctx.write(cell, 0, 1));
        let text = m.analysis_report().unwrap().render();
        assert!(text.contains("render-demo"));
        assert!(text.contains("CRCW"));
        assert!(text.contains("benign"));
    }

    #[test]
    fn violation_cap_is_respected() {
        let mut m = Machine::new(18);
        m.enable_analysis(AnalyzeConfig {
            max_violations: 3,
            ..AnalyzeConfig::default()
        });
        const C: ModelContract = ModelContract {
            algorithm: "capped",
            class: ModelClass::Erew,
            races: RaceExpectation::Forbidden,
        };
        m.declare_contract(&C);
        let mut shm = Shm::new();
        let cell = shm.alloc("cell", 1, 0);
        for _ in 0..10 {
            m.step(&mut shm, 0..4, |ctx| ctx.write(cell, 0, 1));
        }
        let r = m.analysis_report().unwrap();
        assert_eq!(r.violations.len(), 3);
        assert!(r.violations_dropped > 0);
        assert!(!r.is_clean());
    }
}
