//! PRAM cost accounting: time, work, processors, phases.
//!
//! These counters are the *measurements* of every experiment in this
//! reproduction: the paper's theorems are claims about exactly these
//! quantities. Two buckets are kept:
//!
//! * **executed** — steps the simulator actually ran through
//!   [`crate::Machine::step`]; `work` adds the number of active processors
//!   in each step.
//! * **charged** — costs accounted analytically via
//!   [`crate::Machine::charge`]. A handful of textbook subroutines (e.g. the
//!   Atallah–Goodrich O(1)-time hull-tangent primitives of paper §2.4, which
//!   the paper itself invokes as black boxes with `n^{1/b}` processors) are
//!   executed by efficient host code and charged their published cost. Every
//!   charge site documents the bound it charges; experiment tables report
//!   the two buckets separately so nothing analytic hides inside a measured
//!   number.

/// Cost record for one named phase of an algorithm.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseRecord {
    /// Phase label (e.g. `"bridge-finding"`, `"failure-sweep"`).
    pub name: String,
    /// Executed synchronous steps attributed to the phase.
    pub steps: u64,
    /// Executed work (processor-steps) attributed to the phase.
    pub work: u64,
    /// Analytically charged steps attributed to the phase.
    pub charged_steps: u64,
    /// Analytically charged work attributed to the phase.
    pub charged_work: u64,
    /// Host wall-clock nanoseconds spent simulating the phase's steps.
    pub host_ns: u64,
}

/// Accumulated PRAM costs for one run.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Executed synchronous steps (the PRAM "time" T).
    pub steps: u64,
    /// Executed work: Σ over steps of the number of active processors.
    pub work: u64,
    /// Largest number of processors active in any single step.
    pub peak_processors: u64,
    /// High-water mark of live workspace cells ([`crate::Shm`] live-cell
    /// accounting: allocations minus scope releases, input arrays exempt)
    /// across every memory this machine tree stepped against. Host
    /// observability only — allocation is deterministic host bookkeeping,
    /// so the value is bit-identical across execution modes and worker
    /// counts, and identical whether or not a workspace budget is set.
    pub peak_live_cells: u64,
    /// Steps charged analytically (see module docs).
    pub charged_steps: u64,
    /// Work charged analytically.
    pub charged_work: u64,
    /// Per-phase breakdown, in the order phases were opened.
    pub phases: Vec<PhaseRecord>,
    /// Steps the host actually executed (differs from `steps` after
    /// [`crate::Machine::fork_join`], which maxes simulated time across
    /// children but sums what the host really ran).
    pub host_steps: u64,
    /// Host wall-clock nanoseconds spent in compute phases (running the
    /// step closures). Host observability only — never a simulated cost.
    /// Children that ran at once add their fork's wall time, not their
    /// summed time (see [`crate::Machine::fork_join`]).
    pub host_compute_ns: u64,
    /// Host wall-clock nanoseconds spent in commit phases (write
    /// resolution). Host observability only.
    pub host_commit_ns: u64,
    /// Total writes buffered by step closures.
    pub writes_buffered: u64,
    /// Cells that received a committed value.
    pub writes_committed: u64,
    /// Cells written by two or more processors in one step (resolved by
    /// the step's [`crate::WritePolicy`]).
    pub write_conflicts: u64,
    /// Steps whose commit took the conflict-free fast path (in-order
    /// scatter: no sort, no policy resolution).
    pub fastpath_steps: u64,
    /// Non-empty steps issued through a named kernel shape
    /// ([`crate::kernel`]). Each is one generic step and charges exactly
    /// what that step charges; this counter is host observability only.
    pub kernel_steps: u64,
    /// Largest number of host execution lanes (calling thread + pool
    /// workers) any phase of this run used: 1 while everything ran
    /// sequentially, 0 until a step executes. Host observability only —
    /// the simulated result is bit-identical at every lane count — recorded
    /// so bench CSV rows carry the core count they ran on. Absorbs take the
    /// maximum.
    pub threads: u64,
    /// Dynamic-analysis report ([`crate::AnalysisReport`]), populated only
    /// when [`crate::Machine::enable_analysis`] is on. Boxed so the common
    /// disabled case costs one pointer. Child-machine reports fold into the
    /// parent's when the child is folded back.
    pub analysis: Option<Box<crate::AnalysisReport>>,
    /// Injected-fault event counts ([`crate::faults`]). All zero unless a
    /// [`crate::faults::FaultPlan`] is installed. Host observability: both
    /// absorbs sum these, so a parent sees every fault in its machine tree.
    pub faults: crate::faults::FaultCounters,
    /// Las Vegas supervisor statistics ([`mod@crate::supervise`]). All zero
    /// unless an entry point ran under [`crate::supervise::supervise`].
    /// Host observability: both absorbs sum these.
    pub supervisor: crate::supervise::SupervisorStats,
    /// Serving-runtime statistics (admission, shedding, breaker activity).
    /// All zero unless requests ran through `ipch-service`, which fills
    /// this block in its aggregated metrics and health snapshots. Host
    /// observability: both absorbs sum these.
    pub service: ServiceStats,
    /// Index into `phases` of the currently open phase, if any.
    current_phase: Option<usize>,
}

/// Counters of the deadline-aware serving runtime (`ipch-service`): one
/// block per service (aggregated across requests), carried on [`Metrics`]
/// so health snapshots, absorbs and reports flow through the same plumbing
/// as every other observability counter.
///
/// Invariant maintained by the runtime: every submitted request resolves
/// exactly once, so `submitted == completed + rejected_queue_full +
/// rejected_tenant_limit + shed_expired + cancelled + deadline_exceeded +
/// invalid_inputs + run_errors + panics_isolated` once the service drains.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests presented to the admission controller.
    pub submitted: u64,
    /// Requests that passed admission and were enqueued.
    pub admitted: u64,
    /// Requests that finished with a correct (certified) result.
    pub completed: u64,
    /// Requests shed at admission because the bounded queue was full.
    pub rejected_queue_full: u64,
    /// Requests shed at admission by the per-tenant concurrency limit.
    pub rejected_tenant_limit: u64,
    /// Requests shed *after* admission because their deadline expired
    /// while still queued (never dispatched).
    pub shed_expired: u64,
    /// Requests aborted by an explicit client cancel.
    pub cancelled: u64,
    /// Requests aborted by deadline expiry mid-run.
    pub deadline_exceeded: u64,
    /// Requests rejected by input validation (typed `InputError`).
    pub invalid_inputs: u64,
    /// Requests that ended in a typed algorithm error
    /// ([`crate::RunError`], e.g. attempts exhausted under faults).
    pub run_errors: u64,
    /// Requests whose handler panicked; the panic was isolated to the
    /// request and surfaced as a typed error.
    pub panics_isolated: u64,
    /// Circuit-breaker transitions into a *more* degraded tier.
    pub breaker_trips: u64,
    /// Half-open probe requests dispatched at a less-degraded tier.
    pub breaker_probes: u64,
    /// Breaker transitions back to the full tier after a clean probe.
    pub breaker_recoveries: u64,
    /// Requests served at the reduced-retry degradation tier.
    pub degraded_tier1_runs: u64,
    /// Requests served at the sequential-exact degradation tier.
    pub degraded_tier2_runs: u64,
    /// Coalesced batches dispatched (two or more members fused into one
    /// machine run). Observability only: every member still resolves
    /// individually, so batch counters stay outside the resolution sum.
    pub batches_formed: u64,
    /// Members across all coalesced batches (mean batch size =
    /// `batch_members / batches_formed`).
    pub batch_members: u64,
    /// Predicate answers flipped by noisy-predicate injection, summed over
    /// every resolved request machine. A service-ledger copy of
    /// [`crate::FaultCounters::predicate_flips`]: the two books must agree
    /// (the noise-ledger invariant the chaos suite asserts).
    pub noise_flips: u64,
    /// Majority-vote predicate repetitions, summed over every resolved
    /// request machine (ledger copy of
    /// [`crate::FaultCounters::predicate_votes`]).
    pub noise_votes: u64,
    /// Requests served at the bounded-workspace (frugal) degradation tier.
    /// Observability only — like the breaker and batch counters, frugal
    /// runs still resolve through the ordinary outcome buckets, so this
    /// stays outside the resolution sum.
    pub frugal_runs: u64,
    /// Workspace-budget trips observed across resolved request machines
    /// (attempts voided by [`crate::RunError::WorkspaceExceeded`], whether
    /// or not a retry or fallback later succeeded). Observability only.
    pub workspace_trips: u64,
}

impl ServiceStats {
    /// Sum another block into this one (service-level roll-up).
    pub fn absorb(&mut self, other: &ServiceStats) {
        self.submitted += other.submitted;
        self.admitted += other.admitted;
        self.completed += other.completed;
        self.rejected_queue_full += other.rejected_queue_full;
        self.rejected_tenant_limit += other.rejected_tenant_limit;
        self.shed_expired += other.shed_expired;
        self.cancelled += other.cancelled;
        self.deadline_exceeded += other.deadline_exceeded;
        self.invalid_inputs += other.invalid_inputs;
        self.run_errors += other.run_errors;
        self.panics_isolated += other.panics_isolated;
        self.breaker_trips += other.breaker_trips;
        self.breaker_probes += other.breaker_probes;
        self.breaker_recoveries += other.breaker_recoveries;
        self.degraded_tier1_runs += other.degraded_tier1_runs;
        self.degraded_tier2_runs += other.degraded_tier2_runs;
        self.batches_formed += other.batches_formed;
        self.batch_members += other.batch_members;
        self.noise_flips += other.noise_flips;
        self.noise_votes += other.noise_votes;
        self.frugal_runs += other.frugal_runs;
        self.workspace_trips += other.workspace_trips;
    }

    /// Requests shed at or after admission (never dispatched).
    pub fn total_shed(&self) -> u64 {
        self.rejected_queue_full + self.rejected_tenant_limit + self.shed_expired
    }

    /// Requests that resolved, by any outcome (the "no lost request" sum).
    pub fn total_resolved(&self) -> u64 {
        self.completed
            + self.total_shed()
            + self.cancelled
            + self.deadline_exceeded
            + self.invalid_inputs
            + self.run_errors
            + self.panics_isolated
    }
}

impl Metrics {
    /// Fresh, zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total time including charged steps.
    pub fn total_steps(&self) -> u64 {
        self.steps + self.charged_steps
    }

    /// Total work including charged work.
    pub fn total_work(&self) -> u64 {
        self.work + self.charged_work
    }

    /// Record one executed step with `procs` active processors.
    pub(crate) fn record_step(&mut self, procs: u64) {
        self.steps += 1;
        self.work += procs;
        self.peak_processors = self.peak_processors.max(procs);
        if let Some(i) = self.current_phase {
            self.phases[i].steps += 1;
            self.phases[i].work += procs;
        }
    }

    /// Record the host wall time of one executed step (compute + commit).
    pub(crate) fn record_host_ns(&mut self, compute_ns: u64, commit_ns: u64) {
        self.host_steps += 1;
        self.host_compute_ns += compute_ns;
        self.host_commit_ns += commit_ns;
        if let Some(i) = self.current_phase {
            self.phases[i].host_ns += compute_ns + commit_ns;
        }
    }

    /// Record the host lane count of one executed phase (max-accumulating).
    pub(crate) fn record_threads(&mut self, lanes: usize) {
        self.threads = self.threads.max(lanes as u64);
    }

    /// Total host wall time spent simulating, in nanoseconds.
    pub fn host_total_ns(&self) -> u64 {
        self.host_compute_ns + self.host_commit_ns
    }

    /// Fraction of host-executed steps whose commit took the conflict-free
    /// fast path (`None` before any step executes).
    pub fn fastpath_hit_rate(&self) -> Option<f64> {
        if self.host_steps == 0 {
            return None;
        }
        Some(self.fastpath_steps as f64 / self.host_steps as f64)
    }

    /// Record an analytic charge.
    pub(crate) fn record_charge(&mut self, steps: u64, work: u64) {
        self.charged_steps += steps;
        self.charged_work += work;
        if let Some(i) = self.current_phase {
            self.phases[i].charged_steps += steps;
            self.phases[i].charged_work += work;
        }
    }

    /// Open a named phase; subsequent costs are attributed to it until the
    /// next `begin_phase` or [`Metrics::end_phase`]. Reopening an existing
    /// name resumes that phase's counters.
    pub fn begin_phase(&mut self, name: &str) {
        if let Some(i) = self.phases.iter().position(|p| p.name == name) {
            self.current_phase = Some(i);
            return;
        }
        self.phases.push(PhaseRecord {
            name: name.to_string(),
            ..PhaseRecord::default()
        });
        self.current_phase = Some(self.phases.len() - 1);
    }

    /// Close the current phase (costs fall back to the totals only).
    pub fn end_phase(&mut self) {
        self.current_phase = None;
    }

    /// Look up a phase record by name.
    pub fn phase(&self, name: &str) -> Option<&PhaseRecord> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Merge metrics of subcomputations that ran *in parallel* (each on its
    /// own processor group): time advances by the **maximum** child time,
    /// work by the **sum** of child works. This is how the paper's
    /// simultaneous subproblems (one bridge-finding instance per tree node,
    /// one solver per subproblem, …) are accounted. Algorithm crates reach
    /// it only through the fold of [`crate::Machine::fork_join`] and
    /// [`crate::Machine::fork_join_seq`], which passes the children in item
    /// order, so every simulated counter and the merged
    /// analyzer report are the same whatever order the children ran in.
    ///
    /// Host time is wall time: `host_compute_ns + host_commit_ns` grows by
    /// the children's summed host time capped at `wall_ns`, the fork's
    /// wall-clock time (children that ran at once spent more CPU time than
    /// wall time; the cap keeps the split between compute and commit).
    /// The open phase, if any, is charged the same capped host time, so
    /// a phase that forks its work to children still shows where the
    /// host spent it. `host_steps` still sums: it counts what the host ran.
    pub(crate) fn absorb_parallel(&mut self, children: &[Metrics], wall_ns: u64) {
        if children.is_empty() {
            return;
        }
        self.steps += children.iter().map(|c| c.steps).max().unwrap_or(0);
        self.charged_steps += children.iter().map(|c| c.charged_steps).max().unwrap_or(0);
        self.work += children.iter().map(|c| c.work).sum::<u64>();
        self.charged_work += children.iter().map(|c| c.charged_work).sum::<u64>();
        let concurrent_peak: u64 = children.iter().map(|c| c.peak_processors).sum();
        self.peak_processors = self.peak_processors.max(concurrent_peak);
        // Parallel children's workspaces coexist, so their peaks add — the
        // same shape as the processor peak above.
        let concurrent_cells: u64 = children.iter().map(|c| c.peak_live_cells).sum();
        self.peak_live_cells = self.peak_live_cells.max(concurrent_cells);
        let (compute, commit) = (self.host_compute_ns, self.host_commit_ns);
        for c in children {
            self.absorb_host(c);
        }
        let add_compute = self.host_compute_ns - compute;
        let add_commit = self.host_commit_ns - commit;
        let add = add_compute + add_commit;
        if add > wall_ns {
            let kept_compute = (add_compute as u128 * wall_ns as u128 / add as u128) as u64;
            self.host_compute_ns = compute + kept_compute;
            self.host_commit_ns = commit + (wall_ns - kept_compute);
        }
        if let Some(i) = self.current_phase {
            let p = &mut self.phases[i];
            // The phase that forked is charged the host time the fork
            // added, wall-capped like the totals above.
            p.host_ns += (self.host_compute_ns - compute) + (self.host_commit_ns - commit);
            p.steps += children.iter().map(|c| c.steps).max().unwrap_or(0);
            p.charged_steps += children.iter().map(|c| c.charged_steps).max().unwrap_or(0);
            p.work += children.iter().map(|c| c.work).sum::<u64>();
            p.charged_work += children.iter().map(|c| c.charged_work).sum::<u64>();
        }
    }

    /// Merge another metrics object into this one (phases appended by name).
    ///
    /// Sequential composition: [`crate::Machine::sub`] folds a child
    /// machine with it, and the serving runtime aggregates request
    /// machines with it.
    pub fn absorb(&mut self, other: &Metrics) {
        self.steps += other.steps;
        self.work += other.work;
        self.peak_processors = self.peak_processors.max(other.peak_processors);
        self.peak_live_cells = self.peak_live_cells.max(other.peak_live_cells);
        self.charged_steps += other.charged_steps;
        self.charged_work += other.charged_work;
        self.absorb_host(other);
        for p in &other.phases {
            if let Some(mine) = self.phases.iter_mut().find(|q| q.name == p.name) {
                mine.steps += p.steps;
                mine.work += p.work;
                mine.charged_steps += p.charged_steps;
                mine.charged_work += p.charged_work;
                mine.host_ns += p.host_ns;
            } else {
                self.phases.push(p.clone());
            }
        }
    }

    /// Fold `other`'s host-side counters into this one's. They reflect
    /// what the host actually did, so both absorbs add them (even where
    /// *simulated* time is max'd).
    fn absorb_host(&mut self, other: &Metrics) {
        self.host_steps += other.host_steps;
        self.host_compute_ns += other.host_compute_ns;
        self.host_commit_ns += other.host_commit_ns;
        self.writes_buffered += other.writes_buffered;
        self.writes_committed += other.writes_committed;
        self.write_conflicts += other.write_conflicts;
        self.fastpath_steps += other.fastpath_steps;
        self.kernel_steps += other.kernel_steps;
        self.threads = self.threads.max(other.threads);
        self.faults.absorb(&other.faults);
        self.supervisor.absorb(&other.supervisor);
        self.service.absorb(&other.service);
        self.absorb_analysis(other);
    }

    /// Fold a child's analysis report (if any) into this one's.
    fn absorb_analysis(&mut self, other: &Metrics) {
        if let Some(theirs) = &other.analysis {
            match &mut self.analysis {
                Some(mine) => mine.merge(theirs, crate::analyze::MERGE_VIOLATION_CAP),
                None => self.analysis = Some(theirs.clone()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_accounting() {
        let mut m = Metrics::new();
        m.record_step(10);
        m.record_step(4);
        assert_eq!(m.steps, 2);
        assert_eq!(m.work, 14);
        assert_eq!(m.peak_processors, 10);
        assert_eq!(m.total_steps(), 2);
    }

    #[test]
    fn charge_is_separate_bucket() {
        let mut m = Metrics::new();
        m.record_step(5);
        m.record_charge(3, 100);
        assert_eq!(m.steps, 1);
        assert_eq!(m.charged_steps, 3);
        assert_eq!(m.total_steps(), 4);
        assert_eq!(m.total_work(), 105);
    }

    #[test]
    fn phases_attribute_and_resume() {
        let mut m = Metrics::new();
        m.begin_phase("a");
        m.record_step(2);
        m.begin_phase("b");
        m.record_step(3);
        m.begin_phase("a"); // resume
        m.record_step(4);
        m.end_phase();
        m.record_step(1); // unattributed
        let a = m.phase("a").unwrap();
        let b = m.phase("b").unwrap();
        assert_eq!(a.steps, 2);
        assert_eq!(a.work, 6);
        assert_eq!(b.steps, 1);
        assert_eq!(m.steps, 4);
    }

    /// A phase whose steps all run in fork children is charged the host
    /// time the fork added — the children's sum, capped at the fork's
    /// wall time — not 0.
    #[test]
    fn absorb_parallel_charges_the_open_phase_its_capped_host_time() {
        let child = |compute: u64, commit: u64| {
            let mut c = Metrics::new();
            c.record_step(4);
            c.record_host_ns(compute, commit);
            c
        };
        let kids = [child(300, 100), child(500, 100)];
        let mut m = Metrics::new();
        m.begin_phase("probe");
        m.absorb_parallel(&kids, 10_000);
        assert_eq!(m.phase("probe").unwrap().host_ns, 1_000);
        assert_eq!(m.host_total_ns(), 1_000);
        // children that ran at once: capped at the fork's wall time
        m.absorb_parallel(&kids, 600);
        assert_eq!(m.phase("probe").unwrap().host_ns, 1_600);
        assert_eq!(m.host_total_ns(), 1_600);
        // no open phase: only the totals grow
        m.end_phase();
        m.absorb_parallel(&kids, 600);
        assert_eq!(m.phase("probe").unwrap().host_ns, 1_600);
        assert_eq!(m.host_total_ns(), 2_200);
    }

    #[test]
    fn absorb_merges_by_phase_name() {
        let mut m = Metrics::new();
        m.begin_phase("x");
        m.record_step(2);
        m.end_phase();

        let mut o = Metrics::new();
        o.begin_phase("x");
        o.record_step(3);
        o.begin_phase("y");
        o.record_charge(1, 7);
        o.end_phase();

        m.absorb(&o);
        assert_eq!(m.steps, 2);
        assert_eq!(m.phase("x").unwrap().steps, 2);
        assert_eq!(m.phase("y").unwrap().charged_work, 7);
        assert_eq!(m.charged_work, 7);
    }
}
