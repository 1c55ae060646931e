//! Execution-path equivalence: the machine's observable behaviour — final
//! memory AND the PRAM/observability accounting — must be a pure function
//! of (seed, program), identical across every host execution mode:
//!
//! * sequential vs pool-parallel compute,
//! * conflict-free fast-path vs sorted slow-path commits,
//! * parallel vs sequential sort/resolve in the slow path,
//! * every worker-count cap.
//!
//! Random step programs cover every [`WritePolicy`], in-order and reversed
//! scatters (fast vs slow path triggers), conflict pile-ups, RNG-driven
//! targets, duplicate writes from one processor, and the three named kernel
//! shapes (map, scatter under every policy, reduce under every op).

use proptest::collection::vec;
use proptest::prelude::*;

use ipch_pram::{AnalysisReport, AnalyzeConfig, Machine, ReduceOp, Shm, Tuning, Word, WritePolicy};

const POLICIES: [WritePolicy; 6] = [
    WritePolicy::Arbitrary,
    WritePolicy::PriorityMin,
    WritePolicy::CombineMin,
    WritePolicy::CombineMax,
    WritePolicy::CombineSum,
    WritePolicy::CombineOr,
];

const REDUCE_OPS: [ReduceOp; 5] = [
    ReduceOp::Or,
    ReduceOp::Sum,
    ReduceOp::Min,
    ReduceOp::Max,
    ReduceOp::First,
];

/// Number of step patterns `run_program` knows (0–5 generic, 6–8 kernels).
const PATTERNS: u8 = 9;

/// One randomly generated step: processor count, conflict-resolution rule,
/// write pattern, and a pattern parameter.
#[derive(Clone, Copy, Debug)]
struct StepSpec {
    nprocs: usize,
    policy: WritePolicy,
    pattern: u8,
    param: u64,
}

/// Everything observable about a run (minus host wall-clock and the
/// fast-path counter, which legitimately differ across modes). The
/// analyzer's report is part of the observable surface: classification,
/// race census, and the rendered violation list must not depend on how the
/// host happened to execute the step (threads, chunking).
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    memory: Vec<Vec<Word>>,
    steps: u64,
    work: u64,
    peak: u64,
    peak_live_cells: u64,
    writes_buffered: u64,
    writes_committed: u64,
    write_conflicts: u64,
    analysis: Option<Box<AnalysisReport>>,
}

fn run_program(tuning: Tuning, lens: &[usize], program: &[StepSpec]) -> Observed {
    let mut m = Machine::new(0xA11CE);
    m.tuning = tuning;
    m.enable_analysis(AnalyzeConfig::default());
    let mut shm = Shm::new();
    shm.enable_shadow(true);
    let mut arrays: Vec<_> = lens
        .iter()
        .enumerate()
        .map(|(i, &len)| shm.alloc(format!("a{i}"), len, 0))
        .collect();
    // the map output (pid-indexed, so sized to the largest pid set) and the
    // reduce target cell
    let out = shm.alloc("out", 20_000, 0);
    let cell = shm.alloc("cell", 1, 0);

    for spec in program {
        let a0 = arrays[0];
        let a1 = arrays[spec.param as usize % arrays.len()];
        let len0 = shm.len(a0);
        let len1 = shm.len(a1);
        let (pattern, param) = (spec.pattern, spec.param);
        let procs = 0..spec.nprocs;
        match pattern {
            // map: out[pid] = g(a0[pid % len0])
            6 => m.kernel_map(&mut shm, procs, out, move |t, pid| {
                t.read(a0, pid % len0).wrapping_mul(3) ^ param as Word
            }),
            // scatter: conflicting conditional writes under a random policy
            7 => m.kernel_scatter_with_policy(&mut shm, procs, spec.policy, move |t, pid| {
                let i = pid.wrapping_mul(param as usize) % len1.min(11);
                (pid % 3 != 0).then(|| (a1, i, t.read(a0, pid % len0) + pid as Word))
            }),
            // reduce: combine contributions of ~4/5 of the processors
            8 => {
                let op = REDUCE_OPS[param as usize % REDUCE_OPS.len()];
                m.kernel_reduce(&mut shm, procs, op, cell, 0, move |t, pid| {
                    (pid % 5 != 4).then(|| t.read(a0, pid % len0).wrapping_add(pid as Word))
                })
            }
            _ => m.step_with_policy(&mut shm, procs, spec.policy, move |ctx| {
                let pid = ctx.pid;
                match pattern {
                    // in-order scatter — the fast-path shape (when nprocs <= len0)
                    0 => ctx.write(a0, pid % len0, pid as Word),
                    // reversed scatter — conflict-free but out of order
                    1 => ctx.write(a0, len0 - 1 - (pid % len0), pid as Word),
                    // conflict pile-up on a handful of cells
                    2 => ctx.write(a0, (pid.wrapping_mul(param as usize)) % len0.min(7), 1),
                    // RNG-driven target (exercises the lazy per-pid stream)
                    3 => {
                        let i = ctx.rng().next_below(len1 as u64) as usize;
                        ctx.write(a1, i, pid as Word + 1);
                    }
                    // duplicate writes from one processor to one cell
                    4 => {
                        ctx.write(a1, pid % len1, 5);
                        ctx.write(a1, pid % len1, pid as Word);
                    }
                    // read-only step (commit sees an empty log)
                    _ => {
                        let row = ctx.slice(a0);
                        let _ = std::hint::black_box(row[pid % len0]);
                    }
                }
            }),
        }
    }

    arrays.extend([out, cell]);
    Observed {
        memory: arrays.iter().map(|&a| shm.slice(a).to_vec()).collect(),
        steps: m.metrics.steps,
        work: m.metrics.work,
        peak: m.metrics.peak_processors,
        peak_live_cells: m.metrics.peak_live_cells,
        writes_buffered: m.metrics.writes_buffered,
        writes_committed: m.metrics.writes_committed,
        write_conflicts: m.metrics.write_conflicts,
        analysis: m.metrics.analysis.clone(),
    }
}

/// A random step of up to `max_procs` processors.
fn step_spec(max_procs: usize) -> impl Strategy<Value = StepSpec> {
    (1..max_procs, 0usize..6, 0..PATTERNS, 1u64..64).prop_map(|(nprocs, pol, pattern, param)| {
        StepSpec {
            nprocs,
            policy: POLICIES[pol],
            pattern,
            param,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_execution_paths_are_equivalent(
        lens in vec(1usize..300, 1..4),
        program in vec(step_spec(3000), 1..6),
    ) {
        let base = run_program(
            Tuning { num_threads: Some(1), ..Tuning::default() },
            &lens,
            &program,
        );
        let auto = run_program(Tuning::default(), &lens, &program);
        let parallel = run_program(
            Tuning { par_threshold: 0, ..Tuning::default() },
            &lens,
            &program,
        );
        let slow_only = run_program(
            Tuning { disable_fast_path: true, ..Tuning::default() },
            &lens,
            &program,
        );
        let parallel_slow = run_program(
            Tuning { par_threshold: 0, disable_fast_path: true, ..Tuning::default() },
            &lens,
            &program,
        );
        prop_assert_eq!(&base, &auto, "auto-threshold diverged");
        prop_assert_eq!(&base, &parallel, "parallel compute/commit diverged");
        prop_assert_eq!(&base, &slow_only, "sorted slow path diverged");
        prop_assert_eq!(&base, &parallel_slow, "parallel slow path diverged");
    }

    #[test]
    fn replay_is_bit_identical(
        lens in vec(1usize..200, 1..3),
        program in vec(step_spec(3000), 1..5),
    ) {
        let a = run_program(Tuning::default(), &lens, &program);
        let b = run_program(Tuning::default(), &lens, &program);
        prop_assert_eq!(a, b);
    }
}

// ---------------------------------------------------------------------------
// Worker-count equivalence: pooled steps must be observably identical —
// memory, Metrics counters, AnalysisReport — to sequential chunk loops
// (threshold `usize::MAX`) at *every* worker-count cap (1 lane, 2 lanes,
// uncapped), with the dispatch threshold forced to 1 so even tiny steps
// take the parallel code path, and with processor counts spanning multiple
// CHUNK (8192) boundaries so cross-chunk commits are actually exercised.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn kernel_backends_are_equivalent_at_every_worker_count(
        lens in vec(1usize..300, 1..4),
        program in vec(step_spec(20_000), 1..5),
    ) {
        let sequential = run_program(
            Tuning { par_threshold: usize::MAX, ..Tuning::default() },
            &lens,
            &program,
        );
        for lanes in [Some(1), Some(2), None] {
            let par = run_program(
                Tuning {
                    par_threshold: 1,
                    num_threads: lanes,
                    ..Tuning::default()
                },
                &lens,
                &program,
            );
            prop_assert_eq!(
                &sequential, &par,
                "parallel execution diverged at num_threads={:?}", lanes
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Concurrent machines: several machines stepping at once on different
// threads share the one global pool. Each must observe exactly what it
// observes when it runs alone — memory, Metrics counters, AnalysisReport.
// ---------------------------------------------------------------------------

#[test]
fn concurrent_machines_match_sequential_runs() {
    const MACHINES: usize = 4;
    const ROUNDS: usize = 3;
    // One fixed program per machine, big enough to span several chunks,
    // so every step takes the pooled path: eight generic steps, then eight
    // kernel steps.
    let programs: Vec<(Vec<usize>, Vec<StepSpec>)> = (0..MACHINES)
        .map(|i| {
            let lens = vec![257 + 31 * i, 64 + 7 * i];
            let steps = (0..8).map(|k| StepSpec {
                nprocs: 4_000 + 2_311 * ((i + k) % 7),
                policy: POLICIES[(i + k) % POLICIES.len()],
                pattern: ((i * 3 + k) % 6) as u8,
                param: (i * 13 + k * 5 + 1) as u64,
            });
            let kernels = (0..8).map(|k| StepSpec {
                nprocs: 9_000 + 1_777 * ((i * 2 + k) % 5),
                policy: POLICIES[(i * 5 + k) % POLICIES.len()],
                pattern: 6 + ((i + k) % 3) as u8,
                param: (i * 7 + k * 11 + 1) as u64,
            });
            (lens, steps.chain(kernels).collect())
        })
        .collect();
    let tuning = Tuning {
        par_threshold: 0,
        ..Tuning::default()
    };
    let run = |(lens, steps): &(Vec<usize>, Vec<StepSpec>)| run_program(tuning, lens, steps);
    let alone: Vec<_> = programs.iter().map(run).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = programs
            .iter()
            .map(|p| s.spawn(move || (0..ROUNDS).map(|_| run(p)).collect::<Vec<_>>()))
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            for (round, got) in h.join().expect("machine thread").iter().enumerate() {
                assert_eq!(got, &alone[i], "machine {i} diverged in round {round}");
            }
        }
    });
}
