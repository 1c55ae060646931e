//! Execution-path equivalence: the machine's observable behaviour — final
//! memory AND the PRAM/observability accounting — must be a pure function
//! of (seed, program), identical across every host execution mode:
//!
//! * sequential vs pool-parallel compute,
//! * conflict-free fast-path vs sorted slow-path commits,
//! * parallel vs sequential sort/resolve in the slow path.
//!
//! Random step programs cover every [`WritePolicy`], in-order and reversed
//! scatters (fast vs slow path triggers), conflict pile-ups, RNG-driven
//! targets, and duplicate writes from one processor.

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
/// host happened to execute the step (threads, chunking, kernel fusion).
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
    let arrays: Vec<_> = lens
        .iter()
        .enumerate()
        .map(|(i, &len)| shm.alloc(format!("a{i}"), len, 0))
        .collect();

    for spec in program {
        let a0 = arrays[0];
        let a1 = arrays[spec.param as usize % arrays.len()];
        let len0 = shm.len(a0);
        let len1 = shm.len(a1);
        let (pattern, param) = (spec.pattern, spec.param);
        m.step_with_policy(&mut shm, 0..spec.nprocs, spec.policy, move |ctx| {
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
        });
    }

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

fn step_spec() -> impl Strategy<Value = StepSpec> {
    (1usize..3000, 0usize..6, 0u8..6, 1u64..64).prop_map(|(nprocs, pol, pattern, param)| StepSpec {
        nprocs,
        policy: POLICIES[pol],
        pattern,
        param,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_execution_paths_are_equivalent(
        lens in vec(1usize..300, 1..4),
        program in vec(step_spec(), 1..6),
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
        program in vec(step_spec(), 1..5),
    ) {
        let a = run_program(Tuning::default(), &lens, &program);
        let b = run_program(Tuning::default(), &lens, &program);
        prop_assert_eq!(a, b);
    }
}

// ---------------------------------------------------------------------------
// Kernel/generic equivalence: every fused kernel shape must be observably
// identical — final memory AND steps/work/write/conflict metrics — to the
// generic step path it replaces (`Tuning::disable_kernels`), under every
// write policy / reduce op and both sequential and parallel execution.
// ---------------------------------------------------------------------------

const REDUCE_OPS: [ReduceOp; 5] = [
    ReduceOp::Or,
    ReduceOp::Sum,
    ReduceOp::Min,
    ReduceOp::Max,
    ReduceOp::First,
];

/// One randomly generated kernel invocation.
#[derive(Clone, Copy, Debug)]
struct KernelSpec {
    /// 0 = map, 1 = permute, 2 = scatter, 3 = reduce.
    shape: u8,
    nprocs: usize,
    /// Scatter conflict rule.
    policy: WritePolicy,
    /// Reduce combining rule.
    op: ReduceOp,
    param: u64,
}

fn kernel_spec() -> impl Strategy<Value = KernelSpec> {
    (0u8..4, 1usize..3000, 0usize..6, 0usize..5, 1u64..64).prop_map(
        |(shape, nprocs, pol, op, param)| KernelSpec {
            shape,
            nprocs,
            policy: POLICIES[pol],
            op: REDUCE_OPS[op],
            param,
        },
    )
}

fn run_kernel_program(tuning: Tuning, lens: &[usize], program: &[KernelSpec]) -> Observed {
    let mut m = Machine::new(0xB0B);
    m.tuning = tuning;
    m.enable_analysis(AnalyzeConfig::default());
    let mut shm = Shm::new();
    shm.enable_shadow(true);
    let arrays: Vec<_> = lens
        .iter()
        .enumerate()
        .map(|(i, &len)| shm.alloc(format!("a{i}"), len, 0))
        .collect();
    // map/permute output (pid-indexed, so sized to the largest pid set) and
    // the reduce target cell
    let out = shm.alloc("out", 20_000, 0);
    let cell = shm.alloc("cell", 1, 0);

    for spec in program {
        let a0 = arrays[0];
        let a1 = arrays[spec.param as usize % arrays.len()];
        let len0 = shm.len(a0);
        let len1 = shm.len(a1);
        let param = spec.param as usize;
        match spec.shape {
            // map: out[pid] = g(a0[pid % len0])
            0 => m.kernel_map(&mut shm, 0..spec.nprocs, out, move |t, pid| {
                t.read(a0, pid % len0).wrapping_mul(3) ^ param as Word
            }),
            // permute: rotate by param — a bijection on 0..nprocs
            1 => {
                let n = spec.nprocs;
                m.kernel_permute(&mut shm, 0..n, out, move |t, pid| {
                    ((pid + param) % n, t.read(a1, pid % len1) + pid as Word)
                })
            }
            // scatter: conflicting conditional writes under a random policy
            2 => m.kernel_scatter_with_policy(
                &mut shm,
                0..spec.nprocs,
                spec.policy,
                move |t, pid| {
                    if pid % 3 == 0 {
                        return None;
                    }
                    let i = pid.wrapping_mul(param) % len1.min(11);
                    Some((a1, i, t.read(a0, pid % len0) + pid as Word))
                },
            ),
            // reduce: combine contributions of ~4/5 of the processors
            _ => m.kernel_reduce(&mut shm, 0..spec.nprocs, spec.op, cell, 0, move |t, pid| {
                if pid % 5 == 4 {
                    None
                } else {
                    Some(t.read(a0, pid % len0).wrapping_add(pid as Word))
                }
            }),
        }
    }

    let mut memory: Vec<Vec<Word>> = arrays.iter().map(|&a| shm.slice(a).to_vec()).collect();
    memory.push(shm.slice(out).to_vec());
    memory.push(shm.slice(cell).to_vec());
    Observed {
        memory,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kernels_are_equivalent_to_generic_steps(
        lens in vec(1usize..300, 1..4),
        program in vec(kernel_spec(), 1..6),
    ) {
        let fused = run_kernel_program(
            Tuning { num_threads: Some(1), ..Tuning::default() },
            &lens,
            &program,
        );
        let generic = run_kernel_program(
            Tuning { num_threads: Some(1), disable_kernels: true, ..Tuning::default() },
            &lens,
            &program,
        );
        prop_assert_eq!(&fused, &generic, "fused kernels diverged from generic steps");

        let fused_par = run_kernel_program(
            Tuning { par_threshold: 0, ..Tuning::default() },
            &lens,
            &program,
        );
        let generic_par = run_kernel_program(
            Tuning { par_threshold: 0, disable_kernels: true, ..Tuning::default() },
            &lens,
            &program,
        );
        prop_assert_eq!(&fused, &fused_par, "parallel fused kernels diverged");
        prop_assert_eq!(&fused, &generic_par, "parallel generic path diverged");

        let generic_slow = run_kernel_program(
            Tuning { disable_kernels: true, disable_fast_path: true, ..Tuning::default() },
            &lens,
            &program,
        );
        prop_assert_eq!(&fused, &generic_slow, "slow-path generic diverged from kernels");
    }
}

// ---------------------------------------------------------------------------
// Backend equivalence: pooled kernels must be observably identical —
// memory, Metrics counters, AnalysisReport — to the sequential fused loops
// (kernel threshold `usize::MAX`) at *every* worker-count cap (1 lane,
// 2 lanes, uncapped), with the dispatch threshold forced to 1 so even tiny
// kernels take the parallel code path, and with processor counts spanning multiple CHUNK
// (8192) boundaries so cross-chunk combining is actually exercised.
// ---------------------------------------------------------------------------

/// `kernel_spec` with processor counts up to 20 000 (1–3 chunks).
fn kernel_spec_large() -> impl Strategy<Value = KernelSpec> {
    (0u8..4, 1usize..20_000, 0usize..6, 0usize..5, 1u64..64).prop_map(
        |(shape, nprocs, pol, op, param)| KernelSpec {
            shape,
            nprocs,
            policy: POLICIES[pol],
            op: REDUCE_OPS[op],
            param,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn kernel_backends_are_equivalent_at_every_worker_count(
        lens in vec(1usize..300, 1..4),
        program in vec(kernel_spec_large(), 1..5),
    ) {
        let fused = run_kernel_program(
            Tuning { par_threshold: usize::MAX, ..Tuning::default() },
            &lens,
            &program,
        );
        for lanes in [Some(1), Some(2), None] {
            let par = run_kernel_program(
                Tuning {
                    par_threshold: 1,
                    num_threads: lanes,
                    ..Tuning::default()
                },
                &lens,
                &program,
            );
            prop_assert_eq!(
                &fused, &par,
                "parallel backend diverged at num_threads={:?}", lanes
            );
        }
        // the parallel backend must also agree with the generic step path
        let generic = run_kernel_program(
            Tuning { disable_kernels: true, ..Tuning::default() },
            &lens,
            &program,
        );
        prop_assert_eq!(&fused, &generic, "generic path diverged at large n");
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
    // so every step takes the pooled path.
    let programs: Vec<(Vec<usize>, Vec<StepSpec>, Vec<KernelSpec>)> = (0..MACHINES)
        .map(|i| {
            let lens = vec![257 + 31 * i, 64 + 7 * i];
            let steps = (0..8)
                .map(|k| StepSpec {
                    nprocs: 4_000 + 2_311 * ((i + k) % 7),
                    policy: POLICIES[(i + k) % POLICIES.len()],
                    pattern: ((i * 3 + k) % 6) as u8,
                    param: (i * 13 + k * 5 + 1) as u64,
                })
                .collect();
            let kernels = (0..8)
                .map(|k| KernelSpec {
                    shape: ((i + k) % 4) as u8,
                    nprocs: 9_000 + 1_777 * ((i * 2 + k) % 5),
                    policy: POLICIES[(i * 5 + k) % POLICIES.len()],
                    op: REDUCE_OPS[(i + 2 * k) % REDUCE_OPS.len()],
                    param: (i * 7 + k * 11 + 1) as u64,
                })
                .collect();
            (lens, steps, kernels)
        })
        .collect();
    let tuning = Tuning {
        par_threshold: 0,
        ..Tuning::default()
    };
    let run = |(lens, steps, kernels): &(Vec<usize>, Vec<StepSpec>, Vec<KernelSpec>)| {
        (
            run_program(tuning, lens, steps),
            run_kernel_program(tuning, lens, kernels),
        )
    };
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
