//! Named step shapes: the three shapes that dominate the reproduced
//! algorithms, each a thin name over one generic synchronous step.
//!
//! * [`Machine::kernel_map`] — processor `pid` writes `f(pid)` to
//!   `out[pid]`. Conflict-free by construction.
//! * [`Machine::kernel_scatter`] — processor `pid` makes at most one
//!   *conditional* write anywhere; conflicts are resolved by the write
//!   policy.
//! * [`Machine::kernel_reduce`] — every processor contributes at most one
//!   value, combined into a single target cell under a [`ReduceOp`]
//!   (concurrent-OR, combining sum/min/max, priority-first).
//!
//! Each runs as exactly one [`Machine::step_with_policy`]: the closure gets
//! the processor's [`Ctx`] by shared reference (it reads the pre-step
//! snapshot; it can neither write nor draw coins) and returns its one write,
//! which the step buffers and commits like any other. So a kernel charges
//! exactly what the equivalent hand-written step charges, honours fault
//! plans, the analyzer and cancellation the same way, and its only trace is
//! the [`crate::Metrics::kernel_steps`] counter.
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
//! // out[pid] = xs[pid] * 2, one synchronous step.
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

use crate::machine::{Ctx, Machine, Pids};
use crate::memory::{ArrayId, Shm};
use crate::policy::WritePolicy;
use crate::Word;

/// Combining rule of a [`Machine::kernel_reduce`] step: each variant names
/// one CRCW [`WritePolicy`], under which every contributor writes the
/// target cell.
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
    /// The write policy this op names.
    pub fn policy(self) -> WritePolicy {
        match self {
            ReduceOp::Or => WritePolicy::CombineOr,
            ReduceOp::Sum => WritePolicy::CombineSum,
            ReduceOp::Min => WritePolicy::CombineMin,
            ReduceOp::Max => WritePolicy::CombineMax,
            ReduceOp::First => WritePolicy::PriorityMin,
        }
    }
}

impl Machine {
    /// One synchronous step in which processor `pid` writes `f(pid)` to
    /// `out[pid]`. Distinct pids write distinct cells, so the writes never
    /// conflict.
    pub fn kernel_map<'a, P, F>(&mut self, shm: &mut Shm, pids: P, out: ArrayId, f: F)
    where
        P: Into<Pids<'a>>,
        F: Fn(&Ctx, usize) -> Word + Sync,
    {
        let policy = self.policy;
        self.kernel_step(shm, pids.into(), policy, |ctx| {
            let v = f(ctx, ctx.pid);
            ctx.write(out, ctx.pid, v);
        });
    }

    /// One synchronous step in which each processor makes at most one
    /// conditional write anywhere (`f` returns `Some((array, index, value))`
    /// to write), resolved under the machine's default policy.
    pub fn kernel_scatter<'a, P, F>(&mut self, shm: &mut Shm, pids: P, f: F)
    where
        P: Into<Pids<'a>>,
        F: Fn(&Ctx, usize) -> Option<(ArrayId, usize, Word)> + Sync,
    {
        let policy = self.policy;
        self.kernel_scatter_with_policy(shm, pids, policy, f);
    }

    /// [`Machine::kernel_scatter`] with an explicit write rule.
    pub fn kernel_scatter_with_policy<'a, P, F>(
        &mut self,
        shm: &mut Shm,
        pids: P,
        policy: WritePolicy,
        f: F,
    ) where
        P: Into<Pids<'a>>,
        F: Fn(&Ctx, usize) -> Option<(ArrayId, usize, Word)> + Sync,
    {
        self.kernel_step(shm, pids.into(), policy, |ctx| {
            if let Some((a, i, v)) = f(ctx, ctx.pid) {
                ctx.write(a, i, v);
            }
        });
    }

    /// One synchronous combining-CRCW step: every processor contributes at
    /// most one value (`f` returns `Some(v)` to contribute), and
    /// `target[tidx]` receives the combination under `op` — every
    /// contributor writes that cell under [`ReduceOp::policy`].
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
        F: Fn(&Ctx, usize) -> Option<Word> + Sync,
    {
        self.kernel_step(shm, pids.into(), op.policy(), |ctx| {
            if let Some(v) = f(ctx, ctx.pid) {
                ctx.write(target, tidx, v);
            }
        });
    }

    /// The one body behind every kernel name: a generic step, counted in
    /// [`crate::Metrics::kernel_steps`] once it completes with at least
    /// one processor.
    fn kernel_step<F>(&mut self, shm: &mut Shm, pids: Pids<'_>, policy: WritePolicy, f: F)
    where
        F: Fn(&mut Ctx) + Sync,
    {
        let nonempty = pids.count() > 0;
        self.step_with_policy(shm, pids, policy, f);
        if nonempty {
            self.metrics.kernel_steps += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Metrics;

    /// Every simulated cost a step charges (host-observability counters —
    /// host_ns, fastpath_steps, kernel_steps — excluded).
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

    #[test]
    fn map_matches_generic_step_memory_and_metrics() {
        let run = |kernel: bool| {
            let mut m = Machine::new(99);
            let mut shm = Shm::new();
            let xs = shm.alloc("xs", 100, 0);
            for i in 0..100 {
                shm.host_set(xs, i, i as i64);
            }
            let out = shm.alloc("out", 100, 0);
            if kernel {
                m.kernel_map(&mut shm, 0..100, out, |t, pid| t.read(xs, pid) * 3 + 1);
            } else {
                m.step(&mut shm, 0..100, |ctx| {
                    let v = ctx.read(xs, ctx.pid) * 3 + 1;
                    ctx.write(out, ctx.pid, v);
                });
            }
            (
                shm.slice(out).to_vec(),
                observed(&m.metrics),
                m.metrics.kernel_steps,
            )
        };
        let (kernel, generic) = (run(true), run(false));
        assert_eq!(kernel.0, generic.0);
        assert_eq!(kernel.1, generic.1);
        assert_eq!((kernel.2, generic.2), (1, 0));
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
    fn map_reads_of_its_own_output_see_the_pre_step_snapshot() {
        let mut m = Machine::new(6);
        let mut shm = Shm::new();
        let out = shm.alloc("out", 8, 5);
        // every processor reads its right neighbour, which that neighbour
        // overwrites in this very step: the read must see the old value
        m.kernel_map(&mut shm, 0..8, out, |t, pid| {
            t.read(out, (pid + 1) % 8) + pid as i64
        });
        let want: Vec<i64> = (0..8).map(|pid| 5 + pid).collect();
        assert_eq!(shm.slice(out), want.as_slice());
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
            let run = |kernel: bool| {
                let mut m = Machine::with_policy(99, policy);
                let mut shm = Shm::new();
                let out = shm.alloc("out", 16, 0);
                // every processor writes cell pid%16/4 — 4-way conflicts —
                // and odd pids abstain
                if kernel {
                    m.kernel_scatter(&mut shm, 0..64, |_, pid| {
                        (pid % 2 == 0).then_some((out, (pid % 16) / 4, pid as i64 + 1))
                    });
                } else {
                    m.step(&mut shm, 0..64, |ctx| {
                        let pid = ctx.pid;
                        if pid % 2 == 0 {
                            ctx.write(out, (pid % 16) / 4, pid as i64 + 1);
                        }
                    });
                }
                (shm.slice(out).to_vec(), observed(&m.metrics))
            };
            let (kernel, generic) = (run(true), run(false));
            assert_eq!(kernel, generic, "policy {policy:?}");
            assert!(kernel.1 .5 > 0, "policy {policy:?} saw no conflict");
        }
    }

    #[test]
    fn reduce_ops_match_their_policies() {
        let xs: Vec<i64> = (0..50).map(|i| (i * 13) % 29 - 7).collect();
        let contributing = || (0..50).filter(|pid| pid % 3 != 0).map(|pid| xs[pid]);
        for (op, want) in [
            (ReduceOp::Or, contributing().fold(0, |a, v| a | v)),
            (ReduceOp::Sum, contributing().sum()),
            (ReduceOp::Min, contributing().min().unwrap_or_default()),
            (ReduceOp::Max, contributing().max().unwrap_or_default()),
            (ReduceOp::First, xs[1]),
        ] {
            let mut m = Machine::new(99);
            let mut shm = Shm::new();
            let a = shm.alloc("xs", 50, 0);
            for (i, &x) in xs.iter().enumerate() {
                shm.host_set(a, i, x);
            }
            let cell = shm.alloc("cell", 1, -99);
            m.kernel_reduce(&mut shm, 0..50, op, cell, 0, |t, pid| {
                (pid % 3 != 0).then(|| t.read(a, pid))
            });
            assert_eq!(shm.get(cell, 0), want, "op {op:?}");
            // 33 contributors: one buffered write each, one committed
            // cell, one conflict
            assert_eq!(observed(&m.metrics), (1, 50, 50, 33, 1, 1), "op {op:?}");
        }
    }

    #[test]
    fn reduce_first_takes_lowest_pid_even_from_unsorted_pid_list() {
        let mut m = Machine::new(99);
        let mut shm = Shm::new();
        let cell = shm.alloc("cell", 1, 0);
        let pids = vec![9usize, 2, 7, 30, 4];
        m.kernel_reduce(&mut shm, &pids, ReduceOp::First, cell, 0, |_, pid| {
            Some(pid as i64 * 100)
        });
        assert_eq!(shm.get(cell, 0), 200);
    }

    #[test]
    fn reduce_with_no_contributors_commits_nothing() {
        let mut m = Machine::new(99);
        let mut shm = Shm::new();
        let cell = shm.alloc("cell", 1, 42);
        m.kernel_reduce(&mut shm, 0..32, ReduceOp::Or, cell, 0, |_, _| None);
        assert_eq!(shm.get(cell, 0), 42);
        assert_eq!(observed(&m.metrics), (1, 32, 32, 0, 0, 0));
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
        assert_eq!(m.metrics.kernel_steps, 0);
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
}
