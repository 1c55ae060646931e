//! Alon–Megiddo-style randomized parallel LP (paper Lemma 2.2).
//!
//! *Given n constraints in ℝ^d, linear programming can be performed in
//! constant time with n processors on a CRCW PRAM, with failure probability
//! 2^{−c·n^{1/3}}.*
//!
//! The paper describes the method (§2.4): "repeatedly choosing a subset of
//! the constraints, and finding the solution to this subset… The initial
//! subset is chosen at random from all the constraints, and later choices
//! are made at random from those that violate the currently known solution"
//! — the base problem is small enough to solve by brute force
//! (Observation 2.2) in one shot.
//!
//! Implementation notes:
//!
//! * Base problems accumulate: round j's base is the previous base plus a
//!   Bernoulli sample of the current *survivors* (violators), taken at the
//!   escalating rate p_j = min{1, 2k·p_{j−1}} of §3.3 (p₁ = 2k/n). Keeping
//!   the previous base makes the optimum monotone, so termination ⇔ zero
//!   survivors, checked with one concurrent step per round.
//! * Each base solve runs [`crate::brute::solve_lp2_brute`] on a child
//!   machine; sibling rounds are sequential (they genuinely are — this is
//!   the iterative part), so the child metrics are absorbed sequentially.
//! * The run fails (returns `None`) if the base would exceed its Θ(k)
//!   capacity or the round cap is hit — exactly the events whose
//!   probability Lemma 2.2 bounds; the T6 experiment measures them.

use ipch_pram::{Machine, ModelClass, ModelContract, RaceExpectation, Shm, WritePolicy};

use crate::brute::{solve_lp2_brute, Lp2Outcome};
use crate::constraint::{Halfplane, Lp2Solution, Objective2};

/// Round cap before the solver reports failure (the paper's β plus the
/// final compaction retry).
pub const MAX_ROUNDS: usize = 12;

/// Base capacity in multiples of k: the paper's 16k workspace.
pub const CAPACITY_FACTOR: usize = 16;

/// Per-run diagnostics (experiment T6 tabulates these).
#[derive(Clone, Debug, Default)]
pub struct AmTrace {
    /// Rounds executed (base solves).
    pub rounds: usize,
    /// Survivor count after each round's solution.
    pub survivors: Vec<usize>,
    /// Final base-problem size.
    pub base_size: usize,
}

/// Concurrency contract: inherits the brute solver's Combine(min)
/// elections; the violation-counting steps use Sum — all deterministic.
pub const LP2_AM_CONTRACT: ModelContract = ModelContract {
    algorithm: "lp/alon_megiddo",
    class: ModelClass::Crcw,
    races: RaceExpectation::Deterministic,
};

/// Solve `minimize obj` over `constraints` by the Alon–Megiddo scheme.
pub fn solve_lp2_am(
    m: &mut Machine,
    shm: &mut Shm,
    constraints: &[Halfplane],
    obj: &Objective2,
) -> Option<(Lp2Solution, AmTrace)> {
    m.declare_contract(&LP2_AM_CONTRACT);
    let n = constraints.len();
    if n < 2 {
        return None;
    }
    // the paper's 2-D base parameter k = n^{1/3}, clamped ≥ 4
    let k = ((n as f64).cbrt().ceil() as usize).max(4);
    let capacity = CAPACITY_FACTOR * k;
    let mut trace = AmTrace::default();

    // Artificial bounding triangle (huge), always part of every base: a
    // base that is unbounded in the objective direction has no vertex
    // optimum, and its brute "solution" would be an uncertified vertex
    // that can pass the survivor check while being suboptimal. Alon &
    // Megiddo likewise assume a bounded program. If the artificial bounds
    // end up tight in the final optimum, the user's program was unbounded
    // and we report failure.
    const M: f64 = 1e15;
    let bounds: [Halfplane; 3] = [
        Halfplane {
            a: 1.0,
            b: 0.0,
            c: -M,
        },
        Halfplane {
            a: -0.5,
            b: 0.75f64.sqrt(),
            c: -M,
        },
        Halfplane {
            a: -0.5,
            b: -(0.75f64.sqrt()),
            c: -M,
        },
    ];
    let cs_at = |i: usize| -> &Halfplane {
        if i < 3 {
            &bounds[i]
        } else {
            &constraints[i - 3]
        }
    };

    // Private registers: survivor flags, one per user constraint.
    let surv = shm.alloc("am.surv", n, 1); // initially everyone "violates"
    let mut p_j = 2.0 * k as f64 / n as f64;
    // solution tights in *extended* index space (0..3 artificial)
    let mut solution: Option<Lp2Solution> = None;

    for round in 0..MAX_ROUNDS {
        trace.rounds = round + 1;
        // Sampling step: every surviving constraint flips a p_j coin and
        // joins this round's base (one concurrent step; base membership is
        // a private-register write, collected host-side for the solve).
        // The base is *fresh* each round — Θ(k) like the paper's 16k
        // workspace — plus the artificial bounds and the previous optimum's
        // tight constraints, which make the optimum certified and monotone.
        let mut base: Vec<usize> = vec![0, 1, 2];
        base.extend(
            m.step_map(shm, 0..n, |ctx| {
                let i = ctx.pid;
                ctx.read(surv, i) != 0 && ctx.rng().bernoulli(p_j)
            })
            .into_iter()
            .enumerate()
            .filter_map(|(i, take)| take.then_some(i + 3)),
        );
        if let Some(s) = &solution {
            if !base.contains(&s.tight.0) {
                base.push(s.tight.0);
            }
            if !base.contains(&s.tight.1) {
                base.push(s.tight.1);
            }
        }
        if base.len() > capacity + 3 {
            return None; // base overflow — the rare failure event
        }

        // Solve the base by brute force on a child machine.
        let base_cs: Vec<Halfplane> = base.iter().map(|&i| *cs_at(i)).collect();
        let out = m.sub(round as u64 ^ 0xa11, |c| {
            solve_lp2_brute(c, shm, &base_cs, obj)
        });
        let sol = match out {
            Lp2Outcome::Optimal(s) => Lp2Solution {
                x: s.x,
                y: s.y,
                tight: (base[s.tight.0], base[s.tight.1]),
            },
            Lp2Outcome::NoVertexOptimum => {
                // infeasible base ⇒ infeasible program
                return None;
            }
        };

        // Survivor step: every constraint tests the new solution (one
        // concurrent step with n processors).
        let (sx, sy) = (sol.x, sol.y);
        // Arbitrary never resolves a collision here: each processor writes
        // only surv[pid], an exclusive cell.
        m.step_with_policy(shm, 0..n, WritePolicy::Arbitrary, |ctx| {
            let i = ctx.pid;
            let c = &constraints[i];
            let viol = c.a * sx + c.b * sy < c.c - 1e-9 * (1.0 + c.c.abs());
            ctx.write(surv, i, if viol { 1 } else { 0 });
        });
        let nsurv = shm.slice(surv).iter().filter(|&&v| v != 0).count();
        trace.survivors.push(nsurv);
        solution = Some(sol);
        trace.base_size = trace.base_size.max(base.len());
        if nsurv == 0 {
            if sol.tight.0 < 3 || sol.tight.1 < 3 {
                return None; // artificial bound tight: program unbounded
            }
            let sol = Lp2Solution {
                tight: (sol.tight.0 - 3, sol.tight.1 - 3),
                ..sol
            };
            return Some((sol, trace));
        }
        p_j = (p_j * 2.0 * k as f64).min(1.0);
    }
    let _ = solution;
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipch_pram::rng::SplitMix64;

    fn hp(a: f64, b: f64, c: f64) -> Halfplane {
        Halfplane { a, b, c }
    }

    fn tangent_instance(n: usize, seed: u64) -> (Vec<Halfplane>, Objective2) {
        let mut rng = SplitMix64::new(seed);
        let cs: Vec<Halfplane> = (0..n)
            .map(|_| {
                let t = rng.next_f64() * std::f64::consts::TAU;
                hp(-t.cos(), -t.sin(), -1.0 - rng.next_f64())
            })
            .collect();
        let th = rng.next_f64() * std::f64::consts::TAU;
        (
            cs,
            Objective2 {
                cx: th.cos(),
                cy: th.sin(),
            },
        )
    }

    #[test]
    fn agrees_with_brute_on_random_instances() {
        for seed in 0..15u64 {
            let (cs, obj) = tangent_instance(200, seed);
            let mut m = Machine::new(seed);
            let mut shm = Shm::new();
            let (sol, trace) = solve_lp2_am(&mut m, &mut shm, &cs, &obj).expect("am failed");
            let mut m2 = Machine::new(seed);
            let mut shm2 = Shm::new();
            if let Lp2Outcome::Optimal(b) =
                crate::brute::solve_lp2_brute(&mut m2, &mut shm2, &cs, &obj)
            {
                let fa = obj.cx * sol.x + obj.cy * sol.y;
                let fb = obj.cx * b.x + obj.cy * b.y;
                assert!(
                    (fa - fb).abs() < 1e-9 * (1.0 + fb.abs()),
                    "seed {seed}: {fa} vs {fb} after {} rounds",
                    trace.rounds
                );
            }
        }
    }

    #[test]
    fn rounds_stay_constant_as_n_grows() {
        let mut worst = 0usize;
        for &n in &[100usize, 1000, 10_000] {
            for seed in 0..5u64 {
                let (cs, obj) = tangent_instance(n, seed + 100);
                let mut m = Machine::new(seed);
                let mut shm = Shm::new();
                let (_, trace) = solve_lp2_am(&mut m, &mut shm, &cs, &obj).unwrap();
                worst = worst.max(trace.rounds);
            }
        }
        assert!(worst <= 8, "rounds grew: {worst}");
    }

    #[test]
    fn survivor_counts_collapse() {
        let (cs, obj) = tangent_instance(5000, 3);
        let mut m = Machine::new(3);
        let mut shm = Shm::new();
        let (_, trace) = solve_lp2_am(&mut m, &mut shm, &cs, &obj).unwrap();
        // survivors must hit zero and shrink overall
        assert_eq!(*trace.survivors.last().unwrap(), 0);
        if trace.survivors.len() >= 2 {
            assert!(trace.survivors[trace.survivors.len() - 1] <= trace.survivors[0]);
        }
    }

    #[test]
    fn work_is_near_linear_not_cubic() {
        // the whole point of AM vs brute: n constraints solved with
        // O(n)-ish work (base solves are k³ = O(n)), not n³
        let (cs, obj) = tangent_instance(3000, 4);
        let mut m = Machine::new(4);
        let mut shm = Shm::new();
        solve_lp2_am(&mut m, &mut shm, &cs, &obj).unwrap();
        let n = 3000u64;
        assert!(
            m.metrics.total_work() < 200 * n,
            "work {} not near-linear",
            m.metrics.total_work()
        );
    }

    #[test]
    fn tiny_instances() {
        let cs = vec![hp(1.0, 0.0, 0.0), hp(0.0, 1.0, 0.0), hp(-1.0, -1.0, -2.0)];
        let obj = Objective2 { cx: 1.0, cy: 1.0 };
        let mut m = Machine::new(5);
        let mut shm = Shm::new();
        let (sol, _) = solve_lp2_am(&mut m, &mut shm, &cs, &obj).unwrap();
        assert!((sol.x - 0.0).abs() < 1e-9 && (sol.y - 0.0).abs() < 1e-9);
    }
}
