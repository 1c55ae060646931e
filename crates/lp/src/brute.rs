//! Brute-force LP (paper Observation 2.2).
//!
//! *It is possible to solve linear programming in d dimensions in constant
//! time, with n^{d+1} processors: find the intersection of all d-tuples of
//! constraints, then for each such tuple check whether its intersection,
//! which is a candidate solution, is violated by any other constraint.*
//!
//! Executed on the PRAM simulator: one step marks infeasible candidate
//! pairs with n·C(n,2) virtual processors (the super-linear work is the
//! whole point — experiment F4/T6 watch it), one Combining-Min step picks
//! the best feasible candidate by objective key, and one step elects the
//! winner. Feasibility is decided exactly ([`crate::constraint`]); among
//! candidates whose f64 objective keys tie, an exact rational comparison
//! breaks the tie host-side (charged O(1)).

use ipch_pram::{
    Machine, ModelClass, ModelContract, Pids, RaceExpectation, ReduceOp, Shm, WritePolicy, EMPTY,
};

use crate::constraint::{
    candidate_objective, candidate_satisfies_fast, compare_objectives, cramer2, f64_key, Halfplane,
    Lp2Solution, Objective2,
};

/// Outcome of a brute-force LP solve.
#[derive(Clone, Debug, PartialEq)]
pub enum Lp2Outcome {
    /// A bounded optimum.
    Optimal(Lp2Solution),
    /// No candidate vertex satisfies all constraints (infeasible instance
    /// or an unbounded objective — no vertex optimum exists).
    NoVertexOptimum,
}

/// Concurrency contract: the feasibility marks agree; the best-vertex
/// election is a Combine(min) reduction — deterministic, never
/// seed-dependent.
pub const LP2_BRUTE_CONTRACT: ModelContract = ModelContract {
    algorithm: "lp/brute2",
    class: ModelClass::Crcw,
    races: RaceExpectation::Deterministic,
};

/// Solve `minimize obj` over `constraints` by the Observation 2.2 method.
///
/// Costs O(1) executed steps and Θ(n³) work for n constraints (d = 2).
pub fn solve_lp2_brute(
    m: &mut Machine,
    shm: &mut Shm,
    constraints: &[Halfplane],
    obj: &Objective2,
) -> Lp2Outcome {
    m.declare_contract(&LP2_BRUTE_CONTRACT);
    let n = constraints.len();
    if n < 2 {
        return Lp2Outcome::NoVertexOptimum;
    }
    let npairs = n * n;

    // Host precomputation of the C(n,2) Cramer systems. In the model each
    // candidate's pair of processors computes this in the marking step; we
    // hoist it so the n³ feasibility checks share it (work accounting is
    // unchanged — the marking step below still runs n³ processors).
    type Exact3 = (
        ipch_geom::exact::Expansion,
        ipch_geom::exact::Expansion,
        ipch_geom::exact::Expansion,
    );
    type Candidate = Option<(Exact3, (f64, f64, f64))>;
    let cands: Vec<Candidate> = (0..npairs)
        .map(|p| {
            let (i, j) = (p / n, p % n);
            if i >= j {
                return None;
            }
            let (d, dx, dy) = cramer2(&constraints[i], &constraints[j]);
            if d.sign() == 0 {
                return None;
            }
            let approx = (d.approx(), dx.approx(), dy.approx());
            Some(((d, dx, dy), approx))
        })
        .collect();

    // All three steps run against scoped workspace — iterated LP solves
    // (e.g. inside Alon–Megiddo rounds) recycle the same three slots.
    shm.scope(|shm| {
        // Step 1: feasibility marking. Processor (p, k) with p = i·n + j
        // checks candidate (i, j) against constraint k. Infeasible or
        // degenerate pairs are knocked out via a Combining-Or write.
        let bad = shm.alloc("lp2.bad", npairs, 0);
        let grid = Pids::Grid([n, n, n]);
        m.kernel_scatter_with_policy(shm, grid, WritePolicy::CombineOr, |t, _| {
            let [i, j, k] = t.coord();
            let p = i * n + j;
            match &cands[p] {
                None => {
                    if k == 0 {
                        Some((bad, p, 1)) // diagonal, duplicate, or parallel
                    } else {
                        None
                    }
                }
                Some((exact, approx)) => {
                    if !candidate_satisfies_fast(exact, *approx, &constraints[k]) {
                        Some((bad, p, 1))
                    } else {
                        None
                    }
                }
            }
        });

        // Step 2: Combining-Min over surviving candidates' objective keys.
        let best = shm.alloc("lp2.best", 1, i64::MAX);
        m.kernel_reduce(shm, 0..npairs, ReduceOp::Min, best, 0, |t, p| {
            if t.read(bad, p) != 0 {
                return None;
            }
            cands[p]
                .as_ref()
                .map(|((d, dx, dy), _)| f64_key(candidate_objective(d, dx, dy, obj)))
        });
        let best_key = shm.get(best, 0);
        if best_key == i64::MAX {
            return Lp2Outcome::NoVertexOptimum;
        }

        // Step 3: candidates achieving the key elect a winner (priority rule:
        // the lowest-numbered pair).
        let win = shm.alloc("lp2.win", 1, EMPTY);
        m.kernel_reduce(shm, 0..npairs, ReduceOp::First, win, 0, |t, p| {
            if t.read(bad, p) != 0 {
                return None;
            }
            match &cands[p] {
                Some(((d, dx, dy), _))
                    if f64_key(candidate_objective(d, dx, dy, obj)) == best_key =>
                {
                    Some(p as i64)
                }
                _ => None,
            }
        });
        let mut wp = shm.get(win, 0) as usize;

        // Host-side exact tie-break among same-key candidates (charged O(1)):
        // f64 keys quantize the objective, so candidates within one rounding
        // step of each other need the rational comparison.
        m.charge(1, npairs as u64);
        for (p, cand) in cands.iter().enumerate() {
            if shm.get(bad, p) != 0 || p == wp {
                continue;
            }
            if let Some(((d, dx, dy), _)) = cand {
                let key = f64_key(candidate_objective(d, dx, dy, obj));
                let ((wd, wdx, wdy), _) = cands[wp].as_ref().unwrap();
                if key == best_key
                    && compare_objectives((d, dx, dy), (wd, wdx, wdy), obj)
                        == std::cmp::Ordering::Less
                {
                    wp = p;
                }
            }
        }

        let (i, j) = (wp / n, wp % n);
        let ((d, dx, dy), _) = cands[wp].as_ref().unwrap();
        Lp2Outcome::Optimal(Lp2Solution {
            x: dx.approx() / d.approx(),
            y: dy.approx() / d.approx(),
            tight: (i, j),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::candidate_satisfies;

    fn hp(a: f64, b: f64, c: f64) -> Halfplane {
        Halfplane { a, b, c }
    }

    /// The best-vertex election is a Combine(min) reduction: concurrent
    /// distinct writes, resolved deterministically — the declared contract
    /// must hold with zero seed-dependent races.
    #[test]
    fn analyzer_pins_combine_election() {
        use ipch_pram::AnalyzeConfig;
        // regular fan of tangent halfplanes around the unit circle
        let n = 24;
        let cs: Vec<Halfplane> = (0..n)
            .map(|i| {
                let t = std::f64::consts::TAU * i as f64 / n as f64;
                hp(t.cos(), t.sin(), -1.0)
            })
            .collect();
        let mut m = Machine::new(6);
        m.enable_analysis(AnalyzeConfig::default());
        let mut shm = Shm::new();
        shm.enable_shadow(true);
        let out = solve_lp2_brute(&mut m, &mut shm, &cs, &Objective2 { cx: 0.0, cy: 1.0 });
        assert!(matches!(out, Lp2Outcome::Optimal(_)));
        let r = m.analysis_report().unwrap();
        assert_eq!(r.contract.unwrap().algorithm, "lp/brute2");
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!(r.seed_dependent_races, 0);
        assert_eq!(r.unconfirmed_arbitrary_races, 0);
        assert!(r.deterministic_races > 0, "combine election exercised");
    }

    #[test]
    fn box_corner() {
        // x ≥ 1, y ≥ 2, x ≤ 10, y ≤ 10; minimize x + y → (1, 2)
        let cs = vec![
            hp(1.0, 0.0, 1.0),
            hp(0.0, 1.0, 2.0),
            hp(-1.0, 0.0, -10.0),
            hp(0.0, -1.0, -10.0),
        ];
        let mut m = Machine::new(1);
        let mut shm = Shm::new();
        match solve_lp2_brute(&mut m, &mut shm, &cs, &Objective2 { cx: 1.0, cy: 1.0 }) {
            Lp2Outcome::Optimal(s) => {
                assert_eq!((s.x, s.y), (1.0, 2.0));
                assert_eq!(s.tight, (0, 1));
            }
            other => panic!("{other:?}"),
        }
        // O(1) steps, Θ(n³)-scale work
        assert_eq!(m.metrics.steps, 3);
        assert!(m.metrics.work >= 4 * 4 * 4);
    }

    #[test]
    fn infeasible_detected() {
        let cs = vec![hp(1.0, 0.0, 5.0), hp(-1.0, 0.0, -1.0), hp(0.0, 1.0, 0.0)];
        let mut m = Machine::new(2);
        let mut shm = Shm::new();
        assert_eq!(
            solve_lp2_brute(&mut m, &mut shm, &cs, &Objective2 { cx: 0.0, cy: 1.0 }),
            Lp2Outcome::NoVertexOptimum
        );
    }

    #[test]
    fn unbounded_has_no_vertex_optimum() {
        // only y ≥ 0 and x ≥ 0; minimize −x − y is unbounded: every vertex
        // candidate (single one: origin) is feasible, so brute force would
        // report the origin — the caller must supply a bounded instance.
        // minimize x + y IS bounded at the origin:
        let cs = vec![hp(1.0, 0.0, 0.0), hp(0.0, 1.0, 0.0)];
        let mut m = Machine::new(3);
        let mut shm = Shm::new();
        match solve_lp2_brute(&mut m, &mut shm, &cs, &Objective2 { cx: 1.0, cy: 1.0 }) {
            Lp2Outcome::Optimal(s) => assert_eq!((s.x, s.y), (0.0, 0.0)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn redundant_and_parallel_constraints() {
        let cs = vec![
            hp(1.0, 0.0, 1.0),
            hp(1.0, 0.0, 0.5), // redundant, parallel to [0]
            hp(0.0, 1.0, 1.0),
            hp(0.0, 1.0, -3.0), // redundant
            hp(-1.0, -1.0, -100.0),
        ];
        let mut m = Machine::new(4);
        let mut shm = Shm::new();
        match solve_lp2_brute(&mut m, &mut shm, &cs, &Objective2 { cx: 1.0, cy: 1.0 }) {
            Lp2Outcome::Optimal(s) => {
                assert_eq!((s.x, s.y), (1.0, 1.0));
                assert_eq!(s.tight, (0, 2));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn matches_polygon_vertex_enumeration_randomly() {
        // random bounded instances: feasible region = intersection of
        // half-planes tangent to the unit circle (always contains origin)
        let mut rng = ipch_pram::rng::SplitMix64::new(42);
        for trial in 0..25 {
            let n = 3 + (trial % 8);
            let cs: Vec<Halfplane> = (0..n)
                .map(|_| {
                    let t = rng.next_f64() * std::f64::consts::TAU;
                    // half-plane containing the origin: −cosθ·x − sinθ·y ≥ −1
                    hp(-t.cos(), -t.sin(), -1.0)
                })
                .collect();
            let t = rng.next_f64() * std::f64::consts::TAU;
            let obj = Objective2 {
                cx: t.cos(),
                cy: t.sin(),
            };
            let mut m = Machine::new(trial as u64);
            let mut shm = Shm::new();
            if let Lp2Outcome::Optimal(s) = solve_lp2_brute(&mut m, &mut shm, &cs, &obj) {
                // reference: enumerate all feasible vertices on the host
                let mut best = f64::INFINITY;
                for i in 0..n {
                    for j in i + 1..n {
                        let (d, dx, dy) = cramer2(&cs[i], &cs[j]);
                        if d.sign() == 0 {
                            continue;
                        }
                        if (0..n).all(|k| candidate_satisfies(&d, &dx, &dy, &cs[k])) {
                            let f = candidate_objective(&d, &dx, &dy, &obj);
                            best = best.min(f);
                        }
                    }
                }
                let got = obj.cx * s.x + obj.cy * s.y;
                assert!(
                    (got - best).abs() <= 1e-9 * (1.0 + best.abs()),
                    "trial {trial}: got {got}, best {best}"
                );
            }
        }
    }
}
