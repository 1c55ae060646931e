//! The three-variable LP objective, and the brute-force 3-variable LP
//! (paper Observation 2.2, d = 3) as a test oracle.
//!
//! [`Objective3`] is shared by Seidel's solver ([`crate::seidel3`]) and the
//! sequential Edelsbrunner–Shi hull. The brute solver — *constant time with
//! n⁴ processors*: all constraint triples form candidate vertices, each
//! checked against every constraint — is compiled for tests only, as the
//! exact reference Seidel's solver and the facet probe
//! ([`crate::bridge::facet_brute`], this LP with the objective "minimize
//! plane height over the splitter") are checked against.
//!
//! Feasibility is decided exactly: the candidate vertex of three
//! half-space boundaries is kept in Cramer form (4 exact 3×3 determinant
//! expansions) and each test is a sign computation.

/// Linear objective `minimize cx·x + cy·y + cz·z`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Objective3 {
    /// x-coefficient.
    pub cx: f64,
    /// y-coefficient.
    pub cy: f64,
    /// z-coefficient.
    pub cz: f64,
}

/// Observation 2.2 for d = 3, the exact reference of the tests.
#[cfg(test)]
pub(crate) mod brute {
    use ipch_geom::exact::{two_product, Expansion};
    use ipch_pram::{
        Machine, ModelClass, ModelContract, Pids, RaceExpectation, Shm, WritePolicy, EMPTY,
    };

    use super::Objective3;
    use crate::constraint::{f64_key, Halfspace};

    /// A 3-D LP optimum: the vertex and its three tight constraints.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub(crate) struct Lp3Solution {
        /// Optimal point.
        pub(crate) x: f64,
        /// Optimal point.
        pub(crate) y: f64,
        /// Optimal point.
        pub(crate) z: f64,
        /// Defining constraint indices.
        pub(crate) tight: (usize, usize, usize),
    }

    /// Outcome of a 3-D brute solve.
    #[derive(Clone, Debug, PartialEq)]
    pub(crate) enum Lp3Outcome {
        /// Bounded optimum found.
        Optimal(Lp3Solution),
        /// No feasible candidate vertex.
        NoVertexOptimum,
    }

    fn e2(a: f64, b: f64) -> Expansion {
        let (h, l) = two_product(a, b);
        Expansion::from_two(h, l)
    }

    /// Exact 3×3 determinant of an f64 matrix (rows r0, r1, r2).
    fn det3(r0: [f64; 3], r1: [f64; 3], r2: [f64; 3]) -> Expansion {
        let m01 = e2(r1[1], r2[2]).sub(&e2(r1[2], r2[1]));
        let m02 = e2(r1[0], r2[2]).sub(&e2(r1[2], r2[0]));
        let m03 = e2(r1[0], r2[1]).sub(&e2(r1[1], r2[0]));
        m01.scale(r0[0])
            .sub(&m02.scale(r0[1]))
            .add(&m03.scale(r0[2]))
    }

    /// Cramer system of three half-space boundaries: `(D, Dx, Dy, Dz)`.
    fn cramer3(
        i: &Halfspace,
        j: &Halfspace,
        k: &Halfspace,
    ) -> (Expansion, Expansion, Expansion, Expansion) {
        let d = det3([i.a, i.b, i.c], [j.a, j.b, j.c], [k.a, k.b, k.c]);
        let dx = det3([i.d, i.b, i.c], [j.d, j.b, j.c], [k.d, k.b, k.c]);
        let dy = det3([i.a, i.d, i.c], [j.a, j.d, j.c], [k.a, k.d, k.c]);
        let dz = det3([i.a, i.b, i.d], [j.a, j.b, j.d], [k.a, k.b, k.d]);
        (d, dx, dy, dz)
    }

    /// Exact test: does the candidate satisfy half-space `h`?
    fn candidate3_satisfies(
        d: &Expansion,
        dx: &Expansion,
        dy: &Expansion,
        dz: &Expansion,
        h: &Halfspace,
    ) -> bool {
        let t = dx
            .scale(h.a)
            .add(&dy.scale(h.b))
            .add(&dz.scale(h.c))
            .sub(&d.scale(h.d));
        t.sign() * d.sign() >= 0
    }

    /// Concurrency contract: as the 2-D brute solver — agreeing marks plus a
    /// Combine(min) best-vertex election.
    pub(crate) const LP3_BRUTE_CONTRACT: ModelContract = ModelContract {
        algorithm: "lp/brute3",
        class: ModelClass::Crcw,
        races: RaceExpectation::Deterministic,
    };

    /// Solve `minimize obj` over `constraints` by Observation 2.2 (d = 3).
    ///
    /// Costs O(1) executed steps and Θ(n⁴)-scale work. Like the 2-D solver,
    /// the instance must be bounded in the objective direction for the result
    /// to be the true optimum (callers add artificial bounds when unsure).
    pub(crate) fn solve_lp3_brute(
        m: &mut Machine,
        shm: &mut Shm,
        constraints: &[Halfspace],
        obj: &Objective3,
    ) -> Lp3Outcome {
        m.declare_contract(&LP3_BRUTE_CONTRACT);
        let n = constraints.len();
        if n < 3 {
            return Lp3Outcome::NoVertexOptimum;
        }
        // host-enumerated unordered triples (processor wiring)
        let triples: Vec<(u32, u32, u32)> = {
            let mut v = Vec::new();
            for i in 0..n {
                for j in i + 1..n {
                    for k in j + 1..n {
                        v.push((i as u32, j as u32, k as u32));
                    }
                }
            }
            v
        };
        let nt = triples.len();
        let cands: Vec<Option<(Expansion, Expansion, Expansion, Expansion)>> = triples
            .iter()
            .map(|&(i, j, k)| {
                let c = cramer3(
                    &constraints[i as usize],
                    &constraints[j as usize],
                    &constraints[k as usize],
                );
                (c.0.sign() != 0).then_some(c)
            })
            .collect();

        // Step 1: feasibility marking over (triple, constraint) pairs.
        let bad = shm.alloc("lp3.bad", nt, 0);
        let cands_ref = &cands;
        m.step_with_policy(shm, Pids::Grid([1, nt, n]), WritePolicy::CombineOr, |ctx| {
            let [_, t, w] = ctx.coord();
            match &cands_ref[t] {
                None => {
                    if w == 0 {
                        ctx.write(bad, t, 1);
                    }
                }
                Some((d, dx, dy, dz)) => {
                    if !candidate3_satisfies(d, dx, dy, dz, &constraints[w]) {
                        ctx.write(bad, t, 1);
                    }
                }
            }
        });

        // Step 2: Combining-Min over feasible candidates' objective keys.
        let objective = |c: &(Expansion, Expansion, Expansion, Expansion)| -> f64 {
            (obj.cx * c.1.approx() + obj.cy * c.2.approx() + obj.cz * c.3.approx()) / c.0.approx()
        };
        let best = shm.alloc("lp3.best", 1, i64::MAX);
        m.step_with_policy(shm, 0..nt, WritePolicy::CombineMin, |ctx| {
            let t = ctx.pid;
            if ctx.read(bad, t) != 0 {
                return;
            }
            if let Some(c) = &cands_ref[t] {
                ctx.write(best, 0, f64_key(objective(c)));
            }
        });
        let best_key = shm.get(best, 0);
        if best_key == i64::MAX {
            return Lp3Outcome::NoVertexOptimum;
        }

        // Step 3: election.
        let win = shm.alloc("lp3.win", 1, EMPTY);
        m.step_with_policy(shm, 0..nt, WritePolicy::PriorityMin, |ctx| {
            let t = ctx.pid;
            if ctx.read(bad, t) != 0 {
                return;
            }
            if let Some(c) = &cands_ref[t] {
                if f64_key(objective(c)) == best_key {
                    ctx.write(win, 0, t as i64);
                }
            }
        });
        let w = shm.get(win, 0) as usize;
        let (i, j, k) = triples[w];
        let c = cands[w].as_ref().unwrap();
        let d = c.0.approx();
        Lp3Outcome::Optimal(Lp3Solution {
            x: c.1.approx() / d,
            y: c.2.approx() / d,
            z: c.3.approx() / d,
            tight: (i as usize, j as usize, k as usize),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::brute::*;
    use super::Objective3;
    use crate::constraint::Halfspace;
    use ipch_pram::{Machine, Shm};

    fn hs(a: f64, b: f64, c: f64, d: f64) -> Halfspace {
        Halfspace { a, b, c, d }
    }

    #[test]
    fn box_corner() {
        // x,y,z ≥ 1,2,3 and ≤ 10; minimize x+y+z → (1,2,3)
        let cs = vec![
            hs(1.0, 0.0, 0.0, 1.0),
            hs(0.0, 1.0, 0.0, 2.0),
            hs(0.0, 0.0, 1.0, 3.0),
            hs(-1.0, 0.0, 0.0, -10.0),
            hs(0.0, -1.0, 0.0, -10.0),
            hs(0.0, 0.0, -1.0, -10.0),
        ];
        let mut m = Machine::new(1);
        let mut shm = Shm::new();
        match solve_lp3_brute(
            &mut m,
            &mut shm,
            &cs,
            &Objective3 {
                cx: 1.0,
                cy: 1.0,
                cz: 1.0,
            },
        ) {
            Lp3Outcome::Optimal(s) => {
                assert_eq!((s.x, s.y, s.z), (1.0, 2.0, 3.0));
                assert_eq!(s.tight, (0, 1, 2));
            }
            o => panic!("{o:?}"),
        }
        assert_eq!(m.metrics.steps, 3, "O(1) time");
    }

    /// A fourth plane through the optimal vertex makes three triples tie
    /// at the optimum, so the step-3 election is contested; Priority keeps
    /// the winner, and the reported tight triple, independent of the
    /// tiebreak seed.
    #[test]
    fn analyzer_pins_vertex_election() {
        use ipch_pram::AnalyzeConfig;
        let cs = vec![
            hs(1.0, 0.0, 0.0, 1.0),
            hs(0.0, 1.0, 0.0, 2.0),
            hs(0.0, 0.0, 1.0, 3.0),
            hs(-1.0, 0.0, 0.0, -10.0),
            hs(0.0, -1.0, 0.0, -10.0),
            hs(0.0, 0.0, -1.0, -10.0),
            hs(1.0, 1.0, 0.0, 3.0),
        ];
        let obj = Objective3 {
            cx: 1.0,
            cy: 1.0,
            cz: 1.0,
        };
        let mut m = Machine::new(3);
        m.enable_analysis(AnalyzeConfig::default());
        let mut shm = Shm::new();
        shm.enable_shadow(true);
        match solve_lp3_brute(&mut m, &mut shm, &cs, &obj) {
            Lp3Outcome::Optimal(s) => assert_eq!(s.tight, (0, 1, 2)),
            o => panic!("{o:?}"),
        }
        let r = m.analysis_report().unwrap();
        assert_eq!(r.contract, Some(LP3_BRUTE_CONTRACT));
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!(r.seed_dependent_races, 0);
        assert_eq!(r.unconfirmed_arbitrary_races, 0);
    }

    #[test]
    fn infeasible() {
        let cs = vec![
            hs(1.0, 0.0, 0.0, 5.0),
            hs(-1.0, 0.0, 0.0, -1.0),
            hs(0.0, 1.0, 0.0, 0.0),
            hs(0.0, 0.0, 1.0, 0.0),
        ];
        let mut m = Machine::new(2);
        let mut shm = Shm::new();
        assert_eq!(
            solve_lp3_brute(
                &mut m,
                &mut shm,
                &cs,
                &Objective3 {
                    cx: 0.0,
                    cy: 1.0,
                    cz: 0.0
                }
            ),
            Lp3Outcome::NoVertexOptimum
        );
    }

    #[test]
    fn matches_facet_probe_objective() {
        // the facet above a splitter = LP over plane coefficients: minimize
        // height at (x0, y0) s.t. a·xi + b·yi + c ≥ zi
        use ipch_geom::gen3d::in_ball;
        let pts = in_ball(24, 3);
        let (x0, y0) = (0.0, 0.0);
        let cs: Vec<Halfspace> = pts.iter().map(|p| hs(p.x, p.y, 1.0, p.z)).collect();
        let obj = Objective3 {
            cx: x0,
            cy: y0,
            cz: 1.0,
        };
        let mut m = Machine::new(4);
        let mut shm = Shm::new();
        let lp = solve_lp3_brute(&mut m, &mut shm, &cs, &obj);
        let ids: Vec<usize> = (0..pts.len()).collect();
        let mut m2 = Machine::new(5);
        let mut shm2 = Shm::new();
        let facet = crate::bridge::facet_brute(&mut m2, &mut shm2, &pts, &ids, x0, y0).unwrap();
        if let Lp3Outcome::Optimal(s) = lp {
            // same supporting plane: the LP's height at the splitter must
            // equal the facet plane's height there
            let f = [facet.0, facet.1, facet.2];
            let (a, b, c) = (pts[f[0]], pts[f[1]], pts[f[2]]);
            // plane z = αx + βy + γ through a,b,c
            let ux = (b.x - a.x, b.y - a.y, b.z - a.z);
            let vx = (c.x - a.x, c.y - a.y, c.z - a.z);
            let nx = ux.1 * vx.2 - ux.2 * vx.1;
            let ny = ux.2 * vx.0 - ux.0 * vx.2;
            let nz = ux.0 * vx.1 - ux.1 * vx.0;
            let alpha = -nx / nz;
            let beta = -ny / nz;
            let gamma = a.z - alpha * a.x - beta * a.y;
            let facet_height = alpha * x0 + beta * y0 + gamma;
            let lp_height = s.x * x0 + s.y * y0 + s.z;
            assert!(
                (facet_height - lp_height).abs() < 1e-9,
                "{facet_height} vs {lp_height}"
            );
        } else {
            panic!("LP failed");
        }
    }

    #[test]
    fn redundant_constraints_ignored() {
        let mut cs = vec![
            hs(1.0, 0.0, 0.0, 0.0),
            hs(0.0, 1.0, 0.0, 0.0),
            hs(0.0, 0.0, 1.0, 0.0),
            hs(-1.0, -1.0, -1.0, -9.0),
        ];
        for i in 0..4 {
            cs.push(hs(1.0, 0.0, 0.0, -10.0 - i as f64)); // deeply redundant
        }
        let mut m = Machine::new(6);
        let mut shm = Shm::new();
        match solve_lp3_brute(
            &mut m,
            &mut shm,
            &cs,
            &Objective3 {
                cx: 1.0,
                cy: 1.0,
                cz: 1.0,
            },
        ) {
            Lp3Outcome::Optimal(s) => assert_eq!((s.x, s.y, s.z), (0.0, 0.0, 0.0)),
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn degenerate_parallel_planes() {
        let cs = vec![
            hs(0.0, 0.0, 1.0, 0.0),
            hs(0.0, 0.0, 1.0, -1.0), // parallel to [0]
            hs(1.0, 0.0, 0.0, 0.0),
            hs(0.0, 1.0, 0.0, 0.0),
            hs(-1.0, -1.0, -1.0, -5.0),
        ];
        let mut m = Machine::new(7);
        let mut shm = Shm::new();
        match solve_lp3_brute(
            &mut m,
            &mut shm,
            &cs,
            &Objective3 {
                cx: 1.0,
                cy: 1.0,
                cz: 1.0,
            },
        ) {
            Lp3Outcome::Optimal(s) => assert_eq!((s.x, s.y, s.z), (0.0, 0.0, 0.0)),
            o => panic!("{o:?}"),
        }
    }
}
