//! Seidel's randomized incremental LP in three variables (f64) — expected
//! O(n) time. The sequential probe engine behind the Edelsbrunner–Shi-role
//! 3-D baseline: "minimize the plane height over a splitter subject to all
//! points below the plane" is a 3-variable LP, and ES probe their hull
//! exactly this way (the paper's §1: "use linear programming to 'probe'
//! the convex hull").
//!
//! Recursive structure: shuffle; maintain the optimum; when constraint `c`
//! is violated, re-solve on `c`'s boundary plane (a 2-variable LP over the
//! earlier constraints), which in turn recurses to 1-variable LPs.
//! Works in f64 with relative tolerances — it is a *baseline/oracle*
//! cross-checked against the exact brute solver in tests; the exactness
//! story lives in [`crate::lp3d`] and [`crate::bridge`].

use ipch_pram::rng::SplitMix64;

use crate::constraint::Halfspace;
use crate::constraint::{Halfplane, Objective2};
use crate::lp3d::Objective3;
use crate::seidel::solve_lp2_seidel;

// The 3-D box must sit well inside the 2-D sub-solver's internal ±1e12
// box so sub-optima on our box faces are not mistaken for unboundedness.
const M: f64 = 1e9;
const EPS: f64 = 1e-9;

/// Solve `minimize obj` over `constraints`; `None` if infeasible or
/// unbounded (the artificial ±M box is reported as unbounded).
pub fn solve_lp3_seidel(
    constraints: &[Halfspace],
    obj: &Objective3,
    seed: u64,
) -> Option<(f64, f64, f64)> {
    let mut order: Vec<usize> = (0..constraints.len()).collect();
    let mut rng = SplitMix64::new(seed);
    for i in (1..order.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        order.swap(i, j);
    }

    let mut x = if obj.cx > 0.0 { -M } else { M };
    let mut y = if obj.cy > 0.0 { -M } else { M };
    let mut z = if obj.cz > 0.0 { -M } else { M };

    // the artificial box participates as real constraints so every sub-LP
    // stays bounded
    let mut seen: Vec<Halfspace> = vec![
        Halfspace {
            a: 1.0,
            b: 0.0,
            c: 0.0,
            d: -M,
        },
        Halfspace {
            a: -1.0,
            b: 0.0,
            c: 0.0,
            d: -M,
        },
        Halfspace {
            a: 0.0,
            b: 1.0,
            c: 0.0,
            d: -M,
        },
        Halfspace {
            a: 0.0,
            b: -1.0,
            c: 0.0,
            d: -M,
        },
        Halfspace {
            a: 0.0,
            b: 0.0,
            c: 1.0,
            d: -M,
        },
        Halfspace {
            a: 0.0,
            b: 0.0,
            c: -1.0,
            d: -M,
        },
    ];
    for &ci in &order {
        let c = constraints[ci];
        if c.a * x + c.b * y + c.c * z >= c.d - EPS * (1.0 + c.d.abs()) {
            seen.push(c);
            continue;
        }
        // re-optimize on the plane a·x + b·y + c·z = d
        let sol = solve_on_plane(&seen, &c, obj, rng.next_u64())?;
        x = sol.0;
        y = sol.1;
        z = sol.2;
        seen.push(c);
    }
    if x.abs() >= M * 0.99 || y.abs() >= M * 0.99 || z.abs() >= M * 0.99 {
        return None;
    }
    Some((x, y, z))
}

/// 2-D LP on the boundary plane of `l`, subject to `cs`.
fn solve_on_plane(
    cs: &[Halfspace],
    l: &Halfspace,
    obj: &Objective3,
    seed: u64,
) -> Option<(f64, f64, f64)> {
    // Parameterize the plane by the two coordinates with the smallest
    // normal component eliminated: solve for the axis with max |coeff|.
    let (ax, abs) = [l.a.abs(), l.b.abs(), l.c.abs()]
        .iter()
        .copied()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap();
    if abs == 0.0 {
        return None; // degenerate constraint
    }
    // plane: eliminated coordinate e = (d − p·u − q·v)/w in terms of the
    // two free coordinates (u, v)
    // index mapping: free coordinates are the two axes != ax
    let free: [usize; 2] = match ax {
        0 => [1, 2],
        1 => [0, 2],
        _ => [0, 1],
    };
    let coeff = [l.a, l.b, l.c];
    let w = coeff[ax];
    let sub = |h: &Halfspace| -> Halfplane {
        // h.a x + h.b y + h.c z ≥ h.d with eliminated coordinate replaced
        let hc = [h.a, h.b, h.c];
        let scale = hc[ax] / w;
        Halfplane {
            a: hc[free[0]] - scale * coeff[free[0]],
            b: hc[free[1]] - scale * coeff[free[1]],
            c: h.d - scale * l.d,
        }
    };
    let o = [obj.cx, obj.cy, obj.cz];
    let oscale = o[ax] / w;
    let obj2 = Objective2 {
        cx: o[free[0]] - oscale * coeff[free[0]],
        cy: o[free[1]] - oscale * coeff[free[1]],
    };
    let cs2: Vec<Halfplane> = cs.iter().map(sub).collect();
    let (u, v) = solve_lp2_seidel(&cs2, &obj2, seed)?;
    let e = (l.d - coeff[free[0]] * u - coeff[free[1]] * v) / w;
    let mut out = [0.0f64; 3];
    out[free[0]] = u;
    out[free[1]] = v;
    out[ax] = e;
    Some((out[0], out[1], out[2]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp3d::brute::{solve_lp3_brute, Lp3Outcome};
    use ipch_pram::{Machine, Shm};

    fn hs(a: f64, b: f64, c: f64, d: f64) -> Halfspace {
        Halfspace { a, b, c, d }
    }

    #[test]
    fn box_corner() {
        let cs = vec![
            hs(1.0, 0.0, 0.0, 1.0),
            hs(0.0, 1.0, 0.0, 2.0),
            hs(0.0, 0.0, 1.0, 3.0),
            hs(-1.0, -1.0, -1.0, -100.0),
        ];
        let (x, y, z) = solve_lp3_seidel(
            &cs,
            &Objective3 {
                cx: 1.0,
                cy: 1.0,
                cz: 1.0,
            },
            1,
        )
        .unwrap();
        assert!((x - 1.0).abs() < 1e-6 && (y - 2.0).abs() < 1e-6 && (z - 3.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_detected() {
        let cs = vec![hs(0.0, 0.0, 1.0, 5.0), hs(0.0, 0.0, -1.0, -1.0)];
        assert!(solve_lp3_seidel(
            &cs,
            &Objective3 {
                cx: 0.0,
                cy: 0.0,
                cz: 1.0
            },
            2
        )
        .is_none());
    }

    #[test]
    fn unbounded_reported() {
        let cs = vec![hs(0.0, 0.0, 1.0, 0.0)];
        assert!(solve_lp3_seidel(
            &cs,
            &Objective3 {
                cx: 1.0,
                cy: 0.0,
                cz: 0.0
            },
            3
        )
        .is_none());
    }

    #[test]
    fn agrees_with_exact_brute_on_random_instances() {
        let mut rng = SplitMix64::new(11);
        for trial in 0..15u64 {
            // half-spaces tangent to the unit sphere (bounded, feasible at 0)
            let n = 6 + (trial as usize % 10);
            let cs: Vec<Halfspace> = (0..n)
                .map(|_| {
                    let u = rng.next_f64() * 2.0 - 1.0;
                    let t = rng.next_f64() * std::f64::consts::TAU;
                    let r = (1.0 - u * u).sqrt();
                    hs(-r * t.cos(), -r * t.sin(), -u, -1.0 - rng.next_f64())
                })
                .collect();
            let obj = Objective3 {
                cx: 0.2,
                cy: -0.5,
                cz: 0.84,
            };
            let s = solve_lp3_seidel(&cs, &obj, trial);
            let mut m = Machine::new(trial);
            let mut shm = Shm::new();
            let b = solve_lp3_brute(&mut m, &mut shm, &cs, &obj);
            if let (Some((x, y, z)), Lp3Outcome::Optimal(bs)) = (s, b) {
                let fs = obj.cx * x + obj.cy * y + obj.cz * z;
                let fb = obj.cx * bs.x + obj.cy * bs.y + obj.cz * bs.z;
                assert!(
                    (fs - fb).abs() < 1e-5 * (1.0 + fb.abs()),
                    "trial {trial}: {fs} vs {fb}"
                );
            }
        }
    }

    #[test]
    fn facet_probe_objective_matches() {
        // the probe LP: minimize height at splitter over supporting planes
        use ipch_geom::gen3d::in_ball;
        let pts = in_ball(60, 7);
        let cs: Vec<Halfspace> = pts.iter().map(|p| hs(p.x, p.y, 1.0, p.z)).collect();
        let obj = Objective3 {
            cx: 0.1,
            cy: -0.2,
            cz: 1.0,
        };
        let (a, b, g) = solve_lp3_seidel(&cs, &obj, 5).unwrap();
        // the optimal plane z = a·x + b·y + g supports all points
        for p in &pts {
            assert!(a * p.x + b * p.y + g >= p.z - 1e-6);
        }
        let _ = g;
    }
}
