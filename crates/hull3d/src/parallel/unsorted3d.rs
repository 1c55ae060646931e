//! The unsorted 3-D algorithm (paper §4.3–§4.4, Theorem 6).
//!
//! Quicksort-like marriage-before-conquest in 3-D: each active region, in
//! parallel, picks a random splitter (random vote, §3.1), finds the
//! upper-hull facet pierced by the vertical line through it (in-place 3-D
//! facet finding, [`super::probe`], k = p^{1/4}), kills every point
//! strictly under the new facet (each with a pointer to its facet — the
//! paper's output convention), and divides the remainder four ways about
//! the splitter. Failure sweeping re-solves probes that exceed their
//! budget; once `l` = facets + regions certifies a large output, the
//! algorithm switches to the Reif–Sen-role O(log n)-time fallback, giving
//! the `min{n log² h, n log n}` behaviour of Theorem 6.
//!
//! Two documented adaptations (DESIGN.md substitution table):
//!
//! * Probe feasibility is evaluated against **all live points**, not the
//!   region alone. The paper's region-local probing relies on the fence
//!   bookkeeping of §4.3 step 3, whose details are deferred to the
//!   never-published full version; global evaluation is unconditionally
//!   correct (every emitted facet is a true hull facet: hull vertices
//!   never die, so the probe pool always contains them), keeps the probe
//!   *count* output-sensitive, and only weakens the work constant.
//! * The per-region 2-D projection runs of step 3 (project along the new
//!   facet onto the xz/yz planes, run the 2-D algorithm, collect the
//!   silhouette edges) are implemented behind
//!   [`Unsorted3Params::run_projections`], off by default. They are not
//!   needed for correctness here because the division uses the splitter's
//!   coordinate quadrants directly, and no experiment measures them yet.
//! * The Reif–Sen fallback is realised by the host gift-wrapping oracle
//!   charged at Reif–Sen's published cost (O(log n) steps, O(n log n)
//!   work), like the other cited-substrate charges.

use std::convert::Infallible;

use ipch_geom::predicates::orient3d_sign;
use ipch_geom::{Point2, Point3};
use ipch_inplace::sweep::failure_sweep;
use ipch_lp::inplace_bridge::{SAMPLE_ATTEMPTS, SWEEP_ROUNDS};
use ipch_pram::{
    Machine, ModelClass, ModelContract, Pids, RaceExpectation, Shm, WritePolicy, EMPTY,
};

use super::probe::find_facet_inplace;
use crate::facet::{xy_contains, Facet};
use crate::seq::giftwrap::upper_hull3_giftwrap;
use crate::seq::Seq3Stats;

/// Round cap of each region's in-place facet probe.
pub const PROBE_ROUNDS: usize = 10;

/// Sample-size parameter k of the random vote (workspace 16k).
pub const VOTE_K: usize = 8;

/// Options of the 3-D algorithm.
#[derive(Clone, Debug, Default)]
pub struct Unsorted3Params {
    /// Run the paper's per-region 2-D projection step (costly, and not
    /// needed for correctness here; only a unit test turns it on).
    pub run_projections: bool,
}

/// Per-level trace record.
#[derive(Clone, Copy, Debug, Default)]
pub struct Level3Record {
    /// Regions entering the level.
    pub regions: usize,
    /// Live points.
    pub active_points: usize,
    /// Largest region (F2's (15/16)^i envelope).
    pub max_size: usize,
    /// Probe failures this level.
    pub failures: usize,
    /// Facets emitted this level.
    pub facets: usize,
}

/// Run trace (experiments T5/F2 read this).
#[derive(Clone, Debug, Default)]
pub struct Unsorted3Trace {
    /// Per-level records.
    pub levels: Vec<Level3Record>,
    /// Whether the Reif–Sen-role fallback ran.
    pub fallback: bool,
    /// Probes swept after failure.
    pub swept: usize,
    /// Facets found by probing (excludes fallback).
    pub probe_facets: usize,
    /// Coverage-backstop probes after the main loop.
    pub backstop_probes: usize,
    /// 2-D silhouette edges found by the projection runs (if enabled).
    pub projection_edges: usize,
}

/// Output of the 3-D algorithm.
#[derive(Clone, Debug)]
pub struct Hull3Output {
    /// Upper-hull facets.
    pub facets: Vec<Facet>,
    /// `face_above[i]` = index into `facets` of a facet covering point i
    /// (`usize::MAX` only for inputs with no facets at all).
    pub face_above: Vec<usize>,
}

/// Concurrency contract: Arbitrary-CRCW in the paper; the kill step and
/// all elections resolve by Priority, so committed memory is independent
/// of the simulator's tiebreak seed.
pub const UNSORTED3_CONTRACT: ModelContract = ModelContract {
    algorithm: "hull3d/unsorted3d",
    class: ModelClass::Crcw,
    races: RaceExpectation::Deterministic,
};

/// The §4.3 algorithm.
///
/// # Examples
///
/// ```
/// use ipch_geom::gen3d::sphere_plus_interior;
/// use ipch_hull3d::parallel::unsorted3d::{upper_hull3_unsorted, Unsorted3Params};
/// use ipch_pram::{Machine, Shm};
///
/// let points = sphere_plus_interior(10, 200, 1);
/// let mut machine = Machine::new(4);
/// let mut shm = Shm::new();
/// let (out, _trace) =
///     upper_hull3_unsorted(&mut machine, &mut shm, &points, &Unsorted3Params::default());
/// ipch_hull3d::verify_upper_hull3(&points, &out.facets, false).unwrap();
/// ```
pub fn upper_hull3_unsorted(
    m: &mut Machine,
    shm: &mut Shm,
    points: &[Point3],
    params: &Unsorted3Params,
) -> (Hull3Output, Unsorted3Trace) {
    m.declare_contract(&UNSORTED3_CONTRACT);
    let n = points.len();
    let mut trace = Unsorted3Trace::default();
    if n < 3 {
        return (
            Hull3Output {
                facets: vec![],
                face_above: vec![usize::MAX; n],
            },
            trace,
        );
    }
    // SoA columns, transposed once: the per-level quadrant classification
    // streams the x/y columns instead of gathering 24-byte Point3 structs
    let soa = ipch_geom::soa::Points3SoA::from_points(points);
    let logn = (n.max(2) as f64).log2();
    // fallback trigger on `l` = facets + regions
    let fallback_threshold = ((n as f64).sqrt().ceil() as usize).max(24);
    // level cap: the paper's O(log n) depth
    let max_levels = (2.0 * logn) as usize + 8;

    // live flags + facet pointers (shared state)
    let alive = shm.alloc("u3.alive", n, 1);
    let face = shm.alloc("u3.face", n, EMPTY);

    let mut regions: Vec<Vec<usize>> = vec![(0..n).collect()];
    let mut facets: Vec<Facet> = Vec::new();
    let mut facet_keys: std::collections::HashSet<Facet> = std::collections::HashSet::new();

    for _ in 0..max_levels {
        if regions.is_empty() {
            break;
        }
        let actives: Vec<usize> = (0..n).filter(|&i| shm.get(alive, i) != 0).collect();
        trace.levels.push(Level3Record {
            regions: regions.len(),
            active_points: actives.len(),
            max_size: regions.iter().map(|r| r.len()).max().unwrap_or(0),
            failures: 0,
            facets: 0,
        });
        let ri = trace.levels.len() - 1;

        // --- probe each region in parallel ------------------------------
        let Ok(probes) = m.fork_join(
            regions.iter().enumerate(),
            |&(j, _)| (trace.levels.len() as u64) << 32 | j as u64,
            |child, (_, region)| {
                let mut scratch = Shm::new();
                // a splitter id outside the input (a corrupted sample
                // cell) is a failed vote
                let s = ipch_inplace::vote::random_vote(
                    child,
                    &mut scratch,
                    region,
                    VOTE_K,
                    SAMPLE_ATTEMPTS,
                )
                .filter(|&s| s < points.len());
                let f = s.and_then(|s| {
                    let (x, y) = (points[s].x, points[s].y);
                    find_facet_inplace(child, &mut scratch, points, &actives, x, y, PROBE_ROUNDS)
                });
                Ok::<_, Infallible>((s, f))
            },
        );
        let (splitters, mut found): (Vec<Option<usize>>, Vec<Option<Facet>>) =
            probes.into_iter().unzip();

        // --- failure sweeping --------------------------------------------
        let failed: Vec<usize> = found
            .iter()
            .enumerate()
            .filter_map(|(j, f)| f.is_none().then_some(j))
            .collect();
        trace.levels[ri].failures = failed.len();
        if !failed.is_empty() {
            let bound = ((n as f64).powf(0.25).ceil() as usize).max(4);
            failure_sweep(
                m,
                shm,
                regions.len(),
                &failed,
                bound,
                0x3dfa,
                |child, _, j| {
                    let mut scratch = Shm::new();
                    let s = splitters[j].or_else(|| regions[j].first().copied());
                    found[j] = s.and_then(|s| {
                        let (x, y) = (points[s].x, points[s].y);
                        find_facet_inplace(
                            child,
                            &mut scratch,
                            points,
                            &actives,
                            x,
                            y,
                            SWEEP_ROUNDS,
                        )
                    });
                    if found[j].is_some() {
                        trace.swept += 1;
                    }
                },
            );
        }

        // --- collect new facets -------------------------------------------
        let mut new_facets: Vec<(usize, Facet)> = Vec::new(); // (facet index, facet)
        for f in found.iter().flatten() {
            let c = f.canonical();
            if facet_keys.insert(c) {
                new_facets.push((facets.len(), c));
                facets.push(c);
            }
        }
        trace.levels[ri].facets = new_facets.len();
        trace.probe_facets += new_facets.len();

        // --- optional paper step 3: projection runs ----------------------
        if params.run_projections {
            if let Some(&(_, f0)) = new_facets.first() {
                trace.projection_edges += run_projection_step(m, points, &actives, f0);
            }
        }

        // --- kill step: one concurrent step over (actives × new facets) --
        if !new_facets.is_empty() {
            let nf = new_facets.len();
            let nfr = &new_facets;
            let act = &actives;
            // A point under several new facets is killed by all of them;
            // any of their ids is a correct `face` value. Priority (rather
            // than the paper's arbitrary-winner rule) makes the recorded id
            // the first-listed covering facet: all writers of `face[i]`
            // share the point and differ only in facet index, so min-pid =
            // min facet slot, and the output no longer depends on the
            // simulator's tiebreak seed.
            m.step_with_policy(
                shm,
                Pids::Grid([1, actives.len(), nf]),
                WritePolicy::PriorityMin,
                |ctx| {
                    let [_, ai, fi] = ctx.coord();
                    let i = act[ai];
                    let (fidx, f) = nfr[fi];
                    if xy_contains(points, &f, points[i].xy())
                        && orient3d_sign(points[f.a], points[f.b], points[f.c], points[i]) > 0
                    {
                        ctx.write(alive, i, 0);
                        ctx.write(face, i, fidx as i64);
                    }
                },
            );
        }

        // --- divide: four quadrants about each region's splitter ---------
        let mut next: Vec<Vec<usize>> = Vec::new();
        for (j, region) in regions.iter().enumerate() {
            let Some(s) = splitters[j] else {
                // unsplit region: keep the survivors together
                let rem: Vec<usize> = region
                    .iter()
                    .copied()
                    .filter(|&i| shm.get(alive, i) != 0)
                    .collect();
                if rem.len() >= 3 {
                    next.push(rem);
                }
                continue;
            };
            let (sx, sy) = (points[s].x, points[s].y);
            let (xs, ys) = (soa.xs(), soa.ys());
            let mut quads: [Vec<usize>; 4] = Default::default();
            for &i in region {
                if shm.get(alive, i) == 0 {
                    continue;
                }
                let q = (xs[i] > sx) as usize * 2 + (ys[i] > sy) as usize;
                quads[q].push(i);
            }
            for q in quads {
                if q.len() >= 3 {
                    next.push(q);
                }
            }
        }
        // the division itself is one concurrent step over the active points
        let act: Vec<usize> = (0..n).filter(|&i| shm.get(alive, i) != 0).collect();
        m.step(shm, &act, |_ctx| {});
        regions = next;

        // --- l-trigger -----------------------------------------------------
        let l = facets.len() + regions.len();
        if l >= fallback_threshold {
            run_rs_fallback(
                m,
                points,
                &mut facets,
                &mut facet_keys,
                &mut trace,
                shm,
                alive,
            );
            regions.clear();
            break;
        }
    }
    if !regions.is_empty() {
        run_rs_fallback(
            m,
            points,
            &mut facets,
            &mut facet_keys,
            &mut trace,
            shm,
            alive,
        );
    }

    // --- coverage backstop ------------------------------------------------
    // every still-alive point must have a facet above it; probe any that
    // don't (each probe finds a genuine facet, so this terminates)
    let mut guard = 0usize;
    loop {
        guard += 1;
        let actives: Vec<usize> = (0..n).filter(|&i| shm.get(alive, i) != 0).collect();
        let uncovered: Option<usize> = actives.iter().copied().find(|&i| {
            !facets
                .iter()
                .any(|f| xy_contains(points, f, points[i].xy()))
        });
        let Some(u) = uncovered else { break };
        if guard > n {
            break;
        }
        let probe = m.sub(u as u64 ^ 0xbac, |c| {
            let (x, y) = (points[u].x, points[u].y);
            find_facet_inplace(c, &mut Shm::new(), points, &actives, x, y, SWEEP_ROUNDS)
        });
        if let Some(f) = probe {
            let c = f.canonical();
            if facet_keys.insert(c) {
                facets.push(c);
            }
            trace.backstop_probes += 1;
            // kill strictly-under points (one step)
            let act2: Vec<usize> = actives;
            m.step(shm, &act2, |ctx| {
                let i = ctx.pid;
                if xy_contains(points, &c, points[i].xy())
                    && orient3d_sign(points[c.a], points[c.b], points[c.c], points[i]) > 0
                {
                    ctx.write(alive, i, 0);
                }
            });
        } else {
            break; // degenerate (e.g. all points collinear in xy)
        }
    }

    // --- output pointers (charged host assignment, as in the 2-D output) --
    m.charge(1, n as u64);
    let mut face_above = vec![usize::MAX; n];
    for i in 0..n {
        let rec = shm.get(face, i);
        if rec != EMPTY {
            face_above[i] = rec as usize;
            continue;
        }
        if let Some(fi) = facets
            .iter()
            .position(|f| xy_contains(points, f, points[i].xy()))
        {
            face_above[i] = fi;
        }
    }
    (Hull3Output { facets, face_above }, trace)
}

/// The Reif–Sen-role fallback: the remaining hull facets of the live set,
/// computed by the host gift-wrapping oracle and charged at Reif–Sen's
/// bound (O(log n) steps, O(n log n) work).
#[allow(clippy::too_many_arguments)]
fn run_rs_fallback(
    m: &mut Machine,
    points: &[Point3],
    facets: &mut Vec<Facet>,
    facet_keys: &mut std::collections::HashSet<Facet>,
    trace: &mut Unsorted3Trace,
    shm: &mut Shm,
    alive: ipch_pram::ArrayId,
) {
    trace.fallback = true;
    let n = points.len();
    let actives: Vec<usize> = (0..n).filter(|&i| shm.get(alive, i) != 0).collect();
    if actives.len() < 3 {
        return;
    }
    let sub: Vec<Point3> = actives.iter().map(|&i| points[i]).collect();
    let mut st = Seq3Stats::default();
    let fs = upper_hull3_giftwrap(&sub, &mut st);
    let logn = (n.max(2) as f64).log2().ceil() as u64;
    m.charge(logn, n as u64 * logn);
    for f in fs {
        let g = Facet {
            a: actives[f.a],
            b: actives[f.b],
            c: actives[f.c],
        }
        .canonical();
        if facet_keys.insert(g) {
            facets.push(g);
        }
    }
}

/// Paper §4.3 step 3: project the live points onto the xz and yz planes
/// along directions parallel to the newly found facet, and find the 2-D
/// hulls of the projections with the 2-D unsorted algorithm (their edges
/// are 3-D hull edges). Returns the number of silhouette edges found.
fn run_projection_step(m: &mut Machine, points: &[Point3], actives: &[usize], f: Facet) -> usize {
    // facet plane z = αx + βy + γ
    let (a, b, c) = (points[f.a], points[f.b], points[f.c]);
    let ux = (b.x - a.x, b.y - a.y, b.z - a.z);
    let vx = (c.x - a.x, c.y - a.y, c.z - a.z);
    let nx = ux.1 * vx.2 - ux.2 * vx.1;
    let ny = ux.2 * vx.0 - ux.0 * vx.2;
    let nz = ux.0 * vx.1 - ux.1 * vx.0;
    if nz == 0.0 {
        return 0;
    }
    let alpha = -nx / nz;
    let beta = -ny / nz;

    let mut edges = 0usize;
    for proj in 0..2 {
        let pts2: Vec<Point2> = actives
            .iter()
            .map(|&i| {
                let p = points[i];
                if proj == 0 {
                    Point2::new(p.x, p.z - beta * p.y)
                } else {
                    Point2::new(p.y, p.z - alpha * p.x)
                }
            })
            .collect();
        let (out, _) = m.sub(0x2d00 + proj as u64, |c| {
            ipch_hull2d::parallel::unsorted::upper_hull_unsorted(
                c,
                &mut Shm::new(),
                &pts2,
                &ipch_hull2d::parallel::unsorted::UnsortedParams::default(),
            )
        });
        edges += out.hull.num_edges();
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facet::{verify_upper_hull3, vertex_set};
    use crate::seq::brute3d::upper_hull3_brute;
    use ipch_geom::gen3d::{in_ball, in_cube, on_sphere, sphere_plus_interior};

    fn run(
        points: &[Point3],
        seed: u64,
        params: &Unsorted3Params,
    ) -> (Hull3Output, Unsorted3Trace, Machine) {
        let mut m = Machine::new(seed);
        let mut shm = Shm::new();
        let (out, trace) = upper_hull3_unsorted(&mut m, &mut shm, points, params);
        (out, trace, m)
    }

    /// Regression for the kill-step fix: the Priority kill writes (and the
    /// facet elections below them) must leave every race deterministic —
    /// the analyzer's salted replays must never flip a committed value.
    /// The octagonal pyramid puts points exactly below the edges its
    /// facets share, so two facets of one level contest their `face`
    /// cells; random inputs almost never do.
    #[test]
    fn analyzer_pins_contract() {
        use ipch_pram::AnalyzeConfig;
        let mut pyramid = vec![Point3::new(0.0, 0.0, 1.0)];
        let corners = [
            (2, 1),
            (1, 2),
            (-1, 2),
            (-2, 1),
            (-2, -1),
            (-1, -2),
            (1, -2),
            (2, -1),
        ];
        for (x, y) in corners {
            pyramid.push(Point3::new(x as f64, y as f64, 0.0));
        }
        for (x, y) in corners {
            for j in 1..=8 {
                // scaling by ±1 or ±2 is exact, so the point lies exactly
                // under the edge from the apex to corner (x, y)
                let t = j as f64 / 9.0;
                pyramid.push(Point3::new(x as f64 * t, y as f64 * t, -1.0 - t));
            }
        }
        let runs = [(in_ball(200, 11), 5)]
            .into_iter()
            .chain((0..4).map(|seed| (pyramid.clone(), seed)));
        for (pts, seed) in runs {
            let mut m = Machine::new(seed);
            m.enable_analysis(AnalyzeConfig::default());
            let mut shm = Shm::new();
            shm.enable_shadow(true);
            let (out, _) =
                upper_hull3_unsorted(&mut m, &mut shm, &pts, &Unsorted3Params::default());
            verify_upper_hull3(&pts, &out.facets, false).unwrap();
            let r = m.analysis_report().unwrap();
            assert_eq!(r.contract.unwrap().algorithm, "hull3d/unsorted3d");
            assert!(r.is_clean(), "n={} seed {seed}:\n{}", pts.len(), r.render());
            assert_eq!(r.seed_dependent_races, 0);
            assert_eq!(r.unconfirmed_arbitrary_races, 0);
            assert!(r.deterministic_races > 0, "kill step should be exercised");
        }
    }

    #[test]
    fn matches_oracle_small() {
        for seed in 0..4 {
            let pts = in_ball(60, seed);
            let (out, _, _) = run(&pts, seed, &Unsorted3Params::default());
            verify_upper_hull3(&pts, &out.facets, false)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let mut st = Seq3Stats::default();
            let oracle = upper_hull3_brute(&pts, &mut st);
            assert_eq!(
                vertex_set(&out.facets),
                vertex_set(&oracle),
                "seed {seed}: vertex sets differ"
            );
        }
    }

    #[test]
    fn verifies_on_larger_inputs() {
        for (gi, gen) in [in_ball as fn(usize, u64) -> Vec<Point3>, in_cube, on_sphere]
            .iter()
            .enumerate()
        {
            let pts = gen(400, gi as u64 + 5);
            let (out, _, _) = run(&pts, gi as u64, &Unsorted3Params::default());
            verify_upper_hull3(&pts, &out.facets, false)
                .unwrap_or_else(|e| panic!("gen {gi}: {e}"));
            // pointer sanity: every point covered by its recorded facet
            for (i, &fi) in out.face_above.iter().enumerate() {
                assert_ne!(fi, usize::MAX, "point {i} lacks a face pointer");
                assert!(xy_contains(&pts, &out.facets[fi], pts[i].xy()));
            }
        }
    }

    #[test]
    fn output_sensitive_probes() {
        let n = 2000;
        let small = sphere_plus_interior(12, n, 3);
        let large = sphere_plus_interior(200, n, 3);
        let (o1, t1, _) = run(&small, 1, &Unsorted3Params::default());
        let (o2, t2, _) = run(&large, 1, &Unsorted3Params::default());
        verify_upper_hull3(&small, &o1.facets, false).unwrap();
        verify_upper_hull3(&large, &o2.facets, false).unwrap();
        assert!(
            o1.facets.len() < o2.facets.len(),
            "facet counts should track h"
        );
        let _ = (t1, t2);
    }

    #[test]
    fn big_h_triggers_fallback() {
        let pts = on_sphere(1500, 7);
        let (out, trace, _) = run(&pts, 2, &Unsorted3Params::default());
        assert!(trace.fallback);
        verify_upper_hull3(&pts, &out.facets, false).unwrap();
    }

    #[test]
    fn small_h_avoids_fallback() {
        let pts = sphere_plus_interior(10, 2000, 9);
        let (out, trace, _) = run(&pts, 3, &Unsorted3Params::default());
        assert!(!trace.fallback, "h = 10 should finish by probing");
        verify_upper_hull3(&pts, &out.facets, false).unwrap();
    }

    #[test]
    fn tiny_inputs() {
        let (out, _, _) = run(&[], 1, &Unsorted3Params::default());
        assert!(out.facets.is_empty());
        let two = vec![Point3::new(0.0, 0.0, 0.0), Point3::new(1.0, 0.0, 0.0)];
        let (out, _, _) = run(&two, 1, &Unsorted3Params::default());
        assert!(out.facets.is_empty());
    }

    #[test]
    fn projection_step_runs() {
        let pts = in_ball(300, 11);
        let params = Unsorted3Params {
            run_projections: true,
        };
        let (out, trace, _) = run(&pts, 4, &params);
        verify_upper_hull3(&pts, &out.facets, false).unwrap();
        assert!(
            trace.projection_edges > 0,
            "projection runs should find silhouette edges"
        );
    }
}
