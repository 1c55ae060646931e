//! # ipch-hull2d — 2-D convex hull algorithms
//!
//! The primary-contribution crate of the Ghouse–Goodrich SPAA'91
//! reproduction. Two families:
//!
//! **Sequential baselines** ([`seq`]) — the algorithms the paper positions
//! itself against:
//! * monotone chain (Andrew): O(n) presorted / O(n log n) unsorted;
//! * Graham scan;
//! * Jarvis march: O(nh);
//! * Kirkpatrick–Seidel marriage-before-conquest: O(n log h) — the bound
//!   the paper's Theorem 5 parallelizes;
//! * Chan's algorithm: O(n log h).
//!
//! **Parallel algorithms on the CRCW PRAM simulator** ([`parallel`]):
//! * [`parallel::brute`] — Observation 2.3: upper hull in O(1) time, n³
//!   work;
//! * [`parallel::folklore`] — Lemma 2.4: O(k) time, n^{1+1/k} processors;
//! * [`parallel::presorted`] — §2.2–2.3 (Lemma 2.5): presorted hull in
//!   O(1) time with O(n log n) processors, via a binary tree of bridges,
//!   randomized bridge-finding on big nodes, Lemma 2.4 on small nodes, and
//!   failure sweeping;
//! * [`parallel::invariant`] — §2.4 (Lemma 2.6): the point-hull-invariant
//!   bridge machinery over x-disjoint upper hulls;
//! * [`parallel::logstar`] — §2.5–2.6 (Theorem 2): the O(log* n)-time
//!   recursive algorithm with optimal processor bounds;
//! * [`parallel::unsorted`] — §4.1–4.2 (Theorem 5): the output-sensitive
//!   O(log n)-time, O(n log h)-work algorithm for unsorted input;
//! * [`parallel::dac`] — the Atallah–Goodrich-role O(log n), n-processor
//!   divide-and-conquer hull, both the §4.1-step-3 fallback and the
//!   non-output-sensitive comparison baseline.
//!
//! All parallel algorithms produce a [`HullOutput`]: the hull chain plus
//! the paper's output convention — *every point holds a pointer to the
//! hull edge above (or through) it*.

pub mod parallel;
pub mod seq;

pub use ipch_geom::hull_chain::{verify_upper_hull, UpperHull};

/// Every 2-D hull entry point's concurrency contract, in the crate's
/// canonical order. The analyzer suite runs one row per contract.
pub const CONTRACTS: &[ipch_pram::ModelContract] = &[
    parallel::brute::BRUTE_CONTRACT,
    parallel::folklore::FOLKLORE_CONTRACT,
    parallel::presorted::PRESORTED_CONTRACT,
    parallel::logstar::LOGSTAR_CONTRACT,
    parallel::unsorted::UNSORTED_CONTRACT,
    parallel::dac::DAC_CONTRACT,
    parallel::batch::BATCH_CONTRACT,
    parallel::noisy::NOISY_CONTRACT,
    parallel::frugal::FRUGAL_CONTRACT,
];

/// Output convention of the paper's 2-D algorithms: the upper hull, plus a
/// per-point pointer to the covering hull edge.
#[derive(Clone, Debug)]
pub struct HullOutput {
    /// The upper hull (vertex ids into the input array, left to right).
    pub hull: UpperHull,
    /// `edge_above[i]` = index into `hull.vertices` of the left endpoint of
    /// the edge above point `i` (so the edge is `(vertices[e], vertices[e+1])`),
    /// or `usize::MAX` for single-vertex hulls.
    pub edge_above: Vec<usize>,
}

impl HullOutput {
    /// Check the per-point pointers against the hull (every point on or
    /// below its assigned edge, and within its x-span).
    pub fn verify_pointers(&self, points: &[ipch_geom::Point2]) -> Result<(), String> {
        use ipch_geom::predicates::orient2d_sign;
        if self.hull.vertices.len() < 2 {
            return Ok(());
        }
        if self.edge_above.len() != points.len() {
            return Err("edge_above length mismatch".into());
        }
        for (i, &e) in self.edge_above.iter().enumerate() {
            if e >= self.hull.vertices.len() - 1 {
                return Err(format!("point {i}: edge index {e} out of range"));
            }
            let u = points[self.hull.vertices[e]];
            let v = points[self.hull.vertices[e + 1]];
            let p = points[i];
            if p.x < u.x || p.x > v.x {
                return Err(format!("point {i} outside its edge's x-span"));
            }
            if orient2d_sign(u, v, p) > 0 {
                return Err(format!("point {i} strictly above its edge"));
            }
        }
        Ok(())
    }
}

/// Keep only the top point of every column of equal-x points (one
/// executed step over the sorted id list: position t survives iff its
/// successor has a different x). Upper hulls only ever use column tops,
/// and deduplicating first keeps the merge trees' groups strictly
/// x-disjoint even on tie-heavy inputs (grids, duplicates).
pub fn column_tops_pram(
    m: &mut ipch_pram::Machine,
    shm: &mut ipch_pram::Shm,
    points: &[ipch_geom::Point2],
    sorted_ids: &[usize],
) -> Vec<usize> {
    let t = sorted_ids.len();
    if t == 0 {
        return vec![];
    }
    shm.scope(|shm| {
        let keep = shm.alloc("hull2d.tops", t, 0);
        m.kernel_scatter(shm, 0..t, |_, pos| {
            if pos + 1 == t || points[sorted_ids[pos + 1]].x != points[sorted_ids[pos]].x {
                Some((keep, pos, 1))
            } else {
                None
            }
        });
        (0..t)
            .filter(|&pos| shm.get(keep, pos) != 0)
            .map(|pos| sorted_ids[pos])
            .collect()
    })
}

/// Build per-point edge pointers from a finished hull: every point
/// binary-searches the hull's vertex abscissas in lockstep — ⌈log₂ h⌉
/// executed steps of n processors each (work n·log h, never h·n).
pub fn assign_edges_pram(
    m: &mut ipch_pram::Machine,
    shm: &mut ipch_pram::Shm,
    points: &[ipch_geom::Point2],
    hull: &UpperHull,
) -> Vec<usize> {
    let n = points.len();
    let ne = hull.num_edges();
    if ne == 0 || n == 0 {
        return vec![usize::MAX; n];
    }
    shm.scope(|shm| {
        let lo = shm.alloc("hull2d.lo", n, 0);
        let hi = shm.alloc("hull2d.hi", n, ne as i64 - 1);
        let verts = &hull.vertices;
        // invariant: the covering edge index lies in [lo, hi]
        let rounds = (usize::BITS - ne.leading_zeros()) as usize + 1;
        for _ in 0..rounds {
            m.kernel_scatter(shm, 0..n, |t, i| {
                let l = t.read(lo, i);
                let h = t.read(hi, i);
                if l >= h {
                    return None;
                }
                let mid = (l + h) / 2;
                // edge `mid` spans [x(mid), x(mid+1)]
                if points[verts[(mid + 1) as usize]].x >= points[i].x {
                    Some((hi, i, mid))
                } else {
                    Some((lo, i, mid + 1))
                }
            });
        }
        (0..n)
            .map(|i| {
                let e = shm.get(lo, i) as usize;
                let u = points[verts[e]];
                let v = points[verts[e + 1]];
                if u.x <= points[i].x && points[i].x <= v.x {
                    e
                } else {
                    usize::MAX
                }
            })
            .collect()
    })
}
