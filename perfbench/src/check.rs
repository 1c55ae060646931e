//! Host reference answers and the comparison every served hull must pass.
//!
//! 2-D answers must equal the monotone-chain vertex list. A 3-D answer
//! names, for every input point, a facet above it (the paper's output
//! convention), so it may leave out hull facets whose projection holds no
//! input point: it passes when each of its facets is a gift-wrap facet,
//! its vertex set is the gift-wrap vertex set, and every input point lies
//! under one of its facets. Answers that leave facets out are counted as
//! [`Verdict::Partial`] so the gap stays visible.

use ipch_hull2d::seq::monotone;
use ipch_hull2d::seq::SeqStats;
use ipch_hull3d::facet::{vertex_set, xy_contains};
use ipch_hull3d::seq::giftwrap::upper_hull3_giftwrap;
use ipch_hull3d::seq::Seq3Stats;
use ipch_hull3d::Facet;
use ipch_service::{ResponseValue, Workload};

/// The host sequential answer to one request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reference {
    /// Monotone-chain upper-hull vertex ids, left to right.
    Hull2d(Vec<usize>),
    /// Gift-wrap facets in canonical form, sorted.
    Hull3d(Vec<(usize, usize, usize)>),
}

/// How a served answer compares with the reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Identical to the reference.
    Exact,
    /// A 3-D answer that is a strict subset of the gift-wrap facets with
    /// the same vertex set and a facet above every input point.
    Partial,
    /// Anything else.
    Wrong,
}

fn canonical(facets: &[Facet]) -> Vec<(usize, usize, usize)> {
    let mut v: Vec<_> = facets
        .iter()
        .map(|f| {
            let c = f.canonical();
            (c.a, c.b, c.c)
        })
        .collect();
    v.sort_unstable();
    v
}

/// Compute the host reference: monotone chain in 2-D, gift wrap in 3-D.
pub fn reference(w: &Workload) -> Reference {
    match w {
        Workload::Hull2d { points, .. } => {
            Reference::Hull2d(monotone::upper_hull(points, &mut SeqStats::default()).vertices)
        }
        Workload::Hull3d { points } => Reference::Hull3d(canonical(&upper_hull3_giftwrap(
            points,
            &mut Seq3Stats::default(),
        ))),
    }
}

/// Compare a served value of workload `w` with its reference answer.
pub fn verdict(w: &Workload, value: &ResponseValue, reference: &Reference) -> Verdict {
    match (w, value, reference) {
        (_, ResponseValue::Hull2d(h), Reference::Hull2d(r)) if &h.vertices == r => Verdict::Exact,
        (Workload::Hull3d { points }, ResponseValue::Hull3d(f), Reference::Hull3d(r)) => {
            let served = canonical(f);
            if &served == r {
                return Verdict::Exact;
            }
            let reference_vertices: std::collections::BTreeSet<usize> =
                r.iter().flat_map(|&(a, b, c)| [a, b, c]).collect();
            let subset = served.iter().all(|x| r.binary_search(x).is_ok());
            let covered = points
                .iter()
                .all(|q| f.iter().any(|x| xy_contains(points, x, q.xy())));
            if subset && covered && vertex_set(f) == reference_vertices {
                Verdict::Partial
            } else {
                Verdict::Wrong
            }
        }
        _ => Verdict::Wrong,
    }
}

/// Facet count of a served value (0 for 2-D answers).
pub fn facets(value: &ResponseValue) -> usize {
    match value {
        ResponseValue::Hull3d(f) => f.len(),
        ResponseValue::Hull2d(_) => 0,
    }
}
