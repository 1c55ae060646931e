//! Property-based invariants (proptest) over the core data structures and
//! algorithms: arbitrary point clouds, occupancy patterns, and LP
//! instances.

use proptest::prelude::*;

use ipch_geom::hull_chain::{verify_upper_hull, UpperHull};
use ipch_geom::predicates::{orient2d_exact, orient2d_sign};
use ipch_geom::Point2;
use ipch_pram::{Machine, Shm, EMPTY};

fn pt() -> impl Strategy<Value = Point2> {
    // grid-snapped coordinates so degenerate collinear/tie configurations
    // occur often
    (-50i32..50, -50i32..50).prop_map(|(x, y)| Point2::new(x as f64 / 4.0, y as f64 / 4.0))
}

fn pts(max: usize) -> impl Strategy<Value = Vec<Point2>> {
    proptest::collection::vec(pt(), 0..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn orient2d_filter_matches_exact(a in pt(), b in pt(), c in pt()) {
        prop_assert_eq!(orient2d_sign(a, b, c), orient2d_exact(a, b, c));
    }

    #[test]
    fn orient2d_is_antisymmetric(a in pt(), b in pt(), c in pt()) {
        prop_assert_eq!(orient2d_sign(a, b, c), -orient2d_sign(b, a, c));
        prop_assert_eq!(orient2d_sign(a, b, c), orient2d_sign(b, c, a));
    }

    #[test]
    fn oracle_hull_always_verifies(points in pts(60)) {
        let h = UpperHull::of(&points);
        prop_assert!(verify_upper_hull(&points, &h).is_ok());
    }

    #[test]
    fn unsorted_algorithm_matches_oracle(points in pts(48), seed in 0u64..1000) {
        use ipch_hull2d::parallel::unsorted::{upper_hull_unsorted, UnsortedParams};
        let mut m = Machine::new(seed);
        let mut shm = Shm::new();
        let (out, _) = upper_hull_unsorted(&mut m, &mut shm, &points, &UnsortedParams::default());
        prop_assert!(verify_upper_hull(&points, &out.hull).is_ok(), "verify failed");
        let got: Vec<Point2> = out.hull.vertices.iter().map(|&i| points[i]).collect();
        let expect: Vec<Point2> = UpperHull::of(&points).vertices.iter().map(|&i| points[i]).collect();
        prop_assert_eq!(got, expect);
        prop_assert!(out.verify_pointers(&points).is_ok());
    }

    #[test]
    fn dac_matches_oracle(points in pts(64)) {
        use ipch_hull2d::parallel::dac::upper_hull_dac;
        let mut m = Machine::new(1);
        let mut shm = Shm::new();
        let out = upper_hull_dac(&mut m, &mut shm, &points, false);
        let got: Vec<Point2> = out.hull.vertices.iter().map(|&i| points[i]).collect();
        let expect: Vec<Point2> = UpperHull::of(&points).vertices.iter().map(|&i| points[i]).collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn ks_matches_oracle(points in pts(64)) {
        use ipch_hull2d::seq::{ks, SeqStats};
        let h = ks::upper_hull(&points, &mut SeqStats::default());
        prop_assert!(verify_upper_hull(&points, &h).is_ok());
        let got: Vec<Point2> = h.vertices.iter().map(|&i| points[i]).collect();
        let expect: Vec<Point2> = UpperHull::of(&points).vertices.iter().map(|&i| points[i]).collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn ragde_compaction_preserves_payloads(
        positions in proptest::collection::btree_set(0usize..500, 0..5),
        m_seed in 0u64..100,
    ) {
        let mut m = Machine::new(m_seed);
        let mut shm = Shm::new();
        let src = shm.alloc("src", 500, EMPTY);
        for &p in &positions {
            shm.host_set(src, p, 1000 + p as i64);
        }
        let c = ipch_inplace::ragde::ragde_compact_det(&mut m, &mut shm, src, 5).unwrap();
        let got = ipch_inplace::ragde::payloads(&shm, &c);
        let expect: Vec<i64> = positions.iter().map(|&p| 1000 + p as i64).collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn inplace_compaction_preserves_payloads(
        positions in proptest::collection::btree_set(0usize..2000, 0..6),
        delta in 0.2f64..0.6,
    ) {
        let mut m = Machine::new(3);
        let mut shm = Shm::new();
        let src = shm.alloc("src", 2000, EMPTY);
        for &p in &positions {
            shm.host_set(src, p, p as i64 + 7);
        }
        let c = ipch_inplace::compact::inplace_compact(&mut m, &mut shm, src, 6, delta).unwrap();
        prop_assert_eq!(c.count, positions.len());
        let mut got: Vec<i64> = (0..shm.len(c.slots))
            .map(|s| shm.get(c.slots, s))
            .filter(|&v| v != EMPTY)
            .collect();
        got.sort_unstable();
        let expect: Vec<i64> = positions.iter().map(|&p| p as i64 + 7).collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn sample_is_subset_of_active(
        active in proptest::collection::btree_set(0usize..300, 1..80),
        k in 1usize..12,
        seed in 0u64..50,
    ) {
        let active: Vec<usize> = active.into_iter().collect();
        let mut m = Machine::new(seed);
        let mut shm = Shm::new();
        let out = ipch_inplace::sample::random_sample(&mut m, &mut shm, &active, k, 4);
        for &e in &out.sample {
            prop_assert!(active.contains(&e));
        }
        prop_assert!(out.sample.len() <= 4 * k + k); // sample never exceeds Θ(k)
    }

    #[test]
    fn prefix_sum_matches_reference(vals in proptest::collection::vec(-100i64..100, 0..200)) {
        let mut m = Machine::new(5);
        let mut shm = Shm::new();
        let a = shm.alloc("a", vals.len(), 0);
        for (i, &v) in vals.iter().enumerate() {
            shm.host_set(a, i, v);
        }
        ipch_pram::prefix::inclusive_prefix_sum(&mut m, &mut shm, a);
        let mut acc = 0i64;
        for (i, &v) in vals.iter().enumerate() {
            acc += v;
            prop_assert_eq!(shm.get(a, i), acc);
        }
    }

    #[test]
    fn am_lp_matches_brute(nc in 4usize..40, seed in 0u64..200) {
        use ipch_lp::alon_megiddo::solve_lp2_am;
        use ipch_lp::brute::{solve_lp2_brute, Lp2Outcome};
        use ipch_lp::constraint::{Halfplane, Objective2};
        use ipch_pram::rng::SplitMix64;
        let mut rng = SplitMix64::new(seed);
        // three fixed tangents bound the region (unbounded instances have
        // no vertex optimum and the solvers may legitimately disagree)
        let mut cs: Vec<Halfplane> = [0.25f64, 2.35, 4.45]
            .iter()
            .map(|&t| Halfplane { a: -t.cos(), b: -t.sin(), c: -2.0 })
            .collect();
        cs.extend((0..nc).map(|_| {
            let t = rng.next_f64() * std::f64::consts::TAU;
            Halfplane { a: -t.cos(), b: -t.sin(), c: -1.0 - rng.next_f64() }
        }));
        let th = rng.next_f64() * std::f64::consts::TAU;
        let obj = Objective2 { cx: th.cos(), cy: th.sin() };
        let mut m = Machine::new(seed);
        let mut shm = Shm::new();
        let am = solve_lp2_am(&mut m, &mut shm, &cs, &obj);
        let mut m2 = Machine::new(seed + 1);
        let mut shm2 = Shm::new();
        if let (Some((s, _)), Lp2Outcome::Optimal(b)) =
            (am, solve_lp2_brute(&mut m2, &mut shm2, &cs, &obj))
        {
            let fa = obj.cx * s.x + obj.cy * s.y;
            let fb = obj.cx * b.x + obj.cy * b.y;
            prop_assert!((fa - fb).abs() < 1e-7 * (1.0 + fb.abs()), "{} vs {}", fa, fb);
        }
    }
}
