//! The analyzer acceptance suite, keyed by the entry-point registry.
//!
//! Every contract in [`ipch_hull3d::paper_contracts`] has one row here,
//! named by the entry point's `ModelContract` const. A row runs the real
//! algorithm under the dynamic concurrency analyzer
//! ([`ipch_pram::analyze`]) with shadow-init tracking, at a small and a
//! large input size, and checks that
//!
//! * the run declared exactly the row's contract;
//! * the analyzer saw zero violations against it (in particular: no
//!   tiebreak-seed-dependent memory, no unconfirmed `Arbitrary` races,
//!   no uninitialised reads, no access errors);
//! * the observed model class is within the declared class.
//!
//! [`rows_cover_every_contract`] holds the rows and the registry to the
//! same set, and every registered name to one contract, so a new entry
//! point cannot skip the analyzer.
//!
//! Superlinear-work algorithms (the Θ(n³)/Θ(n⁴) brute-force oracles and
//! the gift-wrapping frugal tier) run at proportionally scaled sizes so
//! the traced-event volume stays test-suite sized; every other algorithm
//! runs at n = 256 and n = 4096.
//!
//! A second half sweeps the write-policy taxonomy on primitive conflicting
//! steps: each policy's races must land in exactly the expected bucket of
//! the race census, for the generic and the fused-kernel path alike.

use ipch_geom::batch::ConcatPoints2;
use ipch_geom::gen3d;
use ipch_geom::generators as g2;
use ipch_geom::point::sorted_by_x;
use ipch_geom::Point2;
use ipch_hull2d::parallel::{
    batch, brute, dac, folklore, frugal, logstar, noisy, presorted, unsorted,
};
use ipch_hull3d::paper_contracts;
use ipch_hull3d::parallel::{noisy as noisy3, probe, unsorted3d};
use ipch_inplace::{compact, ragde, sample, vote};
use ipch_lp::{alon_megiddo, bridge, inplace_bridge};
use ipch_pram::{
    AnalyzeConfig, Machine, ModelClass, ModelContract, RaceExpectation, Shm, WritePolicy, EMPTY,
};

fn analyzed(seed: u64) -> (Machine, Shm) {
    let mut m = Machine::new(seed);
    m.enable_analysis(AnalyzeConfig::default());
    let mut shm = Shm::new();
    shm.enable_shadow(true);
    (m, shm)
}

/// Run one row: `run` calls the entry point on a fresh analyzed machine
/// for each `(seed, n)` in `sizes`, and the report must pass every check
/// in the module docs.
fn row(
    contract: &ModelContract,
    sizes: &[(u64, usize)],
    run: impl Fn(&mut Machine, &mut Shm, u64, usize),
) {
    let name = contract.algorithm;
    for &(seed, n) in sizes {
        let label = format!("{name} at n={n}");
        let (mut m, mut shm) = analyzed(seed);
        run(&mut m, &mut shm, seed, n);

        let r = m
            .analysis_report()
            .unwrap_or_else(|| panic!("{label}: no report"));
        let declared = r
            .contract
            .unwrap_or_else(|| panic!("{label}: entry point declared no contract"));
        assert_eq!(declared, *contract, "{label}: wrong contract");
        // The contract class is an upper bound: a lucky run may avoid
        // every concurrent access (observe a weaker class), but never need
        // a stronger machine than declared.
        assert!(
            r.class <= contract.class,
            "{label}: observed class {}",
            r.class
        );
        if contract.races == RaceExpectation::Forbidden {
            assert_eq!(r.total_races(), 0, "{label} raced:\n{}", r.render());
        }
        assert!(r.is_clean(), "{label}:\n{}", r.render());
        assert_eq!(r.seed_dependent_races, 0, "{label}: seed-dependent memory");
        assert_eq!(r.unconfirmed_arbitrary_races, 0, "{label}");
        assert_eq!(r.uninit_reads, 0, "{label}: uninitialised reads");
        assert!(r.steps_analyzed > 0, "{label}: nothing traced");
    }
}

/// Declares the rows: each `name: CONTRACT, sizes, run;` becomes a
/// `#[test] fn name` calling [`row`], and `ROW_CONTRACTS` collects every
/// row's contract for the coverage test.
macro_rules! rows {
    ($($name:ident: $contract:expr, $sizes:expr, $run:expr;)+) => {
        const ROW_CONTRACTS: &[ModelContract] = &[$($contract),+];
        $(
            #[test]
            fn $name() {
                row(&$contract, &$sizes, $run);
            }
        )+
    };
}

/// `n` sorted disk points (the presorted algorithms' input).
fn sorted_disk(n: usize, seed: u64) -> Vec<Point2> {
    sorted_by_x(&g2::uniform_disk(n, seed))
}

/// An `n`-cell array holding `k` occupied cells spread evenly (the
/// compaction primitives' input).
fn sparse(shm: &mut Shm, n: usize, k: usize) -> ipch_pram::ArrayId {
    let src = shm.alloc("src", n, EMPTY);
    for (j, i) in (0..n).step_by(n / k).enumerate() {
        shm.host_set(src, i, j as i64);
    }
    src
}

rows! {
    // ---- 2-D hull algorithms ---------------------------------------------
    // Θ(n³) work: scaled sizes.
    hull2d_brute_clean: brute::BRUTE_CONTRACT, [(1, 64), (2, 256)],
    |m, shm, seed, n| {
        let pts = g2::uniform_disk(n, seed);
        let ids: Vec<usize> = (0..n).collect();
        brute::upper_hull_brute(m, shm, &pts, &ids);
    };
    hull2d_folklore_clean: folklore::FOLKLORE_CONTRACT, [(3, 256), (4, 4096)],
    |m, shm, seed, n| {
        let pts = sorted_disk(n, seed);
        let ids: Vec<usize> = (0..pts.len()).collect();
        folklore::upper_hull_folklore(m, shm, &pts, &ids, 3);
    };
    hull2d_presorted_clean: presorted::PRESORTED_CONTRACT, [(5, 256), (6, 4096)],
    |m, shm, seed, n| {
        presorted::upper_hull_presorted(m, shm, &sorted_disk(n, seed), &Default::default());
    };
    hull2d_logstar_clean: logstar::LOGSTAR_CONTRACT, [(7, 256), (8, 4096)],
    |m, shm, seed, n| {
        logstar::upper_hull_logstar(m, shm, &sorted_disk(n, seed), &Default::default()).unwrap();
    };
    hull2d_unsorted_clean: unsorted::UNSORTED_CONTRACT, [(9, 256), (10, 4096)],
    |m, shm, seed, n| {
        unsorted::upper_hull_unsorted(m, shm, &g2::uniform_disk(n, seed), &Default::default());
    };
    hull2d_dac_is_erew: dac::DAC_CONTRACT, [(11, 256), (12, 4096)],
    |m, shm, seed, n| {
        dac::upper_hull_dac(m, shm, &g2::uniform_disk(n, seed), false);
    };
    // n points split into eight members of n/8.
    hull2d_batch_clean: batch::BATCH_CONTRACT, [(44, 64), (45, 256)],
    |m, shm, seed, n| {
        let members: Vec<Vec<Point2>> =
            (0..8).map(|g| g2::uniform_disk(n / 8, seed + g)).collect();
        let refs: Vec<&[Point2]> = members.iter().map(Vec::as_slice).collect();
        batch::upper_hulls_batch(m, shm, &ConcatPoints2::from_members(&refs));
    };
    // Θ(n³) work: scaled sizes. No noise plan is installed, so every
    // predicate is voted once; the step structure is noise-invariant.
    hull2d_noisy_clean: noisy::NOISY_CONTRACT, [(46, 32), (47, 128)],
    |m, shm, seed, n| {
        noisy::upper_hull_noisy(m, shm, &g2::uniform_disk(n, seed), 0);
    };
    // Θ(n·h) gift wrapping: scaled sizes.
    hull2d_frugal_clean: frugal::FRUGAL_CONTRACT, [(48, 256), (49, 1024)],
    |m, shm, seed, n| {
        frugal::upper_hull_frugal(m, shm, &g2::uniform_disk(n, seed), 16);
    };

    // ---- 3-D hull algorithms ---------------------------------------------
    hull3d_find_facet_clean: probe::FIND_FACET_CONTRACT, [(13, 256), (14, 4096)],
    |m, shm, seed, n| {
        let pts = gen3d::in_ball(n, seed);
        let active: Vec<usize> = (0..n).collect();
        probe::find_facet_inplace(m, shm, &pts, &active, 0.01, 0.02, 16);
    };
    // The full 3-D algorithm probes Θ(hull-size) facets; 4096 points under
    // full tracing is minutes of host time, so the large size is 1024.
    hull3d_unsorted3d_clean: unsorted3d::UNSORTED3_CONTRACT, [(15, 256), (16, 1024)],
    |m, shm, seed, n| {
        let pts = gen3d::in_ball(n, seed);
        unsorted3d::upper_hull3_unsorted(m, shm, &pts, &Default::default());
    };
    // Θ(n⁴) work: scaled sizes, noiseless as for the 2-D row.
    hull3d_noisy_clean: noisy3::NOISY3_CONTRACT, [(50, 12), (51, 24)],
    |m, shm, seed, n| {
        noisy3::upper_hull3_noisy(m, shm, &gen3d::in_ball(n, seed), 0);
    };

    // ---- Linear programming ----------------------------------------------
    // Θ(n³) work: scaled sizes.
    lp_brute2_clean: ipch_lp::brute::LP2_BRUTE_CONTRACT, [(17, 64), (18, 256)],
    |m, shm, seed, n| {
        let pts = g2::uniform_disk(512, seed);
        let active: Vec<usize> = (0..n).collect();
        let cons = bridge::bridge_lp_constraints(&pts, &active);
        ipch_lp::brute::solve_lp2_brute(m, shm, &cons, &bridge::bridge_lp_objective(0.0));
    };
    lp_alon_megiddo_clean: alon_megiddo::LP2_AM_CONTRACT, [(21, 256), (22, 4096)],
    |m, shm, seed, n| {
        let pts = g2::uniform_disk(n, seed);
        let active: Vec<usize> = (0..n).collect();
        let cons = bridge::bridge_lp_constraints(&pts, &active);
        let obj = bridge::bridge_lp_objective(0.0);
        alon_megiddo::solve_lp2_am(m, shm, &cons, &obj);
    };
    // Θ(n³) work: scaled sizes.
    lp_bridge_brute_clean: bridge::BRIDGE_BRUTE_CONTRACT, [(52, 32), (53, 128)],
    |m, shm, seed, n| {
        let pts = g2::uniform_disk(n, seed);
        let ids: Vec<usize> = (0..n).collect();
        bridge::bridge_brute(m, shm, &pts, &ids, 0.0);
    };
    // Θ(n⁴) work: scaled sizes.
    lp_facet_brute_clean: bridge::FACET_BRUTE_CONTRACT, [(54, 12), (55, 24)],
    |m, shm, seed, n| {
        let pts = gen3d::in_ball(n, seed);
        let ids: Vec<usize> = (0..n).collect();
        bridge::facet_brute(m, shm, &pts, &ids, 0.0, 0.0);
    };
    lp_inplace_bridge_clean: inplace_bridge::INPLACE_BRIDGE_CONTRACT, [(23, 256), (24, 4096)],
    |m, shm, seed, n| {
        let pts = g2::uniform_disk(n, seed);
        let active: Vec<usize> = (0..n).collect();
        inplace_bridge::find_bridge_inplace_traced(m, shm, &pts, &active, 0.0, 16);
    };

    // ---- In-place toolbox ------------------------------------------------
    inplace_sample_clean: sample::SAMPLE_CONTRACT, [(25, 256), (26, 4096)],
    |m, shm, _seed, n| {
        let active: Vec<usize> = (0..n).filter(|i| i % 3 == 0).collect();
        sample::random_sample(m, shm, &active, 8, 4);
    };
    inplace_vote_clean: vote::VOTE_CONTRACT, [(27, 256), (28, 4096)],
    |m, shm, _seed, n| {
        let active: Vec<usize> = (0..n).filter(|i| i % 3 == 0).collect();
        vote::random_vote(m, shm, &active, 8, 4);
    };
    inplace_compact_clean: compact::COMPACT_CONTRACT, [(29, 256), (30, 4096)],
    |m, shm, _seed, n| {
        let src = sparse(shm, n, 16);
        compact::inplace_compact(m, shm, src, 24, 0.25);
    };
    inplace_ragde_det_clean: ragde::RAGDE_DET_CONTRACT, [(31, 256), (32, 4096)],
    |m, shm, _seed, n| {
        let src = sparse(shm, n, 8);
        ragde::ragde_compact_det(m, shm, src, 8);
    };
    inplace_ragde_rand_clean: ragde::RAGDE_RAND_CONTRACT, [(33, 256), (34, 4096)],
    |m, shm, _seed, n| {
        let src = sparse(shm, n, 8);
        ragde::ragde_compact_rand(m, shm, src, 8, 8);
    };
}

#[test]
fn rows_cover_every_contract() {
    let mut registered = paper_contracts();
    let mut names: Vec<&str> = registered.iter().map(|c| c.algorithm).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), registered.len(), "two contracts share a name");
    let by_name = |cs: &mut Vec<ModelContract>| cs.sort_unstable_by_key(|c| c.algorithm);
    let mut rows = ROW_CONTRACTS.to_vec();
    by_name(&mut rows);
    by_name(&mut registered);
    assert_eq!(
        rows, registered,
        "analyzer rows and contract registry drifted apart"
    );
}

// ---------------------------------------------------------------------------
// Write-policy taxonomy sweep: a conflicting scatter under every policy,
// on the generic path and the fused-kernel path, must land its races in
// exactly the expected census bucket.
// ---------------------------------------------------------------------------

/// Expected census bucket for a policy resolving *distinct* values.
fn expectation_for(policy: WritePolicy) -> RaceExpectation {
    match policy {
        WritePolicy::Arbitrary => RaceExpectation::SeedDependent,
        _ => RaceExpectation::Deterministic,
    }
}

const ALL_POLICIES: [WritePolicy; 6] = [
    WritePolicy::Arbitrary,
    WritePolicy::PriorityMin,
    WritePolicy::CombineMin,
    WritePolicy::CombineMax,
    WritePolicy::CombineSum,
    WritePolicy::CombineOr,
];

#[test]
fn policy_sweep_distinct_values() {
    for &policy in &ALL_POLICIES {
        let contract = ModelContract {
            algorithm: "sweep/distinct",
            class: ModelClass::Crcw,
            races: expectation_for(policy),
        };
        // generic step
        let (mut m, mut shm) = analyzed(40);
        m.declare_contract(&contract);
        let a = shm.alloc("a", 8, 0);
        m.step_with_policy(&mut shm, 0..64, policy, move |ctx| {
            let pid = ctx.pid;
            ctx.write(a, pid % 8, pid as i64 + 1);
        });
        let r = m.analysis_report().unwrap();
        assert!(r.is_clean(), "{policy:?} generic:\n{}", r.render());
        assert_eq!(r.class, ModelClass::Crcw, "{policy:?}");
        let contended = match policy {
            WritePolicy::Arbitrary => r.seed_dependent_races + r.unconfirmed_arbitrary_races,
            _ => r.deterministic_races,
        };
        assert_eq!(contended, 8, "{policy:?}: race census off:\n{}", r.render());

        // fused kernel path, same shape
        let (mut m, mut shm) = analyzed(41);
        m.declare_contract(&contract);
        let a = shm.alloc("a", 8, 0);
        m.kernel_scatter_with_policy(&mut shm, 0..64, policy, move |_, pid| {
            Some((a, pid % 8, pid as i64 + 1))
        });
        let r = m.analysis_report().unwrap();
        assert!(r.is_clean(), "{policy:?} kernel:\n{}", r.render());
        let contended = match policy {
            WritePolicy::Arbitrary => r.seed_dependent_races + r.unconfirmed_arbitrary_races,
            _ => r.deterministic_races,
        };
        assert_eq!(contended, 8, "{policy:?} kernel:\n{}", r.render());
    }
}

#[test]
fn policy_sweep_agreeing_values() {
    // When every contender writes the same value the race is benign under
    // every policy — a SameValue contract must hold even for Arbitrary.
    for &policy in &ALL_POLICIES {
        let contract = ModelContract {
            algorithm: "sweep/agree",
            class: ModelClass::Crcw,
            races: RaceExpectation::SameValue,
        };
        let (mut m, mut shm) = analyzed(42);
        m.declare_contract(&contract);
        let a = shm.alloc("a", 4, 0);
        m.step_with_policy(&mut shm, 0..32, policy, move |ctx| {
            ctx.write(a, ctx.pid % 4, 7);
        });
        let r = m.analysis_report().unwrap();
        assert!(r.is_clean(), "{policy:?} agree:\n{}", r.render());
        assert_eq!(r.benign_races, 4, "{policy:?}:\n{}", r.render());
        assert_eq!(r.seed_dependent_races, 0, "{policy:?}");
    }
}

#[test]
fn seed_dependence_is_caught() {
    // The negative control: distinct values under Arbitrary violate a
    // Deterministic contract — the analyzer must flag it, not excuse it.
    let contract = ModelContract {
        algorithm: "sweep/negative",
        class: ModelClass::Crcw,
        races: RaceExpectation::Deterministic,
    };
    let (mut m, mut shm) = analyzed(43);
    m.declare_contract(&contract);
    let a = shm.alloc("a", 2, 0);
    m.step(&mut shm, 0..64, move |ctx| {
        let pid = ctx.pid;
        ctx.write(a, pid % 2, pid as i64 + 1);
    });
    let r = m.analysis_report().unwrap();
    assert!(!r.is_clean(), "arbitrary races must violate Deterministic");
    assert!(r.seed_dependent_races + r.unconfirmed_arbitrary_races > 0);
}
