//! The static-verification acceptance suite.
//!
//! Sweeps every paper entry point's symbolic step plan through
//! [`ipch_pram::verify`] and pins two properties:
//!
//! 1. **Coverage** — every plan in [`ipch_hull3d::paper_plans`] has its
//!    own algorithm name and passes at a range of input sizes with its
//!    expected verdict (`VerifiedStatic` for the provable algorithms, an
//!    honest `NeedsDynamic` for the randomized in-place primitives whose
//!    indices are data-dependent).
//! 2. **Rejection** — mutated plans (out-of-bounds scatter, a contract
//!    claiming a weaker machine than the plan needs, undecidable shapes
//!    with the fallback disabled) are rejected with the right typed
//!    error and stable code.
//!
//! That the static class bounds what the real code does is checked per
//! entry point by `analyze_suite.rs`, which runs every registered plan's
//! algorithm under the dynamic analyzer.
//!
//! The suite also runs the `xlint` rules over the repository itself, so
//! `cargo test` fails if the tree regresses on the lint conventions.

use ipch_hull3d::paper_plans;
use ipch_inplace::{compact, ragde, sample};
use ipch_pram::verify::{
    verify, verify_all, Affine, AlgorithmPlan, IndexSet, StepPlan, Verdict, VerifyConfig,
    VerifyError,
};
use ipch_pram::{ModelClass, ModelContract, RaceExpectation, WritePolicy};

/// The randomized in-place primitives whose plans honestly declare
/// data-dependent (opaque) index shapes.
const NEEDS_DYNAMIC: [&str; 4] = [
    ragde::RAGDE_DET_CONTRACT.algorithm,
    ragde::RAGDE_RAND_CONTRACT.algorithm,
    compact::COMPACT_CONTRACT.algorithm,
    sample::SAMPLE_CONTRACT.algorithm,
];

#[test]
fn every_plan_passes_with_its_expected_verdict() {
    // n = 0 runs zero processors, so everything is trivially static;
    // start at 1 where the opaque shapes actually appear.
    let plans = paper_plans();
    // The serving precheck finds a plan by algorithm name, so names must
    // be unique across the registries.
    let mut names: Vec<&str> = plans.iter().map(|p| p.contract.algorithm).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), plans.len(), "two plans share a name");
    for n in [1usize, 2, 17, 64, 256, 4096] {
        let reports = verify_all(&plans, n, &VerifyConfig::default())
            .unwrap_or_else(|e| panic!("n={n}: {e}"));
        assert_eq!(reports.len(), plans.len());
        for r in &reports {
            let expected = if NEEDS_DYNAMIC.contains(&r.algorithm) {
                Verdict::NeedsDynamic
            } else {
                Verdict::VerifiedStatic
            };
            assert_eq!(r.verdict, expected, "{} at n={n}", r.algorithm);
            assert!(r.steps_checked > 0, "{}: empty plan", r.algorithm);
            if r.verdict == Verdict::NeedsDynamic {
                assert!(
                    !r.dynamic_reasons.is_empty(),
                    "{}: NeedsDynamic without reasons",
                    r.algorithm
                );
            }
        }
    }
}

#[test]
fn zero_size_inputs_are_trivially_static() {
    for r in verify_all(&paper_plans(), 0, &VerifyConfig::default()).expect("n=0") {
        assert_eq!(r.verdict, Verdict::VerifiedStatic, "{}", r.algorithm);
    }
}

// ---------------------------------------------------------------------------
// Negative controls: defective plans must be rejected, not waved through.
// ---------------------------------------------------------------------------

const MUTANT_CONTRACT: ModelContract = ModelContract {
    algorithm: "xtests/mutant",
    class: ModelClass::Crcw,
    races: RaceExpectation::SeedDependent,
};

#[test]
fn off_by_one_scatter_is_rejected() {
    // n + 1 processors write pid into an n-cell array: provably out of
    // bounds for every n ≥ 0 (pid = n hits index n).
    let mut plan = AlgorithmPlan::new(MUTANT_CONTRACT);
    let arr = plan.array("mutant.dst", Affine::n());
    plan.step(
        StepPlan::new("scatter", Affine::n().plus(1), WritePolicy::Arbitrary)
            .write(arr, IndexSet::Exact(Affine::pid())),
    );
    let err = verify(&plan, 64, &VerifyConfig::default()).unwrap_err();
    assert!(
        matches!(
            err,
            VerifyError::OutOfBoundsPlan {
                step: "scatter",
                ..
            }
        ),
        "{err}"
    );
    assert_eq!(err.code(), "plan_out_of_bounds");
    assert_eq!(err.algorithm(), "xtests/mutant");
}

#[test]
fn crew_claim_on_a_crcw_election_is_rejected() {
    // A contract that promises CREW (concurrent reads only) over a step
    // where n processors all write cell 0: a provable write collision.
    let mut plan = AlgorithmPlan::new(ModelContract {
        algorithm: "xtests/mutant",
        class: ModelClass::Crew,
        races: RaceExpectation::Forbidden,
    });
    let win = plan.array("mutant.win", Affine::k(1));
    plan.step(
        StepPlan::new("elect", Affine::n(), WritePolicy::PriorityMin)
            .write(win, IndexSet::Exact(Affine::k(0))),
    );
    let err = verify(&plan, 64, &VerifyConfig::default()).unwrap_err();
    assert!(
        matches!(err, VerifyError::ContractViolation { step: "elect", .. }),
        "{err}"
    );
    assert_eq!(err.code(), "plan_contract_violation");
}

#[test]
fn opaque_shapes_fail_when_the_fallback_is_disabled() {
    let mut plan = AlgorithmPlan::new(MUTANT_CONTRACT);
    let dst = plan.array("mutant.dst", Affine::n());
    plan.step(
        StepPlan::new("throw", Affine::n(), WritePolicy::Arbitrary).write(dst, IndexSet::Opaque),
    );
    let strict = VerifyConfig {
        allow_dynamic_fallback: false,
    };
    let err = verify(&plan, 64, &strict).unwrap_err();
    // Strict-mode rejection aggregates at plan level; the offending step
    // is named in the detail.
    match &err {
        VerifyError::UnknownShape { detail, .. } => {
            assert!(detail.contains("throw"), "{err}")
        }
        other => panic!("expected UnknownShape, got {other}"),
    }
    assert_eq!(err.code(), "plan_unknown_shape");
    // With the default config the same plan is an honest NeedsDynamic.
    let r = verify(&plan, 64, &VerifyConfig::default()).expect("fallback");
    assert_eq!(r.verdict, Verdict::NeedsDynamic);
}

// ---------------------------------------------------------------------------
// The repository itself stays lint-clean.
// ---------------------------------------------------------------------------

#[test]
fn repository_passes_xlint() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtests sits under the repo root")
        .to_path_buf();
    let findings = xlint::lint_root(&root).expect("walk repo");
    assert!(
        findings.is_empty(),
        "xlint findings:\n{}",
        findings
            .iter()
            .map(xlint::Finding::render)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
