//! Parallel (CRCW PRAM) convex-hull algorithms — the paper's contribution.

pub mod batch;
pub mod brute;
pub mod dac;
pub mod folklore;
pub mod frugal;
pub mod invariant;
pub mod logstar;
pub mod merge;
pub mod noisy;
pub mod presorted;
pub mod supervised;
pub mod trace;
pub mod unsorted;

/// All hull2d entry-point plans for the static checker
/// ([`ipch_pram::verify`]), in the crate's canonical order.
pub fn verify_plans() -> Vec<ipch_pram::verify::AlgorithmPlan> {
    vec![
        brute::verify_plan(),
        folklore::verify_plan(),
        presorted::verify_plan(),
        logstar::verify_plan(),
        unsorted::verify_plan(),
        dac::verify_plan(),
        batch::verify_plan(),
        noisy::verify_plan(),
        frugal::verify_plan(),
    ]
}

#[cfg(test)]
mod verify_tests {
    #[test]
    fn dac_plan_proves_erew() {
        let r = ipch_pram::verify::verify(
            &super::dac::verify_plan(),
            1024,
            &ipch_pram::verify::VerifyConfig::default(),
        )
        .unwrap();
        assert_eq!(r.derived, ipch_pram::ModelClass::Erew);
    }
}
