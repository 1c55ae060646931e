//! Parallel 3-D hull on the CRCW PRAM simulator.

pub mod noisy;
pub mod probe;
pub mod supervised;
pub mod unsorted3d;

/// All hull3d entry-point plans for the static checker
/// ([`ipch_pram::verify`]), in the crate's canonical order.
pub fn verify_plans() -> Vec<ipch_pram::verify::AlgorithmPlan> {
    vec![
        unsorted3d::verify_plan(),
        probe::verify_plan(),
        noisy::verify_plan(),
    ]
}
