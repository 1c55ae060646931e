//! Request and response types of the serving runtime.

use std::time::Duration;

use ipch_geom::{Point2, Point3, UpperHull};
use ipch_hull3d::Facet;
use ipch_pram::{FaultPlan, Metrics, Outcome};

use crate::breaker::Tier;

/// Which 2-D hull algorithm a request asks for (both are supervised; the
/// breaker tracks them independently).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Hull2dAlgo {
    /// §3 output-sensitive algorithm on unsorted input.
    Unsorted,
    /// Deterministic divide-and-conquer merge tree.
    Dac,
}

/// The computation a request asks the service to run.
#[derive(Clone, Debug)]
pub enum Workload {
    /// 2-D upper hull of `points`.
    Hull2d {
        /// Input points (need not be sorted).
        points: Vec<Point2>,
        /// Algorithm choice.
        algo: Hull2dAlgo,
    },
    /// 3-D upper hull of `points`.
    Hull3d {
        /// Input points.
        points: Vec<Point3>,
    },
}

impl Workload {
    /// The breaker key / algorithm name this workload is served by (matches
    /// the supervised wrappers' `RunError::algorithm()` names).
    pub fn algorithm(&self) -> &'static str {
        match self {
            Workload::Hull2d {
                algo: Hull2dAlgo::Unsorted,
                ..
            } => ipch_hull2d::parallel::unsorted::UNSORTED_CONTRACT.algorithm,
            Workload::Hull2d {
                algo: Hull2dAlgo::Dac,
                ..
            } => ipch_hull2d::parallel::dac::DAC_CONTRACT.algorithm,
            Workload::Hull3d { .. } => {
                ipch_hull3d::parallel::unsorted3d::UNSORTED3_CONTRACT.algorithm
            }
        }
    }

    /// Number of input points.
    pub fn len(&self) -> usize {
        match self {
            Workload::Hull2d { points, .. } => points.len(),
            Workload::Hull3d { points } => points.len(),
        }
    }

    /// True when the workload carries no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One request to the service.
#[derive(Clone, Debug)]
pub struct Request {
    /// Tenant identifier (the per-tenant concurrency limit keys on this).
    pub tenant: String,
    /// Machine seed for the run (replayable: same seed + workload + tier →
    /// same simulated execution).
    pub seed: u64,
    /// What to compute.
    pub workload: Workload,
    /// Per-request deadline (falls back to the service default; `None` on
    /// both = no deadline).
    pub deadline: Option<Duration>,
    /// Fault-injection plan installed on the request's machine (chaos
    /// testing; `None` in production traffic).
    pub chaos: Option<FaultPlan>,
}

impl Request {
    /// A plain request with no deadline and no chaos.
    pub fn new(tenant: impl Into<String>, seed: u64, workload: Workload) -> Self {
        Self {
            tenant: tenant.into(),
            seed,
            workload,
            deadline: None,
            chaos: None,
        }
    }
}

/// The certified value a completed request returns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResponseValue {
    /// 2-D upper hull (vertex ids into the request's point array).
    Hull2d(UpperHull),
    /// 3-D upper-hull facets.
    Hull3d(Vec<Facet>),
}

/// A completed request: the certified value plus its provenance.
#[derive(Clone, Debug)]
pub struct Response {
    /// The (certificate-verified) result.
    pub value: ResponseValue,
    /// Degradation tier the request was served at.
    pub tier: Tier,
    /// Supervised outcome (`None` when served at [`Tier::Sequential`],
    /// which runs no supervisor).
    pub outcome: Option<Outcome>,
    /// Attempts the supervisor made (0 at the sequential tier).
    pub attempts: u32,
    /// Simulated PRAM steps the request cost (its machine's metrics are
    /// absorbed into the service aggregate; this is the headline number).
    pub sim_steps: u64,
    /// High-water mark of live workspace cells across the request's
    /// machine (maximum over supervised attempts; 0 for host-only runs).
    /// At [`Tier::Frugal`] a clean run keeps this within the service's
    /// workspace budget — the measured bound the memory-pressure soak
    /// asserts.
    pub peak_cells: u64,
}

impl Response {
    /// A response whose `sim_steps` and `peak_cells` are read from the
    /// metrics of the machine that served it.
    pub(crate) fn new(
        value: ResponseValue,
        tier: Tier,
        outcome: Option<Outcome>,
        attempts: u32,
        machine: &Metrics,
    ) -> Self {
        Self {
            value,
            tier,
            outcome,
            attempts,
            sim_steps: machine.steps,
            peak_cells: machine.peak_live_cells,
        }
    }
}
