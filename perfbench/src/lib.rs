//! The repository benchmark: drives `ipch_service::Service` in-process
//! from one load-generator thread over three named workloads, checks every
//! answer against a host reference hull, and reports end-to-end metrics
//! (untraced) or per-layer metrics (traced). See `NOTES.md` for the
//! workloads, the metric → layer → workload map and the known caveats.

pub mod check;
pub mod plan;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
