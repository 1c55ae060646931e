//! `ipch-service` — a deadline-aware resilient serving runtime over the
//! supervised convex-hull algorithms.
//!
//! The paper's algorithms are Las Vegas: always correct, randomized in
//! running time, already wrapped in a verify-and-retry supervisor
//! (`ipch_pram::supervise`). This crate adds the *serving* layer a
//! long-lived process needs on top of that:
//!
//! - **Admission control** ([`Service::submit`]): a bounded queue and
//!   per-tenant in-flight limits. Overload is shed *explicitly* — a typed
//!   [`ServiceError::Rejected`] with an exponential-backoff `retry_after`
//!   hint — never a silent drop.
//! - **Cooperative cancellation**: every request carries a
//!   [`CancelToken`](ipch_pram::CancelToken) (deadline-armed when the
//!   request or service config sets one) that the PRAM machine polls at
//!   every step boundary and between step chunks, so a cancelled or
//!   expired request aborts within one simulated step with a typed error
//!   and its partial metrics intact.
//! - **Tiered graceful degradation** ([`Breaker`]): per-algorithm circuit
//!   breakers watch for strain (retries, fallbacks, errors, panics) and
//!   walk the algorithm down [`Tier::Full`] → [`Tier::ReducedRetry`] →
//!   [`Tier::Sequential`] (direct exact hull, still certificate-checked),
//!   recovering through half-open probes.
//! - **Panic isolation**: each request runs under `catch_unwind`; a panic
//!   resolves that request as a typed
//!   [`RunError::Panic`](ipch_pram::RunError::Panic) and the service keeps
//!   serving.
//! - **Observability** ([`Service::health`]): queue depth, in-flight
//!   count, breaker states, and the [`ServiceStats`](ipch_pram::ServiceStats)
//!   counters, whose resolution invariant (`submitted` = sum of terminal
//!   outcomes) makes "no lost request" checkable.
//!
//! ```
//! use ipch_service::{Hull2dAlgo, Request, Service, ServiceConfig, Workload};
//!
//! let svc = Service::new(ServiceConfig::default());
//! let points = (0..32)
//!     .map(|i| ipch_geom::Point2 { x: i as f64, y: -(i as f64 - 16.0).powi(2) })
//!     .collect();
//! let ticket = svc
//!     .submit(Request::new("tenant-a", 42, Workload::Hull2d {
//!         points,
//!         algo: Hull2dAlgo::Unsorted,
//!     }))
//!     .expect("admitted");
//! let resp = ticket.wait().expect("certified hull");
//! assert!(resp.sim_steps > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod breaker;
pub mod error;
pub mod request;
pub mod runtime;

pub use breaker::{Breaker, BreakerConfig, Plan, Signal, Tier};
pub use error::{RejectReason, ServiceError};
pub use request::{Hull2dAlgo, Request, Response, ResponseValue, Workload};
pub use runtime::{BreakerView, Health, Service, ServiceConfig, Ticket};
