//! # ipch-bench — the experiment harness
//!
//! The paper is a theory paper with no measured tables; DESIGN.md defines
//! the experiment set (T1–T10, F1–F5, A1–A3) that turns each theorem into
//! a measurable claim. This crate regenerates every one of them:
//!
//! * `cargo run --release -p ipch-bench --bin tables -- all` prints every
//!   experiment in [`experiments::EXPERIMENTS`] as an aligned table and
//!   writes `bench_results/<id>.csv` at the workspace root. The tables
//!   hold seeded simulated costs only, so the CSVs are byte-identical at
//!   any thread count and CI diffs them against the committed files.
//!
//! Wall-clock measurement belongs to `perfbench/`, not to this crate.

pub mod experiments;
pub mod table;

pub use table::Table;
