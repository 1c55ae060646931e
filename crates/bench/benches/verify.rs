//! Static-checker cost benches: what does a `pram::verify` pass cost?
//!
//! Two rows:
//!
//! * `all-plans` — a full sweep of every entry-point plan in the
//!   workspace at one input size (the CI / test-suite shape).
//! * `admission` — a single served-algorithm plan check (the exact work
//!   `Service::submit` pays on every submission).
//!
//! The point of the numbers is the admission budget: the precheck is a
//! handful of symbolic evaluations over a step template, so it should
//! price in nanoseconds-to-microseconds regardless of `n` — the checker
//! evaluates affine endpoints, it never enumerates processors. A row
//! that scales with `n` is a checker regression.
//!
//! Numbers are printed only; wall-clock claims with provenance belong to
//! `perfbench/`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ipch_hull2d::parallel::unsorted::UNSORTED_CONTRACT;
use ipch_pram::verify::{verify, verify_all, VerifyConfig};

const SIZES: [usize; 3] = [1 << 8, 1 << 14, 1 << 20];

fn bench_verify(c: &mut Criterion) {
    let mut group = c.benchmark_group("verify");
    group.sample_size(20);
    let cfg = VerifyConfig::default();

    let plans = ipch_hull3d::paper_plans();
    for &n in &SIZES {
        group.throughput(Throughput::Elements(plans.len() as u64));
        group.bench_with_input(BenchmarkId::new("all-plans", n), &n, |b, &n| {
            b.iter(|| black_box(verify_all(&plans, n, &cfg).expect("plans verify")));
        });
    }

    let admission = plans
        .iter()
        .find(|p| p.contract == UNSORTED_CONTRACT)
        .expect("served algorithm has a plan");
    for &n in &SIZES {
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::new("admission", n), &n, |b, &n| {
            b.iter(|| black_box(verify(admission, n, &cfg).expect("plan verifies")));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_verify);
criterion_main!(benches);
