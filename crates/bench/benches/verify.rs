//! Static-checker cost benches: what does a `pram::verify` pass cost?
//!
//! Two rows:
//!
//! * `all-plans` — a full sweep of every entry-point plan in the
//!   workspace at one input size (the CI / test-suite shape).
//! * `admission` — a single served-algorithm plan check (the exact work
//!   `Service::submit` pays per request when `precheck_plans` is on).
//!
//! The point of the numbers is the admission budget: the precheck is a
//! handful of symbolic evaluations over a step template, so it should
//! price in nanoseconds-to-microseconds regardless of `n` — the checker
//! evaluates affine endpoints, it never enumerates processors. A row
//! that scales with `n` is a checker regression.
//!
//! A custom `main` (instead of `criterion_main!`) appends every
//! measurement to `bench_results/verify.csv`.

use criterion::{black_box, BenchmarkId, Criterion, Throughput};
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

fn append_results(c: &Criterion) -> std::io::Result<std::path::PathBuf> {
    use std::io::Write;
    // anchor at the workspace root: bench binaries run with the package
    // directory as cwd, but results belong next to the tables' CSVs
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench_results");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("verify.csv");
    let fresh = !path.exists();
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)?;
    if fresh {
        writeln!(f, "id,median_ns_per_iter,melem_per_s")?;
    }
    for m in &c.measurements {
        writeln!(
            f,
            "{},{},{}",
            m.id,
            m.median.as_nanos(),
            m.elements_per_sec()
                .map(|r| format!("{:.3}", r / 1e6))
                .unwrap_or_default()
        )?;
    }
    Ok(path)
}

fn main() {
    // `cargo test --benches` executes bench binaries with `--test`; a full
    // measurement sweep there would be slow noise, so bail out.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let mut c = Criterion::default();
    bench_verify(&mut c);
    match append_results(&c) {
        Ok(path) => println!(
            "appended {} rows to {}",
            c.measurements.len(),
            path.display()
        ),
        Err(e) => eprintln!("could not write verify.csv: {e}"),
    }
}
