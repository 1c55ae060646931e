//! Analyzer overhead benches: what does `Machine::enable_analysis` cost?
//!
//! Three step profiles, each measured with the analyzer off and on:
//!
//! * `scatter` — in-order conflict-free scatter (the fast-path shape):
//!   the analyzer's worst relative case, since the step itself is cheap.
//! * `combine` — every processor piles onto 64 cells under `CombineSum`:
//!   races on every cell, so the analyzer also classifies contests.
//! * `kscatter` — a `kernel_scatter` whose processors also read a source
//!   array, so the analyzer traces a read as well as a write per processor.
//!
//! The disabled runs exist to pin the "zero cost when off" claim: they run
//! the *same binary* with the analyzer simply not enabled, so comparing
//! their medians against perfbench's `pram.ns_per_step` exposes any
//! passive tax the analysis hooks put on the hot path. The on/off ratio
//! printed at the end is the enabled-mode multiplier. Numbers are printed
//! only, never written into the repository.

use criterion::{black_box, BenchmarkId, Criterion, Throughput};
use ipch_pram::{AnalyzeConfig, Machine, Shm, WritePolicy};

const SIZES: [usize; 2] = [1 << 14, 1 << 18];
const PROFILES: [&str; 3] = ["scatter", "combine", "kscatter"];

fn machine(analyze: bool) -> Machine {
    let mut m = Machine::new(42);
    if analyze {
        m.enable_analysis(AnalyzeConfig::default());
    }
    m
}

fn bench_profile(c: &mut Criterion, profile: &str, analyze: bool) {
    let mut group = c.benchmark_group("analyze");
    group.sample_size(10);
    let mode = if analyze { "on" } else { "off" };

    for &n in &SIZES {
        group.throughput(Throughput::Elements(n as u64));
        let id = BenchmarkId::new(format!("{profile}-{mode}"), n);
        match profile {
            "scatter" => group.bench_with_input(id, &n, |b, &n| {
                let mut m = machine(analyze);
                let mut shm = Shm::new();
                let a = shm.alloc("a", n, 0);
                b.iter(|| {
                    m.step(&mut shm, 0..n, |ctx| {
                        let pid = ctx.pid;
                        ctx.write(a, pid, pid as i64);
                    });
                    black_box(shm.get(a, n - 1))
                });
            }),
            "combine" => group.bench_with_input(id, &n, |b, &n| {
                let mut m = machine(analyze);
                let mut shm = Shm::new();
                let a = shm.alloc("acc", 64, 0);
                b.iter(|| {
                    m.step_with_policy(&mut shm, 0..n, WritePolicy::CombineSum, |ctx| {
                        ctx.write(a, ctx.pid % 64, 1);
                    });
                    black_box(shm.get(a, 0))
                });
            }),
            _ => group.bench_with_input(id, &n, |b, &n| {
                let mut m = machine(analyze);
                let mut shm = Shm::new();
                let src = shm.alloc("src", n, 3);
                let dst = shm.alloc("dst", n, 0);
                b.iter(|| {
                    m.kernel_scatter(&mut shm, 0..n, |t, pid| {
                        Some((dst, pid, t.read(src, pid) + pid as i64))
                    });
                    black_box(shm.get(dst, n - 1))
                });
            }),
        }
    }
    group.finish();
}

fn main() {
    // `cargo test --benches` executes bench binaries with `--test`; a full
    // measurement sweep there would be slow noise, so bail out.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let mut c = Criterion::default();
    for profile in PROFILES {
        bench_profile(&mut c, profile, false);
        bench_profile(&mut c, profile, true);
    }

    // enabled-mode multiplier summary
    for &n in &SIZES {
        let t = |name: String| {
            c.measurements
                .iter()
                .find(|m| m.id == format!("analyze/{name}/{n}"))
                .map(|m| m.median.as_nanos() as f64)
        };
        for profile in PROFILES {
            if let (Some(off), Some(on)) = (t(format!("{profile}-off")), t(format!("{profile}-on")))
            {
                println!("n={n}: {profile} analyzer multiplier {:.2}x", on / off);
            }
        }
    }
}
