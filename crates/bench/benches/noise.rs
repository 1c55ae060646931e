//! Noisy-predicate benches: what does majority voting cost?
//!
//! The voted 2-D hull (`hull2d/noisy`) runs the Θ(n³)-work brute oracle
//! with every primitive repeated `2k+1` times, k = Θ(log n). Measured
//! here, per input size:
//!
//! * `off`  — no fault plan: the entry point degenerates to single-shot
//!   predicates (one trial, nothing charged), the voting-free baseline.
//! * `p002` / `p01` — a live `NoisePlan` at p = 0.02 and p = 0.1 in
//!   fresh-flip mode: every test is voted, flips are counted, failed
//!   certificates retry on reseeded children with escalated repetition.
//!
//! The summary prints the *voting overhead multiplier* (noisy / off) —
//! the empirical counterpart of the `2k+1` analytic factor (times the
//! retry rate at that p). Numbers are printed only, never written into
//! the repository.

use criterion::{black_box, BenchmarkId, Criterion, Throughput};
use ipch_hull2d::parallel::noisy::upper_hull_noisy_supervised;
use ipch_pram::{FaultPlan, Machine, NoiseMode, NoisePlan, SuperviseConfig};

const SIZES: [usize; 2] = [24, 48];
const PROFILES: [(&str, f64); 3] = [("off", 0.0), ("p002", 0.02), ("p01", 0.1)];

fn bench_noise(c: &mut Criterion) {
    let mut group = c.benchmark_group("noise");
    group.sample_size(10);
    let cfg = SuperviseConfig::default();
    for &n in &SIZES {
        group.throughput(Throughput::Elements(n as u64));
        let pts = ipch_geom::generators::uniform_disk(n, 9);
        for (name, p) in PROFILES {
            let id = BenchmarkId::new(name, n);
            group.bench_with_input(id, &n, |b, _| {
                let mut m = Machine::new(17);
                if p > 0.0 {
                    m.install_faults(FaultPlan {
                        noise: Some(NoisePlan {
                            p,
                            mode: NoiseMode::Fresh,
                        }),
                        ..FaultPlan::default()
                    });
                }
                b.iter(|| {
                    let s = upper_hull_noisy_supervised(&mut m, &pts, &cfg)
                        .expect("noisy run answers (retries + fallback exist)");
                    black_box(s.value.hull.len())
                });
            });
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
    bench_noise(&mut c);

    // voting-overhead multiplier summary
    for &n in &SIZES {
        let t = |name: &str| {
            c.measurements
                .iter()
                .find(|m| m.id == format!("noise/{name}/{n}"))
                .map(|m| m.median.as_nanos() as f64)
        };
        if let Some(off) = t("off") {
            for (name, p) in &PROFILES[1..] {
                if let Some(noisy) = t(name) {
                    println!(
                        "n={n}: voting overhead at p={p} is {:.2}x over faults-off",
                        noisy / off
                    );
                }
            }
        }
    }
}
