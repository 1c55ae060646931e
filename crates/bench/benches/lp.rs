//! Wall-clock benches of the LP substrate (experiment F6).

use criterion::{criterion_group, criterion_main, Criterion};
use ipch_geom::generators::uniform_disk;
use ipch_geom::UpperHull;
use ipch_lp::alon_megiddo::solve_lp2_am;
use ipch_lp::brute::solve_lp2_brute;
use ipch_lp::constraint::{Halfplane, Objective2};
use ipch_lp::inplace_bridge::find_bridge_inplace;
use ipch_lp::seidel::solve_lp2_seidel;
use ipch_pram::rng::SplitMix64;
use ipch_pram::{Machine, Shm};

fn instance(m: usize, seed: u64) -> (Vec<Halfplane>, Objective2) {
    let mut rng = SplitMix64::new(seed);
    let cs = (0..m)
        .map(|_| {
            let t = rng.next_f64() * std::f64::consts::TAU;
            Halfplane {
                a: -t.cos(),
                b: -t.sin(),
                c: -1.0 - rng.next_f64(),
            }
        })
        .collect();
    (cs, Objective2 { cx: 0.6, cy: 0.8 })
}

fn bench_lp(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp");
    group.sample_size(10);

    let (cs_small, obj) = instance(128, 1);
    group.bench_function("brute_m128", |b| {
        b.iter(|| {
            let mut m = Machine::new(1);
            let mut shm = Shm::new();
            solve_lp2_brute(&mut m, &mut shm, &cs_small, &obj)
        })
    });
    let (cs_big, obj2) = instance(8192, 2);
    group.bench_function("alon_megiddo_m8192", |b| {
        b.iter(|| {
            let mut m = Machine::new(2);
            let mut shm = Shm::new();
            solve_lp2_am(&mut m, &mut shm, &cs_big, &obj2)
        })
    });
    group.bench_function("seidel_m8192", |b| {
        b.iter(|| solve_lp2_seidel(&cs_big, &obj2, 3))
    });

    let pts = uniform_disk(8192, 3);
    let hull = UpperHull::of(&pts);
    let mid = hull.vertices.len() / 2;
    let x0 = (pts[hull.vertices[mid - 1]].x + pts[hull.vertices[mid]].x) / 2.0;
    let active: Vec<usize> = (0..pts.len()).collect();
    group.bench_function("inplace_bridge_m8192", |b| {
        b.iter(|| {
            let mut m = Machine::new(4);
            let mut shm = Shm::new();
            find_bridge_inplace(&mut m, &mut shm, &pts, &active, x0, 16)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_lp);
criterion_main!(benches);
