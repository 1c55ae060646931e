//! Tests of the benchmark itself: its inputs are a pure function of the
//! seed, its deterministic counters repeat exactly, tracing changes no
//! work, and `BENCHMARK.json` names exactly the metrics the command prints.
//!
//! Every test that runs the service holds `SERIAL`: two machines stepping
//! at once share the simulator's thread pool, and these tests pin
//! single-machine behaviour.

use std::sync::Mutex;

use ipch_perfbench::plan::{self, Kind};
use ipch_perfbench::report::{self, Summary};
use ipch_perfbench::run;
use ipch_perfbench::trace::{self, Tracer};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn inputs_are_a_pure_function_of_the_seed() {
    for kind in Kind::ALL {
        let n = kind.cycle() * 2;
        let a = plan::plan(kind, 42, n);
        assert_eq!(a, plan::plan(kind, 42, n), "{}", kind.name());
        assert_ne!(a, plan::plan(kind, 43, n), "{}", kind.name());
        for p in &a {
            let (x, y) = (format!("{:?}", p.workload()), format!("{:?}", p.workload()));
            assert_eq!(x, y, "{} request {}", kind.name(), p.index);
        }
        // A longer plan extends a shorter one.
        assert_eq!(&plan::plan(kind, 42, 2 * n)[..n], &a[..]);
    }
    assert_eq!(plan::warmup(Kind::Solo2d), plan::warmup(Kind::Solo2d));
}

#[test]
fn open_loop_schedule_is_bursts_of_sixteen() {
    let p = plan::plan(Kind::BurstSmall, 9, 48);
    for (i, r) in p.iter().enumerate() {
        assert_eq!(r.due, plan::BURST_PERIOD * (i / plan::BURST) as u32);
        assert!((32..=96).contains(&r.n));
    }
    let tenants: std::collections::BTreeSet<_> = p[..16].iter().map(|r| r.tenant).collect();
    assert_eq!(tenants.len(), 4);
    assert_eq!(Kind::BurstSmall.requests(10), 4000);
}

/// Steps, work and host steps of one short pass on a fresh service.
fn counters(kind: Kind, seed: u64, requests: usize, tracer: Option<&Tracer>) -> (u64, u64, u64) {
    let plan = plan::plan(kind, seed, requests);
    let (svc, inputs) = run::setup(kind, &plan);
    let pass = run::pass(&svc, kind, &plan, inputs, tracer);
    drop(svc);
    let checked = run::check(&plan, &pass);
    let s = Summary::new(&pass, checked);
    assert_eq!(s.wrong, 0, "{}: wrong answers", kind.name());
    assert_eq!(
        s.completed,
        requests,
        "{}: unanswered requests",
        kind.name()
    );
    (s.total_steps, s.total_work, s.host_steps)
}

#[test]
fn closed_loop_counters_repeat_exactly() {
    let _g = serial();
    for (kind, requests) in [(Kind::Solo2d, 6), (Kind::Solo3d, 4)] {
        let a = counters(kind, 5, requests, None);
        assert!(a.0 > 0 && a.1 > 0 && a.2 > 0);
        assert_eq!(a, counters(kind, 5, requests, None), "{}", kind.name());
    }
}

#[test]
fn tracing_changes_no_work() {
    let _g = serial();
    for (kind, requests) in [(Kind::Solo2d, 6), (Kind::Solo3d, 4)] {
        let tracer = Tracer::new();
        let traced = counters(kind, 8, requests, Some(&tracer));
        assert_eq!(counters(kind, 8, requests, None), traced, "{}", kind.name());
        let layers = trace::self_times(&tracer.spans());
        assert_eq!(layers["loadgen"].spans, requests as u64);
        assert_eq!(layers["service"].spans, 2 * requests as u64);
    }
}

/// The `"name": "…"` values of one top-level array of `BENCHMARK.json`.
fn names_in(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    let end = body.find(']').expect("array end");
    body[..end]
        .split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("a quoted name").to_owned())
        .collect()
}

#[test]
fn benchmark_json_names_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    // Every gated workload is one the command runs (burst-small is
    // runnable but ungated; see NOTES.md).
    let workloads = names_in(&json, "workloads");
    assert!(workloads.len() >= 2);
    assert!(workloads.iter().all(|w| Kind::parse(w).is_some()));
    let e2e: Vec<_> = report::END_TO_END.iter().map(|m| m.0.to_owned()).collect();
    assert_eq!(names_in(&json, "end_to_end"), e2e);
    let layers: Vec<_> = report::per_layer_names().into_iter().map(|m| m.0).collect();
    assert_eq!(names_in(&json, "per_layer"), layers);
}
