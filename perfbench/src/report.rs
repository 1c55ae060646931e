//! Metrics of a run, and the JSON the benchmark prints.

use std::fmt::Write as _;

use ipch_pram::Metrics;
use ipch_service::Tier;

use crate::run::{Checked, Pass, Replay};
use crate::stats;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of them.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("ok_rate", "ratio"),
    ("full_tier_rate", "ratio"),
    ("sim_steps_per_req", "steps"),
    ("sim_work_per_req", "ops"),
    ("sim_peak_cells_p50", "cells"),
];

/// The 2-D algorithm phases `hull2d/unsorted` records.
pub const PHASES: [&str; 4] = ["probe", "sweep", "split", "compact"];

/// Per-layer metrics: `(name, unit)`, in reporting order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("service.submit_us_p50", "us"),
        ("service.submit_us_tail", "us"),
        ("service.overhead_ms_p50", "ms"),
        ("service.queue_depth_max", "count"),
        ("service.shed_rate", "ratio"),
        ("service.mean_batch_size", "count"),
        ("service.fused_share", "ratio"),
        ("service.solo_run_share", "ratio"),
        ("service.breaker_trips", "count"),
        ("service.degraded_tier1_runs", "count"),
        ("service.frugal_runs", "count"),
        ("service.degraded_tier2_runs", "count"),
        ("supervise.attempts_per_run", "count"),
        ("supervise.retry_rate", "ratio"),
        ("supervise.fallback_rate", "ratio"),
        ("supervise.panics_caught", "count"),
        ("supervise.verify_failures", "count"),
        ("supervise.cert_ms_p50", "ms"),
        ("pram.compute_ms_per_req", "ms"),
        ("pram.commit_ms_per_req", "ms"),
        ("pram.ns_per_step", "ns"),
        ("pram.ns_per_write", "ns"),
        ("pram.fastpath_rate", "ratio"),
        ("pram.kernel_step_rate", "ratio"),
        ("pram.conflict_rate", "ratio"),
        ("pram.threads", "count"),
        ("pram.outside_steps_ms_per_req", "ms"),
        ("pram.peak_live_cells_max", "cells"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_owned(), u))
    .collect();
    for ph in PHASES {
        v.push((format!("core.phase.{ph}.ms_per_req"), "ms"));
        v.push((format!("core.phase.{ph}.steps_per_req"), "steps"));
    }
    for (n, u) in [
        ("core.unphased_ms_per_req", "ms"),
        ("hull3d.facets_per_req", "count"),
        ("hull3d.steps_per_req", "steps"),
        ("hull3d.partial_answer_share", "ratio"),
        ("geom.validate_us_p50", "us"),
        ("seq.ref_ms_p50", "ms"),
        ("seq.sim_overhead_x", "x"),
        ("loadgen.late_ms_max", "ms"),
        ("trace.overhead_pct", "%"),
        ("trace.counters_match", "bool"),
        ("e2e.error_rate", "ratio"),
        ("e2e.degraded_rate", "ratio"),
        ("e2e.tail_percentile", "%"),
        ("e2e.tail_samples_beyond", "count"),
        ("e2e.requests", "count"),
        ("setup.first_s", "s"),
        ("mem.peak_rss_mb", "MiB"),
        ("loadgen.mean_rps", "1/s"),
        ("sim.work_per_req_mean", "ops"),
    ] {
        v.push((n.to_owned(), u));
    }
    v
}

/// A named, measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The end-to-end view of one pass.
#[derive(Clone, Debug)]
pub struct Summary {
    /// Requests submitted.
    pub attempted: usize,
    /// Requests that returned an answer.
    pub completed: usize,
    /// Answers that differ from the host reference.
    pub wrong: usize,
    /// Correct 3-D answers listing fewer facets than the reference.
    pub partial: usize,
    /// Refused requests, typed errors and wrong answers.
    pub failed: usize,
    /// Answers served below `Tier::Full` or by the supervisor's fallback.
    pub degraded: usize,
    /// Length of the timed window, seconds.
    pub window_s: f64,
    /// Per submitted request, ms; a failed request counts as the whole
    /// window (it misses any latency limit).
    pub latencies_ms: Vec<f64>,
    /// Tail percentile used, per mille.
    pub tail_pm: usize,
    /// `Metrics::total_steps()` over the window.
    pub total_steps: u64,
    /// `Metrics::total_work()` over the window.
    pub total_work: u64,
    /// Host-executed steps over the window.
    pub host_steps: u64,
    /// Closed loops: median over mix cycles of the cycle's requests per
    /// second. Open loop: correct completions over the whole window.
    pub throughput: f64,
    /// Closed loops: median over mix cycles of work per request. Open
    /// loop: work per completed request over the whole window.
    pub work_per_req: f64,
    /// Median over answered requests of `Response::peak_cells`.
    pub peak_cells_p50: f64,
}

impl Summary {
    /// Summarise a checked pass.
    pub fn new(p: &Pass, c: Checked) -> Summary {
        let attempted = p.records.len();
        let completed = c.correct + c.wrong;
        let window_s = p.window.as_secs_f64();
        let mut degraded = 0;
        let latencies_ms = p
            .records
            .iter()
            .map(|r| match (&r.result, r.latency) {
                (Ok(resp), Some(l)) => {
                    let fell_back = resp.outcome == Some(ipch_pram::Outcome::FellBack);
                    if resp.tier != Tier::Full || fell_back {
                        degraded += 1;
                    }
                    l.as_secs_f64() * 1e3
                }
                _ => window_s * 1e3,
            })
            .collect();
        let good = c.correct as f64;
        let cycle_len = ratio(attempted as f64, p.cycles.len() as f64);
        let (throughput, work_per_req) = if p.cycles.is_empty() {
            let work = (p.after.total_work() - p.before.total_work()) as f64;
            (ratio(good, window_s), ratio(work, completed as f64))
        } else {
            let rps: Vec<f64> = p
                .cycles
                .iter()
                .map(|c| cycle_len / c.wall.as_secs_f64())
                .collect();
            let work: Vec<f64> = p.cycles.iter().map(|c| c.work as f64 / cycle_len).collect();
            (stats::median(&rps), stats::median(&work))
        };
        let cells: Vec<f64> = p
            .records
            .iter()
            .filter_map(|r| r.result.as_ref().ok())
            .map(|resp| resp.peak_cells as f64)
            .collect();
        Summary {
            throughput,
            work_per_req,
            peak_cells_p50: stats::median(&cells),
            attempted,
            completed,
            wrong: c.wrong,
            partial: c.partial,
            failed: attempted - c.correct,
            degraded,
            window_s,
            latencies_ms,
            tail_pm: stats::tail_percentile(attempted),
            total_steps: p.after.total_steps() - p.before.total_steps(),
            total_work: p.after.total_work() - p.before.total_work(),
            host_steps: p.after.host_steps - p.before.host_steps,
        }
    }

    /// Median latency, ms.
    pub fn p50(&self) -> f64 {
        stats::median(&self.latencies_ms)
    }

    /// Tail latency at [`Summary::tail_pm`], ms.
    pub fn tail(&self) -> f64 {
        stats::percentile(&self.latencies_ms, self.tail_pm)
    }

    fn per_completed(&self, x: f64) -> f64 {
        ratio(x, self.completed as f64)
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// The end-to-end metrics, in [`END_TO_END`] order.
pub fn end_to_end(s: &Summary, setup_s: f64) -> Vec<Metric> {
    let good = (s.completed - s.wrong) as f64;
    let values = [
        setup_s,
        s.throughput,
        s.p50(),
        s.tail(),
        ratio(good, s.attempted as f64),
        1.0 - s.per_completed(s.degraded as f64),
        s.per_completed(s.total_steps as f64),
        s.work_per_req,
        s.peak_cells_p50,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| metric(n, v, u))
        .collect()
}

/// Everything the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    /// The traced pass.
    pub pass: &'a Pass,
    /// Summary of the traced pass.
    pub summary: &'a Summary,
    /// Replays made after the traced pass.
    pub replays: &'a [Replay],
    /// Median latency of the untraced pass over the same requests, ms.
    pub untraced_p50_ms: f64,
    /// True when steps, work and host steps of the untraced and traced
    /// passes are identical.
    pub counters_match: bool,
    /// Duration of the first set-up round (from process start), seconds.
    pub setup_first_s: f64,
    /// Peak resident memory of the process so far, MiB.
    pub peak_rss_mb: f64,
}

fn delta(p: &Pass, f: impl Fn(&Metrics) -> u64) -> f64 {
    (f(&p.after) - f(&p.before)) as f64
}

fn phase(m: &Metrics, name: &str, f: impl Fn(&ipch_pram::PhaseRecord) -> u64) -> u64 {
    m.phase(name).map_or(0, f)
}

/// The per-layer metrics, in [`per_layer_names`] order.
pub fn per_layer(x: &LayerInputs<'_>) -> Vec<Metric> {
    let (p, s) = (x.pass, x.summary);
    let svc = |f: fn(&ipch_pram::ServiceStats) -> u64| delta(p, |m| f(&m.service));
    let sup = |f: fn(&ipch_pram::SupervisorStats) -> u64| delta(p, |m| f(&m.supervisor));
    let ms = |ns: f64| ns / 1e6;
    let completed = s.completed as f64;
    let per_req = |v: f64| ratio(v, completed);
    let ok: Vec<_> = p
        .records
        .iter()
        .filter_map(|r| r.result.as_ref().ok().map(|resp| (r, resp)))
        .collect();
    let submit_us: Vec<f64> = p
        .records
        .iter()
        .map(|r| r.submit.as_secs_f64() * 1e6)
        .collect();
    let replay_ms = |f: fn(&Replay) -> f64| -> Vec<f64> { x.replays.iter().map(f).collect() };
    let overhead = replay_ms(|r| (r.served.as_secs_f64() - r.direct.as_secs_f64()) * 1e3);
    let ref_p50 = stats::median(&replay_ms(|r| r.reference.as_secs_f64() * 1e3));

    let submitted = svc(|v| v.submitted);
    let batch_members = svc(|v| v.batch_members);
    let runs = sup(|v| v.runs);
    let compute = delta(p, |m| m.host_compute_ns);
    let commit = delta(p, |m| m.host_commit_ns);
    let host_steps = delta(p, |m| m.host_steps);
    let mean_latency_ms = ratio(
        ok.iter()
            .filter_map(|(r, _)| r.latency)
            .map(|l| l.as_secs_f64() * 1e3)
            .sum(),
        ok.len() as f64,
    );
    let three_d: Vec<_> = ok
        .iter()
        .filter(|(_, resp)| matches!(resp.value, ipch_service::ResponseValue::Hull3d(_)))
        .collect();
    let phase_ns: u64 = PHASES
        .iter()
        .map(|ph| phase(&p.after, ph, |r| r.host_ns) - phase(&p.before, ph, |r| r.host_ns))
        .sum();

    let mut values: Vec<f64> = vec![
        stats::median(&submit_us),
        stats::percentile(&submit_us, s.tail_pm),
        stats::median(&overhead),
        p.depth_max as f64,
        ratio(svc(|v| v.total_shed()), submitted),
        ratio(batch_members, svc(|v| v.batches_formed)),
        per_req(batch_members),
        1.0 - per_req(batch_members),
        svc(|v| v.breaker_trips),
        svc(|v| v.degraded_tier1_runs),
        svc(|v| v.frugal_runs),
        svc(|v| v.degraded_tier2_runs),
        ratio(sup(|v| v.attempts), runs),
        ratio(sup(|v| v.retries), runs),
        ratio(sup(|v| v.fallbacks), runs),
        sup(|v| v.panics_caught),
        sup(|v| v.verify_failures),
        stats::median(&replay_ms(|r| r.cert.as_secs_f64() * 1e3)),
        per_req(ms(compute)),
        per_req(ms(commit)),
        ratio(compute + commit, host_steps),
        ratio(commit, delta(p, |m| m.writes_buffered)),
        ratio(delta(p, |m| m.fastpath_steps), host_steps),
        ratio(delta(p, |m| m.kernel_steps), host_steps),
        ratio(
            delta(p, |m| m.write_conflicts),
            delta(p, |m| m.writes_committed),
        ),
        p.after.threads as f64,
        mean_latency_ms - per_req(ms(compute + commit)),
        ok.iter().map(|(_, r)| r.peak_cells).max().unwrap_or(0) as f64,
    ];
    for ph in PHASES {
        let d = |f: fn(&ipch_pram::PhaseRecord) -> u64| {
            (phase(&p.after, ph, f) - phase(&p.before, ph, f)) as f64
        };
        values.push(per_req(ms(d(|r| r.host_ns))));
        values.push(per_req(d(|r| r.steps + r.charged_steps)));
    }
    let p50 = s.p50();
    values.extend([
        per_req(ms(compute + commit - phase_ns as f64)),
        ratio(
            three_d
                .iter()
                .map(|(_, r)| crate::check::facets(&r.value) as f64)
                .sum(),
            three_d.len() as f64,
        ),
        ratio(
            three_d.iter().map(|(_, r)| r.sim_steps as f64).sum(),
            three_d.len() as f64,
        ),
        ratio(s.partial as f64, three_d.len() as f64),
        stats::median(&replay_ms(|r| r.validate.as_secs_f64() * 1e6)),
        ref_p50,
        ratio(p50, ref_p50),
        p.late_max.as_secs_f64() * 1e3,
        100.0 * ratio(p50 - x.untraced_p50_ms, x.untraced_p50_ms),
        if x.counters_match { 1.0 } else { 0.0 },
        ratio(s.failed as f64, s.attempted as f64),
        s.per_completed(s.degraded as f64),
        s.tail_pm as f64 / 10.0,
        stats::beyond(s.attempted, s.tail_pm) as f64,
        s.attempted as f64,
        x.setup_first_s,
        x.peak_rss_mb,
        ratio((s.completed - s.wrong) as f64, s.window_s),
        s.per_completed(s.total_work as f64),
    ]);
    let names = per_layer_names();
    assert_eq!(names.len(), values.len(), "one value per per-layer metric");
    names
        .into_iter()
        .zip(values)
        .map(|((n, u), v)| metric(&n, v, u))
        .collect()
}

/// Encode a string as a JSON value.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON object from already-encoded values.
pub fn json_object<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), v))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let m = json_object(metrics.iter().map(|m| {
        (
            m.name.as_str(),
            json_object([
                ("value", format!("{}", m.value)),
                ("unit", json_string(m.unit)),
            ]),
        )
    }));
    json_object([
        ("correct", correct.to_string()),
        ("attempted", attempted.to_string()),
        ("failed", failed.to_string()),
        ("metrics", m),
    ])
}
