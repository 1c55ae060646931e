//! Benchmark command.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload solo-2d --seed 1 --seconds 30 --trace 0
//! ```
//!
//! With `--trace 0` it runs the workload's fixed request count once and
//! prints the end-to-end metrics. With `--trace 1` it runs the first half
//! of the plan twice — untraced, then traced on a fresh service — replays
//! served requests as direct calls, writes the spans to
//! `perfbench/traces/<workload>-seed<seed>.jsonl` and prints the per-layer
//! metrics. The last stdout line is always the JSON result; the exit code
//! is 0 only when every answer matched the host reference and the service
//! ledger balanced.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use ipch_perfbench::plan::{self, Kind};
use ipch_perfbench::report::{self, json_object, json_string, Metric, Summary};
use ipch_perfbench::run::{self, Pass};
use ipch_perfbench::stats;
use ipch_perfbench::trace::{self, Tracer};

const USAGE: &str = "usage: ipch-perfbench --workload <solo-2d|solo-3d|burst-small> \
                     --seed <u64> --seconds <u64> --trace <0|1>";

/// Set-up rounds per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 5;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || val.parse::<u64>().map_err(|e| format!("{flag} {val}: {e}"));
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.clamp(1, 60)),
            "--trace" => trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace,
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let kind = args.kind;
    let mut requests = kind.requests(args.seconds);
    if args.trace {
        // Two passes over the first half: untraced, then traced.
        requests = (requests / 2 / kind.cycle()).max(1) * kind.cycle();
    }
    let plan = plan::plan(kind, args.seed, requests);

    // Set up several times; the last round's service runs the window.
    let mut setup_times = Vec::with_capacity(SETUP_ROUNDS);
    let mut ready = None;
    for round in 0..SETUP_ROUNDS {
        let t0 = if round == 0 {
            process_start
        } else {
            Instant::now()
        };
        drop(ready.take());
        ready = Some(run::setup(kind, &plan));
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let (svc, inputs) = ready.expect("at least one set-up round");
    let setup_s = stats::median(&setup_times);

    let pass_a = run::pass(&svc, kind, &plan, inputs, None);
    drop(svc);
    let (sum_a, ledger_a) = judge(&plan, &pass_a);
    let mut correct = sum_a.wrong == 0 && ledger_a;
    let mut attempted = sum_a.attempted;
    let mut failed = sum_a.failed;

    let mut lines = Vec::new();
    let metrics: Vec<Metric>;
    let mut notes: Vec<String> = Vec::new();
    let mut spans = Vec::new();
    if args.trace {
        let (svc, inputs) = run::setup(kind, &plan);
        let tracer = Tracer::new();
        let pass_b = run::pass(&svc, kind, &plan, inputs, Some(&tracer));
        drop(svc);
        let replays = run::replay(
            kind,
            &plan,
            &pass_b,
            &tracer,
            Duration::from_secs(args.seconds) / 4,
        );
        let (sum_b, ledger_b) = judge(&plan, &pass_b);
        let counters_match = (sum_a.total_steps, sum_a.total_work, sum_a.host_steps)
            == (sum_b.total_steps, sum_b.total_work, sum_b.host_steps);
        // Only the closed loops run one machine at a time, so only their
        // counters are fixed by the seed.
        correct &= sum_b.wrong == 0 && ledger_b && (kind.open_loop() || counters_match);
        attempted += sum_b.attempted;
        failed += sum_b.failed;
        metrics = report::per_layer(&report::LayerInputs {
            pass: &pass_b,
            summary: &sum_b,
            replays: &replays,
            untraced_p50_ms: sum_a.p50(),
            counters_match,
            setup_first_s: setup_times[0],
            peak_rss_mb: peak_rss_mb(),
        });
        spans = tracer.spans();
        notes.extend(layer_notes(kind, &pass_b, &replays));
        let get = |n: &str| {
            metrics
                .iter()
                .find(|m| m.name == n)
                .map_or(0.0, |m| m.value)
        };
        notes.push(format!(
            "seq.sim_overhead_x = latency_p50_ms {:.3} ms (traced pass) / seq.ref_ms_p50 {:.4} ms ({} replays)",
            sum_b.p50(),
            get("seq.ref_ms_p50"),
            replays.len()
        ));
        notes.push(format!(
            "counters untraced vs traced: steps {} vs {}, work {} vs {}, host steps {} vs {}",
            sum_a.total_steps,
            sum_b.total_steps,
            sum_a.total_work,
            sum_b.total_work,
            sum_a.host_steps,
            sum_b.host_steps
        ));
        for (layer, t) in trace::self_times(&spans) {
            notes.push(format!(
                "span layer {layer}: {} spans, self {:.3} ms, total {:.3} ms",
                t.spans,
                t.self_ns as f64 / 1e6,
                t.total_ns as f64 / 1e6
            ));
        }
    } else {
        metrics = report::end_to_end(&sum_a, setup_s);
    }

    notes.push(outcomes(&pass_a, &sum_a));
    let prov = provenance(&args, requests, &sum_a);
    lines.push(format!("provenance {prov}"));
    for m in &metrics {
        lines.push(format!(
            "metric {:<34} {:>16.6} {}",
            m.name, m.value, m.unit
        ));
    }
    for n in &notes {
        lines.push(format!("note {n}"));
    }
    if !correct {
        lines.push(
            "FAILED: a wrong answer, an unbalanced ledger, or counters that differ between the passes (see notes)"
                .into(),
        );
    }
    if args.trace {
        if let Err(e) = write_trace(&args, &prov, &spans) {
            lines.push(format!("note trace file not written: {e}"));
        }
    }
    for l in lines {
        println!("{l}");
    }
    println!(
        "{}",
        report::result_json(correct, attempted, failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Check a pass's answers and its ledger: every submitted request
/// resolved exactly once (`submitted == total_resolved`) and the service
/// saw exactly the planned requests.
fn judge(plan: &[plan::Planned], p: &Pass) -> (Summary, bool) {
    let checked = run::check(plan, p);
    let (a, b) = (&p.after.service, &p.before.service);
    let submitted = a.submitted - b.submitted;
    let resolved = a.total_resolved() - b.total_resolved();
    let balanced = submitted == plan.len() as u64 && resolved == submitted;
    (Summary::new(p, checked), balanced)
}

/// One line tallying how the untraced pass's requests resolved.
fn outcomes(p: &Pass, s: &Summary) -> String {
    let mut codes: std::collections::BTreeMap<&str, usize> = Default::default();
    for r in &p.records {
        if let Err(e) = &r.result {
            *codes.entry(e.code()).or_default() += 1;
        }
    }
    format!(
        "outcomes: {} submitted, {} answered ({} wrong, {} degraded, {} partial 3-D facet sets), errors {:?}",
        s.attempted, s.completed, s.wrong, s.degraded, s.partial, codes
    )
}

/// Why some per-layer metrics read zero on a workload.
fn layer_notes(kind: Kind, p: &Pass, replays: &[run::Replay]) -> Vec<String> {
    let mut v = Vec::new();
    if !kind.open_loop() {
        v.push("service.mean_batch_size and service.fused_share read 0: batching is off (closed loop, default config)".into());
        v.push(
            "loadgen.late_ms_max reads 0: a closed-loop client has no schedule to fall behind"
                .into(),
        );
    }
    if kind == Kind::Solo3d {
        v.push("core.phase.* read 0: solo-3d sends no 2-D requests, so core.unphased_ms_per_req holds all step time".into());
    } else {
        v.push("hull3d.* read 0: the workload sends no 3-D requests".into());
    }
    if p.after.phase("probe").is_some_and(|r| r.host_ns == 0) {
        v.push("core.phase.probe.ms_per_req reads 0: probe runs on child machines whose host time is not attributed to the phase (the phase-coverage gap core.unphased_ms_per_req shows)".into());
    }
    if replays.is_empty() {
        v.push("replay metrics read 0: no request completed".into());
    }
    v
}

/// Peak resident set of this process (VmHWM), MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn command_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd)
        .args(args)
        .current_dir(manifest_dir())
        .output()
        .ok()?;
    let s = String::from_utf8_lossy(&out.stdout).trim().to_owned();
    (out.status.success() && !s.is_empty()).then_some(s)
}

/// The checkout's git commit, or `unknown` when the repository root is
/// not a git work tree (a source export).
fn commit() -> String {
    let root = manifest_dir().join("..");
    root.join(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the repository's crate sources and lock file: identifies
/// the measured code where no git metadata is available.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let root = manifest_dir().join("..");
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("shims"), &mut files);
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for f in &files {
        let rel = f.strip_prefix(&root).unwrap_or(f).to_string_lossy();
        for b in rel.bytes().chain(std::fs::read(f).unwrap_or_default()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    format!("{h:016x}")
}

fn provenance(args: &Args, requests: usize, s: &Summary) -> String {
    let cfg = args.kind.config();
    let mut env: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("IPCH_"))
        .collect();
    env.sort();
    let env = json_object(env.iter().map(|(k, v)| (k.as_str(), json_string(v))));
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut service = String::new();
    let _ = write!(
        service,
        "workers={} shards={} batch_window={} batch_max={} per_tenant_inflight={} queue_capacity={}",
        cfg.workers,
        cfg.shards,
        cfg.batch_window,
        cfg.batch_max,
        cfg.per_tenant_inflight,
        cfg.queue_capacity
    );
    json_object([
        ("workload", json_string(args.kind.name())),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("requests_per_pass", requests.to_string()),
        (
            "latency_tail_percentile",
            format!("{}", s.tail_pm as f64 / 10.0),
        ),
        (
            "latency_tail_samples_beyond",
            stats::beyond(s.attempted, s.tail_pm).to_string(),
        ),
        ("setup_rounds", SETUP_ROUNDS.to_string()),
        ("commit", json_string(&commit())),
        ("source_digest", json_string(&source_digest())),
        ("nproc", nproc.to_string()),
        (
            "rustc",
            json_string(&command_line(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
        (
            "target",
            json_string(&format!(
                "{}-{}",
                std::env::consts::ARCH,
                std::env::consts::OS
            )),
        ),
        ("service_config", json_string(&service)),
        ("ipch_env", env),
    ])
}

/// Write the spans as JSON lines, then one self-time line per layer.
fn write_trace(args: &Args, prov: &str, spans: &[trace::Span]) -> std::io::Result<()> {
    let dir = manifest_dir().join("traces");
    std::fs::create_dir_all(&dir)?;
    let mut out = String::new();
    let _ = writeln!(out, "{}", json_object([("provenance", prov.to_owned())]));
    for s in spans {
        let parent = s.parent.map_or("null".into(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{}",
            json_object([
                ("id", s.id.to_string()),
                ("parent", parent),
                ("req", s.req.to_string()),
                ("name", json_string(s.name)),
                ("start_ns", s.start_ns.to_string()),
                ("end_ns", s.end_ns.to_string()),
            ])
        );
    }
    for (layer, t) in trace::self_times(spans) {
        let _ = writeln!(
            out,
            "{}",
            json_object([
                ("layer", json_string(layer)),
                ("spans", t.spans.to_string()),
                ("self_ns", t.self_ns.to_string()),
                ("total_ns", t.total_ns.to_string()),
            ])
        );
    }
    let path = dir.join(format!("{}-seed{}.jsonl", args.kind.name(), args.seed));
    std::fs::write(path, out)
}
