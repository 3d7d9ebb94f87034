//! `kpibench` — the repository benchmark: seeded KPI workloads served by
//! a real `opprentice-serve` child over TCP, measured end to end, checked
//! against an in-process reference, and (traced) split by layer.
//!
//! ```text
//! kpibench --workload live|backfill --seed N --seconds S --trace 0|1
//!          --server PATH --work DIR
//! kpibench --benchmark-json
//! ```
//!
//! `run.sh` builds both binaries and fills in `--server` and `--work`.
//! The last line of standard output is the result as one JSON object.
//! See README.md in this directory.

mod inputs;
mod layers;
mod metrics;
mod net;
mod reference;
mod stats;
mod trace;
mod workloads;

use stats::quantile;
use std::path::PathBuf;
use trace::Tracer;
use workloads::{Ctx, Outcome};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = metrics::RUN_SECONDS as f64;
    let mut trace = false;
    let mut server = None;
    let mut work = None;
    while let Some(flag) = args.next() {
        if flag == "--benchmark-json" {
            print!("{}", metrics::benchmark_json());
            std::process::exit(0);
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => seconds = value.parse().map_err(|_| bad("seconds"))?,
            "--trace" => trace = value == "1",
            "--server" => server = Some(PathBuf::from(&value)),
            "--work" => work = Some(PathBuf::from(&value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !metrics::WORKLOADS.iter().any(|(w, _)| *w == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        server: server.ok_or("--server is required")?,
        work: work.ok_or("--work is required")?,
    })
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Host CPU time stolen by the hypervisor and all CPU time so far, in
/// clock ticks, from the first line of `/proc/stat`.
fn host_steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|t| t.parse().unwrap_or(0))
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

fn run_workload(name: &str, ctx: &Ctx) -> Outcome {
    match name {
        "live" => workloads::live(ctx, true),
        "backfill" => workloads::backfill(ctx),
        other => unreachable!("validated workload {other}"),
    }
}

/// `name = value unit (n=…)` for a sample's median and tail.
fn describe(name: &str, samples: &[f64], unit: &str) -> String {
    match (quantile(samples, 0.5), quantile(samples, 0.99)) {
        (Some(p50), Some(p99)) if samples.len() > 1 => format!(
            "{name}: p50 {:.4} p99 {:.4} {unit} (n={})",
            p50.value, p99.value, p50.n
        ),
        (Some(p50), _) => format!("{name}: {:.4} {unit}", p50.value),
        _ => format!("{name}: no samples"),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kpibench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work = args.work.join(format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("kpibench: cannot create {}: {e}", work.display());
        std::process::exit(2);
    }
    let ctx = Ctx {
        server_bin: args.server.clone(),
        work: work.clone(),
        seed: args.seed,
        seconds: args.seconds,
        threads: nproc,
        setups: SETUPS,
    };

    let t_run = std::time::Instant::now();
    let steal0 = host_steal_ticks();
    let mut outcome = run_workload(&args.workload, &ctx);
    let run_s = t_run.elapsed().as_secs_f64();
    let steal = match (steal0, host_steal_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            format!("{:.1}%", 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64)
        }
        _ => "unknown".into(),
    };
    let mut report: Vec<String> = Vec::new();
    report.push(format!(
        "host nproc={nproc} OPPRENTICE_THREADS={} git_rev={} seed={} workload={} seconds={} setups={}",
        ctx.threads,
        git_rev(),
        args.seed,
        args.workload,
        args.seconds,
        SETUPS
    ));
    // Time the hypervisor gave to other guests: on a shared VM, the usual
    // reason every timing of a run is off at once.
    report.push(format!(
        "host steal during set-ups and window: {steal} of CPU time"
    ));
    for (preset, interval, weeks) in &outcome.kpis {
        report.push(format!("kpi {preset} interval={interval}s weeks={weeks}"));
    }

    let mut tracer = args.trace.then(Tracer::new);
    let replay = layers::replay(&args.workload, &outcome, args.seed, tracer.as_mut());
    // The transcripts are checked; free them before anything else runs.
    outcome.sessions = Vec::new();
    report.push(format!(
        "phases: workload {run_s:.1} s (set-ups {:.1} s), reference check {:.1} s",
        outcome.setup_s.iter().sum::<f64>(),
        t_run.elapsed().as_secs_f64() - run_s
    ));
    let mut check = replay.check.clone();
    let mut failures = outcome.failures.clone();

    let rtt_us: Vec<f64> = outcome.rtt_ns.iter().map(|n| n / 1e3).collect();
    report.push(describe("setup_s", &outcome.setup_s, "s"));
    report.push(format!("setup_s each: {:.4?}", outcome.setup_s));
    report.push(describe("rtt_us", &rtt_us, "us"));
    report.push(format!(
        "pts_per_s: {:.1} pts/s ({} points in {} s)",
        outcome.window_points as f64 / args.seconds,
        outcome.window_points,
        args.seconds
    ));
    report.push(format!(
        "server_cpu_s: {:.2} s in the window",
        outcome.server_cpu_s
    ));
    report.push(format!(
        "rss_growth: {:.1} B/pt (VmHWM over the window per acknowledged point)",
        outcome.rss_growth_b_per_pt
    ));
    for info in &outcome.info {
        report.push(describe(&info.name, &info.samples, info.unit));
    }

    let values: Vec<(String, f64)> = if args.trace {
        let durable_overhead_us = if args.workload == "live" {
            let (us, eph) = durable_overhead(&ctx, &rtt_us, &mut report);
            check.merge(layers::replay("live", &eph, args.seed, None).check);
            failures.extend(eph.failures);
            us
        } else {
            0.0
        };
        let kpi = layers::probe_kpi(args.seed);
        let values =
            layers::layer_metrics(&outcome, &replay, &kpi, durable_overhead_us, &mut report);
        let tracer = tracer.expect("traced run");
        let spans = work.join("spans.jsonl");
        match std::fs::write(&spans, tracer.to_json_lines()) {
            Ok(()) => report.push(format!(
                "spans: {} ({} spans)",
                spans.display(),
                tracer.spans().len()
            )),
            Err(e) => report.push(format!("spans: not written: {e}")),
        }
        values
    } else {
        let points = outcome.window_points.max(1) as f64;
        vec![
            ("setup_s".into(), stats::median(&outcome.setup_s)),
            ("rtt_p50_us".into(), stats::median(&rtt_us)),
            (
                "server_cpu_us_per_pt".into(),
                outcome.server_cpu_s * 1e6 / points,
            ),
            ("peak_rss_mb".into(), outcome.peak_rss_mb),
        ]
    };
    let declared = if args.trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    for (name, value) in &values {
        let unit = declared
            .iter()
            .find(|d| d.name == *name)
            .map_or("", |d| d.unit);
        report.push(format!("metric {name} = {value} {unit}"));
    }
    let attempted = check.checked + failures.len() as u64;
    let failed = check.failed + failures.len() as u64;
    let correct = failed == 0 && attempted > 0;
    for f in failures.iter().chain(&check.first) {
        report.push(format!("FAILED {f}"));
    }
    report.push(format!(
        "checked {} replies against the reference, {} failed",
        check.checked, check.failed
    ));
    // State directories can be large; the logs and spans stay.
    if let Ok(entries) = std::fs::read_dir(&work) {
        for e in entries.flatten() {
            if e.file_name().to_string_lossy().starts_with("state") {
                let _ = std::fs::remove_dir_all(e.path());
            }
        }
    }
    for line in &report {
        println!("# {line}");
    }
    println!(
        "{}",
        metrics::result_line(correct, attempted, failed, &declared, &values)
    );
    if !correct {
        std::process::exit(1);
    }
}

/// Repeats `live` with ephemeral sessions; returns how much higher the
/// durable run's `OBS` p50 was, in µs, and the repeat's outcome to check.
fn durable_overhead(ctx: &Ctx, durable_rtt_us: &[f64], report: &mut Vec<String>) -> (f64, Outcome) {
    let eph = Ctx {
        server_bin: ctx.server_bin.clone(),
        work: ctx.work.join("ephemeral"),
        seed: ctx.seed,
        seconds: ctx.seconds,
        threads: ctx.threads,
        setups: 1,
    };
    let _ = std::fs::create_dir_all(&eph.work);
    let outcome = workloads::live(&eph, false);
    let rtt: Vec<f64> = outcome.rtt_ns.iter().map(|n| n / 1e3).collect();
    report.push(describe("ephemeral_obs_rtt_us", &rtt, "us"));
    let _ = std::fs::remove_dir_all(&eph.work);
    (stats::median(durable_rtt_us) - stats::median(&rtt), outcome)
}
