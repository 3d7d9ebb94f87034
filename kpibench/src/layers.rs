//! The output check, and the traced run's per-layer view.
//!
//! Every served exchange is replayed through the in-process reference
//! ([`crate::reference`]). In the traced run that replay records spans
//! around each layer call, and standalone probes time the layers on the
//! workload's own KPI: streaming and batched extraction, each detector
//! family alone, forest fitting, 5-fold cThld selection and compiled
//! inference.

use crate::inputs::{Kpi, Preset, HISTORY_WEEKS};
use crate::metrics::{family_key, FAMILIES};
use crate::reference::{Check, Expected, RefSession, Traced};
use crate::stats::{iqr_share, median, quantile};
use crate::trace::Tracer;
use crate::workloads::{Outcome, SessionLog};
use opprentice::cthld::Preference;
use opprentice::features::OnlineExtractor;
use opprentice::predictor::five_fold_cthld;
use opprentice_detectors::fused::plan;
use opprentice_detectors::registry;
use opprentice_learn::{Classifier, RandomForest, RandomForestParams};
use opprentice_server::parse_request;
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Requests per session whose replay is traced; later ones are checked
/// without spans, which keeps the span file bounded.
const TRACE_CAP: usize = 20_000;

/// In-process timings of one replayed request.
#[derive(Debug, Clone, Default)]
pub struct ReqTiming {
    /// Request id (of the served exchange it stands for).
    pub id: u64,
    /// First word of the request line.
    pub verb: String,
    /// Points the request carried.
    pub values: usize,
    /// `proto.parse_request` time.
    pub proto_ns: u64,
    /// Time in `pipeline.*` calls.
    pub pipeline_ns: u64,
    /// Shadow `features.*` time for the same points.
    pub features_ns: u64,
    /// Shadow `compiled.predict` time.
    pub compiled_ns: u64,
}

/// The replay's verdict plus, when traced, its timings.
#[derive(Default)]
pub struct Replay {
    /// Reply comparison.
    pub check: Check,
    /// One entry per traced request.
    pub timings: Vec<ReqTiming>,
    /// In-process wall time from each `start_retrain` to its swap, in ms.
    pub retrain_wall_ms: Vec<f64>,
}

/// One session's reference plus the traced run's per-session state.
#[derive(Default)]
struct Replayer {
    reference: RefSession,
    /// Shadow extractor timed as the feature layer.
    shadow: Option<OnlineExtractor>,
    /// When the in-flight retrain was submitted in the replay.
    retrain_started: Option<Instant>,
}

impl Replayer {
    /// Replays request `line`; with a tracer, records its timings.
    fn step(
        &mut self,
        id: u64,
        line: &str,
        landed: bool,
        tracer: Option<&mut Tracer>,
        replay: &mut Replay,
    ) -> Expected {
        let Some(tracer) = tracer else {
            return self.reference.expect(id, line, landed, None);
        };
        let first = tracer.spans().len();
        if line == "RETRAIN" {
            self.retrain_started = Some(Instant::now());
        }
        let traced = Traced {
            tracer,
            shadow: &mut self.shadow,
        };
        let want = self.reference.expect(id, line, landed, Some(traced));
        if landed {
            if let Some(t0) = self.retrain_started.take() {
                replay
                    .retrain_wall_ms
                    .push(t0.elapsed().as_secs_f64() * 1e3);
            }
        }
        let mut t = ReqTiming {
            id,
            verb: line.split(' ').next().unwrap_or("").to_string(),
            values: line.split(' ').count().saturating_sub(2),
            ..ReqTiming::default()
        };
        for s in &tracer.spans()[first..] {
            let d = s.duration_ns();
            match s.name.split('.').next() {
                Some("proto") => t.proto_ns += d,
                Some("pipeline") => t.pipeline_ns += d,
                Some("features") => t.features_ns += d,
                Some("compiled") => t.compiled_ns += d,
                _ => {}
            }
        }
        replay.timings.push(t);
        want
    }
}

/// Replays one session's whole transcript into `replay`.
fn replay_one(session: &SessionLog, mut tracer: Option<&mut Tracer>, replay: &mut Replay) {
    let mut replayer = Replayer::default();
    for (i, ex) in session.exchanges.iter().enumerate() {
        let t = if i < TRACE_CAP {
            tracer.as_deref_mut()
        } else {
            None
        };
        let want = replayer.step(ex.id, &ex.line, !ex.events.is_empty(), t, replay);
        replay.check.compare(ex, &want);
    }
}

/// Checks (and, with a tracer, times) every session of a trained
/// workload. Untraced, the sessions are replayed on parallel threads: the
/// server has exited by then.
fn replay_sessions(sessions: &[SessionLog], mut tracer: Option<&mut Tracer>) -> Replay {
    let mut replay = Replay::default();
    if tracer.is_some() {
        for session in sessions {
            replay_one(session, tracer.as_deref_mut(), &mut replay);
        }
        return replay;
    }
    let checks: Vec<Check> = std::thread::scope(|s| {
        let handles: Vec<_> = sessions
            .iter()
            .map(|session| {
                s.spawn(move || {
                    let mut own = Replay::default();
                    replay_one(session, None, &mut own);
                    own.check
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference replay panicked"))
            .collect()
    });
    for c in checks {
        replay.check.merge(c);
    }
    replay
}

/// Checks `backfill`: every onboarded session of one KPI receives the
/// same lines, so each KPI is replayed once and every session's replies
/// are compared with that replay's.
fn replay_backfill(outcome: &Outcome, kpis: &[Kpi], mut tracer: Option<&mut Tracer>) -> Replay {
    let mut replay = Replay::default();
    let mut by_kpi: Vec<(Vec<Expected>, Vec<Expected>, Vec<ReqTiming>)> = Vec::new();
    for kpi in kpis {
        let mut lines = vec![
            crate::workloads::PREF.to_string(),
            format!("HELLO {}", kpi.interval),
        ];
        lines.extend(kpi.obsb_days(0..kpi.len()));
        if tracer.is_some() {
            // The server onboarded many sessions before; time a warm
            // replay, not the process's first.
            let mut warm = RefSession::new();
            for (i, line) in lines.iter().enumerate() {
                warm.expect(i as u64, line, false, None);
            }
        }
        let mut replayer = Replayer::default();
        let mut expected = Vec::new();
        let mut status_after = Vec::new();
        let first_timing = replay.timings.len();
        for (i, line) in lines.iter().enumerate() {
            let t = tracer.as_deref_mut();
            expected.push(replayer.step(i as u64, line, false, t, &mut replay));
            if i >= 1 {
                status_after.push(replayer.reference.expect(0, "STATUS", false, None));
            }
        }
        let timings = replay.timings.split_off(first_timing);
        by_kpi.push((expected, status_after, timings));
    }
    for session in &outcome.sessions {
        let (expected, status_after, timings) = &by_kpi[session.kpi];
        let n = session.exchanges.len();
        for (i, ex) in session.exchanges.iter().enumerate() {
            let want = if i + 2 == n && ex.line == "STATUS" {
                status_after[i - 2].clone()
            } else if i + 1 == n && ex.line == "QUIT" {
                Expected {
                    events: Vec::new(),
                    reply: "BYE".into(),
                }
            } else {
                expected[i].clone()
            };
            replay.check.compare(ex, &want);
            if tracer.is_some() && ex.line.starts_with("OBSB") {
                let mut t = timings[i].clone();
                t.id = ex.id;
                replay.timings.push(t);
            }
        }
    }
    replay
}

/// Checks every exchange of `outcome` against the reference.
pub fn replay(workload: &str, outcome: &Outcome, seed: u64, tracer: Option<&mut Tracer>) -> Replay {
    if workload == "backfill" {
        replay_backfill(outcome, &crate::workloads::backfill_kpis(seed), tracer)
    } else {
        replay_sessions(&outcome.sessions, tracer)
    }
}

/// Median of `f` over the timings of requests with verb `verb`.
fn median_of(timings: &[ReqTiming], verb: &str, f: impl Fn(&ReqTiming) -> f64) -> f64 {
    let xs: Vec<f64> = timings.iter().filter(|t| t.verb == verb).map(f).collect();
    median(&xs)
}

/// Layer metrics from the traced replay, the state directory and the
/// probes. `durable_overhead_us` is measured by the caller.
pub fn layer_metrics(
    outcome: &Outcome,
    replay: &Replay,
    kpi: &Kpi,
    durable_overhead_us: f64,
    report: &mut Vec<String>,
) -> Vec<(String, f64)> {
    let t = &replay.timings;
    let mut m: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, v: f64| m.push((name.to_string(), v));

    // proto: parse_request on the exact lines sent; a workload that sends
    // no OBS is timed on the OBS lines of its own first day.
    let mut parse_obs = median_of(t, "OBS", |x| x.proto_ns as f64);
    if parse_obs == 0.0 {
        let xs: Vec<f64> = (0..kpi.points_per_day())
            .map(|i| {
                let line = kpi.obs(i);
                let t0 = Instant::now();
                black_box(parse_request(black_box(&line)).is_ok());
                t0.elapsed().as_nanos() as f64
            })
            .collect();
        parse_obs = median(&xs);
    }
    put("proto.parse_ns.obs", parse_obs);
    put(
        "proto.parse_ns.obsb_per_value",
        median_of(t, "OBSB", |x| x.proto_ns as f64 / x.values.max(1) as f64),
    );

    // service: the client round trip minus in-process proto and pipeline.
    let rtt: HashMap<u64, f64> = outcome
        .primary
        .iter()
        .copied()
        .zip(outcome.rtt_ns.iter().copied())
        .collect();
    let primary: Vec<(&ReqTiming, f64)> = t
        .iter()
        .filter_map(|x| rtt.get(&x.id).map(|r| (x, *r)))
        .collect();
    let unattributed: Vec<f64> = primary
        .iter()
        .map(|(x, r)| (r - x.proto_ns as f64 - x.pipeline_ns as f64) / 1e3)
        .collect();
    put("service.unattributed_us", median(&unattributed));
    if !primary.is_empty() {
        let n = primary.len() as f64;
        let rtt_mean = primary.iter().map(|(_, r)| r).sum::<f64>() / n;
        let avg = |f: &dyn Fn(&ReqTiming) -> u64| {
            primary.iter().map(|(x, _)| f(x) as f64).sum::<f64>() / n
        };
        let proto = avg(&|x| x.proto_ns);
        let pipeline = avg(&|x| x.pipeline_ns);
        let features = avg(&|x| x.features_ns).min(pipeline);
        let compiled = avg(&|x| x.compiled_ns).min(pipeline - features);
        let rest = rtt_mean - proto - pipeline;
        let share = |v: f64| 100.0 * v / rtt_mean;
        report.push(format!(
            "attribution over {} window requests (mean client round trip {:.1} us):",
            primary.len(),
            rtt_mean / 1e3
        ));
        for (name, v) in [
            ("proto (self)", proto),
            (
                "pipeline (self, excluding the two shares below)",
                pipeline - features - compiled,
            ),
            ("  features (shadow extractor, same points)", features),
            ("  compiled (shadow predict, same row)", compiled),
            (
                "service.unattributed_us (sockets, session, WAL, reply)",
                rest,
            ),
        ] {
            report.push(format!(
                "  {name:<56} {:>10.2} us {:>6.1}%",
                v / 1e3,
                share(v)
            ));
        }
        report.push(format!(
            "  {:<56} {:>10.2} us {:>6.1}%",
            "sum",
            (proto + pipeline + rest) / 1e3,
            share(proto + pipeline + rest)
        ));
    }

    // store: read from the state directory after the run, per point the
    // durable sessions were sent.
    let (wal_bytes, wal_lines, snap_bytes) = state_dir_stats(&outcome.state_dir);
    let per_durable_pt = |v: u64| {
        if outcome.durable_points == 0 {
            0.0
        } else {
            v as f64 / outcome.durable_points as f64
        }
    };
    put("store.wal_bytes_per_pt", per_durable_pt(wal_bytes));
    put("store.wal_lines_per_pt", per_durable_pt(wal_lines));
    put("store.snapshot_bytes", snap_bytes as f64);
    let resume_rate: Vec<f64> = outcome
        .resumes
        .iter()
        .map(|(s, lines)| *lines as f64 / s)
        .collect();
    put("store.resume_lines_per_s", median(&resume_rate));
    put("store.durable_overhead_us", durable_overhead_us);

    // pipeline: calls made by the replay, plus the server's own counters.
    put(
        "pipeline.observe_ns",
        median_of(t, "OBS", |x| x.pipeline_ns as f64),
    );
    put(
        "pipeline.observe_batch_ns_per_pt",
        median_of(t, "OBSB", |x| x.pipeline_ns as f64 / x.values.max(1) as f64),
    );
    put(
        "pipeline.ingest_labels_us",
        median_of(t, "LABEL", |x| x.pipeline_ns as f64 / 1e3),
    );
    put(
        "pipeline.start_retrain_ms",
        median_of(t, "RETRAIN", |x| x.pipeline_ns as f64 / 1e6),
    );
    put("pipeline.retrain_wall_ms", median(&replay.retrain_wall_ms));
    let per_window_pt = |us: u64| us as f64 * 1e3 / outcome.window_points.max(1) as f64;
    put(
        "pipeline.extract_ns_per_pt",
        per_window_pt(outcome.window_counters[0]),
    );
    put(
        "pipeline.infer_ns_per_pt",
        per_window_pt(outcome.window_counters[1]),
    );
    let train_ms: Vec<f64> = outcome
        .setup_train_us
        .iter()
        .map(|&us| us as f64 / 1e3)
        .collect();
    put("pipeline.train_ms", median(&train_ms));
    put("pipeline.rss_growth_b_per_pt", outcome.rss_growth_b_per_pt);

    m.extend(feature_probes(kpi, report));
    m.extend(model_probes(kpi, report));
    m
}

/// WAL bytes, WAL lines and snapshot bytes over every session directory.
fn state_dir_stats(dir: &Path) -> (u64, u64, u64) {
    let (mut wal_bytes, mut wal_lines, mut snap_bytes) = (0, 0, 0);
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0, 0);
    };
    for entry in entries.flatten() {
        if let Ok(wal) = std::fs::read(entry.path().join("wal.log")) {
            wal_bytes += wal.len() as u64;
            wal_lines += wal.iter().filter(|&&b| b == b'\n').count() as u64;
        }
        if let Ok(meta) = std::fs::metadata(entry.path().join("snapshot.oprf")) {
            snap_bytes += meta.len();
        }
    }
    (wal_bytes, wal_lines, snap_bytes)
}

/// The family of each registry column.
fn family_of_columns(interval: u32) -> Vec<&'static str> {
    let mut of = vec![""; registry(interval).len()];
    for unit in plan(registry(interval)) {
        for &c in &unit.columns {
            of[c] = unit.kernel.family();
        }
    }
    of
}

/// Timestamps and values of points `range`.
fn points(kpi: &Kpi, range: std::ops::Range<usize>) -> (Vec<i64>, Vec<Option<f64>>) {
    (
        range.clone().map(|i| kpi.series.timestamp_at(i)).collect(),
        range.map(|i| kpi.series.get(i)).collect(),
    )
}

/// Extraction probes on the KPI's history: five warm-up weeks in day
/// batches, then the last week — batched (whole registry and per-family
/// `family_stats` deltas, per day) and streaming (whole registry per
/// point; each family alone per day).
fn feature_probes(kpi: &Kpi, report: &mut Vec<String>) -> Vec<(String, f64)> {
    let day = kpi.points_per_day();
    let history = HISTORY_WEEKS * kpi.points_per_week();
    let warm = history - kpi.points_per_week();
    let mut out = Vec::new();

    let mut batched = OnlineExtractor::new(kpi.interval);
    let n_shards = batched.n_shards();
    let mut batch_ns = Vec::new();
    let mut family_batch: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut prev = batched.family_stats();
    for start in (0..history).step_by(day) {
        let (ts, vs) = points(kpi, start..(start + day).min(history));
        let t0 = Instant::now();
        black_box(batched.observe_batch(&ts, &vs));
        let ns = t0.elapsed().as_nanos() as f64;
        let now = batched.family_stats();
        if start >= warm {
            batch_ns.push(ns / ts.len() as f64);
            for (a, b) in now.iter().zip(&prev) {
                let pts = a.points.saturating_sub(b.points).max(1);
                family_batch
                    .entry(a.family)
                    .or_default()
                    .push(a.nanos.saturating_sub(b.nanos) as f64 / pts as f64);
            }
        }
        prev = now;
    }

    let mut streaming = OnlineExtractor::new(kpi.interval);
    let (ts, vs) = points(kpi, 0..warm);
    streaming.observe_batch(&ts, &vs);
    let mut stream_ns = Vec::new();
    for i in warm..history {
        let (ts, v) = (kpi.series.timestamp_at(i), kpi.series.get(i));
        let t0 = Instant::now();
        black_box(streaming.observe(ts, v));
        stream_ns.push(t0.elapsed().as_nanos() as f64);
    }
    out.push(("features.observe_ns".to_string(), median(&stream_ns)));
    out.push((
        "features.observe_batch_ns_per_pt".to_string(),
        median(&batch_ns),
    ));
    out.push(("features.n_shards".to_string(), n_shards as f64));

    let of = family_of_columns(kpi.interval);
    report.push(format!(
        "per-family ns/pt over the last week, {} day samples each (median, IQR/median):",
        kpi.points_per_week() / day
    ));
    for family in FAMILIES {
        let configs: Vec<_> = registry(kpi.interval)
            .into_iter()
            .filter(|c| of[c.index] == family)
            .collect();
        let mut alone = OnlineExtractor::with_configs(configs);
        alone.observe_batch(&ts, &vs);
        let mut per_day = Vec::new();
        for start in (warm..history).step_by(day) {
            let t0 = Instant::now();
            for i in start..(start + day).min(history) {
                black_box(alone.observe(kpi.series.timestamp_at(i), kpi.series.get(i)));
            }
            per_day.push(t0.elapsed().as_nanos() as f64 / day as f64);
        }
        let batch = family_batch.remove(family).unwrap_or_default();
        let key = family_key(family);
        report.push(format!(
            "  {family:<24} stream {:>9.1} ({:>5.1}%)  batch {:>9.1} ({:>5.1}%)  batch/stream {:.2}",
            median(&per_day),
            100.0 * iqr_share(&per_day),
            median(&batch),
            100.0 * iqr_share(&batch),
            median(&batch) / median(&per_day).max(f64::MIN_POSITIVE)
        ));
        out.push((format!("features.family.{key}.stream_ns"), median(&per_day)));
        out.push((format!("features.family.{key}.batch_ns"), median(&batch)));
    }
    out
}

/// Model probes on the KPI's history and ground truth: one forest fit at
/// the server's size, 5-fold cThld selection, and compiled inference over
/// the same rows.
fn model_probes(kpi: &Kpi, report: &mut Vec<String>) -> Vec<(String, f64)> {
    let history = HISTORY_WEEKS * kpi.points_per_week();
    let series = kpi.series.slice(0..history);
    let truth = kpi.truth.slice(0..history);
    let matrix = opprentice::extract_features(&series);
    let (ds, _) = matrix.dataset(&truth, 0..history);
    let params = RandomForestParams {
        n_trees: crate::reference::N_TREES,
        ..Default::default()
    };
    let t0 = Instant::now();
    let mut forest = RandomForest::new(params.clone());
    forest.fit(&ds);
    let fit_s = t0.elapsed().as_secs_f64();
    let compiled = forest.compile();
    let mut per_row = Vec::new();
    for start in (0..ds.len()).step_by(64) {
        let end = (start + 64).min(ds.len());
        let t0 = Instant::now();
        for i in start..end {
            black_box(compiled.predict(black_box(ds.row(i))));
        }
        per_row.push(t0.elapsed().as_nanos() as f64 / (end - start) as f64);
    }
    let t0 = Instant::now();
    black_box(five_fold_cthld(&ds, &Preference::moderate(), &params));
    let five_fold_s = t0.elapsed().as_secs_f64();
    report.push(format!(
        "model probes on {} rows x {} features: fit {:.3} s, 5-fold {:.3} s, predict {:.0} ns/row (p90 {:.0})",
        ds.len(),
        ds.n_features(),
        fit_s,
        five_fold_s,
        median(&per_row),
        quantile(&per_row, 0.9).map_or(0.0, |q| q.value)
    ));
    vec![
        ("compiled.predict_ns".to_string(), median(&per_row)),
        ("compiled.nodes".to_string(), compiled.node_count() as f64),
        ("forest.fit_s".to_string(), fit_s),
        ("forest.fit_rows_per_s".to_string(), ds.len() as f64 / fit_s),
        ("predictor.five_fold_s".to_string(), five_fold_s),
    ]
}

/// The KPI the probes run on: the workload's first.
pub fn probe_kpi(seed: u64) -> Kpi {
    Kpi::generate(Preset::Pv, seed, HISTORY_WEEKS)
}
