//! The two workloads, driven closed-loop over TCP against a real
//! `opprentice-serve` child: each connection sends its next request only
//! after the previous reply arrived. At most two connections are open at
//! once, each driven by its own thread of this one process.

use crate::inputs::{Kpi, Preset, HISTORY_WEEKS};
use crate::net::{Conn, Exchange, ServerProc};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The fastest `OBS` stream one connection is provisioned for, in points
/// per second; a session that runs out of points before its window ends
/// fails the run. A 2-vCPU Xeon VM streams about a fifth of it.
const MAX_OBS_PER_S: f64 = 100_000.0;

/// Pause between `STATUS` polls while a retrain is in flight.
const POLL: Duration = Duration::from_millis(1);

/// The preference every session sends before `HELLO`.
pub const PREF: &str = "PREF 0.66 0.66";

/// Settings shared by every phase of one run.
pub struct Ctx {
    /// The `opprentice-serve` binary.
    pub server_bin: PathBuf,
    /// Scratch directory of this run: state directories and server logs.
    pub work: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// `OPPRENTICE_THREADS` handed to the server.
    pub threads: usize,
    /// How many times set-up is repeated; the last one serves the window.
    pub setups: usize,
}

/// One session's exchanges across all of its connections.
pub struct SessionLog {
    /// Index of its KPI in [`Outcome::kpis`].
    pub kpi: usize,
    /// Every exchange, in order.
    pub exchanges: Vec<Exchange>,
}

/// A workload-specific figure that is reported but not declared.
pub struct Info {
    /// Name.
    pub name: String,
    /// Samples (one value for a plain figure).
    pub samples: Vec<f64>,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run of a workload measured and received.
#[derive(Default)]
pub struct Outcome {
    /// Seconds from server spawn to window start, once per set-up.
    pub setup_s: Vec<f64>,
    /// Points acknowledged within the window, all connections.
    pub window_points: u64,
    /// Ids of the window requests whose round trips are `rtt_*`.
    pub primary: Vec<u64>,
    /// Round trips of those requests, in ns.
    pub rtt_ns: Vec<f64>,
    /// Server `VmHWM` in MB: at window start on `live`, whose trained
    /// sessions grow with every point served; at window end on `backfill`,
    /// whose sessions are freed at `QUIT`.
    pub peak_rss_mb: f64,
    /// Server `VmHWM` growth over the window, in bytes per point
    /// acknowledged in it.
    pub rss_growth_b_per_pt: f64,
    /// Server CPU seconds (all threads) spent during the window.
    pub server_cpu_s: f64,
    /// Transcripts of every session served, discarded set-ups' included.
    pub sessions: Vec<SessionLog>,
    /// Dropped connections, timeouts and exhausted inputs.
    pub failures: Vec<String>,
    /// Figures for the report only.
    pub info: Vec<Info>,
    /// `(seconds, WAL lines replayed)` per `RESUME`.
    pub resumes: Vec<(f64, u64)>,
    /// Server-side `extract_us` and `infer_us` spent in the window.
    pub window_counters: [u64; 2],
    /// Server-side `train_us` of each session's set-up `RETRAIN`.
    pub setup_train_us: Vec<u64>,
    /// Points sent to the measured server's durable sessions.
    pub durable_points: u64,
    /// The measured server's state directory (left on disk).
    pub state_dir: PathBuf,
    /// KPIs the workload used: preset, interval, weeks.
    pub kpis: Vec<(&'static str, u32, usize)>,
}

impl Outcome {
    fn info(&mut self, name: &str, samples: Vec<f64>, unit: &'static str) {
        self.info.push(Info {
            name: name.to_string(),
            samples,
            unit,
        });
    }

    fn note_kpi(&mut self, kpi: &Kpi) {
        self.kpis.push((
            kpi.preset.name(),
            kpi.interval,
            kpi.len() / kpi.points_per_week(),
        ));
    }
}

/// Whole 5-minute weeks a streaming session needs for a window of
/// `seconds` at [`MAX_OBS_PER_S`].
fn stream_weeks(seconds: f64) -> usize {
    (seconds * MAX_OBS_PER_S / (7.0 * 288.0)).ceil() as usize
}

static NEXT_CONN: AtomicU64 = AtomicU64::new(1);

/// Opens a connection whose request ids are unique within the run.
fn connect(server: &ServerProc) -> Result<Conn, String> {
    Conn::connect(server.addr, NEXT_CONN.fetch_add(1, Ordering::Relaxed) << 32)
}

/// Runs `a` on a second thread and `b` on this one.
fn both<A: Send, B>(a: impl FnOnce() -> A + Send, b: impl FnOnce() -> B) -> (A, B) {
    std::thread::scope(|s| {
        let ha = s.spawn(a);
        let rb = b();
        (ha.join().expect("load thread panicked"), rb)
    })
}

/// Sends `line`, failing on a dropped connection or an `ERR` reply.
fn send_ok(conn: &mut Conn, line: String) -> Result<&Exchange, String> {
    let ex = conn.send(line)?;
    if ex.reply.starts_with("ERR") {
        return Err(format!(
            "`{}` answered `{}`",
            &ex.line[..ex.line.len().min(40)],
            ex.reply
        ));
    }
    Ok(ex)
}

/// Polls `STATUS` until no retrain is in flight; the swap is visible then.
fn wait_swap(conn: &mut Conn) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(150);
    loop {
        if send_ok(conn, "STATUS".into())?
            .reply
            .contains(" training=0")
        {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err("retrain did not land within 150 s".into());
        }
        std::thread::sleep(POLL);
    }
}

/// `PREF`, `HELLO`, history as one-day `OBSB` lines, its labels, the first
/// `RETRAIN`, and the wait for the swap. An empty `id` makes the session
/// ephemeral.
fn onboard_trained(conn: &mut Conn, id: &str, kpi: &Kpi) -> Result<(), String> {
    let history = HISTORY_WEEKS * kpi.points_per_week();
    send_ok(conn, PREF.into())?;
    send_ok(
        conn,
        format!("HELLO {} {id}", kpi.interval)
            .trim_end()
            .to_string(),
    )?;
    for line in kpi.obsb_days(0..history) {
        send_ok(conn, line)?;
    }
    send_ok(conn, kpi.label(0..history))?;
    send_ok(conn, "RETRAIN".into())?;
    wait_swap(conn)
}

/// A server with trained sessions, ready for the window.
struct Ready {
    server: ServerProc,
    conns: Vec<Conn>,
}

/// Spawns a server and brings two durable sessions (ids `ids`) to a
/// trained steady state, `ctx.setups` times, and times each. Every set-up
/// but the last trains on `Preset::Pv` and `Preset::Sr` history of its own
/// seed ([`setup_seed`]), because training time depends on the data: the
/// median is then taken over several draws, not one. The last set-up
/// trains on `last`, whose sessions serve the window. Every set-up's
/// transcript is kept for the output check.
fn trained_setup(
    ctx: &Ctx,
    out: &mut Outcome,
    ids: [&str; 2],
    last: [&Kpi; 2],
) -> Result<Ready, String> {
    for k in 0..ctx.setups {
        let measured = k + 1 == ctx.setups;
        let own: Vec<Kpi> = if measured {
            Vec::new()
        } else {
            let seed = setup_seed(ctx.seed, k);
            vec![
                Kpi::generate(Preset::Pv, seed, HISTORY_WEEKS),
                Kpi::generate(Preset::Sr, seed, HISTORY_WEEKS),
            ]
        };
        let kpis = if measured { last } else { [&own[0], &own[1]] };
        let state = ctx.work.join(format!("state-{k}"));
        let t0 = Instant::now();
        let server = ServerProc::spawn(
            &ctx.server_bin,
            &state,
            &ctx.work.join(format!("server-{k}.log")),
            ctx.threads,
        )?;
        let onboard = |id: &str, kpi: &Kpi| -> Result<Conn, String> {
            let mut c = connect(&server)?;
            onboard_trained(&mut c, id, kpi)?;
            Ok(c)
        };
        let (ra, rb) = both(|| onboard(ids[0], kpis[0]), || onboard(ids[1], kpis[1]));
        out.setup_s.push(t0.elapsed().as_secs_f64());
        let conns = vec![ra?, rb?];
        if measured {
            out.state_dir = state;
            return Ok(Ready { server, conns });
        }
        for (kpi, conn) in conns.into_iter().enumerate() {
            out.sessions.push(SessionLog {
                kpi,
                exchanges: conn.log,
            });
        }
        drop(server);
        let _ = std::fs::remove_dir_all(&state);
    }
    Err("no set-up ran".into())
}

/// The seed of set-up `k` (of all but the last) for benchmark seed `seed`.
fn setup_seed(seed: u64, k: usize) -> u64 {
    seed ^ ((k as u64 + 1) << 48)
}

/// Streams `OBS` from point `next` until `deadline`; returns the next
/// unsent point and the points acknowledged before the deadline.
fn stream_obs(
    conn: &mut Conn,
    kpi: &Kpi,
    mut next: usize,
    deadline: Instant,
) -> Result<(usize, u64), String> {
    let mut acked = 0u64;
    while Instant::now() < deadline {
        if next >= kpi.len() {
            return Err(format!(
                "{} stream exhausted before the window ended",
                kpi.preset.name()
            ));
        }
        send_ok(conn, kpi.obs(next))?;
        next += 1;
        if Instant::now() <= deadline {
            acked += 1;
        }
    }
    Ok((next, acked))
}

/// Parses `STATUS` counters `extract_us`, `infer_us`, `train_us`.
fn counters(reply: &str) -> [u64; 3] {
    let get = |key: &str| {
        reply
            .split(' ')
            .find_map(|w| w.strip_prefix(key))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    [get("extract_us="), get("infer_us="), get("train_us=")]
}

fn status_counters(conn: &mut Conn) -> Result<[u64; 3], String> {
    Ok(counters(&send_ok(conn, "STATUS".into())?.reply))
}

/// Adds the `extract_us` and `infer_us` spent from `before` to `after`.
fn add_delta(total: &mut [u64; 2], before: [u64; 3], after: [u64; 3]) {
    for i in 0..2 {
        total[i] += after[i].saturating_sub(before[i]);
    }
}

/// Points carried by the `OBS` and `OBSB` lines of `log`.
fn points_in(log: &[Exchange]) -> u64 {
    log.iter()
        .filter(|ex| ex.line.starts_with("OBS"))
        .map(|ex| ex.line.split(' ').count() as u64 - 2)
        .sum()
}

/// `VmHWM` growth from `start_mb` to now, per point, in bytes.
fn rss_growth(server: &ServerProc, start_mb: f64, points: u64) -> f64 {
    let end_mb = server.peak_rss_mb().unwrap_or(start_mb);
    (end_mb - start_mb) * 1024.0 * 1024.0 / points.max(1) as f64
}

/// Lines in a session's WAL right now.
fn wal_lines(state_dir: &Path, id: &str) -> u64 {
    std::fs::read(state_dir.join(id).join("wal.log"))
        .map(|b| b.iter().filter(|&&c| c == b'\n').count() as u64)
        .unwrap_or(0)
}

/// `QUIT`, wait for the server to release the session, `RESUME` it on a
/// fresh connection, then stream one more day of `OBS` from `next` so the
/// verdicts after recovery are checked too.
fn quit_and_resume(
    server: &ServerProc,
    mut conn: Conn,
    id: &str,
    kpi: &Kpi,
    next: usize,
    out_resumes: &mut Vec<(f64, u64)>,
) -> Result<Vec<Exchange>, String> {
    send_ok(&mut conn, "QUIT".into())?;
    let mut log = conn.wait_closed()?;
    let lines = wal_lines(&server.state_dir, id);
    let mut conn = connect(server)?;
    let ex = send_ok(&mut conn, format!("RESUME {id}"))?;
    out_resumes.push((ex.rtt_ns as f64 / 1e9, lines));
    for i in next..(next + kpi.points_per_day()).min(kpi.len()) {
        send_ok(&mut conn, kpi.obs(i))?;
    }
    send_ok(&mut conn, "QUIT".into())?;
    log.extend(conn.wait_closed()?);
    Ok(log)
}

/// Two trained durable 5-minute sessions (PV, #SR) stream `OBS`.
pub fn live(ctx: &Ctx, durable: bool) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = live_inner(ctx, durable, &mut out) {
        out.failures.push(e);
    }
    out
}

fn live_inner(ctx: &Ctx, durable: bool, out: &mut Outcome) -> Result<(), String> {
    let weeks = HISTORY_WEEKS + stream_weeks(ctx.seconds);
    let pv = Kpi::generate(Preset::Pv, ctx.seed, weeks);
    let sr = Kpi::generate(Preset::Sr, ctx.seed, weeks);
    out.note_kpi(&pv);
    out.note_kpi(&sr);
    let ids = if durable {
        ["live-pv", "live-sr"]
    } else {
        ["", ""]
    };
    let Ready { server, conns } = trained_setup(ctx, out, ids, [&pv, &sr])?;
    out.peak_rss_mb = server.peak_rss_mb().unwrap_or(0.0);
    let [mut ca, mut cb]: [Conn; 2] = conns.try_into().map_err(|_| "two connections")?;
    let before = [status_counters(&mut ca)?, status_counters(&mut cb)?];
    out.setup_train_us = before.iter().map(|c| c[2]).collect();
    let first_ids = [ca.next_id(), cb.next_id()];
    let start_pt = HISTORY_WEEKS * pv.points_per_week();
    let cpu0 = server.cpu_seconds().unwrap_or(0.0);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(ctx.seconds);
    let (ra, rb) = both(
        || stream_obs(&mut ca, &pv, start_pt, deadline),
        || stream_obs(&mut cb, &sr, start_pt, deadline),
    );
    out.server_cpu_s = server.cpu_seconds().unwrap_or(0.0) - cpu0;
    let ((next_a, acked_a), (next_b, acked_b)) = (ra?, rb?);
    out.window_points = acked_a + acked_b;
    out.rss_growth_b_per_pt = rss_growth(&server, out.peak_rss_mb, out.window_points);
    for (conn, first) in [(&ca, first_ids[0]), (&cb, first_ids[1])] {
        for ex in conn.log.iter().filter(|ex| ex.id >= first) {
            out.primary.push(ex.id);
            out.rtt_ns.push(ex.rtt_ns as f64);
        }
    }
    let after = [status_counters(&mut ca)?, status_counters(&mut cb)?];
    for i in 0..2 {
        add_delta(&mut out.window_counters, before[i], after[i]);
    }
    if durable {
        let la = quit_and_resume(&server, ca, ids[0], &pv, next_a, &mut out.resumes)?;
        let lb = quit_and_resume(&server, cb, ids[1], &sr, next_b, &mut out.resumes)?;
        out.durable_points = points_in(&la) + points_in(&lb);
        out.sessions.push(SessionLog {
            kpi: 0,
            exchanges: la,
        });
        out.sessions.push(SessionLog {
            kpi: 1,
            exchanges: lb,
        });
        let resume_s: Vec<f64> = out.resumes.iter().map(|r| r.0).collect();
        out.info("resume_s", resume_s, "s");
    } else {
        for (kpi, conn) in [ca, cb].into_iter().enumerate() {
            out.sessions.push(SessionLog {
                kpi,
                exchanges: conn.log,
            });
        }
    }
    drop(server);
    Ok(())
}

/// One connection onboards fresh untrained sessions — PV, #SR, SRT in
/// turn — with their history as one-day `OBSB` lines.
pub fn backfill(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = backfill_inner(ctx, &mut out) {
        out.failures.push(e);
    }
    out
}

/// The KPIs `backfill` cycles through.
pub fn backfill_kpis(seed: u64) -> Vec<Kpi> {
    [Preset::Pv, Preset::Sr, Preset::Srt]
        .into_iter()
        .map(|p| Kpi::generate(p, seed, HISTORY_WEEKS))
        .collect()
}

/// Onboards one session of `kpi` until `deadline`: `PREF`, `HELLO`, the
/// day lines, `STATUS`, `QUIT`. Returns the exchanges and points acked.
fn onboard_untrained(
    server: &ServerProc,
    kpi: &Kpi,
    lines: &[String],
    deadline: Option<Instant>,
) -> Result<(Vec<Exchange>, u64, [u64; 3]), String> {
    let mut c = connect(server)?;
    send_ok(&mut c, PREF.into())?;
    send_ok(&mut c, format!("HELLO {}", kpi.interval))?;
    let mut acked = 0u64;
    for line in lines {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let n = line.split(' ').count() as u64 - 2;
        send_ok(&mut c, line.clone())?;
        if deadline.is_none_or(|d| Instant::now() <= d) {
            acked += n;
        }
    }
    let spent = status_counters(&mut c)?;
    send_ok(&mut c, "QUIT".into())?;
    Ok((c.wait_closed()?, acked, spent))
}

fn backfill_inner(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let kpis = backfill_kpis(ctx.seed);
    for k in &kpis {
        out.note_kpi(k);
    }
    let lines: Vec<Vec<String>> = kpis.iter().map(|k| k.obsb_days(0..k.len())).collect();
    let mut server = None;
    for k in 0..ctx.setups {
        let state = ctx.work.join(format!("state-{k}"));
        let t0 = Instant::now();
        let s = ServerProc::spawn(
            &ctx.server_bin,
            &state,
            &ctx.work.join(format!("server-{k}.log")),
            ctx.threads,
        )?;
        // One warm-up onboarding of each KPI, so the window starts on a
        // server that has already served every kind of session.
        for (i, kpi) in kpis.iter().enumerate() {
            let (log, _, _) = onboard_untrained(&s, kpi, &lines[i], None)?;
            out.sessions.push(SessionLog {
                kpi: i,
                exchanges: log,
            });
        }
        out.setup_s.push(t0.elapsed().as_secs_f64());
        out.state_dir = state;
        server = Some(s);
    }
    let server = server.ok_or("no set-up ran")?;
    let rss0 = server.peak_rss_mb().unwrap_or(0.0);
    let cpu0 = server.cpu_seconds().unwrap_or(0.0);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(ctx.seconds);
    let mut turn = 0usize;
    while Instant::now() < deadline {
        let i = turn % kpis.len();
        let (log, acked, spent) = onboard_untrained(&server, &kpis[i], &lines[i], Some(deadline))?;
        out.window_points += acked;
        add_delta(&mut out.window_counters, [0; 3], spent);
        for ex in log.iter().filter(|ex| ex.line.starts_with("OBSB")) {
            out.primary.push(ex.id);
            out.rtt_ns.push(ex.rtt_ns as f64);
        }
        out.sessions.push(SessionLog {
            kpi: i,
            exchanges: log,
        });
        turn += 1;
    }
    out.server_cpu_s = server.cpu_seconds().unwrap_or(0.0) - cpu0;
    // Every onboarded session has been freed at its QUIT by now.
    out.peak_rss_mb = server.peak_rss_mb().unwrap_or(0.0);
    out.rss_growth_b_per_pt = rss_growth(&server, rss0, out.window_points);
    out.info("sessions_onboarded", vec![turn as f64], "count");
    drop(server);
    Ok(())
}
