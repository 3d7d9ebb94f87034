//! The TCP transport: accept loop, per-connection session, connection
//! hardening (timeouts, load shedding, panic isolation), durable-session
//! orchestration, background retraining with atomic model hot-swap,
//! graceful shutdown.
//!
//! # Background retraining
//!
//! `RETRAIN` replies immediately (`OK retraining job=<id>`) and trains on
//! a dedicated thread while `OBS`/`OBSB` keep serving the old model. The
//! finished model is swapped in atomically between requests (see
//! [`harvest_training`]), the swap is logged to the WAL at that moment,
//! and an `EVENT retrained …` line is pushed to the client ahead of the
//! next reply. While a job is in flight, `LABEL` and a second `RETRAIN`
//! are rejected — that invariant is what lets WAL replay (a synchronous
//! retrain at the logged swap position) rebuild the exact model the live
//! session was serving.

use crate::proto::{parse_request, Request, Response};
use crate::store::{DurableSession, SessionStore};
use opprentice::cthld::Preference;
use opprentice::{Detection, Opprentice, OpprenticeConfig};
use opprentice_learn::RandomForestParams;
use opprentice_timeseries::Labels;
use parking_lot::Mutex;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tunables for the serving layer. The defaults suit production; tests
/// shrink the timeouts and the forest.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Forest size per session.
    pub n_trees: usize,
    /// Root directory for durable session state (WALs + snapshots).
    /// `None` disables `HELLO <interval> <id>` and `RESUME`.
    pub state_dir: Option<PathBuf>,
    /// Granularity of the per-connection read loop: how often a blocked
    /// read wakes up to check deadlines and the shutdown flag.
    pub read_tick: Duration,
    /// A line must complete within this once its first byte arrives
    /// (defeats slowloris clients that trickle one byte at a time).
    pub line_deadline: Duration,
    /// Connections with no complete line for this long are reaped.
    pub idle_timeout: Duration,
    /// Lines longer than this get `ERR` + disconnect (bounds memory per
    /// connection against garbage floods).
    pub max_line_len: usize,
    /// Connections beyond this are answered `ERR busy` and closed
    /// immediately instead of degrading everyone.
    pub max_connections: usize,
    /// Snapshot a durable session every N applied commands.
    pub snapshot_every: u64,
    /// Test hook: accept a `PANIC` verb that panics inside the command
    /// handler, to exercise panic isolation from the outside. Never enable
    /// in production.
    pub enable_panic_verb: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            n_trees: 50,
            state_dir: None,
            read_tick: Duration::from_millis(50),
            line_deadline: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(300),
            max_line_len: 1 << 20,
            max_connections: 256,
            snapshot_every: 256,
            enable_panic_verb: false,
        }
    }
}

/// One client's session state: the protocol state machine around one
/// [`Opprentice`] pipeline. Pure — no I/O — so the store can replay
/// commands through it during recovery.
pub(crate) struct Session {
    pipeline: Option<Opprentice>,
    preference: Preference,
    n_trees: usize,
}

impl Session {
    pub(crate) fn new(n_trees: usize) -> Self {
        Self {
            pipeline: None,
            preference: Preference::moderate(),
            n_trees,
        }
    }

    pub(crate) fn pipeline_mut(&mut self) -> Option<&mut Opprentice> {
        self.pipeline.as_mut()
    }

    /// Applies one request to the state machine. `HELLO`'s session id and
    /// `RESUME` are connection-level concerns handled before this point;
    /// here `HELLO` just configures the pipeline.
    pub(crate) fn apply(&mut self, request: &Request) -> Response {
        match request {
            Request::Hello {
                interval,
                session: _,
            } => {
                if self.pipeline.is_some() {
                    return Response::Err("already configured".into());
                }
                let config = OpprenticeConfig {
                    preference: self.preference,
                    forest: RandomForestParams {
                        n_trees: self.n_trees,
                        ..Default::default()
                    },
                    ..Default::default()
                };
                self.pipeline = Some(Opprentice::new(*interval, config));
                Response::Ok(format!("opprentice interval={interval}"))
            }
            Request::Resume { .. } => {
                Response::Err("RESUME must be the first command on a fresh connection".into())
            }
            Request::Pref { recall, precision } => {
                if self.pipeline.is_some() {
                    // Applies from the next HELLO; keep semantics simple.
                    return Response::Err("PREF must precede HELLO".into());
                }
                self.preference = Preference {
                    recall: *recall,
                    precision: *precision,
                };
                Response::Ok(format!("pref recall={recall} precision={precision}"))
            }
            Request::Obs { timestamp, value } => {
                let Some(p) = self.pipeline.as_mut() else {
                    return Response::Err("HELLO first".into());
                };
                let mut out = String::new();
                push_verdict(&mut out, p.observe(*timestamp, *value));
                Response::Ok(out)
            }
            Request::ObsBatch { start, values } => {
                let Some(p) = self.pipeline.as_mut() else {
                    return Response::Err("HELLO first".into());
                };
                let mut out = String::with_capacity(values.len() * 32);
                for (i, verdict) in p.observe_batch(*start, values).into_iter().enumerate() {
                    if i > 0 {
                        out.push('|');
                    }
                    push_verdict(&mut out, verdict);
                }
                Response::Ok(out)
            }
            Request::Label { flags } => {
                let Some(p) = self.pipeline.as_mut() else {
                    return Response::Err("HELLO first".into());
                };
                // New labels would change the training set the in-flight
                // job already snapshotted. Rejecting them keeps the labeled
                // prefix at swap time identical to the one at submission
                // time, which is what makes WAL replay (a synchronous
                // retrain at the swap position) reproduce the live model.
                if p.training_in_flight() {
                    return Response::Err(
                        "retrain in progress; send labels after it completes".into(),
                    );
                }
                match p.ingest_labels(&Labels::from_flags(flags.clone())) {
                    Ok(()) => Response::Ok(format!("labeled={}", p.labeled_len())),
                    Err(e) => Response::Err(e.to_string()),
                }
            }
            Request::Retrain => {
                let Some(p) = self.pipeline.as_mut() else {
                    return Response::Err("HELLO first".into());
                };
                match p.start_retrain() {
                    Ok(job) => Response::Ok(format!("retraining job={job}")),
                    Err(e) => Response::Err(e.to_string()),
                }
            }
            Request::Status => match self.pipeline.as_ref() {
                None => Response::Ok(
                    "observed=0 labeled=0 trained=0 extract_us=0 infer_us=0 \
                     train_us=0 model_version=0 training=0"
                        .into(),
                ),
                Some(p) => Response::Ok(format!(
                    "observed={} labeled={} trained={} cthld={:.3} extract_us={} infer_us={} \
                     train_us={} model_version={} training={}",
                    p.observed_len(),
                    p.labeled_len(),
                    u8::from(p.is_trained()),
                    p.current_cthld(),
                    p.extract_us(),
                    p.infer_us(),
                    p.train_us(),
                    p.model_version(),
                    u8::from(p.training_in_flight())
                )),
            },
            Request::Quit => Response::Bye,
        }
    }

    /// Applies one request during WAL replay. Identical to [`Session::apply`]
    /// except that `RETRAIN` trains synchronously: a logged `RETRAIN` marks
    /// the position where a background job's model was swapped in, so replay
    /// must produce the new model before the next line. The result is
    /// bit-identical to the live session's because the live job trained on
    /// exactly the labeled prefix that exists here (labels are rejected
    /// while a job is in flight) and the asynchronous path is the
    /// synchronous path — `Opprentice::retrain` is `start_retrain` +
    /// `wait_retrain`.
    pub(crate) fn apply_replay(&mut self, request: &Request) -> Response {
        let response = self.apply(request);
        if matches!(request, Request::Retrain) {
            if let Response::Ok(_) = &response {
                return match self.wait_training() {
                    Some(r) => Response::Ok(format!("trained cthld={:.3}", r.cthld)),
                    // A panicked trainer keeps the old model; the replayed
                    // WAL said a swap happened, so surface the divergence.
                    None => Response::Err("retrain failed during replay".into()),
                };
            }
        }
        response
    }

    /// Non-blocking check for a finished background retrain; swaps the new
    /// model in if one is ready.
    pub(crate) fn poll_training(&mut self) -> Option<opprentice::TrainingReport> {
        self.pipeline.as_mut()?.poll_retrain()
    }

    /// Blocks until any in-flight retrain lands (replay and tests).
    pub(crate) fn wait_training(&mut self) -> Option<opprentice::TrainingReport> {
        self.pipeline.as_mut()?.wait_retrain()
    }
}

/// Renders one observation's verdict exactly as an `OBS` reply carries it
/// after the `OK ` — shared by the single and batched paths so `OBSB`
/// replies are guaranteed byte-identical to the equivalent `OBS` sequence.
fn push_verdict(out: &mut String, d: Option<Detection>) {
    match d {
        Some(d) => {
            let _ = write!(
                out,
                "p={:.4} cthld={:.3} anomaly={}",
                d.probability,
                d.cthld,
                u8::from(d.is_anomaly)
            );
        }
        None => out.push_str("pending"),
    }
}

/// Shared, immutable context handed to every connection thread.
struct ConnCtx {
    config: ServerConfig,
    store: Option<SessionStore>,
    stop: Arc<AtomicBool>,
}

/// True for commands that mutate session state and therefore belong in
/// the write-ahead log. `RETRAIN` is deliberately absent: accepting one
/// only *starts* a background job, which mutates nothing until its model
/// is swapped in — [`harvest_training`] logs the `RETRAIN` at that moment,
/// so recovery replays to exactly the model that was serving (old before
/// the swap, new after), never a torn state.
fn is_durable_command(request: &Request) -> bool {
    matches!(
        request,
        Request::Hello { .. }
            | Request::Pref { .. }
            | Request::Obs { .. }
            | Request::ObsBatch { .. }
            | Request::Label { .. }
    )
}

/// Polls the session's background trainer; when a new model just landed,
/// makes the swap durable (logs `RETRAIN` at the swap position — see
/// [`is_durable_command`]) and returns the completion event line to write
/// to the client ahead of the next reply.
fn harvest_training(session: &mut Session, durable: &mut Option<DurableSession>) -> Option<String> {
    let report = session.poll_training()?;
    if let Some(d) = durable.as_mut() {
        // An append failure leaves the swap volatile — recovery would land
        // on the old model — but the live session serves the new one
        // either way, and the next snapshot captures it durably.
        let _ = d.append("RETRAIN");
    }
    Some(format!(
        "EVENT retrained job={} model_version={} cthld={:.3} train_us={}",
        report.job_id, report.model_version, report.cthld, report.train_us
    ))
}

/// Parses and applies one trimmed, non-empty line; maintains the WAL and
/// periodic snapshots for durable sessions. Runs inside `catch_unwind`.
fn apply_line(
    trimmed: &str,
    session: &mut Session,
    durable: &mut Option<DurableSession>,
    ctx: &ConnCtx,
) -> Response {
    if ctx.config.enable_panic_verb && trimmed.eq_ignore_ascii_case("PANIC") {
        panic!("injected test panic");
    }
    let request = match parse_request(trimmed) {
        Ok(r) => r,
        Err(reason) => return Response::Err(reason),
    };

    // Connection-level setup commands that involve the store.
    match &request {
        Request::Hello {
            session: Some(id), ..
        } => {
            let Some(store) = ctx.store.as_ref() else {
                return Response::Err("durable sessions need a server state directory".into());
            };
            if session.pipeline.is_some() {
                return Response::Err("already configured".into());
            }
            let mut new_durable = match store.create(id, ctx.config.n_trees) {
                Ok(d) => d,
                Err(e) => return Response::Err(e.to_string()),
            };
            let response = session.apply(&request);
            if let Response::Ok(_) = &response {
                // A `PREF` sent before this `HELLO` predates the WAL, so the
                // effective preference is synthesized into the log here —
                // otherwise a pre-snapshot crash would silently reset a
                // recovered session to the default preference.
                let pref = format!(
                    "PREF {} {}",
                    session.preference.recall, session.preference.precision
                );
                for line in [pref.as_str(), trimmed] {
                    if let Err(e) = new_durable.append(line) {
                        return Response::Err(format!("session store I/O: {e}"));
                    }
                }
                *durable = Some(new_durable);
            }
            return response;
        }
        Request::Resume { session: id } => {
            let Some(store) = ctx.store.as_ref() else {
                return Response::Err("durable sessions need a server state directory".into());
            };
            if session.pipeline.is_some() {
                return Response::Err("already configured".into());
            }
            return match store.resume(id) {
                Ok((d, recovered)) => {
                    *session = recovered;
                    *durable = Some(d);
                    let status = session.apply(&Request::Status);
                    match status {
                        Response::Ok(s) => Response::Ok(format!("resumed {s}")),
                        other => other,
                    }
                }
                Err(e) => Response::Err(e.to_string()),
            };
        }
        _ => {}
    }

    let response = session.apply(&request);

    if let (Response::Ok(_), Some(d)) = (&response, durable.as_mut()) {
        if is_durable_command(&request) {
            // Append after apply, before the OK goes out: every command the
            // client sees acknowledged is on disk.
            let appended = match &request {
                // A batch is logged as its equivalent `OBS` lines — replay
                // needs no batch awareness — with one flush for the whole
                // group (group commit) instead of one per point.
                Request::ObsBatch { start, values } => {
                    let interval = session
                        .pipeline_mut()
                        .map_or(1, |p| i64::from(p.interval()));
                    d.append_batch(values.iter().enumerate().map(|(i, v)| {
                        let ts = start + i as i64 * interval;
                        match v {
                            Some(v) => format!("OBS {ts} {v}"),
                            None => format!("OBS {ts} nan"),
                        }
                    }))
                }
                _ => d.append(trimmed),
            };
            if let Err(e) = appended {
                return Response::Err(format!("session store I/O: {e}"));
            }
            if d.since_snapshot() >= ctx.config.snapshot_every {
                if let Some(p) = session.pipeline_mut() {
                    // Snapshot failure is non-fatal: the WAL alone is
                    // sufficient for recovery, just slower.
                    let _ = d.snapshot(p);
                }
            }
        }
    }
    response
}

fn write_line(writer: &mut TcpStream, line: &str) -> std::io::Result<()> {
    // One syscall per line, not three (body, newline, flush).
    let mut out = Vec::with_capacity(line.len() + 1);
    out.extend_from_slice(line.as_bytes());
    out.push(b'\n');
    writer.write_all(&out)
}

/// Runs one connection to completion with the full hardening stack:
/// tick-based reads (so deadlines and shutdown are honored), slowloris and
/// idle timeouts, a line-length cap, per-command panic isolation, and
/// durable-session bookkeeping with a final snapshot on clean exit.
fn serve_connection(stream: TcpStream, ctx: Arc<ConnCtx>) {
    // Request/response over small lines: Nagle only adds 40 ms delayed-ACK
    // stalls here, so replies go out the moment they are written.
    let _ = stream.set_nodelay(true);
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = stream;
    let _ = reader.set_read_timeout(Some(ctx.config.read_tick));

    let mut session = Session::new(ctx.config.n_trees);
    let mut durable: Option<DurableSession> = None;
    let mut poisoned = false;

    let mut buf: Vec<u8> = Vec::new();
    // Reused response accumulator: all replies for one read's worth of
    // complete lines go out in a single coalesced write.
    let mut out: Vec<u8> = Vec::new();
    let mut scratch = [0u8; 4096];
    let mut last_line_at = Instant::now();
    let mut line_started_at: Option<Instant> = None;

    'outer: loop {
        if ctx.stop.load(Ordering::SeqCst) {
            break; // graceful drain: finish via the snapshot path below
        }
        match reader.read(&mut scratch) {
            Ok(0) => break, // peer closed
            Ok(n) => {
                if line_started_at.is_none() {
                    line_started_at = Some(Instant::now());
                }
                buf.extend_from_slice(&scratch[..n]);
                if buf.len() > ctx.config.max_line_len {
                    let _ = write_line(&mut writer, "ERR line too long");
                    break;
                }
                // Drain every complete line already buffered before
                // answering, so a client that pipelines K commands costs
                // one write syscall, not K. Lines are processed in place
                // (borrowed slices of `buf`) — no per-line allocation.
                let mut consumed = 0usize;
                let mut done = false;
                out.clear();
                while let Some(rel) = buf[consumed..].iter().position(|&b| b == b'\n') {
                    let end = consumed + rel;
                    let line = String::from_utf8_lossy(&buf[consumed..end]);
                    consumed = end + 1;
                    last_line_at = Instant::now();
                    let trimmed = line.trim();
                    if trimmed.is_empty() {
                        continue;
                    }
                    // A panicking handler must take down this connection
                    // only: answer ERR, drop the session, keep serving
                    // everyone else. The session is considered poisoned —
                    // no final snapshot is taken from it.
                    //
                    // A finished background retrain is harvested here, at
                    // the top of request handling: the swap happens between
                    // requests, never mid-reply, and its completion event
                    // precedes the reply to the request that observed it.
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        let event = harvest_training(&mut session, &mut durable);
                        let response = apply_line(trimmed, &mut session, &mut durable, &ctx);
                        (event, response)
                    }));
                    let (event, response, finished) = match outcome {
                        Ok((event, Response::Bye)) => (event, Response::Bye, true),
                        Ok((event, r)) => (event, r, false),
                        Err(_) => {
                            poisoned = true;
                            (None, Response::Err("internal error".into()), true)
                        }
                    };
                    if let Some(event) = event {
                        out.extend_from_slice(event.as_bytes());
                        out.push(b'\n');
                    }
                    out.extend_from_slice(response.render().as_bytes());
                    out.push(b'\n');
                    if finished {
                        done = true;
                        break;
                    }
                }
                if consumed > 0 {
                    buf.drain(..consumed);
                    // The slowloris clock restarts only when a line was
                    // completed; a still-partial line keeps its original
                    // start time.
                    line_started_at = if buf.is_empty() {
                        None
                    } else {
                        Some(Instant::now())
                    };
                }
                let write_failed = !out.is_empty() && writer.write_all(&out).is_err();
                if write_failed || done {
                    break 'outer;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                let now = Instant::now();
                if let Some(started) = line_started_at {
                    if now.duration_since(started) > ctx.config.line_deadline {
                        let _ = write_line(&mut writer, "ERR line timeout");
                        break;
                    }
                } else if now.duration_since(last_line_at) > ctx.config.idle_timeout {
                    let _ = write_line(&mut writer, "ERR idle timeout");
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }

    if !poisoned {
        if let Some(d) = durable.as_mut() {
            if let Some(p) = session.pipeline_mut() {
                let _ = d.snapshot(p);
            }
            let _ = d.sync();
        }
    }
    let _ = writer.shutdown(Shutdown::Both);
}

/// Handle used to stop a running [`Server`] from another thread.
#[derive(Clone)]
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown. The accept loop exits, live connections drain
    /// (flushing durable state) within one read tick, and `serve` joins
    /// them before returning.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Nudge the blocking accept with a throwaway connection.
        if let Ok(s) = TcpStream::connect(self.addr) {
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}

/// The Opprentice TCP server.
pub struct Server {
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    config: ServerConfig,
    store: Option<SessionStore>,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port) with defaults.
    pub fn bind(addr: &str) -> std::io::Result<Server> {
        Self::bind_with(addr, ServerConfig::default())
    }

    /// Binds with explicit configuration. Opens (creating if necessary)
    /// the durable state root when one is configured.
    pub fn bind_with(addr: &str, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let store = match &config.state_dir {
            Some(dir) => Some(SessionStore::open(dir)?),
            None => None,
        };
        Ok(Server {
            listener,
            stop: Arc::new(AtomicBool::new(false)),
            config,
            store,
        })
    }

    /// A handle for shutting the server down.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            stop: self.stop.clone(),
            addr: self.listener.local_addr().expect("bound listener"),
        }
    }

    /// Runs the accept loop until [`ServerHandle::shutdown`] is called.
    ///
    /// Hardening at the accept layer: finished worker handles are reaped
    /// every accept (no unbounded `JoinHandle` growth under churn), and
    /// connections beyond `max_connections` are shed with `ERR busy`
    /// instead of queueing. Connection threads are joined before
    /// returning, so a clean shutdown never strands a session mid-write.
    pub fn serve(self) -> std::io::Result<()> {
        let ctx = Arc::new(ConnCtx {
            config: self.config,
            store: self.store,
            stop: self.stop.clone(),
        });
        let active = Arc::new(AtomicUsize::new(0));
        let workers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));
        for conn in self.listener.incoming() {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            match conn {
                Ok(stream) => {
                    workers.lock().retain(|h| !h.is_finished());
                    if active.load(Ordering::SeqCst) >= ctx.config.max_connections {
                        workers.lock().push(shed(stream));
                        continue;
                    }
                    active.fetch_add(1, Ordering::SeqCst);
                    let guard = ConnGuard(active.clone());
                    let ctx = ctx.clone();
                    let handle = std::thread::spawn(move || {
                        let _guard = guard;
                        serve_connection(stream, ctx);
                    });
                    workers.lock().push(handle);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => continue,
                Err(_) => continue,
            }
        }
        for handle in workers.lock().drain(..) {
            let _ = handle.join();
        }
        Ok(())
    }
}

/// How long a shed connection may take to deliver its first line.
const SHED_DRAIN: Duration = Duration::from_millis(500);

/// Turns a connection away with `ERR busy`.
///
/// Closing at once would race the client's first command: a socket closed
/// with unread input answers with an RST, and the RST discards the queued
/// reply on the client's side. So the write side is half-closed (the reply
/// goes out followed by FIN), and the client's first line is read and
/// dropped, for at most [`SHED_DRAIN`], on a short-lived thread so the
/// accept loop never waits on it. Only then does the socket close. The
/// thread is joined with the connection threads.
fn shed(mut stream: TcpStream) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let _ = stream.write_all(b"ERR busy\n");
        if stream.shutdown(Shutdown::Write).is_err() {
            return;
        }
        let deadline = Instant::now() + SHED_DRAIN;
        let mut buf = [0u8; 512];
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
                return;
            }
            match stream.read(&mut buf) {
                Ok(n) if n > 0 && !buf[..n].contains(&b'\n') => continue,
                _ => return,
            }
        }
    })
}

/// Decrements the live-connection count when a worker exits by any path
/// (including a panic that escapes `serve_connection`, which cannot happen
/// today but must not wedge the cap if it ever does).
struct ConnGuard(Arc<AtomicUsize>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    /// A tiny blocking test client. Asynchronous `EVENT` lines (retrain
    /// completions) are collected into `events` rather than returned as
    /// replies, mirroring how a real client demultiplexes the stream.
    struct Client {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
        events: Vec<String>,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Client {
            let stream = TcpStream::connect(addr).expect("connect");
            let writer = stream.try_clone().expect("clone");
            Client {
                reader: BufReader::new(stream),
                writer,
                events: Vec::new(),
            }
        }

        fn send(&mut self, line: &str) -> String {
            self.writer.write_all(line.as_bytes()).unwrap();
            self.writer.write_all(b"\n").unwrap();
            self.writer.flush().unwrap();
            self.read_line()
        }

        fn read_line(&mut self) -> String {
            loop {
                let mut out = String::new();
                self.reader.read_line(&mut out).unwrap();
                let line = out.trim_end().to_string();
                if line.starts_with("EVENT ") {
                    self.events.push(line);
                    continue;
                }
                return line;
            }
        }
    }

    /// Issues `RETRAIN` and polls `STATUS` until the background job lands.
    fn retrain_and_wait(c: &mut Client) {
        let reply = c.send("RETRAIN");
        assert!(reply.starts_with("OK retraining job="), "{reply}");
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let status = c.send("STATUS");
            if status.contains("training=0") {
                assert!(status.contains(" trained=1 "), "{status}");
                return;
            }
            assert!(Instant::now() < deadline, "retrain never landed: {status}");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    fn test_config() -> ServerConfig {
        ServerConfig {
            n_trees: 8,
            ..Default::default()
        } // small forest: fast retrains
    }

    fn start_server(config: ServerConfig) -> (ServerHandle, std::thread::JoinHandle<()>) {
        let server = Server::bind_with("127.0.0.1:0", config).expect("bind");
        let handle = server.handle();
        let join = std::thread::spawn(move || server.serve().expect("serve"));
        (handle, join)
    }

    /// Streams a daily-patterned history with labeled spikes, then checks
    /// online verdicts — the full protocol lifecycle over a real socket.
    #[test]
    fn full_protocol_lifecycle() {
        let (handle, join) = start_server(test_config());
        let mut c = Client::connect(handle.addr());

        assert!(c.send("HELLO 3600").starts_with("OK opprentice"));
        assert!(c
            .send("STATUS")
            .starts_with("OK observed=0 labeled=0 trained=0 cthld=0.500 extract_us="));

        // Stream 21 days of hourly data with a spike every 63 hours.
        let n = 21 * 24;
        let mut flags = String::with_capacity(n);
        for i in 0..n {
            let base = 100.0 + 20.0 * ((i % 24) as f64 / 24.0 * std::f64::consts::TAU).sin();
            let anomalous = i % 63 == 50 || i % 63 == 51;
            let v = if anomalous { base + 150.0 } else { base };
            let reply = c.send(&format!("OBS {} {v}", i * 3600));
            assert!(reply.starts_with("OK"), "{reply}");
            flags.push(if anomalous { '1' } else { '0' });
        }

        // Label everything, retrain (asynchronously — serving continues
        // on the untrained default until the new model swaps in).
        assert_eq!(c.send(&format!("LABEL {flags}")), format!("OK labeled={n}"));
        retrain_and_wait(&mut c);
        assert_eq!(c.events.len(), 1, "{:?}", c.events);
        assert!(
            c.events[0].starts_with("EVENT retrained job=1 model_version=1 cthld="),
            "{:?}",
            c.events
        );

        // A normal continuation scores low; a spike alerts.
        let normal = c.send(&format!("OBS {} 100.0", n * 3600));
        assert!(normal.contains("anomaly=0"), "{normal}");
        let spike = c.send(&format!("OBS {} 400.0", (n + 1) * 3600));
        assert!(spike.contains("anomaly=1"), "{spike}");

        assert_eq!(c.send("QUIT"), "BYE");
        handle.shutdown();
        join.join().unwrap();
    }

    /// While a retrain job is in flight, `LABEL` and a second `RETRAIN`
    /// are refused — the invariant that keeps WAL replay exact. Driven at
    /// the Session level, where nothing polls the job in, so the
    /// assertions cannot race the trainer thread finishing.
    #[test]
    fn mid_flight_labels_and_second_retrain_are_rejected() {
        fn apply(s: &mut Session, line: &str) -> Response {
            s.apply(&parse_request(line).unwrap())
        }
        let mut s = Session::new(8);
        assert!(matches!(apply(&mut s, "HELLO 3600"), Response::Ok(_)));
        let n = 14 * 24;
        let mut flags = String::with_capacity(n);
        for i in 0..n {
            let base = 100.0 + 20.0 * ((i % 24) as f64 / 24.0 * std::f64::consts::TAU).sin();
            let anomalous = i % 63 == 50 || i % 63 == 51;
            let v = if anomalous { base + 150.0 } else { base };
            assert!(matches!(
                apply(&mut s, &format!("OBS {} {v}", i * 3600)),
                Response::Ok(_)
            ));
            flags.push(if anomalous { '1' } else { '0' });
        }
        assert!(matches!(
            apply(&mut s, &format!("LABEL {flags}")),
            Response::Ok(_)
        ));

        match apply(&mut s, "RETRAIN") {
            Response::Ok(m) => assert_eq!(m, "retraining job=1"),
            other => panic!("unexpected {}", other.render()),
        }
        match apply(&mut s, "LABEL 0") {
            Response::Err(m) => {
                assert_eq!(m, "retrain in progress; send labels after it completes");
            }
            other => panic!("unexpected {}", other.render()),
        }
        match apply(&mut s, "RETRAIN") {
            Response::Err(m) => assert_eq!(m, "retrain already in progress"),
            other => panic!("unexpected {}", other.render()),
        }
        // Observations keep flowing throughout.
        assert!(matches!(
            apply(&mut s, &format!("OBS {} 100.0", n * 3600)),
            Response::Ok(_)
        ));

        // Once the job lands, both are accepted again.
        let report = s.wait_training().expect("job lands");
        assert_eq!(report.model_version, 1);
        assert!(matches!(apply(&mut s, "LABEL 0"), Response::Ok(_)));
        match apply(&mut s, "RETRAIN") {
            Response::Ok(m) => assert_eq!(m, "retraining job=2"),
            other => panic!("unexpected {}", other.render()),
        }
        assert_eq!(s.wait_training().expect("job lands").model_version, 2);
    }

    /// The load-bearing batching contract: an `OBSB` reply is the `|`-join
    /// of exactly the replies the equivalent `OBS` sequence produces.
    #[test]
    fn obsb_reply_matches_single_obs_replies() {
        let (handle, join) = start_server(test_config());
        let mut singles = Client::connect(handle.addr());
        let mut batched = Client::connect(handle.addr());
        assert!(singles.send("HELLO 3600").starts_with("OK"));
        assert!(batched.send("HELLO 3600").starts_with("OK"));

        let values = ["100.0", "120.5", "nan", "90.25"];
        let one_by_one: Vec<String> = values
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let reply = singles.send(&format!("OBS {} {v}", i as i64 * 3600));
                reply.strip_prefix("OK ").expect("OK reply").to_string()
            })
            .collect();
        assert_eq!(
            batched.send(&format!("OBSB 0 {}", values.join(" "))),
            format!("OK {}", one_by_one.join("|"))
        );

        // A batch needs a pipeline, like a single observation does.
        let mut fresh = Client::connect(handle.addr());
        assert!(fresh.send("OBSB 0 1.0").starts_with("ERR"));

        singles.send("QUIT");
        batched.send("QUIT");
        fresh.send("QUIT");
        handle.shutdown();
        join.join().unwrap();
    }

    /// STATUS exposes the session's cumulative extraction and inference
    /// wall-clock, so operators can see where serving time goes. Under
    /// the fused batch path the family kernels run concurrently on the
    /// batch's threads: the counter must report the *caller-experienced*
    /// latency of the batch call, never the summed per-thread CPU time —
    /// so it advances monotonically but stays bounded by session
    /// wall-clock.
    #[test]
    fn status_reports_cumulative_timing_counters() {
        let (handle, join) = start_server(test_config());
        let mut c = Client::connect(handle.addr());

        // Before HELLO the counters exist and are zero.
        assert_eq!(
            c.send("STATUS"),
            "OK observed=0 labeled=0 trained=0 extract_us=0 infer_us=0 \
             train_us=0 model_version=0 training=0"
        );
        let session_t0 = std::time::Instant::now();
        assert!(c.send("HELLO 60").starts_with("OK"));

        fn counter(status: &str, key: &str) -> u64 {
            status
                .split_whitespace()
                .find_map(|kv| kv.strip_prefix(key))
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("no {key} in {status}"))
        }

        // Feeding points advances the extraction counter monotonically.
        for i in 0..64 {
            assert!(c
                .send(&format!("OBS {} {}.0", i * 60, 100 + i % 7))
                .starts_with("OK"));
        }
        let status = c.send("STATUS");
        let after_obs = counter(&status, "extract_us=");
        assert!(after_obs > 0, "{status}");

        // Batches large enough to be split across threads (several units
        // extracting concurrently on a multi-core host).
        for round in 0..4 {
            let batch: Vec<String> = (0..64).map(|i| format!("{}.0", 100 + i % 5)).collect();
            assert!(c
                .send(&format!(
                    "OBSB {} {}",
                    (64 + round * 64) * 60,
                    batch.join(" ")
                ))
                .starts_with("OK"));
        }
        let status = c.send("STATUS");
        let after_obsb = counter(&status, "extract_us=");
        assert!(after_obsb > after_obs, "{status}");
        // The no-double-counting bound: with N threads extracting in
        // parallel, summed kernel time could be ~N x wall-clock; the
        // counter reports wall-clock, so it can never exceed the time the
        // whole session has existed.
        let session_us = session_t0.elapsed().as_micros() as u64;
        assert!(
            after_obsb <= session_us,
            "extract_us={after_obsb} exceeds session wall-clock {session_us}us \
             (per-thread time double-counted?)"
        );

        c.send("QUIT");
        handle.shutdown();
        join.join().unwrap();
    }

    /// Pipelined commands (many lines in one write) are all answered, in
    /// order — the coalesced read/write path.
    #[test]
    fn pipelined_lines_are_all_answered() {
        let (handle, join) = start_server(test_config());
        let mut c = Client::connect(handle.addr());
        c.writer
            .write_all(b"HELLO 60\nOBS 0 1.0\nSTATUS\nBOGUS\n")
            .unwrap();
        c.writer.flush().unwrap();
        assert!(c.read_line().starts_with("OK opprentice"));
        assert_eq!(c.read_line(), "OK pending");
        assert!(c.read_line().starts_with("OK observed=1"));
        assert!(c.read_line().starts_with("ERR"));
        c.send("QUIT");
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn protocol_errors_keep_the_connection_alive() {
        let (handle, join) = start_server(test_config());
        let mut c = Client::connect(handle.addr());

        // Everything before HELLO that needs a pipeline: ERR.
        assert!(c.send("OBS 0 1.0").starts_with("ERR"));
        assert!(c.send("RETRAIN").starts_with("ERR"));
        // Garbage: ERR with a reason, connection still usable.
        assert!(c.send("GARBAGE").starts_with("ERR"));
        assert!(c.send("HELLO 60").starts_with("OK"));
        // Double HELLO rejected.
        assert!(c.send("HELLO 60").starts_with("ERR"));
        // Labeling more than observed rejected.
        assert!(c.send("LABEL 111").starts_with("ERR"));
        // Retrain without positives rejected.
        c.send("OBS 0 1.0");
        c.send("LABEL 0");
        assert!(c.send("RETRAIN").starts_with("ERR"));

        assert_eq!(c.send("QUIT"), "BYE");
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn preference_must_precede_hello() {
        let (handle, join) = start_server(test_config());
        let mut c = Client::connect(handle.addr());
        assert!(c.send("PREF 0.8 0.6").starts_with("OK pref"));
        assert!(c.send("HELLO 60").starts_with("OK"));
        assert!(c.send("PREF 0.5 0.5").starts_with("ERR"));
        c.send("QUIT");
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn concurrent_connections_are_isolated() {
        let (handle, join) = start_server(test_config());
        let mut a = Client::connect(handle.addr());
        let mut b = Client::connect(handle.addr());
        assert!(a.send("HELLO 60").starts_with("OK"));
        // b is unconfigured even though a is configured.
        assert!(b.send("OBS 0 1.0").starts_with("ERR"));
        assert!(b.send("HELLO 300").starts_with("OK"));
        a.send("OBS 0 5.0");
        assert!(a
            .send("STATUS")
            .starts_with("OK observed=1 labeled=0 trained=0 cthld=0.500 extract_us="));
        assert!(b
            .send("STATUS")
            .starts_with("OK observed=0 labeled=0 trained=0 cthld=0.500 extract_us="));
        a.send("QUIT");
        b.send("QUIT");
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn disconnect_without_quit_is_fine() {
        let (handle, join) = start_server(test_config());
        {
            let mut c = Client::connect(handle.addr());
            assert!(c.send("HELLO 60").starts_with("OK"));
            // Drop the client abruptly.
        }
        // Server still accepts new connections.
        let mut c2 = Client::connect(handle.addr());
        assert!(c2.send("HELLO 60").starts_with("OK"));
        c2.send("QUIT");
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn idle_connections_are_reaped() {
        let config = ServerConfig {
            idle_timeout: Duration::from_millis(150),
            read_tick: Duration::from_millis(20),
            ..test_config()
        };
        let (handle, join) = start_server(config);
        let mut c = Client::connect(handle.addr());
        assert!(c.send("HELLO 60").starts_with("OK"));
        // Go silent; the server must hang up on us, not wait forever.
        assert_eq!(c.read_line(), "ERR idle timeout");
        assert_eq!(c.read_line(), ""); // EOF
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn oversized_lines_are_rejected() {
        let config = ServerConfig {
            max_line_len: 64,
            ..test_config()
        };
        let (handle, join) = start_server(config);
        let mut c = Client::connect(handle.addr());
        c.writer.write_all(&vec![b'A'; 256]).unwrap();
        c.writer.flush().unwrap();
        assert_eq!(c.read_line(), "ERR line too long");
        assert_eq!(c.read_line(), ""); // EOF
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn excess_connections_are_shed_with_err_busy() {
        let config = ServerConfig {
            max_connections: 1,
            ..test_config()
        };
        let (handle, join) = start_server(config);
        let mut first = Client::connect(handle.addr());
        assert!(first.send("HELLO 60").starts_with("OK"));
        // The slot is taken: the next connection is turned away at once.
        let mut second = Client::connect(handle.addr());
        assert_eq!(second.read_line(), "ERR busy");
        // The first connection is unaffected.
        assert!(first.send("STATUS").starts_with("OK"));
        first.send("QUIT");
        // With the slot free again (allow a tick for the reap), new
        // connections are served.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let mut third = Client::connect(handle.addr());
            let reply = third.send("HELLO 60");
            if reply.starts_with("OK") {
                third.send("QUIT");
                break;
            }
            assert!(Instant::now() < deadline, "slot never freed: {reply}");
            std::thread::sleep(Duration::from_millis(20));
        }
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn resume_without_state_dir_is_a_clean_error() {
        let (handle, join) = start_server(test_config());
        let mut c = Client::connect(handle.addr());
        assert!(c.send("RESUME some-session").starts_with("ERR"));
        assert!(c.send("HELLO 60 some-session").starts_with("ERR"));
        // The connection is still usable for an ephemeral session.
        assert!(c.send("HELLO 60").starts_with("OK"));
        c.send("QUIT");
        handle.shutdown();
        join.join().unwrap();
    }
}
