//! The server child process and the closed-loop line-protocol client.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long one reply may take before the connection counts as timed out.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `opprentice-serve` child with its own state directory.
/// Dropping it kills the child and waits for it to exit.
pub struct ServerProc {
    child: Child,
    /// The address it listens on.
    pub addr: SocketAddr,
    /// Its `--state-dir`.
    pub state_dir: PathBuf,
}

impl ServerProc {
    /// Spawns `bin` on a free loopback port with `OPPRENTICE_THREADS=threads`
    /// and waits until it accepts connections. Its stderr goes to `log`.
    pub fn spawn(
        bin: &Path,
        state_dir: &Path,
        log: &Path,
        threads: usize,
    ) -> Result<ServerProc, String> {
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("no free port: {e}"))?
            .port();
        let addr: SocketAddr = format!("127.0.0.1:{port}")
            .parse()
            .expect("loopback address");
        let log = std::fs::File::create(log).map_err(|e| format!("server log: {e}"))?;
        let child = Command::new(bin)
            .arg(addr.to_string())
            .arg("--state-dir")
            .arg(state_dir)
            .env("OPPRENTICE_THREADS", threads.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut server = ServerProc {
            child,
            addr,
            state_dir: state_dir.to_path_buf(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if TcpStream::connect(addr).is_ok() {
                return Ok(server);
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("server exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("server did not start listening within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// CPU seconds (user + system, all threads) the child has used so far,
    /// from `/proc/<pid>/stat` in clock ticks of 1/100 s (Linux `USER_HZ`).
    pub fn cpu_seconds(&self) -> Option<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id())).ok()?;
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the whole line.
        let rest = &stat[stat.rfind(')')? + 2..];
        let mut fields = rest.split(' ').skip(11);
        let utime: f64 = fields.next()?.parse().ok()?;
        let stime: f64 = fields.next()?.parse().ok()?;
        Some((utime + stime) / 100.0)
    }

    /// The child's peak resident set (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One request and what came back for it.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// Run-unique request id.
    pub id: u64,
    /// The request line as sent (no newline).
    pub line: String,
    /// The reply line (no newline).
    pub reply: String,
    /// `EVENT` lines that arrived ahead of the reply.
    pub events: Vec<String>,
    /// Client-side round trip: write start to reply read.
    pub rtt_ns: u64,
}

/// A blocking client connection that logs every exchange.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
    /// Every exchange on this connection, in order.
    pub log: Vec<Exchange>,
}

impl Conn {
    /// Connects with `TCP_NODELAY`. Request ids start at `first_id`.
    pub fn connect(addr: SocketAddr, first_id: u64) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(REPLY_TIMEOUT)))
            .map_err(|e| format!("socket options: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            next_id: first_id,
            log: Vec::new(),
        })
    }

    /// The id the next request will get.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Sends one line and waits for its reply; returns the logged exchange.
    pub fn send(&mut self, line: String) -> Result<&Exchange, String> {
        let mut events = Vec::new();
        let t0 = Instant::now();
        let mut out = Vec::with_capacity(line.len() + 1);
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
        self.writer
            .write_all(&out)
            .map_err(|e| format!("write `{}`: {e}", head(&line)))?;
        let reply = loop {
            let mut buf = String::new();
            let n = self
                .reader
                .read_line(&mut buf)
                .map_err(|e| format!("reply to `{}`: {e}", head(&line)))?;
            if n == 0 {
                return Err(format!(
                    "connection dropped before reply to `{}`",
                    head(&line)
                ));
            }
            let text = buf.trim_end().to_string();
            if text.starts_with("EVENT ") {
                events.push(text);
            } else {
                break text;
            }
        };
        let rtt_ns = t0.elapsed().as_nanos() as u64;
        let id = self.next_id;
        self.next_id += 1;
        self.log.push(Exchange {
            id,
            line,
            reply,
            events,
            rtt_ns,
        });
        Ok(self.log.last().expect("just pushed"))
    }

    /// Waits until the server closes the connection (after `QUIT`), so the
    /// session's state is released before it is resumed elsewhere.
    pub fn wait_closed(mut self) -> Result<Vec<Exchange>, String> {
        let mut rest = String::new();
        loop {
            rest.clear();
            match self.reader.read_line(&mut rest) {
                Ok(0) => return Ok(self.log),
                Ok(_) => {}
                Err(e) => return Err(format!("waiting for close: {e}")),
            }
        }
    }
}

/// The first words of a line, for error messages.
fn head(line: &str) -> &str {
    &line[..line.len().min(40)]
}
