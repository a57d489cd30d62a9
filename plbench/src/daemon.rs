//! The daemon under test, run as its own process, and the HTTP client the
//! benchmark talks to it with.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::check::{BATCH, PLATFORM};

/// Worker threads the daemon is started with.
pub const DAEMON_THREADS: usize = 2;
/// How often `/healthz` is probed while the daemon starts. Shorter than
/// the daemon's 5 ms idle poll, so the first probe after the daemon listens
/// is answered at its first poll; long enough that the probe rarely lands
/// in the few microseconds between listening and the first poll, which
/// would make start-up read 5 ms shorter in that run only.
pub const PROBE_PERIOD: Duration = Duration::from_millis(4);

/// One finished HTTP exchange.
#[derive(Debug)]
pub struct Exchange {
    /// Response status code.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// Bytes written (head and body).
    pub bytes_out: usize,
    /// Bytes read (head and body).
    pub bytes_in: usize,
}

/// One `Connection: close` request: connect, send, read to end of stream.
///
/// # Errors
///
/// Connection and I/O errors, or a response without a status line.
pub fn exchange(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<Exchange> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    stream.write_all(&out)?;
    let mut raw = Vec::with_capacity(1024);
    stream.read_to_end(&mut raw)?;
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response has no head"))?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| bad("head is not UTF-8"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("response has no status"))?;
    let body =
        String::from_utf8(raw[split + 4..].to_vec()).map_err(|_| bad("body is not UTF-8"))?;
    Ok(Exchange {
        status,
        body,
        bytes_out: out.len(),
        bytes_in: raw.len(),
    })
}

/// A running `powerlens-cli serve` process.
pub struct Daemon {
    child: Child,
    drain: Option<JoinHandle<()>>,
    /// Where it listens.
    pub addr: SocketAddr,
}

impl Daemon {
    /// Starts the daemon and waits for its first `200` from `/healthz`.
    /// Returns it with the time from spawn to that answer.
    ///
    /// The port is chosen here, and `/healthz` is probed every
    /// [`PROBE_PERIOD`] from the moment of spawn, as a supervisor would. A
    /// port that another process takes in between is retried with a fresh
    /// one.
    ///
    /// # Errors
    ///
    /// Fails when the process cannot start, exits early three times, or
    /// does not answer `/healthz` within 30 s.
    pub fn start(bin: &Path, workdir: &Path) -> io::Result<(Daemon, Duration)> {
        let mut last = None;
        for _ in 0..3 {
            match Daemon::try_start(bin, workdir) {
                Ok(started) => return Ok(started),
                Err(e) => last = Some(e),
            }
        }
        Err(last.expect("three attempts were made"))
    }

    fn try_start(bin: &Path, workdir: &Path) -> io::Result<(Daemon, Duration)> {
        let port = TcpListener::bind("127.0.0.1:0")?.local_addr()?.port();
        let addr = SocketAddr::from(([127, 0, 0, 1], port));
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(["serve", "--port"])
            .arg(port.to_string())
            .args(["--cache", "mem", "--threads"])
            .arg(DAEMON_THREADS.to_string())
            .args(["--platform", PLATFORM, "--batch"])
            .arg(BATCH.to_string())
            .current_dir(workdir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut daemon = Daemon {
            child,
            drain: Some(drain(stdout)),
            addr,
        };
        let deadline = started + Duration::from_secs(30);
        loop {
            if let Ok(x) = exchange(addr, "GET", "/healthz", "") {
                if x.status == 200 {
                    return Ok((daemon, started.elapsed()));
                }
            }
            if let Some(status) = daemon.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "daemon exited during start-up: {status}"
                )));
            }
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "daemon never answered /healthz",
                ));
            }
            thread::sleep(PROBE_PERIOD);
        }
    }

    /// The process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Scrapes `/metrics` into `name -> value`.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or a non-200 answer.
    pub fn metrics(&self) -> io::Result<BTreeMap<String, f64>> {
        let x = exchange(self.addr, "GET", "/metrics", "")?;
        if x.status != 200 {
            return Err(io::Error::other(format!("/metrics answered {}", x.status)));
        }
        Ok(x.body
            .lines()
            .filter_map(|l| {
                let (name, value) = l.rsplit_once(' ')?;
                Some((name.to_string(), value.parse().ok()?))
            })
            .collect())
    }

    /// A memory field of `/proc/<pid>/status` (`VmRSS`, `VmHWM`) in KiB.
    pub fn status_kib(&self, field: &str) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid())).ok()?;
        status
            .lines()
            .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
    }

    /// CPU time the daemon has used so far, user and system, over all its
    /// threads (`utime + stime` in `/proc/<pid>/stat`). Time the hypervisor
    /// steals from the machine is not charged to it.
    pub fn cpu_time(&self) -> Option<Duration> {
        // Linux reports these in USER_HZ ticks, 100 per second on every
        // architecture's ABI.
        const TICK: Duration = Duration::from_millis(10);
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid())).ok()?;
        // Fields after the parenthesised command name start at field 3.
        let mut fields = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
        let utime: u32 = fields.next()?.parse().ok()?;
        let stime: u32 = fields.next()?.parse().ok()?;
        Some(TICK * (utime + stime))
    }

    /// Asks the daemon to shut down and waits for it to exit (killing it
    /// after 10 s).
    ///
    /// # Errors
    ///
    /// Fails when the process does not exit cleanly.
    pub fn stop(mut self) -> io::Result<()> {
        let asked = exchange(self.addr, "POST", "/shutdown", "");
        let deadline = Instant::now() + Duration::from_secs(10);
        let status = loop {
            if let Some(s) = self.child.try_wait()? {
                break Some(s);
            }
            if Instant::now() > deadline {
                break None;
            }
            thread::sleep(Duration::from_millis(2));
        };
        self.reap();
        match (asked, status) {
            (Ok(_), Some(s)) if s.success() => Ok(()),
            (asked, status) => Err(io::Error::other(format!(
                "daemon did not stop cleanly: shutdown {asked:?}, exit {status:?}"
            ))),
        }
    }

    /// Kills the process if it still runs, waits for it, and joins the
    /// stdout drain.
    fn reap(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.reap();
    }
}

/// Keeps reading the daemon's stdout so its report lines never meet a
/// closed pipe.
fn drain(mut stdout: ChildStdout) -> JoinHandle<()> {
    thread::spawn(move || {
        let mut sink = Vec::new();
        let _ = stdout.read_to_end(&mut sink);
    })
}
