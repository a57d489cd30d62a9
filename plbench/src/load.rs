//! The closed-loop load generator: a fixed number of client threads, each sending
//! its next request only after the previous reply has been read and
//! checked.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use crate::check::{verify_body, ExpectedPlan, References};
use crate::daemon::exchange;
use crate::inputs::Workload;

/// Client threads of the closed loop.
pub const CLIENTS: usize = 2;

/// One request's outcome.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Connect to last response byte.
    pub latency: Duration,
    /// Answered and verified.
    pub ok: bool,
}

/// Latency percentile `q` in `[0, 1]` (nearest rank). A failed request
/// sorts as slower than every success.
pub fn percentile(samples: &[Sample], q: f64) -> Duration {
    let mut v: Vec<Duration> = samples
        .iter()
        .map(|s| if s.ok { s.latency } else { Duration::MAX })
        .collect();
    if v.is_empty() {
        return Duration::MAX;
    }
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Everything one closed-loop window produced.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// One sample per request sent.
    pub samples: Vec<Sample>,
    /// Wall time from the first send to the last reply.
    pub elapsed: Duration,
    /// Request bytes sent, summed.
    pub bytes_out: u64,
    /// Response bytes read, summed.
    pub bytes_in: u64,
    /// The first few failure reasons.
    pub failures: Vec<String>,
    /// Verified plan per subject, for the plan-quality metric.
    pub plans: BTreeMap<usize, ExpectedPlan>,
}

impl LoopResult {
    /// Requests that failed.
    pub fn failed(&self) -> usize {
        self.samples.iter().filter(|s| !s.ok).count()
    }

    /// Verified successes per second over the window.
    pub fn throughput(&self) -> f64 {
        (self.samples.len() - self.failed()) as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    fn merge(&mut self, other: LoopResult) {
        self.samples.extend(other.samples);
        self.bytes_out += other.bytes_out;
        self.bytes_in += other.bytes_in;
        for f in other.failures {
            if self.failures.len() < 5 {
                self.failures.push(f);
            }
        }
        self.plans.extend(other.plans);
    }
}

/// Sends requests `first..first + count` one at a time and checks each.
pub fn serial(
    addr: SocketAddr,
    w: &Workload,
    refs: &References,
    first: u64,
    count: u64,
) -> LoopResult {
    let next = AtomicU64::new(first);
    client(addr, w, refs, &next, first + count, None)
}

/// Runs the closed loop for `window` with [`CLIENTS`] threads, drawing
/// stream indices from `first` on.
pub fn closed_loop(
    addr: SocketAddr,
    w: &Workload,
    refs: &References,
    first: u64,
    window: Duration,
) -> LoopResult {
    let next = AtomicU64::new(first);
    let merged = Mutex::new(LoopResult::default());
    let started = Instant::now();
    let deadline = started + window;
    thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                let r = client(addr, w, refs, &next, u64::MAX, Some(deadline));
                merged.lock().expect("no client panics").merge(r);
            });
        }
    });
    let mut out = merged.into_inner().expect("no client panics");
    out.elapsed = started.elapsed();
    out
}

fn client(
    addr: SocketAddr,
    w: &Workload,
    refs: &References,
    next: &AtomicU64,
    end: u64,
    deadline: Option<Instant>,
) -> LoopResult {
    let started = Instant::now();
    let mut out = LoopResult::default();
    loop {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let index = next.fetch_add(1, Ordering::Relaxed);
        if index >= end {
            break;
        }
        let req = w.request(index);
        let t = Instant::now();
        let result = exchange(addr, "POST", req.path, &req.body);
        let latency = t.elapsed();
        let checked = match result {
            Ok(x) => {
                out.bytes_out += x.bytes_out as u64;
                out.bytes_in += x.bytes_in as u64;
                verify_body(
                    &refs.expected[req.subject],
                    w.subjects[req.subject].graph.name(),
                    req.tenant.as_deref(),
                    x.status,
                    &x.body,
                )
            }
            Err(e) => Err(format!("connection: {e}")),
        };
        let ok = match checked {
            Ok(plan) => {
                if let Some(p) = plan {
                    out.plans.entry(req.subject).or_insert(p);
                }
                true
            }
            Err(e) => {
                if out.failures.len() < 5 {
                    out.failures.push(format!("request {index}: {e}"));
                }
                false
            }
        };
        out.samples.push(Sample { latency, ok });
    }
    out.elapsed = started.elapsed();
    out
}
