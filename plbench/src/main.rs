//! `plbench`: the PowerLens serving benchmark.
//!
//! ```text
//! plbench --daemon PATH --out-dir DIR --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it starts `powerlens-cli serve` as its own process,
//! drives the workload as a closed loop of two client threads, checks every
//! response against an in-process reference, and prints the end-to-end
//! metrics. With `--trace 1` it prints the per-layer metrics instead: a
//! live daemon gives the `/healthz` round trip, an untraced `p50_ms` and
//! the daemon's own counters, and an in-process replay of the same request
//! stream gives one span per call into each crate (see [`trace`]).
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}`.

mod check;
mod daemon;
mod inputs;
mod load;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use powerlens_obs as obs;
use powerlens_serve::ops;

use crate::check::{ExpectedPlan, References, BATCH};
use crate::daemon::{exchange, Daemon};
use crate::inputs::{Kind, Workload};
use crate::load::LoopResult;
use crate::trace::{median_f, per_call_ns, Replay, Summary, CRATES};

/// Daemon start-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// Sequential `/healthz` exchanges behind `serve.healthz_rtt_ms`.
const HEALTHZ_SAMPLES: usize = 100;
/// Images per task and tasks per flow of the plan-quality simulation
/// (`ServeConfig`'s `/compare` defaults).
const EE_IMAGES: usize = 16;
const EE_TASKS: usize = 3;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: PathBuf,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    let get = |name: &str| {
        flags
            .get(name)
            .cloned()
            .ok_or_else(|| format!("missing --{name}"))
    };
    let workload = get("workload")?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds needs a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_string());
    }
    Ok(Args {
        kind: Kind::parse(&workload).ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: get("seed")?
            .parse()
            .map_err(|_| "--seed needs an unsigned integer".to_string())?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
        // Absolute, because the daemon runs in its own working directory.
        daemon: std::fs::canonicalize(get("daemon")?).map_err(|e| format!("--daemon: {e}"))?,
        out_dir: PathBuf::from(get("out-dir")?),
    })
}

/// One reported metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// The run's verdict and metrics, printed as the final JSON line.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("{name:<28} {value:>16.6} {unit}");
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values cannot be JSON numbers; they only arise
            // when nothing succeeded, which `correct` already reports.
            let value = if value.is_finite() { *value } else { -1.0 };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}

fn ratio(hits: f64, misses: f64) -> f64 {
    if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    }
}

/// The daemon's own counters must agree with the client: every request
/// sent is counted (plus the `/metrics` scrape that opened the window,
/// which is counted after its own answer), and nothing was shed or
/// degraded.
fn cross_check(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
    sent: usize,
) -> Result<(), String> {
    let requests = delta(before, after, "serve.requests");
    let rejected = delta(before, after, "serve.rejected");
    let degraded = delta(before, after, "serve.degraded");
    if requests != (sent + 1) as f64 || rejected != 0.0 || degraded != 0.0 {
        return Err(format!(
            "daemon counted requests +{requests}, rejected +{rejected}, degraded +{degraded} \
             for {sent} requests sent"
        ));
    }
    Ok(())
}

/// Geometric mean over the served subjects of the plan's simulated EE over
/// BiM's (`ops::compare_controllers`). `/lint` serves no plan, so on
/// `lint_repeat` the plan is the reference `plan_oracle` plan of each
/// subject.
fn plan_ee_ratio(
    w: &Workload,
    refs: &References,
    served: &BTreeMap<usize, ExpectedPlan>,
) -> Result<f64, String> {
    let planner = ops::make_planner(&refs.platform, BATCH, None);
    let mut logs = Vec::new();
    for (i, s) in w.subjects.iter().enumerate() {
        let plan = if w.kind == Kind::LintRepeat {
            check::oracle_plan(&planner, &s.graph)?
        } else {
            match served.get(&i) {
                Some(p) => p.clone(),
                None => continue,
            }
        };
        let rows = ops::compare_controllers(
            &refs.platform,
            &s.graph,
            &plan.instrumentation(),
            BATCH,
            EE_IMAGES,
            EE_TASKS,
            None,
        );
        let bim = rows
            .iter()
            .find(|r| r.method == "BiM")
            .ok_or("no BiM row in the comparison")?;
        logs.push((rows[0].energy_efficiency / bim.energy_efficiency).ln());
    }
    if logs.is_empty() {
        return Err("no plan was served".to_string());
    }
    Ok((logs.iter().sum::<f64>() / logs.len() as f64).exp())
}

/// Starts the daemon, runs the warm-up pass (every request of the first
/// balanced block, one at a time), and runs the tamper self-test on a live
/// response. Returns the daemon, the warm-up result and whether the
/// self-test passed.
fn start_and_warm(
    args: &Args,
    w: &Workload,
    refs: &References,
    setups: &mut Vec<Duration>,
    reps: usize,
) -> Result<(Daemon, LoopResult, bool), String> {
    let workdir = args.out_dir.join("daemon");
    std::fs::create_dir_all(&workdir).map_err(|e| format!("{}: {e}", workdir.display()))?;
    let mut kept = None;
    for i in 0..reps {
        let (d, took) = Daemon::start(&args.daemon, &workdir)
            .map_err(|e| format!("starting {}: {e}", args.daemon.display()))?;
        setups.push(took);
        if i + 1 == reps {
            kept = Some(d);
        } else {
            d.stop().map_err(|e| e.to_string())?;
        }
    }
    let d = kept.expect("at least one start-up");
    let n = w.pool_len() as u64;
    let warm = load::serial(d.addr, w, refs, 0, n);
    let probe = w.request(0);
    let x = exchange(d.addr, "POST", probe.path, &probe.body).map_err(|e| e.to_string())?;
    let (caught, tampered) =
        check::tamper_self_test(refs, w, probe.subject, probe.tenant.as_deref(), &x.body);
    eprintln!(
        "plbench: tamper self-test counted {caught} of {tampered} tampered responses as failed"
    );
    Ok((d, warm, caught == tampered && tampered > 0))
}

fn end_to_end(args: &Args, w: &Workload, refs: &References) -> Result<Report, String> {
    let mut setups = Vec::new();
    let (d, warm, self_test) = start_and_warm(args, w, refs, &mut setups, SETUP_REPS)?;
    let window = Duration::from_secs_f64(args.seconds);
    let cpu_before = d.cpu_time().ok_or("cannot read the daemon's CPU time")?;
    let before = d.metrics().map_err(|e| e.to_string())?;
    let res = load::closed_loop(d.addr, w, refs, w.pool_len() as u64, window);
    let after = d.metrics().map_err(|e| e.to_string())?;
    let cpu = d.cpu_time().ok_or("cannot read the daemon's CPU time")? - cpu_before;
    let counters = cross_check(&before, &after, res.samples.len());
    d.stop().map_err(|e| e.to_string())?;

    let mut served = warm.plans.clone();
    served.extend(res.plans.clone());
    let ee = plan_ee_ratio(w, refs, &served)?;

    for f in warm.failures.iter().chain(&res.failures) {
        eprintln!("plbench: failed {f}");
    }
    if let Err(e) = &counters {
        eprintln!("plbench: counter cross-check failed: {e}");
    }
    let attempted = (warm.samples.len() + res.samples.len()) as u64;
    let failed = (warm.failed() + res.failed()) as u64;
    let mut setup_s: Vec<f64> = setups.iter().map(Duration::as_secs_f64).collect();
    eprintln!(
        "plbench: {} requests in {:.3} s, {} failed; whole-window p90 {:.3} ms, \
         p99 {:.3} ms; setup samples {:?}",
        res.samples.len(),
        res.elapsed.as_secs_f64(),
        res.failed(),
        ms(load::percentile(&res.samples, 0.90)),
        ms(load::percentile(&res.samples, 0.99)),
        setup_s
    );
    let metrics = vec![
        ("setup_s", median_f(&mut setup_s), "s"),
        ("p50_ms", ms(load::percentile(&res.samples, 0.50)), "ms"),
        ("p75_ms", ms(load::percentile(&res.samples, 0.75)), "ms"),
        ("throughput_rps", res.throughput(), "1/s"),
        (
            "success_ratio",
            1.0 - res.failed() as f64 / res.samples.len().max(1) as f64,
            "ratio",
        ),
        ("plan_ee_ratio", ee, "ratio"),
        (
            "daemon_cpu_ms_per_req",
            ms(cpu) / res.samples.len().max(1) as f64,
            "ms",
        ),
    ];
    Ok(Report {
        correct: failed == 0 && self_test && counters.is_ok(),
        attempted,
        failed,
        metrics,
    })
}

fn per_layer(args: &Args, w: &Workload, refs: &References) -> Result<Report, String> {
    // Live part: the daemon's round trip, an untraced p50 and its counters.
    let (d, warm, self_test) = start_and_warm(args, w, refs, &mut Vec::new(), 1)?;
    let mut rtt: Vec<f64> = Vec::with_capacity(HEALTHZ_SAMPLES);
    for _ in 0..HEALTHZ_SAMPLES {
        let t = std::time::Instant::now();
        let x = exchange(d.addr, "GET", "/healthz", "").map_err(|e| e.to_string())?;
        if x.status != 200 {
            return Err(format!("/healthz answered {}", x.status));
        }
        rtt.push(ms(t.elapsed()));
    }
    let healthz_ms = median_f(&mut rtt);
    let window = Duration::from_secs_f64(args.seconds * 0.4);
    let before = d.metrics().map_err(|e| e.to_string())?;
    let live = load::closed_loop(d.addr, w, refs, w.pool_len() as u64, window);
    let after = d.metrics().map_err(|e| e.to_string())?;
    let counters = cross_check(&before, &after, live.samples.len());
    let peak_kib = d
        .status_kib("VmHWM")
        .ok_or("cannot read the daemon's VmHWM")?;
    d.stop().map_err(|e| e.to_string())?;
    let p50_ms = ms(load::percentile(&live.samples, 0.50));
    let p99_ms = ms(load::percentile(&live.samples, 0.99));
    let sent = live.samples.len().max(1) as f64;
    let store_hit_ratio = ratio(
        delta(&before, &after, "store.hits"),
        delta(&before, &after, "store.misses"),
    );
    let lint_hit_ratio = ratio(
        delta(&before, &after, "lint.cache.hits"),
        delta(&before, &after, "lint.cache.misses"),
    );

    // Replay part: spans around every call into a crate.
    let mut replay = Replay::new(w, refs);
    let n = w.pool_len() as u64;
    replay.warm(0, n);
    let span_ns = replay.tracer.empty_span_ns();
    let counter_ns = per_call_ns(100_000, || obs::counter("plbench.probe", 1));
    let histogram_ns = per_call_ns(100_000, || obs::histogram("plbench.probe_ms", 1.0));
    replay.run(n, Duration::from_secs_f64(args.seconds * 0.4), n);
    let spans_path = args
        .out_dir
        .join(format!("spans-{}-seed{}.jsonl", w.kind.name(), w.seed));
    replay
        .tracer
        .write(&spans_path)
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    eprintln!(
        "plbench: {} spans of {} replayed requests written to {}",
        replay.tracer.spans.len(),
        replay.requests,
        spans_path.display()
    );
    let s = Summary::of(&replay);

    for f in warm
        .failures
        .iter()
        .chain(&live.failures)
        .chain(&replay.failures)
    {
        eprintln!("plbench: failed {f}");
    }
    if let Err(e) = &counters {
        eprintln!("plbench: counter cross-check failed: {e}");
    }
    let us = |ns: f64| ns / 1e3;
    let msf = |ns: f64| ns / 1e6;
    let mut metrics = vec![
        ("serve.healthz_rtt_ms", healthz_ms, "ms"),
        ("serve.p99_ms", p99_ms, "ms"),
        ("serve.daemon_rss_mb", peak_kib as f64 / 1024.0, "MiB"),
        (
            "serve.request_parse_us",
            us(s.median_ns("serve.request_parse")),
            "us",
        ),
        (
            "serve.response_encode_us",
            us(s.median_ns("serve.response_encode")),
            "us",
        ),
        (
            "serve.unattributed_ms",
            p50_ms - healthz_ms - msf(s.stage_sum_ns()),
            "ms",
        ),
        ("serve.request_bytes", live.bytes_out as f64 / sent, "bytes"),
        ("serve.response_bytes", live.bytes_in as f64 / sent, "bytes"),
        (
            "dnn.graph_by_name_us",
            us(s.median_ns("dnn.graph_by_name")),
            "us",
        ),
        (
            "dnn.fingerprint_us",
            us(s.median_ns("dnn.fingerprint")),
            "us",
        ),
        ("dnn.layers", s.layers, "count"),
        (
            "ingest.import_value_us",
            us(s.median_ns("ingest.import_value")),
            "us",
        ),
        (
            "ingest.import_str_us",
            us(s.median_ns("ingest.import_str")),
            "us",
        ),
        (
            "core.make_planner_us",
            us(s.median_ns("core.make_planner")),
            "us",
        ),
        (
            "core.plan_oracle_ms",
            msf(s.median_ns("core.plan_oracle")),
            "ms",
        ),
        (
            "core.plan_oracle_self_ms",
            msf(s.median_self_ns("core.plan_oracle")),
            "ms",
        ),
        (
            "core.evaluate_plan_us",
            us(s.median_ns("core.evaluate_plan")),
            "us",
        ),
        (
            "features.global_us",
            us(s.median_ns("features.global")),
            "us",
        ),
        (
            "features.depthwise_us",
            us(s.median_ns("features.depthwise")),
            "us",
        ),
        (
            "cluster.distance_build_ms",
            msf(s.median_ns("cluster.distance_build")),
            "ms",
        ),
        (
            "cluster.distance_matrix_ms",
            msf(s.median_ns("cluster.distance_matrix")),
            "ms",
        ),
        (
            "cluster.dbscan_sweep_us",
            us(s.median_per_request_ns("cluster.dbscan")),
            "us",
        ),
        ("cluster.blocks", s.blocks, "count"),
        ("cluster.schemes_scored", s.schemes, "count"),
        (
            "governors.oracle_level_us",
            us(s.median_ns("governors.oracle_level")),
            "us",
        ),
        (
            "store.cache_key_us",
            us(s.median_ns("store.cache_key")),
            "us",
        ),
        ("store.hit_us", us(s.median_ns("store.hit")), "us"),
        ("store.hit_ratio", store_hit_ratio, "ratio"),
        ("lint.cached_us", us(s.median_ns("lint.cached")), "us"),
        (
            "lint.report_json_us",
            us(s.median_ns("lint.report_json")),
            "us",
        ),
        (
            "lint.model_cold_ms",
            msf(s.median_ns("lint.model_cold")),
            "ms",
        ),
        ("lint.hit_ratio", lint_hit_ratio, "ratio"),
        ("obs.counter_ns", counter_ns, "ns"),
        ("obs.histogram_ns", histogram_ns, "ns"),
        ("trace.span_ns", span_ns, "ns"),
    ];
    let self_names = [
        "serve.self_us",
        "dnn.self_us",
        "ingest.self_us",
        "core.self_us",
        "features.self_us",
        "cluster.self_us",
        "governors.self_us",
        "store.self_us",
        "lint.self_us",
    ];
    for (name, krate) in self_names.into_iter().zip(CRATES) {
        metrics.push((name, us(s.crate_self_ns(krate)), "us"));
    }
    let attempted = (warm.samples.len() + live.samples.len()) as u64 + replay.requests;
    let failed = (warm.failed() + live.failed()) as u64 + replay.failed();
    Ok(Report {
        correct: failed == 0 && self_test && counters.is_ok(),
        attempted,
        failed,
        metrics,
    })
}

fn run() -> Result<Report, String> {
    let args = parse_args()?;
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let w = Workload::generate(args.kind, args.seed)?;
    let refs = check::references(&w)?;
    if args.trace {
        per_layer(&args, &w, &refs)
    } else {
        end_to_end(&args, &w, &refs)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(report) => {
            report.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("plbench: {e}");
            ExitCode::FAILURE
        }
    }
}
