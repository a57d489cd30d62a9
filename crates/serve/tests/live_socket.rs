//! Drives a live daemon over real TCP sockets: concurrent mixed traffic,
//! cache warm-up across requests, zoo graphs resolved once per daemon,
//! bodies that arrive slowly, cut short or too large, overload shedding,
//! and clean shutdown.
//!
//! The obs registry is process-global and shared across parallel tests,
//! so all counter assertions here are on *deltas* between two `/metrics`
//! scrapes, never on absolute values.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use powerlens_dnn::zoo;
use powerlens_serve::http::request;
use powerlens_serve::{ops, ServeConfig, ServeReport, Server};
use serde::Value;

/// Binds a daemon with `cfg`, runs it on a background thread, and returns
/// its address plus the join handle that yields the final report.
fn spawn_daemon(cfg: ServeConfig) -> (String, thread::JoinHandle<ServeReport>) {
    let server = Server::bind(cfg).expect("bind");
    let addr = server.local_addr();
    let handle = thread::spawn(move || server.run().expect("run"));
    (addr, handle)
}

fn metric(metrics_body: &str, name: &str) -> Option<f64> {
    metrics_body.lines().find_map(|line| {
        let (n, v) = line.split_once(' ')?;
        (n == name).then(|| v.parse().ok())?
    })
}

fn field<'v>(v: &'v Value, name: &str) -> &'v Value {
    v.field(name)
        .unwrap_or_else(|_| panic!("missing field {name}"))
}

#[test]
fn serves_concurrent_mixed_traffic_with_cache_reuse_and_clean_shutdown() {
    let (addr, handle) = spawn_daemon(ServeConfig {
        workers: 4,
        queue_depth: 64,
        batch: 4,
        images: 8,
        tasks: 2,
        ..ServeConfig::default()
    });

    let (status, body) = request(&addr, "GET", "/healthz", "").unwrap();
    assert_eq!(status, 200, "healthz: {body}");

    // Nine concurrent clients mixing the three POST endpoints.
    let kinds = [
        ("/plan", r#"{"model": "alexnet", "tenant": "mix-a"}"#),
        ("/compare", r#"{"model": "alexnet", "tenant": "mix-b"}"#),
        ("/lint", r#"{"model": "alexnet"}"#),
    ];
    thread::scope(|s| {
        let handles: Vec<_> = (0..9)
            .map(|i| {
                let (path, body) = kinds[i % kinds.len()];
                let addr = addr.clone();
                s.spawn(move || request(&addr, "POST", path, body).unwrap())
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let (status, body) = h.join().unwrap();
            assert_eq!(status, 200, "client {i} ({}): {body}", kinds[i % 3].0);
            let v: Value = serde_json::from_str(&body).unwrap();
            match i % 3 {
                0 => assert!(matches!(field(&v, "points"), Value::Array(a) if !a.is_empty())),
                1 => assert!(matches!(field(&v, "rows"), Value::Array(a) if a.len() >= 4)),
                _ => assert_eq!(field(&v, "errors"), &Value::Num(0.0)),
            }
        }
    });

    // Cold plan, then the identical request again: the second must be a
    // store hit (flagged on the response, visible in /metrics, and warmer
    // than the cold one). A unique tenant isolates this from other tests.
    let tenant_req = r#"{"model": "mobilenet_v3", "tenant": "warmth-probe"}"#;
    let (_, before) = request(&addr, "GET", "/metrics", "").unwrap();
    let hits_before = metric(&before, "store.hits").unwrap_or(0.0);

    let t0 = Instant::now();
    let (status, cold_body) = request(&addr, "POST", "/plan", tenant_req).unwrap();
    let cold = t0.elapsed();
    assert_eq!(status, 200, "{cold_body}");
    let cold_v: Value = serde_json::from_str(&cold_body).unwrap();
    assert_eq!(field(&cold_v, "cached"), &Value::Bool(false));
    assert_eq!(field(&cold_v, "degraded"), &Value::Bool(false));

    let t1 = Instant::now();
    let (status, warm_body) = request(&addr, "POST", "/plan", tenant_req).unwrap();
    let warm = t1.elapsed();
    assert_eq!(status, 200);
    let warm_v: Value = serde_json::from_str(&warm_body).unwrap();
    assert_eq!(field(&warm_v, "cached"), &Value::Bool(true));
    assert_eq!(field(&warm_v, "points"), field(&cold_v, "points"));
    assert!(
        warm < cold,
        "warm request ({warm:?}) should beat the cold one ({cold:?})"
    );

    // A tenant that looked up once and never came back: exactly the
    // zero-completion shape whose hit rate used to render as NaN.
    let (status, _) = request(
        &addr,
        "POST",
        "/plan",
        r#"{"model": "alexnet", "tenant": "one-shot-probe"}"#,
    )
    .unwrap();
    assert_eq!(status, 200);

    let (_, after) = request(&addr, "GET", "/metrics", "").unwrap();
    let hits_after = metric(&after, "store.hits").unwrap_or(0.0);
    assert!(
        hits_after >= hits_before + 1.0,
        "store.hits {hits_before} -> {hits_after}: warm request must register a hit"
    );
    assert!(metric(&after, "serve.requests").unwrap_or(0.0) >= 1.0);
    assert!(metric(&after, "store.tenant.warmth-probe.hits") >= Some(1.0));

    // Derived hit rates are present, guarded, and finite: the global rate
    // sits in [0, 1], the warm tenant's reflects its 1 miss + 1 hit, and
    // the one-shot tenant (a lookup but no second visit) reads exactly 0
    // rather than dividing by zero.
    let global_rate = metric(&after, "store.hit_rate").expect("store.hit_rate row");
    assert!((0.0..=1.0).contains(&global_rate), "{global_rate}");
    let warm_rate =
        metric(&after, "store.tenant.warmth-probe.hit_rate").expect("tenant hit_rate row");
    assert!(warm_rate.is_finite() && warm_rate > 0.0, "{warm_rate}");
    let one_shot = metric(&after, "store.tenant.one-shot-probe.hit_rate")
        .expect("one-shot tenant hit_rate row");
    assert_eq!(one_shot, 0.0, "miss-only tenant rate must be 0, not NaN");

    // The hybrid ladder counters are scrapeable before any hybrid run.
    for name in [
        "hybrid.drift_detected",
        "hybrid.nudges",
        "hybrid.replans",
        "hybrid.replan_throttled",
    ] {
        let v = metric(&after, name).unwrap_or_else(|| panic!("missing {name} row"));
        assert!(v >= 0.0);
    }
    // Every /metrics line is `name <finite float>` — no NaN leaks anywhere.
    for line in after.lines() {
        let (name, value) = line.split_once(' ').expect("name value");
        let parsed: f64 = value.parse().unwrap_or_else(|_| panic!("{name}: {value}"));
        assert!(parsed.is_finite(), "{name} rendered non-finite: {value}");
    }

    // Opting into the hybrid row grows the compare line-up by one.
    let (status, body) = request(
        &addr,
        "POST",
        "/compare",
        r#"{"model": "alexnet", "hybrid": true}"#,
    )
    .unwrap();
    assert_eq!(status, 200, "{body}");
    let v: Value = serde_json::from_str(&body).unwrap();
    let Value::Array(rows) = field(&v, "rows") else {
        panic!("rows must be an array")
    };
    assert_eq!(rows.len(), 5, "powerlens + hybrid + three baselines");
    let methods: Vec<String> = rows
        .iter()
        .map(|r| format!("{:?}", field(r, "method")))
        .collect();
    assert!(methods.iter().any(|m| m.contains("hybrid(")), "{methods:?}");

    let (status, _) = request(&addr, "POST", "/shutdown", "").unwrap();
    assert_eq!(status, 200);
    let report = handle.join().unwrap();
    // healthz + 9 mixed + 2 metrics scrapes + cold + warm + shutdown
    assert!(
        report.requests >= 15,
        "expected >= 15 handled requests, got {}",
        report.requests
    );
}

#[test]
fn inline_manifests_plan_through_the_ingest_gate() {
    let (addr, handle) = spawn_daemon(ServeConfig {
        workers: 2,
        batch: 4,
        ..ServeConfig::default()
    });

    // A zoo graph posted as an inline manifest plans end to end, and the
    // identical manifest again is a cache hit: the store keys on the
    // imported graph's content fingerprint, not on a name lookup.
    let exported = powerlens_ingest::export(&powerlens_dnn::zoo::by_name("alexnet").unwrap());
    let body = format!(r#"{{"manifest": {exported}, "tenant": "ingest-probe"}}"#);
    let (status, cold_body) = request(&addr, "POST", "/plan", &body).unwrap();
    assert_eq!(status, 200, "{cold_body}");
    let cold: Value = serde_json::from_str(&cold_body).unwrap();
    assert_eq!(field(&cold, "model"), &Value::Str("alexnet".into()));
    assert_eq!(field(&cold, "cached"), &Value::Bool(false));
    assert!(matches!(field(&cold, "points"), Value::Array(a) if !a.is_empty()));

    let (status, warm_body) = request(&addr, "POST", "/plan", &body).unwrap();
    assert_eq!(status, 200);
    let warm: Value = serde_json::from_str(&warm_body).unwrap();
    assert_eq!(field(&warm, "cached"), &Value::Bool(true));
    assert_eq!(field(&warm, "points"), field(&cold, "points"));

    // A manifest with an unknown op is refused with its PL code in the
    // error body, and naming a model besides the manifest is ambiguous.
    let bad = r#"{"manifest": {"schema_version": 1, "name": "junk",
        "input": {"kind": "chw", "dims": [3, 32, 32]},
        "nodes": [{"op": "warp_drive", "attrs": {}}]}}"#;
    let (status, body) = request(&addr, "POST", "/plan", bad).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("PL702"), "{body}");

    let both = format!(r#"{{"model": "alexnet", "manifest": {exported}}}"#);
    let (status, body) = request(&addr, "POST", "/plan", &both).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("not both"), "{body}");

    let (status, _) = request(&addr, "POST", "/shutdown", "").unwrap();
    assert_eq!(status, 200);
    handle.join().unwrap();
}

/// Sends `head` and then `body` in `piece`-byte writes with a short pause
/// between them, and returns the raw reply.
fn send_in_pieces(addr: &str, head: &str, body: &[u8], piece: usize) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(head.as_bytes()).unwrap();
    for part in body.chunks(piece) {
        stream.write_all(part).unwrap();
        thread::sleep(Duration::from_millis(2));
    }
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    reply
}

#[test]
fn slow_and_truncated_bodies_are_read_to_the_end_or_refused() {
    let (addr, handle) = spawn_daemon(ServeConfig {
        workers: 1,
        batch: 4,
        ..ServeConfig::default()
    });

    // densenet201's manifest (~113 kB) trickles in as 4 KiB writes.
    let exported = powerlens_ingest::export(&zoo::by_name("densenet201").unwrap());
    let body = format!(r#"{{"tenant": "trickle", "manifest": {exported}}}"#);
    assert!(body.len() > 100_000, "{}", body.len());
    let head = format!(
        "POST /plan HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    let reply = send_in_pieces(&addr, &head, body.as_bytes(), 4096);
    let (status, json) = reply.split_once("\r\n\r\n").unwrap();
    assert!(status.starts_with("HTTP/1.1 200"), "{reply}");
    let v: Value = serde_json::from_str(json).unwrap();
    assert_eq!(field(&v, "model"), &Value::Str("densenet201".into()));

    // A body cut short: the client announces more bytes than it sends and
    // then closes its half. The daemon answers or closes, never hangs.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"POST /plan HTTP/1.1\r\nContent-Length: 500\r\n\r\n{\"model\": ")
        .unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut reply = String::new();
    stream
        .read_to_string(&mut reply)
        .expect("the daemon must answer or close within the timeout");
    assert!(
        reply.is_empty() || reply.starts_with("HTTP/1.1 400"),
        "{reply}"
    );

    let (status, body) = request(&addr, "POST", "/plan", r#"{"model": "alexnet"}"#).unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, _) = request(&addr, "POST", "/shutdown", "").unwrap();
    assert_eq!(status, 200);
    handle.join().unwrap();
}

#[test]
fn oversized_bodies_get_413_with_the_limit() {
    let (addr, handle) = spawn_daemon(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });

    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .write_all(b"POST /plan HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n")
        .unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    assert!(
        reply.starts_with("HTTP/1.1 413 Payload Too Large"),
        "{reply}"
    );
    let (_, json) = reply.split_once("\r\n\r\n").unwrap();
    let v: Value = serde_json::from_str(json).unwrap();
    let Value::Str(error) = field(&v, "error") else {
        panic!("error must be a string: {json}")
    };
    assert!(error.contains("2000000"), "{error}");
    assert!(
        error.contains(&powerlens_serve::http::MAX_BODY.to_string()),
        "{error}"
    );

    // A 400 says what was wrong with the request too.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .write_all(b"POST /plan HTTP/1.1\r\nContent-Length: lots\r\n\r\n")
        .unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
    assert!(reply.contains("bad content-length"), "{reply}");

    let (status, body) = request(&addr, "GET", "/healthz", "").unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, _) = request(&addr, "POST", "/shutdown", "").unwrap();
    assert_eq!(status, 200);
    handle.join().unwrap();
}

#[test]
fn zero_batch_is_a_400_and_every_worker_survives() {
    // Two workers and three zero-batch requests: if any of them reached
    // the planner or the simulator, it would take its worker down with it.
    let (addr, handle) = spawn_daemon(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    for path in ["/plan", "/compare", "/lint"] {
        let (status, body) =
            request(&addr, "POST", path, r#"{"model": "alexnet", "batch": 0}"#).unwrap();
        assert_eq!(status, 400, "{path}: {body}");
        assert!(body.contains("batch"), "{path}: {body}");
    }
    let (status, body) = request(&addr, "GET", "/healthz", "").unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, _) = request(&addr, "POST", "/shutdown", "").unwrap();
    assert_eq!(status, 200);
    handle.join().unwrap();
}

#[test]
fn overload_degrades_or_sheds_instead_of_hanging() {
    // One worker and a 2-deep queue: a burst of 8 slow planning requests
    // (distinct tenants force real cache misses) must overflow admission.
    let (addr, handle) = spawn_daemon(ServeConfig {
        workers: 1,
        queue_depth: 2,
        batch: 4,
        ..ServeConfig::default()
    });

    let responses: Vec<(u16, String)> = thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let addr = addr.clone();
                s.spawn(move || {
                    let body = format!(r#"{{"model": "resnet34", "tenant": "burst-{i}"}}"#);
                    request(&addr, "POST", "/plan", &body).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut shed = 0u64;
    let mut degraded = 0u64;
    let mut full = 0u64;
    for (status, body) in &responses {
        match status {
            429 => shed += 1,
            200 => {
                let v: Value = serde_json::from_str(body).unwrap();
                if field(&v, "degraded") == &Value::Bool(true) {
                    degraded += 1;
                } else {
                    full += 1;
                }
            }
            other => panic!("unexpected status {other}: {body}"),
        }
    }
    assert_eq!(shed + degraded + full, 8, "every client got an answer");
    assert!(
        shed + degraded >= 1,
        "a 1-worker/2-deep daemon must shed or degrade under an 8-burst \
         (shed={shed} degraded={degraded} full={full})"
    );

    let (status, _) = request(&addr, "POST", "/shutdown", "").unwrap();
    assert_eq!(status, 200);
    let report = handle.join().unwrap();
    assert_eq!(
        shed, report.rejected,
        "shed responses and the report must agree"
    );
    assert!(report.degraded >= degraded.min(1));
}

/// Blocks, levels, CPU level and scheme of one `/plan` response body.
fn plan_summary(v: &Value) -> (Vec<(f64, f64)>, Vec<f64>, f64, f64) {
    let num = |v: &Value| match v {
        Value::Num(n) => *n,
        other => panic!("expected a number, got {other:?}"),
    };
    let Value::Array(blocks) = field(v, "blocks") else {
        panic!("blocks must be an array")
    };
    let Value::Array(points) = field(v, "points") else {
        panic!("points must be an array")
    };
    (
        blocks
            .iter()
            .map(|b| (num(field(b, "start")), num(field(b, "end"))))
            .collect(),
        points.iter().map(|p| num(field(p, "gpu_level"))).collect(),
        num(field(v, "cpu_level")),
        num(field(v, "scheme_index")),
    )
}

#[test]
fn zoo_names_plan_and_lint_like_freshly_built_graphs() {
    let (addr, handle) = spawn_daemon(ServeConfig {
        workers: 2,
        batch: 4,
        ..ServeConfig::default()
    });
    let platform = ops::platform_by_name("agx").unwrap();
    let planner = ops::make_planner(&platform, 4, None);
    let names: Vec<&str> = zoo::all_models().into_iter().map(|(n, _)| n).collect();

    // One cold batch plans every zoo model; a single request per model
    // then hits the store through the same resolved graphs.
    let batch = format!(r#"{{"models": {names:?}, "tenant": "zoo-table"}}"#);
    let (status, body) = request(&addr, "POST", "/plan", &batch).unwrap();
    assert_eq!(status, 200, "{body}");
    let v: Value = serde_json::from_str(&body).unwrap();
    let Value::Array(cold) = field(&v, "plans") else {
        panic!("plans must be an array")
    };
    assert_eq!(cold.len(), names.len());

    for (name, cold) in names.iter().zip(cold) {
        let fresh = ops::graph_by_name(name).unwrap();
        let o = planner.plan_oracle(&fresh).unwrap();
        let expected = (
            o.view
                .blocks()
                .iter()
                .map(|b| (b.start as f64, b.end as f64))
                .collect::<Vec<_>>(),
            o.plan
                .points()
                .iter()
                .map(|p| p.gpu_level as f64)
                .collect::<Vec<_>>(),
            o.plan.cpu_level() as f64,
            o.scheme_index as f64,
        );
        assert_eq!(field(cold, "model"), &Value::Str(name.to_string()));
        assert_eq!(plan_summary(cold), expected, "{name} cold");

        let single = format!(r#"{{"model": "{name}", "tenant": "zoo-table"}}"#);
        let (status, body) = request(&addr, "POST", "/plan", &single).unwrap();
        assert_eq!(status, 200, "{body}");
        let warm: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(field(&warm, "cached"), &Value::Bool(true), "{name}");
        assert_eq!(plan_summary(&warm), expected, "{name} warm");
    }

    // `/lint` counts match linting a freshly built graph, cold and warm.
    for name in ["alexnet", "mobilenet_v3", "resnet34", "vit_base_32"] {
        let fresh = ops::graph_by_name(name).unwrap();
        let report = ops::lint_model(&platform, &fresh, 4).unwrap();
        let expected = (
            Value::Num(report.num_errors() as f64),
            Value::Num(report.num_warnings() as f64),
        );
        for pass in ["cold", "warm"] {
            let body = format!(r#"{{"model": "{name}", "batch": 4}}"#);
            let (status, body) = request(&addr, "POST", "/lint", &body).unwrap();
            assert_eq!(status, 200, "{body}");
            let v: Value = serde_json::from_str(&body).unwrap();
            let got = (field(&v, "errors").clone(), field(&v, "warnings").clone());
            assert_eq!(got, expected, "{name} {pass}");
        }
    }

    // Unknown names keep the error text of `ops::graph_by_name`.
    let (status, body) = request(&addr, "POST", "/plan", r#"{"model": "nope"}"#).unwrap();
    assert_eq!(status, 400);
    let v: Value = serde_json::from_str(&body).unwrap();
    assert_eq!(
        field(&v, "error"),
        &Value::Str(ops::graph_by_name("nope").unwrap_err())
    );

    let (status, _) = request(&addr, "POST", "/shutdown", "").unwrap();
    assert_eq!(status, 200);
    handle.join().unwrap();
}

#[test]
fn wildcard_bind_returns_promptly_after_shutdown() {
    let server = Server::bind(ServeConfig {
        addr: "0.0.0.0".to_string(),
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    let port = server.local_addr().rsplit_once(':').unwrap().1.to_string();
    let addr = format!("127.0.0.1:{port}");
    let (done, finished) = mpsc::channel();
    let handle = thread::spawn(move || {
        let report = server.run().expect("run");
        let _ = done.send(());
        report
    });

    let (status, _) = request(&addr, "GET", "/healthz", "").unwrap();
    assert_eq!(status, 200);
    let (status, _) = request(&addr, "POST", "/shutdown", "").unwrap();
    assert_eq!(status, 200);
    assert!(
        finished.recv_timeout(Duration::from_secs(1)).is_ok(),
        "run() still blocked 1 s after the /shutdown reply"
    );
    assert_eq!(handle.join().unwrap().requests, 2);
}

/// Connects and sends one request without reading the reply.
fn send(addr: &str, method: &str, path: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    let head = format!("{method} {path} HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
    stream.write_all(head.as_bytes()).unwrap();
    stream
}

/// Reads a reply to the end and returns its status code; `None` when the
/// daemon closed the connection without answering.
fn status_of(mut stream: TcpStream) -> Option<u16> {
    let mut reply = String::new();
    stream.read_to_string(&mut reply).ok()?;
    reply.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn requests_queued_before_shutdown_are_all_answered() {
    let (addr, handle) = spawn_daemon(ServeConfig {
        workers: 1,
        queue_depth: 5,
        ..ServeConfig::default()
    });

    // The only worker blocks on a request whose head is unfinished. The
    // daemon accepts connections in connect order, so /shutdown and three
    // requests queue behind it, then two probes meet a full 5-deep queue.
    let mut held = TcpStream::connect(&addr).unwrap();
    held.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
    let shutdown = send(&addr, "POST", "/shutdown");
    let queued: Vec<TcpStream> = (0..3).map(|_| send(&addr, "GET", "/healthz")).collect();
    let probes = [
        send(&addr, "GET", "/healthz"),
        send(&addr, "GET", "/healthz"),
    ];

    let (replies, probe_statuses) = mpsc::channel();
    let mut statuses = thread::scope(|s| {
        for probe in probes {
            let replies = replies.clone();
            s.spawn(move || replies.send(status_of(probe)).unwrap());
        }
        // Whenever the worker takes the held request off the queue, at
        // least one probe is shed, and no queued probe can be answered
        // while the worker is held. So the first reply is a 429, and it
        // means /shutdown and the three requests have been admitted.
        let first = probe_statuses.recv().unwrap();
        assert_eq!(first, Some(429));

        // Release the worker: it answers the held request, then /shutdown,
        // then everything still queued.
        held.write_all(b"\r\n").unwrap();
        assert_eq!(status_of(held), Some(200));
        assert_eq!(status_of(shutdown), Some(200));
        for stream in queued {
            assert_eq!(status_of(stream), Some(200));
        }
        vec![first, probe_statuses.recv().unwrap()]
    });
    // The other probe was shed, queued and answered, or accepted only
    // after /shutdown and closed unanswered.
    statuses.sort();
    assert!(
        matches!(statuses[..], [None | Some(200 | 429), Some(429)]),
        "{statuses:?}"
    );
    let shed = statuses.iter().filter(|s| **s == Some(429)).count() as u64;
    let answered = statuses.iter().filter(|s| **s == Some(200)).count() as u64;
    let report = handle.join().unwrap();
    assert_eq!(report.rejected, shed);
    assert_eq!(report.requests, 5 + answered);
}
