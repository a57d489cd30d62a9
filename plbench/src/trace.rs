//! The traced run: an in-process replay of a workload's request stream
//! through the public functions the daemon calls, with a span around each
//! call into a crate.
//!
//! Spans live in memory (name, start, end, parent, request id) and are
//! written out once the run ends. The replay mirrors the daemon's request
//! path stage by stage; on a miss it mirrors `PowerLens::plan_oracle` call
//! by call, so features, distance matrix, DBSCAN sweep and per-block oracle
//! decisions each get their own span. Every replayed response is checked
//! against the same reference as the live responses.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use powerlens::{
    evaluate_plan, InstrumentationPlan, InstrumentationPoint, PlanOutcome, PowerLens,
    PowerLensConfig,
};
use powerlens_cluster::{power_distance_matrix, smooth_features, DistanceCache, PowerView};
use powerlens_dnn::Graph;
use powerlens_features::{depthwise_features, GlobalFeatures};
use powerlens_governors::oracle;
use powerlens_obs as obs;
use powerlens_serve::ops;
use powerlens_serve::proto::{
    LintRequest, LintResponse, PlanBlock, PlanPoint, PlanRequest, PlanResponse,
};
use powerlens_store::{cache_key_for, CacheMode, LintCache, MemTier, PlanStore};

use crate::check::{verify_body, References, BATCH, PLATFORM};
use crate::inputs::{Kind, Request, Source, Workload};

/// Upper bound on replayed requests per run, which bounds the span file
/// (about 1 kB of spans per request).
pub const MAX_REPLAYED: u64 = 20_000;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<crate>.<operation>`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Stream index of the request the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    /// Every span recorded so far, in start order.
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::new(),
            request: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested in the current span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request: self.request,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now();
        out
    }

    /// Cost of one empty span in ns (see [`per_call_ns`]). The spans it
    /// records are dropped again.
    pub fn empty_span_ns(&mut self) -> f64 {
        let keep = self.spans.len();
        let ns = per_call_ns(20_000, || self.span("trace.empty", |_| ()));
        self.spans.truncate(keep);
        ns
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// I/O errors from creating or writing the file.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// What one replayed request produced besides its spans.
struct Served {
    layers: usize,
    blocks: usize,
    schemes_scored: usize,
    body: String,
}

/// In-process stand-ins for the daemon's shared state, plus the counts the
/// replay gathers.
pub struct Replay<'a> {
    w: &'a Workload,
    refs: &'a References,
    store: PlanStore,
    /// Takes the outcomes planned on a miss: `PlanStore` inserts into its
    /// own memory tier, which is not public, so the replay inserts into a
    /// tier of the same size.
    cold: MemTier,
    lint_cache: LintCache,
    /// The span recorder.
    pub tracer: Tracer,
    /// Replayed requests.
    pub requests: u64,
    /// Replayed responses that differed from the reference.
    pub failures: Vec<String>,
    failed: u64,
    layers: Vec<usize>,
    blocks: Vec<usize>,
    schemes: Vec<usize>,
}

impl<'a> Replay<'a> {
    /// Initialises obs the way `serve` does and builds the same store and
    /// lint cache the daemon builds.
    pub fn new(w: &'a Workload, refs: &'a References) -> Replay<'a> {
        if !obs::enabled() {
            obs::init(obs::TraceMode::Json);
            obs::set_subscriber(Arc::new(obs::NullSubscriber));
        }
        Replay {
            w,
            refs,
            store: PlanStore::with_shards(CacheMode::Mem, 256, 8, None)
                .expect("a memory-only store needs no I/O"),
            cold: MemTier::with_shards(256, 8),
            lint_cache: LintCache::mem_only(),
            tracer: Tracer::new(),
            requests: 0,
            failures: Vec::new(),
            failed: 0,
            layers: Vec::new(),
            blocks: Vec::new(),
            schemes: Vec::new(),
        }
    }

    /// Replays `first..first + count` without keeping spans or counts:
    /// the in-process twin of the daemon's warm-up pass.
    pub fn warm(&mut self, first: u64, count: u64) {
        let keep = self.tracer.spans.len();
        for index in first..first + count {
            let req = self.w.request(index);
            let _ = self.request(&req);
        }
        self.tracer.spans.truncate(keep);
    }

    /// Replays requests from `first` on until `budget` has passed and at
    /// least `min_count` were replayed, stopping at [`MAX_REPLAYED`].
    pub fn run(&mut self, first: u64, budget: Duration, min_count: u64) {
        let started = Instant::now();
        let mut index = first;
        while index < first + min_count
            || (started.elapsed() < budget && self.requests < MAX_REPLAYED)
        {
            let req = self.w.request(index);
            self.tracer.request = index;
            self.requests += 1;
            match self.request(&req) {
                Ok(s) => {
                    let expected = &self.refs.expected[req.subject];
                    let name = self.w.subjects[req.subject].graph.name();
                    if let Err(e) = verify_body(expected, name, req.tenant.as_deref(), 200, &s.body)
                    {
                        self.fail(index, e);
                    }
                    self.layers.push(s.layers);
                    self.blocks.push(s.blocks);
                    self.schemes.push(s.schemes_scored);
                }
                Err(e) => self.fail(index, e),
            }
            self.probe(&req);
            index += 1;
        }
    }

    fn fail(&mut self, index: u64, e: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(format!("replayed request {index}: {e}"));
        }
    }

    /// Replayed requests that failed their check.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    fn request(&mut self, req: &Request) -> Result<Served, String> {
        let (w, refs) = (self.w, self.refs);
        let Replay {
            tracer,
            store,
            cold,
            lint_cache,
            ..
        } = self;
        tracer.span("serve.request", |t| {
            if w.kind == Kind::LintRepeat {
                lint_request(t, refs, lint_cache, req)
            } else {
                plan_request(t, w.kind, refs, store, cold, req)
            }
        })
    }

    /// Probes on the request's graph that sit beside the serve path rather
    /// than on it: the streaming manifest reader on the same bytes, the
    /// distance matrix alone, and the uncached lint the cache saves.
    fn probe(&mut self, req: &Request) {
        let subject = &self.w.subjects[req.subject];
        let t = &mut self.tracer;
        if let Source::Manifest(text) = &subject.source {
            t.span("ingest.import_str", |_| {
                black_box(powerlens_ingest::import_str(black_box(text)).map(|i| i.graph))
            })
            .expect("manifests generated at set-up import");
        }
        match self.w.kind {
            Kind::ColdPlans => {
                let params = PowerLensConfig::default().schemes.get(0);
                let x = smooth_features(&depthwise_features(&subject.graph), params.smooth_radius);
                let _ = t.span("cluster.distance_matrix", |_| {
                    black_box(power_distance_matrix(&x, params.alpha, params.lambda))
                });
            }
            Kind::LintRepeat => {
                let _ = t.span("lint.model_cold", |_| {
                    black_box(ops::lint_model(&self.refs.platform, &subject.graph, BATCH))
                });
            }
            Kind::WarmPlanHits | Kind::ManifestHits => {}
        }
    }
}

fn plan_request(
    t: &mut Tracer,
    kind: Kind,
    refs: &References,
    store: &PlanStore,
    cold: &MemTier,
    req: &Request,
) -> Result<Served, String> {
    let parsed: PlanRequest = t
        .span("serve.request_parse", |_| serde_json::from_str(&req.body))
        .map_err(|e| e.to_string())?;
    let platform = refs.platform.clone();
    let pl = t.span("core.make_planner", |_| {
        ops::make_planner(&platform, BATCH, None)
    });
    let graph = match (&parsed.manifest, &parsed.model) {
        (Some(m), _) => {
            t.span("ingest.import_value", |_| powerlens_ingest::import_value(m))
                .map_err(|e| e.to_string())?
                .graph
        }
        (None, Some(name)) => t.span("dnn.graph_by_name", |_| ops::graph_by_name(name))?,
        (None, None) => return Err("request names no graph".to_string()),
    };
    let tenant = parsed.tenant.as_deref();
    let key = t.span("store.cache_key", |t| {
        t.span("dnn.fingerprint", |_| black_box(graph.fingerprint()));
        cache_key_for(&pl, &graph, tenant)
    });
    let (outcome, cached, schemes_scored) = if kind.hits() {
        let (o, cached) = t
            .span("store.hit", |_| store.lookup_or_plan(&pl, &graph, tenant))
            .map_err(|e| e.to_string())?;
        (o, cached, 0)
    } else {
        if t.span("store.lookup", |_| store.get_cached(&pl, &graph, tenant))
            .is_some()
        {
            return Err("fresh tenant hit the cache".to_string());
        }
        let (o, scored) = t.span("core.plan_oracle", |t| plan_oracle(t, &pl, &graph))?;
        t.span("store.insert", |_| cold.insert(key.0, o.clone()));
        (o, false, scored)
    };
    let body = t.span("serve.response_encode", |_| {
        serde_json::to_string(&plan_response(&graph, &platform, tenant, &outcome, cached))
    });
    Ok(Served {
        layers: graph.num_layers(),
        blocks: outcome.view.num_blocks(),
        schemes_scored,
        body: body.map_err(|e| e.to_string())?,
    })
}

fn lint_request(
    t: &mut Tracer,
    refs: &References,
    cache: &LintCache,
    req: &Request,
) -> Result<Served, String> {
    let parsed: LintRequest = t
        .span("serve.request_parse", |_| serde_json::from_str(&req.body))
        .map_err(|e| e.to_string())?;
    let platform = refs.platform.clone();
    let name = parsed.model.ok_or("lint request names no model")?;
    let graph = t.span("dnn.graph_by_name", |_| ops::graph_by_name(&name))?;
    t.span("dnn.fingerprint", |_| black_box(graph.fingerprint()));
    let reports = t.span("lint.cached", |_| {
        ops::lint_model_cached(&platform, &graph, BATCH, cache)
    })?;
    let report = t.span("lint.report_json", |_| powerlens_lint::to_json(&reports));
    let resp = LintResponse {
        model: graph.name().to_string(),
        errors: reports.iter().map(|r| r.num_errors()).sum(),
        warnings: reports.iter().map(|r| r.num_warnings()).sum(),
        report,
    };
    let body = t.span("serve.response_encode", |_| serde_json::to_string(&resp));
    Ok(Served {
        layers: graph.num_layers(),
        blocks: 0,
        schemes_scored: 0,
        body: body.map_err(|e| e.to_string())?,
    })
}

/// `PowerLens::plan_oracle`, call for call, with a span around each call
/// into another crate. Returns the outcome and the number of schemes
/// scored.
fn plan_oracle(
    t: &mut Tracer,
    pl: &PowerLens<'_>,
    graph: &Graph,
) -> Result<(PlanOutcome, usize), String> {
    let platform = pl.platform();
    let config = pl.config();
    t.span("features.global", |_| {
        black_box(GlobalFeatures::of_graph(graph))
    });
    let mut best: Option<(f64, usize, PowerView, InstrumentationPlan)> = None;
    let mut cache: Option<DistanceCache> = None;
    for idx in 0..config.schemes.len() {
        let params = config.schemes.get(idx);
        let c = match cache.take() {
            Some(c) if c.matches(&params) => c,
            _ => t
                .span("cluster.distance_build", |t| {
                    let x = t.span("features.depthwise", |_| depthwise_features(graph));
                    DistanceCache::from_features(&x, &params)
                })
                .map_err(|e| e.to_string())?,
        };
        let v = t.span("cluster.dbscan", |_| c.cluster(&params));
        cache = Some(c);
        let view = pl.coarsen_view(graph, v);
        let points = view
            .blocks()
            .iter()
            .map(|b| InstrumentationPoint {
                layer: b.start,
                gpu_level: t.span("governors.oracle_level", |_| {
                    oracle::best_level_for_range(
                        platform,
                        graph,
                        b.start,
                        b.end,
                        config.batch,
                        config.slack,
                    )
                }),
            })
            .collect();
        let plan = InstrumentationPlan::new(points, platform.cpu_table().max_level());
        let eval = t.span("core.evaluate_plan", |_| {
            evaluate_plan(platform, graph, &plan, config.batch, config.label_images)
        });
        let better = match best.as_ref() {
            None => true,
            Some((ee, _, v, _)) => {
                eval.energy_efficiency > ee * 1.0005
                    || (eval.energy_efficiency > ee * 0.9995 && view.num_blocks() < v.num_blocks())
            }
        };
        if better {
            best = Some((eval.energy_efficiency, idx, view, plan));
        }
    }
    let (_, scheme_index, view, plan) = best.ok_or("empty scheme space")?;
    let outcome = PlanOutcome {
        view,
        plan,
        scheme_index,
        timings: Default::default(),
    };
    Ok((outcome, config.schemes.len()))
}

/// The daemon's JSON view of one planned model.
fn plan_response(
    graph: &Graph,
    platform: &powerlens_platform::Platform,
    tenant: Option<&str>,
    outcome: &PlanOutcome,
    cached: bool,
) -> PlanResponse {
    PlanResponse {
        model: graph.name().to_string(),
        platform: PLATFORM.to_string(),
        batch: BATCH,
        tenant: tenant.unwrap_or("").to_string(),
        cached,
        degraded: false,
        scheme_index: outcome.scheme_index,
        cpu_level: outcome.plan.cpu_level(),
        blocks: outcome
            .view
            .blocks()
            .iter()
            .map(|b| PlanBlock {
                start: b.start,
                end: b.end,
            })
            .collect(),
        points: outcome
            .plan
            .points()
            .iter()
            .map(|p| PlanPoint {
                layer: p.layer,
                gpu_level: p.gpu_level,
                freq_mhz: platform.gpu_table().freq_mhz(p.gpu_level),
            })
            .collect(),
    }
}

/// Median of `v` (sorts it); 0 for an empty slice.
pub fn median_f(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn mean(v: &[usize]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<usize>() as f64 / v.len() as f64
    }
}

/// Per-call cost of `f` in ns: the median of five batches of `n` calls.
pub fn per_call_ns(n: usize, mut f: impl FnMut()) -> f64 {
    let mut batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..n {
                f();
            }
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    median_f(&mut batches)
}

/// Crates whose self time is reported per request.
pub const CRATES: [&str; 9] = [
    "serve",
    "dnn",
    "ingest",
    "core",
    "features",
    "cluster",
    "governors",
    "store",
    "lint",
];

/// Span statistics the per-layer metrics are read from.
pub struct Summary {
    dur: BTreeMap<&'static str, Vec<f64>>,
    self_ns: BTreeMap<&'static str, Vec<f64>>,
    /// Per request: name -> summed duration of that name's spans.
    per_request: BTreeMap<u64, BTreeMap<&'static str, f64>>,
    /// Per request: crate -> summed self time inside the request tree.
    crate_self: BTreeMap<u64, BTreeMap<&'static str, f64>>,
    /// Names of the direct children of `serve.request`.
    stages: Vec<&'static str>,
    requests: usize,
    /// Mean graph layers per request.
    pub layers: f64,
    /// Mean power blocks of the served plans per request.
    pub blocks: f64,
    /// Mean schemes scored per request.
    pub schemes: f64,
}

impl Summary {
    /// Summarises the replay's spans and counts.
    pub fn of(r: &Replay<'_>) -> Summary {
        let spans = &r.tracer.spans;
        let mut children = vec![0u64; spans.len()];
        let mut root = vec![0usize; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p] += s.dur();
                root[i] = root[p];
            } else {
                root[i] = i;
            }
        }
        let mut out = Summary {
            dur: BTreeMap::new(),
            self_ns: BTreeMap::new(),
            per_request: BTreeMap::new(),
            crate_self: BTreeMap::new(),
            stages: Vec::new(),
            requests: r.requests as usize,
            layers: mean(&r.layers),
            blocks: mean(&r.blocks),
            schemes: mean(&r.schemes),
        };
        for (i, s) in spans.iter().enumerate() {
            let self_ns = s.dur().saturating_sub(children[i]) as f64;
            out.dur.entry(s.name).or_default().push(s.dur() as f64);
            out.self_ns.entry(s.name).or_default().push(self_ns);
            *out.per_request
                .entry(s.request)
                .or_default()
                .entry(s.name)
                .or_default() += s.dur() as f64;
            if spans[root[i]].name == "serve.request" {
                let krate = s.name.split('.').next().unwrap_or("");
                if let Some(k) = CRATES.iter().find(|c| **c == krate) {
                    *out.crate_self
                        .entry(s.request)
                        .or_default()
                        .entry(k)
                        .or_default() += self_ns;
                }
                if s.parent == Some(root[i]) && !out.stages.contains(&s.name) {
                    out.stages.push(s.name);
                }
            }
        }
        out
    }

    /// Median duration of spans named `name`, in ns; 0 when there are none.
    pub fn median_ns(&self, name: &str) -> f64 {
        self.dur.get(name).map_or(0.0, |v| median_f(&mut v.clone()))
    }

    /// Median self time of spans named `name`, in ns.
    pub fn median_self_ns(&self, name: &str) -> f64 {
        self.self_ns
            .get(name)
            .map_or(0.0, |v| median_f(&mut v.clone()))
    }

    /// Median over requests of the summed duration of `name`'s spans, over
    /// the requests that have any.
    pub fn median_per_request_ns(&self, name: &str) -> f64 {
        let mut v: Vec<f64> = self
            .per_request
            .values()
            .filter_map(|m| m.get(name).copied())
            .collect();
        median_f(&mut v)
    }

    /// Mean self time per replayed request inside `krate`, in ns.
    pub fn crate_self_ns(&self, krate: &str) -> f64 {
        let total = self
            .crate_self
            .values()
            .filter_map(|m| m.get(krate))
            .fold(0.0, |acc, ns| acc + ns);
        total / self.requests.max(1) as f64
    }

    /// Sum over the serve path's stages of the stage's median duration
    /// weighted by the share of requests that run it, in ns. On a workload
    /// whose requests all run the same stages this is the plain sum of the
    /// stage medians.
    pub fn stage_sum_ns(&self) -> f64 {
        let n = self.requests.max(1) as f64;
        self.stages
            .iter()
            .map(|name| {
                let with = self
                    .per_request
                    .values()
                    .filter(|m| m.contains_key(name))
                    .count() as f64;
                self.median_per_request_ns(name) * with / n
            })
            .sum()
    }
}
