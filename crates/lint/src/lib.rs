//! Static analysis for PowerLens artifacts: graphs, power views, DVFS plans.
//!
//! PowerLens' correctness hinges on structural invariants the paper states
//! but code elsewhere only spot-checks: power views must tile the layer
//! sequence contiguously and without overlap (Algorithm 1 post-processing),
//! DVFS instrumentation points must be preset *before* each block at a
//! frequency level the platform actually exposes (the 13/14-level Jetson
//! tables), and graphs must thread activation shapes consistently so the
//! depthwise features mean what the predictors assume. This crate turns
//! those invariants into a rule engine with stable error codes
//! (`PL001`-`PL2xx`), severities, source locations, and machine-readable
//! output (human text, JSON, SARIF 2.1.0) — the offline-position analog of
//! NeuralPower/DSO-style static model validation.
//!
//! The rule packs:
//!
//! * **graph** ([`lint_graph`]): shape-inference consistency, dangling or
//!   cyclic skip edges, degenerate operator hyperparameters, stale cost
//!   caches, zero-FLOP layers;
//! * **view** ([`lint_view`]): contiguity, non-overlap, full coverage,
//!   minimum block length, block/layer count agreement;
//! * **plan** ([`lint_plan`]): frequency levels exist on the target
//!   [`Platform`], points precede their blocks in monotone order, no-op
//!   transitions, oracle cross-checks;
//! * **dataflow** ([`lint_dataflow`]): worklist fixpoint facts (reachability,
//!   liveness, output-size intervals, energy envelopes) cross-checked
//!   against the plan, the platform's frequency tables, and the view;
//! * **ingest** ([`lint_import`]): external model manifests flowing through
//!   the `powerlens-ingest` importer — unsupported schema versions, unknown
//!   operators, out-of-range sparsity, shape-inference failures, dangling
//!   or cyclic skip edges (`PL7xx`).
//!
//! CI-grade infrastructure on top of the packs: per-rule metadata
//! (category, since-version, help URIs — [`RuleInfo`]), stable diagnostic
//! fingerprints, inline suppressions ([`LintConfig::suppressions`]), SARIF
//! baseline ratcheting ([`baseline_fingerprints`] / [`new_findings`]), and
//! lint-report caching content-addressed through `powerlens-store`.
//!
//! The catalog lives in `docs/LINTS.md`; gates run in the `lint` CLI
//! subcommand, in debug builds of `core::pipeline` / `sim::engine`, and in
//! `scripts/check.sh` over every zoo model.
//!
//! # Example
//!
//! ```
//! use powerlens_lint::{lint_graph, LintConfig};
//! use powerlens_dnn::zoo;
//!
//! let report = lint_graph(&zoo::resnet34(), &LintConfig::default());
//! assert!(!report.has_errors());
//! ```

#![forbid(unsafe_code)]

mod baseline;
pub mod dataflow;
mod dataflow_rules;
mod diag;
mod fault_rules;
mod graph_rules;
mod ingest_rules;
mod output;
mod plan_rules;
mod rules;
mod store_rules;
mod view_rules;

use std::collections::BTreeSet;

use powerlens_cluster::{DistanceCache, PowerView};
use powerlens_dnn::Graph;
use powerlens_faults::FaultPlan;
use powerlens_obs as obs;
use powerlens_platform::{FreqLevel, InstrumentationPlan, Platform};

pub use baseline::{baseline_fingerprints, new_findings, NewFinding, FINGERPRINT_KEY};
pub use dataflow_rules::DataflowContext;
pub use diag::{fingerprint, Diagnostic, LintReport, Location, Severity};
pub use fault_rules::MAX_REASONABLE_SIGMA;
pub use ingest_rules::ImportIssue;
pub use output::{
    dedupe_for_render, render, report_from_value, report_to_value, to_json, to_sarif, Format,
};
pub use plan_rules::PlanContext;
pub use rules::{all_rules, rule_by_code, Pack, RuleInfo, RULES_VERSION};
pub use store_rules::{platform_signature, CachedPlanContext};

/// Tunables of the analyzer; rule *logic* is fixed, thresholds are not.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Blocks shorter than this trigger `PL106` (warning).
    pub min_block_len: usize,
    /// Views with more blocks than this trigger `PL107` (info).
    pub max_blocks: usize,
    /// `PL209` fires when a block's level differs from the oracle's by more
    /// than this many frequency steps.
    pub oracle_tolerance: usize,
    /// `PL506` fires when boot-frequency energy before the first
    /// instrumentation point exceeds this fraction of the best-case total.
    pub boot_energy_fraction: f64,
    /// `PL507` fires when a block's busy-utilization envelopes are disjoint
    /// by more than this gap.
    pub activity_margin: f64,
    /// Rule codes to disable entirely (e.g. `{"PL011"}`). A set, so the
    /// per-finding `enabled` check is O(log n) instead of a linear scan.
    pub disabled: BTreeSet<String>,
    /// Inline suppressions of individual findings: `"PL503"`,
    /// `"PL503@resnet34"`, or `"PL503@resnet34/layer 7"`. Unlike `disabled`
    /// (the rule never runs), a suppressed rule still runs and its findings
    /// are dropped after the fact — scoped waivers, not dead switches.
    pub suppressions: Vec<String>,
}

impl Default for LintConfig {
    /// Thresholds matching the pipeline defaults (`PowerLensConfig`):
    /// min block length 2, at most 8 blocks, oracle tolerance 2 levels,
    /// 10% boot-energy budget, 0.25 activity-envelope margin.
    fn default() -> Self {
        LintConfig {
            min_block_len: 2,
            max_blocks: 8,
            oracle_tolerance: 2,
            boot_energy_fraction: 0.10,
            activity_margin: 0.25,
            disabled: BTreeSet::new(),
            suppressions: Vec::new(),
        }
    }
}

impl LintConfig {
    /// `true` unless `code` is in the disabled set.
    pub fn enabled(&self, code: &str) -> bool {
        !self.disabled.contains(code)
    }

    /// Applies this config's inline suppressions to a finished report.
    fn finish(&self, mut report: LintReport) -> LintReport {
        report.suppress(&self.suppressions);
        report
    }
}

/// Runs the **graph pack** over a graph.
pub fn lint_graph(graph: &Graph, config: &LintConfig) -> LintReport {
    let _span = obs::span("lint.graph");
    let mut report = LintReport::new(graph.name());
    graph_rules::check(graph, config, &mut report);
    config.finish(report)
}

/// Runs the **view pack** over a power view; pass the source graph to also
/// check coverage (`PL104`).
pub fn lint_view(view: &PowerView, graph: Option<&Graph>, config: &LintConfig) -> LintReport {
    let _span = obs::span("lint.view");
    let subject = graph.map_or_else(|| "power-view".to_string(), |g| g.name().to_string());
    let mut report = LintReport::new(subject);
    view_rules::check(view, graph, config, &mut report);
    config.finish(report)
}

/// Runs the distance-cache shape rule (`PL108`, view pack) over a
/// [`DistanceCache`]; pass the source graph to also check that the cache
/// covers its layers.
///
/// Caches built by `DistanceCache::build` satisfy the rule by construction
/// (debug builds also assert it on every re-threshold); this entry point is
/// the release-mode gate for caches assembled from outside sources —
/// deserialized, transferred, or built with `from_parts_unchecked`.
pub fn lint_distance_cache(
    cache: &DistanceCache,
    graph: Option<&Graph>,
    config: &LintConfig,
) -> LintReport {
    let _span = obs::span("lint.distance_cache");
    let subject = graph.map_or_else(|| "distance-cache".to_string(), |g| g.name().to_string());
    let mut report = LintReport::new(subject);
    view_rules::check_distance_cache(cache, graph, config, &mut report);
    config.finish(report)
}

/// Runs the **plan pack** over a DVFS plan in its deployment context (target
/// platform, and optionally the source view/graph and an oracle callback).
pub fn lint_plan(ctx: &PlanContext<'_>, config: &LintConfig) -> LintReport {
    let _span = obs::span("lint.plan");
    let subject = ctx
        .graph
        .map_or_else(|| "dvfs-plan".to_string(), |g| g.name().to_string());
    let mut report = LintReport::new(subject);
    plan_rules::check(ctx, config, &mut report);
    config.finish(report)
}

/// Runs the **store pack** plus the plan pack over a plan deserialized from
/// the content-addressed plan cache. This is the load-time gate: a plan that
/// was valid when written may no longer be deployable — the entry may have
/// been written for a different platform (`PL301`), under an older schema
/// (`PL302`), or corrupted into levels the current frequency tables do not
/// expose (plan pack).
pub fn lint_cached_plan(ctx: &CachedPlanContext<'_>, config: &LintConfig) -> LintReport {
    let _span = obs::span("lint.store");
    let mut report = LintReport::new("cached-plan");
    store_rules::check(ctx, config, &mut report);
    report.merge(lint_plan(
        &PlanContext {
            plan: ctx.plan,
            platform: ctx.platform,
            view: None,
            graph: None,
            oracle: None,
        },
        config,
    ));
    config.finish(report)
}

/// Runs the **faults pack** over a fault-injection plan. Pass the target
/// platform to also validate the GPU level cap against its frequency table
/// (`PL405`). This is the entry gate of the `faultsim` subcommand and the
/// `--faults` flag: a plan with error-severity findings never injects.
pub fn lint_fault_plan(
    plan: &FaultPlan,
    platform: Option<&Platform>,
    config: &LintConfig,
) -> LintReport {
    let _span = obs::span("lint.faults");
    let mut report = LintReport::new("fault-plan");
    fault_rules::check(plan, platform, config, &mut report);
    config.finish(report)
}

/// Runs the **dataflow pack**: fixpoint facts over the graph cross-checked
/// against whatever companion artifacts the [`DataflowContext`] supplies.
pub fn lint_dataflow(ctx: &DataflowContext<'_>, config: &LintConfig) -> LintReport {
    let _span = obs::span("lint.dataflow");
    config.finish(dataflow_rules::check(ctx, config))
}

/// Runs the **ingest pack** (`PL7xx`) over the issues an importer raised
/// against an external model manifest. `subject` is the manifest's model
/// name (or file path when the name is unparseable).
pub fn lint_import(subject: &str, issues: &[ImportIssue], config: &LintConfig) -> LintReport {
    let _span = obs::span("lint.ingest");
    let mut report = LintReport::new(subject);
    ingest_rules::check(issues, config, &mut report);
    config.finish(report)
}

/// Runs every artifact pack (graph, view, plan, dataflow) over a full
/// pipeline output at the given batch size and merges the findings.
pub fn lint_pipeline(
    graph: &Graph,
    view: &PowerView,
    plan: &InstrumentationPlan,
    platform: &Platform,
    batch: usize,
    oracle: Option<&dyn Fn(usize, usize) -> FreqLevel>,
    config: &LintConfig,
) -> LintReport {
    let mut report = lint_graph(graph, config);
    report.merge(lint_view(view, Some(graph), config));
    report.merge(lint_plan(
        &PlanContext {
            plan,
            platform,
            view: Some(view),
            graph: Some(graph),
            oracle,
        },
        config,
    ));
    report.merge(lint_dataflow(
        &DataflowContext {
            graph,
            platform: Some(platform),
            view: Some(view),
            plan: Some(plan),
            batch,
            claim_images_per_joule: None,
            sweep_limit: dataflow::DEFAULT_SWEEP_LIMIT,
        },
        config,
    ));
    report
}

/// Surfaces a report's counts through the observability layer as the
/// `lint.errors` / `lint.warnings` counters (no-op when tracing is off).
pub fn record_to_obs(report: &LintReport) {
    if !obs::enabled() {
        return;
    }
    obs::counter("lint.errors", report.num_errors() as u64);
    obs::counter("lint.warnings", report.num_warnings() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerlens_dnn::zoo;

    #[test]
    fn default_config_enables_everything() {
        let c = LintConfig::default();
        assert!(c.enabled("PL001"));
        assert!(c.enabled("PL209"));
    }

    #[test]
    fn disabled_rules_do_not_fire() {
        let mut c = LintConfig::default();
        c.disabled.insert("PL011".to_string());
        let g = zoo::resnet34();
        let r = lint_graph(&g, &c);
        assert!(!r.fired("PL011"));
        let r_on = lint_graph(&g, &LintConfig::default());
        assert!(
            r_on.fired("PL011"),
            "resnet34 has zero-FLOP flatten/add-free layers"
        );
    }

    #[test]
    fn cached_plan_gate_catches_drift_and_schema() {
        use powerlens_platform::{InstrumentationPoint, Platform};

        let agx = Platform::agx();
        let plan = InstrumentationPlan::new(
            vec![InstrumentationPoint {
                layer: 0,
                gpu_level: 3,
            }],
            agx.cpu_table().max_level(),
        );
        let sig = platform_signature(&agx);
        let config = LintConfig::default();

        let clean = lint_cached_plan(
            &CachedPlanContext {
                plan: &plan,
                platform: &agx,
                entry_platform: &sig,
                entry_schema: 7,
                expected_schema: 7,
            },
            &config,
        );
        assert!(!clean.has_errors(), "{:?}", clean.diagnostics);

        let drifted = lint_cached_plan(
            &CachedPlanContext {
                plan: &plan,
                platform: &agx,
                entry_platform: &platform_signature(&Platform::tx2()),
                entry_schema: 7,
                expected_schema: 7,
            },
            &config,
        );
        assert!(drifted.fired("PL301") && drifted.has_errors());

        let outdated = lint_cached_plan(
            &CachedPlanContext {
                plan: &plan,
                platform: &agx,
                entry_platform: &sig,
                entry_schema: 6,
                expected_schema: 7,
            },
            &config,
        );
        assert!(outdated.fired("PL302") && outdated.has_errors());
    }

    #[test]
    fn cached_plan_gate_runs_the_plan_pack() {
        use powerlens_platform::{InstrumentationPoint, Platform};

        let agx = Platform::agx();
        let sig = platform_signature(&agx);
        // A level beyond the AGX table: corrupt or hand-edited entry.
        let plan = InstrumentationPlan::from_points_unchecked(
            vec![InstrumentationPoint {
                layer: 0,
                gpu_level: 999,
            }],
            agx.cpu_table().max_level(),
        );
        let report = lint_cached_plan(
            &CachedPlanContext {
                plan: &plan,
                platform: &agx,
                entry_platform: &sig,
                entry_schema: 7,
                expected_schema: 7,
            },
            &LintConfig::default(),
        );
        assert!(report.fired("PL203") && report.has_errors());
    }

    #[test]
    fn zoo_models_are_error_free() {
        for (name, build) in zoo::all_models() {
            let g = build();
            let r = lint_graph(&g, &LintConfig::default());
            assert!(!r.has_errors(), "{name}: {:?}", r.diagnostics);
            let df = lint_dataflow(&DataflowContext::new(&g), &LintConfig::default());
            assert!(!df.has_errors(), "{name} dataflow: {:?}", df.diagnostics);
        }
    }

    #[test]
    fn suppressions_drop_individual_findings() {
        // GoogLeNet's nine shape-restoring branch pools are stable PL502
        // anchors — plenty of findings to suppress selectively.
        let g = zoo::googlenet();
        let baseline = lint_dataflow(&DataflowContext::new(&g), &LintConfig::default());
        let locs: Vec<String> = baseline
            .diagnostics
            .iter()
            .filter(|d| d.rule.code == "PL502")
            .map(|d| d.location.to_string())
            .collect();
        assert!(locs.len() > 1, "need several PL502 anchors, got {locs:?}");

        let mut c = LintConfig::default();
        c.suppressions.push(format!("PL502@googlenet/{}", locs[0]));
        let scoped = lint_dataflow(&DataflowContext::new(&g), &c);
        assert!(!scoped
            .diagnostics
            .iter()
            .any(|d| d.rule.code == "PL502" && d.location.to_string() == locs[0]));
        // Other anchors of the same rule survive a scoped suppression.
        assert!(scoped.fired("PL502"));

        let mut all = LintConfig::default();
        all.suppressions.push("PL502".to_string());
        assert!(!lint_dataflow(&DataflowContext::new(&g), &all).fired("PL502"));
    }
}
