//! Seeded-fault coverage: every error-severity rule in the catalog must fire
//! on a deliberately corrupted artifact, and every zoo model must lint clean.

use powerlens_cluster::{cluster_graph, ClusterParams, DistanceCache, PowerBlock, PowerView};
use powerlens_dnn::{zoo, Graph, OpKind, TensorShape};
use powerlens_faults::{FaultPlan, MAX_RETRY_BUDGET};
use powerlens_lint::{
    all_rules, lint_cached_plan, lint_dataflow, lint_distance_cache, lint_fault_plan, lint_graph,
    lint_import, lint_plan, lint_view, platform_signature, render, to_sarif, CachedPlanContext,
    DataflowContext, Format, ImportIssue, LintConfig, LintReport, Pack, PlanContext, Severity,
};
use powerlens_platform::{InstrumentationPlan, InstrumentationPoint, Platform};

fn point(layer: usize, gpu_level: usize) -> InstrumentationPoint {
    InstrumentationPoint { layer, gpu_level }
}

/// Injects the fault that should trigger `code` and returns the report.
fn seed_fault(code: &str) -> LintReport {
    let config = LintConfig::default();
    let base = zoo::alexnet();
    let agx = Platform::agx();
    match code {
        // ---- graph faults ----
        "PL001" => lint_graph(
            &Graph::from_parts_unchecked("empty", TensorShape::flat(1), vec![], vec![]),
            &config,
        ),
        "PL002" => {
            let mut layers = base.layers().to_vec();
            layers[3].id = 77;
            lint_graph(
                &Graph::from_parts_unchecked("ids", base.input_shape(), layers, vec![]),
                &config,
            )
        }
        "PL003" => {
            let mut layers = base.layers().to_vec();
            layers[0].input_shape = TensorShape::tokens(8, 8);
            lint_graph(
                &Graph::from_parts_unchecked("cat", base.input_shape(), layers, vec![]),
                &config,
            )
        }
        "PL004" => {
            let mut layers = base.layers().to_vec();
            layers[0].output_shape = TensorShape::chw(1, 1, 1);
            lint_graph(
                &Graph::from_parts_unchecked("cache", base.input_shape(), layers, vec![]),
                &config,
            )
        }
        "PL005" => {
            let last = base.num_layers() - 1;
            let mut layers = base.layers().to_vec();
            layers[last].input_shape = TensorShape::flat(123_456);
            layers[last].output_shape = TensorShape::flat(123_456);
            lint_graph(
                &Graph::from_parts_unchecked("chain", base.input_shape(), layers, vec![]),
                &config,
            )
        }
        "PL006" => lint_graph(
            &Graph::from_parts_unchecked(
                "edges",
                base.input_shape(),
                base.layers().to_vec(),
                vec![(5, 2)],
            ),
            &config,
        ),
        "PL007" => {
            let mut layers = base.layers().to_vec();
            layers[0].op = OpKind::Conv2d {
                in_ch: 3,
                out_ch: 64,
                kernel: 0,
                stride: 4,
                padding: 2,
                groups: 1,
            };
            lint_graph(
                &Graph::from_parts_unchecked("deg", base.input_shape(), layers, vec![]),
                &config,
            )
        }
        // ---- view faults ----
        "PL101" => lint_view(&PowerView::from_blocks_unchecked(vec![], 0), None, &config),
        "PL102" => lint_view(
            &PowerView::from_blocks_unchecked(
                vec![
                    PowerBlock { start: 0, end: 4 },
                    PowerBlock { start: 4, end: 4 },
                ],
                4,
            ),
            None,
            &config,
        ),
        "PL103" => lint_view(
            &PowerView::from_blocks_unchecked(
                vec![
                    PowerBlock { start: 0, end: 4 },
                    PowerBlock { start: 6, end: 9 },
                ],
                7,
            ),
            None,
            &config,
        ),
        "PL104" => lint_view(
            &PowerView::new(vec![PowerBlock {
                start: 0,
                end: base.num_layers() / 2,
            }]),
            Some(&base),
            &config,
        ),
        "PL105" => lint_view(
            &PowerView::from_blocks_unchecked(vec![PowerBlock { start: 0, end: 4 }], 40),
            None,
            &config,
        ),
        "PL108" => {
            // A genuine cache re-labelled with a wrong layer count and a
            // wrong feature dimension: the matrix no longer describes what
            // the cache claims to cover.
            let params = ClusterParams::default();
            let good = DistanceCache::build(&base, &params).unwrap();
            let bad = DistanceCache::from_parts_unchecked(
                base.num_layers() + 5,
                good.feature_dim() + 1,
                &params,
                good.distance().clone(),
            );
            lint_distance_cache(&bad, Some(&base), &config)
        }
        // ---- plan faults ----
        "PL201" => lint_plan(
            &PlanContext {
                plan: &InstrumentationPlan::from_points_unchecked(vec![], 0),
                platform: &agx,
                view: None,
                graph: None,
                oracle: None,
            },
            &config,
        ),
        "PL202" => lint_plan(
            &PlanContext {
                plan: &InstrumentationPlan::from_points_unchecked(
                    vec![point(9, 1), point(2, 3)],
                    0,
                ),
                platform: &agx,
                view: None,
                graph: None,
                oracle: None,
            },
            &config,
        ),
        "PL203" => lint_plan(
            &PlanContext {
                plan: &InstrumentationPlan::new(vec![point(0, agx.gpu_levels() + 3)], 0),
                platform: &agx,
                view: None,
                graph: None,
                oracle: None,
            },
            &config,
        ),
        "PL204" => lint_plan(
            &PlanContext {
                plan: &InstrumentationPlan::new(vec![point(0, 3)], agx.cpu_levels()),
                platform: &agx,
                view: None,
                graph: None,
                oracle: None,
            },
            &config,
        ),
        "PL205" => lint_plan(
            &PlanContext {
                plan: &InstrumentationPlan::new(vec![point(base.num_layers() + 1, 3)], 0),
                platform: &agx,
                view: None,
                graph: Some(&base),
                oracle: None,
            },
            &config,
        ),
        "PL206" => {
            let view = PowerView::new(vec![
                PowerBlock { start: 0, end: 5 },
                PowerBlock {
                    start: 5,
                    end: base.num_layers(),
                },
            ]);
            lint_plan(
                &PlanContext {
                    plan: &InstrumentationPlan::new(vec![point(0, 3), point(7, 5)], 0),
                    platform: &agx,
                    view: Some(&view),
                    graph: Some(&base),
                    oracle: None,
                },
                &config,
            )
        }
        // ---- store faults ----
        "PL301" => lint_cached_plan(
            &CachedPlanContext {
                plan: &InstrumentationPlan::new(vec![point(0, 3)], 0),
                platform: &agx,
                entry_platform: &platform_signature(&Platform::tx2()),
                entry_schema: 1,
                expected_schema: 1,
            },
            &config,
        ),
        "PL302" => lint_cached_plan(
            &CachedPlanContext {
                plan: &InstrumentationPlan::new(vec![point(0, 3)], 0),
                platform: &agx,
                entry_platform: &platform_signature(&agx),
                entry_schema: 0,
                expected_schema: 1,
            },
            &config,
        ),
        // ---- fault-plan faults ----
        "PL401" => lint_fault_plan(
            &FaultPlan {
                sensor_drop_p: 1.5,
                ..FaultPlan::default()
            },
            Some(&agx),
            &config,
        ),
        "PL402" => lint_fault_plan(
            &FaultPlan {
                switch_jitter_s: -0.01,
                ..FaultPlan::default()
            },
            Some(&agx),
            &config,
        ),
        "PL403" => lint_fault_plan(
            &FaultPlan {
                max_retries: MAX_RETRY_BUDGET + 1,
                ..FaultPlan::default()
            },
            Some(&agx),
            &config,
        ),
        "PL406" => lint_fault_plan(
            &FaultPlan {
                phase_power_drift: -1.0,
                ..FaultPlan::default()
            },
            Some(&agx),
            &config,
        ),
        // ---- ingest faults ----
        "PL701" => lint_import(
            "manifest",
            &[ImportIssue::UnsupportedSchemaVersion {
                found: 9,
                supported: 1,
            }],
            &config,
        ),
        "PL702" => lint_import(
            "manifest",
            &[ImportIssue::UnknownOp {
                node: 3,
                op: "winograd_conv".into(),
            }],
            &config,
        ),
        "PL703" => lint_import(
            "manifest",
            &[ImportIssue::SparsityOutOfRange {
                node: 1,
                value: 1.5,
            }],
            &config,
        ),
        "PL704" => lint_import(
            "manifest",
            &[ImportIssue::ShapeInference {
                node: 2,
                op: "conv2d".into(),
                input: "flat 10".into(),
            }],
            &config,
        ),
        "PL705" => lint_import(
            "manifest",
            &[ImportIssue::SkipEdge {
                from: 5,
                to: 2,
                detail: "edge must point forward (from < to)".into(),
            }],
            &config,
        ),
        // ---- dataflow faults ----
        "PL501" => {
            // Sever a layer's input: nothing upstream produces this shape.
            let mut layers = base.layers().to_vec();
            layers[3].input_shape = TensorShape::chw(999, 1, 1);
            let g = Graph::from_parts_unchecked("severed", base.input_shape(), layers, vec![]);
            lint_dataflow(&DataflowContext::new(&g), &config)
        }
        "PL503" => {
            // Declared output size falls outside the derived interval.
            let mut layers = base.layers().to_vec();
            layers[2].output_shape = TensorShape::chw(1, 1, 7);
            let g = Graph::from_parts_unchecked("corrupt", base.input_shape(), layers, vec![]);
            lint_dataflow(&DataflowContext::new(&g), &config)
        }
        "PL504" => {
            // A plan switch point lands on an unreachable layer.
            let mut layers = base.layers().to_vec();
            layers[3].input_shape = TensorShape::chw(999, 1, 1);
            let g = Graph::from_parts_unchecked("severed", base.input_shape(), layers, vec![]);
            let plan = InstrumentationPlan::new(vec![point(0, 1), point(3, 2)], 0);
            let mut ctx = DataflowContext::new(&g);
            ctx.plan = Some(&plan);
            lint_dataflow(&ctx, &config)
        }
        "PL505" => {
            // An energy-efficiency claim far above the static envelope.
            let mut ctx = DataflowContext::new(&base);
            ctx.platform = Some(&agx);
            ctx.batch = 8;
            ctx.claim_images_per_joule = Some(f64::MAX);
            lint_dataflow(&ctx, &config)
        }
        "PL508" => {
            // Zero sweep budget: the fixpoint cannot stabilize.
            let mut ctx = DataflowContext::new(&base);
            ctx.sweep_limit = 0;
            lint_dataflow(&ctx, &config)
        }
        other => panic!("no fault injector for {other}"),
    }
}

#[test]
fn every_error_rule_fires_on_its_seeded_fault() {
    for rule in all_rules() {
        if rule.severity != Severity::Error {
            continue;
        }
        let report = seed_fault(rule.code);
        assert!(
            report.fired(rule.code),
            "{} did not fire; report: {:?}",
            rule.code,
            report.diagnostics
        );
        assert!(report.has_errors(), "{} must be error severity", rule.code);
    }
}

#[test]
fn catalog_spans_all_packs_with_enough_rules() {
    let rules = all_rules();
    assert!(rules.len() >= 12);
    for pack in [Pack::Graph, Pack::View, Pack::Plan] {
        assert!(rules.iter().filter(|r| r.pack == pack).count() >= 5);
    }
    assert!(rules.iter().filter(|r| r.pack == Pack::Store).count() >= 2);
    assert!(rules.iter().filter(|r| r.pack == Pack::Faults).count() >= 6);
    assert!(rules.iter().filter(|r| r.pack == Pack::Dataflow).count() >= 8);
    assert!(rules.iter().filter(|r| r.pack == Pack::Ingest).count() >= 6);
}

#[test]
fn zoo_models_lint_clean_end_to_end() {
    let config = LintConfig::default();
    for (name, build) in zoo::all_models() {
        let g = build();
        let gr = lint_graph(&g, &config);
        assert!(!gr.has_errors(), "{name} graph: {:?}", gr.diagnostics);
        let view = cluster_graph(&g, &ClusterParams::default()).unwrap();
        let vr = lint_view(&view, Some(&g), &config);
        assert!(!vr.has_errors(), "{name} view: {:?}", vr.diagnostics);
    }
}

#[test]
fn governed_plans_lint_clean_with_oracle_cross_check() {
    // A plan derived from the view via the exhaustive oracle must satisfy
    // the whole plan pack, including the PL209 cross-check against itself.
    let config = LintConfig::default();
    let agx = Platform::agx();
    let g = zoo::resnet34();
    let view = cluster_graph(&g, &ClusterParams::default()).unwrap();
    let oracle = |lo: usize, hi: usize| {
        powerlens_governors::oracle::best_level_for_range(&agx, &g, lo, hi, 1, 1.2)
    };
    let points = view
        .blocks()
        .iter()
        .map(|b| point(b.start, oracle(b.start, b.end)))
        .collect();
    let plan = InstrumentationPlan::new(points, agx.cpu_levels() - 1);
    let report = lint_plan(
        &PlanContext {
            plan: &plan,
            platform: &agx,
            view: Some(&view),
            graph: Some(&g),
            oracle: Some(&oracle),
        },
        &config,
    );
    assert!(!report.has_errors(), "{:?}", report.diagnostics);
    assert!(!report.fired("PL209"), "plan equals the oracle's choice");
}

#[test]
fn sarif_log_of_seeded_faults_validates_shape() {
    // Collect a report with findings from all three packs and check the
    // SARIF 2.1.0 skeleton: schema/version, tool.driver.rules, results with
    // ruleId/ruleIndex/level/message/locations.
    let reports = vec![
        seed_fault("PL004"),
        seed_fault("PL103"),
        seed_fault("PL203"),
    ];
    let v = to_sarif(&reports);
    assert_eq!(
        v.field("version").unwrap(),
        &serde::Value::Str("2.1.0".into())
    );
    let runs = match v.field("runs").unwrap() {
        serde::Value::Array(a) => a,
        _ => panic!("runs must be an array"),
    };
    assert_eq!(runs.len(), 1);
    let run = &runs[0];
    let rules_arr = match run
        .field("tool")
        .unwrap()
        .field("driver")
        .unwrap()
        .field("rules")
        .unwrap()
    {
        serde::Value::Array(a) => a,
        _ => panic!("rules must be an array"),
    };
    assert_eq!(rules_arr.len(), all_rules().len());
    for rule in rules_arr {
        rule.field("id").unwrap();
        rule.field("shortDescription")
            .unwrap()
            .field("text")
            .unwrap();
        rule.field("defaultConfiguration")
            .unwrap()
            .field("level")
            .unwrap();
    }
    let results = match run.field("results").unwrap() {
        serde::Value::Array(a) => a,
        _ => panic!("results must be an array"),
    };
    assert!(!results.is_empty());
    for res in results {
        let rule_id = match res.field("ruleId").unwrap() {
            serde::Value::Str(s) => s.clone(),
            _ => panic!("ruleId must be a string"),
        };
        let idx = match res.field("ruleIndex").unwrap() {
            serde::Value::Num(x) => *x as usize,
            _ => panic!("ruleIndex must be a number"),
        };
        assert_eq!(all_rules()[idx].code, rule_id);
        let level = match res.field("level").unwrap() {
            serde::Value::Str(s) => s.clone(),
            _ => panic!("level must be a string"),
        };
        assert!(["error", "warning", "note"].contains(&level.as_str()));
        res.field("message").unwrap().field("text").unwrap();
        match res.field("locations").unwrap() {
            serde::Value::Array(locs) => {
                assert!(!locs.is_empty());
                locs[0].field("logicalLocations").unwrap();
            }
            _ => panic!("locations must be an array"),
        }
    }
    // The rendered log is real JSON the shim can parse back.
    let text = render(&reports, Format::Sarif);
    let parsed: serde::Value = serde_json::from_str(&text).unwrap();
    parsed.field("runs").unwrap();
}
