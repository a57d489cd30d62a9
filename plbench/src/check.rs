//! Reference outcomes computed in-process from the library code the daemon
//! runs, and the check every response goes through.
//!
//! A response counts as failed on a non-200 status, a body that is not the
//! expected JSON, `degraded: true`, or a plan or lint result that differs
//! from the reference.

use powerlens::{InstrumentationPlan, InstrumentationPoint, PlanOutcome, PowerLens};
use powerlens_dnn::Graph;
use powerlens_platform::Platform;
use powerlens_serve::ops;
use serde::Value;

use crate::inputs::{Kind, Workload, MIN_MULTI_BLOCK_SHARE};

/// Platform the daemon is started with.
pub const PLATFORM: &str = "agx";
/// Batch size the daemon is started with.
pub const BATCH: usize = 8;

/// The plan a `/plan` response must carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpectedPlan {
    /// Power blocks as `(start, end)`.
    pub blocks: Vec<(usize, usize)>,
    /// Instrumentation points as `(layer, gpu_level)`.
    pub points: Vec<(usize, usize)>,
    /// Pinned CPU level.
    pub cpu_level: usize,
    /// Winning scheme index.
    pub scheme_index: usize,
}

impl ExpectedPlan {
    /// The plan part of a planning outcome.
    pub fn of(outcome: &PlanOutcome) -> ExpectedPlan {
        ExpectedPlan {
            blocks: outcome
                .view
                .blocks()
                .iter()
                .map(|b| (b.start, b.end))
                .collect(),
            points: outcome
                .plan
                .points()
                .iter()
                .map(|p| (p.layer, p.gpu_level))
                .collect(),
            cpu_level: outcome.plan.cpu_level(),
            scheme_index: outcome.scheme_index,
        }
    }

    /// The executable plan, for simulation.
    pub fn instrumentation(&self) -> InstrumentationPlan {
        let points = self
            .points
            .iter()
            .map(|&(layer, gpu_level)| InstrumentationPoint { layer, gpu_level })
            .collect();
        InstrumentationPlan::new(points, self.cpu_level)
    }
}

/// What a response for one subject must say.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expected {
    /// `/plan`: the oracle plan.
    Plan(ExpectedPlan),
    /// `/lint`: error and warning counts of `ops::lint_model`.
    Lint {
        /// Error-severity findings.
        errors: usize,
        /// Warning-severity findings.
        warnings: usize,
    },
}

/// References for every subject of a workload.
pub struct References {
    /// The platform the daemon plans for.
    pub platform: Platform,
    /// One entry per subject, in subject order.
    pub expected: Vec<Expected>,
}

/// Computes the reference outcome of every subject.
///
/// # Errors
///
/// Fails when planning or linting a subject fails, or when too few of the
/// `cold_plans` mixed graphs plan to two or more blocks.
pub fn references(w: &Workload) -> Result<References, String> {
    let platform = ops::platform_by_name(PLATFORM).expect("built-in platform");
    let planner = ops::make_planner(&platform, BATCH, None);
    let mut expected = Vec::with_capacity(w.subjects.len());
    for s in &w.subjects {
        let e = if w.kind == Kind::LintRepeat {
            let r = ops::lint_model(&platform, &s.graph, BATCH)?;
            Expected::Lint {
                errors: r.num_errors(),
                warnings: r.num_warnings(),
            }
        } else {
            Expected::Plan(oracle_plan(&planner, &s.graph)?)
        };
        expected.push(e);
    }
    if w.kind == Kind::ColdPlans {
        let mixed: Vec<&Expected> = w
            .subjects
            .iter()
            .zip(&expected)
            .filter(|(s, _)| s.graph.name().starts_with("mixed_"))
            .map(|(_, e)| e)
            .collect();
        let multi = mixed
            .iter()
            .filter(|e| matches!(e, Expected::Plan(p) if p.blocks.len() >= 2))
            .count();
        let share = multi as f64 / mixed.len().max(1) as f64;
        if share < MIN_MULTI_BLOCK_SHARE {
            return Err(format!(
                "seed {}: only {multi} of {} mixed graphs plan to 2+ blocks \
                 (need a share of {MIN_MULTI_BLOCK_SHARE})",
                w.seed,
                mixed.len()
            ));
        }
    }
    Ok(References { platform, expected })
}

/// The reference plan of `graph`: `plan_oracle` of the planner the daemon
/// builds for its platform and batch.
pub fn oracle_plan(planner: &PowerLens<'_>, graph: &Graph) -> Result<ExpectedPlan, String> {
    let o = planner
        .plan_oracle(graph)
        .map_err(|e| format!("reference plan of {}: {e}", graph.name()))?;
    Ok(ExpectedPlan::of(&o))
}

fn num(v: &Value, name: &str) -> Result<usize, String> {
    match v.field(name) {
        Ok(Value::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as usize),
        _ => Err(format!("field `{name}` missing or not a count")),
    }
}

fn text<'v>(v: &'v Value, name: &str) -> Result<&'v str, String> {
    match v.field(name) {
        Ok(Value::Str(s)) => Ok(s),
        _ => Err(format!("field `{name}` missing or not a string")),
    }
}

fn array<'v>(v: &'v Value, name: &str) -> Result<&'v [Value], String> {
    match v.field(name) {
        Ok(Value::Array(a)) => Ok(a),
        _ => Err(format!("field `{name}` missing or not an array")),
    }
}

/// Checks one response body against the reference. `Ok` carries the
/// verified plan of a `/plan` response.
pub fn verify_body(
    expected: &Expected,
    graph_name: &str,
    tenant: Option<&str>,
    status: u16,
    body: &str,
) -> Result<Option<ExpectedPlan>, String> {
    if status != 200 {
        return Err(format!("status {status}: {}", body.trim()));
    }
    let v: Value = serde_json::from_str(body).map_err(|e| format!("body is not JSON: {e}"))?;
    if text(&v, "model")? != graph_name {
        return Err(format!("wrong model {:?}", text(&v, "model")?));
    }
    match expected {
        Expected::Lint { errors, warnings } => {
            let got = (num(&v, "errors")?, num(&v, "warnings")?);
            if got != (*errors, *warnings) {
                return Err(format!(
                    "lint counts {got:?}, reference ({errors}, {warnings})"
                ));
            }
            Ok(None)
        }
        Expected::Plan(want) => {
            if v.field("degraded") != Ok(&Value::Bool(false)) {
                return Err("degraded answer".to_string());
            }
            if text(&v, "tenant")? != tenant.unwrap_or("") {
                return Err("wrong tenant".to_string());
            }
            let blocks = array(&v, "blocks")?
                .iter()
                .map(|b| Ok((num(b, "start")?, num(b, "end")?)))
                .collect::<Result<Vec<_>, String>>()?;
            let points = array(&v, "points")?
                .iter()
                .map(|p| Ok((num(p, "layer")?, num(p, "gpu_level")?)))
                .collect::<Result<Vec<_>, String>>()?;
            let got = ExpectedPlan {
                blocks,
                points,
                cpu_level: num(&v, "cpu_level")?,
                scheme_index: num(&v, "scheme_index")?,
            };
            if &got != want {
                return Err(format!("plan {got:?} differs from reference {want:?}"));
            }
            Ok(Some(got))
        }
    }
}

/// Rewrites one field of a JSON response, for the tamper self-test.
fn tamper(body: &str, edit: impl FnOnce(&mut Vec<(String, Value)>)) -> String {
    let mut v: Value = serde_json::from_str(body).expect("verified body is JSON");
    if let Value::Object(fields) = &mut v {
        edit(fields);
    }
    serde_json::to_string(&v).expect("JSON value serializes")
}

fn field_mut<'v>(fields: &'v mut [(String, Value)], name: &str) -> Option<&'v mut Value> {
    fields.iter_mut().find(|(k, _)| k == name).map(|(_, v)| v)
}

fn bump(v: Option<&mut Value>) {
    if let Some(Value::Num(n)) = v {
        *n += 1.0;
    }
}

/// Feeds tampered copies of a response through [`verify_body`] and returns
/// how many were counted as failed, out of how many. A plan response is
/// tampered twice (one `gpu_level` bumped, `degraded: true`), a lint
/// response once (one more warning). When the untampered response itself
/// fails the check, no tampered copy counts as caught.
pub fn tamper_self_test(
    refs: &References,
    w: &Workload,
    subject: usize,
    tenant: Option<&str>,
    body: &str,
) -> (usize, usize) {
    let tampered = match &refs.expected[subject] {
        Expected::Plan(_) => vec![
            tamper(body, |f| {
                if let Some(Value::Array(points)) = field_mut(f, "points") {
                    if let Some(Value::Object(p)) = points.first_mut() {
                        bump(field_mut(p, "gpu_level"));
                    }
                }
            }),
            tamper(body, |f| {
                if let Some(v) = field_mut(f, "degraded") {
                    *v = Value::Bool(true);
                }
            }),
        ],
        Expected::Lint { .. } => vec![tamper(body, |f| bump(field_mut(f, "warnings")))],
    };
    let check = |body: &str| {
        verify_body(
            &refs.expected[subject],
            w.subjects[subject].graph.name(),
            tenant,
            200,
            body,
        )
    };
    if check(body).is_err() {
        return (0, tampered.len());
    }
    let failed = tampered.iter().filter(|t| check(t).is_err()).count();
    (failed, tampered.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Workload;

    fn plan_body(w: &Workload, refs: &References, subject: usize, tenant: &str) -> String {
        let Expected::Plan(p) = &refs.expected[subject] else {
            panic!("plan workload")
        };
        let blocks: Vec<String> = p
            .blocks
            .iter()
            .map(|(s, e)| format!("{{\"start\":{s},\"end\":{e}}}"))
            .collect();
        let points: Vec<String> = p
            .points
            .iter()
            .map(|(l, g)| format!("{{\"layer\":{l},\"gpu_level\":{g},\"freq_mhz\":1.0}}"))
            .collect();
        format!(
            "{{\"model\":\"{}\",\"platform\":\"agx\",\"batch\":8,\"tenant\":\"{tenant}\",\
             \"cached\":true,\"degraded\":false,\"scheme_index\":{},\"cpu_level\":{},\
             \"blocks\":[{}],\"points\":[{}]}}",
            w.subjects[subject].graph.name(),
            p.scheme_index,
            p.cpu_level,
            blocks.join(","),
            points.join(",")
        )
    }

    #[test]
    fn tampered_plans_are_counted_as_failed() {
        let w = Workload::generate(Kind::WarmPlanHits, 1).unwrap();
        let refs = references(&w).unwrap();
        let body = plan_body(&w, &refs, 0, "acme");
        let name = w.subjects[0].graph.name();
        let check =
            |tenant, status| verify_body(&refs.expected[0], name, Some(tenant), status, &body);
        assert!(check("acme", 200).is_ok());
        assert!(check("other", 200).is_err());
        assert!(check("acme", 500).is_err());
        assert_eq!(tamper_self_test(&refs, &w, 0, Some("acme"), &body), (2, 2));
    }

    #[test]
    fn tampered_lint_counts_are_counted_as_failed() {
        let w = Workload::generate(Kind::LintRepeat, 1).unwrap();
        let refs = references(&w).unwrap();
        let Expected::Lint { errors, warnings } = refs.expected[0] else {
            panic!("lint workload")
        };
        let body = format!(
            "{{\"model\":\"alexnet\",\"errors\":{errors},\"warnings\":{warnings},\"report\":{{}}}}"
        );
        assert_eq!(tamper_self_test(&refs, &w, 0, None, &body), (1, 1));
    }

    #[test]
    fn most_mixed_graphs_plan_to_several_blocks() {
        for seed in 1..4 {
            let w = Workload::generate(Kind::ColdPlans, seed).unwrap();
            references(&w).unwrap();
        }
    }
}
