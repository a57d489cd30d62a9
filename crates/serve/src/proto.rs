//! JSON request and response types for the serving endpoints.
//!
//! Requests implement [`Deserialize`] by hand so that every field is
//! optional — the derived impl in the vendored serde shim treats absent
//! fields as errors, which is the right default for on-disk cache entries
//! but too strict for a network API where `{"model": "alexnet"}` should
//! just work. Responses use the derived [`Serialize`].

use serde::{DeError, Deserialize, Serialize, Value};

/// Reads an optional field: absent and `null` both mean `None`; a present
/// field of the wrong type is still an error.
fn opt<T: Deserialize>(v: &Value, name: &str) -> Result<Option<T>, DeError> {
    match v.field(name) {
        Ok(f) => {
            Option::<T>::from_value(f).map_err(|e| DeError::new(format!("field `{name}`: {e}")))
        }
        Err(_) => Ok(None),
    }
}

/// Reads the optional `batch` field shared by every planning request. A
/// batch of zero has no images to time, so it is refused here, before any
/// endpoint plans or simulates with it.
fn batch(v: &Value) -> Result<Option<usize>, DeError> {
    match opt(v, "batch")? {
        Some(0) => Err(DeError::new("field `batch`: must be positive")),
        b => Ok(b),
    }
}

/// `POST /plan` — plan one model (`model`), a batch (`models`), or an
/// inline external manifest (`manifest`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanRequest {
    /// Zoo model name; mutually exclusive with `models` and `manifest`.
    pub model: Option<String>,
    /// Batch of zoo model names, planned concurrently on the worker pool.
    pub models: Option<Vec<String>>,
    /// Inline `powerlens-ingest` manifest object, imported through the
    /// PL7xx lint gate; mutually exclusive with `model` and `models`. The
    /// plan cache keys on the imported graph's content fingerprint, so two
    /// tenants posting the same manifest still get tenant-isolated entries.
    ///
    /// The daemon never fills this field: it hands the manifest's bytes
    /// straight to the streaming importer and parses only the rest of the
    /// body into this type.
    pub manifest: Option<Value>,
    /// Platform name (`agx`, `tx2`, `cloud`); daemon default when absent.
    pub platform: Option<String>,
    /// Inference batch size, at least 1; daemon default when absent.
    pub batch: Option<usize>,
    /// Tenant namespace for cache isolation; shared namespace when absent.
    pub tenant: Option<String>,
}

impl Deserialize for PlanRequest {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(PlanRequest {
            model: opt(v, "model")?,
            models: opt(v, "models")?,
            manifest: opt(v, "manifest")?,
            platform: opt(v, "platform")?,
            batch: batch(v)?,
            tenant: opt(v, "tenant")?,
        })
    }
}

/// `POST /compare` — plan a model, then race the plan against the
/// baseline governors over a task flow.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompareRequest {
    /// Zoo model name (required).
    pub model: Option<String>,
    /// Platform name; daemon default when absent.
    pub platform: Option<String>,
    /// Inference batch size, at least 1; daemon default when absent.
    pub batch: Option<usize>,
    /// Images per task; daemon default when absent.
    pub images: Option<usize>,
    /// Tasks in the flow; daemon default when absent.
    pub tasks: Option<usize>,
    /// Tenant namespace for the planning cache.
    pub tenant: Option<String>,
    /// Include the hybrid governor row (`true`); baselines only when
    /// absent/false.
    pub hybrid: Option<bool>,
}

impl Deserialize for CompareRequest {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(CompareRequest {
            model: opt(v, "model")?,
            platform: opt(v, "platform")?,
            batch: batch(v)?,
            images: opt(v, "images")?,
            tasks: opt(v, "tasks")?,
            tenant: opt(v, "tenant")?,
            hybrid: opt(v, "hybrid")?,
        })
    }
}

/// `POST /lint` — lint one model's graph, power view, and plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LintRequest {
    /// Zoo model name (required).
    pub model: Option<String>,
    /// Platform name; daemon default when absent.
    pub platform: Option<String>,
    /// Inference batch size, at least 1; daemon default when absent.
    pub batch: Option<usize>,
}

impl Deserialize for LintRequest {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(LintRequest {
            model: opt(v, "model")?,
            platform: opt(v, "platform")?,
            batch: batch(v)?,
        })
    }
}

/// One power block of a served plan.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PlanBlock {
    /// First layer (inclusive).
    pub start: usize,
    /// One past the last layer (exclusive).
    pub end: usize,
}

/// One instrumentation point of a served plan.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PlanPoint {
    /// Layer index where the switch fires.
    pub layer: usize,
    /// Target GPU frequency level.
    pub gpu_level: usize,
    /// That level's frequency in MHz, for human consumption.
    pub freq_mhz: f64,
}

/// Response body for a single planned model.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PlanResponse {
    /// Model that was planned.
    pub model: String,
    /// Platform the plan targets.
    pub platform: String,
    /// Batch size the plan assumes.
    pub batch: usize,
    /// Tenant namespace used (empty string = shared namespace).
    pub tenant: String,
    /// Whether the plan came out of the store rather than the planner.
    pub cached: bool,
    /// Whether the answer is from a lower rung of the degradation ladder.
    pub degraded: bool,
    /// Index of the hyperparameter scheme that won.
    pub scheme_index: usize,
    /// CPU frequency level the plan pins.
    pub cpu_level: usize,
    /// Clustered power blocks.
    pub blocks: Vec<PlanBlock>,
    /// Proactive DVFS switch points.
    pub points: Vec<PlanPoint>,
}

/// Response body for `POST /plan` with a `models` batch.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PlanBatchResponse {
    /// One entry per requested model, in request order.
    pub plans: Vec<PlanResponse>,
}

/// One governor's row in a `/compare` response.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CompareRowBody {
    /// Controller name.
    pub method: String,
    /// Total energy (joules).
    pub energy_j: f64,
    /// Total simulated time (seconds).
    pub time_s: f64,
    /// Images per joule.
    pub energy_efficiency: f64,
    /// DVFS switches issued.
    pub switches: usize,
}

/// Response body for `POST /compare`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CompareResponse {
    /// Model compared.
    pub model: String,
    /// Platform simulated.
    pub platform: String,
    /// Whether the underlying plan came from a degraded rung.
    pub degraded: bool,
    /// One row per controller, PowerLens plan first.
    pub rows: Vec<CompareRowBody>,
}

/// Response body for `POST /lint`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LintResponse {
    /// Model linted.
    pub model: String,
    /// Error-severity diagnostics.
    pub errors: usize,
    /// Warning-severity diagnostics.
    pub warnings: usize,
    /// Full diagnostic report (the `powerlens-lint` JSON schema).
    pub report: Value,
}

/// Error body used for 4xx/5xx responses.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ErrorResponse {
    /// Human-readable description of what went wrong.
    pub error: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_request_fields_are_all_optional() {
        let r: PlanRequest = serde_json::from_str("{}").unwrap();
        assert_eq!(r, PlanRequest::default());
        let r: PlanRequest =
            serde_json::from_str(r#"{"model": "alexnet", "tenant": "acme"}"#).unwrap();
        assert_eq!(r.model.as_deref(), Some("alexnet"));
        assert_eq!(r.tenant.as_deref(), Some("acme"));
        assert_eq!(r.batch, None);
        assert_eq!(r.manifest, None);
    }

    #[test]
    fn plan_request_carries_an_inline_manifest() {
        let r: PlanRequest =
            serde_json::from_str(r#"{"manifest": {"schema_version": 1, "nodes": []}}"#).unwrap();
        let m = r.manifest.expect("manifest parsed");
        assert!(m.field("schema_version").is_ok());
    }

    #[test]
    fn present_but_mistyped_fields_are_rejected() {
        let r: Result<PlanRequest, _> = serde_json::from_str(r#"{"batch": "eight"}"#);
        let msg = format!("{}", r.unwrap_err());
        assert!(msg.contains("batch"), "error should name the field: {msg}");
        // Explicit null is treated as absent, not as a type error.
        let r: PlanRequest = serde_json::from_str(r#"{"model": null}"#).unwrap();
        assert_eq!(r.model, None);
    }

    #[test]
    fn responses_render_as_json_objects() {
        let resp = PlanResponse {
            model: "alexnet".into(),
            platform: "agx".into(),
            batch: 8,
            tenant: String::new(),
            cached: false,
            degraded: false,
            scheme_index: 2,
            cpu_level: 3,
            blocks: vec![PlanBlock { start: 0, end: 5 }],
            points: vec![PlanPoint {
                layer: 0,
                gpu_level: 7,
                freq_mhz: 900.0,
            }],
        };
        let text = serde_json::to_string(&resp).unwrap();
        assert!(text.contains("\"degraded\": false") || text.contains("\"degraded\":false"));
        let v: Value = serde_json::from_str(&text).unwrap();
        assert!(v.field("points").is_ok());
    }
}
