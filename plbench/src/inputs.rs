//! Seeded workload generation: the graphs each workload names, the tenant
//! pool, and the request stream.
//!
//! Every request is a pure function of `(workload, seed, index)`, so the
//! closed loop, the warm-up pass and the traced replay all see the same
//! bytes. Requests come in balanced blocks: each block of `pool_len`
//! consecutive indices names every `(subject, tenant)` pair of the pool
//! exactly once, in a seeded order. The mix is therefore identical on every
//! seed; the seed moves the order, the tenant names and the generated
//! graphs.

use powerlens_dnn::random::{self, RandomDnnConfig};
use powerlens_dnn::{zoo, ActKind, Graph, GraphBuilder, OpKind, PoolKind, TensorShape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The four workloads, by the names later work refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `POST /plan` by zoo name over a pre-warmed tenant pool: all hits.
    WarmPlanHits,
    /// `POST /plan` with a fresh tenant per request: all misses, half zoo
    /// names and half inline mixed-intensity graphs.
    ColdPlans,
    /// `POST /plan` with inline manifests from a pre-warmed pool: all hits.
    ManifestHits,
    /// `POST /lint` over zoo models with the lint cache pre-warmed.
    LintRepeat,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 4] = [
        Kind::WarmPlanHits,
        Kind::ColdPlans,
        Kind::ManifestHits,
        Kind::LintRepeat,
    ];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::WarmPlanHits => "warm_plan_hits",
            Kind::ColdPlans => "cold_plans",
            Kind::ManifestHits => "manifest_hits",
            Kind::LintRepeat => "lint_repeat",
        }
    }

    /// `true` for the workloads whose requests are all cache hits.
    pub fn hits(self) -> bool {
        self != Kind::ColdPlans
    }
}

/// How requests name a subject graph.
#[derive(Debug, Clone)]
pub enum Source {
    /// A zoo model name.
    Zoo(&'static str),
    /// An inline manifest, as the JSON text embedded in the request.
    Manifest(String),
}

/// One distinct graph a workload sends.
#[derive(Debug, Clone)]
pub struct Subject {
    /// The graph the daemon resolves the request to.
    pub graph: Graph,
    /// How requests name it.
    pub source: Source,
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Request {
    /// `/plan` or `/lint`.
    pub path: &'static str,
    /// JSON body exactly as sent.
    pub body: String,
    /// Index into [`Workload::subjects`].
    pub subject: usize,
    /// Tenant namespace, when the request names one.
    pub tenant: Option<String>,
}

/// Mixed-intensity graphs in the `cold_plans` pool.
pub const MIXED_GRAPHS: usize = 12;
/// `dnn::random` graphs in the `manifest_hits` pool.
pub const RANDOM_GRAPHS: usize = 12;
/// Share of the mixed graphs that must plan to two or more blocks; a seed
/// below it is rejected at set-up rather than measured.
pub const MIN_MULTI_BLOCK_SHARE: f64 = 0.75;

/// A fully generated workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// The seed everything was drawn from.
    pub seed: u64,
    /// Distinct graphs the requests name.
    pub subjects: Vec<Subject>,
    /// `(subject, tenant slot)` pairs one balanced block covers.
    pool: Vec<(usize, usize)>,
    /// Tenant names of the hit workloads' pool, by slot.
    tenants: Vec<String>,
}

/// SplitMix64 finaliser, used to derive independent sub-seeds.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn zoo_subjects() -> Vec<Subject> {
    zoo::all_models()
        .into_iter()
        .map(|(name, build)| Subject {
            graph: build(),
            source: Source::Zoo(name),
        })
        .collect()
}

/// A subject sent as an inline manifest. The graph is the one the daemon
/// will import from `text`, so references are computed on exactly that.
fn manifest_subject(text: String) -> Result<Subject, String> {
    let graph = powerlens_ingest::import_str(&text)
        .map_err(|e| format!("generated manifest does not import: {e}"))?
        .graph;
    Ok(Subject {
        graph,
        source: Source::Manifest(text),
    })
}

fn conv_relu(b: &mut GraphBuilder, name: &str, in_ch: usize, out_ch: usize) {
    b.push(
        name,
        OpKind::Conv2d {
            in_ch,
            out_ch,
            kernel: 3,
            stride: 1,
            padding: 1,
            groups: 1,
        },
    );
    b.push(format!("{name}_relu"), OpKind::Activation(ActKind::Relu));
}

/// A conv trunk followed by a wide linear tail. The compute-bound trunk
/// prefers a high GPU clock and the memory-bound tail a low one, so these
/// graphs plan to more than one power block on the stock agx board. (With
/// 2048-wide tails most of them plan to a single block; at 4096 and four or
/// more tail layers every one tried splits.)
pub fn mixed_graph(rng: &mut StdRng, id: usize) -> Graph {
    let depth = rng.gen_range(4..=8usize);
    let tail = rng.gen_range(4..=9usize);
    let channels = [64usize, 96][rng.gen_range(0..2usize)];
    let width = 4096;
    let res = [112usize, 128][rng.gen_range(0..2usize)];
    let mut b = GraphBuilder::new(format!("mixed_{id}"), TensorShape::chw(3, res, res));
    conv_relu(&mut b, "stem", 3, channels);
    for i in 1..depth {
        conv_relu(&mut b, &format!("conv{i}"), channels, channels);
    }
    b.push(
        "gap",
        OpKind::Pool {
            kind: PoolKind::GlobalAvg,
            kernel: 1,
            stride: 1,
        },
    );
    b.push("flatten", OpKind::Flatten);
    b.push(
        "fc0",
        OpKind::Linear {
            in_features: channels,
            out_features: width,
        },
    );
    for i in 1..=tail {
        b.push(
            format!("fc{i}"),
            OpKind::Linear {
                in_features: width,
                out_features: width,
            },
        );
        b.push(format!("fc{i}_relu"), OpKind::Activation(ActKind::Relu));
    }
    b.push(
        "head",
        OpKind::Linear {
            in_features: width,
            out_features: 1000,
        },
    );
    b.finish()
}

impl Workload {
    /// Generates `kind`'s subjects and tenant pool from `seed`.
    ///
    /// # Errors
    ///
    /// Fails when a generated manifest does not import.
    pub fn generate(kind: Kind, seed: u64) -> Result<Workload, String> {
        let mut subjects = Vec::new();
        let mut tenant_slots = 1;
        match kind {
            Kind::WarmPlanHits => {
                subjects = zoo_subjects();
                tenant_slots = 4;
            }
            Kind::LintRepeat => subjects = zoo_subjects(),
            Kind::ColdPlans => {
                subjects = zoo_subjects();
                let mut rng = StdRng::seed_from_u64(mix(seed, 1));
                for id in 0..MIXED_GRAPHS {
                    let g = mixed_graph(&mut rng, id);
                    let text = serde_json::to_string(&powerlens_ingest::export_value(&g))
                        .map_err(|e| e.to_string())?;
                    subjects.push(manifest_subject(text)?);
                }
            }
            Kind::ManifestHits => {
                let zoo_graphs = zoo_subjects().into_iter().map(|s| s.graph);
                let random = random::generate_batch(
                    &RandomDnnConfig::default(),
                    mix(seed, 2),
                    RANDOM_GRAPHS,
                );
                for g in zoo_graphs.chain(random) {
                    subjects.push(manifest_subject(powerlens_ingest::export(&g))?);
                }
                tenant_slots = 2;
            }
        }
        let tenants = (0..tenant_slots)
            .map(|slot| format!("t{:04x}-{slot}", mix(seed, 3) & 0xffff))
            .collect();
        let pool = (0..tenant_slots)
            .flat_map(|t| (0..subjects.len()).map(move |s| (s, t)))
            .collect();
        Ok(Workload {
            kind,
            seed,
            subjects,
            pool,
            tenants,
        })
    }

    /// Requests per balanced block: every `(subject, tenant)` pair once.
    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// The request at stream position `index`.
    pub fn request(&self, index: u64) -> Request {
        let n = self.pool.len() as u64;
        let block = index / n;
        let pos = (index % n) as usize;
        // Fisher-Yates over the pool with the block's own stream; only the
        // prefix up to `pos` is needed.
        let mut order: Vec<usize> = (0..self.pool.len()).collect();
        let mut rng = StdRng::seed_from_u64(mix(self.seed, 0x100 + block));
        for i in 0..=pos {
            let j = rng.gen_range(i..order.len());
            order.swap(i, j);
        }
        let (subject, slot) = self.pool[order[pos]];
        let tenant = match self.kind {
            Kind::LintRepeat => None,
            Kind::ColdPlans => Some(format!("c{:04x}-{index}", mix(self.seed, 3) & 0xffff)),
            _ => Some(self.tenants[slot].clone()),
        };
        let path = if self.kind == Kind::LintRepeat {
            "/lint"
        } else {
            "/plan"
        };
        let mut body = String::with_capacity(64);
        match &self.subjects[subject].source {
            Source::Zoo(name) => {
                body.push_str("{\"model\":\"");
                body.push_str(name);
                body.push('"');
            }
            Source::Manifest(text) => {
                body.reserve(text.len());
                body.push_str("{\"manifest\":");
                body.push_str(text);
            }
        }
        if let Some(t) = &tenant {
            body.push_str(",\"tenant\":\"");
            body.push_str(t);
            body.push('"');
        }
        body.push('}');
        Request {
            path,
            body,
            subject,
            tenant,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_are_a_function_of_seed_and_index() {
        let a = Workload::generate(Kind::WarmPlanHits, 7).unwrap();
        let b = Workload::generate(Kind::WarmPlanHits, 7).unwrap();
        for i in [0, 1, 47, 48, 1000] {
            assert_eq!(a.request(i).body, b.request(i).body);
        }
        let c = Workload::generate(Kind::WarmPlanHits, 8).unwrap();
        let differs = (0..48).any(|i| a.request(i).body != c.request(i).body);
        assert!(differs, "another seed must reorder or rename");
    }

    #[test]
    fn every_block_covers_the_pool_once() {
        let w = Workload::generate(Kind::WarmPlanHits, 3).unwrap();
        let n = w.pool_len() as u64;
        for block in 0..3 {
            let mut seen: Vec<(usize, Option<String>)> = (block * n..(block + 1) * n)
                .map(|i| {
                    let r = w.request(i);
                    (r.subject, r.tenant)
                })
                .collect();
            seen.sort();
            seen.dedup();
            assert_eq!(seen.len() as u64, n);
        }
    }

    #[test]
    fn cold_tenants_are_fresh_and_mixed_manifests_are_small() {
        let w = Workload::generate(Kind::ColdPlans, 11).unwrap();
        let tenants: std::collections::BTreeSet<_> =
            (0..100).map(|i| w.request(i).tenant.unwrap()).collect();
        assert_eq!(tenants.len(), 100);
        for s in &w.subjects[12..] {
            let Source::Manifest(text) = &s.source else {
                panic!("mixed graphs are sent inline")
            };
            assert!(text.len() < 4096, "{} bytes", text.len());
        }
    }
}
