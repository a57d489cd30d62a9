//! Golden oracle plans: `plan_oracle` must reproduce, bit for bit, the plans
//! recorded in `tests/fixtures/oracle_plans.txt`.
//!
//! Each fixture line is one subject × board × batch size and records the
//! selected scheme index, the CPU level, every `(layer, gpu_level)`
//! instrumentation point, and the bits of the plan's 48-image energy
//! efficiency. The subjects are the zoo, the example manifests, eight seeded
//! random networks and four conv-trunk/linear-tail graphs that plan to more
//! than one power block. The fixture is data: this test never rewrites it,
//! so any change to the oracle's output — a different scheme, level or float
//! bit — fails here.

use powerlens::{evaluate_plan, PowerLens, PowerLensConfig};
use powerlens_dnn::random::{generate_batch, RandomDnnConfig};
use powerlens_dnn::{zoo, ActKind, Graph, GraphBuilder, OpKind, PoolKind, TensorShape};
use powerlens_platform::Platform;

const FIXTURE: &str = include_str!("fixtures/oracle_plans.txt");

/// A compute-bound conv trunk followed by a memory-bound linear tail.
fn mixed_graph(id: usize) -> Graph {
    let depth = 4 + id;
    let tail = 4 + 2 * id;
    let channels = [64, 96][id % 2];
    let res = [112, 128][id / 2 % 2];
    let mut b = GraphBuilder::new(format!("mixed_{id}"), TensorShape::chw(3, res, res));
    let mut in_ch = 3;
    for i in 0..depth {
        b.push(
            format!("conv{i}"),
            OpKind::Conv2d {
                in_ch,
                out_ch: channels,
                kernel: 3,
                stride: 1,
                padding: 1,
                groups: 1,
            },
        );
        b.push(format!("conv{i}_relu"), OpKind::Activation(ActKind::Relu));
        in_ch = channels;
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
    let mut in_features = channels;
    for i in 0..tail {
        b.push(
            format!("fc{i}"),
            OpKind::Linear {
                in_features,
                out_features: 4096,
            },
        );
        b.push(format!("fc{i}_relu"), OpKind::Activation(ActKind::Relu));
        in_features = 4096;
    }
    b.push(
        "head",
        OpKind::Linear {
            in_features,
            out_features: 1000,
        },
    );
    b.finish()
}

fn subjects() -> Vec<(String, Graph)> {
    let mut out: Vec<(String, Graph)> = zoo::all_models()
        .into_iter()
        .map(|(name, build)| (name.to_string(), build()))
        .collect();
    let models = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/models");
    let mut manifests: Vec<_> = std::fs::read_dir(models)
        .expect("examples/models exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    manifests.sort();
    for path in manifests {
        let text = std::fs::read_to_string(&path).expect("readable manifest");
        let graph = powerlens_ingest::import_str(&text)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
            .graph;
        let stem = path.file_stem().unwrap().to_string_lossy();
        out.push((format!("manifest:{stem}"), graph));
    }
    for (i, g) in generate_batch(&RandomDnnConfig::default(), 4242, 8)
        .into_iter()
        .enumerate()
    {
        out.push((format!("random:{i}"), g));
    }
    for id in 0..4 {
        out.push((format!("mixed:{id}"), mixed_graph(id)));
    }
    out
}

fn plan_line(name: &str, board: &str, platform: &Platform, batch: usize, g: &Graph) -> String {
    let config = PowerLensConfig {
        batch,
        ..PowerLensConfig::default()
    };
    let pl = PowerLens::untrained(platform, config);
    let out = pl
        .plan_oracle(g)
        .unwrap_or_else(|e| panic!("{name}/{board}/b{batch}: {e}"));
    let points: Vec<String> = out
        .plan
        .points()
        .iter()
        .map(|p| format!("{}:{}", p.layer, p.gpu_level))
        .collect();
    let ee = evaluate_plan(platform, g, &out.plan, batch, 48).energy_efficiency;
    format!(
        "{name} {board} b{batch} scheme={} cpu={} points={} ee={:016x}",
        out.scheme_index,
        out.plan.cpu_level(),
        points.join(","),
        ee.to_bits()
    )
}

fn golden_lines() -> Vec<String> {
    let boards = [("agx", Platform::agx()), ("tx2", Platform::tx2())];
    let mut lines = Vec::new();
    for (name, g) in subjects() {
        for (board, platform) in &boards {
            for batch in [1, 8] {
                lines.push(plan_line(&name, board, platform, batch, &g));
            }
        }
    }
    lines
}

#[test]
fn oracle_plans_match_golden_fixture() {
    let expected: Vec<&str> = FIXTURE.lines().filter(|l| !l.is_empty()).collect();
    let actual = golden_lines();
    let mismatches: Vec<String> = expected
        .iter()
        .zip(&actual)
        .filter(|(e, a)| **e != a.as_str())
        .map(|(e, a)| format!("expected {e}\n     got {a}"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} of {} oracle plans differ from the fixture:\n{}",
        mismatches.len(),
        expected.len(),
        mismatches.join("\n")
    );
    assert_eq!(expected.len(), actual.len(), "fixture line count");
}
