//! Criterion micro-benchmarks for the hybrid governor: what plain plan
//! replay costs on a clean engine, and what the same run costs with the
//! hybrid drift detector threaded through it (the detector reads every
//! telemetry window but, with nothing drifting, never escalates).
//!
//! `scripts/bench.sh` derives the `hybrid_overhead` metric from the
//! detector-on minus plan-replay delta, normalized to nanoseconds per
//! engine step: the price of closing the loop when the loop has nothing
//! to correct. Budget: <= 10 ns/step (the simulated engine step is an
//! analytic-model call of ~50 ns, so a *ratio* budget would measure
//! harness noise; on hardware a layer step is milliseconds and 10 ns is
//! vanishing). Changing IMAGES, BATCH, or the model here changes the
//! step count bench.sh divides by — keep them in sync.

use criterion::{criterion_group, criterion_main, Criterion};
use powerlens::{PlanController, PowerLens, PowerLensConfig};
use powerlens_dnn::zoo;
use powerlens_governors::HybridGovernor;
use powerlens_platform::Platform;
use powerlens_sim::Engine;
use std::hint::black_box;

// A serving-horizon run (many batch passes over one installed plan): the
// governor's per-layer memos fill on the first pass, so a short horizon
// would charge the whole warm-up to the ratio instead of amortizing it the
// way a deployment does.
const IMAGES: usize = 256;
const BATCH: usize = 8;

fn bench_hybrid_overhead(c: &mut Criterion) {
    let p = Platform::agx();
    let g = zoo::alexnet();
    let pl = PowerLens::untrained(&p, PowerLensConfig::default());
    let plan = pl.plan_oracle(&g).unwrap().plan;
    let engine = Engine::new(&p).with_batch(BATCH);

    let mut group = c.benchmark_group("hybrid");
    group.sample_size(30);

    group.bench_function("engine_plan_alexnet", |b| {
        b.iter(|| {
            let mut ctl = PlanController::new(plan.clone());
            black_box(engine.run(&g, &mut ctl, IMAGES))
        })
    });

    group.bench_function("engine_detector_on_alexnet", |b| {
        b.iter(|| {
            let mut ctl = HybridGovernor::new(&p, plan.clone(), BATCH);
            black_box(engine.run(&g, &mut ctl, IMAGES))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_hybrid_overhead);
criterion_main!(benches);
