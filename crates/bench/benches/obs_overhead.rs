//! Telemetry overhead check: the instrumented prompt-training step must be
//! within noise (<2%) of the uninstrumented one when no `bprom-obs`
//! session is installed, and cheap even with one installed.
//!
//! Three cases over an identical CMA-ES prompt-training step:
//! - `disabled`  — no session installed (the production default): the only
//!   instrumentation cost is one thread-local flag read per hook.
//! - `enabled`   — a session is recording spans/counters/histograms.
//! - plus a pure hook microbench (`span_disabled`) isolating the flag read.

use bprom_data::SynthDataset;
use bprom_nn::models::{mlp, ModelSpec};
use bprom_tensor::Rng;
use bprom_vp::{train_prompt_cmaes, LabelMap, PromptTrainConfig, QueryOracle, VisualPrompt};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn step_config() -> PromptTrainConfig {
    PromptTrainConfig {
        cmaes_generations: 1,
        cmaes_population: 6,
        ..PromptTrainConfig::default()
    }
}

/// One full CMA-ES prompt-training step (1 generation, population 6)
/// against a small MLP oracle.
fn prompt_step(oracle: &QueryOracle, images: &bprom_tensor::Tensor, labels: &[usize]) {
    let mut rng = Rng::new(7);
    let map = LabelMap::identity(10, 10).unwrap();
    let mut prompt = VisualPrompt::random(3, 16, 4, &mut rng).unwrap();
    let report = train_prompt_cmaes(
        oracle,
        &mut prompt,
        images,
        labels,
        &map,
        &step_config(),
        &mut rng,
        None,
    )
    .unwrap();
    black_box(report.queries);
}

fn bench_overhead(c: &mut Criterion) {
    let mut rng = Rng::new(11);
    let data = SynthDataset::Stl10.generate(4, 16, 3).unwrap();
    let model = mlp(&ModelSpec::new(3, 16, 10), &mut rng).unwrap();
    let oracle = QueryOracle::new(model, 10);

    c.bench_function("prompt_step/disabled", |b| {
        b.iter(|| prompt_step(&oracle, &data.images, &data.labels));
    });

    {
        let session = bprom_obs::Session::begin("obs-overhead-bench");
        c.bench_function("prompt_step/enabled", |b| {
            b.iter(|| prompt_step(&oracle, &data.images, &data.labels));
        });
        let snapshot = session.finish();
        // Prove the enabled case actually recorded traffic.
        assert!(!snapshot.spans.is_empty());
        assert!(snapshot.histograms.contains_key("cmaes.generation_ns"));
    }

    // The raw cost of a telemetry hook when disabled: one Cell read.
    c.bench_function("hook/span_disabled", |b| {
        b.iter(|| {
            bprom_obs::span!("bench_noop");
            black_box(bprom_obs::enabled())
        });
    });
}

criterion_group!(benches, bench_overhead);
criterion_main!(benches);
