//! Performance gates of the query cache, CMA-ES snapshots and fleet
//! audits, each at a small, fixed scale.
//!
//! The hit-rate gates are deterministic and run in tier 1. The timed
//! gates are tier 2 (`#[ignore]`) and are meant for an optimized build:
//! `cargo test --release --test perf_gates -- --ignored --nocapture`.
//! Every test here holds [`TIMED`], so no timed section shares the host
//! with another test of this binary. The conv-kernel speedup gate lives
//! next to the kernels (`conv_epoch_speedup_gate` in bprom-tensor).

use bprom::{build_suspicious_zoo, Bprom, BpromConfig, SuspiciousModel, ZooConfig};
use bprom_attacks::AttackKind;
use bprom_audit::{AuditEngine, AuditOutcome, AuditRequest, DetectorSpec, ShadowZooRegistry};
use bprom_ckpt::SnapshotStore;
use bprom_data::SynthDataset;
use bprom_nn::models::{mlp, ModelSpec};
use bprom_nn::TrainConfig;
use bprom_qcache::{CacheConfig, CachingOracle};
use bprom_tensor::{Rng, Tensor};
use bprom_vp::{
    prompted_accuracy_blackbox, train_prompt_cmaes, BlackBoxModel, CmaesCheckpoint, LabelMap,
    PromptTrainConfig, QueryOracle, VisualPrompt,
};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

static TIMED: Mutex<()> = Mutex::new(());

fn timed() -> MutexGuard<'static, ()> {
    TIMED.lock().unwrap_or_else(|e| e.into_inner())
}

/// The audited black box of the cache and snapshot gates: a seeded
/// 10-class MLP on 16×16 RGB inputs.
fn mlp_oracle() -> QueryOracle {
    let model = mlp(&ModelSpec::new(3, 16, 10), &mut Rng::new(100)).expect("model");
    QueryOracle::new(model, 10)
}

/// CMA-ES prompt learning against `oracle` from a fixed start (10 STL-10
/// images per class, identity label map), snapshotting every generation
/// when `ckpt` is set, followed by the prompted-accuracy pass
/// `Bprom::inspect` makes with the learned prompt. Returns the seconds
/// spent in the search alone.
fn prompt_search(
    oracle: &dyn BlackBoxModel,
    generations: usize,
    population: usize,
    ckpt: Option<CmaesCheckpoint<'_>>,
) -> f64 {
    let mut rng = Rng::new(200);
    let target = SynthDataset::Stl10.generate(10, 16, 9).expect("dataset");
    let map = LabelMap::identity(10, 10).expect("map");
    let mut prompt = VisualPrompt::random(3, 16, 4, &mut rng).expect("prompt");
    let config = PromptTrainConfig {
        cmaes_generations: generations,
        cmaes_population: population,
        ..PromptTrainConfig::default()
    };
    let t0 = Instant::now();
    train_prompt_cmaes(
        oracle,
        &mut prompt,
        &target.images,
        &target.labels,
        &map,
        &config,
        &mut rng,
        ckpt,
    )
    .expect("cmaes");
    let search_s = t0.elapsed().as_secs_f64();
    prompted_accuracy_blackbox(oracle, &prompt, &target.images, &target.labels, &map)
        .expect("accuracy");
    search_s
}

/// Cache hit rate of one single-model inspection (6 generations of 8
/// candidates, then the accuracy pass) through an unbounded cache.
fn single_run_hit_rate() -> f64 {
    let cached = CachingOracle::new(mlp_oracle(), CacheConfig::unbounded());
    prompt_search(&cached, 6, 8, None);
    cached.hits() as f64 / (cached.hits() + cached.misses()).max(1) as f64
}

/// The cache's cost at a 0 % hit rate: 40 unique 16-image batches
/// through the bare oracle and through a fresh LRU cache, minimum of
/// three passes each after one warmup. Overhead must stay under 5 %.
#[test]
#[ignore]
fn qcache_pure_miss_overhead_under_5_percent() {
    let _timed = timed();
    let mut rng = Rng::new(300);
    let batches: Vec<Tensor> = (0..40)
        .map(|_| Tensor::rand_uniform(&[16, 3, 16, 16], 0.0, 1.0, &mut rng))
        .collect();
    let stream = |oracle: &dyn BlackBoxModel, batches: &[Tensor]| {
        let t0 = Instant::now();
        for b in batches {
            std::hint::black_box(oracle.query(b).expect("query"));
        }
        t0.elapsed().as_secs_f64()
    };
    let lru = || CachingOracle::new(mlp_oracle(), CacheConfig::lru(4096));
    let bare = mlp_oracle();
    stream(&bare, &batches[..4]);
    stream(&lru(), &batches[..4]);
    let bare_s = (0..3)
        .map(|_| stream(&bare, &batches))
        .fold(f64::INFINITY, f64::min);
    // A fresh cache per pass: a warm one would measure hits.
    let cached_s = (0..3)
        .map(|_| stream(&lru(), &batches))
        .fold(f64::INFINITY, f64::min);
    let overhead = cached_s / bare_s - 1.0;
    eprintln!("pure-miss stream: bare {bare_s:.4}s, cached {cached_s:.4}s, overhead {overhead:.4}");
    assert!(
        overhead < 0.05,
        "cache overhead {overhead:.4} at a 0 % hit rate"
    );
}

/// Per-generation atomic snapshots of a 10-generation, 12-candidate
/// CMA-ES search must add under 5 % to its wall-clock (one run each).
#[test]
#[ignore]
fn ckpt_snapshot_overhead_under_5_percent() {
    let _timed = timed();
    let bare_s = prompt_search(&mlp_oracle(), 10, 12, None);
    let dir = std::env::temp_dir().join(format!("bprom-perf-gates-ckpt-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = SnapshotStore::open(&dir).expect("snapshot store");
    let ckpt = CmaesCheckpoint {
        store: &store,
        name: "gate",
    };
    let ckpt_s = prompt_search(&mlp_oracle(), 10, 12, Some(ckpt));
    std::fs::remove_dir_all(&dir).ok();
    let overhead = ckpt_s / bare_s - 1.0;
    eprintln!("CMA-ES: bare {bare_s:.4}s, snapshotting {ckpt_s:.4}s, overhead {overhead:.4}");
    assert!(overhead < 0.05, "snapshot overhead {overhead:.4}");
}

const N_MODELS: usize = 8;

/// A 2 + 2 shadow detector with 2-epoch training, a 4 × 6 CMA-ES search
/// and an unbounded query cache, fitted at seed 7.
fn fleet_spec() -> DetectorSpec {
    let mut config = BpromConfig::fast(SynthDataset::Cifar10, SynthDataset::Stl10);
    config.cache = CacheConfig::unbounded();
    config.clean_shadows = 2;
    config.backdoor_shadows = 2;
    config.test_samples_per_class = 20;
    config.target_samples_per_class = 10;
    config.train = TrainConfig {
        epochs: 2,
        ..TrainConfig::default()
    };
    config.prompt = PromptTrainConfig {
        epochs: 2,
        cmaes_generations: 4,
        cmaes_population: 6,
        ..PromptTrainConfig::default()
    };
    DetectorSpec::new(config, 7)
}

/// Four clean and four Blend-backdoored CIFAR-10 models, rebuilt
/// bit-identically on every call because audit queues consume them.
fn marketplace() -> Vec<SuspiciousModel> {
    let mut zoo = ZooConfig::new(SynthDataset::Cifar10, AttackKind::Blend);
    zoo.clean = N_MODELS / 2;
    zoo.backdoored = N_MODELS / 2;
    zoo.samples_per_class = 20;
    zoo.train = TrainConfig {
        epochs: 2,
        ..TrainConfig::default()
    };
    build_suspicious_zoo(&zoo, &mut Rng::new(99)).expect("zoo")
}

fn queue(spec: &DetectorSpec) -> Vec<AuditRequest> {
    marketplace()
        .into_iter()
        .enumerate()
        .map(|(i, m)| {
            AuditRequest::from_suspicious(format!("m{i}"), m, 10, spec.clone(), 1000 + i as u64)
        })
        .collect()
}

fn hit_rate(outcomes: &[AuditOutcome]) -> f64 {
    let hits: u64 = outcomes.iter().map(|o| o.record.signals.cache_hits).sum();
    let misses: u64 = outcomes.iter().map(|o| o.record.signals.cache_misses).sum();
    hits as f64 / (hits + misses).max(1) as f64
}

/// One thread, so the engine's concurrency cannot hide overhead: an
/// 8-model fleet costs at most 1.25× one fit plus eight standalone
/// inspections, and one registry fit serves it and a second, warm run.
#[test]
#[ignore]
fn fleet_costs_at_most_one_fit_plus_inspections() {
    let _timed = timed();
    let spec = fleet_spec();
    bprom_par::set_thread_count(1);
    let t0 = Instant::now();
    let detector = Bprom::fit(&spec.config, &mut Rng::new(spec.fit_seed)).expect("fit");
    let fit_s = t0.elapsed().as_secs_f64();
    let mut inspect_s = 0.0;
    for (i, m) in marketplace().into_iter().enumerate() {
        let oracle = CachingOracle::new(QueryOracle::new(m.model, 10), spec.config.cache);
        let t = Instant::now();
        detector
            .inspect(&oracle, &mut Rng::new(1000 + i as u64))
            .expect("inspect");
        inspect_s += t.elapsed().as_secs_f64();
    }
    let engine = AuditEngine::new("perf-gate-fleet", ShadowZooRegistry::in_memory());
    let fleet_queue = queue(&spec);
    let t = Instant::now();
    let fleet = engine
        .run_with(fleet_queue, |d, o, rng| d.inspect(o, rng))
        .expect("fleet");
    let fleet_s = t.elapsed().as_secs_f64();
    bprom_par::set_thread_count(0);
    assert_eq!(fleet.registry.builds, 1, "one fit serves the fleet");
    let steady = engine
        .run_with(queue(&spec), |d, o, rng| d.inspect(o, rng))
        .expect("warm fleet");
    assert_eq!(steady.registry.builds, 1, "a warm registry fits nothing");

    let budget_s = fit_s + inspect_s;
    eprintln!("fleet {fleet_s:.3}s vs budget {budget_s:.3}s (fit {fit_s:.3}s)");
    assert!(
        fleet_s <= 1.25 * budget_s,
        "fleet {fleet_s:.3}s over 1.25x the {budget_s:.3}s budget"
    );
}

/// Re-screening the fleet with per-model caches shared across audits:
/// the fleet hit rate is at least 0.25 and over ten times a single
/// inspection's (itself above 0), and the same-seed re-audits replay
/// almost entirely.
#[test]
fn fleet_rescreen_replays_from_cache() {
    let _timed = timed();
    let spec = fleet_spec();
    let engine = AuditEngine::new("perf-gate-rescreen", ShadowZooRegistry::in_memory())
        .share_model_caches(true);
    let mut requests = queue(&spec);
    requests.extend(queue(&spec).into_iter().map(|mut r| {
        r.label.push_str("-rescreen");
        r
    }));
    let report = engine
        .run_with(requests, |d, o, rng| d.inspect(o, rng))
        .expect("rescreen");
    assert_eq!(report.len(), 2 * N_MODELS);
    let fleet = report.cache_hit_rate();
    let re_audit = hit_rate(&report.outcomes[N_MODELS..]);
    let baseline = single_run_hit_rate();
    eprintln!("fleet hit rate {fleet:.4}, re-audits {re_audit:.4}, single run {baseline:.4}");
    assert!(
        baseline > 0.0,
        "the accuracy pass must replay cached content"
    );
    assert!(
        fleet >= 0.25 && fleet > 10.0 * baseline,
        "fleet hit rate {fleet:.4} against single-run {baseline:.4}"
    );
    assert!(re_audit > 0.9, "re-audit hit rate {re_audit:.4}");
}
