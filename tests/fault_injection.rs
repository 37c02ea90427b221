//! Property-style sweep over the fault-injection layer (`bprom-faults`):
//! seeded fault plans must be exactly reproducible, hit their configured
//! rate in aggregate, and compose with the query-accounting decorators
//! without losing a single attempt.

use bprom_suite::ckpt::{Decoder, Encoder};
use bprom_suite::faults::{
    AdaptiveConfig, AdaptiveOracle, FaultyOracle, RetryPolicy, RetryingOracle, Transient,
};
use bprom_suite::nn::models::{mlp, ModelSpec};
use bprom_suite::qcache::{CacheConfig, CachingOracle};
use bprom_suite::regimes::{OracleRegime, RegimeOracle};
use bprom_suite::scenarios::PromptedBackbone;
use bprom_suite::tensor::{Rng, Tensor};
use bprom_suite::vp::{
    BlackBoxModel, CountingOracle, LabelMap, OracleStats, QueryOracle, VisualPrompt,
};

fn oracle() -> QueryOracle {
    let mut rng = Rng::new(0);
    let model = mlp(&ModelSpec::new(3, 8, 5), &mut rng).unwrap();
    QueryOracle::new(model, 5)
}

/// Distinct single-image batches, deterministic across runs.
fn batches(count: usize) -> Vec<Tensor> {
    let mut rng = Rng::new(999);
    (0..count)
        .map(|_| Tensor::rand_uniform(&[1, 3, 8, 8], 0.0, 1.0, &mut rng))
        .collect()
}

/// The per-query fault fates (true = dropped) of one fresh plan run.
fn fault_pattern(inner: &QueryOracle, batches: &[Tensor], rate: f32, seed: u64) -> Vec<bool> {
    let faulty = FaultyOracle::new(inner, Transient { rate }, seed);
    batches
        .iter()
        .map(|b| faulty.try_query_batch(b).unwrap().is_err())
        .collect()
}

/// Satellite 1 (sweep): over 200 seeds, fault patterns are exactly
/// reproducible per seed, differ across seeds, and the aggregate fault
/// frequency matches the plan rate.
#[test]
fn seeded_sweep_reproducible_and_rate_accurate() {
    const SEEDS: u64 = 200;
    const QUERIES: usize = 50;
    const RATE: f32 = 0.2;
    let inner = oracle();
    let batches = batches(QUERIES);

    let mut total_faults = 0u64;
    let mut distinct_patterns = std::collections::HashSet::new();
    for seed in 0..SEEDS {
        let first = fault_pattern(&inner, &batches, RATE, seed);
        let second = fault_pattern(&inner, &batches, RATE, seed);
        assert_eq!(first, second, "seed {seed} fault pattern not reproducible");
        total_faults += first.iter().filter(|&&f| f).count() as u64;
        distinct_patterns.insert(first);
    }

    // 10 000 Bernoulli(0.2) draws: the observed frequency must sit well
    // inside ±0.05 of the rate (a >12 sigma band — failures here mean a
    // broken RNG keying, not bad luck).
    let freq = total_faults as f64 / (SEEDS as usize * QUERIES) as f64;
    assert!(
        (freq - RATE as f64).abs() < 0.05,
        "fault frequency {freq:.4} far from configured rate {RATE}"
    );
    // The seed must actually steer the draws.
    assert!(
        distinct_patterns.len() > SEEDS as usize / 2,
        "only {} distinct fault patterns over {SEEDS} seeds",
        distinct_patterns.len()
    );
}

/// Repeating the *same* content re-rolls the fault draw (the per-content
/// attempt counter feeds the seed), so a retry of a dropped query is not
/// doomed to drop forever.
#[test]
fn repeated_content_rerolls_the_draw() {
    let inner = oracle();
    let faulty = FaultyOracle::new(&inner, Transient { rate: 0.5 }, 77);
    let batch = &batches(1)[0];
    let fates: Vec<bool> = (0..64)
        .map(|_| faulty.try_query_batch(batch).unwrap().is_err())
        .collect();
    assert!(
        fates.iter().any(|&f| f),
        "rate 0.5 never faulted in 64 tries"
    );
    assert!(
        fates.iter().any(|&f| !f),
        "rate 0.5 never passed in 64 tries"
    );
}

/// Satellite 1 (accounting): a counting layer *inside* the retry loop
/// bills every attempt — dropped requests reach a real endpoint's meter
/// too — while the sealed model only ever runs the delivered ones.
#[test]
fn counting_inside_retries_bills_every_attempt() {
    const LOGICAL: u64 = 40;
    let inner = oracle();
    let faulty = FaultyOracle::new(&inner, Transient { rate: 0.3 }, 4242);
    let counting = CountingOracle::new(&faulty);
    let policy = RetryPolicy {
        max_attempts: 12,
        ..RetryPolicy::default()
    };
    let retrying = RetryingOracle::new(&counting, policy);

    let mut rng = Rng::new(5);
    for _ in 0..LOGICAL {
        let batch = Tensor::rand_uniform(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let probs = retrying.query(&batch).unwrap();
        assert_eq!(probs.shape(), &[2, 5]);
    }

    let faults = faulty.faults_injected();
    assert!(faults > 0, "rate 0.3 over 40 queries must fault");
    assert_eq!(retrying.exhausted(), 0);
    // Every injected fault cost exactly one retry...
    assert_eq!(retrying.retries(), faults);
    // ...and the attempt-level meter saw the logical queries plus every
    // retried attempt, batch for batch, image for image.
    assert_eq!(counting.local_batches(), LOGICAL + faults);
    assert_eq!(counting.local_queries(), (LOGICAL + faults) * 2);
    // The sealed model only ran the delivered responses.
    assert_eq!(inner.queries_used(), LOGICAL * 2);
    // The merged stats view agrees with each layer's own tally.
    let stats = retrying.oracle_stats();
    assert_eq!(stats.faults_injected, faults);
    assert_eq!(stats.retries, faults);
    assert_eq!(stats.retry_exhausted, 0);
}

/// The mirror stack: a counting layer *outside* the retry loop bills
/// each logical query exactly once no matter how many attempts the
/// retries burned underneath. This is why `Verdict::queries` is
/// fault-invariant.
#[test]
fn counting_outside_retries_bills_logical_queries_once() {
    const LOGICAL: u64 = 40;
    let inner = oracle();
    let faulty = FaultyOracle::new(&inner, Transient { rate: 0.3 }, 4242);
    let policy = RetryPolicy {
        max_attempts: 12,
        ..RetryPolicy::default()
    };
    let retrying = RetryingOracle::new(&faulty, policy);
    let counting = CountingOracle::new(&retrying);

    let mut rng = Rng::new(5);
    for _ in 0..LOGICAL {
        let batch = Tensor::rand_uniform(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        counting.query(&batch).unwrap();
    }

    assert!(retrying.retries() > 0);
    assert_eq!(counting.local_batches(), LOGICAL);
    assert_eq!(counting.local_queries(), LOGICAL * 2);
    assert_eq!(inner.queries_used(), LOGICAL * 2);
}

/// A cached prompted backbone: the bottom two layers of the full stack.
fn cached_backbone() -> CachingOracle<PromptedBackbone> {
    let mut rng = Rng::new(31);
    let backbone = QueryOracle::new(mlp(&ModelSpec::new(3, 16, 10), &mut rng).unwrap(), 10);
    let prompt = VisualPrompt::random(3, 16, 2, &mut rng).unwrap();
    let map = LabelMap::identity(10, 10).unwrap();
    let composite = PromptedBackbone::new(backbone, prompt, map).unwrap();
    CachingOracle::new(composite, CacheConfig::unbounded())
}

/// One stack of every composable layer. The outermost layer reaches the
/// cache for export and import, and its query count and stats are the
/// sums of each layer's own tallies.
#[test]
fn every_layer_stack_forwards_cache_and_sums_tallies() {
    const ROWS: u64 = 3;
    let cache = cached_backbone();
    let adaptive = AdaptiveOracle::new(&cache, AdaptiveConfig::default(), 8);
    let faulty = FaultyOracle::new(&adaptive, Transient { rate: 0.25 }, 0xFA17);
    let retrying = RetryingOracle::new(&faulty, RetryPolicy::default());
    let counting = CountingOracle::new(&retrying);
    let outer = RegimeOracle::new(&counting, OracleRegime::TopK(3));

    let mut rng = Rng::new(6);
    let distinct: Vec<Tensor> = (0..8)
        .map(|_| Tensor::rand_uniform(&[ROWS as usize, 3, 12, 12], 0.0, 1.0, &mut rng))
        .collect();
    // Each batch twice (cache hits), then one batch until the adaptive
    // endpoint's duplicate test trips (evasions).
    for batch in distinct.iter().chain(&distinct).chain([&distinct[0]; 3]) {
        assert_eq!(outer.query(batch).unwrap().shape(), &[ROWS as usize, 10]);
    }
    assert_eq!(outer.num_classes(), 10);

    let stats = outer.oracle_stats();
    assert!(stats.faults_injected > 0 && stats.cache_hits > 0 && stats.evasive_responses > 0);
    assert_eq!(
        stats,
        OracleStats {
            faults_injected: faulty.faults_injected(),
            degraded_responses: faulty.degraded_responses(),
            retries: retrying.retries(),
            retry_exhausted: retrying.exhausted(),
            backoff_virtual_ms: retrying.backoff_virtual_ms(),
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            cache_evictions: cache.evictions(),
            evasive_responses: adaptive.evasions(),
        }
    );
    // Provider rows, plus rows the cache served, plus rows the adaptive
    // endpoint fabricated.
    assert_eq!(
        outer.queries_used(),
        cache.inner().queries_used() + cache.hits() + adaptive.evasions() * ROWS
    );
    assert_eq!(counting.local_queries(), 19 * ROWS);

    // Export through the outermost layer is the cache's own export...
    let (mut via_stack, mut direct) = (Encoder::new(), Encoder::new());
    assert!(outer.export_cache(&mut via_stack));
    assert!(cache.export_cache(&mut direct));
    let bytes = via_stack.into_bytes();
    assert_eq!(bytes, direct.into_bytes());
    // ...and import through a fresh stack's outermost layer restores it.
    let fresh = cached_backbone();
    let adaptive = AdaptiveOracle::new(&fresh, AdaptiveConfig::default(), 8);
    let faulty = FaultyOracle::new(&adaptive, Transient { rate: 0.25 }, 0xFA17);
    let retrying = RetryingOracle::new(&faulty, RetryPolicy::default());
    let counting = CountingOracle::new(&retrying);
    let fresh_outer = RegimeOracle::new(&counting, OracleRegime::TopK(3));
    let mut dec = Decoder::new(&bytes);
    fresh_outer.import_cache(&mut dec).unwrap();
    dec.finish().unwrap();
    assert_eq!(fresh.entry_count(), cache.entry_count());
    let mut restored = Encoder::new();
    assert!(fresh.export_cache(&mut restored));
    assert_eq!(restored.into_bytes(), bytes);
}
