//! Equivalence contract of the query cache (`bprom-qcache`): caching is
//! *response-transparent*. Every confidence vector an oracle serves — and
//! therefore every verdict and detection report downstream — must be
//! bit-identical with the cache off, unbounded, or LRU-bounded, at any
//! thread count, hostile oracle stacks included. The cache may only
//! change *provider-side* spend, and must account for it exactly:
//! `cache_hits + cache_misses` equals the uncached query total.
//!
//! Tier 1 covers the oracle boundary directly (a 50-seed sweep over
//! random batch shapes with duplicated rows, a hostile-stack sweep, and
//! a row-order property check) plus one small end-to-end smoke at the
//! default thread count. The full pipeline matrix — cache mode × thread
//! count × fault profile — is `#[ignore]`d and run by the tier-2 CI job
//! (`cargo test -q --workspace -- --ignored`).

use bprom_suite::attacks::AttackKind;
use bprom_suite::bprom::{
    build_suspicious_zoo, evaluate_oracle_zoo, Bprom, BpromConfig, CacheConfig, DetectionReport,
    OracleRegime, Scenario, Verdict, ZooConfig, ZooEntry,
};
use bprom_suite::data::SynthDataset;
use bprom_suite::faults::{
    AdaptiveConfig, AdaptiveOracle, FaultProfile, FaultyOracle, RetryPolicy, RetryingOracle,
    Transient,
};
use bprom_suite::nn::models::{mlp, ModelSpec};
use bprom_suite::nn::TrainConfig;
use bprom_suite::par;
use bprom_suite::qcache::CachingOracle;
use bprom_suite::scenarios::{build_backbone_zoo, BackboneScenarioConfig};
use bprom_suite::tensor::{Rng, Tensor};
use bprom_suite::vp::{BlackBoxModel, PromptStyle, PromptTrainConfig, QueryOracle};
use std::sync::Mutex;

/// Serializes the tier-2 matrix with any other test that flips the
/// process-global worker-pool size.
static THREAD_KNOB: Mutex<()> = Mutex::new(());

const ROW: usize = 3 * 8 * 8;

/// A fresh oracle over the model deterministically derived from `seed`;
/// two calls with the same seed wrap bit-identical models.
fn oracle_for(seed: u64, k: usize) -> QueryOracle {
    let model = mlp(&ModelSpec::new(3, 8, k), &mut Rng::new(seed)).unwrap();
    QueryOracle::new(model, k)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|p| p.to_bits()).collect()
}

/// A `[n, 3, 8, 8]` batch whose rows are drawn (with repetition) from a
/// pool of distinct images, so dedup and hits both trigger.
fn batch_from_pool(pool: &Tensor, picks: &[usize]) -> Tensor {
    let mut data = Vec::with_capacity(picks.len() * ROW);
    for &i in picks {
        data.extend_from_slice(&pool.data()[i * ROW..(i + 1) * ROW]);
    }
    Tensor::from_vec(data, &[picks.len(), 3, 8, 8]).unwrap()
}

fn modes() -> [CacheConfig; 3] {
    [
        CacheConfig::off(),
        CacheConfig::unbounded(),
        CacheConfig::lru(5),
    ]
}

/// 50 seeds × {off, mem, lru} over random batch shapes with duplicated
/// rows: every response bit-identical to the uncached oracle, logical
/// spend identical, and `hits + misses` equal to the uncached total.
#[test]
fn fifty_seeds_off_mem_lru_are_bit_identical() {
    for seed in 0..50u64 {
        let k = 3 + (seed as usize % 6);
        let reference = oracle_for(seed, k);
        let cached: Vec<CachingOracle<QueryOracle>> = modes()
            .iter()
            .map(|&mode| CachingOracle::new(oracle_for(seed, k), mode))
            .collect();

        let mut rng = Rng::new(0x5EED ^ seed);
        let pool = Tensor::rand_uniform(&[6, 3, 8, 8], 0.0, 1.0, &mut rng);
        for _ in 0..5 {
            let n = 1 + rng.below(8);
            let picks: Vec<usize> = (0..n).map(|_| rng.below(6)).collect();
            let b = batch_from_pool(&pool, &picks);
            let want = bits(&reference.query(&b).unwrap());
            for c in &cached {
                assert_eq!(bits(&c.query(&b).unwrap()), want, "seed {seed}");
            }
        }

        let spent = reference.queries_used();
        for (c, mode) in cached.iter().zip(modes()) {
            // Logical spend is mode-invariant; provider spend is not.
            assert_eq!(c.queries_used(), spent, "seed {seed} {mode:?}");
            let stats = c.oracle_stats();
            if mode == CacheConfig::off() {
                assert_eq!(stats.cache_hits + stats.cache_misses, 0);
                assert_eq!(c.inner().queries_used(), spent);
            } else {
                assert_eq!(
                    stats.cache_hits + stats.cache_misses,
                    spent,
                    "seed {seed} {mode:?}: cache accounting must cover every row"
                );
                assert_eq!(c.inner().queries_used() + stats.cache_hits, spent);
            }
        }
    }
}

/// The same sweep behind a hostile stack (retry → faults → cache):
/// responses and fault statistics are bit-identical to the cache-free
/// stack under every cache mode.
#[test]
fn hostile_stack_is_mode_invariant() {
    for seed in 0..10u64 {
        let k = 4 + (seed as usize % 3);
        let mut rng = Rng::new(0xFA ^ seed);
        let pool = Tensor::rand_uniform(&[4, 3, 8, 8], 0.0, 1.0, &mut rng);
        let batches: Vec<Tensor> = (0..4)
            .map(|_| {
                let n = 1 + rng.below(6);
                let picks: Vec<usize> = (0..n).map(|_| rng.below(4)).collect();
                batch_from_pool(&pool, &picks)
            })
            .collect();

        // Reference: the hostile stack over the bare oracle.
        let bare = oracle_for(seed, k);
        let faulty = FaultyOracle::new(&bare, Transient { rate: 0.2 }, 0xFA17 ^ seed);
        let retrying = RetryingOracle::new(&faulty, RetryPolicy::default());
        let want: Vec<Vec<u32>> = batches
            .iter()
            .map(|b| bits(&retrying.query(b).unwrap()))
            .collect();
        let want_stats = retrying.oracle_stats();

        for mode in [CacheConfig::unbounded(), CacheConfig::lru(3)] {
            let cached = CachingOracle::new(oracle_for(seed, k), mode);
            let faulty = FaultyOracle::new(&cached, Transient { rate: 0.2 }, 0xFA17 ^ seed);
            let retrying = RetryingOracle::new(&faulty, RetryPolicy::default());
            for (b, want) in batches.iter().zip(&want) {
                assert_eq!(&bits(&retrying.query(b).unwrap()), want, "seed {seed}");
            }
            let stats = retrying.oracle_stats();
            // Fault draws are content-keyed, so the hostile layer behaves
            // identically whether or not a cache sits below it.
            assert_eq!(stats.faults_injected, want_stats.faults_injected);
            assert_eq!(stats.retries, want_stats.retries);
            assert_eq!(stats.retry_exhausted, want_stats.retry_exhausted);
        }
    }
}

/// Property sweep over random batch shapes: dedup must never reorder
/// rows. Every output row equals the reference response for exactly the
/// image occupying that row, even when the batch repeats rows in
/// arbitrary patterns and a tiny LRU is evicting throughout.
#[test]
fn dedup_never_reorders_rows_across_random_shapes() {
    for seed in 0..20u64 {
        let k = 5;
        let reference = oracle_for(seed, k);
        let mut rng = Rng::new(0xDE0 ^ seed);
        let pool_n = 1 + rng.below(5);
        let pool = Tensor::rand_uniform(&[pool_n, 3, 8, 8], 0.0, 1.0, &mut rng);
        // Per-pool-row reference responses, from single-row batches.
        let row_want: Vec<Vec<u32>> = (0..pool_n)
            .map(|i| bits(&reference.query(&batch_from_pool(&pool, &[i])).unwrap()))
            .collect();

        for mode in [CacheConfig::unbounded(), CacheConfig::lru(2)] {
            let cached = CachingOracle::new(oracle_for(seed, k), mode);
            for _ in 0..6 {
                let n = 1 + rng.below(10);
                let picks: Vec<usize> = (0..n).map(|_| rng.below(pool_n)).collect();
                let got = cached.query(&batch_from_pool(&pool, &picks)).unwrap();
                for (slot, &i) in picks.iter().enumerate() {
                    assert_eq!(
                        got.data()[slot * k..(slot + 1) * k]
                            .iter()
                            .map(|p| p.to_bits())
                            .collect::<Vec<u32>>(),
                        row_want[i],
                        "seed {seed} {mode:?}: row {slot} must hold image {i}'s response"
                    );
                }
            }
        }
    }
}

fn tiny_config() -> BpromConfig {
    let mut config = BpromConfig::fast(SynthDataset::Cifar10, SynthDataset::Stl10);
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
    config
}

/// Everything in a verdict that must be cache-mode-invariant: score,
/// decision, prompted accuracy, and the full logical budget (wall-clock
/// and the cache's own tallies excluded).
fn fingerprint(v: &Verdict) -> Vec<u64> {
    vec![
        u64::from(v.score.to_bits()),
        u64::from(v.backdoored),
        u64::from(v.prompted_accuracy.to_bits()),
        v.queries,
        v.budget.prompt_queries,
        v.budget.accuracy_queries,
        v.budget.probe_queries,
        v.budget.faults_injected,
        v.budget.retries,
        v.budget.retry_exhausted,
        v.budget.degraded_responses,
        v.budget.backoff_virtual_ms,
        v.budget.penalized_candidates,
    ]
}

/// End-to-end smoke at the default thread count: one fitted detector
/// inspects the same suspicious model under every cache mode, plain and
/// behind the hostile stack. Verdicts are bit-identical; the cache's own
/// accounting covers the uncached spend exactly.
#[test]
fn pipeline_verdicts_are_mode_invariant() {
    let mut rng = Rng::new(42);
    let config = tiny_config();
    let detector = Bprom::fit(&config, &mut rng).unwrap();

    let mut zoo_cfg = ZooConfig::new(SynthDataset::Cifar10, AttackKind::BadNets);
    zoo_cfg.clean = 0;
    zoo_cfg.backdoored = 1;
    zoo_cfg.samples_per_class = 20;
    zoo_cfg.train = TrainConfig {
        epochs: 2,
        ..TrainConfig::default()
    };
    let zoo = build_suspicious_zoo(&zoo_cfg, &mut rng).unwrap();
    let num_classes = config.source_dataset.num_classes();
    let mut model = zoo.into_iter().next().unwrap().model;

    let mut plain: Vec<Verdict> = Vec::new();
    let mut hostile: Vec<Verdict> = Vec::new();
    for mode in [
        CacheConfig::off(),
        CacheConfig::unbounded(),
        CacheConfig::lru(4096),
    ] {
        // Plain leg: the cache is the outermost (and only) decorator.
        let cached = CachingOracle::new(QueryOracle::new(model, num_classes), mode);
        plain.push(detector.inspect(&cached, &mut Rng::new(7)).unwrap());
        model = cached.into_inner().into_inner();

        // Hostile leg: retry → faults stacked above a fresh cache.
        let cached = CachingOracle::new(QueryOracle::new(model, num_classes), mode);
        let verdict = FaultProfile::Hostile.wrap(&cached, 0xFA17, |o| {
            detector.inspect(o, &mut Rng::new(7)).unwrap()
        });
        hostile.push(verdict);
        model = cached.into_inner().into_inner();
    }

    for v in &plain[1..] {
        assert_eq!(
            fingerprint(v),
            fingerprint(&plain[0]),
            "cache mode leaked into a plain verdict"
        );
    }
    for v in &hostile[1..] {
        assert_eq!(
            fingerprint(v),
            fingerprint(&hostile[0]),
            "cache mode leaked into a hostile verdict"
        );
    }
    assert!(hostile[0].budget.faults_injected > 0);

    // Exact accounting: every logical row of the off-mode run shows up as
    // a hit or a miss in the memoized runs, and the accuracy pass replays
    // enough of the CMA-ES traffic to guarantee hits.
    let off_queries = plain[0].queries;
    for v in &plain[1..] {
        assert_eq!(v.budget.cache_hits + v.budget.cache_misses, off_queries);
        assert!(v.budget.cache_hits > 0, "accuracy pass must hit the cache");
    }
    assert_eq!(plain[0].budget.cache_hits, 0);
    assert_eq!(plain[0].budget.cache_misses, 0);
}

/// One identically-seeded fit + zoo + evaluate run under the given cache
/// policy and the currently installed thread count.
fn run_pipeline(profile: FaultProfile, cache: CacheConfig) -> DetectionReport {
    run_regime_pipeline(
        OracleRegime::from_env_or(OracleRegime::FullScores),
        false,
        profile,
        cache,
    )
}

/// `run_pipeline` with the oracle regime pinned explicitly and an
/// optional adaptive-attacker decoration on every inspected oracle.
fn run_regime_pipeline(
    regime: OracleRegime,
    adaptive: bool,
    profile: FaultProfile,
    cache: CacheConfig,
) -> DetectionReport {
    let mut rng = Rng::new(42);
    let mut config = tiny_config();
    config.regime = regime;
    config.cache = cache;
    if adaptive {
        // Pad-style prompting carries the bit-identical-border signature
        // the adaptive attacker's similarity test keys on (overlay-style
        // prompts are per-row unique and evade a per-batch test).
        config.prompt_style = PromptStyle::Pad;
    }
    let detector = Bprom::fit(&config, &mut rng).unwrap();

    let mut zoo_cfg = ZooConfig::new(SynthDataset::Cifar10, AttackKind::BadNets);
    zoo_cfg.clean = 1;
    zoo_cfg.backdoored = 1;
    zoo_cfg.samples_per_class = 20;
    zoo_cfg.train = TrainConfig {
        epochs: 2,
        ..TrainConfig::default()
    };
    let zoo = build_suspicious_zoo(&zoo_cfg, &mut rng).unwrap();
    let entries = zoo.into_iter().map(|m| m.into_entry(10)).collect();
    let mut report = evaluate_oracle_zoo(
        &detector,
        Scenario::Downstream,
        entries,
        &mut rng,
        |detector, oracle, run| {
            if adaptive {
                // Adaptive attacker above the detector's own cache:
                // evasion decisions are pure functions of batch content,
                // so they cannot observe (or leak) the cache mode.
                let adaptive = AdaptiveOracle::new(&oracle, AdaptiveConfig::default(), 0xADA9);
                detector.inspect(&adaptive, run)
            } else {
                profile.wrap(&oracle, 0xFA17, |o| detector.inspect(o, run))
            }
        },
    )
    .unwrap();
    report.mean_inspect_ms = 0.0;
    report
}

/// JSON with the legitimately mode-dependent fields zeroed: wall-clock
/// and the cache's own hit/miss/eviction tallies, both the report totals
/// and the per-audit copies inside `audits[].signals`. Everything else —
/// scores, prompted accuracies, AUROC/F1, the logical query budget, the
/// fault and evasion totals — must be byte-identical across the matrix.
fn scrubbed_json(report: &DetectionReport) -> String {
    let mut r = report.clone();
    r.total_cache_hits = 0;
    r.total_cache_misses = 0;
    r.total_cache_evictions = 0;
    for audit in &mut r.audits {
        audit.signals.cache_hits = 0;
        audit.signals.cache_misses = 0;
        audit.signals.cache_evictions = 0;
    }
    r.to_json().unwrap()
}

/// Tier-1 regime leg: under top-k truncation and label-only responses
/// the cache must stay response-transparent — the detector-side regime
/// degrade sits *above* the cache (the cache memoizes full scores), so
/// scrubbed reports are byte-identical with the cache off or unbounded,
/// and the memoized leg's accounting still covers the uncached spend
/// exactly.
#[test]
fn regime_reports_are_cache_mode_invariant() {
    let _guard = THREAD_KNOB.lock().unwrap();
    for regime in [OracleRegime::TopK(3), OracleRegime::LabelOnly] {
        let off = run_regime_pipeline(regime, false, FaultProfile::Off, CacheConfig::off());
        let mem = run_regime_pipeline(regime, false, FaultProfile::Off, CacheConfig::unbounded());
        assert_eq!(
            scrubbed_json(&mem),
            scrubbed_json(&off),
            "{regime}: cache mode leaked into the detection report"
        );
        assert!(off.total_queries > 0);
        assert_eq!(off.total_cache_hits + off.total_cache_misses, 0);
        assert_eq!(
            mem.total_cache_hits + mem.total_cache_misses,
            off.total_queries,
            "{regime}: cache accounting must cover the uncached spend exactly"
        );
        assert!(mem.total_cache_hits > 0, "{regime}: accuracy pass must hit");
        for audit in &mem.audits {
            assert_eq!(audit.regime, regime.as_wire());
        }
    }
}

/// Tier-2 regime matrix: degraded regimes and the adaptive-attacker tier
/// across thread count × cache mode, every report byte-identical after
/// the scrub. The adaptive oracle sits above the cache, sees every
/// logical query, and keys every decision on batch content, so neither
/// knob can perturb its evasions.
#[test]
#[ignore = "tier-2 regime matrix (16 full runs); CI regimes job runs it via -- --ignored"]
fn regime_matrix_reports_are_byte_identical() {
    let _guard = THREAD_KNOB.lock().unwrap();
    for (regime, adaptive) in [
        (OracleRegime::TopK(3), false),
        (OracleRegime::LabelOnly, false),
        (OracleRegime::FullScores, true),
        (OracleRegime::LabelOnly, true),
    ] {
        let mut runs: Vec<(usize, CacheConfig, DetectionReport)> = Vec::new();
        for threads in [1usize, 4] {
            par::set_thread_count(threads);
            for mode in [CacheConfig::off(), CacheConfig::unbounded()] {
                runs.push((
                    threads,
                    mode,
                    run_regime_pipeline(regime, adaptive, FaultProfile::Off, mode),
                ));
            }
        }
        par::set_thread_count(0);

        let baseline = scrubbed_json(&runs[0].2);
        for (threads, mode, report) in &runs[1..] {
            assert_eq!(
                scrubbed_json(report),
                baseline,
                "{regime} adaptive={adaptive} threads={threads} {mode:?}: report \
                 drifted from the threads=1 cache-off baseline"
            );
        }
        if adaptive {
            let evasions: u64 = runs[0]
                .2
                .audits
                .iter()
                .map(|a| a.signals.evasive_responses)
                .sum();
            assert!(evasions > 0, "{regime}: adaptive tier must trip evasions");
        }
    }
}

/// One identically-seeded backbone-scenario run under the given cache
/// policy: the detector's cache sits between its probes and the sealed
/// `PromptedBackbone` composite, so cache transparency must hold through
/// the prompt-composition and label-translation layers too.
fn run_backbone_pipeline(profile: FaultProfile, cache: CacheConfig) -> DetectionReport {
    let mut rng = Rng::new(42);
    let mut config = tiny_config();
    config.regime = OracleRegime::from_env_or(OracleRegime::FullScores);
    config.cache = cache;
    let detector = Bprom::fit(&config, &mut rng).unwrap();

    let mut zoo_cfg = BackboneScenarioConfig::new(
        SynthDataset::Cifar10,
        SynthDataset::Stl10,
        AttackKind::BadNets,
    );
    zoo_cfg.clean = 1;
    zoo_cfg.backdoored = 1;
    zoo_cfg.samples_per_class = 30;
    zoo_cfg.downstream_samples_per_class = 10;
    zoo_cfg.prompt = PromptTrainConfig {
        epochs: 2,
        ..PromptTrainConfig::default()
    };
    let zoo = build_backbone_zoo(&zoo_cfg, &mut rng).unwrap();
    let entries = zoo.into_iter().map(ZooEntry::from).collect();
    let mut report = evaluate_oracle_zoo(
        &detector,
        Scenario::Backbone,
        entries,
        &mut rng,
        |detector, oracle, run| profile.wrap(&oracle, 0xFA17, |o| detector.inspect(o, run)),
    )
    .unwrap();
    report.mean_inspect_ms = 0.0;
    report
}

/// Tier-1 backbone leg: the cache is response-transparent through a
/// composite oracle — scrubbed reports byte-identical with the cache off
/// or unbounded, exact accounting on the memoized leg, and the scenario
/// stamp untouched by either mode.
#[test]
fn backbone_reports_are_cache_mode_invariant() {
    let _guard = THREAD_KNOB.lock().unwrap();
    let off = run_backbone_pipeline(FaultProfile::Off, CacheConfig::off());
    let mem = run_backbone_pipeline(FaultProfile::Off, CacheConfig::unbounded());
    assert_eq!(
        scrubbed_json(&mem),
        scrubbed_json(&off),
        "cache mode leaked into the backbone-scenario detection report"
    );
    assert_eq!(off.scenario, "backbone");
    assert!(off.total_queries > 0);
    assert_eq!(off.total_cache_hits + off.total_cache_misses, 0);
    assert_eq!(
        mem.total_cache_hits + mem.total_cache_misses,
        off.total_queries,
        "cache accounting must cover the uncached composite spend exactly"
    );
    assert!(mem.total_cache_hits > 0, "accuracy pass must hit the cache");
    for audit in &mem.audits {
        assert!(audit.signals.clean_downstream_training);
    }
}

/// Tier-2 backbone matrix: thread count × cache mode × fault profile
/// over the backbone scenario, every report byte-identical to the
/// threads=1 cache-off baseline of its hostility tier after the scrub.
#[test]
#[ignore = "tier-2 backbone matrix (8 full runs); CI backbone job runs it via -- --ignored"]
fn backbone_matrix_reports_are_byte_identical() {
    let _guard = THREAD_KNOB.lock().unwrap();
    for profile in [FaultProfile::Off, FaultProfile::Hostile] {
        let mut runs: Vec<(usize, CacheConfig, DetectionReport)> = Vec::new();
        for threads in [1usize, 4] {
            par::set_thread_count(threads);
            for mode in [CacheConfig::off(), CacheConfig::unbounded()] {
                runs.push((threads, mode, run_backbone_pipeline(profile, mode)));
            }
        }
        par::set_thread_count(0);

        let baseline = scrubbed_json(&runs[0].2);
        for (threads, mode, report) in &runs[1..] {
            assert_eq!(
                scrubbed_json(report),
                baseline,
                "backbone {profile:?} threads={threads} {mode:?}: report \
                 drifted from the threads=1 cache-off baseline"
            );
        }
        if profile == FaultProfile::Hostile {
            assert!(runs[0].2.total_faults > 0);
        }
        for (_, mode, report) in &runs {
            if *mode == CacheConfig::off() {
                assert_eq!(report.total_cache_hits + report.total_cache_misses, 0);
            } else {
                assert_eq!(
                    report.total_cache_hits + report.total_cache_misses,
                    runs[0].2.total_queries,
                    "backbone {profile:?} {mode:?}: cache accounting must \
                     cover the uncached spend exactly"
                );
            }
        }
    }
}

/// Tier-2: the full cache mode × thread count × fault profile matrix of
/// end-to-end pipeline runs, every report byte-identical after the scrub
/// and the cache accounting exact on every memoized leg.
#[test]
#[ignore = "tier-2 pipeline matrix (12 full runs); CI runs it via -- --ignored"]
fn full_matrix_reports_are_byte_identical() {
    let _guard = THREAD_KNOB.lock().unwrap();
    for profile in [FaultProfile::Off, FaultProfile::Hostile] {
        let mut runs: Vec<(usize, CacheConfig, DetectionReport)> = Vec::new();
        for threads in [1usize, 4] {
            par::set_thread_count(threads);
            for mode in [
                CacheConfig::off(),
                CacheConfig::unbounded(),
                CacheConfig::lru(4096),
            ] {
                runs.push((threads, mode, run_pipeline(profile, mode)));
            }
        }
        par::set_thread_count(0);

        let baseline = scrubbed_json(&runs[0].2);
        for (threads, mode, report) in &runs[1..] {
            assert_eq!(
                scrubbed_json(report),
                baseline,
                "{profile:?} threads={threads} {mode:?}: report drifted from \
                 the threads=1 cache-off baseline"
            );
        }

        let off = &runs[0].2;
        assert!(off.total_queries > 0);
        if profile == FaultProfile::Hostile {
            assert!(off.total_faults > 0);
            assert!(off.total_retries > 0);
        }
        for (_, mode, report) in &runs {
            if *mode == CacheConfig::off() {
                assert_eq!(report.total_cache_hits + report.total_cache_misses, 0);
            } else {
                assert_eq!(
                    report.total_cache_hits + report.total_cache_misses,
                    off.total_queries,
                    "{profile:?} {mode:?}: cache accounting must cover the \
                     uncached spend exactly"
                );
                assert!(report.total_cache_hits > 0);
            }
        }
    }
}
