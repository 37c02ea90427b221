//! Determinism contract of the data-parallel layer (`bprom-par`): the
//! full fit + inspect pipeline must produce *byte-identical* detection
//! reports — scores, AUROC/F1 and the exact query budget — at any thread
//! count. Every parallel work unit (shadow, prompt, CMA-ES candidate,
//! forest tree) derives its own child RNG stream up front, so worker
//! scheduling cannot leak into the numbers.

use bprom_suite::attacks::AttackKind;
use bprom_suite::bprom::{
    build_suspicious_zoo, evaluate_oracle_zoo, Bprom, BpromConfig, DetectionReport, OracleRegime,
    Scenario, ZooConfig, ZooEntry,
};
use bprom_suite::data::SynthDataset;
use bprom_suite::defenses::trigger_inversion::{invert_trigger, TriggerInversionConfig};
use bprom_suite::faults::{AdaptiveConfig, AdaptiveOracle, FaultProfile};
use bprom_suite::nn::models::{mlp, ModelSpec};
use bprom_suite::nn::TrainConfig;
use bprom_suite::par;
use bprom_suite::scenarios::{build_backbone_zoo, BackboneScenarioConfig, PromptedBackbone};
use bprom_suite::tensor::{Rng, Tensor};
use bprom_suite::vp::{
    BlackBoxModel, LabelMap, PromptStyle, PromptTrainConfig, QueryOracle, VisualPrompt,
};
use std::sync::Mutex;

/// Serializes the tests in this file: each one flips the process-global
/// worker-pool size, so they must not interleave.
static THREAD_KNOB: Mutex<()> = Mutex::new(());

/// The oracle decorations a determinism leg can exercise on top of the
/// declared regime.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Hostility {
    /// Bare oracle.
    None,
    /// Retry → transient faults + quantization.
    Faulty,
    /// An adaptive attacker probing for audit traffic and answering
    /// evasively once it believes it is being probed.
    Adaptive,
}

/// One identically-seeded fit + zoo + evaluate run at whatever thread
/// count is currently installed; `hostile` stacks fault injection plus
/// retries on every inspected oracle. The regime comes from the
/// environment (`BPROM_ORACLE_REGIME`), so the CI `regimes` job re-runs
/// these legs under `top_k:3` and `label_only` unchanged.
fn run_pipeline(hostile: bool) -> DetectionReport {
    let regime = OracleRegime::from_env_or(OracleRegime::FullScores);
    let hostility = if hostile {
        Hostility::Faulty
    } else {
        Hostility::None
    };
    run_regime_pipeline(regime, hostility)
}

/// `run_pipeline` with the oracle regime pinned explicitly (immune to
/// `BPROM_ORACLE_REGIME`) and the hostility tier selectable.
fn run_regime_pipeline(regime: OracleRegime, hostility: Hostility) -> DetectionReport {
    let mut rng = Rng::new(42);
    let mut config = BpromConfig::fast(SynthDataset::Cifar10, SynthDataset::Stl10);
    config.regime = regime;
    if hostility == Hostility::Adaptive {
        // Pad-style prompting carries the bit-identical-border signature
        // the adaptive attacker's similarity test detects; the default
        // overlay style adds θ onto image pixels and leaves nothing
        // bit-shared for a per-batch test to key on.
        config.prompt_style = PromptStyle::Pad;
    }
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
        |detector, oracle, run| match hostility {
            Hostility::None => detector.inspect(&oracle, run),
            // The hostile stack: 10 % transient drops absorbed by bounded
            // retries, responses quantized to 3 decimals. Fault draws are
            // keyed on query content (never arrival order), so this is as
            // schedule-invariant as the fault-free pipeline.
            Hostility::Faulty => {
                FaultProfile::Hostile.wrap(&oracle, 0xFA17, |o| detector.inspect(o, run))
            }
            // The adaptive attacker's probe tests and fabricated answers
            // are pure functions of batch content, so evasion decisions
            // cannot depend on worker scheduling either.
            Hostility::Adaptive => {
                let adaptive = AdaptiveOracle::new(&oracle, AdaptiveConfig::default(), 0xADA9);
                detector.inspect(&adaptive, run)
            }
        },
    )
    .unwrap();
    // Wall-clock is the one legitimately nondeterministic field; zero it
    // so the comparison below covers everything else byte-for-byte.
    report.mean_inspect_ms = 0.0;
    report
}

#[test]
fn reports_identical_across_thread_counts() {
    let _guard = THREAD_KNOB.lock().unwrap();
    par::set_thread_count(1);
    let sequential = run_pipeline(false);
    par::set_thread_count(4);
    let parallel = run_pipeline(false);
    par::set_thread_count(0);

    assert!(parallel.total_queries > 0);
    // Byte-identical JSON: identical scores, labels, AUROC, F1 and query
    // budgets regardless of worker count.
    assert_eq!(
        sequential.to_json().unwrap(),
        parallel.to_json().unwrap(),
        "thread count leaked into the detection report"
    );
}

/// The determinism contract must survive a hostile oracle: fault
/// injection and retries are content-keyed, so the full report —
/// including the fault/retry totals — is byte-identical at any thread
/// count.
#[test]
fn faulty_reports_identical_across_thread_counts() {
    let _guard = THREAD_KNOB.lock().unwrap();
    par::set_thread_count(1);
    let sequential = run_pipeline(true);
    par::set_thread_count(4);
    let parallel = run_pipeline(true);
    par::set_thread_count(0);

    assert!(parallel.total_queries > 0);
    assert!(
        parallel.total_faults > 0,
        "a 10 % transient rate must inject faults over a full inspection"
    );
    assert!(
        parallel.total_retries > 0,
        "injected transient faults must be absorbed by retries"
    );
    assert_eq!(
        sequential.to_json().unwrap(),
        parallel.to_json().unwrap(),
        "thread count leaked into the faulty detection report"
    );
}

/// Shared body for the regime legs: one threads=1 vs threads=4 pair,
/// byte-identical after the wall-clock scrub, with the regime recorded
/// on every audit.
fn assert_regime_thread_invariant(regime: OracleRegime, hostility: Hostility) -> DetectionReport {
    let _guard = THREAD_KNOB.lock().unwrap();
    par::set_thread_count(1);
    let sequential = run_regime_pipeline(regime, hostility);
    par::set_thread_count(4);
    let parallel = run_regime_pipeline(regime, hostility);
    par::set_thread_count(0);

    assert!(parallel.total_queries > 0);
    for audit in &parallel.audits {
        assert_eq!(
            audit.regime,
            regime.as_wire(),
            "audit must record its regime"
        );
    }
    assert_eq!(
        sequential.to_json().unwrap(),
        parallel.to_json().unwrap(),
        "thread count leaked into the {regime} detection report"
    );
    parallel
}

/// Top-k truncation (`top_k:3`): the renormalized fitness and features
/// are as schedule-invariant as the full-scores path.
#[test]
fn top_k_reports_identical_across_thread_counts() {
    assert_regime_thread_invariant(OracleRegime::TopK(3), Hostility::None);
}

/// Label-only: the miss-rate fitness and vote-count features never see a
/// soft score, and the report is still byte-identical at any thread
/// count.
#[test]
fn label_only_reports_identical_across_thread_counts() {
    assert_regime_thread_invariant(OracleRegime::LabelOnly, Hostility::None);
}

/// One identically-seeded backbone-scenario run at whatever thread count
/// is installed: fit the detector, build a {clean, BadNets} prompted-
/// backbone composite zoo, and evaluate it under `Scenario::Backbone` —
/// optionally behind the hostile retry → fault stack. The regime comes
/// from the environment, so the CI `regimes` job re-runs these legs
/// under `label_only` unchanged.
fn run_backbone_pipeline(profile: FaultProfile) -> DetectionReport {
    let mut rng = Rng::new(42);
    let mut config = BpromConfig::fast(SynthDataset::Cifar10, SynthDataset::Stl10);
    config.regime = OracleRegime::from_env_or(OracleRegime::FullScores);
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

/// Backbone scenario, tier 1: backbone pretraining, frozen prompt
/// adaptation, label-map translation and the `Scenario::Backbone`
/// evaluation loop are all thread-invariant — the report is
/// byte-identical at 1 and 4 workers, scenario stamp and attestation
/// included.
#[test]
fn backbone_reports_identical_across_thread_counts() {
    let _guard = THREAD_KNOB.lock().unwrap();
    par::set_thread_count(1);
    let sequential = run_backbone_pipeline(FaultProfile::Off);
    par::set_thread_count(4);
    let parallel = run_backbone_pipeline(FaultProfile::Off);
    par::set_thread_count(0);

    assert!(parallel.total_queries > 0);
    assert_eq!(parallel.scenario, "backbone");
    for audit in &parallel.audits {
        assert_eq!(audit.scenario, "backbone");
        assert!(
            audit.signals.clean_downstream_training,
            "backbone audits must carry the clean-downstream attestation"
        );
    }
    assert_eq!(
        sequential.to_json().unwrap(),
        parallel.to_json().unwrap(),
        "thread count leaked into the backbone-scenario detection report"
    );
}

/// Backbone scenario, tier 2: the {plain, hostile} × threads {1, 4}
/// matrix, every report byte-identical to the threads=1 baseline of its
/// hostility tier.
#[test]
#[ignore = "tier-2 backbone matrix (4 full runs); CI backbone job runs it via -- --ignored"]
fn backbone_matrix_reports_identical_across_thread_counts() {
    let _guard = THREAD_KNOB.lock().unwrap();
    for profile in [FaultProfile::Off, FaultProfile::Hostile] {
        par::set_thread_count(1);
        let sequential = run_backbone_pipeline(profile);
        par::set_thread_count(4);
        let parallel = run_backbone_pipeline(profile);
        par::set_thread_count(0);

        if profile == FaultProfile::Hostile {
            assert!(parallel.total_faults > 0);
            assert!(parallel.total_retries > 0);
        }
        assert_eq!(
            sequential.to_json().unwrap(),
            parallel.to_json().unwrap(),
            "thread count leaked into the {profile:?} backbone report"
        );
    }
}

/// The trigger-inversion baseline evaluates candidates sequentially, but
/// the composite's forward passes go through the same threaded kernels
/// as everything else — its whole report (per-class ASRs, anomaly,
/// billing) must be identical at any thread count.
#[test]
fn trigger_inversion_reports_identical_across_thread_counts() {
    let _guard = THREAD_KNOB.lock().unwrap();
    let composite = || {
        let mut rng = Rng::new(0x1A);
        let model = mlp(&ModelSpec::new(3, 16, 10), &mut rng).unwrap();
        let prompt = VisualPrompt::random(3, 16, 2, &mut rng)
            .unwrap()
            .with_style(PromptStyle::Pad);
        let map = LabelMap::identity(10, 10).unwrap();
        PromptedBackbone::new(QueryOracle::new(model, 10), prompt, map).unwrap()
    };
    let probes = Tensor::rand_uniform(&[4, 3, 12, 12], 0.0, 1.0, &mut Rng::new(8));
    let cfg = TriggerInversionConfig {
        generations: 2,
        ..TriggerInversionConfig::default()
    };
    par::set_thread_count(1);
    let system = composite();
    let sequential = invert_trigger(&system, &probes, &cfg, &mut Rng::new(3)).unwrap();
    par::set_thread_count(4);
    let system = composite();
    let parallel = invert_trigger(&system, &probes, &cfg, &mut Rng::new(3)).unwrap();
    par::set_thread_count(0);

    assert!(parallel.queries > 0);
    assert_eq!(system.queries_used(), parallel.queries);
    assert_eq!(
        sequential, parallel,
        "thread count leaked into the trigger-inversion report"
    );
}

/// The adaptive-attacker tier: a provider that detects the audit's probe
/// patterns and answers evasively. Its decisions are content-keyed, so
/// the whole report — including the evasion tallies and the B012
/// findings they raise — is byte-identical at any thread count.
#[test]
fn adaptive_attacker_reports_identical_across_thread_counts() {
    let report = assert_regime_thread_invariant(OracleRegime::FullScores, Hostility::Adaptive);
    let evasions: u64 = report
        .audits
        .iter()
        .map(|a| a.signals.evasive_responses)
        .sum();
    assert!(
        evasions > 0,
        "the default adaptive config must trip on visual-prompt probe batches"
    );
    assert!(
        report
            .audits
            .iter()
            .any(|a| { a.findings.iter().any(|f| f.rule.code() == "B012") }),
        "evasive answering must raise the B012 oracle-evasion rule"
    );
}
