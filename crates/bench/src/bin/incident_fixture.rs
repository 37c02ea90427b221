//! CI fixture for the explainable-verdict contract (`bprom-verdict`):
//! runs one small end-to-end audit — a {clean, BadNets} zoo where the
//! backdoored model answers through the hostile oracle stack plus an
//! evicting client-side cache — under the mode selected by `BPROM_MODE`,
//! lets `TelemetryGuard` emit `incident.json` through the audit sink,
//! then validates the artifact:
//!
//! - the emitted document satisfies the zero-dependency schema validator
//!   and is byte-identical to assembling the report in-process;
//! - the backdoored model's incident carries >= 3 distinct stable rule
//!   IDs; the clean model's incident is the empty-findings baseline;
//! - strict mode flags or quarantines the backdoored model, learning
//!   mode records the *identical* findings without enforcing (the
//!   no-verdict-flip property, checked against both modes in-process
//!   whatever `BPROM_MODE` says).
//!
//! Exits non-zero (panics) on any violation; CI runs it once per mode.

use bprom::{
    build_suspicious_zoo, evaluate_oracle_zoo, Bprom, BpromConfig, CacheConfig, DetectionReport,
    Scenario, ZooConfig,
};
use bprom_attacks::AttackKind;
use bprom_bench::TelemetryGuard;
use bprom_data::SynthDataset;
use bprom_faults::{FaultyOracle, Quantize, RetryPolicy, RetryingOracle, Stack, Transient};
use bprom_nn::TrainConfig;
use bprom_qcache::CachingOracle;
use bprom_tensor::Rng;
use bprom_verdict::{validate_incident, Action, Mode, RulePolicy};
use bprom_vp::PromptTrainConfig;

/// The same audit recipe `tests/incident.rs` pins, at the same scale,
/// with the default rule policy: one harder-trained clean model behind a
/// plain oracle, one BadNets model behind transient faults + quantized
/// responses + retries + a 64-entry (evicting) memo cache.
fn run_audit(seed: u64) -> DetectionReport {
    let mut rng = Rng::new(seed);
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
    config.cache = CacheConfig::unbounded();
    let detector = Bprom::fit(&config, &mut rng).expect("detector fit");

    let mut clean_cfg = ZooConfig::new(SynthDataset::Cifar10, AttackKind::BadNets);
    clean_cfg.clean = 1;
    clean_cfg.backdoored = 0;
    clean_cfg.samples_per_class = 40;
    clean_cfg.train = TrainConfig {
        epochs: 6,
        ..TrainConfig::default()
    };
    let mut zoo = build_suspicious_zoo(&clean_cfg, &mut rng).expect("clean zoo");
    let mut bad_cfg = ZooConfig::new(SynthDataset::Cifar10, AttackKind::BadNets);
    bad_cfg.clean = 0;
    bad_cfg.backdoored = 1;
    bad_cfg.samples_per_class = 20;
    bad_cfg.train = TrainConfig {
        epochs: 2,
        ..TrainConfig::default()
    };
    zoo.extend(build_suspicious_zoo(&bad_cfg, &mut rng).expect("bad zoo"));

    let entries = zoo.into_iter().map(|m| m.into_entry(10)).collect();
    evaluate_oracle_zoo(
        &detector,
        Scenario::Downstream,
        entries,
        &mut rng,
        |detector, oracle, run| {
            if run.unit == "0" {
                detector.inspect(&oracle, run)
            } else {
                let plan = Stack(vec![
                    Box::new(Transient { rate: 0.25 }),
                    Box::new(Quantize { decimals: 3 }),
                ]);
                let faulty = FaultyOracle::new(&oracle, plan, 0xFA17);
                let retrying = RetryingOracle::new(&faulty, RetryPolicy::default());
                let memo = CachingOracle::new(retrying, CacheConfig::lru(64));
                detector.inspect(&memo, run)
            }
        },
    )
    .expect("evaluate")
}

fn main() {
    let mode = Mode::from_env_or(Mode::Strict);
    let policy = RulePolicy::default();
    let label = "incident_fixture";
    println!("running {} audit in {} mode...", label, mode.as_str());

    let report;
    {
        let _guard = TelemetryGuard::begin(label);
        report = run_audit(42);
    } // guard drop drains the sink and writes incident.json + telemetry.json

    // The emitted artifact must match assembling the same records
    // in-process, and must satisfy the schema validator.
    let dir = std::env::var("BPROM_TELEMETRY_DIR").unwrap_or_else(|_| ".".into());
    let path = std::path::Path::new(&dir).join("incident.json");
    let emitted = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing emitted artifact {}: {e}", path.display()));
    let doc = bprom_obs::Value::parse(&emitted).expect("incident.json parses");
    validate_incident(&doc)
        .unwrap_or_else(|errs| panic!("emitted incident.json fails schema: {errs:?}"));
    let assembled = report.incident(label, &policy, mode);
    assert_eq!(
        emitted,
        assembled.to_json_string(),
        "emitted incident.json must match the in-process assembly"
    );
    println!("schema + emission check passed ({})", path.display());

    // Content contract: clean baseline empty, backdoored model explained
    // by at least three distinct stable rule IDs.
    let strict = report.incident(label, &policy, Mode::Strict);
    let learning = report.incident(label, &policy, Mode::Learning);
    assert_eq!(strict.audits, 2);
    let clean = &strict.incidents[0];
    let bad = &strict.incidents[1];
    assert!(
        clean.findings.is_empty() && clean.action == Action::None,
        "clean model must be the empty-findings baseline, got {clean:?}"
    );
    let rules: Vec<&str> = bad.findings.iter().map(|c| c.finding.rule.code()).collect();
    assert!(
        rules.len() >= 3,
        "backdoored model must raise >= 3 distinct rules, got {rules:?}"
    );
    assert!(
        matches!(bad.action, Action::Flag | Action::Quarantine),
        "strict mode must flag or quarantine, got {:?}",
        bad.action
    );
    println!(
        "strict leg: backdoored model raised {rules:?} -> {:?}",
        bad.action
    );

    // No verdict flip: learning mode records identical evidence and
    // never enforces.
    assert_eq!(
        learning.incidents[1].findings, bad.findings,
        "learning mode must not change the findings"
    );
    assert_eq!(learning.flagged + learning.quarantined, 0);
    assert_eq!(learning.incidents[1].action, Action::Record);
    println!("learning leg: identical findings, no enforcement (no verdict flip)");
    println!("incident fixture OK in {} mode", mode.as_str());
}
