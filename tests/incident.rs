//! Golden incident-report suite: the machine-readable `incident.json`
//! emitted by the verdict pipeline is pinned as checked-in fixtures for
//! three seeds × two response modes over a two-model zoo:
//!
//! - a **clean** suspicious model behind a well-behaved oracle — its
//!   incident is the empty-findings baseline (no flag in either mode);
//! - a **BadNets**-backdoored model behind the hostile stack (transient
//!   faults + quantized responses + retries) with a small client-side
//!   memo cache — its incident carries at least three distinct stable
//!   rule IDs, and strict mode flags or quarantines it while learning
//!   mode records the identical evidence without enforcement.
//!
//! Everything feeding the incident (fingerprints, findings, evidence
//! values, tallies) is deterministic, so the fixtures are byte-identical
//! across `BPROM_THREADS` and `BPROM_QCACHE` settings — the runs pin
//! `CacheConfig` on both the detector and the client-side cache, and the
//! incident schema carries no wall-clock fields. Regenerate after an
//! *intentional* behavior change with:
//!
//! ```text
//! BPROM_BLESS=1 cargo test --test incident
//! ```

use bprom_suite::attacks::AttackKind;
use bprom_suite::bprom::{
    build_suspicious_zoo, evaluate_oracle_zoo, Bprom, BpromConfig, CacheConfig, DetectionReport,
    OracleRegime, Scenario, ZooConfig,
};
use bprom_suite::data::SynthDataset;
use bprom_suite::faults::{FaultyOracle, Quantize, RetryPolicy, RetryingOracle, Stack, Transient};
use bprom_suite::nn::TrainConfig;
use bprom_suite::qcache::CachingOracle;
use bprom_suite::tensor::Rng;
use bprom_suite::verdict::{validate_incident, Action, IncidentReport, Mode, RuleId, RulePolicy};
use bprom_suite::vp::PromptTrainConfig;
use std::path::PathBuf;

fn fixture_path(mode: Mode, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("incident_{}_seed_{seed}.json", mode.as_str()))
}

/// Rule thresholds pinned for the fixture runs. Substrate-scale audits
/// produce weaker score/accuracy separation than paper scale, so the
/// fixture calibrates the cut points to the pinned pipeline (the same
/// way `golden_report` pins its cache policy): semantics are unchanged,
/// only where the lines sit.
fn fixture_policy() -> RulePolicy {
    RulePolicy {
        accuracy_collapse: 0.30,
        suspicion_score: 0.5,
        strong_vote_margin: 0.2,
        max_fault_rate: 0.0005,
    }
}

/// One pinned audit run: a detector fitted at golden-fixture scale over
/// a {clean, BadNets} zoo. The clean model (audited first) answers
/// through a plain oracle; the backdoored model answers through the
/// hostile stack plus a 64-entry client-side memo cache (small enough to
/// evict, exercising the cache-anomaly rule).
fn fixture_report(seed: u64) -> DetectionReport {
    // The hostile leg toggles the process-global worker-count override;
    // serialize the seed runs so one run's restore cannot race another's
    // pinned single-worker inspection.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
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
    // Pin everything the CI matrix varies: the cache policy (one leg sets
    // BPROM_QCACHE), the response mode (the incident legs set BPROM_MODE),
    // and the oracle regime (the regimes job sets BPROM_ORACLE_REGIME),
    // so the fixture bytes cannot depend on the environment.
    config.cache = CacheConfig::unbounded();
    config.mode = Mode::Strict;
    config.regime = OracleRegime::FullScores;
    config.policy = fixture_policy();
    let detector = Bprom::fit(&config, &mut rng).unwrap();

    // The clean provider model is trained harder than the backdoored
    // one: a competent clean service keeps measurable prompted accuracy,
    // while the BadNets model's poisoned target subspace collapses it —
    // which is exactly the separation rule B001 encodes.
    let mut clean_cfg = ZooConfig::new(SynthDataset::Cifar10, AttackKind::BadNets);
    clean_cfg.clean = 1;
    clean_cfg.backdoored = 0;
    clean_cfg.samples_per_class = 40;
    clean_cfg.train = TrainConfig {
        epochs: 6,
        ..TrainConfig::default()
    };
    let mut zoo = build_suspicious_zoo(&clean_cfg, &mut rng).unwrap();
    let mut bad_cfg = ZooConfig::new(SynthDataset::Cifar10, AttackKind::BadNets);
    bad_cfg.clean = 0;
    bad_cfg.backdoored = 1;
    bad_cfg.samples_per_class = 20;
    bad_cfg.train = TrainConfig {
        epochs: 2,
        ..TrainConfig::default()
    };
    zoo.extend(build_suspicious_zoo(&bad_cfg, &mut rng).unwrap());

    let entries = zoo.into_iter().map(|m| m.into_entry(10)).collect();
    evaluate_oracle_zoo(
        &detector,
        Scenario::Downstream,
        entries,
        &mut rng,
        |detector, oracle, run| {
            if run.unit == "0" {
                // Zoo order is clean-first: the clean model's provider is
                // well behaved.
                detector.inspect(&oracle, run)
            } else {
                // Bounded-LRU eviction and hit tallies are arrival-ordered
                // (the qcache equivalence suite scrubs them across its
                // matrix for the same reason), so the hostile leg pins a
                // single worker to keep the pinned evidence bytes
                // schedule-independent at any BPROM_THREADS setting.
                bprom_suite::par::set_thread_count(1);
                let plan = Stack(vec![
                    Box::new(Transient { rate: 0.25 }),
                    Box::new(Quantize { decimals: 3 }),
                ]);
                let faulty = FaultyOracle::new(&oracle, plan, 0xFA17);
                let retrying = RetryingOracle::new(&faulty, RetryPolicy::default());
                let memo = CachingOracle::new(retrying, CacheConfig::lru(64));
                let verdict = detector.inspect(&memo, run);
                bprom_suite::par::set_thread_count(0);
                verdict
            }
        },
    )
    .unwrap()
}

fn diff_lines(want: &str, got: &str) -> Option<String> {
    if want == got {
        return None;
    }
    let want_lines: Vec<&str> = want.lines().collect();
    let got_lines: Vec<&str> = got.lines().collect();
    let mut out = String::new();
    for i in 0..want_lines.len().max(got_lines.len()) {
        let w = want_lines.get(i).copied().unwrap_or("<missing>");
        let g = got_lines.get(i).copied().unwrap_or("<missing>");
        if w != g {
            out.push_str(&format!("  line {}:\n    -{w}\n    +{g}\n", i + 1));
        }
    }
    Some(out)
}

fn assert_matches(mode: Mode, seed: u64, got: &str) {
    let path = fixture_path(mode, seed);
    if std::env::var("BPROM_BLESS").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing incident fixture {} ({e}); regenerate with \
             BPROM_BLESS=1 cargo test --test incident",
            path.display()
        )
    });
    if let Some(diff) = diff_lines(&want, got) {
        panic!(
            "incident report {}/seed {seed} drifted from {} \
             (-fixture / +current):\n{diff}\
             If the change is intentional, re-bless with \
             BPROM_BLESS=1 cargo test --test incident",
            mode.as_str(),
            path.display()
        );
    }
}

fn check_seed(seed: u64) {
    let policy = fixture_policy();
    let report = fixture_report(seed);
    let strict = report.incident("incident-fixture", &policy, Mode::Strict);
    let learning = report.incident("incident-fixture", &policy, Mode::Learning);

    // Incidents are grouped in first-audit order: clean model, then the
    // backdoored one.
    assert_eq!(strict.audits, 2);
    assert_eq!(strict.incidents.len(), 2);
    let clean = &strict.incidents[0];
    let bad = &strict.incidents[1];

    // The clean model's audit is the empty-findings baseline.
    assert!(
        clean.findings.is_empty(),
        "clean audit raised findings: {:?}",
        clean.findings
    );
    assert_eq!(clean.action, Action::None);

    // The backdoored model raises at least three distinct rule IDs and
    // draws an enforcement action in strict mode.
    let rules: Vec<RuleId> = bad.findings.iter().map(|c| c.finding.rule).collect();
    assert!(
        rules.len() >= 3,
        "backdoored audit must raise >= 3 distinct rules, got {rules:?}"
    );
    assert!(
        matches!(bad.action, Action::Flag | Action::Quarantine),
        "strict mode must flag or quarantine, got {:?}",
        bad.action
    );
    assert!(strict.flagged + strict.quarantined >= 1);

    // Learning mode records the identical evidence — it only withholds
    // the enforcement action (no verdict flip between modes).
    assert_eq!(
        learning.incidents[1].findings, bad.findings,
        "learning mode must not change the findings"
    );
    assert_eq!(learning.flagged, 0);
    assert_eq!(learning.quarantined, 0);
    assert_eq!(learning.incidents[0].action, Action::None);
    assert_eq!(learning.incidents[1].action, Action::Record);

    // Both emitted documents satisfy the schema validator and are
    // byte-stable against the checked-in fixtures.
    for (mode, incident) in [(Mode::Strict, &strict), (Mode::Learning, &learning)] {
        let text = incident.to_json_string();
        let doc = bprom_suite::obs::json::Value::parse(&text).unwrap();
        validate_incident(&doc).unwrap_or_else(|errs| {
            panic!(
                "{}/seed {seed} failed schema validation: {errs:?}",
                mode.as_str()
            )
        });
        assert_matches(mode, seed, &text);
    }
}

#[test]
fn incident_seed_42() {
    check_seed(42);
}

#[test]
fn incident_seed_1337() {
    check_seed(1337);
}

#[test]
fn incident_seed_2024() {
    check_seed(2024);
}

/// The committed fixtures parse back through the typed API, round-trip
/// byte-for-byte, and carry the pinned schema version.
#[test]
fn fixtures_round_trip_and_validate() {
    for seed in [42u64, 1337, 2024] {
        for mode in [Mode::Strict, Mode::Learning] {
            let path = fixture_path(mode, seed);
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                panic!(
                    "missing incident fixture {} ({e}); regenerate with \
                     BPROM_BLESS=1 cargo test --test incident",
                    path.display()
                )
            });
            let report = IncidentReport::from_json_str(&text).unwrap();
            assert_eq!(
                report.schema_version,
                bprom_suite::verdict::INCIDENT_SCHEMA_VERSION
            );
            assert_eq!(report.to_json_string(), text);
            let doc = bprom_suite::obs::json::Value::parse(&text).unwrap();
            validate_incident(&doc).unwrap();
        }
    }
}
