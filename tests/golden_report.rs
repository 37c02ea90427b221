//! Golden-run regression suite: the serialized `DetectionReport` of a
//! small but fully representative pipeline run — meta-classifier scores,
//! verdict labels, prompted accuracies, and the exact query / fault /
//! penalty / cache budgets — is pinned as a checked-in fixture for three
//! seeds over a zoo of {clean, BadNets, Blend} suspicious models behind
//! the hostile oracle stack. Any drift in any pipeline stage (data
//! generation, shadow training, CMA-ES, probing, the meta forest, fault
//! injection, cache accounting) changes the report and fails the
//! comparison with a line-level diff.
//!
//! Regenerate fixtures after an *intentional* behavior change with:
//!
//! ```text
//! BPROM_BLESS=1 cargo test --test golden_report
//! ```
//!
//! The runs hard-pin `CacheConfig::unbounded()` (ignoring `BPROM_QCACHE`)
//! so the pinned cache tallies hold on every CI matrix leg; thread count
//! is already report-invariant.

use bprom_suite::attacks::AttackKind;
use bprom_suite::bprom::{
    build_suspicious_zoo, evaluate_oracle_zoo, Bprom, BpromConfig, CacheConfig, DetectionReport,
    OracleRegime, Scenario, ZooConfig,
};
use bprom_suite::data::SynthDataset;
use bprom_suite::faults::FaultProfile;
use bprom_suite::nn::TrainConfig;
use bprom_suite::tensor::Rng;
use bprom_suite::vp::PromptTrainConfig;
use std::path::PathBuf;

fn fixture_path(seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("golden_seed_{seed}.json"))
}

/// The pinned pipeline: fit a tiny detector, build a three-model zoo
/// (one clean, one BadNets-backdoored, one Blend-backdoored), and
/// evaluate it behind the hostile retry → fault stack. Everything is
/// derived from `seed`; wall-clock is the only field zeroed.
fn golden_report(seed: u64) -> DetectionReport {
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
    // Pin the cache policy so the fixture's cache tallies are immune to
    // the BPROM_QCACHE env override CI applies on one matrix leg, and the
    // oracle regime so the BPROM_ORACLE_REGIME legs can't drift the
    // pinned scores.
    config.cache = CacheConfig::unbounded();
    config.regime = OracleRegime::FullScores;
    let detector = Bprom::fit(&config, &mut rng).unwrap();

    let train = TrainConfig {
        epochs: 2,
        ..TrainConfig::default()
    };
    let mut badnets = ZooConfig::new(SynthDataset::Cifar10, AttackKind::BadNets);
    badnets.clean = 1;
    badnets.backdoored = 1;
    badnets.samples_per_class = 20;
    badnets.train = train;
    let mut zoo = build_suspicious_zoo(&badnets, &mut rng).unwrap();
    let mut blend = ZooConfig::new(SynthDataset::Cifar10, AttackKind::Blend);
    blend.clean = 0;
    blend.backdoored = 1;
    blend.samples_per_class = 20;
    blend.train = train;
    zoo.extend(build_suspicious_zoo(&blend, &mut rng).unwrap());

    let entries = zoo.into_iter().map(|m| m.into_entry(10)).collect();
    let mut report = evaluate_oracle_zoo(
        &detector,
        Scenario::Downstream,
        entries,
        &mut rng,
        |detector, oracle, run| {
            FaultProfile::Hostile.wrap(&oracle, 0xFA17, |o| detector.inspect(o, run))
        },
    )
    .unwrap();
    report.mean_inspect_ms = 0.0;
    report
}

/// Line-level diff of two serialized reports: `None` when identical,
/// otherwise a readable summary of every divergent line.
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

fn assert_matches_fixture(seed: u64) {
    let got = golden_report(seed).to_json().unwrap();
    let path = fixture_path(seed);
    if std::env::var("BPROM_BLESS").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); regenerate with \
             BPROM_BLESS=1 cargo test --test golden_report",
            path.display()
        )
    });
    if let Some(diff) = diff_lines(&want, &got) {
        panic!(
            "detection report for seed {seed} drifted from {} \
             (-fixture / +current):\n{diff}\
             If the change is intentional, re-bless with \
             BPROM_BLESS=1 cargo test --test golden_report",
            path.display()
        );
    }
}

#[test]
fn golden_seed_42() {
    assert_matches_fixture(42);
}

#[test]
fn golden_seed_1337() {
    assert_matches_fixture(1337);
}

#[test]
fn golden_seed_2024() {
    assert_matches_fixture(2024);
}

/// The committed fixtures are well-formed reports for the pinned zoo —
/// and the comparison really is bit-for-bit: perturbing a single
/// character of a fixture is flagged with a line-level diff.
#[test]
fn fixtures_parse_and_one_bit_drift_is_detected() {
    for seed in [42u64, 1337, 2024] {
        let path = fixture_path(seed);
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden fixture {} ({e}); regenerate with \
                 BPROM_BLESS=1 cargo test --test golden_report",
                path.display()
            )
        });
        let report = DetectionReport::from_json(&want).unwrap();
        assert_eq!(report.scores.len(), 3);
        assert_eq!(report.labels.iter().filter(|&&b| b).count(), 2);
        assert_eq!(report.prompted_accuracies.len(), 3);
        assert!(report.total_queries > 0);
        assert!(report.total_faults > 0, "hostile stack must inject faults");
        assert!(report.total_cache_misses > 0);

        // Flip one digit character and require the comparator to flag
        // exactly that corruption.
        let pos = want
            .find(|c: char| c.is_ascii_digit())
            .expect("fixture contains numbers");
        let mut perturbed = want.clone();
        let old = perturbed.as_bytes()[pos];
        let new = if old == b'9' { b'8' } else { old + 1 };
        // SAFETY-free byte swap via a Vec round trip keeps this simple.
        let mut bytes = perturbed.into_bytes();
        bytes[pos] = new;
        perturbed = String::from_utf8(bytes).unwrap();
        let diff = diff_lines(&want, &perturbed).expect("perturbation must be detected");
        assert!(diff.contains("line "));
    }
}
