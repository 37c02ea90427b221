//! Oracle-regime degradation curves: AUROC of BPROM when the suspicious
//! endpoint's response contract degrades from full soft-score vectors
//! through quantization and top-k truncation down to hard labels only,
//! plus an adaptive-attacker leg where the endpoint detects the probe
//! traffic and answers evasively.
//!
//! Each regime gets its own detector (fitted from the same shadow-zoo
//! recipe under that regime's fitness and feature extraction — the
//! per-regime meta-forest) and audits the same suspicious zoo. Results
//! land in `BENCH_regimes.json`:
//!
//! - `regimes`: one entry per declared regime with its AUROC/F1, query
//!   spend, and the AUROC drop relative to full scores;
//! - `adaptive`: the adaptive-attacker tier (pad-style prompting against
//!   a default [`AdaptiveConfig`] endpoint) with evasion totals, the
//!   exact query bill, and whether rule B012 fired.
//!
//! `BPROM_QUICK=1` shrinks shadow/zoo counts as everywhere else.

use bprom::{
    build_suspicious_zoo, evaluate_detector, evaluate_oracle_zoo, Bprom, OracleRegime, Scenario,
};
use bprom_attacks::AttackKind;
use bprom_bench::{detector_config, header, quick, row, zoo_config, TelemetryGuard};
use bprom_data::SynthDataset;
use bprom_faults::{AdaptiveConfig, AdaptiveOracle};
use bprom_obs::{ToJson, Value};
use bprom_tensor::Rng;
use bprom_vp::PromptStyle;

/// The degradation sweep, most to least informative.
fn regimes() -> [OracleRegime; 4] {
    [
        OracleRegime::FullScores,
        OracleRegime::Quantized(2),
        OracleRegime::TopK(3),
        OracleRegime::LabelOnly,
    ]
}

struct RegimeResult {
    regime: String,
    auroc: f32,
    f1: f32,
    total_queries: u64,
}

fn main() {
    let _telemetry = TelemetryGuard::begin("bench_regimes");
    let source = SynthDataset::Cifar10;

    header(
        "Oracle-regime AUROC degradation (BadNets zoo)",
        &["regime", "auroc", "f1", "auroc_drop", "queries"],
    );
    let mut results: Vec<RegimeResult> = Vec::new();
    let mut full_auroc = f32::NAN;
    for regime in regimes() {
        let mut rng = Rng::new(42);
        let mut cfg = detector_config(source, SynthDataset::Stl10);
        cfg.regime = regime;
        let detector = Bprom::fit(&cfg, &mut rng).expect("detector fit");
        let zoo_cfg = zoo_config(source, AttackKind::BadNets);
        let zoo = build_suspicious_zoo(&zoo_cfg, &mut rng).expect("zoo");
        let report = evaluate_detector(&detector, zoo, &mut rng).expect("eval");
        if regime == OracleRegime::FullScores {
            full_auroc = report.auroc;
        }
        let drop = full_auroc - report.auroc;
        row(
            &regime.as_wire(),
            &[report.auroc, report.f1, drop, report.total_queries as f32],
        );
        results.push(RegimeResult {
            regime: regime.as_wire(),
            auroc: report.auroc,
            f1: report.f1,
            total_queries: report.total_queries,
        });
    }

    // Adaptive-attacker tier: pad-style prompting (the style the
    // attacker's similarity test can see) against an evasive endpoint.
    // The interesting numbers are the evasion totals and the B012
    // findings — a flagged-untrustworthy audit, not a usable AUROC.
    let mut rng = Rng::new(42);
    let mut cfg = detector_config(source, SynthDataset::Stl10);
    cfg.prompt_style = PromptStyle::Pad;
    let detector = Bprom::fit(&cfg, &mut rng).expect("detector fit");
    let zoo_cfg = zoo_config(source, AttackKind::BadNets);
    let zoo = build_suspicious_zoo(&zoo_cfg, &mut rng).expect("zoo");
    let num_classes = detector.config().source_dataset.num_classes();
    let entries = zoo.into_iter().map(|m| m.into_entry(num_classes)).collect();
    let adaptive_report = evaluate_oracle_zoo(
        &detector,
        Scenario::Downstream,
        entries,
        &mut rng,
        |detector, oracle, run| {
            let adaptive = AdaptiveOracle::new(&oracle, AdaptiveConfig::default(), 0xADA9);
            detector.inspect(&adaptive, run)
        },
    )
    .expect("adaptive eval");
    let evasions: u64 = adaptive_report
        .audits
        .iter()
        .map(|a| a.signals.evasive_responses)
        .sum();
    let b012_audits = adaptive_report
        .audits
        .iter()
        .filter(|a| a.findings.iter().any(|f| f.rule.code() == "B012"))
        .count();
    assert!(
        evasions > 0,
        "adaptive endpoint must evade pad-style probe batches"
    );
    assert_eq!(
        b012_audits,
        adaptive_report.audits.len(),
        "every evaded audit must raise B012"
    );
    header(
        "Adaptive-attacker tier (pad-style prompting, evasive endpoint)",
        &["leg", "auroc", "evasions", "b012_audits", "queries"],
    );
    row(
        "adaptive",
        &[
            adaptive_report.auroc,
            evasions as f32,
            b012_audits as f32,
            adaptive_report.total_queries as f32,
        ],
    );

    let json = Value::object(vec![
        ("quick", quick().to_json()),
        (
            "regimes",
            Value::Array(
                results
                    .iter()
                    .map(|r| {
                        Value::object(vec![
                            ("regime", r.regime.to_json()),
                            ("auroc", r.auroc.to_json()),
                            ("f1", r.f1.to_json()),
                            ("auroc_drop", (full_auroc - r.auroc).to_json()),
                            ("total_queries", r.total_queries.to_json()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "adaptive",
            Value::object(vec![
                ("auroc", adaptive_report.auroc.to_json()),
                ("evasions", evasions.to_json()),
                ("b012_audits", (b012_audits as u64).to_json()),
                ("audits", (adaptive_report.audits.len() as u64).to_json()),
                ("total_queries", adaptive_report.total_queries.to_json()),
            ]),
        ),
    ])
    .to_pretty();
    match std::fs::write("BENCH_regimes.json", &json) {
        Ok(()) => println!("written -> BENCH_regimes.json"),
        Err(e) => eprintln!("BENCH_regimes.json write failed: {e}"),
    }
}
