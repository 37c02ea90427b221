//! Scratch diagnostic: separate the failure modes of detection —
//! (a) weak shadow models from tiny D_S, (b) CMA-ES vs backprop prompt
//! distribution shift. Extracts suspicious-model features through BOTH
//! paths and scores them with the same meta-classifier.

use bprom_suite::attacks::AttackKind;
use bprom_suite::bprom::meta_model::probe_features_whitebox_regime;
use bprom_suite::bprom::{build_suspicious_zoo, Bprom, BpromConfig, OracleRegime, ZooConfig};
use bprom_suite::data::SynthDataset;
use bprom_suite::metrics::auroc;
use bprom_suite::tensor::Rng;
use bprom_suite::vp::{train_prompt_backprop, VisualPrompt};

fn main() {
    let mut rng = Rng::new(42);
    let mut config = BpromConfig::new(SynthDataset::Cifar10, SynthDataset::Stl10);
    config.test_samples_per_class = 150; // D_S at 10% -> 15/class
    let detector = Bprom::fit(&config, &mut rng).unwrap();

    let zoo_cfg = ZooConfig::new(SynthDataset::Cifar10, AttackKind::BadNets);
    let zoo = build_suspicious_zoo(&zoo_cfg, &mut rng).unwrap();
    let mut white_scores = Vec::new();
    let mut labels = Vec::new();
    for mut m in zoo {
        // WHITE-BOX CHEAT PATH: backprop prompt on the suspicious model,
        // then probe features -> meta score. Upper bound on detectability.
        let mut prompt =
            VisualPrompt::random(3, config.image_size, config.prompt_border, &mut rng).unwrap();
        train_prompt_backprop(
            &mut m.model,
            &mut prompt,
            &detector.target_train().images,
            &detector.target_train().labels,
            detector.label_map(),
            &config.prompt,
            &mut rng,
        )
        .unwrap();
        let feat = probe_features_whitebox_regime(
            &mut m.model,
            &prompt,
            detector.probes(),
            OracleRegime::FullScores,
        )
        .unwrap();
        white_scores.push(detector.meta().predict_proba(&feat).unwrap());
        labels.push(m.backdoored);
    }
    println!(
        "whitebox-path auroc={:.3} scores={:?}",
        auroc(&white_scores, &labels).unwrap(),
        white_scores
            .iter()
            .map(|s| (s * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );
}
