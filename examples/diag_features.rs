//! Scratch diagnostic: inspect the raw meta features of shadow models and
//! suspicious models side by side. The detection question reduces to: do
//! clean and backdoored models separate in this feature space, and do
//! shadows and suspicious models share it?

use bprom_suite::attacks::AttackKind;
use bprom_suite::bprom::meta_model::{probe_features_whitebox_regime, ProbeSet};
use bprom_suite::bprom::prompting::prompt_shadows;
use bprom_suite::bprom::shadow::ShadowSet;
use bprom_suite::bprom::{build_suspicious_zoo, BpromConfig, OracleRegime, ZooConfig};
use bprom_suite::data::SynthDataset;
use bprom_suite::tensor::Rng;
use bprom_suite::vp::{train_prompt_backprop, LabelMap, VisualPrompt};

fn summarize(tag: &str, backdoored: bool, feat: &[f32], k: usize) {
    let q = (feat.len() - 1) / k;
    let acc = feat[feat.len() - 1];
    // Mean probability of the rank-0 (most-predicted) class across probes.
    let mut rank0 = 0.0f32;
    let mut maxp = 0.0f32;
    for row in 0..q {
        rank0 += feat[row * k];
        let m = feat[row * k..(row + 1) * k]
            .iter()
            .copied()
            .fold(0.0f32, f32::max);
        maxp += m;
    }
    println!(
        "{tag:10} bd={backdoored:5} prompted_acc={acc:.2} rank0_mean={:.3} maxp_mean={:.3}",
        rank0 / q as f32,
        maxp / q as f32
    );
}

fn main() {
    let mut rng = Rng::new(42);
    let mut config = BpromConfig::new(SynthDataset::Cifar10, SynthDataset::Stl10);
    config.test_samples_per_class = 150;
    config.clean_shadows = 6;
    config.backdoor_shadows = 6;
    let k = 10usize;

    let source_test = SynthDataset::Cifar10
        .generate(config.test_samples_per_class, 16, rng.next_u64())
        .unwrap();
    let ds = source_test.subsample(config.ds_fraction, &mut rng).unwrap();
    println!(
        "D_S: {} samples, class counts {:?}",
        ds.len(),
        ds.class_counts()
    );
    let target = SynthDataset::Stl10
        .generate(25, 16, rng.next_u64())
        .unwrap();
    let (t_train, t_test) = target.split(0.7, &mut rng).unwrap();
    let map = LabelMap::identity(10, 10).unwrap();
    let mut shadows = ShadowSet::train(&config, &ds, &mut rng).unwrap();
    // Shadow accuracies on their own D_S.
    let trainer = bprom_suite::nn::Trainer::default();
    for (i, s) in shadows.shadows.iter_mut().enumerate() {
        let acc = trainer
            .evaluate(&mut s.model, &ds.images, &ds.labels)
            .unwrap();
        println!("shadow {i} bd={} train_acc={acc:.2}", s.backdoored);
    }
    let prompts = prompt_shadows(&config, &mut shadows, &t_train, &map, &mut rng).unwrap();
    let probes = ProbeSet::sample(&t_test, config.probe_count, &mut rng).unwrap();
    for (s, p) in shadows.shadows.iter_mut().zip(&prompts) {
        let feat = probe_features_whitebox_regime(
            &mut s.model,
            &p.prompt,
            &probes,
            OracleRegime::FullScores,
        )
        .unwrap();
        summarize("shadow", s.backdoored, &feat, k);
    }
    // Suspicious zoo through the white-box prompting path.
    let mut zoo_cfg = ZooConfig::new(SynthDataset::Cifar10, AttackKind::BadNets);
    zoo_cfg.samples_per_class = 20;
    let zoo = build_suspicious_zoo(&zoo_cfg, &mut rng).unwrap();
    for mut m in zoo {
        let mut prompt = VisualPrompt::random(3, 16, 4, &mut rng).unwrap();
        train_prompt_backprop(
            &mut m.model,
            &mut prompt,
            &t_train.images,
            &t_train.labels,
            &map,
            &config.prompt,
            &mut rng,
        )
        .unwrap();
        let feat = probe_features_whitebox_regime(
            &mut m.model,
            &prompt,
            &probes,
            OracleRegime::FullScores,
        )
        .unwrap();
        summarize("suspicious", m.backdoored, &feat, k);
    }
}
