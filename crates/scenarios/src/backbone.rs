//! Backbone-scenario zoo construction and evaluation: the BadBone threat
//! model where the *backbone* is poisoned upstream and every downstream
//! artifact (visual prompt, label map) is trained on attested-clean data.
//!
//! Mirrors `bprom::build_suspicious_zoo`, but the unit of audit is a
//! [`PromptedBackbone`] composite instead of a monolithic classifier:
//!
//! 1. Train a backbone on the source dataset, poisoned with the
//!    configured attack for the backdoored half of the zoo.
//! 2. Freeze it (seal it behind [`QueryOracle`]; prompt training uses
//!    the frozen-model path that never touches weights or norm stats).
//! 3. Adapt it downstream with a visual prompt + identity label map
//!    trained on *clean* downstream data only.
//!
//! The resulting composites flow through `evaluate_oracle_zoo` under
//! [`Scenario::Backbone`], so every audit record carries the
//! clean-downstream-training attestation and prompted-accuracy collapse
//! raises rule `B013` ("backbone-implanted backdoor suspected").

use crate::PromptedBackbone;
use bprom::{evaluate_oracle_zoo, Bprom, BpromError, DetectionReport, Result, Scenario, ZooEntry};
use bprom_attacks::{attack_success_rate, poison_dataset, AttackKind, PoisonConfig};
use bprom_data::SynthDataset;
use bprom_nn::models::{build, Architecture, ModelSpec};
use bprom_nn::{Sequential, TrainConfig, Trainer};
use bprom_tensor::Rng;
use bprom_vp::{
    prompted_accuracy, train_prompt_backprop, LabelMap, PromptStyle, PromptTrainConfig,
    QueryOracle, VisualPrompt,
};

/// Configuration for building a backbone-scenario zoo.
#[derive(Debug, Clone, PartialEq)]
pub struct BackboneScenarioConfig {
    /// Dataset the backbones pretrain on (where the poison enters).
    pub source_dataset: SynthDataset,
    /// Clean dataset the downstream prompt + label map adapt to.
    pub downstream_dataset: SynthDataset,
    /// Backbone input side length (the prompt's full canvas).
    pub backbone_size: usize,
    /// Downstream image side length (resized into the prompt's inner
    /// window).
    pub downstream_size: usize,
    /// Backbone training samples per class.
    pub samples_per_class: usize,
    /// Downstream adaptation samples per class.
    pub downstream_samples_per_class: usize,
    /// Backbone architecture.
    pub architecture: Architecture,
    /// Attack planted in the backdoored backbones.
    pub attack: AttackKind,
    /// Poisoning parameters; `None` uses the attack's defaults with a
    /// random target class per backbone.
    pub poison: Option<PoisonConfig>,
    /// Number of clean-backbone composites.
    pub clean: usize,
    /// Number of backdoored-backbone composites.
    pub backdoored: usize,
    /// Backbone training hyperparameters.
    pub train: TrainConfig,
    /// Downstream prompt-training hyperparameters (the backprop path;
    /// CMA-ES fields are ignored here).
    pub prompt: PromptTrainConfig,
    /// Prompt border width on the backbone canvas.
    pub prompt_border: usize,
    /// Prompt composition style.
    pub prompt_style: PromptStyle,
}

impl BackboneScenarioConfig {
    /// Creates a backbone-scenario configuration with sensible defaults.
    pub fn new(source: SynthDataset, downstream: SynthDataset, attack: AttackKind) -> Self {
        BackboneScenarioConfig {
            source_dataset: source,
            downstream_dataset: downstream,
            backbone_size: source.default_size(),
            downstream_size: downstream.default_size(),
            samples_per_class: 20,
            downstream_samples_per_class: 20,
            architecture: Architecture::ResNetMini,
            attack,
            poison: None,
            clean: 6,
            backdoored: 6,
            train: TrainConfig::default(),
            prompt: PromptTrainConfig::default(),
            prompt_border: 2,
            prompt_style: PromptStyle::Pad,
        }
    }
}

/// One composite system with its ground truth and quality metrics.
#[derive(Debug)]
pub struct BackboneSystem {
    /// The sealed composite (frozen backbone + prompt + label map).
    pub system: PromptedBackbone,
    /// Ground truth: was the *backbone* poisoned?
    pub backdoored: bool,
    /// Stable fingerprint over backbone weights, prompt parameters, and
    /// the label-map assignment (audit identity; see
    /// [`composite_fingerprint`]).
    pub fingerprint: String,
    /// Backbone clean test accuracy on the source dataset.
    pub backbone_accuracy: f32,
    /// Backbone attack success rate (0 for clean backbones).
    pub backbone_asr: f32,
    /// Prompted accuracy of the composite on the held-out downstream
    /// split after adaptation.
    pub downstream_accuracy: f32,
}

/// Stable 16-hex-digit fingerprint of a composite system: FNV-1a over the
/// backbone's parameters and buffers (same absorb order as
/// `bprom::model_fingerprint`), then the prompt's trainable border
/// parameters, then the label-map assignment. Two composites sharing a
/// backbone but differing in downstream adaptation get distinct audit
/// identities.
pub fn composite_fingerprint(model: &Sequential, prompt: &VisualPrompt, map: &LabelMap) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut absorb = |bits: u32| {
        for byte in bits.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for tensor in model.export_params() {
        for &v in tensor.data() {
            absorb(v.to_bits());
        }
    }
    for buffer in model.export_buffers() {
        for &v in &buffer {
            absorb(v.to_bits());
        }
    }
    for v in prompt.to_flat() {
        absorb(v.to_bits());
    }
    for t in 0..map.target_classes() {
        absorb(map.source_class(t).unwrap_or(usize::MAX) as u32);
    }
    format!("m{hash:016x}")
}

/// Builds the backbone-scenario zoo: `clean` clean-backbone + `backdoored`
/// poisoned-backbone composites, each adapted downstream on clean data.
///
/// Each backbone gets a fresh dataset seed and a fresh trigger instance;
/// each adaptation gets a fresh downstream dataset seed and prompt
/// initialization — all drawn sequentially from the caller's stream, so
/// the whole zoo is bit-reproducible from one seed.
///
/// # Errors
///
/// Propagates training/poisoning/adaptation failures and rejects empty
/// zoos and downstream class counts exceeding the backbone's.
pub fn build_backbone_zoo(
    config: &BackboneScenarioConfig,
    rng: &mut Rng,
) -> Result<Vec<BackboneSystem>> {
    if config.clean + config.backdoored == 0 {
        return Err(BpromError::InvalidConfig {
            reason: "backbone zoo must contain at least one system".to_string(),
        });
    }
    let k_s = config.source_dataset.num_classes();
    let k_t = config.downstream_dataset.num_classes();
    if k_t > k_s {
        return Err(BpromError::InvalidConfig {
            reason: format!(
                "downstream dataset has {k_t} classes but the backbone answers only {k_s}"
            ),
        });
    }
    let spec = ModelSpec::new(3, config.backbone_size, k_s);
    let trainer = Trainer::new(config.train);
    let mut zoo = Vec::with_capacity(config.clean + config.backdoored);
    for i in 0..config.clean + config.backdoored {
        let is_backdoored = i >= config.clean;

        // Stage 1: pretrain the backbone on the source dataset, poisoned
        // for the backdoored half (the only place the attack touches).
        let full = config.source_dataset.generate(
            config.samples_per_class,
            config.backbone_size,
            rng.next_u64(),
        )?;
        let (train, test) = full.split(0.8, rng)?;
        let mut model = build(config.architecture, &spec, rng)?;
        let (backbone_accuracy, backbone_asr);
        if is_backdoored {
            let attack = config.attack.build(config.backbone_size, rng)?;
            let poison_cfg = config
                .poison
                .unwrap_or_else(|| config.attack.default_config(rng.below(k_s)));
            let poisoned = poison_dataset(&train, attack.as_ref(), &poison_cfg, rng)?;
            trainer.fit(
                &mut model,
                &poisoned.dataset.images,
                &poisoned.dataset.labels,
                rng,
            )?;
            backbone_accuracy = trainer.evaluate(&mut model, &test.images, &test.labels)?;
            backbone_asr =
                attack_success_rate(&mut model, attack.as_ref(), &test, &poison_cfg, rng)?;
        } else {
            trainer.fit(&mut model, &train.images, &train.labels, rng)?;
            backbone_accuracy = trainer.evaluate(&mut model, &test.images, &test.labels)?;
            backbone_asr = 0.0;
        }

        // Stage 2: freeze the backbone and adapt downstream on *clean*
        // data. `train_prompt_backprop` runs the model in frozen mode —
        // weights and norm statistics never change — which is exactly
        // the attestation `Scenario::Backbone` records.
        let downstream = config.downstream_dataset.generate(
            config.downstream_samples_per_class,
            config.downstream_size,
            rng.next_u64(),
        )?;
        let (d_train, d_test) = downstream.split(0.7, rng)?;
        let map = LabelMap::identity(k_t, k_s)?;
        let mut prompt = VisualPrompt::random(3, config.backbone_size, config.prompt_border, rng)?
            .with_style(config.prompt_style);
        train_prompt_backprop(
            &mut model,
            &mut prompt,
            &d_train.images,
            &d_train.labels,
            &map,
            &config.prompt,
            rng,
        )?;
        let downstream_accuracy =
            prompted_accuracy(&mut model, &prompt, &d_test.images, &d_test.labels, &map)?;

        // The fingerprint must be taken before the backbone seals behind
        // the query boundary.
        let fingerprint = composite_fingerprint(&model, &prompt, &map);
        let system = PromptedBackbone::new(QueryOracle::new(model, k_s), prompt, map)?;
        zoo.push(BackboneSystem {
            system,
            backdoored: is_backdoored,
            fingerprint,
            backbone_accuracy,
            backbone_asr,
            downstream_accuracy,
        });
    }
    Ok(zoo)
}

/// Seals a composite as a zoo entry for `evaluate_oracle_zoo`, carrying
/// the fingerprint recorded before sealing.
impl From<BackboneSystem> for ZooEntry<PromptedBackbone> {
    fn from(s: BackboneSystem) -> Self {
        ZooEntry {
            fingerprint: s.fingerprint,
            backdoored: s.backdoored,
            oracle: s.system,
        }
    }
}

/// Inspects every composite in the backbone zoo under
/// [`Scenario::Backbone`] with the plain [`Bprom::inspect`] path and
/// computes AUROC / F1. To stack decorators (fault injection, retries)
/// on each sealed cached composite, call [`evaluate_oracle_zoo`] on the
/// zoo's [`ZooEntry`] conversions directly.
///
/// # Errors
///
/// Propagates inspection failures; AUROC requires the zoo to contain
/// both clean and backdoored composites.
pub fn evaluate_backbone_zoo(
    detector: &Bprom,
    zoo: Vec<BackboneSystem>,
    rng: &mut Rng,
) -> Result<DetectionReport> {
    let entries = zoo.into_iter().map(ZooEntry::from).collect();
    evaluate_oracle_zoo(
        detector,
        Scenario::Backbone,
        entries,
        rng,
        |detector, oracle, run| detector.inspect(&oracle, run),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bprom_vp::BlackBoxModel;

    fn tiny_config() -> BackboneScenarioConfig {
        let mut cfg = BackboneScenarioConfig::new(
            SynthDataset::Cifar10,
            SynthDataset::Stl10,
            AttackKind::BadNets,
        );
        cfg.clean = 1;
        cfg.backdoored = 1;
        cfg.samples_per_class = 30;
        cfg.downstream_samples_per_class = 10;
        cfg.prompt = PromptTrainConfig {
            epochs: 2,
            ..PromptTrainConfig::default()
        };
        cfg
    }

    #[test]
    fn zoo_has_requested_composition_and_quality() {
        let mut rng = Rng::new(0);
        let zoo = build_backbone_zoo(&tiny_config(), &mut rng).unwrap();
        assert_eq!(zoo.len(), 2);
        assert_eq!(zoo.iter().filter(|s| s.backdoored).count(), 1);
        for s in &zoo {
            assert!(
                s.backbone_accuracy > 0.5,
                "backbone too weak: {:?}",
                s.backbone_accuracy
            );
            if !s.backdoored {
                assert_eq!(s.backbone_asr, 0.0);
            }
            assert_eq!(s.fingerprint.len(), 17);
            assert!(s.fingerprint.starts_with('m'));
            // Composites answer downstream-shaped queries.
            assert_eq!(s.system.num_classes(), 10);
        }
        let fps: Vec<&str> = zoo.iter().map(|s| s.fingerprint.as_str()).collect();
        assert_ne!(fps[0], fps[1], "distinct systems, distinct identities");
    }

    #[test]
    fn zoo_is_bit_reproducible_from_the_seed() {
        let cfg = tiny_config();
        let a = build_backbone_zoo(&cfg, &mut Rng::new(7)).unwrap();
        let b = build_backbone_zoo(&cfg, &mut Rng::new(7)).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.fingerprint, y.fingerprint);
            assert_eq!(x.backbone_accuracy, y.backbone_accuracy);
            assert_eq!(x.downstream_accuracy, y.downstream_accuracy);
        }
    }

    #[test]
    fn empty_zoo_rejected() {
        let mut cfg = tiny_config();
        cfg.clean = 0;
        cfg.backdoored = 0;
        assert!(build_backbone_zoo(&cfg, &mut Rng::new(1)).is_err());
    }

    #[test]
    fn composite_fingerprint_sees_every_component() {
        let mut rng = Rng::new(3);
        let spec = ModelSpec::new(3, 16, 10);
        let model = build(Architecture::ResNetMini, &spec, &mut rng).unwrap();
        let prompt = VisualPrompt::random(3, 16, 2, &mut rng).unwrap();
        let map = LabelMap::identity(10, 10).unwrap();
        let base = composite_fingerprint(&model, &prompt, &map);
        assert_eq!(base, composite_fingerprint(&model, &prompt, &map));
        let other_prompt = VisualPrompt::random(3, 16, 2, &mut rng).unwrap();
        assert_ne!(
            base,
            composite_fingerprint(&model, &other_prompt, &map),
            "prompt parameters are part of the identity"
        );
        let narrower = LabelMap::identity(4, 10).unwrap();
        assert_ne!(
            base,
            composite_fingerprint(&model, &prompt, &narrower),
            "label-map assignment is part of the identity"
        );
    }
}
