//! Workload scenarios beyond the classic downstream-poisoning setting.
//!
//! The paper's core evaluation audits monolithic classifiers whose own
//! training data may have been poisoned (`Scenario::Downstream`). This
//! crate adds the **backbone scenario** (the BadBone threat model): a
//! pretrained backbone is poisoned *upstream*, then frozen and adapted to
//! a downstream task with a visual prompt + label map trained on
//! attested-clean data. The backdoor survives adaptation — the trigger
//! still reaches the backbone through the prompt's inner window — while
//! every downstream artifact is innocent.
//!
//! The composite system ([`PromptedBackbone`]) is itself a
//! `BlackBoxModel`, so the whole detection stack (BPROM inspection, query
//! caches, fault/retry decorators, oracle regimes, the fleet audit
//! engine) runs on it unchanged. Evaluation routes through
//! `bprom::evaluate_oracle_zoo` under `Scenario::Backbone`, which stamps
//! the clean-downstream-training attestation into every audit record so
//! prompted-accuracy collapse raises rule `B013` ("backbone-implanted
//! backdoor suspected") instead of implicating the tuning data.

mod backbone;
mod composite;

pub use backbone::{
    build_backbone_zoo, composite_fingerprint, evaluate_backbone_zoo, BackboneScenarioConfig,
    BackboneSystem,
};
pub use composite::PromptedBackbone;
