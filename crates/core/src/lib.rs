//! BPROM: black-box model-level backdoor detection via visual prompting.
//!
//! This is the paper's primary contribution (Section 5). Given only query
//! access to a *suspicious* classifier, BPROM decides whether it contains
//! an all-to-one backdoor:
//!
//! 1. **Shadow models** ([`shadow`]) — train clean and single-attack
//!    poisoned shadow models on the reserved clean dataset `D_S`.
//! 2. **Prompting** ([`prompting`]) — learn a visual prompt mapping the
//!    external clean dataset `D_T` onto every shadow model (backprop) and
//!    onto the suspicious model (CMA-ES through the black-box boundary).
//! 3. **Meta model** ([`meta_model`]) — train a random forest on the
//!    concatenated confidence vectors of prompted shadow models over the
//!    probe set `D_Q`, then classify the suspicious model's probe vector.
//!
//! The detection signal is *class subspace inconsistency*: a backdoor
//! (whose target-class subspace abuts every other class) systematically
//! changes how the model responds to prompted foreign-domain inputs.
//!
//! # Example
//!
//! ```no_run
//! use bprom::{Bprom, BpromConfig};
//! use bprom_data::SynthDataset;
//! use bprom_nn::models::Architecture;
//! use bprom_tensor::Rng;
//! use bprom_vp::QueryOracle;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = Rng::new(0);
//! let config = BpromConfig::new(SynthDataset::Cifar10, SynthDataset::Stl10);
//! let detector = Bprom::fit(&config, &mut rng)?;
//! # let some_model = bprom_nn::models::build(Architecture::ResNetMini,
//! #     &bprom_nn::models::ModelSpec::new(3, 16, 10), &mut rng)?;
//! let oracle = QueryOracle::new(some_model, 10);
//! let verdict = detector.inspect(&oracle, &mut rng)?;
//! // e.g. "clean (score 0.22) — 3840 queries (3600 prompt + 240 probe) ..."
//! println!("{verdict}");
//! assert_eq!(verdict.queries, verdict.budget.total_queries());
//! # Ok(())
//! # }
//! ```
//!
//! To capture a machine-readable trace of the whole pipeline, install a
//! [`bprom_obs::Session`] around it — see the `bprom-obs` crate docs.

// Numerical kernels in this crate use explicit index loops where the
// access pattern (strides, multiple arrays in lockstep) is the point;
// iterator rewrites would obscure it.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::manual_is_multiple_of)]

mod config;
mod detector;
mod error;
pub mod meta_model;
pub mod persistence;
pub mod prompting;
pub mod report;
pub mod resume;
pub mod shadow;
pub mod suspicious;

pub use bprom_qcache::{CacheConfig, CacheMode, QCACHE_ENV};
pub use bprom_regimes::{OracleRegime, RegimeOracle, REGIME_ENV};
pub use bprom_verdict::{
    validate_incident, Action, AuditRecord, Finding, IncidentReport, Mode, RuleId, RulePolicy,
    Severity, Signals, VerdictPipeline, MODE_ENV,
};
pub use config::{BpromConfig, ShadowPrompting};
pub use detector::{Bprom, InspectBudget, Verdict};
pub use error::BpromError;
pub use report::{evaluate_detector, evaluate_oracle_zoo, DetectionReport, Scenario, ZooEntry};
pub use resume::{Checkpointer, Run};
pub use shadow::{ShadowModel, ShadowSet};
pub use suspicious::{build_suspicious_zoo, model_fingerprint, SuspiciousModel, ZooConfig};

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, BpromError>;
