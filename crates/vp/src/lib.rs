//! Visual prompting (VP) / model reprogramming for the BPROM reproduction.
//!
//! VP adapts a *frozen* source-domain classifier to a target-domain task by
//! learning a pixel border (the *visual prompt* `θ`) around downscaled
//! target images (paper Section 3, Bahng et al. 2022):
//!
//! 1. **Prompt padding** — `x̃ = V(x | θ)`: resize the target image into the
//!    centre of a source-sized canvas and add `θ` on the border.
//! 2. **Prompted prediction** — `ŷ = f_S(x̃)`, using an identity label
//!    mapping (the paper omits the optional output-mapping step).
//! 3. **Prompt training** — optimize `θ` on the target training set:
//!    by backpropagation when the model's gradients are available
//!    ([`train_prompt_backprop`], used for BPROM's shadow models), or with
//!    gradient-free CMA-ES when only black-box queries exist
//!    ([`train_prompt_cmaes`], used for the suspicious model).
//!
//! The [`BlackBoxModel`] trait is the type-enforced black-box boundary:
//! code written against it can only obtain confidence vectors, never
//! weights or gradients.
//!
//! # Example
//!
//! ```
//! use bprom_vp::VisualPrompt;
//! use bprom_tensor::Tensor;
//!
//! # fn main() -> Result<(), bprom_vp::VpError> {
//! // A prompt for 16x16 source inputs with a 4-pixel border.
//! let prompt = VisualPrompt::new(3, 16, 4)?;
//! let target_image = Tensor::zeros(&[3, 8, 8]);
//! let prompted = prompt.apply(&target_image)?;
//! assert_eq!(prompted.shape(), &[3, 16, 16]);
//! # Ok(())
//! # }
//! ```

// Numerical kernels in this crate use explicit index loops where the
// access pattern (strides, multiple arrays in lockstep) is the point;
// iterator rewrites would obscure it.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::manual_is_multiple_of)]

mod blackbox;
mod cmaes;
mod counting;
mod error;
mod label_map;
mod prompt;
mod train;

pub use blackbox::{BlackBoxModel, OracleStats, QueryFault, QueryOracle, QueryOutcome};
pub use cmaes::CmaEs;
pub use counting::CountingOracle;
pub use error::VpError;
pub use label_map::LabelMap;
pub use prompt::{PromptStyle, VisualPrompt};
pub use train::{
    prompted_accuracy, prompted_accuracy_blackbox, train_prompt_backprop, train_prompt_cmaes,
    CmaesCheckpoint, FitnessKind, PromptTrainConfig, PromptTrainReport,
};

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, VpError>;
