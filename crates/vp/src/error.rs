use crate::QueryFault;
use bprom_tensor::TensorError;
use std::fmt;

/// Error type for visual-prompting operations.
#[derive(Debug, Clone, PartialEq)]
pub enum VpError {
    /// An underlying tensor operation failed.
    Tensor(TensorError),
    /// A model forward/backward pass failed.
    Model(String),
    /// A prompt/optimizer configuration is invalid.
    InvalidConfig {
        /// Human-readable description of the violated requirement.
        reason: String,
    },
    /// A transient oracle fault was not absorbed: either no retry layer
    /// was installed, or the retry budget ran out. Callers that can
    /// degrade gracefully (e.g. CMA-ES candidate evaluation) match on
    /// this variant; everything else treats it as a failed query.
    OracleFault {
        /// The last fault observed.
        fault: QueryFault,
        /// Query attempts made before giving up (1 when unretried).
        attempts: u32,
    },
    /// An oracle delivered a response that is not a `[rows, classes]`
    /// matrix of finite confidences (a short, wide or NaN-carrying answer
    /// from a hostile endpoint), refused at the `CountingOracle` seal.
    MalformedResponse {
        /// What was wrong with the response.
        reason: String,
    },
    /// `CmaEs::tell` received a NaN fitness value, which would silently
    /// poison the distribution update.
    NanFitness {
        /// Index of the first NaN entry in the fitness slice.
        index: usize,
    },
    /// A checkpoint snapshot could not be written or restored (see
    /// `bprom-ckpt`; the message carries the typed source error).
    Ckpt(String),
}

impl fmt::Display for VpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VpError::Tensor(e) => write!(f, "tensor error: {e}"),
            VpError::Model(msg) => write!(f, "model error: {msg}"),
            VpError::InvalidConfig { reason } => write!(f, "invalid VP config: {reason}"),
            VpError::OracleFault { fault, attempts } => {
                write!(f, "oracle fault after {attempts} attempt(s): {fault}")
            }
            VpError::MalformedResponse { reason } => {
                write!(f, "malformed oracle response: {reason}")
            }
            VpError::NanFitness { index } => {
                write!(f, "NaN fitness at index {index} passed to CmaEs::tell")
            }
            VpError::Ckpt(msg) => write!(f, "checkpoint error: {msg}"),
        }
    }
}

impl std::error::Error for VpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VpError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for VpError {
    fn from(e: TensorError) -> Self {
        VpError::Tensor(e)
    }
}

impl From<bprom_nn::NnError> for VpError {
    fn from(e: bprom_nn::NnError) -> Self {
        VpError::Model(e.to_string())
    }
}

impl From<bprom_ckpt::CkptError> for VpError {
    fn from(e: bprom_ckpt::CkptError) -> Self {
        VpError::Ckpt(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        let e: VpError = TensorError::InvalidParameter { reason: "x".into() }.into();
        assert!(matches!(e, VpError::Tensor(_)));
        let m: VpError = bprom_nn::NnError::InvalidConfig { reason: "y".into() }.into();
        assert!(m.to_string().contains("y"));
    }
}
