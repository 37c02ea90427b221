//! Hostile-oracle fault injection for the BPROM black-box boundary.
//!
//! BPROM's threat model is a *remote* MLaaS classifier queried for
//! confidence vectors — and real endpoints drop requests, rate-limit,
//! quantize probabilities, truncate to top-k, or refuse to return
//! anything but a label. This crate makes that regime reproducible:
//!
//! * **[`FaultyOracle`]** decorates any [`BlackBoxModel`] with a seeded,
//!   composable [`FaultPlan`] — [`Transient`] drops, [`RateLimit`]
//!   windows, [`Quantize`]d / [`TopK`]-truncated / [`LabelOnly`] /
//!   [`Jitter`]ed responses, or a [`Stack`] of several.
//! * **[`RetryingOracle`]** absorbs the transient faults with bounded
//!   exponential backoff on a *virtual* clock ([`RetryPolicy`]): no
//!   wall-time is ever slept, but the would-be latency is accounted in
//!   [`bprom_vp::OracleStats`] and telemetry.
//! * **[`AdaptiveOracle`]** models the *adaptive attacker* tier: an
//!   endpoint that runs query-pattern tests (duplicate-rate, batch
//!   cross-row similarity) and answers fabricated-but-consistent
//!   confidences once it suspects it is being probed, tallied as
//!   `evasive_responses` (verdict rule B012).
//! * **Determinism.** Fault draws are keyed on the *content* of each
//!   query (plus a per-content attempt counter), never on arrival order,
//!   so an inspection under fault injection is byte-identical at any
//!   `BPROM_THREADS` setting — the same contract `bprom-par` enforces
//!   for RNG streams. ([`RateLimit`] is the documented exception.)
//!
//! Consumers never deal with faults directly: the plain
//! [`BlackBoxModel::query`] path retries transparently, and a query that
//! exhausts its budget surfaces as the typed
//! [`bprom_vp::VpError::OracleFault`], which CMA-ES candidate evaluation
//! converts into an infinite skip-penalty instead of aborting.
//!
//! # Example
//!
//! ```
//! use bprom_faults::{FaultyOracle, RetryingOracle, RetryPolicy, Stack, Transient, Quantize};
//! use bprom_vp::{BlackBoxModel, QueryOracle};
//! use bprom_nn::models::{mlp, ModelSpec};
//! use bprom_tensor::{Rng, Tensor};
//!
//! # fn main() -> Result<(), bprom_vp::VpError> {
//! let mut rng = Rng::new(0);
//! let oracle = QueryOracle::new(mlp(&ModelSpec::new(3, 8, 5), &mut rng)?, 5);
//! // A hostile endpoint: 20 % request drops, 2-decimal responses.
//! let plan = Stack(vec![
//!     Box::new(Transient { rate: 0.2 }),
//!     Box::new(Quantize { decimals: 2 }),
//! ]);
//! let faulty = FaultyOracle::new(&oracle, plan, 0xBAD);
//! let client = RetryingOracle::new(&faulty, RetryPolicy::default());
//! let batch = Tensor::rand_uniform(&[4, 3, 8, 8], 0.0, 1.0, &mut rng);
//! let probs = client.query(&batch)?; // retried transparently
//! assert_eq!(probs.shape(), &[4, 5]);
//! # Ok(())
//! # }
//! ```

mod adaptive;
mod faulty;
mod plan;
mod retry;

pub use adaptive::{AdaptiveConfig, AdaptiveOracle};
pub use faulty::FaultyOracle;
pub use plan::{
    FaultPlan, FaultProfile, Jitter, LabelOnly, Quantize, RateLimit, Stack, TopK, Transient,
};
pub use retry::{RetryPolicy, RetryingOracle};

use bprom_vp::BlackBoxModel;

/// Runs `f` against `oracle` wrapped according to the env-selected
/// [`FaultProfile`] (`BPROM_FAULT_PROFILE`; see [`FaultProfile::wrap`]).
/// This is the hook the integration-test helpers use so the whole suite
/// can run against hostile oracles in CI.
pub fn with_env_profile<R>(
    oracle: &dyn BlackBoxModel,
    seed: u64,
    f: impl FnOnce(&dyn BlackBoxModel) -> R,
) -> R {
    FaultProfile::from_env().wrap(oracle, seed, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bprom_nn::models::{mlp, ModelSpec};
    use bprom_tensor::{Rng, Tensor};
    use bprom_vp::{OracleStats, QueryOracle};

    type Replay = (Vec<Result<Vec<u32>, String>>, OracleStats);

    /// The bits of every response (or the typed failure) `oracle` gives
    /// to `batches`, plus the stats the stack accumulated.
    fn replay(oracle: &dyn BlackBoxModel, batches: &[Tensor]) -> Replay {
        let responses = batches
            .iter()
            .map(|b| {
                let probs = oracle.query(b).map_err(|e| e.to_string())?;
                Ok(probs.data().iter().map(|v| v.to_bits()).collect())
            })
            .collect();
        (responses, oracle.oracle_stats())
    }

    #[test]
    fn profile_wrap_covers_both_arms() {
        let mut rng = Rng::new(0);
        let oracle = QueryOracle::new(mlp(&ModelSpec::new(3, 8, 5), &mut rng).unwrap(), 5);
        let batches: Vec<Tensor> = (0..40)
            .map(|_| Tensor::rand_uniform(&[4, 3, 8, 8], 0.0, 1.0, &mut rng))
            .collect();
        // Off is a passthrough: the very oracle, untouched.
        let direct = replay(&oracle, &batches);
        let off = FaultProfile::Off.wrap(&oracle, 0xFA17, |o| replay(o, &batches));
        assert_eq!(off, direct);
        // Hostile is the standard hand-built stack, bit for bit: 10 %
        // transient drops plus 3-decimal quantization under seed-keyed
        // draws, behind the default retry policy.
        let hostile = FaultProfile::Hostile.wrap(&oracle, 0xFA17, |o| replay(o, &batches));
        let plan = Stack(vec![
            Box::new(Transient { rate: 0.1 }),
            Box::new(Quantize { decimals: 3 }),
        ]);
        let faulty = FaultyOracle::new(&oracle, plan, 0xFA17);
        let retrying = RetryingOracle::new(&faulty, RetryPolicy::default());
        assert_eq!(hostile, replay(&retrying, &batches));
        assert!(hostile.1.faults_injected > 0, "{:?}", hostile.1);
        assert!(hostile.1.degraded_responses > 0, "{:?}", hostile.1);
        assert_ne!(hostile.0, direct.0);
    }
}
