//! Bounded-retry decorator with virtual-clock exponential backoff.

use bprom_tensor::Tensor;
use bprom_vp::{BlackBoxModel, OracleStats, QueryOutcome, Result, VpError};
use std::sync::atomic::{AtomicU64, Ordering};

/// Backoff schedule for [`RetryingOracle`].
///
/// The clock is *virtual*: instead of sleeping, the would-be backoff
/// milliseconds accumulate into [`OracleStats::backoff_virtual_ms`] (and
/// the `oracle.backoff_ms` histogram). Detection pipelines stay exactly
/// as fast as the hardware allows while tests and reports still see the
/// latency a real client would have paid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per query (first try included). Minimum 1.
    pub max_attempts: u32,
    /// Backoff before the first retry, in (virtual) milliseconds.
    pub base_delay_ms: u64,
    /// Cap on a single backoff step, in (virtual) milliseconds.
    pub max_delay_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            base_delay_ms: 50,
            max_delay_ms: 2_000,
        }
    }
}

impl RetryPolicy {
    /// The backoff after the `retry`-th failed attempt (1-based):
    /// `base * 2^(retry-1)`, capped at `max_delay_ms`.
    pub fn delay_ms(&self, retry: u32) -> u64 {
        let doubled = self
            .base_delay_ms
            .saturating_mul(1u64 << (retry - 1).min(62));
        doubled.min(self.max_delay_ms)
    }
}

/// A [`BlackBoxModel`] decorator that absorbs transient faults from its
/// inner oracle by retrying with bounded exponential backoff.
///
/// On the plain [`BlackBoxModel::query`] path, a query whose retry
/// budget runs out surfaces as [`VpError::OracleFault`] with the full
/// attempt count — the typed signal consumers use to degrade gracefully
/// (CMA-ES skips-and-penalizes the candidate) instead of aborting.
pub struct RetryingOracle<'a> {
    inner: &'a dyn BlackBoxModel,
    policy: RetryPolicy,
    retries: AtomicU64,
    exhausted: AtomicU64,
    backoff_ms: AtomicU64,
}

impl std::fmt::Debug for RetryingOracle<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RetryingOracle")
            .field("policy", &self.policy)
            .field("retries", &self.retries.load(Ordering::Relaxed))
            .field("exhausted", &self.exhausted.load(Ordering::Relaxed))
            .finish()
    }
}

impl<'a> RetryingOracle<'a> {
    /// Wraps `inner` with the given retry policy.
    pub fn new(inner: &'a dyn BlackBoxModel, policy: RetryPolicy) -> Self {
        RetryingOracle {
            inner,
            policy: RetryPolicy {
                max_attempts: policy.max_attempts.max(1),
                ..policy
            },
            retries: AtomicU64::new(0),
            exhausted: AtomicU64::new(0),
            backoff_ms: AtomicU64::new(0),
        }
    }

    /// Retry attempts performed so far (this wrapper only).
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Queries that ran out of attempts (this wrapper only).
    pub fn exhausted(&self) -> u64 {
        self.exhausted.load(Ordering::Relaxed)
    }

    /// Virtual milliseconds spent backing off (this wrapper only).
    pub fn backoff_virtual_ms(&self) -> u64 {
        self.backoff_ms.load(Ordering::Relaxed)
    }

    /// The active policy.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }
}

impl BlackBoxModel for RetryingOracle<'_> {
    fn query(&self, batch: &Tensor) -> Result<Tensor> {
        match self.try_query_batch(batch)? {
            Ok(probs) => Ok(probs),
            Err(fault) => Err(VpError::OracleFault {
                fault,
                attempts: self.policy.max_attempts,
            }),
        }
    }

    fn try_query_batch(&self, batch: &Tensor) -> Result<QueryOutcome> {
        let mut failed_attempts = 0u32;
        loop {
            match self.inner.try_query_batch(batch)? {
                Ok(probs) => return Ok(Ok(probs)),
                Err(fault) => {
                    failed_attempts += 1;
                    if failed_attempts >= self.policy.max_attempts {
                        self.exhausted.fetch_add(1, Ordering::Relaxed);
                        bprom_obs::counter_add("oracle.retry_exhausted", 1);
                        bprom_obs::log_event(
                            "oracle.retry_exhausted",
                            [("attempts", u64::from(self.policy.max_attempts).into())],
                        );
                        return Ok(Err(fault));
                    }
                    let delay = self.policy.delay_ms(failed_attempts);
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    self.backoff_ms.fetch_add(delay, Ordering::Relaxed);
                    bprom_obs::counter_add("oracle.retries", 1);
                    bprom_obs::observe("oracle.backoff_ms", delay);
                }
            }
        }
    }

    fn wrapped(&self) -> Option<&dyn BlackBoxModel> {
        Some(self.inner)
    }

    fn oracle_stats(&self) -> OracleStats {
        self.inner.oracle_stats().merged(&OracleStats {
            retries: self.retries.load(Ordering::Relaxed),
            retry_exhausted: self.exhausted.load(Ordering::Relaxed),
            backoff_virtual_ms: self.backoff_ms.load(Ordering::Relaxed),
            ..OracleStats::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultyOracle, Transient};
    use bprom_nn::models::{mlp, ModelSpec};
    use bprom_tensor::Rng;
    use bprom_vp::{QueryFault, QueryOracle};

    fn oracle() -> QueryOracle {
        let mut rng = Rng::new(0);
        let model = mlp(&ModelSpec::new(3, 8, 5), &mut rng).unwrap();
        QueryOracle::new(model, 5)
    }

    fn batch(seed: u64) -> Tensor {
        let mut rng = Rng::new(seed);
        Tensor::rand_uniform(&[2, 3, 8, 8], 0.0, 1.0, &mut rng)
    }

    #[test]
    fn backoff_schedule_doubles_and_caps() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_delay_ms: 50,
            max_delay_ms: 300,
        };
        assert_eq!(policy.delay_ms(1), 50);
        assert_eq!(policy.delay_ms(2), 100);
        assert_eq!(policy.delay_ms(3), 200);
        assert_eq!(policy.delay_ms(4), 300);
        assert_eq!(policy.delay_ms(40), 300);
    }

    #[test]
    fn retries_absorb_transient_faults() {
        let inner = oracle();
        let faulty = FaultyOracle::new(&inner, Transient { rate: 0.3 }, 13);
        let policy = RetryPolicy {
            max_attempts: 10,
            ..RetryPolicy::default()
        };
        let retrying = RetryingOracle::new(&faulty, policy);
        let reference = inner.query(&batch(0)).unwrap();
        for i in 0..32 {
            let probs = retrying.query(&batch(i)).unwrap();
            if i == 0 {
                // Transient faults drop requests but never corrupt the
                // responses that do get through.
                assert_eq!(probs, reference);
            }
        }
        let stats = retrying.oracle_stats();
        assert!(stats.retries > 0, "rate 0.3 over 32 queries must retry");
        assert_eq!(stats.retries, stats.faults_injected);
        assert_eq!(stats.retry_exhausted, 0);
        assert_eq!(stats.backoff_virtual_ms, retrying.backoff_virtual_ms());
        assert!(stats.backoff_virtual_ms >= stats.retries * 50);
    }

    #[test]
    fn exhaustion_surfaces_typed_fault() {
        let inner = oracle();
        let faulty = FaultyOracle::new(&inner, Transient { rate: 1.0 }, 1);
        let policy = RetryPolicy {
            max_attempts: 4,
            base_delay_ms: 10,
            max_delay_ms: 1_000,
        };
        let retrying = RetryingOracle::new(&faulty, policy);
        match retrying.query(&batch(0)) {
            Err(VpError::OracleFault { fault, attempts }) => {
                assert_eq!(fault, QueryFault::Dropped);
                assert_eq!(attempts, 4);
            }
            other => panic!("expected OracleFault, got {other:?}"),
        }
        // 4 attempts: 3 backed-off retries, then exhaustion.
        assert_eq!(retrying.retries(), 3);
        assert_eq!(retrying.exhausted(), 1);
        assert_eq!(retrying.backoff_virtual_ms(), 10 + 20 + 40);
        assert_eq!(faulty.faults_injected(), 4);
        assert_eq!(inner.queries_used(), 0);
    }

    #[test]
    fn fault_free_stack_is_transparent() {
        let inner = oracle();
        let retrying = RetryingOracle::new(&inner, RetryPolicy::default());
        let direct = inner.query(&batch(3)).unwrap();
        let through = retrying.query(&batch(3)).unwrap();
        assert_eq!(direct, through);
        assert_eq!(retrying.retries(), 0);
        assert_eq!(retrying.oracle_stats(), OracleStats::default());
    }
}
