use crate::{Result, VpError};
use bprom_ckpt::{Decoder, Encoder};
use bprom_nn::{softmax, Layer, Sequential};
use bprom_tensor::Tensor;
use std::sync::atomic::{AtomicU64, Ordering};

/// A *transient* query failure at the oracle boundary — the kind a real
/// MLaaS endpoint produces and a client is expected to retry, as opposed
/// to a hard error (bad batch shape, broken model) that no retry fixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryFault {
    /// The request was dropped before producing a response (network
    /// transient, server hiccup).
    Dropped,
    /// The caller exceeded the endpoint's rate limit; the request will
    /// succeed once the window resets.
    RateLimited,
}

impl std::fmt::Display for QueryFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryFault::Dropped => write!(f, "request dropped"),
            QueryFault::RateLimited => write!(f, "rate limited"),
        }
    }
}

/// The in-band outcome of one query attempt: a confidence matrix, or a
/// retryable [`QueryFault`]. Hard errors live in the surrounding
/// [`Result`].
pub type QueryOutcome = std::result::Result<Tensor, QueryFault>;

/// Cumulative fault/retry accounting exposed by an oracle stack.
///
/// Plain oracles report zeros; fault-injecting and retrying decorators
/// (the `bprom-faults` crate) add their own tallies to their inner
/// oracle's, so reading the outermost wrapper sees the whole stack.
/// Snapshots taken before and after a pipeline phase subtract
/// ([`OracleStats::delta_since`]) to give that phase's share.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OracleStats {
    /// Query attempts rejected with a transient [`QueryFault`].
    pub faults_injected: u64,
    /// Delivered responses that were degraded (quantized, truncated,
    /// jittered) relative to the true confidence vector.
    pub degraded_responses: u64,
    /// Retry attempts performed after a transient fault.
    pub retries: u64,
    /// Queries that exhausted their retry budget and surfaced a fault.
    pub retry_exhausted: u64,
    /// Virtual backoff time accumulated while retrying, in milliseconds
    /// (no wall-clock sleeping happens; see `bprom-faults::RetryPolicy`).
    pub backoff_virtual_ms: u64,
    /// Query rows served from a content-addressed cache instead of the
    /// provider (see `bprom-qcache`).
    pub cache_hits: u64,
    /// Deduplicated query rows a cache forwarded to the provider.
    pub cache_misses: u64,
    /// Cache entries evicted by a bounded-memory (LRU) policy.
    pub cache_evictions: u64,
    /// Responses fabricated by an adaptive (probe-detecting) endpoint
    /// instead of answered honestly (see `bprom-faults::AdaptiveOracle`).
    pub evasive_responses: u64,
}

impl OracleStats {
    /// Component-wise difference against an earlier snapshot of the same
    /// (monotonic) stats; saturates at zero for safety.
    pub fn delta_since(&self, earlier: &OracleStats) -> OracleStats {
        OracleStats {
            faults_injected: self.faults_injected.saturating_sub(earlier.faults_injected),
            degraded_responses: self
                .degraded_responses
                .saturating_sub(earlier.degraded_responses),
            retries: self.retries.saturating_sub(earlier.retries),
            retry_exhausted: self.retry_exhausted.saturating_sub(earlier.retry_exhausted),
            backoff_virtual_ms: self
                .backoff_virtual_ms
                .saturating_sub(earlier.backoff_virtual_ms),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
            cache_evictions: self.cache_evictions.saturating_sub(earlier.cache_evictions),
            evasive_responses: self
                .evasive_responses
                .saturating_sub(earlier.evasive_responses),
        }
    }

    /// Component-wise sum (for chaining a decorator's own tally onto its
    /// inner oracle's).
    pub fn merged(&self, other: &OracleStats) -> OracleStats {
        OracleStats {
            faults_injected: self.faults_injected + other.faults_injected,
            degraded_responses: self.degraded_responses + other.degraded_responses,
            retries: self.retries + other.retries,
            retry_exhausted: self.retry_exhausted + other.retry_exhausted,
            backoff_virtual_ms: self.backoff_virtual_ms + other.backoff_virtual_ms,
            cache_hits: self.cache_hits + other.cache_hits,
            cache_misses: self.cache_misses + other.cache_misses,
            cache_evictions: self.cache_evictions + other.cache_evictions,
            evasive_responses: self.evasive_responses + other.evasive_responses,
        }
    }
}

/// The black-box boundary: a model that can only be *queried*.
///
/// The paper's defender has "no access to the poisoned dataset, model
/// structure, or parameters … detection involves only black-box queries on
/// the model to obtain confidence vectors" (Section 4). Code written
/// against this trait is compiler-checked to respect that boundary.
///
/// Queries go through `&self` and implementations are `Send + Sync`: a
/// deployed MLaaS endpoint serves concurrent clients, and the CMA-ES
/// candidate loop in `bprom-par` shares one oracle across workers the
/// same way. Implementations keep query accounting exact under
/// concurrency (atomics).
pub trait BlackBoxModel: Send + Sync {
    /// Returns a `[n, k]` matrix of confidence vectors (softmax
    /// probabilities) for a `[n, c, h, w]` input batch.
    ///
    /// # Errors
    ///
    /// Returns an error if the batch shape is incompatible with the model.
    fn query(&self, batch: &Tensor) -> Result<Tensor>;

    /// Fallible variant of [`BlackBoxModel::query`]: transient faults are
    /// returned *in band* as `Ok(Err(fault))` so retry layers can react,
    /// while hard errors (bad shapes, model failures) stay in the outer
    /// [`Result`].
    ///
    /// Infallible oracles keep this default (which never faults), so
    /// plain implementations like [`QueryOracle`] are untouched; the
    /// decorators in `bprom-faults` override it to inject and absorb
    /// faults.
    ///
    /// # Errors
    ///
    /// Returns a hard (non-retryable) error exactly when
    /// [`BlackBoxModel::query`] would.
    fn try_query_batch(&self, batch: &Tensor) -> Result<QueryOutcome> {
        match self.query(batch) {
            Ok(probs) => Ok(Ok(probs)),
            Err(VpError::OracleFault { fault, .. }) => Ok(Err(fault)),
            Err(e) => Err(e),
        }
    }

    /// Length of the confidence vector (number of source classes `K_S`).
    fn num_classes(&self) -> usize;

    /// Number of *images* submitted so far (query-budget accounting).
    fn queries_used(&self) -> u64;

    /// Cumulative fault/retry accounting for this oracle stack. Plain
    /// oracles report all-zero stats; decorators chain their tallies onto
    /// their inner oracle's (see [`OracleStats`]).
    fn oracle_stats(&self) -> OracleStats {
        OracleStats::default()
    }

    /// Serializes any memoized query state this stack holds (see
    /// `bprom-qcache`) into `enc`, returning `true` if something was
    /// written. Oracles without a cache keep this default and return
    /// `false`; passive decorators forward to their inner oracle so a
    /// checkpoint snapshot can reach the cache through the whole stack.
    fn export_cache(&self, enc: &mut Encoder) -> bool {
        let _ = enc;
        false
    }

    /// Restores memoized query state previously written by
    /// [`BlackBoxModel::export_cache`]. The cacheless default ignores the
    /// payload; decorators forward to their inner oracle.
    ///
    /// # Errors
    ///
    /// Returns an error when the payload is malformed for the receiving
    /// cache (wrong version, truncated bytes).
    fn import_cache(&self, dec: &mut Decoder<'_>) -> Result<()> {
        let _ = dec;
        Ok(())
    }
}

/// Every `&T` is itself a black-box oracle, forwarding to `T`. This lets
/// owning decorators (e.g. `bprom-qcache`'s `CachingOracle<B>`) wrap a
/// *borrowed* oracle without a dedicated borrowing variant.
impl<T: BlackBoxModel + ?Sized> BlackBoxModel for &T {
    fn query(&self, batch: &Tensor) -> Result<Tensor> {
        (**self).query(batch)
    }

    fn try_query_batch(&self, batch: &Tensor) -> Result<QueryOutcome> {
        (**self).try_query_batch(batch)
    }

    fn num_classes(&self) -> usize {
        (**self).num_classes()
    }

    fn queries_used(&self) -> u64 {
        (**self).queries_used()
    }

    fn oracle_stats(&self) -> OracleStats {
        (**self).oracle_stats()
    }

    fn export_cache(&self, enc: &mut Encoder) -> bool {
        (**self).export_cache(enc)
    }

    fn import_cache(&self, dec: &mut Decoder<'_>) -> Result<()> {
        (**self).import_cache(dec)
    }
}

/// Wraps an owned [`Sequential`] as a query-only oracle.
///
/// Once a model is wrapped, the only remaining interface is
/// [`BlackBoxModel::query`] — the detector cannot reach weights or run
/// backward passes. Queries run through the model's side-effect-free
/// [`Layer::forward_eval`] path, so the oracle can serve many threads
/// concurrently.
pub struct QueryOracle {
    model: Sequential,
    num_classes: usize,
    queries: AtomicU64,
}

impl std::fmt::Debug for QueryOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryOracle")
            .field("num_classes", &self.num_classes)
            .field("queries", &self.queries.load(Ordering::Relaxed))
            .finish()
    }
}

impl QueryOracle {
    /// Seals a model behind the query-only interface.
    pub fn new(model: Sequential, num_classes: usize) -> Self {
        QueryOracle {
            model,
            num_classes,
            queries: AtomicU64::new(0),
        }
    }

    /// Unseals the oracle, returning the wrapped model. Intended for the
    /// oracle's *owner* (e.g. an experiment harness reclaiming a model it
    /// wrapped); a detector holding only `&dyn BlackBoxModel` cannot
    /// call this.
    pub fn into_inner(self) -> Sequential {
        self.model
    }
}

impl BlackBoxModel for QueryOracle {
    fn query(&self, batch: &Tensor) -> Result<Tensor> {
        if batch.rank() != 4 {
            return Err(VpError::InvalidConfig {
                reason: format!("query expects [n, c, h, w], got {:?}", batch.shape()),
            });
        }
        self.queries
            .fetch_add(batch.shape()[0] as u64, Ordering::Relaxed);
        let logits = self.model.forward_eval(batch)?;
        Ok(softmax(&logits)?)
    }

    fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn queries_used(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bprom_nn::models::{mlp, ModelSpec};
    use bprom_tensor::Rng;

    #[test]
    fn oracle_returns_probabilities_and_counts_queries() {
        let mut rng = Rng::new(0);
        let model = mlp(&ModelSpec::new(3, 8, 5), &mut rng).unwrap();
        let oracle = QueryOracle::new(model, 5);
        let batch = Tensor::rand_uniform(&[4, 3, 8, 8], 0.0, 1.0, &mut rng);
        let probs = oracle.query(&batch).unwrap();
        assert_eq!(probs.shape(), &[4, 5]);
        for i in 0..4 {
            let sum: f32 = probs.data()[i * 5..(i + 1) * 5].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        assert_eq!(oracle.queries_used(), 4);
        oracle.query(&batch).unwrap();
        assert_eq!(oracle.queries_used(), 8);
        // A bare oracle injects no faults and retries nothing.
        assert_eq!(oracle.oracle_stats(), OracleStats::default());
    }

    #[test]
    fn oracle_rejects_bad_shape() {
        let mut rng = Rng::new(1);
        let model = mlp(&ModelSpec::new(3, 8, 5), &mut rng).unwrap();
        let oracle = QueryOracle::new(model, 5);
        assert!(oracle.query(&Tensor::zeros(&[3, 8, 8])).is_err());
    }

    #[test]
    fn concurrent_queries_are_deterministic_and_counted() {
        let mut rng = Rng::new(2);
        let model = mlp(&ModelSpec::new(3, 8, 5), &mut rng).unwrap();
        let oracle = QueryOracle::new(model, 5);
        let batch = Tensor::rand_uniform(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let reference = oracle.query(&batch).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..8 {
                        assert_eq!(oracle.query(&batch).unwrap(), reference);
                    }
                });
            }
        });
        assert_eq!(oracle.queries_used(), 2 + 4 * 8 * 2);
    }
}
