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
    /// Every counter, in declaration order: the one list that
    /// [`OracleStats::delta_since`], [`OracleStats::merged`] and the
    /// snapshot codec ([`OracleStats::encode`] / [`OracleStats::decode`])
    /// iterate over. The order is the snapshot byte order.
    const COUNTERS: [fn(&mut OracleStats) -> &mut u64; 9] = [
        |s| &mut s.faults_injected,
        |s| &mut s.degraded_responses,
        |s| &mut s.retries,
        |s| &mut s.retry_exhausted,
        |s| &mut s.backoff_virtual_ms,
        |s| &mut s.cache_hits,
        |s| &mut s.cache_misses,
        |s| &mut s.cache_evictions,
        |s| &mut s.evasive_responses,
    ];

    /// Applies `op` counter by counter to `self` and `other`.
    fn zip_with(&self, other: &OracleStats, op: impl Fn(u64, u64) -> u64) -> OracleStats {
        let (mut out, mut other) = (*self, *other);
        for counter in Self::COUNTERS {
            let value = op(*counter(&mut out), *counter(&mut other));
            *counter(&mut out) = value;
        }
        out
    }

    /// Component-wise difference against an earlier snapshot of the same
    /// (monotonic) stats; saturates at zero for safety.
    pub fn delta_since(&self, earlier: &OracleStats) -> OracleStats {
        self.zip_with(earlier, u64::saturating_sub)
    }

    /// Component-wise sum (for chaining a decorator's own tally onto its
    /// inner oracle's).
    pub fn merged(&self, other: &OracleStats) -> OracleStats {
        self.zip_with(other, |a, b| a + b)
    }

    /// Appends every counter to a snapshot, in declaration order.
    pub(crate) fn encode(&self, enc: &mut Encoder) {
        let mut stats = *self;
        for counter in Self::COUNTERS {
            enc.put_u64(*counter(&mut stats));
        }
    }

    /// Reads the counters [`OracleStats::encode`] wrote.
    pub(crate) fn decode(dec: &mut Decoder<'_>) -> Result<OracleStats> {
        let mut stats = OracleStats::default();
        for counter in Self::COUNTERS {
            *counter(&mut stats) = dec.get_u64()?;
        }
        Ok(stats)
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
///
/// # Leaves and layers
///
/// A *leaf* answers queries itself ([`QueryOracle`]) and implements
/// `query`, `num_classes` and `queries_used`; its other defaults give a
/// cacheless, fault-free oracle. A *layer* decorates another oracle and
/// returns it from [`BlackBoxModel::wrapped`]; `num_classes`,
/// `queries_used`, `oracle_stats` and the cache pair then forward there
/// by default. A layer writes `query` and overrides only what it
/// changes: `try_query_batch` to inject, absorb or transform in-band
/// faults, `oracle_stats` to merge its own counters onto its inner
/// oracle's, `queries_used` when it answers rows without the inner
/// model, `num_classes` when it changes the class space, and the cache
/// pair when it holds a cache.
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

    /// The oracle this layer decorates, or `None` for a leaf. The
    /// forwarding defaults below read it, so a layer that returns its
    /// inner oracle here inherits everything it does not override.
    fn wrapped(&self) -> Option<&dyn BlackBoxModel> {
        None
    }

    /// Length of the confidence vector (number of source classes `K_S`).
    /// The default panics on a leaf rather than make a count up.
    fn num_classes(&self) -> usize {
        self.wrapped()
            .expect("a leaf oracle must implement BlackBoxModel::num_classes")
            .num_classes()
    }

    /// Number of *images* submitted so far (query-budget accounting).
    /// The default panics on a leaf rather than make a count up.
    fn queries_used(&self) -> u64 {
        self.wrapped()
            .expect("a leaf oracle must implement BlackBoxModel::queries_used")
            .queries_used()
    }

    /// Cumulative fault/retry accounting for this oracle stack (see
    /// [`OracleStats`]); all zeros for a leaf.
    fn oracle_stats(&self) -> OracleStats {
        self.wrapped()
            .map_or_else(OracleStats::default, |inner| inner.oracle_stats())
    }

    /// Serializes any memoized query state this stack holds (see
    /// `bprom-qcache`) into `enc`, returning `true` if something was
    /// written; `false` for a cacheless leaf.
    fn export_cache(&self, enc: &mut Encoder) -> bool {
        self.wrapped().is_some_and(|inner| inner.export_cache(enc))
    }

    /// Restores memoized query state previously written by
    /// [`BlackBoxModel::export_cache`]; a cacheless leaf ignores it.
    ///
    /// # Errors
    ///
    /// Returns an error when the payload is malformed for the receiving
    /// cache (wrong version, truncated bytes).
    fn import_cache(&self, dec: &mut Decoder<'_>) -> Result<()> {
        self.wrapped()
            .map_or(Ok(()), |inner| inner.import_cache(dec))
    }
}

/// Every `&T` is itself a black-box oracle, forwarding to `T`. This lets
/// owning decorators (e.g. `bprom-qcache`'s `CachingOracle<B>`) wrap a
/// *borrowed* oracle without a dedicated borrowing variant. It forwards
/// every method, not just [`BlackBoxModel::wrapped`], so `T`'s own
/// overrides stay in force.
impl<T: BlackBoxModel + ?Sized> BlackBoxModel for &T {
    fn query(&self, batch: &Tensor) -> Result<Tensor> {
        (**self).query(batch)
    }

    fn try_query_batch(&self, batch: &Tensor) -> Result<QueryOutcome> {
        (**self).try_query_batch(batch)
    }

    fn wrapped(&self) -> Option<&dyn BlackBoxModel> {
        (**self).wrapped()
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
        // A bare oracle injects no faults, retries nothing, holds no cache
        // and wraps nothing.
        assert_eq!(oracle.oracle_stats(), OracleStats::default());
        assert!(!oracle.export_cache(&mut Encoder::new()));
        assert!(oracle.import_cache(&mut Decoder::new(&[])).is_ok());
        assert!(oracle.wrapped().is_none());
    }

    #[test]
    fn every_stats_counter_survives_merge_delta_and_snapshot() {
        // Give each counter in the list a distinct value, then read the
        // named fields back: a field missing from (or doubled in) the
        // list reads zero, and a reordered list reads out of order.
        let named = |s: &OracleStats| {
            [
                s.faults_injected,
                s.degraded_responses,
                s.retries,
                s.retry_exhausted,
                s.backoff_virtual_ms,
                s.cache_hits,
                s.cache_misses,
                s.cache_evictions,
                s.evasive_responses,
            ]
        };
        let want: [u64; 9] = std::array::from_fn(|i| 101 * (i as u64 + 1));
        let mut a = OracleStats::default();
        for (counter, v) in OracleStats::COUNTERS.iter().zip(want) {
            *counter(&mut a) = v;
        }
        assert_eq!(named(&a), want);
        // A field added to the struct but not to the list changes its size.
        assert_eq!(std::mem::size_of::<OracleStats>(), 8 * want.len());
        assert_eq!(named(&a.merged(&a)), want.map(|v| 2 * v));
        assert_eq!(a.merged(&a).delta_since(&a), a);
        assert_eq!(
            OracleStats::default().delta_since(&a),
            OracleStats::default()
        );
        // Snapshot bytes are the counters in declaration order.
        let mut enc = Encoder::new();
        a.encode(&mut enc);
        let bytes = enc.into_bytes();
        assert_eq!(bytes, want.map(u64::to_le_bytes).concat());
        let mut dec = Decoder::new(&bytes);
        assert_eq!(OracleStats::decode(&mut dec).unwrap(), a);
        dec.finish().unwrap();
        assert!(OracleStats::decode(&mut Decoder::new(&bytes[..40])).is_err());
    }

    /// A leaf that implements only `query`.
    struct BareLeaf;

    impl BlackBoxModel for BareLeaf {
        fn query(&self, batch: &Tensor) -> Result<Tensor> {
            Ok(batch.clone())
        }
    }

    #[test]
    #[should_panic(expected = "a leaf oracle must implement BlackBoxModel::num_classes")]
    fn leaf_never_inherits_a_made_up_class_count() {
        BareLeaf.num_classes();
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
