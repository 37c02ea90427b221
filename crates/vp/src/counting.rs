//! Query-budget accounting at the black-box boundary.
//!
//! [`CountingOracle`] wraps any [`BlackBoxModel`] and records every query
//! batch: an exact local tally (images and batches, readable by the
//! caller even with telemetry disabled) plus, when a `bprom-obs` session
//! is installed, the `oracle.queries` counter and the
//! `oracle.query_ns` / `oracle.batch_size` histograms. It is also the
//! seal on what comes back: a response that is not a
//! `[rows, num_classes]` matrix of finite values is billed, then refused
//! with [`crate::VpError::MalformedResponse`].

use crate::{BlackBoxModel, QueryOutcome, Result, VpError};
use bprom_tensor::Tensor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A [`BlackBoxModel`] wrapper that meters queries passing through it.
///
/// Metering is strictly passive: the wrapped oracle sees the exact same
/// batches in the exact same order, so detection results are unchanged.
///
/// The tally is atomic, so one `CountingOracle` can be shared across
/// `bprom-par` workers; totals stay exact under concurrent queries
/// (relaxed increments are still never lost, only unordered).
pub struct CountingOracle<'a> {
    inner: &'a dyn BlackBoxModel,
    queries: AtomicU64,
    batches: AtomicU64,
}

impl std::fmt::Debug for CountingOracle<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CountingOracle")
            .field("queries", &self.queries.load(Ordering::Relaxed))
            .field("batches", &self.batches.load(Ordering::Relaxed))
            .finish()
    }
}

impl<'a> CountingOracle<'a> {
    /// Wraps an oracle; the local tally starts at zero.
    pub fn new(inner: &'a dyn BlackBoxModel) -> Self {
        CountingOracle {
            inner,
            queries: AtomicU64::new(0),
            batches: AtomicU64::new(0),
        }
    }

    /// Images submitted through *this wrapper* (unlike
    /// [`BlackBoxModel::queries_used`], which is the wrapped oracle's
    /// lifetime total).
    pub fn local_queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Query batches submitted through this wrapper.
    pub fn local_batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Bills one answered batch of `n` rows (and its timing, when
    /// telemetry is on).
    fn bill(&self, n: u64, start: Option<Instant>) {
        self.queries.fetch_add(n, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        if let Some(start) = start {
            bprom_obs::observe("oracle.query_ns", start.elapsed().as_nanos() as u64);
            bprom_obs::observe("oracle.batch_size", n);
            bprom_obs::counter_add("oracle.queries", n);
            bprom_obs::counter_add("oracle.batches", 1);
        }
    }

    /// The seal: a delivered response must be a `[rows, num_classes]`
    /// matrix of finite values before anything indexes into it.
    fn check(&self, rows: usize, probs: &Tensor) -> Result<()> {
        let want = [rows, self.num_classes()];
        if probs.shape() != want {
            return Err(VpError::MalformedResponse {
                reason: format!("expected shape {want:?}, got {:?}", probs.shape()),
            });
        }
        match probs.data().iter().position(|p| !p.is_finite()) {
            Some(i) => Err(VpError::MalformedResponse {
                reason: format!("non-finite confidence {} at index {i}", probs.data()[i]),
            }),
            None => Ok(()),
        }
    }
}

impl BlackBoxModel for CountingOracle<'_> {
    fn query(&self, batch: &Tensor) -> Result<Tensor> {
        let start = bprom_obs::enabled().then(Instant::now);
        let out = self.inner.query(batch)?;
        // Count only successful queries, mirroring the inner oracle.
        let rows = batch.shape()[0];
        self.bill(rows as u64, start);
        self.check(rows, &out)?;
        Ok(out)
    }

    /// Attempt-level metering: unlike [`CountingOracle::query`], which
    /// bills only delivered responses, every attempt that reaches this
    /// wrapper is counted — faulted or not. A retry layer *outside* this
    /// wrapper therefore bills each retry it makes (a real endpoint
    /// receives — and meters — the dropped request too), while a retry
    /// layer *inside* it bills each logical query once.
    fn try_query_batch(&self, batch: &Tensor) -> Result<QueryOutcome> {
        let start = bprom_obs::enabled().then(Instant::now);
        let out = self.inner.try_query_batch(batch)?;
        let rows = batch.shape()[0];
        self.bill(rows as u64, start);
        if let Ok(probs) = &out {
            self.check(rows, probs)?;
        }
        Ok(out)
    }

    fn wrapped(&self) -> Option<&dyn BlackBoxModel> {
        Some(self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryOracle;
    use bprom_nn::models::{mlp, ModelSpec};
    use bprom_tensor::Rng;

    #[test]
    fn counts_match_inner_oracle() {
        let mut rng = Rng::new(0);
        let model = mlp(&ModelSpec::new(3, 8, 5), &mut rng).unwrap();
        let oracle = QueryOracle::new(model, 5);
        let warmup = Tensor::rand_uniform(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        oracle.query(&warmup).unwrap();
        assert_eq!(oracle.queries_used(), 2);

        let batch = Tensor::rand_uniform(&[4, 3, 8, 8], 0.0, 1.0, &mut rng);
        let counting = CountingOracle::new(&oracle);
        counting.query(&batch).unwrap();
        counting.query(&batch).unwrap();
        // Local tally counts only wrapper traffic; queries_used is lifetime.
        assert_eq!(counting.local_queries(), 8);
        assert_eq!(counting.local_batches(), 2);
        assert_eq!(counting.queries_used(), 10);
        assert_eq!(counting.num_classes(), 5);
    }

    #[test]
    fn failed_queries_are_not_counted() {
        let mut rng = Rng::new(1);
        let model = mlp(&ModelSpec::new(3, 8, 5), &mut rng).unwrap();
        let oracle = QueryOracle::new(model, 5);
        let counting = CountingOracle::new(&oracle);
        assert!(counting.query(&Tensor::zeros(&[3, 8, 8])).is_err());
        assert_eq!(counting.local_queries(), 0);
        assert_eq!(counting.local_batches(), 0);
    }

    /// An endpoint that answers one row short.
    struct Short<'a>(&'a QueryOracle);

    impl BlackBoxModel for Short<'_> {
        fn query(&self, batch: &Tensor) -> Result<Tensor> {
            let probs = self.0.query(batch)?;
            let (n, k) = (probs.shape()[0], probs.shape()[1]);
            Ok(Tensor::from_vec(probs.data()[k..].to_vec(), &[n - 1, k])?)
        }

        fn wrapped(&self) -> Option<&dyn BlackBoxModel> {
            Some(self.0)
        }
    }

    #[test]
    fn malformed_responses_are_billed_then_refused_on_both_paths() {
        let mut rng = Rng::new(4);
        let model = mlp(&ModelSpec::new(3, 8, 5), &mut rng).unwrap();
        let oracle = QueryOracle::new(model, 5);
        let short = Short(&oracle);
        let counting = CountingOracle::new(&short);
        let batch = Tensor::rand_uniform(&[3, 3, 8, 8], 0.0, 1.0, &mut rng);
        assert!(matches!(
            counting.query(&batch),
            Err(VpError::MalformedResponse { .. })
        ));
        assert!(matches!(
            counting.try_query_batch(&batch),
            Err(VpError::MalformedResponse { .. })
        ));
        // The endpoint answered both batches, so both are billed.
        assert_eq!(counting.local_queries(), 6);
        assert_eq!(counting.local_batches(), 2);
    }

    #[test]
    fn concurrent_queries_are_counted_exactly() {
        let mut rng = Rng::new(3);
        let model = mlp(&ModelSpec::new(3, 8, 5), &mut rng).unwrap();
        let oracle = QueryOracle::new(model, 5);
        let counting = CountingOracle::new(&oracle);
        let batch = Tensor::rand_uniform(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let threads = 4;
        let per_thread = 16;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    for _ in 0..per_thread {
                        counting.query(&batch).unwrap();
                    }
                });
            }
        });
        let total_batches = (threads * per_thread) as u64;
        assert_eq!(counting.local_batches(), total_batches);
        assert_eq!(counting.local_queries(), total_batches * 2);
        assert_eq!(counting.queries_used(), total_batches * 2);
    }

    #[test]
    fn telemetry_records_oracle_traffic() {
        let mut rng = Rng::new(2);
        let model = mlp(&ModelSpec::new(3, 8, 5), &mut rng).unwrap();
        let oracle = QueryOracle::new(model, 5);
        let batch = Tensor::rand_uniform(&[4, 3, 8, 8], 0.0, 1.0, &mut rng);
        let session = bprom_obs::Session::begin("counting-test");
        let counting = CountingOracle::new(&oracle);
        counting.query(&batch).unwrap();
        let snapshot = session.finish();
        assert_eq!(snapshot.counter("oracle.queries"), 4);
        assert_eq!(snapshot.counter("oracle.batches"), 1);
        let hist = snapshot.histograms.get("oracle.batch_size").unwrap();
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.min(), Some(4));
    }
}
