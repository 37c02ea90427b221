//! The fault-injecting oracle decorator.

use crate::FaultPlan;
use bprom_tensor::{Rng, Tensor};
use bprom_vp::{BlackBoxModel, OracleStats, QueryOutcome, Result, VpError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// FNV-1a over the batch's shape and raw f32 bits: a stable fingerprint
/// of the query *content*, independent of when or on which thread it is
/// submitted.
pub(crate) fn content_key(batch: &Tensor) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    for &d in batch.shape() {
        eat(&(d as u64).to_le_bytes());
    }
    for &v in batch.data() {
        eat(&v.to_bits().to_le_bytes());
    }
    h
}

/// How many times each query content has been submitted: the
/// per-content attempt counter behind both content-keyed decorators
/// ([`FaultyOracle`] re-rolls a retried query's fate with it,
/// [`crate::AdaptiveOracle`] runs its duplicate-rate test on it).
#[derive(Debug, Default)]
pub(crate) struct Attempts(Mutex<HashMap<u64, u64>>);

impl Attempts {
    /// Records one submission of `batch`, returning its content key and
    /// the 0-based attempt number of this submission.
    pub(crate) fn next(&self, batch: &Tensor) -> (u64, u64) {
        let key = content_key(batch);
        let mut attempts = self.0.lock().expect("attempt map poisoned");
        let slot = attempts.entry(key).or_insert(0);
        let attempt = *slot;
        *slot += 1;
        (key, attempt)
    }
}

/// Mixes the plan seed, content key and attempt number into one child
/// seed (SplitMix64-style finalization over the xor-combined words).
pub(crate) fn attempt_seed(seed: u64, key: u64, attempt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(key.rotate_left(17))
        .wrapping_add(attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A [`BlackBoxModel`] decorator that makes the wrapped oracle behave
/// like a hostile remote endpoint, per a seeded [`FaultPlan`].
///
/// **Determinism contract.** Each query attempt's random draws come from
/// `Rng::new(mix(seed, content_key(batch), attempt))`: a pure function
/// of the plan seed, the batch *content*, and how many times this exact
/// content has been submitted before. Concurrent workers therefore see
/// the same faults for the same queries regardless of scheduling, which
/// is what lets `Bprom::inspect` stay byte-identical across
/// `BPROM_THREADS` settings even under fault injection (the per-content
/// attempt counter plays the role of the per-work-unit forked RNG
/// streams in `bprom-par`). The one deliberate exception is
/// [`crate::RateLimit`], whose window budget is arrival-ordered.
///
/// Rejected attempts never reach the wrapped model: the inner oracle's
/// `queries_used` counts only *delivered* queries, exactly like a remote
/// endpoint that never saw the dropped packet.
pub struct FaultyOracle<'a, F: FaultPlan> {
    inner: &'a dyn BlackBoxModel,
    plan: F,
    seed: u64,
    /// Drives per-attempt fault draws, so a retried query re-rolls its
    /// fate.
    attempts: Attempts,
    faults_injected: AtomicU64,
    degraded: AtomicU64,
}

impl<F: FaultPlan> std::fmt::Debug for FaultyOracle<'_, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyOracle")
            .field("plan", &self.plan.name())
            .field("seed", &self.seed)
            .field(
                "faults_injected",
                &self.faults_injected.load(Ordering::Relaxed),
            )
            .field("degraded", &self.degraded.load(Ordering::Relaxed))
            .finish()
    }
}

impl<'a, F: FaultPlan> FaultyOracle<'a, F> {
    /// Wraps `inner` with the given plan and fault seed.
    pub fn new(inner: &'a dyn BlackBoxModel, plan: F, seed: u64) -> Self {
        FaultyOracle {
            inner,
            plan,
            seed,
            attempts: Attempts::default(),
            faults_injected: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
        }
    }

    /// Transient faults injected so far (this wrapper only).
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected.load(Ordering::Relaxed)
    }

    /// Delivered-but-degraded responses so far (this wrapper only).
    pub fn degraded_responses(&self) -> u64 {
        self.degraded.load(Ordering::Relaxed)
    }

    /// The wrapped plan.
    pub fn plan(&self) -> &F {
        &self.plan
    }
}

impl<F: FaultPlan> BlackBoxModel for FaultyOracle<'_, F> {
    fn query(&self, batch: &Tensor) -> Result<Tensor> {
        match self.try_query_batch(batch)? {
            Ok(probs) => Ok(probs),
            Err(fault) => Err(VpError::OracleFault { fault, attempts: 1 }),
        }
    }

    fn try_query_batch(&self, batch: &Tensor) -> Result<QueryOutcome> {
        let (key, attempt) = self.attempts.next(batch);
        let mut rng = Rng::new(attempt_seed(self.seed, key, attempt));
        if let Some(fault) = self.plan.admit(&mut rng) {
            self.faults_injected.fetch_add(1, Ordering::Relaxed);
            bprom_obs::counter_add("oracle.faults_injected", 1);
            return Ok(Err(fault));
        }
        let mut probs = self.inner.query(batch)?;
        if self.plan.degrade(&mut rng, &mut probs) {
            self.degraded.fetch_add(1, Ordering::Relaxed);
            bprom_obs::counter_add("oracle.degraded", 1);
        }
        Ok(Ok(probs))
    }

    fn wrapped(&self) -> Option<&dyn BlackBoxModel> {
        Some(self.inner)
    }

    fn oracle_stats(&self) -> OracleStats {
        self.inner.oracle_stats().merged(&OracleStats {
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
            degraded_responses: self.degraded.load(Ordering::Relaxed),
            ..OracleStats::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LabelOnly, Quantize, Transient};
    use bprom_nn::models::{mlp, ModelSpec};
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
    fn content_key_is_content_only() {
        let a = batch(1);
        let b = batch(1);
        let c = batch(2);
        assert_eq!(content_key(&a), content_key(&b));
        assert_ne!(content_key(&a), content_key(&c));
    }

    #[test]
    fn faults_are_reproducible_per_seed_and_reroll_per_attempt() {
        let inner = oracle();
        let run = |seed: u64| -> Vec<bool> {
            let faulty = FaultyOracle::new(&inner, Transient { rate: 0.5 }, seed);
            (0..32)
                .map(|i| faulty.try_query_batch(&batch(i)).unwrap().is_err())
                .collect()
        };
        let a = run(99);
        let b = run(99);
        assert_eq!(a, b, "same seed must reproduce the same fault pattern");
        assert!(a.iter().any(|&f| f) && a.iter().any(|&f| !f));
        // Resubmitting the same content re-rolls: at rate 0.5, 16
        // attempts on one batch cannot all agree (p = 2^-15 per seed,
        // and the draw is deterministic for this fixed seed).
        let faulty = FaultyOracle::new(&inner, Transient { rate: 0.5 }, 7);
        let fates: Vec<bool> = (0..16)
            .map(|_| faulty.try_query_batch(&batch(0)).unwrap().is_err())
            .collect();
        assert!(fates.iter().any(|&f| f) && fates.iter().any(|&f| !f));
    }

    #[test]
    fn rejected_attempts_never_reach_the_model() {
        let inner = oracle();
        let faulty = FaultyOracle::new(&inner, Transient { rate: 1.0 }, 3);
        for i in 0..5 {
            assert_eq!(
                faulty.try_query_batch(&batch(i)).unwrap(),
                Err(QueryFault::Dropped)
            );
        }
        assert_eq!(inner.queries_used(), 0);
        assert_eq!(faulty.faults_injected(), 5);
        assert_eq!(faulty.oracle_stats().faults_injected, 5);
        // The infallible path surfaces the fault as a typed error.
        match faulty.query(&batch(0)) {
            Err(VpError::OracleFault { fault, attempts }) => {
                assert_eq!(fault, QueryFault::Dropped);
                assert_eq!(attempts, 1);
            }
            other => panic!("expected OracleFault, got {other:?}"),
        }
    }

    #[test]
    fn degradation_counts_and_mangles() {
        let inner = oracle();
        let faulty = FaultyOracle::new(&inner, Quantize { decimals: 1 }, 5);
        let probs = faulty.query(&batch(0)).unwrap();
        for &p in probs.data() {
            assert!((p * 10.0 - (p * 10.0).round()).abs() < 1e-6, "p={p}");
        }
        assert_eq!(faulty.degraded_responses(), 1);
        assert_eq!(faulty.oracle_stats().degraded_responses, 1);
        // Label-only responses stay valid one-hot confidence vectors.
        let faulty = FaultyOracle::new(&inner, LabelOnly, 5);
        let probs = faulty.query(&batch(0)).unwrap();
        for row in 0..2 {
            let slice = &probs.data()[row * 5..(row + 1) * 5];
            assert_eq!(slice.iter().filter(|&&p| p == 1.0).count(), 1);
            assert_eq!(slice.iter().filter(|&&p| p == 0.0).count(), 4);
        }
    }

    #[test]
    fn hard_errors_propagate_unchanged() {
        let inner = oracle();
        let faulty = FaultyOracle::new(&inner, Transient { rate: 0.0 }, 0);
        assert!(matches!(
            faulty.query(&Tensor::zeros(&[3, 8, 8])),
            Err(VpError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn fault_draws_are_schedule_invariant() {
        // The same 16 queries, submitted in two different orders, must
        // receive the same per-content fates.
        let inner = oracle();
        let fates = |order: &[u64]| -> Vec<(u64, bool)> {
            let faulty = FaultyOracle::new(&inner, Transient { rate: 0.5 }, 21);
            let mut out: Vec<(u64, bool)> = order
                .iter()
                .map(|&i| (i, faulty.try_query_batch(&batch(i)).unwrap().is_err()))
                .collect();
            out.sort_unstable();
            out
        };
        let forward: Vec<u64> = (0..16).collect();
        let backward: Vec<u64> = (0..16).rev().collect();
        assert_eq!(fates(&forward), fates(&backward));
    }
}
