//! The adaptive-attacker oracle: a backdoored vendor that notices it is
//! being probed and answers evasively.
//!
//! A real evasive endpoint runs *query-pattern tests* on incoming
//! traffic — duplicate-rate tracking, per-client rate shaping, and
//! similarity checks that catch prompt-perturbation probes — and, once
//! suspicious, serves fabricated-but-plausible confidences instead of
//! the truth. The similarity test keys on *pad-style* visual prompting
//! (every row of a batch carries the same verbatim border pixels);
//! overlay-style prompts add `θ` onto image pixels, leave no bit-shared
//! positions, and are invisible to any per-batch test — a stealth
//! asymmetry the regime benchmarks quantify. [`AdaptiveOracle`]
//! reproduces that behaviour while
//! honoring the repo-wide determinism contract: every decision and every
//! fabricated response is a pure function of the *query content* (plus
//! the per-content attempt counter), never of arrival order, so
//! inspections under an adaptive attacker stay byte-identical at any
//! `BPROM_THREADS` / `BPROM_QCACHE` setting.

use crate::faulty::{attempt_seed, Attempts};
use bprom_tensor::{Rng, Tensor};
use bprom_vp::{BlackBoxModel, OracleStats, QueryOutcome, Result};
use std::sync::atomic::{AtomicU64, Ordering};

/// Domain-separation salt for the evasive-response RNG stream (keeps
/// fabricated confidences decorrelated from any fault plan sharing the
/// same seed).
const EVADE_SALT: u64 = 0xADA9_7A11_AC4E_0001;

/// Thresholds for the attacker's probe-detection tests.
///
/// Defaults model a cautious vendor: a handful of exact resubmissions of
/// the same content, or any decently-sized batch whose rows share a
/// quarter of their pixels (the visual-prompt border signature), reads
/// as probing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Submissions of one exact content at which the duplicate-rate test
    /// trips (the `duplicate_threshold`-th submission and every later
    /// one are answered evasively). This is the content-keyed stand-in
    /// for per-client rate shaping: resubmission *count*, not arrival
    /// rate, so the test is schedule-invariant.
    pub duplicate_threshold: u64,
    /// Fraction of per-row pixel positions that must be bit-identical
    /// across *all* rows of a batch for the prompt-perturbation
    /// similarity test to trip. Pad-style prompted batches share their
    /// entire border (≈ 1 − (interior/canvas)² of the pixels); natural
    /// batches — and overlay-style prompted ones, whose border is
    /// `image + θ` and thus per-row unique — share almost nothing.
    pub similarity_threshold: f32,
    /// Minimum batch rows before the similarity test applies (tiny
    /// batches carry no cross-row evidence).
    pub min_rows: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            duplicate_threshold: 4,
            similarity_threshold: 0.25,
            min_rows: 4,
        }
    }
}

/// Fraction of per-row positions whose f32 bits agree across all rows.
fn shared_fraction(batch: &Tensor) -> f32 {
    let rows = batch.shape()[0];
    if rows < 2 {
        return 0.0;
    }
    let span = batch.data().len() / rows;
    if span == 0 {
        return 0.0;
    }
    let data = batch.data();
    let mut shared = 0usize;
    'positions: for p in 0..span {
        let first = data[p].to_bits();
        for row in 1..rows {
            if data[row * span + p].to_bits() != first {
                continue 'positions;
            }
        }
        shared += 1;
    }
    shared as f32 / span as f32
}

/// A [`BlackBoxModel`] decorator modelling an *adaptive attacker*: the
/// endpoint answers honestly until its query-pattern tests flag the
/// caller as a prober, then serves fabricated confidences.
///
/// **Determinism contract.** The probe-detector state is content-keyed,
/// never call-order-keyed: the duplicate test reads the per-content
/// attempt counter (the same mechanism as [`crate::FaultyOracle`]), the
/// similarity test is a pure function of the batch bytes, and a
/// fabricated response is drawn from `Rng::new(mix(seed ⊕ salt, key))` —
/// attempt-*independent*, so the attacker lies *consistently*: the same
/// probe always receives the same fabricated answer (an inconsistent
/// liar would be trivially detectable, and attempt-dependent responses
/// would let concurrent duplicate submissions race). Stack this wrapper
/// *above* the query cache so it sees every logical query at any
/// `BPROM_QCACHE` mode.
///
/// Fabricated responses never reach the wrapped model, but they *are*
/// answered queries: [`AdaptiveOracle::queries_used`] adds the evaded
/// rows to the inner oracle's count, keeping budgets honest, and each
/// evaded batch is tallied as `evasive_responses` in
/// [`OracleStats`] (which rule `B012` keys on).
pub struct AdaptiveOracle<'a> {
    inner: &'a dyn BlackBoxModel,
    config: AdaptiveConfig,
    seed: u64,
    /// Drives the duplicate-rate test.
    attempts: Attempts,
    evasions: AtomicU64,
    evaded_rows: AtomicU64,
}

impl std::fmt::Debug for AdaptiveOracle<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptiveOracle")
            .field("config", &self.config)
            .field("seed", &self.seed)
            .field("evasions", &self.evasions.load(Ordering::Relaxed))
            .finish()
    }
}

impl<'a> AdaptiveOracle<'a> {
    /// Wraps `inner` as an adaptive attacker with the given thresholds.
    pub fn new(inner: &'a dyn BlackBoxModel, config: AdaptiveConfig, seed: u64) -> Self {
        AdaptiveOracle {
            inner,
            config,
            seed,
            attempts: Attempts::default(),
            evasions: AtomicU64::new(0),
            evaded_rows: AtomicU64::new(0),
        }
    }

    /// Batches answered evasively so far.
    pub fn evasions(&self) -> u64 {
        self.evasions.load(Ordering::Relaxed)
    }

    /// Whether this batch trips the attacker's tests at the given
    /// (0-based) attempt number.
    fn is_probe(&self, batch: &Tensor, attempt: u64) -> bool {
        if attempt + 1 >= self.config.duplicate_threshold {
            return true;
        }
        batch.shape()[0] >= self.config.min_rows
            && shared_fraction(batch) >= self.config.similarity_threshold
    }

    /// The consistent lie for this content: plausible confidences drawn
    /// from a content-keyed stream (positive, row-normalized).
    fn fabricate(&self, key: u64, rows: usize) -> Tensor {
        let k = self.inner.num_classes();
        let mut rng = Rng::new(attempt_seed(self.seed ^ EVADE_SALT, key, 0));
        let mut data = Vec::with_capacity(rows * k);
        for _ in 0..rows {
            let mut row: Vec<f32> = (0..k).map(|_| rng.uniform().max(1e-3)).collect();
            let sum: f32 = row.iter().sum();
            for p in &mut row {
                *p /= sum;
            }
            data.extend_from_slice(&row);
        }
        Tensor::from_vec(data, &[rows, k]).expect("fabricated shape is consistent")
    }
}

impl BlackBoxModel for AdaptiveOracle<'_> {
    fn query(&self, batch: &Tensor) -> Result<Tensor> {
        match self.try_query_batch(batch)? {
            Ok(probs) => Ok(probs),
            Err(fault) => Err(bprom_vp::VpError::OracleFault { fault, attempts: 1 }),
        }
    }

    fn try_query_batch(&self, batch: &Tensor) -> Result<QueryOutcome> {
        let (key, attempt) = self.attempts.next(batch);
        if self.is_probe(batch, attempt) {
            let rows = batch.shape()[0];
            self.evasions.fetch_add(1, Ordering::Relaxed);
            self.evaded_rows.fetch_add(rows as u64, Ordering::Relaxed);
            bprom_obs::counter_add("oracle.evasions", 1);
            return Ok(Ok(self.fabricate(key, rows)));
        }
        self.inner.try_query_batch(batch)
    }

    fn wrapped(&self) -> Option<&dyn BlackBoxModel> {
        Some(self.inner)
    }

    fn queries_used(&self) -> u64 {
        // Evaded queries never reach the inner model but were answered
        // (and billed) by the endpoint.
        self.inner.queries_used() + self.evaded_rows.load(Ordering::Relaxed)
    }

    fn oracle_stats(&self) -> OracleStats {
        self.inner.oracle_stats().merged(&OracleStats {
            evasive_responses: self.evasions.load(Ordering::Relaxed),
            ..OracleStats::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bprom_nn::models::{mlp, ModelSpec};
    use bprom_vp::QueryOracle;

    fn oracle() -> QueryOracle {
        let mut rng = Rng::new(0);
        let model = mlp(&ModelSpec::new(3, 8, 5), &mut rng).unwrap();
        QueryOracle::new(model, 5)
    }

    fn natural_batch(seed: u64, rows: usize) -> Tensor {
        let mut rng = Rng::new(seed);
        Tensor::rand_uniform(&[rows, 3, 8, 8], 0.0, 1.0, &mut rng)
    }

    /// A batch with the visual-prompting signature: every row shares the
    /// same 2-pixel border, interiors differ.
    fn prompted_batch(seed: u64, rows: usize) -> Tensor {
        let mut rng = Rng::new(seed);
        let border = Tensor::rand_uniform(&[3, 8, 8], 0.0, 1.0, &mut Rng::new(0xB0D8));
        let mut batch = Tensor::rand_uniform(&[rows, 3, 8, 8], 0.0, 1.0, &mut rng);
        let span = 3 * 8 * 8;
        for row in 0..rows {
            for c in 0..3 {
                for h in 0..8 {
                    for w in 0..8 {
                        if !(2..6).contains(&h) || !(2..6).contains(&w) {
                            let p = c * 64 + h * 8 + w;
                            batch.data_mut()[row * span + p] = border.data()[p];
                        }
                    }
                }
            }
        }
        batch
    }

    #[test]
    fn shared_fraction_separates_prompted_from_natural() {
        // 8x8 canvas with a 2-pixel border: 48 of 64 positions shared.
        let prompted = prompted_batch(1, 6);
        assert!(shared_fraction(&prompted) >= 0.75 - 1e-6);
        assert!(shared_fraction(&natural_batch(1, 6)) < 0.05);
        assert_eq!(shared_fraction(&natural_batch(1, 1)), 0.0);
    }

    #[test]
    fn honest_until_tests_trip() {
        let inner = oracle();
        let adaptive = AdaptiveOracle::new(&inner, AdaptiveConfig::default(), 7);
        // Distinct natural batches below min_rows: answered honestly.
        for i in 0..3 {
            let batch = natural_batch(i, 2);
            let via = adaptive.query(&batch).unwrap();
            assert_eq!(via, inner.query(&batch).unwrap());
        }
        assert_eq!(adaptive.evasions(), 0);
        assert_eq!(adaptive.oracle_stats().evasive_responses, 0);
    }

    #[test]
    fn prompt_probes_are_answered_evasively_and_consistently() {
        let inner = oracle();
        let adaptive = AdaptiveOracle::new(&inner, AdaptiveConfig::default(), 7);
        let probe = prompted_batch(2, 6);
        let honest = inner.query(&probe).unwrap();
        let served_before = inner.queries_used();
        let first = adaptive.query(&probe).unwrap();
        assert_ne!(first, honest, "probe must be answered evasively");
        assert_eq!(first.shape(), &[6, 5]);
        for row in 0..6 {
            let sum: f32 = first.data()[row * 5..(row + 1) * 5].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "fabricated rows stay normalized");
        }
        // The lie is consistent across resubmissions (attempt-invariant).
        let second = adaptive.query(&probe).unwrap();
        assert_eq!(first, second);
        // The inner model never saw the probe; the endpoint still billed it.
        assert_eq!(inner.queries_used(), served_before);
        assert_eq!(adaptive.queries_used(), inner.queries_used() + 12);
        assert_eq!(adaptive.evasions(), 2);
        assert_eq!(adaptive.oracle_stats().evasive_responses, 2);
    }

    #[test]
    fn duplicate_rate_trips_per_content() {
        let inner = oracle();
        let adaptive = AdaptiveOracle::new(
            &inner,
            AdaptiveConfig {
                duplicate_threshold: 3,
                ..AdaptiveConfig::default()
            },
            9,
        );
        let batch = natural_batch(5, 2);
        let honest = inner.query(&batch).unwrap();
        // Attempts 0 and 1 are honest; attempt 2 (the 3rd submission)
        // trips the duplicate test, as does every later one.
        assert_eq!(adaptive.query(&batch).unwrap(), honest);
        assert_eq!(adaptive.query(&batch).unwrap(), honest);
        let evasive = adaptive.query(&batch).unwrap();
        assert_ne!(evasive, honest);
        assert_eq!(adaptive.query(&batch).unwrap(), evasive);
        // A different content starts its own counter.
        let other = natural_batch(6, 2);
        assert_eq!(
            adaptive.query(&other).unwrap(),
            inner.query(&other).unwrap()
        );
        assert_eq!(adaptive.evasions(), 2);
    }

    #[test]
    fn decisions_are_schedule_invariant() {
        // The same query multiset in two different orders must produce
        // the same per-content (attempt -> response) mapping.
        let inner = oracle();
        let responses = |order: &[u64]| -> Vec<(u64, Vec<u32>)> {
            let adaptive = AdaptiveOracle::new(&inner, AdaptiveConfig::default(), 21);
            let mut out: Vec<(u64, Vec<u32>)> = order
                .iter()
                .map(|&i| {
                    let probs = adaptive.query(&prompted_batch(i, 6)).unwrap();
                    (i, probs.data().iter().map(|p| p.to_bits()).collect())
                })
                .collect();
            out.sort_unstable();
            out
        };
        let forward: Vec<u64> = (0..8).collect();
        let backward: Vec<u64> = (0..8).rev().collect();
        assert_eq!(responses(&forward), responses(&backward));
    }
}
