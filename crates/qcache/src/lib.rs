//! # bprom-qcache — content-addressed memoization for oracle queries
//!
//! BPROM's cost model is the number of black-box confidence queries an
//! inspection spends, and the CMA-ES prompt search re-submits
//! near-identical prompted batches generation after generation. This
//! crate memoizes the oracle boundary: [`CachingOracle`] digests every
//! query image by content ([`image_digest`]), splits each batch into
//! cache hits and *deduplicated* misses, forwards only the misses to the
//! inner oracle, and reassembles the confidence matrix in the original
//! row order. The model's eval-mode forward pass is row-independent, so
//! a cached run's responses — and therefore its `DetectionReport` — are
//! bit-identical to an uncached run's.
//!
//! ## Stacking order
//!
//! The legal stack puts the cache **below** fault injection and retry
//! (`CountingOracle → RetryingOracle → FaultyOracle → CachingOracle →
//! QueryOracle`):
//!
//! - the fault layer admits/degrades the *full logical batch* exactly as
//!   it would uncached, so hostile-profile runs stay bit-identical too;
//! - cached entries are always pristine provider responses, never one
//!   attempt's degraded copy;
//! - a fault-failed forward is returned in band untouched — never
//!   cached, never counted.
//!
//! Stacking the cache *above* a degrading fault layer memoizes degraded
//! responses and is discouraged (though still deterministic).
//!
//! ## Accounting
//!
//! [`CachingOracle`] reports *logical* spend through
//! `BlackBoxModel::queries_used` (rows served, hit or miss), so budget
//! meters above it see uncached numbers; the wrapped oracle's own
//! counter is the real provider spend, and per run
//! `cache_hits + cache_misses` equals the uncached query total. Tallies
//! flow through `OracleStats` (`cache_hits` / `cache_misses` /
//! `cache_evictions`), `bprom-obs` counters (`qcache.*`), and — via
//! `bprom-core` — `InspectBudget` / `DetectionReport` fields.
//!
//! ## Policy
//!
//! [`CacheConfig`] selects [`CacheMode`]: `Off`, `Unbounded` (default),
//! or `Lru(n)` bounded memory. The `BPROM_QCACHE` env var
//! (`off|mem|lru:<n>`, see [`QCACHE_ENV`]) overrides the default at
//! pipeline level. Cache contents persist through checkpoints via
//! `BlackBoxModel::export_cache` / `import_cache`, so a resumed run does
//! not re-spend queries the killed run already paid for.

mod config;
mod digest;
mod oracle;

pub use config::{CacheConfig, CacheMode, QCACHE_ENV};
pub use digest::{bytes_digest, image_digest};
pub use oracle::CachingOracle;

#[cfg(test)]
mod tests {
    use super::*;
    use bprom_ckpt::{Decoder, Encoder};
    use bprom_data::SynthDataset;
    use bprom_faults::{FaultyOracle, RetryPolicy, RetryingOracle, Transient};
    use bprom_nn::models::{mlp, ModelSpec};
    use bprom_tensor::{Rng, Tensor};
    use bprom_vp::{BlackBoxModel, QueryFault, QueryOracle, QueryOutcome, Result, VpError};
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    /// Two oracles over bit-identical models: a reference and a test
    /// subject (CMA-ES determinism elsewhere relies on the same
    /// same-seed-same-model property).
    fn twin_oracles(seed: u64, k: usize) -> (QueryOracle, QueryOracle) {
        let spec = ModelSpec::new(3, 8, k);
        let a = mlp(&spec, &mut Rng::new(seed)).unwrap();
        let b = mlp(&spec, &mut Rng::new(seed)).unwrap();
        (QueryOracle::new(a, k), QueryOracle::new(b, k))
    }

    fn batch(rng: &mut Rng, n: usize) -> Tensor {
        Tensor::rand_uniform(&[n, 3, 8, 8], 0.0, 1.0, rng)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|p| p.to_bits()).collect()
    }

    #[test]
    fn repeated_batches_hit_and_stay_bit_identical() {
        let (reference, inner) = twin_oracles(7, 5);
        let cached = CachingOracle::new(inner, CacheConfig::unbounded());
        let mut rng = Rng::new(42);
        let b = batch(&mut rng, 6);
        let want = reference.query(&b).unwrap();

        let first = cached.query(&b).unwrap();
        let second = cached.query(&b).unwrap();
        assert_eq!(bits(&first), bits(&want));
        assert_eq!(bits(&second), bits(&want));
        assert_eq!(cached.misses(), 6);
        assert_eq!(cached.hits(), 6);
        // Logical spend matches the uncached run; provider spend doesn't.
        assert_eq!(cached.queries_used(), 12);
        assert_eq!(cached.inner().queries_used(), 6);
        let stats = cached.oracle_stats();
        assert_eq!(stats.cache_hits, 6);
        assert_eq!(stats.cache_misses, 6);
        assert_eq!(stats.cache_evictions, 0);
    }

    #[test]
    fn dedup_never_reorders_rows() {
        let (reference, inner) = twin_oracles(11, 4);
        let cached = CachingOracle::new(inner, CacheConfig::unbounded());
        let mut rng = Rng::new(9);
        // Build a batch whose rows repeat in a scrambled pattern:
        // [a, b, a, c, b, a, c, d].
        let distinct = batch(&mut rng, 4);
        let row_len = 3 * 8 * 8;
        let pattern = [0usize, 1, 0, 2, 1, 0, 2, 3];
        let mut data = Vec::new();
        for &r in &pattern {
            data.extend_from_slice(&distinct.data()[r * row_len..(r + 1) * row_len]);
        }
        let shuffled = Tensor::from_vec(data, &[pattern.len(), 3, 8, 8]).unwrap();

        let want = reference.query(&shuffled).unwrap();
        let got = cached.query(&shuffled).unwrap();
        assert_eq!(got.shape(), want.shape());
        assert_eq!(bits(&got), bits(&want), "dedup must not reorder rows");
        // 4 unique rows forwarded once each; 4 intra-batch duplicates hit.
        assert_eq!(cached.misses(), 4);
        assert_eq!(cached.hits(), 4);
        assert_eq!(cached.inner().queries_used(), 4);
        assert_eq!(cached.queries_used(), 8);
    }

    #[test]
    fn off_mode_is_a_pure_passthrough() {
        let (reference, inner) = twin_oracles(3, 5);
        let cached = CachingOracle::new(inner, CacheConfig::off());
        let mut rng = Rng::new(5);
        let b = batch(&mut rng, 4);
        let want = reference.query(&b).unwrap();
        for _ in 0..3 {
            assert_eq!(bits(&cached.query(&b).unwrap()), bits(&want));
        }
        assert_eq!(cached.hits(), 0);
        assert_eq!(cached.misses(), 0);
        assert_eq!(cached.entry_count(), 0);
        assert_eq!(cached.bytes_cached(), 0);
        assert_eq!(cached.queries_used(), cached.inner().queries_used());
        assert_eq!(cached.queries_used(), 12);
    }

    #[test]
    fn malformed_batches_defer_to_the_inner_oracle() {
        let (_, inner) = twin_oracles(4, 5);
        let cached = CachingOracle::new(inner, CacheConfig::unbounded());
        // Rank-3 input: the same hard error an uncached oracle raises.
        assert!(cached.query(&Tensor::zeros(&[3, 8, 8])).is_err());
        assert_eq!(cached.hits() + cached.misses(), 0);
        assert_eq!(cached.entry_count(), 0);
    }

    #[test]
    fn lru_bounds_memory_and_counts_evictions() {
        let (_, inner) = twin_oracles(13, 5);
        // Capacity 16 over 16 shards: one entry per shard.
        let cached = CachingOracle::new(inner, CacheConfig::lru(16));
        let mut rng = Rng::new(99);
        for _ in 0..64 {
            cached.query(&batch(&mut rng, 1)).unwrap();
        }
        assert_eq!(cached.misses(), 64);
        let live = cached.entry_count() as u64;
        assert!(live <= 16, "entry count {live} exceeds LRU capacity");
        assert_eq!(cached.evictions(), 64 - live);
        // The bytes gauge tracks the live entries exactly (k = 5).
        assert_eq!(cached.bytes_cached(), live * (8 + 4 * 5));
        assert_eq!(cached.oracle_stats().cache_evictions, 64 - live);
    }

    #[test]
    fn lru_touch_keeps_hot_entries_alive() {
        let (_, inner) = twin_oracles(21, 5);
        let cached = CachingOracle::new(inner, CacheConfig::lru(16));
        let mut rng = Rng::new(7);
        let hot = batch(&mut rng, 1);
        cached.query(&hot).unwrap();
        // Keep touching the hot image while flooding with distinct ones.
        for _ in 0..48 {
            cached.query(&batch(&mut rng, 1)).unwrap();
            cached.query(&hot).unwrap();
        }
        let before = cached.inner().queries_used();
        cached.query(&hot).unwrap();
        assert_eq!(
            cached.inner().queries_used(),
            before,
            "recently-touched entry must not have been evicted"
        );
    }

    /// A fault-injecting inner oracle: the first `try_query_batch` is
    /// dropped in band, everything afterwards succeeds.
    struct FlakyOnce {
        inner: QueryOracle,
        tripped: AtomicBool,
        attempts: AtomicU64,
    }

    impl BlackBoxModel for FlakyOnce {
        fn query(&self, batch: &Tensor) -> Result<Tensor> {
            self.try_query_batch(batch)?
                .map_err(|fault| VpError::OracleFault { fault, attempts: 1 })
        }

        fn try_query_batch(&self, batch: &Tensor) -> Result<QueryOutcome> {
            self.attempts.fetch_add(1, Ordering::Relaxed);
            if !self.tripped.swap(true, Ordering::Relaxed) {
                return Ok(Err(QueryFault::Dropped));
            }
            self.inner.try_query_batch(batch)
        }

        fn wrapped(&self) -> Option<&dyn BlackBoxModel> {
            Some(&self.inner)
        }
    }

    #[test]
    fn fault_failed_forwards_are_never_cached_or_counted() {
        let (_, inner) = twin_oracles(17, 5);
        let flaky = FlakyOnce {
            inner,
            tripped: AtomicBool::new(false),
            attempts: AtomicU64::new(0),
        };
        let cached = CachingOracle::new(flaky, CacheConfig::unbounded());
        let mut rng = Rng::new(1);
        let b = batch(&mut rng, 3);

        // First attempt faults: nothing cached, nothing counted.
        assert!(matches!(
            cached.try_query_batch(&b).unwrap(),
            Err(QueryFault::Dropped)
        ));
        assert_eq!(cached.hits() + cached.misses(), 0);
        assert_eq!(cached.entry_count(), 0);

        // The resubmitted attempt succeeds and populates the cache…
        let delivered = cached.try_query_batch(&b).unwrap().unwrap();
        assert_eq!(cached.misses(), 3);
        // …and a third submission is served entirely from cache.
        let replay = cached.try_query_batch(&b).unwrap().unwrap();
        assert_eq!(bits(&replay), bits(&delivered));
        assert_eq!(cached.hits(), 3);
        assert_eq!(cached.inner().attempts.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn composes_with_fault_and_retry_stack() {
        // Legal order: retry → faults → cache → model. The fault layer
        // must see identical traffic with and without the cache.
        let (reference, inner) = twin_oracles(29, 5);
        let plan = Transient { rate: 0.4 };
        let policy = RetryPolicy::default();
        let mut rng = Rng::new(1234);
        let batches: Vec<Tensor> = (0..4).map(|_| batch(&mut rng, 5)).collect();

        let bare_faulty = FaultyOracle::new(&reference, plan, 0xFA17);
        let bare_retry = RetryingOracle::new(&bare_faulty, policy);
        let mut want = Vec::new();
        for b in batches.iter().chain(batches.iter()) {
            want.push(bits(&bare_retry.query(b).unwrap()));
        }

        let cached = CachingOracle::new(inner, CacheConfig::unbounded());
        let cached_faulty = FaultyOracle::new(&cached, plan, 0xFA17);
        let cached_retry = RetryingOracle::new(&cached_faulty, policy);
        let mut got = Vec::new();
        for b in batches.iter().chain(batches.iter()) {
            got.push(bits(&cached_retry.query(b).unwrap()));
        }

        assert_eq!(got, want, "hostile responses must be bit-identical");
        // Identical content → identical content-keyed fault draws.
        let ws = bare_retry.oracle_stats();
        let cs = cached_retry.oracle_stats();
        assert_eq!(cs.faults_injected, ws.faults_injected);
        assert_eq!(cs.degraded_responses, ws.degraded_responses);
        assert_eq!(cs.retries, ws.retries);
        assert_eq!(cs.retry_exhausted, ws.retry_exhausted);
        // The replayed epoch was served from cache: provider spend halves.
        assert_eq!(cached.inner().queries_used() * 2, reference.queries_used());
        assert_eq!(cs.cache_hits + cs.cache_misses, reference.queries_used());
    }

    #[test]
    fn export_import_round_trip_preserves_entries_and_bytes() {
        let (inner_a, inner_b) = twin_oracles(31, 5);
        let first = CachingOracle::new(inner_a, CacheConfig::unbounded());
        let mut rng = Rng::new(77);
        let batches: Vec<Tensor> = (0..3).map(|_| batch(&mut rng, 4)).collect();
        let mut want = Vec::new();
        for b in &batches {
            want.push(bits(&first.query(b).unwrap()));
        }

        let mut enc = Encoder::new();
        assert!(first.export_cache(&mut enc));
        let payload = enc.into_bytes();
        // Canonical serialization: a second export is byte-identical.
        let mut enc2 = Encoder::new();
        first.export_cache(&mut enc2);
        assert_eq!(payload, enc2.into_bytes());

        let second = CachingOracle::new(inner_b, CacheConfig::unbounded());
        second.import_cache(&mut Decoder::new(&payload)).unwrap();
        assert_eq!(second.entry_count(), first.entry_count());
        assert_eq!(second.bytes_cached(), first.bytes_cached());
        // Every restored query is a hit: zero provider spend.
        for (b, w) in batches.iter().zip(&want) {
            assert_eq!(&bits(&second.query(b).unwrap()), w);
        }
        assert_eq!(second.inner().queries_used(), 0);
        assert_eq!(second.misses(), 0);
        assert_eq!(second.hits(), 12);
    }

    #[test]
    fn export_import_round_trip_preserves_lru_recency() {
        let (inner_a, inner_b) = twin_oracles(37, 5);
        let first = CachingOracle::new(inner_a, CacheConfig::lru(16));
        let mut rng = Rng::new(55);
        let oldest = batch(&mut rng, 1);
        let newer: Vec<Tensor> = (0..8).map(|_| batch(&mut rng, 1)).collect();
        first.query(&oldest).unwrap();
        for b in &newer {
            first.query(b).unwrap();
        }

        let mut enc = Encoder::new();
        assert!(first.export_cache(&mut enc));
        let payload = enc.into_bytes();
        let second = CachingOracle::new(inner_b, CacheConfig::lru(16));
        second.import_cache(&mut Decoder::new(&payload)).unwrap();
        assert_eq!(second.entry_count(), first.entry_count());
        // Restored entries serve hits without provider spend.
        second.query(&oldest).unwrap();
        assert_eq!(second.hits(), 1);
        assert_eq!(second.inner().queries_used(), 0);
    }

    #[test]
    fn import_rejects_garbage() {
        let (_, inner) = twin_oracles(41, 5);
        let cached = CachingOracle::new(inner, CacheConfig::unbounded());
        let mut enc = Encoder::new();
        enc.put_u8(200); // unknown format version
        let payload = enc.into_bytes();
        assert!(cached.import_cache(&mut Decoder::new(&payload)).is_err());
        assert!(cached.import_cache(&mut Decoder::new(&[])).is_err());
    }

    #[test]
    fn concurrent_hits_are_counted_exactly() {
        let (_, inner) = twin_oracles(43, 5);
        let cached = CachingOracle::new(inner, CacheConfig::unbounded());
        let mut rng = Rng::new(3);
        // Pre-warm distinct per-thread content, then hammer it from
        // threads (work units query disjoint content, like bprom-par).
        let per_thread: Vec<Tensor> = (0..4).map(|_| batch(&mut rng, 2)).collect();
        for b in &per_thread {
            cached.query(b).unwrap();
        }
        let warm_misses = cached.misses();
        std::thread::scope(|scope| {
            for b in &per_thread {
                scope.spawn(|| {
                    for _ in 0..16 {
                        cached.query(b).unwrap();
                    }
                });
            }
        });
        assert_eq!(cached.misses(), warm_misses);
        assert_eq!(cached.hits(), 4 * 16 * 2);
        assert_eq!(
            cached.queries_used(),
            cached.inner().queries_used() + cached.hits()
        );
    }

    // ——— digest satellite: collision sanity across the data families ———

    #[test]
    fn ten_thousand_synthetic_images_hash_distinctly() {
        let mut digests: HashSet<u64> = HashSet::new();
        let mut contents: HashSet<Vec<u32>> = HashSet::new();
        let mut total = 0usize;
        for (i, family) in SynthDataset::ALL.iter().enumerate() {
            let per_class = (1500 / family.num_classes()).max(2);
            let data = family
                .generate(per_class, family.default_size(), 0xD1_6E57 + i as u64)
                .unwrap();
            let dims = &data.images.shape()[1..];
            let row_len: usize = dims.iter().product();
            for row in 0..data.len() {
                let pixels = &data.images.data()[row * row_len..(row + 1) * row_len];
                digests.insert(image_digest(dims, pixels));
                contents.insert(pixels.iter().map(|p| p.to_bits()).collect());
                total += 1;
            }
        }
        assert!(total >= 10_000, "sample too small: {total}");
        // Distinct contents must produce distinct digests — and dims are
        // hashed too, so equal payloads from different-sized families
        // cannot alias either.
        assert_eq!(
            digests.len(),
            contents.len(),
            "digest collision within a {total}-image sample"
        );
    }

    #[test]
    fn digests_are_stable_across_threads() {
        let data = SynthDataset::Cifar10.generate(10, 16, 5).unwrap();
        let dims: Vec<usize> = data.images.shape()[1..].to_vec();
        let row_len: usize = dims.iter().product();
        let digest_all = |dims: &[usize]| -> Vec<u64> {
            (0..data.len())
                .map(|row| {
                    image_digest(
                        dims,
                        &data.images.data()[row * row_len..(row + 1) * row_len],
                    )
                })
                .collect()
        };
        let want = digest_all(&dims);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| assert_eq!(digest_all(&dims), want));
            }
        });
    }
}
