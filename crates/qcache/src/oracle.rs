//! The content-addressed caching decorator.

use crate::digest::image_digest;
use crate::{CacheConfig, CacheMode};
use bprom_ckpt::{Decoder, Encoder};
use bprom_tensor::Tensor;
use bprom_vp::{BlackBoxModel, OracleStats, QueryOutcome, Result, VpError};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Lock shards: digests route by their low bits, so concurrent queries
/// for different content rarely contend on the same mutex.
const SHARD_COUNT: usize = 16;

/// Serialization format version for [`BlackBoxModel::export_cache`].
const EXPORT_VERSION: u8 = 1;

/// Approximate heap cost of one entry, for the bytes gauge.
fn entry_bytes(probs: &[f32]) -> u64 {
    8 + 4 * probs.len() as u64
}

struct Entry {
    probs: Vec<f32>,
    /// Recency tick (maintained only in LRU mode).
    tick: u64,
}

#[derive(Default)]
struct Shard {
    entries: HashMap<u64, Entry>,
    /// Tick → digest, oldest first (LRU mode only).
    recency: BTreeMap<u64, u64>,
    next_tick: u64,
}

impl Shard {
    /// Looks a digest up, refreshing its recency in LRU mode. Returns a
    /// copy of the cached confidence row.
    fn get(&mut self, digest: u64, lru: bool) -> Option<Vec<f32>> {
        let tick = self.next_tick;
        let entry = self.entries.get_mut(&digest)?;
        if lru {
            self.recency.remove(&entry.tick);
            entry.tick = tick;
            self.recency.insert(tick, digest);
            self.next_tick += 1;
        }
        Some(entry.probs.clone())
    }

    /// Inserts a row, evicting least-recently-used entries past `cap`.
    /// Returns `(bytes_added, bytes_evicted, evictions)`.
    fn insert(&mut self, digest: u64, probs: &[f32], lru: bool, cap: usize) -> (u64, u64, u64) {
        if self.entries.contains_key(&digest) {
            // Already present (e.g. an imported snapshot raced no one —
            // same content, same value). Refresh recency, change nothing.
            self.get(digest, lru);
            return (0, 0, 0);
        }
        let tick = self.next_tick;
        self.next_tick += 1;
        self.entries.insert(
            digest,
            Entry {
                probs: probs.to_vec(),
                tick,
            },
        );
        let added = entry_bytes(probs);
        if lru {
            self.recency.insert(tick, digest);
            let mut freed = 0u64;
            let mut evicted = 0u64;
            while self.entries.len() > cap {
                let (_, old) = self
                    .recency
                    .pop_first()
                    .expect("recency index out of sync with entries");
                let entry = self
                    .entries
                    .remove(&old)
                    .expect("recency index out of sync with entries");
                freed += entry_bytes(&entry.probs);
                evicted += 1;
            }
            (added, freed, evicted)
        } else {
            (added, 0, 0)
        }
    }
}

/// Where each batch row's response comes from.
enum RowSource {
    /// Served from the cache (the copied confidence row).
    Hit(Vec<f32>),
    /// Served by forwarding: index into the deduplicated miss batch.
    Miss(usize),
}

/// A [`BlackBoxModel`] decorator that memoizes query responses by image
/// content.
///
/// Each incoming batch is split row-wise into cache hits and misses;
/// only the *deduplicated* misses are forwarded to the inner oracle (as
/// one sub-batch, preserving first-occurrence order), and the full
/// confidence matrix is reassembled in the original row order. Because
/// the wrapped model's eval-mode forward pass is row-independent, the
/// reassembled response is bit-identical to forwarding the whole batch.
///
/// **Accounting.** [`BlackBoxModel::queries_used`] reports the *logical*
/// budget — rows served, whether from cache or by forwarding — so
/// metering above the cache (e.g. `CountingOracle`) sees exactly the
/// numbers an uncached run would. The inner oracle's own `queries_used`
/// is the real provider spend; the difference is the saving. Per
/// delivered batch, `hits + misses == rows`, so over a run
/// `cache_hits + cache_misses` equals the uncached run's query total.
///
/// **Stacking order.** The cache belongs *below* fault-injection and
/// retry decorators (`retry → faults → cache → model`): the fault layer
/// then sees identical traffic whether or not the cache is enabled (its
/// draws are content-keyed on the full batch), and cached values are
/// always pristine responses, never one attempt's degraded copy. A
/// fault-failed forward is never cached and never counted. Stacking the
/// cache *above* a degrading fault layer is legal but memoizes degraded
/// responses — avoid it.
///
/// **Determinism.** Hit/miss decisions are pure functions of content
/// history. Under `bprom-par`, concurrent work units query disjoint
/// content (the same precondition `FaultyOracle` documents), so counters
/// and LRU state are schedule-invariant as long as the capacity is large
/// enough that parallel phases do not evict (the CI leg uses
/// `lru:4096`, far above the pipeline's working set).
///
/// One `CachingOracle` must wrap exactly one model: the key is the query
/// content only, so sharing a cache across models would serve one
/// model's confidences for another.
pub struct CachingOracle<B: BlackBoxModel> {
    inner: B,
    mode: CacheMode,
    /// Per-shard entry budget (`usize::MAX` when unbounded).
    shard_cap: usize,
    shards: Vec<Mutex<Shard>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    bytes: AtomicU64,
}

impl<B: BlackBoxModel> std::fmt::Debug for CachingOracle<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachingOracle")
            .field("mode", &self.mode)
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("misses", &self.misses.load(Ordering::Relaxed))
            .field("evictions", &self.evictions.load(Ordering::Relaxed))
            .field("bytes", &self.bytes.load(Ordering::Relaxed))
            .finish()
    }
}

impl<B: BlackBoxModel> CachingOracle<B> {
    /// Wraps `inner` with the given cache policy.
    pub fn new(inner: B, config: CacheConfig) -> Self {
        let shard_cap = match config.mode {
            CacheMode::Off => 0,
            CacheMode::Unbounded => usize::MAX,
            // Ceiling split so the total capacity is never below the
            // requested one.
            CacheMode::Lru(n) => n.div_ceil(SHARD_COUNT),
        };
        CachingOracle {
            inner,
            mode: config.mode,
            shard_cap,
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// Unwraps the decorator, returning the inner oracle.
    pub fn into_inner(self) -> B {
        self.inner
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// The active replacement policy.
    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    /// Rows served without forwarding (cross-batch hits plus intra-batch
    /// duplicates).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Deduplicated rows forwarded to the inner oracle.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted by the LRU bound.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Fraction of logical rows served from the cache so far
    /// (`hits / (hits + misses)`; 0 before any traffic).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits();
        let total = hits + self.misses();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Approximate bytes currently held by cached entries.
    pub fn bytes_cached(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Entries currently cached.
    pub fn entry_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").entries.len())
            .sum()
    }

    fn lru(&self) -> bool {
        matches!(self.mode, CacheMode::Lru(_))
    }

    fn shard(&self, digest: u64) -> &Mutex<Shard> {
        &self.shards[(digest & (SHARD_COUNT as u64 - 1)) as usize]
    }

    /// Splits a `[n, c, h, w]` batch into cached rows and a deduplicated
    /// miss list (first-occurrence order). LRU recency is refreshed for
    /// every hit.
    fn plan(&self, batch: &Tensor) -> (Vec<RowSource>, Vec<u64>, Vec<usize>) {
        let n = batch.shape()[0];
        let dims = &batch.shape()[1..];
        let inner_len: usize = dims.iter().product();
        let lru = self.lru();
        let mut sources = Vec::with_capacity(n);
        let mut miss_digests: Vec<u64> = Vec::new();
        let mut miss_rows: Vec<usize> = Vec::new();
        let mut miss_slot: HashMap<u64, usize> = HashMap::new();
        for row in 0..n {
            let pixels = &batch.data()[row * inner_len..(row + 1) * inner_len];
            let digest = image_digest(dims, pixels);
            if let Some(&slot) = miss_slot.get(&digest) {
                // Duplicate of an earlier miss in this very batch: serve
                // it from the single forwarded copy.
                sources.push(RowSource::Miss(slot));
                continue;
            }
            let cached = self
                .shard(digest)
                .lock()
                .expect("cache shard poisoned")
                .get(digest, lru);
            match cached {
                Some(probs) => sources.push(RowSource::Hit(probs)),
                None => {
                    let slot = miss_digests.len();
                    miss_slot.insert(digest, slot);
                    miss_digests.push(digest);
                    miss_rows.push(row);
                    sources.push(RowSource::Miss(slot));
                }
            }
        }
        (sources, miss_digests, miss_rows)
    }

    fn gather_rows(batch: &Tensor, rows: &[usize]) -> Result<Tensor> {
        let inner_len: usize = batch.shape()[1..].iter().product();
        let mut data = Vec::with_capacity(rows.len() * inner_len);
        for &row in rows {
            data.extend_from_slice(&batch.data()[row * inner_len..(row + 1) * inner_len]);
        }
        let mut dims = vec![rows.len()];
        dims.extend_from_slice(&batch.shape()[1..]);
        Ok(Tensor::from_vec(data, &dims)?)
    }

    /// Stores forwarded responses, reassembles the full confidence
    /// matrix in original row order, and commits the hit/miss tallies.
    /// Only called for *delivered* outcomes — a faulted or failed
    /// forward never reaches here, so it is never cached or counted.
    fn commit(
        &self,
        sources: &[RowSource],
        miss_digests: &[u64],
        miss_probs: Option<&Tensor>,
    ) -> Result<Tensor> {
        let lru = self.lru();
        let k = match miss_probs {
            Some(p) => p.shape()[1],
            None => match sources.first() {
                Some(RowSource::Hit(v)) => v.len(),
                _ => self.inner.num_classes(),
            },
        };
        if let Some(probs) = miss_probs {
            let mut added = 0u64;
            let mut freed = 0u64;
            let mut evicted = 0u64;
            for (slot, &digest) in miss_digests.iter().enumerate() {
                let row = &probs.data()[slot * k..(slot + 1) * k];
                let (a, f, e) = self
                    .shard(digest)
                    .lock()
                    .expect("cache shard poisoned")
                    .insert(digest, row, lru, self.shard_cap);
                added += a;
                freed += f;
                evicted += e;
            }
            // `freed` only ever covers entries whose bytes were added
            // earlier, so the gauge cannot underflow.
            self.bytes.fetch_add(added, Ordering::Relaxed);
            self.bytes.fetch_sub(freed, Ordering::Relaxed);
            if evicted > 0 {
                self.evictions.fetch_add(evicted, Ordering::Relaxed);
                if bprom_obs::enabled() {
                    bprom_obs::counter_add("qcache.evictions", evicted);
                    bprom_obs::log_event("qcache.evicted", [("entries", evicted.into())]);
                }
            }
            if added > 0 && bprom_obs::enabled() {
                bprom_obs::counter_add("qcache.bytes_inserted", added);
            }
        }
        let mut data = Vec::with_capacity(sources.len() * k);
        for source in sources {
            match source {
                RowSource::Hit(v) => data.extend_from_slice(v),
                RowSource::Miss(slot) => {
                    let probs = miss_probs.expect("miss row without a forwarded batch");
                    data.extend_from_slice(&probs.data()[slot * k..(slot + 1) * k]);
                }
            }
        }
        let n = sources.len();
        let m = miss_digests.len();
        self.hits.fetch_add((n - m) as u64, Ordering::Relaxed);
        self.misses.fetch_add(m as u64, Ordering::Relaxed);
        if bprom_obs::enabled() {
            bprom_obs::counter_add("qcache.hits", (n - m) as u64);
            bprom_obs::counter_add("qcache.misses", m as u64);
        }
        Ok(Tensor::from_vec(data, &[n, k])?)
    }
}

impl<B: BlackBoxModel> BlackBoxModel for CachingOracle<B> {
    fn query(&self, batch: &Tensor) -> Result<Tensor> {
        // Off mode, malformed shapes and empty batches all defer to the
        // inner oracle so behavior (including errors) matches a cache-off
        // run exactly.
        if matches!(self.mode, CacheMode::Off) || batch.rank() != 4 || batch.shape()[0] == 0 {
            return self.inner.query(batch);
        }
        let (sources, miss_digests, miss_rows) = self.plan(batch);
        if miss_rows.is_empty() {
            return self.commit(&sources, &miss_digests, None);
        }
        let miss_batch = Self::gather_rows(batch, &miss_rows)?;
        let probs = self.inner.query(&miss_batch)?;
        self.commit(&sources, &miss_digests, Some(&probs))
    }

    fn try_query_batch(&self, batch: &Tensor) -> Result<QueryOutcome> {
        if matches!(self.mode, CacheMode::Off) || batch.rank() != 4 || batch.shape()[0] == 0 {
            return self.inner.try_query_batch(batch);
        }
        let (sources, miss_digests, miss_rows) = self.plan(batch);
        if miss_rows.is_empty() {
            return Ok(Ok(self.commit(&sources, &miss_digests, None)?));
        }
        let miss_batch = Self::gather_rows(batch, &miss_rows)?;
        match self.inner.try_query_batch(&miss_batch)? {
            // A fault-failed forward is never cached and never counted:
            // the retry layer will resubmit the whole logical query.
            Err(fault) => Ok(Err(fault)),
            Ok(probs) => Ok(Ok(self.commit(&sources, &miss_digests, Some(&probs))?)),
        }
    }

    fn wrapped(&self) -> Option<&dyn BlackBoxModel> {
        Some(&self.inner)
    }

    /// The *logical* query budget: rows served from cache plus rows the
    /// inner oracle billed. Identical to an uncached run's count.
    fn queries_used(&self) -> u64 {
        self.inner.queries_used() + self.hits.load(Ordering::Relaxed)
    }

    fn oracle_stats(&self) -> OracleStats {
        self.inner.oracle_stats().merged(&OracleStats {
            cache_hits: self.hits.load(Ordering::Relaxed),
            cache_misses: self.misses.load(Ordering::Relaxed),
            cache_evictions: self.evictions.load(Ordering::Relaxed),
            ..OracleStats::default()
        })
    }

    fn export_cache(&self, enc: &mut Encoder) -> bool {
        if matches!(self.mode, CacheMode::Off) {
            return self.inner.export_cache(enc);
        }
        // Canonical entry order: recency (oldest first, per shard) in LRU
        // mode so a restore reproduces the eviction queue; digest-sorted
        // otherwise, so the serialized bytes are schedule-invariant.
        let mut entries: Vec<(u64, Vec<f32>)> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("cache shard poisoned");
            if self.lru() {
                for digest in shard.recency.values() {
                    entries.push((*digest, shard.entries[digest].probs.clone()));
                }
            } else {
                let mut digests: Vec<u64> = shard.entries.keys().copied().collect();
                digests.sort_unstable();
                for digest in digests {
                    entries.push((digest, shard.entries[&digest].probs.clone()));
                }
            }
        }
        enc.put_u8(EXPORT_VERSION);
        enc.put_usize(entries.len());
        for (digest, probs) in &entries {
            enc.put_u64(*digest);
            enc.put_f32s(probs);
        }
        true
    }

    fn import_cache(&self, dec: &mut Decoder<'_>) -> Result<()> {
        if matches!(self.mode, CacheMode::Off) {
            return self.inner.import_cache(dec);
        }
        let ckpt = |e: bprom_ckpt::CkptError| VpError::Ckpt(format!("cache import: {e}"));
        let version = dec.get_u8().map_err(ckpt)?;
        if version != EXPORT_VERSION {
            return Err(VpError::Ckpt(format!(
                "cache import: unsupported format version {version}"
            )));
        }
        let count = dec.get_usize().map_err(ckpt)?;
        let lru = self.lru();
        let mut added = 0u64;
        let mut freed = 0u64;
        let mut evicted = 0u64;
        for _ in 0..count {
            let digest = dec.get_u64().map_err(ckpt)?;
            let probs = dec.get_f32s().map_err(ckpt)?;
            let (a, f, e) = self
                .shard(digest)
                .lock()
                .expect("cache shard poisoned")
                .insert(digest, &probs, lru, self.shard_cap);
            added += a;
            freed += f;
            evicted += e;
        }
        self.bytes.fetch_add(added, Ordering::Relaxed);
        self.bytes.fetch_sub(freed, Ordering::Relaxed);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        Ok(())
    }
}
