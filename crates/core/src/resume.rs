//! Crash-safe resume for the BPROM pipeline.
//!
//! The resume model is **deterministic replay + artifact skip**. A
//! checkpointed run records, per completed unit of work (one shadow
//! model, one prompt, one zoo model, the meta forest, one verdict):
//!
//! 1. an **artifact snapshot** holding the unit's outputs plus — for
//!    units that consume the caller's RNG stream directly — the RNG
//!    state at completion, written atomically to the [`SnapshotStore`];
//! 2. a **journal entry** (`stages.journal`) appended *after* the
//!    artifact is durable, marking the unit done.
//!
//! On resume, the caller re-runs the *same seeded program*. Cheap
//! deterministic work (dataset generation, splits, RNG forks, probe
//! sampling) is recomputed identically; when execution reaches a unit
//! whose journal entry exists, the unit's artifact is loaded instead of
//! re-doing the work, and any recorded RNG state is restored so the
//! stream continues exactly where the uninterrupted run would be. A
//! crash *between* artifact write and journal append merely re-runs the
//! unit, which overwrites the artifact with identical bytes.
//!
//! The journal and store live in one directory; a `manifest` snapshot
//! fingerprints the run (config + seed) so a stale directory from a
//! different run is rejected instead of silently splicing mismatched
//! state.
//!
//! Every pipeline stage takes its RNG stream and optional checkpointer
//! as one [`Run`] value. A plain `&mut Rng` converts into an
//! uncheckpointed run, so callers that never checkpoint pass their RNG
//! exactly as before.

use crate::{BpromError, Result};
use bprom_ckpt::{crash_point, Encoder, Journal, SnapshotStore};
use bprom_nn::Sequential;
use bprom_tensor::{Rng, Tensor};
use bprom_vp::CmaesCheckpoint;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

pub use bprom_ckpt::Decoder;

/// Coordinates the stage journal and artifact snapshots of one
/// checkpointed pipeline run.
///
/// Thread-safe: the journal and done-set sit behind mutexes so
/// data-parallel stages (shadow training, shadow prompting) can mark
/// units done from worker threads. The [`SnapshotStore`] is already
/// `&self` and atomic per save.
#[derive(Debug)]
pub struct Checkpointer {
    store: SnapshotStore,
    journal: Mutex<Journal>,
    done: Mutex<HashSet<String>>,
}

impl Checkpointer {
    /// Opens (or creates) a checkpoint directory: the snapshot store
    /// plus the `stages.journal` of completed units.
    ///
    /// # Errors
    ///
    /// Returns [`BpromError::Ckpt`] if the directory cannot be created,
    /// the journal holds corrupt (non-torn-tail) entries, or an entry
    /// is not valid UTF-8.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        let store = SnapshotStore::open(&dir)?;
        let (journal, entries) = Journal::open(dir.join("stages.journal"))?;
        let mut done = HashSet::with_capacity(entries.len());
        for entry in entries {
            let unit = String::from_utf8(entry)
                .map_err(|_| BpromError::Ckpt("journal entry is not valid UTF-8".to_string()))?;
            done.insert(unit);
        }
        Ok(Checkpointer {
            store,
            journal: Mutex::new(journal),
            done: Mutex::new(done),
        })
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        self.store.dir()
    }

    /// Whether `unit` completed in a previous (or this) process.
    fn is_done(&self, unit: &str) -> bool {
        self.done.lock().expect("done set poisoned").contains(unit)
    }

    /// Marks `unit` complete: appends it to the journal (fsynced), then
    /// crosses the `unit`'s crash point. Call only after the unit's
    /// artifact snapshot is durable.
    fn mark_done(&self, unit: &str) -> Result<()> {
        self.journal
            .lock()
            .expect("journal poisoned")
            .append(unit.as_bytes())?;
        self.done
            .lock()
            .expect("done set poisoned")
            .insert(unit.to_string());
        crash_point(unit);
        Ok(())
    }

    /// Guards against resuming into a directory produced by a
    /// *different* run: the first checkpointed run writes a `manifest`
    /// snapshot holding the run fingerprint (config + seed); later
    /// opens must present the same fingerprint.
    ///
    /// # Errors
    ///
    /// Returns [`BpromError::Ckpt`] on fingerprint mismatch or I/O
    /// failure.
    pub fn ensure_manifest(&self, fingerprint: u64) -> Result<()> {
        if let Some(bytes) = self.store.load("manifest")? {
            let mut dec = Decoder::new(&bytes);
            let stored = dec.get_u64()?;
            dec.finish()?;
            if stored != fingerprint {
                return Err(BpromError::Ckpt(format!(
                    "checkpoint directory {:?} belongs to a different run \
                     (manifest fingerprint {stored:#018x}, this run {fingerprint:#018x})",
                    self.dir()
                )));
            }
            return Ok(());
        }
        let mut enc = Encoder::new();
        enc.put_u64(fingerprint);
        self.store.save("manifest", &enc.into_bytes())?;
        crash_point("manifest");
        Ok(())
    }
}

/// The run context every pipeline stage takes: the caller's RNG stream,
/// the checkpointer (if the run is checkpointed), and the name of the
/// unit of work within the run (an inspection's zoo index, say).
///
/// Stages accept `impl Into<Run>`, and `&mut Rng` converts into an
/// uncheckpointed run named `adhoc`, so `Bprom::fit(&config, &mut rng)`
/// and `Bprom::fit(&config, Run::new(&mut rng, Some(&ck)))` are the same
/// function. With a checkpointer, every completed unit (shadow, prompt,
/// zoo model, meta forest, verdict) is snapshotted and journalled, and a
/// re-run against the same directory — same config, same seed — skips
/// completed units and continues bit-identically from the first
/// incomplete one.
#[derive(Debug)]
pub struct Run<'a> {
    /// The caller's RNG stream.
    pub rng: &'a mut Rng,
    /// Where completed units are journalled; `None` runs uncheckpointed.
    pub ckpt: Option<&'a Checkpointer>,
    /// Name of this unit of work within the run; [`Bprom::inspect`]
    /// names its snapshots `inspect-<unit>` and `cmaes-inspect-<unit>`.
    ///
    /// [`Bprom::inspect`]: crate::Bprom::inspect
    pub unit: &'a str,
}

impl<'a> From<&'a mut Rng> for Run<'a> {
    fn from(rng: &'a mut Rng) -> Self {
        Run::new(rng, None)
    }
}

impl<'a> Run<'a> {
    /// A run on `rng`, checkpointed when `ckpt` is set, with unit name
    /// `adhoc`.
    pub fn new(rng: &'a mut Rng, ckpt: Option<&'a Checkpointer>) -> Self {
        Run {
            rng,
            ckpt,
            unit: "adhoc",
        }
    }

    /// The same run, borrowed for one stage call so the caller keeps it.
    pub fn reborrow(&mut self) -> Run<'_> {
        Run {
            rng: &mut *self.rng,
            ckpt: self.ckpt,
            unit: self.unit,
        }
    }

    /// The per-generation CMA-ES snapshot slot `name`, when checkpointed.
    pub(crate) fn cmaes<'n>(&self, name: &'n str) -> Option<CmaesCheckpoint<'n>>
    where
        'a: 'n,
    {
        self.ckpt.map(|ck| CmaesCheckpoint {
            store: &ck.store,
            name,
        })
    }

    /// Runs one checkpoint unit named `name`. When the journal marks it
    /// done, its artifact is decoded (`decode` must consume every byte)
    /// instead of computing. Otherwise `compute` runs, `encode` writes
    /// the artifact, the artifact is saved atomically, and only then is
    /// the unit marked done, so a crash between the two re-runs the unit.
    /// Uncheckpointed, this is just `compute`.
    ///
    /// A unit that consumes the caller's stream sequentially records the
    /// stream position last in `encode` and restores it last in `decode`.
    pub(crate) fn checkpointed<T>(
        &mut self,
        name: &str,
        compute: impl FnOnce(Run<'_>) -> Result<T>,
        encode: impl FnOnce(&T, &Rng, &mut Encoder),
        decode: impl FnOnce(&mut Decoder<'_>, &mut Rng) -> Result<T>,
    ) -> Result<T> {
        let Some(ck) = self.ckpt else {
            return compute(self.reborrow());
        };
        if ck.is_done(name) {
            let bytes = ck.store.load_required(name)?;
            let mut dec = Decoder::new(&bytes);
            let value = decode(&mut dec, self.rng)?;
            dec.finish()?;
            return Ok(value);
        }
        let value = compute(self.reborrow())?;
        let mut enc = Encoder::new();
        encode(&value, self.rng, &mut enc);
        ck.store.save(name, &enc.into_bytes())?;
        ck.mark_done(name)?;
        Ok(value)
    }
}

/// Fingerprints a run by its configuration (via `Debug`, which covers
/// every field) and the RNG state at pipeline entry.
pub(crate) fn run_fingerprint(config_debug: &str, rng: &Rng) -> u64 {
    let mut enc = Encoder::new();
    enc.put_str(config_debug);
    let (state, spare) = rng.state();
    enc.put_u64s(&state);
    enc.put_opt_f32(spare);
    bprom_ckpt::fnv1a64(&enc.into_bytes())
}

/// Serializes a trained model's parameters and buffers (visit order).
pub(crate) fn encode_model(enc: &mut Encoder, model: &Sequential) {
    let params = model.export_params();
    enc.put_usize(params.len());
    for p in &params {
        enc.put_usizes(p.shape());
        enc.put_f32s(p.data());
    }
    let buffers = model.export_buffers();
    enc.put_usize(buffers.len());
    for b in &buffers {
        enc.put_f32s(b);
    }
}

/// Restores parameters and buffers written by [`encode_model`] into a
/// structurally identical model (shape-validated by the importers).
pub(crate) fn decode_model_into(dec: &mut Decoder<'_>, model: &mut Sequential) -> Result<()> {
    let n = dec.get_usize()?;
    let mut params = Vec::with_capacity(n);
    for _ in 0..n {
        let shape = dec.get_usizes()?;
        let data = dec.get_f32s()?;
        params.push(
            Tensor::from_vec(data, &shape)
                .map_err(|e| BpromError::Ckpt(format!("bad model tensor in snapshot: {e}")))?,
        );
    }
    model.import_params(&params)?;
    let b = dec.get_usize()?;
    let mut buffers = Vec::with_capacity(b);
    for _ in 0..b {
        buffers.push(dec.get_f32s()?);
    }
    model.import_buffers(&buffers)?;
    Ok(())
}

/// Serializes one tensor: shape, then the exact data bits.
pub(crate) fn encode_tensor(enc: &mut Encoder, t: &Tensor) {
    enc.put_usizes(t.shape());
    enc.put_f32s(t.data());
}

/// Restores a tensor written by [`encode_tensor`].
pub(crate) fn decode_tensor(dec: &mut Decoder<'_>) -> Result<Tensor> {
    let shape = dec.get_usizes()?;
    let data = dec.get_f32s()?;
    Tensor::from_vec(data, &shape)
        .map_err(|e| BpromError::Ckpt(format!("bad tensor in snapshot: {e}")))
}

/// Serializes a dataset (images, labels, label space, name) bit-exactly.
pub(crate) fn encode_dataset(enc: &mut Encoder, ds: &bprom_data::Dataset) {
    encode_tensor(enc, &ds.images);
    enc.put_usizes(&ds.labels);
    enc.put_usize(ds.num_classes);
    enc.put_str(&ds.name);
}

/// Restores a dataset written by [`encode_dataset`]. Routed through the
/// validating constructor so a corrupted payload that still decodes
/// surfaces as a typed error instead of an inconsistent dataset.
pub(crate) fn decode_dataset(dec: &mut Decoder<'_>) -> Result<bprom_data::Dataset> {
    let images = decode_tensor(dec)?;
    let labels = dec.get_usizes()?;
    let num_classes = dec.get_usize()?;
    let name = dec.get_str()?;
    bprom_data::Dataset::new(images, labels, num_classes, name)
        .map_err(|e| BpromError::Ckpt(format!("bad dataset in snapshot: {e}")))
}

/// Serializes the caller's RNG stream position.
pub(crate) fn encode_rng(enc: &mut Encoder, rng: &Rng) {
    let (state, spare) = rng.state();
    enc.put_u64s(&state);
    enc.put_opt_f32(spare);
}

/// Restores an RNG stream position written by [`encode_rng`].
pub(crate) fn decode_rng(dec: &mut Decoder<'_>) -> Result<Rng> {
    let state = dec.get_u64s()?;
    let spare = dec.get_opt_f32()?;
    let state: [u64; 4] = state
        .as_slice()
        .try_into()
        .map_err(|_| BpromError::Ckpt("snapshot holds a malformed RNG state".to_string()))?;
    Ok(Rng::from_state(state, spare))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bprom_nn::models::{mlp, ModelSpec};
    use bprom_nn::{Layer, Mode};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bprom-resume-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn journal_round_trip_marks_units_done() {
        let dir = temp_dir("journal");
        let ck = Checkpointer::open(&dir).unwrap();
        assert!(!ck.is_done("shadow-0"));
        ck.mark_done("shadow-0").unwrap();
        ck.mark_done("shadow-1").unwrap();
        drop(ck);
        let ck = Checkpointer::open(&dir).unwrap();
        assert!(ck.is_done("shadow-0"));
        assert!(ck.is_done("shadow-1"));
        assert!(!ck.is_done("shadow-2"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_rejects_different_run() {
        let dir = temp_dir("manifest");
        let ck = Checkpointer::open(&dir).unwrap();
        ck.ensure_manifest(0xABCD).unwrap();
        ck.ensure_manifest(0xABCD).unwrap();
        let err = ck.ensure_manifest(0x1234).unwrap_err();
        assert!(matches!(err, BpromError::Ckpt(_)), "{err}");
        assert!(err.to_string().contains("different run"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn model_codec_round_trip_preserves_forward() {
        let mut rng = Rng::new(7);
        let spec = ModelSpec::new(3, 8, 4);
        let mut a = mlp(&spec, &mut rng).unwrap();
        let mut b = mlp(&spec, &mut rng).unwrap();
        let probe = Tensor::rand_uniform(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let ya = a.forward(&probe, Mode::Eval).unwrap();
        assert_ne!(ya, b.forward(&probe, Mode::Eval).unwrap());
        let mut enc = Encoder::new();
        encode_model(&mut enc, &a);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        decode_model_into(&mut dec, &mut b).unwrap();
        dec.finish().unwrap();
        assert_eq!(ya, b.forward(&probe, Mode::Eval).unwrap());
    }

    #[test]
    fn rng_codec_round_trip_continues_stream() {
        let mut rng = Rng::new(9);
        rng.next_u64();
        let mut enc = Encoder::new();
        encode_rng(&mut enc, &rng);
        let bytes = enc.into_bytes();
        let expected: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        let mut dec = Decoder::new(&bytes);
        let mut restored = decode_rng(&mut dec).unwrap();
        dec.finish().unwrap();
        let got: Vec<u64> = (0..4).map(|_| restored.next_u64()).collect();
        assert_eq!(got, expected);
    }
}
