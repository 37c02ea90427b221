//! Prompt learning: backpropagation for shadow models (white-box) and
//! CMA-ES for suspicious models (black-box), plus prompted-accuracy
//! evaluation.

use crate::{BlackBoxModel, CmaEs, LabelMap, OracleStats, Result, VisualPrompt, VpError};
use bprom_ckpt::{crash_point, Decoder, Encoder, SnapshotStore};
use bprom_nn::loss::softmax_cross_entropy;
use bprom_nn::{Layer, Mode, Sequential};
use bprom_tensor::{Rng, Tensor};
use std::sync::atomic::{AtomicU64, Ordering};

/// How CMA-ES scores one candidate prompt against one oracle response
/// batch. [`FitnessKind::CrossEntropy`] is the paper's objective; the
/// other variants adapt the black-box search to *degraded oracle
/// regimes* (see `bprom-regimes`), where the soft-score vector is
/// truncated or absent and raw cross-entropy either saturates at the
/// clamp floor or collapses to a step function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FitnessKind {
    /// Mean `-ln p(want)` over the batch (full soft-score regime).
    #[default]
    CrossEntropy,
    /// Cross-entropy over each row renormalized to its surviving mass —
    /// for top-k regimes, where truncated classes read as exact zeros
    /// and would otherwise pin the loss at `-ln(1e-9)` regardless of
    /// how much of the kept mass sits on the wanted class.
    RenormCrossEntropy,
    /// Fraction of rows whose argmax misses the wanted class — the
    /// label-only regime's prompted-accuracy proxy (one-hot responses
    /// make cross-entropy a scaled step function of exactly this, so
    /// the proxy ranks candidates identically while keeping the
    /// fitness scale interpretable).
    MissRate,
}

impl FitnessKind {
    /// Candidate loss for one `[n, k]` response batch against the wanted
    /// (mapped) labels. Lower is better for every variant.
    pub fn batch_loss(&self, probs: &Tensor, wants: &[usize]) -> f32 {
        let k = probs.shape()[1];
        let data = probs.data();
        let mut loss = 0.0f32;
        match self {
            FitnessKind::CrossEntropy => {
                for (row, &want) in wants.iter().enumerate() {
                    let p = data[row * k + want].max(1e-9);
                    loss -= p.ln();
                }
            }
            FitnessKind::RenormCrossEntropy => {
                for (row, &want) in wants.iter().enumerate() {
                    let slice = &data[row * k..(row + 1) * k];
                    let mass: f32 = slice.iter().sum();
                    let p = if mass > 0.0 {
                        slice[want] / mass
                    } else {
                        1.0 / k as f32
                    };
                    loss -= p.max(1e-9).ln();
                }
            }
            FitnessKind::MissRate => {
                for (row, &want) in wants.iter().enumerate() {
                    let slice = &data[row * k..(row + 1) * k];
                    let mut best = 0usize;
                    for c in 1..k {
                        if slice[c] > slice[best] {
                            best = c;
                        }
                    }
                    if best != want {
                        loss += 1.0;
                    }
                }
            }
        }
        loss / wants.len().max(1) as f32
    }
}

/// Hyperparameters for prompt learning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PromptTrainConfig {
    /// Backprop epochs over the target training set.
    pub epochs: usize,
    /// Minibatch size (both paths).
    pub batch_size: usize,
    /// Backprop learning rate for `θ`.
    pub lr: f32,
    /// Backprop momentum for `θ`.
    pub momentum: f32,
    /// CMA-ES generations (black-box path).
    pub cmaes_generations: usize,
    /// CMA-ES population λ; 0 means the dimension-derived default.
    pub cmaes_population: usize,
    /// CMA-ES initial step size.
    pub cmaes_sigma: f32,
    /// Candidate scoring for the CMA-ES path (regime-aware; the
    /// backprop path always uses softmax cross-entropy).
    pub fitness: FitnessKind,
}

impl Default for PromptTrainConfig {
    fn default() -> Self {
        PromptTrainConfig {
            epochs: 15,
            batch_size: 48,
            lr: 0.05,
            momentum: 0.9,
            cmaes_generations: 40,
            cmaes_population: 12,
            cmaes_sigma: 0.15,
            fitness: FitnessKind::CrossEntropy,
        }
    }
}

/// Outcome of a prompt-training run.
#[derive(Debug, Clone, PartialEq)]
pub struct PromptTrainReport {
    /// Mean loss per epoch (backprop) or per generation (CMA-ES best).
    pub losses: Vec<f32>,
    /// Queries consumed (black-box path only; 0 for backprop).
    pub queries: u64,
    /// CMA-ES candidates skipped with an infinite penalty because their
    /// oracle queries exhausted all retries (0 for backprop and for
    /// fault-free oracles).
    pub penalized_candidates: u64,
    /// Oracle queries spent by generations a resumed CMA-ES run restored
    /// from its snapshot instead of re-running (already included in
    /// `queries`; 0 for a run that was never interrupted). A caller that
    /// meters live traffic with a decorator created after the restart
    /// adds this to reconstruct the uninterrupted total.
    pub carried_queries: u64,
    /// Fault/retry/cache accounting of those restored generations.
    pub carried_stats: OracleStats,
}

fn check_training_set(images: &Tensor, labels: &[usize]) -> Result<()> {
    if images.rank() != 4 || images.shape()[0] != labels.len() || labels.is_empty() {
        return Err(VpError::InvalidConfig {
            reason: format!(
                "training set mismatch: images {:?}, {} labels",
                images.shape(),
                labels.len()
            ),
        });
    }
    Ok(())
}

fn gather(images: &Tensor, labels: &[usize], idx: &[usize]) -> Result<(Tensor, Vec<usize>)> {
    let inner: usize = images.shape()[1..].iter().product();
    let mut data = Vec::with_capacity(idx.len() * inner);
    let mut out_labels = Vec::with_capacity(idx.len());
    for &i in idx {
        data.extend_from_slice(&images.data()[i * inner..(i + 1) * inner]);
        out_labels.push(labels[i]);
    }
    let mut dims = vec![idx.len()];
    dims.extend_from_slice(&images.shape()[1..]);
    Ok((Tensor::from_vec(data, &dims)?, out_labels))
}

/// Learns a visual prompt by backpropagating through a *frozen* model
/// (`Mode::Frozen`: gradients flow, weights and normalization statistics
/// do not change). This is how BPROM prompts its shadow models.
///
/// # Errors
///
/// Returns an error on shape/label mismatches or if the label map cannot
/// express a target label.
pub fn train_prompt_backprop(
    model: &mut Sequential,
    prompt: &mut VisualPrompt,
    images: &Tensor,
    labels: &[usize],
    map: &LabelMap,
    cfg: &PromptTrainConfig,
    rng: &mut Rng,
) -> Result<PromptTrainReport> {
    check_training_set(images, labels)?;
    let n = images.shape()[0];
    let mapped: Vec<usize> = labels
        .iter()
        .map(|&l| map.map_label(l))
        .collect::<Result<_>>()?;
    let mut order: Vec<usize> = (0..n).collect();
    // Adam state on the full canvas (border entries are the live ones).
    let canvas = [
        images.shape()[1],
        prompt.source_size(),
        prompt.source_size(),
    ];
    let mut m = Tensor::zeros(&canvas);
    let mut v = Tensor::zeros(&canvas);
    let (b1, b2, eps) = (0.9f32, 0.999f32, 1e-8f32);
    let mut t = 0i32;
    let mut losses = Vec::with_capacity(cfg.epochs);
    bprom_obs::span!("backprop_prompt_training");
    for _epoch in 0..cfg.epochs {
        rng.shuffle(&mut order);
        let mut total = 0.0f32;
        let mut batches = 0usize;
        for chunk in order.chunks(cfg.batch_size.max(1)) {
            let (bx, by) = gather(images, &mapped, chunk)?;
            let prompted = prompt.apply_batch(&bx)?;
            let logits = model.forward(&prompted, Mode::Frozen)?;
            let (loss, grad_logits) = softmax_cross_entropy(&logits, &by)?;
            model.zero_grad();
            let grad_input = model.backward(&grad_logits)?;
            // Sum input gradients over the batch: θ is shared.
            let mut grad_theta = Tensor::zeros(&canvas);
            let inner: usize = grad_theta.len();
            for i in 0..chunk.len() {
                for (g, &gv) in grad_theta
                    .data_mut()
                    .iter_mut()
                    .zip(&grad_input.data()[i * inner..(i + 1) * inner])
                {
                    *g += gv;
                }
            }
            // Adam step on the border parameters.
            t += 1;
            let bc1 = 1.0 - b1.powi(t);
            let bc2 = 1.0 - b2.powi(t);
            let mut step = Tensor::zeros(&canvas);
            for (((mi, vi), &g), s) in m
                .data_mut()
                .iter_mut()
                .zip(v.data_mut().iter_mut())
                .zip(grad_theta.data())
                .zip(step.data_mut().iter_mut())
            {
                *mi = b1 * *mi + (1.0 - b1) * g;
                *vi = b2 * *vi + (1.0 - b2) * g * g;
                *s = (*mi / bc1) / ((*vi / bc2).sqrt() + eps);
            }
            prompt.apply_gradient(&step, -cfg.lr)?;
            total += loss;
            batches += 1;
        }
        let epoch_loss = total / batches.max(1) as f32;
        losses.push(epoch_loss);
        bprom_obs::event("prompt.epoch_loss", f64::from(epoch_loss));
    }
    Ok(PromptTrainReport {
        losses,
        queries: 0,
        penalized_candidates: 0,
        carried_queries: 0,
        carried_stats: OracleStats::default(),
    })
}

/// Where a checkpointed CMA-ES run persists its per-generation state.
///
/// Each generation's complete optimizer state — distribution mean and
/// covariance factors, evolution paths, step size, the caller's RNG
/// stream position, loss history and query/fault accounting — is written
/// as one atomic snapshot under `name`, so a crash at any point loses at
/// most the generation in flight.
#[derive(Debug, Clone, Copy)]
pub struct CmaesCheckpoint<'a> {
    /// Store receiving the per-generation snapshots.
    pub store: &'a SnapshotStore,
    /// Snapshot name (one CMA-ES run per name).
    pub name: &'a str,
}

/// Learns a visual prompt for a black-box model with CMA-ES over the
/// border parameters, minimizing cross-entropy of the queried confidence
/// vectors. This is how BPROM prompts the suspicious model.
///
/// With a [`CmaesCheckpoint`], every generation ends with an atomic
/// snapshot of the full optimizer state, and a later call against the
/// same store resumes from the last completed generation with a
/// bit-identical RNG stream, losses, and query/fault accounting (the
/// restored share is reported as `carried_queries`/`carried_stats`).
///
/// Resume semantics: the snapshot *overwrites* `rng` with the stream
/// position recorded at the last completed generation, so the continued
/// run consumes exactly the draws the uninterrupted run would have.
/// `prompt` must be the same template the original call started from
/// (deterministic replay of the caller guarantees this); its border
/// values are fully overwritten by the best candidate at the end.
///
/// # Errors
///
/// Returns an error on shape/label mismatches, optimizer misuse, or a
/// snapshot that fails to write or validate ([`VpError::Ckpt`]).
#[allow(clippy::too_many_arguments)]
pub fn train_prompt_cmaes(
    oracle: &dyn BlackBoxModel,
    prompt: &mut VisualPrompt,
    images: &Tensor,
    labels: &[usize],
    map: &LabelMap,
    cfg: &PromptTrainConfig,
    rng: &mut Rng,
    ckpt: Option<CmaesCheckpoint<'_>>,
) -> Result<PromptTrainReport> {
    check_training_set(images, labels)?;
    let n = images.shape()[0];
    let mapped: Vec<usize> = labels
        .iter()
        .map(|&l| map.map_label(l))
        .collect::<Result<_>>()?;
    let start_queries = oracle.queries_used();
    let stats_start = oracle.oracle_stats();
    let pop = if cfg.cmaes_population == 0 {
        CmaEs::default_population(prompt.num_border_params())
    } else {
        cfg.cmaes_population
    };
    let mut es = CmaEs::new(&prompt.to_flat(), cfg.cmaes_sigma, pop)?;
    let mut losses = Vec::with_capacity(cfg.cmaes_generations);
    let template = prompt.clone();
    let penalized = AtomicU64::new(0);
    let mut start_gen = 0usize;
    let mut carried_queries = 0u64;
    let mut carried_stats = OracleStats::default();
    if let Some(ckpt) = &ckpt {
        if let Some(bytes) = ckpt.store.load(ckpt.name)? {
            let mut dec = Decoder::new(&bytes);
            let gens_done = dec.get_usize()?;
            if gens_done > cfg.cmaes_generations {
                return Err(VpError::Ckpt(format!(
                    "snapshot {} holds {gens_done} generations, run wants {}",
                    ckpt.name, cfg.cmaes_generations
                )));
            }
            let restored = CmaEs::restore(&mut dec)?;
            let state = dec.get_u64s()?;
            let spare = dec.get_opt_f32()?;
            let restored_losses = dec.get_f32s()?;
            let restored_penalized = dec.get_u64()?;
            carried_queries = dec.get_u64()?;
            carried_stats = OracleStats::decode(&mut dec)?;
            // Restore any memoized query state the killed run had paid
            // for, so the resumed run re-spends nothing (see bprom-qcache).
            if dec.get_bool()? {
                let payload = dec.get_bytes()?;
                oracle.import_cache(&mut Decoder::new(&payload))?;
            }
            dec.finish()?;
            let state: [u64; 4] = state.as_slice().try_into().map_err(|_| {
                VpError::Ckpt(format!("snapshot {} has a malformed RNG state", ckpt.name))
            })?;
            es = restored;
            losses = restored_losses;
            penalized.store(restored_penalized, Ordering::Relaxed);
            *rng = Rng::from_state(state, spare);
            start_gen = gens_done;
        }
    }
    bprom_obs::span!("cmaes_prompt_training");
    for gen_index in start_gen..cfg.cmaes_generations {
        let gen_start = bprom_obs::enabled().then(std::time::Instant::now);
        // One shared minibatch per generation: candidates are ranked on the
        // same data, resampled across generations for coverage.
        let batch_len = cfg.batch_size.min(n).max(1);
        let idx = rng.sample_indices(n, batch_len);
        let (bx, by) = gather(images, &mapped, &idx)?;
        let candidates = es.ask(rng);
        // Candidate evaluations are independent (the oracle is `&self` and
        // counts queries atomically) and consume no RNG, so fanning them out
        // across workers leaves both the fitness values and the RNG stream
        // bit-identical to the sequential path.
        let fitness: Vec<f32> = bprom_par::par_map_indexed(candidates.len(), |ci| -> Result<f32> {
            let mut scratch = template.clone();
            scratch.set_flat(&candidates[ci])?;
            let prompted = scratch.apply_batch(&bx)?;
            // Graceful degradation: a candidate whose queries exhaust all
            // retries is skipped with an infinite penalty (ranks last,
            // never recombined) instead of aborting the whole generation.
            // The fault decision is a property of the query content, not
            // of scheduling, so this stays thread-count deterministic.
            let probs = match oracle.query(&prompted) {
                Ok(probs) => probs,
                Err(VpError::OracleFault { .. }) => {
                    penalized.fetch_add(1, Ordering::Relaxed);
                    bprom_obs::counter_add("cmaes.candidates_penalized", 1);
                    return Ok(f32::INFINITY);
                }
                Err(e) => return Err(e),
            };
            Ok(cfg.fitness.batch_loss(&probs, &by))
        })
        .into_iter()
        .collect::<Result<_>>()?;
        es.tell(&candidates, &fitness)?;
        let best = fitness.iter().copied().fold(f32::INFINITY, f32::min);
        losses.push(best);
        if let Some(gen_start) = gen_start {
            bprom_obs::observe("cmaes.generation_ns", gen_start.elapsed().as_nanos() as u64);
            bprom_obs::event("cmaes.best_fitness", f64::from(best));
            bprom_obs::log_event(
                "cmaes.generation",
                [
                    ("gen", gen_index.into()),
                    ("best_fitness", best.into()),
                    ("penalized_total", penalized.load(Ordering::Relaxed).into()),
                ],
            );
        }
        if let Some(ckpt) = &ckpt {
            // The generation is complete: all candidate queries are in,
            // `tell` has updated the distribution, and the RNG stream sits
            // exactly where the next generation will read it. Persist
            // everything a resumed process needs, then mark the boundary.
            let mut enc = Encoder::new();
            enc.put_usize(losses.len());
            es.persist(&mut enc);
            let (state, spare) = rng.state();
            enc.put_u64s(&state);
            enc.put_opt_f32(spare);
            enc.put_f32s(&losses);
            enc.put_u64(penalized.load(Ordering::Relaxed));
            enc.put_u64(carried_queries + (oracle.queries_used() - start_queries));
            oracle
                .oracle_stats()
                .delta_since(&stats_start)
                .merged(&carried_stats)
                .encode(&mut enc);
            let mut cache = Encoder::new();
            if oracle.export_cache(&mut cache) {
                enc.put_bool(true);
                enc.put_bytes(&cache.into_bytes());
            } else {
                enc.put_bool(false);
            }
            ckpt.store.save(ckpt.name, &enc.into_bytes())?;
            crash_point("cmaes-generation");
        }
    }
    // Install the best-ever candidate.
    if let Some((best, _)) = es.best() {
        prompt.set_flat(best)?;
    }
    Ok(PromptTrainReport {
        losses,
        queries: carried_queries + (oracle.queries_used() - start_queries),
        penalized_candidates: penalized.load(Ordering::Relaxed),
        carried_queries,
        carried_stats,
    })
}

/// Prompted-model accuracy via direct (white-box) forward passes.
///
/// # Errors
///
/// Returns an error on shape/label mismatches.
pub fn prompted_accuracy(
    model: &mut Sequential,
    prompt: &VisualPrompt,
    images: &Tensor,
    labels: &[usize],
    map: &LabelMap,
) -> Result<f32> {
    check_training_set(images, labels)?;
    let n = images.shape()[0];
    let idx: Vec<usize> = (0..n).collect();
    let mut correct = 0.0f32;
    for chunk in idx.chunks(64) {
        let (bx, by) = gather(images, labels, chunk)?;
        let prompted = prompt.apply_batch(&bx)?;
        let logits = model.forward(&prompted, Mode::Eval)?;
        let probs = bprom_nn::softmax(&logits)?;
        correct += map.accuracy(&probs, &by)? * chunk.len() as f32;
    }
    Ok(correct / n as f32)
}

/// Prompted-model accuracy through the black-box query interface.
///
/// # Errors
///
/// Returns an error on shape/label mismatches.
pub fn prompted_accuracy_blackbox(
    oracle: &dyn BlackBoxModel,
    prompt: &VisualPrompt,
    images: &Tensor,
    labels: &[usize],
    map: &LabelMap,
) -> Result<f32> {
    check_training_set(images, labels)?;
    let n = images.shape()[0];
    let idx: Vec<usize> = (0..n).collect();
    let mut correct = 0.0f32;
    for chunk in idx.chunks(64) {
        let (bx, by) = gather(images, labels, chunk)?;
        let prompted = prompt.apply_batch(&bx)?;
        let probs = oracle.query(&prompted)?;
        correct += map.accuracy(&probs, &by)? * chunk.len() as f32;
    }
    Ok(correct / n as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryOracle;
    use bprom_data::SynthDataset;
    use bprom_nn::models::{resnet_mini, ModelSpec};
    use bprom_nn::{TrainConfig, Trainer};

    /// Train a clean source model, then learn a prompt mapping a *different*
    /// dataset onto it; prompted accuracy must clearly beat chance.
    #[test]
    fn backprop_prompting_adapts_clean_model() {
        let mut rng = Rng::new(0);
        let source = SynthDataset::Cifar10.generate(30, 16, 1).unwrap();
        let spec = ModelSpec::new(3, 16, 10);
        let mut model = resnet_mini(&spec, &mut rng).unwrap();
        let trainer = Trainer::new(TrainConfig::default());
        trainer
            .fit(&mut model, &source.images, &source.labels, &mut rng)
            .unwrap();

        let target = SynthDataset::Stl10.generate(20, 8, 2).unwrap();
        let (t_train, t_test) = target.split(0.7, &mut rng).unwrap();
        let map = LabelMap::identity(10, 10).unwrap();
        let mut prompt = VisualPrompt::random(3, 16, 4, &mut rng).unwrap();
        let before =
            prompted_accuracy(&mut model, &prompt, &t_test.images, &t_test.labels, &map).unwrap();
        let cfg = PromptTrainConfig::default();
        let report = train_prompt_backprop(
            &mut model,
            &mut prompt,
            &t_train.images,
            &t_train.labels,
            &map,
            &cfg,
            &mut rng,
        )
        .unwrap();
        let after =
            prompted_accuracy(&mut model, &prompt, &t_test.images, &t_test.labels, &map).unwrap();
        // The unprompted baseline varies with how the random domains align;
        // prompting must end well above chance (10 %) and never hurt.
        assert!(
            after > 0.25 && after >= before - 0.05,
            "prompting should lift accuracy well above chance: {before} -> {after}, losses {:?}",
            report.losses
        );
        assert!(
            report.losses.first().unwrap() > report.losses.last().unwrap(),
            "prompt training should reduce the loss: {:?}",
            report.losses
        );
    }

    #[test]
    fn frozen_prompting_does_not_change_model() {
        let mut rng = Rng::new(1);
        let source = SynthDataset::Cifar10.generate(10, 16, 3).unwrap();
        let spec = ModelSpec::new(3, 16, 10);
        let mut model = resnet_mini(&spec, &mut rng).unwrap();
        let trainer = Trainer::new(TrainConfig::fast());
        trainer
            .fit(&mut model, &source.images, &source.labels, &mut rng)
            .unwrap();
        let params_before = model.export_params();
        let probe = Tensor::rand_uniform(&[2, 3, 16, 16], 0.0, 1.0, &mut rng);
        let out_before = model.forward(&probe, Mode::Eval).unwrap();

        let target = SynthDataset::Stl10.generate(5, 8, 4).unwrap();
        let map = LabelMap::identity(10, 10).unwrap();
        let mut prompt = VisualPrompt::new(3, 16, 4).unwrap();
        let cfg = PromptTrainConfig {
            epochs: 2,
            ..PromptTrainConfig::default()
        };
        train_prompt_backprop(
            &mut model,
            &mut prompt,
            &target.images,
            &target.labels,
            &map,
            &cfg,
            &mut rng,
        )
        .unwrap();
        assert_eq!(model.export_params(), params_before);
        let out_after = model.forward(&probe, Mode::Eval).unwrap();
        assert_eq!(out_before, out_after);
    }

    #[test]
    fn cmaes_prompting_reduces_loss_through_queries_only() {
        let mut rng = Rng::new(2);
        let source = SynthDataset::Cifar10.generate(20, 16, 5).unwrap();
        let spec = ModelSpec::new(3, 16, 10);
        let mut model = resnet_mini(&spec, &mut rng).unwrap();
        let trainer = Trainer::new(TrainConfig::fast());
        trainer
            .fit(&mut model, &source.images, &source.labels, &mut rng)
            .unwrap();
        let oracle = QueryOracle::new(model, 10);

        let target = SynthDataset::Stl10.generate(10, 8, 6).unwrap();
        let map = LabelMap::identity(10, 10).unwrap();
        let mut prompt = VisualPrompt::random(3, 16, 4, &mut rng).unwrap();
        let cfg = PromptTrainConfig {
            cmaes_generations: 15,
            cmaes_population: 8,
            ..PromptTrainConfig::default()
        };
        let report = train_prompt_cmaes(
            &oracle,
            &mut prompt,
            &target.images,
            &target.labels,
            &map,
            &cfg,
            &mut rng,
            None,
        )
        .unwrap();
        assert!(report.queries > 0);
        assert_eq!(report.losses.len(), 15);
        let first = report.losses.first().unwrap();
        let last = report.losses.last().unwrap();
        assert!(last < first, "CMA-ES should reduce loss: {first} -> {last}");
    }

    #[test]
    fn training_set_validation() {
        let mut rng = Rng::new(3);
        let spec = ModelSpec::new(3, 16, 10);
        let mut model = resnet_mini(&spec, &mut rng).unwrap();
        let mut prompt = VisualPrompt::new(3, 16, 4).unwrap();
        let map = LabelMap::identity(10, 10).unwrap();
        let cfg = PromptTrainConfig::default();
        let bad = Tensor::zeros(&[2, 3, 8, 8]);
        assert!(
            train_prompt_backprop(&mut model, &mut prompt, &bad, &[0], &map, &cfg, &mut rng)
                .is_err()
        );
    }
}
