//! Minibatch training loop shared by every experiment.

use crate::loss::softmax_cross_entropy;
use crate::optim::{Adam, Sgd};
use crate::{accuracy, Layer, Mode, NnError, Result, Sequential};
use bprom_tensor::{Rng, Tensor};

/// Which optimizer [`Trainer::fit`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OptimizerKind {
    /// SGD with momentum (the default; matches the paper's "standard
    /// procedures").
    #[default]
    Sgd,
    /// Adam with the configured learning rate.
    Adam,
}

/// Hyperparameters for [`Trainer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Initial learning rate.
    pub lr: f32,
    /// SGD momentum coefficient.
    pub momentum: f32,
    /// L2 weight decay coefficient.
    pub weight_decay: f32,
    /// Multiplicative learning-rate decay applied after each epoch.
    pub lr_decay: f32,
    /// Optimizer selection.
    pub optimizer: OptimizerKind,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 22,
            batch_size: 32,
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
            lr_decay: 0.85,
            optimizer: OptimizerKind::Sgd,
        }
    }
}

impl TrainConfig {
    /// A faster configuration for unit tests and smoke runs.
    pub fn fast() -> Self {
        TrainConfig {
            epochs: 4,
            ..Self::default()
        }
    }
}

/// Per-epoch training record.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean loss of each epoch.
    pub epoch_losses: Vec<f32>,
}

/// Gathers the rows of a batched tensor addressed by `idx` into a new
/// contiguous batch, along with the matching labels.
///
/// # Errors
///
/// Returns an error if any index is out of range or label counts mismatch.
pub fn gather_batch(x: &Tensor, labels: &[usize], idx: &[usize]) -> Result<(Tensor, Vec<usize>)> {
    let n = x.shape()[0];
    if labels.len() != n {
        return Err(NnError::InvalidLabels {
            reason: format!("{} labels for {} samples", labels.len(), n),
        });
    }
    let inner: usize = x.shape()[1..].iter().product();
    let mut data = Vec::with_capacity(idx.len() * inner);
    let mut batch_labels = Vec::with_capacity(idx.len());
    for &i in idx {
        if i >= n {
            return Err(NnError::Tensor(
                bprom_tensor::TensorError::IndexOutOfBounds {
                    index: vec![i],
                    shape: x.shape().to_vec(),
                },
            ));
        }
        data.extend_from_slice(&x.data()[i * inner..(i + 1) * inner]);
        batch_labels.push(labels[i]);
    }
    let mut dims = vec![idx.len()];
    dims.extend_from_slice(&x.shape()[1..]);
    Ok((Tensor::from_vec(data, &dims)?, batch_labels))
}

/// Supervised classifier trainer (SGD + momentum, cross-entropy).
#[derive(Debug, Clone, Copy, Default)]
pub struct Trainer {
    /// Training hyperparameters.
    pub config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    pub fn new(config: TrainConfig) -> Self {
        Trainer { config }
    }

    /// Trains `model` in place on `(x, labels)` and returns per-epoch losses.
    ///
    /// # Errors
    ///
    /// Returns an error on shape/label inconsistencies or optimizer drift.
    pub fn fit(
        &self,
        model: &mut Sequential,
        x: &Tensor,
        labels: &[usize],
        rng: &mut Rng,
    ) -> Result<TrainReport> {
        let n = x.shape()[0];
        if n == 0 || labels.len() != n {
            return Err(NnError::InvalidLabels {
                reason: format!("{} labels for {} samples", labels.len(), n),
            });
        }
        let cfg = &self.config;
        let mut sgd = Sgd::new(cfg.lr, cfg.momentum, cfg.weight_decay);
        let mut adam = Adam::new(cfg.lr);
        let mut order: Vec<usize> = (0..n).collect();
        let mut epoch_losses = Vec::with_capacity(cfg.epochs);
        for epoch in 0..cfg.epochs {
            rng.shuffle(&mut order);
            let mut total = 0.0f32;
            let mut batches = 0usize;
            for chunk in order.chunks(cfg.batch_size.max(1)) {
                let (bx, by) = gather_batch(x, labels, chunk)?;
                let logits = model.forward(&bx, Mode::Train)?;
                let (loss, grad) = softmax_cross_entropy(&logits, &by)?;
                model.zero_grad();
                // The input gradient of the first layer is never read.
                model.backward_params(&grad)?;
                match cfg.optimizer {
                    OptimizerKind::Sgd => sgd.step(model)?,
                    OptimizerKind::Adam => adam.step(model)?,
                }
                total += loss;
                batches += 1;
            }
            epoch_losses.push(total / batches.max(1) as f32);
            let lr = cfg.lr * cfg.lr_decay.powi(epoch as i32 + 1);
            sgd.set_lr(lr);
            adam.set_lr(lr);
        }
        Ok(TrainReport { epoch_losses })
    }

    /// Evaluates classification accuracy in eval mode, batched to bound
    /// memory.
    ///
    /// # Errors
    ///
    /// Returns an error on shape/label inconsistencies.
    pub fn evaluate(&self, model: &mut Sequential, x: &Tensor, labels: &[usize]) -> Result<f32> {
        let n = x.shape()[0];
        if labels.len() != n {
            return Err(NnError::InvalidLabels {
                reason: format!("{} labels for {} samples", labels.len(), n),
            });
        }
        let idx: Vec<usize> = (0..n).collect();
        let mut correct_weighted = 0.0f32;
        for chunk in idx.chunks(64) {
            let (bx, by) = gather_batch(x, labels, chunk)?;
            let logits = model.forward(&bx, Mode::Eval)?;
            correct_weighted += accuracy(&logits, &by)? * chunk.len() as f32;
        }
        Ok(correct_weighted / n as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{mlp, ModelSpec};

    /// Two well-separated Gaussian blobs rendered as 1-channel "images".
    fn blob_data(n_per_class: usize, rng: &mut Rng) -> (Tensor, Vec<usize>) {
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for class in 0..2usize {
            let center = if class == 0 { -1.0 } else { 1.0 };
            for _ in 0..n_per_class {
                for _ in 0..16 {
                    data.push(center + 0.3 * rng.normal());
                }
                labels.push(class);
            }
        }
        let n = labels.len();
        (Tensor::from_vec(data, &[n, 1, 4, 4]).unwrap(), labels)
    }

    #[test]
    fn trainer_fits_separable_blobs() {
        let mut rng = Rng::new(0);
        let (x, y) = blob_data(40, &mut rng);
        let spec = ModelSpec::new(1, 4, 2);
        let mut model = mlp(&spec, &mut rng).unwrap();
        let trainer = Trainer::new(TrainConfig::fast());
        let report = trainer.fit(&mut model, &x, &y, &mut rng).unwrap();
        assert!(report.epoch_losses.last().unwrap() < &0.2);
        let acc = trainer.evaluate(&mut model, &x, &y).unwrap();
        assert!(acc > 0.95, "acc={acc}");
    }

    #[test]
    fn losses_decrease() {
        let mut rng = Rng::new(1);
        let (x, y) = blob_data(30, &mut rng);
        let spec = ModelSpec::new(1, 4, 2);
        let mut model = mlp(&spec, &mut rng).unwrap();
        let trainer = Trainer::new(TrainConfig::default());
        let report = trainer.fit(&mut model, &x, &y, &mut rng).unwrap();
        assert!(report.epoch_losses.first().unwrap() > report.epoch_losses.last().unwrap());
    }

    #[test]
    fn gather_batch_selects_rows() {
        let x = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[4, 2]).unwrap();
        let labels = vec![0, 1, 2, 3];
        let (bx, by) = gather_batch(&x, &labels, &[2, 0]).unwrap();
        assert_eq!(bx.data(), &[4.0, 5.0, 0.0, 1.0]);
        assert_eq!(by, vec![2, 0]);
        assert!(gather_batch(&x, &labels, &[4]).is_err());
        assert!(gather_batch(&x, &[0], &[0]).is_err());
    }

    #[test]
    fn adam_optimizer_also_fits() {
        let mut rng = Rng::new(3);
        let (x, y) = blob_data(30, &mut rng);
        let spec = ModelSpec::new(1, 4, 2);
        let mut model = mlp(&spec, &mut rng).unwrap();
        let trainer = Trainer::new(TrainConfig {
            optimizer: OptimizerKind::Adam,
            lr: 0.01,
            ..TrainConfig::fast()
        });
        trainer.fit(&mut model, &x, &y, &mut rng).unwrap();
        let acc = trainer.evaluate(&mut model, &x, &y).unwrap();
        assert!(acc > 0.9, "acc={acc}");
    }

    /// `fit` steps through `backward_params`; the same loop through
    /// `backward` trains every architecture to the same bytes.
    #[test]
    fn fit_matches_a_backward_loop_bytewise() {
        use crate::loss::softmax_cross_entropy;
        use crate::models::{build, Architecture};
        let spec = ModelSpec::new(3, 8, 4);
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 8,
            ..TrainConfig::default()
        };
        let x = Tensor::randn(&[20, 3, 8, 8], &mut Rng::new(11));
        let labels: Vec<usize> = (0..20).map(|i| i % 4).collect();
        for arch in Architecture::ALL {
            let mut fitted = build(arch, &spec, &mut Rng::new(12)).unwrap();
            Trainer::new(cfg)
                .fit(&mut fitted, &x, &labels, &mut Rng::new(13))
                .unwrap();
            let mut manual = build(arch, &spec, &mut Rng::new(12)).unwrap();
            let mut rng = Rng::new(13);
            let mut sgd = Sgd::new(cfg.lr, cfg.momentum, cfg.weight_decay);
            let mut order: Vec<usize> = (0..x.shape()[0]).collect();
            for epoch in 0..cfg.epochs {
                rng.shuffle(&mut order);
                for chunk in order.chunks(cfg.batch_size) {
                    let (bx, by) = gather_batch(&x, &labels, chunk).unwrap();
                    let logits = manual.forward(&bx, Mode::Train).unwrap();
                    let (_, grad) = softmax_cross_entropy(&logits, &by).unwrap();
                    manual.zero_grad();
                    manual.backward(&grad).unwrap();
                    sgd.step(&mut manual).unwrap();
                }
                sgd.set_lr(cfg.lr * cfg.lr_decay.powi(epoch as i32 + 1));
            }
            let bits = |m: &Sequential| {
                let params = m.export_params();
                let params = params.iter().flat_map(|p| p.data().to_vec());
                let buffers = m.export_buffers().into_iter().flatten();
                params.chain(buffers).map(f32::to_bits).collect::<Vec<_>>()
            };
            assert_eq!(bits(&fitted), bits(&manual), "{arch}");
        }
    }

    #[test]
    fn empty_training_set_rejected() {
        let mut rng = Rng::new(2);
        let spec = ModelSpec::new(1, 4, 2);
        let mut model = mlp(&spec, &mut rng).unwrap();
        let x = Tensor::zeros(&[1, 1, 4, 4]);
        let trainer = Trainer::default();
        assert!(trainer.fit(&mut model, &x, &[], &mut rng).is_err());
    }
}
