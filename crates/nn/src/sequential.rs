use crate::layer::{Fusable, Layer, Mode};
use crate::{Conv2d, Result};
use bprom_tensor::Tensor;

/// A chain of layers applied in order. The universal model container of the
/// workspace: every architecture in [`crate::models`] is a `Sequential`.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.layers.iter().map(|l| l.name()).collect();
        f.debug_struct("Sequential")
            .field("layers", &names)
            .finish()
    }
}

impl Sequential {
    /// Creates a model from an ordered list of layers.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Sequential { layers }
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the model has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Runs a forward pass collecting every layer's output (for defenses
    /// that inspect intermediate representations, e.g. TED).
    ///
    /// # Errors
    ///
    /// Propagates layer failures.
    pub fn forward_trace(&mut self, input: &Tensor, mode: Mode) -> Result<Vec<Tensor>> {
        let mut x = input.clone();
        let mut trace = Vec::with_capacity(self.layers.len());
        for layer in &mut self.layers {
            x = layer.forward(&x, mode)?;
            trace.push(x.clone());
        }
        Ok(trace)
    }

    /// Runs a forward pass up to (excluding) the final layer, returning the
    /// penultimate representation — the "activations" that clustering
    /// defenses (AC, Spectral Signatures, SPECTRE, SCAn) operate on.
    ///
    /// # Errors
    ///
    /// Propagates layer failures; returns the input unchanged for models
    /// with fewer than 2 layers.
    pub fn penultimate(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let mut x = input.clone();
        let n = self.layers.len().saturating_sub(1);
        for layer in &mut self.layers[..n] {
            x = layer.forward(&x, mode)?;
        }
        Ok(x)
    }

    /// Copies all parameter values out of the model, in visit order.
    pub fn export_params(&self) -> Vec<Tensor> {
        let mut out = Vec::new();
        self.visit_params_shared(&mut |p| out.push(p.clone()));
        out
    }

    /// Copies all non-trainable state buffers (batch-norm running
    /// statistics) out of the model, in visit order.
    pub fn export_buffers(&self) -> Vec<Vec<f32>> {
        let mut out = Vec::new();
        self.visit_buffers_shared(&mut |b| out.push(b.to_vec()));
        out
    }

    /// Loads buffer values previously produced by
    /// [`Sequential::export_buffers`] on a structurally identical model.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::InvalidConfig`] if the buffer count or any
    /// length differs.
    pub fn import_buffers(&mut self, buffers: &[Vec<f32>]) -> Result<()> {
        let mut idx = 0;
        let mut err: Option<crate::NnError> = None;
        self.visit_buffers(&mut |b| {
            if err.is_some() {
                return;
            }
            match buffers.get(idx) {
                Some(src) if src.len() == b.len() => b.copy_from_slice(src),
                Some(src) => {
                    err = Some(crate::NnError::InvalidConfig {
                        reason: format!(
                            "buffer {idx} length mismatch: model {} vs import {}",
                            b.len(),
                            src.len()
                        ),
                    })
                }
                None => {
                    err = Some(crate::NnError::InvalidConfig {
                        reason: format!("too few buffers: needed more than {idx}"),
                    })
                }
            }
            idx += 1;
        });
        if let Some(e) = err {
            return Err(e);
        }
        if idx != buffers.len() {
            return Err(crate::NnError::InvalidConfig {
                reason: format!(
                    "too many buffers: model has {idx}, import has {}",
                    buffers.len()
                ),
            });
        }
        Ok(())
    }

    /// Loads parameter values previously produced by
    /// [`Sequential::export_params`] on a structurally identical model.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::InvalidConfig`] if the parameter count or
    /// any shape differs.
    pub fn import_params(&mut self, params: &[Tensor]) -> Result<()> {
        let mut idx = 0;
        let mut err: Option<crate::NnError> = None;
        self.visit_params(&mut |p, _| {
            if err.is_some() {
                return;
            }
            match params.get(idx) {
                Some(src) if src.shape() == p.shape() => *p = src.clone(),
                Some(src) => {
                    err = Some(crate::NnError::InvalidConfig {
                        reason: format!(
                            "parameter {idx} shape mismatch: model {:?} vs import {:?}",
                            p.shape(),
                            src.shape()
                        ),
                    })
                }
                None => {
                    err = Some(crate::NnError::InvalidConfig {
                        reason: format!("too few parameters: needed more than {idx}"),
                    })
                }
            }
            idx += 1;
        });
        if let Some(e) = err {
            return Err(e);
        }
        if idx != params.len() {
            return Err(crate::NnError::InvalidConfig {
                reason: format!(
                    "too many parameters: model has {idx}, import has {}",
                    params.len()
                ),
            });
        }
        Ok(())
    }
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, mode)?;
        }
        Ok(x)
    }

    /// Eval-mode forward with epilogue fusion: each `Conv2d` stores its
    /// output through the `BatchNorm2d` (over the same channels) and the
    /// `Relu` that directly follow it, instead of running them as separate
    /// passes. The epilogue keeps their scalar order, so the output is bit
    /// for bit that of `forward(input, Mode::Eval)`.
    fn forward_eval(&self, input: &Tensor) -> Result<Tensor> {
        let mut x: Option<Tensor> = None;
        let mut i = 0;
        while let Some(layer) = self.layers.get(i) {
            let cur = x.as_ref().unwrap_or(input);
            let (y, used) = match layer.fusable() {
                Fusable::Conv(conv) => conv_run(conv, &self.layers[i + 1..], cur)?,
                _ => (layer.forward_eval(cur)?, 1),
            };
            x = Some(y);
            i += used;
        }
        Ok(x.unwrap_or_else(|| input.clone()))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let g = backward_through(&mut self.layers, grad_output)?;
        Ok(g.unwrap_or_else(|| grad_output.clone()))
    }

    /// Backpropagates through every layer but the first, which only
    /// accumulates its parameter gradients.
    fn backward_params(&mut self, grad_output: &Tensor) -> Result<()> {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return Ok(());
        };
        let g = backward_through(rest, grad_output)?;
        first.backward_params(g.as_ref().unwrap_or(grad_output))
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    fn visit_params_shared(&self, f: &mut dyn FnMut(&Tensor)) {
        for layer in &self.layers {
            layer.visit_params_shared(f);
        }
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        for layer in &mut self.layers {
            layer.visit_buffers(f);
        }
    }

    fn visit_buffers_shared(&self, f: &mut dyn FnMut(&[f32])) {
        for layer in &self.layers {
            layer.visit_buffers_shared(f);
        }
    }

    fn name(&self) -> &'static str {
        "Sequential"
    }
}

/// Backpropagates `grad_output` through `layers` from last to first,
/// returning the gradient at their input (`None` for no layers).
fn backward_through(layers: &mut [Box<dyn Layer>], grad_output: &Tensor) -> Result<Option<Tensor>> {
    let mut g: Option<Tensor> = None;
    for layer in layers.iter_mut().rev() {
        g = Some(layer.backward(g.as_ref().unwrap_or(grad_output))?);
    }
    Ok(g)
}

/// Runs `conv` with the eval epilogue folded from the layers after it (a
/// batch norm over its output channels, then a ReLU), returning the
/// output and the number of layers it covered.
fn conv_run(conv: &Conv2d, rest: &[Box<dyn Layer>], input: &Tensor) -> Result<(Tensor, usize)> {
    let norm = match rest.first().map(|l| l.fusable()) {
        Some(Fusable::Norm(bn)) if bn.channels() == conv.out_channels() => Some(bn),
        _ => None,
    };
    let after = usize::from(norm.is_some());
    let relu = matches!(rest.get(after).map(|l| l.fusable()), Some(Fusable::Relu));
    let out = match norm {
        Some(bn) => bn.with_channel_norm(|n| conv.forward_eval_fused(input, Some(n), relu))?,
        None => conv.forward_eval_fused(input, None, relu)?,
    };
    Ok((out, 1 + after + usize::from(relu)))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{Dense, Relu};
    use bprom_tensor::Rng;

    fn tiny_net(rng: &mut Rng) -> Sequential {
        Sequential::new(vec![
            Box::new(Dense::new(3, 5, rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(5, 2, rng)),
        ])
    }

    #[test]
    fn forward_chains_layers() {
        let mut rng = Rng::new(0);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::randn(&[4, 3], &mut rng);
        let y = net.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.shape(), &[4, 2]);
    }

    #[test]
    fn export_import_round_trip() {
        let mut rng = Rng::new(1);
        let mut a = tiny_net(&mut rng);
        let mut b = tiny_net(&mut rng);
        let x = Tensor::randn(&[2, 3], &mut rng);
        let ya = a.forward(&x, Mode::Eval).unwrap();
        let yb = b.forward(&x, Mode::Eval).unwrap();
        assert_ne!(ya, yb);
        let params = a.export_params();
        b.import_params(&params).unwrap();
        let yb2 = b.forward(&x, Mode::Eval).unwrap();
        assert_eq!(ya, yb2);
    }

    #[test]
    fn import_rejects_wrong_count() {
        let mut rng = Rng::new(2);
        let mut net = tiny_net(&mut rng);
        let mut params = net.export_params();
        params.pop();
        assert!(net.import_params(&params).is_err());
        let mut extra = net.export_params();
        extra.push(Tensor::zeros(&[1]));
        assert!(net.import_params(&extra).is_err());
    }

    #[test]
    fn whole_net_gradient_finite_difference() {
        let mut rng = Rng::new(3);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::randn(&[2, 3], &mut rng);
        let y = net.forward(&x, Mode::Train).unwrap();
        let gx = net.backward(&y.map(|v| 2.0 * v)).unwrap();
        let eps = 1e-2;
        let mut x2 = x.clone();
        for flat in 0..x.len() {
            let orig = x2.data()[flat];
            x2.data_mut()[flat] = orig + eps;
            let lp = net.forward(&x2, Mode::Eval).unwrap().norm_sq();
            x2.data_mut()[flat] = orig - eps;
            let lm = net.forward(&x2, Mode::Eval).unwrap().norm_sq();
            x2.data_mut()[flat] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - gx.data()[flat]).abs() < 3e-2);
        }
    }

    /// Moves a model off its freshly built state, where a wrong epilogue
    /// order can still pass (batch-norm mean 0, variance 1, γ = 1, β = 0,
    /// zero biases): every parameter gets noise, every running mean a
    /// signed value and every running variance a positive one.
    pub(crate) fn perturb_for_eval(net: &mut Sequential, rng: &mut Rng) {
        net.visit_params(&mut |p, _| {
            for v in p.data_mut() {
                *v += 0.5 * rng.normal();
            }
        });
        // Batch-norm buffers come as (running mean, running var) pairs.
        let mut idx = 0;
        net.visit_buffers(&mut |b| {
            for v in b.iter_mut() {
                *v = if idx % 2 == 0 {
                    rng.normal()
                } else {
                    0.1 + 2.0 * rng.uniform()
                };
            }
            idx += 1;
        });
    }

    #[test]
    fn forward_eval_matches_eval_forward_exactly() {
        use crate::{BatchNorm2d, Conv2d, GlobalAvgPool, Residual};
        let mut rng = Rng::new(5);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::randn(&[4, 3], &mut rng);
        net.forward(&x, Mode::Train).unwrap();
        let y_mut = net.forward(&x, Mode::Eval).unwrap();
        let y_shared = net.forward_eval(&x).unwrap();
        assert_eq!(y_mut, y_shared);

        // Every fusable run shape: conv → bn → relu, conv → bn, conv →
        // relu, a bare conv, and a batch norm over other channels that
        // must not fold.
        let mut net = Sequential::new(vec![
            Box::new(Conv2d::new(3, 6, 3, 1, 1, &mut rng)),
            Box::new(BatchNorm2d::new(6)),
            Box::new(Relu::new()),
            Box::new(Residual::new(Sequential::new(vec![
                Box::new(Conv2d::new(6, 6, 3, 1, 1, &mut rng)),
                Box::new(BatchNorm2d::new(6)),
            ]))),
            Box::new(Conv2d::new(6, 10, 3, 2, 1, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Conv2d::new(10, 4, 1, 1, 0, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Relu::new()),
            Box::new(Conv2d::new(4, 4, 3, 1, 1, &mut rng)),
            Box::new(GlobalAvgPool::new()),
        ]);
        perturb_for_eval(&mut net, &mut rng);
        let x = Tensor::randn(&[48, 3, 16, 16], &mut rng);
        let y_mut = net.forward(&x, Mode::Eval).unwrap();
        let y_shared = net.forward_eval(&x).unwrap();
        assert_eq!(y_mut, y_shared);
        assert!(y_shared.data().iter().any(|&v| v != 0.0));

        let mut mismatched = Sequential::new(vec![
            Box::new(Conv2d::new(3, 6, 3, 1, 1, &mut rng)),
            Box::new(BatchNorm2d::new(4)),
        ]);
        let x = Tensor::randn(&[2, 3, 8, 8], &mut rng);
        assert!(mismatched.forward(&x, Mode::Eval).is_err());
        assert!(mismatched.forward_eval(&x).is_err());
    }

    #[test]
    fn buffer_export_import_round_trip_carries_batchnorm_stats() {
        use crate::BatchNorm2d;
        let mut rng = Rng::new(8);
        let mut a = Sequential::new(vec![Box::new(BatchNorm2d::new(2))]);
        // Train-mode forwards update the running statistics.
        let x = Tensor::randn(&[3, 2, 4, 4], &mut rng);
        a.forward(&x, Mode::Train).unwrap();
        a.forward(&x, Mode::Train).unwrap();
        let buffers = a.export_buffers();
        assert_eq!(buffers.len(), 2); // running mean + running var

        let mut b = Sequential::new(vec![Box::new(BatchNorm2d::new(2))]);
        b.import_params(&a.export_params()).unwrap();
        b.import_buffers(&buffers).unwrap();
        // Eval-mode forward uses the running statistics, so outputs only
        // match if the buffers actually made it across.
        let ya = a.forward(&x, Mode::Eval).unwrap();
        let yb = b.forward(&x, Mode::Eval).unwrap();
        assert_eq!(ya, yb);

        let mut wrong = vec![vec![0.0f32; 2]];
        assert!(b.import_buffers(&wrong).is_err());
        wrong.push(vec![0.0f32; 3]);
        assert!(b.import_buffers(&wrong).is_err());
    }

    #[test]
    fn models_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Sequential>();
    }

    #[test]
    fn param_count_sums_layers() {
        let mut rng = Rng::new(4);
        let mut net = tiny_net(&mut rng);
        assert_eq!(net.param_count(), 3 * 5 + 5 + 5 * 2 + 2);
    }
}
