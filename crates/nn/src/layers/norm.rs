use crate::layer::{Fusable, Layer, Mode, Param};
use crate::{NnError, Result};
use bprom_tensor::{ChannelNorm, Tensor};

const EPS: f32 = 1e-5;

/// Batch normalization over the channel axis of NCHW input.
///
/// Training mode normalizes with batch statistics and updates running
/// estimates; eval mode uses the running estimates.
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    channels: usize,
    cache: Option<BnCache>,
}

#[derive(Debug, Clone)]
struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
    input_shape: Vec<usize>,
    /// Whether the forward pass used frozen (running) statistics; the
    /// backward formula then treats mean/var as constants.
    frozen: bool,
}

impl BatchNorm2d {
    /// Creates batch normalization for `channels` feature maps.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Param::new(Tensor::ones(&[channels])),
            beta: Param::new(Tensor::zeros(&[channels])),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            channels,
            cache: None,
        }
    }

    /// Number of normalized channels.
    pub(crate) fn channels(&self) -> usize {
        self.channels
    }

    /// Runs `f` with the eval-mode normalization as a per-channel affine
    /// map over the running statistics — the same scalar steps as
    /// `forward`'s frozen-statistics branch.
    pub(crate) fn with_channel_norm<R>(&self, f: impl FnOnce(ChannelNorm<'_>) -> R) -> R {
        let inv_std: Vec<f32> = self
            .running_var
            .iter()
            .map(|&var| 1.0 / (var + EPS).sqrt())
            .collect();
        f(ChannelNorm {
            mean: &self.running_mean,
            inv_std: &inv_std,
            gamma: self.gamma.value.data(),
            beta: self.beta.value.data(),
        })
    }

    fn check_input(&self, input: &Tensor) -> Result<()> {
        if input.rank() != 4 || input.shape()[1] != self.channels {
            return Err(NnError::Tensor(bprom_tensor::TensorError::InvalidShape {
                reason: format!(
                    "BatchNorm2d expects [n, {}, h, w], got {:?}",
                    self.channels,
                    input.shape()
                ),
            }));
        }
        Ok(())
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        if mode == Mode::Eval {
            // Delegating keeps train/eval arithmetic bit-identical.
            return self.forward_eval(input);
        }
        self.check_input(input)?;
        let (n, c, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        let plane = h * w;
        let count = (n * plane) as f32;
        let x = input.data();
        let stats: Vec<(f32, f32)> = match mode {
            Mode::Frozen | Mode::Eval => self
                .running_mean
                .iter()
                .copied()
                .zip(self.running_var.iter().copied())
                .collect(),
            Mode::Train => channel_sums(x, x, c, plane)
                .into_iter()
                .enumerate()
                .map(|(ci, (sum, sq))| {
                    let mean = sum / count;
                    let var = (sq / count - mean * mean).max(0.0);
                    self.running_mean[ci] =
                        (1.0 - self.momentum) * self.running_mean[ci] + self.momentum * mean;
                    self.running_var[ci] =
                        (1.0 - self.momentum) * self.running_var[ci] + self.momentum * var;
                    (mean, var)
                })
                .collect(),
        };
        let inv_stds: Vec<f32> = stats
            .iter()
            .map(|&(_, var)| 1.0 / (var + EPS).sqrt())
            .collect();
        let mut out = Tensor::zeros(input.shape());
        let mut x_hat = Tensor::zeros(input.shape());
        let planes = x
            .chunks_exact(plane)
            .zip(x_hat.data_mut().chunks_exact_mut(plane))
            .zip(out.data_mut().chunks_exact_mut(plane));
        for (i, ((x_p, xh_p), out_p)) in planes.enumerate() {
            let ci = i % c;
            let (mean, inv_std) = (stats[ci].0, inv_stds[ci]);
            let (g, b) = (self.gamma.value.data()[ci], self.beta.value.data()[ci]);
            for ((&v, xh), o) in x_p.iter().zip(xh_p.iter_mut()).zip(out_p.iter_mut()) {
                *xh = (v - mean) * inv_std;
                *o = g * *xh + b;
            }
        }
        if mode.caches() {
            self.cache = Some(BnCache {
                x_hat,
                inv_std: inv_stds,
                input_shape: input.shape().to_vec(),
                frozen: mode == Mode::Frozen,
            });
        }
        Ok(out)
    }

    fn forward_eval(&self, input: &Tensor) -> Result<Tensor> {
        self.check_input(input)?;
        let plane = input.shape()[2] * input.shape()[3];
        let mut out = input.clone();
        self.with_channel_norm(|norm| {
            for (i, vals) in out.data_mut().chunks_exact_mut(plane).enumerate() {
                norm.apply(i % self.channels, vals);
            }
        });
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let cache = self.cache.as_ref().ok_or(NnError::BackwardBeforeForward {
            layer: "BatchNorm2d",
        })?;
        let shape = &cache.input_shape;
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let plane = h * w;
        let count = (n * plane) as f32;
        let dy = grad_output.data();
        // Per channel: (Σ dy, Σ dy·x̂) for the batch-norm backward formula.
        let sums = channel_sums(dy, cache.x_hat.data(), c, plane);
        for (ci, &(sum_dy, sum_dy_xhat)) in sums.iter().enumerate() {
            self.gamma.grad.data_mut()[ci] += sum_dy_xhat;
            self.beta.grad.data_mut()[ci] += sum_dy;
        }
        let mut grad_in = Tensor::zeros(grad_output.shape());
        let planes = dy
            .chunks_exact(plane)
            .zip(cache.x_hat.data().chunks_exact(plane))
            .zip(grad_in.data_mut().chunks_exact_mut(plane));
        for (i, ((dy_p, xh_p), gi_p)) in planes.enumerate() {
            let ci = i % c;
            let (g, inv_std) = (self.gamma.value.data()[ci], cache.inv_std[ci]);
            if cache.frozen {
                // Frozen statistics are constants: dx = gamma * inv_std * dy.
                let scale = g * inv_std;
                for (gi, &d) in gi_p.iter_mut().zip(dy_p) {
                    *gi = scale * d;
                }
            } else {
                // dx = gamma*inv_std/count * (count*dy - sum_dy - x_hat*sum_dy_xhat)
                let scale = g * inv_std / count;
                let (sum_dy, sum_dy_xhat) = sums[ci];
                for ((gi, &d), &xh) in gi_p.iter_mut().zip(dy_p).zip(xh_p) {
                    *gi = scale * (count * d - sum_dy - xh * sum_dy_xhat);
                }
            }
        }
        Ok(grad_in)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        self.gamma.visit(f);
        self.beta.visit(f);
    }

    fn visit_params_shared(&self, f: &mut dyn FnMut(&Tensor)) {
        self.gamma.visit_shared(f);
        self.beta.visit_shared(f);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        f(&mut self.running_mean);
        f(&mut self.running_var);
    }

    fn visit_buffers_shared(&self, f: &mut dyn FnMut(&[f32])) {
        f(&self.running_mean);
        f(&self.running_var);
    }

    fn name(&self) -> &'static str {
        "BatchNorm2d"
    }

    fn fusable(&self) -> Fusable<'_> {
        Fusable::Norm(self)
    }
}

/// Per-channel `(Σ a, Σ a·b)` over an NCHW batch (`a` and `b` alike
/// shaped, `c` channels of `plane` values per sample). Each channel's two
/// sums are serial chains over its values in increasing `(n, h·w)` order
/// from `+0.0`, as a plain per-channel loop computes them; four channels
/// run interleaved so their add latencies overlap.
fn channel_sums(a: &[f32], b: &[f32], c: usize, plane: usize) -> Vec<(f32, f32)> {
    let mut sums = vec![(0.0, 0.0); c];
    let mut c0 = 0;
    while c0 < c {
        c0 += match c - c0 {
            1 => channel_block_sums::<1>(a, b, c, plane, c0, &mut sums),
            2 => channel_block_sums::<2>(a, b, c, plane, c0, &mut sums),
            3 => channel_block_sums::<3>(a, b, c, plane, c0, &mut sums),
            _ => channel_block_sums::<4>(a, b, c, plane, c0, &mut sums),
        };
    }
    sums
}

/// [`channel_sums`] for channels `c0..c0 + B`; returns `B`.
fn channel_block_sums<const B: usize>(
    a: &[f32],
    b: &[f32],
    c: usize,
    plane: usize,
    c0: usize,
    sums: &mut [(f32, f32)],
) -> usize {
    let (mut sa, mut sab) = ([0.0f32; B], [0.0f32; B]);
    for base in (c0 * plane..a.len()).step_by(c * plane) {
        let rows_a: [&[f32]; B] = std::array::from_fn(|k| &a[base + k * plane..][..plane]);
        let rows_b: [&[f32]; B] = std::array::from_fn(|k| &b[base + k * plane..][..plane]);
        for j in 0..plane {
            for k in 0..B {
                let v = rows_a[k][j];
                sa[k] += v;
                sab[k] += v * rows_b[k][j];
            }
        }
    }
    for (k, sum) in sums[c0..c0 + B].iter_mut().enumerate() {
        *sum = (sa[k], sab[k]);
    }
    B
}

/// Layer normalization over the last axis of `[n, t, d]` token tensors,
/// with learned per-feature scale and shift.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gamma: Param,
    beta: Param,
    dim: usize,
    cache: Option<LnCache>,
}

#[derive(Debug, Clone)]
struct LnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
}

impl LayerNorm {
    /// Creates layer normalization over feature width `dim`.
    pub fn new(dim: usize) -> Self {
        LayerNorm {
            gamma: Param::new(Tensor::ones(&[dim])),
            beta: Param::new(Tensor::zeros(&[dim])),
            dim,
            cache: None,
        }
    }

    /// Shared normalization kernel: returns `(out, x_hat, inv_stds)` so
    /// the caching and cache-free paths compute identical outputs.
    fn normalize(&self, input: &Tensor) -> Result<(Tensor, Tensor, Vec<f32>)> {
        let d = self.dim;
        if input.len() % d != 0 || *input.shape().last().unwrap_or(&0) != d {
            return Err(NnError::Tensor(bprom_tensor::TensorError::InvalidShape {
                reason: format!(
                    "LayerNorm({d}) expects trailing dim {d}, got {:?}",
                    input.shape()
                ),
            }));
        }
        let rows = input.len() / d;
        let mut out = Tensor::zeros(input.shape());
        let mut x_hat = Tensor::zeros(input.shape());
        let mut inv_stds = vec![0.0f32; rows];
        for r in 0..rows {
            let row = &input.data()[r * d..(r + 1) * d];
            let mean = row.iter().sum::<f32>() / d as f32;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
            let inv_std = 1.0 / (var + EPS).sqrt();
            inv_stds[r] = inv_std;
            for i in 0..d {
                let xh = (row[i] - mean) * inv_std;
                x_hat.data_mut()[r * d + i] = xh;
                out.data_mut()[r * d + i] =
                    self.gamma.value.data()[i] * xh + self.beta.value.data()[i];
            }
        }
        Ok((out, x_hat, inv_stds))
    }
}

impl Layer for LayerNorm {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let (out, x_hat, inv_stds) = self.normalize(input)?;
        if mode.caches() {
            self.cache = Some(LnCache {
                x_hat,
                inv_std: inv_stds,
            });
        }
        Ok(out)
    }

    fn forward_eval(&self, input: &Tensor) -> Result<Tensor> {
        let (out, _, _) = self.normalize(input)?;
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let cache = self
            .cache
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "LayerNorm" })?;
        let d = self.dim;
        let rows = grad_output.len() / d;
        let mut grad_in = Tensor::zeros(grad_output.shape());
        for r in 0..rows {
            let mut sum_dy = 0.0f32;
            let mut sum_dy_xhat = 0.0f32;
            for i in 0..d {
                let dy = grad_output.data()[r * d + i] * self.gamma.value.data()[i];
                let xh = cache.x_hat.data()[r * d + i];
                sum_dy += dy;
                sum_dy_xhat += dy * xh;
            }
            let inv_std = cache.inv_std[r];
            for i in 0..d {
                let dy = grad_output.data()[r * d + i] * self.gamma.value.data()[i];
                let xh = cache.x_hat.data()[r * d + i];
                grad_in.data_mut()[r * d + i] =
                    inv_std / d as f32 * (d as f32 * dy - sum_dy - xh * sum_dy_xhat);
            }
        }
        for i in 0..d {
            let mut gg = 0.0f32;
            let mut gb = 0.0f32;
            for r in 0..rows {
                gg += grad_output.data()[r * d + i] * cache.x_hat.data()[r * d + i];
                gb += grad_output.data()[r * d + i];
            }
            self.gamma.grad.data_mut()[i] += gg;
            self.beta.grad.data_mut()[i] += gb;
        }
        Ok(grad_in)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        self.gamma.visit(f);
        self.beta.visit(f);
    }

    fn visit_params_shared(&self, f: &mut dyn FnMut(&Tensor)) {
        self.gamma.visit_shared(f);
        self.beta.visit_shared(f);
    }

    fn name(&self) -> &'static str {
        "LayerNorm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bprom_tensor::Rng;

    #[test]
    fn batchnorm_train_normalizes() {
        let mut rng = Rng::new(0);
        let mut bn = BatchNorm2d::new(3);
        let x = Tensor::randn(&[4, 3, 5, 5], &mut rng).map(|v| v * 3.0 + 2.0);
        let y = bn.forward(&x, Mode::Train).unwrap();
        // Per-channel output mean ≈ 0, var ≈ 1 (gamma=1, beta=0).
        for ci in 0..3 {
            let mut vals = Vec::new();
            for ni in 0..4 {
                for hi in 0..5 {
                    for wi in 0..5 {
                        vals.push(y.at(&[ni, ci, hi, wi]).unwrap());
                    }
                }
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean={mean}");
            assert!((var - 1.0).abs() < 1e-2, "var={var}");
        }
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let mut rng = Rng::new(1);
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::randn(&[8, 2, 4, 4], &mut rng);
        for _ in 0..50 {
            bn.forward(&x, Mode::Train).unwrap();
        }
        let y_train = bn.forward(&x, Mode::Train).unwrap();
        let y_eval = bn.forward(&x, Mode::Eval).unwrap();
        // After many passes on the same batch, running stats converge to the
        // batch stats, so eval output approaches train output.
        let diff: f32 = y_train
            .data()
            .iter()
            .zip(y_eval.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max);
        assert!(diff < 0.1, "diff={diff}");
    }

    #[test]
    fn batchnorm_gradient_finite_difference() {
        let mut rng = Rng::new(2);
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::randn(&[2, 2, 3, 3], &mut rng);
        // Use a quadratic loss so the gradient isn't trivially zero
        // (sum of normalized outputs is ~0 regardless of input).
        let y = bn.forward(&x, Mode::Train).unwrap();
        let go = y.map(|v| 2.0 * v); // d/dy of sum(y^2)
        let gx = bn.backward(&go).unwrap();
        let eps = 1e-2;
        let mut x2 = x.clone();
        for &flat in &[0usize, 9, 17, 35] {
            let orig = x2.data()[flat];
            x2.data_mut()[flat] = orig + eps;
            let mut bn_p = BatchNorm2d::new(2);
            bn_p.gamma = bn.gamma.clone();
            bn_p.beta = bn.beta.clone();
            let lp = bn_p.forward(&x2, Mode::Train).unwrap().norm_sq();
            x2.data_mut()[flat] = orig - eps;
            let lm = bn_p.forward(&x2, Mode::Train).unwrap().norm_sq();
            x2.data_mut()[flat] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - gx.data()[flat]).abs() < 5e-2,
                "flat={flat}: {num} vs {}",
                gx.data()[flat]
            );
        }
    }

    #[test]
    fn layernorm_normalizes_rows() {
        let mut rng = Rng::new(3);
        let mut ln = LayerNorm::new(8);
        let x = Tensor::randn(&[2, 4, 8], &mut rng).map(|v| v * 5.0 - 1.0);
        let y = ln.forward(&x, Mode::Eval).unwrap();
        for r in 0..8 {
            let row = &y.data()[r * 8..(r + 1) * 8];
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-4);
        }
    }

    #[test]
    fn layernorm_gradient_finite_difference() {
        let mut rng = Rng::new(4);
        let mut ln = LayerNorm::new(6);
        let x = Tensor::randn(&[2, 6], &mut rng);
        let y = ln.forward(&x, Mode::Train).unwrap();
        let go = y.map(|v| 2.0 * v);
        let gx = ln.backward(&go).unwrap();
        let eps = 1e-2;
        let mut x2 = x.clone();
        for flat in 0..x.len() {
            let orig = x2.data()[flat];
            x2.data_mut()[flat] = orig + eps;
            let lp = ln.forward(&x2, Mode::Eval).unwrap().norm_sq();
            x2.data_mut()[flat] = orig - eps;
            let lm = ln.forward(&x2, Mode::Eval).unwrap().norm_sq();
            x2.data_mut()[flat] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - gx.data()[flat]).abs() < 5e-2,
                "flat={flat}: {num} vs {}",
                gx.data()[flat]
            );
        }
    }

    #[test]
    fn wrong_channel_count_is_error() {
        let mut bn = BatchNorm2d::new(3);
        assert!(bn
            .forward(&Tensor::zeros(&[1, 2, 4, 4]), Mode::Eval)
            .is_err());
        let mut ln = LayerNorm::new(4);
        assert!(ln.forward(&Tensor::zeros(&[2, 5]), Mode::Eval).is_err());
    }
}
