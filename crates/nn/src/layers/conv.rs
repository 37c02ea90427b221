use crate::layer::{Fusable, Layer, Mode, Param};
use crate::{init, NnError, Result};
use bprom_tensor::{
    conv2d, conv2d_backward_input, conv2d_backward_weight, ChannelNorm, ConvWeight, Epilogue, Rng,
    Tensor,
};

/// 2-D convolution layer over NCHW input, with bias.
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Param,
    bias: Param,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution with a square `kernel`, Kaiming init, zero bias.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut Rng,
    ) -> Self {
        let fan_in = in_channels * kernel * kernel;
        Conv2d {
            weight: Param::new(init::kaiming(
                &[out_channels, in_channels, kernel, kernel],
                fan_in,
                rng,
            )),
            bias: Param::new(Tensor::zeros(&[out_channels])),
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            cached_input: None,
        }
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// The input of the last caching forward pass.
    fn cached_input(&self) -> Result<&Tensor> {
        self.cached_input
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "Conv2d" })
    }

    /// Eval-mode forward with `norm` and `relu` folded into the output
    /// store after the bias (see [`Epilogue`]): bit for bit the separate
    /// `BatchNorm2d` and `Relu` passes.
    pub(crate) fn forward_eval_fused(
        &self,
        input: &Tensor,
        norm: Option<ChannelNorm<'_>>,
        relu: bool,
    ) -> Result<Tensor> {
        let weight = ConvWeight {
            weight: &self.weight.value,
            epilogue: Epilogue {
                bias: Some(self.bias.value.data()),
                norm,
                relu,
            },
        };
        Ok(conv2d(input, weight, self.stride, self.padding)?)
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let out = self.forward_eval(input)?;
        if mode.caches() {
            self.cached_input = Some(input.clone());
        }
        Ok(out)
    }

    fn forward_eval(&self, input: &Tensor) -> Result<Tensor> {
        self.forward_eval_fused(input, None, false)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        self.backward_params(grad_output)?;
        let input_shape = self.cached_input()?.shape();
        Ok(conv2d_backward_input(
            &self.weight.value,
            grad_output,
            input_shape,
            self.stride,
            self.padding,
        )?)
    }

    /// The weight and bias gradients without the input gradient.
    fn backward_params(&mut self, grad_output: &Tensor) -> Result<()> {
        let input = self.cached_input()?;
        let dw = conv2d_backward_weight(
            input,
            grad_output,
            (self.kernel, self.kernel),
            self.stride,
            self.padding,
        )?;
        self.weight.grad.add_in_place(&dw)?;
        // Bias gradient: sum over batch and spatial dims.
        let (n, o) = (grad_output.shape()[0], grad_output.shape()[1]);
        let hw = grad_output.shape()[2] * grad_output.shape()[3];
        let gb = self.bias.grad.data_mut();
        for ni in 0..n {
            for oi in 0..o {
                let base = (ni * o + oi) * hw;
                gb[oi] += grad_output.data()[base..base + hw].iter().sum::<f32>();
            }
        }
        Ok(())
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        self.weight.visit(f);
        self.bias.visit(f);
    }

    fn visit_params_shared(&self, f: &mut dyn FnMut(&Tensor)) {
        self.weight.visit_shared(f);
        self.bias.visit_shared(f);
    }

    fn name(&self) -> &'static str {
        "Conv2d"
    }

    fn fusable(&self) -> Fusable<'_> {
        Fusable::Conv(self)
    }
}

/// Depthwise 2-D convolution: each input channel is convolved with its own
/// single-channel kernel (`groups == channels`), as in MobileNet.
#[derive(Debug, Clone)]
pub struct DepthwiseConv2d {
    /// One `[1, 1, k, k]`-shaped kernel per channel, stored `[c, k, k]`.
    weight: Param,
    bias: Param,
    channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    cached_input: Option<Tensor>,
}

impl DepthwiseConv2d {
    /// Creates a depthwise convolution with a square `kernel`.
    pub fn new(
        channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut Rng,
    ) -> Self {
        let fan_in = kernel * kernel;
        DepthwiseConv2d {
            weight: Param::new(init::kaiming(&[channels, kernel, kernel], fan_in, rng)),
            bias: Param::new(Tensor::zeros(&[channels])),
            channels,
            kernel,
            stride,
            padding,
            cached_input: None,
        }
    }

    /// Gathers channel `c` of every sample into a `[n, 1, h, w]` batch,
    /// so each channel runs through the batched conv kernels once
    /// instead of once per sample.
    fn channel_batch(t: &Tensor, c: usize) -> Tensor {
        let (n, ch, h, w) = (t.shape()[0], t.shape()[1], t.shape()[2], t.shape()[3]);
        let hw = h * w;
        let mut out = vec![0.0f32; n * hw];
        for ni in 0..n {
            let base = (ni * ch + c) * hw;
            out[ni * hw..(ni + 1) * hw].copy_from_slice(&t.data()[base..base + hw]);
        }
        Tensor::from_vec(out, &[n, 1, h, w])
            .expect("channel batch shape is consistent by construction")
    }

    /// Inverse of [`Self::channel_batch`]: adds a `[n, 1, h, w]` batch
    /// into channel `c` of an `[n, ch, h, w]` accumulator.
    fn scatter_channel(acc: &mut Tensor, src: &Tensor, c: usize) {
        let (n, ch, h, w) = (
            acc.shape()[0],
            acc.shape()[1],
            acc.shape()[2],
            acc.shape()[3],
        );
        let hw = h * w;
        for ni in 0..n {
            let base = (ni * ch + c) * hw;
            for (a, &s) in acc.data_mut()[base..base + hw]
                .iter_mut()
                .zip(&src.data()[ni * hw..(ni + 1) * hw])
            {
                *a += s;
            }
        }
    }

    fn kernel_tensor(&self, c: usize) -> Tensor {
        let k = self.kernel;
        Tensor::from_vec(
            self.weight.value.data()[c * k * k..(c + 1) * k * k].to_vec(),
            &[1, 1, k, k],
        )
        .expect("kernel slice shape is consistent by construction")
    }
}

impl Layer for DepthwiseConv2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let out = self.forward_eval(input)?;
        if mode.caches() {
            self.cached_input = Some(input.clone());
        }
        Ok(out)
    }

    fn forward_eval(&self, input: &Tensor) -> Result<Tensor> {
        if input.rank() != 4 || input.shape()[1] != self.channels {
            return Err(NnError::Tensor(bprom_tensor::TensorError::InvalidShape {
                reason: format!(
                    "DepthwiseConv2d expects [n, {}, h, w], got {:?}",
                    self.channels,
                    input.shape()
                ),
            }));
        }
        let n = input.shape()[0];
        let mut out: Option<Tensor> = None;
        for ci in 0..self.channels {
            let x = Self::channel_batch(input, ci);
            let w = self.kernel_tensor(ci);
            let mut y = conv2d(&x, &w, self.stride, self.padding)?;
            let bv = self.bias.value.data()[ci];
            y.map_in_place(|v| v + bv);
            let (oh, ow) = (y.shape()[2], y.shape()[3]);
            let dst = out.get_or_insert_with(|| Tensor::zeros(&[n, self.channels, oh, ow]));
            let hw = oh * ow;
            for ni in 0..n {
                let base = (ni * self.channels + ci) * hw;
                dst.data_mut()[base..base + hw].copy_from_slice(&y.data()[ni * hw..(ni + 1) * hw]);
            }
        }
        out.ok_or_else(|| {
            NnError::Tensor(bprom_tensor::TensorError::InvalidShape {
                reason: "DepthwiseConv2d requires at least one channel".to_string(),
            })
        })
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward {
                layer: "DepthwiseConv2d",
            })?;
        let n = input.shape()[0];
        let (h, w) = (input.shape()[2], input.shape()[3]);
        let k = self.kernel;
        let mut grad_in = Tensor::zeros(input.shape());
        for ci in 0..self.channels {
            let x = Self::channel_batch(input, ci);
            let go = Self::channel_batch(grad_output, ci);
            let wt = self.kernel_tensor(ci);
            let dw = conv2d_backward_weight(&x, &go, (k, k), self.stride, self.padding)?;
            for (g, &d) in self.weight.grad.data_mut()[ci * k * k..(ci + 1) * k * k]
                .iter_mut()
                .zip(dw.data())
            {
                *g += d;
            }
            self.bias.grad.data_mut()[ci] += go.sum();
            let dx = conv2d_backward_input(&wt, &go, &[n, 1, h, w], self.stride, self.padding)?;
            Self::scatter_channel(&mut grad_in, &dx, ci);
        }
        Ok(grad_in)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        self.weight.visit(f);
        self.bias.visit(f);
    }

    fn visit_params_shared(&self, f: &mut dyn FnMut(&Tensor)) {
        self.weight.visit_shared(f);
        self.bias.visit_shared(f);
    }

    fn name(&self) -> &'static str {
        "DepthwiseConv2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_forward_shape() {
        let mut rng = Rng::new(0);
        let mut layer = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[2, 3, 16, 16], &mut rng);
        let y = layer.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.shape(), &[2, 8, 16, 16]);
        let mut strided = Conv2d::new(3, 8, 3, 2, 1, &mut rng);
        let y2 = strided.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y2.shape(), &[2, 8, 8, 8]);
    }

    #[test]
    fn conv_bias_shifts_output() {
        let mut rng = Rng::new(1);
        let mut layer = Conv2d::new(1, 1, 1, 1, 0, &mut rng);
        layer.weight.value = Tensor::zeros(&[1, 1, 1, 1]);
        layer.bias.value = Tensor::from_vec(vec![3.5], &[1]).unwrap();
        let x = Tensor::randn(&[1, 1, 4, 4], &mut rng);
        let y = layer.forward(&x, Mode::Eval).unwrap();
        assert!(y.data().iter().all(|&v| (v - 3.5).abs() < 1e-6));
    }

    #[test]
    fn conv_gradient_finite_difference() {
        let mut rng = Rng::new(2);
        let mut layer = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[1, 2, 6, 6], &mut rng);
        layer.forward(&x, Mode::Train).unwrap();
        let go = Tensor::ones(&[1, 3, 6, 6]);
        let gx = layer.backward(&go).unwrap();
        assert_eq!(gx.shape(), x.shape());
        let eps = 1e-2;
        let mut x2 = x.clone();
        for &flat in &[0usize, 20, 71] {
            let orig = x2.data()[flat];
            x2.data_mut()[flat] = orig + eps;
            let lp = layer.forward(&x2, Mode::Eval).unwrap().sum();
            x2.data_mut()[flat] = orig - eps;
            let lm = layer.forward(&x2, Mode::Eval).unwrap().sum();
            x2.data_mut()[flat] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - gx.data()[flat]).abs() < 2e-2, "flat {flat}");
        }
    }

    #[test]
    fn depthwise_forward_is_per_channel() {
        let mut rng = Rng::new(3);
        let mut layer = DepthwiseConv2d::new(2, 3, 1, 1, &mut rng);
        // Zero out channel 1's kernel: its output must be exactly the bias.
        for v in layer.weight.value.data_mut()[9..18].iter_mut() {
            *v = 0.0;
        }
        layer.bias.value.data_mut()[1] = 7.0;
        let x = Tensor::randn(&[1, 2, 5, 5], &mut rng);
        let y = layer.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.shape(), &[1, 2, 5, 5]);
        for i in 25..50 {
            assert!((y.data()[i] - 7.0).abs() < 1e-6);
        }
    }

    #[test]
    fn depthwise_gradient_finite_difference() {
        let mut rng = Rng::new(4);
        let mut layer = DepthwiseConv2d::new(2, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[1, 2, 5, 5], &mut rng);
        layer.forward(&x, Mode::Train).unwrap();
        let go = Tensor::ones(&[1, 2, 5, 5]);
        let gx = layer.backward(&go).unwrap();
        let eps = 1e-2;
        let mut x2 = x.clone();
        for &flat in &[0usize, 13, 37, 49] {
            let orig = x2.data()[flat];
            x2.data_mut()[flat] = orig + eps;
            let lp = layer.forward(&x2, Mode::Eval).unwrap().sum();
            x2.data_mut()[flat] = orig - eps;
            let lm = layer.forward(&x2, Mode::Eval).unwrap().sum();
            x2.data_mut()[flat] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - gx.data()[flat]).abs() < 2e-2, "flat {flat}");
        }
    }

    #[test]
    fn depthwise_rejects_wrong_channels() {
        let mut rng = Rng::new(5);
        let mut layer = DepthwiseConv2d::new(3, 3, 1, 1, &mut rng);
        let x = Tensor::zeros(&[1, 2, 5, 5]);
        assert!(layer.forward(&x, Mode::Eval).is_err());
    }
}
