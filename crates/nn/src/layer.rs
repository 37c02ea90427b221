use crate::{BatchNorm2d, Conv2d, Result};
use bprom_tensor::Tensor;

/// Whether a forward pass is part of training or inference.
///
/// Affects layers with distinct train/eval behaviour: [`crate::BatchNorm2d`]
/// (batch vs running statistics) and [`crate::Dropout`] (active vs identity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Mode {
    /// Training pass: stochastic layers are active, normalization uses
    /// batch statistics, and activations are cached for `backward`.
    Train,
    /// Frozen-model differentiation pass (visual prompting): activations
    /// are cached so `backward` can compute *input* gradients, but the
    /// model itself is treated as immutable — normalization uses running
    /// statistics without updating them and dropout is inactive.
    Frozen,
    /// Inference pass: deterministic behaviour, running statistics.
    #[default]
    Eval,
}

impl Mode {
    /// Whether layers should cache activations for a later `backward`.
    pub fn caches(self) -> bool {
        !matches!(self, Mode::Eval)
    }

    /// Whether the pass may mutate model state (batch-norm running stats)
    /// and activate stochastic layers.
    pub fn trains(self) -> bool {
        matches!(self, Mode::Train)
    }
}

/// A differentiable network layer with explicit forward/backward passes.
///
/// Implementations cache whatever their backward pass needs during
/// `forward(Mode::Train)`. Calling [`Layer::backward`] without a prior
/// training-mode forward returns [`crate::NnError::BackwardBeforeForward`].
///
/// Layers are `Send + Sync`: they hold only plain data (tensors, scalar
/// hyperparameters, an owned `Rng`), which lets whole models cross the
/// `bprom-par` worker-pool boundary and lets [`Layer::forward_eval`]
/// serve concurrent inference through shared references.
pub trait Layer: Send + Sync {
    /// Computes the layer output for a batch.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible with the layer.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor>;

    /// Inference forward pass through a shared reference: bit-identical
    /// to `forward(input, Mode::Eval)` but guaranteed side-effect-free
    /// (no activation caching, no statistics updates), so one model can
    /// serve queries from many threads at once.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible with the layer.
    fn forward_eval(&self, input: &Tensor) -> Result<Tensor>;

    /// Propagates the loss gradient from output to input, accumulating
    /// parameter gradients along the way.
    ///
    /// # Errors
    ///
    /// Returns an error if called before a training-mode forward pass or if
    /// `grad_output` has the wrong shape.
    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor>;

    /// Accumulates the parameter gradients [`Layer::backward`] would, bit
    /// for bit, for a caller that discards the input gradient — a
    /// training step on a model's first layer ([`crate::Trainer::fit`]).
    /// Layers that can skip that gradient's computation override it; the
    /// default runs `backward` and drops the result.
    ///
    /// # Errors
    ///
    /// As [`Layer::backward`].
    fn backward_params(&mut self, grad_output: &Tensor) -> Result<()> {
        self.backward(grad_output).map(drop)
    }

    /// Visits every `(parameter, gradient)` pair in a stable order.
    ///
    /// Optimizers rely on the visit order being identical across calls to
    /// associate per-parameter state (momentum, Adam moments).
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor));

    /// Visits every parameter value through a shared reference, in the same
    /// stable order as [`Layer::visit_params`]. Lets serialization read a
    /// model without `&mut` access.
    fn visit_params_shared(&self, f: &mut dyn FnMut(&Tensor));

    /// Visits every non-trainable state buffer (e.g. batch-norm running
    /// statistics) in a stable order. Layers without buffers keep the
    /// empty default.
    fn visit_buffers(&mut self, _f: &mut dyn FnMut(&mut [f32])) {}

    /// Shared-reference counterpart of [`Layer::visit_buffers`], in the
    /// same stable order.
    fn visit_buffers_shared(&self, _f: &mut dyn FnMut(&[f32])) {}

    /// Resets all accumulated gradients to zero.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |_, g| g.map_in_place(|_| 0.0));
    }

    /// Short human-readable layer name used in error messages.
    fn name(&self) -> &'static str;

    /// How this layer takes part in eval-mode epilogue fusion: a
    /// [`crate::Sequential`] folds each `Conv2d → BatchNorm2d → Relu` run
    /// of its `forward_eval` into the convolution's output store. Layers
    /// outside the workspace keep the default and are never folded.
    #[doc(hidden)]
    fn fusable(&self) -> Fusable<'_> {
        Fusable::No
    }

    /// Total number of trainable scalar parameters.
    fn param_count(&mut self) -> usize {
        let mut count = 0;
        self.visit_params(&mut |p, _| count += p.len());
        count
    }
}

/// A layer's role in eval-mode epilogue fusion (see [`Layer::fusable`]).
/// Not exported: only this crate's layers take part.
pub enum Fusable<'a> {
    /// Not foldable; runs its own `forward_eval`.
    No,
    /// A convolution whose store can take an epilogue.
    Conv(&'a Conv2d),
    /// Batch normalization, foldable after a convolution.
    Norm(&'a BatchNorm2d),
    /// ReLU, foldable after a convolution or its batch norm.
    Relu,
}

/// A trainable parameter: value plus accumulated gradient.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current parameter value.
    pub value: Tensor,
    /// Gradient accumulated by `backward` since the last `zero_grad`.
    pub grad: Tensor,
}

impl Param {
    /// Wraps an initial value with a zero gradient of the same shape.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Param { value, grad }
    }

    /// Visitor plumbing for [`Layer::visit_params`].
    pub fn visit(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.value, &mut self.grad);
    }

    /// Visitor plumbing for [`Layer::visit_params_shared`].
    pub fn visit_shared(&self, f: &mut dyn FnMut(&Tensor)) {
        f(&self.value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_grad_matches_shape() {
        let p = Param::new(Tensor::ones(&[2, 3]));
        assert_eq!(p.grad.shape(), &[2, 3]);
        assert_eq!(p.grad.sum(), 0.0);
    }

    #[test]
    fn mode_default_is_eval() {
        assert_eq!(Mode::default(), Mode::Eval);
    }
}
