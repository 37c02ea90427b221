use crate::layer::{Fusable, Layer, Mode};
use crate::{NnError, Result};
use bprom_tensor::Tensor;

macro_rules! pointwise_activation {
    ($(#[$doc:meta])* $name:ident, $fwd:expr, $bwd_from_in:expr, $fusable:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Default)]
        pub struct $name {
            cached_input: Option<Tensor>,
        }

        impl $name {
            /// Creates the activation layer.
            pub fn new() -> Self {
                Self { cached_input: None }
            }
        }

        impl Layer for $name {
            fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
                if mode.caches() {
                    self.cached_input = Some(input.clone());
                }
                self.forward_eval(input)
            }

            fn forward_eval(&self, input: &Tensor) -> Result<Tensor> {
                Ok(input.map($fwd))
            }

            fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
                let input = self.cached_input.as_ref().ok_or(
                    NnError::BackwardBeforeForward {
                        layer: stringify!($name),
                    },
                )?;
                Ok(input.zip_map(grad_output, |x, g| g * ($bwd_from_in)(x))?)
            }

            fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {}

            fn visit_params_shared(&self, _f: &mut dyn FnMut(&Tensor)) {}

            fn name(&self) -> &'static str {
                stringify!($name)
            }

            fn fusable(&self) -> Fusable<'_> {
                $fusable
            }
        }
    };
}

pointwise_activation!(
    /// Rectified linear unit: `max(0, x)`.
    Relu,
    |x| if x > 0.0 { x } else { 0.0 },
    |x: f32| if x > 0.0 { 1.0 } else { 0.0 },
    Fusable::Relu
);

pointwise_activation!(
    /// Leaky ReLU with fixed negative slope 0.1.
    LeakyRelu,
    |x| if x > 0.0 { x } else { 0.1 * x },
    |x: f32| if x > 0.0 { 1.0 } else { 0.1 },
    Fusable::No
);

pointwise_activation!(
    /// Hyperbolic tangent.
    Tanh,
    |x: f32| x.tanh(),
    |x: f32| 1.0 - x.tanh() * x.tanh(),
    Fusable::No
);

pointwise_activation!(
    /// Gaussian error linear unit (tanh approximation), used in the
    /// transformer models.
    Gelu,
    gelu_forward,
    gelu_derivative,
    Fusable::No
);

fn gelu_forward(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + (C * (x + 0.044_715 * x * x * x)).tanh())
}

fn gelu_derivative(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let inner = C * (x + 0.044_715 * x * x * x);
    let t = inner.tanh();
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * C * (1.0 + 3.0 * 0.044_715 * x * x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bprom_tensor::Rng;

    fn finite_diff_check<L: Layer>(layer: &mut L, seed: u64) {
        let mut rng = Rng::new(seed);
        let x = Tensor::randn(&[2, 5], &mut rng);
        layer.forward(&x, Mode::Train).unwrap();
        let gx = layer.backward(&Tensor::ones(&[2, 5])).unwrap();
        let eps = 1e-3;
        let mut x2 = x.clone();
        for flat in 0..x.len() {
            let orig = x2.data()[flat];
            x2.data_mut()[flat] = orig + eps;
            let lp = layer.forward(&x2, Mode::Eval).unwrap().sum();
            x2.data_mut()[flat] = orig - eps;
            let lm = layer.forward(&x2, Mode::Eval).unwrap().sum();
            x2.data_mut()[flat] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - gx.data()[flat]).abs() < 1e-2,
                "flat={flat}: {num} vs {}",
                gx.data()[flat]
            );
        }
    }

    #[test]
    fn relu_forward_values() {
        let mut l = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]).unwrap();
        let y = l.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_gradient() {
        finite_diff_check(&mut Relu::new(), 1);
    }

    #[test]
    fn leaky_relu_gradient() {
        finite_diff_check(&mut LeakyRelu::new(), 2);
    }

    #[test]
    fn tanh_gradient() {
        finite_diff_check(&mut Tanh::new(), 3);
    }

    #[test]
    fn gelu_gradient() {
        finite_diff_check(&mut Gelu::new(), 4);
    }

    #[test]
    fn gelu_known_values() {
        // GELU(0) = 0; GELU(large) ≈ identity; GELU(-large) ≈ 0.
        assert!(gelu_forward(0.0).abs() < 1e-7);
        assert!((gelu_forward(10.0) - 10.0).abs() < 1e-3);
        assert!(gelu_forward(-10.0).abs() < 1e-3);
    }

    #[test]
    fn activations_have_no_params() {
        let mut l = Relu::new();
        assert_eq!(l.param_count(), 0);
    }
}
