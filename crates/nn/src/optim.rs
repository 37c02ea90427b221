//! Optimizers. Each `step` visits the model's parameters in their stable
//! visit order and applies the accumulated gradients.

use crate::{Layer, NnError, Result};
use bprom_tensor::Tensor;

/// Stochastic gradient descent with classical momentum and L2 weight decay.
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates SGD with the given learning rate, momentum coefficient and
    /// L2 weight-decay coefficient.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        Sgd {
            lr,
            momentum,
            weight_decay,
            velocity: Vec::new(),
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Updates the learning rate (for schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Applies one update using the gradients accumulated in `model`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the model's parameter structure
    /// changed between steps.
    pub fn step(&mut self, model: &mut dyn Layer) -> Result<()> {
        let mut idx = 0;
        let mut err = None;
        let (lr, mu, wd) = (self.lr, self.momentum, self.weight_decay);
        let velocity = &mut self.velocity;
        model.visit_params(&mut |p, g| {
            if err.is_some() {
                return;
            }
            if idx == velocity.len() {
                velocity.push(Tensor::zeros(p.shape()));
            }
            let v = &mut velocity[idx];
            if v.shape() != p.shape() {
                err = Some(NnError::InvalidConfig {
                    reason: format!("optimizer state shape drift at parameter {idx}"),
                });
                return;
            }
            for ((vi, &gi), pi) in v.data_mut().iter_mut().zip(g.data()).zip(p.data_mut()) {
                *vi = mu * *vi + gi + wd * *pi;
                *pi -= lr * *vi;
            }
            idx += 1;
        });
        err.map_or(Ok(()), Err)
    }
}

/// Adam optimizer (Kingma & Ba) with bias correction.
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u32,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates Adam with standard hyperparameters (β₁=0.9, β₂=0.999).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Updates the learning rate (for schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Applies one Adam update using the gradients accumulated in `model`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the model's parameter structure
    /// changed between steps.
    pub fn step(&mut self, model: &mut dyn Layer) -> Result<()> {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let mut idx = 0;
        let mut err = None;
        let (ms, vs) = (&mut self.m, &mut self.v);
        model.visit_params(&mut |p, g| {
            if err.is_some() {
                return;
            }
            if idx == ms.len() {
                ms.push(Tensor::zeros(p.shape()));
                vs.push(Tensor::zeros(p.shape()));
            }
            if ms[idx].shape() != p.shape() {
                err = Some(NnError::InvalidConfig {
                    reason: format!("optimizer state shape drift at parameter {idx}"),
                });
                return;
            }
            let m = ms[idx].data_mut();
            let v = vs[idx].data_mut();
            for (((mi, vi), &gi), pi) in m
                .iter_mut()
                .zip(v.iter_mut())
                .zip(g.data())
                .zip(p.data_mut().iter_mut())
            {
                *mi = b1 * *mi + (1.0 - b1) * gi;
                *vi = b2 * *vi + (1.0 - b2) * gi * gi;
                let m_hat = *mi / bc1;
                let v_hat = *vi / bc2;
                *pi -= lr * m_hat / (v_hat.sqrt() + eps);
            }
            idx += 1;
        });
        err.map_or(Ok(()), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::softmax_cross_entropy;
    use crate::{Dense, Mode, Relu, Sequential};
    use bprom_tensor::{Rng, Tensor};

    fn train_xor(mut opt_step: impl FnMut(&mut Sequential) -> Result<()>, seed: u64) -> f32 {
        let mut rng = Rng::new(seed);
        let mut net = Sequential::new(vec![
            Box::new(Dense::new(2, 8, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(8, 2, &mut rng)),
        ]);
        let x = Tensor::from_vec(vec![0., 0., 0., 1., 1., 0., 1., 1.], &[4, 2]).unwrap();
        let y = [0usize, 1, 1, 0];
        let mut last = f32::INFINITY;
        for _ in 0..300 {
            let logits = net.forward(&x, Mode::Train).unwrap();
            let (loss, grad) = softmax_cross_entropy(&logits, &y).unwrap();
            last = loss;
            net.zero_grad();
            net.backward(&grad).unwrap();
            opt_step(&mut net).unwrap();
        }
        last
    }

    #[test]
    fn sgd_learns_xor() {
        let mut opt = Sgd::new(0.5, 0.9, 0.0);
        let loss = train_xor(|net| opt.step(net), 0);
        assert!(loss < 0.05, "loss={loss}");
    }

    #[test]
    fn adam_learns_xor() {
        let mut opt = Adam::new(0.05);
        let loss = train_xor(|net| opt.step(net), 1);
        assert!(loss < 0.05, "loss={loss}");
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut rng = Rng::new(2);
        let mut net = Sequential::new(vec![Box::new(Dense::new(4, 4, &mut rng))]);
        let before: f32 = net.export_params()[0].norm_sq();
        // Zero gradients; only weight decay acts.
        let mut opt = Sgd::new(0.1, 0.0, 0.1);
        net.zero_grad();
        for _ in 0..10 {
            opt.step(&mut net).unwrap();
        }
        let after: f32 = net.export_params()[0].norm_sq();
        assert!(after < before);
    }

    #[test]
    fn lr_setter() {
        let mut opt = Sgd::new(0.1, 0.0, 0.0);
        opt.set_lr(0.01);
        assert_eq!(opt.lr(), 0.01);
        let mut adam = Adam::new(0.1);
        adam.set_lr(0.2);
        assert_eq!(adam.lr(), 0.2);
    }
}
