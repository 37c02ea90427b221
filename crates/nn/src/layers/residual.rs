use crate::layer::{Layer, Mode};
use crate::{Result, Sequential};
use bprom_tensor::Tensor;

/// Residual block: `y = body(x) + shortcut(x)`.
///
/// The shortcut is the identity when `None`; supply a projection (e.g. a
/// strided 1×1 convolution) when the body changes shape.
pub struct Residual {
    body: Sequential,
    shortcut: Option<Sequential>,
}

impl std::fmt::Debug for Residual {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Residual")
            .field("body_layers", &self.body.len())
            .field("has_projection", &self.shortcut.is_some())
            .finish()
    }
}

impl Residual {
    /// Creates an identity-shortcut residual block.
    pub fn new(body: Sequential) -> Self {
        Residual {
            body,
            shortcut: None,
        }
    }

    /// Creates a residual block with a projection shortcut.
    pub fn with_projection(body: Sequential, shortcut: Sequential) -> Self {
        Residual {
            body,
            shortcut: Some(shortcut),
        }
    }
}

impl Layer for Residual {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let mut main = self.body.forward(input, mode)?;
        match &mut self.shortcut {
            Some(proj) => main.add_in_place(&proj.forward(input, mode)?)?,
            None => main.add_in_place(input)?,
        }
        Ok(main)
    }

    fn forward_eval(&self, input: &Tensor) -> Result<Tensor> {
        let mut main = self.body.forward_eval(input)?;
        match &self.shortcut {
            Some(proj) => main.add_in_place(&proj.forward_eval(input)?)?,
            None => main.add_in_place(input)?,
        }
        Ok(main)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let mut g = self.body.backward(grad_output)?;
        match &mut self.shortcut {
            Some(proj) => g.add_in_place(&proj.backward(grad_output)?)?,
            None => g.add_in_place(grad_output)?,
        }
        Ok(g)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        self.body.visit_params(f);
        if let Some(proj) = &mut self.shortcut {
            proj.visit_params(f);
        }
    }

    fn visit_params_shared(&self, f: &mut dyn FnMut(&Tensor)) {
        self.body.visit_params_shared(f);
        if let Some(proj) = &self.shortcut {
            proj.visit_params_shared(f);
        }
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        self.body.visit_buffers(f);
        if let Some(proj) = &mut self.shortcut {
            proj.visit_buffers(f);
        }
    }

    fn visit_buffers_shared(&self, f: &mut dyn FnMut(&[f32])) {
        self.body.visit_buffers_shared(f);
        if let Some(proj) = &self.shortcut {
            proj.visit_buffers_shared(f);
        }
    }

    fn name(&self) -> &'static str {
        "Residual"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Conv2d, Dense, Relu};
    use bprom_tensor::Rng;

    #[test]
    fn identity_shortcut_adds_input() {
        let mut rng = Rng::new(0);
        // Body that outputs all zeros: residual output must equal input.
        let mut zero_dense = Dense::new(4, 4, &mut rng);
        zero_dense.visit_params(&mut |p, _| p.map_in_place(|_| 0.0));
        let mut block = Residual::new(Sequential::new(vec![Box::new(zero_dense)]));
        let x = Tensor::randn(&[3, 4], &mut rng);
        let y = block.forward(&x, Mode::Eval).unwrap();
        for (a, b) in y.data().iter().zip(x.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn gradient_sums_both_paths() {
        let mut rng = Rng::new(1);
        let mut block = Residual::new(Sequential::new(vec![
            Box::new(Dense::new(4, 4, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(4, 4, &mut rng)),
        ]));
        let x = Tensor::randn(&[2, 4], &mut rng);
        block.forward(&x, Mode::Train).unwrap();
        let gx = block.backward(&Tensor::ones(&[2, 4])).unwrap();
        let eps = 1e-2;
        let mut x2 = x.clone();
        for flat in 0..x.len() {
            let orig = x2.data()[flat];
            x2.data_mut()[flat] = orig + eps;
            let lp = block.forward(&x2, Mode::Eval).unwrap().sum();
            x2.data_mut()[flat] = orig - eps;
            let lm = block.forward(&x2, Mode::Eval).unwrap().sum();
            x2.data_mut()[flat] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - gx.data()[flat]).abs() < 2e-2,
                "flat={flat}: {num} vs {}",
                gx.data()[flat]
            );
        }
    }

    #[test]
    fn projection_shortcut_handles_shape_change() {
        let mut rng = Rng::new(2);
        let body = Sequential::new(vec![Box::new(Conv2d::new(2, 4, 3, 2, 1, &mut rng))]);
        let proj = Sequential::new(vec![Box::new(Conv2d::new(2, 4, 1, 2, 0, &mut rng))]);
        let mut block = Residual::with_projection(body, proj);
        let x = Tensor::randn(&[1, 2, 8, 8], &mut rng);
        let y = block.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.shape(), &[1, 4, 4, 4]);
        let gx = block.backward(&Tensor::ones(y.shape())).unwrap();
        assert_eq!(gx.shape(), x.shape());
    }
}
