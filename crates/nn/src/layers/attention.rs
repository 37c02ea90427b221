use crate::layer::{Layer, Mode, Param};
use crate::layers::Conv2d;
use crate::{init, NnError, Result};
use bprom_tensor::{Rng, Tensor};

/// Patch embedding: a strided convolution followed by a reshape from
/// `[n, d, gh, gw]` feature maps to `[n, t, d]` token sequences
/// (`t = gh * gw`).
///
/// This is the standard ViT stem; [`crate::models::vit_mini`] and
/// [`crate::models::swin_mini`] build on it.
#[derive(Debug)]
pub struct PatchEmbed {
    conv: Conv2d,
    cached_grid: Option<(usize, usize)>,
}

impl PatchEmbed {
    /// Creates a patch embedding producing `dim`-wide tokens from square
    /// patches of side `patch`.
    pub fn new(in_channels: usize, dim: usize, patch: usize, rng: &mut Rng) -> Self {
        PatchEmbed {
            conv: Conv2d::new(in_channels, dim, patch, patch, 0, rng),
            cached_grid: None,
        }
    }

    fn to_tokens(feat: &Tensor) -> Tensor {
        let (n, d, gh, gw) = (
            feat.shape()[0],
            feat.shape()[1],
            feat.shape()[2],
            feat.shape()[3],
        );
        let t = gh * gw;
        let mut out = Tensor::zeros(&[n, t, d]);
        for ni in 0..n {
            for di in 0..d {
                for ti in 0..t {
                    let src = ((ni * d + di) * t) + ti;
                    let dst = (ni * t + ti) * d + di;
                    out.data_mut()[dst] = feat.data()[src];
                }
            }
        }
        out
    }

    fn to_maps(tokens: &Tensor, gh: usize, gw: usize) -> Tensor {
        let (n, t, d) = (tokens.shape()[0], tokens.shape()[1], tokens.shape()[2]);
        let mut out = Tensor::zeros(&[n, d, gh, gw]);
        for ni in 0..n {
            for di in 0..d {
                for ti in 0..t {
                    let dst = ((ni * d + di) * t) + ti;
                    let src = (ni * t + ti) * d + di;
                    out.data_mut()[dst] = tokens.data()[src];
                }
            }
        }
        out
    }
}

impl Layer for PatchEmbed {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let feat = self.conv.forward(input, mode)?;
        let (gh, gw) = (feat.shape()[2], feat.shape()[3]);
        if mode.caches() {
            self.cached_grid = Some((gh, gw));
        }
        Ok(Self::to_tokens(&feat))
    }

    fn forward_eval(&self, input: &Tensor) -> Result<Tensor> {
        let feat = self.conv.forward_eval(input)?;
        Ok(Self::to_tokens(&feat))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let (gh, gw) = self.cached_grid.ok_or(NnError::BackwardBeforeForward {
            layer: "PatchEmbed",
        })?;
        let grad_maps = Self::to_maps(grad_output, gh, gw);
        self.conv.backward(&grad_maps)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        self.conv.visit_params(f);
    }

    fn visit_params_shared(&self, f: &mut dyn FnMut(&Tensor)) {
        self.conv.visit_params_shared(f);
    }

    fn name(&self) -> &'static str {
        "PatchEmbed"
    }
}

/// Single-head self-attention over `[n, t, d]` token sequences, with an
/// optional Swin-style square attention window.
///
/// With `window: None` every token attends to every token (ViT). With
/// `window: Some(w)` tokens are assumed to lie on a square grid and only
/// attend within non-overlapping `w × w` windows (Swin).
pub struct Attention {
    wq: Param,
    wk: Param,
    wv: Param,
    wo: Param,
    dim: usize,
    window: Option<usize>,
    cache: Option<AttnCache>,
}

impl std::fmt::Debug for Attention {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Attention")
            .field("dim", &self.dim)
            .field("window", &self.window)
            .finish()
    }
}

struct AttnCache {
    x: Tensor,
    q: Vec<Tensor>,
    k: Vec<Tensor>,
    v: Vec<Tensor>,
    a: Vec<Tensor>,
    o: Vec<Tensor>,
}

impl Attention {
    /// Creates full self-attention of width `dim`.
    pub fn new(dim: usize, rng: &mut Rng) -> Self {
        Self::build(dim, None, rng)
    }

    /// Creates windowed self-attention (Swin-style) with window side `w`
    /// measured in tokens.
    pub fn windowed(dim: usize, w: usize, rng: &mut Rng) -> Self {
        Self::build(dim, Some(w), rng)
    }

    fn build(dim: usize, window: Option<usize>, rng: &mut Rng) -> Self {
        let mk = |rng: &mut Rng| Param::new(init::xavier(&[dim, dim], dim, dim, rng));
        Attention {
            wq: mk(rng),
            wk: mk(rng),
            wv: mk(rng),
            wo: mk(rng),
            dim,
            window,
            cache: None,
        }
    }

    /// Shared attention kernel for the caching and cache-free paths:
    /// computes the full forward pass, pushing per-sample intermediates
    /// into `cache` when one is supplied.
    fn run(&self, input: &Tensor, mut cache: Option<&mut AttnCache>) -> Result<Tensor> {
        if input.rank() != 3 || input.shape()[2] != self.dim {
            return Err(NnError::Tensor(bprom_tensor::TensorError::InvalidShape {
                reason: format!(
                    "Attention({}) expects [n, t, {}], got {:?}",
                    self.dim,
                    self.dim,
                    input.shape()
                ),
            }));
        }
        let (n, t, d) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        let scale = 1.0 / (d as f32).sqrt();
        let mut out = Tensor::zeros(input.shape());
        for ni in 0..n {
            let x = input.sample(ni)?; // [t, d]
            let q = x.matmul(&self.wq.value)?;
            let k = x.matmul(&self.wk.value)?;
            let v = x.matmul(&self.wv.value)?;
            let mut scores = q.matmul_nt(&k)?.scale(scale);
            self.masked(&mut scores, t)?;
            let a = softmax_rows(&scores);
            let o = a.matmul(&v)?;
            let y = o.matmul(&self.wo.value)?;
            out.data_mut()[ni * t * d..(ni + 1) * t * d].copy_from_slice(y.data());
            if let Some(c) = &mut cache {
                c.q.push(q);
                c.k.push(k);
                c.v.push(v);
                c.a.push(a);
                c.o.push(o);
            }
        }
        Ok(out)
    }

    /// Whether two tokens on a `g × g` grid share a `w × w` window.
    fn same_window(t1: usize, t2: usize, g: usize, w: usize) -> bool {
        let (y1, x1) = (t1 / g, t1 % g);
        let (y2, x2) = (t2 / g, t2 % g);
        y1 / w == y2 / w && x1 / w == x2 / w
    }

    fn masked(&self, scores: &mut Tensor, t: usize) -> Result<()> {
        if let Some(w) = self.window {
            let g = (t as f32).sqrt().round() as usize;
            if g * g != t {
                return Err(NnError::InvalidConfig {
                    reason: format!("windowed attention requires a square token grid, got t={t}"),
                });
            }
            for i in 0..t {
                for j in 0..t {
                    if !Self::same_window(i, j, g, w) {
                        scores.data_mut()[i * t + j] = f32::NEG_INFINITY;
                    }
                }
            }
        }
        Ok(())
    }
}

fn softmax_rows(scores: &Tensor) -> Tensor {
    let mut out = scores.clone();
    crate::metrics::softmax_rows_in_place(out.data_mut(), scores.shape()[1]);
    out
}

/// Row-wise softmax Jacobian-vector product: given softmax output `a` and
/// upstream gradient `da`, returns `ds` where `s` are the pre-softmax scores.
fn softmax_rows_backward(a: &Tensor, da: &Tensor) -> Tensor {
    let (r, c) = (a.shape()[0], a.shape()[1]);
    let mut out = Tensor::zeros(&[r, c]);
    for i in 0..r {
        let arow = &a.data()[i * c..(i + 1) * c];
        let drow = &da.data()[i * c..(i + 1) * c];
        let dot: f32 = arow.iter().zip(drow).map(|(&x, &y)| x * y).sum();
        for j in 0..c {
            out.data_mut()[i * c + j] = arow[j] * (drow[j] - dot);
        }
    }
    out
}

impl Layer for Attention {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        if !mode.caches() {
            return self.run(input, None);
        }
        let mut cache = AttnCache {
            x: input.clone(),
            q: Vec::new(),
            k: Vec::new(),
            v: Vec::new(),
            a: Vec::new(),
            o: Vec::new(),
        };
        let out = self.run(input, Some(&mut cache))?;
        self.cache = Some(cache);
        Ok(out)
    }

    fn forward_eval(&self, input: &Tensor) -> Result<Tensor> {
        self.run(input, None)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let cache = self
            .cache
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "Attention" })?;
        let (n, t, d) = (cache.x.shape()[0], cache.x.shape()[1], cache.x.shape()[2]);
        let scale = 1.0 / (d as f32).sqrt();
        let mut grad_in = Tensor::zeros(cache.x.shape());
        let mut dwq = Tensor::zeros(&[d, d]);
        let mut dwk = Tensor::zeros(&[d, d]);
        let mut dwv = Tensor::zeros(&[d, d]);
        let mut dwo = Tensor::zeros(&[d, d]);
        for ni in 0..n {
            let x = cache.x.sample(ni)?;
            let dy = grad_output.sample(ni)?; // [t, d]
            let (q, k, v, a, o) = (
                &cache.q[ni],
                &cache.k[ni],
                &cache.v[ni],
                &cache.a[ni],
                &cache.o[ni],
            );
            // y = o Wo
            dwo.add_in_place(&o.matmul_tn(&dy)?)?;
            let d_o = dy.matmul_nt(&self.wo.value)?; // [t, d]
                                                     // o = a v
            let d_a = d_o.matmul_nt(v)?; // [t, t]
            let d_v = a.matmul_tn(&d_o)?; // [t, d]
                                          // a = softmax(s)
            let d_s = softmax_rows_backward(a, &d_a).scale(scale);
            // s = q kᵀ
            let d_q = d_s.matmul(k)?;
            let d_k = d_s.matmul_tn(&q.clone())?; // d_sᵀ q : [t, d]
                                                  // q = x Wq, k = x Wk, v = x Wv
            dwq.add_in_place(&x.matmul_tn(&d_q)?)?;
            dwk.add_in_place(&x.matmul_tn(&d_k)?)?;
            dwv.add_in_place(&x.matmul_tn(&d_v)?)?;
            let mut dx = d_q.matmul_nt(&self.wq.value)?;
            dx.add_in_place(&d_k.matmul_nt(&self.wk.value)?)?;
            dx.add_in_place(&d_v.matmul_nt(&self.wv.value)?)?;
            grad_in.data_mut()[ni * t * d..(ni + 1) * t * d].copy_from_slice(dx.data());
        }
        self.wq.grad.add_in_place(&dwq)?;
        self.wk.grad.add_in_place(&dwk)?;
        self.wv.grad.add_in_place(&dwv)?;
        self.wo.grad.add_in_place(&dwo)?;
        Ok(grad_in)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        self.wq.visit(f);
        self.wk.visit(f);
        self.wv.visit(f);
        self.wo.visit(f);
    }

    fn visit_params_shared(&self, f: &mut dyn FnMut(&Tensor)) {
        self.wq.visit_shared(f);
        self.wk.visit_shared(f);
        self.wv.visit_shared(f);
        self.wo.visit_shared(f);
    }

    fn name(&self) -> &'static str {
        "Attention"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sums_to_one() {
        let s = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]).unwrap();
        let a = softmax_rows(&s);
        for i in 0..2 {
            let sum: f32 = a.data()[i * 3..(i + 1) * 3].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_handles_neg_infinity_mask() {
        let s = Tensor::from_vec(vec![1.0, f32::NEG_INFINITY], &[1, 2]).unwrap();
        let a = softmax_rows(&s);
        assert!((a.data()[0] - 1.0).abs() < 1e-6);
        assert_eq!(a.data()[1], 0.0);
    }

    #[test]
    fn patch_embed_shapes() {
        let mut rng = Rng::new(0);
        let mut pe = PatchEmbed::new(3, 8, 4, &mut rng);
        let x = Tensor::randn(&[2, 3, 16, 16], &mut rng);
        let tokens = pe.forward(&x, Mode::Train).unwrap();
        assert_eq!(tokens.shape(), &[2, 16, 8]);
        let gx = pe.backward(&Tensor::ones(&[2, 16, 8])).unwrap();
        assert_eq!(gx.shape(), x.shape());
    }

    #[test]
    fn token_permutation_round_trip() {
        let mut rng = Rng::new(1);
        let feat = Tensor::randn(&[2, 4, 3, 3], &mut rng);
        let tokens = PatchEmbed::to_tokens(&feat);
        let restored = PatchEmbed::to_maps(&tokens, 3, 3);
        assert_eq!(feat, restored);
    }

    #[test]
    fn attention_forward_shape() {
        let mut rng = Rng::new(2);
        let mut attn = Attention::new(8, &mut rng);
        let x = Tensor::randn(&[2, 9, 8], &mut rng);
        let y = attn.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.shape(), &[2, 9, 8]);
    }

    #[test]
    fn attention_gradient_finite_difference() {
        let mut rng = Rng::new(3);
        let mut attn = Attention::new(4, &mut rng);
        let x = Tensor::randn(&[1, 4, 4], &mut rng);
        let y = attn.forward(&x, Mode::Train).unwrap();
        let go = y.map(|v| 2.0 * v);
        let gx = attn.backward(&go).unwrap();
        let eps = 1e-2;
        let mut x2 = x.clone();
        for flat in 0..x.len() {
            let orig = x2.data()[flat];
            x2.data_mut()[flat] = orig + eps;
            let lp = attn.forward(&x2, Mode::Eval).unwrap().norm_sq();
            x2.data_mut()[flat] = orig - eps;
            let lm = attn.forward(&x2, Mode::Eval).unwrap().norm_sq();
            x2.data_mut()[flat] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - gx.data()[flat]).abs() < 0.05 * (1.0 + num.abs()),
                "flat={flat}: {num} vs {}",
                gx.data()[flat]
            );
        }
    }

    #[test]
    fn attention_weight_gradient_finite_difference() {
        let mut rng = Rng::new(4);
        let mut attn = Attention::new(4, &mut rng);
        let x = Tensor::randn(&[1, 4, 4], &mut rng);
        let y = attn.forward(&x, Mode::Train).unwrap();
        attn.backward(&y.map(|v| 2.0 * v)).unwrap();
        let analytic = attn.wq.grad.clone();
        let eps = 1e-2;
        for &flat in &[0usize, 5, 15] {
            let orig = attn.wq.value.data()[flat];
            attn.wq.value.data_mut()[flat] = orig + eps;
            let lp = attn.forward(&x, Mode::Eval).unwrap().norm_sq();
            attn.wq.value.data_mut()[flat] = orig - eps;
            let lm = attn.forward(&x, Mode::Eval).unwrap().norm_sq();
            attn.wq.value.data_mut()[flat] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - analytic.data()[flat]).abs() < 0.05 * (1.0 + num.abs()),
                "flat={flat}: {num} vs {}",
                analytic.data()[flat]
            );
        }
    }

    #[test]
    fn windowed_attention_blocks_cross_window() {
        let mut rng = Rng::new(5);
        // 4x4 token grid, 2x2 windows: token 0 and token 15 are in
        // different windows, so changing token 15 must not affect token 0's
        // output row.
        let mut attn = Attention::windowed(4, 2, &mut rng);
        let x1 = Tensor::randn(&[1, 16, 4], &mut rng);
        let mut x2 = x1.clone();
        for di in 0..4 {
            let idx = 15 * 4 + di;
            x2.data_mut()[idx] += 5.0;
        }
        let y1 = attn.forward(&x1, Mode::Eval).unwrap();
        let y2 = attn.forward(&x2, Mode::Eval).unwrap();
        for di in 0..4 {
            assert!((y1.data()[di] - y2.data()[di]).abs() < 1e-6);
        }
    }

    #[test]
    fn windowed_attention_requires_square_grid() {
        let mut rng = Rng::new(6);
        let mut attn = Attention::windowed(4, 2, &mut rng);
        let x = Tensor::randn(&[1, 5, 4], &mut rng);
        assert!(attn.forward(&x, Mode::Eval).is_err());
    }
}
