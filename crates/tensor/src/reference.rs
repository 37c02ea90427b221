//! Retained pre-kernel reference implementations.
//!
//! These are the exact matmul/conv code paths the workspace shipped
//! before the packed-GEMM kernel layer ([`crate::kernels`]) replaced
//! them, kept for two jobs:
//!
//! * **Correctness oracles.** The kernel property sweep
//!   (`tests/kernel_properties.rs`) asserts the packed kernels against
//!   them — bit-exactly where the accumulation order is unchanged
//!   (matmul in all transpose flavours, conv forward, conv
//!   backward-input), within tolerance where the order intentionally
//!   changed (conv backward-weight, which now reduces over one flat
//!   whole-batch axis instead of per-sample partial sums).
//! * **Honest baselines.** The conv-epoch speedup gate
//!   (`conv_epoch_speedup_gate` in [`crate::conv`]'s tests) measures
//!   against these, not against a strawman — they are the real
//!   pre-kernel hot path, per-sample im2col allocations included.
//!
//! Nothing in the pipeline calls these; they are `pub` for tests and
//! benches only.

pub use crate::conv::{conv2d_backward_input_every_path, conv2d_backward_weight_every_path};
use crate::conv::{out_dim, pad2d, unpad2d};
use crate::{Tensor, TensorError};

/// Pre-kernel `im2col_sample`, verbatim: per-sample, allocating, fully
/// scalar. The live [`crate::conv`] helpers have since grown batched
/// layouts and contiguous fast paths, so the baseline keeps its own copy
/// to stay an honest pre-PR measurement.
#[allow(clippy::too_many_arguments)]
fn im2col_sample_reference(
    data: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    oh: usize,
    ow: usize,
) -> Vec<f32> {
    let mut col = vec![0.0f32; c * kh * kw * oh * ow];
    let ow_total = oh * ow;
    for ci in 0..c {
        for ki in 0..kh {
            for kj in 0..kw {
                let row = (ci * kh + ki) * kw + kj;
                let base = row * ow_total;
                for oi in 0..oh {
                    let src_row = oi * stride + ki;
                    let src0 = (ci * h + src_row) * w;
                    let dst0 = base + oi * ow;
                    for oj in 0..ow {
                        col[dst0 + oj] = data[src0 + oj * stride + kj];
                    }
                }
            }
        }
    }
    col
}

/// Pre-kernel `col2im_sample`, verbatim: fully scalar scatter-add.
#[allow(clippy::too_many_arguments)]
fn col2im_sample_reference(
    col: &[f32],
    out: &mut [f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    oh: usize,
    ow: usize,
) {
    let ow_total = oh * ow;
    for ci in 0..c {
        for ki in 0..kh {
            for kj in 0..kw {
                let row = (ci * kh + ki) * kw + kj;
                let base = row * ow_total;
                for oi in 0..oh {
                    let dst_row = oi * stride + ki;
                    let dst0 = (ci * h + dst_row) * w;
                    let src0 = base + oi * ow;
                    for oj in 0..ow {
                        out[dst0 + oj * stride + kj] += col[src0 + oj];
                    }
                }
            }
        }
    }
}

/// Pre-kernel `matmul`: the scalar, unblocked i-k-j loop.
///
/// Accumulates each output element in strictly increasing `k` order —
/// the same contract the packed kernel keeps, so
/// `a.matmul(&b) == matmul_reference(a, b)` holds **bitwise**.
///
/// # Errors
///
/// Same conditions as [`Tensor::matmul`].
pub fn matmul_reference(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    if a.rank() != 2 || b.rank() != 2 {
        return Err(TensorError::InvalidShape {
            reason: "matmul_reference requires rank-2 operands".to_string(),
        });
    }
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            expected: vec![k, n],
            actual: vec![k2, n],
        });
    }
    let ad = a.data();
    let bd = b.data();
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let out_row = &mut out[i * n..(i + 1) * n];
        for p in 0..k {
            let a_ip = ad[i * k + p];
            let b_row = &bd[p * n..(p + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += a_ip * bv;
            }
        }
    }
    Tensor::from_vec(out, &[m, n])
}

/// Pre-kernel `conv2d`: pad, then per-sample im2col → small matmul.
///
/// # Errors
///
/// Same conditions as [`crate::conv2d`].
pub fn conv2d_reference(
    input: &Tensor,
    weight: &Tensor,
    stride: usize,
    padding: usize,
) -> Result<Tensor, TensorError> {
    let (n, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let (o, kh, kw) = (weight.shape()[0], weight.shape()[2], weight.shape()[3]);
    let oh = out_dim(h, kh, stride, padding)?;
    let ow = out_dim(w, kw, stride, padding)?;
    let padded = pad2d(input, padding)?;
    let (hp, wp) = (h + 2 * padding, w + 2 * padding);
    let k = c * kh * kw;
    let wmat = weight.reshape(&[o, k])?;
    let mut out = Tensor::zeros(&[n, o, oh, ow]);
    let sample_in = c * hp * wp;
    let sample_out = o * oh * ow;
    for ni in 0..n {
        let sample = &padded.data()[ni * sample_in..(ni + 1) * sample_in];
        let col = im2col_sample_reference(sample, c, hp, wp, kh, kw, stride, oh, ow);
        let col_t = Tensor::from_vec(col, &[k, oh * ow])?;
        let prod = matmul_reference(&wmat, &col_t)?;
        out.data_mut()[ni * sample_out..(ni + 1) * sample_out].copy_from_slice(prod.data());
    }
    Ok(out)
}

/// Pre-kernel `conv2d_backward_weight`: per-sample im2col → per-sample
/// `[o, oh·ow] × [k, oh·ow]ᵀ` products, summed sample by sample.
///
/// Note the accumulation order: each sample's contribution is a complete
/// dot over `oh·ow`, and the per-sample partial sums are then added in
/// batch order. The kernel-backed [`crate::conv2d_backward_weight`]
/// instead reduces over one flat `n·oh·ow` axis, so the two agree only
/// to rounding (see `tests/kernel_properties.rs`).
///
/// # Errors
///
/// Same conditions as [`crate::conv2d_backward_weight`].
pub fn conv2d_backward_weight_reference(
    input: &Tensor,
    grad_output: &Tensor,
    kernel: (usize, usize),
    stride: usize,
    padding: usize,
) -> Result<Tensor, TensorError> {
    let (n, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let (kh, kw) = kernel;
    let oh = out_dim(h, kh, stride, padding)?;
    let ow = out_dim(w, kw, stride, padding)?;
    let o = grad_output.shape()[1];
    let padded = pad2d(input, padding)?;
    let (hp, wp) = (h + 2 * padding, w + 2 * padding);
    let k = c * kh * kw;
    let sample_in = c * hp * wp;
    let sample_out = o * oh * ow;
    let mut grad_w = Tensor::zeros(&[o, k]);
    for ni in 0..n {
        let sample = &padded.data()[ni * sample_in..(ni + 1) * sample_in];
        let col = im2col_sample_reference(sample, c, hp, wp, kh, kw, stride, oh, ow);
        let go = &grad_output.data()[ni * sample_out..(ni + 1) * sample_out];
        // [o, oh*ow] x [k, oh*ow]^T = [o, k], scalar dots.
        let gw = grad_w.data_mut();
        for oi in 0..o {
            let go_row = &go[oi * oh * ow..(oi + 1) * oh * ow];
            for ki in 0..k {
                let col_row = &col[ki * oh * ow..(ki + 1) * oh * ow];
                let mut acc = 0.0f32;
                for (gv, cv) in go_row.iter().zip(col_row) {
                    acc += gv * cv;
                }
                gw[oi * k + ki] += acc;
            }
        }
    }
    grad_w.reshape(&[o, c, kh, kw])
}

/// Pre-kernel `conv2d_backward_input`: per-sample `wᵀ × grad` → col2im.
///
/// Bit-identical to the kernel-backed [`crate::conv2d_backward_input`]:
/// both reduce over the output channels in increasing order.
///
/// # Errors
///
/// Same conditions as [`crate::conv2d_backward_input`].
pub fn conv2d_backward_input_reference(
    weight: &Tensor,
    grad_output: &Tensor,
    input_shape: &[usize],
    stride: usize,
    padding: usize,
) -> Result<Tensor, TensorError> {
    let (n, c, h, w) = (
        input_shape[0],
        input_shape[1],
        input_shape[2],
        input_shape[3],
    );
    let (o, kh, kw) = (weight.shape()[0], weight.shape()[2], weight.shape()[3]);
    let oh = out_dim(h, kh, stride, padding)?;
    let ow = out_dim(w, kw, stride, padding)?;
    let (hp, wp) = (h + 2 * padding, w + 2 * padding);
    let k = c * kh * kw;
    let wmat = weight.reshape(&[o, k])?;
    let sample_out = o * oh * ow;
    let mut grad_padded = Tensor::zeros(&[n, c, hp, wp]);
    let sample_in = c * hp * wp;
    for ni in 0..n {
        let go = &grad_output.data()[ni * sample_out..(ni + 1) * sample_out];
        // [o, k]^T x [o, oh*ow] = [k, oh*ow], p-outer loop as shipped.
        let mut col_grad = vec![0.0f32; k * oh * ow];
        let wd = wmat.data();
        for p in 0..o {
            let a_row = &wd[p * k..(p + 1) * k];
            let b_row = &go[p * oh * ow..(p + 1) * oh * ow];
            for (i, &av) in a_row.iter().enumerate() {
                let out_row = &mut col_grad[i * oh * ow..(i + 1) * oh * ow];
                for (ov, &bv) in out_row.iter_mut().zip(b_row) {
                    *ov += av * bv;
                }
            }
        }
        col2im_sample_reference(
            &col_grad,
            &mut grad_padded.data_mut()[ni * sample_in..(ni + 1) * sample_in],
            c,
            hp,
            wp,
            kh,
            kw,
            stride,
            oh,
            ow,
        );
    }
    unpad2d(&grad_padded, padding)
}

/// Direct 7-loop convolution — no im2col, no matmul. The slowest and
/// most obviously-correct oracle, promoted out of `conv.rs`'s test
/// module so the property sweep and benches can share it.
pub fn conv2d_naive(input: &Tensor, weight: &Tensor, stride: usize, pad: usize) -> Tensor {
    let (n, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let (o, _, kh, kw) = (
        weight.shape()[0],
        weight.shape()[1],
        weight.shape()[2],
        weight.shape()[3],
    );
    let oh = (h + 2 * pad - kh) / stride + 1;
    let ow = (w + 2 * pad - kw) / stride + 1;
    let mut out = Tensor::zeros(&[n, o, oh, ow]);
    for ni in 0..n {
        for oi in 0..o {
            for y in 0..oh {
                for x in 0..ow {
                    let mut acc = 0.0;
                    for ci in 0..c {
                        for ki in 0..kh {
                            for kj in 0..kw {
                                let iy = (y * stride + ki) as isize - pad as isize;
                                let ix = (x * stride + kj) as isize - pad as isize;
                                if iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < w {
                                    acc += input.at(&[ni, ci, iy as usize, ix as usize]).unwrap()
                                        * weight.at(&[oi, ci, ki, kj]).unwrap();
                                }
                            }
                        }
                    }
                    out.set(&[ni, oi, y, x], acc).unwrap();
                }
            }
        }
    }
    out
}
