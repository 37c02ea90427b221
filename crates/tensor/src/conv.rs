//! 2-D convolution primitives (forward and backward) via batched im2col.
//!
//! Layout conventions: inputs are NCHW `[n, c, h, w]`, weights are OIHW
//! `[out_ch, in_ch, kh, kw]`. All functions take `stride` and symmetric
//! zero `padding`.
//!
//! Each direction lowers the whole batch onto **one** column matrix of
//! shape `[c·kh·kw, n·oh·ow]` (columns grouped sample-major) and runs a
//! single packed GEMM against it, instead of the pre-kernel per-sample
//! im2col → small-matmul loop (retained in [`crate::reference`]). The
//! column matrix is *virtual*: a [`BPacker`] synthesizes each requested
//! block straight from the padded input (or the NCHW gradient) into the
//! GEMM's packed-strip layout, so the `[k, n·oh·ow]` matrix is never
//! materialized or re-read. The forward and backward-input passes keep
//! the reference accumulation order bit-exactly; backward-weight reduces
//! over the flat `n·oh·ow` axis — see the determinism notes in
//! [`crate::kernels`].
//!
//! The forward pass has a second kernel: for small output-channel counts
//! [`conv2d`] runs the direct kernel of [`crate::direct`] where it
//! measured faster, with the same accumulation order. Both forward paths
//! store through an [`Epilogue`] (bias, eval-mode batch norm, ReLU).
//! Backward-input likewise runs the direct kernel of [`crate::direct_bwd`]
//! for small input-channel counts, and backward-weight the direct kernel
//! of [`crate::direct_bwd_weight`] for small output-channel counts, with
//! the GEMM's flat reduction order.

use crate::direct;
use crate::direct_bwd;
use crate::direct_bwd_weight;
use crate::kernels::{gemm_with_b, BPacker, Isa, KC_MAX, NR};
use crate::pack::Trans;
use crate::workspace::with_scratch;
use crate::{Tensor, TensorError};

/// Per-output-channel operations a forward convolution applies as it
/// stores each output value `v` of channel `o`, in this order:
///
/// 1. `v + bias[o]`,
/// 2. `gamma[o] · ((v − mean[o]) · inv_std[o]) + beta[o]` ([`ChannelNorm`]),
/// 3. `if v > 0 { v } else { 0 }`.
///
/// Each step is the same scalar expression the separate bias add,
/// eval-mode batch norm and ReLU passes compute, so a fused store is bit
/// for bit the unfused sequence. The default applies nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct Epilogue<'a> {
    /// Per-channel bias, added first.
    pub bias: Option<&'a [f32]>,
    /// Per-channel affine normalization, applied second.
    pub norm: Option<ChannelNorm<'a>>,
    /// Rectification, applied last.
    pub relu: bool,
}

/// Eval-mode batch normalization as a per-channel affine map:
/// `gamma · ((v − mean) · inv_std) + beta`.
#[derive(Debug, Clone, Copy)]
pub struct ChannelNorm<'a> {
    /// Running mean per channel.
    pub mean: &'a [f32],
    /// `1 / sqrt(var + eps)` per channel.
    pub inv_std: &'a [f32],
    /// Scale per channel.
    pub gamma: &'a [f32],
    /// Shift per channel.
    pub beta: &'a [f32],
}

impl ChannelNorm<'_> {
    /// Normalizes the values of channel `o` in place.
    pub fn apply(&self, o: usize, vals: &mut [f32]) {
        let (mean, inv_std) = (self.mean[o], self.inv_std[o]);
        let (g, b) = (self.gamma[o], self.beta[o]);
        for v in vals {
            let xh = (*v - mean) * inv_std;
            *v = g * xh + b;
        }
    }

    fn channels_ok(&self, o: usize) -> bool {
        [self.mean, self.inv_std, self.gamma, self.beta]
            .iter()
            .all(|s| s.len() == o)
    }
}

impl Epilogue<'_> {
    /// Applies the epilogue to the values of output channel `o` in place.
    pub(crate) fn apply(&self, o: usize, vals: &mut [f32]) {
        if let Some(bias) = self.bias {
            let b = bias[o];
            for v in vals.iter_mut() {
                *v += b;
            }
        }
        if let Some(norm) = &self.norm {
            norm.apply(o, vals);
        }
        if self.relu {
            for v in vals.iter_mut() {
                *v = if *v > 0.0 { *v } else { 0.0 };
            }
        }
    }

    fn check(&self, o: usize) -> Result<(), TensorError> {
        let bias_ok = self.bias.is_none_or(|b| b.len() == o);
        let norm_ok = self.norm.as_ref().is_none_or(|n| n.channels_ok(o));
        if bias_ok && norm_ok {
            Ok(())
        } else {
            Err(TensorError::InvalidShape {
                reason: format!("conv2d epilogue needs {o} values per channel table"),
            })
        }
    }
}

/// The weight operand of [`conv2d`]: an OIHW weight tensor and the
/// [`Epilogue`] its output is stored through. A plain `&Tensor` converts
/// with the empty epilogue.
#[derive(Debug, Clone, Copy)]
pub struct ConvWeight<'a> {
    /// `[o, c, kh, kw]` weights.
    pub weight: &'a Tensor,
    /// Applied to every output as it is stored.
    pub epilogue: Epilogue<'a>,
}

impl<'a> From<&'a Tensor> for ConvWeight<'a> {
    fn from(weight: &'a Tensor) -> Self {
        ConvWeight {
            weight,
            epilogue: Epilogue::default(),
        }
    }
}

pub(crate) fn out_dim(
    input: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
) -> Result<usize, TensorError> {
    if stride == 0 {
        return Err(TensorError::InvalidParameter {
            reason: "stride must be positive".to_string(),
        });
    }
    let padded = input + 2 * pad;
    if padded < kernel {
        return Err(TensorError::InvalidShape {
            reason: format!("kernel {kernel} larger than padded input {padded}"),
        });
    }
    Ok((padded - kernel) / stride + 1)
}

fn check_rank4(t: &Tensor, what: &str) -> Result<(), TensorError> {
    if t.rank() != 4 {
        return Err(TensorError::InvalidShape {
            reason: format!("{what} must be rank 4 (got {:?})", t.shape()),
        });
    }
    Ok(())
}

/// Zero-pads the spatial dimensions of an NCHW tensor by `pad` on each side.
///
/// # Errors
///
/// Returns [`TensorError::InvalidShape`] if `input` is not rank 4.
pub fn pad2d(input: &Tensor, pad: usize) -> Result<Tensor, TensorError> {
    check_rank4(input, "pad2d input")?;
    if pad == 0 {
        return Ok(input.clone());
    }
    let (n, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let (hp, wp) = (h + 2 * pad, w + 2 * pad);
    let mut out = Tensor::zeros(&[n, c, hp, wp]);
    let src = input.data();
    let dst = out.data_mut();
    for ni in 0..n {
        for ci in 0..c {
            for hi in 0..h {
                let s0 = ((ni * c + ci) * h + hi) * w;
                let d0 = ((ni * c + ci) * hp + hi + pad) * wp + pad;
                dst[d0..d0 + w].copy_from_slice(&src[s0..s0 + w]);
            }
        }
    }
    Ok(out)
}

/// Inverse of [`pad2d`]: crops `pad` pixels from each spatial side.
///
/// # Errors
///
/// Returns [`TensorError::InvalidShape`] if `input` is not rank 4 or is too
/// small to crop.
pub fn unpad2d(input: &Tensor, pad: usize) -> Result<Tensor, TensorError> {
    check_rank4(input, "unpad2d input")?;
    if pad == 0 {
        return Ok(input.clone());
    }
    let (n, c, hp, wp) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    if hp <= 2 * pad || wp <= 2 * pad {
        return Err(TensorError::InvalidShape {
            reason: format!("cannot crop {pad} from spatial dims {hp}x{wp}"),
        });
    }
    let (h, w) = (hp - 2 * pad, wp - 2 * pad);
    let mut out = Tensor::zeros(&[n, c, h, w]);
    let src = input.data();
    let dst = out.data_mut();
    for ni in 0..n {
        for ci in 0..c {
            for hi in 0..h {
                let s0 = ((ni * c + ci) * hp + hi + pad) * wp + pad;
                let d0 = ((ni * c + ci) * h + hi) * w;
                dst[d0..d0 + w].copy_from_slice(&src[s0..s0 + w]);
            }
        }
    }
    Ok(out)
}

/// col2im: scatter-add one sample's column block (at row stride
/// `row_stride`, column offset `col0`) straight into an **unpadded**
/// `[c, h, w]` sample buffer, dropping contributions that land in the
/// padding ring. Each destination element still receives its adds in
/// increasing `(ci, ki, kj, oi, oj)` order — the same order the
/// pad-then-unpad formulation produced — so results stay bit-identical
/// while skipping the padded buffer's zero-fill and copy-out.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn col2im_sample(
    col: &[f32],
    out: &mut [f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
    row_stride: usize,
    col0: usize,
) {
    if stride == 1 {
        // Gather formulation: build each output row once in a hot row
        // buffer from its ≤ kh·kw contributing column-row slivers, then
        // store it — instead of read-modify-writing the output kh·kw
        // times. The buffer is extended to `ow + kw - 1` cells (indexed
        // by `x + pad = oj + kj`) so every sliver is a full, unclipped
        // `ow`-wide add: contributions that would land in the padding
        // ring fall into border cells that are simply not copied out.
        // Per kept element the adds still arrive in increasing
        // `(ki, kj)` order, matching the scatter path below, so the
        // result is bit-identical.
        let mut ext = vec![0.0f32; ow + kw - 1];
        for ci in 0..c {
            for y in 0..h {
                ext.fill(0.0);
                for ki in 0..kh {
                    // y = oi + ki - pad  ⇒  oi = y + pad - ki ∈ [0, oh).
                    if y + pad < ki || y + pad - ki >= oh {
                        continue;
                    }
                    let oi = y + pad - ki;
                    let base = (ci * kh + ki) * kw * row_stride + col0 + oi * ow;
                    for kj in 0..kw {
                        let src = &col[base + kj * row_stride..][..ow];
                        let dst = &mut ext[kj..kj + ow];
                        for (d, &s) in dst.iter_mut().zip(src) {
                            *d += s;
                        }
                    }
                }
                out[(ci * h + y) * w..(ci * h + y) * w + w].copy_from_slice(&ext[pad..pad + w]);
            }
        }
        return;
    }
    for ci in 0..c {
        for ki in 0..kh {
            for kj in 0..kw {
                let row = (ci * kh + ki) * kw + kj;
                let base = row * row_stride + col0;
                for oi in 0..oh {
                    let y = (oi * stride + ki) as isize - pad as isize;
                    if y < 0 || y >= h as isize {
                        continue;
                    }
                    let dst0 = (ci * h + y as usize) * w;
                    let src0 = base + oi * ow;
                    for oj in 0..ow {
                        let x = (oj * stride + kj) as isize - pad as isize;
                        if x < 0 || x >= w as isize {
                            continue;
                        }
                        out[dst0 + x as usize] += col[src0 + oj];
                    }
                }
            }
        }
    }
}

/// Shared shape bookkeeping for the three conv directions.
pub(crate) struct ConvDims {
    pub(crate) n: usize,
    pub(crate) c: usize,
    pub(crate) o: usize,
    pub(crate) kh: usize,
    pub(crate) kw: usize,
    pub(crate) oh: usize,
    pub(crate) ow: usize,
    /// Padded spatial dims.
    pub(crate) hp: usize,
    pub(crate) wp: usize,
    /// GEMM reduction depth `c·kh·kw`.
    pub(crate) k: usize,
    /// Spatial size of one output sample, `oh·ow`.
    pub(crate) spat: usize,
}

impl ConvDims {
    /// Length of one padded row split into its `stride` column phases
    /// (see [`pad_into`]): `stride · wp.div_ceil(stride)`.
    pub(crate) fn split_row(&self, stride: usize) -> usize {
        stride * self.wp.div_ceil(stride)
    }

    fn resolve(
        input_shape: &[usize],
        o: usize,
        kernel: (usize, usize),
        stride: usize,
        padding: usize,
    ) -> Result<Self, TensorError> {
        let (n, c, h, w) = (
            input_shape[0],
            input_shape[1],
            input_shape[2],
            input_shape[3],
        );
        let (kh, kw) = kernel;
        let oh = out_dim(h, kh, stride, padding)?;
        let ow = out_dim(w, kw, stride, padding)?;
        Ok(ConvDims {
            n,
            c,
            o,
            kh,
            kw,
            oh,
            ow,
            hp: h + 2 * padding,
            wp: w + 2 * padding,
            k: c * kh * kw,
            spat: oh * ow,
        })
    }
}

/// Offsets of consecutive virtual columns `j0, j0+1, ..` (output
/// positions, sample-major) inside the padded batch: the element for
/// k-row `p` of column `j` is `padded[base(j) + k_off(p)]`. Walks the
/// `(sample, oy, ox)` counters instead of dividing per column.
fn col_bases(d: &ConvDims, stride: usize, j0: usize) -> impl Iterator<Item = usize> + '_ {
    let (mut sample, r) = (j0 / d.spat, j0 % d.spat);
    let (mut oy, mut ox) = (r / d.ow, r % d.ow);
    std::iter::from_fn(move || {
        let base = (sample * d.c * d.hp + oy * stride) * d.wp + ox * stride;
        ox += 1;
        if ox == d.ow {
            ox = 0;
            oy += 1;
            if oy == d.oh {
                oy = 0;
                sample += 1;
            }
        }
        Some(base)
    })
}

/// Offsets of consecutive k-rows `p0, p0+1, ..` (`p = (c, ki, kj)`)
/// relative to a column's base, walking the `(c, ki, kj)` counters.
fn k_offsets(d: &ConvDims, p0: usize) -> impl Iterator<Item = usize> + '_ {
    let khw = d.kh * d.kw;
    let (mut ci, mut ki, mut kj) = (p0 / khw, p0 % khw / d.kw, p0 % d.kw);
    std::iter::from_fn(move || {
        let off = (ci * d.hp + ki) * d.wp + kj;
        kj += 1;
        if kj == d.kw {
            kj = 0;
            ki += 1;
            if ki == d.kh {
                ki = 0;
                ci += 1;
            }
        }
        Some(off)
    })
}

/// The values of `it` in a fixed-size array (zeros past its end), so the
/// packers index their per-panel offset tables without allocating.
///
/// # Panics
///
/// If `it` yields more than `N` values: a panel deeper than the table
/// would otherwise pack zeros for its extra rows.
fn take_array<const N: usize>(mut it: impl Iterator<Item = usize>) -> [usize; N] {
    let mut out = [0usize; N];
    for (slot, v) in out.iter_mut().zip(&mut it) {
        *slot = v;
    }
    assert!(it.next().is_none(), "offset table holds at most {N} values");
    out
}

/// Virtual im2col B operand for the forward pass:
/// `B_op[p][j] = col[p][j]`, synthesized from the padded input.
struct ColPacker<'s> {
    padded: &'s [f32],
    d: &'s ConvDims,
    stride: usize,
}

impl BPacker for ColPacker<'_> {
    fn pack(&self, p0: usize, kc: usize, j0: usize, nc: usize, buf: &mut Vec<f32>) {
        let strips = nc.div_ceil(NR);
        buf.clear();
        buf.resize(strips * kc * NR, 0.0);
        let offs = take_array::<KC_MAX>(k_offsets(self.d, p0).take(kc));
        let mut bases = col_bases(self.d, self.stride, j0);
        for (t, strip) in buf.chunks_exact_mut(kc * NR).enumerate() {
            let cols = NR.min(nc - t * NR);
            let b = take_array::<NR>(bases.by_ref().take(cols));
            let b = &b[..cols];
            // Column bases increase monotonically, so spanning exactly
            // `cols` positions means they are consecutive (one stride-1
            // output row) and the sliver is a straight copy.
            if cols == NR && b[NR - 1] == b[0] + NR - 1 {
                let b0 = b[0];
                for (row, &off) in strip.chunks_exact_mut(NR).zip(&offs) {
                    row.copy_from_slice(&self.padded[b0 + off..b0 + off + NR]);
                }
            } else {
                for (row, &off) in strip.chunks_exact_mut(NR).zip(&offs) {
                    for (dv, &base) in row.iter_mut().zip(b) {
                        *dv = self.padded[base + off];
                    }
                }
            }
        }
    }
}

/// Virtual transposed im2col for backward-weight:
/// `B_op[p][j] = col[j][p]` (reduction runs over output positions).
struct ColTPacker<'s> {
    padded: &'s [f32],
    d: &'s ConvDims,
    stride: usize,
}

impl BPacker for ColTPacker<'_> {
    fn pack(&self, p0: usize, kc: usize, j0: usize, nc: usize, buf: &mut Vec<f32>) {
        let strips = nc.div_ceil(NR);
        buf.clear();
        buf.resize(strips * kc * NR, 0.0);
        let bases = take_array::<KC_MAX>(col_bases(self.d, self.stride, p0).take(kc));
        let mut offs = k_offsets(self.d, j0);
        for (t, strip) in buf.chunks_exact_mut(kc * NR).enumerate() {
            let cols = NR.min(nc - t * NR);
            let o = take_array::<NR>(offs.by_ref().take(cols));
            let o = &o[..cols];
            for (row, &base) in strip.chunks_exact_mut(NR).zip(&bases) {
                for (dv, &off) in row.iter_mut().zip(o) {
                    *dv = self.padded[base + off];
                }
            }
        }
    }
}

/// Virtual B operand for the deep-`o` backward-input GEMM:
/// `B_op[p][ni·spat + j] = grad[ni][p][j]` — the `[n, o, oh·ow]`
/// gradient presented as `[o, n·oh·ow]` without materializing the
/// regrouped matrix.
struct GradRowsPacker<'s> {
    grad: &'s [f32],
    d: &'s ConvDims,
}

impl BPacker for GradRowsPacker<'_> {
    fn pack(&self, p0: usize, kc: usize, j0: usize, nc: usize, buf: &mut Vec<f32>) {
        let strips = nc.div_ceil(NR);
        buf.clear();
        buf.resize(strips * kc * NR, 0.0);
        let (spat, o) = (self.d.spat, self.d.o);
        for (t, strip) in buf.chunks_exact_mut(kc * NR).enumerate() {
            let c0 = j0 + t * NR;
            let cols = NR.min(nc - t * NR);
            let (ni, j) = (c0 / spat, c0 % spat);
            if cols == NR && j + NR <= spat {
                // Strip stays inside one sample: straight copies.
                for (r, row) in strip.chunks_exact_mut(NR).enumerate() {
                    let s0 = (ni * o + p0 + r) * spat + j;
                    row.copy_from_slice(&self.grad[s0..s0 + NR]);
                }
            } else {
                for (r, row) in strip.chunks_exact_mut(NR).enumerate() {
                    for (u, dv) in row.iter_mut().enumerate().take(cols) {
                        let col = c0 + u;
                        let (ni, j) = (col / spat, col % spat);
                        *dv = self.grad[(ni * o + p0 + r) * spat + j];
                    }
                }
            }
        }
    }
}

/// Regroups NCHW `grad_output` `[n, o, oh, ow]` into the GEMM-facing
/// `[o, n·oh·ow]` layout (columns sample-major, matching the virtual
/// column matrix of [`ColPacker`]). Writes every element of `rows`.
fn grad_to_rows_into(grad_output: &Tensor, d: &ConvDims, rows: &mut [f32]) {
    let cols = d.n * d.spat;
    let src = grad_output.data();
    for ni in 0..d.n {
        for oi in 0..d.o {
            let s0 = (ni * d.o + oi) * d.spat;
            let r0 = oi * cols + ni * d.spat;
            rows[r0..r0 + d.spat].copy_from_slice(&src[s0..s0 + d.spat]);
        }
    }
}

/// Writes `planes` (`h × w` planes, e.g. an `[n, c, h, w]` batch or one
/// sample) zero-padded into a scratch buffer of `[planes, h+2p,
/// phases·⌈(w+2p)/phases⌉]`, every element of it (the slice-borne twin of
/// [`pad2d`], so the conv drivers can stage padding in reused scratch
/// instead of a fresh tensor). With `phases == 1` that is the plain padded
/// layout; above 1 every padded row is stored phase-split, padded column
/// `x` at `(x % phases)·⌈(w+2p)/phases⌉ + x / phases` — the
/// strided-source layout of [`crate::direct`].
pub(crate) fn pad_into(
    planes: &[f32],
    (h, w): (usize, usize),
    pad: usize,
    phases: usize,
    dst: &mut [f32],
) {
    let phase = (w + 2 * pad).div_ceil(phases);
    let row = phases * phase;
    // Destination column of each input column within a split row.
    let cols: Vec<usize> = if phases == 1 {
        Vec::new()
    } else {
        (pad..pad + w)
            .map(|x| x % phases * phase + x / phases)
            .collect()
    };
    let dst_planes = dst.chunks_exact_mut((h + 2 * pad) * row);
    for (plane, src) in dst_planes.zip(planes.chunks_exact(h * w)) {
        let (top, rest) = plane.split_at_mut(pad * row);
        let (body, bottom) = rest.split_at_mut(h * row);
        top.fill(0.0);
        bottom.fill(0.0);
        for (dst_row, src_row) in body.chunks_exact_mut(row).zip(src.chunks_exact(w)) {
            if phases == 1 {
                dst_row[..pad].fill(0.0);
                dst_row[pad..pad + w].copy_from_slice(src_row);
                dst_row[pad + w..].fill(0.0);
            } else {
                dst_row.fill(0.0);
                for (&x, &v) in cols.iter().zip(src_row) {
                    dst_row[x] = v;
                }
            }
        }
    }
}

/// The spatial dims `(h, w)` of an NCHW tensor.
fn in_hw(input: &Tensor) -> (usize, usize) {
    (input.shape()[2], input.shape()[3])
}

/// Runs `run(n0, out_chunk)` over the batch, `out` holding `sample_out`
/// values per sample. Splits the samples over the worker pool when the
/// job is worth it (`flops` against [`crate::kernels::PAR_MIN_FLOPS`])
/// and the caller is not already a pool worker. Samples are independent,
/// so the split cannot change any value.
fn for_sample_chunks(
    out: &mut [f32],
    sample_out: usize,
    flops: usize,
    run: impl Fn(usize, &mut [f32]) + Sync,
) {
    let n = out.len() / sample_out;
    let threads = bprom_par::thread_count();
    if threads <= 1 || flops < crate::kernels::PAR_MIN_FLOPS || bprom_par::in_parallel_worker() {
        run(0, out);
        return;
    }
    let per = n.div_ceil(threads.min(n));
    let blocks = bprom_par::par_map_indexed(n.div_ceil(per), |t| {
        let n0 = t * per;
        let mut buf = vec![0.0f32; per.min(n - n0) * sample_out];
        run(n0, &mut buf);
        buf
    });
    for (chunk, buf) in out.chunks_mut(per * sample_out).zip(&blocks) {
        chunk.copy_from_slice(buf);
    }
}

/// 2-D convolution forward pass.
///
/// `input` is `[n, c, h, w]`; `weight` is an `[o, c, kh, kw]` tensor, or
/// a [`ConvWeight`] that also names the [`Epilogue`] every output is
/// stored through. The output is `[n, o, oh, ow]` with
/// `oh = (h + 2p - kh) / s + 1`.
///
/// Two kernels compute it: the direct small-channel kernel (module
/// `direct`) where its measured shape/ISA rule (`direct::select`) picks
/// it, and otherwise a single `[o, k] × [k, n·oh·ow]` GEMM over the
/// virtual-im2col [`ColPacker`]. Both accumulate in the same order, so
/// results are bit-identical to the per-sample reference
/// ([`crate::reference::conv2d_reference`]) followed by the epilogue.
///
/// # Errors
///
/// Returns an error if the operands are not rank 4, the channel counts
/// disagree, the stride is zero, the kernel exceeds the padded input, or
/// an epilogue table does not have one value per output channel.
pub fn conv2d<'a>(
    input: &Tensor,
    weight: impl Into<ConvWeight<'a>>,
    stride: usize,
    padding: usize,
) -> Result<Tensor, TensorError> {
    let ConvWeight { weight, epilogue } = weight.into();
    check_rank4(input, "conv2d input")?;
    check_rank4(weight, "conv2d weight")?;
    let (o, wc, kh, kw) = (
        weight.shape()[0],
        weight.shape()[1],
        weight.shape()[2],
        weight.shape()[3],
    );
    if wc != input.shape()[1] {
        return Err(TensorError::ShapeMismatch {
            expected: vec![o, input.shape()[1], kh, kw],
            actual: weight.shape().to_vec(),
        });
    }
    let d = ConvDims::resolve(input.shape(), o, (kh, kw), stride, padding)?;
    epilogue.check(d.o)?;
    let mut out = Tensor::zeros(&[d.n, d.o, d.oh, d.ow]);
    match direct::select(Isa::detect(), d.o, d.kw, d.ow, stride) {
        Some((kernel, block)) => conv_direct(
            input, weight, &d, stride, padding, &epilogue, kernel, block, &mut out,
        ),
        None => conv_gemm(input, weight, &d, stride, padding, &epilogue, &mut out),
    }
    Ok(out)
}

/// The direct-kernel forward path: stages the (phase-split) padded input
/// and the `[k, block]` transposed weights in scratch, then runs `kernel`
/// over the batch, storing through `epilogue`.
#[allow(clippy::too_many_arguments)]
fn conv_direct(
    input: &Tensor,
    weight: &Tensor,
    d: &ConvDims,
    stride: usize,
    padding: usize,
    epilogue: &Epilogue<'_>,
    kernel: direct::DirectFn,
    block: usize,
    out: &mut Tensor,
) {
    let sample_in = d.c * d.hp * d.split_row(stride);
    let flops = 2usize
        .saturating_mul(d.k)
        .saturating_mul(d.o)
        .saturating_mul(d.n * d.spat);
    let run = |src: &[f32], out: &mut Tensor| {
        with_scratch(d.k * block, |wt| {
            for (p, tap) in wt.chunks_exact_mut(block).enumerate() {
                for (oi, t) in tap.iter_mut().enumerate() {
                    *t = if oi < d.o {
                        weight.data()[oi * d.k + p]
                    } else {
                        0.0
                    };
                }
            }
            let wt = &*wt;
            for_sample_chunks(out.data_mut(), d.o * d.spat, flops, |n0, chunk| {
                let nb = chunk.len() / (d.o * d.spat);
                kernel(
                    &src[n0 * sample_in..][..nb * sample_in],
                    wt,
                    d,
                    stride,
                    epilogue,
                    chunk,
                );
            });
        });
    };
    if padding == 0 && stride == 1 {
        run(input.data(), out);
    } else {
        with_scratch(d.n * sample_in, |src| {
            pad_into(input.data(), in_hw(input), padding, stride, src);
            run(src, out);
        });
    }
}

/// The GEMM forward path: one `[o, k] × [k, n·oh·ow]` product over the
/// virtual im2col, regrouped to NCHW through `epilogue`.
fn conv_gemm(
    input: &Tensor,
    weight: &Tensor,
    d: &ConvDims,
    stride: usize,
    padding: usize,
    epilogue: &Epilogue<'_>,
    out: &mut Tensor,
) {
    let cols = d.n * d.spat;
    let run = |padded: &[f32], out: &mut Tensor| {
        // [o, k] x [k, n*oh*ow] -> [o, n*oh*ow], columns packed on the
        // fly; the product is fully overwritten, so plain scratch is
        // fine.
        with_scratch(d.o * cols, |prod| {
            gemm_with_b(
                d.o,
                cols,
                d.k,
                weight.data(),
                Trans::N,
                &ColPacker { padded, d, stride },
                prod,
            );
            // Regroup [o, n*oh*ow] -> NCHW [n, o, oh, ow].
            let dst = out.data_mut();
            for ni in 0..d.n {
                for oi in 0..d.o {
                    let s0 = oi * cols + ni * d.spat;
                    let d0 = (ni * d.o + oi) * d.spat;
                    let dst = &mut dst[d0..d0 + d.spat];
                    dst.copy_from_slice(&prod[s0..s0 + d.spat]);
                    epilogue.apply(oi, dst);
                }
            }
        });
    };
    if padding == 0 {
        run(input.data(), out);
    } else {
        with_scratch(d.n * d.c * d.hp * d.wp, |padded| {
            pad_into(input.data(), in_hw(input), padding, 1, padded);
            run(padded, out);
        });
    }
}

/// Gradient of a convolution with respect to its weights.
///
/// `grad_output` is `[n, o, oh, ow]`; returns `[o, c, kh, kw]`.
///
/// Two kernels compute it: the direct small-channel kernel (module
/// `direct_bwd_weight`) where its measured shape/ISA rule
/// (`direct_bwd_weight::select`) picks it, and otherwise one
/// `[o, n·oh·ow] × [k, n·oh·ow]ᵀ` GEMM over the virtual transposed im2col
/// ([`ColTPacker`]). Both reduce each weight gradient over the flat
/// `n·oh·ow` axis in one fixed order (thread-count invariant), so they
/// agree bit for bit; that order differs from the pre-kernel per-sample
/// partial sums by rounding only — see
/// [`crate::reference::conv2d_backward_weight_reference`].
///
/// # Errors
///
/// Returns an error under the same conditions as [`conv2d`], or when
/// `grad_output`'s shape is inconsistent with the forward pass.
pub fn conv2d_backward_weight(
    input: &Tensor,
    grad_output: &Tensor,
    kernel: (usize, usize),
    stride: usize,
    padding: usize,
) -> Result<Tensor, TensorError> {
    let d = backward_weight_dims(input, grad_output, kernel, stride, padding)?;
    let path = match direct_bwd_weight::select(Isa::detect(), d.o, d.kw, stride) {
        Some(tile) => BwdWeightPath::Direct(tile),
        None => BwdWeightPath::Gemm,
    };
    let mut grad_w = vec![0.0f32; d.o * d.k];
    bwd_weight_run(path, input, grad_output, &d, stride, padding, &mut grad_w);
    Tensor::from_vec(grad_w, &[d.o, d.c, d.kh, d.kw])
}

/// Validates the operands of [`conv2d_backward_weight`] and resolves its
/// shape.
fn backward_weight_dims(
    input: &Tensor,
    grad_output: &Tensor,
    kernel: (usize, usize),
    stride: usize,
    padding: usize,
) -> Result<ConvDims, TensorError> {
    check_rank4(input, "conv2d input")?;
    check_rank4(grad_output, "conv2d grad_output")?;
    let o = grad_output.shape()[1];
    let d = ConvDims::resolve(input.shape(), o, kernel, stride, padding)?;
    if grad_output.shape() != [d.n, d.o, d.oh, d.ow] {
        return Err(TensorError::ShapeMismatch {
            expected: vec![d.n, d.o, d.oh, d.ow],
            actual: grad_output.shape().to_vec(),
        });
    }
    Ok(d)
}

/// One backward-weight kernel (see [`conv2d_backward_weight`]).
#[derive(Clone, Copy)]
enum BwdWeightPath {
    /// The whole-batch GEMM over the virtual transposed im2col.
    Gemm,
    /// The direct kernel with its tile.
    Direct(direct_bwd_weight::Tile),
}

/// Runs `path`, writing every element of `grad_w` (`[o, c·kh·kw]`).
fn bwd_weight_run(
    path: BwdWeightPath,
    input: &Tensor,
    grad_output: &Tensor,
    d: &ConvDims,
    stride: usize,
    padding: usize,
    grad_w: &mut [f32],
) {
    match path {
        BwdWeightPath::Gemm => {
            // [o, n*oh*ow] x [k, n*oh*ow]^T = [o, k], columns packed on
            // the fly from the padded input.
            let cols = d.n * d.spat;
            let mut run = |padded: &[f32]| {
                with_scratch(d.o * cols, |go| {
                    grad_to_rows_into(grad_output, d, go);
                    gemm_with_b(
                        d.o,
                        d.k,
                        cols,
                        go,
                        Trans::N,
                        &ColTPacker { padded, d, stride },
                        grad_w,
                    );
                });
            };
            if padding == 0 {
                run(input.data());
            } else {
                with_scratch(d.n * d.c * d.hp * d.wp, |padded| {
                    pad_into(input.data(), in_hw(input), padding, 1, padded);
                    run(padded);
                });
            }
        }
        BwdWeightPath::Direct(tile) => {
            bwd_weight_direct(tile, input, grad_output, d, stride, padding, grad_w);
        }
    }
}

/// The direct backward-weight path: accumulates the `[c·kh·kw, o_pad]`
/// transposed gradient over the batch and transposes it into `grad_w`.
/// Threads split the input rows `(c, ki)` — output space — only outside
/// a pool worker and above [`crate::kernels::PAR_MIN_FLOPS`]; every
/// thread walks every sample, so no reduction is split.
fn bwd_weight_direct(
    tile: direct_bwd_weight::Tile,
    input: &Tensor,
    grad_output: &Tensor,
    d: &ConvDims,
    stride: usize,
    padding: usize,
    grad_w: &mut [f32],
) {
    let rows = d.c * d.kh;
    let row_acc = d.kw * tile.o_pad();
    let run = |part: std::ops::Range<usize>, acc: &mut [f32]| {
        acc.fill(0.0);
        let (x, g) = (input.data(), grad_output.data());
        direct_bwd_weight::run(tile, x, g, d, stride, padding, part, acc);
    };
    // `acc` holds rows `(c·kh + ki)·kw + kj` from `p0` on; row `p` is
    // `dw[0..o, p]`.
    let transpose = |acc: &[f32], p0: usize, grad_w: &mut [f32]| {
        for (p, lanes) in acc.chunks_exact(tile.o_pad()).enumerate() {
            for (oi, &v) in lanes[..d.o].iter().enumerate() {
                grad_w[oi * d.k + p0 + p] = v;
            }
        }
    };
    let flops = 2usize
        .saturating_mul(d.k)
        .saturating_mul(d.o)
        .saturating_mul(d.n * d.spat);
    let threads = bprom_par::thread_count();
    if threads <= 1 || flops < crate::kernels::PAR_MIN_FLOPS || bprom_par::in_parallel_worker() {
        with_scratch(rows * row_acc, |acc| {
            run(0..rows, acc);
            transpose(acc, 0, grad_w);
        });
        return;
    }
    let per = rows.div_ceil(threads.min(rows));
    let accs = bprom_par::par_map_indexed(rows.div_ceil(per), |t| {
        let part = t * per..rows.min((t + 1) * per);
        let mut acc = vec![0.0f32; part.len() * row_acc];
        run(part, &mut acc);
        acc
    });
    for (t, acc) in accs.iter().enumerate() {
        transpose(acc, t * per * d.kw, grad_w);
    }
}

/// The weight gradient from every backward-weight kernel the running CPU
/// can execute, each labelled (`"gemm"`, `"direct Avx512 r8"`, ...): the
/// GEMM, and the direct kernel per ISA at every tile height its
/// instantiation has, whichever one [`conv2d_backward_weight`] would
/// select for the shape. The property sweep compares them bitwise with
/// each other and with the flat-order scalar model; exported from
/// [`crate::reference`].
///
/// # Errors
///
/// Returns an error under the same conditions as
/// [`conv2d_backward_weight`].
pub fn conv2d_backward_weight_every_path(
    input: &Tensor,
    grad_output: &Tensor,
    kernel: (usize, usize),
    stride: usize,
    padding: usize,
) -> Result<Vec<(String, Tensor)>, TensorError> {
    let d = backward_weight_dims(input, grad_output, kernel, stride, padding)?;
    let mut paths = vec![("gemm".to_string(), BwdWeightPath::Gemm)];
    for isa in Isa::ALL.into_iter().filter(|isa| isa.supported()) {
        if let Some(tile) = direct_bwd_weight::tile(isa, d.o, d.kw) {
            for r in tile.heights() {
                paths.push((
                    format!("direct {isa:?} r{r}"),
                    BwdWeightPath::Direct(tile.capped(r)),
                ));
            }
        }
    }
    paths
        .into_iter()
        .map(|(name, path)| {
            // Every path writes every element; NaN-fill shows one it skips.
            let mut grad_w = vec![f32::NAN; d.o * d.k];
            bwd_weight_run(path, input, grad_output, &d, stride, padding, &mut grad_w);
            Ok((name, Tensor::from_vec(grad_w, &[d.o, d.c, d.kh, d.kw])?))
        })
        .collect()
}

/// Fused per-sample backward-input kernel for a chunk of samples.
///
/// For each sample and each input channel `ci`, combines just that
/// channel's `kh·kw` column-gradient rows (`acc[t] = Σ_p w[p, ci·kh·kw+t]
/// · grad[p]`, a few KB — L1-resident) and immediately scatters them with
/// [`col2im_sample`] as a single-channel block, so not even a per-sample
/// `[k, oh·ow]` column block is materialized, let alone the whole-batch
/// `[k, n·oh·ow]` gradient.
///
/// Each column element accumulates over `p = 0..o` in increasing order
/// starting from `0.0`, one separate multiply and add per step, and the
/// scatter still visits `(ci, ki, kj)` in increasing order — bit-identical
/// to the per-sample reference at any thread count (threads split
/// samples, never a reduction).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn bwd_input_samples_body(
    w: &[f32],
    grad: &[f32],
    d: &ConvDims,
    h: usize,
    width: usize,
    stride: usize,
    pad: usize,
    ni0: usize,
    out_chunk: &mut [f32],
) {
    let spat = d.spat;
    let khw = d.kh * d.kw;
    let sample_in = d.c * h * width;
    let chan = h * width;
    let mut acc = vec![0.0f32; khw * spat];
    for (s, out_s) in out_chunk.chunks_exact_mut(sample_in).enumerate() {
        let ni = ni0 + s;
        let gs = &grad[ni * d.o * spat..][..d.o * spat];
        for ci in 0..d.c {
            for t in 0..khw {
                let i = ci * khw + t;
                let dst = &mut acc[t * spat..][..spat];
                // Block 4 output channels per sweep so the accumulator
                // row is loaded/stored once per block instead of once
                // per channel; the first sweep starts each element at
                // the literal `0.0`, so no fill pass is needed. Per
                // element the adds still happen in increasing `p`
                // order, one separate multiply and add each — the same
                // value sequence as a plain `p` loop over a zeroed row.
                let mut p = 0;
                while p + 4 <= d.o {
                    let a0 = w[p * d.k + i];
                    let a1 = w[(p + 1) * d.k + i];
                    let a2 = w[(p + 2) * d.k + i];
                    let a3 = w[(p + 3) * d.k + i];
                    let s0 = &gs[p * spat..][..spat];
                    let s1 = &gs[(p + 1) * spat..][..spat];
                    let s2 = &gs[(p + 2) * spat..][..spat];
                    let s3 = &gs[(p + 3) * spat..][..spat];
                    let first = p == 0;
                    for (j, dv) in dst.iter_mut().enumerate() {
                        let mut v = if first { 0.0 } else { *dv };
                        v += a0 * s0[j];
                        v += a1 * s1[j];
                        v += a2 * s2[j];
                        v += a3 * s3[j];
                        *dv = v;
                    }
                    p += 4;
                }
                if p == 0 {
                    dst.fill(0.0);
                }
                while p < d.o {
                    let a_ip = w[p * d.k + i];
                    let src = &gs[p * spat..][..spat];
                    for (dv, &sv) in dst.iter_mut().zip(src) {
                        *dv += a_ip * sv;
                    }
                    p += 1;
                }
            }
            col2im_sample(
                &acc,
                &mut out_s[ci * chan..][..chan],
                1,
                h,
                width,
                d.kh,
                d.kw,
                stride,
                pad,
                d.oh,
                d.ow,
                spat,
                0,
            );
        }
    }
}

/// Argument bundle + dispatch for [`bwd_input_samples_body`].
type BwdInputFn = fn(&[f32], &[f32], &ConvDims, usize, usize, usize, usize, usize, &mut [f32]);

#[allow(clippy::too_many_arguments)]
fn bwd_input_samples_generic(
    w: &[f32],
    grad: &[f32],
    d: &ConvDims,
    h: usize,
    width: usize,
    stride: usize,
    pad: usize,
    ni0: usize,
    out_chunk: &mut [f32],
) {
    bwd_input_samples_body(w, grad, d, h, width, stride, pad, ni0, out_chunk);
}

/// AVX2 instantiation — wider madd lanes, still one separate multiply
/// and add per step (Rust never contracts to FMA), so the values are
/// bit-identical to [`bwd_input_samples_generic`].
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
fn bwd_input_samples_avx2(
    w: &[f32],
    grad: &[f32],
    d: &ConvDims,
    h: usize,
    width: usize,
    stride: usize,
    pad: usize,
    ni0: usize,
    out_chunk: &mut [f32],
) {
    bwd_input_samples_body(w, grad, d, h, width, stride, pad, ni0, out_chunk);
}

/// AVX-512VL instantiation — same body again, with EVEX embedded
/// broadcasts and the larger register file available. Lanewise separate
/// multiply and add as ever, so bits are unchanged.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx512f,avx512vl")]
fn bwd_input_samples_avx512(
    w: &[f32],
    grad: &[f32],
    d: &ConvDims,
    h: usize,
    width: usize,
    stride: usize,
    pad: usize,
    ni0: usize,
    out_chunk: &mut [f32],
) {
    bwd_input_samples_body(w, grad, d, h, width, stride, pad, ni0, out_chunk);
}

/// The fused-pass instantiation for `isa`.
///
/// # Panics
///
/// If the running CPU does not support `isa`.
fn fused_bwd_input(isa: Isa) -> BwdInputFn {
    assert!(isa.supported(), "{isa:?} fused kernel on a CPU without it");
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => |w, grad, d, h, width, stride, pad, ni0, out| {
            // SAFETY: `fused_bwd_input` asserted AVX-512F+VL support.
            unsafe { bwd_input_samples_avx512(w, grad, d, h, width, stride, pad, ni0, out) }
        },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => |w, grad, d, h, width, stride, pad, ni0, out| {
            // SAFETY: `fused_bwd_input` asserted AVX2 support.
            unsafe { bwd_input_samples_avx2(w, grad, d, h, width, stride, pad, ni0, out) }
        },
        _ => bwd_input_samples_generic,
    }
}

/// Gradient of a convolution with respect to its input.
///
/// Three kernels compute it, chosen by shape and ISA only:
///
/// * layers with few input channels run the direct kernel (module
///   `direct_bwd`) where its measured rule (`direct_bwd::select`) picks
///   it;
/// * other layers with `o ≥ 16` output channels run one whole-batch
///   `[o, k]ᵀ × [o, n·oh·ow]` GEMM over the [`GradRowsPacker`] operand and
///   scatter it with [`col2im_sample`];
/// * everything else runs the fused per-channel pass
///   ([`bwd_input_samples_body`]).
///
/// All three accumulate in the same order, so results are bit-identical
/// to the per-sample reference at any thread count.
///
/// # Errors
///
/// Returns an error under the same conditions as [`conv2d`], or when
/// `grad_output`'s shape is inconsistent with the forward pass.
pub fn conv2d_backward_input(
    weight: &Tensor,
    grad_output: &Tensor,
    input_shape: &[usize],
    stride: usize,
    padding: usize,
) -> Result<Tensor, TensorError> {
    let d = backward_input_dims(weight, grad_output, input_shape, stride, padding)?;
    let mut grad = Tensor::zeros(input_shape);
    let path = select_bwd_input_path(Isa::detect(), &d, stride);
    bwd_input_run(path, weight, grad_output, &d, stride, padding, &mut grad);
    Ok(grad)
}

/// The backward-input kernel for a shape on `isa`: the direct kernel
/// where its measured rule picks it, else the GEMM for deep-`o` layers,
/// else the fused pass.
fn select_bwd_input_path(isa: Isa, d: &ConvDims, stride: usize) -> BwdInputPath {
    match direct_bwd::select(isa, d.c, d.kw, stride) {
        Some((kernel, block)) => BwdInputPath::Direct(kernel, block),
        None if d.o >= GEMM_MIN_O => BwdInputPath::Gemm,
        None => BwdInputPath::Fused(fused_bwd_input(isa)),
    }
}

/// Deep-`o` layers the direct kernel does not take amortize the packed
/// driver's overhead across a long reduction and run ~3x faster through
/// the whole-batch GEMM; shallow-`o` layers are the opposite (packing
/// overhead dominates an 8-deep reduction), so they take the fused pass.
const GEMM_MIN_O: usize = 16;

/// Validates the operands of [`conv2d_backward_input`] and resolves its
/// shape.
fn backward_input_dims(
    weight: &Tensor,
    grad_output: &Tensor,
    input_shape: &[usize],
    stride: usize,
    padding: usize,
) -> Result<ConvDims, TensorError> {
    check_rank4(weight, "conv2d weight")?;
    check_rank4(grad_output, "conv2d grad_output")?;
    if input_shape.len() != 4 {
        return Err(TensorError::InvalidShape {
            reason: format!("input_shape must be rank 4, got {input_shape:?}"),
        });
    }
    let (o, kh, kw) = (weight.shape()[0], weight.shape()[2], weight.shape()[3]);
    let d = ConvDims::resolve(input_shape, o, (kh, kw), stride, padding)?;
    if grad_output.shape() != [d.n, d.o, d.oh, d.ow] {
        return Err(TensorError::ShapeMismatch {
            expected: vec![d.n, d.o, d.oh, d.ow],
            actual: grad_output.shape().to_vec(),
        });
    }
    Ok(d)
}

/// One backward-input kernel (see [`conv2d_backward_input`]).
#[derive(Clone, Copy)]
enum BwdInputPath {
    /// The whole-batch GEMM plus col2im.
    Gemm,
    /// The direct kernel instantiation and its channel block.
    Direct(direct_bwd::DirectBwdFn, usize),
    /// The fused per-channel pass.
    Fused(BwdInputFn),
}

/// Runs `path` into the zeroed `grad` (`[n, c, h, w]`): the strided
/// col2im scatter adds into it.
fn bwd_input_run(
    path: BwdInputPath,
    weight: &Tensor,
    grad_output: &Tensor,
    d: &ConvDims,
    stride: usize,
    padding: usize,
    grad: &mut Tensor,
) {
    let (h, w) = (d.hp - 2 * padding, d.wp - 2 * padding);
    let sample_in = d.c * h * w;
    let wd = weight.data();
    let go = grad_output.data();
    let flops = 2usize
        .saturating_mul(d.k)
        .saturating_mul(d.o)
        .saturating_mul(d.n * d.spat);
    match path {
        BwdInputPath::Gemm => {
            let cols = d.n * d.spat;
            with_scratch(d.k * cols, |col_grad| {
                gemm_with_b(
                    d.k,
                    cols,
                    d.o,
                    wd,
                    Trans::T,
                    &GradRowsPacker { grad: go, d },
                    col_grad,
                );
                for (ni, out_s) in grad.data_mut().chunks_exact_mut(sample_in).enumerate() {
                    col2im_sample(
                        col_grad,
                        out_s,
                        d.c,
                        h,
                        w,
                        d.kh,
                        d.kw,
                        stride,
                        padding,
                        d.oh,
                        d.ow,
                        cols,
                        ni * d.spat,
                    );
                }
            });
        }
        BwdInputPath::Direct(kernel, block) => {
            let khw = d.kh * d.kw;
            let (left, row) = direct_bwd::staged_row(d, stride, padding);
            let sample_g = d.o * d.oh * row;
            with_scratch(d.n * sample_g, |staged| {
                for (dst, src) in staged.chunks_exact_mut(row).zip(go.chunks_exact(d.ow)) {
                    dst[..left].fill(0.0);
                    dst[left..left + d.ow].copy_from_slice(src);
                    dst[left + d.ow..].fill(0.0);
                }
                let staged = &*staged;
                with_scratch(khw * d.o * block, |wt| {
                    // Row `tap·o + p` holds `w[p, 0..c, tap]`, zeros past `c`.
                    for (i, dst) in wt.chunks_exact_mut(block).enumerate() {
                        let (tap, p) = (i / d.o, i % d.o);
                        for (ci, v) in dst.iter_mut().enumerate() {
                            *v = if ci < d.c {
                                wd[(p * d.c + ci) * khw + tap]
                            } else {
                                0.0
                            };
                        }
                    }
                    let wt = &*wt;
                    for_sample_chunks(grad.data_mut(), sample_in, flops, |n0, chunk| {
                        let nb = chunk.len() / sample_in;
                        kernel(
                            &staged[n0 * sample_g..][..nb * sample_g],
                            wt,
                            d,
                            stride,
                            padding,
                            chunk,
                        );
                    });
                });
            });
        }
        BwdInputPath::Fused(kernel) => {
            for_sample_chunks(grad.data_mut(), sample_in, flops, |ni0, out_chunk| {
                kernel(wd, go, d, h, w, stride, padding, ni0, out_chunk)
            });
        }
    }
}

/// The input gradient from every backward-input kernel the running CPU
/// can execute, each labelled (`"gemm"`, `"fused Avx2"`, `"direct
/// Avx512"`, ...): the GEMM, the fused pass per ISA and the direct kernel
/// per ISA when an instantiation holds `c`, whichever one
/// [`conv2d_backward_input`] would select for the shape. The property
/// sweep compares them bitwise with each other and with
/// [`crate::reference::conv2d_backward_input_reference`]; exported from
/// [`crate::reference`].
///
/// # Errors
///
/// Returns an error under the same conditions as
/// [`conv2d_backward_input`].
pub fn conv2d_backward_input_every_path(
    weight: &Tensor,
    grad_output: &Tensor,
    input_shape: &[usize],
    stride: usize,
    padding: usize,
) -> Result<Vec<(String, Tensor)>, TensorError> {
    let d = backward_input_dims(weight, grad_output, input_shape, stride, padding)?;
    let mut paths = vec![("gemm".to_string(), BwdInputPath::Gemm)];
    for isa in Isa::ALL.into_iter().filter(|isa| isa.supported()) {
        paths.push((
            format!("fused {isa:?}"),
            BwdInputPath::Fused(fused_bwd_input(isa)),
        ));
        let direct = direct_bwd::block(d.c).and_then(|b| Some((direct_bwd::kernel(isa, b)?, b)));
        if let Some((kernel, block)) = direct {
            paths.push((
                format!("direct {isa:?}"),
                BwdInputPath::Direct(kernel, block),
            ));
        }
    }
    Ok(paths
        .into_iter()
        .map(|(name, path)| {
            // The scatter paths add into a zeroed gradient; the direct
            // kernel writes every element, so NaN-fill shows one it skips.
            let fill = match path {
                BwdInputPath::Direct(..) => f32::NAN,
                _ => 0.0,
            };
            let mut grad = Tensor::full(input_shape, fill);
            bwd_input_run(path, weight, grad_output, &d, stride, padding, &mut grad);
            (name, grad)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::conv2d_naive;
    use crate::Rng;
    use std::sync::Mutex;

    /// Held by the timed tests so two of them never measure at once.
    static TIMED: Mutex<()> = Mutex::new(());

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn forward_matches_naive() {
        let mut rng = Rng::new(1);
        for &(stride, pad) in &[(1usize, 0usize), (1, 1), (2, 1), (2, 0)] {
            let input = Tensor::randn(&[2, 3, 8, 8], &mut rng);
            let weight = Tensor::randn(&[4, 3, 3, 3], &mut rng);
            let fast = conv2d(&input, &weight, stride, pad).unwrap();
            let slow = conv2d_naive(&input, &weight, stride, pad);
            assert_close(&fast, &slow, 1e-4);
        }
    }

    #[test]
    #[should_panic(expected = "offset table holds at most 2 values")]
    fn offset_table_overflow_panics() {
        take_array::<2>([1, 2, 3].into_iter());
    }

    #[test]
    fn pad_unpad_round_trip() {
        let mut rng = Rng::new(2);
        let t = Tensor::randn(&[1, 2, 5, 5], &mut rng);
        let p = pad2d(&t, 2).unwrap();
        assert_eq!(p.shape(), &[1, 2, 9, 9]);
        let u = unpad2d(&p, 2).unwrap();
        assert_close(&u, &t, 1e-7);
        // Padding with zero is the identity.
        assert_eq!(pad2d(&t, 0).unwrap(), t);
    }

    #[test]
    fn backward_weight_matches_finite_difference() {
        let mut rng = Rng::new(3);
        let input = Tensor::randn(&[1, 2, 5, 5], &mut rng);
        let mut weight = Tensor::randn(&[2, 2, 3, 3], &mut rng);
        let stride = 1;
        let pad = 1;
        // Loss = sum of outputs; dL/dy = ones.
        let out = conv2d(&input, &weight, stride, pad).unwrap();
        let grad_out = Tensor::ones(out.shape());
        let gw = conv2d_backward_weight(&input, &grad_out, (3, 3), stride, pad).unwrap();
        let eps = 1e-2;
        for &flat in &[0usize, 7, 17, 35] {
            let orig = weight.data()[flat];
            weight.data_mut()[flat] = orig + eps;
            let lp = conv2d(&input, &weight, stride, pad).unwrap().sum();
            weight.data_mut()[flat] = orig - eps;
            let lm = conv2d(&input, &weight, stride, pad).unwrap().sum();
            weight.data_mut()[flat] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = gw.data()[flat];
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "flat={flat}: numeric={numeric}, analytic={analytic}"
            );
        }
    }

    #[test]
    fn backward_input_matches_finite_difference() {
        let mut rng = Rng::new(4);
        let mut input = Tensor::randn(&[1, 2, 5, 5], &mut rng);
        let weight = Tensor::randn(&[2, 2, 3, 3], &mut rng);
        let stride = 1;
        let pad = 1;
        let out = conv2d(&input, &weight, stride, pad).unwrap();
        let grad_out = Tensor::ones(out.shape());
        let gi = conv2d_backward_input(&weight, &grad_out, &[1, 2, 5, 5], stride, pad).unwrap();
        let eps = 1e-2;
        for &flat in &[0usize, 12, 24, 49] {
            let orig = input.data()[flat];
            input.data_mut()[flat] = orig + eps;
            let lp = conv2d(&input, &weight, stride, pad).unwrap().sum();
            input.data_mut()[flat] = orig - eps;
            let lm = conv2d(&input, &weight, stride, pad).unwrap().sum();
            input.data_mut()[flat] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = gi.data()[flat];
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "flat={flat}: numeric={numeric}, analytic={analytic}"
            );
        }
    }

    #[test]
    fn stride2_backward_shapes() {
        let mut rng = Rng::new(5);
        let input = Tensor::randn(&[2, 3, 8, 8], &mut rng);
        let weight = Tensor::randn(&[4, 3, 3, 3], &mut rng);
        let out = conv2d(&input, &weight, 2, 1).unwrap();
        assert_eq!(out.shape(), &[2, 4, 4, 4]);
        let gw = conv2d_backward_weight(&input, &out, (3, 3), 2, 1).unwrap();
        assert_eq!(gw.shape(), weight.shape());
        let gi = conv2d_backward_input(&weight, &out, &[2, 3, 8, 8], 2, 1).unwrap();
        assert_eq!(gi.shape(), input.shape());
    }

    #[test]
    fn invalid_parameters_are_errors() {
        let input = Tensor::zeros(&[1, 1, 4, 4]);
        let weight = Tensor::zeros(&[1, 1, 3, 3]);
        assert!(conv2d(&input, &weight, 0, 0).is_err());
        let big_kernel = Tensor::zeros(&[1, 1, 9, 9]);
        assert!(conv2d(&input, &big_kernel, 1, 0).is_err());
        let wrong_ch = Tensor::zeros(&[1, 2, 3, 3]);
        assert!(conv2d(&input, &wrong_ch, 1, 1).is_err());
    }

    fn assert_same_bits(a: &Tensor, b: &Tensor, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}");
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            // NaN payloads are not pinned: LLVM may commute the operands
            // of a multiply or add. Every other bit is.
            assert!(
                x.to_bits() == y.to_bits() || x.is_nan() && y.is_nan(),
                "{what}: element {i}: {x:?} vs {y:?}"
            );
        }
    }

    /// The unfused epilogue: separate bias, batch-norm and ReLU passes.
    fn epilogue_passes(t: &mut Tensor, bias: &[f32], norm: &ChannelNorm<'_>) {
        let o = bias.len();
        let plane = t.len() / t.shape()[0] / o;
        for (i, vals) in t.data_mut().chunks_exact_mut(plane).enumerate() {
            let c = i % o;
            for v in vals.iter_mut() {
                *v += bias[c];
            }
            for v in vals.iter_mut() {
                let xh = (*v - norm.mean[c]) * norm.inv_std[c];
                *v = norm.gamma[c] * xh + norm.beta[c];
            }
            for v in vals.iter_mut() {
                *v = if *v > 0.0 { *v } else { 0.0 };
            }
        }
    }

    /// Every direct-kernel instantiation the host can run, not only the
    /// one [`conv2d`] selects, against the scalar reference — bitwise,
    /// with NaN, ±inf and −0.0 in inputs and weights, with and without a
    /// full epilogue. Covers both tile heights, a partial last tile row,
    /// every accumulator block and both strides.
    #[test]
    fn every_supported_direct_kernel_matches_reference_bitwise() {
        let mut rng = Rng::new(11);
        // (n, c, o, k, stride, pad, h, w)
        let shapes = [
            (3, 3, 6, 3, 1, 1, 16, 16),
            (2, 6, 10, 3, 2, 1, 16, 16),
            (2, 10, 10, 3, 1, 1, 8, 8),
            (2, 6, 10, 1, 2, 0, 16, 16),
            (2, 6, 8, 1, 1, 0, 8, 8),
            (2, 2, 1, 3, 1, 1, 5, 8),
            (1, 4, 3, 2, 2, 0, 9, 17),
            (1, 5, 12, 3, 1, 2, 7, 12),
            (1, 3, 4, 5, 1, 2, 6, 4),
        ];
        let special = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
        let mut covered = 0;
        for &(n, c, o, k, stride, pad, h, w) in &shapes {
            let mut input = Tensor::randn(&[n, c, h, w], &mut rng);
            let mut weight = Tensor::randn(&[o, c, k, k], &mut rng);
            let (li, lw) = (input.len(), weight.len());
            for (i, &v) in special.iter().enumerate() {
                input.data_mut()[(37 * i + 5) % li] = v;
                if o > 2 {
                    // Leave the other channels finite so the comparison
                    // also sees ordinary values.
                    weight.data_mut()[(i * c * k * k + 1) % lw] = v;
                }
            }
            let tables: Vec<Vec<f32>> = (0..5)
                .map(|t| {
                    (0..o)
                        .map(|_| rng.normal() * if t == 2 { 0.1 } else { 1.0 })
                        .collect()
                })
                .collect();
            let inv_std: Vec<f32> = tables[2].iter().map(|s| 1.0 + s.abs()).collect();
            let norm = ChannelNorm {
                mean: &tables[1],
                inv_std: &inv_std,
                gamma: &tables[3],
                beta: &tables[4],
            };
            let fused = Epilogue {
                bias: Some(&tables[0]),
                norm: Some(norm),
                relu: true,
            };
            let reference =
                crate::reference::conv2d_reference(&input, &weight, stride, pad).unwrap();
            let mut reference_fused = reference.clone();
            epilogue_passes(&mut reference_fused, &tables[0], &norm);
            let d = ConvDims::resolve(input.shape(), o, (k, k), stride, pad).unwrap();
            for isa in Isa::ALL.into_iter().filter(|isa| isa.supported()) {
                let Some((block, rows)) = direct::tile(isa, o, d.ow) else {
                    continue;
                };
                let Some(kernel) = direct::kernel(isa, block, rows) else {
                    continue;
                };
                let what = format!("{isa:?} n={n} c={c} o={o} k={k} s={stride} p={pad} {h}x{w}");
                for (epi, want) in [(Epilogue::default(), &reference), (fused, &reference_fused)] {
                    let mut out = Tensor::full(&[n, o, d.oh, d.ow], f32::NAN);
                    conv_direct(
                        &input, &weight, &d, stride, pad, &epi, kernel, block, &mut out,
                    );
                    assert_same_bits(&out, want, &what);
                }
                covered += 1;
            }
            // The public entry point, whichever kernel it picks.
            let weight_op = ConvWeight {
                weight: &weight,
                epilogue: fused,
            };
            let out = conv2d(&input, weight_op, stride, pad).unwrap();
            assert_same_bits(&out, &reference_fused, "conv2d with epilogue");
        }
        if Isa::detect() != Isa::Generic {
            assert!(covered > 0, "no direct instantiation exercised");
        }
    }

    /// Every backward-input kernel the host can run — the GEMM, the fused
    /// pass and the direct kernel per ISA — against the scalar reference,
    /// bitwise, with NaN, ±inf and −0.0 in weights and gradients. Covers
    /// every direct channel block, strides 1 to 3, padding beyond the
    /// kernel's reach, partial tiles and narrow rows.
    #[test]
    fn every_backward_input_path_matches_reference_bitwise() {
        let mut rng = Rng::new(12);
        // (n, c, o, k, stride, pad, h, w)
        let shapes = [
            (3, 3, 6, 3, 1, 1, 16, 16),
            (2, 6, 6, 3, 1, 1, 16, 16),
            (2, 6, 10, 3, 2, 1, 16, 16),
            (2, 10, 10, 3, 1, 1, 8, 8),
            (2, 6, 10, 1, 2, 0, 16, 16),
            (1, 12, 5, 3, 1, 2, 7, 12),
            (1, 8, 3, 5, 1, 2, 6, 9),
            (2, 4, 2, 2, 2, 0, 9, 17),
            (1, 1, 1, 3, 2, 1, 16, 16),
            (1, 5, 17, 3, 1, 1, 8, 8),
            (1, 2, 3, 3, 3, 1, 10, 11),
            (1, 3, 4, 3, 2, 1, 3, 3),
            (1, 3, 2, 1, 1, 2, 5, 7),
        ];
        let special = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
        for &(n, c, o, k, stride, pad, h, w) in &shapes {
            let shape = [n, c, h, w];
            let d = ConvDims::resolve(&shape, o, (k, k), stride, pad).unwrap();
            let mut weight = Tensor::randn(&[o, c, k, k], &mut rng);
            let mut grad = Tensor::randn(&[n, o, d.oh, d.ow], &mut rng);
            let (lw, lg) = (weight.len(), grad.len());
            for (i, &v) in special.iter().enumerate() {
                grad.data_mut()[(41 * i + 3) % lg] = v;
                weight.data_mut()[(5 * i + 2) % lw] = v;
            }
            let want = crate::reference::conv2d_backward_input_reference(
                &weight, &grad, &shape, stride, pad,
            )
            .unwrap();
            let what = format!("n={n} c={c} o={o} k={k} s={stride} p={pad} {h}x{w}");
            let paths =
                conv2d_backward_input_every_path(&weight, &grad, &shape, stride, pad).unwrap();
            let directs = paths.iter().filter(|(name, _)| name.starts_with("direct"));
            if Isa::detect() != Isa::Generic && c <= 12 {
                assert!(
                    directs.count() > 0,
                    "{what}: no direct instantiation exercised"
                );
            }
            for (name, got) in &paths {
                assert_same_bits(got, &want, &format!("{name} {what}"));
            }
            let public = conv2d_backward_input(&weight, &grad, &shape, stride, pad).unwrap();
            assert_same_bits(&public, &want, &format!("conv2d_backward_input {what}"));
        }
    }

    /// Per-call microseconds of each candidate: best of 7 rounds of 40
    /// calls, the candidates interleaved within each round so host drift
    /// hits them alike. Shared by the kernel profilers.
    fn best_times(fs: &mut [&mut dyn FnMut()]) -> Vec<f64> {
        let mut best = vec![f64::MAX; fs.len()];
        for _ in 0..7 {
            for (f, b) in fs.iter_mut().zip(&mut best) {
                let t0 = std::time::Instant::now();
                for _ in 0..40 {
                    f();
                }
                *b = b.min(t0.elapsed().as_secs_f64() / 40.0 * 1e6);
            }
        }
        best
    }

    /// Development profiler for the direct-kernel selection rule: times
    /// the GEMM and every supported direct instantiation on the
    /// small-channel inference shapes at the 48-row query batch,
    /// single-threaded, and prints the table to stderr. Run with
    /// `cargo test --release -p bprom-tensor -- --ignored profile_forward_kernels --nocapture`.
    #[test]
    #[ignore]
    fn profile_forward_kernels() {
        // (name, c, o, k, stride, pad, side)
        const SHAPES: [(&str, usize, usize, usize, usize, usize, usize); 15] = [
            ("stem 3>6", 3, 6, 3, 1, 1, 16),
            ("block1 6>6", 6, 6, 3, 1, 1, 16),
            ("block2a 6>10 s2", 6, 10, 3, 2, 1, 16),
            ("block2b 10>10 8x8", 10, 10, 3, 1, 1, 8),
            ("proj 6>10 1x1 s2", 6, 10, 1, 2, 0, 16),
            ("stem 3>8", 3, 8, 3, 1, 1, 16),
            ("block1 8>8", 8, 8, 3, 1, 1, 16),
            ("stem 3>12", 3, 12, 3, 1, 1, 16),
            ("block1 12>12", 12, 12, 3, 1, 1, 16),
            ("pw 6>8 8x8", 6, 8, 1, 1, 0, 8),
            ("pw 8>10 8x8", 8, 10, 1, 1, 0, 8),
            // MobileNetMini's depthwise convs run one channel at a time.
            ("dw 1>1 s2", 1, 1, 3, 2, 1, 16),
            ("dw 1>1 8x8", 1, 1, 3, 1, 1, 8),
            ("stem 3>4", 3, 4, 3, 1, 1, 16),
            ("block1 4>4", 4, 4, 3, 1, 1, 16),
        ];
        let n = 48;
        let _timed = TIMED.lock().unwrap_or_else(|e| e.into_inner());
        bprom_par::set_thread_count(1);
        let mut rng = Rng::new(42);
        let mut report = String::new();
        for &(name, c, o, k, stride, pad, side) in &SHAPES {
            let input = Tensor::randn(&[n, c, side, side], &mut rng);
            let weight = Tensor::randn(&[o, c, k, k], &mut rng);
            let d = ConvDims::resolve(input.shape(), o, (k, k), stride, pad).unwrap();
            let epi = Epilogue::default();
            let mut reference = Tensor::zeros(&[n, o, d.oh, d.ow]);
            conv_gemm(&input, &weight, &d, stride, pad, &epi, &mut reference);
            let isas: Vec<(Isa, usize, direct::DirectFn)> = Isa::ALL
                .into_iter()
                .filter(|i| i.supported())
                .filter_map(|isa| {
                    let (block, rows) = direct::tile(isa, o, d.ow)?;
                    Some((isa, block, direct::kernel(isa, block, rows)?))
                })
                .collect();
            let mut outs = vec![Tensor::zeros(&[n, o, d.oh, d.ow]); isas.len() + 1];
            let (gemm_out, direct_outs) = outs.split_first_mut().unwrap();
            let mut gemm = || conv_gemm(&input, &weight, &d, stride, pad, &epi, gemm_out);
            let mut runs: Vec<Box<dyn FnMut()>> = isas
                .iter()
                .zip(direct_outs.iter_mut())
                .map(|(&(_, block, kernel), out)| {
                    let (input, weight, d, epi) = (&input, &weight, &d, &epi);
                    Box::new(move || {
                        conv_direct(input, weight, d, stride, pad, epi, kernel, block, out)
                    }) as Box<dyn FnMut()>
                })
                .collect();
            let mut fs: Vec<&mut dyn FnMut()> = vec![&mut gemm];
            fs.extend(runs.iter_mut().map(|r| &mut **r as &mut dyn FnMut()));
            let t = best_times(&mut fs);
            drop(runs);
            report.push_str(&format!("\n{name}: gemm {:.0}us", t[0]));
            for ((isa, ..), (ti, out)) in isas.iter().zip(t[1..].iter().zip(&outs[1..])) {
                assert_eq!(out, &reference, "{name} {isa:?}");
                report.push_str(&format!(" | {isa:?} {ti:.0}us ({:.2}x)", t[0] / ti));
            }
        }
        bprom_par::set_thread_count(0);
        eprintln!("{report}");
    }

    /// Development profiler for the two direct backward selection rules,
    /// the twin of `profile_forward_kernels`: on the small-channel
    /// training shapes at the 32-row training batch, single-threaded,
    /// times the GEMM, the fused pass and every supported direct
    /// instantiation of backward-input, then the GEMM and every supported
    /// direct instantiation of backward-weight, and prints both tables to
    /// stderr. Run with
    /// `cargo test --release -p bprom-tensor -- --ignored profile_backward_kernels --nocapture`.
    #[test]
    #[ignore]
    fn profile_backward_kernels() {
        // (name, c, o, k, stride, pad, side)
        const SHAPES: [(&str, usize, usize, usize, usize, usize, usize); 23] = [
            ("stem 3>6", 3, 6, 3, 1, 1, 16),
            ("block1 6>6", 6, 6, 3, 1, 1, 16),
            ("block2a 6>10 s2", 6, 10, 3, 2, 1, 16),
            ("block2b 10>10 8x8", 10, 10, 3, 1, 1, 8),
            ("proj 6>10 1x1 s2", 6, 10, 1, 2, 0, 16),
            ("block1 8>8", 8, 8, 3, 1, 1, 16),
            ("block2a 8>32 s2", 8, 32, 3, 2, 1, 16),
            ("block1 12>12", 12, 12, 3, 1, 1, 16),
            ("block2a 12>48 s2", 12, 48, 3, 2, 1, 16),
            ("pw 6>8 8x8", 6, 8, 1, 1, 0, 8),
            ("pw 8>10 8x8", 8, 10, 1, 1, 0, 8),
            // MobileNetMini's depthwise convs run one channel at a time.
            ("dw 1>1 s2", 1, 1, 3, 2, 1, 16),
            ("dw 1>1 8x8", 1, 1, 3, 1, 1, 8),
            ("block1 4>4", 4, 4, 3, 1, 1, 16),
            ("block1 6>6 12x12", 6, 6, 3, 1, 1, 12),
            ("block1 6>6 24x24", 6, 6, 3, 1, 1, 24),
            ("block2a 6>10 s2 24x24", 6, 10, 3, 2, 1, 24),
            ("block1 6>6 4x4", 6, 6, 3, 1, 1, 4),
            ("block2a 6>10 s2 8x8", 6, 10, 3, 2, 1, 8),
            ("wide 8>32 16x16", 8, 32, 3, 1, 1, 16),
            ("wide 12>48 8x8", 12, 48, 3, 1, 1, 8),
            ("stem 2>6", 2, 6, 3, 1, 1, 16),
            ("k5 6>6", 6, 6, 5, 1, 2, 16),
        ];
        let n = 32;
        let _timed = TIMED.lock().unwrap_or_else(|e| e.into_inner());
        bprom_par::set_thread_count(1);
        let mut rng = Rng::new(43);
        let mut report = String::new();
        for &(name, c, o, k, stride, pad, side) in &SHAPES {
            let shape = [n, c, side, side];
            let d = ConvDims::resolve(&shape, o, (k, k), stride, pad).unwrap();
            let weight = Tensor::randn(&[o, c, k, k], &mut rng);
            let grad = Tensor::randn(&[n, o, d.oh, d.ow], &mut rng);
            let isa = Isa::detect();
            let mut paths = vec![
                ("gemm".to_string(), BwdInputPath::Gemm),
                (
                    "fused".to_string(),
                    BwdInputPath::Fused(fused_bwd_input(isa)),
                ),
            ];
            for isa in Isa::ALL.into_iter().filter(|i| i.supported()) {
                if let Some(block) = direct_bwd::block(c) {
                    if let Some(kernel) = direct_bwd::kernel(isa, block) {
                        paths.push((format!("{isa:?}"), BwdInputPath::Direct(kernel, block)));
                    }
                }
            }
            let run = |path: BwdInputPath| {
                let mut out = Tensor::zeros(&shape);
                bwd_input_run(path, &weight, &grad, &d, stride, pad, &mut out);
                out
            };
            let want = run(BwdInputPath::Gemm);
            let mut runs: Vec<Box<dyn FnMut()>> = paths
                .iter()
                .map(|&(_, path)| Box::new(move || drop(std::hint::black_box(run(path)))) as _)
                .collect();
            let mut fs: Vec<&mut dyn FnMut()> = runs.iter_mut().map(|r| &mut **r as _).collect();
            let best = best_times(&mut fs);
            drop(runs);
            let fused = best[1];
            report.push_str(&format!("\n{name}:"));
            for ((label, path), t) in paths.iter().zip(&best) {
                assert_eq!(run(*path), want, "{name} {label}");
                report.push_str(&format!(" | {label} {t:.0}us ({:.2}x)", fused / t));
            }
            let chosen = match select_bwd_input_path(isa, &d, stride) {
                BwdInputPath::Gemm => "gemm",
                BwdInputPath::Direct(..) => "direct",
                BwdInputPath::Fused(_) => "fused",
            };
            report.push_str(&format!(" | selected: {chosen}"));
            // Backward-weight: the GEMM against each direct instantiation.
            let input = Tensor::randn(&shape, &mut rng);
            let mut paths = vec![("gemm".to_string(), BwdWeightPath::Gemm)];
            for isa in Isa::ALL.into_iter().filter(|i| i.supported()) {
                if let Some(tile) = direct_bwd_weight::tile(isa, o, k) {
                    paths.push((format!("{isa:?}"), BwdWeightPath::Direct(tile)));
                }
            }
            let run = |path: BwdWeightPath| {
                let mut grad_w = vec![0.0f32; d.o * d.k];
                bwd_weight_run(path, &input, &grad, &d, stride, pad, &mut grad_w);
                grad_w
            };
            let want = run(BwdWeightPath::Gemm);
            let mut runs: Vec<Box<dyn FnMut()>> = paths
                .iter()
                .map(|&(_, path)| Box::new(move || drop(std::hint::black_box(run(path)))) as _)
                .collect();
            let mut fs: Vec<&mut dyn FnMut()> = runs.iter_mut().map(|r| &mut **r as _).collect();
            let best = best_times(&mut fs);
            drop(runs);
            report.push_str(&format!("\n{name} (weight):"));
            for ((label, path), t) in paths.iter().zip(&best) {
                assert_eq!(run(*path), want, "{name} {label}");
                report.push_str(&format!(" | {label} {t:.0}us ({:.2}x)", best[0] / t));
            }
            let chosen = match direct_bwd_weight::select(isa, o, k, stride) {
                Some(_) => "direct",
                None => "gemm",
            };
            report.push_str(&format!(" | selected: {chosen}"));
        }
        bprom_par::set_thread_count(0);
        eprintln!("{report}");
    }

    /// Speedup gate for the kernel layer: one conv-heavy shadow-training
    /// epoch (forward plus both backward directions over every layer
    /// below, two batches of 32) on the packed kernels against the
    /// retained pre-kernel [`crate::reference`] path, best of 5 runs
    /// after one warmup. The table is ResNetMini's conv stack at the
    /// 11–50-class width (`head_widths` gives c1 = 8, c2 = 32) on 16×16
    /// inputs. Single-threaded the packed epoch must be ≥ 3× faster; at 4
    /// threads it must hold the same floor on a host with ≥ 4 cores, and
    /// otherwise stay within 2× of its single-thread time. Tier 2, timed:
    /// `cargo test --release -p bprom-tensor -- --ignored conv_epoch_speedup`.
    #[test]
    #[ignore]
    fn conv_epoch_speedup_gate() {
        use crate::reference::{
            conv2d_backward_input_reference, conv2d_backward_weight_reference, conv2d_reference,
        };
        use std::time::Instant;
        const FLOOR: f64 = 3.0;
        // (c, o, k, stride, pad, side)
        const LAYERS: [(usize, usize, usize, usize, usize, usize); 6] = [
            (3, 8, 3, 1, 1, 16),  // stem
            (8, 8, 3, 1, 1, 16),  // block1 conv a
            (8, 8, 3, 1, 1, 16),  // block1 conv b
            (8, 32, 3, 2, 1, 16), // block2 downsample
            (32, 32, 3, 1, 1, 8), // block2 conv b
            (8, 32, 1, 2, 0, 16), // block2 projection
        ];
        let _timed = TIMED.lock().unwrap_or_else(|e| e.into_inner());
        let mut rng = Rng::new(42);
        let layers: Vec<_> = LAYERS
            .iter()
            .map(|&(c, o, k, stride, pad, side)| {
                let oh = (side + 2 * pad - k) / stride + 1;
                let input = Tensor::randn(&[32, c, side, side], &mut rng);
                let weight = Tensor::randn(&[o, c, k, k], &mut rng);
                let grad = Tensor::randn(&[32, o, oh, oh], &mut rng);
                (input, weight, grad, k, stride, pad)
            })
            .collect();
        let epoch = |packed: bool| {
            for _ in 0..2 {
                for (input, weight, grad, k, s, p) in &layers {
                    let (k, s, p) = (*k, *s, *p);
                    std::hint::black_box(if packed {
                        (
                            conv2d(input, weight, s, p).unwrap(),
                            conv2d_backward_weight(input, grad, (k, k), s, p).unwrap(),
                            conv2d_backward_input(weight, grad, input.shape(), s, p).unwrap(),
                        )
                    } else {
                        (
                            conv2d_reference(input, weight, s, p).unwrap(),
                            conv2d_backward_weight_reference(input, grad, (k, k), s, p).unwrap(),
                            conv2d_backward_input_reference(weight, grad, input.shape(), s, p)
                                .unwrap(),
                        )
                    });
                }
            }
        };
        let best_of_5 = |packed: bool| {
            epoch(packed);
            (0..5)
                .map(|_| {
                    let t0 = Instant::now();
                    epoch(packed);
                    t0.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min)
        };
        bprom_par::set_thread_count(1);
        let reference_s = best_of_5(false);
        let packed_1t_s = best_of_5(true);
        bprom_par::set_thread_count(4);
        let packed_4t_s = best_of_5(true);
        bprom_par::set_thread_count(0);
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        let (speedup_1t, speedup_4t) = (reference_s / packed_1t_s, reference_s / packed_4t_s);
        eprintln!(
            "conv epoch: reference {reference_s:.4}s, packed {packed_1t_s:.4}s at 1 thread \
             ({speedup_1t:.2}x), {packed_4t_s:.4}s at 4 threads ({speedup_4t:.2}x), {cores} cores"
        );
        assert!(
            speedup_1t >= FLOOR,
            "single-thread speedup {speedup_1t:.2}x below {FLOOR}x"
        );
        if cores >= 4 {
            assert!(
                speedup_4t >= FLOOR,
                "4-thread speedup {speedup_4t:.2}x below {FLOOR}x"
            );
        } else {
            // Four workers time-slicing fewer cores cannot gain wall-clock
            // time; bound the dispatch overhead instead.
            assert!(
                packed_4t_s <= 2.0 * packed_1t_s,
                "4 threads on {cores} cores took {packed_4t_s:.4}s, over 2x the \
                 single-thread {packed_1t_s:.4}s"
            );
        }
    }
}
