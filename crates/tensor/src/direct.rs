//! Direct convolution kernel for small output-channel counts — the
//! forward path [`crate::conv2d`] takes where it measured faster than the
//! packed GEMM (see [`select`]).
//!
//! One register tile holds **every** output channel (a const-generic
//! block of `OB` accumulator rows, dead rows carrying zero weights) by
//! `V` output pixels, vectorized along the output width. Where the
//! output rows are narrower than the vector, one tile covers `R` output
//! rows of `V / R` pixels each. Each `(c, ki, kj)` step loads one input
//! sliver per covered row and multiply-adds it into all `OB` rows, so
//! the input is read once per tile instead of once per `o`, there is no
//! packing pass, and the tile is stored straight into the NCHW output —
//! through the [`Epilogue`] — with no `[o, n·oh·ow]` product buffer and
//! no regroup copy.
//!
//! Strided convolutions read from a phase-split copy of the padded input:
//! each padded row is stored as its `stride` column phases one after the
//! other (even columns, then odd ones at stride 2), so the input columns
//! `ox·s + kj` of consecutive output pixels sit at consecutive addresses.
//!
//! # Determinism
//!
//! Every output accumulates its `k = c·kh·kw` products in increasing
//! `(c, ki, kj)` order, one separate multiply and add per step, starting
//! from `+0.0` and including the products with padding zeros — the same
//! value sequence the GEMM driver computes (see [`crate::kernels`]), so
//! the two paths agree bit for bit. The instantiations differ only in
//! vector width; Rust never contracts the multiply and add into an FMA.

use crate::conv::{ConvDims, Epilogue};
use crate::kernels::Isa;

/// One instantiation: `(source samples, packed weights [k, OB], shape,
/// stride, epilogue, output samples)`.
pub(crate) type DirectFn = fn(&[f32], &[f32], &ConvDims, usize, &Epilogue<'_>, &mut [f32]);

/// The accumulator blocks the kernel is instantiated for; `o` runs in the
/// smallest block that holds it.
const BLOCKS: [usize; 5] = [4, 6, 8, 10, 12];

/// Output pixels per register tile for `isa`: one full vector register
/// per accumulator row. The baseline instantiation has none: with a
/// quarter of the AVX-512 lanes and 16 registers it lost to the GEMM on
/// every measured shape but one (DESIGN.md §5h).
fn lanes(isa: Isa) -> Option<usize> {
    match isa {
        Isa::Avx512 => Some(16),
        Isa::Avx2 => Some(8),
        Isa::Generic => None,
    }
}

/// The register tile for `o` output channels and output width `ow` on
/// `isa`: the smallest accumulator block holding `o`, and one output row
/// per tile when `ow` is a multiple of the vector, two when it is a
/// multiple of half of it. `None` when no instantiation fits.
pub(crate) fn tile(isa: Isa, o: usize, ow: usize) -> Option<(usize, usize)> {
    let block = BLOCKS.into_iter().find(|&b| b >= o)?;
    let v = lanes(isa)?;
    let rows = if ow % v == 0 {
        1
    } else if ow % (v / 2) == 0 {
        2
    } else {
        return None;
    };
    Some((block, rows))
}

/// The measured selection rule: the direct kernel for an `o`-channel,
/// `kw`-wide convolution with output width `ow` at `stride` on `isa`, or
/// `None` where the packed GEMM is as fast or faster. Returns the
/// instantiation and its accumulator block width.
///
/// The direct kernel wins wherever a tile fits (see [`tile`]) at stride
/// 1, and at stride 2 when the kernel is at least two columns wide —
/// including the single-channel `3 × 3` convs a depthwise layer runs per
/// channel, where three of the four accumulator rows are dead. A
/// `1 × 1` stride-2 projection reads only one column phase, so the
/// phase split copies twice the input it uses and the GEMM stays ahead.
pub(crate) fn select(
    isa: Isa,
    o: usize,
    kw: usize,
    ow: usize,
    stride: usize,
) -> Option<(DirectFn, usize)> {
    if !(stride == 1 || stride == 2 && kw >= 2) {
        return None;
    }
    let (block, rows) = tile(isa, o, ow)?;
    Some((kernel(isa, block, rows)?, block))
}

/// The instantiation for `isa`, accumulator block `ob` and `rows` output
/// rows per tile, if there is one.
///
/// # Panics
///
/// If the running CPU does not support `isa`.
pub(crate) fn kernel(isa: Isa, ob: usize, rows: usize) -> Option<DirectFn> {
    assert!(isa.supported(), "{isa:?} direct kernel on a CPU without it");
    match (ob, rows) {
        (4, 1) => instance::<4, 1>(isa),
        (4, 2) => instance::<4, 2>(isa),
        (6, 1) => instance::<6, 1>(isa),
        (6, 2) => instance::<6, 2>(isa),
        (8, 1) => instance::<8, 1>(isa),
        (8, 2) => instance::<8, 2>(isa),
        (10, 1) => instance::<10, 1>(isa),
        (10, 2) => instance::<10, 2>(isa),
        (12, 1) => instance::<12, 1>(isa),
        (12, 2) => instance::<12, 2>(isa),
        _ => None,
    }
}

/// Callers have checked `isa.supported()` (see [`kernel`]).
fn instance<const OB: usize, const R: usize>(isa: Isa) -> Option<DirectFn> {
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => Some(|src, wt, d, stride, epi, out| {
            // SAFETY: only reached through `kernel`, which asserted
            // AVX-512F+VL support.
            unsafe { direct_avx512::<OB, R>(src, wt, d, stride, epi, out) }
        }),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => Some(|src, wt, d, stride, epi, out| {
            // SAFETY: only reached through `kernel`, which asserted AVX2
            // support.
            unsafe { direct_avx2::<OB, R>(src, wt, d, stride, epi, out) }
        }),
        _ => None,
    }
}

/// The same safe body with 256-bit vectors: one ymm register per
/// accumulator row.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn direct_avx2<const OB: usize, const R: usize>(
    src: &[f32],
    wt: &[f32],
    d: &ConvDims,
    stride: usize,
    epi: &Epilogue<'_>,
    out: &mut [f32],
) {
    direct_body::<OB, 8, R>(src, wt, d, stride, epi, out);
}

/// The same safe body with 512-bit vectors: one zmm register per
/// accumulator row, 16 rows at most out of 32 registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl")]
fn direct_avx512<const OB: usize, const R: usize>(
    src: &[f32],
    wt: &[f32],
    d: &ConvDims,
    stride: usize,
    epi: &Epilogue<'_>,
    out: &mut [f32],
) {
    direct_body::<OB, 16, R>(src, wt, d, stride, epi, out);
}

/// Convolves whole samples: `src` is `[nb, c, hp, d.split_row(stride)]`
/// (phase-split, padded), `wt` is the weight matrix transposed to
/// `[k, OB]` with zero columns past `d.o`, and `out` is `[nb, o, oh, ow]`.
/// `V` pixels per tile, as `R` rows of `V / R`; `ow` must be a multiple
/// of `V / R`. Tiles that run past the last output row load a repeat of
/// it and store nothing there.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
#[inline(always)]
fn direct_body<const OB: usize, const V: usize, const R: usize>(
    src: &[f32],
    wt: &[f32],
    d: &ConvDims,
    stride: usize,
    epi: &Epilogue<'_>,
    out: &mut [f32],
) {
    let w = V / R;
    // Phase-split row length, and the columns in each phase.
    let row = d.split_row(stride);
    let phase_w = row / stride;
    let chan_in = d.hp * row;
    let plane = d.oh * d.ow;
    let wt = &wt[..d.k * OB];
    for (src_s, out_s) in src
        .chunks_exact(d.c * chan_in)
        .zip(out.chunks_exact_mut(d.o * plane))
    {
        for oy0 in (0..d.oh).step_by(R) {
            // Input row offset of each covered output row (a repeat of
            // the last row past the bottom edge).
            let mut rows = [0usize; R];
            for (r, y) in rows.iter_mut().enumerate() {
                *y = (oy0 + r).min(d.oh - 1) * stride * row;
            }
            for ox0 in (0..d.ow).step_by(w) {
                let mut acc = [[0.0f32; V]; OB];
                let mut taps = wt.chunks_exact(OB);
                for chan in src_s.chunks_exact(chan_in) {
                    for ki in 0..d.kh {
                        // Input column `ox·s + kj` is index `ox + kj / s`
                        // of phase `kj % s`; walk (phase, shift) per kj.
                        let (mut phase, mut shift) = (0, 0);
                        for _ in 0..d.kw {
                            let col = ki * row + phase * phase_w + ox0 + shift;
                            phase += 1;
                            if phase == stride {
                                phase = 0;
                                shift += 1;
                            }
                            let mut x = [0.0f32; V];
                            for (xr, &y) in x.chunks_exact_mut(w).zip(&rows) {
                                xr.copy_from_slice(&chan[y + col..][..w]);
                            }
                            let tap: &[f32; OB] = taps
                                .next()
                                .and_then(|t| t.try_into().ok())
                                .expect("one weight row per tap");
                            for (acc_o, &wo) in acc.iter_mut().zip(tap) {
                                for (a, &xv) in acc_o.iter_mut().zip(&x) {
                                    *a += wo * xv;
                                }
                            }
                        }
                    }
                }
                for r in 0..R.min(d.oh - oy0) {
                    let at = (oy0 + r) * d.ow + ox0;
                    for (o, acc_o) in acc.iter().enumerate().take(d.o) {
                        let dst = &mut out_s[o * plane + at..][..w];
                        dst.copy_from_slice(&acc_o[r * w..][..w]);
                        epi.apply(o, dst);
                    }
                }
            }
        }
    }
}
