//! Direct backward-input kernel for small input-channel counts — the path
//! [`crate::conv2d_backward_input`] takes where it measured faster than
//! the fused per-channel col2im pass and the deep-`o` GEMM (see
//! [`select`]).
//!
//! One register tile holds **every** input channel (a const-generic block
//! of `CB` rows, dead rows carrying zero weights) by [`LANES`] input
//! pixels of one row, vectorized along the input width. For each tap
//! `(ki, kj)` that reaches the tile, a second tile of the same size
//! accumulates that tap's column-gradient values `Σ_p w[p, c, ki, kj] ·
//! g[p, oi, oj]` — one gradient sliver loaded per `p` and multiply-added
//! into all `CB` rows — and is then added into the input-gradient tile.
//! Nothing is materialized: no `[k, oh·ow]` column gradient, no col2im
//! scatter, and the tile is stored straight into the NCHW gradient.
//!
//! The gradient is read from a copy staged in scratch with zero columns on
//! both sides (see [`staged_row`]), so every sliver load stays in bounds.
//! At stride `s` the input columns split into `s` phases (`x = s·m + r`);
//! the taps that reach phase `r` read the consecutive gradient columns
//! `m + q`, so a tile covers `LANES` pixels of one phase and is stored
//! with stride `s`.
//!
//! # Determinism
//!
//! Each input-gradient element sums its taps in increasing `(ki, kj)`
//! order starting from `+0.0`, and each tap value is `Σ_p w·g` over
//! `p = 0..o` in increasing order, also from `+0.0`, one separate multiply
//! and add per step — the value sequence of the per-sample reference
//! ([`crate::reference::conv2d_backward_input_reference`]) and of the
//! fused and GEMM paths, so all of them agree bit for bit. Taps that fall
//! outside the gradient are skipped lane by lane (the sum keeps its old
//! value), never added as products of padding zeros: with an infinite
//! weight such a product would be NaN where the reference has no term.
//! Rust never contracts the multiply and add into an FMA.

use crate::conv::ConvDims;
use crate::kernels::Isa;

/// Input pixels per register tile. Both instantiations use 256-bit
/// vectors: the kernel holds two accumulator tiles (the tap sum and the
/// input gradient), and a 16-lane prototype spilled them. AVX-512VL
/// contributes its 32 registers to the wider channel blocks.
pub(crate) const LANES: usize = 8;

/// One instantiation: `(staged gradient samples, packed weights
/// [kh·kw·o, CB], shape, stride, padding, input-gradient samples)`.
pub(crate) type DirectBwdFn = fn(&[f32], &[f32], &ConvDims, usize, usize, &mut [f32]);

/// The channel blocks the kernel is instantiated for; `c` runs in the
/// smallest block that holds it.
const BLOCKS: [usize; 5] = [4, 6, 8, 10, 12];

/// The smallest channel block holding `c` input channels.
pub(crate) fn block(c: usize) -> Option<usize> {
    BLOCKS.into_iter().find(|&b| b >= c)
}

/// Layout of one staged gradient row: `(left, row)`, the zero columns in
/// front of gradient column 0 and the row length. The copy holds the
/// `ow` gradient columns and every sliver a tile loads: gradient column
/// `m + q` of phase `r` sits at `left + m + q`, with `q = (r + pad − kj) /
/// s` ranging from `−⌈(kw − 1 − pad) / s⌉` to `⌈pad / s⌉`,
/// and the tiles cover `⌈⌈w / s⌉ / LANES⌉ · LANES` columns of each phase.
pub(crate) fn staged_row(d: &ConvDims, stride: usize, pad: usize) -> (usize, usize) {
    let w = d.wp - 2 * pad;
    let left = (d.kw - 1).saturating_sub(pad).div_ceil(stride);
    let right = pad.div_ceil(stride);
    let covered = w.div_ceil(stride).div_ceil(LANES) * LANES;
    (left, left + d.ow.max(covered + right))
}

/// The measured selection rule: the direct kernel for the backward-input
/// pass of a `c`-input-channel, `kw`-wide convolution at `stride` on
/// `isa`, or `None` where the fused per-channel pass or the GEMM is as
/// fast. Returns the instantiation and its channel block.
///
/// The direct kernel wins wherever an instantiation holds `c ≥ 3` input
/// channels at stride 1, and at stride 2 when the kernel is at least three
/// columns wide — whatever the output-channel count and including partial
/// tiles (DESIGN.md §5h). It loses with one or two input channels (the
/// depthwise per-channel convs, where most tile rows are dead) and on the
/// `1 × 1` stride-2 projection, whose taps reach a quarter of the input.
pub(crate) fn select(isa: Isa, c: usize, kw: usize, stride: usize) -> Option<(DirectBwdFn, usize)> {
    let wins = c >= 3
        && match stride {
            1 => true,
            2 => kw >= 3,
            _ => false,
        };
    if !wins {
        return None;
    }
    let cb = block(c)?;
    Some((kernel(isa, cb)?, cb))
}

/// The instantiation for `isa` and channel block `cb`, if there is one.
///
/// # Panics
///
/// If the running CPU does not support `isa`.
pub(crate) fn kernel(isa: Isa, cb: usize) -> Option<DirectBwdFn> {
    assert!(isa.supported(), "{isa:?} direct kernel on a CPU without it");
    match cb {
        4 => instance::<4>(isa),
        6 => instance::<6>(isa),
        8 => instance::<8>(isa),
        10 => instance::<10>(isa),
        12 => instance::<12>(isa),
        _ => None,
    }
}

/// Callers have checked `isa.supported()` (see [`kernel`]).
fn instance<const CB: usize>(isa: Isa) -> Option<DirectBwdFn> {
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => Some(|g, wt, d, stride, pad, out| {
            // SAFETY: only reached through `kernel`, which asserted
            // AVX-512F+VL support.
            unsafe { bwd_avx512::<CB>(g, wt, d, stride, pad, out) }
        }),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => Some(|g, wt, d, stride, pad, out| {
            // SAFETY: only reached through `kernel`, which asserted AVX2
            // support.
            unsafe { bwd_avx2::<CB>(g, wt, d, stride, pad, out) }
        }),
        _ => None,
    }
}

/// The body with AVX2's 16 vector registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn bwd_avx2<const CB: usize>(
    g: &[f32],
    wt: &[f32],
    d: &ConvDims,
    stride: usize,
    pad: usize,
    out: &mut [f32],
) {
    bwd_body::<CB>(g, wt, d, stride, pad, out);
}

/// The same body with AVX-512VL: 256-bit EVEX encodings, embedded
/// broadcasts and 32 vector registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl")]
fn bwd_avx512<const CB: usize>(
    g: &[f32],
    wt: &[f32],
    d: &ConvDims,
    stride: usize,
    pad: usize,
    out: &mut [f32],
) {
    bwd_body::<CB>(g, wt, d, stride, pad, out);
}

/// Computes the input gradient of whole samples: `g` is `[nb, o, oh,
/// row]` (staged, see [`staged_row`]), `wt` is the weight tensor
/// rearranged to `[kh·kw·o, CB]` (row `(ki·kw + kj)·o + p` holds
/// `w[p, 0..c, ki, kj]`, zeros past `d.c`), and `out` is `[nb, c, h, w]`,
/// every element of which is written.
///
/// The tiles are arrays of 256-bit vectors, spelled with intrinsics: left
/// to the auto-vectorizer, the AVX-512 builds of the wider blocks packed
/// two tile rows into one 512-bit register and ran 4–25× slower than the
/// AVX2 build. Each intrinsic is the lanewise IEEE multiply or add, so
/// the values are those of the scalar steps in the module notes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
fn bwd_body<const CB: usize>(
    g: &[f32],
    wt: &[f32],
    d: &ConvDims,
    stride: usize,
    pad: usize,
    out: &mut [f32],
) {
    use std::arch::x86_64::{_mm256_add_ps, _mm256_blendv_ps, _mm256_setzero_ps};
    const V: usize = LANES;
    let (h, w) = (d.hp - 2 * pad, d.wp - 2 * pad);
    let (left, row) = staged_row(d, stride, pad);
    let plane_g = d.oh * row;
    let s = stride as isize;
    let wt = &wt[..d.kh * d.kw * d.o * CB];
    for (g_s, out_s) in g
        .chunks_exact(d.o * plane_g)
        .zip(out.chunks_exact_mut(d.c * h * w))
    {
        for y in 0..h {
            for r in 0..stride.min(w) {
                // Input columns `x = s·m + r` of this phase.
                let phase_w = (w - r).div_ceil(stride);
                for m0 in (0..phase_w).step_by(V) {
                    let mut dx = [_mm256_setzero_ps(); CB];
                    for ki in 0..d.kh {
                        // Gradient row `oi = (y + pad − ki) / s`, when exact
                        // and in range.
                        let ty = (y + pad) as isize - ki as isize;
                        if ty < 0 || ty % s != 0 || (ty / s) as usize >= d.oh {
                            continue;
                        }
                        let g_row = (ty / s) as usize * row;
                        for kj in 0..d.kw {
                            // Gradient column `oj = m + q` for the pixel at
                            // phase offset `m`, when the division is exact.
                            let tx = (r + pad) as isize - kj as isize;
                            if tx.rem_euclid(s) != 0 {
                                continue;
                            }
                            let q = tx.div_euclid(s) + m0 as isize;
                            // Lanes `l` with `0 ≤ q + l < ow` have the tap.
                            let lo = (-q).clamp(0, V as isize) as usize;
                            let hi = (d.ow as isize - q).clamp(0, V as isize) as usize;
                            if lo >= hi {
                                continue;
                            }
                            let col = g_row + (left as isize + q) as usize;
                            let tap = (ki * d.kw + kj) * d.o * CB;
                            let t = tap_tile::<CB>(g_s, plane_g, col, &wt[tap..][..d.o * CB]);
                            if lo == 0 && hi == V {
                                for (dx_c, &t_c) in dx.iter_mut().zip(&t) {
                                    *dx_c = _mm256_add_ps(*dx_c, t_c);
                                }
                            } else {
                                // Sign bit set on the lanes that take the
                                // tap; the others keep their sum.
                                let keep = load(&std::array::from_fn::<f32, V, _>(|l| {
                                    if l >= lo && l < hi {
                                        -0.0
                                    } else {
                                        0.0
                                    }
                                }));
                                for (dx_c, &t_c) in dx.iter_mut().zip(&t) {
                                    *dx_c =
                                        _mm256_blendv_ps(*dx_c, _mm256_add_ps(*dx_c, t_c), keep);
                                }
                            }
                        }
                    }
                    let lanes = V.min(phase_w - m0);
                    for (ci, &dx_c) in dx.iter().enumerate().take(d.c) {
                        let vals = store(dx_c);
                        let dst = &mut out_s[(ci * h + y) * w..][..w];
                        if stride == 1 {
                            dst[m0..m0 + lanes].copy_from_slice(&vals[..lanes]);
                        } else {
                            for (l, &v) in vals.iter().enumerate().take(lanes) {
                                dst[(m0 + l) * stride + r] = v;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// One tap's column-gradient values for a tile: `t[c][l] = Σ_p w[p, c] ·
/// g[p][col + l]` over the `o` staged gradient planes of one sample, from
/// `+0.0` in increasing `p`. `taps` holds the tap's `[o, CB]` weights.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
fn tap_tile<const CB: usize>(
    g_s: &[f32],
    plane_g: usize,
    col: usize,
    taps: &[f32],
) -> [std::arch::x86_64::__m256; CB] {
    use std::arch::x86_64::{_mm256_add_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps};
    let mut t = [_mm256_setzero_ps(); CB];
    for (plane, w_p) in g_s.chunks_exact(plane_g).zip(taps.chunks_exact(CB)) {
        let x = load(plane[col..][..LANES].try_into().expect("one tile wide"));
        for (t_c, &w_c) in t.iter_mut().zip(w_p) {
            *t_c = _mm256_add_ps(*t_c, _mm256_mul_ps(_mm256_set1_ps(w_c), x));
        }
    }
    t
}

/// Loads one tile row.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
fn load(vals: &[f32; LANES]) -> std::arch::x86_64::__m256 {
    // SAFETY: `vals` holds the 8 floats an unaligned 256-bit load reads.
    unsafe { std::arch::x86_64::_mm256_loadu_ps(vals.as_ptr()) }
}

/// Stores one tile row.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
fn store(v: std::arch::x86_64::__m256) -> [f32; LANES] {
    let mut vals = [0.0f32; LANES];
    // SAFETY: `vals` has room for the 8 floats an unaligned 256-bit store
    // writes.
    unsafe { std::arch::x86_64::_mm256_storeu_ps(vals.as_mut_ptr(), v) };
    vals
}
