//! Direct backward-weight kernel for small output-channel counts — the
//! path [`crate::conv2d_backward_weight`] takes where it measured faster
//! than the packed GEMM over the virtual transposed im2col (see
//! [`select`]).
//!
//! The weight gradient `dw[o, c, ki, kj] = Σ g[n, o, oy, ox] · x[n, c,
//! oy·s + ki, ox·s + kj]` (over `n, oy, ox`, `x` zero-padded) runs with its
//! **output channels along the vector lanes**: `o ≤ 8` in one 8-lane
//! vector, `o ≤ 16` in two (`OV`). The gradient is staged per sample as
//! `[oh·ow, o_pad]`, so one output position's gradient over every channel
//! is `OV` vector loads. A register tile holds `R` input rows `(c, ki)` ×
//! `KW` taps × the `OV` vectors, all const generics. Each input value is
//! one broadcast from the padded input, read through its row's pointer
//! plus the constant column offset `kj`, and multiply-added into that
//! tap's vectors. Nothing is packed.
//!
//! The loop is sample-outer. Each sample is staged first, in per-sample
//! `workspace.rs` scratch that stays in L1: its input zero-padded, and its
//! gradient transposed to `[oh·ow, o_pad]` by 8 × 8 register transposes.
//! Then every register block is loaded from its rows of a `[c·kh·kw,
//! o_pad]` accumulator (a few KB), walks that sample's output positions,
//! and is stored back. The input rows are split into blocks of the
//! largest instantiated `R` that fits ([`Tile::blocks`]), so no block
//! carries dead rows.
//!
//! # Determinism
//!
//! Each `dw` element sums its products over the flat `(n, oy, ox)` axis in
//! increasing order starting from `+0.0`, one separate multiply and add
//! per step — the reduction order of the GEMM, whose k axis is that flat
//! axis, so the two paths agree bit for bit. A partial sum stored between
//! samples and reloaded round-trips `f32` exactly. The products with the
//! padding zeros are kept, as the GEMM keeps them: an infinite gradient
//! beside the border gives `∞ · 0 = NaN` terms in both. Lanes past `o`
//! multiply the staged zero columns and are never stored. Rust never
//! contracts the multiply and add into an FMA.

use crate::conv::{pad_into, ConvDims};
use crate::kernels::Isa;
use crate::workspace::with_scratch;

/// Output channels per vector. Both instantiations use 256-bit vectors,
/// the pattern of [`crate::direct_bwd`]; AVX-512VL contributes its 32
/// registers to taller tiles.
const LANES: usize = 8;

/// One register block over one sample: `(padded input sample [c, hp, wp],
/// staged gradient sample [oh·ow, o_pad], shape, stride, first input row
/// (c·kh + ki), accumulator rows [R·KW, o_pad])`.
type BlockFn = fn(&[f32], &[f32], &ConvDims, usize, usize, &mut [f32]);

/// The tile heights the kernel is instantiated for; a block takes the
/// largest one that fits the rows left and the ISA's register budget.
const ROWS: [usize; 4] = [8, 4, 2, 1];

/// A direct backward-weight configuration: the ISA, the vectors per
/// output position and the kernel width, plus the tallest tile allowed.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Tile {
    isa: Isa,
    vectors: usize,
    kw: usize,
    max_rows: usize,
}

impl Tile {
    /// Accumulator columns per row: the output channels padded to whole
    /// vectors.
    pub(crate) fn o_pad(&self) -> usize {
        self.vectors * LANES
    }

    /// The same tile with no block taller than `rows` (the property tests
    /// run every tile height this way).
    pub(crate) fn capped(self, rows: usize) -> Tile {
        Tile {
            max_rows: self.max_rows.min(rows),
            ..self
        }
    }

    /// The tile heights this configuration runs, tallest first.
    pub(crate) fn heights(&self) -> impl Iterator<Item = usize> {
        let max = self.max_rows;
        ROWS.into_iter().filter(move |&r| r <= max)
    }

    /// The register blocks covering input rows `rows`: `(kernel, first
    /// row, height)`, each the tallest instantiation that fits.
    fn blocks(&self, rows: std::ops::Range<usize>) -> Vec<(BlockFn, usize, usize)> {
        let mut out = Vec::new();
        let mut r0 = rows.start;
        while r0 < rows.end {
            let r = self
                .heights()
                .find(|&r| r <= rows.end - r0)
                .expect("tile height 1 is always instantiated");
            let f = kernel(self.isa, r, self.kw, self.vectors)
                .expect("every height up to the tile's budget is instantiated");
            out.push((f, r0, r));
            r0 += r;
        }
        out
    }
}

/// The configuration for `o` output channels and a `kw`-wide kernel on
/// `isa`, whatever the selection rule says, or `None` when there is no
/// instantiation: the baseline ISA, `o > 16`, or a kernel width other
/// than 1 and 3. The tallest tile keeps `R·KW·OV` accumulators within
/// 24 of AVX-512's 32 registers and 12 of AVX2's 16, leaving room for
/// the gradient vectors and a broadcast.
pub(crate) fn tile(isa: Isa, o: usize, kw: usize) -> Option<Tile> {
    let vectors = o.div_ceil(LANES);
    if !matches!(isa, Isa::Avx512 | Isa::Avx2) || !(1..=2).contains(&vectors) {
        return None;
    }
    let budget = match isa {
        Isa::Avx512 => 24,
        _ => 12,
    };
    let max_rows = match kw {
        1 | 3 => ROWS.into_iter().find(|&r| r * kw * vectors <= budget)?,
        _ => return None,
    };
    Some(Tile {
        isa,
        vectors,
        kw,
        max_rows,
    })
}

/// The measured selection rule: the direct kernel for the backward-weight
/// pass of an `o`-output-channel, `kw`-wide convolution at `stride` on
/// `isa`, or `None` where the GEMM keeps it.
///
/// The direct kernel won on every measured shape a tile exists for (see
/// [`tile`]), at stride 1 and 2 — including the `1 × 1` stride-2
/// projection and the single-channel depthwise convs, where seven of the
/// eight lanes are dead (DESIGN.md §5h). Larger strides are unmeasured
/// and keep the GEMM.
pub(crate) fn select(isa: Isa, o: usize, kw: usize, stride: usize) -> Option<Tile> {
    if stride > 2 {
        return None;
    }
    tile(isa, o, kw)
}

/// Accumulates the weight gradient of input rows `rows` (`c·kh + ki`)
/// into `acc` (`[rows·kw, o_pad]`, rows relative to `rows.start`) over
/// every sample of `x` (`[n, c, h, w]`) and `g` (`[n, o, oh, ow]`). Each
/// sample is staged before its blocks run: the input zero-padded by
/// `pad` (unless `pad` is 0) and the gradient as `[oh·ow, o_pad]` with
/// zero lanes past `o`, both in per-sample scratch that stays in L1.
///
/// # Panics
///
/// If the running CPU does not support the tile's ISA.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run(
    tile: Tile,
    x: &[f32],
    g: &[f32],
    d: &ConvDims,
    stride: usize,
    pad: usize,
    rows: std::ops::Range<usize>,
    acc: &mut [f32],
) {
    let o_pad = tile.o_pad();
    let row_acc = d.kw * o_pad;
    let blocks = tile.blocks(0..rows.len());
    let hw = (d.hp - 2 * pad, d.wp - 2 * pad);
    let samples = x
        .chunks_exact(d.c * hw.0 * hw.1)
        .zip(g.chunks_exact(d.o * d.spat));
    with_scratch(d.c * d.hp * d.wp, |padded| {
        with_scratch(d.spat * o_pad, |staged| {
            for (x_n, g_n) in samples {
                let x_s = if pad == 0 {
                    x_n
                } else {
                    pad_into(x_n, hw, pad, 1, padded);
                    &*padded
                };
                stage(tile, g_n, d, staged);
                for &(f, r0, r) in &blocks {
                    f(
                        x_s,
                        staged,
                        d,
                        stride,
                        rows.start + r0,
                        &mut acc[r0 * row_acc..][..r * row_acc],
                    );
                }
            }
        });
    });
}

/// Writes one gradient sample `g` (`[o, oh·ow]`) transposed into `staged`
/// (`[oh·ow, o_pad]`), zeros in the lanes past `o`: every element.
///
/// # Panics
///
/// If the running CPU does not support the tile's ISA.
fn stage(tile: Tile, g: &[f32], d: &ConvDims, staged: &mut [f32]) {
    assert!(
        tile.isa.supported(),
        "{:?} staging on a CPU without it",
        tile.isa
    );
    #[cfg(target_arch = "x86_64")]
    // SAFETY: both tile ISAs (AVX2, AVX-512VL) include AVX, and the CPU
    // supports the tile's ISA (asserted above).
    unsafe {
        stage_avx(g, d.o, d.spat, staged)
    }
}

/// [`stage`] by 8 × 8 register transposes: eight gradient planes by eight
/// positions in, eight positions by eight lanes out.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn stage_avx(g: &[f32], o: usize, spat: usize, staged: &mut [f32]) {
    use std::arch::x86_64::{
        _mm256_permute2f128_ps, _mm256_setzero_ps, _mm256_shuffle_ps, _mm256_unpackhi_ps,
        _mm256_unpacklo_ps,
    };
    let o_pad = staged.len() / spat;
    for ch0 in (0..o_pad).step_by(LANES) {
        let planes = ch0..o.min(ch0 + LANES);
        let full = spat - spat % LANES;
        for p0 in (0..full).step_by(LANES) {
            let mut r = [_mm256_setzero_ps(); LANES];
            for (i, ch) in planes.clone().enumerate() {
                r[i] = load(g[ch * spat + p0..][..LANES].try_into().expect("one vector"));
            }
            let t = [
                _mm256_unpacklo_ps(r[0], r[1]),
                _mm256_unpackhi_ps(r[0], r[1]),
                _mm256_unpacklo_ps(r[2], r[3]),
                _mm256_unpackhi_ps(r[2], r[3]),
                _mm256_unpacklo_ps(r[4], r[5]),
                _mm256_unpackhi_ps(r[4], r[5]),
                _mm256_unpacklo_ps(r[6], r[7]),
                _mm256_unpackhi_ps(r[6], r[7]),
            ];
            let u = [
                _mm256_shuffle_ps::<0x44>(t[0], t[2]),
                _mm256_shuffle_ps::<0xee>(t[0], t[2]),
                _mm256_shuffle_ps::<0x44>(t[1], t[3]),
                _mm256_shuffle_ps::<0xee>(t[1], t[3]),
                _mm256_shuffle_ps::<0x44>(t[4], t[6]),
                _mm256_shuffle_ps::<0xee>(t[4], t[6]),
                _mm256_shuffle_ps::<0x44>(t[5], t[7]),
                _mm256_shuffle_ps::<0xee>(t[5], t[7]),
            ];
            // Column j of the 8 × 8 block: positions 0..4 from the low
            // 128-bit halves, 4..8 from the high ones.
            for j in 0..4 {
                let lo = _mm256_permute2f128_ps::<0x20>(u[j], u[j + 4]);
                let hi = _mm256_permute2f128_ps::<0x31>(u[j], u[j + 4]);
                staged[(p0 + j) * o_pad + ch0..][..LANES].copy_from_slice(&store(lo));
                staged[(p0 + j + 4) * o_pad + ch0..][..LANES].copy_from_slice(&store(hi));
            }
        }
        for p in full..spat {
            let lanes = &mut staged[p * o_pad + ch0..][..LANES];
            lanes.fill(0.0);
            for (v, ch) in lanes.iter_mut().zip(planes.clone()) {
                *v = g[ch * spat + p];
            }
        }
    }
}

/// The instantiation for `isa`, tile height `r`, kernel width `kw` and
/// `ov` vectors, if there is one.
///
/// # Panics
///
/// If the running CPU does not support `isa`.
fn kernel(isa: Isa, r: usize, kw: usize, ov: usize) -> Option<BlockFn> {
    assert!(isa.supported(), "{isa:?} direct kernel on a CPU without it");
    match (r, kw, ov) {
        (1, 1, 1) => instance::<1, 1, 1>(isa),
        (2, 1, 1) => instance::<2, 1, 1>(isa),
        (4, 1, 1) => instance::<4, 1, 1>(isa),
        (8, 1, 1) => instance::<8, 1, 1>(isa),
        (1, 1, 2) => instance::<1, 1, 2>(isa),
        (2, 1, 2) => instance::<2, 1, 2>(isa),
        (4, 1, 2) => instance::<4, 1, 2>(isa),
        (8, 1, 2) => instance::<8, 1, 2>(isa),
        (1, 3, 1) => instance::<1, 3, 1>(isa),
        (2, 3, 1) => instance::<2, 3, 1>(isa),
        (4, 3, 1) => instance::<4, 3, 1>(isa),
        (8, 3, 1) => instance::<8, 3, 1>(isa),
        (1, 3, 2) => instance::<1, 3, 2>(isa),
        (2, 3, 2) => instance::<2, 3, 2>(isa),
        (4, 3, 2) => instance::<4, 3, 2>(isa),
        _ => None,
    }
}

/// Callers have checked `isa.supported()` (see [`kernel`]).
fn instance<const R: usize, const KW: usize, const OV: usize>(isa: Isa) -> Option<BlockFn> {
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => Some(|x, g, d, stride, row0, acc| {
            // SAFETY: only reached through `kernel`, which asserted
            // AVX-512F+VL support.
            unsafe { block_avx512::<R, KW, OV>(x, g, d, stride, row0, acc) }
        }),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => Some(|x, g, d, stride, row0, acc| {
            // SAFETY: only reached through `kernel`, which asserted AVX2
            // support.
            unsafe { block_avx2::<R, KW, OV>(x, g, d, stride, row0, acc) }
        }),
        _ => None,
    }
}

/// Defines one instantiation's block body: `$name` compiled with
/// `$features`. Each ISA gets its own copy of the body rather than a
/// wrapper around a shared `avx` one, which LLVM may keep out of line and
/// so compile with AVX's 16 registers only.
macro_rules! block_body {
    ($(#[$doc:meta])* $name:ident, $features:literal) => {
        $(#[$doc])*
        ///
        /// One register block over one sample: loads the `R·KW`
        /// accumulator rows of input rows `row0..row0 + R`, adds every
        /// output position's products in `(oy, ox)` order, and stores the
        /// rows back. `x` is one padded input sample, `g` one staged
        /// gradient sample.
        ///
        /// The tile is an array of 256-bit vectors spelled with
        /// intrinsics, as in [`crate::direct_bwd`]; each intrinsic is the
        /// lanewise IEEE multiply or add, so the values are those of the
        /// scalar steps in the module notes.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = $features)]
        fn $name<const R: usize, const KW: usize, const OV: usize>(
            x: &[f32],
            g: &[f32],
            d: &ConvDims,
            stride: usize,
            row0: usize,
            acc: &mut [f32],
        ) {
            use std::arch::x86_64::{
                _mm256_add_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps,
            };
            let o_pad = OV * LANES;
            let acc = &mut acc[..R * KW * o_pad];
            // Plain const-bound loops throughout: iterator adaptors over
            // the tile kept it in memory, with a store after every add.
            let mut tile = [[[_mm256_setzero_ps(); OV]; KW]; R];
            for r in 0..R {
                for k in 0..KW {
                    for v in 0..OV {
                        let at = ((r * KW + k) * OV + v) * LANES;
                        tile[r][k][v] = load(acc[at..][..LANES].try_into().expect("one vector"));
                    }
                }
            }
            // Offset of each tile row's first padded row, `(c·hp + ki)·wp`.
            let mut offs = [0usize; R];
            for r in 0..R {
                let (c, ki) = ((row0 + r) / d.kh, (row0 + r) % d.kh);
                offs[r] = (c * d.hp + ki) * d.wp;
            }
            let mut positions = g[..d.spat * o_pad].chunks_exact(o_pad);
            for oy in 0..d.oh {
                let mut rows = [&x[..0]; R];
                for r in 0..R {
                    rows[r] = &x[offs[r] + oy * stride * d.wp..][..d.wp];
                }
                for ox in 0..d.ow {
                    let g_pos = positions.next().expect("one staged row per position");
                    let mut gv = [_mm256_setzero_ps(); OV];
                    for v in 0..OV {
                        gv[v] = load(g_pos[v * LANES..][..LANES].try_into().expect("one vector"));
                    }
                    let col = ox * stride;
                    for r in 0..R {
                        let taps: &[f32; KW] =
                            rows[r][col..col + KW].try_into().expect("KW taps");
                        for k in 0..KW {
                            let xv = _mm256_set1_ps(taps[k]);
                            for v in 0..OV {
                                tile[r][k][v] =
                                    _mm256_add_ps(tile[r][k][v], _mm256_mul_ps(gv[v], xv));
                            }
                        }
                    }
                }
            }
            for r in 0..R {
                for k in 0..KW {
                    for v in 0..OV {
                        let at = ((r * KW + k) * OV + v) * LANES;
                        acc[at..at + LANES].copy_from_slice(&store(tile[r][k][v]));
                    }
                }
            }
        }
    };
}

block_body!(
    /// The AVX2 instantiation: 16 vector registers.
    block_avx2,
    "avx2"
);
block_body!(
    /// The AVX-512VL instantiation: 256-bit EVEX encodings and 32 vector
    /// registers.
    block_avx512,
    "avx512f,avx512vl"
);

/// Loads one vector.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
fn load(vals: &[f32; LANES]) -> std::arch::x86_64::__m256 {
    // SAFETY: `vals` holds the 8 floats an unaligned 256-bit load reads.
    unsafe { std::arch::x86_64::_mm256_loadu_ps(vals.as_ptr()) }
}

/// Stores one vector.
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
