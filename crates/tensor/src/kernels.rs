//! Packed, cache-blocked GEMM driver — the compute kernel behind
//! [`Tensor::matmul`](crate::Tensor::matmul), `matmul_tn`, `matmul_nt`,
//! and the batched-im2col convolutions in [`crate::conv`] (small-channel
//! forward convolutions take the direct kernel of [`crate::direct`]).
//!
//! # Architecture
//!
//! The driver follows the classic three-level blocking scheme: panels of
//! `B` (`KC × NC`) and blocks of `A` (`MC × KC`) are packed into
//! contiguous strip buffers ([`crate::pack`]), and a register-tiled
//! `MR × NR` microkernel walks the packed panels. The microkernel keeps
//! its `MR × NR` accumulator tile in locals and reads one `MR`-sliver of
//! A and one `NR`-sliver of B per k-step — a layout the autovectorizer
//! reliably turns into SIMD fma/mul-add chains, with no bounds checks in
//! the hot loop (fixed-size array windows). Transposed operands are
//! absorbed by the packing step, so all four `N`/`T` combinations share
//! this one driver and microkernel.
//!
//! # Determinism contract
//!
//! Every output element is accumulated in **one fixed order**: strictly
//! increasing `k`, one `mul`+`add` per step, starting from `0.0`
//! (k-panels beyond the first resume from the stored partial sum, which
//! round-trips `f32` exactly). That is bit-identical to the pre-kernel
//! scalar i-k-j loop — retained as
//! [`reference::matmul_reference`](crate::reference::matmul_reference) —
//! and independent of blocking parameters. There is **no split-k**: a
//! thread computes the full reduction for every element it owns, so
//! results are byte-identical at any `BPROM_THREADS`.
//!
//! # Threading
//!
//! Large products are sliced along the bigger C dimension (`NR`/`MR`
//! aligned chunks) over [`bprom_par::par_map_indexed`]. Slicing changes
//! which thread computes an element, never its value. Products stay
//! sequential when they are small ([`PAR_MIN_FLOPS`]) or when the caller
//! is already a `bprom-par` worker (shadow training, CMA-ES candidate
//! eval), where the outer parallel section owns the cores.

use crate::pack::{pack_a, pack_b, Trans};

/// Microkernel tile height (rows of C per register tile) for the
/// baseline-ISA instantiation.
pub(crate) const MR: usize = 4;
/// Tile height for the AVX2 and AVX-512VL instantiations (8 ymm
/// accumulators; a taller 16-row tile was tried for AVX-512 and spilled).
/// Also the alignment of threaded row slices, so every slice boundary is
/// a strip boundary for whichever width the CPU selects.
pub(crate) const MR_WIDE: usize = 8;
/// Microkernel tile width (columns of C per register tile). 8 `f32`
/// lanes vectorize cleanly at every x86-64/aarch64 SIMD width.
pub(crate) const NR: usize = 8;
/// k-panel depth: one packed `KC × NR` B-strip (8 KiB) plus a
/// `MR × KC` A-strip (4 KiB) sit comfortably in L1.
const KC: usize = 256;
/// The deepest k-panel the driver packs: a reduction up to this deep runs
/// as one stretched panel (see `gemm_block_inner`).
pub(crate) const KC_MAX: usize = KC + KC / 2;
/// Rows of A packed per block (multiple of `MR`).
const MC: usize = 64;
/// Columns of B packed per panel (multiple of `NR`).
const NC: usize = 512;
/// Minimum `2·m·n·k` FLOP count before the driver fans out over the
/// worker pool; below this the pool dispatch costs more than it saves.
pub(crate) const PAR_MIN_FLOPS: usize = 1 << 21;

/// Computes one `TMR × NR` register tile: loads the partial sums for the
/// `rows × cols` valid region (zeros on the first k-panel), accumulates
/// `kc` steps from the packed strips, and stores the valid region back.
///
/// Dead lanes (beyond `rows`/`cols`) accumulate zero-padded products and
/// are never stored, so edge tiles take the same branch-free hot loop.
///
/// `TMR` is the A-strip row width the panels were packed with — the
/// instantiations below fix it to match their register budget.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn microkernel_body<const TMR: usize>(
    astrip: &[f32],
    bstrip: &[f32],
    kc: usize,
    out: &mut [f32],
    o0: usize,
    ld: usize,
    rows: usize,
    cols: usize,
    first_panel: bool,
) {
    let mut acc = [[0.0f32; NR]; TMR];
    if !first_panel {
        for (r, acc_row) in acc.iter_mut().take(rows).enumerate() {
            let row = &out[o0 + r * ld..o0 + r * ld + cols];
            acc_row[..cols].copy_from_slice(row);
        }
    }
    for p in 0..kc {
        let av: &[f32; TMR] = astrip[p * TMR..][..TMR].try_into().expect("TMR sliver");
        let bv: &[f32; NR] = bstrip[p * NR..][..NR].try_into().expect("NR sliver");
        for (acc_row, &ar) in acc.iter_mut().zip(av) {
            for (a, &bc) in acc_row.iter_mut().zip(bv) {
                *a += ar * bc;
            }
        }
    }
    for (r, acc_row) in acc.iter().take(rows).enumerate() {
        let row = &mut out[o0 + r * ld..o0 + r * ld + cols];
        row.copy_from_slice(&acc_row[..cols]);
    }
}

/// Baseline-ISA instantiation (SSE2 on x86-64, NEON on aarch64 —
/// whatever the default target features allow): `4 × 8` tiles, two
/// 128-bit accumulators per row.
#[allow(clippy::too_many_arguments)]
fn microkernel_generic(
    astrip: &[f32],
    bstrip: &[f32],
    kc: usize,
    out: &mut [f32],
    o0: usize,
    ld: usize,
    rows: usize,
    cols: usize,
    first_panel: bool,
) {
    microkernel_body::<MR>(astrip, bstrip, kc, out, o0, ld, rows, cols, first_panel);
}

/// AVX2 instantiation: the **same** safe body, recompiled with 256-bit
/// vectors enabled and a taller `8 × 8` tile — one `NR = 8` accumulator
/// row per ymm register (8 of 16), and each B sliver load now feeds 8
/// rows instead of 4. `avx2` alone (no `fma`) keeps every product a
/// separate `mul` + `add` with IEEE round-to-nearest at each step —
/// bit-identical to [`microkernel_generic`] and to the scalar
/// reference, just wider.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn microkernel_avx2(
    astrip: &[f32],
    bstrip: &[f32],
    kc: usize,
    out: &mut [f32],
    o0: usize,
    ld: usize,
    rows: usize,
    cols: usize,
    first_panel: bool,
) {
    microkernel_body::<MR_WIDE>(astrip, bstrip, kc, out, o0, ld, rows, cols, first_panel);
}

/// AVX-512VL instantiation: same body and the same `8 × 8` tile as
/// [`microkernel_avx2`], but compiled with EVEX encodings available —
/// the A broadcast folds into the multiply as an embedded-broadcast
/// memory operand and the compiler has 32 vector registers to schedule
/// with. Still plain lanewise `mul` + `add` (no FMA), so the bit
/// pattern is unchanged; only the instruction count per k-step drops.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl")]
#[allow(clippy::too_many_arguments)]
fn microkernel_avx512(
    astrip: &[f32],
    bstrip: &[f32],
    kc: usize,
    out: &mut [f32],
    o0: usize,
    ld: usize,
    rows: usize,
    cols: usize,
    first_panel: bool,
) {
    microkernel_body::<MR_WIDE>(astrip, bstrip, kc, out, o0, ld, rows, cols, first_panel);
}

type MicroFn = fn(&[f32], &[f32], usize, &mut [f32], usize, usize, usize, usize, bool);

/// The instruction sets the kernels are instantiated for. Every
/// instantiation compiles the same safe body, so all of them compute the
/// identical bit pattern and the choice affects speed only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Isa {
    /// AVX-512F + VL: EVEX encodings and 32 vector registers.
    Avx512,
    /// AVX2: 256-bit vectors, 16 registers.
    Avx2,
    /// The baseline target features (SSE2 on x86-64, NEON on aarch64).
    Generic,
}

impl Isa {
    /// Every instantiation, widest first.
    pub(crate) const ALL: [Isa; 3] = [Isa::Avx512, Isa::Avx2, Isa::Generic];

    /// Whether the running CPU can execute this instantiation. Detection
    /// is cached by `std`.
    pub(crate) fn supported(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512vl")
            }
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            Isa::Generic => true,
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// The widest instantiation the running CPU supports.
    pub(crate) fn detect() -> Isa {
        Isa::ALL
            .into_iter()
            .find(|isa| isa.supported())
            .unwrap_or(Isa::Generic)
    }
}

/// The microkernel instantiation for `isa` and the A-strip row width
/// (`mr`) it wants its panels packed with.
///
/// # Panics
///
/// If the running CPU does not support `isa` (see [`Isa::supported`]).
fn microkernel(isa: Isa) -> (MicroFn, usize) {
    assert!(isa.supported(), "{isa:?} microkernel on a CPU without it");
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => {
            let micro: MicroFn = |astrip, bstrip, kc, out, o0, ld, rows, cols, first_panel| {
                // SAFETY: `microkernel` asserted AVX-512F+VL support.
                unsafe {
                    microkernel_avx512(astrip, bstrip, kc, out, o0, ld, rows, cols, first_panel)
                }
            };
            (micro, MR_WIDE)
        }
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => {
            let micro: MicroFn = |astrip, bstrip, kc, out, o0, ld, rows, cols, first_panel| {
                // SAFETY: `microkernel` asserted AVX2 support.
                unsafe {
                    microkernel_avx2(astrip, bstrip, kc, out, o0, ld, rows, cols, first_panel)
                }
            };
            (micro, MR_WIDE)
        }
        _ => (microkernel_generic, MR),
    }
}

/// Sequential packed GEMM over one block of C: writes
/// `C[i_off.., j_off..][..mb, ..nb] = A_op × B_op` into `out`, a row-major
/// `[mb × ld]` buffer (`ld >= nb`). The B operand is abstract: `bpacker`
/// fills the strip buffer for a requested `[p0..p0+kc, j0..j0+nc]` block
/// in [`pack_b`] layout (conv passes an implicit-im2col packer so the
/// column matrix is never materialized).
#[allow(clippy::too_many_arguments)]
fn gemm_block<P: BPacker>(
    a: &[f32],
    ta: Trans,
    bpacker: &P,
    m: usize,
    k: usize,
    i_off: usize,
    mb: usize,
    j_off: usize,
    nb: usize,
    out: &mut [f32],
    ld: usize,
) {
    let (micro, mr) = microkernel(Isa::detect());
    crate::workspace::with_pooled_vec(|apack| {
        crate::workspace::with_pooled_vec(|bpack| {
            gemm_block_inner(
                a, ta, bpacker, m, k, i_off, mb, j_off, nb, out, ld, micro, mr, apack, bpack,
            );
        });
    });
}

#[allow(clippy::too_many_arguments)]
fn gemm_block_inner<P: BPacker>(
    a: &[f32],
    ta: Trans,
    bpacker: &P,
    m: usize,
    k: usize,
    i_off: usize,
    mb: usize,
    j_off: usize,
    nb: usize,
    out: &mut [f32],
    ld: usize,
    micro: MicroFn,
    mr: usize,
    apack: &mut Vec<f32>,
    bpack: &mut Vec<f32>,
) {
    // A reduction only slightly deeper than `KC` would split into one
    // full panel plus a sliver, paying a whole extra C round-trip for a
    // few k-steps; stretch the panel instead (strip buffers stay well
    // within L1). Panel boundaries don't change values — the k order is
    // fixed either way.
    let kc_step = if k <= KC_MAX { k } else { KC };
    let mut jc = 0;
    while jc < nb {
        let nc = NC.min(nb - jc);
        let mut pc = 0;
        while pc < k {
            let kc = kc_step.min(k - pc);
            bpacker.pack(pc, kc, j_off + jc, nc, bpack);
            let first_panel = pc == 0;
            let mut ic = 0;
            while ic < mb {
                let mc = MC.min(mb - ic);
                pack_a(a, ta, m, k, i_off + ic, mc, pc, kc, mr, apack);
                for t in 0..nc.div_ceil(NR) {
                    let cols = NR.min(nc - t * NR);
                    let bstrip = &bpack[t * kc * NR..(t + 1) * kc * NR];
                    for s in 0..mc.div_ceil(mr) {
                        let rows = mr.min(mc - s * mr);
                        let astrip = &apack[s * kc * mr..(s + 1) * kc * mr];
                        let o0 = (ic + s * mr) * ld + jc + t * NR;
                        micro(astrip, bstrip, kc, out, o0, ld, rows, cols, first_panel);
                    }
                }
                ic += MC;
            }
            pc += kc_step;
        }
        jc += NC;
    }
}

/// Abstract B operand: fills the strip buffer for the
/// `[p0..p0+kc, j0..j0+nc]` block of `B_op` in [`pack_b`] layout (strip
/// `t`, depth `p`, column `c` at `buf[(t·kc + p)·NR + c]`, edge columns
/// zero-filled). Implementations must be pure functions of the block
/// coordinates so threaded slicing packs identical bits.
pub(crate) trait BPacker: Sync {
    fn pack(&self, p0: usize, kc: usize, j0: usize, nc: usize, buf: &mut Vec<f32>);
}

/// A plain row-major (or transposed) slice as the B operand.
struct SliceB<'s> {
    b: &'s [f32],
    tb: Trans,
    k: usize,
    n: usize,
}

impl BPacker for SliceB<'_> {
    fn pack(&self, p0: usize, kc: usize, j0: usize, nc: usize, buf: &mut Vec<f32>) {
        pack_b(self.b, self.tb, self.k, self.n, p0, kc, j0, nc, buf);
    }
}

/// `C[m×n] = A_op[m×k] × B_op[k×n]` (row-major C, overwritten).
///
/// `ta`/`tb` describe how the operands are stored relative to their
/// operational shapes — see [`Trans`]. This is the one entry point every
/// rank-2 product in the workspace funnels through.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    ta: Trans,
    b: &[f32],
    tb: Trans,
    c: &mut [f32],
) {
    gemm_with_b(m, n, k, a, ta, &SliceB { b, tb, k, n }, c);
}

/// [`gemm`] with an abstract B operand — the conv lowerings pass packers
/// that synthesize im2col columns (or gradient rows) on the fly, so the
/// big `[k, n·oh·ow]` matrices are never materialized.
pub(crate) fn gemm_with_b<P: BPacker>(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    ta: Trans,
    bpacker: &P,
    c: &mut [f32],
) {
    debug_assert_eq!(c.len(), m * n, "C buffer must be m*n");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0.0);
        return;
    }
    let threads = bprom_par::thread_count();
    let flops = 2usize.saturating_mul(m).saturating_mul(n).saturating_mul(k);
    if threads <= 1 || flops < PAR_MIN_FLOPS || bprom_par::in_parallel_worker() {
        gemm_block(a, ta, bpacker, m, k, 0, m, 0, n, c, n);
        return;
    }
    if n >= m {
        // Column slices: each task computes C[:, j0..j0+nb] with the full
        // k reduction, so values are partition- (and thread-count-)
        // independent.
        let chunks = threads.min(n.div_ceil(NR));
        let per = n.div_ceil(chunks).div_ceil(NR) * NR;
        let tasks = n.div_ceil(per);
        let blocks = bprom_par::par_map_indexed(tasks, |t| {
            let j0 = t * per;
            let nb = per.min(n - j0);
            let mut buf = vec![0.0f32; m * nb];
            gemm_block(a, ta, bpacker, m, k, 0, m, j0, nb, &mut buf, nb);
            buf
        });
        for (t, buf) in blocks.iter().enumerate() {
            let j0 = t * per;
            let nb = per.min(n - j0);
            for i in 0..m {
                c[i * n + j0..i * n + j0 + nb].copy_from_slice(&buf[i * nb..(i + 1) * nb]);
            }
        }
    } else {
        // Row slices: contiguous in C, stitched with one copy per task.
        // Aligned to the widest strip so slice boundaries stay strip
        // boundaries under either microkernel.
        let chunks = threads.min(m.div_ceil(MR_WIDE));
        let per = m.div_ceil(chunks).div_ceil(MR_WIDE) * MR_WIDE;
        let tasks = m.div_ceil(per);
        let blocks = bprom_par::par_map_indexed(tasks, |t| {
            let i0 = t * per;
            let mb = per.min(m - i0);
            let mut buf = vec![0.0f32; mb * n];
            gemm_block(a, ta, bpacker, m, k, i0, mb, 0, n, &mut buf, n);
            buf
        });
        for (t, buf) in blocks.iter().enumerate() {
            let i0 = t * per;
            c[i0 * n..i0 * n + buf.len()].copy_from_slice(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Rng, Tensor};

    fn randn(len: usize, rng: &mut Rng) -> Vec<f32> {
        (0..len).map(|_| rng.normal()).collect()
    }

    /// Scalar model of the contract: sequential k, one mul+add per step.
    fn model(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        c
    }

    #[test]
    fn matches_scalar_model_bitwise_over_awkward_shapes() {
        let mut rng = Rng::new(7);
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (MR, KC, NR),
            (MR + 1, KC + 1, NR + 1),
            (MC - 1, 2, NC - 1),
            (17, 31, 13),
            (MC + MR + 1, KC + 3, NC + NR + 2),
        ] {
            let a = randn(m * k, &mut rng);
            let b = randn(k * n, &mut rng);
            let mut c = vec![f32::NAN; m * n];
            gemm(m, n, k, &a, Trans::N, &b, Trans::N, &mut c);
            assert_eq!(c, model(m, n, k, &a, &b), "m={m} k={k} n={n}");
        }
    }

    /// Every microkernel instantiation the host can run, not only the
    /// one the driver selects, against the scalar model — bitwise, with
    /// NaN, ±inf and −0.0 among the operands.
    #[test]
    fn every_supported_microkernel_matches_scalar_model_bitwise() {
        let mut rng = Rng::new(10);
        let special = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
        for &(m, k, n) in &[(3, 5, 7), (MR_WIDE + 1, KC + 3, NR + 1), (17, 31, 13)] {
            let mut a = randn(m * k, &mut rng);
            let mut b = randn(k * n, &mut rng);
            let (la, lb) = (a.len(), b.len());
            for (i, &v) in special.iter().enumerate() {
                a[(7 * i + 1) % la] = v;
                b[(5 * i + 2) % lb] = v;
            }
            let want = model(m, n, k, &a, &b);
            for isa in Isa::ALL.into_iter().filter(|isa| isa.supported()) {
                let (micro, mr) = microkernel(isa);
                let mut c = vec![f32::NAN; m * n];
                let (mut apack, mut bpack) = (Vec::new(), Vec::new());
                let bpacker = SliceB {
                    b: &b,
                    tb: Trans::N,
                    k,
                    n,
                };
                gemm_block_inner(
                    &a,
                    Trans::N,
                    &bpacker,
                    m,
                    k,
                    0,
                    m,
                    0,
                    n,
                    &mut c,
                    n,
                    micro,
                    mr,
                    &mut apack,
                    &mut bpack,
                );
                for (i, (x, y)) in c.iter().zip(&want).enumerate() {
                    assert!(
                        x.to_bits() == y.to_bits() || x.is_nan() && y.is_nan(),
                        "{isa:?} m={m} k={k} n={n} element {i}: {x:?} vs {y:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn transposed_operands_match_untransposed() {
        let mut rng = Rng::new(8);
        let (m, k, n) = (9, 11, 19);
        let a = Tensor::from_vec(randn(m * k, &mut rng), &[m, k]).unwrap();
        let b = Tensor::from_vec(randn(k * n, &mut rng), &[k, n]).unwrap();
        let at = a.transpose().unwrap();
        let bt = b.transpose().unwrap();
        let mut base = vec![0.0f32; m * n];
        gemm(m, n, k, a.data(), Trans::N, b.data(), Trans::N, &mut base);
        for (ad, ta, bd, tb) in [
            (at.data(), Trans::T, b.data(), Trans::N),
            (a.data(), Trans::N, bt.data(), Trans::T),
            (at.data(), Trans::T, bt.data(), Trans::T),
        ] {
            let mut c = vec![0.0f32; m * n];
            gemm(m, n, k, ad, ta, bd, tb, &mut c);
            assert_eq!(c, base, "{ta:?} {tb:?}");
        }
    }

    #[test]
    fn threaded_slicing_is_bit_stable() {
        // Big enough to clear PAR_MIN_FLOPS in both slicing directions.
        let mut rng = Rng::new(9);
        for (m, n) in [(33, 1200), (1200, 33)] {
            let k = 65;
            let a = randn(m * k, &mut rng);
            let b = randn(k * n, &mut rng);
            let mut base = vec![0.0f32; m * n];
            bprom_par::set_thread_count(1);
            gemm(m, n, k, &a, Trans::N, &b, Trans::N, &mut base);
            for threads in [2, 3, 4, 7] {
                bprom_par::set_thread_count(threads);
                let mut c = vec![f32::NAN; m * n];
                gemm(m, n, k, &a, Trans::N, &b, Trans::N, &mut c);
                assert_eq!(c, base, "threads={threads} m={m} n={n}");
            }
            bprom_par::set_thread_count(0);
        }
    }
}
