//! Property sweep for the packed GEMM + batched-im2col conv kernels and
//! the direct small-channel forward, backward-input and backward-weight
//! kernels: every kernel-backed op is checked against the retained scalar
//! oracles in `bprom_tensor::reference` over seeded sweeps of awkward
//! shapes — unit dims, primes, and ±1 around every blocking parameter
//! (MR 4 / MR_WIDE·NR 8, MC 64, KC 256, NC 512) — plus ResNetMini's
//! inference and training shapes, NaN/±inf/−0.0 operands, and the fused
//! conv epilogue against its separate passes. Both backward directions run
//! every kernel the host can execute (GEMM, fused pass and direct kernel
//! per ISA and tile height), not only the one they select.
//!
//! Equality is **bitwise** wherever the determinism contract promises it
//! (`matmul`/`matmul_tn`/`matmul_nt`, `conv2d`, `conv2d_backward_input`,
//! and `conv2d_backward_weight` against a flat-reduction-order scalar
//! model). `conv2d_backward_weight` vs the *per-sample-order* reference
//! is compared to rounding tolerance only: the kernel reduces over one
//! flat `n·oh·ow` axis while the pre-kernel implementation summed
//! complete per-sample dots in batch order (see DESIGN.md §5h for the
//! golden-fixture re-bless this ordering change required).
//!
//! The build environment is offline, so instead of proptest each sweep
//! draws `CASES` shape tuples from a seeded [`Rng`]; a failing case
//! index pins the exact inputs.

use bprom_suite::par;
use bprom_suite::tensor::reference::{
    conv2d_backward_input_every_path, conv2d_backward_input_reference,
    conv2d_backward_weight_every_path, conv2d_backward_weight_reference, conv2d_reference,
    matmul_reference,
};
use bprom_suite::tensor::{
    conv2d, conv2d_backward_input, conv2d_backward_weight, pad2d, ChannelNorm, ConvWeight,
    Epilogue, Rng, Tensor,
};
use std::sync::Mutex;

const CASES: u64 = 48;
const SEED_BASE: u64 = 0x4b45_524e; // "KERN"

/// Guards the process-global `bprom_par` thread knob: the invariance
/// test flips it, and no other test here may time-slice against that.
static THREAD_KNOB: Mutex<()> = Mutex::new(());

fn case_rng(case: u64) -> Rng {
    Rng::new(SEED_BASE ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Picks one element of `choices` using the case RNG.
fn pick<T: Copy>(choices: &[T], rng: &mut Rng) -> T {
    let u = rng.next_u64() as usize;
    choices[u % choices.len()]
}

fn assert_bits(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} differs: {x:?} vs {y:?}"
        );
    }
}

/// [`assert_bits`] for operands holding NaN: every bit must match except
/// NaN payloads, which LLVM may pick from either operand of a multiply or
/// add. A NaN must still land exactly where the oracle has one.
fn assert_bits_or_both_nan(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert!(
            x.to_bits() == y.to_bits() || x.is_nan() && y.is_nan(),
            "{what}: element {i} differs: {x:?} vs {y:?}"
        );
    }
}

fn assert_close(a: &Tensor, b: &Tensor, tol: f32, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        let scale = 1.0 + x.abs().max(y.abs());
        assert!(
            (x - y).abs() <= tol * scale,
            "{what}: element {i} differs beyond {tol}: {x} vs {y}"
        );
    }
}

// ---- GEMM ----

/// Dims that straddle every microkernel/blocking boundary: 1, small
/// primes, NR±1 (7..9), MC±1 (63..65).
const MN_DIMS: &[usize] = &[1, 2, 3, 5, 7, 8, 9, 13, 17, 31, 63, 64, 65];
/// The reduction dim additionally straddles the KC=256 panel boundary
/// and the k ≤ 384 single-panel stretch.
const K_DIMS: &[usize] = &[1, 2, 3, 5, 7, 8, 9, 13, 31, 64, 65, 255, 256, 257, 384, 385];

#[test]
fn matmul_bitwise_matches_reference_on_awkward_shapes() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let m = pick(MN_DIMS, &mut rng);
        let k = pick(K_DIMS, &mut rng);
        let n = pick(MN_DIMS, &mut rng);
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let packed = a.matmul(&b).unwrap();
        let oracle = matmul_reference(&a, &b).unwrap();
        assert_bits(
            &packed,
            &oracle,
            &format!("case {case}: matmul {m}x{k}x{n}"),
        );
    }
}

#[test]
fn matmul_tn_bitwise_matches_transposed_reference() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let m = pick(MN_DIMS, &mut rng);
        let k = pick(K_DIMS, &mut rng);
        let n = pick(MN_DIMS, &mut rng);
        let at = Tensor::randn(&[k, m], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let packed = at.matmul_tn(&b).unwrap();
        let oracle = matmul_reference(&at.transpose().unwrap(), &b).unwrap();
        assert_bits(
            &packed,
            &oracle,
            &format!("case {case}: matmul_tn {m}x{k}x{n}"),
        );
    }
}

#[test]
fn matmul_nt_bitwise_matches_transposed_reference() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let m = pick(MN_DIMS, &mut rng);
        let k = pick(K_DIMS, &mut rng);
        let n = pick(MN_DIMS, &mut rng);
        let a = Tensor::randn(&[m, k], &mut rng);
        let bt = Tensor::randn(&[n, k], &mut rng);
        let packed = a.matmul_nt(&bt).unwrap();
        let oracle = matmul_reference(&a, &bt.transpose().unwrap()).unwrap();
        assert_bits(
            &packed,
            &oracle,
            &format!("case {case}: matmul_nt {m}x{k}x{n}"),
        );
    }
}

// ---- conv ----

/// One random conv problem with every dial on an awkward setting.
/// `o` deliberately straddles the backward-input hybrid threshold
/// (`GEMM_MIN_O = 16`) so both the whole-batch-GEMM and the fused
/// per-channel paths are swept, and `stride` covers both col2im paths
/// (extended-row buffer at stride 1, per-element scatter above).
struct ConvCase {
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    o: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
}

fn conv_case(rng: &mut Rng) -> ConvCase {
    loop {
        let case = ConvCase {
            n: pick(&[1, 2, 3, 5], rng),
            c: pick(&[1, 2, 3, 5, 8], rng),
            h: pick(&[4, 5, 7, 8, 9, 16], rng),
            w: pick(&[4, 5, 7, 8, 9, 16], rng),
            o: pick(&[1, 3, 8, 15, 16, 17, 33], rng),
            kh: pick(&[1, 2, 3, 5], rng),
            kw: pick(&[1, 2, 3, 5], rng),
            stride: pick(&[1, 2, 3], rng),
            pad: pick(&[0, 1, 2], rng),
        };
        // Keep only windows that fit the padded input.
        if case.h + 2 * case.pad >= case.kh && case.w + 2 * case.pad >= case.kw {
            return case;
        }
    }
}

/// Scalar model of the kernel-backed `conv2d_backward_weight` reduction
/// order: each `grad_w[oi, ki]` accumulates over the one flat `n·oh·ow`
/// axis in strictly increasing order from 0.0, one separate mul+add per
/// step — exactly the contract the packed GEMM keeps, so the comparison
/// below is bitwise.
fn backward_weight_flat_order(
    input: &Tensor,
    grad_output: &Tensor,
    kernel: (usize, usize),
    stride: usize,
    pad: usize,
) -> Tensor {
    let (n, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let (kh, kw) = kernel;
    let o = grad_output.shape()[1];
    let (oh, ow) = (grad_output.shape()[2], grad_output.shape()[3]);
    let padded = pad2d(input, pad).unwrap();
    let (hp, wp) = (h + 2 * pad, w + 2 * pad);
    let pd = padded.data();
    let go = grad_output.data();
    let k = c * kh * kw;
    let spat = oh * ow;
    let mut gw = vec![0.0f32; o * k];
    for oi in 0..o {
        for ki in 0..k {
            let (ci, khi, kwi) = (ki / (kh * kw), (ki / kw) % kh, ki % kw);
            let mut acc = 0.0f32;
            for ni in 0..n {
                let g_row = &go[(ni * o + oi) * spat..][..spat];
                for (j, &gv) in g_row.iter().enumerate() {
                    let (oy, ox) = (j / ow, j % ow);
                    let iv = pd[((ni * c + ci) * hp + oy * stride + khi) * wp + ox * stride + kwi];
                    acc += gv * iv;
                }
            }
            gw[oi * k + ki] = acc;
        }
    }
    Tensor::from_vec(gw, &[o, c, kh, kw]).unwrap()
}

#[test]
fn conv2d_bitwise_matches_reference() {
    for case in 0..CASES {
        let mut rng = case_rng(0x100 ^ case);
        let cc = conv_case(&mut rng);
        let x = Tensor::randn(&[cc.n, cc.c, cc.h, cc.w], &mut rng);
        let wt = Tensor::randn(&[cc.o, cc.c, cc.kh, cc.kw], &mut rng);
        let fast = conv2d(&x, &wt, cc.stride, cc.pad).unwrap();
        let oracle = conv2d_reference(&x, &wt, cc.stride, cc.pad).unwrap();
        assert_bits(&fast, &oracle, &format!("case {case}: conv2d"));
    }
}

/// ResNetMini's inference convolutions at the 48-row query batch (the
/// shapes the direct small-channel kernel serves), plus the `1 × 1`
/// stride-2 projection the GEMM keeps and the single-channel `3 × 3`
/// convs MobileNetMini's depthwise layers run per channel:
/// `(c, o, k, stride, pad, side)`.
const INFERENCE_SHAPES: [(usize, usize, usize, usize, usize, usize); 8] = [
    (3, 6, 3, 1, 1, 16),
    (6, 6, 3, 1, 1, 16),
    (6, 10, 3, 2, 1, 16),
    (10, 10, 3, 1, 1, 8),
    (6, 10, 1, 2, 0, 16),
    (6, 10, 3, 2, 1, 8),
    (1, 1, 3, 2, 1, 16),
    (1, 1, 3, 1, 1, 8),
];

#[test]
fn conv2d_bitwise_matches_reference_on_inference_shapes() {
    let mut rng = case_rng(0x500);
    for (i, &(c, o, k, stride, pad, side)) in INFERENCE_SHAPES.iter().enumerate() {
        let x = Tensor::randn(&[48, c, side, side], &mut rng);
        let wt = Tensor::randn(&[o, c, k, k], &mut rng);
        let fast = conv2d(&x, &wt, stride, pad).unwrap();
        let oracle = conv2d_reference(&x, &wt, stride, pad).unwrap();
        assert_bits(
            &fast,
            &oracle,
            &format!("shape {i}: {c}>{o} k{k} s{stride} {side}x{side}"),
        );
    }
}

/// Writes NaN, ±inf and −0.0 into a few elements of `t`.
fn poison(t: &mut Tensor, salt: usize) {
    let len = t.len();
    for (i, v) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0]
        .into_iter()
        .enumerate()
    {
        t.data_mut()[(salt + 97 * i) % len] = v;
    }
}

/// NaN, ±inf and −0.0 in inputs and weights propagate exactly as in the
/// scalar reference — the padded `0 · inf = NaN` products included.
#[test]
fn conv2d_special_values_match_reference() {
    let shapes = (0..CASES).map(|case| {
        let cc = conv_case(&mut case_rng(0x600 ^ case));
        (
            cc.n, cc.c, cc.o, cc.kh, cc.kw, cc.stride, cc.pad, cc.h, cc.w,
        )
    });
    let inference = INFERENCE_SHAPES
        .iter()
        .map(|&(c, o, k, s, p, side)| (48, c, o, k, k, s, p, side, side));
    for (case, (n, c, o, kh, kw, stride, pad, h, w)) in shapes.chain(inference).enumerate() {
        let mut rng = case_rng(0x700 ^ case as u64);
        let mut x = Tensor::randn(&[n, c, h, w], &mut rng);
        let mut wt = Tensor::randn(&[o, c, kh, kw], &mut rng);
        poison(&mut x, case);
        poison(&mut wt, 3 * case + 1);
        let fast = conv2d(&x, &wt, stride, pad).unwrap();
        let oracle = conv2d_reference(&x, &wt, stride, pad).unwrap();
        assert_bits_or_both_nan(&fast, &oracle, &format!("case {case}: special values"));
    }
}

/// A convolution stored through a bias + batch-norm + ReLU epilogue is
/// bit for bit the plain convolution followed by the three separate
/// passes, in both forward kernels.
#[test]
fn conv2d_epilogue_is_bitwise_the_unfused_passes() {
    let shapes = (0..CASES).map(|case| {
        let cc = conv_case(&mut case_rng(0x800 ^ case));
        (cc.n, cc.c, cc.o, cc.kh, cc.stride, cc.pad, cc.h)
    });
    let inference = INFERENCE_SHAPES
        .iter()
        .map(|&(c, o, k, s, p, side)| (48, c, o, k, s, p, side));
    for (case, (n, c, o, k, stride, pad, side)) in shapes.chain(inference).enumerate() {
        if side + 2 * pad < k {
            continue;
        }
        let mut rng = case_rng(0x900 ^ case as u64);
        let x = Tensor::randn(&[n, c, side, side], &mut rng);
        let wt = Tensor::randn(&[o, c, k, k], &mut rng);
        let table = |rng: &mut Rng| -> Vec<f32> { (0..o).map(|_| rng.normal()).collect() };
        let (bias, mean, gamma, beta) = (
            table(&mut rng),
            table(&mut rng),
            table(&mut rng),
            table(&mut rng),
        );
        let inv_std: Vec<f32> = (0..o).map(|_| 0.5 + rng.uniform()).collect();
        let norm = ChannelNorm {
            mean: &mean,
            inv_std: &inv_std,
            gamma: &gamma,
            beta: &beta,
        };
        let mut unfused = conv2d(&x, &wt, stride, pad).unwrap();
        let plane = unfused.len() / (n * o);
        for (i, vals) in unfused.data_mut().chunks_exact_mut(plane).enumerate() {
            let ch = i % o;
            for v in vals.iter_mut() {
                *v += bias[ch];
            }
            for v in vals.iter_mut() {
                let xh = (*v - mean[ch]) * inv_std[ch];
                *v = gamma[ch] * xh + beta[ch];
            }
            for v in vals.iter_mut() {
                *v = if *v > 0.0 { *v } else { 0.0 };
            }
        }
        let fused = conv2d(
            &x,
            ConvWeight {
                weight: &wt,
                epilogue: Epilogue {
                    bias: Some(&bias),
                    norm: Some(norm),
                    relu: true,
                },
            },
            stride,
            pad,
        )
        .unwrap();
        assert_bits(&fused, &unfused, &format!("case {case}: fused epilogue"));
    }
}

#[test]
fn conv2d_backward_input_bitwise_matches_reference() {
    for case in 0..CASES {
        let mut rng = case_rng(0x200 ^ case);
        let cc = conv_case(&mut rng);
        let x_shape = [cc.n, cc.c, cc.h, cc.w];
        let wt = Tensor::randn(&[cc.o, cc.c, cc.kh, cc.kw], &mut rng);
        let y = conv2d(&Tensor::zeros(&x_shape), &wt, cc.stride, cc.pad).unwrap();
        let gy = Tensor::randn(y.shape(), &mut rng);
        let fast = conv2d_backward_input(&wt, &gy, &x_shape, cc.stride, cc.pad).unwrap();
        let oracle =
            conv2d_backward_input_reference(&wt, &gy, &x_shape, cc.stride, cc.pad).unwrap();
        assert_bits(
            &fast,
            &oracle,
            &format!(
                "case {case}: backward_input o={} stride={}",
                cc.o, cc.stride
            ),
        );
    }
}

/// Every backward-input kernel the host runs, and the public entry
/// point, against the reference: bitwise, or NaN where it has NaN.
fn check_backward_input_paths(
    wt: &Tensor,
    gy: &Tensor,
    x_shape: &[usize],
    stride: usize,
    pad: usize,
    what: &str,
) {
    let oracle = conv2d_backward_input_reference(wt, gy, x_shape, stride, pad).unwrap();
    let paths = conv2d_backward_input_every_path(wt, gy, x_shape, stride, pad).unwrap();
    for (name, got) in &paths {
        assert_bits_or_both_nan(got, &oracle, &format!("{what}: {name}"));
    }
    let public = conv2d_backward_input(wt, gy, x_shape, stride, pad).unwrap();
    assert_bits_or_both_nan(&public, &oracle, &format!("{what}: selected kernel"));
}

/// ResNetMini's training convolutions at both body widths the zoo uses
/// (`(6, 10)` up to 16 classes, `(8, 32)` up to 50): stem, block 1,
/// block 2's strided conv, its second conv and the `1 × 1` projection —
/// `(c, o, k, stride, pad, side)`.
const TRAINING_SHAPES: [(usize, usize, usize, usize, usize, usize); 10] = [
    (3, 6, 3, 1, 1, 16),
    (6, 6, 3, 1, 1, 16),
    (6, 10, 3, 2, 1, 16),
    (10, 10, 3, 1, 1, 8),
    (6, 10, 1, 2, 0, 16),
    (3, 8, 3, 1, 1, 16),
    (8, 8, 3, 1, 1, 16),
    (8, 32, 3, 2, 1, 16),
    (32, 32, 3, 1, 1, 8),
    (8, 32, 1, 2, 0, 16),
];

/// Every backward-input kernel on the training shapes at the 32-row
/// training batch, at odd batch sizes, and at input widths that leave
/// partial tiles or rows narrower than a tile.
#[test]
fn conv2d_backward_input_every_path_matches_reference_on_training_shapes() {
    let mut rng = case_rng(0xa00);
    let batches = [32, 1, 3, 5];
    for (i, &(c, o, k, stride, pad, side)) in TRAINING_SHAPES.iter().enumerate() {
        for (j, &n) in batches.iter().enumerate() {
            // Edge widths: the shape's own, then partial and narrow tiles.
            let w = [side, side + 1, side - 4, 4][j];
            let x_shape = [n, c, side, w];
            let wt = Tensor::randn(&[o, c, k, k], &mut rng);
            let y = conv2d(&Tensor::zeros(&x_shape), &wt, stride, pad).unwrap();
            let gy = Tensor::randn(y.shape(), &mut rng);
            let what = format!("shape {i} n={n} w={w}: {c}>{o} k{k} s{stride}");
            check_backward_input_paths(&wt, &gy, &x_shape, stride, pad, &what);
        }
    }
}

/// NaN, ±inf and −0.0 in weights and gradients land where the reference
/// puts them, in every backward-input kernel. An infinite weight must not
/// turn a tap that falls outside the gradient into `inf · 0 = NaN`: the
/// reference has no such term, so the edge pixels stay finite.
#[test]
fn conv2d_backward_input_special_values_match_reference() {
    let sweep = (0..CASES).map(|case| {
        let cc = conv_case(&mut case_rng(0xb00 ^ case));
        (
            cc.n, cc.c, cc.o, cc.kh, cc.kw, cc.stride, cc.pad, cc.h, cc.w,
        )
    });
    let training = TRAINING_SHAPES
        .iter()
        .map(|&(c, o, k, s, p, side)| (32, c, o, k, k, s, p, side, side));
    for (case, (n, c, o, kh, kw, stride, pad, h, w)) in sweep.chain(training).enumerate() {
        let mut rng = case_rng(0xc00 ^ case as u64);
        let x_shape = [n, c, h, w];
        let mut wt = Tensor::randn(&[o, c, kh, kw], &mut rng);
        let y = conv2d(&Tensor::zeros(&x_shape), &wt, stride, pad).unwrap();
        let mut gy = Tensor::randn(y.shape(), &mut rng);
        poison(&mut gy, case);
        poison(&mut wt, 3 * case + 1);
        let what = format!("case {case}: special values");
        check_backward_input_paths(&wt, &gy, &x_shape, stride, pad, &what);
    }
    // Only the weights infinite, on a padded shape: the pixels whose
    // taps miss the gradient keep finite values.
    let (c, o, k) = (6, 6, 3);
    let mut rng = case_rng(0xd00);
    let mut wt = Tensor::randn(&[o, c, k, k], &mut rng);
    for ci in 0..c {
        // Tap (0, 0) of every input channel: it falls outside the gradient
        // for the last row and column of the input.
        wt.data_mut()[ci * k * k] = f32::INFINITY;
    }
    let x_shape = [2, c, 16, 16];
    let gy = Tensor::randn(&[2, o, 16, 16], &mut rng);
    let oracle = conv2d_backward_input_reference(&wt, &gy, &x_shape, 1, 1).unwrap();
    assert!(
        oracle.data().iter().any(|v| v.is_finite()) && oracle.data().iter().any(|v| !v.is_finite()),
        "the infinite-weight case must mix finite and non-finite pixels"
    );
    check_backward_input_paths(&wt, &gy, &x_shape, 1, 1, "infinite weights");
}

#[test]
fn conv2d_backward_weight_bitwise_matches_flat_order_model() {
    for case in 0..CASES {
        let mut rng = case_rng(0x300 ^ case);
        let cc = conv_case(&mut rng);
        let x = Tensor::randn(&[cc.n, cc.c, cc.h, cc.w], &mut rng);
        let wt = Tensor::randn(&[cc.o, cc.c, cc.kh, cc.kw], &mut rng);
        let y = conv2d(&x, &wt, cc.stride, cc.pad).unwrap();
        let gy = Tensor::randn(y.shape(), &mut rng);
        let fast = conv2d_backward_weight(&x, &gy, (cc.kh, cc.kw), cc.stride, cc.pad).unwrap();
        let model = backward_weight_flat_order(&x, &gy, (cc.kh, cc.kw), cc.stride, cc.pad);
        assert_bits(&fast, &model, &format!("case {case}: backward_weight"));
    }
}

#[test]
fn conv2d_backward_weight_matches_per_sample_reference_to_tolerance() {
    for case in 0..CASES {
        let mut rng = case_rng(0x400 ^ case);
        let cc = conv_case(&mut rng);
        let x = Tensor::randn(&[cc.n, cc.c, cc.h, cc.w], &mut rng);
        let wt = Tensor::randn(&[cc.o, cc.c, cc.kh, cc.kw], &mut rng);
        let y = conv2d(&x, &wt, cc.stride, cc.pad).unwrap();
        let gy = Tensor::randn(y.shape(), &mut rng);
        let fast = conv2d_backward_weight(&x, &gy, (cc.kh, cc.kw), cc.stride, cc.pad).unwrap();
        let oracle =
            conv2d_backward_weight_reference(&x, &gy, (cc.kh, cc.kw), cc.stride, cc.pad).unwrap();
        // Same value up to summation-order rounding, never bit-compared.
        assert_close(
            &fast,
            &oracle,
            1e-4,
            &format!("case {case}: backward_weight vs per-sample"),
        );
    }
}

/// The shape table of the backward-kernel profiler
/// (`profile_backward_kernels` in `conv.rs`): ResNetMini's training
/// convolutions at widths 6/10, 8/32 and 12/48, the `1 × 1` stride-2
/// projection, pointwise convs, the single-channel `3 × 3` convs
/// MobileNetMini's depthwise layers run per channel, other map sizes and
/// a `5 × 5` kernel — `(c, o, k, stride, pad, side)`.
const BACKWARD_SHAPES: [(usize, usize, usize, usize, usize, usize); 23] = [
    (3, 6, 3, 1, 1, 16),
    (6, 6, 3, 1, 1, 16),
    (6, 10, 3, 2, 1, 16),
    (10, 10, 3, 1, 1, 8),
    (6, 10, 1, 2, 0, 16),
    (8, 8, 3, 1, 1, 16),
    (8, 32, 3, 2, 1, 16),
    (12, 12, 3, 1, 1, 16),
    (12, 48, 3, 2, 1, 16),
    (6, 8, 1, 1, 0, 8),
    (8, 10, 1, 1, 0, 8),
    (1, 1, 3, 2, 1, 16),
    (1, 1, 3, 1, 1, 8),
    (4, 4, 3, 1, 1, 16),
    (6, 6, 3, 1, 1, 12),
    (6, 6, 3, 1, 1, 24),
    (6, 10, 3, 2, 1, 24),
    (6, 6, 3, 1, 1, 4),
    (6, 10, 3, 2, 1, 8),
    (8, 32, 3, 1, 1, 16),
    (12, 48, 3, 1, 1, 8),
    (2, 6, 3, 1, 1, 16),
    (6, 6, 5, 1, 2, 16),
];

/// Whether the host runs the direct kernels' instantiations (AVX2, and
/// AVX-512VL above it).
fn host_has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    return false;
}

/// Every backward-weight kernel the host runs, and the public entry
/// point, against the flat-order model: bitwise, or NaN where it has NaN.
fn check_backward_weight_paths(
    x: &Tensor,
    gy: &Tensor,
    k: usize,
    stride: usize,
    pad: usize,
    what: &str,
) {
    let model = backward_weight_flat_order(x, gy, (k, k), stride, pad);
    let paths = conv2d_backward_weight_every_path(x, gy, (k, k), stride, pad).unwrap();
    let o = gy.shape()[1];
    if o <= 16 && (k == 1 || k == 3) && host_has_avx2() {
        assert!(
            paths.iter().any(|(name, _)| name.starts_with("direct")),
            "{what}: no direct instantiation exercised"
        );
    }
    for (name, got) in &paths {
        assert_bits_or_both_nan(got, &model, &format!("{what}: {name}"));
    }
    let public = conv2d_backward_weight(x, gy, (k, k), stride, pad).unwrap();
    assert_bits_or_both_nan(&public, &model, &format!("{what}: selected kernel"));
}

/// Every backward-weight kernel — the GEMM and the direct kernel per ISA
/// at every tile height — on the profiler's shape table, at the 32-row
/// training batch and at one and three samples, with NaN/±inf/−0.0 in
/// the input and the gradient. Last, an infinite gradient beside the
/// border of a padded shape: its products with the padding zeros are
/// `inf · 0 = NaN` terms in the model, which every kernel must keep (one
/// that skipped the padding would return finite taps there).
#[test]
fn conv2d_backward_weight_every_path_matches_flat_order_model() {
    let mut rng = case_rng(0xe00);
    for (i, &(c, o, k, stride, pad, side)) in BACKWARD_SHAPES.iter().enumerate() {
        for n in [32, 1, 3] {
            let mut x = Tensor::randn(&[n, c, side, side], &mut rng);
            let wt = Tensor::randn(&[o, c, k, k], &mut rng);
            let y = conv2d(&x, &wt, stride, pad).unwrap();
            let mut gy = Tensor::randn(y.shape(), &mut rng);
            if n != 32 {
                poison(&mut x, i + n);
                poison(&mut gy, 3 * i + n);
            }
            let what = format!("shape {i} n={n}: {c}>{o} k{k} s{stride} {side}x{side}");
            check_backward_weight_paths(&x, &gy, k, stride, pad, &what);
        }
    }
    let (n, c, o, k, side) = (2, 6, 6, 3, 16);
    let x = Tensor::randn(&[n, c, side, side], &mut rng);
    let mut gy = Tensor::randn(&[n, o, side, side], &mut rng);
    // Output (0, 0) of channel 0 in sample 1: taps ki = 0 or kj = 0 read
    // padding there.
    gy.data_mut()[o * side * side] = f32::INFINITY;
    let model = backward_weight_flat_order(&x, &gy, (k, k), 1, 1);
    let row = &model.data()[..c * k * k];
    assert!(
        row.iter().any(|v| v.is_nan()) && row.iter().any(|v| v.is_infinite()),
        "the infinite gradient must give NaN (padding) and inf (interior) taps"
    );
    check_backward_weight_paths(&x, &gy, k, 1, 1, "infinite gradient beside the border");
}

// ---- threading ----

/// Shapes big enough to clear the kernels' `PAR_MIN_FLOPS` gate, so the
/// 4-thread leg genuinely runs on the worker pool.
#[test]
fn results_invariant_under_thread_count() {
    let _guard = THREAD_KNOB.lock().unwrap();
    let mut rng = Rng::new(SEED_BASE);
    let a = Tensor::randn(&[128, 129], &mut rng);
    let b = Tensor::randn(&[129, 128], &mut rng);
    let x = Tensor::randn(&[8, 8, 16, 16], &mut rng);
    let wt = Tensor::randn(&[32, 8, 3, 3], &mut rng);
    // Small-channel shapes for the direct kernels' thread splits: samples
    // forward and backward-input, input rows backward-weight.
    let xs = Tensor::randn(&[48, 6, 16, 16], &mut rng);
    let ws = Tensor::randn(&[6, 6, 3, 3], &mut rng);
    let gys = Tensor::randn(&[32, 6, 16, 16], &mut rng);
    let gxs_shape = [32, 6, 16, 16];
    let xw = Tensor::randn(&gxs_shape, &mut rng);
    let y1;
    let gw1;
    let gx1;
    let mm1;
    par::set_thread_count(1);
    let ys1 = conv2d(&xs, &ws, 1, 1).unwrap();
    let gxs1 = conv2d_backward_input(&ws, &gys, &gxs_shape, 1, 1).unwrap();
    let gws1 = conv2d_backward_weight(&xw, &gys, (3, 3), 1, 1).unwrap();
    {
        mm1 = a.matmul(&b).unwrap();
        y1 = conv2d(&x, &wt, 1, 1).unwrap();
        let gy = Tensor::ones(y1.shape());
        gw1 = conv2d_backward_weight(&x, &gy, (3, 3), 1, 1).unwrap();
        gx1 = conv2d_backward_input(&wt, &gy, x.shape(), 1, 1).unwrap();
    }
    par::set_thread_count(4);
    let mm4 = a.matmul(&b).unwrap();
    let y4 = conv2d(&x, &wt, 1, 1).unwrap();
    let gy = Tensor::ones(y4.shape());
    let gw4 = conv2d_backward_weight(&x, &gy, (3, 3), 1, 1).unwrap();
    let gx4 = conv2d_backward_input(&wt, &gy, x.shape(), 1, 1).unwrap();
    let ys4 = conv2d(&xs, &ws, 1, 1).unwrap();
    let gxs4 = conv2d_backward_input(&ws, &gys, &gxs_shape, 1, 1).unwrap();
    let gws4 = conv2d_backward_weight(&xw, &gys, (3, 3), 1, 1).unwrap();
    par::set_thread_count(0);
    assert_bits(&ys1, &ys4, "small-channel conv2d 1t vs 4t");
    assert_bits(&gxs1, &gxs4, "small-channel backward_input 1t vs 4t");
    assert_bits(&gws1, &gws4, "small-channel backward_weight 1t vs 4t");
    assert_bits(&mm1, &mm4, "matmul 1t vs 4t");
    assert_bits(&y1, &y4, "conv2d 1t vs 4t");
    assert_bits(&gw1, &gw4, "backward_weight 1t vs 4t");
    assert_bits(&gx1, &gx4, "backward_input 1t vs 4t");
}

// ---- error paths ----

#[test]
fn degenerate_shapes_are_rejected_not_miscomputed() {
    // Zero dimensions are rejected at construction.
    assert!(Tensor::from_vec(vec![], &[0, 4]).is_err());
    assert!(Tensor::from_vec(vec![], &[4, 0]).is_err());

    // Inner-dim mismatches error identically in kernel and oracle.
    let mut rng = Rng::new(SEED_BASE ^ 0xdead);
    let a = Tensor::randn(&[3, 4], &mut rng);
    let b = Tensor::randn(&[5, 2], &mut rng);
    assert!(a.matmul(&b).is_err());
    assert!(matmul_reference(&a, &b).is_err());

    // Rank violations.
    let v = Tensor::randn(&[4], &mut rng);
    assert!(v.matmul(&a).is_err());
    assert!(a.matmul_tn(&v).is_err());
    assert!(a.matmul_nt(&v).is_err());

    // Conv window larger than the padded input, and zero stride.
    let x = Tensor::randn(&[1, 1, 2, 2], &mut rng);
    let w_big = Tensor::randn(&[1, 1, 5, 5], &mut rng);
    assert!(conv2d(&x, &w_big, 1, 0).is_err());
    assert!(conv2d_reference(&x, &w_big, 1, 0).is_err());
    let w_ok = Tensor::randn(&[1, 1, 2, 2], &mut rng);
    assert!(conv2d(&x, &w_ok, 0, 0).is_err());
    // An epilogue table must hold one value per output channel.
    let two_biases = ConvWeight {
        weight: &w_ok,
        epilogue: Epilogue {
            bias: Some(&[0.5, 0.5]),
            ..Epilogue::default()
        },
    };
    assert!(conv2d(&x, two_biases, 1, 0).is_err());
    let gy = Tensor::randn(&[1, 1, 1, 1], &mut rng);
    assert!(conv2d_backward_input(&w_ok, &gy, &[1, 1, 2, 2], 0, 0).is_err());
    assert!(conv2d_backward_weight(&x, &gy, (2, 2), 0, 0).is_err());
}
