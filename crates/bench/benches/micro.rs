//! Criterion micro-benchmarks for the substrate: tensor kernels, model
//! passes, attack application, CMA-ES generations, forest training and
//! metric computation.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bprom_attacks::AttackKind;
use bprom_data::SynthDataset;
use bprom_meta::{ForestConfig, RandomForest};
use bprom_metrics::auroc;
use bprom_nn::models::{build, Architecture, ModelSpec};
use bprom_nn::{Layer, Mode};
use bprom_tensor::reference::{conv2d_reference, matmul_reference};
use bprom_tensor::{conv2d, Rng, Tensor};
use bprom_vp::{CmaEs, VisualPrompt};

/// The zero-skip `matmul_tn` loop the packed kernel replaced, kept here
/// so the deletion stays re-measurable: `matmul_tn_sparse_64x64` (packed,
/// no skip) vs `matmul_tn_sparse_64x64_zero_skip` on a post-ReLU-like
/// half-zero left operand. At this tiny square shape the skip still edges
/// out the packed kernel (~20%: pack overhead dominates); the branch was
/// retired anyway because it cannot live inside the vectorized
/// microkernel, and the pipeline's GEMM-shaped products — where the
/// packed path wins outright — are what the conv-epoch speedup gate
/// (`conv_epoch_speedup_gate`, bprom-tensor) measures.
fn matmul_tn_zero_skip(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = (a.shape()[0], a.shape()[1]);
    let n = b.shape()[1];
    let (ad, bd) = (a.data(), b.data());
    let mut out = vec![0.0f32; m * n];
    for p in 0..k {
        let a_row = &ad[p * m..(p + 1) * m];
        let b_row = &bd[p * n..(p + 1) * n];
        for (i, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let out_row = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
    Tensor::from_vec(out, &[m, n]).unwrap()
}

fn bench_tensor(c: &mut Criterion) {
    let mut rng = Rng::new(0);
    let a = Tensor::randn(&[64, 64], &mut rng);
    let b = Tensor::randn(&[64, 64], &mut rng);
    // Packed kernel vs the retained scalar oracle, on the same shape.
    c.bench_function("matmul_64x64", |bch| {
        bch.iter(|| black_box(a.matmul(&b).unwrap()))
    });
    c.bench_function("matmul_64x64_reference", |bch| {
        bch.iter(|| black_box(matmul_reference(&a, &b).unwrap()))
    });
    let relu_like = a.map(|v| if v > 0.0 { v } else { 0.0 });
    c.bench_function("matmul_tn_sparse_64x64", |bch| {
        bch.iter(|| black_box(relu_like.matmul_tn(&b).unwrap()))
    });
    c.bench_function("matmul_tn_sparse_64x64_zero_skip", |bch| {
        bch.iter(|| black_box(matmul_tn_zero_skip(&relu_like, &b)))
    });
    c.bench_function("matmul_tn_dense_64x64", |bch| {
        bch.iter(|| black_box(a.matmul_tn(&b).unwrap()))
    });
    let x = Tensor::randn(&[8, 3, 16, 16], &mut rng);
    let w = Tensor::randn(&[8, 3, 3, 3], &mut rng);
    c.bench_function("conv2d_8x3x16x16", |bch| {
        bch.iter(|| black_box(conv2d(&x, &w, 1, 1).unwrap()))
    });
    c.bench_function("conv2d_8x3x16x16_reference", |bch| {
        bch.iter(|| black_box(conv2d_reference(&x, &w, 1, 1).unwrap()))
    });
}

fn bench_model(c: &mut Criterion) {
    let mut rng = Rng::new(1);
    let spec = ModelSpec::new(3, 16, 10);
    let x = Tensor::randn(&[16, 3, 16, 16], &mut rng);
    for arch in [
        Architecture::ResNetMini,
        Architecture::MobileNetMini,
        Architecture::VitMini,
    ] {
        let mut model = build(arch, &spec, &mut rng).unwrap();
        c.bench_function(&format!("{arch}_forward_b16"), |bch| {
            bch.iter(|| black_box(model.forward(&x, Mode::Eval).unwrap()))
        });
    }
    let mut model = build(Architecture::ResNetMini, &spec, &mut rng).unwrap();
    c.bench_function("resnet_forward_backward_b16", |bch| {
        bch.iter(|| {
            let y = model.forward(&x, Mode::Train).unwrap();
            model.zero_grad();
            black_box(model.backward(&y).unwrap())
        })
    });
}

fn bench_attacks(c: &mut Criterion) {
    let mut rng = Rng::new(2);
    let img = Tensor::rand_uniform(&[3, 16, 16], 0.0, 1.0, &mut rng);
    for kind in [
        AttackKind::BadNets,
        AttackKind::Blend,
        AttackKind::WaNet,
        AttackKind::Bpp,
    ] {
        let attack = kind.build(16, &mut rng).unwrap();
        c.bench_function(&format!("attack_{}", kind.name()), |bch| {
            bch.iter(|| black_box(attack.apply(&img, &mut rng).unwrap()))
        });
    }
}

fn bench_vp(c: &mut Criterion) {
    let mut rng = Rng::new(3);
    let prompt = VisualPrompt::random(3, 16, 4, &mut rng).unwrap();
    let imgs = Tensor::rand_uniform(&[16, 3, 16, 16], 0.0, 1.0, &mut rng);
    c.bench_function("prompt_apply_batch_16", |bch| {
        bch.iter(|| black_box(prompt.apply_batch(&imgs).unwrap()))
    });
    let dim = prompt.num_border_params();
    c.bench_function("cmaes_ask_tell_576d", |bch| {
        let mut es = CmaEs::new(&vec![0.0f32; dim], 0.2, 12).unwrap();
        bch.iter(|| {
            let pop = es.ask(&mut rng);
            let fit: Vec<f32> = pop.iter().map(|x| x.iter().map(|v| v * v).sum()).collect();
            es.tell(&pop, &fit).unwrap();
        })
    });
}

fn bench_meta(c: &mut Criterion) {
    let mut rng = Rng::new(4);
    let features: Vec<Vec<f32>> = (0..20)
        .map(|i| {
            (0..100)
                .map(|j| ((i * j) % 17) as f32 / 17.0 + if i < 10 { 0.0 } else { 0.5 })
                .collect()
        })
        .collect();
    let labels: Vec<bool> = (0..20).map(|i| i >= 10).collect();
    c.bench_function("forest_fit_300trees", |bch| {
        bch.iter(|| {
            black_box(
                RandomForest::fit(&features, &labels, &ForestConfig::default(), &mut rng).unwrap(),
            )
        })
    });
    let scores: Vec<f32> = (0..1000).map(|i| (i % 97) as f32 / 97.0).collect();
    let truth: Vec<bool> = (0..1000).map(|i| i % 3 == 0).collect();
    c.bench_function("auroc_1000", |bch| {
        bch.iter(|| black_box(auroc(&scores, &truth).unwrap()))
    });
}

fn bench_data(c: &mut Criterion) {
    c.bench_function("synth_cifar10_generate_100", |bch| {
        bch.iter(|| black_box(SynthDataset::Cifar10.generate(10, 16, 1).unwrap()))
    });
}

criterion_group!(
    benches,
    bench_tensor,
    bench_model,
    bench_attacks,
    bench_vp,
    bench_meta,
    bench_data
);
criterion_main!(benches);
