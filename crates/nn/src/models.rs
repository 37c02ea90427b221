//! Model zoo: miniature counterparts of the paper's architectures, scaled
//! to train in seconds on one CPU core while preserving each family's
//! structural signature (residual CNN, depthwise-separable CNN, ViT-style
//! attention, Swin-style windowed attention).

use crate::layers::{
    Attention, BatchNorm2d, Conv2d, Dense, DepthwiseConv2d, Flatten, FoldTokens, Gelu,
    GlobalAvgPool, LayerNorm, PatchEmbed, Relu, Residual, TokenMeanPool, UnfoldTokens,
};
use crate::{NnError, Result, Sequential};
use bprom_tensor::Rng;

/// Architecture families available in the zoo.
///
/// The paper's evaluation spans ResNet18, MobileNetV2, MobileViT and Swin
/// Transformer; each maps to the mini model of the same family here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Architecture {
    /// Residual CNN (stands in for ResNet18).
    ResNetMini,
    /// Depthwise-separable CNN (stands in for MobileNetV2).
    MobileNetMini,
    /// Patch-embedding transformer with full attention (MobileViT).
    VitMini,
    /// Patch-embedding transformer with windowed attention (Swin).
    SwinMini,
    /// Plain multilayer perceptron (ablation baseline).
    Mlp,
}

impl Architecture {
    /// All architectures, for sweeps.
    pub const ALL: [Architecture; 5] = [
        Architecture::ResNetMini,
        Architecture::MobileNetMini,
        Architecture::VitMini,
        Architecture::SwinMini,
        Architecture::Mlp,
    ];
}

impl std::fmt::Display for Architecture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Architecture::ResNetMini => "ResNetMini",
            Architecture::MobileNetMini => "MobileNetMini",
            Architecture::VitMini => "VitMini",
            Architecture::SwinMini => "SwinMini",
            Architecture::Mlp => "Mlp",
        };
        f.write_str(s)
    }
}

/// Input/output specification for a classifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelSpec {
    /// Input channels (3 for the synthetic image datasets).
    pub in_channels: usize,
    /// Square input side in pixels.
    pub image_size: usize,
    /// Number of output classes.
    pub num_classes: usize,
}

impl ModelSpec {
    /// Creates a spec.
    pub fn new(in_channels: usize, image_size: usize, num_classes: usize) -> Self {
        ModelSpec {
            in_channels,
            image_size,
            num_classes,
        }
    }
}

/// Builds a model of the requested architecture.
///
/// # Errors
///
/// Returns [`NnError::InvalidConfig`] for specs the architecture cannot
/// accommodate (e.g. image sizes not divisible by the patch grid for the
/// transformer models).
pub fn build(arch: Architecture, spec: &ModelSpec, rng: &mut Rng) -> Result<Sequential> {
    match arch {
        Architecture::ResNetMini => resnet_mini(spec, rng),
        Architecture::MobileNetMini => mobilenet_mini(spec, rng),
        Architecture::VitMini => vit_mini(spec, rng),
        Architecture::SwinMini => swin_mini(spec, rng),
        Architecture::Mlp => mlp(spec, rng),
    }
}

/// Channel widths of the CNN bodies, widened when the label space is large
/// so the pooled feature vector can separate all classes.
fn head_widths(num_classes: usize) -> (usize, usize) {
    if num_classes <= 16 {
        (6, 10)
    } else if num_classes <= 50 {
        (8, 32)
    } else {
        (12, 48)
    }
}

fn check_spec(spec: &ModelSpec) -> Result<()> {
    if spec.in_channels == 0 || spec.image_size == 0 || spec.num_classes == 0 {
        return Err(NnError::InvalidConfig {
            reason: format!("degenerate model spec {spec:?}"),
        });
    }
    Ok(())
}

/// Residual CNN: stem conv → identity residual block → strided projection
/// residual block → global average pool → linear head.
pub fn resnet_mini(spec: &ModelSpec, rng: &mut Rng) -> Result<Sequential> {
    check_spec(spec)?;
    let (c1, c2) = head_widths(spec.num_classes);
    let block1 = Residual::new(Sequential::new(vec![
        Box::new(Conv2d::new(c1, c1, 3, 1, 1, rng)),
        Box::new(BatchNorm2d::new(c1)),
        Box::new(Relu::new()),
        Box::new(Conv2d::new(c1, c1, 3, 1, 1, rng)),
        Box::new(BatchNorm2d::new(c1)),
    ]));
    let block2 = Residual::with_projection(
        Sequential::new(vec![
            Box::new(Conv2d::new(c1, c2, 3, 2, 1, rng)),
            Box::new(BatchNorm2d::new(c2)),
            Box::new(Relu::new()),
            Box::new(Conv2d::new(c2, c2, 3, 1, 1, rng)),
            Box::new(BatchNorm2d::new(c2)),
        ]),
        Sequential::new(vec![Box::new(Conv2d::new(c1, c2, 1, 2, 0, rng))]),
    );
    Ok(Sequential::new(vec![
        Box::new(Conv2d::new(spec.in_channels, c1, 3, 1, 1, rng)),
        Box::new(BatchNorm2d::new(c1)),
        Box::new(Relu::new()),
        Box::new(block1),
        Box::new(Relu::new()),
        Box::new(block2),
        Box::new(Relu::new()),
        Box::new(GlobalAvgPool::new()),
        Box::new(Dense::new(c2, spec.num_classes, rng)),
    ]))
}

/// Depthwise-separable CNN in the MobileNet style: stem conv followed by
/// two depthwise + pointwise blocks.
pub fn mobilenet_mini(spec: &ModelSpec, rng: &mut Rng) -> Result<Sequential> {
    check_spec(spec)?;
    let (c1, c3) = head_widths(spec.num_classes);
    let c2 = (c1 + c3) / 2;
    Ok(Sequential::new(vec![
        Box::new(Conv2d::new(spec.in_channels, c1, 3, 1, 1, rng)),
        Box::new(BatchNorm2d::new(c1)),
        Box::new(Relu::new()),
        // Separable block 1 (stride 2).
        Box::new(DepthwiseConv2d::new(c1, 3, 2, 1, rng)),
        Box::new(BatchNorm2d::new(c1)),
        Box::new(Relu::new()),
        Box::new(Conv2d::new(c1, c2, 1, 1, 0, rng)),
        Box::new(BatchNorm2d::new(c2)),
        Box::new(Relu::new()),
        // Separable block 2.
        Box::new(DepthwiseConv2d::new(c2, 3, 1, 1, rng)),
        Box::new(BatchNorm2d::new(c2)),
        Box::new(Relu::new()),
        Box::new(Conv2d::new(c2, c3, 1, 1, 0, rng)),
        Box::new(BatchNorm2d::new(c3)),
        Box::new(Relu::new()),
        Box::new(GlobalAvgPool::new()),
        Box::new(Dense::new(c3, spec.num_classes, rng)),
    ]))
}

const TOKEN_GRID: usize = 4;

fn transformer(spec: &ModelSpec, window: Option<usize>, rng: &mut Rng) -> Result<Sequential> {
    check_spec(spec)?;
    if spec.image_size % TOKEN_GRID != 0 {
        return Err(NnError::InvalidConfig {
            reason: format!(
                "transformer models need image_size divisible by {TOKEN_GRID}, got {}",
                spec.image_size
            ),
        });
    }
    let patch = spec.image_size / TOKEN_GRID;
    let tokens = TOKEN_GRID * TOKEN_GRID;
    let d = if spec.num_classes <= 16 { 16 } else { 32 };
    let hidden = 2 * d;
    let attn: Box<dyn crate::Layer> = match window {
        Some(w) => Box::new(Attention::windowed(d, w, rng)),
        None => Box::new(Attention::new(d, rng)),
    };
    let attn_block = Residual::new(Sequential::new(vec![Box::new(LayerNorm::new(d)), attn]));
    let mlp_block = Residual::new(Sequential::new(vec![
        Box::new(LayerNorm::new(d)),
        Box::new(FoldTokens::new()),
        Box::new(Dense::new(d, hidden, rng)),
        Box::new(Gelu::new()),
        Box::new(Dense::new(hidden, d, rng)),
        Box::new(UnfoldTokens::new(tokens)),
    ]));
    Ok(Sequential::new(vec![
        Box::new(PatchEmbed::new(spec.in_channels, d, patch, rng)),
        Box::new(attn_block),
        Box::new(mlp_block),
        Box::new(LayerNorm::new(d)),
        Box::new(TokenMeanPool::new()),
        Box::new(Dense::new(d, spec.num_classes, rng)),
    ]))
}

/// ViT-style transformer with full self-attention over a 4×4 token grid.
pub fn vit_mini(spec: &ModelSpec, rng: &mut Rng) -> Result<Sequential> {
    transformer(spec, None, rng)
}

/// Swin-style transformer with 2×2 windowed self-attention.
pub fn swin_mini(spec: &ModelSpec, rng: &mut Rng) -> Result<Sequential> {
    transformer(spec, Some(2), rng)
}

/// Two-layer MLP baseline.
pub fn mlp(spec: &ModelSpec, rng: &mut Rng) -> Result<Sequential> {
    check_spec(spec)?;
    let input = spec.in_channels * spec.image_size * spec.image_size;
    let hidden = 64.max(2 * spec.num_classes);
    Ok(Sequential::new(vec![
        Box::new(Flatten::new()),
        Box::new(Dense::new(input, hidden, rng)),
        Box::new(Relu::new()),
        Box::new(Dense::new(hidden, spec.num_classes, rng)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Layer, Mode};
    use bprom_tensor::Tensor;

    fn smoke(arch: Architecture) {
        let mut rng = Rng::new(0);
        let spec = ModelSpec::new(3, 16, 10);
        let mut model = build(arch, &spec, &mut rng).unwrap();
        let x = Tensor::randn(&[2, 3, 16, 16], &mut rng);
        let y = model.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.shape(), &[2, 10], "{arch}");
        let gx = model.backward(&Tensor::ones(&[2, 10])).unwrap();
        assert_eq!(gx.shape(), x.shape(), "{arch}");
        assert!(model.param_count() > 0);
    }

    #[test]
    fn resnet_mini_smoke() {
        smoke(Architecture::ResNetMini);
    }

    #[test]
    fn mobilenet_mini_smoke() {
        smoke(Architecture::MobileNetMini);
    }

    #[test]
    fn vit_mini_smoke() {
        smoke(Architecture::VitMini);
    }

    #[test]
    fn swin_mini_smoke() {
        smoke(Architecture::SwinMini);
    }

    #[test]
    fn mlp_smoke() {
        smoke(Architecture::Mlp);
    }

    #[test]
    fn larger_image_sizes_work() {
        let mut rng = Rng::new(1);
        let spec = ModelSpec::new(3, 24, 50);
        for arch in Architecture::ALL {
            let mut model = build(arch, &spec, &mut rng).unwrap();
            let x = Tensor::randn(&[1, 3, 24, 24], &mut rng);
            let y = model.forward(&x, Mode::Eval).unwrap();
            assert_eq!(y.shape(), &[1, 50], "{arch}");
        }
    }

    #[test]
    fn forward_eval_is_bit_identical_across_architectures() {
        let mut rng = Rng::new(7);
        let spec = ModelSpec::new(3, 16, 10);
        for arch in Architecture::ALL {
            let mut model = build(arch, &spec, &mut rng).unwrap();
            // Running statistics, γ/β and biases all off their initial
            // values, so a wrong fused-epilogue order cannot pass.
            crate::sequential::tests::perturb_for_eval(&mut model, &mut rng);
            let x = Tensor::randn(&[48, 3, 16, 16], &mut rng);
            let y_unfused = model.forward(&x, Mode::Eval).unwrap();
            let y_fused = model.forward_eval(&x).unwrap();
            assert_eq!(y_unfused, y_fused, "{arch}");
        }
    }

    /// Every parameter gradient `backward_params` accumulates is bit for
    /// bit the one `backward` does, on every architecture.
    #[test]
    fn backward_params_matches_backward_bitwise() {
        let spec = ModelSpec::new(3, 16, 10);
        let x = Tensor::randn(&[4, 3, 16, 16], &mut Rng::new(6));
        let g = Tensor::randn(&[4, 10], &mut Rng::new(7));
        let grad_bits = |m: &mut Sequential| {
            let mut bits = Vec::new();
            m.visit_params(&mut |_, grad| bits.extend(grad.data().iter().map(|v| v.to_bits())));
            bits
        };
        for arch in Architecture::ALL {
            let mut full = build(arch, &spec, &mut Rng::new(5)).unwrap();
            let mut params_only = build(arch, &spec, &mut Rng::new(5)).unwrap();
            full.forward(&x, Mode::Train).unwrap();
            params_only.forward(&x, Mode::Train).unwrap();
            full.backward(&g).unwrap();
            params_only.backward_params(&g).unwrap();
            assert_eq!(grad_bits(&mut full), grad_bits(&mut params_only), "{arch}");
        }
    }

    #[test]
    fn transformer_rejects_bad_image_size() {
        let mut rng = Rng::new(2);
        let spec = ModelSpec::new(3, 15, 10);
        assert!(vit_mini(&spec, &mut rng).is_err());
    }

    #[test]
    fn degenerate_spec_rejected() {
        let mut rng = Rng::new(3);
        assert!(mlp(&ModelSpec::new(0, 16, 10), &mut rng).is_err());
        assert!(resnet_mini(&ModelSpec::new(3, 16, 0), &mut rng).is_err());
    }
}
