//! The composite system under audit in the backbone scenario: a frozen
//! (possibly backdoored) backbone behind the query boundary, fronted by
//! a visual prompt and a label map trained downstream on clean data.
//!
//! The composite is itself a [`BlackBoxModel`], so `Bprom::inspect`, the
//! fleet audit engine, every oracle regime, and every hostile decorator
//! stack run on it unchanged — the detector cannot tell (and must not be
//! told) whether it is probing a monolithic classifier or a prompted
//! backbone.

use bprom_tensor::Tensor;
use bprom_vp::{BlackBoxModel, LabelMap, QueryOracle, Result, VisualPrompt, VpError};

/// A frozen backbone adapted with a visual prompt + label map, sealed as
/// one query-only system.
///
/// An `[n, c, t, t]` downstream query is padded into the backbone's
/// `[n, c, s, s]` canvas by the prompt, answered by the backbone, and the
/// backbone's confidence vector is translated through the label map into
/// the downstream class space. Exactly `n` backbone images are submitted
/// per `n`-image downstream query, so the composite's query accounting is
/// structurally identical to a monolithic model's.
pub struct PromptedBackbone {
    backbone: QueryOracle,
    prompt: VisualPrompt,
    map: LabelMap,
    /// Whether the map is the identity on its full class range; identity
    /// maps return the backbone's softmax rows bitwise-unchanged instead
    /// of a gather + renormalize that would perturb the low-order bits.
    identity: bool,
}

impl std::fmt::Debug for PromptedBackbone {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PromptedBackbone")
            .field("backbone", &self.backbone)
            .field("target_classes", &self.map.target_classes())
            .field("identity_map", &self.identity)
            .finish()
    }
}

impl PromptedBackbone {
    /// Composes a sealed backbone with its downstream adaptation.
    ///
    /// # Errors
    ///
    /// Rejects a label map whose source-class range disagrees with the
    /// backbone's confidence-vector length.
    pub fn new(backbone: QueryOracle, prompt: VisualPrompt, map: LabelMap) -> Result<Self> {
        if map.source_classes() != backbone.num_classes() {
            return Err(VpError::InvalidConfig {
                reason: format!(
                    "label map covers {} source classes but the backbone answers {}",
                    map.source_classes(),
                    backbone.num_classes()
                ),
            });
        }
        let identity = map.target_classes() == map.source_classes()
            && (0..map.target_classes()).all(|t| map.source_class(t) == Some(t));
        Ok(PromptedBackbone {
            backbone,
            prompt,
            map,
            identity,
        })
    }

    /// The downstream-facing prompt (for invariance checks in tests).
    pub fn prompt(&self) -> &VisualPrompt {
        &self.prompt
    }

    /// The downstream label map.
    pub fn map(&self) -> &LabelMap {
        &self.map
    }

    /// Unseals the composite, returning its parts. Intended for the
    /// owner (e.g. a property test reclaiming the backbone to compare
    /// weights); a detector holding only `&dyn BlackBoxModel` cannot
    /// call this.
    pub fn into_parts(self) -> (QueryOracle, VisualPrompt, LabelMap) {
        (self.backbone, self.prompt, self.map)
    }

    /// Translates backbone confidences `[n, k_s]` into downstream
    /// confidences `[n, k_t]`: gather the mapped source class per target
    /// class, then renormalize each row to a probability vector.
    fn translate(&self, probs: &Tensor) -> Result<Tensor> {
        if self.identity {
            return Ok(probs.clone());
        }
        let n = probs.shape()[0];
        let k_s = probs.shape()[1];
        let k_t = self.map.target_classes();
        let mut out = vec![0.0f32; n * k_t];
        for i in 0..n {
            let row = &probs.data()[i * k_s..(i + 1) * k_s];
            let mut mass = 0.0f32;
            for t in 0..k_t {
                let s = self.map.map_label(t)?;
                out[i * k_t + t] = row[s];
                mass += row[s];
            }
            // Deterministic guard: an all-zero gathered row (possible
            // under aggressively quantized regimes) renormalizes to a
            // finite uniform-ish vector instead of NaN.
            let mass = mass.max(1e-9);
            for t in 0..k_t {
                out[i * k_t + t] /= mass;
            }
        }
        Tensor::from_vec(out, &[n, k_t]).map_err(|e| VpError::InvalidConfig {
            reason: format!("translate: {e}"),
        })
    }
}

impl BlackBoxModel for PromptedBackbone {
    fn query(&self, batch: &Tensor) -> Result<Tensor> {
        if batch.rank() != 4 {
            return Err(VpError::InvalidConfig {
                reason: format!("query expects [n, c, h, w], got {:?}", batch.shape()),
            });
        }
        let prompted = self.prompt.apply_batch(batch)?;
        let probs = self.backbone.query(&prompted)?;
        self.translate(&probs)
    }

    /// Query accounting, stats and the cache pair are the backbone's:
    /// `apply_batch` preserves the batch dimension, so n downstream
    /// images per query submit exactly n backbone images.
    fn wrapped(&self) -> Option<&dyn BlackBoxModel> {
        Some(&self.backbone)
    }

    fn num_classes(&self) -> usize {
        self.map.target_classes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bprom_nn::models::{mlp, ModelSpec};
    use bprom_tensor::Rng;

    fn backbone(rng: &mut Rng) -> QueryOracle {
        let model = mlp(&ModelSpec::new(3, 16, 10), rng).unwrap();
        QueryOracle::new(model, 10)
    }

    #[test]
    fn composite_answers_downstream_queries_and_counts_exactly() {
        let mut rng = Rng::new(0);
        let oracle = backbone(&mut rng);
        let prompt = VisualPrompt::random(3, 16, 2, &mut rng).unwrap();
        let map = LabelMap::identity(10, 10).unwrap();
        let system = PromptedBackbone::new(oracle, prompt, map).unwrap();
        // Downstream images are smaller than the backbone canvas; the
        // prompt pads them up.
        let batch = Tensor::rand_uniform(&[5, 3, 12, 12], 0.0, 1.0, &mut rng);
        let probs = system.query(&batch).unwrap();
        assert_eq!(probs.shape(), &[5, 10]);
        for i in 0..5 {
            let sum: f32 = probs.data()[i * 10..(i + 1) * 10].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {i} not a distribution");
        }
        assert_eq!(system.queries_used(), 5, "n downstream = n backbone images");
        system.query(&batch).unwrap();
        assert_eq!(system.queries_used(), 10);
    }

    #[test]
    fn identity_map_is_a_bitwise_passthrough() {
        let mut rng = Rng::new(1);
        let oracle = backbone(&mut rng);
        let prompt = VisualPrompt::random(3, 16, 2, &mut rng).unwrap();
        let prompted = prompt
            .apply_batch(&Tensor::rand_uniform(&[3, 3, 12, 12], 0.0, 1.0, &mut rng))
            .unwrap();
        let direct = oracle.query(&prompted).unwrap();

        let mut rng2 = Rng::new(1);
        let oracle2 = backbone(&mut rng2);
        let prompt2 = VisualPrompt::random(3, 16, 2, &mut rng2).unwrap();
        let map = LabelMap::identity(10, 10).unwrap();
        let system = PromptedBackbone::new(oracle2, prompt2, map).unwrap();
        let batch = Tensor::rand_uniform(&[3, 3, 12, 12], 0.0, 1.0, &mut rng2);
        let via_composite = system.query(&batch).unwrap();
        assert_eq!(
            direct.data(),
            via_composite.data(),
            "identity map must not perturb the backbone's softmax bits"
        );
    }

    #[test]
    fn narrowing_map_gathers_and_renormalizes() {
        let mut rng = Rng::new(2);
        let oracle = backbone(&mut rng);
        let prompt = VisualPrompt::random(3, 16, 2, &mut rng).unwrap();
        // 4 downstream classes onto backbone classes 0..4.
        let map = LabelMap::identity(4, 10).unwrap();
        let system = PromptedBackbone::new(oracle, prompt, map).unwrap();
        let batch = Tensor::rand_uniform(&[2, 3, 12, 12], 0.0, 1.0, &mut rng);
        let probs = system.query(&batch).unwrap();
        assert_eq!(probs.shape(), &[2, 4]);
        assert_eq!(system.num_classes(), 4);
        for i in 0..2 {
            let sum: f32 = probs.data()[i * 4..(i + 1) * 4].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {i} not renormalized");
        }
    }

    #[test]
    fn rejects_rank_mismatch_and_class_mismatch() {
        let mut rng = Rng::new(3);
        let oracle = backbone(&mut rng);
        let prompt = VisualPrompt::random(3, 16, 2, &mut rng).unwrap();
        let bad_map = LabelMap::identity(4, 7).unwrap();
        assert!(
            PromptedBackbone::new(oracle, prompt, bad_map).is_err(),
            "7-source map over a 10-class backbone must be rejected"
        );
        let mut rng = Rng::new(3);
        let oracle = backbone(&mut rng);
        let prompt = VisualPrompt::random(3, 16, 2, &mut rng).unwrap();
        let map = LabelMap::identity(10, 10).unwrap();
        let system = PromptedBackbone::new(oracle, prompt, map).unwrap();
        assert!(system.query(&Tensor::zeros(&[3, 12, 12])).is_err());
    }
}
