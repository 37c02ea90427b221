//! Prompting stage (paper Section 5.2, "Prompting Shadow Models"): learn a
//! visual prompt per shadow model by backpropagation, and for suspicious
//! models by CMA-ES through the black-box query interface.

use crate::config::ShadowPrompting;
use crate::resume::Run;
use crate::{BpromConfig, Result, ShadowModel, ShadowSet};
use bprom_data::Dataset;
use bprom_qcache::CachingOracle;
use bprom_regimes::RegimeOracle;
use bprom_tensor::Rng;
use bprom_vp::{
    train_prompt_backprop, train_prompt_cmaes, BlackBoxModel, LabelMap, PromptTrainReport,
    QueryOracle, VisualPrompt,
};

/// A prompted shadow model: the prompt learned for it plus bookkeeping.
#[derive(Debug, Clone)]
pub struct LearnedPrompt {
    /// The learned visual prompt `θ*`.
    pub prompt: VisualPrompt,
    /// Final prompt-training loss (diagnostic).
    pub final_loss: f32,
}

/// Learns one prompt per shadow model on `D_T^train` (Algorithm 1 lines
/// 10–12).
///
/// Checkpointed, each learned prompt is a unit `prompt-<i>`, and CMA-ES
/// shadow prompting additionally snapshots optimizer state per
/// generation (snapshot `cmaes-prompt-<i>`), so even a half-finished
/// prompt resumes from its last completed generation. Like shadow
/// training, each prompt runs from its own pre-forked RNG stream, so
/// skipping a done unit discards that stream without touching the
/// caller's.
///
/// # Errors
///
/// Propagates prompting and checkpoint failures.
pub fn prompt_shadows<'r>(
    config: &BpromConfig,
    shadows: &mut ShadowSet,
    t_train: &Dataset,
    map: &LabelMap,
    run: impl Into<Run<'r>>,
) -> Result<Vec<LearnedPrompt>> {
    let run = run.into();
    let ckpt = run.ckpt;
    let num_classes = map.source_classes();
    // One forked generator per shadow, drawn in shadow order, makes the
    // learned prompts independent of worker scheduling.
    let jobs: Vec<(usize, &mut ShadowModel, Rng)> = shadows
        .shadows
        .iter_mut()
        .enumerate()
        .map(|(i, shadow)| {
            let child = run.rng.fork();
            (i, shadow, child)
        })
        .collect();
    bprom_par::par_map(jobs, |(i, shadow, mut rng)| -> Result<LearnedPrompt> {
        bprom_obs::span!("prompt_shadow");
        let learn = |run: Run<'_>| -> Result<LearnedPrompt> {
            let mut prompt = VisualPrompt::random(
                t_train.channels(),
                config.image_size,
                config.prompt_border,
                run.rng,
            )?
            .with_style(config.prompt_style);
            let report = match config.shadow_prompting {
                // Backprop prompting has no per-generation snapshots: an
                // interrupted unit simply re-runs from its forked stream.
                ShadowPrompting::Backprop => train_prompt_backprop(
                    &mut shadow.model,
                    &mut prompt,
                    &t_train.images,
                    &t_train.labels,
                    map,
                    &config.prompt,
                    run.rng,
                )?,
                ShadowPrompting::CmaEs => {
                    // Temporarily seal the shadow behind the oracle so the
                    // exact suspicious-model code path runs — including
                    // the query cache, whose policy comes from the same
                    // config as the suspicious-model side, and the
                    // declared oracle regime, so shadow prompts are
                    // searched under the same response contract the
                    // suspicious endpoint will enforce. The regime sits
                    // above the cache: cached entries keep full scores,
                    // degradation happens on the way out.
                    let model = std::mem::replace(&mut shadow.model, crate::shadow::empty_model());
                    let oracle =
                        CachingOracle::new(QueryOracle::new(model, num_classes), config.cache);
                    let sealed = RegimeOracle::new(&oracle, config.regime);
                    let snapshot = format!("cmaes-prompt-{i}");
                    let cmaes = run.cmaes(&snapshot);
                    let report = train_prompt_cmaes(
                        &sealed,
                        &mut prompt,
                        &t_train.images,
                        &t_train.labels,
                        map,
                        &regime_prompt_config(config),
                        run.rng,
                        cmaes,
                    )?;
                    shadow.model = oracle.into_inner().into_inner();
                    report
                }
            };
            let final_loss = report.losses.last().copied().unwrap_or(f32::NAN);
            bprom_obs::counter_add("prompts.shadow", 1);
            bprom_obs::log_event(
                "prompt.shadow_learned",
                [("index", i.into()), ("final_loss", final_loss.into())],
            );
            Ok(LearnedPrompt { prompt, final_loss })
        };
        Run::new(&mut rng, ckpt).checkpointed(
            &format!("prompt-{i}"),
            learn,
            |learned, _, enc| {
                learned.prompt.persist(enc);
                enc.put_f32(learned.final_loss);
            },
            |dec, _| {
                let prompt = VisualPrompt::restore(dec)?;
                let final_loss = dec.get_f32()?;
                Ok(LearnedPrompt { prompt, final_loss })
            },
        )
    })
    .into_iter()
    .collect()
}

/// The prompt-training config with the fitness derived from the declared
/// oracle regime (`config.regime` is the single source of truth;
/// `config.prompt.fitness` stays at its default and is overridden here at
/// every call site).
fn regime_prompt_config(config: &BpromConfig) -> bprom_vp::PromptTrainConfig {
    let mut pcfg = config.prompt;
    pcfg.fitness = config.regime.fitness();
    pcfg
}

/// Learns a prompt for the suspicious model using only black-box queries
/// (gradient-free CMA-ES, as the paper specifies for `f_sus`).
///
/// Returns the prompt and the full training report (queries consumed and
/// candidates skipped over exhausted retries). Checkpointed, every
/// CMA-ES generation snapshots the full optimizer state under
/// `cmaes-inspect-<run.unit>`, and a resumed call continues from the last
/// completed generation with carried query/fault accounting (see
/// [`PromptTrainReport::carried_queries`]).
///
/// # Errors
///
/// Propagates prompting and checkpoint failures.
pub fn prompt_suspicious<'r>(
    config: &BpromConfig,
    oracle: &dyn BlackBoxModel,
    t_train: &Dataset,
    map: &LabelMap,
    run: impl Into<Run<'r>>,
) -> Result<(VisualPrompt, PromptTrainReport)> {
    let run = run.into();
    let mut prompt = VisualPrompt::random(
        t_train.channels(),
        config.image_size,
        config.prompt_border,
        run.rng,
    )?
    .with_style(config.prompt_style);
    // Enforce the declared regime here (idempotent if the caller's oracle
    // already does) and search with the matching fitness: cross-entropy
    // needs soft scores, so top-k renormalizes and label-only falls back
    // to the prompted-miss-rate proxy.
    let sealed = RegimeOracle::new(oracle, config.regime);
    let snapshot = format!("cmaes-inspect-{}", run.unit);
    let cmaes = run.cmaes(&snapshot);
    let report = train_prompt_cmaes(
        &sealed,
        &mut prompt,
        &t_train.images,
        &t_train.labels,
        map,
        &regime_prompt_config(config),
        run.rng,
        cmaes,
    )?;
    Ok((prompt, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bprom_data::SynthDataset;
    use bprom_nn::TrainConfig;
    use bprom_vp::PromptTrainConfig;

    #[test]
    fn prompts_every_shadow() {
        let mut rng = Rng::new(0);
        let mut config = crate::BpromConfig::fast(SynthDataset::Cifar10, SynthDataset::Stl10);
        config.clean_shadows = 1;
        config.backdoor_shadows = 1;
        config.train = TrainConfig {
            epochs: 3,
            ..TrainConfig::default()
        };
        config.prompt = PromptTrainConfig {
            epochs: 3,
            ..PromptTrainConfig::default()
        };
        let ds = SynthDataset::Cifar10.generate(8, 16, 1).unwrap();
        let t_train = SynthDataset::Stl10.generate(8, 16, 2).unwrap();
        let map = LabelMap::identity(10, 10).unwrap();
        let mut shadows = ShadowSet::train(&config, &ds, &mut rng).unwrap();
        let prompts = prompt_shadows(&config, &mut shadows, &t_train, &map, &mut rng).unwrap();
        assert_eq!(prompts.len(), 2);
        for p in &prompts {
            assert!(p.final_loss.is_finite());
            // Prompt actually moved away from its random init.
            assert!(p.prompt.to_flat().iter().any(|&v| v.abs() > 0.1));
        }
    }
}
