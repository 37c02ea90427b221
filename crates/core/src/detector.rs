//! The end-to-end BPROM detector.

use crate::meta_model::{probe_features_blackbox_regime, train_meta, ProbeSet};
use crate::prompting::{prompt_shadows, prompt_suspicious};
use crate::resume::{
    decode_dataset, decode_rng, decode_tensor, encode_dataset, encode_rng, encode_tensor,
    run_fingerprint, Decoder, Run,
};
use crate::{BpromConfig, BpromError, Result, ShadowSet};
use bprom_ckpt::Encoder;
use bprom_data::Dataset;
use bprom_meta::RandomForest;
use bprom_verdict::{Signals, Timing};
use bprom_vp::{BlackBoxModel, CountingOracle, LabelMap};
use std::time::Instant;

/// Query-budget and wall-clock breakdown of one [`Bprom::inspect`] call.
///
/// Always populated — timing uses [`std::time::Instant`] directly, so the
/// budget is exact whether or not a `bprom-obs` telemetry session is
/// installed. Query counts are deterministic: two identically-seeded
/// inspections spend identical budgets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InspectBudget {
    /// Oracle images spent learning the CMA-ES prompt.
    pub prompt_queries: u64,
    /// Oracle images spent measuring the learned prompt's accuracy on
    /// the target training split (this pass replays images the prompt
    /// search already queried, so with the query cache enabled most of
    /// it is served without provider spend).
    pub accuracy_queries: u64,
    /// Oracle images spent extracting the probe feature.
    pub probe_queries: u64,
    /// Wall-clock of the prompt-learning phase, in nanoseconds.
    pub prompt_ns: u64,
    /// Wall-clock of the probe + meta-prediction phase, in nanoseconds.
    pub probe_ns: u64,
    /// Total inspection wall-clock, in nanoseconds.
    pub total_ns: u64,
    /// Transient faults the oracle stack injected during this inspection
    /// (0 for a plain oracle; see `bprom-faults`).
    pub faults_injected: u64,
    /// Retry attempts absorbed by the oracle stack.
    pub retries: u64,
    /// Queries whose retry budget ran out (each one either penalized a
    /// CMA-ES candidate or failed the inspection).
    pub retry_exhausted: u64,
    /// Delivered responses degraded by the oracle stack (quantized,
    /// truncated, jittered).
    pub degraded_responses: u64,
    /// Virtual backoff milliseconds a real client would have slept.
    pub backoff_virtual_ms: u64,
    /// CMA-ES candidates skipped with an infinite penalty because their
    /// queries exhausted all retries.
    pub penalized_candidates: u64,
    /// Query rows served from the content-addressed cache instead of the
    /// provider (0 with `BPROM_QCACHE=off`; see `bprom-qcache`).
    pub cache_hits: u64,
    /// Deduplicated query rows the cache forwarded to the provider.
    pub cache_misses: u64,
    /// Cache entries evicted by a bounded-memory (`lru:<n>`) policy.
    pub cache_evictions: u64,
    /// Responses an adaptive (probe-detecting) endpoint fabricated
    /// instead of answering honestly (see `bprom-faults::AdaptiveOracle`;
    /// verdict rule B012 keys on this).
    pub evasive_responses: u64,
}

impl InspectBudget {
    /// Total oracle images spent (logical spend: cache hits included, so
    /// the figure is identical whether or not caching is enabled).
    pub fn total_queries(&self) -> u64 {
        self.prompt_queries + self.accuracy_queries + self.probe_queries
    }

    /// Whether the oracle stack misbehaved at all during this inspection.
    pub fn degraded(&self) -> bool {
        self.faults_injected > 0 || self.degraded_responses > 0 || self.retry_exhausted > 0
    }
}

/// Verdict returned by [`Bprom::inspect`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// Backdoor probability from the meta-classifier (higher = more
    /// suspicious).
    pub score: f32,
    /// Hard decision at threshold 0.5.
    pub backdoored: bool,
    /// Accuracy of the prompted suspicious model on the target training
    /// split (measured black-box after the CMA-ES search installs its
    /// best prompt).
    pub prompted_accuracy: f32,
    /// Black-box queries consumed inspecting this model.
    pub queries: u64,
    /// Exact per-phase query and wall-clock breakdown.
    pub budget: InspectBudget,
}

fn encode_verdict(enc: &mut Encoder, v: &Verdict) {
    enc.put_f32(v.score);
    enc.put_bool(v.backdoored);
    enc.put_f32(v.prompted_accuracy);
    enc.put_u64(v.queries);
    let b = &v.budget;
    enc.put_u64(b.prompt_queries);
    enc.put_u64(b.accuracy_queries);
    enc.put_u64(b.probe_queries);
    enc.put_u64(b.prompt_ns);
    enc.put_u64(b.probe_ns);
    enc.put_u64(b.total_ns);
    enc.put_u64(b.faults_injected);
    enc.put_u64(b.retries);
    enc.put_u64(b.retry_exhausted);
    enc.put_u64(b.degraded_responses);
    enc.put_u64(b.backoff_virtual_ms);
    enc.put_u64(b.penalized_candidates);
    enc.put_u64(b.cache_hits);
    enc.put_u64(b.cache_misses);
    enc.put_u64(b.cache_evictions);
    enc.put_u64(b.evasive_responses);
}

fn decode_verdict(dec: &mut Decoder<'_>) -> Result<Verdict> {
    Ok(Verdict {
        score: dec.get_f32()?,
        backdoored: dec.get_bool()?,
        prompted_accuracy: dec.get_f32()?,
        queries: dec.get_u64()?,
        budget: InspectBudget {
            prompt_queries: dec.get_u64()?,
            accuracy_queries: dec.get_u64()?,
            probe_queries: dec.get_u64()?,
            prompt_ns: dec.get_u64()?,
            probe_ns: dec.get_u64()?,
            total_ns: dec.get_u64()?,
            faults_injected: dec.get_u64()?,
            retries: dec.get_u64()?,
            retry_exhausted: dec.get_u64()?,
            degraded_responses: dec.get_u64()?,
            backoff_virtual_ms: dec.get_u64()?,
            penalized_candidates: dec.get_u64()?,
            cache_hits: dec.get_u64()?,
            cache_misses: dec.get_u64()?,
            cache_evictions: dec.get_u64()?,
            evasive_responses: dec.get_u64()?,
        },
    })
}

impl Verdict {
    /// This verdict's observations in the verdict pipeline's wall-clock-
    /// free [`Signals`] form — the input to rule evaluation and the
    /// byte-stable `incident.json` artifact.
    pub fn signals(&self) -> Signals {
        Signals {
            score: self.score,
            backdoored: self.backdoored,
            prompted_accuracy: self.prompted_accuracy,
            queries: self.queries,
            prompt_queries: self.budget.prompt_queries,
            accuracy_queries: self.budget.accuracy_queries,
            probe_queries: self.budget.probe_queries,
            faults_injected: self.budget.faults_injected,
            retries: self.budget.retries,
            retry_exhausted: self.budget.retry_exhausted,
            degraded_responses: self.budget.degraded_responses,
            penalized_candidates: self.budget.penalized_candidates,
            cache_hits: self.budget.cache_hits,
            cache_misses: self.budget.cache_misses,
            cache_evictions: self.budget.cache_evictions,
            evasive_responses: self.budget.evasive_responses,
            // The attestation is a property of the audited *system*, not
            // of one inspection; the evaluation loop stamps it from the
            // workload Scenario before rule evaluation.
            clean_downstream_training: false,
        }
    }

    /// The wall-clock portion of the budget, for human rendering (kept
    /// out of [`Signals`] so incident artifacts stay byte-stable).
    pub fn timing(&self) -> Timing {
        Timing {
            prompt_ns: self.budget.prompt_ns,
            probe_ns: self.budget.probe_ns,
            total_ns: self.budget.total_ns,
        }
    }

    /// Runs the verdict rules stage over this verdict's signals,
    /// returning every finding (stable rule ID, severity, reason,
    /// evidence) the policy raises.
    pub fn findings(&self, policy: &bprom_verdict::RulePolicy) -> Vec<bprom_verdict::Finding> {
        policy.evaluate(&self.signals())
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // One formatting path for human and machine output: `render` is
        // shared with the bench binaries and fed from the same Signals
        // that incident.json serializes.
        f.write_str(&bprom_verdict::render(
            &self.signals(),
            Some(&self.timing()),
        ))
    }
}

/// Version prefix of the [`Bprom::persist`] payload; bumped on any
/// layout change so stale registry entries fail typed instead of
/// decoding garbage.
const DETECTOR_CODEC_VERSION: u32 = 1;

/// A fitted BPROM detector (the output of Algorithm 1).
pub struct Bprom {
    config: BpromConfig,
    meta: RandomForest,
    probes: ProbeSet,
    t_train: Dataset,
    map: LabelMap,
}

impl std::fmt::Debug for Bprom {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bprom")
            .field("source", &self.config.source_dataset)
            .field("target", &self.config.target_dataset)
            .field("probes", &self.probes.len())
            .finish()
    }
}

impl Bprom {
    /// Runs the full BPROM training pipeline (Algorithm 1): reserve `D_S`,
    /// train shadow models, prompt them, and fit the meta-classifier.
    ///
    /// Checkpointed (see [`Run`]), every completed unit of work (shadow,
    /// prompt, meta forest) is snapshotted and journalled, and a re-run
    /// against the same directory — same config, same seed — skips
    /// completed units and continues bit-identically from the first
    /// incomplete one.
    ///
    /// # Errors
    ///
    /// Propagates configuration, training, prompting, meta-model and
    /// checkpoint failures; rejects a checkpoint directory whose manifest
    /// belongs to a different run.
    pub fn fit<'r>(config: &BpromConfig, run: impl Into<Run<'r>>) -> Result<Self> {
        let run = run.into();
        config.validate()?;
        // Emulate the source test distribution and reserve D_S from it.
        let source_test = config.source_dataset.generate(
            config.test_samples_per_class,
            config.image_size,
            run.rng.next_u64(),
        )?;
        let ds = source_test.subsample(config.ds_fraction, run.rng)?;
        Self::fit_with_reserved(config, &ds, run)
    }

    /// [`Bprom::fit`] with an explicit reserved clean dataset `D_S` (used
    /// by experiments that sweep `D_S` composition).
    ///
    /// # Errors
    ///
    /// Propagates configuration, training, prompting, meta-model and
    /// checkpoint failures; rejects a checkpoint directory whose manifest
    /// belongs to a different run.
    pub fn fit_with_reserved<'r>(
        config: &BpromConfig,
        ds: &Dataset,
        run: impl Into<Run<'r>>,
    ) -> Result<Self> {
        let mut run = run.into();
        config.validate()?;
        bprom_obs::span!("fit");
        if let Some(ck) = run.ckpt {
            // Fingerprint at the single funnel point both fit entries
            // pass through, so the guard sees the same (config, RNG
            // state) pair on the original run and on resume.
            ck.ensure_manifest(run_fingerprint(&format!("{config:?}"), run.rng))?;
        }
        let target = config.target_dataset.generate(
            config.target_samples_per_class,
            config.image_size,
            run.rng.next_u64(),
        )?;
        let (t_train, t_test) = target.split(0.7, run.rng)?;
        let map = LabelMap::identity(t_train.num_classes, ds.num_classes)?;
        let mut shadows = {
            bprom_obs::span!("shadow_training");
            ShadowSet::train(config, ds, run.reborrow())?
        };
        let prompts = {
            bprom_obs::span!("prompt_shadows");
            prompt_shadows(config, &mut shadows, &t_train, &map, run.reborrow())?
        };
        let probes = ProbeSet::sample(&t_test, config.probe_count, run.rng)?;
        let meta = {
            bprom_obs::span!("train_meta");
            train_meta(config, &mut shadows, &prompts, &probes, run)?
        };
        Ok(Bprom {
            config: config.clone(),
            meta,
            probes,
            t_train,
            map,
        })
    }

    /// Inspects a suspicious model through its black-box query interface:
    /// learns a prompt with CMA-ES, extracts the probe feature, and asks
    /// the meta-classifier for a verdict.
    ///
    /// The returned [`Verdict`] carries the exact oracle query budget and
    /// per-phase wall-clock of this inspection (see [`InspectBudget`]).
    ///
    /// Checkpointed, the CMA-ES prompt search snapshots its state per
    /// generation (snapshot `cmaes-inspect-<unit>`), and the finished
    /// verdict is a unit `inspect-<unit>` recorded with the RNG state at
    /// completion, so a killed inspection resumes mid-search and a
    /// completed one is skipped outright on replay. [`Run::unit`] names
    /// this inspection within the run (e.g. the zoo index). Query
    /// accounting folds the pre-crash generations' queries and
    /// fault/retry statistics into the budget, so a resumed verdict is
    /// byte-identical to an uninterrupted one.
    ///
    /// # Errors
    ///
    /// Propagates prompting/query/meta and checkpoint failures.
    pub fn inspect<'r>(
        &self,
        oracle: &dyn BlackBoxModel,
        run: impl Into<Run<'r>>,
    ) -> Result<Verdict> {
        bprom_obs::span!("inspect");
        let mut run = run.into();
        let unit = format!("inspect-{}", run.unit);
        run.checkpointed(
            &unit,
            |run| self.inspect_fresh(oracle, run),
            |verdict, rng, enc| {
                encode_verdict(enc, verdict);
                encode_rng(enc, rng);
            },
            |dec, rng| {
                let verdict = decode_verdict(dec)?;
                *rng = decode_rng(dec)?;
                Ok(verdict)
            },
        )
    }

    /// The body of [`Bprom::inspect`] once the verdict is known not to be
    /// journalled already.
    fn inspect_fresh(&self, oracle: &dyn BlackBoxModel, run: Run<'_>) -> Result<Verdict> {
        let start = Instant::now();
        let stats_before = oracle.oracle_stats();
        let counting = CountingOracle::new(oracle);
        // Enforce the detector's declared regime on everything this
        // inspection sees. The wrap is idempotent, so it is correct both
        // against a plain oracle (tests, benches) and against a remote
        // endpoint that already serves the degraded shape.
        let sealed = bprom_regimes::RegimeOracle::new(&counting, self.config.regime);
        let (prompt, report) = {
            bprom_obs::span!("prompt_suspicious");
            prompt_suspicious(&self.config, &sealed, &self.t_train, &self.map, run)?
        };
        let prompt_queries = report.queries;
        let prompt_ns = start.elapsed().as_nanos() as u64;
        // Measure the learned prompt on the target training split. The
        // pass re-submits prompted images the CMA-ES search already
        // queried (the winning candidate's generation minibatch), so with
        // the query cache enabled part of it costs no provider spend. It
        // consumes no RNG — scores are unchanged by its presence.
        let queries_before_accuracy = counting.local_queries();
        let prompted_accuracy = {
            bprom_obs::span!("prompted_accuracy");
            bprom_vp::prompted_accuracy_blackbox(
                &sealed,
                &prompt,
                &self.t_train.images,
                &self.t_train.labels,
                &self.map,
            )?
        };
        let accuracy_queries = counting.local_queries() - queries_before_accuracy;
        let feature = {
            bprom_obs::span!("probe_features");
            probe_features_blackbox_regime(&sealed, &prompt, &self.probes, self.config.regime)?
        };
        let score = {
            bprom_obs::span!("meta_predict");
            self.meta.predict_proba(&feature)?
        };
        let total_ns = start.elapsed().as_nanos() as u64;
        // The counting decorator only saw this process's traffic; add the
        // queries pre-crash generations spent so the budget matches an
        // uninterrupted run exactly.
        let queries = report.carried_queries + counting.local_queries();
        // Whatever the oracle stack absorbed on our behalf (fault
        // injection, retries, degraded responses) is part of this
        // inspection's cost; surface the delta in the budget, plus the
        // carried pre-crash statistics.
        let faults = oracle
            .oracle_stats()
            .delta_since(&stats_before)
            .merged(&report.carried_stats);
        bprom_obs::counter_add("inspect.models", 1);
        bprom_obs::log_event(
            "inspect.verdict",
            [
                ("score", f64::from(score).into()),
                ("backdoored", (score > 0.5).into()),
                ("prompted_accuracy", f64::from(prompted_accuracy).into()),
                ("queries", queries.into()),
            ],
        );
        Ok(Verdict {
            score,
            backdoored: score > 0.5,
            prompted_accuracy,
            queries,
            budget: InspectBudget {
                prompt_queries,
                accuracy_queries,
                probe_queries: queries - prompt_queries - accuracy_queries,
                prompt_ns,
                // Everything after the prompt phase (accuracy measurement,
                // probe queries, meta prediction).
                probe_ns: total_ns - prompt_ns,
                total_ns,
                faults_injected: faults.faults_injected,
                retries: faults.retries,
                retry_exhausted: faults.retry_exhausted,
                degraded_responses: faults.degraded_responses,
                backoff_virtual_ms: faults.backoff_virtual_ms,
                penalized_candidates: report.penalized_candidates,
                cache_hits: faults.cache_hits,
                cache_misses: faults.cache_misses,
                cache_evictions: faults.cache_evictions,
                evasive_responses: faults.evasive_responses,
            },
        })
    }

    /// Stable fingerprint of a detector configuration (FNV-1a over the
    /// `Debug` form, which covers every field). [`Bprom::persist`]
    /// embeds it and [`Bprom::restore`] rejects a payload fitted under a
    /// different configuration, so a content-addressed registry can
    /// never splice a mismatched detector into a pipeline.
    pub fn config_fingerprint(config: &BpromConfig) -> u64 {
        bprom_ckpt::fnv1a64(format!("{config:?}").as_bytes())
    }

    /// Serializes the fitted detector — meta forest, probe set, target
    /// training split, and label map — bit-exactly, prefixed with the
    /// codec version and [`Bprom::config_fingerprint`]. This is the
    /// registry-build half of the pipeline split: a fit is paid once,
    /// persisted, and every later inspection restores the asset instead
    /// of re-training shadows.
    pub fn persist(&self, enc: &mut Encoder) {
        enc.put_u32(DETECTOR_CODEC_VERSION);
        enc.put_u64(Self::config_fingerprint(&self.config));
        self.meta.persist(enc);
        encode_tensor(enc, &self.probes.images);
        enc.put_usizes(&self.probes.labels);
        encode_dataset(enc, &self.t_train);
        self.map.persist(enc);
    }

    /// Restores a detector written by [`Bprom::persist`]. The caller
    /// supplies the configuration the detector was fitted under; the
    /// embedded fingerprint must match.
    ///
    /// # Errors
    ///
    /// Returns [`BpromError::Ckpt`] on codec-version or fingerprint
    /// mismatch, and typed decode errors (truncation, corruption) from
    /// the payload itself — never panics on malformed bytes.
    pub fn restore(config: &BpromConfig, dec: &mut Decoder<'_>) -> Result<Self> {
        let version = dec.get_u32()?;
        if version != DETECTOR_CODEC_VERSION {
            return Err(BpromError::Ckpt(format!(
                "unsupported detector codec version {version} (expected {DETECTOR_CODEC_VERSION})"
            )));
        }
        let stored = dec.get_u64()?;
        let expected = Self::config_fingerprint(config);
        if stored != expected {
            return Err(BpromError::Ckpt(format!(
                "detector snapshot belongs to a different configuration \
                 (stored fingerprint {stored:#018x}, this config {expected:#018x})"
            )));
        }
        let meta = RandomForest::restore(dec)?;
        let images = decode_tensor(dec)?;
        let labels = dec.get_usizes()?;
        let t_train = decode_dataset(dec)?;
        let map = LabelMap::restore(dec)?;
        Ok(Bprom {
            config: config.clone(),
            meta,
            probes: ProbeSet { images, labels },
            t_train,
            map,
        })
    }

    /// The detector's configuration.
    pub fn config(&self) -> &BpromConfig {
        &self.config
    }

    /// The fixed probe set `D_Q`.
    pub fn probes(&self) -> &ProbeSet {
        &self.probes
    }

    /// The identity label mapping in use.
    pub fn label_map(&self) -> &LabelMap {
        &self.map
    }

    /// The target-domain training split used for prompting.
    pub fn target_train(&self) -> &Dataset {
        &self.t_train
    }

    /// The fitted meta-classifier.
    pub fn meta(&self) -> &RandomForest {
        &self.meta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bprom_data::SynthDataset;
    use bprom_nn::models::{build, ModelSpec};
    use bprom_nn::{TrainConfig, Trainer};
    use bprom_tensor::{Rng, Tensor};
    use bprom_vp::{PromptTrainConfig, QueryOracle};

    /// A hostile endpoint: answers through an honest model, then mangles
    /// the response.
    struct Mangled<'a> {
        honest: &'a QueryOracle,
        mangle: fn(Tensor) -> Tensor,
    }

    impl BlackBoxModel for Mangled<'_> {
        fn query(&self, batch: &Tensor) -> bprom_vp::Result<Tensor> {
            Ok((self.mangle)(self.honest.query(batch)?))
        }

        fn wrapped(&self) -> Option<&dyn BlackBoxModel> {
            Some(self.honest)
        }
    }

    /// End-to-end smoke test at reduced scale: the detector must produce a
    /// verdict for an arbitrary suspicious model and consume queries.
    #[test]
    fn fit_and_inspect_smoke() {
        let mut rng = Rng::new(0);
        let mut config = BpromConfig::fast(SynthDataset::Cifar10, SynthDataset::Stl10);
        config.clean_shadows = 2;
        config.backdoor_shadows = 2;
        config.test_samples_per_class = 20;
        config.target_samples_per_class = 10;
        config.train = TrainConfig {
            epochs: 3,
            ..TrainConfig::default()
        };
        config.prompt = PromptTrainConfig {
            epochs: 3,
            cmaes_generations: 5,
            cmaes_population: 6,
            ..PromptTrainConfig::default()
        };
        let detector = Bprom::fit(&config, &mut rng).unwrap();
        let spec = ModelSpec::new(3, 16, 10);
        let source = SynthDataset::Cifar10.generate(10, 16, 5).unwrap();
        let mut model = build(config.architecture, &spec, &mut rng).unwrap();
        Trainer::new(config.train)
            .fit(&mut model, &source.images, &source.labels, &mut rng)
            .unwrap();
        let oracle = QueryOracle::new(model, 10);
        let verdict = detector.inspect(&oracle, &mut rng).unwrap();
        assert!((0.0..=1.0).contains(&verdict.score));
        assert!(verdict.queries > 0);
        assert_eq!(verdict.backdoored, verdict.score > 0.5);
        // The budget decomposes the total exactly, and both phases ran.
        assert_eq!(verdict.budget.total_queries(), verdict.queries);
        assert!(verdict.budget.prompt_queries > 0);
        assert!(verdict.budget.accuracy_queries > 0);
        assert!(verdict.budget.probe_queries > 0);
        assert!((0.0..=1.0).contains(&verdict.prompted_accuracy));
        assert!(verdict.budget.prompt_ns > 0);
        assert!(verdict.budget.total_ns >= verdict.budget.prompt_ns);
        // Display mentions the decision and the query budget.
        let text = verdict.to_string();
        assert!(text.contains("queries"), "{text}");
        assert!(
            text.contains("BACKDOORED") || text.contains("clean"),
            "{text}"
        );

        // Persist/restore round trip: the restored detector must produce
        // a bit-identical verdict from the same seed.
        let mut enc = Encoder::new();
        detector.persist(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let restored = Bprom::restore(&config, &mut dec).unwrap();
        dec.finish().unwrap();
        let source = SynthDataset::Cifar10.generate(10, 16, 9).unwrap();
        let mut model = build(config.architecture, &spec, &mut rng).unwrap();
        Trainer::new(config.train)
            .fit(&mut model, &source.images, &source.labels, &mut rng)
            .unwrap();
        let oracle = QueryOracle::new(model, 10);
        let a = detector.inspect(&oracle, &mut Rng::new(123)).unwrap();
        let b = restored.inspect(&oracle, &mut Rng::new(123)).unwrap();
        // Signals carry everything except wall-clock, which legitimately
        // differs between the two runs.
        assert_eq!(
            a.signals(),
            b.signals(),
            "restored detector must inspect bit-identically"
        );

        // A hostile endpoint's short, wide or NaN-carrying responses are
        // refused at the seal with a typed error, never a panic.
        let short = |probs: Tensor| {
            let (n, k) = (probs.shape()[0], probs.shape()[1]);
            Tensor::from_vec(probs.data()[k..].to_vec(), &[n - 1, k]).unwrap()
        };
        let wide = |probs: Tensor| {
            let n = probs.shape()[0];
            let mut data = probs.data().to_vec();
            data.extend(std::iter::repeat_n(0.0, n));
            Tensor::from_vec(data, &[n, 11]).unwrap()
        };
        let nan = |mut probs: Tensor| {
            probs.data_mut()[3] = f32::NAN;
            probs
        };
        for mangle in [short as fn(Tensor) -> Tensor, wide, nan] {
            let hostile = Mangled {
                honest: &oracle,
                mangle,
            };
            let err = detector.inspect(&hostile, &mut Rng::new(5)).unwrap_err();
            assert!(
                matches!(&err, BpromError::Prompting(m) if m.starts_with("malformed oracle response")),
                "{err}"
            );
        }

        // A different configuration is rejected by the fingerprint guard,
        // and a truncated payload fails typed instead of panicking.
        let mut other = config.clone();
        other.probe_count += 1;
        let err = Bprom::restore(&other, &mut Decoder::new(&bytes)).unwrap_err();
        assert!(matches!(err, crate::BpromError::Ckpt(_)), "{err}");
        assert!(err.to_string().contains("different configuration"), "{err}");
        let truncated = &bytes[..bytes.len() / 2];
        let err = Bprom::restore(&config, &mut Decoder::new(truncated)).unwrap_err();
        assert!(matches!(err, crate::BpromError::Ckpt(_)), "{err}");
    }
}
