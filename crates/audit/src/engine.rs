//! The fleet audit engine: a queue of suspicious models, audited
//! concurrently against registry-shared detectors, rolled up into one
//! incident report.

use crate::registry::{DetectorSpec, RegistryStats, ShadowZooRegistry};
use bprom::{model_fingerprint, Bprom, Result, SuspiciousModel, Verdict};
use bprom_nn::Sequential;
use bprom_qcache::{CacheConfig, CachingOracle};
use bprom_tensor::Rng;
use bprom_verdict::{render_fleet, sink, AuditRecord, IncidentReport, Mode, RulePolicy};
use bprom_vp::QueryOracle;
use std::collections::HashMap;
use std::sync::Arc;

/// One enqueued audit: a suspicious model, the detector spec to audit it
/// with, and the seed of the inspection RNG.
///
/// The `inspect_seed` is per-request so a fleet audit is reproducible
/// request-by-request: the same (model, spec, seed) triple yields the
/// same verdict whether it runs alone or in the middle of a fleet.
pub struct AuditRequest {
    /// Operator-facing name of this request (shown in logs; the incident
    /// report keys on the model fingerprint, not on this label).
    pub label: String,
    /// The suspicious model, sealed behind the query boundary at audit
    /// time.
    pub model: Sequential,
    /// Class count of the model's output.
    pub num_classes: usize,
    /// Ground truth, when the caller knows it (experiment zoos do;
    /// production audits pass `None`).
    pub truth: Option<bool>,
    /// Which detector to audit with (registry coordinate).
    pub spec: DetectorSpec,
    /// Seed of the fresh RNG this inspection consumes.
    pub inspect_seed: u64,
}

impl std::fmt::Debug for AuditRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuditRequest")
            .field("label", &self.label)
            .field("num_classes", &self.num_classes)
            .field("truth", &self.truth)
            .field("inspect_seed", &self.inspect_seed)
            .finish()
    }
}

impl AuditRequest {
    /// A request with unknown ground truth.
    pub fn new(
        label: impl Into<String>,
        model: Sequential,
        num_classes: usize,
        spec: DetectorSpec,
        inspect_seed: u64,
    ) -> Self {
        AuditRequest {
            label: label.into(),
            model,
            num_classes,
            truth: None,
            spec,
            inspect_seed,
        }
    }

    /// A request built from an experiment zoo entry, carrying its ground
    /// truth for downstream metric computation.
    pub fn from_suspicious(
        label: impl Into<String>,
        suspicious: SuspiciousModel,
        num_classes: usize,
        spec: DetectorSpec,
        inspect_seed: u64,
    ) -> Self {
        AuditRequest {
            label: label.into(),
            model: suspicious.model,
            num_classes,
            truth: Some(suspicious.backdoored),
            spec,
            inspect_seed,
        }
    }
}

/// The result of one audit, in queue order inside [`FleetReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct AuditOutcome {
    /// The request's label.
    pub label: String,
    /// Weight fingerprint of the audited model.
    pub model: String,
    /// Content digest of the detector spec this audit used.
    pub detector: u64,
    /// Ground truth carried from the request, if known.
    pub truth: Option<bool>,
    /// The full verdict (including wall-clock budget).
    pub verdict: Verdict,
    /// The explainable audit record (fingerprint, wall-clock-free
    /// signals, findings) the incident report is assembled from.
    pub record: AuditRecord,
}

impl AuditOutcome {
    /// Fraction of this audit's logical query rows the content-addressed
    /// cache served without provider spend (0 for uncached audits).
    pub fn cache_hit_rate(&self) -> f32 {
        let total = self.record.signals.cache_hits + self.record.signals.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.record.signals.cache_hits as f32 / total as f32
        }
    }
}

/// Everything one [`AuditEngine::run_with`] concluded: per-audit
/// outcomes in queue order, the correlated incident report, and the
/// registry's amortization tallies.
#[derive(Debug)]
pub struct FleetReport {
    /// The engine's run label.
    pub label: String,
    /// Per-request outcomes, in queue order.
    pub outcomes: Vec<AuditOutcome>,
    /// The machine-readable incident report (fingerprint-correlated,
    /// `incident.json`-serializable).
    pub incident: IncidentReport,
    /// How the shadow-zoo registry served this fleet.
    pub registry: RegistryStats,
}

impl FleetReport {
    /// Number of audits in this report.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether the fleet was empty.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Aggregate cache hit rate over every audit in the fleet.
    pub fn cache_hit_rate(&self) -> f64 {
        let hits: u64 = self
            .outcomes
            .iter()
            .map(|o| o.record.signals.cache_hits)
            .sum();
        let misses: u64 = self
            .outcomes
            .iter()
            .map(|o| o.record.signals.cache_misses)
            .sum();
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }

    /// Human-readable fleet summary (one header line plus one line per
    /// model incident).
    pub fn render(&self) -> String {
        render_fleet(&self.incident)
    }
}

struct Job {
    queue_index: usize,
    request: AuditRequest,
    fingerprint: String,
}

/// A long-running audit engine over a [`ShadowZooRegistry`].
///
/// [`run_with`] processes a queue of [`AuditRequest`]s in three phases:
///
/// 1. **registry** — every distinct detector spec is resolved once, in
///    first-appearance order, *before* any audit runs. Shadow training
///    is paid here (or not at all, when the registry already holds the
///    entry) and shared by every audit that names the spec.
/// 2. **inspect** — requests are grouped by model weight fingerprint and
///    the groups run concurrently on the `bprom-par` pool. Audits of the
///    *same* model run sequentially inside their group, so enabling
///    [`share_model_caches`] keeps cache tallies schedule-independent.
///    Each audit consumes a fresh `Rng::new(inspect_seed)`, making every
///    verdict independent of fleet composition and thread count.
/// 3. **roll-up** — outcomes are restored to queue order, handed to the
///    thread-local verdict sink, and correlated into one
///    [`IncidentReport`] (repeat audits of a fingerprint escalate).
///
/// **Equivalence contract.** With cache sharing off (the default), a
/// fleet audit of N requests is *byte-identical* — signals, findings,
/// incident JSON — to N independent single-model runs of the same
/// (model, spec, seed) triples, at any `BPROM_THREADS` value.
///
/// [`run_with`]: AuditEngine::run_with
/// [`share_model_caches`]: AuditEngine::share_model_caches
#[derive(Debug)]
pub struct AuditEngine {
    registry: ShadowZooRegistry,
    label: String,
    policy: RulePolicy,
    mode: Mode,
    share_model_caches: bool,
}

impl AuditEngine {
    /// An engine over `registry`, labelled `label` in incident reports.
    /// Defaults: default rule policy, strict mode, no cache sharing.
    pub fn new(label: impl Into<String>, registry: ShadowZooRegistry) -> Self {
        AuditEngine {
            registry,
            label: label.into(),
            policy: RulePolicy::default(),
            mode: Mode::Strict,
            share_model_caches: false,
        }
    }

    /// Replaces the rule policy findings are evaluated under.
    pub fn with_policy(mut self, policy: RulePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the response mode of the incident report.
    pub fn with_mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// When enabled, sequential audits of the same model fingerprint
    /// reuse one caching oracle (rebuilt only if the class count or
    /// cache policy changes between requests), so a re-audit replays its
    /// query stream against a warm cache instead of paying the provider
    /// again. Verdict scores are unchanged — only the cache tallies in
    /// the signals differ from independent runs.
    pub fn share_model_caches(mut self, share: bool) -> Self {
        self.share_model_caches = share;
        self
    }

    /// The registry backing this engine.
    pub fn registry(&self) -> &ShadowZooRegistry {
        &self.registry
    }

    /// Audits the queue, delegating each inspection to `inspect`. The
    /// closure receives the shared detector, the sealed caching oracle,
    /// and the request's freshly seeded RNG. The plain path is
    /// `|detector, oracle, rng| detector.inspect(oracle, rng)`;
    /// hostile-condition tests stack fault-injection and retry
    /// decorators on the oracle before inspecting (see `bprom-faults`).
    ///
    /// # Errors
    ///
    /// Propagates fit, restore, and inspection failures.
    pub fn run_with<F>(&self, queue: Vec<AuditRequest>, inspect: F) -> Result<FleetReport>
    where
        F: Fn(&Bprom, &CachingOracle<QueryOracle>, &mut Rng) -> Result<Verdict> + Sync,
    {
        bprom_obs::span!("fleet_audit");
        // Phase 1: resolve every distinct detector spec once, in
        // first-appearance order, before any audit runs.
        let mut detectors: HashMap<u64, Arc<Bprom>> = HashMap::new();
        {
            bprom_obs::span!("registry_phase");
            // One lookup per request (not per distinct spec): repeats
            // are O(1) memory hits, and the registry's stats then tally
            // exactly how much fitting the fleet amortized.
            for request in &queue {
                let detector = self.registry.detector(&request.spec)?;
                detectors.insert(request.spec.digest(), detector);
            }
        }
        // Phase 2: group by model fingerprint (queue order preserved
        // within and across groups) and audit the groups concurrently.
        let mut order: Vec<String> = Vec::new();
        let mut by_model: HashMap<String, Vec<Job>> = HashMap::new();
        for (queue_index, request) in queue.into_iter().enumerate() {
            let fingerprint = model_fingerprint(&request.model);
            if !by_model.contains_key(&fingerprint) {
                order.push(fingerprint.clone());
            }
            by_model.entry(fingerprint.clone()).or_default().push(Job {
                queue_index,
                request,
                fingerprint,
            });
        }
        let groups: Vec<Vec<Job>> = order
            .iter()
            .map(|fp| by_model.remove(fp).expect("every fingerprint grouped"))
            .collect();
        bprom_obs::counter_add("fleet.models", groups.len() as u64);
        let results: Vec<Result<Vec<(usize, AuditOutcome)>>> = {
            bprom_obs::span!("inspect_phase");
            bprom_par::par_map(groups, |group| self.run_group(group, &detectors, &inspect))
        };
        let mut indexed: Vec<(usize, AuditOutcome)> = Vec::new();
        for group in results {
            indexed.extend(group?);
        }
        indexed.sort_by_key(|&(queue_index, _)| queue_index);
        let outcomes: Vec<AuditOutcome> = indexed.into_iter().map(|(_, o)| o).collect();
        // Phase 3: roll-up, on the calling thread in queue order, so the
        // thread-local sink and the incident report see the same stream
        // a sequential run would produce.
        let records: Vec<AuditRecord> = outcomes.iter().map(|o| o.record.clone()).collect();
        for record in &records {
            sink::record(record.clone());
        }
        let incident = IncidentReport::assemble(&self.label, &self.policy, self.mode, &records);
        bprom_obs::log_event(
            "fleet.report",
            [
                ("label", self.label.as_str().into()),
                ("audits", (records.len() as u64).into()),
                ("models", incident.incidents.len().into()),
                ("flagged", incident.flagged.into()),
                ("quarantined", incident.quarantined.into()),
            ],
        );
        Ok(FleetReport {
            label: self.label.clone(),
            outcomes,
            incident,
            registry: self.registry.stats(),
        })
    }

    /// Audits one model group sequentially. Called from pool workers.
    fn run_group<F>(
        &self,
        group: Vec<Job>,
        detectors: &HashMap<u64, Arc<Bprom>>,
        inspect: &F,
    ) -> Result<Vec<(usize, AuditOutcome)>>
    where
        F: Fn(&Bprom, &CachingOracle<QueryOracle>, &mut Rng) -> Result<Verdict> + Sync,
    {
        let mut out = Vec::with_capacity(group.len());
        // The warm oracle carried across audits of this model when cache
        // sharing is on, tagged with the (class count, cache policy) it
        // was sealed under.
        let mut sealed: Option<(usize, CacheConfig, CachingOracle<QueryOracle>)> = None;
        for job in group {
            let Job {
                queue_index,
                request,
                fingerprint,
            } = job;
            let AuditRequest {
                label,
                model,
                num_classes,
                truth,
                spec,
                inspect_seed,
            } = request;
            let digest = spec.digest();
            let detector = detectors
                .get(&digest)
                .expect("registry phase resolved every spec");
            let cache = detector.config().cache;
            let reuse = self.share_model_caches
                && sealed.as_ref().is_some_and(|&(classes, sealed_cache, _)| {
                    classes == num_classes && sealed_cache == cache
                });
            if !reuse {
                sealed = Some((
                    num_classes,
                    cache,
                    CachingOracle::new(QueryOracle::new(model, num_classes), cache),
                ));
            }
            let (_, _, oracle) = sealed.as_ref().expect("oracle sealed above");
            let verdict = {
                bprom_obs::span!("audit");
                // Per-request seed: the verdict is a function of (model,
                // spec, seed) only, never of fleet position or schedule.
                inspect(detector, oracle, &mut Rng::new(inspect_seed))?
            };
            let record = AuditRecord {
                model: fingerprint.clone(),
                regime: detector.config().regime.as_wire(),
                // The fleet engine audits deployed downstream models; the
                // backbone scenario routes through evaluate_oracle_zoo.
                scenario: "downstream".to_string(),
                signals: verdict.signals(),
                findings: verdict.findings(&self.policy),
            };
            bprom_obs::counter_add("fleet.audits", 1);
            bprom_obs::log_event(
                "fleet.audit",
                [
                    ("label", label.as_str().into()),
                    ("model", fingerprint.as_str().into()),
                    ("score", f64::from(verdict.score).into()),
                    ("findings", record.findings.len().into()),
                ],
            );
            out.push((
                queue_index,
                AuditOutcome {
                    label,
                    model: fingerprint,
                    detector: digest,
                    truth,
                    verdict,
                    record,
                },
            ));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bprom::BpromConfig;
    use bprom_data::SynthDataset;
    use bprom_nn::models::{build, ModelSpec};
    use bprom_nn::{TrainConfig, Trainer};
    use bprom_vp::PromptTrainConfig;

    fn tiny_config() -> BpromConfig {
        let mut config = BpromConfig::fast(SynthDataset::Cifar10, SynthDataset::Stl10);
        config.clean_shadows = 2;
        config.backdoor_shadows = 2;
        config.test_samples_per_class = 20;
        config.target_samples_per_class = 10;
        config.train = TrainConfig {
            epochs: 2,
            ..TrainConfig::default()
        };
        config.prompt = PromptTrainConfig {
            epochs: 2,
            cmaes_generations: 3,
            cmaes_population: 4,
            ..PromptTrainConfig::default()
        };
        config
    }

    /// Deterministic training: the same seed yields the same weights, so
    /// two calls stand in for two uploads of the same model artifact.
    fn trained_model(config: &BpromConfig, seed: u64) -> Sequential {
        let mut rng = Rng::new(seed);
        let spec = ModelSpec::new(3, config.image_size, 10);
        let source = SynthDataset::Cifar10
            .generate(10, config.image_size, seed)
            .unwrap();
        let mut model = build(config.architecture, &spec, &mut rng).unwrap();
        Trainer::new(config.train)
            .fit(&mut model, &source.images, &source.labels, &mut rng)
            .unwrap();
        model
    }

    #[test]
    fn fleet_run_shares_fits_and_correlates_repeat_audits() {
        let config = tiny_config();
        let spec = DetectorSpec::new(config.clone(), 7);
        let engine =
            AuditEngine::new("unit-fleet", ShadowZooRegistry::in_memory()).share_model_caches(true);
        // Three audits over two distinct models; model A is uploaded
        // (and audited) twice with the same inspection seed.
        let queue = vec![
            AuditRequest::new("a-first", trained_model(&config, 5), 10, spec.clone(), 11),
            AuditRequest::new("b-only", trained_model(&config, 6), 10, spec.clone(), 12),
            AuditRequest::new("a-again", trained_model(&config, 5), 10, spec.clone(), 11),
        ];
        let fleet = engine
            .run_with(queue, |d, o, rng| d.inspect(o, rng))
            .unwrap();

        // Outcomes stay in queue order; one fit served all three audits.
        let labels: Vec<&str> = fleet.outcomes.iter().map(|o| o.label.as_str()).collect();
        assert_eq!(labels, ["a-first", "b-only", "a-again"]);
        assert_eq!(fleet.registry.builds, 1);
        assert_eq!(fleet.registry.mem_hits, 2);
        assert_eq!(fleet.outcomes[0].model, fleet.outcomes[2].model);
        assert_ne!(fleet.outcomes[0].model, fleet.outcomes[1].model);

        // The incident report correlates the repeat audits of model A.
        assert_eq!(fleet.incident.audits, 3);
        assert_eq!(fleet.incident.incidents.len(), 2);
        assert_eq!(fleet.incident.incidents[0].model, fleet.outcomes[0].model);
        assert_eq!(fleet.incident.incidents[0].audits, 2);
        assert_eq!(fleet.incident.incidents[1].audits, 1);

        // Cache sharing: the re-audit replays an identical query stream
        // against the warm cache, so nothing reaches the provider — and
        // the verdict itself is unchanged.
        let first = &fleet.outcomes[0].record.signals;
        let again = &fleet.outcomes[2].record.signals;
        assert_eq!(again.cache_misses, 0, "warm cache serves everything");
        assert!(again.cache_hits > 0);
        assert_eq!(first.score, again.score);
        assert_eq!(first.queries, again.queries, "logical budget unchanged");
        let mut first_no_cache = *first;
        let mut again_no_cache = *again;
        for signals in [&mut first_no_cache, &mut again_no_cache] {
            signals.cache_hits = 0;
            signals.cache_misses = 0;
            signals.cache_evictions = 0;
        }
        assert_eq!(
            first_no_cache, again_no_cache,
            "only cache tallies may differ under sharing"
        );

        // Rendering mentions the run label and both models.
        let text = fleet.render();
        assert!(text.contains("unit-fleet"), "{text}");
        assert!(text.contains(&fleet.outcomes[0].model), "{text}");
        assert!(text.contains(&fleet.outcomes[1].model), "{text}");
    }
}
