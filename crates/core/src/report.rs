//! Detector evaluation: run a detector against a suspicious-model zoo and
//! compute the paper's metrics (AUROC, F1) plus the exact query budget.

use crate::resume::Run;
use crate::{Bprom, Result, SuspiciousModel, Verdict};
use bprom_metrics::{auroc, f1_score};
use bprom_obs::{FromJson, ToJson, Value};
use bprom_qcache::CachingOracle;
use bprom_tensor::Rng;
use bprom_verdict::{sink, AuditRecord, IncidentReport, Mode, RulePolicy};
use bprom_vp::BlackBoxModel;

/// The workload scenario an audited system belongs to: where, in the
/// system's training pipeline, a backdoor could have entered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scenario {
    /// The classic setting: one model trained end-to-end on downstream
    /// data that may have been poisoned.
    #[default]
    Downstream,
    /// The BadBone setting: a frozen pretrained backbone (possibly
    /// poisoned upstream) adapted with a visual prompt + label map on
    /// *clean* downstream data. Accuracy collapse here implicates the
    /// backbone itself (rule `B013`), not the tuning data.
    Backbone,
}

impl Scenario {
    /// Stable wire form recorded in reports and incidents.
    pub fn as_wire(self) -> &'static str {
        match self {
            Scenario::Downstream => "downstream",
            Scenario::Backbone => "backbone",
        }
    }

    /// Parses the wire form.
    pub fn from_wire(s: &str) -> Option<Scenario> {
        match s {
            "downstream" => Some(Scenario::Downstream),
            "backbone" => Some(Scenario::Backbone),
            _ => None,
        }
    }
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_wire())
    }
}

/// One sealed entry of an oracle zoo: any [`BlackBoxModel`] with its
/// ground-truth label and a stable fingerprint taken before sealing.
/// The generalization of [`SuspiciousModel`] (see
/// [`SuspiciousModel::into_entry`]) that lets composite systems (e.g. the
/// backbone scenario's frozen backbone + visual prompt) flow through
/// [`evaluate_oracle_zoo`] unchanged.
#[derive(Debug)]
pub struct ZooEntry<B: BlackBoxModel> {
    /// Stable fingerprint over the system's parameters (audit identity).
    pub fingerprint: String,
    /// Ground-truth label: whether the system carries a backdoor.
    pub backdoored: bool,
    /// The sealed query-only oracle.
    pub oracle: B,
}

/// Aggregated detection results over a zoo.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionReport {
    /// Meta-classifier scores, in zoo order.
    pub scores: Vec<f32>,
    /// Ground-truth labels, in zoo order.
    pub labels: Vec<bool>,
    /// Prompted-model accuracy on the target training split, in zoo
    /// order (see `Verdict::prompted_accuracy`).
    pub prompted_accuracies: Vec<f32>,
    /// Area under the ROC curve.
    pub auroc: f32,
    /// F1 score at the 0.5 decision threshold.
    pub f1: f32,
    /// Mean black-box queries per inspected model.
    pub mean_queries: f32,
    /// Total black-box queries over the whole zoo.
    pub total_queries: u64,
    /// Mean wall-clock per inspection, in milliseconds.
    pub mean_inspect_ms: f32,
    /// Transient faults injected by hostile oracle stacks over the whole
    /// zoo (0 when inspecting plain oracles).
    pub total_faults: u64,
    /// Retry attempts absorbed over the whole zoo.
    pub total_retries: u64,
    /// CMA-ES candidates penalized (retry budget exhausted) over the
    /// whole zoo.
    pub total_penalized: u64,
    /// Query rows served from the content-addressed cache over the whole
    /// zoo (0 with `BPROM_QCACHE=off`; see `bprom-qcache`).
    pub total_cache_hits: u64,
    /// Deduplicated query rows the cache forwarded to the provider.
    pub total_cache_misses: u64,
    /// Cache entries evicted by a bounded-memory policy.
    pub total_cache_evictions: u64,
    /// One explainable audit record per inspected model, in zoo order:
    /// the model's weight fingerprint, its wall-clock-free signals, and
    /// the findings the detector's rule policy raised (see
    /// `bprom-verdict`). Input to [`DetectionReport::incident`].
    pub audits: Vec<AuditRecord>,
    /// Wire form of the workload scenario the zoo was audited under
    /// (`"downstream"` or `"backbone"`; see [`Scenario`]).
    pub scenario: String,
}

/// Inspects every model in the zoo with the plain [`Bprom::inspect`]
/// path and computes AUROC / F1.
///
/// Consumes the zoo because inspection requires exclusive query access to
/// each model.
///
/// # Errors
///
/// Propagates inspection failures; AUROC requires the zoo to contain both
/// clean and backdoored models.
pub fn evaluate_detector(
    detector: &Bprom,
    zoo: Vec<SuspiciousModel>,
    rng: &mut Rng,
) -> Result<DetectionReport> {
    let num_classes = detector.config().source_dataset.num_classes();
    let entries = zoo.into_iter().map(|m| m.into_entry(num_classes)).collect();
    evaluate_oracle_zoo(
        detector,
        Scenario::Downstream,
        entries,
        rng,
        |detector, oracle, run| detector.inspect(&oracle, run),
    )
}

/// The evaluation loop: any [`BlackBoxModel`] zoo, any workload
/// [`Scenario`], any inspection decoration. [`evaluate_detector`]
/// (downstream `SuspiciousModel` zoos) and the backbone scenario's
/// composite systems route through here, so metric aggregation,
/// audit-record assembly, and the B013 scenario wiring live in exactly
/// one place.
///
/// `inspect` receives each sealed oracle by value — already wrapped in
/// the detector's query cache (see `bprom-qcache`; `CacheConfig::off()`
/// makes the wrapper a passthrough) — and may stack decorators on it
/// (fault injection, retries, extra metering — see `bprom-faults`)
/// before calling [`Bprom::inspect`] with the [`Run`] it is handed. That
/// run carries the zoo index as its unit name, so a checkpointed
/// evaluation skips completed inspections on resume and continues a
/// killed one mid-CMA-ES-search. Fault/retry/cache totals from the
/// verdicts are aggregated into the report.
///
/// Under [`Scenario::Backbone`] every audit's signals carry the
/// clean-downstream-training attestation, so prompted-accuracy collapse
/// additionally raises `B013` ("backbone-implanted backdoor suspected").
///
/// # Errors
///
/// Propagates inspection failures; AUROC requires the zoo to contain
/// both clean and backdoored entries.
pub fn evaluate_oracle_zoo<'r, B, F>(
    detector: &Bprom,
    scenario: Scenario,
    zoo: Vec<ZooEntry<B>>,
    run: impl Into<Run<'r>>,
    mut inspect: F,
) -> Result<DetectionReport>
where
    B: BlackBoxModel,
    F: FnMut(&Bprom, CachingOracle<B>, Run<'_>) -> Result<Verdict>,
{
    bprom_obs::span!("evaluate_detector");
    let mut run = run.into();
    let mut scores = Vec::with_capacity(zoo.len());
    let mut labels = Vec::with_capacity(zoo.len());
    let mut prompted_accuracies = Vec::with_capacity(zoo.len());
    let mut total_queries = 0u64;
    let mut total_ns = 0u64;
    let mut total_faults = 0u64;
    let mut total_retries = 0u64;
    let mut total_penalized = 0u64;
    let mut total_cache_hits = 0u64;
    let mut total_cache_misses = 0u64;
    let mut total_cache_evictions = 0u64;
    let mut audits = Vec::with_capacity(zoo.len());
    let n = zoo.len();
    for (i, entry) in zoo.into_iter().enumerate() {
        let fingerprint = entry.fingerprint;
        // One cache per audited system: the cache key is the query
        // content only, so sharing entries across models would serve one
        // model's confidences for another.
        let oracle = CachingOracle::new(entry.oracle, detector.config().cache);
        let unit = i.to_string();
        let verdict = inspect(
            detector,
            oracle,
            Run {
                unit: &unit,
                ..run.reborrow()
            },
        )?;
        scores.push(verdict.score);
        labels.push(entry.backdoored);
        prompted_accuracies.push(verdict.prompted_accuracy);
        total_queries += verdict.queries;
        total_ns += verdict.budget.total_ns;
        total_faults += verdict.budget.faults_injected;
        total_retries += verdict.budget.retries;
        total_penalized += verdict.budget.penalized_candidates;
        total_cache_hits += verdict.budget.cache_hits;
        total_cache_misses += verdict.budget.cache_misses;
        total_cache_evictions += verdict.budget.cache_evictions;
        // Rules stage: every inspection becomes an explainable audit
        // record, carried by the report and handed to any installed
        // incident sink (e.g. the bench harness's TelemetryGuard). The
        // scenario sets the clean-downstream attestation *before* rule
        // evaluation so B013 can co-fire with accuracy collapse.
        let mut signals = verdict.signals();
        signals.clean_downstream_training = scenario == Scenario::Backbone;
        let record = AuditRecord {
            model: fingerprint,
            regime: detector.config().regime.as_wire(),
            scenario: scenario.as_wire().to_string(),
            findings: detector.config().policy.evaluate(&signals),
            signals,
        };
        bprom_obs::log_event(
            "audit.findings",
            [
                ("model", record.model.as_str().into()),
                ("zoo_index", (i as u64).into()),
                ("findings", record.findings.len().into()),
                (
                    "summary",
                    bprom_verdict::summarize_findings(&record.findings).into(),
                ),
            ],
        );
        sink::record(record.clone());
        audits.push(record);
    }
    let auroc = auroc(&scores, &labels)?;
    let predictions: Vec<bool> = scores.iter().map(|&s| s > 0.5).collect();
    let f1 = f1_score(&predictions, &labels)?;
    bprom_obs::log_event(
        "report.metrics",
        [
            ("models", n.into()),
            ("auroc", f64::from(auroc).into()),
            ("f1", f64::from(f1).into()),
            ("total_queries", total_queries.into()),
        ],
    );
    Ok(DetectionReport {
        scores,
        labels,
        prompted_accuracies,
        auroc,
        f1,
        mean_queries: total_queries as f32 / n.max(1) as f32,
        total_queries,
        mean_inspect_ms: total_ns as f32 / 1e6 / n.max(1) as f32,
        total_faults,
        total_retries,
        total_penalized,
        total_cache_hits,
        total_cache_misses,
        total_cache_evictions,
        audits,
        scenario: scenario.as_wire().to_string(),
    })
}

impl DetectionReport {
    /// Runs the verdict pipeline's correlate + respond stages over this
    /// report's audit records and returns the machine-readable incident
    /// report (`incident.json` content).
    pub fn incident(&self, label: &str, policy: &RulePolicy, mode: Mode) -> IncidentReport {
        IncidentReport::assemble(label, policy, mode, &self.audits)
    }

    /// Per-audit cache hit rate, in zoo order: the fraction of each
    /// inspection's logical query rows the content-addressed cache
    /// served without provider spend (`hits / (hits + misses)` from the
    /// audit's signals; 0 for an uncached inspection). Derived from the
    /// per-audit records so the serialized report shape is unchanged.
    pub fn cache_hit_rates(&self) -> Vec<f32> {
        self.audits
            .iter()
            .map(|a| {
                let total = a.signals.cache_hits + a.signals.cache_misses;
                if total == 0 {
                    0.0
                } else {
                    a.signals.cache_hits as f32 / total as f32
                }
            })
            .collect()
    }

    /// Aggregate cache hit rate over the whole report
    /// (`total_cache_hits / (total_cache_hits + total_cache_misses)`).
    /// Single-model audits sit at a few percent at most here; fleet
    /// audits that reuse a model's cache across repeated inspections are
    /// where this figure becomes material (`tests/perf_gates.rs`).
    pub fn cache_hit_rate(&self) -> f32 {
        let total = self.total_cache_hits + self.total_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.total_cache_hits as f32 / total as f32
        }
    }

    /// Detection accuracy at an arbitrary decision threshold.
    pub fn accuracy_at(&self, threshold: f32) -> f32 {
        if self.scores.is_empty() {
            return 0.0;
        }
        let correct = self
            .scores
            .iter()
            .zip(&self.labels)
            .filter(|(&s, &l)| (s > threshold) == l)
            .count();
        correct as f32 / self.scores.len() as f32
    }

    /// The threshold in `[0, 1]` maximizing detection accuracy on this
    /// report (useful for calibrating a deployment threshold on shadow
    /// verdicts).
    pub fn best_threshold(&self) -> f32 {
        let mut candidates: Vec<f32> = self.scores.clone();
        candidates.push(0.5);
        candidates
            .into_iter()
            .max_by(|&a, &b| self.accuracy_at(a).total_cmp(&self.accuracy_at(b)))
            .unwrap_or(0.5)
    }

    /// Number of inspected models.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// Whether the report is empty.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// Serializes the report to JSON (for experiment artifacts).
    ///
    /// # Errors
    ///
    /// Infallible in practice; kept as `Result` for API stability.
    pub fn to_json(&self) -> Result<String> {
        Ok(ToJson::to_json(self).to_pretty())
    }

    /// Deserializes a report previously produced by
    /// [`DetectionReport::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::BpromError::Data`] on malformed JSON.
    pub fn from_json(json: &str) -> Result<Self> {
        let value = Value::parse(json)
            .map_err(|e| crate::BpromError::Data(format!("parse report: {e}")))?;
        FromJson::from_json(&value)
            .map_err(|e| crate::BpromError::Data(format!("decode report: {e}")))
    }
}

impl ToJson for DetectionReport {
    fn to_json(&self) -> Value {
        Value::object(vec![
            ("scores", self.scores.to_json()),
            ("labels", self.labels.to_json()),
            ("prompted_accuracies", self.prompted_accuracies.to_json()),
            ("auroc", self.auroc.to_json()),
            ("f1", self.f1.to_json()),
            ("mean_queries", self.mean_queries.to_json()),
            ("total_queries", self.total_queries.to_json()),
            ("mean_inspect_ms", self.mean_inspect_ms.to_json()),
            ("total_faults", self.total_faults.to_json()),
            ("total_retries", self.total_retries.to_json()),
            ("total_penalized", self.total_penalized.to_json()),
            ("total_cache_hits", self.total_cache_hits.to_json()),
            ("total_cache_misses", self.total_cache_misses.to_json()),
            (
                "total_cache_evictions",
                self.total_cache_evictions.to_json(),
            ),
            (
                "audits",
                Value::Array(self.audits.iter().map(ToJson::to_json).collect()),
            ),
            ("scenario", self.scenario.to_json()),
        ])
    }
}

impl FromJson for DetectionReport {
    fn from_json(value: &Value) -> bprom_obs::JsonResult<Self> {
        Ok(DetectionReport {
            scores: FromJson::from_json(value.require("scores")?)?,
            labels: FromJson::from_json(value.require("labels")?)?,
            prompted_accuracies: FromJson::from_json(value.require("prompted_accuracies")?)?,
            auroc: FromJson::from_json(value.require("auroc")?)?,
            f1: FromJson::from_json(value.require("f1")?)?,
            mean_queries: FromJson::from_json(value.require("mean_queries")?)?,
            total_queries: FromJson::from_json(value.require("total_queries")?)?,
            mean_inspect_ms: FromJson::from_json(value.require("mean_inspect_ms")?)?,
            total_faults: FromJson::from_json(value.require("total_faults")?)?,
            total_retries: FromJson::from_json(value.require("total_retries")?)?,
            total_penalized: FromJson::from_json(value.require("total_penalized")?)?,
            total_cache_hits: FromJson::from_json(value.require("total_cache_hits")?)?,
            total_cache_misses: FromJson::from_json(value.require("total_cache_misses")?)?,
            total_cache_evictions: FromJson::from_json(value.require("total_cache_evictions")?)?,
            audits: FromJson::from_json(value.require("audits")?)?,
            scenario: FromJson::from_json(value.require("scenario")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // End-to-end evaluation is covered by the workspace integration tests
    // (tests/bprom_detection.rs); here we only check report invariants via
    // the public constructor path used there.
    fn sample_report() -> DetectionReport {
        let policy = RulePolicy::default();
        let audits: Vec<AuditRecord> = [0.9f32, 0.1, 0.6, 0.4]
            .iter()
            .zip([0.5f32, 0.75, 0.25, 0.9])
            .enumerate()
            .map(|(i, (&score, prompted_accuracy))| {
                let signals = bprom_verdict::Signals {
                    score,
                    backdoored: score > 0.5,
                    prompted_accuracy,
                    queries: 100,
                    prompt_queries: 80,
                    accuracy_queries: 10,
                    probe_queries: 10,
                    ..Default::default()
                };
                AuditRecord {
                    model: format!("m{i:016x}"),
                    regime: "full".to_string(),
                    scenario: "downstream".to_string(),
                    findings: policy.evaluate(&signals),
                    signals,
                }
            })
            .collect();
        DetectionReport {
            scores: vec![0.9, 0.1, 0.6, 0.4],
            labels: vec![true, false, true, false],
            prompted_accuracies: vec![0.5, 0.75, 0.25, 0.9],
            auroc: 1.0,
            f1: 1.0,
            mean_queries: 100.0,
            total_queries: 400,
            mean_inspect_ms: 12.5,
            total_faults: 7,
            total_retries: 5,
            total_penalized: 2,
            total_cache_hits: 120,
            total_cache_misses: 280,
            total_cache_evictions: 3,
            audits,
            scenario: "downstream".to_string(),
        }
    }

    #[test]
    fn report_fields_consistent() {
        let report = sample_report();
        assert_eq!(report.scores.len(), report.labels.len());
        assert_eq!(report.len(), 4);
        assert!(!report.is_empty());
    }

    #[test]
    fn accuracy_at_threshold() {
        let report = sample_report();
        assert_eq!(report.accuracy_at(0.5), 1.0);
        // Threshold above every score: all predicted clean, half right.
        assert_eq!(report.accuracy_at(0.95), 0.5);
    }

    #[test]
    fn best_threshold_achieves_max_accuracy() {
        let report = sample_report();
        let t = report.best_threshold();
        assert_eq!(report.accuracy_at(t), 1.0);
    }

    #[test]
    fn cache_hit_rates_derive_from_audit_signals() {
        let mut report = sample_report();
        report.audits[0].signals.cache_hits = 30;
        report.audits[0].signals.cache_misses = 70;
        report.audits[1].signals.cache_hits = 0;
        report.audits[1].signals.cache_misses = 100;
        // Audits 2 and 3 ran uncached: no tallies, rate 0.
        let rates = report.cache_hit_rates();
        assert_eq!(rates, vec![0.3, 0.0, 0.0, 0.0]);
        assert!((report.cache_hit_rate() - 0.3).abs() < 1e-6); // 120 / 400
        report.total_cache_hits = 0;
        report.total_cache_misses = 0;
        assert_eq!(report.cache_hit_rate(), 0.0);
    }

    #[test]
    fn json_round_trip() {
        let report = sample_report();
        let json = report.to_json().unwrap();
        let back = DetectionReport::from_json(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(DetectionReport::from_json("{").is_err());
        assert!(DetectionReport::from_json("{\"scores\": []}").is_err());
    }

    #[test]
    fn incident_assembles_from_audit_records() {
        let report = sample_report();
        let incident = report.incident("unit", &RulePolicy::default(), Mode::Strict);
        assert_eq!(incident.audits, 4);
        assert_eq!(incident.incidents.len(), 4);
        // Scores 0.9 and 0.6 exceed the suspicion threshold; 0.9 sits on
        // the Critical cut and quarantines, 0.6 flags.
        assert_eq!(incident.flagged, 1);
        assert_eq!(incident.quarantined, 1);
        // The same evidence in learning mode enforces nothing.
        let learning = report.incident("unit", &RulePolicy::default(), Mode::Learning);
        assert_eq!(learning.flagged, 0);
        assert_eq!(learning.quarantined, 0);
        assert_eq!(
            learning.incidents[0].findings,
            incident.incidents[0].findings
        );
    }
}
