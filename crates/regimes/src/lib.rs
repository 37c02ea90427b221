//! Degraded-oracle deployment regimes for the BPROM black-box boundary.
//!
//! Real MLaaS endpoints rarely return the full soft-score vector the
//! paper assumes: they quantize probabilities, truncate to top-k, or
//! return hard labels only. `bprom-faults` simulates those shapes as
//! *transient hostility* (a fault plan the retry stack fights); this
//! crate promotes them to **declared capabilities of the audit** — an
//! [`OracleRegime`] the detector is *configured* for, so that shadow
//! prompting, CMA-ES fitness and meta-feature extraction all train and
//! inspect on matched response distributions.
//!
//! Regime vs fault, in one line: a fault is *transient hostility* the
//! client retries around; a regime is the *contract* of the endpoint —
//! permanent, declared up front, and compensated for in the detector's
//! statistics rather than retried (see DESIGN.md §5j).
//!
//! * **[`OracleRegime`]** — `FullScores | Quantized(d) | TopK(k) |
//!   LabelOnly`, parsed from `BPROM_ORACLE_REGIME` ([`REGIME_ENV`]) in
//!   the same lenient style as `BPROM_QCACHE`.
//! * **[`RegimeOracle`]** — a stateless [`BlackBoxModel`] decorator that
//!   applies the regime's degradation to every response. It is a pure
//!   per-response function of the content (no seeds, no counters), so it
//!   preserves every cache/threads byte-identity invariant, and it is
//!   *idempotent*: wrapping an oracle that already enforces the regime
//!   natively changes nothing.
//! * **Feature helpers** — [`OracleRegime::prepare_confidences`]
//!   (degrade + top-k mass renormalization before canonical soft-score
//!   features) and [`vote_features`] (compact vote-count statistics for
//!   the label-only regime, where soft statistics are degenerate).
//!
//! The regime's degradation *reuses* the `bprom-faults` plan math
//! (`Quantize` / `TopK` / `LabelOnly`), so the wire shapes a hostile
//! plan produces and a declared regime produces are bit-identical.

use bprom_faults::{FaultPlan, LabelOnly, Quantize, TopK};
use bprom_tensor::{Rng, Tensor};
use bprom_vp::{BlackBoxModel, FitnessKind, QueryOutcome, Result};

/// Environment variable selecting the oracle regime
/// (`full` | `quantized:<decimals>` | `top_k:<k>` | `label_only`).
pub const REGIME_ENV: &str = "BPROM_ORACLE_REGIME";

/// The declared response capability of the audited endpoint.
///
/// `FullScores` is the paper's threat model; the other variants describe
/// what a constrained endpoint's wire format keeps. The regime is part
/// of `BpromConfig`, so it flows into detector fingerprints and the
/// fleet registry's content addressing: detectors trained for different
/// regimes never alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OracleRegime {
    /// The endpoint returns the full softmax confidence vector.
    #[default]
    FullScores,
    /// Probabilities rounded to this many decimal places (0 collapses
    /// every entry to 0/1 — see `bprom_faults::Quantize`).
    Quantized(u32),
    /// Only each row's `k` largest probabilities survive; the rest read
    /// as exact zeros (ties break toward the lower class index).
    TopK(usize),
    /// Responses collapse to a one-hot vector at the argmax class.
    LabelOnly,
}

impl OracleRegime {
    /// Parses the documented wire forms, case-insensitively:
    /// `full` / `full_scores`, `quantized:<decimals>`, `top_k:<k>`,
    /// `label_only`. Returns `None` for anything else.
    pub fn parse(raw: &str) -> Option<OracleRegime> {
        let raw = raw.trim();
        if raw.eq_ignore_ascii_case("full") || raw.eq_ignore_ascii_case("full_scores") {
            return Some(OracleRegime::FullScores);
        }
        if raw.eq_ignore_ascii_case("label_only") {
            return Some(OracleRegime::LabelOnly);
        }
        let lower = raw.to_ascii_lowercase();
        if let Some(d) = lower.strip_prefix("quantized:") {
            return d.trim().parse().ok().map(OracleRegime::Quantized);
        }
        if let Some(k) = lower.strip_prefix("top_k:") {
            return k
                .trim()
                .parse()
                .ok()
                .filter(|&k| k > 0)
                .map(OracleRegime::TopK);
        }
        None
    }

    /// Reads [`REGIME_ENV`]; `None` when unset or malformed (lenient —
    /// a typo'd regime must not silently change what an audit measures,
    /// so callers fall back to an explicit default).
    pub fn from_env() -> Option<OracleRegime> {
        std::env::var(REGIME_ENV).ok().and_then(|v| Self::parse(&v))
    }

    /// [`OracleRegime::from_env`] with a fallback.
    pub fn from_env_or(default: OracleRegime) -> OracleRegime {
        Self::from_env().unwrap_or(default)
    }

    /// The canonical wire form ([`OracleRegime::parse`] round-trips it);
    /// recorded in audit records and incident reports.
    pub fn as_wire(&self) -> String {
        match self {
            OracleRegime::FullScores => "full".to_string(),
            OracleRegime::Quantized(d) => format!("quantized:{d}"),
            OracleRegime::TopK(k) => format!("top_k:{k}"),
            OracleRegime::LabelOnly => "label_only".to_string(),
        }
    }

    /// Whether responses keep usable soft scores (drives which feature
    /// path `bprom::meta_model` takes).
    pub fn has_soft_scores(&self) -> bool {
        !matches!(self, OracleRegime::LabelOnly)
    }

    /// The CMA-ES candidate objective matched to this regime (see
    /// `bprom_vp::FitnessKind`).
    pub fn fitness(&self) -> FitnessKind {
        match self {
            OracleRegime::FullScores | OracleRegime::Quantized(_) => FitnessKind::CrossEntropy,
            OracleRegime::TopK(_) => FitnessKind::RenormCrossEntropy,
            OracleRegime::LabelOnly => FitnessKind::MissRate,
        }
    }

    /// Applies the regime's degradation to an `[n, k]` confidence matrix
    /// in place. Bit-identical to the corresponding `bprom-faults` plan
    /// and idempotent, so applying it to an already-degraded response is
    /// a no-op. Returns `true` if anything changed.
    pub fn degrade(&self, probs: &mut Tensor) -> bool {
        // The plan math never draws from the RNG for these three shapes;
        // the fixed seed only satisfies the FaultPlan signature.
        let mut rng = Rng::new(0);
        match self {
            OracleRegime::FullScores => false,
            OracleRegime::Quantized(d) => Quantize { decimals: *d }.degrade(&mut rng, probs),
            OracleRegime::TopK(k) => TopK { k: *k }.degrade(&mut rng, probs),
            OracleRegime::LabelOnly => LabelOnly.degrade(&mut rng, probs),
        }
    }

    /// Prepares an `[n, k]` confidence matrix for canonical soft-score
    /// feature extraction under this regime: degrades (idempotent, so
    /// whitebox shadow confidences and already-degraded blackbox
    /// responses land on the same distribution), then renormalizes each
    /// top-k row to its surviving mass so rank statistics compare
    /// likelihoods rather than truncation artifacts. Zero-mass rows
    /// fall back to uniform.
    pub fn prepare_confidences(&self, probs: &mut Tensor) {
        self.degrade(probs);
        if let OracleRegime::TopK(_) = self {
            renormalize_rows(probs);
        }
    }
}

impl std::fmt::Display for OracleRegime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.as_wire())
    }
}

/// Renormalizes each row of an `[n, k]` matrix to sum to 1 (uniform for
/// zero-mass rows).
pub fn renormalize_rows(probs: &mut Tensor) {
    let k = probs.shape()[1];
    let rows = probs.shape()[0];
    let data = probs.data_mut();
    for row in 0..rows {
        let slice = &mut data[row * k..(row + 1) * k];
        let mass: f32 = slice.iter().sum();
        if mass > 0.0 {
            for p in slice.iter_mut() {
                *p /= mass;
            }
        } else {
            slice.fill(1.0 / k as f32);
        }
    }
}

/// Compact vote-count features for the label-only regime, replacing the
/// canonical soft-score statistics (which are degenerate on one-hot
/// responses): per-class vote fractions over the `q` probe responses,
/// canonicalized by descending fraction (class identity is arbitrary
/// across models, exactly like the rank canonicalization of the
/// soft-score path), plus the top-1/top-2 margin, the entropy of the
/// vote distribution, and the probe-label agreement rate. Length `k + 3`.
pub fn vote_features(probs: &Tensor, probe_labels: &[usize]) -> Vec<f32> {
    let q = probs.shape()[0];
    let k = probs.shape()[1];
    let data = probs.data();
    let mut counts = vec![0u32; k];
    let mut agree = 0u32;
    for row in 0..q {
        let slice = &data[row * k..(row + 1) * k];
        let mut best = 0usize;
        for c in 1..k {
            if slice[c] > slice[best] {
                best = c;
            }
        }
        counts[best] += 1;
        if probe_labels.get(row) == Some(&best) {
            agree += 1;
        }
    }
    let mut fractions: Vec<f32> = counts.iter().map(|&c| c as f32 / q.max(1) as f32).collect();
    // Stable descending sort: equal fractions keep class order, so the
    // canonicalization is content-deterministic.
    fractions.sort_by(|a, b| b.total_cmp(a));
    let margin = if k >= 2 {
        fractions[0] - fractions[1]
    } else {
        0.0
    };
    let entropy: f32 = fractions
        .iter()
        .map(|&p| {
            let p = p.max(1e-9);
            -p * p.ln()
        })
        .sum();
    let mut features = fractions;
    features.push(margin);
    features.push(entropy);
    features.push(agree as f32 / q.max(1) as f32);
    features
}

/// A [`BlackBoxModel`] decorator enforcing a declared [`OracleRegime`]
/// on every response.
///
/// Unlike `bprom_faults::FaultyOracle` this is *stateless*: the
/// degradation is a pure function of the response content, with no
/// seeds, attempt counters or arrival ordering — so stacking it above a
/// query cache or fanning queries across threads cannot perturb a
/// single byte. It deliberately does **not** count its rewrites as
/// `degraded_responses`: a declared capability is the endpoint's
/// contract, not an anomaly, and the fault-rate rules (B010) must not
/// fire on it.
pub struct RegimeOracle<'a> {
    inner: &'a dyn BlackBoxModel,
    regime: OracleRegime,
}

impl std::fmt::Debug for RegimeOracle<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegimeOracle")
            .field("regime", &self.regime)
            .finish()
    }
}

impl<'a> RegimeOracle<'a> {
    /// Wraps `inner` under the given regime.
    pub fn new(inner: &'a dyn BlackBoxModel, regime: OracleRegime) -> Self {
        RegimeOracle { inner, regime }
    }

    /// The enforced regime.
    pub fn regime(&self) -> OracleRegime {
        self.regime
    }
}

impl BlackBoxModel for RegimeOracle<'_> {
    fn query(&self, batch: &Tensor) -> Result<Tensor> {
        let mut probs = self.inner.query(batch)?;
        self.regime.degrade(&mut probs);
        Ok(probs)
    }

    fn try_query_batch(&self, batch: &Tensor) -> Result<QueryOutcome> {
        match self.inner.try_query_batch(batch)? {
            Ok(mut probs) => {
                self.regime.degrade(&mut probs);
                Ok(Ok(probs))
            }
            Err(fault) => Ok(Err(fault)),
        }
    }

    fn wrapped(&self) -> Option<&dyn BlackBoxModel> {
        Some(self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bprom_nn::models::{mlp, ModelSpec};
    use bprom_vp::{OracleStats, QueryOracle};

    #[test]
    fn parse_accepts_the_documented_forms() {
        assert_eq!(OracleRegime::parse("full"), Some(OracleRegime::FullScores));
        assert_eq!(
            OracleRegime::parse(" Full_Scores "),
            Some(OracleRegime::FullScores)
        );
        assert_eq!(
            OracleRegime::parse("quantized:3"),
            Some(OracleRegime::Quantized(3))
        );
        assert_eq!(
            OracleRegime::parse("QUANTIZED:0"),
            Some(OracleRegime::Quantized(0))
        );
        assert_eq!(OracleRegime::parse("top_k:3"), Some(OracleRegime::TopK(3)));
        assert_eq!(
            OracleRegime::parse("label_only"),
            Some(OracleRegime::LabelOnly)
        );
    }

    #[test]
    fn malformed_values_parse_to_none() {
        for raw in [
            "",
            "fulll",
            "top_k:",
            "top_k:0",
            "top_k:-1",
            "quantized:x",
            "labels",
        ] {
            assert_eq!(OracleRegime::parse(raw), None, "{raw:?}");
        }
    }

    #[test]
    fn wire_form_round_trips() {
        for regime in [
            OracleRegime::FullScores,
            OracleRegime::Quantized(2),
            OracleRegime::TopK(3),
            OracleRegime::LabelOnly,
        ] {
            assert_eq!(OracleRegime::parse(&regime.as_wire()), Some(regime));
        }
    }

    #[test]
    fn fitness_matches_regime() {
        assert_eq!(
            OracleRegime::FullScores.fitness(),
            FitnessKind::CrossEntropy
        );
        assert_eq!(
            OracleRegime::Quantized(3).fitness(),
            FitnessKind::CrossEntropy
        );
        assert_eq!(
            OracleRegime::TopK(3).fitness(),
            FitnessKind::RenormCrossEntropy
        );
        assert_eq!(OracleRegime::LabelOnly.fitness(), FitnessKind::MissRate);
    }

    fn matrix(rows: &[&[f32]]) -> Tensor {
        let k = rows[0].len();
        let data: Vec<f32> = rows.iter().flat_map(|r| r.iter().copied()).collect();
        Tensor::from_vec(data, &[rows.len(), k]).unwrap()
    }

    #[test]
    fn degrade_is_idempotent_for_every_regime() {
        for regime in [
            OracleRegime::FullScores,
            OracleRegime::Quantized(2),
            OracleRegime::TopK(2),
            OracleRegime::LabelOnly,
        ] {
            let mut once = matrix(&[&[0.123, 0.456, 0.321, 0.1], &[0.25, 0.25, 0.3, 0.2]]);
            regime.degrade(&mut once);
            let mut twice = once.clone();
            regime.degrade(&mut twice);
            assert_eq!(once, twice, "{regime} must be idempotent");
        }
    }

    #[test]
    fn prepare_renormalizes_top_k_mass() {
        let mut probs = matrix(&[&[0.5, 0.3, 0.1, 0.1]]);
        OracleRegime::TopK(2).prepare_confidences(&mut probs);
        let row = probs.data();
        assert!((row[0] - 0.625).abs() < 1e-6);
        assert!((row[1] - 0.375).abs() < 1e-6);
        assert_eq!(&row[2..], &[0.0, 0.0]);
    }

    #[test]
    fn renormalize_handles_zero_mass() {
        let mut probs = matrix(&[&[0.0, 0.0]]);
        renormalize_rows(&mut probs);
        assert_eq!(probs.data(), &[0.5, 0.5]);
    }

    #[test]
    fn vote_features_are_canonical_and_sized() {
        // 3 probes vote class 2, 1 votes class 0; labels agree twice.
        let probs = matrix(&[
            &[0.1, 0.2, 0.7],
            &[0.2, 0.1, 0.7],
            &[0.3, 0.2, 0.5],
            &[0.6, 0.2, 0.2],
        ]);
        let features = vote_features(&probs, &[2, 2, 1, 1]);
        assert_eq!(features.len(), 3 + 3);
        assert_eq!(&features[..3], &[0.75, 0.25, 0.0]);
        assert!((features[3] - 0.5).abs() < 1e-6, "margin");
        assert!(features[4] > 0.0, "entropy");
        assert!((features[5] - 0.5).abs() < 1e-6, "agreement");
        // Permuting class identities leaves the canonical fractions
        // unchanged (votes move with the classes).
        let permuted = matrix(&[
            &[0.7, 0.2, 0.1],
            &[0.7, 0.1, 0.2],
            &[0.5, 0.2, 0.3],
            &[0.2, 0.2, 0.6],
        ]);
        let permuted_features = vote_features(&permuted, &[0, 0, 1, 1]);
        assert_eq!(&features[..3], &permuted_features[..3]);
    }

    #[test]
    fn regime_oracle_degrades_and_stays_transparent() {
        let mut rng = Rng::new(0);
        let model = mlp(&ModelSpec::new(3, 8, 5), &mut rng).unwrap();
        let oracle = QueryOracle::new(model, 5);
        let batch = Tensor::rand_uniform(&[3, 3, 8, 8], 0.0, 1.0, &mut rng);
        let full = oracle.query(&batch).unwrap();

        let label_only = RegimeOracle::new(&oracle, OracleRegime::LabelOnly);
        let probs = label_only.query(&batch).unwrap();
        for row in 0..3 {
            let slice = &probs.data()[row * 5..(row + 1) * 5];
            assert_eq!(slice.iter().filter(|&&p| p == 1.0).count(), 1);
            assert_eq!(slice.iter().filter(|&&p| p == 0.0).count(), 4);
        }
        // Accounting is transparent: queries counted by the inner oracle,
        // no degraded/fault stats invented.
        assert_eq!(label_only.queries_used(), oracle.queries_used());
        assert_eq!(label_only.oracle_stats(), OracleStats::default());

        // FullScores is a byte-exact passthrough.
        let passthrough = RegimeOracle::new(&oracle, OracleRegime::FullScores);
        assert_eq!(passthrough.query(&batch).unwrap(), full);

        // Wrapping an already-enforcing oracle changes nothing (idempotent).
        let inner = RegimeOracle::new(&oracle, OracleRegime::TopK(2));
        let outer = RegimeOracle::new(&inner, OracleRegime::TopK(2));
        assert_eq!(outer.query(&batch).unwrap(), inner.query(&batch).unwrap());
    }

    #[test]
    fn env_parsing_is_lenient() {
        // REGIME_ENV is unset in unit tests; the fallback must hold.
        assert_eq!(
            OracleRegime::from_env_or(OracleRegime::TopK(3)),
            OracleRegime::from_env().unwrap_or(OracleRegime::TopK(3))
        );
    }
}
