//! Experiment harness for the BPROM reproduction.
//!
//! One binary per paper table/figure lives in `src/bin/`; each prints the
//! same rows/series the paper reports, at substrate scale. Criterion
//! micro-benchmarks live in `benches/`.
//!
//! Scale control: set `BPROM_QUICK=1` to shrink model/zoo counts for a
//! fast smoke pass (the shapes survive; the confidence intervals don't).

use bprom::{BpromConfig, ZooConfig};
use bprom_attacks::AttackKind;
use bprom_data::SynthDataset;

/// Whether the quick (smoke) scale was requested via `BPROM_QUICK=1`.
pub fn quick() -> bool {
    std::env::var("BPROM_QUICK").is_ok_and(|v| v == "1")
}

/// Standard detector configuration used across the tables.
pub fn detector_config(source: SynthDataset, target: SynthDataset) -> BpromConfig {
    let mut cfg = BpromConfig::new(source, target);
    if quick() {
        cfg.clean_shadows = 4;
        cfg.backdoor_shadows = 4;
        cfg.prompt.cmaes_generations = 20;
    } else {
        cfg.clean_shadows = 8;
        cfg.backdoor_shadows = 8;
        cfg.prompt.cmaes_generations = 30;
    }
    // Wide label spaces need a larger black-box prompting budget: with 43+
    // classes the cross-entropy floor is high and 30 generations leave every
    // prompt near-uniform, erasing the clean/backdoor signature.
    if source.num_classes() > 20 {
        cfg.prompt.cmaes_generations *= 2;
        cfg.prompt.epochs *= 2;
    }
    cfg
}

/// Standard suspicious-model zoo used across the tables (the paper uses
/// 30 + 30; substrate scale uses 5 + 5, or 3 + 3 under `BPROM_QUICK`).
pub fn zoo_config(dataset: SynthDataset, attack: AttackKind) -> ZooConfig {
    let mut cfg = ZooConfig::new(dataset, attack);
    let n = if quick() { 3 } else { 5 };
    cfg.clean = n;
    cfg.backdoored = n;
    cfg
}

/// RAII telemetry session for experiment binaries: installs a `bprom-obs`
/// session plus the `bprom-verdict` audit sink on construction, and on
/// drop writes the full run snapshot (`telemetry.json`) and the
/// machine-readable incident report (`incident.json`) as pretty JSON.
///
/// Control via environment:
/// - `BPROM_TELEMETRY=0` disables collection entirely (zero overhead);
/// - `BPROM_TELEMETRY_DIR=<dir>` chooses the output directory (default:
///   current directory). The files are always named `telemetry.json` and
///   `incident.json`;
/// - `BPROM_MODE=learning|strict` selects the incident response mode
///   (default strict — see `bprom_verdict::Mode`).
pub struct TelemetryGuard {
    session: Option<bprom_obs::Session>,
    label: String,
    path: std::path::PathBuf,
    incident_path: std::path::PathBuf,
}

impl TelemetryGuard {
    /// Starts a telemetry session labelled with the experiment name
    /// (unless disabled via `BPROM_TELEMETRY=0`).
    pub fn begin(label: &str) -> Self {
        let disabled = std::env::var("BPROM_TELEMETRY").is_ok_and(|v| v == "0");
        let dir = std::env::var("BPROM_TELEMETRY_DIR").unwrap_or_else(|_| ".".into());
        if !disabled {
            bprom_verdict::sink::install();
        }
        TelemetryGuard {
            session: (!disabled).then(|| bprom_obs::Session::begin(label)),
            label: label.to_string(),
            path: std::path::Path::new(&dir).join("telemetry.json"),
            incident_path: std::path::Path::new(&dir).join("incident.json"),
        }
    }

    /// Whether a session is actually recording.
    pub fn active(&self) -> bool {
        self.session.is_some()
    }
}

impl Drop for TelemetryGuard {
    fn drop(&mut self) {
        if let Some(session) = self.session.take() {
            let snapshot = session.finish();
            match std::fs::write(&self.path, snapshot.to_json_string()) {
                Ok(()) => eprintln!("telemetry written to {}", self.path.display()),
                Err(e) => eprintln!("telemetry write failed ({}): {e}", self.path.display()),
            }
            let records = bprom_verdict::sink::drain();
            let mode = bprom_verdict::Mode::from_env_or(bprom_verdict::Mode::Strict);
            let report = bprom_verdict::IncidentReport::assemble(
                &self.label,
                &bprom_verdict::RulePolicy::default(),
                mode,
                &records,
            );
            match std::fs::write(&self.incident_path, report.to_json_string()) {
                Ok(()) => eprintln!(
                    "incident report written to {}",
                    self.incident_path.display()
                ),
                Err(e) => eprintln!(
                    "incident write failed ({}): {e}",
                    self.incident_path.display()
                ),
            }
        }
    }
}

/// Prints a table header row.
pub fn header(title: &str, columns: &[&str]) {
    println!("\n=== {title} ===");
    println!("{}", columns.join("\t"));
}

/// Prints one table row of floats with a leading label.
pub fn row(label: &str, values: &[f32]) {
    let cells: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
    println!("{label}\t{}", cells.join("\t"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_guard_writes_snapshot() {
        let dir = std::env::temp_dir().join("bprom-telemetry-guard-test");
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var("BPROM_TELEMETRY_DIR", &dir);
        {
            let guard = TelemetryGuard::begin("guard-test");
            assert!(guard.active());
            bprom_obs::counter_add("guard.test", 3);
        }
        std::env::remove_var("BPROM_TELEMETRY_DIR");
        let json = std::fs::read_to_string(dir.join("telemetry.json")).unwrap();
        let snapshot = bprom_obs::TelemetrySnapshot::from_json_str(&json).unwrap();
        assert_eq!(snapshot.counter("guard.test"), 3);
        assert_eq!(snapshot.label, "guard-test");
        // The guard also emits an incident report (empty: no audits ran)
        // that passes the schema validator.
        let json = std::fs::read_to_string(dir.join("incident.json")).unwrap();
        let report = bprom_verdict::IncidentReport::from_json_str(&json).unwrap();
        assert_eq!(report.label, "guard-test");
        assert_eq!(report.audits, 0);
        let doc = bprom_obs::json::Value::parse(&json).unwrap();
        bprom_verdict::validate_incident(&doc).unwrap();
    }

    #[test]
    fn configs_are_valid() {
        let cfg = detector_config(SynthDataset::Cifar10, SynthDataset::Stl10);
        assert!(cfg.validate().is_ok());
        let zoo = zoo_config(SynthDataset::Cifar10, AttackKind::BadNets);
        assert!(zoo.clean > 0 && zoo.backdoored > 0);
    }
}
