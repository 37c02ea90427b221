//! MLaaS marketplace audit: the scenario from the paper's introduction,
//! run fleet-scale. A buyer downloads several third-party models (some
//! trojaned, some not) and screens the whole queue through the audit
//! engine: one fitted BPROM detector comes out of the content-addressed
//! shadow-zoo registry and is shared by every audit, inspections run
//! concurrently on the worker pool, and the queue rolls up into one
//! schema-versioned incident report.
//!
//! Run with: `cargo run --release --example mlaas_audit`

use bprom_suite::attacks::AttackKind;
use bprom_suite::audit::{AuditEngine, AuditRequest, DetectorSpec, ShadowZooRegistry};
use bprom_suite::bprom::{build_suspicious_zoo, BpromConfig, ZooConfig};
use bprom_suite::data::SynthDataset;
use bprom_suite::obs;
use bprom_suite::tensor::Rng;
use bprom_suite::verdict::{summarize_findings, Mode};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Record the whole audit: every oracle query, phase timing and counter
    // ends up in one JSON snapshot.
    let session = obs::Session::begin("mlaas_audit");

    // The "marketplace": vendors ship models with unknown provenance.
    // Here two vendors are honest and two planted different backdoors —
    // neither of which matches the BadNets attack the detector trained on.
    println!("downloading 8 marketplace models (trojan status unknown to the buyer)...");
    let mut rng = Rng::new(77);
    let mut marketplace = Vec::new();
    for attack in [AttackKind::Blend, AttackKind::Dynamic] {
        let mut zoo_cfg = ZooConfig::new(SynthDataset::Cifar10, attack);
        zoo_cfg.clean = 2;
        zoo_cfg.backdoored = 2;
        marketplace.extend(build_suspicious_zoo(&zoo_cfg, &mut rng)?);
    }

    // One detector spec serves the whole queue. The registry fits it on
    // first lookup and every later audit shares the same asset — with a
    // persistent registry (`ShadowZooRegistry::open`) a later process
    // would restore it from disk and pay no fit at all.
    let mut config = BpromConfig::new(SynthDataset::Cifar10, SynthDataset::Stl10);
    config.clean_shadows = 6;
    config.backdoor_shadows = 6;
    config.prompt.cmaes_generations = 25;
    let spec = DetectorSpec::new(config, 77);
    println!(
        "registry key for the CIFAR-10 marketplace zoo: {}",
        spec.key()
    );

    let queue: Vec<AuditRequest> = marketplace
        .into_iter()
        .enumerate()
        .map(|(i, suspicious)| {
            AuditRequest::from_suspicious(
                format!("#{i}"),
                suspicious,
                10,
                spec.clone(),
                77 + i as u64,
            )
        })
        .collect();

    // Drain the queue. The engine resolves the spec once, audits
    // same-model requests sequentially and distinct models concurrently,
    // and correlates every outcome through the verdict pipeline (the
    // active BPROM_MODE=learning|strict decides whether evidence only
    // gets recorded or actually flags the vendor).
    let mode = Mode::from_env_or(Mode::Strict);
    let engine = AuditEngine::new("mlaas_audit", ShadowZooRegistry::in_memory())
        .with_mode(mode)
        .share_model_caches(true);
    let fleet = engine.run_with(queue, |d, o, rng| d.inspect(o, rng))?;

    println!("\n{:<8} {:<12} verdict", "model", "truth");
    let mut correct = 0usize;
    for outcome in &fleet.outcomes {
        let truth = outcome.truth.unwrap_or(false);
        if outcome.verdict.backdoored == truth {
            correct += 1;
        }
        println!(
            "{:<8} {:<12} {}",
            outcome.label,
            if truth { "backdoored" } else { "clean" },
            outcome.verdict,
        );
        println!(
            "         findings: {}",
            summarize_findings(&outcome.record.findings)
        );
    }
    println!(
        "\naudit agreement with ground truth: {correct}/{}",
        fleet.len()
    );
    println!(
        "registry: {} fit(s) served {} audits ({} shared lookups); \
         fleet cache hit rate {:.1}%",
        fleet.registry.builds,
        fleet.len(),
        fleet.registry.hits(),
        100.0 * fleet.cache_hit_rate(),
    );

    // Correlate + respond: one machine-readable incident report for the
    // whole marketplace screen.
    println!("\n{}", fleet.render());
    println!(
        "incident report ({} mode): {} audits, {} flagged, {} quarantined \
         -> mlaas_audit_incident.json",
        mode.as_str(),
        fleet.incident.audits,
        fleet.incident.flagged,
        fleet.incident.quarantined,
    );
    std::fs::write("mlaas_audit_incident.json", fleet.incident.to_json_string())?;

    // Dump the machine-readable audit trail next to the binary.
    let snapshot = session.finish();
    println!(
        "audit spent {} oracle queries over {} shadow fit(s); trail -> mlaas_audit_telemetry.json",
        snapshot.counter("oracle.queries"),
        snapshot.count_spans("shadow_training"),
    );
    std::fs::write("mlaas_audit_telemetry.json", snapshot.to_json_string())?;
    Ok(())
}
