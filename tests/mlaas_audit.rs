//! The MLaaS marketplace scenario as an integration test: a buyer
//! screens a queue of third-party uploads through the fleet audit
//! engine. Promoted from `examples/mlaas_audit.rs` so CI proves the
//! engine's two contracts on a realistic queue:
//!
//! * the fleet `incident.json` validates against the frozen incident
//!   schema (`INCIDENT_SCHEMA_VERSION`), and
//! * shadow training runs **once per registry key** — repeated specs in
//!   the queue never emit duplicate `shadow_training` spans.

use bprom_suite::attacks::AttackKind;
use bprom_suite::audit::{AuditEngine, AuditRequest, DetectorSpec, ShadowZooRegistry};
use bprom_suite::bprom::{build_suspicious_zoo, BpromConfig, ZooConfig};
use bprom_suite::data::SynthDataset;
use bprom_suite::nn::TrainConfig;
use bprom_suite::obs;
use bprom_suite::tensor::Rng;
use bprom_suite::verdict::{validate_incident, INCIDENT_SCHEMA_VERSION};
use bprom_suite::vp::PromptTrainConfig;

fn tiny_config(attack: AttackKind) -> BpromConfig {
    let mut config = BpromConfig::fast(SynthDataset::Cifar10, SynthDataset::Stl10);
    config.shadow_attack = attack;
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

#[test]
fn marketplace_screen_shares_fits_and_emits_schema_valid_incident() {
    let session = obs::Session::begin("mlaas_audit_test");

    // The marketplace: two vendors ship two models each (one honest, one
    // trojaned), with attacks the detectors did *not* train on. Each
    // vendor's zoo trains from its own fixed seed so a rebuild is
    // bit-identical (training is deterministic).
    let vendor_zoo = |attack: AttackKind, seed: u64| {
        let mut zoo_cfg = ZooConfig::new(SynthDataset::Cifar10, attack);
        zoo_cfg.clean = 1;
        zoo_cfg.backdoored = 1;
        zoo_cfg.samples_per_class = 20;
        zoo_cfg.train = TrainConfig {
            epochs: 2,
            ..TrainConfig::default()
        };
        build_suspicious_zoo(&zoo_cfg, &mut Rng::new(seed)).unwrap()
    };
    let mut marketplace = vendor_zoo(AttackKind::Blend, 77);
    marketplace.extend(vendor_zoo(AttackKind::Dynamic, 78));
    assert_eq!(marketplace.len(), 4);

    // Two detector specs screen the queue: a BadNets-trained and a
    // Trojan-trained shadow zoo, each named by three of the six
    // requests. Under a naive engine that would be six fits; the
    // registry owes exactly two.
    let spec_badnets = DetectorSpec::new(tiny_config(AttackKind::BadNets), 7);
    let spec_trojan = DetectorSpec::new(tiny_config(AttackKind::Trojan), 7);
    assert_ne!(spec_badnets.digest(), spec_trojan.digest());
    let mut queue = Vec::new();
    for (i, suspicious) in marketplace.into_iter().enumerate() {
        let spec = if i % 2 == 0 {
            spec_badnets.clone()
        } else {
            spec_trojan.clone()
        };
        queue.push(AuditRequest::from_suspicious(
            format!("upload-{i}"),
            suspicious,
            10,
            spec,
            100 + i as u64,
        ));
    }
    // A second opinion on the first vendor's uploads from the *other*
    // zoo — repeats of both specs, and repeat fingerprints for
    // correlation (the rebuilt models are bit-identical).
    for (i, suspicious) in vendor_zoo(AttackKind::Blend, 77).into_iter().enumerate() {
        let spec = if i % 2 == 0 {
            spec_trojan.clone()
        } else {
            spec_badnets.clone()
        };
        queue.push(AuditRequest::from_suspicious(
            format!("upload-{i}-recheck"),
            suspicious,
            10,
            spec,
            200 + i as u64,
        ));
    }
    assert_eq!(queue.len(), 6);

    let engine = AuditEngine::new("mlaas-screen", ShadowZooRegistry::in_memory());
    let fleet = engine
        .run_with(queue, |d, o, rng| d.inspect(o, rng))
        .unwrap();

    // Queue-ordered outcomes, one per upload.
    assert_eq!(fleet.len(), 6);
    let labels: Vec<&str> = fleet.outcomes.iter().map(|o| o.label.as_str()).collect();
    assert_eq!(
        labels,
        [
            "upload-0",
            "upload-1",
            "upload-2",
            "upload-3",
            "upload-0-recheck",
            "upload-1-recheck",
        ]
    );

    // Shadow training ran once per registry key: two fits serve six
    // audits, and the four repeat lookups were memory hits.
    assert_eq!(fleet.registry.builds, 2);
    assert_eq!(fleet.registry.mem_hits, 4);
    let snapshot = session.finish();
    assert_eq!(
        snapshot.count_spans("shadow_training"),
        2,
        "no duplicate shadow training for shared keys"
    );

    // The rechecks correlated with their originals: 6 audits over 4
    // distinct fingerprints, the rechecked ones holding 2 audits each.
    assert_eq!(fleet.incident.audits, 6);
    assert_eq!(fleet.incident.incidents.len(), 4);
    let repeat_audits: Vec<u64> = fleet
        .incident
        .incidents
        .iter()
        .map(|m| m.audits)
        .filter(|&n| n > 1)
        .collect();
    assert_eq!(repeat_audits, [2, 2]);

    // The fleet incident document is schema-valid, byte-for-byte as the
    // engine serializes it.
    let text = fleet.incident.to_json_string();
    let doc = obs::Value::parse(&text).unwrap();
    validate_incident(&doc).unwrap();
    assert_eq!(fleet.incident.schema_version, INCIDENT_SCHEMA_VERSION);

    // The human-facing render names the fleet and every audited model.
    let rendered = fleet.render();
    assert!(rendered.contains("mlaas-screen"), "{rendered}");
    for outcome in &fleet.outcomes {
        assert!(rendered.contains(&outcome.model), "{rendered}");
    }
}
