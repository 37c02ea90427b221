//! Figure 5: PCA of meta features — clean vs backdoored models separate in
//! the prompted-confidence space.

use bprom::meta_model::{probe_features_whitebox_regime, ProbeSet};
use bprom::prompting::prompt_shadows;
use bprom::shadow::ShadowSet;
use bprom::OracleRegime;
use bprom_bench::{detector_config, header};
use bprom_data::SynthDataset;
use bprom_metrics::pca2;
use bprom_tensor::Rng;
use bprom_vp::LabelMap;

fn main() {
    let mut rng = Rng::new(5);
    let config = detector_config(SynthDataset::Cifar10, SynthDataset::Stl10);
    let source_test = SynthDataset::Cifar10
        .generate(config.test_samples_per_class, 16, rng.next_u64())
        .unwrap();
    let ds = source_test.subsample(config.ds_fraction, &mut rng).unwrap();
    let target = SynthDataset::Stl10
        .generate(25, 16, rng.next_u64())
        .unwrap();
    let (t_train, t_test) = target.split(0.7, &mut rng).unwrap();
    let map = LabelMap::identity(10, 10).unwrap();
    let mut shadows = ShadowSet::train(&config, &ds, &mut rng).unwrap();
    let prompts = prompt_shadows(&config, &mut shadows, &t_train, &map, &mut rng).unwrap();
    let probes = ProbeSet::sample(&t_test, config.probe_count, &mut rng).unwrap();
    let mut features = Vec::new();
    for (s, p) in shadows.shadows.iter_mut().zip(&prompts) {
        features.push(
            probe_features_whitebox_regime(
                &mut s.model,
                &p.prompt,
                &probes,
                OracleRegime::FullScores,
            )
            .unwrap(),
        );
    }
    let pca = pca2(&features).unwrap();
    header(
        "Figure 5 — PCA of prompted meta-features",
        &["label", "pc1", "pc2"],
    );
    for (point, shadow) in pca.points.iter().zip(&shadows.shadows) {
        println!(
            "{}\t{:.3}\t{:.3}",
            if shadow.backdoored {
                "backdoor"
            } else {
                "clean"
            },
            point[0],
            point[1]
        );
    }
    println!(
        "explained variance: pc1={:.3} pc2={:.3}",
        pca.explained[0], pca.explained[1]
    );
}
