//! The model zoo: the diffusion-model variants evaluated in the paper, with
//! latency numbers taken from §4.1 and quality profiles calibrated so that
//! FID orderings and easy-query fractions reproduce Figs. 1a/1b.

use diffserve_simkit::time::SimDuration;

use crate::features::FeatureSpec;
use crate::model::{DiffusionModel, LatencyProfile, QualityProfile};
use crate::prompt::DatasetKind;

/// Builds SD-Turbo: 1-step distilled model, ~0.10 s per image on A100.
pub fn sd_turbo(spec: FeatureSpec) -> DiffusionModel {
    DiffusionModel::new(
        "sd-turbo",
        1,
        LatencyProfile::new(0.10, 0.55),
        QualityProfile {
            base_error: 0.18,
            difficulty_slope: 0.35,
            noise_std: 0.22,
            diversity_sigma: 1.25,
        },
        spec,
    )
}

/// Builds SDv1.5 with 50 denoising steps, ~1.78 s per image on A100.
pub fn sd_v15(spec: FeatureSpec) -> DiffusionModel {
    DiffusionModel::new(
        "sd-v1.5",
        50,
        LatencyProfile::new(1.78, 0.12),
        QualityProfile {
            base_error: 0.08,
            difficulty_slope: 0.12,
            noise_std: 0.12,
            diversity_sigma: 0.75,
        },
        spec,
    )
}

/// Builds SDv1.5 with the DPM-Solver++ scheduler (fewer steps, faster).
pub(crate) fn sd_v15_dpms(spec: FeatureSpec) -> DiffusionModel {
    DiffusionModel::new(
        "sd-v1.5-dpms++",
        20,
        LatencyProfile::new(0.85, 0.15),
        QualityProfile {
            base_error: 0.15,
            difficulty_slope: 0.24,
            noise_std: 0.14,
            diversity_sigma: 0.9,
        },
        spec,
    )
}

/// Builds SDXS-512-0.9: the fastest variant, ~0.05 s per image.
pub fn sdxs(spec: FeatureSpec) -> DiffusionModel {
    DiffusionModel::new(
        "sdxs",
        1,
        LatencyProfile::new(0.05, 0.60),
        QualityProfile {
            base_error: 0.25,
            difficulty_slope: 0.42,
            noise_std: 0.28,
            diversity_sigma: 1.35,
        },
        spec,
    )
}

/// Builds SDXL-Turbo, a distilled SDXL variant.
fn sdxl_turbo(spec: FeatureSpec) -> DiffusionModel {
    DiffusionModel::new(
        "sdxl-turbo",
        1,
        LatencyProfile::new(0.25, 0.45),
        QualityProfile {
            base_error: 0.15,
            difficulty_slope: 0.3,
            noise_std: 0.18,
            diversity_sigma: 1.2,
        },
        spec,
    )
}

/// Builds TinySD with the DPM-Solver++ scheduler.
fn tiny_sd_dpms(spec: FeatureSpec) -> DiffusionModel {
    DiffusionModel::new(
        "tiny-sd-dpms++",
        20,
        LatencyProfile::new(0.55, 0.25),
        QualityProfile {
            base_error: 0.22,
            difficulty_slope: 0.38,
            noise_std: 0.2,
            diversity_sigma: 1.3,
        },
        spec,
    )
}

/// Builds SDXL-Lightning with 2 steps, ~0.5 s per 1024×1024 image.
fn sdxl_lightning(spec: FeatureSpec) -> DiffusionModel {
    DiffusionModel::new(
        "sdxl-lightning",
        2,
        LatencyProfile::new(0.50, 0.40),
        QualityProfile {
            base_error: 0.19,
            difficulty_slope: 0.34,
            noise_std: 0.21,
            diversity_sigma: 1.28,
        },
        spec,
    )
}

/// Builds SDXL with 50 steps, ~6 s per 1024×1024 image.
fn sdxl(spec: FeatureSpec) -> DiffusionModel {
    DiffusionModel::new(
        "sdxl",
        50,
        LatencyProfile::new(6.0, 0.08),
        QualityProfile {
            base_error: 0.07,
            difficulty_slope: 0.1,
            noise_std: 0.11,
            diversity_sigma: 0.75,
        },
        spec,
    )
}

/// All independent variants plotted in Fig. 1a.
pub fn fig1a_variants(spec: FeatureSpec) -> Vec<DiffusionModel> {
    vec![
        sdxs(spec),
        sd_turbo(spec),
        sdxl_turbo(spec),
        tiny_sd_dpms(spec),
        sd_v15_dpms(spec),
        sd_v15(spec),
    ]
}

/// A light/heavy cascade pairing with its dataset and SLO (paper §4.1).
#[derive(Debug, Clone)]
pub struct CascadeSpec {
    /// Artifact-style short name (`sdturbo`, `sdxs`, `sdxlltn`).
    pub name: &'static str,
    /// The lightweight model.
    pub light: DiffusionModel,
    /// The heavyweight model.
    pub heavy: DiffusionModel,
    /// Prompt dataset family used for this cascade's evaluation.
    pub dataset: DatasetKind,
    /// Latency SLO for this cascade.
    pub slo: SimDuration,
}

/// Cascade 1: SD-Turbo → SDv1.5 on MS-COCO, SLO 5 s.
pub fn cascade1(spec: FeatureSpec) -> CascadeSpec {
    CascadeSpec {
        name: "sdturbo",
        light: sd_turbo(spec),
        heavy: sd_v15(spec),
        dataset: DatasetKind::MsCoco,
        slo: SimDuration::from_secs(5),
    }
}

/// Cascade 2: SDXS → SDv1.5 on MS-COCO, SLO 5 s.
pub fn cascade2(spec: FeatureSpec) -> CascadeSpec {
    CascadeSpec {
        name: "sdxs",
        light: sdxs(spec),
        heavy: sd_v15(spec),
        dataset: DatasetKind::MsCoco,
        slo: SimDuration::from_secs(5),
    }
}

/// Cascade 3: SDXL-Lightning → SDXL on DiffusionDB, SLO 15 s.
pub fn cascade3(spec: FeatureSpec) -> CascadeSpec {
    CascadeSpec {
        name: "sdxlltn",
        light: sdxl_lightning(spec),
        heavy: sdxl(spec),
        dataset: DatasetKind::DiffusionDb,
        slo: SimDuration::from_secs(15),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_batch1_latencies() {
        let spec = FeatureSpec::default();
        let close = |m: &DiffusionModel, s: f64| {
            (m.latency().exec_latency(1).as_secs_f64() - s).abs() < 1e-9
        };
        assert!(close(&sd_turbo(spec), 0.10));
        assert!(close(&sd_v15(spec), 1.78));
        assert!(close(&sdxs(spec), 0.05));
        assert!(close(&sdxl_lightning(spec), 0.50));
        assert!(close(&sdxl(spec), 6.0));
    }

    #[test]
    fn heavy_models_beat_light_models_on_hard_prompts() {
        let spec = FeatureSpec::default();
        for (light, heavy) in [
            (sd_turbo(spec), sd_v15(spec)),
            (sdxs(spec), sd_v15(spec)),
            (sdxl_lightning(spec), sdxl(spec)),
        ] {
            let hard = 0.8;
            assert!(
                heavy.quality_profile().expected_quality(hard)
                    > light.quality_profile().expected_quality(hard) + 0.1,
                "{} should dominate {} on hard prompts",
                heavy.name(),
                light.name()
            );
        }
    }

    #[test]
    fn cascades_match_paper_slos() {
        let spec = FeatureSpec::default();
        assert_eq!(cascade1(spec).slo, SimDuration::from_secs(5));
        assert_eq!(cascade2(spec).slo, SimDuration::from_secs(5));
        assert_eq!(cascade3(spec).slo, SimDuration::from_secs(15));
        assert_eq!(cascade3(spec).dataset, DatasetKind::DiffusionDb);
    }

    #[test]
    fn fig1a_zoo_quality_ordering() {
        // Expected FID ordering along the latency axis: heavier models have
        // lower expected error on a mean-difficulty prompt.
        let spec = FeatureSpec::default();
        let variants = fig1a_variants(spec);
        let err = |m: &DiffusionModel| 1.0 - m.quality_profile().expected_quality(0.33);
        // SDXS is the worst, SDv1.5 the best of the 512px family.
        let sdxs_err = err(&variants[0]);
        let sdv15_err = err(&variants[5]);
        for v in &variants {
            let e = err(v);
            assert!(e <= sdxs_err + 1e-9, "{} worse than SDXS", v.name());
            assert!(e >= sdv15_err - 1e-9, "{} better than SDv1.5", v.name());
        }
    }

    #[test]
    fn cascade_throughput_gap_is_large() {
        // The whole point of the cascade: the light model serves far more
        // QPS per worker.
        let spec = FeatureSpec::default();
        let c = cascade1(spec);
        assert!(c.light.latency().throughput(8) > 10.0 * c.heavy.latency().throughput(8));
    }
}
