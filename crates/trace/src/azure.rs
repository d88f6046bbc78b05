//! Synthetic Azure-Functions-style diurnal traces.
//!
//! The paper drives its dynamic experiments with the Microsoft Azure
//! Functions trace, scaled shape-preservingly to system capacity (§4.1,
//! Fig. 5). The production trace is not redistributable, so this module
//! synthesizes demand curves with the same macroscopic structure: a smooth
//! diurnal swell to a single peak, secondary ripples, and bin-level noise —
//! then rescales to the artifact's `{A}to{B}qps` convention.

use diffserve_simkit::rng::{seeded_rng, Normal, Sampler};
use diffserve_simkit::time::SimDuration;

use crate::trace::{Trace, TraceError};

/// Configuration for [`synthesize_azure_trace`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AzureTraceConfig {
    /// Trough demand after rescaling (the `A` in `trace_{A}to{B}qps`).
    pub min_qps: f64,
    /// Peak demand after rescaling (the `B` in `trace_{A}to{B}qps`).
    pub max_qps: f64,
    /// Total trace length.
    pub duration: SimDuration,
}

/// Where the peak falls as a fraction of the duration: the paper's Fig. 5
/// trace peaks slightly past the middle.
const PEAK_POSITION: f64 = 0.55;
/// Relative amplitude of the secondary ripples.
const RIPPLE: f64 = 0.12;
/// Relative standard deviation of the per-bin noise.
const NOISE: f64 = 0.05;
/// RNG seed for the noise: the curve is a fixed artefact, like the paper's
/// one Azure trace file.
const SEED: u64 = 0xA2CE;

impl Default for AzureTraceConfig {
    fn default() -> Self {
        AzureTraceConfig {
            min_qps: 4.0,
            max_qps: 32.0,
            duration: SimDuration::from_secs(350),
        }
    }
}

/// Synthesizes a diurnal demand trace with 1-second bins.
///
/// The curve rises from the trough to a single peak 55 % of the way in and
/// falls back, with sinusoidal ripples and Gaussian bin noise drawn from a
/// fixed seed, then is affinely rescaled so the minimum and maximum equal
/// `min_qps` / `max_qps` exactly — mirroring the paper's shape-preserving
/// transformation of the Azure trace.
///
/// # Errors
///
/// Returns a [`TraceError`] if the configuration produces an invalid trace
/// (zero duration, inverted or negative QPS range).
pub fn synthesize_azure_trace(config: &AzureTraceConfig) -> Result<Trace, TraceError> {
    if config.duration.is_zero() {
        return Err(TraceError::ZeroBinWidth);
    }
    if !(config.min_qps.is_finite()
        && config.max_qps.is_finite()
        && config.min_qps >= 0.0
        && config.min_qps <= config.max_qps)
    {
        return Err(TraceError::InvalidRate {
            bin: 0,
            value: config.min_qps,
        });
    }
    let n = (config.duration.as_secs_f64().ceil() as usize).max(2);
    let noise = Normal::new(0.0, NOISE).expect("positive std");
    let mut rng = seeded_rng(SEED);

    let mut bins = Vec::with_capacity(n);
    for i in 0..n {
        let x = i as f64 / (n - 1) as f64;
        // Asymmetric bell peaking at `PEAK_POSITION`: rise and fall are half-cosines
        // with different widths, matching the Azure trace's slow ramp-up and
        // faster drain.
        let phase = if x <= PEAK_POSITION {
            x / PEAK_POSITION * std::f64::consts::PI
        } else {
            std::f64::consts::PI * (1.0 + (x - PEAK_POSITION) / (1.0 - PEAK_POSITION))
        };
        let bell = 0.5 * (1.0 - phase.cos());
        let ripple = RIPPLE * (x * 23.0).sin() * bell;
        let jitter = noise.draw(&mut rng);
        bins.push((bell + ripple + jitter).max(0.0));
    }
    let raw = Trace::from_qps(bins, SimDuration::from_secs(1))?;
    Ok(raw.rescaled(config.min_qps, config.max_qps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffserve_simkit::time::SimTime;

    #[test]
    fn respects_qps_range() {
        let t = synthesize_azure_trace(&AzureTraceConfig::default()).unwrap();
        assert!((t.min_qps() - 4.0).abs() < 1e-9);
        assert!((t.max_qps() - 32.0).abs() < 1e-9);
        assert_eq!(t.len(), 350);
    }

    #[test]
    fn peak_is_near_configured_position() {
        let t = synthesize_azure_trace(&AzureTraceConfig::default()).unwrap();
        let (peak_idx, _) = t
            .bins()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        let frac = peak_idx as f64 / t.len() as f64;
        // Ripples and noise move the top bin off the bell's crest.
        assert!((frac - PEAK_POSITION).abs() < 0.1, "peak at {frac}");
    }

    #[test]
    fn starts_and_ends_near_trough() {
        let t = synthesize_azure_trace(&AzureTraceConfig::default()).unwrap();
        // The bell starts and ends at the trough, ripples and noise
        // included.
        assert!(t.qps_at(SimTime::ZERO) < 6.0);
        assert!(t.bins()[t.len() - 1] < 6.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = synthesize_azure_trace(&AzureTraceConfig::default()).unwrap();
        let b = synthesize_azure_trace(&AzureTraceConfig::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn cascade3_profile() {
        // The artifact uses 1→8 QPS for the heavier Cascade 3.
        let t = synthesize_azure_trace(&AzureTraceConfig {
            min_qps: 1.0,
            max_qps: 8.0,
            ..Default::default()
        })
        .unwrap();
        assert!((t.min_qps() - 1.0).abs() < 1e-9);
        assert!((t.max_qps() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_inverted_range() {
        let cfg = AzureTraceConfig {
            min_qps: 10.0,
            max_qps: 5.0,
            ..Default::default()
        };
        assert!(synthesize_azure_trace(&cfg).is_err());
    }
}
