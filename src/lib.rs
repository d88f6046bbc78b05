//! # DiffServe — query-aware model scaling for diffusion serving
//!
//! A from-scratch Rust reproduction of **"DiffServe: Efficiently Serving
//! Text-to-Image Diffusion Models with Query-Aware Model Scaling"**
//! (MLSys 2025).
//!
//! DiffServe serves text-to-image queries through a *cascade*: a fast,
//! lightweight diffusion model renders every query first; a learned
//! discriminator scores each output's realism; outputs that clear a
//! confidence threshold are returned immediately, and only the rest pay for
//! the heavyweight model. A controller re-solves a MILP every few seconds
//! to pick the threshold, worker split, and batch sizes that maximize
//! response quality under throughput and latency-SLO constraints.
//!
//! This crate is the workspace facade — it re-exports every subsystem:
//!
//! | crate | role |
//! |-------|------|
//! | [`simkit`] | discrete-event engine, seeded distributions, online stats |
//! | [`linalg`] | dense matrices, eigendecomposition, PSD matrix sqrt |
//! | [`nn`] | MLP substrate for the discriminator |
//! | [`milp`] | LP (simplex) + MILP (branch & bound) solver |
//! | [`workload`] | traces, Poisson arrivals, Azure-style diurnal curves |
//! | [`imagegen`] | synthetic diffusion-model zoo + discriminator + scorers |
//! | [`metrics`] | exact Fréchet distance (FID), SLO accounting |
//! | [`serving`] | the serving system: cascade, workers, controller, policies |
//! | [`cluster`] | thread-based testbed runtime |
//!
//! # Quickstart
//!
//! Serving runs through a [`ServingSession`](serving::ServingSession): a
//! fluent builder validates the whole configuration up front, then the
//! session is driven incrementally — submit queries, advance time, poll
//! outcomes, tap live metrics — and `finish()` yields the final
//! [`RunReport`](serving::RunReport):
//!
//! ```no_run
//! use diffserve::prelude::*;
//!
//! // Prepare Cascade 1 (SD-Turbo → SDv1.5): synthesize the dataset, train
//! // the discriminator, profile the deferral curve f(t).
//! let runtime = CascadeRuntime::prepare(
//!     cascade1(FeatureSpec::default()),
//!     5000,
//!     42,
//!     DiscriminatorConfig::default(),
//! );
//!
//! // Serve a diurnal trace with the full DiffServe policy on 16 workers.
//! let trace = synthesize_azure_trace(&AzureTraceConfig::default())?;
//! let mut session = ServingSession::builder()
//!     .runtime(&runtime)
//!     .config(SystemConfig::default())
//!     .policy(Policy::DiffServe)
//!     .build()?;
//! session.observer(|snap| {
//!     println!(
//!         "t={} threshold={:.2} queues={:?}",
//!         snap.now, snap.thresholds[0], snap.tier_queues
//!     );
//! });
//! session.replay_trace(&trace);
//! session.run_until(SimTime::ZERO + trace.duration());
//! let report = session.finish();
//! println!("{}", report.summary());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The batch entry points (`run_trace`, `run_scenario`, `run_cluster`,
//! `run_cluster_scenario`) remain available as thin wrappers over a
//! session and produce identical reports. Swap `.build()` for
//! `.build_cluster(time_scale)` (from [`ClusterSessionExt`](cluster::ClusterSessionExt))
//! to drive the thread-based testbed through the same API.
//!
//! See `ARCHITECTURE.md` for the paper-to-code map (including the legacy →
//! session migration table). The `repro` binary of `diffserve-bench`
//! reproduces every table and figure.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub use diffserve_cluster as cluster;
pub use diffserve_core as serving;
pub use diffserve_imagegen as imagegen;
pub use diffserve_linalg as linalg;
pub use diffserve_metrics as metrics;
pub use diffserve_milp as milp;
pub use diffserve_nn as nn;
pub use diffserve_simkit as simkit;
pub use diffserve_trace as workload;

/// One-stop imports for applications.
///
/// Everything the quickstart needs compiles from `use diffserve::prelude::*`
/// alone: the session API (`ServingSession`, `SessionBuilder`, `QuerySpec`,
/// `SessionSnapshot`, …), both run paths' batch wrappers, the cluster
/// testbed types (`ServingPlan`, `ClusterSessionExt::build_cluster`), and
/// the workload/scenario builders.
pub mod prelude {
    pub use diffserve_cluster::{
        run_cluster, run_cluster_scenario, ClusterBackend, ClusterSessionExt, ServingPlan,
    };
    pub use diffserve_core::prelude::*;
    pub use diffserve_imagegen::prelude::*;
    pub use diffserve_metrics::{fid_score, GaussianStats, SloTracker};
    pub use diffserve_simkit::prelude::*;
    pub use diffserve_trace::{
        poisson_arrivals, standard_scenarios, style_shift_flash_crowd, synthesize_azure_trace,
        AddonMix, AzureTraceConfig, CapacityEvent, DemandEstimator, FleetHealth, Hazard,
        HazardProcess, Incident, IncidentLog, Perturbation, PoissonArrivals, Scenario,
        ScenarioError, ScenarioEvent, Trace, TrendWindow,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let spec = FeatureSpec::default();
        let c = cascade1(spec);
        assert_eq!(c.name, "sdturbo");
        assert!(SystemConfig::default().validate().is_ok());
    }
}
