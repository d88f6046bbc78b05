//! # diffserve-trace
//!
//! Workload substrate for the DiffServe reproduction: demand traces, arrival
//! processes, synthetic Azure-Functions-style diurnal curves, and the
//! controller's demand estimator.
//!
//! The paper (§4.1) drives its dynamic experiments with the Microsoft Azure
//! Functions trace scaled shape-preservingly to cluster capacity (e.g.
//! 4→32 QPS over ~350 s for Cascade 1 on 16 workers, 1→8 QPS for Cascade 3).
//! [`synthesize_azure_trace`] regenerates curves with the same structure and
//! [`Trace::rescaled`] implements the same shape-preserving transformation.
//!
//! # Examples
//!
//! ```
//! use diffserve_trace::{poisson_arrivals, synthesize_azure_trace, AzureTraceConfig};
//! use diffserve_simkit::rng::seeded_rng;
//!
//! let trace = synthesize_azure_trace(&AzureTraceConfig::default())?;
//! let arrivals = poisson_arrivals(&trace, &mut seeded_rng(1));
//! assert!(arrivals.len() > 1000);
//! # Ok::<(), diffserve_trace::TraceError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addon_mix;
pub mod arrival;
pub mod azure;
pub mod burst;
pub mod demand;
pub mod scenario;
mod trace;

pub use addon_mix::{AddonMix, TrendWindow};
pub use arrival::{poisson_arrivals, PoissonArrivals};
pub use azure::{synthesize_azure_trace, AzureTraceConfig};
pub use burst::{bursty_arrivals, BurstConfig};
pub use demand::DemandEstimator;
pub use scenario::{
    standard_scenarios, style_shift_flash_crowd, CapacityEvent, FleetHealth, Hazard, HazardProcess,
    Incident, IncidentLog, Perturbation, Scenario, ScenarioError, ScenarioEvent,
};
pub use trace::{Trace, TraceError};
