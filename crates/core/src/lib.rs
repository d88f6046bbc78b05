//! # diffserve-core
//!
//! The DiffServe serving system (MLSys 2025): query-aware model scaling for
//! text-to-image diffusion serving.
//!
//! The system follows the paper's architecture (Fig. 2): a load balancer
//! routes every query to a worker hosting the lightweight model and the
//! discriminator; outputs whose calibrated confidence clears the threshold
//! return immediately, the rest escalate to heavyweight workers. A
//! controller periodically re-solves a MILP (§3.3) that jointly picks the
//! confidence threshold, per-tier worker counts, and batch sizes to
//! maximize response quality subject to throughput and SLO constraints.
//!
//! Modules:
//!
//! * [`query`] — queries, responses, model tiers.
//! * [`addons`] — add-on-aware serving: the LoRA/ControlNet module
//!   catalog, per-worker bounded LRU module caches, and hit/swap
//!   accounting.
//! * [`config`] — cluster/controller configuration.
//! * [`policy`] — DiffServe and the Table 1 baselines (Clipper-Light/Heavy,
//!   Proteus, DiffServe-Static) plus the Fig. 8 allocator ablations.
//! * [`allocator`] — the resource manager: the enumerating planners every
//!   tick runs (two-tier, N-tier ladder, Proteus, overload fallbacks) and
//!   the Eq. 1–5 MILP formulation (via `diffserve-milp`) that checks them.
//! * [`control`] — the backend-agnostic control plane: demand estimation →
//!   online/offline deferral-profile estimation → allocation planning,
//!   driven each control interval by both execution engines.
//! * [`kernel`] — the serving kernel: the service-time, routing,
//!   escalation and accounting model both engines call for every decision.
//! * [`runtime`] — offline-prepared artifacts (dataset, discriminator,
//!   deferral profile, FID reference).
//! * [`serve`] — the unified serving-session API: the [`ServingBackend`]
//!   trait and the incremental [`ServingSession`] (submit / run / poll /
//!   observe) behind which both the simulator and the cluster testbed sit.
//! * [`sim`] — the end-to-end discrete-event serving simulator.
//! * [`report`] — run reports consumed by the experiment harness.
//!
//! # Examples
//!
//! ```no_run
//! use diffserve_core::prelude::*;
//! use diffserve_imagegen::{cascade1, DiscriminatorConfig, FeatureSpec};
//! use diffserve_trace::Trace;
//! use diffserve_simkit::time::SimDuration;
//!
//! let runtime = CascadeRuntime::prepare(
//!     cascade1(FeatureSpec::default()),
//!     2000,
//!     42,
//!     DiscriminatorConfig::default(),
//! );
//! let config = SystemConfig::default();
//! let trace = Trace::constant(8.0, SimDuration::from_secs(120))?;
//! let report = run_trace(
//!     &runtime,
//!     &config,
//!     &RunSettings::new(Policy::DiffServe, 8.0),
//!     &trace,
//! );
//! println!("{}", report.summary());
//! # Ok::<(), diffserve_trace::TraceError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addons;
pub mod allocator;
pub mod config;
pub mod control;
pub mod kernel;
pub mod policy;
pub mod query;
pub mod report;
pub mod runtime;
pub mod serve;
pub mod sim;

pub use addons::{AddonCatalog, AddonModule, AddonStats, AddonsConfig, ModuleCache};
pub use allocator::{
    ladder_overload_fallback, overload_fallback, solve_exhaustive, solve_ladder,
    solve_milp_allocation, solve_milp_allocation_warm, solve_proteus, AllocWarmState,
    AllocatorInputs, LadderAllocation, LadderInputs, LadderWarmState,
};
pub use config::{ConfigError, LadderConfig, SystemConfig};
pub use control::{ControlDirective, ControlLoop, ControlObservation};
pub use diffserve_milp::WarmStart;
pub use kernel::Kernel;
pub use policy::{AblationKnobs, BatchPolicy, Policy, QueueModel};
pub use query::{CompletedResponse, QueryId};
pub use report::{RunReport, TierStats};
pub use runtime::{CascadeRuntime, LadderArtifacts, PreparedRuntime};
pub use serve::{
    ArrivalStream, BuildError, QueryOutcome, QuerySpec, QueryTicket, ServingBackend,
    ServingSession, SessionBuilder, SessionSnapshot, SessionSpec,
};
pub use sim::{run_scenario, run_trace, AllocatorBackend, RunSettings};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::addons::{AddonCatalog, AddonModule, AddonStats, AddonsConfig, ModuleCache};
    pub use crate::allocator::AllocatorInputs;
    pub use crate::config::{ConfigError, LadderConfig, SystemConfig};
    pub use crate::control::{ControlDirective, ControlLoop, ControlObservation};
    pub use crate::policy::{AblationKnobs, BatchPolicy, Policy, QueueModel};
    pub use crate::query::{CompletedResponse, QueryId};
    pub use crate::report::RunReport;
    pub use crate::runtime::{CascadeRuntime, LadderArtifacts};
    pub use crate::serve::{
        ArrivalStream, BuildError, QueryOutcome, QuerySpec, QueryTicket, ServingBackend,
        ServingSession, SessionBuilder, SessionSnapshot, SessionSpec,
    };
    pub use crate::sim::{run_scenario, run_trace, RunSettings};
}
