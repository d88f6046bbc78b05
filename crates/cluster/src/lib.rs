//! # diffserve-cluster
//!
//! Thread-based testbed runtime for the DiffServe reproduction.
//!
//! The paper's evaluation runs on two implementations: a discrete-event
//! simulator (in `diffserve-core`) and a 16×A100 cluster testbed with gRPC
//! communication. This crate stands in for the latter: real threads, a job
//! queue per worker, real wall-clock time — with model execution
//! replaced by sleeping the profiled latency scaled by a time scale (the
//! wall-clock seconds per simulated second). Comparing its measurements
//! against the simulator reproduces the paper's validation experiment
//! (§4.3: 0.56% FID and 1.1% SLO-violation gap).
//!
//! # Examples
//!
//! ```no_run
//! use diffserve_cluster::run_cluster;
//! use diffserve_core::{CascadeRuntime, Policy, RunSettings, SystemConfig};
//! use diffserve_imagegen::{cascade1, DiscriminatorConfig, FeatureSpec};
//! use diffserve_trace::Trace;
//! use diffserve_simkit::time::SimDuration;
//!
//! let runtime = CascadeRuntime::prepare(
//!     cascade1(FeatureSpec::default()), 2000, 42, DiscriminatorConfig::default());
//! let trace = Trace::constant(8.0, SimDuration::from_secs(60))?;
//! let report = run_cluster(
//!     &runtime,
//!     &SystemConfig::default(),
//!     &RunSettings::new(Policy::DiffServe, 8.0),
//!     &trace,
//!     0.02,
//! );
//! println!("{}", report.summary());
//! # Ok::<(), diffserve_trace::TraceError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod plan;
pub mod runtime;

pub use plan::ServingPlan;
pub use runtime::{run_cluster, run_cluster_scenario, ClusterBackend, ClusterSessionExt};
