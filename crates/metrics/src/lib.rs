//! # diffserve-metrics
//!
//! Evaluation metrics for the DiffServe reproduction.
//!
//! The paper judges a serving system on two axes (§4.1):
//!
//! 1. **Response quality** — Fréchet Inception Distance between the features
//!    of the system's generated images and a reference set of real images.
//!    [`fid`] computes the distance exactly over the synthetic feature
//!    vectors produced by `diffserve-imagegen`.
//! 2. **SLO violation ratio** — the fraction of queries that finish late or
//!    are preemptively dropped. [`slo`] implements that accounting,
//!    including the per-window counts behind the time series of Figs. 5
//!    and 8.
//!
//! [`series`] provides the generic windowed aggregation used for demand and
//! threshold plots, and [`rolling`] buffers the most recent feature rows for
//! the live windowed FID estimate of per-snapshot taps.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fid;
pub mod rolling;
pub mod series;
pub mod slo;

pub use fid::{
    fid_score, frechet_distance, CenteredMoments, FidError, FrechetKernel, GaussianStats,
};
pub use rolling::RollingFid;
pub use series::WindowedSeries;
pub use slo::{QueryOutcome, SloTracker, ViolationWindows};
