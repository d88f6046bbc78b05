//! # diffserve-simkit
//!
//! Discrete-event simulation substrate for the DiffServe reproduction
//! (MLSys 2025, "DiffServe: Efficiently Serving Text-to-Image Diffusion
//! Models with Query-Aware Model Scaling").
//!
//! The paper's primary evaluation vehicle is a discrete-event simulator of a
//! GPU serving cluster; this crate provides the simulation machinery it is
//! built on:
//!
//! * [`time`] — integer-microsecond simulated time ([`SimTime`],
//!   [`SimDuration`]) for exact, platform-independent event ordering.
//! * [`event`] — a deterministic time-ordered [`EventQueue`] with FIFO
//!   tie-breaking.
//! * [`slab`] — a slot-addressed arena ([`Slab`]) for per-entity records
//!   that are retired when the entity leaves the simulation.
//! * [`rng`] — seeded RNG helpers and from-scratch samplers (exponential,
//!   normal, gamma, beta).
//! * [`stats`] — online statistics ([`stats::Welford`]) used by
//!   experiment harnesses.
//!
//! # Examples
//!
//! ```
//! use diffserve_simkit::prelude::*;
//!
//! // A Poisson arrival process with deterministic replay.
//! let exp = Exponential::new(20.0)?;
//! let mut rng = seeded_rng(7);
//! let mut t = SimTime::ZERO;
//! let mut queue = EventQueue::new();
//! for i in 0..100u32 {
//!     t += SimDuration::from_secs_f64(exp.draw(&mut rng));
//!     queue.push(t, i);
//! }
//! assert_eq!(queue.len(), 100);
//! # Ok::<(), diffserve_simkit::rng::DistributionError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod event;
pub mod rng;
pub mod slab;
pub mod stats;
pub mod time;

pub use event::EventQueue;
pub use rng::{seeded_rng, Sampler};
pub use slab::{Slab, Slot};
pub use time::{SimDuration, SimTime};

/// Convenience re-exports for simulation code.
pub mod prelude {
    pub use crate::event::EventQueue;
    pub use crate::rng::{derive_seed, seeded_rng, Beta, Exponential, Gamma, Normal, Sampler};
    pub use crate::slab::{Slab, Slot};
    pub use crate::stats::Welford;
    pub use crate::time::{SimDuration, SimTime};
}
