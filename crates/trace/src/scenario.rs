//! Scenarios: a base demand trace composed with timed perturbations.
//!
//! The paper evaluates DiffServe on smoothly varying demand (the Azure
//! Functions trace, §4.1), but a production serving system also faces
//! *capacity churn* (GPU workers failing and rejoining), *flash crowds*
//! (multiplicative demand spikes with steep ramps), *demand shocks*
//! (persistent level shifts), and *difficulty shifts* (the prompt-hardness
//! mix changing, which raises the cascade's deferral rate even at constant
//! QPS). A [`Scenario`] describes all of these declaratively so that the
//! discrete-event simulator (`diffserve_core::run_scenario`) and the
//! thread-based testbed (`diffserve_cluster::run_cluster_scenario`) can
//! replay exactly the same stress from one value.
//!
//! Demand-side [`Perturbation`]s (flash crowds, demand shifts, style
//! shifts) are *baked into the arrival stream* via
//! [`Scenario::effective_trace`] and the session's add-on draw. Capacity
//! churn and difficulty shifts are stored as the [`Incident`]s the run
//! paths log when they fire; [`Scenario::timeline`] hands them to the event
//! loops in firing order, and [`FleetHealth::after`] is the one rule that
//! checks each of them, scheduled, injected or replayed.
//!
//! # Examples
//!
//! ```
//! use diffserve_trace::{Scenario, Trace};
//! use diffserve_simkit::time::{SimDuration, SimTime};
//!
//! let base = Trace::constant(6.0, SimDuration::from_secs(120))?;
//! let scenario = Scenario::new("failover", base)
//!     .worker_fail(SimTime::from_secs(40), 2)
//!     .worker_recover(SimTime::from_secs(80), 2);
//! scenario.validate(8)?;
//! assert_eq!(scenario.timeline().len(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use diffserve_simkit::rng::{derive_seed, seeded_rng};
use diffserve_simkit::time::{SimDuration, SimTime};
use rand::Rng;

use crate::addon_mix::TrendWindow;
use crate::trace::Trace;

/// RNG stream tag for hazard draws, so the fault engine never shares a
/// stream with arrival generation or routing.
const HAZARD_SEED_STREAM: u64 = 0x4A7A;

/// One demand-side perturbation applied on top of a scenario's base trace.
/// All three are baked into the arrival stream; what the event loops fire
/// (worker churn, degradation, difficulty shifts) is a scheduled
/// [`Incident`] instead.
#[derive(Debug, Clone, PartialEq)]
pub enum Perturbation {
    /// A multiplicative rate spike: demand ramps from ×1 to ×`factor` over
    /// `ramp`, holds at ×`factor` for `hold`, then ramps back down over
    /// `ramp`.
    FlashCrowd {
        /// Start of the up-ramp.
        start: SimTime,
        /// Up- and down-ramp duration (zero = step).
        ramp: SimDuration,
        /// Duration at full amplitude.
        hold: SimDuration,
        /// Peak demand multiplier (> 0; > 1 for a crowd, < 1 for an outage
        /// of an upstream traffic source).
        factor: f64,
    },
    /// A persistent demand level change: every rate from `at` onward is
    /// multiplied by `factor`.
    DemandShift {
        /// Shift instant.
        at: SimTime,
        /// Demand multiplier applied from `at` to the trace end.
        factor: f64,
    },
    /// A style-shift: during the window, a trending add-on module captures
    /// `share` of all add-on-carrying queries, displacing the steady-state
    /// popularity ranking. If the trending module is not already resident
    /// in the workers' module caches, the surge thrashes them — every cache
    /// must swap it in at once. The session appends the window to its
    /// add-on mix.
    StyleShift(TrendWindow),
}

impl Perturbation {
    /// The instant this perturbation begins to act.
    pub fn onset(&self) -> SimTime {
        match *self {
            Perturbation::FlashCrowd { start, .. } => start,
            Perturbation::DemandShift { at, .. } => at,
            Perturbation::StyleShift(window) => window.start,
        }
    }
}

/// A change to the worker fleet, in the form the run paths fire in their
/// event loops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CapacityEvent {
    /// This many workers fail-stop (the highest-indexed alive ones): their
    /// queued and in-flight work is retried elsewhere and the controller
    /// re-solves against the shrunken pool.
    Fail(usize),
    /// This many failed workers rejoin (the lowest-indexed ones), paying
    /// the model load delay before serving again.
    Recover(usize),
    /// This many healthy workers (the lowest-indexed ones) stay alive but
    /// run every batch at `slowdown`× its nameplate latency: a throttled
    /// GPU, a noisy neighbor, a straggler. No work is lost, it drains
    /// slower. Best-effort: if fewer healthy workers exist, only those
    /// degrade and the incident log records the count applied (a fail-stop
    /// can erase a degradation mid-timeline, so a strict rule would reject
    /// legitimately recorded hazard logs).
    Degrade(usize, f64),
    /// This many degraded workers (the lowest-indexed ones) return to
    /// nameplate speed.
    Restore(usize),
}

/// One event a run path fires in its event loop (demand perturbations are
/// not events — they live in [`Scenario::effective_trace`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScenarioEvent {
    /// Worker churn.
    Capacity(CapacityEvent),
    /// The active prompt-difficulty offset becomes this value. Harder
    /// prompts lower discriminator confidence, raising the cascade's
    /// deferral rate (paper Eq. 3's `f(t)` shifts up) at constant QPS.
    /// Offsets replace each other; they do not stack.
    Difficulty(f64),
}

impl ScenarioEvent {
    /// State-independent validity of one event: capacity counts must be
    /// non-zero, slowdowns finite and `>= 1`, difficulty offsets finite and
    /// in `[-1, 1]`. [`FleetHealth::after`] runs this before the
    /// fleet-state rules.
    ///
    /// # Errors
    ///
    /// Returns the violated invariant as a typed [`ScenarioError`].
    pub fn validate(&self) -> Result<(), ScenarioError> {
        match *self {
            ScenarioEvent::Capacity(
                CapacityEvent::Fail(0)
                | CapacityEvent::Recover(0)
                | CapacityEvent::Degrade(0, _)
                | CapacityEvent::Restore(0),
            ) => Err(ScenarioError::ZeroWorkers),
            ScenarioEvent::Capacity(CapacityEvent::Degrade(_, slowdown))
                if !slowdown.is_finite() || slowdown < 1.0 =>
            {
                Err(ScenarioError::InvalidSlowdown { slowdown })
            }
            ScenarioEvent::Difficulty(delta)
                if !delta.is_finite() || !(-1.0..=1.0).contains(&delta) =>
            {
                Err(ScenarioError::InvalidDelta { delta })
            }
            _ => Ok(()),
        }
    }
}

/// One event stamped with its firing instant — the unit of both a
/// scenario's schedule and the incident record/replay loop. A [`Scenario`]
/// stores its scheduled events as incidents; both engines append every
/// event they fire (scheduled, injected, and hazard-drawn) to the
/// [`RunReport`]'s incident log, and [`Scenario::from_incident_log`] turns
/// a recorded log back into a replayable scenario.
///
/// [`RunReport`]: https://docs.rs/diffserve-core
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Incident {
    /// When the perturbation fired.
    pub at: SimTime,
    /// What fired.
    pub event: ScenarioEvent,
}

/// A recorded perturbation history: what a run's fault engine actually did.
pub type IncidentLog = Vec<Incident>;

/// A load-correlated hazard process: instead of (only) scheduling
/// perturbations at fixed times, a scenario may carry a `Hazard` that draws
/// failures and degradations *online* from the fleet's instantaneous
/// utilization. The draw is seeded and deterministic given the utilization
/// trajectory, which the discrete-event simulator makes bit-reproducible.
///
/// Every rate is a per-second hazard rate for a fleet-level event; the
/// failure and degradation rates are boosted by
/// `1 + load_coupling × utilization`, so a saturated fleet faults more —
/// the "failures correlate with load" regime the ROADMAP calls for. One
/// failed worker rejoins, and one degraded worker returns to nameplate
/// speed, at a fixed 0.02 per second each (not load-coupled); a drawn
/// degradation slows its worker by a factor uniform in `[1.5, 3]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hazard {
    /// Seed for the hazard's private RNG stream.
    pub seed: u64,
    /// Per-second baseline rate of a single-worker fail-stop at zero load.
    pub fail_rate: f64,
    /// Per-second baseline rate of a single-worker degradation at zero
    /// load.
    pub degrade_rate: f64,
    /// Slope of the load boost: the fail/degrade rates are multiplied by
    /// `1 + load_coupling × utilization`.
    pub load_coupling: f64,
}

impl Default for Hazard {
    fn default() -> Self {
        Hazard {
            seed: 0x4A2D,
            fail_rate: 0.002,
            degrade_rate: 0.01,
            load_coupling: 4.0,
        }
    }
}

/// Per-second rate of one failed worker rejoining.
const RECOVER_RATE: f64 = 0.02;
/// Per-second rate of one degraded worker returning to nameplate speed.
const RESTORE_RATE: f64 = 0.02;
/// Smallest slowdown a drawn degradation applies.
const MIN_SLOWDOWN: f64 = 1.5;
/// Largest slowdown a drawn degradation applies.
const MAX_SLOWDOWN: f64 = 3.0;

impl Hazard {
    /// Checks the hazard parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::InvalidHazard`] if a rate or the load
    /// coupling is negative or non-finite.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        for r in [self.fail_rate, self.degrade_rate, self.load_coupling] {
            if !r.is_finite() || r < 0.0 {
                return Err(ScenarioError::InvalidHazard {
                    reason: "rates and load coupling must be finite and non-negative",
                });
            }
        }
        Ok(())
    }
}

/// Live fleet counts: what a hazard draw conditions on and what every
/// fired event is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetHealth {
    /// Workers currently alive (not fail-stopped).
    pub alive: usize,
    /// Workers currently fail-stopped.
    pub failed: usize,
    /// Alive workers currently running degraded.
    pub degraded: usize,
}

impl FleetHealth {
    /// The fleet after `event` fires at `at`: the one fleet-health rule.
    /// [`Scenario::validate`] folds it over the scheduled timeline, and
    /// both engines apply it to every injected event, so a bad event never
    /// reaches the incident log and the recording stays replayable.
    ///
    /// [`ScenarioEvent::validate`] runs first, then the fleet-state rules:
    /// a failure must leave two workers alive (one per tier), a recovery
    /// cannot name more workers than are failed, a restoration no more than
    /// are degraded. The update is conservative where the worker picks are
    /// not known here: a failure keeps at most the survivors degraded, and
    /// a degradation degrades at most every alive worker.
    ///
    /// # Errors
    ///
    /// Returns the violated invariant as a typed [`ScenarioError`].
    pub fn after(self, at: SimTime, event: &ScenarioEvent) -> Result<FleetHealth, ScenarioError> {
        event.validate()?;
        let ScenarioEvent::Capacity(capacity) = *event else {
            return Ok(self);
        };
        let FleetHealth {
            mut alive,
            mut failed,
            mut degraded,
        } = self;
        match capacity {
            CapacityEvent::Fail(n) => {
                alive = alive.saturating_sub(n);
                if alive < 2 {
                    return Err(ScenarioError::PoolExhausted { at, alive });
                }
                failed += n;
                degraded = degraded.min(alive);
            }
            CapacityEvent::Recover(n) => {
                if n > failed {
                    return Err(ScenarioError::RecoverWithoutFailure { at });
                }
                failed -= n;
                alive += n;
            }
            CapacityEvent::Degrade(n, _) => degraded = degraded.saturating_add(n).min(alive),
            CapacityEvent::Restore(n) => {
                if n > degraded {
                    return Err(ScenarioError::RestoreWithoutDegrade { at });
                }
                degraded -= n;
            }
        }
        Ok(FleetHealth {
            alive,
            failed,
            degraded,
        })
    }
}

/// The runtime state of a [`Hazard`]: the spec, its seeded RNG stream and
/// its cadence. Both engines check the hazard on the control clock, at the
/// half-phase of each control interval (`(k + ½)·interval`), so a check
/// never shares an instant with a control tick and incident replay never
/// has to re-order the two.
#[derive(Debug, Clone)]
pub struct HazardProcess {
    spec: Hazard,
    interval: SimDuration,
    /// The elapsed time the next [`HazardProcess::step`] covers: half an
    /// interval for the first check, a whole one after.
    dt: SimDuration,
    rng: rand::rngs::StdRng,
}

impl HazardProcess {
    /// Builds the process from its spec and the session's control
    /// interval, deriving the private RNG stream.
    pub fn new(spec: Hazard, control_interval: SimDuration) -> Self {
        HazardProcess {
            rng: seeded_rng(derive_seed(spec.seed, HAZARD_SEED_STREAM)),
            spec,
            interval: control_interval,
            dt: control_interval / 2,
        }
    }

    /// The first check instant: half a control interval in. Later checks
    /// follow one interval apart.
    pub fn first_check(&self) -> SimTime {
        SimTime::ZERO + self.interval / 2
    }

    /// One hazard evaluation covering the time since the last check (half
    /// an interval on the first call, since the simulation started): draws
    /// at most one failure, one degradation, one recovery, and one
    /// restoration. The draw count per step is fixed, never dependent on
    /// outcomes, so the RNG stream is identical across runs; only the
    /// utilization trajectory steers which events fire.
    ///
    /// Guards keep the drawn events always-valid: failures never shrink the
    /// pool below two alive workers (one per tier), degradations only hit
    /// healthy workers, and recoveries/restorations only fire when there is
    /// something to recover/restore. The guards are not a fold of
    /// [`FleetHealth::after`]: recovery and restoration read the counts
    /// from before the step, and the replay tests pin this draw stream.
    pub fn step(&mut self, utilization: f64, fleet: FleetHealth) -> Vec<ScenarioEvent> {
        let dt = std::mem::replace(&mut self.dt, self.interval).as_secs_f64();
        let boost = 1.0 + self.spec.load_coupling * utilization.clamp(0.0, 1.0);
        let p = |rate: f64| 1.0 - (-rate * dt).exp();
        // Fixed draw order and count per step.
        let u_fail: f64 = self.rng.gen_range(0.0..1.0);
        let u_degrade: f64 = self.rng.gen_range(0.0..1.0);
        let u_slowdown: f64 = self.rng.gen_range(0.0..1.0);
        let u_recover: f64 = self.rng.gen_range(0.0..1.0);
        let u_restore: f64 = self.rng.gen_range(0.0..1.0);

        let mut events = Vec::new();
        let mut alive = fleet.alive;
        let mut degraded = fleet.degraded;
        if u_fail < p(self.spec.fail_rate * boost) && alive > 2 {
            events.push(ScenarioEvent::Capacity(CapacityEvent::Fail(1)));
            alive -= 1;
            // A degraded worker that dies stops counting as degraded.
            degraded = degraded.min(alive);
        }
        if u_degrade < p(self.spec.degrade_rate * boost) && degraded < alive {
            let slowdown = MIN_SLOWDOWN + (MAX_SLOWDOWN - MIN_SLOWDOWN) * u_slowdown;
            events.push(ScenarioEvent::Capacity(CapacityEvent::Degrade(1, slowdown)));
        }
        if u_recover < p(RECOVER_RATE) && fleet.failed > 0 {
            events.push(ScenarioEvent::Capacity(CapacityEvent::Recover(1)));
        }
        // Restoration conditions on the *pre-step* degraded count so a
        // degradation drawn this very step is not instantly undone.
        if u_restore < p(RESTORE_RATE) && fleet.degraded.min(alive) > 0 {
            events.push(ScenarioEvent::Capacity(CapacityEvent::Restore(1)));
        }
        events
    }
}

/// An invalid [`Scenario`].
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// A demand multiplier was non-positive or non-finite.
    InvalidFactor {
        /// The offending multiplier.
        factor: f64,
    },
    /// A difficulty offset fell outside `[-1, 1]` or was non-finite.
    InvalidDelta {
        /// The offending offset.
        delta: f64,
    },
    /// A churn perturbation named zero workers.
    ZeroWorkers,
    /// At some instant the surviving pool would drop below two workers
    /// (the serving system needs one worker per tier).
    PoolExhausted {
        /// When the pool would become too small.
        at: SimTime,
        /// Workers that would remain alive.
        alive: usize,
    },
    /// A recovery names more workers than are currently failed.
    RecoverWithoutFailure {
        /// When the invalid recovery fires.
        at: SimTime,
    },
    /// A degradation's slowdown was non-finite or below 1.
    InvalidSlowdown {
        /// The offending slowdown.
        slowdown: f64,
    },
    /// A restoration names more workers than are currently degraded.
    RestoreWithoutDegrade {
        /// When the invalid restoration fires.
        at: SimTime,
    },
    /// The attached hazard process has invalid parameters.
    InvalidHazard {
        /// Which invariant the hazard violates.
        reason: &'static str,
    },
    /// A style-shift share fell outside `(0, 1]` or was non-finite.
    InvalidShare {
        /// The offending share.
        share: f64,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::InvalidFactor { factor } => {
                write!(f, "demand multiplier must be positive, got {factor}")
            }
            ScenarioError::InvalidDelta { delta } => {
                write!(f, "difficulty offset must lie in [-1, 1], got {delta}")
            }
            ScenarioError::ZeroWorkers => {
                write!(f, "worker churn must name at least one worker")
            }
            ScenarioError::PoolExhausted { at, alive } => write!(
                f,
                "at {at} only {alive} workers would remain (need at least 2, one per tier)"
            ),
            ScenarioError::RecoverWithoutFailure { at } => {
                write!(f, "recovery at {at} names more workers than have failed")
            }
            ScenarioError::InvalidSlowdown { slowdown } => {
                write!(f, "slowdown must be finite and >= 1, got {slowdown}")
            }
            ScenarioError::RestoreWithoutDegrade { at } => {
                write!(
                    f,
                    "restoration at {at} names more workers than are degraded"
                )
            }
            ScenarioError::InvalidHazard { reason } => {
                write!(f, "invalid hazard process: {reason}")
            }
            ScenarioError::InvalidShare { share } => {
                write!(f, "style-shift share must lie in (0, 1], got {share}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// A named stress scenario: a base demand trace plus timed perturbations.
///
/// Build one with [`Scenario::new`] and the chained perturbation methods,
/// then hand the *same value* to `diffserve_core::run_scenario` and
/// `diffserve_cluster::run_cluster_scenario` — both replay the identical
/// arrival stream, capacity churn, and difficulty schedule.
///
/// # Examples
///
/// ```
/// use diffserve_trace::{Scenario, Trace};
/// use diffserve_simkit::time::{SimDuration, SimTime};
///
/// let base = Trace::constant(4.0, SimDuration::from_secs(100))?;
/// let s = Scenario::new("flash", base)
///     .flash_crowd(
///         SimTime::from_secs(30),
///         SimDuration::from_secs(10),
///         SimDuration::from_secs(20),
///         3.0,
///     );
/// let eff = s.effective_trace();
/// // Before the crowd the rate is the base rate; at full amplitude it is 3x.
/// assert_eq!(eff.qps_at(SimTime::from_secs(10)), 4.0);
/// assert_eq!(eff.qps_at(SimTime::from_secs(50)), 12.0);
/// # Ok::<(), diffserve_trace::TraceError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    name: String,
    base: Trace,
    perturbations: Vec<Perturbation>,
    /// Scheduled loop events, in insertion order.
    events: IncidentLog,
    hazard: Option<Hazard>,
}

impl Scenario {
    /// Creates a scenario with no perturbations (replays `base` unchanged).
    pub fn new(name: impl Into<String>, base: Trace) -> Self {
        Scenario {
            name: name.into(),
            base,
            perturbations: Vec::new(),
            events: Vec::new(),
            hazard: None,
        }
    }

    /// Rebuilds a replayable scenario from a recorded [`IncidentLog`]: the
    /// log becomes the schedule, and no hazard is attached — the randomness
    /// already collapsed into the log. On the discrete-event simulator,
    /// replaying the log of a seeded hazard run reproduces the original
    /// [`RunReport`] bit-exactly, which turns "a weird run happened" into a
    /// regression test.
    ///
    /// `base` must be the trace the original run drew arrivals from (for a
    /// scenario with demand perturbations, its
    /// [`effective_trace`](Scenario::effective_trace) — or use
    /// [`Scenario::replay`] to keep the demand perturbations symbolic).
    ///
    /// [`RunReport`]: https://docs.rs/diffserve-core
    pub fn from_incident_log(name: impl Into<String>, base: Trace, log: &[Incident]) -> Self {
        Scenario {
            events: log.to_vec(),
            ..Scenario::new(name, base)
        }
    }

    /// The replay counterpart of running *this* scenario: keeps the base
    /// trace and the demand-side perturbations (they are baked into the
    /// arrival stream, not logged), drops the scheduled events and the
    /// hazard, and schedules the recorded log instead.
    pub fn replay(&self, log: &[Incident]) -> Scenario {
        Scenario {
            perturbations: self.perturbations.clone(),
            ..Scenario::from_incident_log(format!("{}-replay", self.name), self.base.clone(), log)
        }
    }

    /// Scenario name (used in reports and experiment tables).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The unperturbed base trace.
    pub fn base(&self) -> &Trace {
        &self.base
    }

    /// Onset times of every perturbation and scheduled event (seconds),
    /// sorted ascending — what recovery-time measurements anchor to.
    pub fn perturbation_onsets(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .perturbations
            .iter()
            .map(Perturbation::onset)
            .chain(self.events.iter().map(|inc| inc.at))
            .map(SimTime::as_secs_f64)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Appends a demand-side perturbation.
    pub fn with(mut self, p: Perturbation) -> Self {
        self.perturbations.push(p);
        self
    }

    /// Schedules `event` to fire at `at`.
    fn schedule(mut self, at: SimTime, event: ScenarioEvent) -> Self {
        self.events.push(Incident { at, event });
        self
    }

    /// `count` workers fail-stop at `at` ([`CapacityEvent::Fail`]).
    pub fn worker_fail(self, at: SimTime, count: usize) -> Self {
        self.schedule(at, ScenarioEvent::Capacity(CapacityEvent::Fail(count)))
    }

    /// `count` failed workers rejoin at `at` ([`CapacityEvent::Recover`]).
    pub fn worker_recover(self, at: SimTime, count: usize) -> Self {
        self.schedule(at, ScenarioEvent::Capacity(CapacityEvent::Recover(count)))
    }

    /// `count` workers degrade to `slowdown`× service times at `at`
    /// ([`CapacityEvent::Degrade`]).
    pub fn worker_degrade(self, at: SimTime, count: usize, slowdown: f64) -> Self {
        self.schedule(
            at,
            ScenarioEvent::Capacity(CapacityEvent::Degrade(count, slowdown)),
        )
    }

    /// `count` degraded workers return to nameplate speed at `at`
    /// ([`CapacityEvent::Restore`]).
    pub fn worker_restore(self, at: SimTime, count: usize) -> Self {
        self.schedule(at, ScenarioEvent::Capacity(CapacityEvent::Restore(count)))
    }

    /// Attaches a load-correlated [`Hazard`] process: the run paths draw
    /// failures and degradations online from instantaneous utilization
    /// (seeded, deterministic on the simulator) and log everything that
    /// fires into the report's incident log.
    pub fn with_hazard(mut self, hazard: Hazard) -> Self {
        self.hazard = Some(hazard);
        self
    }

    /// The attached hazard process, if any.
    pub fn hazard(&self) -> Option<Hazard> {
        self.hazard
    }

    /// A flash crowd: ramp to ×`factor` over `ramp`, hold for `hold`, ramp
    /// back down over `ramp`.
    pub fn flash_crowd(
        self,
        start: SimTime,
        ramp: SimDuration,
        hold: SimDuration,
        factor: f64,
    ) -> Self {
        self.with(Perturbation::FlashCrowd {
            start,
            ramp,
            hold,
            factor,
        })
    }

    /// A persistent ×`factor` demand shift from `at` onward.
    pub fn demand_shift(self, at: SimTime, factor: f64) -> Self {
        self.with(Perturbation::DemandShift { at, factor })
    }

    /// A prompt-difficulty offset of `delta` active from `at` onward
    /// ([`ScenarioEvent::Difficulty`]).
    pub fn difficulty_shift(self, at: SimTime, delta: f64) -> Self {
        self.schedule(at, ScenarioEvent::Difficulty(delta))
    }

    /// A style-shift: for `duration` from `start`, add-on module `module`
    /// captures `share` of all add-on-carrying queries (a trending LoRA).
    pub fn style_shift(
        self,
        start: SimTime,
        duration: SimDuration,
        module: usize,
        share: f64,
    ) -> Self {
        self.with(Perturbation::StyleShift(TrendWindow {
            start,
            duration,
            module,
            share,
        }))
    }

    /// The style-shift windows, in insertion order — what the serving
    /// session appends to its add-on mix so the trend is baked into the
    /// per-query draw.
    pub fn style_shift_windows(&self) -> Vec<TrendWindow> {
        self.perturbations
            .iter()
            .filter_map(|p| match *p {
                Perturbation::StyleShift(window) => Some(window),
                _ => None,
            })
            .collect()
    }

    /// A correlated-failure sequence: `initial` workers fail-stop at `at`,
    /// then the fault propagates — `follow_on` further single-worker
    /// failures fire, staggered evenly across the `window` that follows.
    /// This models cascading faults (a rack losing power, a bad rollout
    /// marching through a fleet) where failures cluster in time instead of
    /// striking independently; a zero `window` collapses every follow-on
    /// into the initial instant.
    ///
    /// # Examples
    ///
    /// ```
    /// use diffserve_trace::{Scenario, Trace};
    /// use diffserve_simkit::time::{SimDuration, SimTime};
    ///
    /// let base = Trace::constant(4.0, SimDuration::from_secs(120))?;
    /// let s = Scenario::new("cascade", base).cascading_failure(
    ///     SimTime::from_secs(30),
    ///     1,
    ///     3,
    ///     SimDuration::from_secs(12),
    /// );
    /// // One initial failure plus three staggered follow-ons at 34/38/42 s.
    /// assert_eq!(s.timeline().len(), 4);
    /// assert_eq!(s.perturbation_onsets(), vec![30.0, 34.0, 38.0, 42.0]);
    /// s.validate(8)?;
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn cascading_failure(
        self,
        at: SimTime,
        initial: usize,
        follow_on: usize,
        window: SimDuration,
    ) -> Self {
        let mut s = self.worker_fail(at, initial);
        if follow_on == 0 {
            return s;
        }
        let step = SimDuration::from_secs_f64(window.as_secs_f64() / follow_on as f64);
        for i in 1..=follow_on {
            s = s.worker_fail(at + step * i as u64, 1);
        }
        s
    }

    /// Checks the scenario against a worker pool of `num_workers`.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant: non-positive demand factors
    /// or out-of-range style-shift shares (in insertion order), then an
    /// invalid hazard process, then the first event of the timeline that
    /// [`FleetHealth::after`] rejects — zero-worker churn, slowdowns below
    /// 1, out-of-range difficulty offsets, churn that would leave fewer
    /// than two workers alive, recoveries that exceed the failed count, or
    /// restorations that exceed the degraded count.
    pub fn validate(&self, num_workers: usize) -> Result<(), ScenarioError> {
        for p in &self.perturbations {
            match *p {
                Perturbation::FlashCrowd { factor, .. }
                | Perturbation::DemandShift { factor, .. } => {
                    if !factor.is_finite() || factor <= 0.0 {
                        return Err(ScenarioError::InvalidFactor { factor });
                    }
                }
                Perturbation::StyleShift(TrendWindow { share, .. }) => {
                    if !share.is_finite() || share <= 0.0 || share > 1.0 {
                        return Err(ScenarioError::InvalidShare { share });
                    }
                }
            }
        }
        if let Some(h) = &self.hazard {
            h.validate()?;
        }
        let healthy = FleetHealth {
            alive: num_workers,
            failed: 0,
            degraded: 0,
        };
        self.timeline()
            .iter()
            .try_fold(healthy, |fleet, inc| fleet.after(inc.at, &inc.event))?;
        Ok(())
    }

    /// The demand multiplier active at time `t`: the product of every
    /// [`Perturbation::FlashCrowd`] envelope and [`Perturbation::DemandShift`]
    /// factor covering `t`.
    fn demand_multiplier(&self, t: SimTime) -> f64 {
        let mut m = 1.0;
        for p in &self.perturbations {
            match *p {
                Perturbation::FlashCrowd {
                    start,
                    ramp,
                    hold,
                    factor,
                } => {
                    if t < start {
                        continue;
                    }
                    let dt = t.saturating_since(start).as_secs_f64();
                    let ramp_s = ramp.as_secs_f64();
                    let hold_s = hold.as_secs_f64();
                    let envelope = if dt < ramp_s {
                        1.0 + (factor - 1.0) * dt / ramp_s
                    } else if dt < ramp_s + hold_s {
                        factor
                    } else if dt < 2.0 * ramp_s + hold_s {
                        factor - (factor - 1.0) * (dt - ramp_s - hold_s) / ramp_s
                    } else {
                        1.0
                    };
                    m *= envelope;
                }
                Perturbation::DemandShift { at, factor } if t >= at => m *= factor,
                _ => {}
            }
        }
        m
    }

    /// The base trace with every demand perturbation baked in, evaluated at
    /// bin midpoints. This is the trace the run paths draw arrivals from, so
    /// the simulator and the testbed see the identical offered load.
    pub fn effective_trace(&self) -> Trace {
        let bw = self.base.bin_width();
        let half = SimDuration::from_secs_f64(bw.as_secs_f64() / 2.0);
        let bins: Vec<f64> = self
            .base
            .bins()
            .iter()
            .enumerate()
            .map(|(i, &q)| {
                let mid = SimTime::ZERO + bw * i as u64 + half;
                q * self.demand_multiplier(mid)
            })
            .collect();
        Trace::from_qps(bins, bw).expect("base trace valid, multipliers positive")
    }

    /// The scheduled events in firing order — what both run paths inject
    /// into their event loops so they replay identical perturbations.
    /// Sorted by time; at one instant capacity events fire before
    /// difficulty events, each kind in insertion order.
    pub fn timeline(&self) -> IncidentLog {
        let mut events = self.events.clone();
        events.sort_by_key(|inc| (inc.at, matches!(inc.event, ScenarioEvent::Difficulty(_))));
        events
    }
}

/// The standard named scenario library used by the `repro` experiments
/// and the stress-test suite: perturbation times are placed at fractions of
/// the base trace so any base works.
///
/// Returns nine scenarios: `steady` (control), `flash-crowd` (×2.5 spike),
/// `worker-failure` (2 workers fail then recover), `double-failure` (two
/// staggered 2-worker failures, no recovery), `cascading-failure` (one
/// failure whose fault propagates to two more workers across a short
/// window, then all recover), `demand-shock` (persistent ×1.8 shift),
/// `hard-prompts` (difficulty +0.25), `brownout` (a quarter of the fleet —
/// the light tier's low-indexed workers — drops to half speed, i.e. a 2×
/// slowdown, later restored), and `load-correlated-cascade` (a seeded
/// hazard process whose
/// failure/degradation rates rise with utilization, composed with a flash
/// crowd so the load spike drives the fault burst).
///
/// # Panics
///
/// Panics if `num_workers < 6` (the churn scenarios fail 4 workers and must
/// leave at least two alive).
pub fn standard_scenarios(base: &Trace, num_workers: usize) -> Vec<Scenario> {
    assert!(
        num_workers >= 6,
        "standard scenarios fail up to 4 workers; need >= 6, got {num_workers}"
    );
    let dur = base.duration().as_secs_f64();
    let at = |frac: f64| SimTime::from_secs_f64(dur * frac);
    let secs = |frac: f64| SimDuration::from_secs_f64(dur * frac);
    let brownout_count = (num_workers / 4).max(1);
    let scenarios = vec![
        Scenario::new("steady", base.clone()),
        Scenario::new("flash-crowd", base.clone()).flash_crowd(
            at(0.35),
            secs(0.05),
            secs(0.2),
            2.5,
        ),
        Scenario::new("worker-failure", base.clone())
            .worker_fail(at(0.3), 2)
            .worker_recover(at(0.65), 2),
        Scenario::new("double-failure", base.clone())
            .worker_fail(at(0.3), 2)
            .worker_fail(at(0.5), 2),
        Scenario::new("cascading-failure", base.clone())
            .cascading_failure(at(0.3), 1, 2, secs(0.15))
            .worker_recover(at(0.7), 3),
        Scenario::new("demand-shock", base.clone()).demand_shift(at(0.5), 1.8),
        Scenario::new("hard-prompts", base.clone()).difficulty_shift(at(0.35), 0.25),
        Scenario::new("brownout", base.clone())
            .worker_degrade(at(0.3), brownout_count, 2.0)
            .worker_restore(at(0.7), brownout_count),
        Scenario::new("load-correlated-cascade", base.clone())
            .flash_crowd(at(0.35), secs(0.05), secs(0.2), 2.0)
            .with_hazard(Hazard {
                fail_rate: 0.001,
                degrade_rate: 0.004,
                load_coupling: 10.0,
                ..Hazard::default()
            }),
    ];
    for s in &scenarios {
        s.validate(num_workers)
            .expect("library scenarios are valid");
    }
    scenarios
}

/// The add-on stress scenario: a flash crowd whose extra traffic is also a
/// *style shift* — a trending add-on module (`module`) captures 90% of all
/// add-on-carrying queries for the crowd's duration. Under an affinity-blind
/// router the trending module thrashes every worker's cache (each worker
/// keeps swapping it in over its steady-state working set); an
/// affinity-aware router concentrates the trend on a few workers and keeps
/// the rest of the fleet's caches warm.
///
/// Deliberately *not* part of [`standard_scenarios`]: it only does anything
/// when the serving configuration enables add-ons, and the standard library
/// is pinned at nine scenarios by the golden-fingerprint suite.
///
/// # Examples
///
/// ```
/// use diffserve_trace::{style_shift_flash_crowd, Trace};
/// use diffserve_simkit::time::SimDuration;
///
/// let base = Trace::constant(6.0, SimDuration::from_secs(100))?;
/// let s = style_shift_flash_crowd(&base, 0);
/// assert_eq!(s.name(), "style-shift-flash-crowd");
/// assert_eq!(s.style_shift_windows().len(), 1);
/// s.validate(8)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn style_shift_flash_crowd(base: &Trace, module: usize) -> Scenario {
    let dur = base.duration().as_secs_f64();
    let at = |frac: f64| SimTime::from_secs_f64(dur * frac);
    let secs = |frac: f64| SimDuration::from_secs_f64(dur * frac);
    // Same envelope as the standard flash crowd; the style shift covers the
    // whole spike (both ramps plus the hold).
    Scenario::new("style-shift-flash-crowd", base.clone())
        .flash_crowd(at(0.35), secs(0.05), secs(0.2), 2.5)
        .style_shift(at(0.35), secs(0.3), module, 0.9)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(n: u64) -> SimDuration {
        SimDuration::from_secs(n)
    }

    fn base() -> Trace {
        Trace::constant(4.0, secs(100)).unwrap()
    }

    fn incident(at_secs: u64, event: ScenarioEvent) -> Incident {
        Incident {
            at: SimTime::from_secs(at_secs),
            event,
        }
    }

    #[test]
    fn steady_scenario_replays_base_unchanged() {
        let s = Scenario::new("steady", base());
        assert_eq!(s.effective_trace(), base());
        assert!(s.timeline().is_empty());
        assert_eq!(s.name(), "steady");
    }

    #[test]
    fn flash_crowd_envelope_ramps_and_returns() {
        let s = Scenario::new("flash", base()).flash_crowd(
            SimTime::from_secs(30),
            secs(10),
            secs(20),
            3.0,
        );
        assert_eq!(s.demand_multiplier(SimTime::from_secs(29)), 1.0);
        // Mid-ramp: halfway to 3x.
        assert!((s.demand_multiplier(SimTime::from_secs(35)) - 2.0).abs() < 1e-9);
        assert_eq!(s.demand_multiplier(SimTime::from_secs(45)), 3.0);
        // Mid-down-ramp.
        assert!((s.demand_multiplier(SimTime::from_secs(65)) - 2.0).abs() < 1e-9);
        assert_eq!(s.demand_multiplier(SimTime::from_secs(75)), 1.0);
    }

    #[test]
    fn zero_ramp_is_a_step() {
        let s = Scenario::new("step", base()).flash_crowd(
            SimTime::from_secs(50),
            SimDuration::ZERO,
            secs(10),
            2.0,
        );
        assert_eq!(s.demand_multiplier(SimTime::from_secs(49)), 1.0);
        assert_eq!(s.demand_multiplier(SimTime::from_secs(55)), 2.0);
        assert_eq!(s.demand_multiplier(SimTime::from_secs(61)), 1.0);
    }

    #[test]
    fn demand_shift_is_persistent() {
        let s = Scenario::new("shock", base()).demand_shift(SimTime::from_secs(50), 1.5);
        let eff = s.effective_trace();
        assert_eq!(eff.qps_at(SimTime::from_secs(10)), 4.0);
        assert_eq!(eff.qps_at(SimTime::from_secs(99)), 6.0);
        // Expected queries grow by exactly the shifted half.
        let expected = 4.0 * 50.0 + 6.0 * 50.0;
        assert!((eff.expected_queries() - expected).abs() < 1e-6);
    }

    #[test]
    fn perturbations_compose_multiplicatively() {
        let s = Scenario::new("both", base())
            .demand_shift(SimTime::from_secs(20), 2.0)
            .flash_crowd(SimTime::from_secs(40), SimDuration::ZERO, secs(10), 3.0);
        assert_eq!(s.demand_multiplier(SimTime::from_secs(45)), 6.0);
    }

    #[test]
    fn capacity_events_sorted_by_time() {
        let s = Scenario::new("churn", base())
            .worker_recover(SimTime::from_secs(80), 1)
            .worker_fail(SimTime::from_secs(20), 1);
        assert_eq!(
            s.timeline(),
            vec![
                incident(20, ScenarioEvent::Capacity(CapacityEvent::Fail(1))),
                incident(80, ScenarioEvent::Capacity(CapacityEvent::Recover(1))),
            ]
        );
        assert_eq!(s.perturbation_onsets(), vec![20.0, 80.0]);
    }

    #[test]
    fn timeline_fires_capacity_before_difficulty_at_one_instant() {
        let at = SimTime::from_secs(30);
        let s = Scenario::new("tie", base())
            .difficulty_shift(at, 0.2)
            .worker_fail(at, 1)
            .difficulty_shift(SimTime::from_secs(10), 0.1)
            .difficulty_shift(at, 0.3)
            .worker_degrade(at, 1, 2.0);
        assert_eq!(
            s.timeline(),
            vec![
                incident(10, ScenarioEvent::Difficulty(0.1)),
                incident(30, ScenarioEvent::Capacity(CapacityEvent::Fail(1))),
                incident(30, ScenarioEvent::Capacity(CapacityEvent::Degrade(1, 2.0))),
                incident(30, ScenarioEvent::Difficulty(0.2)),
                incident(30, ScenarioEvent::Difficulty(0.3)),
            ]
        );
    }

    #[test]
    fn validate_rejects_pool_exhaustion() {
        let s = Scenario::new("bad", base()).worker_fail(SimTime::from_secs(10), 7);
        assert!(matches!(
            s.validate(8),
            Err(ScenarioError::PoolExhausted { alive: 1, .. })
        ));
        // The same churn is fine on a bigger pool.
        assert!(s.validate(16).is_ok());
    }

    #[test]
    fn fleet_health_after_applies_fleet_state_rules() {
        let at = SimTime::from_secs(3);
        let fleet = FleetHealth {
            alive: 5,
            failed: 3,
            degraded: 2,
        };
        let health = |alive, failed, degraded| {
            Ok(FleetHealth {
                alive,
                failed,
                degraded,
            })
        };
        let check = |e: CapacityEvent| fleet.after(at, &ScenarioEvent::Capacity(e));
        // A failure keeps at most the survivors degraded.
        assert_eq!(check(CapacityEvent::Fail(3)), health(2, 6, 2));
        assert_eq!(check(CapacityEvent::Fail(2)), health(3, 5, 2));
        assert_eq!(
            check(CapacityEvent::Fail(4)),
            Err(ScenarioError::PoolExhausted { at, alive: 1 })
        );
        assert_eq!(check(CapacityEvent::Recover(3)), health(8, 0, 2));
        assert_eq!(
            check(CapacityEvent::Recover(4)),
            Err(ScenarioError::RecoverWithoutFailure { at })
        );
        assert_eq!(check(CapacityEvent::Restore(2)), health(5, 3, 0));
        assert_eq!(
            check(CapacityEvent::Restore(3)),
            Err(ScenarioError::RestoreWithoutDegrade { at })
        );
        // A degradation degrades at most every alive worker.
        assert_eq!(check(CapacityEvent::Degrade(9, 2.0)), health(5, 3, 5));
        assert_eq!(
            check(CapacityEvent::Degrade(usize::MAX, 2.0)),
            health(5, 3, 5)
        );
        // State-independent checks come first.
        assert_eq!(
            check(CapacityEvent::Recover(0)),
            Err(ScenarioError::ZeroWorkers)
        );
        assert_eq!(
            fleet.after(at, &ScenarioEvent::Difficulty(1.5)),
            Err(ScenarioError::InvalidDelta { delta: 1.5 })
        );
        assert_eq!(fleet.after(at, &ScenarioEvent::Difficulty(0.3)), Ok(fleet));
    }

    #[test]
    fn validate_rejects_recover_without_failure() {
        let s = Scenario::new("bad", base()).worker_recover(SimTime::from_secs(10), 1);
        assert!(matches!(
            s.validate(8),
            Err(ScenarioError::RecoverWithoutFailure { .. })
        ));
    }

    #[test]
    fn validate_rejects_bad_parameters() {
        let s = Scenario::new("bad", base()).demand_shift(SimTime::from_secs(1), 0.0);
        assert!(matches!(
            s.validate(8),
            Err(ScenarioError::InvalidFactor { .. })
        ));
        let s = Scenario::new("bad", base()).difficulty_shift(SimTime::from_secs(1), 1.5);
        assert!(matches!(
            s.validate(8),
            Err(ScenarioError::InvalidDelta { .. })
        ));
        let s = Scenario::new("bad", base()).worker_fail(SimTime::from_secs(1), 0);
        assert_eq!(s.validate(8), Err(ScenarioError::ZeroWorkers));
    }

    #[test]
    fn difficulty_events_replace_not_stack() {
        let s = Scenario::new("hard", base())
            .difficulty_shift(SimTime::from_secs(60), 0.1)
            .difficulty_shift(SimTime::from_secs(30), 0.3);
        assert_eq!(
            s.timeline(),
            vec![
                incident(30, ScenarioEvent::Difficulty(0.3)),
                incident(60, ScenarioEvent::Difficulty(0.1)),
            ]
        );
    }

    #[test]
    fn standard_library_is_valid_and_named() {
        let scenarios = standard_scenarios(&base(), 8);
        assert_eq!(scenarios.len(), 9);
        let names: Vec<&str> = scenarios.iter().map(|s| s.name()).collect();
        assert!(names.contains(&"worker-failure"));
        assert!(names.contains(&"flash-crowd"));
        assert!(names.contains(&"cascading-failure"));
        assert!(names.contains(&"brownout"));
        assert!(names.contains(&"load-correlated-cascade"));
        for s in &scenarios {
            assert!(s.validate(8).is_ok(), "{} invalid", s.name());
        }
        let cascade = scenarios
            .iter()
            .find(|s| s.name() == "load-correlated-cascade")
            .unwrap();
        assert!(cascade.hazard().is_some());
    }

    #[test]
    fn standard_library_is_valid_at_its_smallest_fleet() {
        for s in standard_scenarios(&base(), 6) {
            assert!(s.validate(6).is_ok(), "{} invalid", s.name());
        }
    }

    #[test]
    #[should_panic(expected = "need >= 6")]
    fn standard_library_needs_six_workers() {
        let _ = standard_scenarios(&base(), 5);
    }

    #[test]
    fn validate_rejects_bad_degradations() {
        // Slowdowns below 1 would speed workers up; reject them.
        let s = Scenario::new("bad", base()).worker_degrade(SimTime::from_secs(5), 1, 0.5);
        assert!(matches!(
            s.validate(8),
            Err(ScenarioError::InvalidSlowdown { slowdown }) if slowdown == 0.5
        ));
        let s = Scenario::new("bad", base()).worker_degrade(SimTime::from_secs(5), 1, f64::NAN);
        assert!(matches!(
            s.validate(8),
            Err(ScenarioError::InvalidSlowdown { .. })
        ));
        // Zero-worker degrade/restore are meaningless.
        let s = Scenario::new("bad", base()).worker_degrade(SimTime::from_secs(5), 0, 2.0);
        assert_eq!(s.validate(8), Err(ScenarioError::ZeroWorkers));
        let s = Scenario::new("bad", base()).worker_restore(SimTime::from_secs(5), 0);
        assert_eq!(s.validate(8), Err(ScenarioError::ZeroWorkers));
    }

    #[test]
    fn validate_rejects_restore_without_degrade() {
        let s = Scenario::new("bad", base()).worker_restore(SimTime::from_secs(10), 1);
        assert!(matches!(
            s.validate(8),
            Err(ScenarioError::RestoreWithoutDegrade { .. })
        ));
        // Restoring more workers than ever degraded is rejected too.
        let s = Scenario::new("bad", base())
            .worker_degrade(SimTime::from_secs(10), 2, 2.0)
            .worker_restore(SimTime::from_secs(20), 3);
        assert!(matches!(
            s.validate(8),
            Err(ScenarioError::RestoreWithoutDegrade { .. })
        ));
        // A paired degrade→restore is fine.
        let s = Scenario::new("ok", base())
            .worker_degrade(SimTime::from_secs(10), 2, 2.0)
            .worker_restore(SimTime::from_secs(20), 2);
        assert!(s.validate(8).is_ok());
    }

    #[test]
    fn validate_rejects_over_recovery_from_overlapping_cascades() {
        // Two overlapping cascades fail 6 workers in total; recovering 7
        // names more workers than ever failed.
        let s = Scenario::new("bad", base())
            .cascading_failure(SimTime::from_secs(10), 1, 2, secs(10))
            .cascading_failure(SimTime::from_secs(15), 1, 2, secs(10))
            .worker_recover(SimTime::from_secs(60), 7);
        assert!(matches!(
            s.validate(16),
            Err(ScenarioError::RecoverWithoutFailure { .. })
        ));
        // Recovering exactly what failed is fine on a large enough pool.
        let s = Scenario::new("ok", base())
            .cascading_failure(SimTime::from_secs(10), 1, 2, secs(10))
            .cascading_failure(SimTime::from_secs(15), 1, 2, secs(10))
            .worker_recover(SimTime::from_secs(60), 6);
        assert!(s.validate(16).is_ok());
    }

    #[test]
    fn validate_rejects_bad_hazards() {
        let bad = Hazard {
            fail_rate: -0.1,
            ..Hazard::default()
        };
        let s = Scenario::new("bad", base()).with_hazard(bad);
        assert!(
            matches!(s.validate(8), Err(ScenarioError::InvalidHazard { .. })),
            "{bad:?} should be rejected"
        );
        assert!(Scenario::new("ok", base())
            .with_hazard(Hazard::default())
            .validate(8)
            .is_ok());
    }

    #[test]
    fn validate_rejects_non_finite_hazard_settings() {
        for bad in [-0.1, f64::NAN, f64::INFINITY] {
            for h in [
                Hazard {
                    fail_rate: bad,
                    ..Hazard::default()
                },
                Hazard {
                    degrade_rate: bad,
                    ..Hazard::default()
                },
                Hazard {
                    load_coupling: bad,
                    ..Hazard::default()
                },
            ] {
                let s = Scenario::new("bad", base()).with_hazard(h);
                assert!(
                    matches!(s.validate(8), Err(ScenarioError::InvalidHazard { .. })),
                    "{h:?} should be rejected"
                );
            }
        }
    }

    #[test]
    fn hazard_process_is_deterministic_and_load_coupled() {
        let spec = Hazard {
            seed: 42,
            fail_rate: 0.05,
            degrade_rate: 0.1,
            load_coupling: 8.0,
        };
        let fleet = FleetHealth {
            alive: 8,
            failed: 0,
            degraded: 0,
        };
        let run = |util: f64| -> usize {
            let mut p = HazardProcess::new(spec, SimDuration::from_secs(2));
            (0..200).map(|_| p.step(util, fleet).len()).sum()
        };
        // Identical seeds and utilization trajectories replay identically.
        assert_eq!(run(0.9), run(0.9));
        // Load coupling: a saturated fleet draws more faults than an idle
        // one over the same stream length.
        assert!(
            run(1.0) > run(0.0),
            "saturated {} vs idle {}",
            run(1.0),
            run(0.0)
        );
    }

    #[test]
    fn hazard_guards_keep_events_valid() {
        let spec = Hazard {
            fail_rate: 1e6, // fires every step
            degrade_rate: 1e6,
            ..Hazard::default()
        };
        let mut p = HazardProcess::new(spec, SimDuration::from_secs(2));
        // Two alive workers: no failure may fire (pool floor), and with
        // every worker already degraded no further degradation fires.
        let ev = p.step(
            1.0,
            FleetHealth {
                alive: 2,
                failed: 0,
                degraded: 2,
            },
        );
        assert!(
            !ev.iter().any(|e| matches!(
                e,
                ScenarioEvent::Capacity(CapacityEvent::Fail(_) | CapacityEvent::Degrade(..))
            )),
            "{ev:?}"
        );
        // Recovery and restoration fire at their fixed rates, and only
        // when something is failed or degraded.
        let count = |p: &mut HazardProcess, fleet: FleetHealth| {
            let (mut recovers, mut restores) = (0, 0);
            for _ in 0..1000 {
                for e in p.step(0.0, fleet) {
                    match e {
                        ScenarioEvent::Capacity(CapacityEvent::Recover(_)) => recovers += 1,
                        ScenarioEvent::Capacity(CapacityEvent::Restore(_)) => restores += 1,
                        _ => {}
                    }
                }
            }
            (recovers, restores)
        };
        let healthy = FleetHealth {
            alive: 8,
            failed: 0,
            degraded: 0,
        };
        assert_eq!(count(&mut p, healthy), (0, 0));
        let (recovers, restores) = count(
            &mut p,
            FleetHealth {
                alive: 6,
                failed: 2,
                degraded: 2,
            },
        );
        assert!(recovers > 0 && restores > 0, "{recovers} / {restores}");
    }

    #[test]
    fn hazard_checks_sit_at_the_control_half_phase() {
        for secs in [1, 2] {
            let interval = SimDuration::from_secs(secs);
            let mut p = HazardProcess::new(Hazard::default(), interval);
            // Checks land at (k + ½)·interval, never on a control tick at a
            // whole multiple of the interval.
            for k in 0..10 {
                let at = p.first_check() + interval * k;
                assert_eq!(at.as_micros() * 2, (2 * k + 1) * interval.as_micros());
                assert_ne!(at.as_micros() % interval.as_micros(), 0);
            }
            // The first step covers the half interval since the start, every
            // later one a whole interval.
            assert_eq!(p.dt * 2, interval);
            let fleet = FleetHealth {
                alive: 8,
                failed: 0,
                degraded: 0,
            };
            p.step(0.5, fleet);
            assert_eq!(p.dt, interval);
            p.step(0.5, fleet);
            assert_eq!(p.dt, interval);
        }
    }

    #[test]
    fn incident_log_roundtrips_into_a_scenario() {
        let log = vec![
            Incident {
                at: SimTime::from_secs(10),
                event: ScenarioEvent::Capacity(CapacityEvent::Fail(1)),
            },
            Incident {
                at: SimTime::from_secs(12),
                event: ScenarioEvent::Capacity(CapacityEvent::Degrade(2, 2.5)),
            },
            Incident {
                at: SimTime::from_secs(20),
                event: ScenarioEvent::Difficulty(0.3),
            },
            Incident {
                at: SimTime::from_secs(30),
                event: ScenarioEvent::Capacity(CapacityEvent::Recover(1)),
            },
            Incident {
                at: SimTime::from_secs(40),
                event: ScenarioEvent::Capacity(CapacityEvent::Restore(2)),
            },
        ];
        let s = Scenario::from_incident_log("replayed", base(), &log);
        assert!(s.hazard().is_none());
        assert!(s.validate(8).is_ok());
        // The timeline reproduces the log exactly.
        assert_eq!(s.timeline(), log);
    }

    #[test]
    fn replay_keeps_demand_perturbations_but_drops_hazard() {
        let original = Scenario::new("stress", base())
            .flash_crowd(SimTime::from_secs(30), secs(5), secs(10), 2.0)
            .worker_fail(SimTime::from_secs(20), 1)
            .with_hazard(Hazard::default());
        let log = vec![
            Incident {
                at: SimTime::from_secs(20),
                event: ScenarioEvent::Capacity(CapacityEvent::Fail(1)),
            },
            Incident {
                at: SimTime::from_secs(33),
                event: ScenarioEvent::Capacity(CapacityEvent::Degrade(1, 1.8)),
            },
        ];
        let replay = original.replay(&log);
        assert_eq!(replay.name(), "stress-replay");
        assert!(replay.hazard().is_none());
        // Demand envelope identical, capacity timeline from the log only.
        assert_eq!(
            replay.demand_multiplier(SimTime::from_secs(40)),
            original.demand_multiplier(SimTime::from_secs(40))
        );
        assert_eq!(replay.effective_trace(), original.effective_trace());
        assert_eq!(replay.timeline(), log);
    }

    #[test]
    fn cascading_failure_staggers_follow_ons_inside_the_window() {
        let s = Scenario::new("cascade", base()).cascading_failure(
            SimTime::from_secs(20),
            2,
            4,
            secs(20),
        );
        let ev = s.timeline();
        assert_eq!(ev.len(), 5);
        assert_eq!(
            ev[0],
            incident(20, ScenarioEvent::Capacity(CapacityEvent::Fail(2)))
        );
        for (i, &inc) in ev.iter().enumerate().skip(1) {
            assert_eq!(
                inc,
                incident(
                    20 + 5 * i as u64,
                    ScenarioEvent::Capacity(CapacityEvent::Fail(1))
                )
            );
        }
        // 6 correlated failures exhaust an 8-pool at the last follow-on...
        assert!(matches!(
            s.validate(7),
            Err(ScenarioError::PoolExhausted { .. })
        ));
        // ...but a larger fleet absorbs the cascade.
        assert!(s.validate(8).is_ok());
    }

    #[test]
    fn cascading_failure_zero_window_or_no_follow_ons() {
        let s = Scenario::new("burst", base()).cascading_failure(
            SimTime::from_secs(10),
            1,
            2,
            SimDuration::ZERO,
        );
        // Everything lands at the initial instant.
        assert!(s
            .timeline()
            .iter()
            .all(|inc| inc.at == SimTime::from_secs(10)));
        let s =
            Scenario::new("solo", base()).cascading_failure(SimTime::from_secs(10), 2, 0, secs(30));
        assert_eq!(s.timeline().len(), 1);
    }

    #[test]
    fn error_display() {
        let e = ScenarioError::PoolExhausted {
            at: SimTime::from_secs(5),
            alive: 1,
        };
        assert!(format!("{e}").contains("1 workers"));
        assert!(format!("{}", ScenarioError::ZeroWorkers).contains("at least one"));
        let e = ScenarioError::InvalidShare { share: 1.5 };
        assert!(format!("{e}").contains("1.5"));
    }

    #[test]
    fn style_shift_lowers_into_trend_windows() {
        let s = Scenario::new("trend", base())
            .style_shift(SimTime::from_secs(20), secs(30), 3, 0.8)
            .worker_fail(SimTime::from_secs(50), 1);
        let windows = s.style_shift_windows();
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].module, 3);
        assert_eq!(windows[0].share, 0.8);
        assert!(windows[0].contains(SimTime::from_secs(30)));
        assert!(!windows[0].contains(SimTime::from_secs(50)));
        // A style shift never touches demand or the capacity timeline.
        assert_eq!(s.demand_multiplier(SimTime::from_secs(30)), 1.0);
        assert_eq!(s.timeline().len(), 1);
        assert!(s.validate(8).is_ok());
        assert_eq!(s.perturbation_onsets(), vec![20.0, 50.0]);
    }

    #[test]
    fn validate_rejects_bad_style_shift_shares() {
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            let s =
                Scenario::new("bad", base()).style_shift(SimTime::from_secs(5), secs(10), 0, bad);
            assert!(
                matches!(s.validate(8), Err(ScenarioError::InvalidShare { .. })),
                "share {bad} should be rejected"
            );
        }
    }

    #[test]
    fn replay_keeps_style_shifts() {
        let original = Scenario::new("trend", base())
            .style_shift(SimTime::from_secs(20), secs(30), 1, 0.9)
            .with_hazard(Hazard::default());
        let replay = original.replay(&[]);
        assert!(replay.hazard().is_none());
        assert_eq!(replay.style_shift_windows(), original.style_shift_windows());
    }

    #[test]
    fn style_shift_flash_crowd_composes_crowd_and_trend() {
        let s = style_shift_flash_crowd(&base(), 2);
        assert_eq!(s.name(), "style-shift-flash-crowd");
        assert!(s.validate(8).is_ok());
        let windows = s.style_shift_windows();
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].module, 2);
        // The trend covers the crowd's full amplitude.
        assert!(s.demand_multiplier(SimTime::from_secs(50)) > 2.0);
        assert!(windows[0].contains(SimTime::from_secs(50)));
    }
}
