//! The backend-agnostic control plane.
//!
//! DiffServe's controller runs the same pipeline every control interval
//! regardless of which execution engine hosts the workers:
//!
//! 1. **Demand estimation** — EWMA over the arrivals observed since the
//!    last tick, over-provisioned by λ (§3.3, via
//!    [`DemandEstimator`]).
//! 2. **Profile estimation** — the deferral profile `f(t)` the allocator
//!    solves against. The paper initializes `f` offline and *keeps updating
//!    it online* (§4.2, Eq. 3); `ProfileEstimator` implements both modes:
//!    a passthrough over the offline curve, and a streaming
//!    [`OnlineDeferralEstimator`] that re-estimates the curve from the
//!    confidences the cascade actually observes so the controller tracks
//!    difficulty drift.
//! 3. **Allocation planning** — one `plan` call over
//!    [`solve_milp_allocation_warm`], [`solve_exhaustive`] or
//!    [`solve_proteus`] (per policy and backend), with the
//!    [`overload_fallback`] when the solve is infeasible; N-tier ladders
//!    plan through [`solve_ladder`].
//! 4. **Plan actuation** — the backend-side half: a [`PlanActuator`]
//!    applies the returned [`ControlDirective`] to live serving state (the
//!    simulator's worker array, the testbed's shared [`ServingPlan`]).
//!    Every plan reaches the actuator in the N-tier form: a two-tier
//!    [`Allocation`] is the N = 2 [`LadderAllocation`], converted once
//!    here.
//!
//! Historically this logic was written twice — interleaved with event
//! handling in `core::sim` and with thread plumbing in `cluster::runtime` —
//! so every controller improvement had to land in both. Now both backends
//! gather a [`ControlObservation`], call [`ControlLoop::step`], and actuate
//! the directive; the decision logic exists exactly once.
//!
//! [`ServingPlan`]: https://docs.rs/diffserve-cluster
//! [`OnlineDeferralEstimator`]: diffserve_imagegen::OnlineDeferralEstimator

use diffserve_imagegen::{DeferralProfile, LatencyProfile, OnlineDeferralEstimator};
use diffserve_simkit::time::SimTime;
use diffserve_trace::DemandEstimator;

use crate::allocator::{
    ladder_overload_fallback, overload_fallback, solve_exhaustive, solve_ladder,
    solve_milp_allocation_warm, solve_proteus, AllocWarmState, Allocation, AllocatorInputs,
    LadderAllocation, LadderInputs, LadderWarmState,
};
use crate::config::{LadderConfig, SystemConfig};
use crate::policy::{BatchPolicy, Policy, QueueModel};
use crate::query::ModelTier;
use crate::serve::SessionSpec;
use crate::sim::{AllocatorBackend, RunSettings};

/// Fresh confidence samples required in a control window before a
/// deferral-estimation-error point is recorded (fewer would make the
/// empirical CDF noise).
const MIN_ERROR_SAMPLES: usize = 8;

/// What a backend observed since the previous control tick — everything the
/// control pipeline needs, nothing backend-specific.
#[derive(Debug, Clone, Default)]
pub struct ControlObservation {
    /// The tick instant.
    pub now: SimTime,
    /// Queries that arrived since the last tick.
    pub arrivals: u64,
    /// Queries routed (or escalated) to the heavy tier since the last tick.
    pub heavy_arrivals: u64,
    /// SLO violations attributed to the light tier since the last tick
    /// (feeds AIMD batch adaptation).
    pub violations_light: u64,
    /// SLO violations attributed to the heavy tier since the last tick.
    pub violations_heavy: u64,
    /// Workers currently alive (the allocator's capacity `S`).
    pub alive_workers: usize,
    /// Sum of the alive workers' health speed factors — the fleet's
    /// *effective* capacity in worker-equivalents. Equals `alive_workers`
    /// when every worker runs at nameplate speed; drops below it under a
    /// brownout. `0.0` (the default) means "not reported" and the control
    /// pipeline falls back to nameplate capacity.
    pub effective_capacity: f64,
    /// Batch size currently operated by the light tier (the "no queuing
    /// model" ablation estimates delay from it).
    pub current_light_batch: usize,
    /// Batch size currently operated by the heavy tier.
    pub current_heavy_batch: usize,
    /// Discriminator confidences observed since the last tick — the online
    /// profile estimator's input stream.
    pub confidences: Vec<f64>,
    /// Queries queued on alive workers of each tier right now, entry tier
    /// first (length N). The two-tier planner reads the entry tier as the
    /// light queue and everything deeper as the heavy queue; a missing
    /// entry reads as zero.
    pub tier_queues: Vec<usize>,
    /// Confidences observed at escalation boundaries **deeper than the
    /// first** since the last tick — `deep_confidences[i]` is boundary
    /// `i + 1`'s stream (boundary 0 reports through
    /// [`confidences`](Self::confidences)). Empty on two-tier backends.
    pub deep_confidences: Vec<Vec<f64>>,
    /// Queries admitted *directly* at each tier since the last tick
    /// (length N on a ladder backend) — the predictive router's
    /// straight-to-tier bypass flow. Empty on two-tier backends and when
    /// the router is off; the ladder planner then plans everything
    /// entry-first.
    pub tier_direct_arrivals: Vec<u64>,
}

/// What the control pipeline decided this tick; the backend's
/// [`PlanActuator`] applies it.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlDirective {
    /// Apply a solved allocation: per-boundary thresholds, per-tier worker
    /// counts and batch sizes. A two-tier cascade is the N = 2 plan.
    Apply {
        /// The plan to actuate.
        plan: LadderAllocation,
        /// Proteus only: the fraction of arrivals routed directly to the
        /// terminal tier.
        heavy_fraction: Option<f64>,
    },
    /// Keep the current plan (static policies after bootstrap).
    Hold,
}

impl ControlDirective {
    /// A two-tier allocation in the N-tier plan form every actuator takes.
    fn two_tier(alloc: Allocation, heavy_fraction: Option<f64>) -> Self {
        ControlDirective::Apply {
            plan: LadderAllocation {
                thresholds: vec![alloc.threshold],
                workers: vec![alloc.light_workers, alloc.heavy_workers],
                batches: vec![alloc.light_batch, alloc.heavy_batch],
                feasible: alloc.feasible,
            },
            heavy_fraction,
        }
    }
}

/// The two-tier allocation-planning strategy: demand and constraints in, a
/// [`ControlDirective`] out. Both variants fall back to
/// [`overload_fallback`] when the problem is infeasible, so callers never
/// handle `None`.
#[derive(Debug, Clone)]
enum Planner {
    /// DiffServe and DiffServe-Static: maximizes the confidence threshold
    /// via the configured solver.
    ///
    /// The MILP backend keeps an [`AllocWarmState`] across ticks: the
    /// demand estimate moves slowly between control intervals, so the
    /// previous tick's threshold pins the next solve to a few feasibility
    /// probes of the two-tier batch knapsack and a single optimality solve,
    /// each restarted from the previous simplex basis. The plan is the
    /// exhaustive solver's, whatever state the search starts from.
    Cascade {
        /// Which solver implementation to invoke.
        backend: AllocatorBackend,
        warm: AllocWarmState,
    },
    /// Proteus: maximizes the heavy routing fraction; under overload
    /// everything routes light over the fallback allocation.
    Proteus,
}

impl Planner {
    /// A cascade planner with cold solver state.
    fn cascade(backend: AllocatorBackend) -> Self {
        Planner::Cascade {
            backend,
            warm: AllocWarmState::new(),
        }
    }

    /// Plans one allocation from the tick's solver inputs.
    fn plan(&mut self, inputs: &AllocatorInputs<'_>) -> ControlDirective {
        match self {
            Planner::Cascade { backend, warm } => {
                let solved = match backend {
                    AllocatorBackend::Milp => solve_milp_allocation_warm(inputs, warm),
                    AllocatorBackend::Exhaustive => solve_exhaustive(inputs),
                };
                ControlDirective::two_tier(
                    solved.unwrap_or_else(|| overload_fallback(inputs)),
                    None,
                )
            }
            Planner::Proteus => {
                let (allocation, heavy_fraction) =
                    solve_proteus(inputs).unwrap_or_else(|| (overload_fallback(inputs), 0.0));
                ControlDirective::two_tier(allocation, Some(heavy_fraction))
            }
        }
    }
}

/// The backend-side half of the control pipeline: applies a
/// [`ControlDirective`] to live serving state. The simulator implements it
/// over its worker array (tier reassignment through the model-switch
/// protocol); the testbed over its shared `ServingPlan`.
pub trait PlanActuator {
    /// Applies the directive (a no-op for [`ControlDirective::Hold`]).
    fn actuate(&mut self, directive: &ControlDirective);
}

/// The deferral-profile stage of the pipeline: which `f(t)` the allocator
/// solves against.
#[derive(Debug, Clone)]
enum ProfileEstimator {
    /// Solve against the offline-profiled curve only (the pre-§4.2 mode).
    Offline,
    /// Refresh the curve online from observed confidences, falling back to
    /// the offline profile until the estimator warms up.
    Online(OnlineDeferralEstimator),
}

impl ProfileEstimator {
    /// Builds the estimator the configuration asks for.
    fn from_config(config: &SystemConfig) -> Self {
        if config.online_profile_refresh {
            ProfileEstimator::Online(OnlineDeferralEstimator::new(
                config.online_profile_window,
                config.online_profile_min_samples,
            ))
        } else {
            ProfileEstimator::Offline
        }
    }

    /// The online estimate, if this is a warmed-up online estimator.
    fn online_profile(&self) -> Option<&DeferralProfile> {
        match self {
            ProfileEstimator::Offline => None,
            ProfileEstimator::Online(est) => est.profile(),
        }
    }
}

/// The unified control plane driven by both serving backends.
///
/// Construct one from validated session inputs
/// ([`SessionSpec::control_loop`](crate::serve::SessionSpec::control_loop)),
/// call [`bootstrap`](ControlLoop::bootstrap) once before serving, then
/// [`step`](ControlLoop::step) every control interval with what the backend
/// observed; actuate the returned directive.
///
/// Owns the pipeline state: the demand EWMA, the profile estimator, AIMD
/// batch state, and the deferral-estimation-error series recorded for the
/// final [`RunReport`](crate::report::RunReport).
#[derive(Debug)]
pub struct ControlLoop {
    config: SystemConfig,
    settings: RunSettings,
    offline: DeferralProfile,
    light: LatencyProfile,
    heavy: LatencyProfile,
    resume_heavy: Option<LatencyProfile>,
    discriminator_latency: f64,
    demand: DemandEstimator,
    profile: ProfileEstimator,
    planner: Planner,
    aimd_light_batch: usize,
    aimd_heavy_batch: usize,
    deferral_errors: Vec<(f64, f64)>,
    ladder: Option<LadderControl>,
}

/// Everything tier- or boundary-indexed the N-tier planner needs beyond
/// the legacy two-tier fields. Present only on ladder sessions with more
/// than two tiers; a two-tier ladder plans through the unchanged legacy
/// path.
#[derive(Debug)]
struct LadderControl {
    /// Per-tier execution profiles, cheapest first.
    tiers: Vec<LatencyProfile>,
    /// Per-boundary discriminator latencies, seconds.
    disc_latencies: Vec<f64>,
    /// Per-boundary offline deferral profiles `f_k(t)`.
    offline: Vec<DeferralProfile>,
    /// Online estimators for boundaries **deeper than the first**
    /// (boundary 0 rides the legacy `ProfileEstimator`); empty when
    /// online refresh is off.
    online: Vec<OnlineDeferralEstimator>,
    /// Warm levels + simplex basis carried across ticks.
    warm: LadderWarmState,
    /// EWMA of the per-tier direct-admission split (length N, sums to 1)
    /// observed through [`ControlObservation::tier_direct_arrivals`];
    /// empty until the first window reports admissions.
    direct_frac: Vec<f64>,
}

impl ControlLoop {
    /// Builds the control loop from its constituent parts. Most callers go
    /// through [`SessionSpec::control_loop`](crate::serve::SessionSpec::control_loop).
    pub fn new(
        config: SystemConfig,
        settings: RunSettings,
        offline: DeferralProfile,
        light: LatencyProfile,
        heavy: LatencyProfile,
        discriminator_latency: f64,
    ) -> Self {
        let planner = match settings.policy {
            Policy::Proteus => Planner::Proteus,
            _ => Planner::cascade(settings.backend),
        };
        let demand = DemandEstimator::new(config.ewma_alpha, config.over_provision);
        let profile = ProfileEstimator::from_config(&config);
        // With resume-from-latents enabled, an escalated query re-does only
        // `1 − DENOISE_FRAC · credit` of the heavy denoise schedule, so the
        // allocator's latency constraint should charge that cheaper
        // escalation path: shrink the heavy profile's per-query slope by
        // that factor while preserving the fixed batch overhead (`base' =
        // base·(ovh + (1−ovh)·k)`, `ovh' = base·ovh / base'`). `k ≥ 1 −
        // DENOISE_FRAC > 0` keeps the transformed profile valid.
        //
        // The discount is exact for the latency bound — every escalated
        // query carries latents, so its heavy pass serves nameplate minus
        // savings — but it is deliberately *not* fed into the throughput
        // constraint: spending the freed capacity on extra deferral would
        // shift the escalation mix the operator tuned the threshold cap
        // for, and the savings evaporate whenever queries reach the heavy
        // tier without latents (direct routing, replays). Capacity planning
        // stays on nameplate throughput; restart mode carries no discount
        // at all.
        let resume_heavy = if config.resume_from_latents {
            let k = 1.0 - diffserve_imagegen::DENOISE_FRAC * config.resume_step_credit;
            let base =
                heavy.base_latency * (heavy.batch_overhead + (1.0 - heavy.batch_overhead) * k);
            Some(LatencyProfile::new(
                base,
                heavy.base_latency * heavy.batch_overhead / base,
            ))
        } else {
            None
        };
        ControlLoop {
            demand,
            profile,
            planner,
            aimd_light_batch: 1,
            aimd_heavy_batch: 1,
            deferral_errors: Vec::new(),
            config,
            settings,
            offline,
            light,
            heavy,
            resume_heavy,
            discriminator_latency,
            ladder: None,
        }
    }

    /// Attaches N-tier ladder planning state: per-tier execution profiles
    /// (cheapest first), per-boundary discriminator latencies, and
    /// per-boundary offline deferral profiles. Once attached, dynamic
    /// ticks plan an N-dimensional threshold vector through
    /// [`solve_ladder`] instead of the two-tier solvers.
    ///
    /// Callers only attach ladders with more than two tiers
    /// ([`SessionSpec::control_loop`](crate::serve::SessionSpec::control_loop));
    /// a two-tier ladder stays on the legacy planner, which is bit-identical
    /// by construction.
    pub fn attach_ladder(
        &mut self,
        tiers: Vec<LatencyProfile>,
        disc_latencies: Vec<f64>,
        offline: Vec<DeferralProfile>,
    ) {
        assert_eq!(tiers.len(), offline.len() + 1, "one profile per boundary");
        assert_eq!(disc_latencies.len(), offline.len());
        let online = if self.config.online_profile_refresh {
            (1..offline.len())
                .map(|_| {
                    OnlineDeferralEstimator::new(
                        self.config.online_profile_window,
                        self.config.online_profile_min_samples,
                    )
                })
                .collect()
        } else {
            Vec::new()
        };
        self.ladder = Some(LadderControl {
            tiers,
            disc_latencies,
            offline,
            online,
            warm: LadderWarmState::new(),
            direct_frac: Vec::new(),
        });
    }

    /// The initial allocation before any demand has been observed.
    /// `peak_demand` is what static provisioning plans for — the simulator
    /// passes the raw peak hint, the testbed additionally folds in the
    /// trace's known maximum and the over-provisioning factor.
    pub fn bootstrap(&mut self, peak_demand: f64) -> ControlDirective {
        let thresholds = self.threshold_grid();
        let batches = self.config.batch_sizes.clone();
        let workers = self.config.num_workers;
        match self.settings.policy {
            Policy::ClipperLight => ControlDirective::two_tier(
                Allocation {
                    threshold: 0.5,
                    light_workers: workers,
                    heavy_workers: 0,
                    light_batch: self.clipper_batch(ModelTier::Light),
                    heavy_batch: 1,
                    feasible: true,
                },
                None,
            ),
            Policy::ClipperHeavy => ControlDirective::two_tier(
                Allocation {
                    threshold: 0.5,
                    light_workers: 0,
                    heavy_workers: workers,
                    light_batch: 1,
                    heavy_batch: self.clipper_batch(ModelTier::Heavy),
                    feasible: true,
                },
                None,
            ),
            Policy::DiffServeStatic => {
                // Provisioned for the anticipated peak and never re-solved
                // (§4.1: "provisioned to accommodate maximum anticipated
                // demand").
                let slo = self.config.slo.as_secs_f64();
                if self.ladder.is_some() {
                    return self.plan_ladder(peak_demand, &[], slo, &thresholds, &batches, workers);
                }
                self.plan_allocation(peak_demand, 0.0, 0.0, slo, &thresholds, &batches, workers)
            }
            Policy::DiffServe | Policy::Proteus => {
                let slo = self.config.slo.as_secs_f64();
                if self.ladder.is_some() {
                    return self.plan_ladder(1.0, &[], slo, &thresholds, &batches, workers);
                }
                self.plan_allocation(1.0, 0.0, 0.0, slo, &thresholds, &batches, workers)
            }
        }
    }

    /// One control tick: demand estimation → profile estimation →
    /// allocation planning. Static policies still feed the estimators (so
    /// their telemetry stays comparable) but always return
    /// [`ControlDirective::Hold`].
    pub fn step(&mut self, obs: &ControlObservation) -> ControlDirective {
        let interval = self.config.control_interval;
        self.demand.observe(obs.arrivals, interval);
        let demand = self.demand.provisioned_estimate().max(0.5);

        // Queuing-delay estimates (Little's law or the Fig. 8 heuristic).
        let heavy_rate = (obs.heavy_arrivals as f64 / interval.as_secs_f64()).max(0.05);
        let light_rate = demand.max(0.05);
        let (q1, q2) = match self.settings.knobs.queue_model {
            QueueModel::LittlesLaw => {
                let (light_queue, heavy_queue) = match obs.tier_queues.split_first() {
                    Some((&entry, deeper)) => (entry, deeper.iter().sum()),
                    None => (0, 0),
                };
                (
                    light_queue as f64 / light_rate,
                    heavy_queue as f64 / heavy_rate,
                )
            }
            QueueModel::TwiceExecution => (
                2.0 * self.stage_latency(ModelTier::Light, obs.current_light_batch),
                2.0 * self.stage_latency(ModelTier::Heavy, obs.current_heavy_batch),
            ),
        };

        // AIMD batch adaptation (Fig. 8 ablation).
        if self.settings.knobs.batch_policy == BatchPolicy::Aimd {
            let max_b = self
                .config
                .batch_sizes
                .iter()
                .copied()
                .max()
                .expect("non-empty");
            self.aimd_light_batch =
                aimd_step(self.aimd_light_batch, obs.violations_light > 0, max_b);
            self.aimd_heavy_batch =
                aimd_step(self.aimd_heavy_batch, obs.violations_heavy > 0, max_b);
        }

        // Profile estimation: score the curve that was in use over the
        // window that just ended, then absorb the window's observations.
        self.track_profile(obs);
        self.track_ladder(obs);

        if !self.settings.policy.is_dynamic() {
            return ControlDirective::Hold;
        }

        let thresholds = self.threshold_grid();
        let batches: Vec<usize> = match self.settings.knobs.batch_policy {
            BatchPolicy::Milp => self.config.batch_sizes.clone(),
            // AIMD owns the batch choice; the planner sees only the current
            // AIMD operating points, so capacity planning reacts a step
            // behind the oscillation — the paper's "reactive signal" flaw.
            BatchPolicy::Aimd => {
                let mut b = vec![self.aimd_light_batch, self.aimd_heavy_batch];
                b.dedup();
                b
            }
        };

        // Degradation awareness: when the backend reports effective
        // capacity below nameplate (degraded workers), inflate the demand
        // the planner solves against by the shortfall — `x·(s·T) ≥ D` is
        // `x·T ≥ D/s` — so the threshold drops and deferrals shed before
        // deadlines do. The nameplate ablation ignores the signal.
        let capacity_scale = if self.settings.knobs.nameplate_capacity
            || obs.effective_capacity <= 0.0
            || obs.alive_workers == 0
        {
            1.0
        } else {
            (obs.effective_capacity / obs.alive_workers as f64).clamp(0.05, 1.0)
        };
        let planned_demand = demand / capacity_scale;

        if self.ladder.is_some() {
            // N-tier ladder planning: per-tier queue delays, the shared
            // threshold grid per boundary, MILP or exhaustive residual
            // solves behind the coordinate search. The AIMD ablation does
            // not compose with ladders — batch choice stays with the
            // planner.
            let slo = self.config.slo.as_secs_f64();
            let queue_delays = self.ladder_queue_delays(obs, light_rate, heavy_rate);
            return self.plan_ladder(
                planned_demand,
                &queue_delays,
                slo,
                &thresholds,
                &batches,
                obs.alive_workers,
            );
        }

        let aimd_cascade = self.settings.policy == Policy::DiffServe
            && self.settings.knobs.batch_policy == BatchPolicy::Aimd;
        // AIMD owns latency reactively (halve on timeout); the planner
        // only sizes throughput at the current AIMD operating points.
        // This is the paper's ablation: the latency constraint leaves
        // the optimization and SLO violations become the (lagging)
        // control signal.
        let slo = if aimd_cascade {
            f64::INFINITY
        } else {
            self.config.slo.as_secs_f64()
        };
        let mut directive = self.plan_allocation(
            planned_demand,
            q1,
            q2,
            slo,
            &thresholds,
            &batches,
            obs.alive_workers,
        );
        if aimd_cascade {
            if let ControlDirective::Apply { plan, .. } = &mut directive {
                plan.batches = vec![self.aimd_light_batch, self.aimd_heavy_batch];
            }
        }
        directive
    }

    /// The deferral profile the allocator currently solves against: the
    /// warmed-up online estimate when available, the offline curve
    /// otherwise.
    pub fn effective_profile(&self) -> &DeferralProfile {
        self.profile.online_profile().unwrap_or(&self.offline)
    }

    /// Whether the online estimate is currently overriding the offline
    /// profile.
    pub fn online_active(&self) -> bool {
        self.profile.online_profile().is_some()
    }

    /// Live estimated-vs-offline `f(t)` gap: mean absolute difference over
    /// the candidate threshold grid, 0 while the offline profile rules.
    pub fn deferral_gap(&self) -> f64 {
        match self.profile.online_profile() {
            Some(p) => p.gap(&self.offline, &self.config.threshold_grid()),
            None => 0.0,
        }
    }

    /// The deferral-estimation-error series recorded so far:
    /// `(tick seconds, mean |f_used(t) − f_observed(t)|)` — the
    /// one-step-ahead prediction error of the profile the allocator used
    /// against the confidences the window actually produced.
    pub fn deferral_error_series(&self) -> &[(f64, f64)] {
        &self.deferral_errors
    }

    /// Takes the recorded error series (for [`RunReport`] assembly at
    /// session teardown).
    ///
    /// [`RunReport`]: crate::report::RunReport
    pub fn take_deferral_error_series(&mut self) -> Vec<(f64, f64)> {
        std::mem::take(&mut self.deferral_errors)
    }

    fn track_profile(&mut self, obs: &ControlObservation) {
        if obs.confidences.len() >= MIN_ERROR_SAMPLES {
            if let Ok(empirical) = DeferralProfile::from_confidences(obs.confidences.clone()) {
                let grid = self.config.threshold_grid();
                let err = self.effective_profile().gap(&empirical, &grid);
                self.deferral_errors.push((obs.now.as_secs_f64(), err));
            }
        }
        if let ProfileEstimator::Online(est) = &mut self.profile {
            est.observe_all(&obs.confidences);
            est.refresh();
        }
    }

    /// Candidate thresholds: the pinned static-threshold ablation value or
    /// the configured grid.
    fn threshold_grid(&self) -> Vec<f64> {
        match self.settings.knobs.static_threshold {
            Some(t) => vec![t],
            None => self.config.threshold_grid(),
        }
    }

    /// Largest batch size whose execution fits half the SLO — the static
    /// batch rule used for the Clipper baselines.
    fn clipper_batch(&self, tier: ModelTier) -> usize {
        let budget = self.config.slo.as_secs_f64() / 2.0;
        self.config
            .batch_sizes
            .iter()
            .copied()
            .filter(|&b| self.stage_latency(tier, b) <= budget)
            .max()
            .unwrap_or(1)
    }

    /// Effective stage execution latency; the light stage pays the
    /// discriminator per image when the policy runs the cascade.
    fn stage_latency(&self, tier: ModelTier, batch: usize) -> f64 {
        match tier {
            ModelTier::Light => {
                let base = self.light.exec_latency(batch).as_secs_f64();
                if self.settings.policy.uses_cascade() {
                    base + self.discriminator_latency * batch as f64
                } else {
                    base
                }
            }
            ModelTier::Heavy => self.heavy.exec_latency(batch).as_secs_f64(),
        }
    }

    /// Builds the tick's solver inputs and runs the planner over them in
    /// one step: the inputs borrow the profile state while the planner
    /// mutates its own (warm-start) state, which the borrow checker only
    /// admits when both happen against disjoint fields in a single method.
    #[allow(clippy::too_many_arguments)]
    fn plan_allocation(
        &mut self,
        demand: f64,
        queue_delay_light: f64,
        queue_delay_heavy: f64,
        slo: f64,
        thresholds: &[f64],
        batch_sizes: &[usize],
        total_workers: usize,
    ) -> ControlDirective {
        let inputs = AllocatorInputs {
            demand_qps: demand,
            queue_delay_light,
            queue_delay_heavy,
            slo,
            total_workers,
            deferral: self.profile.online_profile().unwrap_or(&self.offline),
            light: self.light,
            heavy: self.heavy,
            resume_heavy: self.resume_heavy,
            discriminator_latency: if self.settings.policy.uses_cascade() {
                self.discriminator_latency
            } else {
                0.0
            },
            batch_sizes,
            thresholds,
        };
        self.planner.plan(&inputs)
    }

    /// Feeds boundary-`k ≥ 1` confidence streams to their online
    /// estimators (boundary 0 rides [`ControlLoop::track_profile`]).
    fn track_ladder(&mut self, obs: &ControlObservation) {
        let alpha = self.config.ewma_alpha;
        if let Some(ladder) = &mut self.ladder {
            for (est, stream) in ladder.online.iter_mut().zip(&obs.deep_confidences) {
                est.observe_all(stream);
                est.refresh();
            }
            // Smooth the observed direct-admission split so the planner's
            // per-tier demand model sees where traffic actually enters the
            // ladder (EWMA, same horizon as the demand estimate).
            let total: u64 = obs.tier_direct_arrivals.iter().sum();
            if total > 0 {
                let n = obs.tier_direct_arrivals.len();
                if ladder.direct_frac.len() != n {
                    ladder.direct_frac = vec![0.0; n];
                    ladder.direct_frac[0] = 1.0;
                }
                for (f, &c) in ladder.direct_frac.iter_mut().zip(&obs.tier_direct_arrivals) {
                    *f += alpha * (c as f64 / total as f64 - *f);
                }
            }
        }
    }

    /// Per-tier queuing-delay estimates for the ladder planner, mirroring
    /// the two-tier Little's-law / twice-execution split: the entry tier
    /// drains at the demand rate, deeper tiers at the escalation rate.
    fn ladder_queue_delays(
        &self,
        obs: &ControlObservation,
        entry_rate: f64,
        deep_rate: f64,
    ) -> Vec<f64> {
        let Some(ladder) = &self.ladder else {
            return Vec::new();
        };
        (0..ladder.tiers.len())
            .map(|k| {
                let queued = obs.tier_queues.get(k).copied().unwrap_or(0);
                match self.settings.knobs.queue_model {
                    QueueModel::LittlesLaw => {
                        queued as f64 / if k == 0 { entry_rate } else { deep_rate }
                    }
                    QueueModel::TwiceExecution => {
                        let b = if k == 0 {
                            obs.current_light_batch
                        } else {
                            obs.current_heavy_batch
                        }
                        .max(1);
                        let base = ladder.tiers[k].exec_latency(b).as_secs_f64();
                        let disc = ladder.disc_latencies.get(k).copied().unwrap_or(0.0);
                        2.0 * (base + disc * b as f64)
                    }
                }
            })
            .collect()
    }

    /// Ladder counterpart of [`ControlLoop::plan_allocation`]: assembles
    /// per-boundary effective profiles (online where warmed up, offline
    /// otherwise), runs the coordinate-maximization solver through the
    /// carried warm state, and falls back to the overload ladder when
    /// infeasible.
    #[allow(clippy::too_many_arguments)]
    fn plan_ladder(
        &mut self,
        demand: f64,
        queue_delays: &[f64],
        slo: f64,
        thresholds: &[f64],
        batch_sizes: &[usize],
        total_workers: usize,
    ) -> ControlDirective {
        let boundary0 = self.profile.online_profile().unwrap_or(&self.offline);
        let ladder = self
            .ladder
            .as_mut()
            .expect("plan_ladder requires an attached ladder");
        let LadderControl {
            tiers,
            disc_latencies,
            offline,
            online,
            warm,
            direct_frac,
        } = ladder;
        let deferrals: Vec<&DeferralProfile> = offline
            .iter()
            .enumerate()
            .map(|(k, off)| {
                if k == 0 {
                    boundary0
                } else {
                    online.get(k - 1).and_then(|e| e.profile()).unwrap_or(off)
                }
            })
            .collect();
        let n = tiers.len();
        let queue_delays = if queue_delays.len() == n {
            queue_delays.to_vec()
        } else {
            vec![0.0; n]
        };
        let inputs = LadderInputs {
            demand_qps: demand,
            queue_delays,
            slo,
            total_workers,
            deferrals,
            tiers: tiers.clone(),
            discriminator_latency: disc_latencies.clone(),
            batch_sizes,
            thresholds,
            max_raise_per_solve: self
                .config
                .ladder
                .as_ref()
                .map_or(LadderConfig::default().max_threshold_raise_per_tick, |l| {
                    l.max_threshold_raise_per_tick
                }),
            direct_fractions: direct_frac.clone(),
        };
        let milp = matches!(self.settings.backend, AllocatorBackend::Milp);
        let solved = solve_ladder(&inputs, milp, warm);
        ControlDirective::Apply {
            plan: solved.unwrap_or_else(|| ladder_overload_fallback(&inputs)),
            heavy_fraction: None,
        }
    }
}

impl SessionSpec<'_> {
    /// Assembles the control plane for this session — the one construction
    /// point both backends share, so the pipeline configuration cannot
    /// drift between them.
    pub fn control_loop(&self) -> ControlLoop {
        let mut cl = ControlLoop::new(
            self.config.clone(),
            self.settings.clone(),
            self.runtime.deferral.clone(),
            *self.runtime.spec.light.latency(),
            *self.runtime.spec.heavy.latency(),
            self.runtime.discriminator.latency().as_secs_f64(),
        );
        // A two-tier ladder stays on the legacy planner (bit-identical by
        // construction); deeper ladders attach the N-tier planning state.
        if let Some(art) = &self.runtime.ladder {
            if art.num_tiers() > 2 {
                cl.attach_ladder(
                    art.models.iter().map(|m| *m.latency()).collect(),
                    art.discriminators
                        .iter()
                        .map(|d| d.latency().as_secs_f64())
                        .collect(),
                    art.deferrals.clone(),
                );
            }
        }
        cl
    }
}

/// Clipper's additive-increase / multiplicative-decrease batch rule.
fn aimd_step(current: usize, violated: bool, max_b: usize) -> usize {
    if violated {
        (current / 2).max(1)
    } else {
        (current + 1).min(max_b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::AblationKnobs;

    fn uniform_profile() -> DeferralProfile {
        DeferralProfile::from_confidences((0..1000).map(|i| i as f64 / 1000.0).collect())
            .expect("non-empty")
    }

    fn test_loop(policy: Policy, config: SystemConfig) -> ControlLoop {
        ControlLoop::new(
            config,
            RunSettings::new(policy, 8.0),
            uniform_profile(),
            LatencyProfile::new(0.10, 0.55),
            LatencyProfile::new(1.78, 0.12),
            0.01,
        )
    }

    fn obs(arrivals: u64) -> ControlObservation {
        ControlObservation {
            now: SimTime::from_secs(2),
            arrivals,
            heavy_arrivals: arrivals / 4,
            alive_workers: 8,
            current_light_batch: 1,
            current_heavy_batch: 1,
            ..Default::default()
        }
    }

    fn small_config() -> SystemConfig {
        SystemConfig {
            num_workers: 8,
            ..Default::default()
        }
    }

    #[test]
    fn static_policies_hold_after_bootstrap() {
        for policy in [
            Policy::ClipperLight,
            Policy::ClipperHeavy,
            Policy::DiffServeStatic,
        ] {
            let mut cl = test_loop(policy, small_config());
            let boot = cl.bootstrap(8.0);
            assert_ne!(boot, ControlDirective::Hold, "{policy:?} must bootstrap");
            assert_eq!(
                cl.step(&obs(10)),
                ControlDirective::Hold,
                "{policy:?} must never re-plan"
            );
        }
    }

    #[test]
    fn clipper_bootstrap_dedicates_the_fleet() {
        let mut cl = test_loop(Policy::ClipperLight, small_config());
        match cl.bootstrap(8.0) {
            ControlDirective::Apply { plan, .. } => {
                assert_eq!(plan.workers, [8, 0]);
                assert!(plan.batches[0] >= 1);
            }
            d => panic!("unexpected directive {d:?}"),
        }
        let mut cl = test_loop(Policy::ClipperHeavy, small_config());
        match cl.bootstrap(8.0) {
            ControlDirective::Apply { plan, .. } => assert_eq!(plan.workers, [0, 8]),
            d => panic!("unexpected directive {d:?}"),
        }
    }

    #[test]
    fn diffserve_step_replans_and_threshold_falls_with_demand() {
        let mut low = test_loop(Policy::DiffServe, small_config());
        low.bootstrap(8.0);
        let mut high = test_loop(Policy::DiffServe, small_config());
        high.bootstrap(8.0);
        let t_of = |d: ControlDirective| match d {
            ControlDirective::Apply { plan, .. } => plan.thresholds[0],
            d => panic!("unexpected directive {d:?}"),
        };
        let t_low = t_of(low.step(&obs(4)));
        let t_high = t_of(high.step(&obs(40)));
        assert!(
            t_low >= t_high,
            "threshold must not rise with demand: {t_low} vs {t_high}"
        );
    }

    #[test]
    fn proteus_planner_falls_back_under_overload() {
        let profile = uniform_profile();
        let thresholds = [0.0, 0.5, 0.9];
        let batches = [1usize, 2, 4];
        let inputs = AllocatorInputs {
            demand_qps: 10_000.0,
            queue_delay_light: 0.0,
            queue_delay_heavy: 0.0,
            slo: 5.0,
            total_workers: 4,
            deferral: &profile,
            light: LatencyProfile::new(0.10, 0.55),
            heavy: LatencyProfile::new(1.78, 0.12),
            resume_heavy: None,
            discriminator_latency: 0.0,
            batch_sizes: &batches,
            thresholds: &thresholds,
        };
        match Planner::Proteus.plan(&inputs) {
            ControlDirective::Apply {
                plan,
                heavy_fraction,
            } => {
                assert_eq!(heavy_fraction, Some(0.0));
                assert!(!plan.feasible);
            }
            d => panic!("unexpected directive {d:?}"),
        }
    }

    #[test]
    fn cascade_planner_falls_back_under_overload() {
        let profile = uniform_profile();
        let thresholds = [0.0, 0.5, 0.9];
        let batches = [1usize, 2, 4];
        let inputs = AllocatorInputs {
            demand_qps: 10_000.0,
            queue_delay_light: 0.0,
            queue_delay_heavy: 0.0,
            slo: 5.0,
            total_workers: 4,
            deferral: &profile,
            light: LatencyProfile::new(0.10, 0.55),
            heavy: LatencyProfile::new(1.78, 0.12),
            resume_heavy: None,
            discriminator_latency: 0.01,
            batch_sizes: &batches,
            thresholds: &thresholds,
        };
        for backend in [AllocatorBackend::Exhaustive, AllocatorBackend::Milp] {
            match Planner::cascade(backend).plan(&inputs) {
                ControlDirective::Apply { plan, .. } => {
                    assert!(!plan.feasible, "{backend:?} must fall back");
                    assert_eq!(plan.thresholds, [0.0]);
                }
                d => panic!("unexpected directive {d:?}"),
            }
        }
    }

    #[test]
    fn online_estimator_tracks_a_difficulty_shift() {
        let config = SystemConfig {
            num_workers: 8,
            online_profile_refresh: true,
            online_profile_window: 200,
            online_profile_min_samples: 50,
            ..Default::default()
        };
        let mut cl = test_loop(Policy::DiffServe, config);
        cl.bootstrap(8.0);
        assert!(!cl.online_active());
        assert_eq!(cl.deferral_gap(), 0.0);

        // Stationary phase: confidences match the (uniform) offline curve.
        let uniform: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        let mut o = obs(100);
        o.confidences = uniform.clone();
        cl.step(&o);
        cl.step(&o);
        assert!(cl.online_active());
        let stationary_gap = cl.deferral_gap();
        assert!(
            stationary_gap < 0.05,
            "stationary stream must agree with offline: {stationary_gap}"
        );
        let stationary_err = cl.deferral_error_series().last().unwrap().1;

        // The prompt mix hardens: confidences collapse toward zero.
        let hard: Vec<f64> = (0..100).map(|i| i as f64 / 400.0).collect();
        let mut o = obs(100);
        o.confidences = hard.clone();
        let first_err = {
            cl.step(&o);
            cl.deferral_error_series().last().unwrap().1
        };
        assert!(
            first_err > stationary_err + 0.1,
            "shift must register as estimation error: {first_err} vs {stationary_err}"
        );
        // After the window turns over, the estimate has caught up: the
        // one-step-ahead error shrinks and the estimated-vs-offline gap is
        // now large (the estimate left the stale offline curve behind).
        cl.step(&o);
        cl.step(&o);
        let settled_err = cl.deferral_error_series().last().unwrap().1;
        assert!(
            settled_err < first_err / 2.0,
            "online estimate must converge after the shift: {settled_err} vs {first_err}"
        );
        assert!(cl.deferral_gap() > 0.2, "gap {}", cl.deferral_gap());
    }

    #[test]
    fn offline_mode_keeps_reporting_estimation_error() {
        // Without online refresh the error series still records how far the
        // offline curve drifts from reality — the telemetry the
        // difficulty-shift regression test compares across modes.
        let mut cl = test_loop(Policy::DiffServe, small_config());
        cl.bootstrap(8.0);
        let hard: Vec<f64> = (0..100).map(|i| i as f64 / 400.0).collect();
        let mut o = obs(100);
        o.confidences = hard;
        cl.step(&o);
        cl.step(&o);
        assert!(!cl.online_active());
        let errs = cl.deferral_error_series();
        assert_eq!(errs.len(), 2);
        assert!(
            errs[1].1 > 0.2 && (errs[1].1 - errs[0].1).abs() < 1e-9,
            "offline error must stay high and flat: {errs:?}"
        );
        assert_eq!(cl.take_deferral_error_series().len(), 2);
        assert!(cl.deferral_error_series().is_empty());
    }

    #[test]
    fn degraded_capacity_lowers_the_threshold_unless_nameplate() {
        let t_of = |d: ControlDirective| match d {
            ControlDirective::Apply { plan, .. } => plan.thresholds[0],
            d => panic!("unexpected directive {d:?}"),
        };
        let observe = |effective: f64, knobs: AblationKnobs| {
            let mut cl = ControlLoop::new(
                small_config(),
                RunSettings {
                    knobs,
                    ..RunSettings::new(Policy::DiffServe, 8.0)
                },
                uniform_profile(),
                LatencyProfile::new(0.10, 0.55),
                LatencyProfile::new(1.78, 0.12),
                0.01,
            );
            cl.bootstrap(8.0);
            let mut o = obs(30);
            o.effective_capacity = effective;
            t_of(cl.step(&o))
        };
        let healthy = observe(8.0, AblationKnobs::default());
        let degraded = observe(4.5, AblationKnobs::default());
        assert!(
            degraded < healthy,
            "a brownout must lower the threshold: {degraded} vs {healthy}"
        );
        // The nameplate ablation is blind to the same signal...
        let blind = observe(4.5, AblationKnobs::nameplate());
        assert_eq!(blind, healthy);
        // ...and an unreported capacity (0.0) falls back to nameplate.
        assert_eq!(observe(0.0, AblationKnobs::default()), healthy);
    }

    #[test]
    fn tiny_windows_record_no_error_points() {
        let mut cl = test_loop(Policy::DiffServe, small_config());
        cl.bootstrap(8.0);
        let mut o = obs(4);
        o.confidences = vec![0.5; MIN_ERROR_SAMPLES - 1];
        cl.step(&o);
        assert!(cl.deferral_error_series().is_empty());
    }
}
