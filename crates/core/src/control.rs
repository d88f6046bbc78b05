//! The backend-agnostic control plane.
//!
//! DiffServe's controller runs the same pipeline every control interval,
//! whichever execution engine hosts the workers and however many tiers the
//! runtime serves (a two-tier cascade is the N = 2 ladder):
//!
//! 1. **Demand estimation** — EWMA over the arrivals observed since the
//!    last tick, over-provisioned by λ (§3.3, via
//!    [`DemandEstimator`]).
//! 2. **Profile estimation** — the per-boundary deferral profiles `f_k(t)`
//!    the allocator solves against. The paper initializes `f` offline and
//!    *keeps updating it online* (§4.2, Eq. 3): with online refresh on,
//!    every boundary owns a streaming [`OnlineDeferralEstimator`] that
//!    re-estimates its curve from the confidences the boundary actually
//!    observes, so the controller tracks difficulty drift; the offline
//!    curve rules until the estimator warms up, and always without it.
//! 3. **Allocation planning** — one `plan` call. The planner is chosen
//!    once, when the loop is built, and every one enumerates: a two-tier
//!    session plans over [`solve_exhaustive`] or [`solve_proteus`] (per
//!    policy), with the [`overload_fallback`] when the solve is infeasible;
//!    deeper ladders plan through [`solve_ladder`] and
//!    [`ladder_overload_fallback`], whose body the two-tier fallback
//!    shares. Debug builds check every cascade and ladder plan twice:
//!    against the MILP oracle, which must plan the tick identically, and
//!    against Eq. 1–5 evaluated from the session's stage latencies and
//!    deferral profiles.
//! 4. **Plan actuation** — the backend-side half: each engine applies the
//!    returned [`ControlDirective`] to its own live serving state (the
//!    simulator's worker array, the testbed's shared [`ServingPlan`]).
//!    Every planner returns the one plan type, [`LadderAllocation`], so a
//!    plan reaches an engine as the planner made it; a two-tier plan is
//!    the N = 2 one, and Proteus's heavy routing fraction is its first
//!    threshold.
//!
//! Both backends gather a [`ControlObservation`] (from the session's
//! [`Ledger`](crate::kernel::Ledger)), call [`ControlLoop::step`], and
//! actuate the directive; the decision logic exists once.
//!
//! [`ServingPlan`]: https://docs.rs/diffserve-cluster
//! [`OnlineDeferralEstimator`]: diffserve_imagegen::OnlineDeferralEstimator

use diffserve_imagegen::{DeferralProfile, LatencyProfile, OnlineDeferralEstimator};
use diffserve_simkit::time::SimTime;
use diffserve_trace::DemandEstimator;

use crate::allocator::{
    direct_share, ladder_overload_fallback, overload_fallback, solve_exhaustive, solve_ladder,
    solve_milp_allocation_warm, solve_proteus, AllocatorInputs, LadderAllocation, LadderInputs,
    LadderWarmState,
};
use crate::config::{LadderConfig, SystemConfig, EWMA_ALPHA};
use crate::kernel::StageLatencies;
use crate::policy::{BatchPolicy, Policy, QueueModel};
use crate::serve::SessionSpec;
use crate::sim::RunSettings;

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
    /// SLO violations since the last tick, by the tier that was serving
    /// the query (a shed or a late completion), entry tier first (length
    /// N; a missing entry reads as zero). Feeds AIMD batch adaptation.
    pub tier_violations: Vec<u64>,
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
    /// first (length N). A missing entry reads as zero.
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

/// What the control pipeline decided this tick; the backend applies it.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlDirective {
    /// Apply a solved allocation: per-boundary thresholds, per-tier worker
    /// counts and batch sizes. A two-tier cascade is the N = 2 plan; under
    /// Proteus, `thresholds[0]` is the fraction of arrivals routed directly
    /// to the terminal tier.
    Apply {
        /// The plan to actuate.
        plan: LadderAllocation,
    },
    /// Keep the current plan (static policies after bootstrap).
    Hold,
}

/// The allocation-planning strategy, chosen once per session: demand and
/// constraints in, a [`ControlDirective`] out. Every variant falls back to
/// an overload plan when the problem is infeasible, so callers never
/// handle `None`.
#[derive(Debug, Clone)]
enum Planner {
    /// Two-tier DiffServe and DiffServe-Static: maximizes the confidence
    /// threshold by enumerating batch pairs ([`solve_exhaustive`]).
    Cascade,
    /// Proteus: maximizes the heavy routing fraction; under overload
    /// everything routes light over the fallback allocation.
    Proteus,
    /// Ladders of more than two tiers: coordinate-maximizes the threshold
    /// vector through [`solve_ladder`], enumerating batch tuples behind
    /// the search.
    Ladder {
        /// Warm levels, worker split and scratch carried across ticks.
        warm: Box<LadderWarmState>,
    },
}

/// The unified control plane driven by both serving backends.
///
/// Construct one from validated session inputs
/// ([`SessionSpec::control_loop`](crate::serve::SessionSpec::control_loop)),
/// call [`bootstrap`](ControlLoop::bootstrap) once before serving, then
/// [`step`](ControlLoop::step) every control interval with what the backend
/// observed; actuate the returned directive.
///
/// Owns the pipeline state: the demand EWMA, the per-boundary profile
/// estimators, AIMD batch state, and the deferral-estimation-error series
/// recorded for the final [`RunReport`](crate::report::RunReport). The
/// state is tier- and boundary-indexed for every ladder size; only the
/// planner differs between two tiers and more.
#[derive(Debug)]
pub struct ControlLoop {
    config: SystemConfig,
    settings: RunSettings,
    /// Per-tier execution profiles and per-boundary discriminator charges
    /// (zeros when the policy runs no cascade), and the stage latency of
    /// every tier at every configured batch size.
    stages: StageLatencies,
    /// Per-boundary offline deferral profiles `f_k(t)`.
    offline: Vec<DeferralProfile>,
    /// One online estimator per boundary; empty when online refresh is off.
    online: Vec<OnlineDeferralEstimator>,
    /// EWMA of the per-tier direct-admission split (length N, sums to 1)
    /// observed through [`ControlObservation::tier_direct_arrivals`];
    /// empty until the first window reports admissions.
    direct_frac: Vec<f64>,
    /// The terminal tier as a resumed escalation pays it, for the two-tier
    /// latency constraint; `None` in restart mode.
    resume_heavy: Option<LatencyProfile>,
    demand: DemandEstimator,
    planner: Planner,
    aimd_light_batch: usize,
    aimd_heavy_batch: usize,
    deferral_errors: Vec<(f64, f64)>,
    /// The configured threshold grid ([`SystemConfig::threshold_grid`]),
    /// computed once: the planner's candidates unless the static-threshold
    /// ablation pins one, and the grid profiles are compared over.
    grid: Vec<f64>,
    /// Scratch for [`ControlLoop::deferral_error`]: a tick's confidences
    /// bucketed by how many grid thresholds lie at or below each.
    grid_counts: Vec<usize>,
}

impl ControlLoop {
    /// Builds the control loop from the session's stage latencies and
    /// per-boundary offline deferral profiles, and picks the session's
    /// planner.
    fn new(
        config: SystemConfig,
        settings: RunSettings,
        stages: StageLatencies,
        offline: Vec<DeferralProfile>,
    ) -> Self {
        let tiers = stages.profiles();
        assert_eq!(tiers.len(), offline.len() + 1, "one profile per boundary");
        let planner = if tiers.len() > 2 {
            Planner::Ladder {
                warm: Box::default(),
            }
        } else if settings.policy == Policy::Proteus {
            Planner::Proteus
        } else {
            Planner::Cascade
        };
        let online = if config.online_profile_refresh {
            offline
                .iter()
                .map(|_| {
                    OnlineDeferralEstimator::new(
                        config.online_profile_window,
                        config.online_profile_min_samples,
                    )
                })
                .collect()
        } else {
            Vec::new()
        };
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
        let heavy = tiers[tiers.len() - 1];
        let resume_heavy = config.resume_from_latents.then(|| {
            let k = 1.0 - diffserve_imagegen::DENOISE_FRAC * config.resume_step_credit;
            let base =
                heavy.base_latency * (heavy.batch_overhead + (1.0 - heavy.batch_overhead) * k);
            LatencyProfile::new(base, heavy.base_latency * heavy.batch_overhead / base)
        });
        ControlLoop {
            demand: DemandEstimator::new(EWMA_ALPHA, config.over_provision),
            planner,
            aimd_light_batch: 1,
            aimd_heavy_batch: 1,
            deferral_errors: Vec::new(),
            grid: config.threshold_grid(),
            grid_counts: Vec::new(),
            config,
            settings,
            stages,
            offline,
            online,
            direct_frac: Vec::new(),
            resume_heavy,
        }
    }

    /// The initial allocation before any demand has been observed.
    /// `peak_demand` is what static provisioning plans for: both engines
    /// pass the session's raw peak-demand hint.
    pub fn bootstrap(&mut self, peak_demand: f64) -> ControlDirective {
        let workers = self.config.num_workers;
        let slo = self.config.slo.as_secs_f64();
        let idle_queues = vec![0.0; self.stages.profiles().len()];
        match self.settings.policy {
            // Clipper dedicates the whole fleet to one tier.
            policy @ (Policy::ClipperLight | Policy::ClipperHeavy) => {
                let n = self.stages.profiles().len();
                let tier = if policy == Policy::ClipperLight {
                    0
                } else {
                    n - 1
                };
                let mut plan = LadderAllocation {
                    thresholds: vec![0.5; n - 1],
                    workers: vec![0; n],
                    batches: vec![1; n],
                    feasible: true,
                };
                plan.workers[tier] = workers;
                plan.batches[tier] = self.clipper_batch(tier);
                ControlDirective::Apply { plan }
            }
            // Provisioned for the anticipated peak and never re-solved
            // (§4.1: "provisioned to accommodate maximum anticipated
            // demand").
            Policy::DiffServeStatic => self.plan(peak_demand, idle_queues, slo, None, workers),
            Policy::DiffServe | Policy::Proteus => self.plan(1.0, idle_queues, slo, None, workers),
        }
    }

    /// One control tick: demand estimation → profile estimation →
    /// allocation planning. Static policies still feed the estimators (so
    /// their telemetry stays comparable) but always return
    /// [`ControlDirective::Hold`].
    pub fn step(&mut self, obs: &ControlObservation) -> ControlDirective {
        self.demand
            .observe(obs.arrivals, self.config.control_interval);
        let demand = self.demand.provisioned_estimate().max(0.5);

        // AIMD batch adaptation (Fig. 8 ablation).
        let aimd = self.settings.knobs.batch_policy == BatchPolicy::Aimd;
        if aimd {
            let max_b = self
                .config
                .batch_sizes
                .iter()
                .copied()
                .max()
                .expect("non-empty");
            // The light point halves on an entry-tier violation, the heavy
            // one on a violation at any deeper tier.
            let (entry, deeper) = obs.tier_violations.split_first().unwrap_or((&0, &[]));
            self.aimd_light_batch = aimd_step(self.aimd_light_batch, *entry > 0, max_b);
            self.aimd_heavy_batch =
                aimd_step(self.aimd_heavy_batch, deeper.iter().any(|&v| v > 0), max_b);
        }

        // Profile estimation: score the curve that was in use over the
        // window that just ended, then absorb the window's observations.
        self.track_profiles(obs);

        if !self.settings.policy.is_dynamic() {
            return ControlDirective::Hold;
        }

        let queue_delays = self.queue_delays(obs, demand);
        // AIMD owns the batch choice; the planner sees only the current
        // AIMD operating points (once each), so capacity planning reacts a
        // step behind the oscillation — the paper's "reactive signal" flaw.
        let aimd_points = [self.aimd_light_batch, self.aimd_heavy_batch];
        let distinct = 1 + usize::from(aimd_points[0] != aimd_points[1]);
        let aimd_batches = aimd.then_some(&aimd_points[..distinct]);

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

        // On the two-tier cascade, AIMD owns latency reactively (halve on
        // timeout); the planner only sizes throughput at the current AIMD
        // operating points. This is the paper's ablation: the latency
        // constraint leaves the optimization and SLO violations become the
        // (lagging) control signal. Proteus and ladders keep the SLO and
        // leave the batch choice with the planner.
        let aimd_cascade = aimd && matches!(self.planner, Planner::Cascade);
        let slo = if aimd_cascade {
            f64::INFINITY
        } else {
            self.config.slo.as_secs_f64()
        };
        let mut directive = self.plan(
            planned_demand,
            queue_delays,
            slo,
            aimd_batches,
            obs.alive_workers,
        );
        if aimd_cascade {
            if let ControlDirective::Apply { plan, .. } = &mut directive {
                plan.batches = vec![self.aimd_light_batch, self.aimd_heavy_batch];
            }
        }
        directive
    }

    /// Live estimated-vs-offline `f(t)` gap at boundary 0: mean absolute
    /// difference over the candidate threshold grid, 0 while the offline
    /// profile rules.
    pub fn deferral_gap(&self) -> f64 {
        match self
            .online
            .first()
            .and_then(OnlineDeferralEstimator::profile)
        {
            Some(p) => p.gap(&self.offline[0], &self.grid),
            None => 0.0,
        }
    }

    /// Takes the deferral-estimation-error series recorded so far (for
    /// [`RunReport`] assembly at session teardown): `(tick seconds, mean
    /// |f_used(t) − f_observed(t)|)` at boundary 0 — the one-step-ahead
    /// prediction error of the profile the allocator used against the
    /// confidences the window actually produced.
    ///
    /// [`RunReport`]: crate::report::RunReport
    pub fn take_deferral_error_series(&mut self) -> Vec<(f64, f64)> {
        std::mem::take(&mut self.deferral_errors)
    }

    /// Profile estimation for every boundary: records boundary 0's error
    /// series, feeds each boundary's confidence stream to its online
    /// estimator, and smooths the direct-admission split.
    fn track_profiles(&mut self, obs: &ControlObservation) {
        if obs.confidences.len() >= MIN_ERROR_SAMPLES {
            if let Some(err) = self.deferral_error(&obs.confidences) {
                self.deferral_errors.push((obs.now.as_secs_f64(), err));
            }
        }
        let streams = std::iter::once(&obs.confidences).chain(&obs.deep_confidences);
        for (est, stream) in self.online.iter_mut().zip(streams) {
            est.observe_all(stream);
            est.refresh();
        }
        // Smooth the observed direct-admission split so the ladder
        // planner's per-tier demand model sees where traffic actually
        // enters the ladder (EWMA, same horizon as the demand estimate).
        let total: u64 = obs.tier_direct_arrivals.iter().sum();
        if total > 0 {
            let n = obs.tier_direct_arrivals.len();
            if self.direct_frac.len() != n {
                self.direct_frac = vec![0.0; n];
                self.direct_frac[0] = 1.0;
            }
            for (f, &c) in self.direct_frac.iter_mut().zip(&obs.tier_direct_arrivals) {
                *f += EWMA_ALPHA * (c as f64 / total as f64 - *f);
            }
        }
    }

    /// Mean `|f_used(t) − f_observed(t)|` over the threshold grid at
    /// boundary 0, where `f_observed` is the empirical profile of this
    /// tick's finite `confidences`; `None` when there are none.
    ///
    /// Bitwise [`DeferralProfile::gap`] against
    /// [`DeferralProfile::from_confidences`] of them, without sorting a
    /// copy: each sample is bucketed by how many grid points lie at or
    /// below it, and a prefix sum then counts, at each grid point `t`, the
    /// samples below `t` — the same integers the sorted profile counts.
    fn deferral_error(&mut self, confidences: &[f64]) -> Option<f64> {
        let grid = &self.grid;
        let counts = &mut self.grid_counts;
        counts.clear();
        counts.resize(grid.len() + 1, 0);
        let mut n = 0usize;
        for &c in confidences.iter().filter(|c| c.is_finite()) {
            counts[grid.partition_point(|&t| t <= c)] += 1;
            n += 1;
        }
        if n == 0 {
            return None;
        }
        let used = effective(&self.online, &self.offline, 0);
        let mut below = 0;
        let total: f64 = used
            .fractions_deferred(grid)
            .zip(counts.iter())
            .map(|(f, &k)| {
                below += k;
                (f - below as f64 / n as f64).abs()
            })
            .sum();
        Some(total / grid.len() as f64)
    }

    /// Per-tier queuing-delay estimates, Little's law or the Fig. 8
    /// twice-execution heuristic: the entry tier drains at the demand rate,
    /// deeper tiers at the escalation rate.
    fn queue_delays(&self, obs: &ControlObservation, demand: f64) -> Vec<f64> {
        let entry_rate = demand.max(0.05);
        let interval = self.config.control_interval.as_secs_f64();
        let deep_rate = (obs.heavy_arrivals as f64 / interval).max(0.05);
        (0..self.stages.profiles().len())
            .map(|k| match self.settings.knobs.queue_model {
                QueueModel::LittlesLaw => {
                    let queued = obs.tier_queues.get(k).copied().unwrap_or(0);
                    queued as f64 / if k == 0 { entry_rate } else { deep_rate }
                }
                QueueModel::TwiceExecution => {
                    let b = if k == 0 {
                        obs.current_light_batch
                    } else {
                        obs.current_heavy_batch
                    };
                    2.0 * self.stages.secs(k, b.max(1))
                }
            })
            .collect()
    }

    /// Largest batch size whose execution fits half the SLO — the static
    /// batch rule used for the Clipper baselines.
    fn clipper_batch(&self, tier: usize) -> usize {
        let budget = self.config.slo.as_secs_f64() / 2.0;
        self.config
            .batch_sizes
            .iter()
            .copied()
            .filter(|&b| self.stages.secs(tier, b) <= budget)
            .max()
            .unwrap_or(1)
    }

    /// Builds the tick's solver inputs and runs the planner over them in
    /// one step: the inputs borrow the profile state while the planner
    /// mutates its own (warm-start) state, which the borrow checker only
    /// admits over disjoint fields in a single method.
    ///
    /// The candidate thresholds are the static-threshold ablation's one
    /// value or the configured grid; the candidate batch sizes are
    /// `batch_sizes` when AIMD owns them, the configured ones otherwise.
    ///
    /// Debug builds re-plan every cascade and ladder tick through the MILP
    /// oracle — [`solve_milp_allocation_warm`] from a cold state, or
    /// [`solve_ladder`] with `milp` from a copy of the served state — and
    /// assert the two plans equal, then check the served plan with
    /// [`check_plan`].
    fn plan(
        &mut self,
        demand_qps: f64,
        queue_delays: Vec<f64>,
        slo: f64,
        batch_sizes: Option<&[usize]>,
        total_workers: usize,
    ) -> ControlDirective {
        let ControlLoop {
            config,
            settings,
            stages,
            offline,
            online,
            direct_frac,
            resume_heavy,
            planner,
            grid,
            ..
        } = self;
        let thresholds = match &settings.knobs.static_threshold {
            Some(t) => std::slice::from_ref(t),
            None => &grid[..],
        };
        let batch_sizes = batch_sizes.unwrap_or(&config.batch_sizes);
        let (queue_delay_light, queue_delay_heavy) = (queue_delays[0], queue_delays[1]);
        // The ladder planner's inputs; debug builds also check a cascade
        // plan against them.
        let ladder = match planner {
            Planner::Proteus => None,
            Planner::Cascade if !cfg!(debug_assertions) => None,
            _ => Some(LadderInputs {
                demand_qps,
                queue_delays,
                slo,
                total_workers,
                deferrals: (0..offline.len())
                    .map(|b| effective(online, offline, b))
                    .collect(),
                tiers: stages.profiles().to_vec(),
                discriminator_latency: stages.discriminators().to_vec(),
                batch_sizes,
                thresholds,
                max_raise_per_solve: config
                    .ladder
                    .as_ref()
                    .map_or(LadderConfig::default().max_threshold_raise_per_tick, |l| {
                        l.max_threshold_raise_per_tick
                    }),
                // Only a ladder planner models straight-to-tier admission.
                direct_fractions: match planner {
                    Planner::Ladder { .. } => direct_frac.clone(),
                    _ => Vec::new(),
                },
            }),
        };
        let plan = if let Planner::Ladder { warm } = planner {
            let ladder = ladder.as_ref().expect("a ladder tick builds its inputs");
            let oracle = cfg!(debug_assertions).then(|| warm.clone());
            let served = solve_ladder(ladder, false, warm);
            if let Some(mut oracle) = oracle {
                assert_eq!(
                    solve_ladder(ladder, true, &mut oracle),
                    served,
                    "the MILP oracle plans this ladder tick differently"
                );
            }
            served.unwrap_or_else(|| ladder_overload_fallback(ladder))
        } else {
            let inputs = AllocatorInputs {
                demand_qps,
                queue_delay_light,
                queue_delay_heavy,
                slo,
                total_workers,
                deferral: effective(online, offline, 0),
                light: stages.profiles()[0],
                heavy: stages.profiles()[1],
                resume_heavy: *resume_heavy,
                discriminator_latency: stages.discriminators()[0],
                batch_sizes,
                thresholds,
            };
            let served = if let Planner::Proteus = planner {
                // The solved plan's threshold is the heavy fraction; the
                // overload fallback's 0.0 routes everything light.
                solve_proteus(&inputs)
            } else {
                let served = solve_exhaustive(&inputs);
                if cfg!(debug_assertions) {
                    let oracle = solve_milp_allocation_warm(&inputs, &mut Default::default());
                    assert_eq!(
                        oracle, served,
                        "the MILP oracle plans this cascade tick differently"
                    );
                }
                served
            };
            served.unwrap_or_else(|| overload_fallback(&inputs))
        };
        if let Some(ladder) = ladder.filter(|_| cfg!(debug_assertions) && plan.feasible) {
            let resume = match planner {
                Planner::Cascade => resume_heavy.as_ref(),
                _ => None,
            };
            check_plan(stages, resume, &ladder, &plan);
        }
        ControlDirective::Apply { plan }
    }
}

/// The plan twin: checks a feasible served `plan` against Eq. 1–5 by
/// evaluating the constraints, not by solving. Every stage number is
/// re-derived from the session's `stages` — not read from the planner's
/// table — and every `f` from the deferral profiles:
///
/// * each tier's capacity covers its demand — the entry demand, then each
///   boundary's deferred flow plus the share admitted straight at the
///   tier (Eqs. 2–3);
/// * the workers fit the fleet (Eq. 4);
/// * the cascade's latency, its terminal tier charged on `resume` when
///   set, fits the SLO less the queue delays, unless the SLO is infinite
///   (Eq. 1);
/// * every threshold is a candidate grid value, and every batch a
///   candidate batch size.
///
/// Debug builds call it on every cascade and ladder tick.
fn check_plan(
    stages: &StageLatencies,
    resume: Option<&LatencyProfile>,
    inputs: &LadderInputs<'_>,
    plan: &LadderAllocation,
) {
    let n = inputs.num_tiers();
    let tol = |x: f64| 1e-9 * (1.0 + x.abs());
    assert_eq!(plan.workers.len(), n, "one worker count per tier: {plan:?}");
    assert!(
        plan.workers.iter().sum::<usize>() <= inputs.total_workers,
        "Eq. 4: {plan:?} overflows {} workers",
        inputs.total_workers
    );
    assert!(
        plan.thresholds
            .iter()
            .all(|t| inputs.thresholds.contains(t)),
        "a threshold is off the grid: {plan:?}"
    );
    let demand = inputs.demand_qps.max(1e-9);
    let (mut need, mut latency) = (0.0, 0.0);
    for (k, (&workers, &b)) in plan.workers.iter().zip(&plan.batches).enumerate() {
        assert!(
            inputs.batch_sizes.contains(&b),
            "batch {b} is no candidate: {plan:?}"
        );
        let stage = stages.secs(k, b);
        if k > 0 {
            need *= inputs.deferrals[k - 1].fraction_deferred(plan.thresholds[k - 1]);
        }
        need += demand * direct_share(&inputs.direct_fractions, k);
        let capacity = workers as f64 * (b as f64 / stage);
        assert!(
            capacity + tol(need) >= need,
            "Eqs. 2–3: tier {k} serves {capacity} of its {need} qps: {plan:?}"
        );
        latency += match resume {
            Some(r) if k + 1 == n => r.exec_latency(b).as_secs_f64(),
            _ => stage,
        } + inputs.queue_delays[k];
    }
    assert!(
        inputs.slo.is_infinite() || latency <= inputs.slo + tol(inputs.slo),
        "Eq. 1: the cascade takes {latency} s of a {} s SLO: {plan:?}",
        inputs.slo
    );
}

/// The deferral profile the allocator solves against at boundary `b`: the
/// warmed-up online estimate when available, the offline curve otherwise.
fn effective<'a>(
    online: &'a [OnlineDeferralEstimator],
    offline: &'a [DeferralProfile],
    b: usize,
) -> &'a DeferralProfile {
    online
        .get(b)
        .and_then(OnlineDeferralEstimator::profile)
        .unwrap_or(&offline[b])
}

impl SessionSpec<'_> {
    /// Assembles the control plane for this session — the one construction
    /// point both backends share, so the pipeline configuration cannot
    /// drift between them.
    pub fn control_loop(&self) -> ControlLoop {
        let runtime = self.runtime;
        ControlLoop::new(
            self.config.clone(),
            self.settings.clone(),
            StageLatencies::of_session(runtime, &self.config, self.settings.policy),
            (0..runtime.num_tiers() - 1)
                .map(|b| runtime.deferral(b).clone())
                .collect(),
        )
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

    /// The stage latencies of `profiles` under `settings`' policy, over
    /// `config`'s batch sizes.
    fn stages(
        profiles: Vec<LatencyProfile>,
        disc_latencies: Vec<f64>,
        settings: &RunSettings,
        config: &SystemConfig,
    ) -> StageLatencies {
        let max_batch = config.batch_sizes.iter().copied().max().unwrap();
        StageLatencies::new(
            profiles,
            disc_latencies,
            settings.policy.uses_cascade(),
            max_batch,
        )
    }

    fn loop_with(settings: RunSettings, config: SystemConfig) -> ControlLoop {
        let profiles = vec![
            LatencyProfile::new(0.10, 0.55),
            LatencyProfile::new(1.78, 0.12),
        ];
        let stages = stages(profiles, vec![0.01], &settings, &config);
        ControlLoop::new(config, settings, stages, vec![uniform_profile()])
    }

    fn test_loop(policy: Policy, config: SystemConfig) -> ControlLoop {
        loop_with(RunSettings::new(policy, 8.0), config)
    }

    /// Whether boundary 0's online estimate is overriding its offline
    /// profile.
    fn online_active(cl: &ControlLoop) -> bool {
        cl.online.first().is_some_and(|e| e.profile().is_some())
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

    /// Plans an instance far beyond what four workers can serve.
    fn plan_overload(cl: &mut ControlLoop) -> ControlDirective {
        let n = cl.stages.profiles().len();
        cl.plan(10_000.0, vec![0.0; n], 5.0, Some(&[1, 2, 4]), 4)
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
        let mut cl = test_loop(Policy::Proteus, small_config());
        assert_eq!(
            cl.stages.discriminators(),
            [0.0],
            "Proteus runs no discriminator"
        );
        match plan_overload(&mut cl) {
            ControlDirective::Apply { plan } => {
                assert_eq!(plan.thresholds, [0.0], "everything routes light");
                assert!(!plan.feasible);
            }
            d => panic!("unexpected directive {d:?}"),
        }
    }

    #[test]
    fn cascade_planner_falls_back_under_overload() {
        let mut cl = test_loop(Policy::DiffServe, small_config());
        match plan_overload(&mut cl) {
            ControlDirective::Apply { plan, .. } => {
                assert!(!plan.feasible, "the cascade must fall back");
                assert_eq!(plan.thresholds, [0.0]);
            }
            d => panic!("unexpected directive {d:?}"),
        }
    }

    #[test]
    fn a_deep_ladder_plans_every_boundary_and_estimates_each_online() {
        let config = SystemConfig {
            num_workers: 8,
            online_profile_refresh: true,
            online_profile_window: 200,
            online_profile_min_samples: 50,
            ..Default::default()
        };
        let settings = RunSettings::new(Policy::DiffServe, 8.0);
        let profiles = vec![
            LatencyProfile::new(0.10, 0.55),
            LatencyProfile::new(0.60, 0.30),
            LatencyProfile::new(1.78, 0.12),
        ];
        let stages = stages(profiles, vec![0.01, 0.01], &settings, &config);
        let mut cl = ControlLoop::new(
            config,
            settings,
            stages,
            vec![uniform_profile(), uniform_profile()],
        );
        assert!(matches!(cl.planner, Planner::Ladder { .. }));
        assert_eq!(cl.online.len(), 2, "one estimator per boundary");
        let mut o = obs(10);
        o.tier_queues = vec![0; 3];
        o.confidences = vec![0.5; 60];
        o.deep_confidences = vec![vec![0.25; 60]];
        match cl.step(&o) {
            ControlDirective::Apply { plan, .. } => {
                assert_eq!(plan.thresholds.len(), 2);
                assert_eq!(plan.workers.len(), 3);
            }
            d => panic!("unexpected directive {d:?}"),
        }
        assert!(cl.online.iter().all(|e| e.profile().is_some()));
        match plan_overload(&mut cl) {
            ControlDirective::Apply { plan, .. } => assert!(!plan.feasible),
            d => panic!("unexpected directive {d:?}"),
        }
    }

    /// On a three-tier ladder, AIMD's light point reads the entry tier's
    /// violations and its heavy point every deeper tier's.
    #[test]
    fn aimd_reads_the_entry_tier_and_the_deeper_tiers_apart() {
        let config = small_config();
        let settings = RunSettings {
            knobs: AblationKnobs::aimd(),
            ..RunSettings::new(Policy::DiffServe, 8.0)
        };
        let profiles = vec![
            LatencyProfile::new(0.10, 0.55),
            LatencyProfile::new(0.60, 0.30),
            LatencyProfile::new(1.78, 0.12),
        ];
        let stages = stages(profiles, vec![0.01, 0.01], &settings, &config);
        let mut cl = ControlLoop::new(
            config,
            settings,
            stages,
            vec![uniform_profile(), uniform_profile()],
        );
        let mut step = |tier_violations: Vec<u64>| {
            (cl.aimd_light_batch, cl.aimd_heavy_batch) = (4, 4);
            cl.step(&ControlObservation {
                tier_violations,
                tier_queues: vec![0; 3],
                ..obs(10)
            });
            (cl.aimd_light_batch, cl.aimd_heavy_batch)
        };
        assert_eq!(step(vec![0, 0, 1]), (5, 2), "a terminal-tier violation");
        assert_eq!(step(vec![0, 3, 0]), (5, 2), "a middle-tier violation");
        assert_eq!(step(vec![2, 0, 0]), (2, 5), "an entry-tier violation");
        assert_eq!(step(vec![1, 0, 1]), (2, 2));
        assert_eq!(step(vec![0, 0, 0]), (5, 5));
        // An observation that reports no tiers reads as no violation.
        assert_eq!(step(Vec::new()), (5, 5));
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
        assert!(!online_active(&cl));
        assert_eq!(cl.deferral_gap(), 0.0);

        // Stationary phase: confidences match the (uniform) offline curve.
        let uniform: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        let mut o = obs(100);
        o.confidences = uniform.clone();
        cl.step(&o);
        cl.step(&o);
        assert!(online_active(&cl));
        let stationary_gap = cl.deferral_gap();
        assert!(
            stationary_gap < 0.05,
            "stationary stream must agree with offline: {stationary_gap}"
        );
        let stationary_err = cl.deferral_errors.last().unwrap().1;

        // The prompt mix hardens: confidences collapse toward zero.
        let hard: Vec<f64> = (0..100).map(|i| i as f64 / 400.0).collect();
        let mut o = obs(100);
        o.confidences = hard.clone();
        let first_err = {
            cl.step(&o);
            cl.deferral_errors.last().unwrap().1
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
        let settled_err = cl.deferral_errors.last().unwrap().1;
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
        assert!(!online_active(&cl));
        let errs = &cl.deferral_errors;
        assert_eq!(errs.len(), 2);
        assert!(
            errs[1].1 > 0.2 && (errs[1].1 - errs[0].1).abs() < 1e-9,
            "offline error must stay high and flat: {errs:?}"
        );
        assert_eq!(cl.take_deferral_error_series().len(), 2);
        assert!(cl.deferral_errors.is_empty());
    }

    #[test]
    fn degraded_capacity_lowers_the_threshold_unless_nameplate() {
        let t_of = |d: ControlDirective| match d {
            ControlDirective::Apply { plan, .. } => plan.thresholds[0],
            d => panic!("unexpected directive {d:?}"),
        };
        let observe = |effective: f64, knobs: AblationKnobs| {
            let settings = RunSettings {
                knobs,
                ..RunSettings::new(Policy::DiffServe, 8.0)
            };
            let mut cl = loop_with(settings, small_config());
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
        assert!(cl.deferral_errors.is_empty());
    }

    #[test]
    fn a_window_without_finite_samples_records_no_error_point() {
        let mut cl = test_loop(Policy::DiffServe, small_config());
        cl.bootstrap(8.0);
        let mut o = obs(4);
        o.confidences = vec![f64::NAN; MIN_ERROR_SAMPLES];
        o.confidences[0] = f64::INFINITY;
        cl.step(&o);
        assert!(cl.deferral_errors.is_empty());
    }

    const TWIN_BATCHES: [usize; 4] = [1, 2, 4, 8];
    const TWIN_GRID: [f64; 4] = [0.0, 0.25, 0.5, 0.75];

    /// Checks `edit` of the plan the enumerator serves for a two-tier tick
    /// that eight workers carry comfortably, against `edit`'s inputs.
    fn check_edited_plan(edit: impl FnOnce(&mut LadderInputs<'_>, &mut LadderAllocation)) {
        let settings = RunSettings::new(Policy::DiffServe, 8.0);
        let config = SystemConfig {
            batch_sizes: TWIN_BATCHES.to_vec(),
            ..small_config()
        };
        let profiles = vec![
            LatencyProfile::new(0.10, 0.55),
            LatencyProfile::new(1.78, 0.12),
        ];
        let stages = stages(profiles.clone(), vec![0.01], &settings, &config);
        let deferral = uniform_profile();
        let mut inputs = LadderInputs {
            demand_qps: 2.0,
            queue_delays: vec![0.0, 0.0],
            slo: 8.0,
            total_workers: 8,
            deferrals: vec![&deferral],
            tiers: profiles,
            discriminator_latency: vec![0.01],
            batch_sizes: &TWIN_BATCHES,
            thresholds: &TWIN_GRID,
            max_raise_per_solve: None,
            direct_fractions: Vec::new(),
        };
        let mut plan = solve_ladder(&inputs, false, &mut LadderWarmState::default())
            .expect("eight workers carry two queries a second");
        assert!(plan.feasible);
        edit(&mut inputs, &mut plan);
        check_plan(&stages, None, &inputs, &plan);
    }

    #[test]
    fn the_plan_twin_accepts_the_served_plan() {
        check_edited_plan(|_, _| {});
        // An infinite SLO lifts Eq. 1 whatever the queue delays.
        check_edited_plan(|inputs, _| {
            inputs.slo = f64::INFINITY;
            inputs.queue_delays = vec![1e9, 1e9];
        });
    }

    #[test]
    #[should_panic(expected = "Eq. 4")]
    fn the_plan_twin_rejects_more_workers_than_the_fleet() {
        check_edited_plan(|inputs, plan| plan.workers[1] += inputs.total_workers);
    }

    #[test]
    #[should_panic(expected = "Eqs. 2")]
    fn the_plan_twin_rejects_a_tier_short_of_capacity() {
        check_edited_plan(|inputs, _| inputs.demand_qps *= 1000.0);
    }

    #[test]
    #[should_panic(expected = "Eq. 1")]
    fn the_plan_twin_rejects_a_cascade_over_the_slo() {
        check_edited_plan(|inputs, _| inputs.queue_delays[1] = inputs.slo);
    }

    #[test]
    #[should_panic(expected = "off the grid")]
    fn the_plan_twin_rejects_an_off_grid_threshold() {
        check_edited_plan(|_, plan| plan.thresholds[0] = 0.3);
    }

    #[test]
    #[should_panic(expected = "no candidate")]
    fn the_plan_twin_rejects_a_batch_that_is_no_candidate() {
        check_edited_plan(|_, plan| plan.batches[0] = 3);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// The bucketed error is bitwise the gap to the sorted empirical
        /// profile, on samples at and between grid points, `-0.0`, values
        /// past the grid, and NaN/±∞ that both sides ignore.
        #[test]
        fn deferral_error_is_the_gap_to_the_sorted_samples(
            samples in proptest::collection::vec((0u8..8, 0.0f64..1.2), 0..300),
            online in 0u8..2,
        ) {
            let config = SystemConfig {
                online_profile_refresh: online == 1,
                ..small_config()
            };
            let mut cl = test_loop(Policy::DiffServe, config);
            let grid = cl.config.threshold_grid();
            if online == 1 {
                // Boundary 0 then compares against a skewed online estimate.
                let window = cl.config.online_profile_window;
                cl.online[0].observe_all(&vec![0.2; window]);
                proptest::prop_assert!(cl.online[0].refresh());
            }
            let confidences: Vec<f64> = samples
                .iter()
                .map(|&(code, x)| match code {
                    0 => grid[(x * 40.0) as usize],
                    1 => -0.0,
                    2 => f64::NAN,
                    3 => f64::INFINITY,
                    4 => f64::NEG_INFINITY,
                    _ => x,
                })
                .collect();
            let used = effective(&cl.online, &cl.offline, 0).clone();
            let expected = DeferralProfile::from_confidences(confidences.clone())
                .ok()
                .map(|empirical| used.gap(&empirical, &grid).to_bits());
            let got = cl.deferral_error(&confidences).map(f64::to_bits);
            proptest::prop_assert_eq!(got, expected);
        }
    }
}
