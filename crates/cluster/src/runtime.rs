//! The thread-based testbed runtime.
//!
//! The paper validates its simulator against a 16×A100 cluster where the
//! controller, load balancer, and workers are separate processes talking
//! over gRPC (§4.1). This module reproduces that architecture at
//! thread-and-channel scale: worker threads batch and "execute" queries by
//! sleeping the profiled latency (scaled by [`ClusterConfig::time_scale`]),
//! escalations travel over channels, and a controller thread re-solves the
//! allocation periodically. The Fig. 6 experiment compares its measurements
//! with the simulator's — the paper reports a 0.56% FID / 1.1%
//! SLO-violation gap between the two.
//!
//! Threads, sleeps and channels are all this engine owns: what a batch
//! costs, where a job routes, whether an output escalates and what the
//! controller is told are calls into `diffserve_core::kernel`, the same
//! functions the simulator calls.
//!
//! The testbed is the second engine behind the unified session API:
//! [`ClusterBackend`] implements [`ServingBackend`], and
//! [`ClusterSessionExt::build_cluster`] plugs it into the
//! [`SessionBuilder`] fluent path.
//! The batch entry points [`run_cluster`] / [`run_cluster_scenario`] are
//! thin wrappers over such a session.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use diffserve_core::config::{METRICS_WINDOW, MODEL_SWITCH_DELAY};
use diffserve_core::kernel::{self, FleetTally, Kernel, Ledger, Member, TickTelemetry, Verdict};
use diffserve_core::serve::{
    BuildError, QueryOutcome, QuerySpec, QueryTicket, ServingBackend, ServingSession,
    SessionBuilder, SessionSnapshot, SessionSpec,
};
use diffserve_core::{
    AddonStats, CascadeRuntime, CompletedResponse, ConfigError, ControlDirective, ControlLoop,
    ModuleCache, PlanActuator, Policy, QueryId, RunReport, RunSettings, SystemConfig,
};
use diffserve_imagegen::{OnlinePredictiveRouter, Prompt, StageState};
use diffserve_metrics::WindowedSeries;
use diffserve_simkit::prelude::*;
use diffserve_trace::{
    CapacityEvent, Hazard, HazardProcess, Incident, IncidentLog, Scenario, ScenarioError,
    ScenarioEvent, Trace,
};
use parking_lot::{Mutex, RwLock};

use crate::plan::ServingPlan;

/// Cluster-runtime configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// The shared system configuration (workers, SLO, controller settings).
    pub system: SystemConfig,
    /// Wall-clock seconds per simulated second. `0.02` runs a 350 s trace
    /// in 7 s while keeping all latency ratios intact.
    pub time_scale: f64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            system: SystemConfig::default(),
            time_scale: 0.02,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Job {
    qid: u64,
    arrival: SimTime,
    deadline: SimTime,
    /// Ladder tier the query entered the system at — `0` on the classic
    /// policy path, deeper when the predictive router skipped cheap tiers.
    /// The cross-tier GPU-time accounting sums sunk stages from here.
    entry: usize,
    /// Explicit prompt payload; `None` serves the dataset's cyclic prompt.
    prompt: Option<Prompt>,
    /// Denoise progress carried over from a shallower tier, set at the
    /// escalation site when [`SystemConfig::resume_from_latents`] is on.
    resume: Option<StageState>,
    /// Add-on module (catalog index) this job requires; rides along on
    /// escalation so the deeper pass needs the same module.
    addon: Option<usize>,
}

impl Job {
    /// What the service-time model reads of this job.
    fn member(&self) -> Member {
        Member {
            resume: self.resume,
            addon: self.addon,
        }
    }
}

struct Shared {
    plan: RwLock<ServingPlan>,
    depths: Vec<AtomicUsize>,
    /// Arrivals, violations and confidences since the last control tick —
    /// recorded by the submitter and the workers, drained by the
    /// controller thread into the shared [`ControlLoop`].
    telemetry: Mutex<TickTelemetry>,
    shutdown: AtomicBool,
    start: Instant,
    scale: f64,
    /// Scenario fail-stop flags, one per worker.
    failed: Vec<AtomicBool>,
    /// Busy flags (executing a batch or loading a model), one per worker —
    /// feeds the per-tier utilization in [`SessionSnapshot`].
    busy: Vec<AtomicBool>,
    /// Per-worker health speed factor (f64 bits; 1.0 = nameplate). Workers
    /// read their own factor at every batch and sleep-scale execution by
    /// its reciprocal, so a degraded worker serves proportionally slower.
    speed_bits: Vec<AtomicU64>,
    /// Controller threshold decisions over time — the series the final
    /// report's `threshold_series` is assembled from.
    threshold_track: Mutex<WindowedSeries>,
    /// Every perturbation fired against this fleet (scheduled, injected,
    /// hazard-drawn), for the report's incident log.
    incident_log: Mutex<IncidentLog>,
    /// Active prompt-difficulty offset (f64 bits), set by the scenario
    /// thread and read by workers at generation time.
    difficulty_bits: AtomicU64,
    /// Per-worker bounded LRU module caches (empty with add-ons off).
    module_caches: Vec<Mutex<ModuleCache>>,
    /// Per-tier add-on cache accounting (hits, misses, swap seconds).
    addon_stats: Mutex<AddonStats>,
    /// Escalations observed at each boundary (`tier k → k + 1`) over the
    /// whole run — the per-tier series the snapshot reports and the
    /// sim-vs-cluster parity tests compare.
    tier_escalations: Vec<AtomicU64>,
    /// Online pre-execution router sending predicted-hard queries straight
    /// to a deeper tier; `None` on two-tier runs or with predictive
    /// routing disabled. Trained by workers on every boundary verdict.
    router: Option<Mutex<OnlinePredictiveRouter>>,
}

impl Shared {
    fn sim_now(&self) -> f64 {
        self.start.elapsed().as_secs_f64() / self.scale
    }

    fn now(&self) -> SimTime {
        SimTime::from_secs_f64(self.sim_now().max(0.0))
    }

    fn sleep_sim(&self, sim_secs: f64) {
        if sim_secs > 0.0 {
            thread::sleep(Duration::from_secs_f64(sim_secs * self.scale));
        }
    }

    fn is_failed(&self, i: usize) -> bool {
        self.failed[i].load(Ordering::Relaxed)
    }

    fn difficulty_delta(&self) -> f64 {
        f64::from_bits(self.difficulty_bits.load(Ordering::Relaxed))
    }

    /// The worker's current health speed factor (1.0 = nameplate).
    fn speed_factor(&self, i: usize) -> f64 {
        f64::from_bits(self.speed_bits[i].load(Ordering::Relaxed))
    }

    /// Service-time multiplier the worker currently pays.
    fn slowdown(&self, i: usize) -> f64 {
        1.0 / self.speed_factor(i)
    }

    fn is_degraded(&self, i: usize) -> bool {
        self.speed_factor(i) < 1.0
    }

    /// One consistent reading of the fail-stop flags.
    fn failed_mask(&self) -> Vec<bool> {
        self.failed
            .iter()
            .map(|f| f.load(Ordering::SeqCst))
            .collect()
    }

    /// Tallies the fleet under `plan` from live channel depths, busy flags
    /// and speed factors; `failed` is the mask the caller also hands to
    /// the retarget, so the two never disagree mid-churn.
    fn tally(&self, plan: &ServingPlan, failed: &[bool]) -> FleetTally {
        let mut fleet = FleetTally::new(plan.num_tiers());
        for (i, &tier) in plan.tiers.iter().enumerate() {
            if failed[i] {
                fleet.add_failed();
            } else {
                fleet.add_alive(
                    tier,
                    self.depths[i].load(Ordering::Relaxed),
                    self.busy[i].load(Ordering::Relaxed),
                    self.speed_factor(i),
                );
            }
        }
        fleet
    }

    /// Applies one lowered scenario event against live state and records it
    /// in the incident log — the single funnel the scenario replay thread,
    /// mid-run injection, and the hazard thread all go through. A capacity
    /// event touches the workers [`kernel::capacity_targets`] picks (the
    /// simulator applies the same rule); a difficulty event swaps the
    /// offset.
    ///
    /// Those three threads can race each other, so the whole
    /// pick-apply-log sequence is serialized under the log lock. Only the
    /// *applied* event is logged — the incident log must stay a faithful,
    /// replayable account, never a wish list.
    fn apply_event(&self, action: ScenarioEvent) {
        let mut log = self.incident_log.lock();
        let applied = match action {
            ScenarioEvent::Capacity(capacity) => {
                let states: Vec<(bool, bool)> = (0..self.failed.len())
                    .map(|i| (self.is_failed(i), self.is_degraded(i)))
                    .collect();
                let touched = kernel::capacity_targets(capacity, &states);
                for &i in &touched {
                    match capacity {
                        CapacityEvent::Fail(_) => {
                            self.failed[i].store(true, Ordering::SeqCst);
                            // A dead worker's degradation dies with it; it
                            // rejoins at nameplate speed.
                            self.speed_bits[i].store(1.0f64.to_bits(), Ordering::SeqCst);
                        }
                        CapacityEvent::Recover(_) => self.failed[i].store(false, Ordering::SeqCst),
                        CapacityEvent::Degrade(_, slowdown) => self.speed_bits[i]
                            .store((1.0 / slowdown.max(1.0)).to_bits(), Ordering::SeqCst),
                        CapacityEvent::Restore(_) => {
                            self.speed_bits[i].store(1.0f64.to_bits(), Ordering::SeqCst)
                        }
                    }
                }
                kernel::applied_capacity_event(capacity, touched.len())
            }
            ScenarioEvent::Difficulty(delta) => {
                self.difficulty_bits
                    .store(delta.to_bits(), Ordering::SeqCst);
                Some(action)
            }
        };
        if let Some(event) = applied {
            log.push(Incident {
                at: SimTime::from_secs_f64(self.sim_now().max(0.0)),
                event,
            });
        }
    }

    /// Whether any alive worker is assigned a tier deeper than `tier` —
    /// when churn wipes the deeper pools out, escalations would bounce
    /// between same-tier workers forever (generation is deterministic), so
    /// callers serve this tier's output instead.
    fn has_alive_deeper(&self, tier: usize) -> bool {
        let plan = self.plan.read();
        plan.tiers
            .iter()
            .enumerate()
            .any(|(i, &t)| t > tier && !self.is_failed(i))
    }

    /// Health-weighted JSQ among alive workers currently assigned to
    /// `tier`, by the kernel's routing score: channel depth plus the batch
    /// in service (the busy flag — depths are decremented when a worker
    /// pulls a job into a batch, so without it a mid-execution straggler
    /// scores zero), weighted by the worker's slowdown, plus the add-on
    /// miss penalty where the worker's cache lacks the job's module. The
    /// first-minimum pick keeps the lowest index on ties. With no alive
    /// worker on that tier (mid-reconfiguration, or wiped out by churn) it
    /// falls back to the best alive worker; scenario validation guarantees
    /// one exists.
    fn route(&self, kernel: &Kernel<'_>, tier: usize, addon: Option<usize>) -> usize {
        let penalty = kernel.miss_penalty(tier, addon);
        let score = |i: usize| {
            let load = self.depths[i].load(Ordering::Relaxed)
                + usize::from(self.busy[i].load(Ordering::Relaxed));
            let miss = match penalty {
                Some((id, p)) if !self.module_caches[i].lock().contains(id) => p,
                _ => 0.0,
            };
            (i, kernel.routing_load(load, self.slowdown(i)) + miss)
        };
        let plan = self.plan.read();
        let alive = || (0..self.depths.len()).filter(|&i| !self.is_failed(i));
        kernel::pick_min(alive().filter(|&i| plan.tiers[i] == tier).map(score))
            .or_else(|| kernel::pick_min(alive().map(score)))
            .expect("at least one worker must be alive")
    }

    /// Routes `job` to a worker of `tier` and hands it over.
    fn forward(
        &self,
        kernel: &Kernel<'_>,
        txs: &[Sender<Job>],
        tier: usize,
        job: Job,
    ) -> Result<(), crossbeam::channel::SendError<Job>> {
        let target = self.route(kernel, tier, job.addon);
        self.depths[target].fetch_add(1, Ordering::Relaxed);
        txs[target].send(job)
    }
}

enum Outcome {
    Completed(CompletedResponse),
    Dropped {
        qid: u64,
        arrival: SimTime,
        at: SimTime,
    },
}

/// The thread-based testbed behind the unified session API: real threads,
/// real (crossbeam) channels, wall-clock time scaled by `time_scale`.
///
/// Workers, controller, and scenario threads are launched at construction
/// and serve continuously; [`ServingBackend::submit`] routes one query into
/// the fleet, [`ServingBackend::tick`] sleeps scaled wall-clock time, and
/// [`ServingBackend::finish`] shuts the fleet down and assembles the
/// [`RunReport`]. Build one through [`ClusterSessionExt::build_cluster`].
pub struct ClusterBackend<'a> {
    shared: Arc<Shared>,
    job_txs: Arc<Vec<Sender<Job>>>,
    done_rx: Receiver<Outcome>,
    worker_handles: Vec<thread::JoinHandle<()>>,
    controller: Option<thread::JoinHandle<()>>,
    scenario_thread: Option<thread::JoinHandle<()>>,
    hazard_thread: Option<thread::JoinHandle<()>>,
    /// The shared control plane, driven by the controller thread and read
    /// for snapshots and the final report.
    control: Arc<Mutex<ControlLoop>>,
    /// The serving kernel the submit path decides with. Every worker thread
    /// builds its own over a clone of the runtime handle, so all of them
    /// read the caller's one copy of the prepared artifacts.
    kernel: Kernel<'a>,
    settings: RunSettings,
    sys: SystemConfig,
    /// Outcome accounting: SLO tracker, streamed report totals, rolling
    /// FID, outcomes awaiting a poll.
    ledger: Ledger,
    route_rng: rand::rngs::StdRng,
    demand_track: WindowedSeries,
    submitted: u64,
}

impl std::fmt::Debug for ClusterBackend<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterBackend")
            .field("workers", &self.worker_handles.len())
            .field("submitted", &self.submitted)
            .field("policy", &self.settings.policy)
            .finish_non_exhaustive()
    }
}

impl<'a> ClusterBackend<'a> {
    /// Launches the testbed fleet (workers, controller, scenario thread)
    /// from validated session inputs.
    ///
    /// # Errors
    ///
    /// Rejects a non-positive or non-finite `time_scale`.
    pub fn launch(spec: &SessionSpec<'a>, time_scale: f64) -> Result<Self, BuildError> {
        if !(time_scale > 0.0 && time_scale.is_finite()) {
            return Err(BuildError::Config(ConfigError::new(
                "time scale must be finite and positive",
            )));
        }
        let sys = spec.config.clone();
        let settings = spec.settings.clone();
        let runtime = spec.runtime;
        let n = sys.num_workers;
        let effective_trace = spec.scenario.as_ref().map(|s| s.effective_trace());
        let kernel = Kernel::new(runtime, &sys, &settings);
        let nt = kernel.num_tiers();

        // Bootstrap through the shared control plane. Static provisioning
        // anticipates the larger of the caller's peak hint and the known
        // trace maximum, with the over-provisioning headroom applied.
        let mut control = spec.control_loop();
        let anticipated = settings
            .peak_demand_hint
            .max(effective_trace.as_ref().map(Trace::max_qps).unwrap_or(0.0));
        let peak_demand = match settings.policy {
            Policy::DiffServeStatic => anticipated * sys.over_provision,
            _ => settings.peak_demand_hint,
        };
        let mut plan = ServingPlan::bootstrap_tiers(n, nt);
        ClusterActuator {
            plan: &mut plan,
            excluded: &[],
        }
        .actuate(&control.bootstrap(peak_demand));
        let control = Arc::new(Mutex::new(control));

        let router = kernel.new_router();
        let shared = Arc::new(Shared {
            plan: RwLock::new(plan),
            depths: (0..n).map(|_| AtomicUsize::new(0)).collect(),
            telemetry: Mutex::new(TickTelemetry::new(nt, router.is_some())),
            shutdown: AtomicBool::new(false),
            start: Instant::now(),
            scale: time_scale,
            failed: (0..n).map(|_| AtomicBool::new(false)).collect(),
            busy: (0..n).map(|_| AtomicBool::new(false)).collect(),
            speed_bits: (0..n).map(|_| AtomicU64::new(1.0f64.to_bits())).collect(),
            threshold_track: Mutex::new(WindowedSeries::new(METRICS_WINDOW)),
            incident_log: Mutex::new(Vec::new()),
            difficulty_bits: AtomicU64::new(0.0f64.to_bits()),
            module_caches: match &sys.addons {
                Some(a) => (0..n)
                    .map(|_| Mutex::new(ModuleCache::new(a.cache_mem_mb)))
                    .collect(),
                None => Vec::new(),
            },
            addon_stats: Mutex::new(AddonStats::default()),
            tier_escalations: (0..nt - 1).map(|_| AtomicU64::new(0)).collect(),
            router: router.map(Mutex::new),
        });

        let (job_txs, job_rxs): (Vec<Sender<Job>>, Vec<Receiver<Job>>) =
            (0..n).map(|_| unbounded()).unzip();
        let job_txs = Arc::new(job_txs);
        let (done_tx, done_rx) = unbounded::<Outcome>();

        // --- Worker threads -----------------------------------------------
        let mut worker_handles = Vec::new();
        for (wid, rx) in job_rxs.into_iter().enumerate() {
            let shared = Arc::clone(&shared);
            let txs = Arc::clone(&job_txs);
            let done = done_tx.clone();
            let (rt, sys, settings) = (runtime.clone(), sys.clone(), settings.clone());
            worker_handles.push(thread::spawn(move || {
                let kernel = Kernel::new(&rt, &sys, &settings);
                worker_loop(wid, &shared, &rx, &txs, &done, &kernel);
            }));
        }
        drop(done_tx);

        // --- Controller thread --------------------------------------------
        let controller = {
            let shared = Arc::clone(&shared);
            let control = Arc::clone(&control);
            let sys = sys.clone();
            thread::spawn(move || controller_loop(&shared, &control, &sys))
        };

        // --- Scenario thread (worker churn, difficulty shifts) -------------
        let scenario_thread = {
            let shared = Arc::clone(&shared);
            let actions = spec
                .scenario
                .as_ref()
                .map(|s| s.timeline())
                .unwrap_or_default();
            thread::spawn(move || scenario_loop(&shared, &actions))
        };

        // --- Hazard thread (load-correlated fault engine) -------------------
        let hazard_thread = spec.scenario.as_ref().and_then(|s| s.hazard()).map(|h| {
            let shared = Arc::clone(&shared);
            thread::spawn(move || hazard_loop(&shared, h))
        });

        Ok(ClusterBackend {
            shared,
            job_txs,
            done_rx,
            worker_handles,
            controller: Some(controller),
            scenario_thread: Some(scenario_thread),
            hazard_thread,
            route_rng: seeded_rng(derive_seed(sys.seed, 0x20C7)),
            demand_track: WindowedSeries::new(METRICS_WINDOW),
            ledger: Ledger::new(&sys, &runtime.reference),
            control,
            kernel,
            settings,
            sys,
            submitted: 0,
        })
    }

    /// Drains completed/dropped outcomes from the worker fleet into the
    /// ledger.
    fn ingest(&mut self) {
        while let Ok(outcome) = self.done_rx.try_recv() {
            match outcome {
                Outcome::Completed(r) => {
                    self.ledger.complete(r);
                }
                Outcome::Dropped { qid, arrival, at } => {
                    self.ledger.drop_query(QueryId(qid), arrival, at)
                }
            }
        }
    }

    /// Signals shutdown and joins every thread, even past one that
    /// panicked; returns the first panicked thread's role.
    fn shutdown_and_join(&mut self) -> Result<(), &'static str> {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let workers = self.worker_handles.drain(..).map(|h| ("worker", h));
        let others = [
            ("controller", self.controller.take()),
            ("scenario", self.scenario_thread.take()),
            ("hazard", self.hazard_thread.take()),
        ];
        let others = others.into_iter().filter_map(|(role, h)| Some((role, h?)));
        let mut joined = Ok(());
        for (role, h) in workers.chain(others) {
            if h.join().is_err() && joined.is_ok() {
                joined = Err(role);
            }
        }
        joined
    }
}

impl Drop for ClusterBackend<'_> {
    fn drop(&mut self) {
        // A session abandoned without finish() must not leak live threads,
        // and a drop must not panic: it may run during another panic's
        // unwind, where a second panic aborts. finish() reports a thread
        // that panicked.
        let _ = self.shutdown_and_join();
    }
}

impl ServingBackend for ClusterBackend<'_> {
    fn now(&self) -> SimTime {
        self.shared.now()
    }

    fn submit(&mut self, spec: QuerySpec) -> QueryTicket {
        let now0 = self.shared.sim_now();
        let at = spec.at.map(|t| t.as_secs_f64()).unwrap_or(now0);
        if at > now0 {
            // Scheduled arrivals pace the caller: block until their instant.
            self.shared.sleep_sim(at - now0);
        }
        let now = self.shared.now();
        self.demand_track
            .push(SimTime::from_secs_f64(at.max(0.0)), 1.0);
        let qid = self.submitted;
        // Proteus's heavy routing fraction rides in the first threshold
        // slot. The router's prediction sees the same (difficulty-shifted)
        // prompt the tiers will serve.
        let (heavy_fraction, bypass_suspended) = {
            let plan = self.shared.plan.read();
            (plan.thresholds[0], plan.bypass_suspended)
        };
        let (tier, deep_demand) = {
            let router = self.shared.router.as_ref().map(|r| r.lock());
            self.kernel.entry_tier(
                heavy_fraction,
                &mut self.route_rng,
                router.as_deref(),
                bypass_suspended,
                || {
                    self.kernel
                        .served_prompt(qid, spec.prompt, self.shared.difficulty_delta())
                },
            )
        };
        self.shared
            .telemetry
            .lock()
            .record_arrival(tier, deep_demand);
        self.submitted += 1;
        let deadline = spec.deadline.unwrap_or(now + self.sys.slo);
        let job = Job {
            qid,
            arrival: now,
            deadline,
            entry: tier,
            prompt: spec.prompt,
            resume: spec.resume_from,
            addon: spec.addon,
        };
        self.shared
            .forward(&self.kernel, &self.job_txs, tier, job)
            .expect("worker channels outlive the session");
        QueryTicket {
            id: QueryId(qid),
            arrival: now,
            deadline,
        }
    }

    fn tick(&mut self, until: SimTime) {
        let target = until.as_secs_f64();
        let now = self.shared.sim_now();
        if target > now {
            self.shared.sleep_sim(target - now);
        }
        self.ingest();
    }

    fn drain_completions(&mut self) -> Vec<QueryOutcome> {
        self.ingest();
        self.ledger.drain()
    }

    fn apply_perturbation(&mut self, event: ScenarioEvent) -> Result<(), ScenarioError> {
        let fleet = self
            .shared
            .tally(&self.shared.plan.read(), &self.shared.failed_mask());
        fleet.health().after(self.now(), &event)?;
        self.shared.apply_event(event);
        Ok(())
    }

    fn snapshot(&self) -> SessionSnapshot {
        let plan = self.shared.plan.read();
        self.kernel.snapshot(
            self.now(),
            self.shared.tally(&plan, &self.shared.failed_mask()),
            plan.thresholds.clone(),
            self.shared
                .tier_escalations
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            self.submitted,
            &self.ledger,
            self.control.lock().deferral_gap(),
            *self.shared.addon_stats.lock(),
        )
    }

    fn finish(mut self: Box<Self>, horizon: SimTime) -> RunReport {
        if let Err(role) = self.shutdown_and_join() {
            panic!("{role} thread panicked");
        }
        self.ingest();
        // Jobs stuck in closed channels at shutdown count as drops.
        let total = self.submitted;
        for _ in self.ledger.slo().total()..total {
            self.ledger.drop_lost(self.shared.now());
        }
        let h = horizon.as_secs_f64();
        RunReport::assemble(
            self.settings.policy,
            total,
            &self.ledger,
            self.demand_track
                .window_rates()
                .into_iter()
                .map(|(t, v)| (t.as_secs_f64(), v))
                .collect(),
            // The controller thread pushed its threshold decision every
            // control tick; windows during the post-horizon drain are
            // artifacts and truncated, like the simulator's assembly.
            self.shared
                .threshold_track
                .lock()
                .window_means()
                .into_iter()
                .map(|(t, v)| (t.as_secs_f64(), v))
                .filter(|&(t, _)| t < h)
                .collect(),
            self.control
                .lock()
                .take_deferral_error_series()
                .into_iter()
                .filter(|&(t, _)| t < h)
                .collect(),
            std::mem::take(&mut *self.shared.incident_log.lock()),
            *self.shared.addon_stats.lock(),
        )
    }
}

/// Builds a [`ServingSession`] backed by the thread-based testbed — the
/// cluster-side counterpart of
/// [`SessionBuilder::build`](diffserve_core::serve::SessionBuilder::build).
///
/// # Examples
///
/// ```no_run
/// use diffserve_cluster::ClusterSessionExt;
/// use diffserve_core::prelude::*;
/// use diffserve_imagegen::{cascade1, DiscriminatorConfig, FeatureSpec};
///
/// let runtime = CascadeRuntime::prepare(
///     cascade1(FeatureSpec::default()), 2000, 42, DiscriminatorConfig::default());
/// let session = ServingSession::builder()
///     .runtime(&runtime)
///     .policy(Policy::DiffServe)
///     .build_cluster(0.02)?;
/// # let _ = session;
/// # Ok::<(), diffserve_core::serve::BuildError>(())
/// ```
pub trait ClusterSessionExt<'a> {
    /// Validates the builder's configuration, launches the testbed fleet
    /// with the given wall-clock scale, and wraps it in a session.
    ///
    /// # Errors
    ///
    /// Everything [`SessionBuilder::build`] rejects, plus a non-positive or
    /// non-finite `time_scale`.
    fn build_cluster(self, time_scale: f64) -> Result<ServingSession<'a>, BuildError>;
}

impl<'a> ClusterSessionExt<'a> for SessionBuilder<'a> {
    fn build_cluster(self, time_scale: f64) -> Result<ServingSession<'a>, BuildError> {
        let spec = self.validate()?;
        let backend = ClusterBackend::launch(&spec, time_scale)?;
        Ok(ServingSession::from_backend(&spec, Box::new(backend)))
    }
}

/// Runs one policy on the thread-based cluster and reports the same
/// metrics as the simulator.
///
/// Supports every policy in Table 1. The run blocks the calling thread for
/// roughly `trace.duration × time_scale` wall-clock time plus a drain
/// period. Equivalent to [`run_cluster_scenario`] with a perturbation-free
/// scenario, and — like it — a thin wrapper over a testbed-backed
/// [`ServingSession`].
///
/// # Panics
///
/// Panics if the configuration is invalid or `time_scale` is not positive.
pub fn run_cluster(
    runtime: &CascadeRuntime,
    config: &ClusterConfig,
    settings: &RunSettings,
    trace: &Trace,
) -> RunReport {
    run_cluster_scenario(
        runtime,
        config,
        settings,
        &Scenario::new("trace", trace.clone()),
    )
}

/// Runs one policy on the thread-based cluster under a [`Scenario`] — the
/// parity path to `diffserve_core::run_scenario`, so one `Scenario` value
/// drives both the discrete-event simulator and this testbed.
///
/// Demand perturbations are baked into the replayed arrival stream;
/// worker churn and difficulty shifts are applied live by a scenario thread
/// (failed workers re-route their queues and idle until recovery, paying
/// the model load delay when they rejoin). One parity caveat: failure
/// granularity here is the batch boundary — a worker already executing a
/// batch delivers it before going down, while the simulator's fail-stop
/// kills in-flight work instantly and retries it elsewhere.
///
/// # Panics
///
/// Panics if the configuration is invalid, `time_scale` is not positive, or
/// the scenario fails [`Scenario::validate`] for this worker count.
pub fn run_cluster_scenario(
    runtime: &CascadeRuntime,
    config: &ClusterConfig,
    settings: &RunSettings,
    scenario: &Scenario,
) -> RunReport {
    let mut session = ServingSession::builder()
        .runtime(runtime)
        .config(config.system.clone())
        .settings(settings.clone())
        .scenario(scenario.clone())
        .build_cluster(config.time_scale)
        .expect("valid scenario and system config");
    let trace = scenario.effective_trace();
    session.replay_trace(&trace);
    // Drain period: a full 4 SLOs past the *later* of the trace end and the
    // actual clock — wall-clock overshoot during replay must never eat into
    // the drain, or in-flight work gets counted as shutdown drops.
    let drain_from = session.now().max(SimTime::ZERO + trace.duration());
    session.run_until(drain_from + config.system.slo * 4);
    session.finish()
}

/// The testbed's [`PlanActuator`]: lowers a control directive onto a
/// [`ServingPlan`], skipping fail-stopped workers so the tier reassignment
/// never lands on a dead slot. The caller swaps the updated plan in behind
/// the shared lock.
struct ClusterActuator<'a> {
    plan: &'a mut ServingPlan,
    excluded: &'a [bool],
}

impl PlanActuator for ClusterActuator<'_> {
    fn actuate(&mut self, directive: &ControlDirective) {
        if let ControlDirective::Apply {
            plan,
            heavy_fraction,
        } = directive
        {
            self.plan
                .retarget_ladder_masked(&plan.workers, self.excluded);
            self.plan.batches = plan.batches.iter().map(|&b| b.max(1)).collect();
            self.plan.thresholds.clone_from(&plan.thresholds);
            self.plan.bypass_suspended = !plan.feasible;
            // Proteus's heavy routing fraction rides in the threshold slot.
            if let Some(fraction) = heavy_fraction {
                self.plan.thresholds[0] = *fraction;
            }
        }
    }
}

/// Replays the scenario's timed actions against live shared state via
/// [`Shared::apply_event`]. Sleeps in short slices so shutdown (or a
/// perturbation scheduled past the trace end) never wedges the run at join
/// time.
fn scenario_loop(shared: &Shared, actions: &[Incident]) {
    for &Incident { at, event } in actions {
        let at = at.as_secs_f64();
        loop {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let now = shared.sim_now();
            if at <= now {
                break;
            }
            shared.sleep_sim((at - now).min(1.0));
        }
        shared.apply_event(event);
    }
}

/// The load-correlated fault engine's cluster half: evaluates the seeded
/// [`HazardProcess`] every check interval against the fleet's live busy
/// flags and applies (and logs) whatever it draws. The wall-clock testbed
/// cannot promise a bit-identical utilization trajectory across runs, so
/// hazard-drawn faults here are reproducible only through the incident log
/// — which is exactly what record/replay is for.
fn hazard_loop(shared: &Shared, spec: Hazard) {
    let mut process = HazardProcess::new(spec);
    let interval = spec.check_interval.as_secs_f64();
    // First check at half-phase, like the simulator — and like there, the
    // first evaluation covers only the half-interval that actually elapsed.
    let mut next = spec.first_check().as_secs_f64();
    let mut first = true;
    loop {
        loop {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let now = shared.sim_now();
            if next <= now {
                break;
            }
            shared.sleep_sim((next - now).min(1.0));
        }
        // A check that comes due exactly as the session tears down must not
        // stamp an incident the replay run can never re-fire.
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let fleet = shared.tally(&shared.plan.read(), &shared.failed_mask());
        let dt = if first {
            spec.first_dt()
        } else {
            spec.check_interval
        };
        first = false;
        for event in process.step(dt, fleet.utilization(), fleet.health()) {
            shared.apply_event(event);
        }
        next += interval;
    }
}

/// Drives the shared [`ControlLoop`] at the configured control cadence:
/// hands over what the fleet observed since the last tick (the drained
/// telemetry, live channel depths), steps the pipeline, and swaps the
/// actuated plan in. Runs for every policy so the demand and profile
/// estimators stay live; static policies simply always `Hold`.
fn controller_loop(shared: &Shared, control: &Mutex<ControlLoop>, sys: &SystemConfig) {
    let interval = sys.control_interval.as_secs_f64();
    while !shared.shutdown.load(Ordering::SeqCst) {
        shared.sleep_sim(interval);
        // Little's-law queue estimates come from live channel depths of
        // alive workers only — failed workers drain their queues elsewhere.
        // The pool size and the retarget mask derive from one reading of
        // the fail-stop flags so the solver and retarget never disagree
        // mid-churn.
        let mut plan = shared.plan.read().clone();
        let excluded = shared.failed_mask();
        let fleet = shared.tally(&plan, &excluded);
        let now = shared.now();
        let batches = (plan.batch_for(0), plan.batch_for(plan.num_tiers() - 1));
        let obs = shared.telemetry.lock().observe(now, &fleet, batches);
        let directive = control.lock().step(&obs);
        ClusterActuator {
            plan: &mut plan,
            excluded: &excluded,
        }
        .actuate(&directive);
        // Record the decision that is now in force — the series the
        // report's `threshold_series` is built from (mirroring the
        // simulator, which pushes its threshold on every tick).
        shared.threshold_track.lock().push(now, plan.thresholds[0]);
        if directive != ControlDirective::Hold {
            *shared.plan.write() = plan;
        }
    }
}

fn worker_loop(
    wid: usize,
    shared: &Shared,
    rx: &Receiver<Job>,
    txs: &[Sender<Job>],
    done: &Sender<Outcome>,
    kernel: &Kernel<'_>,
) {
    let switch_delay = MODEL_SWITCH_DELAY.as_secs_f64();
    let mut current_tier = shared.plan.read().tiers[wid];
    let mut was_failed = false;
    let poll = Duration::from_secs_f64((0.02 * shared.scale).max(0.0002));
    // Scratch, reused across batches: the distinct missing add-on modules
    // of a batch, the batch itself and the thresholds it is judged by.
    let mut seen = Vec::new();
    let mut batch = Vec::new();
    let mut thresholds = Vec::new();
    loop {
        // Scenario fail-stop: re-route anything queued here to surviving
        // workers and idle until recovery (or shutdown).
        if shared.failed[wid].load(Ordering::SeqCst) {
            was_failed = true;
            while let Ok(job) = rx.try_recv() {
                shared.depths[wid].fetch_sub(1, Ordering::Relaxed);
                let _ = shared.forward(kernel, txs, current_tier, job);
            }
            if shared.shutdown.load(Ordering::SeqCst) && rx.is_empty() {
                return;
            }
            thread::sleep(poll);
            continue;
        }
        if was_failed {
            // Rejoining the pool: reload model weights before serving. The
            // restart also wiped device memory, so the add-on module cache
            // comes back cold (like the simulator's fail handling).
            was_failed = false;
            if let Some(cache) = shared.module_caches.get(wid) {
                cache.lock().clear();
            }
            shared.busy[wid].store(true, Ordering::Relaxed);
            shared.sleep_sim(switch_delay);
            shared.busy[wid].store(false, Ordering::Relaxed);
            current_tier = shared.plan.read().tiers[wid];
        }

        // Follow the plan: switch models if reassigned.
        let desired = shared.plan.read().tiers[wid];
        if desired != current_tier {
            shared.busy[wid].store(true, Ordering::Relaxed);
            shared.sleep_sim(switch_delay);
            shared.busy[wid].store(false, Ordering::Relaxed);
            current_tier = desired;
        }
        let bmax = shared.plan.read().batch_for(current_tier).max(1);

        // Collect a batch: block briefly for the first job, then take
        // whatever else is queued (Clipper-style no-wait batching). The
        // poll must be fine relative to *simulated* time or idle polling
        // inflates queueing delays for sub-100ms models like SDXS.
        let first = match rx.recv_timeout(poll) {
            Ok(job) => job,
            Err(RecvTimeoutError::Timeout) => {
                if shared.shutdown.load(Ordering::SeqCst) && rx.is_empty() {
                    return;
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => return,
        };
        shared.depths[wid].fetch_sub(1, Ordering::Relaxed);
        batch.clear();
        batch.push(first);
        while batch.len() < bmax {
            match rx.try_recv() {
                Ok(job) => {
                    shared.depths[wid].fetch_sub(1, Ordering::Relaxed);
                    batch.push(job);
                }
                Err(_) => break,
            }
        }

        // A degraded worker predicts and executes with its *actual*
        // (slowed) service time, not nameplate. The module cache stays
        // locked from the drop-front estimate through the dispatch charge,
        // so the two price the same residency.
        let slowdown = shared.slowdown(wid);
        let mut cache = shared.module_caches.get(wid).map(|c| c.lock());
        let now = shared.now();
        let shed = kernel.predicted_misses(
            current_tier,
            batch.len(),
            bmax,
            now,
            slowdown,
            cache.as_deref(),
            |i| batch[i].member(),
            |i| batch[i].deadline,
            &mut seen,
        );
        for job in batch.drain(..shed) {
            shared.telemetry.lock().record_violation(current_tier);
            let _ = done.send(Outcome::Dropped {
                qid: job.qid,
                arrival: job.arrival,
                at: now,
            });
        }
        if batch.is_empty() {
            continue;
        }

        // "Execute" the batch by sleeping its service time (charged once
        // per dispatch).
        let exec = kernel.dispatch_secs(
            current_tier,
            batch.iter().map(Job::member),
            cache.as_deref_mut(),
            &mut shared.addon_stats.lock(),
            slowdown,
            &mut seen,
        );
        drop(cache);
        shared.busy[wid].store(true, Ordering::Relaxed);
        shared.sleep_sim(exec);
        shared.busy[wid].store(false, Ordering::Relaxed);
        let now = shared.now();
        thresholds.clone_from(&shared.plan.read().thresholds);

        for mut job in batch.drain(..) {
            let verdict = {
                let mut router = shared.router.as_ref().map(|r| r.lock());
                kernel.serve(
                    current_tier,
                    job.qid,
                    job.prompt,
                    shared.difficulty_delta(),
                    job.resume,
                    &thresholds,
                    router.as_deref_mut(),
                    || shared.has_alive_deeper(current_tier),
                )
            };
            if let Some(confidence) = verdict.confidence() {
                shared
                    .telemetry
                    .lock()
                    .record_confidence(current_tier, confidence);
            }
            match verdict {
                Verdict::Complete {
                    confidence,
                    image,
                    reused,
                } => {
                    // Late completions are violations attributed to the
                    // tier that finished the query (escalated queries count
                    // against the heavy side); escalations are not
                    // completions and record nothing at shallower stages.
                    if now > job.deadline {
                        shared.telemetry.lock().record_violation(current_tier);
                    }
                    let _ = done.send(Outcome::Completed(kernel.response(
                        QueryId(job.qid),
                        job.arrival,
                        now,
                        image,
                        job.entry,
                        current_tier,
                        confidence,
                        reused,
                    )));
                }
                Verdict::Escalate { resume, .. } => {
                    if resume.is_some() {
                        job.resume = resume;
                    }
                    shared.tier_escalations[current_tier].fetch_add(1, Ordering::Relaxed);
                    shared.telemetry.lock().record_escalation();
                    let _ = shared.forward(kernel, txs, current_tier + 1, job);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffserve_imagegen::{cascade1, DiscriminatorConfig, FeatureSpec};
    use diffserve_simkit::time::SimDuration;
    use std::sync::OnceLock;

    fn test_runtime() -> &'static CascadeRuntime {
        static RT: OnceLock<CascadeRuntime> = OnceLock::new();
        RT.get_or_init(|| {
            CascadeRuntime::prepare(
                cascade1(FeatureSpec::default()),
                1200,
                77,
                DiscriminatorConfig {
                    train_prompts: 400,
                    epochs: 8,
                    ..Default::default()
                },
            )
        })
    }

    fn quick_config() -> ClusterConfig {
        ClusterConfig {
            system: SystemConfig {
                num_workers: 8,
                ..Default::default()
            },
            // Debug builds execute the (real) discriminator inference ~50x
            // slower, which eats into scaled wall-clock budgets; slow the
            // clock down accordingly so timing fidelity is preserved.
            time_scale: if cfg!(debug_assertions) { 0.05 } else { 0.01 },
        }
    }

    fn short_trace(qps: f64) -> Trace {
        Trace::constant(qps, SimDuration::from_secs(40)).unwrap()
    }

    #[test]
    fn cluster_serves_and_accounts_for_all_queries() {
        let cfg = quick_config();
        let report = run_cluster(
            test_runtime(),
            &cfg,
            &RunSettings::new(Policy::DiffServe, 8.0),
            &short_trace(5.0),
        );
        assert!(report.total_queries > 100);
        assert_eq!(report.completed + report.dropped, report.total_queries);
        assert!(report.fid.is_finite());
        // At modest load the cluster should mostly meet the SLO.
        assert!(
            report.violation_ratio < 0.35,
            "viol {}",
            report.violation_ratio
        );
    }

    #[test]
    fn clipper_light_on_cluster_has_no_violations() {
        let cfg = quick_config();
        let report = run_cluster(
            test_runtime(),
            &cfg,
            &RunSettings::new(Policy::ClipperLight, 8.0),
            &short_trace(5.0),
        );
        assert!(
            report.violation_ratio < 0.05,
            "viol {}",
            report.violation_ratio
        );
        assert_eq!(report.heavy_fraction, 0.0);
    }

    #[test]
    fn cluster_matches_simulator_shape() {
        // The fig6 validation in miniature: simulator and testbed should
        // agree on coarse metrics for the same workload.
        let cfg = quick_config();
        let settings = RunSettings::new(Policy::DiffServe, 8.0);
        let trace = short_trace(5.0);
        let cluster = run_cluster(test_runtime(), &cfg, &settings, &trace);
        let sim = diffserve_core::run_trace(test_runtime(), &cfg.system, &settings, &trace);
        let fid_gap = (cluster.fid - sim.fid).abs() / sim.fid;
        assert!(
            fid_gap < 0.10,
            "fid gap {fid_gap}: {} vs {}",
            cluster.fid,
            sim.fid
        );
        let viol_gap = (cluster.violation_ratio - sim.violation_ratio).abs();
        assert!(viol_gap < 0.3, "violation gap {viol_gap}");
    }

    #[test]
    fn cluster_session_streams_and_snapshots() {
        let cfg = quick_config();
        let mut session = ServingSession::builder()
            .runtime(test_runtime())
            .config(SystemConfig {
                resume_from_latents: true,
                ..cfg.system.clone()
            })
            .policy(Policy::DiffServe)
            .build_cluster(cfg.time_scale)
            .expect("valid cluster session");
        let trace = Trace::constant(4.0, SimDuration::from_secs(20)).unwrap();
        let n = session.replay_trace(&trace);
        assert!(n > 20, "replayed {n} queries");
        session.run_until(SimTime::from_secs(40));
        let outcomes = session.poll();
        assert!(!outcomes.is_empty(), "outcomes should stream before finish");
        let snap = session.snapshot();
        assert!(snap.completed + snap.dropped > 0);
        assert_eq!(snap.tier_workers.iter().sum::<usize>(), 8);
        // The snapshot's running counters equal a scan over the outcomes
        // the poll just drained (nothing is ingested in between).
        let done: Vec<&CompletedResponse> = outcomes
            .iter()
            .filter_map(|o| match o {
                QueryOutcome::Completed(r) => Some(r),
                QueryOutcome::Dropped { .. } => None,
            })
            .collect();
        let heavy = done.iter().filter(|r| r.tier > 0).count();
        let resumed = done.iter().filter(|r| r.reused_steps > 0).count() as u64;
        assert!(heavy > 0 && resumed > 0, "exercise both counters");
        assert_eq!(snap.completed, done.len() as u64);
        assert_eq!(snap.dropped, (outcomes.len() - done.len()) as u64);
        assert_eq!(snap.heavy_fraction, heavy as f64 / done.len() as f64);
        assert_eq!(snap.resumed_completions, resumed);
        let report = session.finish();
        assert_eq!(report.total_queries, n);
        assert_eq!(report.completed + report.dropped, report.total_queries);
    }

    /// The testbed's completions carry the same boundary scores as the
    /// simulator's: the score table's entry for a light completion's
    /// prompt, and `None` for a heavy one, although an escalated query's
    /// light output was scored.
    #[test]
    fn cluster_completions_carry_their_tiers_boundary_score() {
        let (cfg, rt) = (quick_config(), test_runtime());
        let mut session = ServingSession::builder()
            .runtime(rt)
            .config(cfg.system.clone())
            .policy(Policy::DiffServe)
            .build_cluster(cfg.time_scale)
            .expect("valid cluster session");
        let trace = Trace::constant(4.0, SimDuration::from_secs(20)).unwrap();
        session.replay_trace(&trace);
        session.run_until(SimTime::from_secs(40));
        let mut per_tier = [0usize; 2];
        for outcome in session.poll() {
            let QueryOutcome::Completed(r) = outcome else {
                continue;
            };
            per_tier[r.tier] += 1;
            let want =
                (r.tier == 0).then(|| rt.scores()[0][(r.id.0 % rt.dataset.len() as u64) as usize]);
            assert_eq!(
                r.confidence.map(f64::to_bits),
                want.map(f64::to_bits),
                "query {} at tier {}",
                r.id.0,
                r.tier
            );
        }
        assert!(
            per_tier.iter().all(|&n| n > 0),
            "both tiers complete queries: {per_tier:?}"
        );
        session.finish();
    }

    /// The testbed windows its series as the simulator does: every series
    /// is keyed by the starts of consecutive [`METRICS_WINDOW`]s.
    #[test]
    fn cluster_series_are_keyed_by_metrics_window_starts() {
        let report = run_cluster(
            test_runtime(),
            &quick_config(),
            &RunSettings::new(Policy::DiffServe, 8.0),
            &Trace::constant(5.0, SimDuration::from_secs(60)).unwrap(),
        );
        let window = METRICS_WINDOW.as_secs_f64();
        for (name, series) in [
            ("demand", &report.demand_series),
            ("threshold", &report.threshold_series),
            ("violation", &report.violation_series),
        ] {
            assert!(series.len() >= 3, "{name}: {} windows", series.len());
            for (i, &(t, _)) in series.iter().enumerate() {
                assert_eq!(t, i as f64 * window, "{name} window {i}");
            }
        }
        for &(t, _) in &report.fid_series {
            assert_eq!((t / window).fract(), 0.0, "fid window at {t}");
        }
    }

    #[test]
    fn cluster_inject_fails_workers_live() {
        let cfg = quick_config();
        let mut session = ServingSession::builder()
            .runtime(test_runtime())
            .config(cfg.system.clone())
            .policy(Policy::DiffServe)
            .build_cluster(cfg.time_scale)
            .expect("valid cluster session");
        session
            .inject(ScenarioEvent::Capacity(CapacityEvent::Fail(3)))
            .expect("3 of 8 may fail");
        let snap = session.snapshot();
        assert_eq!(snap.failed_workers, 3);
        let err = session
            .inject(ScenarioEvent::Capacity(CapacityEvent::Fail(5)))
            .unwrap_err();
        assert!(matches!(err, ScenarioError::PoolExhausted { .. }));
        session
            .inject(ScenarioEvent::Capacity(CapacityEvent::Recover(3)))
            .expect("recover the failed 3");
        assert_eq!(session.snapshot().failed_workers, 0);
        // Abandoning the session (drop without finish) must not hang.
    }

    #[test]
    fn build_cluster_rejects_bad_time_scale() {
        let err = ServingSession::builder()
            .runtime(test_runtime())
            .config(quick_config().system)
            .build_cluster(0.0)
            .unwrap_err();
        assert!(matches!(err, BuildError::Config(_)), "{err}");
    }

    #[test]
    fn aimd_ablation_runs_on_the_cluster() {
        // Workers attribute drops and late completions to their tier, so
        // the AIMD decrease signal actually reaches the shared control
        // loop; overload must not run away at maximum batch sizes.
        let cfg = quick_config();
        let mut settings = RunSettings::new(diffserve_core::Policy::DiffServe, 10.0);
        settings.knobs = diffserve_core::AblationKnobs::aimd();
        let report = run_cluster(
            test_runtime(),
            &cfg,
            &settings,
            &Trace::constant(10.0, SimDuration::from_secs(40)).unwrap(),
        );
        assert_eq!(report.completed + report.dropped, report.total_queries);
        assert!(report.total_queries > 200);
        // AIMD reacts a step behind (the Fig. 8 point) but must still keep
        // the system serving rather than collapsing.
        assert!(
            report.violation_ratio < 0.6,
            "AIMD ran away: viol {}",
            report.violation_ratio
        );
    }
}
