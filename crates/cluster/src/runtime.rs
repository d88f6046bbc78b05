//! The thread-based testbed runtime.
//!
//! The paper validates its simulator against a 16×A100 cluster where the
//! controller, load balancer, and workers are separate processes talking
//! over gRPC (§4.1). This module reproduces that architecture at
//! thread-and-channel scale: worker threads batch and "execute" queries by
//! sleeping the profiled latency (scaled by the session's time scale, the
//! wall-clock seconds per simulated second),
//! escalations travel over channels, and one clock thread fires what the
//! simulator's event queue schedules: the scenario's incidents, the hazard
//! checks and the control ticks that re-solve the allocation, each at its
//! absolute instant. The Fig. 6 experiment compares its measurements
//! with the simulator's — the paper reports a 0.56% FID / 1.1%
//! SLO-violation gap between the two.
//!
//! Threads, sleeps and channels are all this engine owns: what a batch
//! costs, where a job routes, whether an output escalates, which workers
//! change tier and what the controller is told are calls into
//! `diffserve_core::kernel`, the same functions the simulator calls; the
//! bootstrap plan, the drain period and the report's horizon cut are the
//! core's too.
//!
//! The testbed is the second engine behind the unified session API:
//! [`ClusterBackend`] implements [`ServingBackend`], and
//! [`ClusterSessionExt::build_cluster`] plugs it into the
//! [`SessionBuilder`] fluent path.
//! The batch entry points [`run_cluster`] / [`run_cluster_scenario`] are
//! thin wrappers over such a session.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use diffserve_core::config::{METRICS_WINDOW, MODEL_SWITCH_DELAY};
use diffserve_core::kernel::{
    self, Candidate, FleetTally, Kernel, Ledger, Member, Rung, TickTelemetry, Verdict, WorkerState,
};
use diffserve_core::serve::{
    BuildError, QueryOutcome, QuerySpec, QueryTicket, ServingBackend, ServingSession,
    SessionBuilder, SessionSnapshot, SessionSpec,
};
use diffserve_core::{
    AddonStats, CascadeRuntime, CompletedResponse, ConfigError, ControlDirective, ControlLoop,
    ControlObservation, ModuleCache, QueryId, RunReport, RunSettings, SystemConfig,
};
use diffserve_imagegen::{OnlinePredictiveRouter, Prompt, StageState};
use diffserve_metrics::WindowedSeries;
use diffserve_simkit::prelude::*;
use diffserve_trace::{
    CapacityEvent, HazardProcess, Incident, IncidentLog, Scenario, ScenarioError, ScenarioEvent,
    Trace,
};

use crate::plan::ServingPlan;

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
    /// The tier [`Shared::forward`] routed this job to: a worker that
    /// changes tier, or fails, hands its queue back there.
    tier: usize,
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

/// [`Shared::hosting`] of a worker with no model loaded.
const LOADING: usize = usize::MAX;

struct Shared {
    plan: RwLock<ServingPlan>,
    depths: Vec<AtomicUsize>,
    /// Arrivals, violations and confidences since the last control tick —
    /// recorded by the submitter and the workers, drained by the clock
    /// thread into the shared [`ControlLoop`].
    telemetry: Mutex<TickTelemetry>,
    shutdown: AtomicBool,
    start: Instant,
    scale: f64,
    /// Scenario fail-stop flags, one per worker.
    failed: Vec<AtomicBool>,
    /// Busy flags (executing a batch or loading a model), one per worker —
    /// feeds the per-tier utilization in [`SessionSnapshot`].
    busy: Vec<AtomicBool>,
    /// Members of the batch each worker is executing (0 between batches)
    /// — the in-service half of the kernel's routing load.
    in_service: Vec<AtomicUsize>,
    /// The tier whose model each worker has loaded, or [`LOADING`] from
    /// the moment the worker sees its own fail-stop until it has reloaded.
    /// A worker whose plan tier differs is switching toward it.
    hosting: Vec<AtomicUsize>,
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
    /// Active prompt-difficulty offset (f64 bits), set by a fired incident
    /// and read by workers at generation time.
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

    /// Sleeps until the simulated instant `at`, in slices of at most one
    /// simulated second so that a shutdown is seen promptly. Returns
    /// `false` once the session is shutting down, even if `at` has come due:
    /// nothing fires during teardown, where it could stamp an incident a
    /// replay can never re-fire.
    fn wait_until(&self, at: SimTime) -> bool {
        let at = at.as_secs_f64();
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return false;
            }
            let now = self.sim_now();
            if at <= now {
                return true;
            }
            self.sleep_sim((at - now).min(1.0));
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

    /// What the fleet tally reads of each worker under `plan`, from live
    /// channel depths, busy flags and speed factors; `failed` is the mask
    /// the caller also hands to the retarget, so the two never disagree
    /// mid-churn.
    fn states<'s>(
        &'s self,
        plan: &'s ServingPlan,
        failed: &'s [bool],
    ) -> impl Iterator<Item = Option<WorkerState>> + 's {
        plan.tiers.iter().enumerate().map(move |(i, &tier)| {
            (!failed[i]).then(|| WorkerState {
                tier,
                queued: self.depths[i].load(Ordering::Relaxed),
                busy: self.busy[i].load(Ordering::Relaxed),
                speed_factor: self.speed_factor(i),
            })
        })
    }

    /// The fleet tally under `plan` of [`states`](Self::states).
    fn tally(&self, plan: &ServingPlan, failed: &[bool]) -> FleetTally {
        FleetTally::of(plan.num_tiers(), self.states(plan, failed))
    }

    /// Applies one lowered scenario event against live state and records it
    /// in the incident log — the single funnel the clock thread's scheduled
    /// and hazard-drawn incidents and mid-run injection all go through. A
    /// capacity event touches the workers [`kernel::capacity_targets`]
    /// picks (the simulator applies the same rule); a difficulty event
    /// swaps the offset.
    ///
    /// An injection races the clock thread, so the whole pick-apply-log
    /// sequence is serialized under the log lock. Only the
    /// *applied* event is logged — the incident log must stay a faithful,
    /// replayable account, never a wish list.
    fn apply_event(&self, action: ScenarioEvent) {
        let mut log = self.incident_log.lock().unwrap();
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

    /// Whether any alive worker is assigned by `plan` a tier deeper than
    /// `tier` — when churn wipes the deeper pools out, escalations would
    /// bounce between same-tier workers forever (generation is
    /// deterministic), so callers serve this tier's output instead.
    fn has_alive_deeper(&self, plan: &ServingPlan, tier: usize) -> bool {
        plan.tiers
            .iter()
            .enumerate()
            .any(|(i, &t)| t > tier && !self.is_failed(i))
    }

    /// Whether worker `i` may exit: the session is shutting down and
    /// nothing is queued to it. Every send raises the target's depth
    /// before it hands the job over, so a send that has begun keeps the
    /// worker serving until its job arrives.
    fn may_exit(&self, i: usize) -> bool {
        self.shutdown.load(Ordering::SeqCst) && self.depths[i].load(Ordering::SeqCst) == 0
    }

    /// The queries queued on worker `i` plus those in service.
    fn load(&self, i: usize) -> usize {
        self.depths[i].load(Ordering::Relaxed) + self.in_service[i].load(Ordering::Relaxed)
    }

    /// Health-weighted JSQ by the kernel's
    /// [`pick_worker`](kernel::pick_worker), in one pass over the alive
    /// workers (scenario validation guarantees one): each stands on the
    /// candidate ladder by its plan tier and the model it hosts, and is
    /// ranked by its channel depth plus the members of the batch in
    /// service, weighted by its slowdown, plus the add-on miss penalty
    /// where its cache lacks the job's module.
    fn route(&self, kernel: &Kernel<'_>, tier: usize, addon: Option<usize>) -> usize {
        let penalty = kernel.miss_penalty(tier, addon);
        let plan = self.plan.read().unwrap();
        let alive = (0..self.depths.len()).filter(|&i| !self.is_failed(i));
        kernel::pick_worker(alive.map(|i| Candidate {
            worker: i,
            rung: Rung::of(
                tier,
                plan.tiers[i],
                self.hosting[i].load(Ordering::Relaxed) == plan.tiers[i],
            ),
            load: kernel.routing_load(
                self.depths[i].load(Ordering::Relaxed),
                self.in_service[i].load(Ordering::Relaxed),
                self.slowdown(i),
            ),
            miss: match penalty {
                Some((id, p)) if !self.module_caches[i].lock().unwrap().contains(id) => p,
                _ => 0.0,
            },
        }))
        .expect("at least one worker must be alive")
    }

    /// Routes `job` to a worker of `tier` and hands it over. The send
    /// fails only once the target's thread has exited; the job is then
    /// lost, its depth count is taken back, and the session's finish
    /// accounts it as a drop.
    fn forward(&self, kernel: &Kernel<'_>, txs: &[Sender<Job>], tier: usize, mut job: Job) {
        job.tier = tier;
        let target = self.route(kernel, tier, job.addon);
        self.depths[target].fetch_add(1, Ordering::Relaxed);
        if txs[target].send(job).is_err() {
            self.depths[target].fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Hands every job queued on worker `wid` back to the tier it was
    /// routed to, as the simulator re-routes a moved or failed worker's
    /// queue. The queue is drained before any job is forwarded, so a job
    /// routed straight back here waits for the worker.
    fn hand_back(&self, wid: usize, rx: &Receiver<Job>, kernel: &Kernel<'_>, txs: &[Sender<Job>]) {
        let held: Vec<Job> = std::iter::from_fn(|| rx.try_recv().ok()).collect();
        self.depths[wid].fetch_sub(held.len(), Ordering::Relaxed);
        for job in held {
            self.forward(kernel, txs, job.tier, job);
        }
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
/// real (`std::sync::mpsc`) channels, wall-clock time scaled by
/// `time_scale`.
///
/// The workers and one clock thread are launched at construction and serve
/// continuously; [`ServingBackend::submit`] routes one query into
/// the fleet, [`ServingBackend::tick`] sleeps scaled wall-clock time, and
/// [`ServingBackend::finish`] shuts the fleet down and assembles the
/// [`RunReport`]. Build one through [`ClusterSessionExt::build_cluster`].
pub struct ClusterBackend<'a> {
    shared: Arc<Shared>,
    job_txs: Arc<Vec<Sender<Job>>>,
    done_rx: Receiver<Outcome>,
    worker_handles: Vec<thread::JoinHandle<()>>,
    clock: Option<thread::JoinHandle<()>>,
    /// The shared control plane, driven by the clock thread and read for
    /// snapshots and the final report.
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
    /// Launches the testbed fleet (one thread per worker, plus the clock
    /// thread) from validated session inputs.
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
        let kernel = Kernel::new(runtime, &sys, &settings);
        let nt = kernel.num_tiers();

        // Bootstrap through the shared control plane, as the simulator does:
        // a fresh fleet is placed positionally and pays no switch delay.
        let mut control = spec.control_loop();
        let ControlDirective::Apply { plan: bootstrap } =
            control.bootstrap(settings.peak_demand_hint)
        else {
            unreachable!("the control loop plans a bootstrap for every policy")
        };
        let plan = ServingPlan::new(n, &bootstrap);
        let control = Arc::new(Mutex::new(control));

        let router = kernel.new_router();
        let hosting = plan.tiers.iter().map(|&t| AtomicUsize::new(t)).collect();
        let shared = Arc::new(Shared {
            plan: RwLock::new(plan),
            depths: (0..n).map(|_| AtomicUsize::new(0)).collect(),
            telemetry: Mutex::new(TickTelemetry::new(nt, router.is_some())),
            shutdown: AtomicBool::new(false),
            start: Instant::now(),
            scale: time_scale,
            failed: (0..n).map(|_| AtomicBool::new(false)).collect(),
            busy: (0..n).map(|_| AtomicBool::new(false)).collect(),
            in_service: (0..n).map(|_| AtomicUsize::new(0)).collect(),
            hosting,
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
            (0..n).map(|_| channel()).unzip();
        let job_txs = Arc::new(job_txs);
        let (done_tx, done_rx) = channel::<Outcome>();

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

        // --- Clock thread (incidents, hazard checks, control ticks) --------
        let clock = {
            let shared = Arc::clone(&shared);
            let control = Arc::clone(&control);
            let interval = sys.control_interval;
            let incidents = spec
                .scenario
                .as_ref()
                .map(|s| s.timeline())
                .unwrap_or_default();
            let hazard = spec
                .scenario
                .as_ref()
                .and_then(|s| s.hazard())
                .map(|h| HazardProcess::new(h, interval));
            thread::spawn(move || clock_loop(&shared, &control, interval, &incidents, hazard))
        };

        Ok(ClusterBackend {
            shared,
            job_txs,
            done_rx,
            worker_handles,
            clock: Some(clock),
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
        let clock = self.clock.take().map(|h| ("clock", h));
        let mut joined = Ok(());
        for (role, h) in workers.chain(clock) {
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
        // The router's prediction sees the same (difficulty-shifted)
        // prompt the tiers will serve. The router lock is taken before the
        // plan's, the order the workers take them in.
        let (tier, deep_demand) = {
            let router = self.shared.router.as_ref().map(|r| r.lock().unwrap());
            let plan = self.shared.plan.read().unwrap();
            self.kernel.entry_tier(
                &plan.thresholds,
                &mut self.route_rng,
                router.as_deref(),
                plan.bypass_suspended,
                || {
                    self.kernel
                        .served_prompt(qid, spec.prompt, self.shared.difficulty_delta())
                },
            )
        };
        self.shared
            .telemetry
            .lock()
            .unwrap()
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
            tier,
        };
        self.shared.forward(&self.kernel, &self.job_txs, tier, job);
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
        let fleet = self.shared.tally(
            &self.shared.plan.read().unwrap(),
            &self.shared.failed_mask(),
        );
        fleet.health().after(self.now(), &event)?;
        self.shared.apply_event(event);
        Ok(())
    }

    fn snapshot(&self) -> SessionSnapshot {
        let plan = self.shared.plan.read().unwrap();
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
            self.control.lock().unwrap().deferral_gap(),
            *self.shared.addon_stats.lock().unwrap(),
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
        RunReport::assemble(
            self.settings.policy,
            total,
            &self.ledger,
            horizon,
            &self.demand_track,
            // The clock thread pushed its threshold decision every control
            // tick, as the simulator does.
            &self.shared.threshold_track.lock().unwrap(),
            self.control.lock().unwrap().take_deferral_error_series(),
            std::mem::take(&mut *self.shared.incident_log.lock().unwrap()),
            *self.shared.addon_stats.lock().unwrap(),
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
/// Supports every policy in Table 1. `time_scale` is the wall-clock seconds
/// per simulated second (`0.02` runs a 350 s trace in 7 s with every
/// latency ratio intact), so the run blocks the calling thread for roughly
/// `trace.duration × time_scale` plus a drain period. Equivalent to
/// [`run_cluster_scenario`] with a perturbation-free scenario, and — like
/// it — a thin wrapper over a testbed-backed [`ServingSession`].
///
/// # Panics
///
/// Panics if the configuration is invalid or `time_scale` is not positive.
pub fn run_cluster(
    runtime: &CascadeRuntime,
    config: &SystemConfig,
    settings: &RunSettings,
    trace: &Trace,
    time_scale: f64,
) -> RunReport {
    run_cluster_scenario(
        runtime,
        config,
        settings,
        &Scenario::new("trace", trace.clone()),
        time_scale,
    )
}

/// Runs one policy on the thread-based cluster under a [`Scenario`] — the
/// parity path to `diffserve_core::run_scenario`, so one `Scenario` value
/// drives both the discrete-event simulator and this testbed.
///
/// Demand perturbations are baked into the replayed arrival stream;
/// worker churn and difficulty shifts are applied live by the clock thread
/// at their scheduled instants (failed workers re-route their queues and
/// idle until recovery, paying the model load delay when they rejoin). One parity caveat: failure
/// granularity here is the batch boundary — a worker already executing a
/// batch delivers it before going down, while the simulator's fail-stop
/// kills in-flight work instantly and retries it elsewhere. The replay,
/// drain and finish are [`ServingSession::run_trace`]'s, as on the
/// simulator.
///
/// # Panics
///
/// Panics if the configuration is invalid, `time_scale` is not positive, or
/// the scenario fails [`Scenario::validate`] for this worker count.
pub fn run_cluster_scenario(
    runtime: &CascadeRuntime,
    config: &SystemConfig,
    settings: &RunSettings,
    scenario: &Scenario,
    time_scale: f64,
) -> RunReport {
    ServingSession::builder()
        .runtime(runtime)
        .config(config.clone())
        .settings(settings.clone())
        .scenario(scenario.clone())
        .build_cluster(time_scale)
        .expect("valid scenario and system config")
        .run_trace(&scenario.effective_trace())
}

/// The testbed's one clock. It fires the scenario's scheduled incidents,
/// the hazard checks at the control interval's half-phase and the control
/// ticks at whole intervals, each at its absolute instant, so the ticks do
/// not drift by the time the previous one took. At a shared instant it
/// fires incidents first, then the hazard check, then the tick: the order
/// the simulator's event queue produces. A late wake-up fires everything
/// overdue in time order.
///
/// The wall-clock testbed cannot promise a bit-identical utilization
/// trajectory across runs, so hazard-drawn faults here are reproducible
/// only through the incident log — which is exactly what record/replay is
/// for.
fn clock_loop(
    shared: &Shared,
    control: &Mutex<ControlLoop>,
    interval: SimDuration,
    incidents: &[Incident],
    hazard: Option<HazardProcess>,
) {
    let mut incidents = incidents.iter().peekable();
    let mut hazard = hazard.map(|process| (process.first_check(), process));
    let mut next_tick = SimTime::ZERO + interval;
    // Kept from tick to tick, so their vectors are reused.
    let mut fleet = FleetTally::new(shared.plan.read().unwrap().num_tiers());
    let mut obs = ControlObservation::default();
    loop {
        let next = [incidents.peek().map(|i| i.at), hazard.as_ref().map(|h| h.0)]
            .into_iter()
            .flatten()
            .fold(next_tick, std::cmp::min);
        if !shared.wait_until(next) {
            return;
        }
        while let Some(incident) = incidents.next_if(|i| i.at <= next) {
            shared.apply_event(incident.event);
        }
        if let Some((check, process)) = hazard.as_mut().filter(|h| h.0 == next) {
            fleet.fill(shared.states(&shared.plan.read().unwrap(), &shared.failed_mask()));
            for event in process.step(fleet.utilization(), fleet.health()) {
                shared.apply_event(event);
            }
            *check += interval;
        }
        if next_tick == next {
            control_tick(shared, control, &mut fleet, &mut obs);
            next_tick += interval;
        }
    }
}

/// One control tick: hands the shared [`ControlLoop`] what the fleet
/// observed since the last tick (the drained telemetry, live channel
/// depths), steps the pipeline, and swaps the actuated plan in. Runs for
/// every policy so the demand and profile estimators stay live; static
/// policies simply always `Hold`. `fleet` and `obs` are the clock's, kept
/// from tick to tick.
fn control_tick(
    shared: &Shared,
    control: &Mutex<ControlLoop>,
    fleet: &mut FleetTally,
    obs: &mut ControlObservation,
) {
    // Little's-law queue estimates come from live channel depths of alive
    // workers only — failed workers drain their queues elsewhere. The pool
    // size and the retarget mask derive from one reading of the fail-stop
    // flags so the solver and retarget never disagree mid-churn.
    let mut plan = shared.plan.read().unwrap().clone();
    let excluded = shared.failed_mask();
    fleet.fill(shared.states(&plan, &excluded));
    let now = shared.now();
    shared
        .telemetry
        .lock()
        .unwrap()
        .observe(obs, now, fleet, &plan.batches);
    let directive = control.lock().unwrap().step(obs);
    if let ControlDirective::Apply { plan: next } = &directive {
        plan.adopt(next, &excluded, |i| shared.load(i));
    }
    // Record the decision that is now in force — the series the report's
    // `threshold_series` is built from (mirroring the simulator, which
    // pushes its threshold on every tick).
    shared
        .threshold_track
        .lock()
        .unwrap()
        .push(now, plan.thresholds[0]);
    if directive != ControlDirective::Hold {
        *shared.plan.write().unwrap() = plan;
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
    // The model this worker serves with: its bootstrap tier, loaded at
    // launch.
    let mut current_tier = shared.plan.read().unwrap().tiers[wid];
    let mut was_failed = false;
    let poll = Duration::from_secs_f64((0.02 * shared.scale).max(0.0002));
    // Scratch, reused across batches: the distinct missing add-on modules
    // of a batch, the batch itself and the thresholds it is judged by.
    let mut seen = Vec::new();
    let mut batch = Vec::new();
    let mut thresholds = Vec::new();
    // Sleeps out a model load, busy, then serves `tier`.
    let load_model = |tier: usize| {
        shared.busy[wid].store(true, Ordering::Relaxed);
        shared.sleep_sim(switch_delay);
        shared.busy[wid].store(false, Ordering::Relaxed);
        shared.hosting[wid].store(tier, Ordering::SeqCst);
    };
    loop {
        // Scenario fail-stop: hand anything queued here back to surviving
        // workers and idle until recovery (or shutdown).
        if shared.failed[wid].load(Ordering::SeqCst) {
            // The restart drops the model; a fail and recover that land
            // within one batch go unseen and leave it loaded.
            was_failed = true;
            shared.hosting[wid].store(LOADING, Ordering::SeqCst);
            shared.hand_back(wid, rx, kernel, txs);
            if shared.may_exit(wid) {
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
                cache.lock().unwrap().clear();
            }
            current_tier = shared.plan.read().unwrap().tiers[wid];
            load_model(current_tier);
        }

        // Follow the plan: a moved worker hands its queue back to the tier
        // it was routed to, then switches models.
        let desired = shared.plan.read().unwrap().tiers[wid];
        if desired != current_tier {
            shared.hand_back(wid, rx, kernel, txs);
            current_tier = desired;
            load_model(current_tier);
        }
        let bmax = shared.plan.read().unwrap().batch_for(current_tier).max(1);

        // Collect a batch: block briefly for the first job, then take
        // whatever else is queued (Clipper-style no-wait batching). The
        // poll must be fine relative to *simulated* time or idle polling
        // inflates queueing delays for sub-100ms models like SDXS.
        let first = match rx.recv_timeout(poll) {
            Ok(job) => job,
            Err(RecvTimeoutError::Timeout) => {
                if shared.may_exit(wid) {
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
        let mut cache = shared.module_caches.get(wid).map(|c| c.lock().unwrap());
        let now = shared.now();
        let (shed, priced) = kernel.predicted_misses(
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
            shared
                .telemetry
                .lock()
                .unwrap()
                .record_violation(current_tier);
            let _ = done.send(Outcome::Dropped {
                qid: job.qid,
                arrival: job.arrival,
                at: now,
            });
        }
        // No price: the whole batch was shed.
        let Some(exec) = priced else {
            continue;
        };

        // "Execute" the batch by sleeping the service time the drop-front
        // rule priced it at, once its swaps are charged.
        kernel.charge_dispatch(
            current_tier,
            batch.iter().map(Job::member),
            cache.as_deref_mut(),
            &mut shared.addon_stats.lock().unwrap(),
            slowdown,
            exec,
            &mut seen,
        );
        drop(cache);
        shared.busy[wid].store(true, Ordering::Relaxed);
        shared.in_service[wid].store(batch.len(), Ordering::Relaxed);
        shared.sleep_sim(exec);
        shared.in_service[wid].store(0, Ordering::Relaxed);
        shared.busy[wid].store(false, Ordering::Relaxed);
        let now = shared.now();
        // Tier membership is read once per batch, as on the simulator.
        let deeper_alive = {
            let plan = shared.plan.read().unwrap();
            thresholds.clone_from(&plan.thresholds);
            shared.has_alive_deeper(&plan, current_tier)
        };

        for mut job in batch.drain(..) {
            let verdict = {
                let mut router = shared.router.as_ref().map(|r| r.lock().unwrap());
                kernel.serve(
                    current_tier,
                    job.qid,
                    job.prompt,
                    shared.difficulty_delta(),
                    job.resume,
                    &thresholds,
                    router.as_deref_mut(),
                    || deeper_alive,
                )
            };
            let late = kernel.is_late(job.arrival, now);
            shared
                .telemetry
                .lock()
                .unwrap()
                .record_served(current_tier, &verdict, late);
            match verdict {
                Verdict::Complete {
                    confidence,
                    image,
                    reused,
                } => {
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
                    shared.forward(kernel, txs, current_tier + 1, job);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffserve_core::{AddonCatalog, AddonsConfig, Policy};
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

    /// Unoptimized builds execute the (real) discriminator inference ~50x
    /// slower, which eats into scaled wall-clock budgets; slow the clock
    /// down accordingly so timing fidelity is preserved. The key is the
    /// optimization level (`build.rs`), not `debug_assertions`: the
    /// `verify` profile is optimized and runs at release speed.
    const TIME_SCALE: f64 = if cfg!(unoptimized) { 0.05 } else { 0.01 };

    fn quick_config() -> SystemConfig {
        SystemConfig {
            num_workers: 8,
            ..Default::default()
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
            TIME_SCALE,
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
            TIME_SCALE,
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
        let cluster = run_cluster(test_runtime(), &cfg, &settings, &trace, TIME_SCALE);
        let sim = diffserve_core::run_trace(test_runtime(), &cfg, &settings, &trace);
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
                ..cfg
            })
            .policy(Policy::DiffServe)
            .build_cluster(TIME_SCALE)
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
            .config(cfg)
            .policy(Policy::DiffServe)
            .build_cluster(TIME_SCALE)
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
            TIME_SCALE,
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
            .config(cfg)
            .policy(Policy::DiffServe)
            .build_cluster(TIME_SCALE)
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

    /// A submit after every worker thread has exited neither panics nor
    /// drops out of the accounting: the failed send takes its depth count
    /// back, and `finish` counts the lost query as a drop.
    #[test]
    fn submit_after_the_workers_exit_is_accounted_as_a_drop() {
        let spec = ServingSession::builder()
            .runtime(test_runtime())
            .config(quick_config())
            .validate()
            .expect("valid session");
        let mut backend = ClusterBackend::launch(&spec, TIME_SCALE).expect("valid time scale");
        backend.shutdown_and_join().expect("no thread panicked");
        let ticket = backend.submit(QuerySpec::new());
        assert!(backend
            .shared
            .depths
            .iter()
            .all(|d| d.load(Ordering::Relaxed) == 0));
        let report = Box::new(backend).finish(ticket.arrival);
        assert_eq!(report.total_queries, 1);
        assert_eq!(report.completed + report.dropped, report.total_queries);
    }

    /// A four-worker testbed under a hand-written plan (tiers
    /// `[0, 0, 1, 1]`, batch 1, boundary threshold `threshold`), every
    /// worker done loading its tier's model. DiffServe-Static holds its
    /// plan, so no control tick rewrites it.
    fn launch_four_on_two_tiers(threshold: f64) -> (ClusterBackend<'static>, ServingPlan) {
        launch_four(four_workers(), threshold)
    }

    fn four_workers() -> SystemConfig {
        SystemConfig {
            num_workers: 4,
            ..Default::default()
        }
    }

    /// [`launch_four_on_two_tiers`] under `config`, a four-worker one.
    fn launch_four(config: SystemConfig, threshold: f64) -> (ClusterBackend<'static>, ServingPlan) {
        let spec = ServingSession::builder()
            .runtime(test_runtime())
            .config(config)
            .policy(Policy::DiffServeStatic)
            .validate()
            .expect("valid session");
        let mut backend = ClusterBackend::launch(&spec, TIME_SCALE).expect("valid time scale");
        let plan = ServingPlan {
            tiers: vec![0, 0, 1, 1],
            batches: vec![1, 1],
            thresholds: vec![threshold],
            bypass_suspended: false,
        };
        *backend.shared.plan.write().unwrap() = plan.clone();
        backend.tick(backend.now() + SimDuration::from_secs(2));
        (backend, plan)
    }

    /// Serves `queries` far-deadline queries on
    /// [`launch_four_on_two_tiers`]' fleet, moves worker `moved` to the
    /// other tier once its channel holds at least two jobs, and returns
    /// the tiers the queries completed at with the boundary-0 escalation
    /// count.
    fn serve_across_a_move(threshold: f64, moved: usize, queries: usize) -> (Vec<usize>, u64) {
        let (mut backend, mut plan) = launch_four_on_two_tiers(threshold);
        let far = backend.now() + SimDuration::from_secs(10_000);
        for _ in 0..queries {
            backend.submit(QuerySpec::new().deadline(far));
        }
        let give_up = backend.now() + SimDuration::from_secs(200);
        while backend.shared.depths[moved].load(Ordering::SeqCst) < 2 {
            assert!(backend.now() < give_up, "worker {moved} never held a queue");
            thread::sleep(Duration::from_micros(200));
        }
        plan.tiers[moved] = 1 - plan.tiers[moved];
        *backend.shared.plan.write().unwrap() = plan;
        let mut tiers = Vec::new();
        while tiers.len() < queries {
            assert!(backend.now() < give_up, "{} of {queries} done", tiers.len());
            backend.tick(backend.now() + SimDuration::from_secs(1));
            for outcome in backend.drain_completions() {
                match outcome {
                    QueryOutcome::Completed(r) => tiers.push(r.tier),
                    dropped => panic!("no query may be dropped: {dropped:?}"),
                }
            }
        }
        let escalations = backend.shared.tier_escalations[0].load(Ordering::SeqCst);
        (tiers, escalations)
    }

    /// A worker the plan moves hands its queued jobs back to the tier they
    /// were routed to: they complete at, or escalate from, that tier, and
    /// each query crosses boundary 0 exactly once. Served on the worker's
    /// new model instead, light-bound jobs would complete on the heavy
    /// tier and heavy-bound ones would be scored at boundary 0 again.
    #[test]
    fn a_moved_worker_hands_its_queue_back_to_the_tier_it_was_routed_to() {
        // Threshold 0: every query completes at the light tier, including
        // the ones queued on light worker 0 when it moves to heavy.
        let (tiers, escalations) = serve_across_a_move(0.0, 0, 16);
        assert!(tiers.iter().all(|&t| t == 0), "completion tiers {tiers:?}");
        assert_eq!(escalations, 0);
        // Threshold 1: every query escalates once and completes heavy,
        // including the ones queued on heavy worker 2 when it moves light.
        let (tiers, escalations) = serve_across_a_move(1.0, 2, 16);
        assert!(tiers.iter().all(|&t| t == 1), "completion tiers {tiers:?}");
        assert_eq!(escalations, 16);
    }

    /// A fail and a recover that land back to back leave the worker a
    /// ready host of its tier, whether or not it saw the failure: routing
    /// still prefers it over a busier ready worker.
    #[test]
    fn a_worker_failed_and_recovered_at_once_is_routed_to_as_ready() {
        let (mut backend, _) = launch_four_on_two_tiers(0.5);
        // Both pick heavy worker 3: the highest-indexed alive, then the
        // lowest-indexed failed.
        for event in [CapacityEvent::Fail(1), CapacityEvent::Recover(1)] {
            backend.shared.apply_event(ScenarioEvent::Capacity(event));
        }
        // Long enough to reload, had the worker seen its failure.
        backend.tick(backend.now() + SimDuration::from_secs(2));
        let shared = &backend.shared;
        assert_eq!(shared.hosting[3].load(Ordering::SeqCst), 1);
        // Worker 2, the other heavy host, looks busier.
        shared.depths[2].fetch_add(1, Ordering::SeqCst);
        assert_eq!(shared.route(&backend.kernel, 1, None), 3);
        shared.depths[2].fetch_sub(1, Ordering::SeqCst);
    }

    /// An exact score tie between a module holder and a non-holder goes to
    /// the lower load, as the kernel's rule and the simulator's load index
    /// route it, not to the lower index.
    #[test]
    fn an_exact_affinity_tie_goes_to_the_lower_load() {
        // Module 0 loads in exactly twice the heavy tier's single-query
        // stage time, so a worker without it pays a penalty of 2.0.
        let settings = RunSettings::new(Policy::DiffServeStatic, 8.0);
        let stage = Kernel::new(test_runtime(), &four_workers(), &settings).stage_latency(1, 1);
        let mut addons = AddonsConfig::demo(1);
        let mut modules = addons.catalog.modules().to_vec();
        modules[0].load_secs = 2.0 * stage;
        addons.catalog = AddonCatalog::new(modules);
        let config = SystemConfig {
            addons: Some(addons.clone()),
            ..four_workers()
        };
        let (backend, _) = launch_four(config, 0.5);
        let shared = &backend.shared;
        assert_eq!(backend.kernel.miss_penalty(1, Some(0)), Some((0, 2.0)));
        // Heavy worker 2 holds the module two jobs deep: (2 + 1) × 1.0.
        // Idle heavy worker 3 scores 1.0 plus the penalty: the same 3.0.
        shared.module_caches[2]
            .lock()
            .unwrap()
            .admit(0, &addons.catalog);
        shared.depths[2].fetch_add(2, Ordering::SeqCst);
        let picked = shared.route(&backend.kernel, 1, Some(0));
        // Taken back before asserting: a raised depth holds its worker
        // past shutdown.
        shared.depths[2].fetch_sub(2, Ordering::SeqCst);
        assert_eq!(picked, 3);
    }

    /// A completion is late when its latency is over the SLO, the ledger's
    /// rule, whatever deadline it carried: the controller is told of
    /// exactly the late completions the report counts. A far explicit
    /// deadline keeps the query from being shed, not from being late.
    #[test]
    fn a_late_completion_is_judged_by_the_slo_not_its_deadline() {
        // An SLO no render meets, and no control tick to drain the window.
        let config = SystemConfig {
            slo: SimDuration::from_millis(1),
            control_interval: SimDuration::from_secs(100_000),
            ..four_workers()
        };
        let (mut backend, _) = launch_four(config, 0.0);
        let far = backend.now() + SimDuration::from_secs(10_000);
        backend.submit(QuerySpec::new().deadline(far));
        let give_up = backend.now() + SimDuration::from_secs(200);
        while backend.ledger.slo().total() == 0 {
            assert!(backend.now() < give_up, "the query never completed");
            backend.tick(backend.now() + SimDuration::from_secs(1));
        }
        assert_eq!(backend.ledger.slo().late(), 1);
        let mut obs = ControlObservation::default();
        backend.shared.telemetry.lock().unwrap().observe(
            &mut obs,
            backend.now(),
            &FleetTally::new(2),
            &[1, 1],
        );
        assert_eq!((obs.violations_light, obs.violations_heavy), (1, 0));
    }

    /// A worker leaves at shutdown only once nothing is queued to it. A
    /// send raises its target's depth before it hands the job over, so a
    /// worker whose depth is raised keeps polling through shutdown until
    /// the job arrives, serves it, and only then exits; the workers with
    /// nothing queued exit at once.
    #[test]
    fn at_shutdown_a_worker_waits_for_a_job_whose_send_has_begun() {
        let (mut backend, _) = launch_four_on_two_tiers(0.0);
        let shared = Arc::clone(&backend.shared);
        // Half a send to light worker 0: the depth is raised, the job is
        // not handed over yet.
        shared.depths[0].fetch_add(1, Ordering::SeqCst);
        shared.shutdown.store(true, Ordering::SeqCst);
        let give_up = Instant::now() + Duration::from_secs(20);
        while !backend.worker_handles[1..].iter().all(|h| h.is_finished()) {
            assert!(Instant::now() < give_up, "idle workers never exited");
            thread::sleep(Duration::from_millis(1));
        }
        // Dozens of the worker's polls.
        thread::sleep(Duration::from_millis(50));
        assert!(
            !backend.worker_handles[0].is_finished(),
            "worker 0 left its job behind"
        );
        let far = SimTime::from_secs(10_000);
        let job = Job {
            qid: 7,
            arrival: shared.now(),
            deadline: far,
            entry: 0,
            prompt: None,
            resume: None,
            addon: None,
            tier: 0,
        };
        backend.job_txs[0]
            .send(job)
            .expect("worker 0 still receives");
        let served = backend
            .done_rx
            .recv_timeout(Duration::from_secs(20))
            .expect("worker 0 served the job");
        assert!(matches!(served, Outcome::Completed(r) if r.id == QueryId(7)));
        backend
            .worker_handles
            .remove(0)
            .join()
            .expect("worker 0 exits");
        assert_eq!(shared.depths[0].load(Ordering::SeqCst), 0);
    }

    /// A light-tier job for query `qid` that arrived now, with a deadline
    /// no run reaches.
    fn far_light_job(shared: &Shared, qid: u64) -> Job {
        Job {
            qid,
            arrival: shared.now(),
            deadline: SimTime::from_secs(10_000),
            entry: 0,
            prompt: None,
            resume: None,
            addon: None,
            tier: 0,
        }
    }

    /// Receives `n` outcomes and returns the completed queries' ids and
    /// tiers in the order they came; a drop fails the test.
    fn completions(backend: &ClusterBackend<'_>, n: usize) -> Vec<(u64, usize)> {
        (0..n)
            .map(|_| {
                match backend
                    .done_rx
                    .recv_timeout(Duration::from_secs(20))
                    .expect("the job was served")
                {
                    Outcome::Completed(r) => (r.id.0, r.tier),
                    Outcome::Dropped { qid, .. } => panic!("query {qid} was dropped"),
                }
            })
            .collect()
    }

    /// The exit rule, read directly: shutdown must be signalled and the
    /// worker's queue depth must be zero.
    #[test]
    fn a_worker_may_exit_only_at_shutdown_with_nothing_queued() {
        let (backend, _) = launch_four_on_two_tiers(0.0);
        let shared = &backend.shared;
        assert!(!shared.may_exit(0) && !shared.may_exit(1));
        shared.depths[0].fetch_add(1, Ordering::SeqCst);
        shared.shutdown.store(true, Ordering::SeqCst);
        assert!(!shared.may_exit(0));
        assert!(shared.may_exit(1));
        shared.depths[0].fetch_sub(1, Ordering::SeqCst);
        assert!(shared.may_exit(0));
    }

    /// One worker's channel is first in, first out: with batch 1 the jobs
    /// sent to it complete in the order they were sent.
    #[test]
    fn jobs_sent_to_one_worker_are_served_in_send_order() {
        let (backend, _) = launch_four_on_two_tiers(0.0);
        let shared = &backend.shared;
        for qid in 1..=6 {
            shared.depths[0].fetch_add(1, Ordering::SeqCst);
            backend.job_txs[0]
                .send(far_light_job(shared, qid))
                .expect("worker 0 receives");
        }
        let served = completions(&backend, 6);
        assert_eq!(served, (1..=6).map(|qid| (qid, 0)).collect::<Vec<_>>());
    }

    /// `hand_back` empties the channel it is given, takes the held jobs'
    /// depth back from their worker, and re-routes each job to its tier,
    /// where it is served.
    #[test]
    fn hand_back_forwards_every_held_job_and_takes_its_depth_back() {
        let (backend, _) = launch_four_on_two_tiers(0.0);
        let shared = &backend.shared;
        let (tx, rx) = channel();
        for qid in 1..=3 {
            shared.depths[1].fetch_add(1, Ordering::SeqCst);
            tx.send(far_light_job(shared, qid)).unwrap();
        }
        shared.hand_back(1, &rx, &backend.kernel, &backend.job_txs);
        assert!(rx.try_recv().is_err(), "a job stayed behind");
        let mut served = completions(&backend, 3);
        served.sort_unstable();
        assert_eq!(served, [(1, 0), (2, 0), (3, 0)]);
        assert!(shared.depths.iter().all(|d| d.load(Ordering::SeqCst) == 0));
    }

    /// A session dropped without `finish` joins its worker and clock
    /// threads: none of them still holds the shared state.
    #[test]
    fn an_abandoned_session_joins_every_thread() {
        let spec = ServingSession::builder()
            .runtime(test_runtime())
            .config(quick_config())
            .validate()
            .expect("valid session");
        let mut backend = ClusterBackend::launch(&spec, TIME_SCALE).expect("valid time scale");
        backend.submit(QuerySpec::new());
        let shared = Arc::clone(&backend.shared);
        assert!(Arc::strong_count(&shared) > 2);
        drop(backend);
        assert!(shared.shutdown.load(Ordering::SeqCst));
        assert_eq!(
            Arc::strong_count(&shared),
            1,
            "a thread outlived the session"
        );
    }

    #[test]
    fn build_cluster_rejects_bad_time_scale() {
        let err = ServingSession::builder()
            .runtime(test_runtime())
            .config(quick_config())
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
            TIME_SCALE,
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
