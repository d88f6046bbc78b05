//! The thread-based testbed runtime.
//!
//! The paper validates its simulator against a 16×A100 cluster where the
//! controller, load balancer, and workers are separate processes talking
//! over gRPC (§4.1). This module reproduces that architecture at thread
//! scale: worker threads take batches from their own job queues and
//! "execute" them by sleeping the profiled latency (scaled by the
//! session's time scale, the wall-clock seconds per simulated second),
//! escalations are pushed onto a deeper worker's queue, outcomes are
//! recorded straight into the session's ledger, and one clock thread
//! fires what the simulator's event queue schedules: the scenario's
//! incidents, the hazard checks and the control ticks that re-solve the
//! allocation, each at its absolute instant. The Fig. 6 experiment
//! compares its measurements with the simulator's — the paper reports a
//! 0.56% FID / 1.1% SLO-violation gap between the two.
//!
//! Threads, sleeps, queues and locks are all this engine owns: a worker's
//! dispatch and batch completion, where a job routes, which workers change
//! tier and what the controller is told are calls into
//! `diffserve_core::kernel`, the same functions the simulator calls, and a
//! moved or failed worker's queue follows the kernel's hand-back rule; the
//! bootstrap plan, the drain period and the report's horizon cut are the
//! core's too.
//!
//! The testbed is the second engine behind the unified session API:
//! [`ClusterBackend`] implements [`ServingBackend`], and
//! [`ClusterSessionExt::build_cluster`] plugs it into the
//! [`SessionBuilder`] fluent path.
//! The batch entry points [`run_cluster`] / [`run_cluster_scenario`] are
//! thin wrappers over such a session.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use diffserve_core::config::MODEL_SWITCH_DELAY;
use diffserve_core::kernel::{
    self, Candidate, FleetTally, Kernel, Ledger, Query, Rung, WorkerState,
};
use diffserve_core::serve::{
    BuildError, QueryOutcome, QuerySpec, QueryTicket, ServingBackend, ServingSession,
    SessionBuilder, SessionSnapshot, SessionSpec,
};
use diffserve_core::{
    CascadeRuntime, ConfigError, ControlDirective, ControlLoop, ControlObservation, ModuleCache,
    QueryId, RunReport, RunSettings, SystemConfig,
};
use diffserve_imagegen::OnlinePredictiveRouter;
use diffserve_simkit::prelude::*;
use diffserve_trace::{
    CapacityEvent, HazardProcess, Incident, Scenario, ScenarioError, ScenarioEvent, Trace,
};

use crate::plan::ServingPlan;

/// One worker's queued queries (its jobs), first in, first out. Its length
/// is read here and nowhere else kept, so routing, the fleet tally and the
/// exit rule all see the jobs actually waiting.
#[derive(Default)]
struct JobQueue {
    jobs: Mutex<VecDeque<Query>>,
    /// Signalled on every push; only the queue's own worker waits on it.
    pushed: Condvar,
}

impl JobQueue {
    fn push(&self, job: Query) {
        self.jobs.lock().unwrap().push_back(job);
        self.pushed.notify_one();
    }

    /// Waits up to `timeout` for a first job; returns whether one is
    /// queued.
    fn wait(&self, timeout: Duration) -> bool {
        let jobs = self.jobs.lock().unwrap();
        let (jobs, _) = self
            .pushed
            .wait_timeout_while(jobs, timeout, |jobs| jobs.is_empty())
            .unwrap();
        !jobs.is_empty()
    }

    /// Moves the oldest queued jobs, up to `max`, into `batch`
    /// (Clipper-style no-wait batching).
    fn pop_batch(&self, max: usize, batch: &mut Vec<Query>) {
        let mut jobs = self.jobs.lock().unwrap();
        let n = jobs.len().min(max);
        batch.clear();
        batch.extend(jobs.drain(..n));
    }

    /// Takes every queued job, oldest first.
    fn drain(&self) -> Vec<Query> {
        self.jobs.lock().unwrap().drain(..).collect()
    }

    fn len(&self) -> usize {
        self.jobs.lock().unwrap().len()
    }
}

/// [`Worker::hosting`] of a worker with no model loaded.
const LOADING: usize = usize::MAX;

/// What the fleet shares of one worker: its job queue and the state that
/// routing, the fleet tally and the scenario's events read and write.
#[derive(Default)]
struct Worker {
    queue: JobQueue,
    /// Scenario fail-stop flag.
    failed: AtomicBool,
    /// Executing a batch or loading a model — feeds the per-tier
    /// utilization in [`SessionSnapshot`].
    busy: AtomicBool,
    /// Members of the batch in execution (0 between batches) — the
    /// in-service half of the kernel's routing load.
    in_service: AtomicUsize,
    /// The tier whose model is loaded, or [`LOADING`] from the moment the
    /// worker sees its own fail-stop until it has reloaded. A worker whose
    /// plan tier differs is switching toward it.
    hosting: AtomicUsize,
    /// Health speed factor (f64 bits; 1.0 = nameplate). The worker reads it
    /// at every batch and sleep-scales execution by its reciprocal, so a
    /// degraded worker serves proportionally slower.
    speed_bits: AtomicU64,
    /// Bounded LRU add-on module cache; `None` with add-ons off.
    cache: Option<Mutex<ModuleCache>>,
}

impl Worker {
    fn is_failed(&self) -> bool {
        self.failed.load(Ordering::Relaxed)
    }

    /// The current health speed factor (1.0 = nameplate).
    fn speed_factor(&self) -> f64 {
        f64::from_bits(self.speed_bits.load(Ordering::Relaxed))
    }

    /// Service-time multiplier the worker currently pays.
    fn slowdown(&self) -> f64 {
        1.0 / self.speed_factor()
    }

    /// The queries queued here plus those in service.
    fn load(&self) -> usize {
        self.queue.len() + self.in_service.load(Ordering::Relaxed)
    }
}

struct Shared {
    plan: RwLock<ServingPlan>,
    workers: Vec<Worker>,
    /// The session's one record: every arrival, outcome, incident,
    /// threshold and add-on charge, and the tick window the clock thread
    /// drains into the shared [`ControlLoop`]. It is the innermost lock:
    /// nothing else is locked while it is held, so the lock order is
    /// module-cache guard, router or plan → ledger, never the reverse.
    ledger: Mutex<Ledger>,
    shutdown: AtomicBool,
    start: Instant,
    scale: f64,
    /// Active prompt-difficulty offset (f64 bits), set by a fired incident
    /// and read by workers at generation time.
    difficulty_bits: AtomicU64,
    /// Online pre-execution router sending predicted-hard queries straight
    /// to a deeper tier; `None` on two-tier runs or with predictive
    /// routing disabled. Trained by workers on every boundary verdict.
    router: Option<Mutex<OnlinePredictiveRouter>>,
}

impl Shared {
    /// The state a fleet of `sys.num_workers` shares under its first
    /// `plan`: every worker hosts its plan tier's model and has nothing
    /// queued. No thread is started.
    fn new(
        runtime: &CascadeRuntime,
        sys: &SystemConfig,
        kernel: &Kernel<'_>,
        plan: ServingPlan,
        scale: f64,
    ) -> Self {
        let router = kernel.new_router();
        let workers = plan
            .tiers
            .iter()
            .map(|&tier| Worker {
                hosting: AtomicUsize::new(tier),
                speed_bits: AtomicU64::new(1.0f64.to_bits()),
                cache: sys
                    .addons
                    .as_ref()
                    .map(|a| Mutex::new(ModuleCache::new(a.cache_mem_mb))),
                ..Worker::default()
            })
            .collect();
        Shared {
            plan: RwLock::new(plan),
            workers,
            ledger: Mutex::new(Ledger::new(
                sys,
                &runtime.reference,
                kernel.num_tiers(),
                router.is_some(),
            )),
            shutdown: AtomicBool::new(false),
            start: Instant::now(),
            scale,
            difficulty_bits: AtomicU64::new(0.0f64.to_bits()),
            router: router.map(Mutex::new),
        }
    }

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

    fn difficulty_delta(&self) -> f64 {
        f64::from_bits(self.difficulty_bits.load(Ordering::Relaxed))
    }

    /// One consistent reading of the fail-stop flags.
    fn failed_mask(&self) -> Vec<bool> {
        self.workers
            .iter()
            .map(|w| w.failed.load(Ordering::SeqCst))
            .collect()
    }

    /// What the fleet tally reads of each worker under `plan`, from live
    /// queue lengths, busy flags and speed factors; `failed` is the mask
    /// the caller also hands to the retarget, so the two never disagree
    /// mid-churn.
    fn states<'s>(
        &'s self,
        plan: &'s ServingPlan,
        failed: &'s [bool],
    ) -> impl Iterator<Item = Option<WorkerState>> + 's {
        plan.tiers
            .iter()
            .zip(&self.workers)
            .zip(failed)
            .map(|((&tier, w), &failed)| {
                (!failed).then(|| WorkerState {
                    tier,
                    queued: w.queue.len(),
                    busy: w.busy.load(Ordering::Relaxed),
                    speed_factor: w.speed_factor(),
                })
            })
    }

    /// The fleet tally under `plan` of [`states`](Self::states), read
    /// with the fail-stop flags as they stand.
    fn tally(&self, plan: &ServingPlan) -> FleetTally {
        FleetTally::of(plan.num_tiers(), self.states(plan, &self.failed_mask()))
    }

    /// Applies one lowered scenario event against live state and records it
    /// in the ledger's incident log — the single funnel the clock thread's
    /// scheduled and hazard-drawn incidents and mid-run injection all go
    /// through. A capacity event touches the workers
    /// [`kernel::capacity_targets`] picks (the simulator applies the same
    /// rule); a difficulty event swaps the offset.
    ///
    /// An injection races the clock thread, so the whole pick-apply-log
    /// sequence is serialized under the ledger lock. Only the
    /// *applied* event is logged — the incident log must stay a faithful,
    /// replayable account, never a wish list.
    fn apply_event(&self, action: ScenarioEvent) {
        let mut ledger = self.ledger.lock().unwrap();
        let applied = match action {
            ScenarioEvent::Capacity(capacity) => {
                let states: Vec<(bool, bool)> = self
                    .workers
                    .iter()
                    .map(|w| (w.is_failed(), w.speed_factor() < 1.0))
                    .collect();
                let touched = kernel::capacity_targets(capacity, &states);
                for &i in &touched {
                    let w = &self.workers[i];
                    match capacity {
                        CapacityEvent::Fail(_) => {
                            w.failed.store(true, Ordering::SeqCst);
                            // A dead worker's degradation dies with it; it
                            // rejoins at nameplate speed.
                            w.speed_bits.store(1.0f64.to_bits(), Ordering::SeqCst);
                        }
                        CapacityEvent::Recover(_) => w.failed.store(false, Ordering::SeqCst),
                        CapacityEvent::Degrade(_, slowdown) => w
                            .speed_bits
                            .store((1.0 / slowdown.max(1.0)).to_bits(), Ordering::SeqCst),
                        CapacityEvent::Restore(_) => {
                            w.speed_bits.store(1.0f64.to_bits(), Ordering::SeqCst)
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
            ledger.record_incident(Incident {
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
            .zip(&self.workers)
            .any(|(&t, w)| t > tier && !w.is_failed())
    }

    /// Whether worker `i` may exit: the session is shutting down and its
    /// queue, read under the queue's lock, is empty. A job pushed before
    /// this check is therefore served; one pushed after the worker has
    /// exited waits in the queue for [`ServingBackend::finish`], which
    /// drops it.
    fn may_exit(&self, i: usize) -> bool {
        self.shutdown.load(Ordering::SeqCst) && self.workers[i].queue.len() == 0
    }

    /// Routes `job` to a worker of `tier` and queues it there, by
    /// health-weighted JSQ of the kernel's
    /// [`pick_worker`](kernel::pick_worker) in one pass over the alive
    /// workers (scenario validation guarantees one): each stands on the
    /// candidate ladder by its plan tier and the model it hosts, and is
    /// ranked by its queue length plus the members of the batch in
    /// service, weighted by its slowdown, plus the add-on miss penalty
    /// where its cache lacks the job's module. The pick and the push are
    /// made under one read of the plan, so no job routed by a plan lands on
    /// a moved worker's queue after [`swap_plan`](Self::swap_plan) drained
    /// it.
    fn forward(&self, kernel: &Kernel<'_>, tier: usize, job: Query) {
        let penalty = kernel.miss_penalty(tier, job.addon);
        let plan = self.plan.read().unwrap();
        let alive = self
            .workers
            .iter()
            .enumerate()
            .filter(|(_, w)| !w.is_failed());
        let target = kernel::pick_worker(alive.map(|(i, w)| Candidate {
            worker: i,
            rung: Rung::of(
                tier,
                plan.tiers[i],
                w.hosting.load(Ordering::Relaxed) == plan.tiers[i],
            ),
            load: kernel.routing_load(
                w.queue.len(),
                w.in_service.load(Ordering::Relaxed),
                w.slowdown(),
            ),
            miss: match (penalty, &w.cache) {
                (Some((id, p)), Some(cache)) if !cache.lock().unwrap().contains(id) => p,
                _ => 0.0,
            },
        }))
        .expect("at least one worker must be alive");
        self.workers[target].queue.push(job);
    }

    /// Swaps `next` in as the plan and hands each moved worker's queue back
    /// by the kernel's hand-back rule (see [`kernel::worker_moves`]): to the
    /// tier it leaves, its tier under the plan `next` replaces. The queues
    /// are drained under the plan's write lock and routed once it drops,
    /// so a job routed to a moved worker afterwards, on the switching rung
    /// of its new tier, stays queued for the switch, as on the simulator.
    fn swap_plan(&self, kernel: &Kernel<'_>, next: ServingPlan) {
        let mut plan = self.plan.write().unwrap();
        let moved = plan.tiers.iter().zip(&next.tiers).zip(&self.workers);
        let held: Vec<(usize, Query)> = (moved.filter(|((from, to), _)| from != to))
            .flat_map(|((&from, _), w)| w.queue.drain().into_iter().map(move |q| (from, q)))
            .collect();
        *plan = next;
        drop(plan);
        for (from, job) in held {
            self.forward(kernel, from, job);
        }
    }
}

/// The thread-based testbed behind the unified session API: real threads,
/// per-worker job queues, wall-clock time scaled by `time_scale`.
///
/// The workers and one clock thread are launched at construction and serve
/// continuously; [`ServingBackend::submit`] routes one query into
/// the fleet, [`ServingBackend::tick`] sleeps scaled wall-clock time, and
/// [`ServingBackend::finish`] shuts the fleet down and assembles the
/// [`RunReport`]. Build one through [`ClusterSessionExt::build_cluster`].
pub struct ClusterBackend<'a> {
    shared: Arc<Shared>,
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
    route_rng: rand::rngs::StdRng,
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
        let kernel = Kernel::new(runtime, &sys, &settings);

        // Bootstrap through the shared control plane, as the simulator does:
        // a fresh fleet is placed positionally and pays no switch delay.
        let mut control = spec.control_loop();
        let ControlDirective::Apply { plan: bootstrap } =
            control.bootstrap(settings.peak_demand_hint)
        else {
            unreachable!("the control loop plans a bootstrap for every policy")
        };
        let plan = ServingPlan::new(sys.num_workers, &bootstrap);
        let control = Arc::new(Mutex::new(control));
        let shared = Arc::new(Shared::new(runtime, &sys, &kernel, plan, time_scale));

        // --- Worker threads -----------------------------------------------
        let worker_handles = (0..sys.num_workers)
            .map(|wid| {
                let shared = Arc::clone(&shared);
                let (rt, sys, settings) = (runtime.clone(), sys.clone(), settings.clone());
                thread::spawn(move || {
                    let kernel = Kernel::new(&rt, &sys, &settings);
                    worker_loop(wid, &shared, &kernel);
                })
            })
            .collect();

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
            let (rt, sys, settings) = (runtime.clone(), sys.clone(), settings.clone());
            thread::spawn(move || {
                // The tick's hand-back routes jobs, so the clock decides
                // with a kernel of its own, as each worker does.
                let kernel = Kernel::new(&rt, &sys, &settings);
                clock_loop(&shared, &kernel, &control, interval, &incidents, hazard)
            })
        };

        Ok(ClusterBackend {
            shared,
            worker_handles,
            clock: Some(clock),
            route_rng: seeded_rng(derive_seed(sys.seed, 0x20C7)),
            control,
            kernel,
            settings,
            sys,
            submitted: 0,
        })
    }

    /// Makes room in `ledger`, the session's, for the outcome of every
    /// query still in the fleet. Done on the caller's thread, so a worker
    /// never grows the buffer while it holds the ledger's lock.
    fn reserve_outcomes(&self, ledger: &mut Ledger) {
        let in_fleet = self.submitted - ledger.slo().total();
        ledger.reserve_outcomes(in_fleet as usize);
    }

    /// Signals shutdown and joins every thread, even past one that
    /// panicked; returns the first panicked thread's role. A worker leaves
    /// only once its queue is empty, so every job queued before the
    /// signal is served.
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
        let mut job = Query::new(self.submitted, now, &spec, self.sys.slo);
        self.submitted += 1;
        let tier = {
            let router = self.shared.router.as_ref().map(|r| r.lock().unwrap());
            let plan = self.shared.plan.read().unwrap();
            let mut ledger = self.shared.ledger.lock().unwrap();
            self.reserve_outcomes(&mut ledger);
            self.kernel.arrive(
                &mut job,
                SimTime::from_secs_f64(at.max(0.0)),
                self.shared.difficulty_delta(),
                &plan.thresholds,
                &mut self.route_rng,
                router.as_deref(),
                plan.bypass_suspended,
                &mut ledger,
            )
        };
        self.shared.forward(&self.kernel, tier, job);
        QueryTicket {
            id: QueryId(job.id),
            arrival: now,
            deadline: job.deadline,
        }
    }

    fn tick(&mut self, until: SimTime) {
        let target = until.as_secs_f64();
        let now = self.shared.sim_now();
        if target > now {
            self.shared.sleep_sim(target - now);
        }
    }

    fn drain_completions(&mut self) -> Vec<QueryOutcome> {
        let mut ledger = self.shared.ledger.lock().unwrap();
        let outcomes = ledger.drain();
        self.reserve_outcomes(&mut ledger);
        outcomes
    }

    fn apply_perturbation(&mut self, event: ScenarioEvent) -> Result<(), ScenarioError> {
        let fleet = self.shared.tally(&self.shared.plan.read().unwrap());
        fleet.health().after(self.now(), &event)?;
        self.shared.apply_event(event);
        Ok(())
    }

    fn snapshot(&self) -> SessionSnapshot {
        let deferral_gap = self.control.lock().unwrap().deferral_gap();
        let plan = self.shared.plan.read().unwrap();
        // Tallied before the ledger is locked: the tally takes queue locks.
        let fleet = self.shared.tally(&plan);
        self.shared.ledger.lock().unwrap().snapshot(
            self.now(),
            fleet,
            plan.thresholds.clone(),
            self.submitted,
            deferral_gap,
        )
    }

    fn finish(mut self: Box<Self>, horizon: SimTime) -> RunReport {
        if let Err(role) = self.shutdown_and_join() {
            panic!("{role} thread panicked");
        }
        // A job queued on a worker after it exited was never served: it is
        // dropped at the horizon by its id, as the simulator drops what
        // the horizon cut short.
        let unserved = self.shared.workers.iter().flat_map(|w| w.queue.drain());
        let mut unserved: Vec<_> = unserved.map(|job| (QueryId(job.id), job.arrival)).collect();
        unserved.sort_unstable();
        let deferral_errors = self.control.lock().unwrap().take_deferral_error_series();
        self.shared.ledger.lock().unwrap().close(
            self.settings.policy,
            self.submitted,
            unserved,
            horizon,
            deferral_errors,
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
    kernel: &Kernel<'_>,
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
            control_tick(shared, kernel, control, &mut fleet, &mut obs);
            next_tick += interval;
        }
    }
}

/// One control tick: hands the shared [`ControlLoop`] what the fleet
/// observed since the last tick (the ledger's tick window, live queue
/// lengths), steps the pipeline, and swaps the actuated plan in, handing
/// each moved worker's queue back ([`Shared::swap_plan`]). Runs for every
/// policy so the demand and profile estimators stay live; static policies
/// simply always `Hold`. `fleet` and `obs` are the clock's, kept from tick
/// to tick.
fn control_tick(
    shared: &Shared,
    kernel: &Kernel<'_>,
    control: &Mutex<ControlLoop>,
    fleet: &mut FleetTally,
    obs: &mut ControlObservation,
) {
    // Little's-law queue estimates come from live queue lengths of alive
    // workers only — failed workers drain their queues elsewhere. The pool
    // size and the retarget mask derive from one reading of the fail-stop
    // flags so the solver and retarget never disagree mid-churn.
    let mut plan = shared.plan.read().unwrap().clone();
    let excluded = shared.failed_mask();
    fleet.fill(shared.states(&plan, &excluded));
    let now = shared.now();
    shared
        .ledger
        .lock()
        .unwrap()
        .observe(obs, now, fleet, &plan.batches);
    let directive = control.lock().unwrap().step(obs);
    if let ControlDirective::Apply { plan: next } = &directive {
        plan.adopt(next, &excluded, |i| shared.workers[i].load());
    }
    // Record the decision that is now in force, as the simulator does on
    // every tick.
    shared
        .ledger
        .lock()
        .unwrap()
        .record_threshold(now, plan.thresholds[0]);
    if directive != ControlDirective::Hold {
        shared.swap_plan(kernel, plan);
    }
}

fn worker_loop(wid: usize, shared: &Shared, kernel: &Kernel<'_>) {
    let me = &shared.workers[wid];
    let switch_delay = MODEL_SWITCH_DELAY.as_secs_f64();
    // The model this worker serves with: the one it hosts at launch, its
    // bootstrap tier. A plan that moved it since is followed below.
    let mut current_tier = me.hosting.load(Ordering::SeqCst);
    let mut was_failed = false;
    let poll = Duration::from_secs_f64((0.02 * shared.scale).max(0.0002));
    // Scratch, reused across batches: the distinct missing add-on modules
    // of a batch, the batch itself and the thresholds it is judged by.
    let mut seen = Vec::new();
    let mut batch = Vec::new();
    let mut thresholds = Vec::new();
    // Sleeps out a model load, busy, then serves `tier`.
    let load_model = |tier: usize| {
        me.busy.store(true, Ordering::Relaxed);
        shared.sleep_sim(switch_delay);
        me.busy.store(false, Ordering::Relaxed);
        me.hosting.store(tier, Ordering::SeqCst);
    };
    loop {
        // Scenario fail-stop: hand anything queued here back to surviving
        // workers and idle until recovery (or shutdown).
        if me.failed.load(Ordering::SeqCst) {
            // The restart drops the model; a fail and recover that land
            // within one batch go unseen and leave it loaded.
            was_failed = true;
            me.hosting.store(LOADING, Ordering::SeqCst);
            // The kernel's hand-back rule: to the tier it leaves, its plan
            // tier. Drained before any job is forwarded, so a job routed
            // straight back here waits for the worker.
            let from = shared.plan.read().unwrap().tiers[wid];
            for job in me.queue.drain() {
                shared.forward(kernel, from, job);
            }
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
            if let Some(cache) = &me.cache {
                cache.lock().unwrap().clear();
            }
            current_tier = shared.plan.read().unwrap().tiers[wid];
            load_model(current_tier);
        }

        // Follow the plan: the tick that moved this worker handed its
        // queue back, and what was routed here since waits for the switch.
        let desired = shared.plan.read().unwrap().tiers[wid];
        if desired != current_tier {
            current_tier = desired;
            load_model(current_tier);
        }

        // The poll must be fine relative to *simulated* time or idle
        // polling inflates queueing delays for sub-100ms models like SDXS.
        if !me.queue.wait(poll) {
            if shared.may_exit(wid) {
                return;
            }
            continue;
        }
        // Taken under a read of the plan, which a swap drains queues under:
        // if a swap moved this worker while it waited, its jobs were routed
        // to its new tier, so the switch comes first.
        let plan = shared.plan.read().unwrap();
        if plan.tiers[wid] != current_tier {
            continue;
        }
        let bmax = plan.batches[current_tier];
        me.queue.pop_batch(bmax, &mut batch);
        drop(plan);

        // A degraded worker predicts and executes with its *actual*
        // (slowed) service time. The module cache stays locked through the
        // dispatch, so its price and its charge see one residency.
        let dispatch = kernel.dispatch(
            current_tier,
            batch.len(),
            bmax,
            shared.now(),
            me.slowdown(),
            me.cache.as_ref().map(|c| c.lock().unwrap()).as_deref_mut(),
            |i| batch[i],
            &mut shared.ledger.lock().unwrap(),
            &mut seen,
        );
        batch.drain(..dispatch.shed);
        // No batch: every job was shed.
        let Some(exec) = dispatch.secs else {
            continue;
        };

        // "Execute" the batch by sleeping the service time the drop-front
        // rule priced it at.
        me.busy.store(true, Ordering::Relaxed);
        me.in_service.store(batch.len(), Ordering::Relaxed);
        shared.sleep_sim(exec);
        me.in_service.store(0, Ordering::Relaxed);
        me.busy.store(false, Ordering::Relaxed);
        let now = shared.now();
        // Tier membership is read once per batch, as on the simulator.
        let deeper_alive = {
            let plan = shared.plan.read().unwrap();
            thresholds.clone_from(&plan.thresholds);
            shared.has_alive_deeper(&plan, current_tier)
        };
        // The router stays locked for the batch and the ledger, the
        // innermost lock, for one member at a time. The batch keeps its
        // escalations, routed once the router is released.
        {
            let mut router = shared.router.as_ref().map(|r| r.lock().unwrap());
            batch.retain_mut(|job| {
                kernel.finish(
                    current_tier,
                    now,
                    job,
                    shared.difficulty_delta(),
                    &thresholds,
                    deeper_alive,
                    router.as_deref_mut(),
                    &mut shared.ledger.lock().unwrap(),
                )
            });
        }
        for job in batch.drain(..) {
            shared.forward(kernel, current_tier + 1, job);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffserve_core::config::METRICS_WINDOW;
    use diffserve_core::{AddonCatalog, AddonsConfig, CompletedResponse, Policy};
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
        // the poll just drained (every query was served long before, so
        // nothing is recorded in between).
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
    /// drops out of the accounting: the job waits on its worker's queue,
    /// and `finish` drops it at the horizon by its id, an outcome the
    /// ledger hands over as it hands over any other.
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
        assert!(backend.drain_completions().is_empty(), "nothing served it");
        let shared = Arc::clone(&backend.shared);
        let report = Box::new(backend).finish(ticket.arrival);
        assert_eq!(report.total_queries, 1);
        assert_eq!((report.completed, report.dropped), (0, 1));
        assert!(shared.workers.iter().all(|w| w.queue.len() == 0));
        // What `drain_completions` would hand over next.
        assert_eq!(
            shared.ledger.lock().unwrap().drain(),
            [QueryOutcome::Dropped {
                id: ticket.id,
                arrival: ticket.arrival,
                at: ticket.arrival,
            }]
        );
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

    /// The hand-written plan of [`launch_four_on_two_tiers`].
    fn two_tier_plan(threshold: f64) -> ServingPlan {
        ServingPlan {
            tiers: vec![0, 0, 1, 1],
            batches: vec![1, 1],
            thresholds: vec![threshold],
            bypass_suspended: false,
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
        let plan = two_tier_plan(threshold);
        backend.shared.swap_plan(&backend.kernel, plan.clone());
        backend.tick(backend.now() + SimDuration::from_secs(2));
        (backend, plan)
    }

    /// The shared state of [`launch_four`]'s fleet under `config` and the
    /// plan of threshold `threshold`, with no thread started: a pushed job
    /// stays queued until the test serves or drains it. Returns the kernel
    /// the workers would decide with.
    fn four_without_threads(config: SystemConfig, threshold: f64) -> (Shared, Kernel<'static>) {
        let settings = RunSettings::new(Policy::DiffServeStatic, 8.0);
        let kernel = Kernel::new(test_runtime(), &config, &settings);
        let plan = two_tier_plan(threshold);
        let shared = Shared::new(test_runtime(), &config, &kernel, plan, TIME_SCALE);
        (shared, kernel)
    }

    /// Serves `queries` far-deadline queries on
    /// [`launch_four_on_two_tiers`]' fleet, moves worker `moved` to the
    /// other tier once its queue holds at least two jobs, and returns
    /// the tiers the queries completed at with the boundary-0 escalation
    /// count.
    fn serve_across_a_move(threshold: f64, moved: usize, queries: usize) -> (Vec<usize>, u64) {
        let (mut backend, mut plan) = launch_four_on_two_tiers(threshold);
        let far = backend.now() + SimDuration::from_secs(10_000);
        for _ in 0..queries {
            backend.submit(QuerySpec::new().deadline(far));
        }
        let give_up = backend.now() + SimDuration::from_secs(200);
        while backend.shared.workers[moved].queue.len() < 2 {
            assert!(backend.now() < give_up, "worker {moved} never held a queue");
            thread::sleep(Duration::from_micros(200));
        }
        plan.tiers[moved] = 1 - plan.tiers[moved];
        backend.shared.swap_plan(&backend.kernel, plan);
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
        let escalations = backend.snapshot().tier_escalations[0];
        (tiers, escalations)
    }

    /// A worker the plan moves hands its queued jobs back to the tier it
    /// leaves, which here is the tier they were routed to: they complete
    /// at, or escalate from, that tier, and each query crosses boundary 0
    /// exactly once. Served on the worker's new model instead, light-bound
    /// jobs would complete on the heavy tier and heavy-bound ones would be
    /// scored at boundary 0 again.
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
        // Stopped, so that nothing serves the job queued below.
        backend.shutdown_and_join().expect("no thread panicked");
        let shared = &backend.shared;
        assert_eq!(shared.workers[3].hosting.load(Ordering::SeqCst), 1);
        // Worker 2, the other heavy host, is busier.
        shared.workers[2].queue.push(far_job(shared, 0));
        shared.forward(&backend.kernel, 1, far_job(shared, 1));
        assert_eq!(shared.workers[3].queue.len(), 1);
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
        let (shared, kernel) = four_without_threads(config, 0.5);
        assert_eq!(kernel.miss_penalty(1, Some(0)), Some((0, 2.0)));
        // Heavy worker 2 holds the module two jobs deep: (2 + 1) × 1.0.
        // Idle heavy worker 3 scores 1.0 plus the penalty: the same 3.0.
        let cache = shared.workers[2].cache.as_ref().expect("add-ons are on");
        cache.lock().unwrap().admit(0, &addons.catalog);
        for qid in 0..2 {
            shared.workers[2].queue.push(far_job(&shared, qid));
        }
        let job = Query {
            addon: Some(0),
            ..far_job(&shared, 2)
        };
        shared.forward(&kernel, 1, job);
        assert_eq!(shared.workers[3].queue.len(), 1);
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
        while backend.shared.ledger.lock().unwrap().slo().total() == 0 {
            assert!(backend.now() < give_up, "the query never completed");
            backend.tick(backend.now() + SimDuration::from_secs(1));
        }
        assert_eq!(backend.shared.ledger.lock().unwrap().slo().late(), 1);
        let mut obs = ControlObservation::default();
        backend.shared.ledger.lock().unwrap().observe(
            &mut obs,
            backend.now(),
            &FleetTally::new(2),
            &[1, 1],
        );
        assert_eq!(obs.tier_violations, [1, 0]);
    }

    /// A job for query `qid` that arrived now, with a deadline no run
    /// reaches.
    fn far_job(shared: &Shared, qid: u64) -> Query {
        let spec = QuerySpec::new().deadline(SimTime::from_secs(10_000));
        Query::new(qid, shared.now(), &spec, SimDuration::ZERO)
    }

    /// Runs worker `wid`'s loop on this thread after the shutdown signal,
    /// so it serves what is queued to it and returns, and hands over the
    /// ids and tiers of the queries it completed, in completion order; a
    /// drop fails the test.
    fn serve_at_shutdown(shared: &Shared, kernel: &Kernel<'_>, wid: usize) -> Vec<(u64, usize)> {
        shared.shutdown.store(true, Ordering::SeqCst);
        worker_loop(wid, shared, kernel);
        let outcomes = shared.ledger.lock().unwrap().drain();
        outcomes
            .into_iter()
            .map(|outcome| match outcome {
                QueryOutcome::Completed(r) => (r.id.0, r.tier),
                dropped => panic!("no query may be dropped: {dropped:?}"),
            })
            .collect()
    }

    /// A queue hands out its oldest jobs first, at most a batch at a time;
    /// once it is empty its wait runs out with nothing queued, and it
    /// hands out an empty batch.
    #[test]
    fn pop_batch_takes_the_oldest_jobs_up_to_the_batch_size() {
        let (shared, _) = four_without_threads(four_workers(), 0.0);
        let queue = &shared.workers[0].queue;
        for qid in 1..=5 {
            queue.push(far_job(&shared, qid));
        }
        let mut batch = Vec::new();
        let mut taken = Vec::new();
        for _ in 0..3 {
            assert!(queue.wait(Duration::ZERO));
            queue.pop_batch(2, &mut batch);
            taken.push(batch.iter().map(|job| job.id).collect::<Vec<_>>());
        }
        assert_eq!(taken, [vec![1, 2], vec![3, 4], vec![5]]);
        assert_eq!(queue.len(), 0);
        assert!(!queue.wait(Duration::from_millis(1)));
        queue.pop_batch(2, &mut batch);
        assert!(batch.is_empty());
    }

    /// The exit rule, read directly: shutdown must be signalled and the
    /// worker's queue must be empty.
    #[test]
    fn a_worker_may_exit_only_at_shutdown_with_nothing_queued() {
        let (shared, _) = four_without_threads(four_workers(), 0.0);
        assert!(!shared.may_exit(0) && !shared.may_exit(1));
        shared.workers[0].queue.push(far_job(&shared, 1));
        shared.shutdown.store(true, Ordering::SeqCst);
        assert!(!shared.may_exit(0));
        assert!(shared.may_exit(1));
        assert_eq!(shared.workers[0].queue.drain().len(), 1);
        assert!(shared.may_exit(0));
    }

    /// A worker that finds the shutdown signal set serves every job queued
    /// to it before its exit check, and only then returns.
    #[test]
    fn at_shutdown_a_worker_serves_the_jobs_pushed_before_its_exit_check() {
        let (shared, kernel) = four_without_threads(four_workers(), 0.0);
        for qid in [7, 8, 9] {
            shared.workers[0].queue.push(far_job(&shared, qid));
        }
        assert_eq!(
            serve_at_shutdown(&shared, &kernel, 0),
            [(7, 0), (8, 0), (9, 0)]
        );
        assert_eq!(shared.workers[0].queue.len(), 0);
    }

    /// One worker's queue is first in, first out: with batch 1 the jobs
    /// pushed to it complete in the order they were pushed.
    #[test]
    fn jobs_sent_to_one_worker_are_served_in_send_order() {
        let (shared, kernel) = four_without_threads(four_workers(), 0.0);
        for qid in [4, 1, 6, 2, 5, 3] {
            shared.workers[0].queue.push(far_job(&shared, qid));
        }
        let served: Vec<u64> = serve_at_shutdown(&shared, &kernel, 0)
            .into_iter()
            .map(|(qid, _)| qid)
            .collect();
        assert_eq!(served, [4, 1, 6, 2, 5, 3]);
    }

    /// A worker the plan moves empties its queue and re-routes every held
    /// job to the tier it leaves, in queue order: a light worker moved to
    /// the heavy tier hands its jobs to the remaining light worker and
    /// serves none of them.
    #[test]
    fn hand_back_re_routes_every_held_job_to_its_tier() {
        let (shared, kernel) = four_without_threads(four_workers(), 0.0);
        for qid in 1..=3 {
            shared.workers[1].queue.push(far_job(&shared, qid));
        }
        shared.swap_plan(&kernel, moved(&shared, 1, 1));
        assert_eq!(serve_at_shutdown(&shared, &kernel, 1), []);
        assert_eq!(shared.workers[1].queue.len(), 0);
        let held: Vec<u64> = shared.workers[0]
            .queue
            .drain()
            .iter()
            .map(|job| job.id)
            .collect();
        assert_eq!(held, [1, 2, 3]);
        assert!(shared.workers[2..].iter().all(|w| w.queue.len() == 0));
    }

    /// The plan in force with worker `wid` moved to `tier`.
    fn moved(shared: &Shared, wid: usize, tier: usize) -> ServingPlan {
        let mut plan = shared.plan.read().unwrap().clone();
        plan.tiers[wid] = tier;
        plan
    }

    /// The one hand-back rule where it differs from sending each job back
    /// to the tier it was routed to. With the heavy tier wiped out, a
    /// heavy-bound job takes the fallback rung onto light worker 0. The
    /// plan then moves worker 0 to the heavy tier: the job goes back to the
    /// tier the worker leaves and completes there, on light worker 1. The
    /// simulator's twin of this test is
    /// `sim::tests::a_fallback_job_goes_back_to_the_tier_its_worker_leaves`.
    #[test]
    fn a_fallback_job_goes_back_to_the_tier_its_worker_leaves() {
        let (shared, kernel) = four_without_threads(four_workers(), 0.0);
        for w in &shared.workers[2..] {
            w.failed.store(true, Ordering::SeqCst);
        }
        shared.forward(&kernel, 1, far_job(&shared, 5));
        assert_eq!(shared.workers[0].queue.len(), 1, "the fallback pick");
        shared.swap_plan(&kernel, moved(&shared, 0, 1));
        assert_eq!(serve_at_shutdown(&shared, &kernel, 0), []);
        assert_eq!(serve_at_shutdown(&shared, &kernel, 1), [(5, 0)]);
    }

    /// The plan's swap hands a moved worker's queue back, and the worker
    /// keeps what is routed to it afterwards. With the heavy tier wiped
    /// out, the plan moves light worker 0 to it; a heavy-bound job then
    /// takes worker 0's switching rung, waits for the switch and completes
    /// on the heavy model. The simulator serves it the same way
    /// (`sim::tests::a_job_routed_to_a_switching_worker_is_served_after_the_switch`).
    #[test]
    fn a_job_routed_to_a_switching_worker_is_served_after_the_switch() {
        let (shared, kernel) = four_without_threads(four_workers(), 0.0);
        for w in &shared.workers[2..] {
            w.failed.store(true, Ordering::SeqCst);
        }
        shared.swap_plan(&kernel, moved(&shared, 0, 1));
        shared.forward(&kernel, 1, far_job(&shared, 5));
        assert_eq!(shared.workers[0].queue.len(), 1, "the switching rung");
        assert_eq!(serve_at_shutdown(&shared, &kernel, 0), [(5, 1)]);
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
