//! The unified serving-session API: one backend-agnostic engine.
//!
//! DiffServe is an *online* system — queries stream in, the discriminator
//! routes them, the controller re-plans every few seconds — and this module
//! is the API shape that matches: a [`ServingSession`] is built once
//! (validating the entire configuration up front and returning typed
//! [`BuildError`]s instead of panicking) and then driven incrementally:
//!
//! * [`ServingSession::submit`] enqueues a query and returns a
//!   [`QueryTicket`];
//! * [`ServingSession::run_until`] advances serving time;
//! * [`ServingSession::poll`] drains [`QueryOutcome`]s as they complete;
//! * [`ServingSession::observer`] taps live metrics ([`SessionSnapshot`]:
//!   queue depths, threshold, rolling FID estimate, per-tier utilization);
//! * [`ServingSession::inject`] applies a perturbation (worker churn,
//!   difficulty shift) mid-run;
//! * [`ServingSession::finish`] produces the same [`RunReport`] the batch
//!   entry points always returned.
//!
//! Both execution engines sit behind the [`ServingBackend`] trait: the
//! discrete-event simulator (in this crate, what
//! [`SessionBuilder::build`] constructs) and the
//! thread-based cluster testbed (`diffserve_cluster::ClusterBackend`,
//! plugged in through `diffserve_cluster::ClusterSessionExt`). The four
//! legacy batch functions — [`run_trace`](crate::sim::run_trace),
//! [`run_scenario`](crate::sim::run_scenario),
//! `diffserve_cluster::run_cluster`, and
//! `diffserve_cluster::run_cluster_scenario` — are thin wrappers over a
//! session, so the two API generations are guaranteed to agree
//! (`tests/api_parity.rs` asserts bit-identical reports).
//!
//! # Examples
//!
//! ```
//! use diffserve_core::prelude::*;
//! use diffserve_imagegen::{cascade1, DiscriminatorConfig, FeatureSpec};
//! use diffserve_simkit::time::{SimDuration, SimTime};
//!
//! let runtime = CascadeRuntime::prepare(
//!     cascade1(FeatureSpec::default()),
//!     200,
//!     7,
//!     DiscriminatorConfig { train_prompts: 100, epochs: 2, ..Default::default() },
//! );
//! let mut session = ServingSession::builder()
//!     .runtime(&runtime)
//!     .config(SystemConfig { num_workers: 4, ..Default::default() })
//!     .policy(Policy::DiffServe)
//!     .build()?;
//!
//! // Stream a few queries in, advance time, and collect outcomes.
//! for i in 0..4 {
//!     let prompt = *runtime.dataset.prompt_cyclic(i);
//!     let deadline = session.now() + SimDuration::from_secs(5);
//!     session.submit(prompt, deadline);
//! }
//! session.run_until(SimTime::from_secs(30));
//! let outcomes = session.poll();
//! assert_eq!(outcomes.len(), 4);
//! let report = session.finish();
//! assert_eq!(report.completed + report.dropped, report.total_queries);
//! # Ok::<(), diffserve_core::serve::BuildError>(())
//! ```

use diffserve_imagegen::{Prompt, StageState};
use diffserve_simkit::rng::{derive_seed, seeded_rng};
use diffserve_simkit::time::SimTime;
use diffserve_trace::{
    AddonMix, PoissonArrivals, Scenario, ScenarioError, ScenarioEvent, Trace, TrendWindow,
};
use rand::rngs::StdRng;

use crate::addons::AddonStats;
use crate::config::{ConfigError, SystemConfig};
use crate::policy::Policy;
use crate::query::{CompletedResponse, QueryId};
use crate::report::RunReport;
use crate::runtime::CascadeRuntime;
use crate::sim::{RunSettings, SimBackend};

/// Seed stream used for trace-replay arrival generation — shared by every
/// backend so the simulator and the testbed draw identical Poisson streams.
pub(crate) const ARRIVAL_SEED_STREAM: u64 = 0xA881;

/// A submitted query's receipt: its id and resolved timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryTicket {
    /// Identifier the eventual [`QueryOutcome`] will carry.
    pub id: QueryId,
    /// When the query enters the system.
    pub arrival: SimTime,
    /// Its latency deadline.
    pub deadline: SimTime,
}

/// A query submission: every field optional, defaults derived by the
/// backend.
///
/// # Examples
///
/// ```
/// use diffserve_core::serve::QuerySpec;
/// use diffserve_simkit::time::SimTime;
///
/// let spec = QuerySpec::new().at(SimTime::from_secs(3));
/// assert_eq!(spec.at, Some(SimTime::from_secs(3)));
/// assert!(spec.prompt.is_none()); // backend serves the dataset prompt
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QuerySpec {
    /// Arrival time; `None` = now. Times in the past are clamped to now.
    pub at: Option<SimTime>,
    /// The prompt to serve; `None` = the runtime dataset's cyclic prompt
    /// for the query's id (the batch wrappers' behavior).
    pub prompt: Option<Prompt>,
    /// Latency deadline; `None` = arrival + the configured SLO.
    pub deadline: Option<SimTime>,
    /// Denoise progress carried in from an earlier pass on another tier.
    /// With [`SystemConfig::resume_from_latents`] enabled, a heavy-tier
    /// dispatch of this query covers only the residual steps; otherwise
    /// the state is carried but ignored. `None` = fresh query.
    pub resume_from: Option<StageState>,
    /// Add-on module (catalog index) this query requires; serving it on a
    /// worker whose [`ModuleCache`](crate::addons::ModuleCache) lacks the
    /// module charges the module's load latency to that batch. Ignored —
    /// carried but inert — when [`SystemConfig::addons`] is unset.
    /// `None` = a base-model query.
    pub addon: Option<usize>,
}

impl QuerySpec {
    /// An empty spec: arrive now, dataset prompt, SLO deadline.
    pub fn new() -> Self {
        QuerySpec::default()
    }

    /// Sets the arrival time.
    pub fn at(mut self, at: SimTime) -> Self {
        self.at = Some(at);
        self
    }

    /// Sets the prompt payload.
    pub fn prompt(mut self, prompt: Prompt) -> Self {
        self.prompt = Some(prompt);
        self
    }

    /// Sets the deadline.
    pub fn deadline(mut self, deadline: SimTime) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Carries denoise progress from an earlier pass so a resume-aware
    /// backend can skip the reused steps.
    pub fn resume_from(mut self, state: StageState) -> Self {
        self.resume_from = Some(state);
        self
    }

    /// Requires an add-on module (catalog index) for this query.
    pub fn addon(mut self, id: usize) -> Self {
        self.addon = Some(id);
        self
    }
}

/// A demand trace's query submissions, drawn one at a time: what
/// [`ServingSession::replay_trace`] hands a backend through
/// [`ServingBackend::submit_stream`].
///
/// Yields one [`QuerySpec`] per Poisson arrival of the trace, in arrival
/// order, timed ([`QuerySpec::at`]) and carrying the add-on the mix draws
/// for the id the query will get. The stream owns everything it draws from
/// and knows its length ([`ExactSizeIterator`]; counted once at
/// construction on a clone of the RNG), so a backend can reserve the ids up
/// front and then pull arrivals as serving time reaches them — holding one
/// pending arrival, however long the trace.
#[derive(Debug, Clone)]
pub struct ArrivalStream {
    arrivals: PoissonArrivals<Trace, StdRng>,
    mix: Option<AddonMix>,
    /// The id the next yielded query will be assigned.
    next_id: u64,
    remaining: usize,
}

impl ArrivalStream {
    /// The submissions replaying `trace` makes: Poisson arrivals drawn from
    /// `rng`, add-ons from `mix` (none when `None`), for queries numbered
    /// from `first_id`.
    pub fn new(trace: Trace, rng: StdRng, mix: Option<AddonMix>, first_id: u64) -> Self {
        let remaining = PoissonArrivals::new(&trace, rng.clone()).count();
        ArrivalStream {
            arrivals: PoissonArrivals::new(trace, rng),
            mix,
            next_id: first_id,
            remaining,
        }
    }

    /// The id the next yielded query is drawn for.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }
}

impl Iterator for ArrivalStream {
    type Item = QuerySpec;

    fn next(&mut self) -> Option<QuerySpec> {
        let at = self.arrivals.next()?;
        let mut spec = QuerySpec::new().at(at);
        if let Some(id) = self.mix.as_ref().and_then(|mix| mix.draw(self.next_id, at)) {
            spec = spec.addon(id);
        }
        self.next_id += 1;
        self.remaining -= 1;
        Some(spec)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for ArrivalStream {}

/// The terminal fate of one submitted query, drained via
/// [`ServingSession::poll`].
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutcome {
    /// The query completed (possibly past its deadline — check
    /// [`CompletedResponse::latency_secs`] against the SLO).
    Completed(CompletedResponse),
    /// The query was shed: dropped by the drop-front policy, lost to
    /// shutdown, or still unfinished at the session horizon.
    Dropped {
        /// The query's id.
        id: QueryId,
        /// When it arrived.
        arrival: SimTime,
        /// When it was dropped.
        at: SimTime,
    },
}

impl QueryOutcome {
    /// The id of the query this outcome belongs to.
    pub fn id(&self) -> QueryId {
        match self {
            QueryOutcome::Completed(r) => r.id,
            QueryOutcome::Dropped { id, .. } => *id,
        }
    }

    /// Whether the query completed (on time or late).
    pub fn is_completed(&self) -> bool {
        matches!(self, QueryOutcome::Completed(_))
    }
}

/// A live point-in-time view of the serving system, delivered to
/// [`ServingSession::observer`] taps and returned by
/// [`ServingSession::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    /// Current serving time.
    pub now: SimTime,
    /// Workers currently fail-stopped.
    pub failed_workers: usize,
    /// Alive workers currently running degraded (below nameplate speed).
    pub degraded_workers: usize,
    /// Queries submitted so far.
    pub submitted: u64,
    /// Queries completed so far (on time or late).
    pub completed: u64,
    /// Queries dropped so far.
    pub dropped: u64,
    /// Fraction of completions served past the entry tier: by the heavy
    /// model on a two-tier cascade, by any deeper tier on a ladder.
    pub heavy_fraction: f64,
    /// Rolling FID estimate over the most recent completions (`NaN` until
    /// enough responses have accumulated).
    pub fid_estimate: f64,
    /// Live estimated-vs-offline deferral-profile gap: how far the
    /// controller's online `f(t)` estimate has moved from the offline
    /// profile (mean absolute difference over the threshold grid). `0.0`
    /// while the offline profile rules (online refresh disabled or the
    /// estimator still cold).
    pub deferral_gap: f64,
    /// Completions so far whose heavy pass resumed from carried latents
    /// (always `0` in restart mode).
    pub resumed_completions: u64,
    /// Per-tier add-on module-cache accounting so far (hits, misses, swap
    /// seconds). All-zero when [`SystemConfig::addons`] is unset.
    ///
    /// [`SystemConfig::addons`]: crate::config::SystemConfig::addons
    pub addon_stats: AddonStats,
    /// Alive workers assigned (or switching) to each ladder tier,
    /// cheapest first; two entries on a two-tier cascade.
    pub tier_workers: Vec<usize>,
    /// Queries queued on each ladder tier's alive workers.
    pub tier_queues: Vec<usize>,
    /// Alive workers per ladder tier currently executing a batch.
    pub tier_busy: Vec<usize>,
    /// Cumulative escalations across each boundary so far (`[k]` counts
    /// tier `k` → `k + 1` hand-offs); length N-1.
    pub tier_escalations: Vec<u64>,
    /// Active per-boundary confidence thresholds, entry boundary first.
    /// For the Proteus policy `thresholds[0]` carries the heavy routing
    /// fraction instead.
    pub thresholds: Vec<f64>,
}

impl SessionSnapshot {
    /// Busy fraction of the alive workers on ladder tier `tier` (0 when
    /// the tier is empty or out of range).
    pub fn utilization(&self, tier: usize) -> f64 {
        match self.tier_workers.get(tier) {
            Some(&total) if total > 0 => self.tier_busy[tier] as f64 / total as f64,
            _ => 0.0,
        }
    }
}

/// Why a [`SessionBuilder`] refused to construct a session.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// No [`CascadeRuntime`] was supplied.
    MissingRuntime,
    /// The [`SystemConfig`] failed validation.
    Config(ConfigError),
    /// The [`RunSettings`] failed validation (e.g. a non-finite or
    /// non-positive peak-demand hint).
    Settings(ConfigError),
    /// The attached [`Scenario`] is invalid for the configured worker pool.
    Scenario(ScenarioError),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::MissingRuntime => {
                write!(f, "serving session needs a prepared CascadeRuntime")
            }
            BuildError::Config(e) => write!(f, "{e}"),
            BuildError::Settings(e) => write!(f, "invalid run settings: {e}"),
            BuildError::Scenario(e) => write!(f, "invalid scenario: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// The fully validated inputs a backend is constructed from. Exposed so
/// out-of-crate backends (the `diffserve-cluster` testbed) can reuse the
/// builder's validation and then assemble a session with
/// [`ServingSession::from_backend`].
#[derive(Debug, Clone)]
pub struct SessionSpec<'a> {
    /// Offline-prepared cascade artifacts.
    pub runtime: &'a CascadeRuntime,
    /// Cluster and controller configuration (validated).
    pub config: SystemConfig,
    /// Policy, ablations, peak-demand hint (validated).
    pub settings: RunSettings,
    /// Perturbation schedule replayed by the backend (validated against
    /// `config.num_workers`).
    pub scenario: Option<Scenario>,
}

/// One execution engine driving the DiffServe architecture: the
/// discrete-event simulator or the thread-based cluster testbed.
///
/// A backend is an *open-world* serving loop — queries are submitted one at
/// a time, time advances in increments, and outcomes drain as they happen —
/// in contrast to the closed-world batch `run_*` functions (which are now
/// wrappers over this trait). [`ServingSession`] owns a boxed backend and
/// is the intended way to drive one.
pub trait ServingBackend {
    /// Current serving time: the latest instant this backend has been
    /// advanced to.
    fn now(&self) -> SimTime;

    /// Enqueues one query and returns its ticket. Arrival times in the
    /// past are clamped to [`ServingBackend::now`].
    fn submit(&mut self, spec: QuerySpec) -> QueryTicket;

    /// Enqueues every query of a trace replay, taking the ids
    /// `next_id .. next_id + len` in stream order. The default submits the
    /// stream query by query, which is what an engine that paces
    /// submissions in wall time wants (the testbed's
    /// [`submit`](ServingBackend::submit) blocks until each arrival is
    /// due, so it draws lazily already). The simulator keeps the stream and
    /// draws each arrival when serving time reaches the one before it.
    fn submit_stream(&mut self, stream: ArrivalStream) {
        for spec in stream {
            self.submit(spec);
        }
    }

    /// Advances serving time to `until` (no-op if `until` is in the past).
    /// The simulator processes every event up to `until`; the testbed
    /// sleeps scaled wall-clock time while its threads serve.
    fn tick(&mut self, until: SimTime);

    /// Drains the outcomes (completions and drops) recorded since the last
    /// call, in recording order.
    fn drain_completions(&mut self) -> Vec<QueryOutcome>;

    /// Applies a capacity or difficulty perturbation. The simulator fires
    /// it at the next instant it advances; the testbed applies it
    /// immediately.
    ///
    /// # Errors
    ///
    /// Rejects churn that would leave fewer than two workers alive, or a
    /// recovery naming more workers than have failed.
    fn apply_perturbation(&mut self, event: ScenarioEvent) -> Result<(), ScenarioError>;

    /// A live metrics snapshot (queue depths, threshold, utilization,
    /// rolling FID).
    fn snapshot(&self) -> SessionSnapshot;

    /// Tears the backend down and assembles the final [`RunReport`].
    /// Queries still unfinished at `horizon` are accounted as drops, and
    /// time series are truncated at `horizon`.
    fn finish(self: Box<Self>, horizon: SimTime) -> RunReport;
}

/// Fluent builder for a [`ServingSession`]; validates the complete
/// configuration at [`SessionBuilder::build`] time.
///
/// # Examples
///
/// Typed errors instead of panics:
///
/// ```
/// use diffserve_core::prelude::*;
/// use diffserve_core::serve::BuildError;
///
/// // No runtime attached → MissingRuntime, not a panic.
/// let err = ServingSession::builder().build().unwrap_err();
/// assert_eq!(err, BuildError::MissingRuntime);
/// ```
#[derive(Debug, Clone)]
pub struct SessionBuilder<'a> {
    runtime: Option<&'a CascadeRuntime>,
    config: SystemConfig,
    settings: RunSettings,
    scenario: Option<Scenario>,
}

impl Default for SessionBuilder<'_> {
    fn default() -> Self {
        SessionBuilder {
            runtime: None,
            config: SystemConfig::default(),
            settings: RunSettings::new(Policy::DiffServe, 1.0),
            scenario: None,
        }
    }
}

impl<'a> SessionBuilder<'a> {
    /// Attaches the prepared cascade artifacts (required).
    pub fn runtime(mut self, runtime: &'a CascadeRuntime) -> Self {
        self.runtime = Some(runtime);
        self
    }

    /// Sets the system configuration (default: [`SystemConfig::default`]).
    pub fn config(mut self, config: SystemConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the serving policy (default: [`Policy::DiffServe`]).
    pub fn policy(mut self, policy: Policy) -> Self {
        self.settings.policy = policy;
        self
    }

    /// Sets the expected peak demand in QPS, which static policies
    /// provision for (default: 1.0).
    pub fn peak_demand(mut self, qps: f64) -> Self {
        self.settings.peak_demand_hint = qps;
        self
    }

    /// Replaces the [`RunSettings`] — policy, peak demand and ablations —
    /// that [`SessionBuilder::policy`] and
    /// [`SessionBuilder::peak_demand`] write into (default:
    /// [`RunSettings::new`] for [`Policy::DiffServe`] at 1.0 QPS).
    pub fn settings(mut self, settings: RunSettings) -> Self {
        self.settings = settings;
        self
    }

    /// Attaches a perturbation schedule the backend replays (worker churn
    /// and difficulty shifts; demand perturbations are expressed through
    /// what the application submits — e.g.
    /// [`ServingSession::replay_trace`] with
    /// [`Scenario::effective_trace`]).
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.scenario = Some(scenario);
        self
    }

    /// Validates every input and returns the assembled [`SessionSpec`]
    /// without constructing a backend — the hook out-of-crate backends
    /// (the cluster testbed) use to share the builder's validation.
    ///
    /// # Errors
    ///
    /// See [`SessionBuilder::build`].
    pub fn validate(self) -> Result<SessionSpec<'a>, BuildError> {
        let runtime = self.runtime.ok_or(BuildError::MissingRuntime)?;
        self.config.validate().map_err(BuildError::Config)?;
        let settings = self.settings;
        settings.validate().map_err(BuildError::Settings)?;
        if runtime.num_tiers() > 2 && !settings.policy.uses_cascade() {
            return Err(BuildError::Settings(ConfigError::new(
                "an N-tier quality ladder requires a cascade policy \
                 (DiffServe or DiffServe-Static)",
            )));
        }
        if let Some(scenario) = &self.scenario {
            scenario
                .validate(self.config.num_workers)
                .map_err(BuildError::Scenario)?;
        }
        Ok(SessionSpec {
            runtime,
            config: self.config,
            settings,
            scenario: self.scenario,
        })
    }

    /// Validates the whole configuration and constructs a session on the
    /// discrete-event simulator (the paper's primary evaluation vehicle —
    /// deterministic and bit-reproducible). The thread-based cluster
    /// testbed lives in `diffserve-cluster` (it needs threads and
    /// channels) and is built with
    /// `diffserve_cluster::ClusterSessionExt::build_cluster`, which keeps
    /// the dependency arrow pointing from the testbed to the core.
    ///
    /// # Errors
    ///
    /// [`BuildError::MissingRuntime`] without a runtime;
    /// [`BuildError::Config`] for an invalid [`SystemConfig`];
    /// [`BuildError::Settings`] for invalid [`RunSettings`] (non-finite or
    /// non-positive peak-demand hint, out-of-range static threshold);
    /// [`BuildError::Scenario`] when the scenario's churn would exhaust the
    /// configured worker pool.
    pub fn build(self) -> Result<ServingSession<'a>, BuildError> {
        let spec = self.validate()?;
        let backend = Box::new(SimBackend::new(&spec));
        Ok(ServingSession::from_backend(&spec, backend))
    }
}

/// An open serving session: the backend-agnostic engine behind the batch
/// `run_*` entry points, drivable incrementally.
///
/// Construct via [`ServingSession::builder`]; drive with
/// [`submit`](ServingSession::submit) /
/// [`run_until`](ServingSession::run_until) /
/// [`poll`](ServingSession::poll); close with
/// [`finish`](ServingSession::finish). See the [module docs](self) for a
/// complete example.
pub struct ServingSession<'a> {
    backend: Box<dyn ServingBackend + 'a>,
    config: SystemConfig,
    policy: Policy,
    observers: Vec<ObserverFn<'a>>,
    driven_until: SimTime,
    submitted: u64,
    /// Trend windows lowered from the attached scenario's style-shift
    /// perturbations; appended to the configured [`AddonMix`] when
    /// [`ServingSession::replay_trace`] draws per-query add-ons.
    addon_trends: Vec<TrendWindow>,
}

/// A registered live-metrics tap.
type ObserverFn<'a> = Box<dyn FnMut(&SessionSnapshot) + 'a>;

impl std::fmt::Debug for ServingSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServingSession")
            .field("policy", &self.policy)
            .field("now", &self.backend.now())
            .field("submitted", &self.submitted)
            .field("observers", &self.observers.len())
            .finish_non_exhaustive()
    }
}

impl<'a> ServingSession<'a> {
    /// Starts a fluent [`SessionBuilder`].
    pub fn builder() -> SessionBuilder<'a> {
        SessionBuilder::default()
    }

    /// Wraps an already-constructed backend in a session. Intended for
    /// out-of-crate [`ServingBackend`] implementations (the cluster
    /// testbed); in-crate callers should use [`SessionBuilder::build`].
    pub fn from_backend(spec: &SessionSpec<'a>, backend: Box<dyn ServingBackend + 'a>) -> Self {
        ServingSession {
            backend,
            config: spec.config.clone(),
            policy: spec.settings.policy,
            observers: Vec::new(),
            driven_until: SimTime::ZERO,
            submitted: 0,
            addon_trends: spec
                .scenario
                .as_ref()
                .map(|s| s.style_shift_windows())
                .unwrap_or_default(),
        }
    }

    /// The serving policy this session runs.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Current serving time.
    pub fn now(&self) -> SimTime {
        self.backend.now()
    }

    /// Queries submitted so far.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Submits one query arriving now with an explicit deadline.
    pub fn submit(&mut self, prompt: Prompt, deadline: SimTime) -> QueryTicket {
        self.submit_spec(QuerySpec::new().prompt(prompt).deadline(deadline))
    }

    /// Submits one query from a full [`QuerySpec`] (scheduled arrivals,
    /// dataset prompts, SLO-default deadlines).
    pub fn submit_spec(&mut self, spec: QuerySpec) -> QueryTicket {
        self.submitted += 1;
        self.backend.submit(spec)
    }

    /// Replays a demand trace: draws the canonical seeded Poisson arrival
    /// stream (identical to what the batch `run_*` wrappers serve, so
    /// comparisons are paired) and submits one dataset query per arrival.
    /// With [`SystemConfig::addons`] configured, each arrival additionally
    /// draws its add-on requirement from the configured [`AddonMix`]
    /// (extended with the scenario's style-shift trend windows) — the draw
    /// is keyed by query id from a separate seed stream, so enabling
    /// add-ons leaves the arrival instants bit-identical. Returns the
    /// number of queries submitted.
    ///
    /// The arrivals are handed to the backend as one lazy
    /// [`ArrivalStream`], equivalent to calling
    /// [`submit_spec`](ServingSession::submit_spec) for each of them here
    /// (`tests/api_parity.rs`): the ids `submitted() .. submitted() + n`
    /// are taken now, whatever is submitted afterwards.
    pub fn replay_trace(&mut self, trace: &Trace) -> u64 {
        let rng = seeded_rng(derive_seed(self.config.seed, ARRIVAL_SEED_STREAM));
        let mix: Option<AddonMix> = self.config.addons.as_ref().map(|a| {
            let mut mix = a.mix.clone();
            for w in &self.addon_trends {
                mix = mix.with_trend(*w);
            }
            mix
        });
        // The submitted counter is exactly the id the backend will assign
        // next (both engines number queries from 0).
        let stream = ArrivalStream::new(trace.clone(), rng, mix, self.submitted);
        let n = stream.len() as u64;
        self.submitted += n;
        self.backend.submit_stream(stream);
        n
    }

    /// Advances serving time to `until`. With observers registered, the
    /// advance happens in control-interval steps and every observer is
    /// called with a fresh [`SessionSnapshot`] after each step.
    pub fn run_until(&mut self, until: SimTime) {
        if self.observers.is_empty() {
            self.backend.tick(until);
        } else {
            let step = self.config.control_interval;
            let mut t = self.backend.now();
            while t < until {
                t = (t + step).min(until);
                self.backend.tick(t);
                let snap = self.backend.snapshot();
                for obs in &mut self.observers {
                    obs(&snap);
                }
            }
        }
        if until > self.driven_until {
            self.driven_until = until;
        }
    }

    /// Drains outcomes (completions and drops) recorded since the last
    /// poll. They are handed over, not copied: the session keeps an outcome
    /// only until it is polled (a session never polled keeps them all until
    /// [`ServingSession::finish`]), and the final report does not depend on
    /// them — it is assembled from totals streamed at completion time.
    pub fn poll(&mut self) -> Vec<QueryOutcome> {
        self.backend.drain_completions()
    }

    /// Registers a live metrics tap invoked after every control-interval
    /// step of [`ServingSession::run_until`].
    pub fn observer(&mut self, observer: impl FnMut(&SessionSnapshot) + 'a) {
        self.observers.push(Box::new(observer));
    }

    /// A live metrics snapshot right now.
    pub fn snapshot(&self) -> SessionSnapshot {
        self.backend.snapshot()
    }

    /// Injects a capacity or difficulty perturbation mid-run — the online
    /// counterpart of attaching a [`Scenario`] at build time.
    ///
    /// # Errors
    ///
    /// Rejects churn that would leave fewer than two workers alive, or a
    /// recovery naming more workers than have failed.
    pub fn inject(&mut self, event: ScenarioEvent) -> Result<(), ScenarioError> {
        self.backend.apply_perturbation(event)
    }

    /// The batch drive both engines' `run_*` entry points share: replays
    /// `trace`, serves to the later of the trace end and the clock plus a
    /// drain period of 4 SLOs, and finishes. Starting the drain from the
    /// clock matters on the testbed, whose replay can overshoot the trace
    /// end in wall-clock time: the overshoot must not eat into the drain,
    /// or in-flight work is counted as shutdown drops.
    pub fn run_trace(mut self, trace: &Trace) -> RunReport {
        self.replay_trace(trace);
        let drain_from = self.now().max(SimTime::ZERO + trace.duration());
        self.run_until(drain_from + self.config.slo * 4);
        self.finish()
    }

    /// Ends the session: unfinished queries are accounted as drops at the
    /// latest driven instant, time series are truncated there, and the
    /// final [`RunReport`] — identical in shape and accounting to the batch
    /// `run_*` functions' — is assembled.
    pub fn finish(self) -> RunReport {
        let horizon = self.driven_until.max(self.backend.now());
        self.backend.finish(horizon)
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
                600,
                13,
                DiscriminatorConfig {
                    train_prompts: 300,
                    epochs: 4,
                    ..Default::default()
                },
            )
        })
    }

    fn small_config() -> SystemConfig {
        SystemConfig {
            num_workers: 4,
            ..Default::default()
        }
    }

    #[test]
    fn builder_rejects_missing_runtime() {
        assert_eq!(
            ServingSession::builder().build().unwrap_err(),
            BuildError::MissingRuntime
        );
    }

    #[test]
    fn builder_rejects_invalid_config() {
        let err = ServingSession::builder()
            .runtime(test_runtime())
            .config(SystemConfig {
                num_workers: 1,
                ..Default::default()
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::Config(_)), "{err}");
    }

    #[test]
    fn builder_rejects_bad_peak_demand() {
        for bad in [f64::NAN, f64::INFINITY, 0.0, -3.0] {
            let err = ServingSession::builder()
                .runtime(test_runtime())
                .config(small_config())
                .peak_demand(bad)
                .build()
                .unwrap_err();
            assert!(matches!(err, BuildError::Settings(_)), "hint {bad}: {err}");
        }
    }

    #[test]
    fn builder_setters_write_one_run_settings_in_call_order() {
        let base = RunSettings {
            knobs: crate::policy::AblationKnobs::static_threshold(0.4),
            ..RunSettings::new(Policy::Proteus, 9.0)
        };
        let builder = || {
            ServingSession::builder()
                .runtime(test_runtime())
                .config(small_config())
        };
        let spec = builder()
            .settings(base.clone())
            .policy(Policy::DiffServeStatic)
            .peak_demand(12.0)
            .validate()
            .expect("valid settings");
        assert_eq!(spec.settings.policy, Policy::DiffServeStatic);
        assert_eq!(spec.settings.peak_demand_hint, 12.0);
        assert_eq!(spec.settings.knobs, base.knobs);
        let spec = builder()
            .policy(Policy::ClipperLight)
            .settings(base.clone())
            .validate()
            .expect("valid settings");
        assert_eq!(spec.settings.policy, Policy::Proteus);
        assert_eq!(spec.settings.peak_demand_hint, 9.0);
        let err = builder()
            .settings(base)
            .peak_demand(f64::NAN)
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::Settings(_)), "{err}");
    }

    #[test]
    fn builder_rejects_exhausting_scenario() {
        let trace = Trace::constant(2.0, SimDuration::from_secs(10)).unwrap();
        let scenario = Scenario::new("bad", trace).worker_fail(SimTime::from_secs(1), 3);
        let err = ServingSession::builder()
            .runtime(test_runtime())
            .config(small_config())
            .scenario(scenario)
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::Scenario(_)), "{err}");
    }

    #[test]
    fn inject_rejects_zero_count_capacity_events() {
        use diffserve_trace::CapacityEvent;
        let mut session = ServingSession::builder()
            .runtime(test_runtime())
            .config(small_config())
            .build()
            .expect("valid session");
        for event in [
            CapacityEvent::Fail(0),
            CapacityEvent::Recover(0),
            CapacityEvent::Degrade(0, 2.0),
            CapacityEvent::Restore(0),
        ] {
            let err = session.inject(ScenarioEvent::Capacity(event)).unwrap_err();
            assert_eq!(err, ScenarioError::ZeroWorkers, "{event:?}");
        }
        // Nothing landed in the incident log, so the run stays replayable.
        let report = session.finish();
        assert!(report.incident_log.is_empty());
    }

    #[test]
    fn streaming_submit_poll_finish() {
        let mut session = ServingSession::builder()
            .runtime(test_runtime())
            .config(small_config())
            .policy(Policy::DiffServe)
            .build()
            .expect("valid session");
        let mut tickets = Vec::new();
        for i in 0..6 {
            let prompt = *test_runtime().dataset.prompt_cyclic(i);
            let deadline = session.now() + SimDuration::from_secs(5);
            tickets.push(session.submit(prompt, deadline));
        }
        assert_eq!(tickets.len(), 6);
        assert_eq!(tickets[5].id, QueryId(5));
        session.run_until(SimTime::from_secs(40));
        let outcomes = session.poll();
        assert_eq!(outcomes.len(), 6, "all queries should resolve");
        // Polling again yields nothing new.
        let mut session = session;
        assert!(session.poll().is_empty());
        let report = session.finish();
        assert_eq!(report.total_queries, 6);
        assert_eq!(report.completed + report.dropped, 6);
    }

    #[test]
    fn observer_sees_threshold_and_progress() {
        let mut session = ServingSession::builder()
            .runtime(test_runtime())
            .config(SystemConfig {
                resume_from_latents: true,
                ..small_config()
            })
            .policy(Policy::DiffServe)
            .build()
            .expect("valid session");
        let trace = Trace::constant(3.0, SimDuration::from_secs(20)).unwrap();
        session.replay_trace(&trace);
        let snaps = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let sink = snaps.clone();
        session.observer(move |s: &SessionSnapshot| sink.borrow_mut().push(s.clone()));
        session.run_until(SimTime::from_secs(30));
        let snaps = snaps.borrow();
        assert!(!snaps.is_empty());
        let last = snaps.last().unwrap();
        assert!(last.completed + last.dropped > 0);
        assert!(last.thresholds[0].is_finite());
        assert!(last.tier_workers.iter().sum::<usize>() + last.failed_workers <= 4);

        // The snapshot's running counters equal a scan over every outcome
        // recorded up to the same instant.
        let done: Vec<CompletedResponse> = session
            .poll()
            .into_iter()
            .filter_map(|o| match o {
                QueryOutcome::Completed(r) => Some(r),
                QueryOutcome::Dropped { .. } => None,
            })
            .collect();
        let heavy = done.iter().filter(|r| r.tier > 0).count();
        let resumed = done.iter().filter(|r| r.reused_steps > 0).count() as u64;
        assert!(heavy > 0 && resumed > 0, "exercise both counters");
        assert_eq!(last.completed, done.len() as u64);
        assert_eq!(last.heavy_fraction, heavy as f64 / done.len() as f64);
        assert_eq!(last.resumed_completions, resumed);
    }

    /// A completion carries the boundary score of the tier it completed
    /// at: the score table's entry for its prompt on the light tier, and
    /// `None` on the heavy tier, which no boundary scores — although an
    /// escalated query's light output was scored. Off-cascade policies
    /// score nothing.
    #[test]
    fn confidence_is_the_completing_tiers_boundary_score() {
        let rt = test_runtime();
        let trace = Trace::constant(3.0, SimDuration::from_secs(30)).unwrap();
        for policy in Policy::all() {
            let mut session = ServingSession::builder()
                .runtime(rt)
                .config(small_config())
                .policy(policy)
                .build()
                .expect("valid session");
            session.replay_trace(&trace);
            session.run_until(SimTime::from_secs(60));
            let mut per_tier = [0usize; 2];
            for outcome in session.poll() {
                let QueryOutcome::Completed(r) = outcome else {
                    continue;
                };
                per_tier[r.tier] += 1;
                let want = (policy.uses_cascade() && r.tier == 0)
                    .then(|| rt.scores()[0][(r.id.0 % rt.dataset.len() as u64) as usize]);
                assert_eq!(
                    r.confidence.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "{}: query {} at tier {}",
                    policy.name(),
                    r.id.0,
                    r.tier
                );
            }
            if policy.uses_cascade() {
                assert!(
                    per_tier.iter().all(|&n| n > 0),
                    "{}: both tiers complete queries: {per_tier:?}",
                    policy.name()
                );
            }
        }
    }

    #[test]
    fn inject_rejects_pool_exhaustion() {
        use diffserve_trace::CapacityEvent;
        let mut session = ServingSession::builder()
            .runtime(test_runtime())
            .config(small_config())
            .build()
            .expect("valid session");
        let err = session
            .inject(ScenarioEvent::Capacity(CapacityEvent::Fail(3)))
            .unwrap_err();
        assert!(matches!(err, ScenarioError::PoolExhausted { .. }));
        // Failing 2 of 4 is fine; recovering 3 is not.
        session
            .inject(ScenarioEvent::Capacity(CapacityEvent::Fail(2)))
            .expect("2 of 4 may fail");
        let err = session
            .inject(ScenarioEvent::Capacity(CapacityEvent::Recover(3)))
            .unwrap_err();
        assert!(matches!(err, ScenarioError::RecoverWithoutFailure { .. }));
    }

    #[test]
    fn back_to_back_injections_compose_without_a_tick() {
        use diffserve_trace::CapacityEvent;
        let mut session = ServingSession::builder()
            .runtime(test_runtime())
            .config(small_config())
            .build()
            .expect("valid session");
        // Validation must project over scheduled-but-unfired injections:
        // a second Fail(2) on a 4-worker pool is rejected even before any
        // time has passed...
        session
            .inject(ScenarioEvent::Capacity(CapacityEvent::Fail(2)))
            .expect("2 of 4 may fail");
        let err = session
            .inject(ScenarioEvent::Capacity(CapacityEvent::Fail(2)))
            .unwrap_err();
        assert!(matches!(err, ScenarioError::PoolExhausted { .. }));
        // ...and an immediate fail→recover round trip is accepted, like the
        // cluster backend's immediate application.
        session
            .inject(ScenarioEvent::Capacity(CapacityEvent::Recover(2)))
            .expect("recover the 2 pending failures");
        session
            .inject(ScenarioEvent::Capacity(CapacityEvent::Fail(2)))
            .expect("pool is projected whole again");
        session.run_until(SimTime::from_secs(5));
        assert_eq!(session.snapshot().failed_workers, 2);
    }

    #[test]
    fn finish_accounts_submissions_past_the_horizon() {
        let mut session = ServingSession::builder()
            .runtime(test_runtime())
            .config(small_config())
            .build()
            .expect("valid session");
        // One query inside the driven window, one scheduled far past it.
        session.submit_spec(QuerySpec::new().at(SimTime::from_secs(1)));
        session.submit_spec(QuerySpec::new().at(SimTime::from_secs(500)));
        session.run_until(SimTime::from_secs(30));
        let report = session.finish();
        assert_eq!(report.total_queries, 2, "never-arrived submission counts");
        assert_eq!(report.completed + report.dropped, report.total_queries);
        assert!(report.dropped >= 1, "the future submission is a drop");
    }

    #[test]
    fn build_error_display() {
        let e = BuildError::MissingRuntime;
        assert!(format!("{e}").contains("CascadeRuntime"));
    }
}
