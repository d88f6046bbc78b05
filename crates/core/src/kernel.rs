//! The serving kernel: every serving *decision*, written once.
//!
//! Both execution engines — the discrete-event simulator ([`crate::sim`])
//! and the thread-based testbed (`diffserve-cluster`) — serve the same
//! system, so what a batch costs, where a query is routed, whether an
//! output escalates, how a plan maps onto workers and what the controller
//! is told must be one model, not two hand-synchronised copies. This
//! module is that model: plain functions over borrowed data, with no
//! clocks, no locks and no event queue. An engine keeps only *when* things
//! happen (event queue vs threads and sleeps) and its own state access
//! (sorted load index vs atomics and locks); every decision is a call
//! here.
//!
//! * [`Query`] — one query in flight, the record both engines hold.
//! * [`Kernel`] — the tier roster resolved from a [`CascadeRuntime`] plus
//!   the static serving parameters, and on it a worker's lifecycle:
//!   [`Kernel::dispatch`] (the drop-front rule, the sheds, the swap charge
//!   and the priced batch) and [`Kernel::finish`] (a batch member's
//!   boundary verdict, completing into the ledger or escalating), both
//!   over the service-time model `(stage − resume savings + swap) ×
//!   slowdown`; the routing score ([`Kernel::routing_load`],
//!   [`Kernel::miss_penalty`]) and an arrival's entry tier per policy
//!   ([`Kernel::arrive`]).
//! * [`pick_worker`] — the routing pick over the candidate ladder.
//! * [`adopt_batches`], [`worker_targets`], [`worker_moves`] — the batch
//!   each tier runs, per-tier worker targets from a plan, and which
//!   workers change tier to meet them; on the last, the one hand-back
//!   rule: a moved or failed worker's queue goes back to the tier that
//!   worker leaves.
//! * [`capacity_targets`], [`applied_capacity_event`] — which workers a
//!   fail / recover / degrade / restore event touches, and what the
//!   incident log records of it.
//! * [`FleetTally`] — what an engine counts across its fleet
//!   ([`FleetTally::fill`]).
//! * [`Ledger`] — the session's one record: every arrival, completion,
//!   escalation, shed, incident, threshold and add-on charge is written
//!   to it once, and the control tick's [`ControlObservation`]
//!   ([`Ledger::observe`]), the live snapshot and the final report are
//!   read from it.

use diffserve_imagegen::{
    resume_savings, reused_steps, DiffusionModel, Discriminator, EmbeddingDraws, LatencyProfile,
    OnlinePredictiveRouter, OnlineRouterConfig, Prompt, PromptDataset, StageState,
};
use diffserve_metrics::{GaussianStats, RollingFid, SloTracker, ViolationWindows, WindowedSeries};
use diffserve_simkit::time::{SimDuration, SimTime};
use diffserve_trace::{CapacityEvent, FleetHealth, Incident, IncidentLog, ScenarioEvent};
use rand::Rng;
use std::sync::Arc;

use crate::addons::{AddonStats, AddonsConfig, ModuleCache};
use crate::allocator::LadderAllocation;
use crate::config::{SystemConfig, METRICS_WINDOW};
use crate::control::ControlObservation;
use crate::policy::Policy;
use crate::query::{CompletedResponse, QueryId, ServedImage};
use crate::report::{CompletionTotals, RunReport};
use crate::runtime::{CascadeRuntime, RenderTable};
use crate::serve::{QueryOutcome, QuerySpec, SessionSnapshot};
use crate::sim::RunSettings;

/// One query between its submission and its terminal state: the record
/// both engines queue, batch and hand between tiers.
#[derive(Debug, Clone, Copy)]
pub struct Query {
    /// Its id, in submission order.
    pub id: u64,
    /// When it arrived.
    pub arrival: SimTime,
    /// What the drop-front rule judges it by: its explicit deadline, else
    /// its arrival plus the SLO.
    pub deadline: SimTime,
    /// Explicit prompt payload; `None` serves the dataset's cyclic prompt.
    pub prompt: Option<Prompt>,
    /// Denoise progress carried from another tier, set on escalation when
    /// [`SystemConfig::resume_from_latents`] is on, or up front via
    /// [`QuerySpec::resume_from`]: a resuming pass covers only the
    /// residual steps.
    pub resume: Option<StageState>,
    /// Add-on module (catalog index) it requires; rides along on
    /// escalation, so a deeper pass needs the same module.
    pub addon: Option<usize>,
    /// The tier it entered at: 0, or deeper when the predictive router
    /// skipped cheap tiers. Its GPU-time accounting charges only tiers
    /// `entry..=final`.
    pub entry: usize,
}

impl Query {
    /// The record of query `id`, submitted as `spec` and arriving at `at`
    /// under an SLO of `slo`, entering at tier 0 until its entry tier is
    /// drawn.
    pub fn new(id: u64, at: SimTime, spec: &QuerySpec, slo: SimDuration) -> Self {
        Query {
            id,
            arrival: at,
            deadline: spec.deadline.unwrap_or(at + slo),
            prompt: spec.prompt,
            resume: spec.resume_from,
            addon: spec.addon,
            entry: 0,
        }
    }

    /// What the service-time model reads of this query.
    #[inline]
    fn member(&self) -> Member {
        Member {
            resume: self.resume,
            addon: self.addon,
        }
    }
}

/// What the service-time model needs to know about one batch member.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Member {
    /// Denoise progress carried from another tier, if any.
    resume: Option<StageState>,
    /// Add-on module (catalog index) the member requires, if any.
    addon: Option<usize>,
}

/// What a tier's output does at its escalation boundary.
#[derive(Debug, Clone, PartialEq)]
enum Verdict {
    /// Serve this tier's output.
    Complete {
        /// The boundary confidence, when one was scored (`None` on the
        /// terminal tier and off-cascade policies).
        confidence: Option<f64>,
        /// The tier's output: a render's features copied in, or its
        /// render-table row.
        image: ServedImage,
        /// Denoise steps the render reused from carried latents.
        reused: u32,
    },
    /// Hand the query to the next tier.
    Escalate {
        /// The boundary confidence that fell below the threshold.
        confidence: f64,
        /// This tier's finished denoise schedule, for the next pass to
        /// resume from; `None` in restart mode.
        resume: Option<StageState>,
    },
}

/// What [`Kernel::dispatch`] did with a worker's pending queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dispatch {
    /// How many were shed from the front.
    pub shed: usize,
    /// The service seconds of the batch that runs, the next `batch_max`
    /// pending queries at most; `None` when every one was shed.
    pub secs: Option<f64>,
}

/// Every tier's single-stage service latency at every batch size a session
/// can run: the tier's model execution plus — on non-terminal tiers under a
/// cascade policy — the boundary discriminator's per-query scoring cost.
///
/// Built once per session ([`StageLatencies::of_session`]) for the kernel's
/// service-time model and the control loop alike, so the formula exists
/// once and a read is one lookup. The table spans batches
/// `1..=max(batch_sizes)`: a worker's batch is at most its plan's batch
/// size, which the planners draw from `batch_sizes` (or set to 1), so that
/// covers every call, and a batch outside it panics.
#[derive(Debug, Clone)]
pub(crate) struct StageLatencies {
    /// Per-tier execution profiles, cheapest first (length N).
    profiles: Vec<LatencyProfile>,
    /// Per-boundary discriminator seconds charged per image (length N − 1);
    /// zeros when the policy runs no cascade, which never scores an image.
    discriminators: Vec<f64>,
    max_batch: usize,
    /// `secs[tier · max_batch + batch − 1]`.
    secs: Vec<f64>,
}

impl StageLatencies {
    /// Tabulates the stage latency of `profiles` (cheapest first) with
    /// boundary `k` charging `discriminators[k]` seconds per image — or
    /// nothing when `cascade` is off — for batches `1..=max_batch`. With
    /// the charge zeroed, `base + 0.0 · b` is `base` bit for bit.
    ///
    /// # Panics
    ///
    /// Panics unless there is one discriminator per boundary and
    /// `max_batch ≥ 1`.
    pub(crate) fn new(
        profiles: Vec<LatencyProfile>,
        discriminators: Vec<f64>,
        cascade: bool,
        max_batch: usize,
    ) -> Self {
        assert_eq!(
            discriminators.len() + 1,
            profiles.len(),
            "one discriminator per boundary"
        );
        assert!(max_batch >= 1, "the table needs a batch size");
        let discriminators = if cascade {
            discriminators
        } else {
            vec![0.0; discriminators.len()]
        };
        let secs = profiles
            .iter()
            .enumerate()
            .flat_map(|(tier, profile)| {
                let charge = discriminators.get(tier).copied();
                (1..=max_batch).map(move |b| {
                    let base = profile.exec_latency(b).as_secs_f64();
                    match charge {
                        Some(d) => base + d * b as f64,
                        None => base,
                    }
                })
            })
            .collect();
        StageLatencies {
            profiles,
            discriminators,
            max_batch,
            secs,
        }
    }

    /// The table of a session serving `runtime` under `config` and `policy`.
    pub(crate) fn of_session(
        runtime: &CascadeRuntime,
        config: &SystemConfig,
        policy: Policy,
    ) -> Self {
        let boundaries = runtime.num_tiers() - 1;
        StageLatencies::new(
            (0..=boundaries)
                .map(|k| *runtime.model(k).latency())
                .collect(),
            (0..boundaries)
                .map(|b| runtime.discriminator(b).latency().as_secs_f64())
                .collect(),
            policy.uses_cascade(),
            config
                .batch_sizes
                .iter()
                .copied()
                .max()
                .expect("a validated config has batch sizes"),
        )
    }

    /// Stage latency of a `batch` on `tier`, seconds.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is outside `1..=max(batch_sizes)`.
    #[inline]
    pub(crate) fn secs(&self, tier: usize, batch: usize) -> f64 {
        assert!(
            (1..=self.max_batch).contains(&batch),
            "batch {batch} is outside the stage-latency table (1..={})",
            self.max_batch
        );
        self.secs[tier * self.max_batch + batch - 1]
    }

    /// The per-tier execution profiles, cheapest first.
    pub(crate) fn profiles(&self) -> &[LatencyProfile] {
        &self.profiles
    }

    /// The per-boundary discriminator seconds charged per image.
    pub(crate) fn discriminators(&self) -> &[f64] {
        &self.discriminators
    }
}

/// The tier roster and the static serving parameters every decision reads.
///
/// Borrows the prepared models from the [`CascadeRuntime`] and copies the
/// handful of configuration values it needs, so an engine (or each of its
/// threads) builds one up front and calls it on the per-query path without
/// touching configuration again.
#[derive(Debug, Clone)]
pub struct Kernel<'a> {
    /// The model tiers, cheapest first; `[light, heavy]` on a two-tier
    /// cascade.
    models: Vec<&'a DiffusionModel>,
    /// One discriminator per escalation boundary (length `N − 1`);
    /// `discriminators[k]` scores tier-`k` outputs.
    discriminators: Vec<&'a Discriminator>,
    /// The runtime's score table: `scores[k][i]` is `discriminators[k]`'s
    /// confidence in `models[k]`'s plain render of dataset prompt `i`.
    scores: &'a [Vec<f64>],
    /// Every tier's stage latency at every batch size the session runs.
    stages: StageLatencies,
    /// The runtime's render table: `renders[k].image(i)` is `models[k]`'s
    /// plain render of dataset prompt `i`.
    renders: &'a [RenderTable],
    dataset: &'a PromptDataset,
    policy: Policy,
    health_blind: bool,
    affinity_blind: bool,
    resume: bool,
    resume_step_credit: f64,
    addons: Option<AddonsConfig>,
    /// Configuration of the pre-execution router, present only where one
    /// runs: ladders of more than two tiers on a cascade policy.
    router: Option<OnlineRouterConfig>,
    /// The runtime's prepared embedding draws, which every router reads.
    draws: Option<&'a Arc<EmbeddingDraws>>,
}

impl<'a> Kernel<'a> {
    /// Resolves the roster and parameters for one session.
    pub fn new(runtime: &'a CascadeRuntime, config: &SystemConfig, settings: &RunSettings) -> Self {
        let boundaries = runtime.num_tiers() - 1;
        let models: Vec<_> = (0..=boundaries).map(|k| runtime.model(k)).collect();
        let discriminators: Vec<_> = (0..boundaries).map(|b| runtime.discriminator(b)).collect();
        let ladder = config.ladder.clone().unwrap_or_default();
        let router = (models.len() > 2
            && matches!(settings.policy, Policy::DiffServe | Policy::DiffServeStatic))
        .then_some(OnlineRouterConfig {
            observation_noise: ladder.predictive_observation_noise,
            learning_rate: ladder.predictive_learning_rate,
            min_observations: ladder.predictive_min_observations,
            margin: ladder.predictive_margin,
        });
        Kernel {
            models,
            discriminators,
            scores: runtime.scores(),
            stages: StageLatencies::of_session(runtime, config, settings.policy),
            renders: runtime.renders(),
            dataset: &runtime.dataset,
            policy: settings.policy,
            health_blind: settings.knobs.health_blind_routing,
            affinity_blind: settings.knobs.affinity_blind_routing,
            resume: config.resume_from_latents,
            resume_step_credit: config.resume_step_credit,
            addons: config.addons.clone(),
            router,
            draws: runtime.embedding_draws(),
        }
    }

    /// Number of model tiers (2 for a two-tier cascade).
    #[inline]
    pub fn num_tiers(&self) -> usize {
        self.models.len()
    }

    /// The model serving ladder tier `tier`.
    #[inline]
    pub fn model(&self, tier: usize) -> &'a DiffusionModel {
        self.models[tier]
    }

    /// A cold pre-execution router, on sessions that run one, reading the
    /// runtime's prepared embedding draws.
    pub fn new_router(&self) -> Option<OnlinePredictiveRouter> {
        let router = OnlinePredictiveRouter::new(self.discriminators.len(), self.router?);
        Some(match self.draws {
            Some(draws) => router.with_draws(Arc::clone(draws)),
            None => router,
        })
    }

    // --- Service-time model ------------------------------------------------

    /// Single-stage service latency of a batch on a tier: the tier's model
    /// execution plus — on non-terminal cascade tiers — the boundary
    /// discriminator's per-query scoring cost, read from the session's
    /// table.
    ///
    /// Debug builds re-derive every read from the models and assert its
    /// bits, so a stale or misindexed table fails loudly in tests.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is outside `1..=max(batch_sizes)`.
    #[inline]
    pub fn stage_latency(&self, tier: usize, batch: usize) -> f64 {
        let secs = self.stages.secs(tier, batch);
        #[cfg(debug_assertions)]
        assert_eq!(
            secs.to_bits(),
            self.derive_stage_latency(tier, batch).to_bits(),
            "stage-latency table diverged at tier {tier}, batch {batch}"
        );
        secs
    }

    /// The formula the stage-latency table replaced, read straight off the
    /// models — kept as a debug-build cross-check of every table read.
    #[cfg(debug_assertions)]
    fn derive_stage_latency(&self, tier: usize, batch: usize) -> f64 {
        let base = self.models[tier]
            .latency()
            .exec_latency(batch)
            .as_secs_f64();
        match self.discriminators.get(tier) {
            Some(d) if self.policy.uses_cascade() => {
                base + d.latency().as_secs_f64() * batch as f64
            }
            _ => base,
        }
    }

    /// Denoise steps a query skips at `tier` by resuming from carried
    /// latents. Exactly `0` at the entry tier, with resume disabled, with
    /// no carried state, or with a zero step credit — every resume-aware
    /// function below reduces to the restart arithmetic bit-for-bit in
    /// those cases.
    #[inline]
    fn reused_steps(&self, tier: usize, resume: Option<StageState>) -> u32 {
        match resume {
            Some(st) if tier > 0 && self.resume => {
                reused_steps(self.models[tier].steps(), st, self.resume_step_credit)
            }
            _ => 0,
        }
    }

    /// Total service-time discount of a batch: the sum of each member's
    /// [`resume_savings`]. Always `0.0` for the entry tier and in restart
    /// mode, so `stage_latency − 0.0` stays bitwise the undiscounted time.
    #[inline]
    fn batch_resume_savings(
        &self,
        tier: usize,
        members: impl Iterator<Item = Option<StageState>>,
    ) -> f64 {
        if tier == 0 || !self.resume {
            return 0.0;
        }
        let profile = self.models[tier].latency();
        let steps = self.models[tier].steps();
        members
            .map(|r| resume_savings(profile, self.reused_steps(tier, r), steps))
            .sum()
    }

    /// Total module-load seconds a prospective batch would pay on the
    /// worker owning `cache`: the summed load latencies of the *distinct*
    /// add-on modules its members require that are not resident at batch
    /// start. Read-only (`seen` is caller-provided scratch for the distinct
    /// set); exactly `0.0` with add-ons disabled.
    #[inline]
    fn batch_swap_secs(
        &self,
        cache: Option<&ModuleCache>,
        members: impl Iterator<Item = Option<usize>>,
        seen: &mut Vec<usize>,
    ) -> f64 {
        let (Some(addons), Some(cache)) = (&self.addons, cache) else {
            return 0.0;
        };
        seen.clear();
        let mut secs = 0.0;
        for id in members.flatten() {
            if !cache.contains(id) && !seen.contains(&id) {
                seen.push(id);
                secs += addons.catalog.get(id).load_secs;
            }
        }
        secs
    }

    /// Charges a dispatching batch's module swaps: records in `ledger` one
    /// hit/miss per add-on-carrying member (judged against cache residency
    /// at batch start, with each distinct missing module's load latency
    /// attributed to its first requester), then admits every required
    /// module in member order — hits refresh LRU recency, misses load and
    /// evict.
    /// Returns the total load seconds, bitwise what
    /// [`Kernel::batch_swap_secs`] predicted for the same batch.
    #[inline]
    fn charge_batch_swaps(
        &self,
        tier: usize,
        cache: Option<&mut ModuleCache>,
        ledger: &mut Ledger,
        members: impl Iterator<Item = Option<usize>> + Clone,
        seen: &mut Vec<usize>,
    ) -> f64 {
        let (Some(addons), Some(cache)) = (&self.addons, cache) else {
            return 0.0;
        };
        seen.clear();
        let mut secs = 0.0;
        for id in members.clone().flatten() {
            let hit = cache.contains(id);
            let swap = if !hit && !seen.contains(&id) {
                seen.push(id);
                addons.catalog.get(id).load_secs
            } else {
                0.0
            };
            ledger.addons.record(tier, hit, swap);
            secs += swap;
        }
        for id in members.flatten() {
            cache.admit(id, &addons.catalog);
        }
        secs
    }

    /// The service-time formula: residual stage latency (resumed members
    /// skip their reused steps) plus module loads, all stretched by the
    /// worker's health slowdown — degradation stretches only work actually
    /// run, so the slowdown multiplies after the subtraction.
    #[inline]
    fn service_secs(
        &self,
        tier: usize,
        batch: usize,
        savings: f64,
        swap: f64,
        slowdown: f64,
    ) -> f64 {
        (self.stage_latency(tier, batch) - savings + swap) * slowdown
    }

    /// Read-only service time of a prospective batch on the worker owning
    /// `cache`, at its current health.
    #[inline]
    fn eta_secs<I>(
        &self,
        tier: usize,
        members: I,
        cache: Option<&ModuleCache>,
        slowdown: f64,
        seen: &mut Vec<usize>,
    ) -> f64
    where
        I: ExactSizeIterator<Item = Member> + Clone,
    {
        let batch = members.len();
        let savings = self.batch_resume_savings(tier, members.clone().map(|m| m.resume));
        let swap = self.batch_swap_secs(cache, members.map(|m| m.addon), seen);
        self.service_secs(tier, batch, savings, swap, slowdown)
    }

    /// Charges a dispatching batch's module swaps to `cache` and `ledger`
    /// (see [`Kernel::charge_batch_swaps`]). The batch's service time is
    /// `priced`, what [`Kernel::predicted_misses`] returned for it against
    /// the same cache state: the ETA the drop-front rule judged by and the
    /// time the batch is charged are one number. Returns the load seconds
    /// charged. Debug builds re-price the batch with those swaps and assert
    /// it equals `priced` bit for bit.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn charge_dispatch<I>(
        &self,
        tier: usize,
        members: I,
        cache: Option<&mut ModuleCache>,
        ledger: &mut Ledger,
        slowdown: f64,
        priced: f64,
        seen: &mut Vec<usize>,
    ) -> f64
    where
        I: ExactSizeIterator<Item = Member> + Clone,
    {
        let swap =
            self.charge_batch_swaps(tier, cache, ledger, members.clone().map(|m| m.addon), seen);
        debug_assert_eq!(
            self.service_secs(
                tier,
                members.len(),
                self.batch_resume_savings(tier, members.map(|m| m.resume)),
                swap,
                slowdown,
            )
            .to_bits(),
            priced.to_bits(),
            "a dispatched batch on tier {tier} priced differently from its ETA"
        );
        swap
    }

    /// The drop-front rule (§4.1): how many entries at the front of a
    /// worker's queue cannot finish this stage by their deadline and are
    /// shed, and the service time of the batch that then runs — the first
    /// `batch_max` remaining entries — or `None` when every entry is shed.
    /// The front is dropped while the ETA of that prospective batch
    /// exceeds the front's deadline; every drop re-estimates with the batch
    /// that would actually run. `member(i)` and `deadline(i)` describe
    /// queue entry `i` (0 = front).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn predicted_misses(
        &self,
        tier: usize,
        queued: usize,
        batch_max: usize,
        now: SimTime,
        slowdown: f64,
        cache: Option<&ModuleCache>,
        member: impl Fn(usize) -> Member + Copy,
        deadline: impl Fn(usize) -> SimTime,
        seen: &mut Vec<usize>,
    ) -> (usize, Option<f64>) {
        let mut shed = 0;
        while shed < queued {
            let batch = (queued - shed).min(batch_max);
            let secs = self.eta_secs(
                tier,
                (shed..shed + batch).map(member),
                cache,
                slowdown,
                seen,
            );
            if now + SimDuration::from_secs_f64(secs) > deadline(shed) {
                shed += 1;
            } else {
                return (shed, Some(secs));
            }
        }
        (shed, None)
    }

    /// Dispatches a worker's next batch on `tier` at `now`, from its
    /// `queued` pending queries (`query(i)`, 0 = front) on the worker
    /// owning `cache` at `slowdown`: applies the drop-front rule
    /// (`predicted_misses`), records each shed query in `ledger`,
    /// front first, and charges the swaps of the batch that then runs — the
    /// next `batch_max` at most — once, to `cache` and `ledger`. The batch's
    /// service time is the ETA the drop-front rule judged by. The engine
    /// takes the shed and batched queries off its queue.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn dispatch(
        &self,
        tier: usize,
        queued: usize,
        batch_max: usize,
        now: SimTime,
        slowdown: f64,
        cache: Option<&mut ModuleCache>,
        query: impl Fn(usize) -> Query + Copy,
        ledger: &mut Ledger,
        seen: &mut Vec<usize>,
    ) -> Dispatch {
        let (shed, priced) = self.predicted_misses(
            tier,
            queued,
            batch_max,
            now,
            slowdown,
            cache.as_deref(),
            |i| query(i).member(),
            |i| query(i).deadline,
            seen,
        );
        for q in (0..shed).map(query) {
            ledger.shed(QueryId(q.id), q.arrival, now, tier);
        }
        if let Some(secs) = priced {
            let len = (queued - shed).min(batch_max);
            let members = (shed..shed + len).map(|i| query(i).member());
            self.charge_dispatch(tier, members, cache, ledger, slowdown, secs, seen);
        }
        Dispatch { shed, secs: priced }
    }

    /// Finishes `query`, a member of a batch that ran on `tier`, at `now`:
    /// its boundary verdict (`serve`) under the boundary `thresholds` and
    /// the prompt `difficulty` shift, which trains the pre-execution
    /// `router`. A query that completes goes to `ledger`. One that
    /// escalates is recorded there, takes this tier's denoise progress and
    /// makes this return `true`: the engine routes it to `tier + 1`. With
    /// no alive worker on a deeper tier (`deeper_alive` false) every query
    /// completes here.
    ///
    /// One call per member, not per batch: the simulator routes each
    /// escalation before it finishes the next member, which takes its
    /// whole state between the calls.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn finish(
        &self,
        tier: usize,
        now: SimTime,
        query: &mut Query,
        difficulty: f64,
        thresholds: &[f64],
        deeper_alive: bool,
        router: Option<&mut OnlinePredictiveRouter>,
        ledger: &mut Ledger,
    ) -> bool {
        let verdict = self.serve(
            tier,
            query.id,
            query.prompt,
            difficulty,
            query.resume,
            thresholds,
            router,
            deeper_alive,
        );
        match verdict {
            Verdict::Complete {
                confidence,
                image,
                reused,
            } => {
                ledger.complete(self.response(query, now, image, tier, confidence, reused));
                false
            }
            Verdict::Escalate { confidence, resume } => {
                if resume.is_some() {
                    query.resume = resume;
                }
                ledger.escalate(tier, confidence);
                true
            }
        }
    }

    /// Single-query nameplate GPU-seconds a completion consumed across the
    /// tiers it touched (see [`CompletedResponse::gpu_time`]): every
    /// cascade stage from the query's entry tier through its completion
    /// tier, net of resumed steps at the final tier.
    #[inline]
    fn single_query_gpu_time(&self, entry: usize, tier: usize, reused: u32) -> f64 {
        let model = self.models[tier];
        let own =
            self.stage_latency(tier, 1) - resume_savings(model.latency(), reused, model.steps());
        if self.policy.uses_cascade() && tier > entry {
            // Escalated: the shallower passes and their discriminator
            // scores ran first and their cost is sunk.
            (entry..tier).map(|j| self.stage_latency(j, 1)).sum::<f64>() + own
        } else {
            own
        }
    }

    // --- Generation and the boundary verdict -------------------------------

    /// The prompt served for query `qid` — its explicit payload if one was
    /// submitted, else the dataset's cyclic prompt — with the active
    /// difficulty shift applied.
    #[inline]
    fn served_prompt(&self, qid: u64, explicit: Option<Prompt>, difficulty: f64) -> Prompt {
        explicit
            .unwrap_or_else(|| *self.dataset.prompt_cyclic(qid))
            .harder(difficulty)
    }

    /// Query `qid`'s pass through `tier`: scores the tier's output at its
    /// boundary and decides, producing the output only when the query
    /// completes here or when the score needs it.
    ///
    /// The query escalates when the confidence falls below the boundary's
    /// threshold *and* a deeper tier has an alive worker (`deeper_alive`),
    /// else completes. With the deeper pools wiped out by churn an
    /// escalation would land back on this tier, deterministically
    /// regenerate the same image and bounce forever — serving this output
    /// instead degrades gracefully.
    /// Every verdict, kept or escalated, trains the pre-execution `router`.
    /// The terminal tier and off-cascade policies complete without scoring.
    ///
    /// A resume from carried latents renders the same image as a restart,
    /// at lower service time: every output is bitwise `generate` of the
    /// served prompt. So when the query serves its dataset prompt unshifted
    /// (`explicit` is `None`, `difficulty` is `0.0`), one predicate sends
    /// both reads to the runtime's prepared tables: its confidence is the
    /// score table's entry, its image the render table's row — on every
    /// tier, terminal and off-cascade included, resumed or not — and
    /// nothing is rendered. Any other output (explicit prompts, difficulty
    /// shifts) is rendered and scored, and the one render is what
    /// completes.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn serve(
        &self,
        tier: usize,
        qid: u64,
        explicit: Option<Prompt>,
        difficulty: f64,
        resume: Option<StageState>,
        thresholds: &[f64],
        router: Option<&mut OnlinePredictiveRouter>,
        deeper_alive: bool,
    ) -> Verdict {
        // Built only where it is read: a render, the router, or a debug
        // build's check of a tabled output.
        let prompt = || self.served_prompt(qid, explicit, difficulty);
        let reused = self.reused_steps(tier, resume);
        let row = (explicit.is_none() && difficulty == 0.0)
            .then(|| (qid % self.dataset.len() as u64) as usize);
        let disc = match self.discriminators.get(tier) {
            Some(d) if self.policy.uses_cascade() => d,
            _ => {
                return Verdict::Complete {
                    confidence: None,
                    image: self.output(tier, row, prompt),
                    reused,
                }
            }
        };
        let (confidence, image) = match row {
            Some(i) => {
                let confidence = self.scores[tier][i];
                // The score table's twin: the boundary's confidence in the
                // tabled render, bit for bit.
                #[cfg(debug_assertions)]
                assert_eq!(
                    confidence.to_bits(),
                    disc.confidence(&self.renders[tier].image(i).features)
                        .to_bits(),
                    "score table diverged at tier {tier} row {i}"
                );
                (confidence, None)
            }
            None => {
                let image = self.models[tier].generate(&prompt());
                (disc.confidence(&image.features), Some(image.into()))
            }
        };
        let escalate = confidence < thresholds[tier] && deeper_alive;
        if let Some(r) = router {
            r.observe(tier, &prompt(), escalate);
        }
        if escalate {
            Verdict::Escalate {
                confidence,
                resume: self
                    .resume
                    .then(|| StageState::completed(self.models[tier].steps())),
            }
        } else {
            Verdict::Complete {
                confidence: Some(confidence),
                image: image.unwrap_or_else(|| self.output(tier, row, prompt)),
                reused,
            }
        }
    }

    /// Tier `tier`'s output for the served `prompt`: row `row` of its
    /// render table when [`Kernel::serve`]'s predicate picked one, else a
    /// render copied in.
    ///
    /// Debug builds render a tabled output too and assert that the row is
    /// that render bit for bit, so a debug test run still generates every
    /// completion and a stale table fails loudly instead of serving.
    #[inline]
    fn output(
        &self,
        tier: usize,
        row: Option<usize>,
        prompt: impl FnOnce() -> Prompt,
    ) -> ServedImage {
        let Some(i) = row else {
            return self.models[tier].generate(&prompt()).into();
        };
        let image = self.renders[tier].image(i);
        #[cfg(debug_assertions)]
        {
            let fresh = self.models[tier].generate(&prompt());
            let bits =
                |features: &[f64]| -> Vec<u64> { features.iter().map(|f| f.to_bits()).collect() };
            assert_eq!(
                bits(&image.features),
                bits(&fresh.features),
                "tier {tier} row {i} features"
            );
            assert_eq!(
                image.quality.to_bits(),
                fresh.quality.to_bits(),
                "tier {tier} row {i} quality"
            );
        }
        image
    }

    /// Assembles the response for `query` completing at `tier` at
    /// `completion`.
    #[inline]
    fn response(
        &self,
        query: &Query,
        completion: SimTime,
        image: ServedImage,
        tier: usize,
        confidence: Option<f64>,
        reused: u32,
    ) -> CompletedResponse {
        CompletedResponse {
            id: QueryId(query.id),
            arrival: query.arrival,
            completion,
            features: image.features,
            quality: image.quality,
            tier,
            confidence,
            gpu_time: self.single_query_gpu_time(query.entry, tier, reused),
            reused_steps: reused,
        }
    }

    // --- Routing -------------------------------------------------------------

    /// The load the router ranks a worker by: its `queued` queries plus
    /// the `in_service` members of the batch it is executing, *plus the
    /// arriving query*, weighted by the health slowdown. Counting the
    /// arrival matters — a straggler with an empty queue would otherwise
    /// score `0 × slowdown = 0`, indistinguishable from an idle healthy
    /// worker. On a healthy fleet `(load + 1) × 1.0` ranks workers exactly
    /// like the raw load. The health-blind ablation ranks by raw count.
    #[inline]
    pub fn routing_load(&self, queued: usize, in_service: usize, slowdown: f64) -> f64 {
        let load = queued + in_service;
        if self.health_blind {
            load as f64
        } else {
            (load + 1) as f64 * slowdown
        }
    }

    /// The affinity term for a query requiring `addon` bound for `tier`:
    /// the module id and the score penalty a worker *without* it resident
    /// pays — the module's load latency in units of the tier's single-query
    /// service time, so a cached replica slightly deeper in queue beats an
    /// idle worker that must swap. `None` (plain load ranking) when add-ons
    /// are off, the query carries none, or under the affinity-blind
    /// ablation.
    #[inline]
    pub fn miss_penalty(&self, tier: usize, addon: Option<usize>) -> Option<(usize, f64)> {
        let addons = self.addons.as_ref()?;
        let id = addon?;
        if self.affinity_blind {
            return None;
        }
        Some((
            id,
            addons.catalog.get(id).load_secs / self.stage_latency(tier, 1),
        ))
    }

    /// Admits `query`, arriving at `at`: draws the tier it enters at into
    /// `query.entry`, records the arrival in `ledger` with whether it counts
    /// as demand on the deeper pools (the controller's heavy-arrival
    /// signal), and returns that tier. Clipper pins one end of the ladder;
    /// Proteus draws the terminal tier with probability `thresholds[0]`,
    /// the heavy fraction its plan carries in the first threshold slot; the
    /// cascade policies enter at tier 0 unless the predictive `router` skips
    /// ahead. The router is ignored while `bypass_suspended` — under the
    /// overload fallback every arrival must enter where the floored
    /// thresholds can shed it. The router predicts from the prompt the
    /// tiers will serve: the query's, shifted by `difficulty`.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn arrive(
        &self,
        query: &mut Query,
        at: SimTime,
        difficulty: f64,
        thresholds: &[f64],
        rng: &mut impl Rng,
        router: Option<&OnlinePredictiveRouter>,
        bypass_suspended: bool,
        ledger: &mut Ledger,
    ) -> usize {
        let last = self.models.len() - 1;
        let (tier, deep_demand) = match self.policy {
            Policy::ClipperLight => (0, false),
            Policy::ClipperHeavy => (last, false),
            Policy::Proteus => {
                if rng.gen_range(0.0..1.0) < thresholds[0] {
                    (last, true)
                } else {
                    (0, false)
                }
            }
            Policy::DiffServeStatic | Policy::DiffServe => match router {
                Some(r) if !bypass_suspended => {
                    let tier =
                        r.entry_tier(&self.served_prompt(query.id, query.prompt, difficulty));
                    (tier, tier > 0)
                }
                _ => (0, false),
            },
        };
        ledger.arrive(at, tier, deep_demand);
        query.entry = tier;
        tier
    }
}

/// Where an alive worker stands on the router's candidate ladder for a
/// query bound for some tier, best first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rung {
    /// Hosts the tier and is not switching away.
    Ready,
    /// Switching toward the tier: still loading its model.
    Switching,
    /// Any other alive worker, eligible only while the tier has none
    /// (unstaffed, mid-reconfiguration or wiped out by churn).
    Fallback,
}

impl Rung {
    /// The rung, for a query bound for `tier`, of a worker assigned to
    /// `target` that has (`ready`) or has not yet loaded that tier's model.
    #[inline]
    pub fn of(tier: usize, target: usize, ready: bool) -> Rung {
        match (target == tier, ready) {
            (true, true) => Rung::Ready,
            (true, false) => Rung::Switching,
            _ => Rung::Fallback,
        }
    }
}

/// One alive worker as the router ranks it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The worker's index.
    pub worker: usize,
    /// Its rung on the candidate ladder.
    pub rung: Rung,
    /// Its [`Kernel::routing_load`].
    pub load: f64,
    /// The [`Kernel::miss_penalty`] it pays for lacking the query's
    /// add-on module, else `0.0`.
    pub miss: f64,
}

/// The router's pick: the first non-empty rung's minimum by
/// `(load + miss, load, worker)`. A cached replica slightly deeper in queue
/// beats an idle worker that must swap, an exact score tie goes to the
/// lower load, and a load tie to the lower index. Both engines route
/// every query by this rule; the simulator answers it from its load index
/// and debug builds compare every answer with this scan. `None` with no
/// candidate. Loads are finite and non-negative.
pub fn pick_worker(candidates: impl IntoIterator<Item = Candidate>) -> Option<usize> {
    let rank = |c: &Candidate| (c.rung, c.load + c.miss, c.load, c.worker);
    let mut best: Option<Candidate> = None;
    for c in candidates {
        if best.is_none_or(|b| rank(&c) < rank(&b)) {
            best = Some(c);
        }
    }
    best.map(|c| c.worker)
}

/// Takes over into `batches` the batch each tier's workers run under
/// `plan`: its planned batch, at least 1. Both engines keep this vector
/// from the plan they adopt and read a worker's batch from it when the
/// worker dispatches, so a new plan takes effect at each worker's next
/// batch.
pub fn adopt_batches(batches: &mut Vec<usize>, plan: &LadderAllocation) {
    batches.clear();
    batches.extend(plan.batches.iter().map(|&b| b.max(1)));
}

/// Per-tier worker targets for a fleet of `alive` workers under a plan
/// asking for `planned[t]` workers on tier `t`: spare alive workers join
/// the entry tier, and an over-subscribed plan is cut from the deep end.
/// The targets always sum to `alive`.
pub fn worker_targets(planned: &[usize], alive: usize) -> Vec<usize> {
    let mut targets = planned.to_vec();
    let total: usize = planned.iter().sum();
    targets[0] += alive.saturating_sub(total);
    let mut excess = total.saturating_sub(alive);
    for t in targets.iter_mut().rev() {
        let cut = excess.min(*t);
        *t -= cut;
        excess -= cut;
    }
    targets
}

/// The worker → tier moves that bring the alive fleet to the per-tier
/// `targets` of [`worker_targets`], in the order an engine applies them.
///
/// The fleet is described tier by tier: `current(t)` counts the alive
/// workers that host tier `t` or are switching to it, and `members(t)`
/// lists them as `(load, index)`, the load being their queued plus
/// in-service queries. `members` is asked only of tiers over their target,
/// so an engine with a per-tier index pays for the tiers that give workers
/// up and no more.
///
/// Donors are each surplus tier's least-loaded surplus by `(load, index)`,
/// in tier order; they fill the deficit tiers in tier order. Workers a
/// tier keeps never move, so the moves number exactly the surplus. A fresh
/// fleet starts idle on the terminal tier, so its bootstrap moves place it
/// positionally: the terminal tier keeps the highest indices and gives up
/// the rest to tiers `0, 1, …` in turn. Both engines call this at
/// bootstrap and on every plan, and a moved worker pays its engine's model
/// switch.
///
/// The one hand-back rule: when a plan moves a worker, and when a worker
/// fail-stops, every query queued on it goes, oldest first, to the tier it
/// leaves — its target before the move or the failure — and the engine
/// routes it there with the worker already out of that tier's pool. That
/// is each query's own tier unless a [`Rung::Fallback`] pick placed it on
/// the worker while its tier had no alive worker; it then goes where the
/// worker's other queries go, so no [`Query`] carries the tier it was
/// routed to. Both engines hand a moved worker's queue back at the control
/// tick that moves it, so a query routed to it on the [`Rung::Switching`]
/// rung afterwards waits for the switch and is served at its new tier.
pub fn worker_moves<M>(
    current: impl Fn(usize) -> usize,
    targets: &[usize],
    mut members: impl FnMut(usize) -> M,
) -> Vec<(usize, usize)>
where
    M: IntoIterator<Item = (usize, usize)>,
{
    let mut donors: Vec<(usize, usize)> = Vec::new();
    for (t, &target) in targets.iter().enumerate() {
        if current(t) <= target {
            continue;
        }
        let from = donors.len();
        donors.reserve(current(t));
        // Folded, not `extend`ed: an engine may list members through nested
        // adaptors, which external iteration walks several times slower.
        members(t).into_iter().for_each(|m| donors.push(m));
        donors[from..].sort_unstable();
        donors.truncate(from + current(t) - target);
    }
    let deficits = targets
        .iter()
        .enumerate()
        .flat_map(|(t, &target)| std::iter::repeat_n(t, target.saturating_sub(current(t))));
    donors.into_iter().map(|(_, w)| w).zip(deficits).collect()
}

/// The workers a capacity event applies to, in the order the engines apply
/// it, given each worker's `(failed, degraded)` state:
///
/// * `Fail`: the highest-indexed alive workers, highest first, clamped so
///   two stay alive;
/// * `Recover`: the lowest-indexed failed workers;
/// * `Degrade`: the lowest-indexed healthy alive workers;
/// * `Restore`: the lowest-indexed degraded alive workers.
///
/// Each is clamped to its eligible set, so the result may be shorter than
/// the event's count (or empty); the engines log the event with the
/// returned length as its count.
pub fn capacity_targets(event: CapacityEvent, workers: &[(bool, bool)]) -> Vec<usize> {
    let lowest = |count: usize, eligible: fn(bool, bool) -> bool| -> Vec<usize> {
        (0..workers.len())
            .filter(|&i| eligible(workers[i].0, workers[i].1))
            .take(count)
            .collect()
    };
    match event {
        CapacityEvent::Fail(count) => {
            let alive = workers.iter().filter(|&&(failed, _)| !failed).count();
            (0..workers.len())
                .rev()
                .filter(|&i| !workers[i].0)
                .take(count.min(alive.saturating_sub(2)))
                .collect()
        }
        CapacityEvent::Recover(count) => lowest(count, |failed, _| failed),
        CapacityEvent::Degrade(count, _) => lowest(count, |failed, degraded| !failed && !degraded),
        CapacityEvent::Restore(count) => lowest(count, |failed, degraded| !failed && degraded),
    }
}

/// What an engine logs after applying `event` to `applied` workers: the
/// event with its count replaced, or `None` when nothing applied.
pub fn applied_capacity_event(event: CapacityEvent, applied: usize) -> Option<ScenarioEvent> {
    let event = match event {
        CapacityEvent::Fail(_) => CapacityEvent::Fail(applied),
        CapacityEvent::Recover(_) => CapacityEvent::Recover(applied),
        CapacityEvent::Degrade(_, slowdown) => CapacityEvent::Degrade(applied, slowdown),
        CapacityEvent::Restore(_) => CapacityEvent::Restore(applied),
    };
    (applied > 0).then_some(ScenarioEvent::Capacity(event))
}

/// What a [`FleetTally`] reads of one alive worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerState {
    /// The tier it hosts or is switching to.
    pub tier: usize,
    /// Queries queued on it (the batch in service excluded).
    pub queued: usize,
    /// Executing a batch or loading a model.
    pub busy: bool,
    /// Its health speed factor (1.0 = nameplate).
    pub speed_factor: f64,
}

/// A point-in-time tally of a fleet, gathered by one pass over the
/// engine's workers: per-tier alive workers, queue depths and busy counts,
/// the failed and degraded counts, and the effective capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetTally {
    /// Alive workers assigned (or switching) to each tier.
    pub tier_workers: Vec<usize>,
    /// Queries queued on each tier's alive workers.
    pub tier_queues: Vec<usize>,
    /// Alive workers per tier currently executing (or loading a model).
    pub tier_busy: Vec<usize>,
    /// Fail-stopped workers.
    pub failed: usize,
    /// Alive workers running below nameplate speed.
    pub degraded: usize,
    /// Sum of the alive workers' speed factors, in worker order.
    pub effective_capacity: f64,
}

impl FleetTally {
    /// An empty tally over `num_tiers` tiers.
    pub fn new(num_tiers: usize) -> Self {
        FleetTally {
            tier_workers: vec![0; num_tiers],
            tier_queues: vec![0; num_tiers],
            tier_busy: vec![0; num_tiers],
            failed: 0,
            degraded: 0,
            effective_capacity: 0.0,
        }
    }

    /// A tally over `num_tiers` tiers of `workers` (see [`FleetTally::fill`]).
    pub fn of(num_tiers: usize, workers: impl IntoIterator<Item = Option<WorkerState>>) -> Self {
        let mut fleet = FleetTally::new(num_tiers);
        fleet.fill(workers);
        fleet
    }

    /// Re-tallies the same tiers from one pass over an engine's workers,
    /// in worker order, keeping the tally's vectors: `None` is a
    /// fail-stopped worker.
    pub fn fill(&mut self, workers: impl IntoIterator<Item = Option<WorkerState>>) {
        self.tier_workers.fill(0);
        self.tier_queues.fill(0);
        self.tier_busy.fill(0);
        self.failed = 0;
        self.degraded = 0;
        self.effective_capacity = 0.0;
        for worker in workers {
            let Some(w) = worker else {
                self.failed += 1;
                continue;
            };
            self.tier_workers[w.tier] += 1;
            self.tier_queues[w.tier] += w.queued;
            self.tier_busy[w.tier] += usize::from(w.busy);
            self.degraded += usize::from(w.speed_factor < 1.0);
            self.effective_capacity += w.speed_factor;
        }
    }

    /// Alive workers across all tiers.
    pub fn alive(&self) -> usize {
        self.tier_workers.iter().sum()
    }

    /// Busy fraction of the alive fleet (`0.0` with nobody alive).
    pub fn utilization(&self) -> f64 {
        match self.alive() {
            0 => 0.0,
            alive => self.tier_busy.iter().sum::<usize>() as f64 / alive as f64,
        }
    }

    /// The counts hazard draws and perturbation checks condition on.
    pub fn health(&self) -> FleetHealth {
        FleetHealth {
            alive: self.alive(),
            failed: self.failed,
            degraded: self.degraded,
        }
    }
}

/// What the ledger counts between two control ticks.
#[derive(Debug, Default)]
struct TickWindow {
    arrivals: u64,
    heavy_arrivals: u64,
    /// SLO violations (sheds and late completions) attributed to each
    /// tier that was serving the query (length N).
    violations: Vec<u64>,
    confidences: Vec<f64>,
    /// Boundary ≥ 1 confidence streams (`[k]` holds boundary `k + 1`).
    deep_confidences: Vec<Vec<f64>>,
    /// Queries admitted directly at each tier; empty unless tracked.
    tier_direct: Vec<u64>,
}

impl TickWindow {
    /// Adds a confidence scored at boundary `tier → tier + 1`.
    fn confidence(&mut self, tier: usize, confidence: f64) {
        match tier {
            0 => self.confidences.push(confidence),
            _ => self.deep_confidences[tier - 1].push(confidence),
        }
    }
}

/// Number of most-recent responses the snapshots' rolling FID estimate is
/// fit on.
const FID_ESTIMATE_TAIL: usize = 256;

/// Ridge added to the rolling window's covariance diagonal; matches the
/// regularization the report's windowed FID series uses for small windows.
const FID_ESTIMATE_RIDGE: f64 = 1e-3;

/// A session's one record of what happened, written once by either engine
/// where it happens and read by the control tick ([`Ledger::observe`]), the
/// live snapshot ([`Ledger::snapshot`]) and the final report
/// ([`Ledger::close`]).
///
/// It keeps the SLO tracker, the per-window violation counts, the streamed
/// totals the report is assembled from, the ring behind the snapshots'
/// rolling FID estimate and the outcomes awaiting the next poll; the tick
/// window of arrivals, violations and boundary confidences; the demand and
/// threshold series; the incident log; the add-on cache accounting; and
/// the per-boundary escalation counts. A completion's feature row is read
/// twice here (into its moment cell and into the ring) and never again, so
/// neither a snapshot nor the report costs anything per response.
#[derive(Debug)]
pub struct Ledger {
    slo: SloTracker,
    violations: ViolationWindows,
    totals: CompletionTotals,
    rolling_fid: RollingFid,
    /// Outcomes recorded since the last drain, in recording order. `None`
    /// on a session that is never polled (the batch entry points), which
    /// then keeps no outcome at all.
    undrained: Option<Vec<QueryOutcome>>,
    window: TickWindow,
    demand: WindowedSeries,
    thresholds: WindowedSeries,
    incidents: IncidentLog,
    addons: AddonStats,
    /// `[k]` counts the tier `k` → `k + 1` hand-offs.
    escalations: Vec<u64>,
}

impl Ledger {
    /// An empty ledger for a `num_tiers` ladder under the configured SLO,
    /// windowed by [`METRICS_WINDOW`] and scoring against the FID
    /// reference. Per-tier direct admissions are counted only with
    /// `track_direct`, where a predictive router can produce them.
    pub fn new(
        config: &SystemConfig,
        reference: &GaussianStats,
        num_tiers: usize,
        track_direct: bool,
    ) -> Self {
        Ledger {
            slo: SloTracker::new(config.slo),
            violations: ViolationWindows::new(METRICS_WINDOW),
            totals: CompletionTotals::new(reference),
            rolling_fid: RollingFid::new(reference.clone(), FID_ESTIMATE_TAIL, FID_ESTIMATE_RIDGE),
            undrained: Some(Vec::new()),
            window: TickWindow {
                violations: vec![0; num_tiers],
                deep_confidences: vec![Vec::new(); num_tiers.saturating_sub(2)],
                tier_direct: vec![0; if track_direct { num_tiers } else { 0 }],
                ..TickWindow::default()
            },
            demand: WindowedSeries::new(METRICS_WINDOW),
            thresholds: WindowedSeries::new(METRICS_WINDOW),
            incidents: Vec::new(),
            addons: AddonStats::default(),
            escalations: vec![0; num_tiers.saturating_sub(1)],
        }
    }

    /// Stops keeping outcomes for [`Ledger::drain`]: for sessions whose
    /// driver never polls.
    pub(crate) fn discard_outcomes(&mut self) {
        self.undrained = None;
    }

    /// Records an arrival at `at` admitted at `tier`, counting as demand on
    /// the deeper pools when `deep_demand` (see [`Kernel::arrive`]).
    #[inline]
    pub(crate) fn arrive(&mut self, at: SimTime, tier: usize, deep_demand: bool) {
        self.demand.push(at, 1.0);
        self.window.arrivals += 1;
        self.window.heavy_arrivals += u64::from(deep_demand);
        if let Some(c) = self.window.tier_direct.get_mut(tier) {
            *c += 1;
        }
    }

    /// Records a completion: late when its latency is over the SLO, which
    /// counts as a violation of its tier in the tick window, as does its
    /// boundary confidence when one was scored. An explicit deadline moves
    /// only the drop-front rule.
    #[inline]
    pub(crate) fn complete(&mut self, response: CompletedResponse) {
        let late = self
            .slo
            .record_completion(response.arrival, response.completion)
            .is_violation();
        self.violations.record(response.completion, late);
        if let Some(confidence) = response.confidence {
            self.window.confidence(response.tier, confidence);
        }
        if late {
            self.window.violations[response.tier] += 1;
        }
        self.rolling_fid.push(&response.features);
        self.totals.record(&response);
        if let Some(undrained) = &mut self.undrained {
            undrained.push(QueryOutcome::Completed(response));
        }
    }

    /// Records a query handed from `tier` to the next at boundary
    /// `confidence`: demand on the deeper pools and one escalation.
    #[inline]
    fn escalate(&mut self, tier: usize, confidence: f64) {
        self.window.confidence(tier, confidence);
        self.window.heavy_arrivals += 1;
        self.escalations[tier] += 1;
    }

    /// Records a query the drop-front rule shed at `at` from `tier`: a drop,
    /// and a violation of that tier in the tick window.
    #[inline]
    fn shed(&mut self, id: QueryId, arrival: SimTime, at: SimTime, tier: usize) {
        self.drop_query(id, arrival, at);
        self.window.violations[tier] += 1;
    }

    /// Records a query dropped at `at`: one the horizon left unfinished
    /// ([`Ledger::close`]), of which no tick window hears, or a shed.
    #[inline]
    pub(crate) fn drop_query(&mut self, id: QueryId, arrival: SimTime, at: SimTime) {
        self.slo.record_drop();
        self.violations.record(at, true);
        if let Some(undrained) = &mut self.undrained {
            undrained.push(QueryOutcome::Dropped { id, arrival, at });
        }
    }

    /// Closes a session of `policy` that took `submitted` queries at
    /// `horizon`: records every query in `unfinished` (its id and arrival)
    /// as dropped at the horizon, in the order given, and assembles the
    /// [`RunReport`] with the controller's `deferral_errors`. Debug builds
    /// assert that every submitted query then has exactly one record.
    pub fn close(
        &mut self,
        policy: Policy,
        submitted: u64,
        unfinished: impl IntoIterator<Item = (QueryId, SimTime)>,
        horizon: SimTime,
        deferral_errors: Vec<(f64, f64)>,
    ) -> RunReport {
        for (id, arrival) in unfinished {
            self.drop_query(id, arrival, horizon);
        }
        debug_assert_eq!(
            self.slo.total(),
            submitted,
            "every submitted query has exactly one ledger record"
        );
        RunReport::assemble(policy, submitted, self, horizon, deferral_errors)
    }

    /// Records the entry-boundary threshold in force after the control tick
    /// at `now`.
    pub fn record_threshold(&mut self, now: SimTime, threshold: f64) {
        self.thresholds.push(now, threshold);
    }

    /// Records a perturbation as it was applied.
    pub fn record_incident(&mut self, incident: Incident) {
        self.incidents.push(incident);
    }

    /// Drains the tick window into `obs`, the [`ControlObservation`] for a
    /// tick at `now` over the given fleet; `batches` are the adopted
    /// plan's per-tier batches (see [`adopt_batches`]), of which the
    /// controller is told the entry and terminal tiers'.
    ///
    /// Every field of `obs` is overwritten, and its vectors are reused: a
    /// confidence stream trades buffers with the window, which starts the
    /// next one empty in the buffer the observation held. An engine that
    /// keeps one observation from tick to tick allocates nothing here once
    /// its windows stop growing.
    pub fn observe(
        &mut self,
        obs: &mut ControlObservation,
        now: SimTime,
        fleet: &FleetTally,
        batches: &[usize],
    ) {
        /// Moves the window's `stream` into `into`, leaving `stream` the
        /// (emptied) buffer `into` held.
        fn trade(into: &mut Vec<f64>, stream: &mut Vec<f64>) {
            into.clear();
            std::mem::swap(into, stream);
        }
        let window = &mut self.window;
        obs.now = now;
        obs.arrivals = std::mem::take(&mut window.arrivals);
        obs.heavy_arrivals = std::mem::take(&mut window.heavy_arrivals);
        obs.tier_violations.clone_from(&window.violations);
        window.violations.fill(0);
        obs.alive_workers = fleet.alive();
        obs.effective_capacity = fleet.effective_capacity;
        obs.current_light_batch = batches[0];
        obs.current_heavy_batch = batches[batches.len() - 1];
        trade(&mut obs.confidences, &mut window.confidences);
        obs.tier_queues.clone_from(&fleet.tier_queues);
        obs.deep_confidences
            .resize_with(window.deep_confidences.len(), Vec::new);
        for (into, stream) in obs
            .deep_confidences
            .iter_mut()
            .zip(&mut window.deep_confidences)
        {
            trade(into, stream);
        }
        obs.tier_direct_arrivals.clone_from(&window.tier_direct);
        window.tier_direct.fill(0);
    }

    /// Makes room for `additional` more outcomes awaiting a poll, so that
    /// recording them does not grow the buffer.
    pub fn reserve_outcomes(&mut self, additional: usize) {
        if let Some(undrained) = &mut self.undrained {
            undrained.reserve(additional);
        }
    }

    /// Hands over the outcomes recorded since the last call, in recording
    /// order, and forgets them.
    pub fn drain(&mut self) -> Vec<QueryOutcome> {
        self.undrained
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// A live [`SessionSnapshot`] at `now` of a session that has taken
    /// `submitted` queries, over its fleet and the thresholds in force.
    pub fn snapshot(
        &self,
        now: SimTime,
        fleet: FleetTally,
        thresholds: Vec<f64>,
        submitted: u64,
        deferral_gap: f64,
    ) -> SessionSnapshot {
        let completions = self.totals.completions();
        SessionSnapshot {
            now,
            failed_workers: fleet.failed,
            degraded_workers: fleet.degraded,
            submitted,
            completed: self.slo.on_time() + self.slo.late(),
            dropped: self.slo.dropped(),
            heavy_fraction: if completions == 0 {
                0.0
            } else {
                self.totals.heavy() as f64 / completions as f64
            },
            fid_estimate: self.rolling_fid.estimate(),
            deferral_gap,
            resumed_completions: self.totals.resumed(),
            addon_stats: self.addons,
            tier_workers: fleet.tier_workers,
            tier_queues: fleet.tier_queues,
            tier_busy: fleet.tier_busy,
            tier_escalations: self.escalations.clone(),
            thresholds,
        }
    }

    /// The SLO tracker.
    pub fn slo(&self) -> &SloTracker {
        &self.slo
    }

    /// Outcome counts per metrics window.
    pub fn violations(&self) -> &ViolationWindows {
        &self.violations
    }

    /// What the final report derives from the completions.
    pub fn totals(&self) -> &CompletionTotals {
        &self.totals
    }

    /// Arrivals over time.
    pub(crate) fn demand(&self) -> &WindowedSeries {
        &self.demand
    }

    /// The entry-boundary threshold over time, one push per control tick.
    pub(crate) fn thresholds(&self) -> &WindowedSeries {
        &self.thresholds
    }

    /// Every perturbation applied, in firing order.
    pub(crate) fn incidents(&self) -> &IncidentLog {
        &self.incidents
    }

    /// Per-tier add-on module-cache accounting.
    pub(crate) fn addon_stats(&self) -> AddonStats {
        self.addons
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use diffserve_imagegen::{cascade1, ladder3, DiscriminatorConfig, FeatureSpec};
    use std::sync::OnceLock;

    /// A small 3-tier runtime: the kernel only reads its latency profiles,
    /// step counts and discriminator latencies here.
    fn runtime() -> &'static CascadeRuntime {
        static RT: OnceLock<CascadeRuntime> = OnceLock::new();
        RT.get_or_init(|| {
            CascadeRuntime::prepare_ladder(
                ladder3(FeatureSpec::default()),
                300,
                7,
                DiscriminatorConfig {
                    train_prompts: 100,
                    epochs: 2,
                    ..Default::default()
                },
            )
        })
    }

    fn settings() -> RunSettings {
        RunSettings::new(Policy::DiffServe, 8.0)
    }

    /// Resume and add-ons both on.
    fn full_config() -> SystemConfig {
        SystemConfig {
            resume_from_latents: true,
            addons: Some(AddonsConfig::demo(11)),
            ..Default::default()
        }
    }

    /// Decodes a drawn `(resume code, add-on code)` pair: code 0 is "none",
    /// resume code `k` carries tier `k − 1`'s finished schedule, add-on
    /// code `k` requires module `k − 1`.
    fn member(kernel: &Kernel<'_>, (resume, addon): (usize, usize)) -> Member {
        Member {
            resume: resume
                .checked_sub(1)
                .map(|t| StageState::completed(kernel.model(t).steps())),
            addon: addon.checked_sub(1),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// (a) The invariant both engines rely on: for any tier, batch,
        /// cache residency and slowdown, the drop-front rule prices the
        /// batch it keeps at its read-only ETA, and dispatch charges
        /// exactly the swaps that ETA counted — so the time a batch is
        /// charged is its ETA bit for bit (debug builds re-price the
        /// charged batch inside `charge_dispatch` as well).
        #[test]
        fn eta_equals_the_service_time_charged_at_dispatch(
            tier in 0usize..3,
            drawn in proptest::collection::vec((0usize..3, 0usize..9), 1..17),
            resident in proptest::collection::vec(0usize..8, 0..6),
            slowdown_tenths in 10u32..40,
        ) {
            let config = full_config();
            let kernel = Kernel::new(runtime(), &config, &settings());
            let addons = config.addons.as_ref().expect("add-ons on");
            let members: Vec<Member> = drawn.iter().map(|&d| member(&kernel, d)).collect();
            let mut cache = ModuleCache::new(addons.cache_mem_mb);
            for &id in &resident {
                cache.admit(id, &addons.catalog);
            }
            let slowdown = f64::from(slowdown_tenths) / 10.0;
            let mut seen = Vec::new();
            let mut ledger = Ledger::new(&config, &runtime().reference, 3, false);
            let eta = kernel.eta_secs(
                tier,
                members.iter().copied(),
                Some(&cache),
                slowdown,
                &mut seen,
            );
            let (shed, priced) = kernel.predicted_misses(
                tier,
                members.len(),
                members.len(),
                SimTime::ZERO,
                slowdown,
                Some(&cache),
                |i| members[i],
                |_| SimTime::from_secs(1_000_000),
                &mut seen,
            );
            proptest::prop_assert_eq!((shed, priced.map(f64::to_bits)), (0, Some(eta.to_bits())));
            let swap = kernel.batch_swap_secs(
                Some(&cache),
                members.iter().map(|m| m.addon),
                &mut seen,
            );
            let charged = kernel.charge_dispatch(
                tier,
                members.iter().copied(),
                Some(&mut cache),
                &mut ledger,
                slowdown,
                eta,
                &mut seen,
            );
            proptest::prop_assert_eq!(swap.to_bits(), charged.to_bits());
            // Dispatch records exactly one lookup per add-on-carrying member.
            let carrying = members.iter().filter(|m| m.addon.is_some()).count() as u64;
            proptest::prop_assert_eq!(ledger.addons.total_lookups(), carrying);
        }

        /// (c) Resume off and add-ons off: whatever state the members
        /// carry, the service time is bitwise `stage_latency × slowdown`.
        #[test]
        fn restart_mode_without_addons_is_the_bare_stage_latency(
            tier in 0usize..3,
            drawn in proptest::collection::vec((0usize..3, 0usize..9), 1..17),
            slowdown_tenths in 10u32..40,
        ) {
            let config = SystemConfig::default();
            let kernel = Kernel::new(runtime(), &config, &settings());
            let members: Vec<Member> = drawn.iter().map(|&d| member(&kernel, d)).collect();
            let slowdown = f64::from(slowdown_tenths) / 10.0;
            let mut seen = Vec::new();
            let mut ledger = Ledger::new(&config, &runtime().reference, 3, false);
            let bare = kernel.stage_latency(tier, members.len()) * slowdown;
            let eta = kernel.eta_secs(tier, members.iter().copied(), None, slowdown, &mut seen);
            let swap = kernel.charge_dispatch(
                tier,
                members.iter().copied(),
                None,
                &mut ledger,
                slowdown,
                bare,
                &mut seen,
            );
            proptest::prop_assert_eq!(eta.to_bits(), bare.to_bits());
            proptest::prop_assert_eq!(swap, 0.0);
            proptest::prop_assert_eq!(ledger.addons, AddonStats::default());
        }
    }

    /// Query `id` of a drawn batch: it arrived at zero, is due `due` after
    /// `now`, and carries the drawn `(resume, add-on)` member codes.
    fn drawn_query(kernel: &Kernel<'_>, id: u64, codes: (usize, usize), due: SimDuration) -> Query {
        let Member { resume, addon } = member(kernel, codes);
        let spec = QuerySpec {
            deadline: Some(SimTime::from_secs(100) + due),
            resume_from: resume,
            addon,
            ..QuerySpec::default()
        };
        Query::new(id, SimTime::ZERO, &spec, SimDuration::ZERO)
    }

    /// The ids and tiers of the completions `ledger` recorded since its
    /// last drain, in order; a drop fails the test.
    fn completed(ledger: &mut Ledger) -> Vec<(u64, usize)> {
        let completed = ledger.drain().into_iter().map(|outcome| match outcome {
            QueryOutcome::Completed(r) => (r.id.0, r.tier),
            dropped => panic!("no query may be dropped: {dropped:?}"),
        });
        completed.collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// `dispatch` is the drop-front rule, its sheds and one swap
        /// charge: it records the queries `predicted_misses` sheds, front
        /// first, as drops at `now` on this tier, then charges the batch
        /// that runs exactly as one `charge_dispatch` would — one lookup
        /// per add-on-carrying member, the same cache afterwards — and
        /// returns the seconds `predicted_misses` priced it at, bit for
        /// bit. Deadlines from 0 to 4 s shed some fronts.
        #[test]
        fn dispatch_sheds_in_queue_order_then_charges_the_batch_once(
            tier in 0usize..3,
            drawn in proptest::collection::vec((0usize..3, 0usize..9, 0u64..40), 1..17),
            batch_max in 1usize..6,
            resident in proptest::collection::vec(0usize..8, 0..6),
            slowdown_tenths in 10u32..40,
        ) {
            let config = full_config();
            let kernel = Kernel::new(runtime(), &config, &settings());
            let addons = config.addons.as_ref().expect("add-ons on");
            let queries: Vec<Query> = (drawn.iter().enumerate())
                .map(|(i, &(r, a, tenths))| {
                    drawn_query(&kernel, i as u64, (r, a), SimDuration::from_millis(100 * tenths))
                })
                .collect();
            let mut cache = ModuleCache::new(addons.cache_mem_mb);
            for &id in &resident {
                cache.admit(id, &addons.catalog);
            }
            let mut charged = cache.clone();
            let (now, slowdown) = (SimTime::from_secs(100), f64::from(slowdown_tenths) / 10.0);
            let mut seen = Vec::new();
            let (shed, priced) = kernel.predicted_misses(
                tier,
                queries.len(),
                batch_max,
                now,
                slowdown,
                Some(&cache),
                |i| queries[i].member(),
                |i| queries[i].deadline,
                &mut seen,
            );
            let mut ledger = Ledger::new(&config, &runtime().reference, 3, false);
            let dispatch = kernel.dispatch(
                tier,
                queries.len(),
                batch_max,
                now,
                slowdown,
                Some(&mut cache),
                |i| queries[i],
                &mut ledger,
                &mut seen,
            );
            let len = (queries.len() - shed).min(batch_max);
            proptest::prop_assert_eq!(dispatch.shed, shed);
            proptest::prop_assert_eq!(
                dispatch.secs.map(f64::to_bits),
                priced.map(f64::to_bits)
            );
            let sheds: Vec<QueryOutcome> = (queries[..shed].iter())
                .map(|q| QueryOutcome::Dropped { id: QueryId(q.id), arrival: q.arrival, at: now })
                .collect();
            proptest::prop_assert_eq!(ledger.drain(), sheds);
            proptest::prop_assert_eq!(ledger.window.violations[tier], shed as u64);
            let mut once = Ledger::new(&config, &runtime().reference, 3, false);
            if let Some(secs) = priced {
                let batch = queries[shed..shed + len].iter().map(Query::member);
                kernel.charge_dispatch(tier, batch, Some(&mut charged), &mut once, slowdown, secs, &mut seen);
            }
            proptest::prop_assert_eq!(ledger.addons, once.addons);
            proptest::prop_assert_eq!(cache.resident_bits(), charged.resident_bits());
        }

        /// `finish` serves every member of a batch exactly once, in order:
        /// it completes into the ledger at this tier, or it escalates — one
        /// escalation recorded — and comes back for the next tier, carrying
        /// this tier's finished schedule. The terminal tier escalates
        /// nothing.
        #[test]
        fn finish_completes_or_escalates_every_member_once(
            tier in 0usize..3,
            drawn in proptest::collection::vec(0u64..300, 1..12),
            thresholds in proptest::collection::vec(0u32..=10, 2..3),
        ) {
            let config = SystemConfig {
                resume_from_latents: true,
                ..Default::default()
            };
            let kernel = Kernel::new(runtime(), &config, &settings());
            let thresholds: Vec<f64> = thresholds.iter().map(|&t| f64::from(t) / 10.0).collect();
            let mut ids = drawn;
            ids.sort_unstable();
            ids.dedup();
            let mut ledger = Ledger::new(&config, &runtime().reference, 3, false);
            let escalated = finish_all(&kernel, tier, &ids, &thresholds, true, &mut ledger);
            let completed = completed(&mut ledger);
            proptest::prop_assert!(completed.iter().all(|&(_, t)| t == tier));
            let resumed = StageState::completed(kernel.model(tier).steps());
            proptest::prop_assert!(escalated.iter().all(|q| q.resume == Some(resumed)));
            let escalations = ledger.escalations.get(tier).copied().unwrap_or(0);
            proptest::prop_assert_eq!(escalations, escalated.len() as u64);
            if tier == 2 {
                proptest::prop_assert!(escalated.is_empty());
            }
            let mut served: Vec<u64> = completed.iter().map(|&(id, _)| id).collect();
            served.extend(escalated.iter().map(|q| q.id));
            served.sort_unstable();
            proptest::prop_assert_eq!(served, ids);
        }
    }

    /// Finishes a batch of the dataset queries `ids` on `tier` at 100 s,
    /// member by member as an engine does; returns the escalated ones.
    fn finish_all(
        kernel: &Kernel<'_>,
        tier: usize,
        ids: &[u64],
        thresholds: &[f64],
        deeper_alive: bool,
        ledger: &mut Ledger,
    ) -> Vec<Query> {
        let now = SimTime::from_secs(100);
        let batch = ids
            .iter()
            .map(|&id| drawn_query(kernel, id, (0, 0), SimDuration::ZERO));
        batch
            .filter_map(|mut q| {
                kernel
                    .finish(
                        tier,
                        now,
                        &mut q,
                        0.0,
                        thresholds,
                        deeper_alive,
                        None,
                        ledger,
                    )
                    .then_some(q)
            })
            .collect()
    }

    /// With no alive worker on a deeper tier, `finish` completes every
    /// member at its own tier, even where a threshold of 1 would escalate
    /// each one.
    #[test]
    fn finish_completes_every_member_with_no_deeper_tier_alive() {
        let config = SystemConfig::default();
        let kernel = Kernel::new(runtime(), &config, &settings());
        let ids: Vec<u64> = (0..6).collect();
        for tier in 0..3 {
            let mut ledger = Ledger::new(&config, &runtime().reference, 3, false);
            let escalated = finish_all(&kernel, tier, &ids, &[1.0, 1.0], false, &mut ledger);
            assert!(escalated.is_empty(), "tier {tier} escalated {escalated:?}");
            let expected: Vec<(u64, usize)> = ids.iter().map(|&id| (id, tier)).collect();
            assert_eq!(completed(&mut ledger), expected);
            assert_eq!(ledger.escalations, [0, 0]);
        }
    }

    /// Every entry of the stage-latency table is the formula each of its
    /// two readers used to spell out, bit for bit: the kernel's (the
    /// discriminator charged only under a cascade policy) and the control
    /// loop's (a charge zeroed off-cascade, always added). Both readers'
    /// tables are checked on a two-tier cascade and a three-tier ladder,
    /// under a cascade and a non-cascade policy; a batch outside the table
    /// panics.
    #[test]
    fn the_stage_latency_table_is_the_formula_at_every_tier_and_batch() {
        let cascade = CascadeRuntime::prepare(
            cascade1(FeatureSpec::default()),
            300,
            7,
            DiscriminatorConfig {
                train_prompts: 100,
                epochs: 1,
                ..Default::default()
            },
        );
        let config = SystemConfig {
            batch_sizes: vec![1, 3, 12],
            ..Default::default()
        };
        for rt in [&cascade, runtime()] {
            let n = rt.num_tiers();
            for policy in [Policy::DiffServe, Policy::ClipperHeavy] {
                let kernel = Kernel::new(rt, &config, &RunSettings::new(policy, 8.0));
                let control = StageLatencies::of_session(rt, &config, policy);
                let cascade_on = policy.uses_cascade();
                for tier in 0..n {
                    let disc =
                        (tier + 1 < n).then(|| rt.discriminator(tier).latency().as_secs_f64());
                    for b in 1..=12 {
                        let base = rt.model(tier).latency().exec_latency(b).as_secs_f64();
                        let kernel_formula = match disc {
                            Some(d) if cascade_on => base + d * b as f64,
                            _ => base,
                        };
                        let control_formula = match disc {
                            Some(d) => {
                                let charged = if cascade_on { d } else { 0.0 };
                                base + charged * b as f64
                            }
                            None => base,
                        };
                        let at = format!("{policy:?}, {n} tiers, tier {tier}, batch {b}");
                        assert_eq!(
                            kernel.stage_latency(tier, b).to_bits(),
                            kernel_formula.to_bits(),
                            "{at}"
                        );
                        assert_eq!(
                            control.secs(tier, b).to_bits(),
                            control_formula.to_bits(),
                            "{at}"
                        );
                    }
                }
                for b in [0, 13] {
                    let read = std::panic::catch_unwind(|| kernel.stage_latency(0, b));
                    assert!(read.is_err(), "batch {b} is outside the table");
                }
            }
        }
    }

    /// (b) At N = 2 the worker targets are the legacy arithmetic: spare
    /// workers join the light tier, `target_light = min(l + spare, n)`,
    /// the rest serve heavy.
    #[test]
    fn two_tier_worker_targets_match_the_legacy_split() {
        for alive in 0..=32usize {
            for l in 0..=32usize {
                for h in 0..=32usize {
                    let spare = alive.saturating_sub(l + h);
                    let target_light = (l + spare).min(alive);
                    assert_eq!(
                        worker_targets(&[l, h], alive),
                        [target_light, alive - target_light],
                        "alive {alive}, plan {l}/{h}"
                    );
                }
            }
        }
    }

    #[test]
    fn worker_targets_cut_oversubscription_from_the_deep_end() {
        assert_eq!(worker_targets(&[2, 1, 1], 3), [2, 1, 0]);
        assert_eq!(worker_targets(&[2, 2, 2], 3), [2, 1, 0]);
        assert_eq!(worker_targets(&[4, 1, 1], 3), [3, 0, 0]);
        assert_eq!(worker_targets(&[1, 1, 1], 6), [4, 1, 1]);
    }

    /// The moves toward `targets` of a fleet whose worker `i` targets
    /// `tiers[i]` at load `loads[i]` (0 past the slice); the workers in
    /// `failed` are left out.
    fn moves(
        tiers: &[usize],
        loads: &[usize],
        failed: &[usize],
        targets: &[usize],
    ) -> Vec<(usize, usize)> {
        let alive = || (0..tiers.len()).filter(|i| !failed.contains(i));
        let mut current = vec![0; targets.len()];
        for i in alive() {
            current[tiers[i]] += 1;
        }
        worker_moves(
            |t| current[t],
            targets,
            |t| {
                alive()
                    .filter(|&i| tiers[i] == t)
                    .map(|i| (loads.get(i).copied().unwrap_or(0), i))
                    .collect::<Vec<_>>()
            },
        )
    }

    /// The moves for `planned` over a fleet of idle workers, the workers
    /// in `failed` left out.
    fn moves_for(tiers: &[usize], failed: &[usize], planned: &[usize]) -> Vec<(usize, usize)> {
        let targets = worker_targets(planned, tiers.len() - failed.len());
        moves(tiers, &[], failed, &targets)
    }

    #[test]
    fn settled_workers_do_not_move() {
        let fleet = [0, 0, 0, 0, 1, 1, 1, 1];
        // Two heavy workers go light; the four light ones stay put.
        assert_eq!(moves_for(&fleet, &[], &[6, 2]), [(4, 0), (5, 0)]);
        assert_eq!(moves_for(&fleet, &[], &[4, 4]), []);
    }

    #[test]
    fn failed_workers_are_untouched() {
        let fleet = [0, 0, 1, 1, 1, 1, 1, 1];
        assert_eq!(moves_for(&fleet, &[6, 7], &[4, 2]), [(2, 0), (3, 0)]);
        // Failed workers are not counted, so even a plan that wants every
        // heavy worker light moves only alive ones.
        assert_eq!(
            moves_for(&fleet, &[6, 7], &[6, 0]),
            [(2, 0), (3, 0), (4, 0), (5, 0)]
        );
    }

    #[test]
    fn spare_workers_join_the_entry_tier() {
        let fleet = [0, 0, 0, 0, 1, 1, 1, 1];
        assert_eq!(moves_for(&fleet, &[], &[2, 2]), [(4, 0), (5, 0)]);
        let ladder = [0, 0, 0, 2, 2, 2];
        assert_eq!(moves_for(&ladder, &[], &[1, 1, 1]), [(3, 0), (4, 1)]);
    }

    #[test]
    fn oversubscription_is_cut_from_the_deep_end() {
        // Four workers planned over three alive: the terminal tier loses
        // its only alive worker to the mid tier.
        assert_eq!(moves_for(&[0, 0, 2, 2], &[3], &[2, 1, 1]), [(2, 1)]);
    }

    #[test]
    fn mid_tiers_get_staffed() {
        let fleet = [0, 0, 0, 0, 2, 2, 2, 2];
        assert_eq!(moves_for(&fleet, &[], &[4, 2, 2]), [(4, 1), (5, 1)]);
    }

    /// A fresh fleet, idle on the terminal tier, is placed in worker
    /// order, tier by tier: the bootstrap. A plan that staffs one tier
    /// alone (Clipper) keeps or gives up the whole fleet.
    #[test]
    fn a_fresh_fleet_is_placed_positionally() {
        assert_eq!(
            moves_for(&[2; 7], &[], &[2, 3, 2]),
            [(0, 0), (1, 0), (2, 1), (3, 1), (4, 1)]
        );
        assert_eq!(moves_for(&[1; 3], &[], &[3, 0]), [(0, 0), (1, 0), (2, 0)]);
        assert_eq!(moves_for(&[1; 3], &[], &[0, 3]), []);
    }

    #[test]
    fn donors_are_the_least_loaded_surplus_ties_to_the_lower_index() {
        assert_eq!(
            moves(&[0; 6], &[3, 1, 2, 1, 0, 1], &[], &[2, 4]),
            [(4, 1), (1, 1), (3, 1), (5, 1)]
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Over random fleets (failed or assigned workers), loads and
        /// plans, the moves meet the targets with exactly one move per
        /// surplus worker, and each surplus tier gives up its least-loaded
        /// workers.
        #[test]
        fn moves_meet_the_targets_with_the_surplus_alone(
            num_tiers in 2usize..5,
            fleet in proptest::collection::vec((0usize..5, 0usize..4), 1..40),
            planned in proptest::collection::vec(0usize..12, 4..5),
        ) {
            // Code 0 is failed, `c ≥ 1` tier `(c − 1) % N`.
            let tiers: Vec<usize> = fleet
                .iter()
                .map(|&(code, _)| code.saturating_sub(1) % num_tiers)
                .collect();
            let loads: Vec<usize> = fleet.iter().map(|&(_, load)| load).collect();
            let failed: Vec<usize> = (0..fleet.len()).filter(|&i| fleet[i].0 == 0).collect();
            let alive: Vec<usize> = (0..fleet.len()).filter(|&i| fleet[i].0 != 0).collect();
            let targets = worker_targets(&planned[..num_tiers], alive.len());
            let moves = moves(&tiers, &loads, &failed, &targets);

            let mut current = vec![0usize; num_tiers];
            for &i in &alive {
                current[tiers[i]] += 1;
            }
            let surplus: usize = (0..num_tiers)
                .map(|t| current[t].saturating_sub(targets[t]))
                .sum();
            proptest::prop_assert_eq!(moves.len(), surplus);

            let mut after = tiers.clone();
            for &(worker, tier) in &moves {
                proptest::prop_assert!(!failed.contains(&worker), "failed worker {} moved", worker);
                proptest::prop_assert!(tiers[worker] != tier, "worker {} stayed", worker);
                proptest::prop_assert!(after[worker] == tiers[worker], "worker {} moved twice", worker);
                after[worker] = tier;
            }
            for (t, &target) in targets.iter().enumerate() {
                let staffed = alive.iter().filter(|&&i| after[i] == t).count();
                proptest::prop_assert_eq!(staffed, target, "tier {}", t);
                // Every worker the tier gave up ranks below every one it
                // kept by `(load, index)`.
                let of_tier = || alive.iter().filter(|&&i| tiers[i] == t);
                let rank = |&i: &usize| (loads[i], i);
                let given = of_tier().filter(|&&i| after[i] != t).map(rank).max();
                let kept = of_tier().filter(|&&i| after[i] == t).map(rank).min();
                if let (Some(given), Some(kept)) = (given, kept) {
                    proptest::prop_assert!(given < kept, "tier {}: gave {:?}, kept {:?}", t, given, kept);
                }
            }
        }
    }

    /// Ready candidates for workers `0..` at these routing loads and miss
    /// penalties.
    fn ready(scores: &[(f64, f64)]) -> Vec<Candidate> {
        let ready = |(worker, &(load, miss))| Candidate {
            worker,
            rung: Rung::Ready,
            load,
            miss,
        };
        scores.iter().enumerate().map(ready).collect()
    }

    /// (d) On an all-healthy fleet equal loads tie, and the pick keeps the
    /// lowest index; an exact score tie between a module holder and a
    /// non-holder goes to the lower load, whatever the indices.
    #[test]
    fn first_minimum_breaks_ties_toward_the_lowest_index() {
        let kernel = Kernel::new(runtime(), &SystemConfig::default(), &settings());
        let scores = |loads: &[usize]| -> Vec<(f64, f64)> {
            let score = |&l: &usize| (kernel.routing_load(l, 0, 1.0), 0.0);
            loads.iter().map(score).collect()
        };
        assert_eq!(pick_worker(ready(&scores(&[3, 1, 2, 1, 1]))), Some(1));
        assert_eq!(pick_worker(ready(&scores(&[0; 6]))), Some(0));
        assert_eq!(pick_worker([]), None);
        // A 2×-degraded idle worker loses to a healthy one serving one.
        let degraded_idle = kernel.routing_load(0, 0, 2.0);
        let healthy_one = kernel.routing_load(0, 1, 1.0);
        assert_eq!(
            pick_worker(ready(&[(degraded_idle, 0.0), (healthy_one, 0.0)])),
            Some(0),
            "(0 + 1) × 2 ties (1 + 1) × 1 and the lower index wins"
        );
        // A holder at load 3 ties a non-holder at load 1 paying 2.
        assert_eq!(pick_worker(ready(&[(3.0, 0.0), (1.0, 2.0)])), Some(1));
        assert_eq!(pick_worker(ready(&[(1.0, 2.0), (3.0, 0.0)])), Some(0));
        assert!(kernel.routing_load(0, 0, 2.5) > healthy_one);
        // The first non-empty rung wins, however loaded.
        let rungs = [(2, 1, true), (1, 1, false), (1, 0, true)];
        let candidate =
            |(worker, &(target, load, ready)): (usize, &(usize, usize, bool))| Candidate {
                worker,
                rung: Rung::of(1, target, ready),
                load: kernel.routing_load(load, 0, 1.0),
                miss: 0.0,
            };
        let ladder: Vec<Candidate> = rungs.iter().enumerate().map(candidate).collect();
        assert_eq!(pick_worker(ladder.iter().copied()), Some(2));
        assert_eq!(pick_worker(ladder[..2].iter().copied()), Some(1));
        assert_eq!(pick_worker(ladder[..1].iter().copied()), Some(0));
        // Queued and in-service members weigh the same.
        assert_eq!(
            kernel.routing_load(2, 1, 1.0),
            kernel.routing_load(1, 2, 1.0)
        );
    }

    /// Drop-front sheds the front while the batch that would *actually
    /// run* misses the front's deadline, re-estimating after every drop.
    /// A batch of 4 whose first member misses at any size and whose other
    /// three miss at `b = 4` but fit at `b = 3` sheds exactly one. (The
    /// testbed used to price the batch once as collected and shed every
    /// member missing that single estimate — all four.)
    #[test]
    fn drop_front_re_estimates_with_the_shrunken_batch() {
        let kernel = Kernel::new(runtime(), &SystemConfig::default(), &settings());
        let tier = 2;
        let (at3, at4) = (kernel.stage_latency(tier, 3), kernel.stage_latency(tier, 4));
        assert!(at3 < at4);
        let now = SimTime::from_secs(10);
        let fits_three = now + SimDuration::from_secs_f64((at3 + at4) / 2.0);
        let deadlines = [
            now + SimDuration::from_secs_f64(0.01),
            fits_three,
            fits_three,
            fits_three,
        ];
        let (shed, priced) = kernel.predicted_misses(
            tier,
            deadlines.len(),
            4,
            now,
            1.0,
            None,
            |_| Member::default(),
            |i| deadlines[i],
            &mut Vec::new(),
        );
        assert_eq!(
            (shed, priced),
            (1, Some(at3)),
            "the kept batch of 3 is priced"
        );
        let eta_as_collected = now + SimDuration::from_secs_f64(at4);
        assert_eq!(
            deadlines.iter().filter(|&&d| eta_as_collected > d).count(),
            4,
            "the one-shot rule sheds the whole batch"
        );
        // A slowed worker stretches the same batch past the deadline.
        let slowed = kernel.predicted_misses(
            tier,
            deadlines.len(),
            4,
            now,
            4.0,
            None,
            |_| Member::default(),
            |i| deadlines[i],
            &mut Vec::new(),
        );
        assert_eq!(slowed, (4, None), "nothing is left to price");
    }

    #[test]
    fn capacity_events_pick_their_workers_by_one_rule() {
        // (failed, degraded): 0 healthy, 1 degraded, 2 failed, 3 healthy,
        // 4 degraded, 5 failed.
        let fleet = [
            (false, false),
            (false, true),
            (true, false),
            (false, false),
            (false, true),
            (true, false),
        ];
        let pick = |event| capacity_targets(event, &fleet);
        // Fail takes alive workers from the top, and two of the four alive
        // must survive.
        assert_eq!(pick(CapacityEvent::Fail(1)), [4]);
        assert_eq!(pick(CapacityEvent::Fail(9)), [4, 3]);
        assert_eq!(pick(CapacityEvent::Recover(1)), [2]);
        assert_eq!(pick(CapacityEvent::Recover(9)), [2, 5]);
        assert_eq!(pick(CapacityEvent::Degrade(9, 2.0)), [0, 3]);
        assert_eq!(pick(CapacityEvent::Restore(1)), [1]);
        assert_eq!(pick(CapacityEvent::Restore(9)), [1, 4]);

        // Empty eligible sets: two alive, nobody failed or degraded.
        let pair = [(false, false), (false, false)];
        for event in [
            CapacityEvent::Fail(1),
            CapacityEvent::Recover(1),
            CapacityEvent::Restore(1),
        ] {
            assert!(capacity_targets(event, &pair).is_empty(), "{event:?}");
            assert_eq!(applied_capacity_event(event, 0), None);
        }
        assert_eq!(
            applied_capacity_event(CapacityEvent::Degrade(5, 2.0), 2),
            Some(ScenarioEvent::Capacity(CapacityEvent::Degrade(2, 2.0)))
        );
    }

    /// The image of a verdict that completed.
    fn completed_image(verdict: Verdict) -> ServedImage {
        match verdict {
            Verdict::Complete { image, .. } => image,
            other => panic!("expected a completion, got {other:?}"),
        }
    }

    fn bits(image: impl Into<ServedImage>) -> Vec<u64> {
        let image = image.into();
        let mut bits: Vec<u64> = image.features.iter().map(|f| f.to_bits()).collect();
        bits.push(image.quality.to_bits());
        bits
    }

    /// `kernel` reading another runtime's render table: the same ladder
    /// prepared at another seed, so every row is some other prompt's image.
    fn with_stale_renders(mut kernel: Kernel<'static>) -> Kernel<'static> {
        static STALE: OnceLock<CascadeRuntime> = OnceLock::new();
        let stale = STALE.get_or_init(|| {
            CascadeRuntime::prepare_ladder(
                ladder3(FeatureSpec::default()),
                300,
                8,
                DiscriminatorConfig {
                    train_prompts: 100,
                    epochs: 1,
                    ..Default::default()
                },
            )
        });
        kernel.renders = stale.renders();
        kernel
    }

    /// Terminal-tier, off-cascade and resumed completions on a dataset
    /// prompt are `generate`'s bits, and come from the render table: behind
    /// a stale table a release build serves the stale row and a debug
    /// build's cross-check panics. Explicit and shifted queries never read
    /// the table, so a stale one cannot change them.
    #[test]
    fn completions_read_the_render_table_under_one_predicate() {
        let (qid, thresholds) = (317, [0.0; 2]);
        let rt = runtime();
        let prompt = *rt.dataset.prompt_cyclic(qid);
        // Serves `qid`'s dataset prompt at `tier` behind a stale table.
        let reads_the_table = |kernel: &Kernel<'static>, tier: usize, resume| {
            let stale = with_stale_renders(kernel.clone());
            let read = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                stale.serve(tier, qid, None, 0.0, resume, &thresholds, None, true)
            }));
            if cfg!(debug_assertions) {
                assert!(
                    read.is_err(),
                    "tier {tier}: the cross-check must catch a stale row"
                );
            } else {
                let stale_row = stale.renders[tier].image((qid % 300) as usize);
                assert_eq!(
                    bits(completed_image(
                        read.expect("release builds trust the table")
                    )),
                    bits(stale_row)
                );
            }
        };
        let terminal = Kernel::new(rt, &SystemConfig::default(), &settings());
        let off_cascade = Kernel::new(
            rt,
            &SystemConfig::default(),
            &RunSettings::new(Policy::ClipperLight, 8.0),
        );
        for (kernel, tier) in [(&terminal, 2), (&off_cascade, 0), (&off_cascade, 1)] {
            let served =
                completed_image(kernel.serve(tier, qid, None, 0.0, None, &thresholds, None, true));
            assert_eq!(bits(served), bits(kernel.model(tier).generate(&prompt)));
            reads_the_table(kernel, tier, None);
        }

        let resuming = SystemConfig {
            resume_from_latents: true,
            ..Default::default()
        };
        let resuming = Kernel::new(rt, &resuming, &settings());
        let stale = with_stale_renders(resuming.clone());
        let carried = Some(StageState::completed(resuming.model(0).steps()));
        let explicit = Prompt {
            id: 9,
            difficulty: 0.4,
            style_bias: 0.1,
            seed: 99,
        };
        for tier in 0..3 {
            let model = resuming.model(tier);
            if tier > 0 {
                let served = resuming.serve(tier, qid, None, 0.0, carried, &thresholds, None, true);
                let Verdict::Complete { image, reused, .. } = served else {
                    panic!("tier {tier}: a zero threshold keeps every output");
                };
                assert!(reused > 0, "tier {tier}: the pass resumes");
                assert_eq!(bits(image), bits(model.generate(&prompt)), "tier {tier}");
                reads_the_table(&resuming, tier, carried);
            }
            let cases = [
                (Some(explicit), 0.0, model.generate(&explicit)),
                (None, 0.2, model.generate(&prompt.harder(0.2))),
            ];
            for (given, shift, expected) in cases {
                let expected = bits(expected);
                for resume in [None, carried] {
                    let served =
                        stale.serve(tier, qid, given, shift, resume, &thresholds, None, true);
                    assert_eq!(bits(completed_image(served)), expected, "tier {tier}");
                }
            }
        }
    }

    /// Alive workers `(tier, queued, busy, speed factor)`, then `failed`
    /// fail-stopped ones.
    fn workers(alive: &[(usize, usize, bool, f64)], failed: usize) -> Vec<Option<WorkerState>> {
        let state = |&(tier, queued, busy, speed_factor)| WorkerState {
            tier,
            queued,
            busy,
            speed_factor,
        };
        let alive = alive.iter().map(state).map(Some);
        alive.chain(std::iter::repeat_n(None, failed)).collect()
    }

    /// A scripted session on a three-tier ladder, written once into the
    /// ledger: the control tick, the snapshot and the report each read it.
    #[test]
    fn one_ledger_feeds_the_tick_the_snapshot_and_the_report() {
        let config = full_config();
        let kernel = Kernel::new(runtime(), &config, &settings());
        let mut ledger = Ledger::new(&config, &runtime().reference, 3, true);
        let late = config.slo.as_secs_f64() as u64 + 1;
        let t = SimTime::from_secs(1);
        ledger.arrive(t, 0, false);
        ledger.arrive(t, 1, true);
        ledger.arrive(t, 0, false);
        // A shed is a violation of the tier that shed it.
        ledger.shed(QueryId(2), t, SimTime::from_secs(2), 0);
        // An escalation is demand on the deeper pools, never a violation.
        ledger.escalate(0, 0.25);
        // A completion is a violation only when late; its boundary score
        // joins its tier's stream, and the terminal tier scores nothing.
        ledger.complete(CompletedResponse {
            tier: 1,
            confidence: Some(0.75),
            ..completion(0, late)
        });
        ledger.complete(CompletedResponse {
            confidence: Some(0.5),
            ..completion(1, 1)
        });
        ledger.complete(CompletedResponse {
            tier: 2,
            ..completion(3, late)
        });
        // The horizon ends the session: its drops reach no tick.
        ledger.drop_query(QueryId(4), t, SimTime::from_secs(9));
        let incident = Incident {
            at: SimTime::from_secs(3),
            event: ScenarioEvent::Difficulty(0.2),
        };
        ledger.record_incident(incident);
        ledger.record_threshold(SimTime::from_secs(2), 0.4);
        // Two members need module 0 on a cold cache: a miss, then a hit.
        let addons = config.addons.as_ref().expect("add-ons on");
        let mut cache = ModuleCache::new(addons.cache_mem_mb);
        let members = [Member {
            resume: None,
            addon: Some(0),
        }; 2];
        let mut seen = Vec::new();
        let eta = kernel.eta_secs(0, members.into_iter(), Some(&cache), 1.0, &mut seen);
        kernel.charge_dispatch(
            0,
            members.into_iter(),
            Some(&mut cache),
            &mut ledger,
            1.0,
            eta,
            &mut seen,
        );

        let mut fleet = FleetTally::of(
            3,
            workers(
                &[(0, 4, true, 1.0), (1, 2, false, 0.5), (2, 3, true, 1.0)],
                1,
            ),
        );
        assert_eq!(fleet.alive(), 3);
        assert_eq!(fleet.degraded, 1);
        assert!((fleet.utilization() - 2.0 / 3.0).abs() < 1e-12);

        let mut obs = ControlObservation::default();
        ledger.observe(&mut obs, SimTime::from_secs(2), &fleet, &[4, 2, 1]);
        assert_eq!((obs.arrivals, obs.heavy_arrivals), (3, 2));
        // Tier 0's shed, and tier 1's and tier 2's late completions; the
        // horizon drop is at no tier.
        assert_eq!(obs.tier_violations, [1, 1, 1]);
        assert_eq!(obs.tier_queues, [4, 2, 3]);
        assert_eq!(obs.alive_workers, 3);
        assert_eq!(obs.effective_capacity, 2.5);
        assert_eq!((obs.current_light_batch, obs.current_heavy_batch), (4, 1));
        assert_eq!(obs.confidences, [0.25, 0.5]);
        assert_eq!(obs.deep_confidences, [vec![0.75]]);
        assert_eq!(obs.tier_direct_arrivals, [2, 1, 0]);

        // The window is drained, into the same observation; the next
        // window records into the buffer the observation gave up.
        ledger.complete(CompletedResponse {
            confidence: Some(0.5),
            ..completion(5, 1)
        });
        let recorded = ledger.window.confidences.as_ptr();
        fleet.fill([]);
        assert_eq!(fleet, FleetTally::new(3));
        ledger.observe(&mut obs, SimTime::from_secs(4), &fleet, &[4, 2, 1]);
        assert_eq!(obs.now, SimTime::from_secs(4));
        assert_eq!((obs.arrivals, obs.heavy_arrivals), (0, 0));
        assert_eq!(obs.tier_violations, [0, 0, 0]);
        assert_eq!(obs.confidences, [0.5]);
        assert_eq!(obs.confidences.as_ptr(), recorded);
        assert_eq!(obs.deep_confidences, [Vec::<f64>::new()]);
        assert_eq!(obs.tier_queues, [0, 0, 0]);
        assert_eq!(obs.alive_workers, 0);
        assert_eq!(obs.tier_direct_arrivals, [0, 0, 0]);

        // The snapshot and the report read the same record.
        let snap = ledger.snapshot(SimTime::from_secs(4), fleet, vec![0.4, 0.5], 6, 0.0);
        let report =
            crate::RunReport::assemble(Policy::DiffServe, 6, &ledger, SimTime::MAX, vec![]);
        assert_eq!(snap.tier_escalations, [1, 0]);
        assert_eq!(snap.addon_stats.total_lookups(), 2);
        assert_eq!(snap.addon_stats, report.addon_stats);
        assert_eq!(report.incident_log, [incident]);
        assert_eq!((snap.completed, snap.dropped), (4, 2));
        assert_eq!((report.completed, report.dropped), (4, 2));
        assert_eq!(report.late, 2);
        assert_eq!(
            report.demand_series,
            [(0.0, 3.0 / METRICS_WINDOW.as_secs_f64())]
        );
        assert_eq!(report.threshold_series, [(0.0, 0.4)]);
    }

    fn completion(id: u64, latency_secs: u64) -> CompletedResponse {
        CompletedResponse {
            id: QueryId(id),
            arrival: SimTime::from_secs(1),
            completion: SimTime::from_secs(1 + latency_secs),
            features: [0.0; diffserve_imagegen::features::DIM],
            quality: 0.5,
            tier: 0,
            confidence: None,
            gpu_time: 0.1,
            reused_steps: 0,
        }
    }

    /// Closing drops the unfinished queries at the horizon in the order the
    /// engine passes them, and the report counts them.
    #[test]
    fn closing_drops_the_unfinished_in_the_given_order() {
        let config = SystemConfig::default();
        let mut ledger = Ledger::new(&config, &runtime().reference, 2, false);
        ledger.complete(completion(1, 1));
        let horizon = SimTime::from_secs(60);
        let unfinished =
            [(5, 3), (0, 2), (7, 4)].map(|(id, secs)| (QueryId(id), SimTime::from_secs(secs)));
        let report = ledger.close(Policy::DiffServe, 4, unfinished, horizon, vec![]);
        assert_eq!((report.completed, report.dropped), (1, 3));
        let dropped: Vec<QueryOutcome> = ledger.drain().into_iter().skip(1).collect();
        let expected = unfinished.map(|(id, arrival)| QueryOutcome::Dropped {
            id,
            arrival,
            at: horizon,
        });
        assert_eq!(dropped, expected);
        // No tick window hears of a horizon drop.
        assert_eq!(ledger.window.violations, [0, 0]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "every submitted query has exactly one ledger record")]
    fn closing_checks_every_submitted_query_has_a_record() {
        let config = SystemConfig::default();
        let mut ledger = Ledger::new(&config, &runtime().reference, 2, false);
        ledger.complete(completion(0, 1));
        let unfinished = [(QueryId(1), SimTime::from_secs(2))];
        ledger.close(
            Policy::DiffServe,
            3,
            unfinished,
            SimTime::from_secs(60),
            vec![],
        );
    }

    #[test]
    fn the_ledger_hands_over_each_outcome_once_in_recording_order() {
        let config = SystemConfig::default();
        let mut ledger = Ledger::new(&config, &runtime().reference, 2, false);
        let slo_secs = config.slo.as_secs_f64() as u64;
        ledger.complete(completion(0, 1));
        assert_eq!(ledger.slo().late(), 0);
        ledger.complete(completion(1, slo_secs + 1));
        assert_eq!(ledger.slo().late(), 1);
        // Lateness is judged over the SLO, to the microsecond, and the tick
        // window hears of exactly the late completions the report counts.
        let mut judged = Ledger::new(&config, &runtime().reference, 2, false);
        let arrival = SimTime::from_secs(1);
        for latency in [config.slo, config.slo + SimDuration::from_micros(1)] {
            judged.complete(CompletedResponse {
                completion: arrival + latency,
                ..completion(9, 0)
            });
        }
        assert_eq!((judged.slo().on_time(), judged.slo().late()), (1, 1));
        assert_eq!(judged.window.violations, [1, 0]);
        let (arrival, at) = (SimTime::from_secs(2), SimTime::from_secs(3));
        ledger.drop_query(QueryId(2), arrival, at);

        let outcomes = ledger.drain();
        let ids: Vec<QueryId> = outcomes.iter().map(QueryOutcome::id).collect();
        assert_eq!(ids, [QueryId(0), QueryId(1), QueryId(2)]);
        assert_eq!(
            outcomes[2],
            QueryOutcome::Dropped {
                id: QueryId(2),
                arrival,
                at
            }
        );
        assert!(ledger.drain().is_empty());
        let slo = ledger.slo();
        assert_eq!((slo.on_time(), slo.late(), slo.dropped()), (1, 1, 1));
        assert_eq!(ledger.totals().completions(), 2);
    }

    #[test]
    fn a_ledger_that_discards_outcomes_still_counts_them() {
        let mut ledger = Ledger::new(&SystemConfig::default(), &runtime().reference, 2, false);
        ledger.discard_outcomes();
        ledger.complete(completion(0, 1));
        ledger.drop_query(QueryId(1), SimTime::ZERO, SimTime::from_secs(1));
        assert!(ledger.drain().is_empty());
        assert_eq!(ledger.slo().total(), 2);
        assert_eq!(ledger.totals().completions(), 1);
    }

    /// Outcomes recorded into reserved room land in the buffer the
    /// reservation made; a ledger that keeps no outcomes reserves nothing.
    #[test]
    fn reserved_outcomes_are_recorded_without_moving_the_buffer() {
        let mut ledger = Ledger::new(&SystemConfig::default(), &runtime().reference, 2, false);
        ledger.reserve_outcomes(3);
        let buffer = |ledger: &Ledger| ledger.undrained.as_ref().map(Vec::as_ptr);
        let reserved = buffer(&ledger);
        ledger.complete(completion(0, 1));
        ledger.complete(completion(1, 2));
        ledger.drop_query(QueryId(2), SimTime::ZERO, SimTime::from_secs(1));
        assert_eq!(buffer(&ledger), reserved);
        assert_eq!(ledger.drain().len(), 3);
        ledger.discard_outcomes();
        ledger.reserve_outcomes(3);
        assert_eq!(buffer(&ledger), None);
    }

    #[test]
    fn fleet_health_counts_alive_failed_and_degraded_workers() {
        assert_eq!(FleetTally::new(2).utilization(), 0.0, "nobody alive");
        let fleet = FleetTally::of(
            2,
            workers(
                &[(0, 0, false, 1.0), (1, 5, true, 0.25), (1, 0, false, 0.5)],
                2,
            ),
        );
        assert_eq!(
            fleet.health(),
            FleetHealth {
                alive: 3,
                failed: 2,
                degraded: 2,
            }
        );
        assert_eq!(fleet.tier_workers, [1, 2]);
        assert_eq!(fleet.tier_queues, [0, 5]);
        assert_eq!(fleet.effective_capacity, 1.75);
        assert!((fleet.utilization() - 1.0 / 3.0).abs() < 1e-12);
    }
}
