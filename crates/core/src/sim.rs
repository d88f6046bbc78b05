//! The end-to-end discrete-event serving simulator.
//!
//! This is the reproduction of the paper's primary evaluation vehicle: an
//! event-driven simulator of the DiffServe architecture (Fig. 2) — load
//! balancer, per-worker queues with batching, the light→heavy cascade with
//! discriminator gating, and the periodic controller that re-solves the
//! resource allocation. All five policies of Table 1 and the Fig. 8
//! ablations run through this one simulator.
//!
//! The simulator is one of the two engines behind the unified
//! [`ServingSession`] API (the other is the thread-based testbed in
//! `diffserve-cluster`). It owns *when* things happen — the event queue —
//! and its state access: the per-tier load index, workers bucketed by
//! routing key, and the slab of in-flight query records. Every serving
//! decision, a worker's dispatch and batch completion included, is a call
//! into the shared [`crate::kernel`], whose hand-back rule a moved or
//! failed worker's queue follows. `SimBackend` implements
//! [`ServingBackend`] over the event loop, so applications can submit
//! queries incrementally, tap live metrics, and inject perturbations
//! mid-run. The batch entry points [`run_trace`] and [`run_scenario`] (a
//! [`Scenario`]'s churn, degradation, hazards, demand shocks and
//! difficulty shifts) are thin wrappers over a session. Every perturbation
//! that actually fires is recorded in the report's incident log, and
//! replaying the log reproduces the run bit-exactly.

use std::collections::VecDeque;

use diffserve_imagegen::OnlinePredictiveRouter;
use diffserve_simkit::prelude::*;
use diffserve_trace::{
    CapacityEvent, FleetHealth, HazardProcess, Incident, IncidentLog, Scenario, ScenarioError,
    ScenarioEvent, Trace,
};

use crate::addons::ModuleCache;
use crate::allocator::LadderAllocation;
use crate::config::{ConfigError, SystemConfig, MODEL_SWITCH_DELAY};
use crate::control::{ControlDirective, ControlLoop, ControlObservation};
use crate::kernel::{self, FleetTally, Kernel, Ledger, Query, WorkerState};
use crate::policy::{AblationKnobs, Policy};
use crate::query::{QueryId, WorkerHealth};
use crate::report::RunReport;
use crate::runtime::CascadeRuntime;
use crate::serve::{
    ArrivalStream, QueryOutcome, QuerySpec, QueryTicket, ServingBackend, ServingSession,
    SessionSnapshot, SessionSpec,
};

/// Event budget a simulated run starts with — a backstop against runaway
/// scheduling loops. It pays for what does not scale with the queries
/// (control ticks, hazard checks, scenario actions, model switches: one
/// tick every 2 s for three simulated years); every submitted query tops
/// it up by [`EVENTS_PER_QUERY`], so no replay, however long, runs out by
/// being long. Exhaustion therefore means a schedule loop: debug builds
/// assert on it, release builds stop advancing and `finish` accounts
/// whatever is left as dropped.
const EVENT_BUDGET: u64 = 50_000_000;

/// Budget allowance per submitted query: its arrival, at most one batch
/// completion per ladder tier it visits, and the re-dispatches worker
/// churn can cost it — a handful, rounded far up.
const EVENTS_PER_QUERY: u64 = 32;

/// A retired choice of allocator: it changes no serving decision. Every
/// control tick plans by enumeration, and the MILP formulation is the
/// oracle debug builds check each tick against. The workspace never reads
/// it; the repo benchmark (`benchmark/`) still sets it, and its per-layer
/// allocator probes read it to pick which solver they time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocatorBackend {
    /// Serves as [`Exhaustive`](Self::Exhaustive) does.
    Milp,
    /// The served enumerator.
    Exhaustive,
}

/// Per-run settings beyond the static [`SystemConfig`].
#[derive(Debug, Clone)]
pub struct RunSettings {
    /// The serving policy.
    pub policy: Policy,
    /// Resource-allocation ablations (Fig. 8); default = full DiffServe.
    pub knobs: AblationKnobs,
    /// Changes no serving decision; read only by the repo benchmark's
    /// per-layer probes: see [`AllocatorBackend`].
    pub backend: AllocatorBackend,
    /// Expected peak demand in QPS — static policies provision for this
    /// (the paper's DiffServe-Static is "provisioned for peak").
    pub peak_demand_hint: f64,
}

impl RunSettings {
    /// Settings for a policy with defaults (no ablations) and the given
    /// peak-demand hint.
    pub fn new(policy: Policy, peak_demand_hint: f64) -> Self {
        RunSettings {
            policy,
            knobs: AblationKnobs::default(),
            backend: AllocatorBackend::Exhaustive,
            peak_demand_hint,
        }
    }

    /// Validates invariants the serving loop relies on: the peak-demand
    /// hint must be finite and positive (it flows straight into the
    /// allocator's demand estimate for static policies), and a pinned
    /// static threshold must lie in `[0, 1]`.
    ///
    /// The session builder calls this at
    /// [`build`](crate::serve::SessionBuilder::build) time and surfaces
    /// failures as [`BuildError::Settings`](crate::serve::BuildError).
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated invariant.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.peak_demand_hint.is_finite() || self.peak_demand_hint <= 0.0 {
            return Err(ConfigError::new(
                "peak demand hint must be finite and positive",
            ));
        }
        if let Some(t) = self.knobs.static_threshold {
            if !t.is_finite() || !(0.0..=1.0).contains(&t) {
                return Err(ConfigError::new("static threshold must lie in [0, 1]"));
            }
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    /// An explicitly submitted query (its record already allocated) enters
    /// the system.
    Arrival(Slot),
    /// The pending arrival of the `i`-th attached trace stream fires, and
    /// schedules the stream's next one.
    TraceArrival(usize),
    /// Batch completion (or model-switch completion) on a worker. The epoch
    /// tags the worker incarnation that scheduled it: a fail-stop bumps the
    /// worker's epoch, so completions scheduled before the failure arrive
    /// stale and are discarded.
    BatchDone {
        worker: usize,
        epoch: u64,
    },
    ControlTick,
    /// The `i`-th scheduled scenario action fires.
    Scenario(usize),
    /// The load-correlated hazard process evaluates once. Scheduled at the
    /// control interval's half-phase so it never shares a timestamp with a
    /// control tick, which keeps incident replay bit-exact.
    HazardCheck,
}

#[derive(Debug, Clone)]
struct Worker {
    /// Ladder tier index this worker hosts (0 = entry tier; the legacy
    /// cascade is tiers 0/1).
    tier: usize,
    pending_tier: Option<usize>,
    queue: VecDeque<Slot>,
    busy: bool,
    in_flight: Vec<Slot>,
    /// Fail-stopped: receives no work and emits no completions until a
    /// scenario recovery.
    failed: bool,
    /// Incarnation counter; bumped on failure so in-flight [`Event::BatchDone`]
    /// events from before the crash are recognized as stale.
    epoch: u64,
    /// Current health: batches dispatched on this worker take
    /// `health.slowdown()` times their nameplate latency.
    health: WorkerHealth,
}

impl Worker {
    fn target_tier(&self) -> usize {
        self.pending_tier.unwrap_or(self.tier)
    }

    fn load(&self) -> usize {
        self.queue.len() + self.in_flight.len()
    }

    /// What the fleet tally reads of this worker; `None` while failed.
    fn state(&self) -> Option<WorkerState> {
        (!self.failed).then(|| WorkerState {
            tier: self.target_tier(),
            queued: self.queue.len(),
            busy: self.busy,
            speed_factor: self.health.speed_factor,
        })
    }
}

/// Routing key: a worker's routing load as orderable bits. The router only
/// produces non-negative finite loads, and for those IEEE-754 bit patterns
/// order exactly like the values — so a `u64` key ranks workers identically
/// to comparing the floats.
fn load_key(load: f64) -> u64 {
    debug_assert!(load.is_finite() && load >= 0.0, "routing loads are finite");
    load.to_bits()
}

/// Moves worker `worker` between the per-module `holders` sets as its
/// cache's resident bitset goes from `before` to `after` (`&[]` for a
/// cache that was cleared): only the modules whose bit flipped move.
fn update_holders(holders: &mut [WorkerSet], worker: usize, before: &[u64], after: &[u64]) {
    for w in 0..before.len().max(after.len()) {
        let now = after.get(w).copied().unwrap_or(0);
        let flipped = before.get(w).copied().unwrap_or(0) ^ now;
        for b in set_bits(flipped) {
            let set = &mut holders[w * 64 + b];
            if now >> b & 1 == 1 {
                set.insert(worker);
            } else {
                set.remove(worker);
            }
        }
    }
}

/// Debug builds re-derive every holder set from the caches once per this
/// many dispatches.
#[cfg(debug_assertions)]
const HOLDER_CHECK_EVERY: u64 = 16;

/// Which routing pool an alive worker belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RoutePool {
    /// Hosting a tier and not switching away: the router's first choice.
    Primary(usize),
    /// Mid-switch toward a tier: eligible once the tier has no primaries.
    PendingTo(usize),
}

/// A set of worker indices: one bit per worker, plus one summary bit per
/// 64-worker word, set while that word has a member. The least member is
/// two `trailing_zeros` away (after skipping empty summary words, one per
/// 4 096 workers), adding or removing one touches at most two words, and
/// iteration yields the members in ascending order.
#[derive(Debug, Clone)]
struct WorkerSet {
    words: Vec<u64>,
    summary: Vec<u64>,
}

impl WorkerSet {
    /// An empty set over workers `0..n`.
    fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        WorkerSet {
            words: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
        }
    }

    fn insert(&mut self, i: usize) {
        let w = i / 64;
        self.words[w] |= 1 << (i % 64);
        self.summary[w / 64] |= 1 << (w % 64);
    }

    /// Removes `i`; returns whether that left the set empty.
    fn remove(&mut self, i: usize) -> bool {
        let w = i / 64;
        self.words[w] &= !(1 << (i % 64));
        if self.words[w] != 0 {
            return false;
        }
        self.summary[w / 64] &= !(1 << (w % 64));
        self.is_empty()
    }

    fn is_empty(&self) -> bool {
        self.summary.iter().all(|&bits| bits == 0)
    }

    fn first(&self) -> Option<usize> {
        let s = self.summary.iter().position(|&bits| bits != 0)?;
        let w = s * 64 + self.summary[s].trailing_zeros() as usize;
        Some(w * 64 + self.words[w].trailing_zeros() as usize)
    }

    #[cfg(any(test, debug_assertions))]
    fn contains(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// The least member that `other` also holds, and the least one it
    /// does not: one walk over this set's non-empty words, which stops
    /// once both are found.
    fn first_in_and_out(&self, other: &WorkerSet) -> (Option<usize>, Option<usize>) {
        let (mut inside, mut outside) = (None, None);
        for (s, &bits) in self.summary.iter().enumerate() {
            for w in set_bits(bits).map(|b| s * 64 + b) {
                let first =
                    |word: u64| (word != 0).then(|| w * 64 + word.trailing_zeros() as usize);
                inside = inside.or_else(|| first(self.words[w] & other.words[w]));
                outside = outside.or_else(|| first(self.words[w] & !other.words[w]));
                if inside.is_some() && outside.is_some() {
                    return (inside, outside);
                }
            }
        }
        (inside, outside)
    }

    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let nonempty_words = self
            .summary
            .iter()
            .enumerate()
            .flat_map(|(s, &bits)| set_bits(bits).map(move |b| s * 64 + b));
        nonempty_words.flat_map(move |w| set_bits(self.words[w]).map(move |b| w * 64 + b))
    }
}

/// The positions of `word`'s set bits, ascending.
fn set_bits(word: u64) -> impl Iterator<Item = usize> {
    std::iter::successors((word != 0).then_some(word), |&rest| {
        Some(rest & (rest - 1)).filter(|&rest| rest != 0)
    })
    .map(|rest| rest.trailing_zeros() as usize)
}

/// A worker as a pool files it: `(routing key, worker index)`.
type Filed = (u64, usize);

/// One routing pool: its workers bucketed by routing key, the buckets in
/// key order and none of them empty. Iterating buckets by key and each
/// bucket's bits in ascending order is exactly `(key, index)` order.
#[derive(Debug, Clone, Default)]
struct Pool {
    buckets: Vec<(u64, WorkerSet)>,
    len: usize,
}

impl Pool {
    fn bucket(&self, key: u64) -> Result<usize, usize> {
        self.buckets.binary_search_by_key(&key, |&(k, _)| k)
    }

    /// Adds worker `idx` of an `n`-worker fleet under `key`, opening the
    /// key's bucket with a spare set if it has none.
    fn insert(&mut self, key: u64, idx: usize, spares: &mut Vec<WorkerSet>, n: usize) {
        let b = self.bucket(key).unwrap_or_else(|b| {
            let set = spares.pop().unwrap_or_else(|| WorkerSet::new(n));
            self.buckets.insert(b, (key, set));
            b
        });
        self.buckets[b].1.insert(idx);
        self.len += 1;
    }

    /// Removes worker `idx`, filed under `key`; a bucket it leaves empty
    /// goes to `spares`.
    fn remove(&mut self, key: u64, idx: usize, spares: &mut Vec<WorkerSet>) {
        let b = self.bucket(key).expect("a worker is filed under its key");
        if self.buckets[b].1.remove(idx) {
            spares.push(self.buckets.remove(b).1);
        }
        self.len -= 1;
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// The least `(key, index)` in the pool.
    fn first(&self) -> Option<(u64, usize)> {
        let (key, set) = self.buckets.first()?;
        Some((*key, set.first().expect("no bucket is empty")))
    }

    /// Every `(key, index)` in the pool, in order.
    fn iter(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        self.buckets
            .iter()
            .flat_map(|(key, set)| set.iter().map(move |i| (*key, i)))
    }

    /// The first member of `holders` and the first worker outside it in
    /// the pool's `(key, index)` order, each with its key: per bucket, in
    /// key order, the first set bit of `bucket & holders` and of
    /// `bucket & !holders`, until both are found.
    fn first_in_and_out(&self, holders: &WorkerSet) -> (Option<Filed>, Option<Filed>) {
        let (mut inside, mut outside) = (None, None);
        for (key, set) in &self.buckets {
            let (i, o) = set.first_in_and_out(holders);
            inside = inside.or(i.map(|i| (*key, i)));
            outside = outside.or(o.map(|o| (*key, o)));
            if inside.is_some() && outside.is_some() {
                break;
            }
        }
        (inside, outside)
    }
}

/// The minimum by `(score, key, index)` of `key` over workers that hold a
/// module and `key + penalty` over workers that do not — the kernel's
/// [`pick_worker`](kernel::pick_worker) over a pool — from two candidates:
/// the first holder and the first non-holder in `(key, index)` order.
/// Every other holder has a key at least the first's, and with
/// `penalty > 0` and rounding monotone every other non-holder scores at
/// least the first's `key + penalty`, so the minimum is one of the two; on
/// a score tie the lower `(key, index)` wins, as in the kernel. A holder's
/// score is its key because keys are non-negative, and `x + 0.0 == x`
/// there.
fn two_candidate_pick(holder: Option<Filed>, other: Option<Filed>, penalty: f64) -> Option<usize> {
    let (Some(h), Some(o)) = (holder, other) else {
        return holder.or(other).map(|(_, i)| i);
    };
    let (held, missed) = (f64::from_bits(h.0), f64::from_bits(o.0) + penalty);
    let pick = if held < missed {
        h
    } else if missed < held {
        o
    } else {
        h.min(o)
    };
    Some(pick.1)
}

/// Per-tier load index over the alive fleet, workers bucketed by routing
/// key.
///
/// Replaces the router's linear scans. The invariant: every alive worker
/// sits in exactly one pool — primary or pending, of exactly one tier —
/// keyed by `(routing load, worker index)`, and `slot` says which; a failed
/// worker sits in none. Each pool maps its keys, in order, to a
/// [`WorkerSet`] of the workers at that key. A healthy fleet's keys are
/// `(load + 1) × slowdown`, so a pool holds a handful of buckets: the
/// least-loaded worker of a tier is the first bucket's lowest bit, and
/// re-keying a worker clears one bit and sets another. Emptied sets wait in
/// `spares` for the next new key, so the steady state allocates nothing.
/// The `(key, index)` order reproduces the kernel's `(load, index)`
/// tie-break bit-for-bit. Because the pools partition the alive fleet
/// there is no separate set of all alive workers: their count is a
/// counter, their minimum the least of the pool minima, and their
/// `(key, index)` order the merge of the pools. Debug builds assert
/// agreement with the kernel's [`pick_worker`](kernel::pick_worker) on
/// every routing decision (see `ServingSim::ruled_pick`);
/// `load_index_matches_a_linear_scan` does the same against a model in
/// release builds.
#[derive(Debug, Clone)]
struct LoadIndex {
    primary: Vec<Pool>,
    pending_to: Vec<Pool>,
    /// Bucket sets no key holds, all clear.
    spares: Vec<WorkerSet>,
    /// Back-reference per worker: its pool and key, `None` while failed.
    slot: Vec<Option<(RoutePool, u64)>>,
    /// Workers with a slot.
    alive: usize,
}

impl LoadIndex {
    fn new(n: usize, tiers: usize) -> Self {
        LoadIndex {
            primary: vec![Pool::default(); tiers],
            pending_to: vec![Pool::default(); tiers],
            spares: Vec::new(),
            slot: vec![None; n],
            alive: 0,
        }
    }

    fn pool_mut(&mut self, pool: RoutePool) -> (&mut Pool, &mut Vec<WorkerSet>) {
        let pool = match pool {
            RoutePool::Primary(t) => &mut self.primary[t],
            RoutePool::PendingTo(t) => &mut self.pending_to[t],
        };
        (pool, &mut self.spares)
    }

    fn remove(&mut self, idx: usize) {
        if let Some((pool, key)) = self.slot[idx].take() {
            let (pool, spares) = self.pool_mut(pool);
            pool.remove(key, idx, spares);
            self.alive -= 1;
        }
    }

    /// Files worker `idx` under `(pool, key)`. A worker already filed
    /// exactly there is left alone: most refreshes follow a change that
    /// did not move the load (a batch moving from queue to in-flight).
    fn insert(&mut self, idx: usize, pool: RoutePool, key: u64) {
        if self.slot[idx] == Some((pool, key)) {
            return;
        }
        self.remove(idx);
        let n = self.slot.len();
        let (set, spares) = self.pool_mut(pool);
        set.insert(key, idx, spares, n);
        self.slot[idx] = Some((pool, key));
        self.alive += 1;
    }

    /// The pools, which between them hold every alive worker once.
    fn pools(&self) -> impl Iterator<Item = &Pool> {
        self.primary.iter().chain(&self.pending_to)
    }

    /// The kernel's [`pick_worker`](kernel::pick_worker) for a query
    /// bound for `tier`, over the candidate ladder: the tier's primaries,
    /// else the workers switching toward it, else the whole alive fleet.
    /// Without an add-on term that is the least `(key, index)` of the
    /// first non-empty pool, or of every pool. With one — the module's
    /// `holders` and the `penalty` the others pay — it is a choice between
    /// two candidates ([`two_candidate_pick`]), the fleet's first holder
    /// and first non-holder being the least of the pools' since its
    /// `(key, index)` order is their merge: `O(buckets × words)`, with no
    /// allocation, even for a module no worker holds.
    fn route(&self, tier: usize, affinity: Option<(&WorkerSet, f64)>) -> Option<usize> {
        let pool = [&self.primary[tier], &self.pending_to[tier]]
            .into_iter()
            .find(|pool| !pool.is_empty());
        let Some((holders, penalty)) = affinity else {
            return match pool {
                Some(pool) => pool.first(),
                None => self.pools().filter_map(Pool::first).min(),
            }
            .map(|(_, i)| i);
        };
        let (holder, other) = match pool {
            Some(pool) => pool.first_in_and_out(holders),
            None => self
                .pools()
                .map(|pool| pool.first_in_and_out(holders))
                .fold((None, None), |(h, o), (ph, po)| {
                    (h.into_iter().chain(ph).min(), o.into_iter().chain(po).min())
                }),
        };
        two_candidate_pick(holder, other, penalty)
    }

    fn alive_len(&self) -> usize {
        self.alive
    }

    /// Alive workers whose target tier is `tier` (primaries plus workers
    /// switching toward it).
    fn tier_len(&self, tier: usize) -> usize {
        self.primary[tier].len() + self.pending_to[tier].len()
    }
}

/// An attached trace replay: the stream of its arrivals and the one of them
/// that is scheduled. Handling that arrival draws and schedules the next,
/// all under the one event-queue sequence number reserved when the stream
/// was attached — so the events pop exactly where scheduling every arrival
/// at attach time put them, and the queue holds one pending arrival per
/// stream.
#[derive(Debug)]
struct TraceFeed {
    stream: ArrivalStream,
    /// Serving time when the stream was attached: earlier arrivals are
    /// clamped up to it, as a submission in the past is.
    floor: SimTime,
    /// The stream's place in the same-instant event order.
    seq: u64,
    /// The scheduled arrival and the id it will be admitted under; `None`
    /// once the stream is exhausted.
    pending: Option<(u64, QuerySpec)>,
}

impl TraceFeed {
    /// Draws the next arrival into `pending`; returns when it is due.
    fn advance(&mut self) -> Option<SimTime> {
        let id = self.stream.next_id();
        self.pending = self.stream.next().map(|spec| (id, spec));
        self.pending
            .map(|(_, spec)| arrival_time(&spec, self.floor))
    }
}

/// When a submission made at serving time `now` arrives: at its requested
/// instant, or now if that is unset or already past.
fn arrival_time(spec: &QuerySpec, now: SimTime) -> SimTime {
    spec.at.unwrap_or(now).max(now)
}

struct ServingSim<'a> {
    config: SystemConfig,
    settings: RunSettings,
    /// The serving kernel: tier roster, service-time model, routing score,
    /// entry tier and boundary verdict. This engine only schedules — every
    /// decision is a call into it.
    kernel: Kernel<'a>,
    /// The backend-agnostic control plane; this backend only gathers
    /// [`ControlObservation`]s and actuates the returned directives.
    control: ControlLoop,
    workers: Vec<Worker>,
    /// Per-tier load index over `workers`, bucketed by key; kept in sync by
    /// [`Self::refresh_index`] after every load/health/tier mutation.
    index: LoadIndex,
    /// The records of the queries between submission (a trace arrival: its
    /// arrival) and their terminal state: what is in flight, not what was
    /// ever submitted. Worker queues, batches and events name them by slot.
    queries: Slab<Query>,
    /// Ids handed out so far, trace replays' reserved ranges included; the
    /// next submission gets this one.
    submitted: u64,
    /// Attached trace replays, in attach (and so id) order.
    feeds: Vec<TraceFeed>,
    /// Per-boundary confidence thresholds, entry boundary first.
    thresholds: Vec<f64>,
    /// The batch each tier's workers run under the adopted plan
    /// ([`kernel::adopt_batches`]), read at dispatch.
    batches: Vec<usize>,
    /// `true` while the actuated plan is the overload fallback: the
    /// predictive router stops bypassing so every arrival enters the entry
    /// tier, where the floored thresholds can actually shed it (bypassed
    /// traffic is immune to the threshold lever).
    bypass_suspended: bool,
    /// Pre-execution router sending predicted-hard queries straight to a
    /// deeper tier; `None` (every two-tier run) keeps all arrivals at the
    /// entry tier.
    router: Option<OnlinePredictiveRouter>,
    // Scenario state.
    actions: IncidentLog,
    difficulty_delta: f64,
    /// The load-correlated fault engine, when the scenario carries one.
    hazard: Option<HazardProcess>,
    /// Per-worker bounded LRU add-on module caches; empty with
    /// [`SystemConfig::addons`] unset. A dispatch whose batch needs
    /// modules not resident here pays their load latency.
    caches: Vec<ModuleCache>,
    /// Per catalog module, the workers whose cache holds it: the
    /// affinity pick's holder sets, updated from each cache's resident
    /// bitset after every dispatch charge and fail-stop.
    holders: Vec<WorkerSet>,
    /// Scratch: distinct missing module ids of the batch being priced.
    addon_scratch: Vec<usize>,
    /// Scratch: the dispatching worker's resident bitset before its swaps
    /// are charged.
    resident_scratch: Vec<u64>,
    /// Dispatches so far; debug builds re-derive every holder set every
    /// [`HOLDER_CHECK_EVERY`]th.
    #[cfg(debug_assertions)]
    dispatches: u64,
    /// Debug builds: by query id, whether its arrival has fired, so a
    /// second `Arrival` for one query fails loudly.
    #[cfg(debug_assertions)]
    arrived: Vec<bool>,
    /// The session's record: every arrival, outcome, incident, threshold
    /// and add-on charge, and the tick window the controller reads.
    ledger: Ledger,
    /// The last control tick's observation, whose vectors the next one
    /// reuses.
    observation: ControlObservation,
    /// The last fleet tally a hazard check or control tick took, whose
    /// vectors the next one reuses.
    fleet: FleetTally,
    rng: rand::rngs::StdRng,
    // Reused scratch buffers — dispatch and churn paths run at event rate,
    // so they must not allocate per event.
    /// Holds a completed batch while its queries are finished and routed.
    batch_scratch: Vec<Slot>,
    /// Holds a moved or failed worker's queue while it is handed back.
    requeue_scratch: Vec<Slot>,
}

impl<'a> ServingSim<'a> {
    fn new(
        config: SystemConfig,
        settings: RunSettings,
        runtime: &'a CascadeRuntime,
        control: ControlLoop,
        actions: IncidentLog,
        hazard: Option<HazardProcess>,
    ) -> Self {
        let kernel = Kernel::new(runtime, &config, &settings);
        let num_tiers = kernel.num_tiers();
        let boundaries = num_tiers - 1;
        let thresholds = vec![0.5; boundaries];
        let router = kernel.new_router();
        // A fresh fleet idles on the terminal tier until the bootstrap plan
        // below places it.
        let workers = (0..config.num_workers)
            .map(|_| Worker {
                tier: num_tiers - 1,
                pending_tier: None,
                queue: VecDeque::new(),
                busy: false,
                in_flight: Vec::new(),
                failed: false,
                epoch: 0,
                health: WorkerHealth::healthy(),
            })
            .collect();
        let mut sim = ServingSim {
            index: LoadIndex::new(config.num_workers, num_tiers),
            workers,
            queries: Slab::new(),
            submitted: 0,
            feeds: Vec::new(),
            thresholds,
            batches: vec![1; num_tiers],
            bypass_suspended: false,
            ledger: Ledger::new(&config, &runtime.reference, num_tiers, router.is_some()),
            observation: ControlObservation::default(),
            fleet: FleetTally::new(num_tiers),
            router,
            actions,
            difficulty_delta: 0.0,
            hazard,
            caches: match &config.addons {
                Some(a) => (0..config.num_workers)
                    .map(|_| ModuleCache::new(a.cache_mem_mb))
                    .collect(),
                None => Vec::new(),
            },
            holders: match &config.addons {
                Some(a) => vec![WorkerSet::new(config.num_workers); a.catalog.len()],
                None => Vec::new(),
            },
            addon_scratch: Vec::new(),
            resident_scratch: Vec::new(),
            #[cfg(debug_assertions)]
            dispatches: 0,
            #[cfg(debug_assertions)]
            arrived: Vec::new(),
            rng: seeded_rng(derive_seed(config.seed, 0x51A7)),
            batch_scratch: Vec::new(),
            requeue_scratch: Vec::new(),
            kernel,
            config,
            settings,
            control,
        };
        for i in 0..sim.workers.len() {
            sim.refresh_index(i);
        }
        sim.bootstrap_allocation();
        sim
    }

    /// Re-derives worker `idx`'s load-index entry from its live state.
    /// Must run after any mutation of the worker's failure flag, tier or
    /// pending assignment, health, or load (queue / in-flight length).
    fn refresh_index(&mut self, idx: usize) {
        match self.index_entry(idx) {
            Some((pool, key)) => self.index.insert(idx, pool, key),
            None => self.index.remove(idx),
        }
    }

    /// Where [`Self::refresh_index`] files worker `idx`: its routing pool
    /// and load key, or `None` while it is failed.
    fn index_entry(&self, idx: usize) -> Option<(RoutePool, u64)> {
        let w = &self.workers[idx];
        if w.failed {
            return None;
        }
        let pool = match w.pending_tier {
            Some(t) => RoutePool::PendingTo(t),
            None => RoutePool::Primary(w.tier),
        };
        Some((pool, load_key(self.routing_load(idx))))
    }

    /// Allocates the record of query `id`, arriving at `at`. Scheduling
    /// (or handling) the arrival is the caller's.
    fn admit(&mut self, id: u64, at: SimTime, spec: &QuerySpec) -> Slot {
        self.queries
            .insert(Query::new(id, at, spec, self.config.slo))
    }

    /// Takes the next `n` query ids; returns the first.
    fn reserve_ids(&mut self, n: u64) -> u64 {
        let first = self.submitted;
        self.submitted += n;
        first
    }

    /// Appends a perturbation to the action table, returning its index for
    /// [`Event::Scenario`] scheduling.
    fn push_action(&mut self, at: SimTime, event: ScenarioEvent) -> usize {
        self.actions.push(Incident { at, event });
        self.actions.len() - 1
    }

    /// Initial allocation before any demand has been observed, planned by
    /// the control plane. The fleet idles on the terminal tier, so the
    /// kernel's moves place it positionally; bootstrap pays no switch
    /// delay.
    fn bootstrap_allocation(&mut self) {
        if let ControlDirective::Apply { plan } =
            self.control.bootstrap(self.settings.peak_demand_hint)
        {
            let targets = self.adopt_plan(&plan);
            for (idx, tier) in self.worker_moves(&targets) {
                self.workers[idx].tier = tier;
                self.refresh_index(idx);
            }
            self.check_staffing(&targets);
        }
    }

    /// The kernel's [`worker_moves`](kernel::worker_moves) toward
    /// `targets`. The load index holds each tier's membership, so only the
    /// tiers that give workers up are walked, never the whole fleet.
    fn worker_moves(&self, targets: &[usize]) -> Vec<(usize, usize)> {
        let (index, workers) = (&self.index, &self.workers);
        kernel::worker_moves(
            |t| index.tier_len(t),
            targets,
            |t| {
                let pools = [&index.primary[t], &index.pending_to[t]];
                pools
                    .into_iter()
                    .flat_map(Pool::iter)
                    .map(|(_, i)| (workers[i].load(), i))
            },
        )
    }

    /// Workers currently alive (not fail-stopped), answered by the load
    /// index in `O(1)`.
    fn alive_count(&self) -> usize {
        let n = self.index.alive_len();
        debug_assert_eq!(n, self.workers.iter().filter(|w| !w.failed).count());
        n
    }

    /// Whether any alive worker hosts (or is switching to) a tier deeper
    /// than `tier`, answered by the load index in `O(tiers)` — this runs on
    /// every cascade completion, where a fleet scan would dominate at large
    /// worker counts.
    fn has_alive_deeper(&self, tier: usize) -> bool {
        let v = (tier + 1..self.kernel.num_tiers()).any(|t| self.index.tier_len(t) > 0);
        debug_assert_eq!(
            v,
            self.workers
                .iter()
                .any(|w| !w.failed && w.target_tier() > tier)
        );
        v
    }

    /// Takes over a plan's batches and routing parameters — per-boundary
    /// thresholds (Proteus's heavy fraction in the first), the bypass
    /// suspension under the overload fallback — and returns the per-tier
    /// worker targets it implies for the alive fleet.
    fn adopt_plan(&mut self, plan: &LadderAllocation) -> Vec<usize> {
        kernel::adopt_batches(&mut self.batches, plan);
        self.thresholds.clone_from(&plan.thresholds);
        self.bypass_suspended = !plan.feasible;
        kernel::worker_targets(&plan.workers, self.alive_count())
    }

    /// Moves workers to an adopted plan's `targets`: the kernel's
    /// [`worker_moves`](kernel::worker_moves) go through the model-switch
    /// protocol (idle workers switch now and pay the load delay; busy ones
    /// switch at their next batch boundary), and each hands its queue back
    /// to the tier it leaves, its target before the move.
    fn apply_plan(&mut self, targets: &[usize], now: SimTime, queue: &mut EventQueue<Event>) {
        for (idx, to) in self.worker_moves(targets) {
            let from = self.workers[idx].target_tier();
            self.workers[idx].pending_tier = Some(to);
            self.hand_back(idx, from, now, queue);
            if !self.workers[idx].busy {
                self.begin_switch(idx, now, queue);
            }
        }
        self.check_staffing(targets);
    }

    /// Hands worker `idx`'s queue back to `from`, the tier it leaves, by
    /// the kernel's hand-back rule (see [`kernel::worker_moves`]). The
    /// worker has failed or switches away: its index entry is refreshed
    /// before anything is routed, so the router cannot hand the queue
    /// straight back.
    fn hand_back(&mut self, idx: usize, from: usize, now: SimTime, queue: &mut EventQueue<Event>) {
        let mut held = std::mem::take(&mut self.requeue_scratch);
        held.extend(self.workers[idx].queue.drain(..));
        self.refresh_index(idx);
        for q in held.drain(..) {
            self.route_to_tier(from, q, now, queue);
        }
        self.requeue_scratch = held;
    }

    /// In-run twin (debug and `verify` builds): once a plan is applied,
    /// every tier's alive members, as the load index counts them, number
    /// its worker target.
    fn check_staffing(&self, targets: &[usize]) {
        for (tier, &target) in targets.iter().enumerate() {
            debug_assert_eq!(
                self.index.tier_len(tier),
                target,
                "tier {tier} is staffed off its target after a plan"
            );
        }
    }

    fn begin_switch(&mut self, idx: usize, now: SimTime, queue: &mut EventQueue<Event>) {
        debug_assert!(!self.workers[idx].busy);
        self.workers[idx].busy = true;
        debug_assert!(self.workers[idx].in_flight.is_empty());
        queue.push(
            now + MODEL_SWITCH_DELAY,
            Event::BatchDone {
                worker: idx,
                epoch: self.workers[idx].epoch,
            },
        );
    }

    /// The load the router ranks worker `i` by (see
    /// [`Kernel::routing_load`]): health-weighted, or raw queue depth under
    /// the health-blind routing ablation.
    fn routing_load(&self, i: usize) -> f64 {
        let w = &self.workers[i];
        self.kernel
            .routing_load(w.queue.len(), w.in_flight.len(), w.health.slowdown())
    }

    /// Re-derives every holder set from the caches and asserts it.
    #[cfg(debug_assertions)]
    fn check_holders(&self) {
        for (m, holders) in self.holders.iter().enumerate() {
            for (i, cache) in self.caches.iter().enumerate() {
                assert_eq!(
                    holders.contains(i),
                    cache.contains(m),
                    "holder set of module {m} is stale for worker {i}"
                );
            }
        }
    }

    /// Health-weighted join-shortest-queue routing to the pool of a tier,
    /// by the kernel's [`pick_worker`](kernel::pick_worker): alive workers
    /// already running the tier, else ones switching toward it, else any
    /// alive worker, each ranked by its routing load plus, for a query
    /// carrying an add-on, the [`Kernel::miss_penalty`] when its cache
    /// lacks the module.
    ///
    /// The routing load is health-weighted, so a 2×-degraded worker's
    /// queue slots cost twice a healthy one's. Health-blind JSQ keeps
    /// feeding stragglers as if they drained at nameplate speed, which is
    /// exactly where SLO violations concentrate under brownout. The load
    /// index answers the pick ([`LoadIndex::route`]); debug builds run the
    /// kernel's rule over the whole fleet and compare on every decision,
    /// so a missed [`Self::refresh_index`] call fails loudly in tests
    /// instead of silently diverging.
    fn route_to_tier(
        &mut self,
        tier: usize,
        query: Slot,
        now: SimTime,
        queue: &mut EventQueue<Event>,
    ) {
        let penalty = self.kernel.miss_penalty(tier, self.queries[query].addon);
        let chosen = self
            .index
            .route(tier, penalty.map(|(id, p)| (&self.holders[id], p)))
            .expect("scenario validation keeps at least one worker alive");
        #[cfg(debug_assertions)]
        assert_eq!(
            Some(chosen),
            self.ruled_pick(tier, penalty),
            "the load index diverged from the kernel's routing pick"
        );
        self.workers[chosen].queue.push_back(query);
        self.refresh_index(chosen);
        self.try_start(chosen, now, queue);
    }

    /// The kernel's routing pick over every alive worker, scanned: the
    /// debug-build twin of [`LoadIndex::route`].
    #[cfg(debug_assertions)]
    fn ruled_pick(&self, tier: usize, penalty: Option<(usize, f64)>) -> Option<usize> {
        let alive = self.workers.iter().enumerate().filter(|(_, w)| !w.failed);
        kernel::pick_worker(alive.map(|(i, w)| kernel::Candidate {
            worker: i,
            rung: kernel::Rung::of(tier, w.target_tier(), w.pending_tier.is_none()),
            load: self.routing_load(i),
            miss: match penalty {
                Some((id, p)) if !self.caches[i].contains(id) => p,
                _ => 0.0,
            },
        }))
    }

    /// Starts worker `idx`'s next batch if it is idle: a model switch when
    /// one is pending, else the kernel's [`Kernel::dispatch`] over its
    /// queue, whose sheds are retired here and whose batch moves in flight.
    fn try_start(&mut self, idx: usize, now: SimTime, queue: &mut EventQueue<Event>) {
        let w = &self.workers[idx];
        if w.busy || w.failed || (w.queue.is_empty() && w.pending_tier.is_none()) {
            return;
        }
        if w.pending_tier.is_some() {
            self.begin_switch(idx, now, queue);
            return;
        }
        let (tier, pending, queries) = (w.tier, &w.queue, &self.queries);
        let mut cache = self.caches.get_mut(idx);
        if let Some(cache) = &cache {
            self.resident_scratch.clear();
            self.resident_scratch
                .extend_from_slice(cache.resident_bits());
        }
        let dispatch = self.kernel.dispatch(
            tier,
            pending.len(),
            self.batches[tier],
            now,
            w.health.slowdown(),
            cache.as_deref_mut(),
            |i| queries[pending[i]],
            &mut self.ledger,
            &mut self.addon_scratch,
        );
        if let Some(cache) = cache {
            update_holders(
                &mut self.holders,
                idx,
                &self.resident_scratch,
                cache.resident_bits(),
            );
        }
        // Popped one at a time: a `VecDeque::drain` costs the dispatch path
        // even when it drains nothing.
        for _ in 0..dispatch.shed {
            let shed = self.workers[idx].queue.pop_front();
            self.queries.remove(shed.expect("shed queries are queued"));
        }
        // Sheds changed the load; moving queue entries into the in-flight
        // buffer below does not (both count toward it). Every caller
        // refreshed `idx` after its own last change, so without a shed the
        // entry is already current.
        debug_assert!(
            dispatch.shed > 0 || self.index.slot[idx] == self.index_entry(idx),
            "try_start found worker {idx}'s load-index entry stale"
        );
        if dispatch.shed > 0 {
            self.refresh_index(idx);
        }
        let Some(secs) = dispatch.secs else {
            return;
        };
        let w = &mut self.workers[idx];
        debug_assert!(w.in_flight.is_empty(), "dispatch on a busy worker");
        // The worker's reusable in-flight buffer: dispatch runs at event
        // rate and must not allocate.
        let take = w.queue.len().min(self.batches[tier]);
        w.in_flight.extend(w.queue.drain(..take));
        w.busy = true;
        #[cfg(debug_assertions)]
        {
            self.dispatches += 1;
            if self.dispatches.is_multiple_of(HOLDER_CHECK_EVERY) {
                self.check_holders();
            }
        }
        queue.push(
            now + SimDuration::from_secs_f64(secs),
            Event::BatchDone {
                worker: idx,
                epoch: self.workers[idx].epoch,
            },
        );
    }

    /// The scheduled arrival of trace stream `feed` fires: the stream's
    /// next arrival takes its place in the event queue, and the query gets
    /// its record now — not when the replay was attached — and arrives.
    fn handle_trace_arrival(&mut self, feed: usize, now: SimTime, queue: &mut EventQueue<Event>) {
        let f = &mut self.feeds[feed];
        let (id, spec) = f.pending.take().expect("a scheduled arrival is pending");
        if let Some(at) = f.advance() {
            queue.push_at(at, f.seq, Event::TraceArrival(feed));
        }
        let query = self.admit(id, now, &spec);
        self.handle_arrival(query, now, queue);
    }

    fn handle_arrival(&mut self, query: Slot, now: SimTime, queue: &mut EventQueue<Event>) {
        #[cfg(debug_assertions)]
        {
            let id = self.queries[query].id as usize;
            self.arrived.resize(self.arrived.len().max(id + 1), false);
            assert!(
                !std::mem::replace(&mut self.arrived[id], true),
                "duplicate arrival for query {id}"
            );
        }
        let tier = self.kernel.arrive(
            &mut self.queries[query],
            now,
            self.difficulty_delta,
            &self.thresholds,
            &mut self.rng,
            self.router.as_ref(),
            self.bypass_suspended,
            &mut self.ledger,
        );
        self.route_to_tier(tier, query, now, queue);
    }

    fn handle_batch_done(
        &mut self,
        idx: usize,
        epoch: u64,
        now: SimTime,
        queue: &mut EventQueue<Event>,
    ) {
        if self.workers[idx].epoch != epoch {
            // Stale completion from an incarnation that fail-stopped; its
            // in-flight work was already re-routed by the failure handler.
            return;
        }
        self.workers[idx].busy = false;
        // Swap the finished batch into the reusable scratch buffer (the
        // worker gets the previously-cleared one back) — no allocation at
        // completion rate.
        let mut batch = std::mem::take(&mut self.batch_scratch);
        debug_assert!(batch.is_empty());
        std::mem::swap(&mut batch, &mut self.workers[idx].in_flight);
        if batch.is_empty() {
            self.batch_scratch = batch;
            // Model switch finished.
            if let Some(t) = self.workers[idx].pending_tier.take() {
                self.workers[idx].tier = t;
            }
            self.refresh_index(idx);
            self.try_start(idx, now, queue);
            return;
        }
        let tier = self.workers[idx].tier;
        // The emptied in-flight buffer lowered this worker's load; the
        // index must see that before any escalation below routes.
        self.refresh_index(idx);
        // Tier membership cannot change while the batch is scored, so one
        // index probe answers for every member.
        let deeper_alive = self.has_alive_deeper(tier);
        for &query in &batch {
            let escalated = self.kernel.finish(
                tier,
                now,
                &mut self.queries[query],
                self.difficulty_delta,
                &self.thresholds,
                deeper_alive,
                self.router.as_mut(),
                &mut self.ledger,
            );
            if escalated {
                self.route_to_tier(tier + 1, query, now, queue);
            } else {
                self.queries.remove(query);
            }
        }
        batch.clear();
        self.batch_scratch = batch;
        self.try_start(idx, now, queue);
    }

    /// A scenario fail-stop of `victims`: fail-stop loses batch progress,
    /// so each hands its queued *and* in-flight queries back to the tier
    /// it leaves once every victim is down, and stale completions are
    /// fenced off by the epoch bump.
    fn fail_workers(&mut self, victims: &[usize], now: SimTime, queue: &mut EventQueue<Event>) {
        for &idx in victims {
            let w = &mut self.workers[idx];
            w.failed = true;
            w.epoch += 1;
            w.busy = false;
            // A dead worker's degradation dies with it: it rejoins healthy
            // (fresh instance, fresh weights).
            w.health = WorkerHealth::healthy();
            w.queue.extend(w.in_flight.drain(..));
            // A rejoining instance starts with cold module caches.
            if let Some(cache) = self.caches.get_mut(idx) {
                update_holders(&mut self.holders, idx, cache.resident_bits(), &[]);
                cache.clear();
            }
            self.refresh_index(idx);
        }
        for &idx in victims {
            let from = self.workers[idx].target_tier();
            self.workers[idx].pending_tier = None;
            self.hand_back(idx, from, now, queue);
        }
    }

    /// A scenario recovery of `returning`: each pays the model load delay
    /// before it can serve (the switch protocol a reassigned worker
    /// follows).
    fn recover_workers(
        &mut self,
        returning: &[usize],
        now: SimTime,
        queue: &mut EventQueue<Event>,
    ) {
        for &idx in returning {
            let w = &mut self.workers[idx];
            w.failed = false;
            w.busy = false;
            w.epoch += 1;
            w.pending_tier = Some(w.tier);
            self.refresh_index(idx);
            self.begin_switch(idx, now, queue);
        }
    }

    /// Sets the health of `workers`. In-flight batches keep their
    /// already-scheduled completion; a new speed bites from the next
    /// dispatch.
    fn set_health(&mut self, workers: &[usize], health: WorkerHealth) {
        for &idx in workers {
            self.workers[idx].health = health;
            self.refresh_index(idx);
        }
    }

    /// Applies one perturbation against live state and records what was
    /// *actually applied* in the incident log — the single funnel every
    /// source (scheduled timeline, mid-run injection, hazard draw) goes
    /// through. A capacity event touches the workers
    /// [`kernel::capacity_targets`] picks (the testbed applies the same
    /// rule), and only the applied count is logged, so the log stays a
    /// faithful, replayable account rather than a wish list.
    fn fire_event(&mut self, event: ScenarioEvent, now: SimTime, queue: &mut EventQueue<Event>) {
        let applied = match event {
            ScenarioEvent::Capacity(capacity) => {
                let states: Vec<(bool, bool)> = self
                    .workers
                    .iter()
                    .map(|w| (w.failed, w.health.is_degraded()))
                    .collect();
                let touched = kernel::capacity_targets(capacity, &states);
                match capacity {
                    CapacityEvent::Fail(_) => self.fail_workers(&touched, now, queue),
                    CapacityEvent::Recover(_) => self.recover_workers(&touched, now, queue),
                    CapacityEvent::Degrade(_, slowdown) => {
                        self.set_health(&touched, WorkerHealth::degraded(slowdown))
                    }
                    CapacityEvent::Restore(_) => self.set_health(&touched, WorkerHealth::healthy()),
                }
                kernel::applied_capacity_event(capacity, touched.len())
            }
            ScenarioEvent::Difficulty(delta) => {
                self.difficulty_delta = delta;
                Some(event)
            }
        };
        if let Some(event) = applied {
            self.ledger.record_incident(Incident { at: now, event });
        }
    }

    /// One hazard evaluation: feed the fleet's instantaneous utilization to
    /// the seeded hazard process and fire whatever it draws. Everything the
    /// hazard does lands in the incident log, so a surprising run replays
    /// from its report.
    fn handle_hazard_check(&mut self, now: SimTime, queue: &mut EventQueue<Event>) {
        self.fleet.fill(self.workers.iter().map(Worker::state));
        let Some(hazard) = self.hazard.as_mut() else {
            return;
        };
        let events = hazard.step(self.fleet.utilization(), self.fleet.health());
        for event in events {
            self.fire_event(event, now, queue);
        }
        queue.push(now + self.config.control_interval, Event::HazardCheck);
    }

    /// One control tick: hand what this backend observed since the last
    /// tick to the shared [`ControlLoop`] (demand estimation → profile
    /// estimation → allocation planning) and actuate the directive.
    fn handle_control_tick(&mut self, now: SimTime, queue: &mut EventQueue<Event>) {
        self.fleet.fill(self.workers.iter().map(Worker::state));
        self.ledger
            .observe(&mut self.observation, now, &self.fleet, &self.batches);
        if let ControlDirective::Apply { plan } = self.control.step(&self.observation) {
            let targets = self.adopt_plan(&plan);
            self.apply_plan(&targets, now, queue);
        }
        self.ledger.record_threshold(now, self.thresholds[0]);
        queue.push(now + self.config.control_interval, Event::ControlTick);
    }

    fn fleet_tally(&self) -> FleetTally {
        FleetTally::of(
            self.kernel.num_tiers(),
            self.workers.iter().map(Worker::state),
        )
    }

    /// Live metrics for [`SessionSnapshot`] taps.
    fn snapshot(&self, now: SimTime) -> SessionSnapshot {
        self.ledger.snapshot(
            now,
            self.fleet_tally(),
            self.thresholds.clone(),
            self.submitted,
            self.control.deferral_gap(),
        )
    }

    /// Handles one event at simulated time `now`, scheduling any follow-up
    /// events on `queue`.
    fn handle(&mut self, now: SimTime, event: Event, queue: &mut EventQueue<Event>) {
        match event {
            Event::Arrival(query) => self.handle_arrival(query, now, queue),
            Event::TraceArrival(feed) => self.handle_trace_arrival(feed, now, queue),
            Event::BatchDone { worker, epoch } => self.handle_batch_done(worker, epoch, now, queue),
            Event::ControlTick => self.handle_control_tick(now, queue),
            Event::Scenario(i) => self.fire_event(self.actions[i].event, now, queue),
            Event::HazardCheck => self.handle_hazard_check(now, queue),
        }
    }
}

/// The discrete-event simulator behind the unified session API: owns the
/// serving state machine and its event queue, pops the queue in time order
/// up to each advance, and implements [`ServingBackend`] so
/// [`ServingSession`] can drive it incrementally.
///
/// Constructed by
/// [`SessionBuilder::build`](crate::serve::SessionBuilder::build).
/// Deterministic: the same submissions and tick schedule replay
/// bit-identically.
pub(crate) struct SimBackend<'a> {
    state: ServingSim<'a>,
    queue: EventQueue<Event>,
    /// Timestamp of the last processed event.
    clock: SimTime,
    /// Number of events processed so far.
    processed: u64,
    /// The latest instant the backend has been driven to (>= `clock`).
    cursor: SimTime,
    /// Whether the scenario timeline and the first control tick have been
    /// scheduled. Deferred to the first advance so that pre-submitted
    /// arrivals keep their schedule order ahead of same-instant control
    /// events — exactly the batch wrappers' event order.
    started: bool,
    /// Events the run may still process: [`EVENT_BUDGET`], topped up by
    /// [`EVENTS_PER_QUERY`] for every submitted query.
    remaining_budget: u64,
    /// The fleet after the injected perturbations that are scheduled but
    /// have not fired yet, folded through [`FleetHealth::after`]; `None`
    /// once an advance has fired them all.
    projected: Option<FleetHealth>,
}

impl std::fmt::Debug for SimBackend<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimBackend")
            .field("cursor", &self.cursor)
            .field("started", &self.started)
            .field("processed", &self.processed)
            .finish_non_exhaustive()
    }
}

impl<'a> SimBackend<'a> {
    /// Builds the simulator backend from validated session inputs.
    pub fn new(spec: &SessionSpec<'a>) -> Self {
        let actions = spec
            .scenario
            .as_ref()
            .map(|s| s.timeline())
            .unwrap_or_default();
        let hazard = spec
            .scenario
            .as_ref()
            .and_then(|s| s.hazard())
            .map(|h| HazardProcess::new(h, spec.config.control_interval));
        let state = ServingSim::new(
            spec.config.clone(),
            spec.settings.clone(),
            spec.runtime,
            spec.control_loop(),
            actions,
            hazard,
        );
        // Pending events scale with the fleet (one batch or switch timer
        // per worker) plus a cushion for explicit submissions, control
        // ticks and scenario actions — a trace replay holds no heap entry,
        // only one pending arrival beside the heap however long it is — so
        // preallocating keeps multi-million-event replays free of
        // event-queue reallocation.
        let event_capacity = spec.config.num_workers * 4 + 1024;
        SimBackend {
            state,
            queue: EventQueue::with_capacity(event_capacity),
            clock: SimTime::ZERO,
            processed: 0,
            cursor: SimTime::ZERO,
            started: false,
            remaining_budget: EVENT_BUDGET,
            projected: None,
        }
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for (i, inc) in self.state.actions.iter().enumerate() {
            self.queue.push(inc.at, Event::Scenario(i));
        }
        let interval = self.state.config.control_interval;
        self.queue
            .push(SimTime::ZERO + interval, Event::ControlTick);
        if let Some(first) = self.state.hazard.as_ref().map(HazardProcess::first_check) {
            self.queue.push(first, Event::HazardCheck);
        }
    }
}

impl ServingBackend for SimBackend<'_> {
    fn now(&self) -> SimTime {
        self.cursor
    }

    fn submit(&mut self, spec: QuerySpec) -> QueryTicket {
        let at = arrival_time(&spec, self.cursor);
        let id = self.state.reserve_ids(1);
        let query = self.state.admit(id, at, &spec);
        let deadline = self.state.queries[query].deadline;
        self.queue.push(at, Event::Arrival(query));
        self.remaining_budget = self.remaining_budget.saturating_add(EVENTS_PER_QUERY);
        QueryTicket {
            id: QueryId(id),
            arrival: at,
            deadline,
        }
    }

    fn submit_stream(&mut self, stream: ArrivalStream) {
        let n = stream.len() as u64;
        let seq = self.queue.reserve_seq();
        let state = &mut self.state;
        let first_id = state.reserve_ids(n);
        debug_assert_eq!(stream.next_id(), first_id, "stream drawn for other ids");
        let mut feed = TraceFeed {
            stream,
            floor: self.cursor,
            seq,
            pending: None,
        };
        let first = feed.advance();
        state.feeds.push(feed);
        let feed = state.feeds.len() - 1;
        if let Some(at) = first {
            self.queue.push_at(at, seq, Event::TraceArrival(feed));
        }
        self.remaining_budget = self
            .remaining_budget
            .saturating_add(n.saturating_mul(EVENTS_PER_QUERY));
    }

    fn tick(&mut self, until: SimTime) {
        self.ensure_started();
        if until > self.cursor {
            self.cursor = until;
        }
        let horizon = self.cursor;
        let mut budget = self.remaining_budget;
        while self.queue.peek_time().is_some_and(|t| t <= horizon) {
            if budget == 0 {
                debug_assert!(
                    false,
                    "event budget exhausted at {}: a schedule loop",
                    self.clock
                );
                break;
            }
            budget -= 1;
            let (t, event) = self.queue.pop().expect("peeked event must pop");
            debug_assert!(t >= self.clock, "time went backwards: {t} < {}", self.clock);
            self.clock = t;
            self.processed += 1;
            self.state.handle(t, event, &mut self.queue);
        }
        self.remaining_budget = budget;
        // Injected perturbations scheduled at or before the cursor have
        // fired now and are reflected in the live fleet state.
        self.projected = None;
    }

    fn drain_completions(&mut self) -> Vec<QueryOutcome> {
        self.state.ledger.drain()
    }

    fn apply_perturbation(&mut self, event: ScenarioEvent) -> Result<(), ScenarioError> {
        self.ensure_started();
        // Check against the fleet *projected* over injections that are
        // scheduled but have not fired yet (they fire at the next advance),
        // so back-to-back injections compose like the cluster backend's
        // immediate application. A bad event must never reach the incident
        // log, or the recording stops being replayable.
        let fleet = self
            .projected
            .unwrap_or_else(|| self.state.fleet_tally().health());
        self.projected = Some(fleet.after(self.cursor, &event)?);
        let at = self.cursor;
        let idx = self.state.push_action(at, event);
        self.queue.push(at, Event::Scenario(idx));
        Ok(())
    }

    fn snapshot(&self) -> SessionSnapshot {
        self.state.snapshot(self.cursor)
    }

    fn finish(mut self: Box<Self>, horizon: SimTime) -> RunReport {
        self.tick(horizon);
        let mut state = self.state;
        // Whatever has a record is unfinished. Arrived but never finished:
        // it violated its deadline long ago (the drain period exceeds the
        // SLO). Submitted for an arrival past the horizon: it never entered
        // the system, but every submission must be accounted — mirror the
        // cluster backend's shutdown-drop bookkeeping.
        let live = state.queries.values().map(|q| (QueryId(q.id), q.arrival));
        let mut live: Vec<_> = live.collect();
        live.sort_unstable();
        // So is the rest of every trace replay the horizon cut short: its
        // scheduled arrival and the ones not drawn yet, in id order.
        let unreplayed = state.feeds.iter_mut().flat_map(|feed| {
            std::iter::from_fn(move || {
                let (id, spec) = feed.pending?;
                let arrival = arrival_time(&spec, feed.floor);
                feed.advance();
                Some((QueryId(id), arrival))
            })
        });
        let deferral_errors = state.control.take_deferral_error_series();
        state.ledger.close(
            state.settings.policy,
            state.submitted,
            live.into_iter().chain(unreplayed),
            horizon,
            deferral_errors,
        )
    }
}

/// Runs one policy against a demand trace and reports the paper's metrics.
///
/// Arrivals are Poisson within each trace bin, seeded from
/// `config.seed` — identical across policies so comparisons are paired.
/// Equivalent to [`run_scenario`] with a perturbation-free scenario.
///
/// This is a thin wrapper over a [`ServingSession`]: it replays the trace
/// into a simulator-backed session and finishes it. Hand-driving the same
/// session produces a bit-identical [`RunReport`] (`tests/api_parity.rs`).
///
/// # Panics
///
/// Panics if the configuration is invalid.
///
/// # Examples
///
/// ```
/// use diffserve_core::prelude::*;
/// use diffserve_imagegen::{cascade1, DiscriminatorConfig, FeatureSpec};
/// use diffserve_simkit::time::SimDuration;
/// use diffserve_trace::Trace;
///
/// // Tiny runtime so the doctest stays fast.
/// let runtime = CascadeRuntime::prepare(
///     cascade1(FeatureSpec::default()),
///     200,
///     7,
///     DiscriminatorConfig { train_prompts: 100, epochs: 2, ..Default::default() },
/// );
/// let config = SystemConfig { num_workers: 4, ..Default::default() };
/// let trace = Trace::constant(2.0, SimDuration::from_secs(10))?;
/// let report = run_trace(
///     &runtime,
///     &config,
///     &RunSettings::new(Policy::ClipperLight, 2.0),
///     &trace,
/// );
/// assert_eq!(report.completed + report.dropped, report.total_queries);
/// # Ok::<(), diffserve_trace::TraceError>(())
/// ```
pub fn run_trace(
    runtime: &CascadeRuntime,
    config: &SystemConfig,
    settings: &RunSettings,
    trace: &Trace,
) -> RunReport {
    run_batch(runtime, config, settings, None, trace)
}

/// Runs one policy against a [`Scenario`]: the base trace with its demand
/// perturbations baked in, plus worker churn and difficulty shifts injected
/// into the event loop at their scheduled times.
///
/// The thread-based testbed exposes the parity path
/// `diffserve_cluster::run_cluster_scenario`, so one `Scenario` value drives
/// both implementations.
///
/// Like [`run_trace`], a thin wrapper over a [`ServingSession`] with the
/// scenario attached at build time.
///
/// # Panics
///
/// Panics if the configuration is invalid or
/// [`Scenario::validate`](diffserve_trace::Scenario::validate) rejects the
/// scenario for this worker count.
pub fn run_scenario(
    runtime: &CascadeRuntime,
    config: &SystemConfig,
    settings: &RunSettings,
    scenario: &Scenario,
) -> RunReport {
    run_batch(
        runtime,
        config,
        settings,
        Some(scenario),
        &scenario.effective_trace(),
    )
}

/// The batch drive behind [`run_trace`] and [`run_scenario`]: a
/// simulator-backed session's [`ServingSession::run_trace`], whose drain
/// starts at the trace end (replay leaves the simulator's clock at zero).
/// Nothing here polls, so the session's ledger is told to keep no
/// per-query outcomes — a replay's memory then does not grow with its
/// length. The report is the one a polled session produces: it is
/// assembled from the ledger's streamed totals either way.
fn run_batch(
    runtime: &CascadeRuntime,
    config: &SystemConfig,
    settings: &RunSettings,
    scenario: Option<&Scenario>,
    trace: &Trace,
) -> RunReport {
    let mut builder = ServingSession::builder()
        .runtime(runtime)
        .config(config.clone())
        .settings(settings.clone());
    if let Some(scenario) = scenario {
        builder = builder.scenario(scenario.clone());
    }
    let spec = builder
        .validate()
        .expect("valid scenario and system config");
    let mut backend = SimBackend::new(&spec);
    backend.state.ledger.discard_outcomes();
    ServingSession::from_backend(&spec, Box::new(backend)).run_trace(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::METRICS_WINDOW;
    use crate::policy::Policy;
    use diffserve_imagegen::{cascade1, DiscriminatorConfig, FeatureSpec};
    use diffserve_simkit::time::SimDuration;
    use std::sync::OnceLock;

    /// Shared runtime: discriminator training is the slow part, do it once.
    fn test_runtime() -> &'static CascadeRuntime {
        static RT: OnceLock<CascadeRuntime> = OnceLock::new();
        RT.get_or_init(|| {
            CascadeRuntime::prepare(
                cascade1(FeatureSpec::default()),
                1500,
                99,
                DiscriminatorConfig {
                    train_prompts: 500,
                    epochs: 10,
                    ..Default::default()
                },
            )
        })
    }

    fn small_config() -> SystemConfig {
        SystemConfig {
            num_workers: 8,
            ..Default::default()
        }
    }

    fn flat_trace(qps: f64, secs: u64) -> Trace {
        Trace::constant(qps, SimDuration::from_secs(secs)).unwrap()
    }

    /// The kernel's [`pick_worker`](kernel::pick_worker) for a query bound
    /// for `tier`, scanned over workers filed as `slots` says (`None`:
    /// failed), each paying the `affinity` penalty unless its holder set
    /// holds the worker.
    fn ruled(
        slots: &[Option<(RoutePool, u64)>],
        tier: usize,
        affinity: Option<(&WorkerSet, f64)>,
    ) -> Option<usize> {
        let candidate = |(worker, slot): (usize, &Option<(RoutePool, u64)>)| {
            let (pool, key) = (*slot)?;
            let (target, ready) = match pool {
                RoutePool::Primary(t) => (t, true),
                RoutePool::PendingTo(t) => (t, false),
            };
            let miss = match affinity {
                Some((holders, penalty)) if !holders.contains(worker) => penalty,
                _ => 0.0,
            };
            Some(kernel::Candidate {
                worker,
                rung: kernel::Rung::of(tier, target, ready),
                load: f64::from_bits(key),
                miss,
            })
        };
        kernel::pick_worker(slots.iter().enumerate().filter_map(candidate))
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// The load index against a model that keeps each worker's
        /// `(pool, key)` in a plain vector: every pick is the kernel's
        /// routing rule scanned over the model, with and without an
        /// add-on term, and every count a linear scan. `ruled_pick` makes
        /// the same comparison on live routing decisions, but only in
        /// debug builds; this one holds in release builds too. Each drawn
        /// operation is an insert (a recovery, a re-key, a tier switch,
        /// or — filed where it already is — the early return), a removal
        /// (a fail-stop), or the emptying of a whole tier, after which a
        /// query bound for it ranks the merged fleet (the pools, which
        /// must then partition the alive fleet under its keys). Keys are
        /// whole or halves, and the penalties 1.0, 2.0 and 0.5 put a
        /// non-holder's score exactly on a holder's at a higher load. 150
        /// workers span three bitset words, the last one partial. The
        /// index also keeps no empty bucket, and opens a new set only when
        /// it holds more buckets than it ever has: every other one is a
        /// spare.
        #[test]
        fn load_index_matches_a_linear_scan(
            ops in proptest::collection::vec(
                (0usize..8, 0usize..150, 0usize..6, 0usize..5, 0usize..3),
                1..300,
            ),
            holding in proptest::collection::vec(0usize..2, 150..151),
            penalty in 0usize..4,
        ) {
            const WORKERS: usize = 150;
            const TIERS: usize = 3;
            let penalty = [1.0, 2.0, 0.5, 0.3][penalty];
            let mut holders = WorkerSet::new(WORKERS);
            for i in (0..WORKERS).filter(|&i| holding[i] == 1) {
                holders.insert(i);
            }
            let mut index = LoadIndex::new(WORKERS, TIERS);
            let mut model: Vec<Option<(RoutePool, u64)>> = vec![None; WORKERS];
            let mut peak_buckets = 0;
            for (kind, idx, pool, load, slowdown) in ops {
                let pool = match pool {
                    p if p < TIERS => RoutePool::Primary(p),
                    p => RoutePool::PendingTo(p - TIERS),
                };
                // Few distinct loads, scaled the way degraded workers'
                // are, so ties on the key are common (2 × 1.5 = 3 × 1.0).
                let key = load_key(load as f64 * [1.0, 1.5, 2.0][slowdown]);
                match kind {
                    0 => {
                        index.remove(idx);
                        model[idx] = None;
                    }
                    1 => {
                        let tier_of = |pool| match pool {
                            RoutePool::Primary(t) | RoutePool::PendingTo(t) => t,
                        };
                        for (i, slot) in model.iter_mut().enumerate() {
                            if slot.is_some_and(|(p, _)| tier_of(p) == tier_of(pool)) {
                                index.remove(i);
                                *slot = None;
                            }
                        }
                    }
                    2 => {
                        // Re-file a worker exactly where it already is.
                        if let Some((pool, key)) = model[idx] {
                            index.insert(idx, pool, key);
                        }
                    }
                    _ => {
                        index.insert(idx, pool, key);
                        model[idx] = Some((pool, key));
                    }
                }

                let scan = |want: &dyn Fn(RoutePool) -> bool| -> Vec<(u64, usize)> {
                    let mut members: Vec<(u64, usize)> = model
                        .iter()
                        .enumerate()
                        .filter_map(|(i, slot)| Some((slot.filter(|&(p, _)| want(p))?.1, i)))
                        .collect();
                    members.sort_unstable();
                    members
                };
                let everyone = scan(&|_| true);
                proptest::prop_assert_eq!(index.alive_len(), everyone.len());
                let mut filed: Vec<(u64, usize)> = index.pools().flat_map(Pool::iter).collect();
                filed.sort_unstable();
                proptest::prop_assert_eq!(&filed, &everyone);
                for t in 0..TIERS {
                    let affinity = Some((&holders, penalty));
                    proptest::prop_assert_eq!(index.route(t, None), ruled(&model, t, None));
                    proptest::prop_assert_eq!(index.route(t, affinity), ruled(&model, t, affinity));
                    let members = scan(&|p| p == RoutePool::Primary(t) || p == RoutePool::PendingTo(t));
                    proptest::prop_assert_eq!(index.tier_len(t), members.len());
                }
                proptest::prop_assert_eq!(&index.slot, &model);

                let buckets = index.pools().map(|pool| pool.buckets.len()).sum::<usize>();
                for pool in index.pools() {
                    proptest::prop_assert!(pool.buckets.iter().all(|(_, set)| !set.is_empty()));
                }
                proptest::prop_assert!(index.spares.iter().all(WorkerSet::is_empty));
                peak_buckets = peak_buckets.max(buckets);
                proptest::prop_assert_eq!(buckets + index.spares.len(), peak_buckets);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The two-candidate affinity pick against the kernel's
        /// [`pick_worker`](kernel::pick_worker) scanned over a model of
        /// the same fleet: per tier, the candidate ladder (primaries, else
        /// workers switching toward the tier, else every alive worker),
        /// each scored by its key plus the penalty unless it holds the
        /// module. Keys are fractional and fall into tie classes
        /// (2 × 1.5 = 3 × 1.0); a penalty of 0.5 or 1.0 puts non-holders
        /// exactly on the keys of holders at a higher load
        /// (`k_holder == k_other + p`), as does 2.5, and 0.3 never does.
        /// Holder sets are drawn empty, full, or as a subset that includes
        /// failed workers. One drawn tier may have no primaries (the pick
        /// falls to the workers switching toward it) and one no workers at
        /// all (it falls to the whole fleet). 150 workers span three bitset
        /// words, the last one partial.
        #[test]
        fn affinity_pick_is_pick_min_over_the_pool(
            filed in proptest::collection::vec((0usize..8, 0usize..5, 0usize..3), 150..151),
            subset in proptest::collection::vec(0usize..2, 150..151),
            holding in 0usize..3,
            penalty in 0usize..4,
            switching in 0usize..4,
            unstaffed in 0usize..4,
        ) {
            const TIERS: usize = 3;
            let workers = filed.len();
            let penalty = [0.5, 1.0, 0.3, 2.5][penalty];
            let mut index = LoadIndex::new(workers, TIERS);
            let mut holders = WorkerSet::new(workers);
            let mut model = vec![None; workers];
            for (i, &(pool, load, slowdown)) in filed.iter().enumerate() {
                // Pools 6 and 7 are fail-stopped workers, filed nowhere,
                // as are the missing primaries of tier `switching` and
                // every worker of tier `unstaffed`.
                let pool = match pool {
                    p if p % TIERS == unstaffed => continue,
                    p if p < TIERS && p != switching => RoutePool::Primary(p),
                    p if (TIERS..2 * TIERS).contains(&p) => RoutePool::PendingTo(p - TIERS),
                    _ => continue,
                };
                let key = load_key((load + 1) as f64 * [1.0, 1.5, 2.0][slowdown]);
                index.insert(i, pool, key);
                model[i] = Some((pool, key));
            }
            for (i, &bit) in subset.iter().enumerate() {
                if holding == 1 || (holding == 2 && bit == 1) {
                    holders.insert(i);
                }
            }
            for t in 0..TIERS {
                let affinity = Some((&holders, penalty));
                proptest::prop_assert_eq!(index.route(t, affinity), ruled(&model, t, affinity));
            }
        }
    }

    /// The bitset against a sorted vector, past the 4 096 workers one
    /// summary word covers: `first`, `insert`, `remove` and iteration all
    /// cross the summary-word boundary and the partial last word.
    #[test]
    fn worker_set_crosses_summary_words() {
        const WORKERS: usize = 2 * 4096 + 100;
        let mut set = WorkerSet::new(WORKERS);
        assert_eq!(set.summary.len(), 3);
        assert_eq!(set.first(), None);
        assert!(set.is_empty());
        let mut model = Vec::new();
        for i in [8291, 4096, 4095, 63, 64, 0, 8191, 8192, 4159, 4160] {
            set.insert(i);
            model.push(i);
            model.sort_unstable();
            assert_eq!(set.first(), model.first().copied());
            assert_eq!(set.iter().collect::<Vec<_>>(), model);
        }
        for i in [0, 63, 64, 4095, 4096, 4159, 4160, 8191, 8192, 8291] {
            model.retain(|&m| m != i);
            assert_eq!(set.remove(i), model.is_empty());
            assert_eq!(set.first(), model.first().copied());
            assert_eq!(set.iter().collect::<Vec<_>>(), model);
        }
        assert!(set.words.iter().chain(&set.summary).all(|&bits| bits == 0));
    }

    /// Replays `secs` of 40 qps on a 16-worker fleet and returns the
    /// high-water marks of the query-record slab and of the event queue.
    fn replay_high_water(secs: u64) -> (usize, usize) {
        let config = SystemConfig {
            num_workers: 16,
            ..Default::default()
        };
        let trace = flat_trace(40.0, secs);
        let spec = ServingSession::builder()
            .runtime(test_runtime())
            .config(config.clone())
            .settings(RunSettings::new(Policy::DiffServe, 40.0))
            .validate()
            .unwrap();
        let mut backend = SimBackend::new(&spec);
        backend.state.ledger.discard_outcomes();
        let rng = seeded_rng(derive_seed(config.seed, crate::serve::ARRIVAL_SEED_STREAM));
        backend.submit_stream(ArrivalStream::new(trace.clone(), rng, None, 0));
        backend.tick(SimTime::ZERO + trace.duration() + config.slo * 4);
        let state = &backend.state;
        assert!(state.queries.is_empty(), "every record was retired");
        assert!(state.submitted > 30 * secs);
        (state.queries.high_water(), backend.queue.high_water())
    }

    /// Memory as a count: the live query records and the pending events
    /// track what is in flight, so an 8× longer replay of the same demand
    /// needs no more of either — and both fit the event queue's
    /// preallocation, which the eager replay overran by the query count.
    /// The marks are equal, not just close: both are set while the
    /// bootstrap allocation rides out the first control ticks, and the two
    /// runs share that stretch bit for bit (the same held on every other
    /// seed tried).
    #[test]
    fn live_records_and_pending_events_do_not_grow_with_the_horizon() {
        let (records, events) = replay_high_water(60);
        let (records_8x, events_8x) = replay_high_water(480);
        println!("records {records} / {records_8x}, events {events} / {events_8x}");
        let bound = 16 * 4 + 1024;
        assert!(records_8x <= bound && events_8x <= bound);
        assert_eq!((records, events), (records_8x, events_8x));
    }

    /// Debug builds cross-check every indexed pick against `ruled_pick`,
    /// and this is the session test that routes across more than one
    /// 64-worker bitset word: 136 workers (three words, the last partial)
    /// through fail-stops, a brownout that makes the routing keys
    /// fractional, recovery, and add-on queries that rank whole pools. The brownout covers the lowest 100 healthy
    /// workers, so while it lasts the least keys sit in the upper words,
    /// and the recovered workers in the partial last one.
    #[test]
    fn multi_word_fleet_routes_like_the_scan() {
        let cfg = SystemConfig {
            num_workers: 136,
            addons: Some(crate::addons::AddonsConfig::demo(31)),
            ..Default::default()
        };
        let scenario = Scenario::new("churn", flat_trace(80.0, 40))
            .worker_fail(SimTime::from_secs(8), 24)
            .worker_degrade(SimTime::from_secs(12), 100, 1.5)
            .worker_recover(SimTime::from_secs(20), 24)
            .worker_restore(SimTime::from_secs(30), 100);
        let settings = RunSettings::new(Policy::DiffServe, 80.0);
        let report = run_scenario(test_runtime(), &cfg, &settings, &scenario);
        assert_eq!(report.completed + report.dropped, report.total_queries);
        assert!(report.total_queries > 2500, "{}", report.total_queries);
        assert!(report.addon_stats.total_lookups() > 0);
        assert_eq!(report.incident_log.len(), 4);
    }

    /// A fail-stop clears its victims' caches, so it must take them out
    /// of every holder set. The fleet is small and busy, so the victims
    /// (taken from the top of the index range) hold modules when they
    /// fail; afterwards no holder set names one, and the run goes on — in
    /// debug builds past every affinity twin and holder re-derivation.
    #[test]
    fn fail_stops_take_their_workers_out_of_the_holder_sets() {
        let config = SystemConfig {
            num_workers: 8,
            addons: Some(crate::addons::AddonsConfig::demo(5)),
            ..Default::default()
        };
        let spec = ServingSession::builder()
            .runtime(test_runtime())
            .config(config.clone())
            .settings(RunSettings::new(Policy::DiffServe, 24.0))
            .validate()
            .unwrap();
        let mut backend = SimBackend::new(&spec);
        let rng = seeded_rng(derive_seed(config.seed, crate::serve::ARRIVAL_SEED_STREAM));
        let mix = config.addons.as_ref().map(|a| a.mix.clone());
        backend.submit_stream(ArrivalStream::new(flat_trace(24.0, 60), rng, mix, 0));
        let fail_at = SimTime::from_secs(20);
        backend.tick(fail_at);
        let held: Vec<usize> = (0..8)
            .map(|i| backend.state.caches[i].resident().count())
            .collect();
        backend
            .apply_perturbation(ScenarioEvent::Capacity(CapacityEvent::Fail(4)))
            .unwrap();
        backend.tick(fail_at + SimDuration::from_millis(1));
        let state = &backend.state;
        let failed: Vec<usize> = (0..8).filter(|&i| state.workers[i].failed).collect();
        assert_eq!(failed.len(), 4);
        assert!(
            failed.iter().all(|&i| held[i] > 0),
            "every victim held a module: {held:?}"
        );
        for holders in &state.holders {
            assert!(failed.iter().all(|&i| !holders.contains(i)));
        }
        backend.tick(SimTime::from_secs(80));
        assert!(backend.state.ledger.addon_stats().total_lookups() > 500);
    }

    /// A four-worker DiffServe-Static backend on tiers `[0, 0, 1, 1]` at
    /// batch 1, every output kept at its tier, whose heavy workers have
    /// failed at t = 0.
    fn four_with_heavy_failed() -> SimBackend<'static> {
        let spec = ServingSession::builder()
            .runtime(test_runtime())
            .config(SystemConfig {
                num_workers: 4,
                ..Default::default()
            })
            .settings(RunSettings::new(Policy::DiffServeStatic, 8.0))
            .validate()
            .unwrap();
        let mut backend = SimBackend::new(&spec);
        let (state, events) = (&mut backend.state, &mut backend.queue);
        for (i, tier) in [0, 0, 1, 1].into_iter().enumerate() {
            state.workers[i].tier = tier;
            state.refresh_index(i);
        }
        state.batches = vec![1, 1];
        state.thresholds = vec![0.0];
        state.fail_workers(&[2, 3], SimTime::ZERO, events);
        backend
    }

    /// Runs `backend`'s pending events out and returns the ids and tiers
    /// of the queries completed, in completion order; a drop fails the
    /// test.
    fn served_to_the_end(backend: &mut SimBackend<'_>) -> Vec<(u64, usize)> {
        let (state, events) = (&mut backend.state, &mut backend.queue);
        while let Some((t, event)) = events.pop() {
            state.handle(t, event, events);
        }
        (state.ledger.drain().into_iter())
            .map(|outcome| match outcome {
                QueryOutcome::Completed(r) => (r.id.0, r.tier),
                dropped => panic!("no query may be dropped: {dropped:?}"),
            })
            .collect()
    }

    /// The one hand-back rule where it differs from sending each query
    /// back to the tier it was routed to (the testbed's twin of this test
    /// has the same name in `diffserve-cluster`). With the heavy tier wiped
    /// out, a heavy-bound query takes the fallback rung onto light worker
    /// 0. A plan then moves worker 0 to the heavy tier: the query goes back
    /// to the tier the worker leaves and completes there, on light worker 1.
    #[test]
    fn a_fallback_job_goes_back_to_the_tier_its_worker_leaves() {
        let mut backend = four_with_heavy_failed();
        let (state, events) = (&mut backend.state, &mut backend.queue);
        let now = SimTime::ZERO;
        // Busy light workers queue what they are routed.
        state.workers[0].busy = true;
        state.workers[1].busy = true;
        let far = QuerySpec::new().deadline(SimTime::from_secs(10_000));
        let fallback = state.admit(5, now, &far);
        state.route_to_tier(1, fallback, now, events);
        assert_eq!(state.workers[0].queue, [fallback], "the fallback pick");
        let light = state.admit(6, now, &far);
        state.route_to_tier(0, light, now, events);
        // Both light workers hold one query: the move takes worker 0.
        state.apply_plan(&[1, 1], now, events);
        assert_eq!(state.workers[0].pending_tier, Some(1));
        assert_eq!(state.workers[1].queue, [light, fallback]);
        state.workers[1].busy = false;
        state.try_start(1, now, events);
        assert_eq!(served_to_the_end(&mut backend), [(6, 0), (5, 0)]);
    }

    /// A query routed to a worker on the switching rung, after the plan
    /// that moved it, waits for the switch and completes at its new tier
    /// (the testbed's twin has the same name in `diffserve-cluster`). With
    /// the heavy tier wiped out, a plan moves idle light worker 0 to it,
    /// and a heavy-bound query then queues on worker 0.
    #[test]
    fn a_job_routed_to_a_switching_worker_is_served_after_the_switch() {
        let mut backend = four_with_heavy_failed();
        let (state, events) = (&mut backend.state, &mut backend.queue);
        let now = SimTime::ZERO;
        state.apply_plan(&[1, 1], now, events);
        assert_eq!(state.workers[0].pending_tier, Some(1));
        let far = QuerySpec::new().deadline(SimTime::from_secs(10_000));
        let heavy = state.admit(5, now, &far);
        state.route_to_tier(1, heavy, now, events);
        assert_eq!(state.workers[0].queue, [heavy], "the switching rung");
        assert_eq!(served_to_the_end(&mut backend), [(5, 1)]);
    }

    /// A DiffServe backend on [`small_config`] with `n` queries submitted
    /// 200 ms apart from t = 200 ms, not yet advanced.
    fn backend_with_queries(n: u64) -> SimBackend<'static> {
        let spec = ServingSession::builder()
            .runtime(test_runtime())
            .config(small_config())
            .settings(RunSettings::new(Policy::DiffServe, 8.0))
            .validate()
            .unwrap();
        let mut backend = SimBackend::new(&spec);
        for i in 1..=n {
            backend.submit(QuerySpec::new().at(SimTime::from_millis(200 * i)));
        }
        backend
    }

    /// The scenario timeline and the first control tick are scheduled at
    /// the first advance, once: behind the arrivals submitted before it.
    #[test]
    fn the_first_tick_schedules_the_control_loop_once() {
        let mut backend = backend_with_queries(3);
        assert!(!backend.started);
        assert_eq!(backend.queue.len(), 3);
        backend.tick(SimTime::ZERO);
        assert!(backend.started);
        assert_eq!((backend.processed, backend.queue.len()), (0, 4));
        backend.tick(SimTime::ZERO);
        assert_eq!((backend.processed, backend.queue.len()), (0, 4));
    }

    /// A tick handles every event at or before its horizon and none after:
    /// the clock is the last event handled, the cursor is the horizon.
    #[test]
    fn a_tick_stops_at_its_horizon() {
        let mut backend = backend_with_queries(40);
        let horizon = SimTime::from_millis(3_100);
        backend.tick(horizon);
        assert_eq!(backend.now(), horizon);
        assert!(backend.processed > 0);
        assert!(backend.clock <= horizon, "clock {}", backend.clock);
        let next = backend.queue.peek_time().expect("later arrivals pending");
        assert!(next > horizon, "event at {next} left behind");
    }

    /// A tick to an instant the backend has passed neither rewinds the
    /// cursor nor handles anything.
    #[test]
    fn a_tick_into_the_past_moves_nothing() {
        let mut backend = backend_with_queries(40);
        backend.tick(SimTime::from_secs(5));
        let before = (backend.processed, backend.clock, backend.queue.len());
        backend.tick(SimTime::from_secs(2));
        assert_eq!(backend.now(), SimTime::from_secs(5));
        assert_eq!(
            (backend.processed, backend.clock, backend.queue.len()),
            before
        );
    }

    /// Driving in chunks handles the same events as one tick to the end.
    #[test]
    fn chunked_ticks_handle_what_one_tick_does() {
        let end = SimTime::from_secs(30);
        let mut whole = backend_with_queries(40);
        whole.tick(end);
        let mut chunked = backend_with_queries(40);
        for k in 1..=42 {
            chunked.tick(SimTime::from_millis(730 * k).min(end));
        }
        let state = |b: &SimBackend<'_>| (b.processed, b.clock, b.remaining_budget, b.queue.len());
        assert_eq!(state(&chunked), state(&whole));
    }

    /// Every submission, one query or a whole stream, tops the budget up
    /// by [`EVENTS_PER_QUERY`] a query, and every handled event is paid
    /// from it.
    #[test]
    fn submissions_top_up_the_event_budget_and_events_spend_it() {
        let mut backend = backend_with_queries(40);
        let topped = EVENT_BUDGET + 40 * EVENTS_PER_QUERY;
        assert_eq!(backend.remaining_budget, topped);
        backend.tick(SimTime::from_secs(60));
        assert!(backend.processed > 40);
        assert_eq!(backend.processed + backend.remaining_budget, topped);

        let mut streamed = backend_with_queries(0);
        let stream = ArrivalStream::new(flat_trace(4.0, 10), seeded_rng(7), None, 0);
        let n = stream.len() as u64;
        assert!(n > 0);
        streamed.submit_stream(stream);
        assert_eq!(
            streamed.remaining_budget,
            EVENT_BUDGET + n * EVENTS_PER_QUERY
        );
    }

    /// The event budget's rule: running out of it means a schedule loop.
    /// Debug builds assert at the first event it cannot pay for; release
    /// builds stop advancing there, and `finish` accounts every query
    /// still in flight as dropped.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "event budget exhausted"))]
    fn an_exhausted_event_budget_stops_the_run() {
        let spec = ServingSession::builder()
            .runtime(test_runtime())
            .config(small_config())
            .settings(RunSettings::new(Policy::DiffServe, 8.0))
            .validate()
            .unwrap();
        let mut backend = SimBackend::new(&spec);
        for i in 0..20 {
            backend.submit(QuerySpec::new().at(SimTime::from_millis(200 * i)));
        }
        backend.remaining_budget = 6;
        backend.tick(SimTime::from_secs(60));
        assert_eq!((backend.processed, backend.remaining_budget), (6, 0));
        let stopped = backend.clock;
        assert!(stopped < SimTime::from_secs(4), "stopped at {stopped}");
        backend.tick(SimTime::from_secs(120));
        assert_eq!((backend.processed, backend.clock), (6, stopped));
        let report = Box::new(backend).finish(SimTime::from_secs(120));
        assert_eq!(report.total_queries, 20);
        assert_eq!(report.completed + report.dropped, 20);
        assert!(report.dropped >= 14, "dropped {}", report.dropped);
    }

    #[test]
    fn all_queries_accounted_for() {
        let cfg = small_config();
        for policy in Policy::all() {
            let settings = RunSettings::new(policy, 8.0);
            let report = run_trace(test_runtime(), &cfg, &settings, &flat_trace(4.0, 40));
            assert_eq!(
                report.completed + report.dropped,
                report.total_queries,
                "{}: completed {} + dropped {} != total {}",
                policy.name(),
                report.completed,
                report.dropped,
                report.total_queries
            );
            assert!(report.total_queries > 50, "{}", policy.name());
        }
    }

    #[test]
    fn clipper_light_is_fast_but_low_quality() {
        let cfg = small_config();
        let light = run_trace(
            test_runtime(),
            &cfg,
            &RunSettings::new(Policy::ClipperLight, 8.0),
            &flat_trace(4.0, 40),
        );
        let heavy = run_trace(
            test_runtime(),
            &cfg,
            &RunSettings::new(Policy::ClipperHeavy, 8.0),
            &flat_trace(4.0, 40),
        );
        // Light: everything on time, poor FID. Heavy: better FID.
        assert!(
            light.violation_ratio < 0.02,
            "light viol {}",
            light.violation_ratio
        );
        assert!(
            light.fid > heavy.fid,
            "light fid {} vs heavy {}",
            light.fid,
            heavy.fid
        );
        assert!(light.mean_latency < heavy.mean_latency);
        assert_eq!(light.heavy_fraction, 0.0);
        assert_eq!(heavy.heavy_fraction, 1.0);
    }

    #[test]
    fn clipper_heavy_collapses_under_load() {
        let cfg = small_config();
        // 8 workers of SDv1.5 at b=1: ~4.5 QPS capacity; demand 12 ⇒ overload.
        let report = run_trace(
            test_runtime(),
            &cfg,
            &RunSettings::new(Policy::ClipperHeavy, 12.0),
            &flat_trace(12.0, 60),
        );
        assert!(
            report.violation_ratio > 0.4,
            "expected heavy overload, got {}",
            report.violation_ratio
        );
    }

    #[test]
    fn diffserve_beats_proteus_on_quality_at_matched_violations() {
        let cfg = small_config();
        let ds = run_trace(
            test_runtime(),
            &cfg,
            &RunSettings::new(Policy::DiffServe, 10.0),
            &flat_trace(6.0, 60),
        );
        let pr = run_trace(
            test_runtime(),
            &cfg,
            &RunSettings::new(Policy::Proteus, 10.0),
            &flat_trace(6.0, 60),
        );
        assert!(
            ds.fid < pr.fid,
            "DiffServe fid {} should beat Proteus fid {}",
            ds.fid,
            pr.fid
        );
        assert!(
            ds.violation_ratio < 0.2,
            "ds violations {}",
            ds.violation_ratio
        );
    }

    #[test]
    fn diffserve_keeps_violations_low_under_pressure() {
        let cfg = small_config();
        let report = run_trace(
            test_runtime(),
            &cfg,
            &RunSettings::new(Policy::DiffServe, 25.0),
            &flat_trace(25.0, 60),
        );
        assert!(
            report.violation_ratio < 0.25,
            "violations {}",
            report.violation_ratio
        );
        // Under pressure most traffic stays light.
        assert!(
            report.heavy_fraction < 0.5,
            "heavy {}",
            report.heavy_fraction
        );
    }

    #[test]
    fn threshold_falls_as_demand_rises() {
        let cfg = small_config();
        let low = run_trace(
            test_runtime(),
            &cfg,
            &RunSettings::new(Policy::DiffServe, 20.0),
            &flat_trace(2.0, 60),
        );
        let high = run_trace(
            test_runtime(),
            &cfg,
            &RunSettings::new(Policy::DiffServe, 20.0),
            &flat_trace(18.0, 60),
        );
        let mean_t = |r: &RunReport| {
            let s: f64 = r.threshold_series.iter().map(|(_, t)| t).sum();
            s / r.threshold_series.len() as f64
        };
        assert!(
            mean_t(&low) > mean_t(&high),
            "threshold should fall with demand: {} vs {}",
            mean_t(&low),
            mean_t(&high)
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = small_config();
        let settings = RunSettings::new(Policy::DiffServe, 8.0);
        let a = run_trace(test_runtime(), &cfg, &settings, &flat_trace(5.0, 30));
        let b = run_trace(test_runtime(), &cfg, &settings, &flat_trace(5.0, 30));
        assert_eq!(a.total_queries, b.total_queries);
        assert_eq!(a.violation_ratio, b.violation_ratio);
        assert_eq!(a.fid.to_bits(), b.fid.to_bits());
    }

    #[test]
    fn static_threshold_ablation_pins_threshold() {
        let cfg = small_config();
        let mut settings = RunSettings::new(Policy::DiffServe, 8.0);
        settings.knobs = AblationKnobs::static_threshold(0.45);
        let report = run_trace(test_runtime(), &cfg, &settings, &flat_trace(4.0, 30));
        for &(_, t) in &report.threshold_series {
            assert!((t - 0.45).abs() < 1e-9, "threshold moved to {t}");
        }
    }

    #[test]
    fn steady_scenario_matches_run_trace_bitwise() {
        let cfg = small_config();
        let settings = RunSettings::new(Policy::DiffServe, 8.0);
        let trace = flat_trace(5.0, 30);
        let plain = run_trace(test_runtime(), &cfg, &settings, &trace);
        let scenario = Scenario::new("steady", trace);
        let via_scenario = run_scenario(test_runtime(), &cfg, &settings, &scenario);
        assert_eq!(plain.total_queries, via_scenario.total_queries);
        assert_eq!(plain.violation_ratio, via_scenario.violation_ratio);
        assert_eq!(plain.fid.to_bits(), via_scenario.fid.to_bits());
    }

    #[test]
    fn worker_failure_conserves_queries() {
        let cfg = small_config();
        let scenario = Scenario::new("failover", flat_trace(5.0, 60))
            .worker_fail(SimTime::from_secs(20), 2)
            .worker_recover(SimTime::from_secs(40), 2);
        for policy in Policy::all() {
            let settings = RunSettings::new(policy, 8.0);
            let report = run_scenario(test_runtime(), &cfg, &settings, &scenario);
            assert_eq!(
                report.completed + report.dropped,
                report.total_queries,
                "{}: leaked queries under churn",
                policy.name()
            );
            assert!(report.total_queries > 100, "{}", policy.name());
        }
    }

    #[test]
    fn failure_degrades_service_and_recovery_restores_it() {
        let cfg = small_config();
        let settings = RunSettings::new(Policy::DiffServe, 10.0);
        let steady = run_scenario(
            test_runtime(),
            &cfg,
            &settings,
            &Scenario::new("steady", flat_trace(6.0, 90)),
        );
        let churn = run_scenario(
            test_runtime(),
            &cfg,
            &settings,
            &Scenario::new("churn", flat_trace(6.0, 90))
                .worker_fail(SimTime::from_secs(30), 3)
                .worker_recover(SimTime::from_secs(60), 3),
        );
        // Losing 3 of 8 workers mid-run cannot improve violations.
        assert!(
            churn.violation_ratio >= steady.violation_ratio,
            "churn {} vs steady {}",
            churn.violation_ratio,
            steady.violation_ratio
        );
        // But the controller re-solves and keeps the run from collapsing.
        assert!(
            churn.violation_ratio < 0.5,
            "no graceful degradation: {}",
            churn.violation_ratio
        );
    }

    #[test]
    fn difficulty_shift_raises_deferrals() {
        let cfg = small_config();
        let settings = RunSettings::new(Policy::DiffServe, 8.0);
        let steady = run_scenario(
            test_runtime(),
            &cfg,
            &settings,
            &Scenario::new("steady", flat_trace(3.0, 60)),
        );
        let hard = run_scenario(
            test_runtime(),
            &cfg,
            &settings,
            &Scenario::new("hard", flat_trace(3.0, 60))
                .difficulty_shift(SimTime::from_secs(10), 0.35),
        );
        // Harder prompts look less real to the discriminator, so more of
        // the stream escalates to the heavy model.
        assert!(
            hard.heavy_fraction > steady.heavy_fraction,
            "hard {} vs steady {}",
            hard.heavy_fraction,
            steady.heavy_fraction
        );
    }

    #[test]
    fn flash_crowd_grows_the_arrival_stream() {
        let cfg = small_config();
        let settings = RunSettings::new(Policy::DiffServe, 16.0);
        let base = flat_trace(4.0, 60);
        let steady = run_scenario(
            test_runtime(),
            &cfg,
            &settings,
            &Scenario::new("steady", base.clone()),
        );
        let crowd = run_scenario(
            test_runtime(),
            &cfg,
            &settings,
            &Scenario::new("crowd", base).flash_crowd(
                SimTime::from_secs(20),
                SimDuration::from_secs(5),
                SimDuration::from_secs(15),
                3.0,
            ),
        );
        assert!(
            crowd.total_queries as f64 > steady.total_queries as f64 * 1.2,
            "crowd {} vs steady {}",
            crowd.total_queries,
            steady.total_queries
        );
        assert_eq!(crowd.completed + crowd.dropped, crowd.total_queries);
    }

    #[test]
    fn heavy_pool_wipeout_degrades_to_light_service() {
        // At 18 QPS the allocator keeps ~3 light / 5 heavy workers; failing
        // the 5 highest-indexed (the heavy pool) must not send escalations
        // ping-ponging between light workers — they complete as light.
        let cfg = small_config();
        let settings = RunSettings::new(Policy::DiffServe, 18.0);
        let scenario =
            Scenario::new("wipeout", flat_trace(18.0, 40)).worker_fail(SimTime::from_secs(20), 5);
        let report = run_scenario(test_runtime(), &cfg, &settings, &scenario);
        assert_eq!(report.completed + report.dropped, report.total_queries);
        assert!(
            report.violation_ratio < 0.5,
            "wipeout should degrade quality, not deadlines: {}",
            report.violation_ratio
        );
    }

    #[test]
    #[should_panic(expected = "valid scenario")]
    fn scenario_exhausting_the_pool_panics() {
        let cfg = small_config();
        let scenario =
            Scenario::new("bad", flat_trace(2.0, 20)).worker_fail(SimTime::from_secs(5), 7);
        let _ = run_scenario(
            test_runtime(),
            &cfg,
            &RunSettings::new(Policy::DiffServe, 4.0),
            &scenario,
        );
    }

    #[test]
    fn report_series_are_populated() {
        let cfg = small_config();
        let report = run_trace(
            test_runtime(),
            &cfg,
            &RunSettings::new(Policy::DiffServe, 8.0),
            &flat_trace(6.0, 60),
        );
        assert!(!report.fid_series.is_empty());
        assert!(!report.violation_series.is_empty());
        assert!(!report.demand_series.is_empty());
        assert!(!report.threshold_series.is_empty());
        assert!(report.fid.is_finite());
        assert!(report.mean_windowed_fid.is_finite());
        // Demand series should hover near the offered 6 QPS.
        let mid = report.demand_series[report.demand_series.len() / 2].1;
        assert!((mid - 6.0).abs() < 3.0, "demand series off: {mid}");
    }

    /// Every windowed series is keyed by the starts of consecutive
    /// [`METRICS_WINDOW`]s (the FID series skips windows too sparse to
    /// fit), and the demand series counts each arrival exactly once.
    #[test]
    fn every_series_is_keyed_by_metrics_window_starts() {
        let report = run_trace(
            test_runtime(),
            &small_config(),
            &RunSettings::new(Policy::DiffServe, 8.0),
            &flat_trace(6.0, 100),
        );
        let window = METRICS_WINDOW.as_secs_f64();
        for (name, series) in [
            ("demand", &report.demand_series),
            ("threshold", &report.threshold_series),
            ("violation", &report.violation_series),
        ] {
            assert!(series.len() >= 5, "{name}: {} windows", series.len());
            for (i, &(t, _)) in series.iter().enumerate() {
                assert_eq!(t, i as f64 * window, "{name} window {i}");
            }
        }
        assert!(!report.fid_series.is_empty());
        for &(t, _) in &report.fid_series {
            assert_eq!((t / window).fract(), 0.0, "fid window at {t}");
        }
        let arrivals: f64 = report
            .demand_series
            .iter()
            .map(|&(_, qps)| qps * window)
            .sum();
        assert_eq!(arrivals.round() as u64, report.total_queries);
    }
}
