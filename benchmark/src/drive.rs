//! Drives one serving session from outside and times every call into it.
//!
//! The simulator drive is the session API exactly as `run_trace` uses it
//! (`replay_trace` → `run_until` → `finish`), except that `run_until` is
//! called twice per control interval — up to 1 µs before the tick instant,
//! then to the tick instant — so the second call holds exactly the
//! `ControlTick` event. The only bookkeeping is one `Instant` pair per
//! call, pushed into a preallocated `Vec`. `poll()` runs between timed
//! calls and is not part of a run's wall time.

use std::time::Instant;

use diffserve_cluster::ClusterSessionExt;
use diffserve_core::{CascadeRuntime, QueryOutcome, QuerySpec, RunReport, ServingSession};
use diffserve_simkit::rng::{derive_seed, seeded_rng};
use diffserve_simkit::time::SimTime;
use diffserve_trace::poisson_arrivals;

use crate::workloads::{Engine, Job, CLUSTER_TIME_SCALE};

/// The seed stream `ServingSession::replay_trace` draws its Poisson
/// arrivals from.
const ARRIVAL_SEED_STREAM: u64 = 0xA881;

/// The arrival instants `replay_trace` submits for `job`. The testbed drive
/// repeats that draw to submit query by query (which is what lets it see
/// how late each submission was); the simulator twin goes through
/// `replay_trace` itself, and the two must submit the same number of
/// queries.
pub fn arrivals(job: &Job) -> Vec<SimTime> {
    let mut rng = seeded_rng(derive_seed(job.config.seed, ARRIVAL_SEED_STREAM));
    poisson_arrivals(&job.trace, &mut rng)
}

/// One timed call: when it started and when it returned.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Just before the call.
    pub start: Instant,
    /// Just after it returned.
    pub end: Instant,
}

impl Timed {
    /// Runs `f` between two clock reads.
    pub fn call<T>(f: impl FnOnce() -> T) -> (Timed, T) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        (Timed { start, end }, out)
    }

    /// Host seconds the call took.
    pub fn secs(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

/// Sum of the host seconds of `calls`.
pub fn total_secs(calls: &[Timed]) -> f64 {
    calls.iter().map(Timed::secs).sum()
}

/// What `poll()` returned over a run, reduced as it arrives so no response
/// outlives its poll.
#[derive(Debug, Default)]
pub struct Outcomes {
    seen: Vec<bool>,
    /// Completion latency (simulated seconds) of every completed query.
    pub latencies: Vec<f64>,
    /// Queries polled as dropped.
    pub dropped: u64,
    /// Outcomes naming an id polled before, or an id never submitted.
    pub bad_ids: u64,
}

impl Outcomes {
    fn new(submitted: u64) -> Self {
        Outcomes {
            seen: vec![false; submitted as usize],
            latencies: Vec::with_capacity(submitted as usize),
            ..Default::default()
        }
    }

    fn absorb(&mut self, outcomes: Vec<QueryOutcome>) {
        for outcome in outcomes {
            match self.seen.get_mut(outcome.id().0 as usize) {
                Some(seen) if !*seen => *seen = true,
                _ => self.bad_ids += 1,
            }
            match outcome {
                QueryOutcome::Completed(r) => self.latencies.push(r.latency_secs()),
                QueryOutcome::Dropped { .. } => self.dropped += 1,
            }
        }
    }
}

/// Everything one driven run produced: its timed calls, its report and its
/// polled outcomes.
#[derive(Debug)]
pub struct RunRecord {
    /// Queries submitted.
    pub submitted: u64,
    /// `SessionBuilder::build` / `build_cluster`.
    pub build: Timed,
    /// `replay_trace` (testbed: the paced submit loop).
    pub replay: Timed,
    /// The `run_until` calls that stop 1 µs short of each tick, plus the
    /// tail to the horizon.
    pub between: Vec<Timed>,
    /// The `run_until` calls holding exactly one control tick each. Empty
    /// on the testbed, whose controller is its own thread.
    pub ticks: Vec<Timed>,
    /// The `poll()` calls (not part of [`RunRecord::wall_secs`]).
    pub polls: Vec<Timed>,
    /// `finish`.
    pub finish: Timed,
    /// The run's report.
    pub report: RunReport,
    /// The polled outcomes.
    pub outcomes: Outcomes,
    /// Testbed only: how late (host seconds) each submission was admitted
    /// against the instant its arrival was due.
    pub submit_late_secs: Vec<f64>,
    /// Host seconds the run would take if the runtime added nothing to its
    /// scaled sleeps: `(horizon + 4·SLO) × time_scale` on the testbed, zero
    /// on the simulator.
    pub ideal_secs: f64,
}

impl RunRecord {
    /// The calls a run's wall time is made of: `replay_trace`, every
    /// `run_until`, `finish`.
    pub fn timed_calls(&self) -> impl Iterator<Item = &Timed> {
        std::iter::once(&self.replay)
            .chain(&self.between)
            .chain(&self.ticks)
            .chain(std::iter::once(&self.finish))
    }

    /// Host seconds of `replay_trace` + every `run_until` + `finish`.
    pub fn wall_secs(&self) -> f64 {
        self.timed_calls().map(Timed::secs).sum()
    }

    /// Queries without exactly one terminal outcome: a report whose
    /// completed + dropped differs from what was submitted, an id polled
    /// twice or never submitted, or polled counts the report does not
    /// cover. The simulator must report exactly what was polled; the
    /// testbed may ingest stragglers between the last poll and shutdown.
    pub fn failed(&self, engine: Engine) -> u64 {
        let r = &self.report;
        let polled_completed = self.outcomes.latencies.len() as u64;
        let uncovered = match engine {
            Engine::Sim => polled_completed.abs_diff(r.completed),
            Engine::Cluster => polled_completed.saturating_sub(r.completed),
        };
        r.total_queries.abs_diff(self.submitted)
            + (r.completed + r.dropped).abs_diff(r.total_queries)
            + self.outcomes.bad_ids
            + uncovered
            + self.outcomes.dropped.saturating_sub(r.dropped)
    }
}

/// Runs one job on its engine.
pub fn drive(runtime: &CascadeRuntime, job: &Job) -> RunRecord {
    match job.engine {
        Engine::Sim => drive_sim(runtime, job),
        Engine::Cluster => drive_cluster(runtime, job),
    }
}

/// Builds the job's session (also what set-up times).
pub fn build_session<'a>(runtime: &'a CascadeRuntime, job: &Job) -> ServingSession<'a> {
    let mut builder = ServingSession::builder()
        .runtime(runtime)
        .config(job.config.clone())
        .settings(job.settings.clone());
    if let Some(scenario) = &job.scenario {
        builder = builder.scenario(scenario.clone());
    }
    match job.engine {
        Engine::Sim => builder.build(),
        Engine::Cluster => builder.build_cluster(CLUSTER_TIME_SCALE),
    }
    .unwrap_or_else(|e| panic!("job {} does not build: {e}", job.label))
}

/// Trace end plus a drain period of four SLOs, as `run_trace` has it.
fn horizon(job: &Job) -> SimTime {
    SimTime::ZERO + job.trace.duration() + job.config.slo * 4
}

fn drive_sim(runtime: &CascadeRuntime, job: &Job) -> RunRecord {
    let (build, mut session) = Timed::call(|| build_session(runtime, job));
    let interval = job.config.control_interval.as_micros();
    let horizon = horizon(job);
    let num_ticks = horizon.as_micros() / interval;
    let mut between = Vec::with_capacity(num_ticks as usize + 1);
    let mut ticks = Vec::with_capacity(num_ticks as usize);
    let mut polls = Vec::with_capacity(num_ticks as usize + 1);

    let (replay, submitted) = Timed::call(|| session.replay_trace(&job.trace));
    let mut outcomes = Outcomes::new(submitted);
    for k in 1..=num_ticks {
        let tick_at = k * interval;
        between.push(Timed::call(|| session.run_until(SimTime::from_micros(tick_at - 1))).0);
        ticks.push(Timed::call(|| session.run_until(SimTime::from_micros(tick_at))).0);
        let (poll, polled) = Timed::call(|| session.poll());
        polls.push(poll);
        outcomes.absorb(polled);
    }
    between.push(Timed::call(|| session.run_until(horizon)).0);
    let (poll, polled) = Timed::call(|| session.poll());
    polls.push(poll);
    outcomes.absorb(polled);
    let (finish, report) = Timed::call(|| session.finish());

    RunRecord {
        submitted,
        build,
        replay,
        between,
        ticks,
        polls,
        finish,
        report,
        outcomes,
        submit_late_secs: Vec::new(),
        ideal_secs: 0.0,
    }
}

fn drive_cluster(runtime: &CascadeRuntime, job: &Job) -> RunRecord {
    let arrivals = arrivals(job);
    let mut submit_late_secs = Vec::with_capacity(arrivals.len());

    let (build, mut session) = Timed::call(|| build_session(runtime, job));
    // `submit_spec` blocks until the arrival is due, so this loop is the
    // open-loop generator; the ticket says when the query really got in.
    let (replay, ()) = Timed::call(|| {
        for &due in &arrivals {
            let ticket = session.submit_spec(QuerySpec::new().at(due));
            let late = ticket.arrival.saturating_since(due);
            submit_late_secs.push(late.as_secs_f64() * CLUSTER_TIME_SCALE);
        }
    });
    // As `run_cluster_scenario`: the drain starts at the later of the trace
    // end and the clock, so replay overshoot never eats into it.
    let drain_from = session.now().max(SimTime::ZERO + job.trace.duration());
    let (drain, ()) = Timed::call(|| session.run_until(drain_from + job.config.slo * 4));
    let submitted = arrivals.len() as u64;
    let mut outcomes = Outcomes::new(submitted);
    let (poll, polled) = Timed::call(|| session.poll());
    outcomes.absorb(polled);
    let (finish, report) = Timed::call(|| session.finish());

    RunRecord {
        submitted,
        build,
        replay,
        between: vec![drain],
        ticks: Vec::new(),
        polls: vec![poll],
        finish,
        report,
        outcomes,
        submit_late_secs,
        ideal_secs: horizon(job).as_secs_f64() * CLUSTER_TIME_SCALE,
    }
}

/// The control interval count a run of `job` drives: one tick per interval
/// up to the horizon.
pub fn expected_ticks(job: &Job) -> u64 {
    horizon(job).as_micros() / job.config.control_interval.as_micros()
}

#[cfg(test)]
pub mod tests {
    use super::*;
    use diffserve_core::{run_trace, AllocatorBackend, Policy, RunSettings, SystemConfig};
    use diffserve_imagegen::{cascade1, DiscriminatorConfig, FeatureSpec};
    use diffserve_simkit::time::SimDuration;
    use diffserve_trace::Trace;

    use crate::measure::report_fingerprint;

    /// A runtime small enough to prepare in a debug build.
    pub fn small_runtime() -> CascadeRuntime {
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
    }

    /// `secs` of constant demand on 16 workers.
    pub fn small_job(engine: Engine, qps: f64, secs: u64) -> Job {
        let trace = Trace::constant(qps, SimDuration::from_secs(secs)).unwrap();
        Job {
            label: "test".into(),
            engine,
            timed: true,
            scored: true,
            config: SystemConfig::default(),
            settings: RunSettings {
                backend: AllocatorBackend::Exhaustive,
                ..RunSettings::new(Policy::DiffServe, qps)
            },
            scenario: None,
            trace,
        }
    }

    #[test]
    fn every_tick_gets_its_own_call_and_no_time_goes_missing() {
        let runtime = small_runtime();
        let job = small_job(Engine::Sim, 20.0, 60);
        // 60 s of trace plus 4 × 5 s of drain, one tick every 2 s.
        assert_eq!(expected_ticks(&job), 40);
        // From the first `run_until` to the last, the timed calls and the
        // polls between them account for the whole stretch within 1 %. A
        // host hiccup between two calls is not the drive's doing, so the
        // best of three runs counts.
        let unaccounted = (0..3)
            .map(|_| {
                let record = drive(&runtime, &job);
                assert_eq!(record.ticks.len(), 40);
                assert_eq!(record.between.len(), 41);
                assert_eq!(record.polls.len(), 41);
                let stretch = record.between[40]
                    .end
                    .duration_since(record.between[0].start)
                    .as_secs_f64();
                let accounted = total_secs(&record.between)
                    + total_secs(&record.ticks)
                    + total_secs(&record.polls[..40]);
                assert!(record.wall_secs() > accounted - total_secs(&record.polls));
                (stretch - accounted).abs() / stretch
            })
            .fold(f64::INFINITY, f64::min);
        assert!(
            unaccounted < 0.01,
            "{unaccounted} of the stretch is unaccounted"
        );
    }

    #[test]
    fn driven_run_reports_exactly_what_run_trace_reports() {
        let runtime = small_runtime();
        let job = small_job(Engine::Sim, 20.0, 60);
        let record = drive(&runtime, &job);
        let plain = run_trace(&runtime, &job.config, &job.settings, &job.trace);
        assert_eq!(
            report_fingerprint(&record.report),
            report_fingerprint(&plain)
        );
        assert_eq!(record.submitted, plain.total_queries);
        assert_eq!(record.failed(Engine::Sim), 0);
        assert_eq!(record.outcomes.latencies.len() as u64, plain.completed);
    }

    #[test]
    fn failed_counts_queries_without_exactly_one_outcome() {
        let runtime = small_runtime();
        let mut record = drive(&runtime, &small_job(Engine::Sim, 20.0, 20));
        assert_eq!(record.failed(Engine::Sim), 0);
        record.report.dropped += 2; // completed + dropped no longer adds up
        assert_eq!(record.failed(Engine::Sim), 2);
        record.outcomes.bad_ids = 3; // ids polled twice
        assert_eq!(record.failed(Engine::Sim), 5);
        record.outcomes.latencies.pop(); // a completion the poll never saw
        assert_eq!(record.failed(Engine::Sim), 6);
        assert_eq!(record.failed(Engine::Cluster), 5);
    }

    #[test]
    fn testbed_drive_conserves_queries_and_sees_every_submission() {
        let runtime = small_runtime();
        let job = small_job(Engine::Cluster, 8.0, 20);
        let record = drive(&runtime, &job);
        assert!(record.submitted > 100);
        assert_eq!(record.submit_late_secs.len() as u64, record.submitted);
        assert_eq!(record.failed(Engine::Cluster), 0);
        assert!(record.ticks.is_empty());
        // 20 s of trace and 20 s of drain at 100× compression.
        assert!((record.ideal_secs - 40.0 * CLUSTER_TIME_SCALE).abs() < 1e-9);
        assert!(record.wall_secs() >= 0.9 * record.ideal_secs);
    }

    /// Not a pass/fail property of the code but a measurement of this
    /// host: run it in release mode, alone, and read the two medians.
    /// `cargo test --release -- --ignored --nocapture drive_costs`
    #[test]
    #[ignore = "timing measurement; needs --release and a quiet host"]
    fn tick_isolating_drive_costs_nothing_measurable() {
        let runtime = crate::workloads::Workload::FleetDiurnal.runtime();
        let job = crate::workloads::Workload::FleetDiurnal
            .jobs(20250509, false)
            .remove(0);
        let (mut driven, mut plain) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            driven.push(drive(&runtime, &job).wall_secs());
            let (timed, _) =
                Timed::call(|| run_trace(&runtime, &job.config, &job.settings, &job.trace));
            plain.push(timed.secs());
        }
        let (driven, plain) = (
            crate::stats::median(&mut driven),
            crate::stats::median(&mut plain),
        );
        println!("driven {driven:.3} s, run_trace {plain:.3} s");
        assert!((driven - plain).abs() / plain < 0.05);
    }
}
