//! The run protocol: set-up, repetitions, output checks, and the
//! end-to-end metrics derived from them.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use diffserve_core::{CascadeRuntime, RunReport};

use crate::drive::{build_session, drive, expected_ticks, RunRecord, Timed};
use crate::host::CpuTurns;
use crate::stats::{median, per_item_min, percentile};
use crate::workloads::{Engine, Job, Workload};

/// The testbed's mean latency may sit this far (relative) above or below
/// its simulator twin's before the run counts as wrong. Under time
/// compression the gap follows the host's speed — 0.03 on a quiet host, up
/// to 0.30 measured on a busy one — so the limit only catches a gross
/// break; the gap itself is the per-layer metric
/// `cluster.parity_gap_latency`.
const PARITY_LATENCY_MAX: f64 = 1.0;
/// Same for FID: 0.001-0.005 on a quiet host, up to 0.04 on a busy one.
const PARITY_FID_MAX: f64 = 0.25;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A workload's prepared inputs.
#[derive(Debug)]
pub struct Inputs {
    /// Which workload.
    pub workload: Workload,
    /// The offline-prepared artefacts.
    pub runtime: CascadeRuntime,
    /// The jobs of one repetition.
    pub jobs: Vec<Job>,
}

/// The three timed stages of one set-up round.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// `CascadeRuntime::prepare*`.
    pub prepare: Timed,
    /// Trace and scenario synthesis, job assembly.
    pub synthesize: Timed,
    /// `SessionBuilder::build` / `build_cluster` of every job (sessions
    /// dropped right after).
    pub build: Timed,
}

impl SetupTimes {
    /// Host seconds of the whole round.
    pub fn secs(&self) -> f64 {
        self.prepare.secs() + self.synthesize.secs() + self.build.secs()
    }
}

/// Sets the workload up once, timing each stage.
pub fn set_up(workload: Workload, seed: u64, smoke: bool) -> (Inputs, SetupTimes) {
    let (prepare, runtime) = Timed::call(|| workload.runtime());
    let (synthesize, jobs) = Timed::call(|| workload.jobs(seed, smoke));
    let (build, ()) = Timed::call(|| {
        for job in &jobs {
            drop(build_session(&runtime, job));
        }
    });
    let inputs = Inputs {
        workload,
        runtime,
        jobs,
    };
    (
        inputs,
        SetupTimes {
            prepare,
            synthesize,
            build,
        },
    )
}

/// One repetition: every job run once.
#[derive(Debug)]
pub struct Rep {
    /// One record per job, in job order.
    pub records: Vec<RunRecord>,
    /// Host seconds the repetition took: the wall around all threads when
    /// the jobs run in parallel, otherwise the sum of the jobs' own walls
    /// (the simulator twin excepted).
    pub wall_secs: f64,
    /// When the repetition started and ended.
    pub span: Timed,
}

/// Threads a parallel repetition uses: one per available core.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs one repetition. With `parallel`, jobs are pulled off an atomic
/// cursor by one thread per available core.
pub fn run_rep(inputs: &Inputs, parallel: bool) -> Rep {
    let Inputs { runtime, jobs, .. } = inputs;
    if !parallel {
        let (span, records) =
            Timed::call(|| jobs.iter().map(|j| drive(runtime, j)).collect::<Vec<_>>());
        let wall_secs = jobs
            .iter()
            .zip(&records)
            .filter(|(job, _)| job.timed)
            .map(|(_, record)| record.wall_secs())
            .sum();
        return Rep {
            records,
            wall_secs,
            span,
        };
    }
    let threads = threads();
    // Relaxed: the cursor hands out indices and publishes no other data.
    let cursor = AtomicUsize::new(0);
    let (span, mut indexed) = Timed::call(|| {
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads.min(jobs.len()))
                .map(|_| {
                    scope.spawn(|| {
                        let mut done = Vec::new();
                        loop {
                            let index = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(job) = jobs.get(index) else {
                                return done;
                            };
                            done.push((index, drive(runtime, job)));
                        }
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("a sweep job panicked"))
                .collect::<Vec<_>>()
        })
    });
    indexed.sort_by_key(|&(index, _)| index);
    Rep {
        records: indexed.into_iter().map(|(_, record)| record).collect(),
        wall_secs: span.secs(),
        span,
    }
}

/// The repetitions of one untraced run.
#[derive(Debug)]
pub struct Reps {
    /// The discarded first repetition, on workloads that warm up.
    pub warm_up: Option<Rep>,
    /// The timed repetitions.
    pub timed: Vec<Rep>,
    /// `VmHWM` right after the first timed repetition: the peak of a fixed
    /// amount of work, however many repetitions the host's speed then fits
    /// into the budget.
    pub peak_rss_mb: f64,
}

impl Reps {
    /// Every repetition made, warm-up first.
    pub fn all(&self) -> Vec<&Rep> {
        self.warm_up.iter().chain(&self.timed).collect()
    }
}

/// Runs repetitions for `budget`: an optional discarded warm-up, then timed
/// repetitions until the next one would overrun (always at least one).
/// `between` runs after every repetition, inside the budget: the untraced
/// run times another round of set-up there, so that `setup_s` has samples
/// from all over the run and not from one burst of host noise at its start.
/// A workload that runs on this thread alone moves to the next CPU with
/// every repetition (see [`CpuTurns`]); one that starts threads of its own
/// is left to the scheduler, since threads inherit their parent's pinning.
pub fn run_reps(inputs: &Inputs, budget: Duration, mut between: impl FnMut()) -> Reps {
    let started = Instant::now();
    let parallel = inputs.workload.parallel();
    let one_thread = !parallel && inputs.jobs.iter().all(|job| job.engine == Engine::Sim);
    let cpus = one_thread.then(CpuTurns::detect).flatten();
    let mut turn = 0;
    let mut rep = || {
        if let Some(cpus) = &cpus {
            cpus.take(turn);
            turn += 1;
        }
        let rep = run_rep(inputs, parallel);
        between();
        rep
    };
    let warm_up = inputs.workload.warm_up().then(&mut rep);
    let mut timed = vec![rep()];
    // The first timed repetition's peak, give or take a round of set-up.
    let peak_rss_mb = peak_rss_mb();
    loop {
        let last = timed.last().expect("one repetition is made").span.secs();
        if started.elapsed().as_secs_f64() + last > budget.as_secs_f64() {
            break;
        }
        timed.push(rep());
    }
    if let Some(cpus) = &cpus {
        cpus.release();
    }
    Reps {
        warm_up,
        timed,
        peak_rss_mb,
    }
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// FNV-1a over the aggregates of a report: every count, and the bit
/// pattern of every scalar a simulator run must reproduce exactly.
pub fn report_fingerprint(report: &RunReport) -> u64 {
    let mut words = vec![
        report.total_queries,
        report.completed,
        report.dropped,
        report.late,
        report.resumed_queries,
        report.incident_log.len() as u64,
        report.violation_ratio.to_bits(),
        report.mean_latency.to_bits(),
        report.fid.to_bits(),
        report.mean_windowed_fid.to_bits(),
        report.heavy_fraction.to_bits(),
        report.mean_heavy_latency.to_bits(),
        report.mean_reused_steps.to_bits(),
        report.gpu_time_per_query.to_bits(),
    ];
    for tier in &report.tier_breakdown {
        words.extend([
            tier.completions,
            tier.escalated_past,
            tier.mean_latency.to_bits(),
        ]);
    }
    let addons = &report.addon_stats;
    words.extend(addons.hits);
    words.extend(addons.misses);
    words.extend(addons.swap_secs.map(f64::to_bits));
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(FNV_OFFSET, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME)
        })
}

/// What the output checks found over every repetition made.
#[derive(Debug, Default)]
pub struct Checked {
    /// Queries submitted, over every run made.
    pub attempted: u64,
    /// Queries without exactly one terminal outcome.
    pub failed: u64,
    /// One line per failed check; empty means the outputs are correct.
    pub errors: Vec<String>,
    /// FNV fingerprint over the report aggregates of the first
    /// repetition's jobs (every later repetition of a simulator job must
    /// match it).
    pub report_fingerprint: u64,
}

/// Relative gap `|a − b| ÷ b`.
fn gap(a: f64, b: f64) -> f64 {
    (a - b).abs() / b
}

/// The testbed's relative gaps to its simulator twin in one repetition:
/// `(mean latency, FID)`. `None` on workloads without a testbed job.
pub fn parity_gaps(jobs: &[Job], rep: &Rep) -> Option<(f64, f64)> {
    let of = |engine: Engine| {
        jobs.iter()
            .zip(&rep.records)
            .find(|(job, _)| job.engine == engine)
            .map(|(_, record)| &record.report)
    };
    let (testbed, twin) = (of(Engine::Cluster)?, of(Engine::Sim)?);
    Some((
        gap(testbed.mean_latency, twin.mean_latency),
        gap(testbed.fid, twin.fid),
    ))
}

/// Checks the outputs of every repetition: query conservation on every
/// run, the driven tick count, bit-identical reports across repetitions of
/// a simulator job, finite FID, and testbed-to-twin parity.
pub fn check(inputs: &Inputs, reps: &[&Rep]) -> Checked {
    let mut out = Checked::default();
    let jobs = &inputs.jobs;
    // Fingerprint of each job's report in repetition 0.
    let mut first_prints: Vec<u64> = Vec::with_capacity(jobs.len());
    for (r, rep) in reps.iter().enumerate() {
        for (j, (job, record)) in jobs.iter().zip(&rep.records).enumerate() {
            out.attempted += record.submitted;
            let failed = record.failed(job.engine);
            if failed > 0 {
                out.failed += failed;
                out.errors.push(format!(
                    "{} repetition {r}: {failed} queries without exactly one terminal outcome",
                    job.label
                ));
            }
            if job.scored && !record.report.fid.is_finite() {
                out.errors
                    .push(format!("{} repetition {r}: FID is not finite", job.label));
            }
            let print = report_fingerprint(&record.report);
            if r == 0 {
                first_prints.push(print);
            }
            if job.engine != Engine::Sim {
                continue;
            }
            if record.ticks.len() as u64 != expected_ticks(job) {
                out.errors.push(format!(
                    "{} repetition {r}: drove {} ticks, expected {}",
                    job.label,
                    record.ticks.len(),
                    expected_ticks(job)
                ));
            }
            if first_prints[j] != print {
                out.errors.push(format!(
                    "{} repetition {r}: report {print:016x} differs from repetition 0's {:016x}",
                    job.label, first_prints[j]
                ));
            }
        }
        if let Some((latency, fid)) = parity_gaps(jobs, rep) {
            if latency > PARITY_LATENCY_MAX || fid > PARITY_FID_MAX {
                out.errors.push(format!(
                    "repetition {r}: testbed is off its simulator twin by {latency:.3} in mean \
                     latency (limit {PARITY_LATENCY_MAX}) and {fid:.4} in FID (limit \
                     {PARITY_FID_MAX})"
                ));
            }
        }
    }
    // Simulator jobs only: a testbed report does not repeat bit for bit.
    out.report_fingerprint = jobs
        .iter()
        .zip(&first_prints)
        .filter(|(job, _)| job.engine == Engine::Sim)
        .fold(FNV_OFFSET, |hash, (_, print)| {
            (hash ^ print).wrapping_mul(FNV_PRIME)
        });
    out
}

/// Mean of `f` over the repetition's scored jobs.
fn scored_mean(jobs: &[Job], rep: &Rep, f: impl Fn(&RunReport) -> f64) -> f64 {
    let values: Vec<f64> = jobs
        .iter()
        .zip(&rep.records)
        .filter(|(job, _)| job.scored)
        .map(|(_, record)| f(&record.report))
        .collect();
    values.iter().sum::<f64>() / values.len() as f64
}

/// Completion latencies of the repetition's scored jobs, pooled.
pub fn scored_latencies(jobs: &[Job], rep: &Rep) -> Vec<f64> {
    jobs.iter()
        .zip(&rep.records)
        .filter(|(job, _)| job.scored)
        .flat_map(|(_, record)| record.outcomes.latencies.iter().copied())
        .collect()
}

/// Tick latencies in host microseconds: tick `k` of a job is its fastest
/// sample over the repetitions, then the scored jobs are pooled.
pub fn tick_micros(jobs: &[Job], reps: &[&Rep]) -> Vec<f64> {
    let mut pooled = Vec::new();
    for (j, job) in jobs.iter().enumerate() {
        if !job.scored {
            continue;
        }
        let per_rep: Vec<Vec<f64>> = reps
            .iter()
            .map(|rep| {
                let ticks = &rep.records[j].ticks;
                ticks.iter().map(|t| t.secs() * 1e6).collect()
            })
            .collect();
        pooled.extend(per_item_min(&per_rep));
    }
    pooled
}

/// Host seconds one repetition takes with the host's noise removed: every
/// timed job is rebuilt call by call from each call's fastest sample over
/// the repetitions. A parallel repetition keeps all cores busy, so its wall
/// is those thread-seconds divided by the thread count (the measured wall
/// around the threads is `Rep::wall_secs`, which cannot be taken apart).
pub fn steady_wall_secs(inputs: &Inputs, reps: &[Rep]) -> f64 {
    let thread_secs: f64 = (0..inputs.jobs.len())
        .filter(|&j| inputs.jobs[j].timed)
        .map(|j| {
            let per_rep: Vec<Vec<f64>> = reps
                .iter()
                .map(|rep| rep.records[j].timed_calls().map(Timed::secs).collect())
                .collect();
            per_item_min(&per_rep).iter().sum::<f64>()
        })
        .sum();
    if inputs.workload.parallel() {
        thread_secs / threads().min(inputs.jobs.len()) as f64
    } else {
        thread_secs
    }
}

/// Queries one repetition submits on the jobs that count towards wall
/// time.
pub fn queries_per_rep(jobs: &[Job], rep: &Rep) -> u64 {
    jobs.iter()
        .zip(&rep.records)
        .filter(|(job, _)| job.timed)
        .map(|(_, record)| record.submitted)
        .sum()
}

/// Median over repetitions of a per-repetition value.
fn over_reps(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&mut reps.iter().map(f).collect::<Vec<_>>())
}

/// The end-to-end metrics, by name, from the timed repetitions of an
/// untraced run. Simulated-time metrics are the median over repetitions
/// (on the simulator every repetition gives the same value).
pub fn end_to_end(
    inputs: &Inputs,
    reps: &[Rep],
    setup_secs: &[f64],
    peak_rss_mb: f64,
) -> Vec<(&'static str, f64)> {
    let jobs = &inputs.jobs;
    let wall = steady_wall_secs(inputs, reps);
    let latency = |q: f64| over_reps(reps, |rep| percentile(&mut scored_latencies(jobs, rep), q));
    vec![
        (
            "setup_s",
            setup_secs.iter().copied().fold(f64::INFINITY, f64::min),
        ),
        (
            "sim_queries_per_s",
            queries_per_rep(jobs, &reps[0]) as f64 / wall,
        ),
        ("peak_rss_mb", peak_rss_mb),
        (
            "slo_attainment",
            1.0 - over_reps(reps, |rep| scored_mean(jobs, rep, |r| r.violation_ratio)),
        ),
        (
            "fid",
            over_reps(reps, |rep| scored_mean(jobs, rep, |r| r.fid)),
        ),
        (
            "gpu_s_per_query",
            over_reps(reps, |rep| scored_mean(jobs, rep, |r| r.gpu_time_per_query)),
        ),
        (
            "latency_mean_s",
            over_reps(reps, |rep| {
                let latencies = scored_latencies(jobs, rep);
                latencies.iter().sum::<f64>() / latencies.len() as f64
            }),
        ),
        ("latency_p99_s", latency(0.99)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::tests::{small_job, small_runtime};

    fn small_inputs(parallel_jobs: usize) -> Inputs {
        Inputs {
            workload: Workload::ScenarioSweep,
            runtime: small_runtime(),
            jobs: (0..parallel_jobs)
                .map(|i| small_job(Engine::Sim, 10.0 + i as f64, 20))
                .collect(),
        }
    }

    #[test]
    fn parallel_repetition_returns_the_sequential_records_in_job_order() {
        let inputs = small_inputs(5);
        let sequential = run_rep(&inputs, false);
        let parallel = run_rep(&inputs, true);
        let prints = |rep: &Rep| -> Vec<u64> {
            rep.records
                .iter()
                .map(|r| report_fingerprint(&r.report))
                .collect()
        };
        assert_eq!(prints(&sequential), prints(&parallel));
        // Five different demands give five different reports.
        let mut distinct = prints(&parallel);
        distinct.dedup();
        assert_eq!(distinct.len(), 5);
        assert!(check(&inputs, &[&sequential, &parallel]).errors.is_empty());
    }

    #[test]
    fn check_catches_a_report_that_differs_between_repetitions() {
        let inputs = small_inputs(1);
        let first = run_rep(&inputs, false);
        let mut second = run_rep(&inputs, false);
        let clean = check(&inputs, &[&first, &second]);
        assert!(clean.errors.is_empty(), "{:?}", clean.errors);
        assert_eq!(clean.failed, 0);
        assert_eq!(clean.attempted, 2 * first.records[0].submitted);

        second.records[0].report.late += 1;
        let errors = check(&inputs, &[&first, &second]).errors;
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("differs from repetition 0"));

        second.records[0].report.fid = f64::NAN;
        second.records[0].ticks.pop();
        let errors = check(&inputs, &[&first, &second]).errors;
        assert!(errors.iter().any(|e| e.contains("FID is not finite")));
        assert!(errors
            .iter()
            .any(|e| e.contains("drove 19 ticks, expected 20")));
    }

    #[test]
    fn steady_wall_is_built_from_each_calls_fastest_sample() {
        let inputs = small_inputs(2);
        let reps = [run_rep(&inputs, false), run_rep(&inputs, false)];
        let steady = steady_wall_secs(&inputs, &reps);
        let fastest = reps
            .iter()
            .map(|r| r.records.iter().map(RunRecord::wall_secs).sum::<f64>());
        // Never above the fastest repetition's thread-seconds, and two
        // threads (or one) share them.
        let threads = threads().min(2) as f64;
        assert!(steady * threads <= fastest.fold(f64::INFINITY, f64::min) + 1e-12);
        assert!(steady > 0.0);
    }
}
