//! The per-layer metrics of a traced run.
//!
//! Three sources: the spans around the session calls of the traced
//! repetition; the counts in its reports; and layer probes, which call a
//! layer's public functions directly on inputs taken from the workload
//! (its prompts, its demand at tick times, its fleet size), each under a
//! span of its own named `probe.<metric>`. A probe runs on a workload when
//! the workload's jobs use what it probes; a metric whose probe did not
//! run reads 0.

use std::hint::black_box;
use std::time::Instant;

use diffserve_cluster::ServingPlan;
use diffserve_core::{
    ladder_overload_fallback, overload_fallback, solve_exhaustive, solve_ladder,
    solve_milp_allocation, solve_milp_allocation_warm, solve_proteus, AddonsConfig, AllocWarmState,
    AllocatorBackend, AllocatorInputs, ControlObservation, LadderInputs, LadderWarmState,
    ModuleCache, ServingSession,
};
use diffserve_imagegen::{
    Discriminator, DiscriminatorConfig, LatencyProfile, OnlineDeferralEstimator,
    OnlinePredictiveRouter, OnlineRouterConfig,
};
use diffserve_linalg::{sqrtm_psd, sym_eigen, Mat};
use diffserve_metrics::{frechet_distance, GaussianStats, RollingFid, SloTracker};
use diffserve_milp::{
    solve_milp, solve_milp_warm, Direction, MilpOptions, Problem, Sense, VarKind, WarmStart,
};
use diffserve_nn::Mlp;
use diffserve_simkit::rng::{derive_seed, seeded_rng, Exponential, Sampler};
use diffserve_simkit::time::{SimDuration, SimTime};
use diffserve_simkit::EventQueue;

use crate::drive::{self, total_secs, RunRecord, Timed};
use crate::measure::{
    parity_gaps, queries_per_rep, scored_latencies, tick_micros, Inputs, Rep, SetupTimes,
};
use crate::span::Tracer;
use crate::stats::{percentile, relative_range};
use crate::workloads::{Engine, Job};

/// Calls per probe of a sub-microsecond function: enough that the span's
/// two clock reads vanish against the loop.
const FAST_CALLS: u64 = 20_000;
/// Calls per probe of a function that takes microseconds or more.
const SLOW_CALLS: u64 = 200;
/// Ticks at most whose demand the solver probes replay — evenly spaced over
/// the run and never more than one tick in eight — so the slowest of them,
/// cold ladder solves at tens of milliseconds each, stay within seconds.
const SOLVER_TICKS: usize = 40;
/// Consecutive ticks at most the control-loop probe steps through: the
/// middle third of the run (past the idle start of the diurnal curve).
const CONTROL_TICKS: usize = 100;
/// Queue delays handed to the allocator probes (as `perf`'s MILP ladder
/// has them): some queueing, so the latency constraint binds.
const PROBE_QUEUE_DELAYS: (f64, f64) = (0.2, 0.5);

/// Metric values by name.
pub type Values = Vec<(&'static str, f64)>;

/// Runs `f` `calls` times under one span; returns nanoseconds per call.
fn ns_per_call(tracer: &mut Tracer, span: &'static str, calls: u64, mut f: impl FnMut(u64)) -> f64 {
    let ((), id) = tracer.span(span, |_| {
        for i in 0..calls {
            f(i);
        }
        ((), calls)
    });
    tracer.secs(id) * 1e9 / calls as f64
}

/// Runs `f` once per item under one span, timing every call; returns each
/// call's microseconds.
fn micros_each<I>(
    tracer: &mut Tracer,
    span: &'static str,
    items: impl Iterator<Item = I>,
    mut f: impl FnMut(I),
) -> Vec<f64> {
    let (out, _) = tracer.span(span, |_| {
        let out: Vec<f64> = items
            .map(|item| {
                let start = Instant::now();
                f(item);
                start.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        let calls = out.len() as u64;
        (out, calls)
    });
    out
}

fn p50(values: &[f64]) -> f64 {
    percentile(&mut values.to_vec(), 0.50)
}

fn p95(values: &[f64]) -> f64 {
    percentile(&mut values.to_vec(), 0.95)
}

/// The job whose configuration the probes copy: the first scored one.
fn lead(inputs: &Inputs) -> &Job {
    inputs
        .jobs
        .iter()
        .find(|job| job.scored)
        .expect("every workload has a scored job")
}

/// Records the spans of one traced repetition: the repetition, each job
/// under it, each timed session call under its job.
pub fn record_rep(tracer: &mut Tracer, jobs: &[Job], rep: &Rep) {
    tracer.group("rep", rep.span, queries_per_rep(jobs, rep), |t| {
        for record in &rep.records {
            let whole = Timed {
                start: record.build.start,
                end: record.finish.end,
            };
            t.group("job", whole, record.submitted, |t| {
                t.record("session.build", record.build, 1);
                t.record("session.replay_trace", record.replay, record.submitted);
                for (i, call) in record.between.iter().enumerate() {
                    t.record("session.run_until.between", *call, 0);
                    if let Some(tick) = record.ticks.get(i) {
                        t.record("session.run_until.tick", *tick, 1);
                    }
                    if let Some(poll) = record.polls.get(i) {
                        t.record("session.poll", *poll, 0);
                    }
                }
                t.record("session.finish", record.finish, record.report.completed);
            });
        }
    });
}

/// The repetition's simulator records: what the session spans, the stage
/// counts and the shares are taken over (on the testbed workload, the
/// twin).
fn sim_records<'a>(jobs: &[Job], rep: &'a Rep) -> Vec<&'a RunRecord> {
    jobs.iter()
        .zip(&rep.records)
        .filter(|(job, _)| job.engine == Engine::Sim)
        .map(|(_, record)| record)
        .collect()
}

/// Sums `f` over the repetition's scored jobs.
fn scored_sum(jobs: &[Job], rep: &Rep, f: impl Fn(&RunRecord) -> f64) -> f64 {
    jobs.iter()
        .zip(&rep.records)
        .filter(|(job, _)| job.scored)
        .map(|(_, record)| f(record))
        .sum()
}

/// Session-span metrics, report counts and the demoted end-to-end metrics
/// of the traced repetition. Tick latency is over the scored jobs, each
/// tick the faster of its two samples (untraced and traced repetition).
fn session_metrics(
    inputs: &Inputs,
    setup: &SetupTimes,
    untraced: &Rep,
    traced: &Rep,
    out: &mut Values,
) {
    let jobs = &inputs.jobs;
    let sim = sim_records(jobs, traced);
    let sum = |f: &dyn Fn(&RunRecord) -> f64| sim.iter().map(|r| f(r)).sum::<f64>();
    let queries = sum(&|r| r.submitted as f64);
    let between = sum(&|r| total_secs(&r.between));
    let ticks = sum(&|r| total_secs(&r.ticks));
    let finish = sum(&|r| r.finish.secs());
    let mut tick_micros = tick_micros(jobs, &[untraced, traced]);
    out.extend([
        ("core.serve.build_ms", setup.build.secs() * 1e3),
        ("core.serve.replay_trace_s", sum(&|r| r.replay.secs())),
        ("core.sim.between_ticks_s", between),
        ("core.sim.ticks_s", ticks),
        ("core.sim.tick_us_p50", percentile(&mut tick_micros, 0.50)),
        ("core.sim.tick_us_p95", percentile(&mut tick_micros, 0.95)),
        (
            "core.sim.tick_ms_max",
            percentile(&mut tick_micros, 1.0) * 1e-3,
        ),
        ("core.serve.poll_s", sum(&|r| total_secs(&r.polls))),
        ("core.report.finish_s", finish),
        ("core.report.finish_ns_per_query", finish * 1e9 / queries),
        ("core.sim.ns_per_query", (between + ticks) * 1e9 / queries),
        ("imagegen.prepare_ms", setup.prepare.secs() * 1e3),
        ("trace.synthesize_ms", setup.synthesize.secs() * 1e3),
    ]);

    let count = |f: &dyn Fn(&RunRecord) -> u64| scored_sum(jobs, traced, |r| f(r) as f64);
    let tier = |t: usize| {
        count(&|r| {
            r.report
                .tier_breakdown
                .get(t)
                .map_or(0, |tier| tier.completions)
        })
    };
    let scored = jobs.iter().filter(|j| j.scored).count() as f64;
    out.extend([
        ("queries", count(&|r| r.submitted)),
        ("completed", count(&|r| r.report.completed)),
        ("late", count(&|r| r.report.late)),
        ("dropped", count(&|r| r.report.dropped)),
        (
            "escalations",
            count(&|r| {
                r.report
                    .tier_breakdown
                    .iter()
                    .map(|tier| tier.escalated_past)
                    .sum()
            }),
        ),
        ("resumed_queries", count(&|r| r.report.resumed_queries)),
        ("incidents", count(&|r| r.report.incident_log.len() as u64)),
        ("tier0.completions", tier(0)),
        ("tier1.completions", tier(1)),
        ("tier2.completions", tier(2)),
        (
            "slo_violation_ratio",
            scored_sum(jobs, traced, |r| r.report.violation_ratio) / scored,
        ),
        (
            "latency_p50_s",
            percentile(&mut scored_latencies(jobs, traced), 0.50),
        ),
        (
            "core.addons.hit_rate",
            scored_sum(jobs, traced, |r| r.report.addon_stats.total_hit_rate()) / scored,
        ),
        (
            "core.addons.swap_s_mean",
            scored_sum(jobs, traced, |r| {
                r.report.addon_stats.total_mean_swap_secs()
            }) / scored,
        ),
    ]);
}

/// Stage executions and discriminator calls the reports' tier counts
/// imply. Under a cascade policy a query completing at tier `t` ran stages
/// `0..=t` (fewer if the router let it skip ahead, so this is an upper
/// estimate on a ladder) and met a discriminator at every boundary it
/// reached; under the other policies it ran one stage and no discriminator.
fn stage_counts(jobs: &[Job], rep: &Rep) -> (f64, f64) {
    let mut generate = 0.0;
    let mut discriminate = 0.0;
    for (job, record) in jobs.iter().zip(&rep.records) {
        if job.engine != Engine::Sim {
            continue;
        }
        if !job.settings.policy.uses_cascade() {
            generate += record.report.completed as f64;
            continue;
        }
        let tiers = &record.report.tier_breakdown;
        for tier in tiers {
            let depth = tier.tier as f64 + 1.0;
            let terminal = tier.tier + 1 == tiers.len().max(2);
            generate += tier.completions as f64 * depth;
            discriminate += tier.completions as f64 * if terminal { depth - 1.0 } else { depth };
        }
    }
    (generate, discriminate)
}

/// The generic probes, run on every workload: `trace`, `simkit`,
/// `imagegen`, `nn`, `metrics`, `linalg`. Returns the nanoseconds per
/// query each layer's probes account for, for the shares.
fn generic_probes(
    inputs: &Inputs,
    seed: u64,
    traced: &Rep,
    tracer: &mut Tracer,
    out: &mut Values,
) -> Shares {
    let runtime = &inputs.runtime;
    let job = lead(inputs);
    let prompts = runtime.dataset.prompts();
    let light = &runtime.spec.light;

    // trace
    let mut arrivals = Vec::new();
    let arrivals_ns = ns_per_call(tracer, "probe.trace.arrivals_ns_per_query", 1, |_| {
        arrivals = drive::arrivals(job);
    }) / arrivals.len() as f64;
    let mix = job
        .config
        .addons
        .clone()
        .unwrap_or_else(|| AddonsConfig::demo(seed))
        .mix;
    let draw_ns = ns_per_call(
        tracer,
        "probe.trace.addon_mix_ns_per_draw",
        FAST_CALLS,
        |i| {
            black_box(mix.draw(i, arrivals[i as usize % arrivals.len()]));
        },
    );

    // simkit: the classic hold model — pop the earliest event, push one a
    // random increment later — at the depth the engine preallocates for.
    let depth = job.config.num_workers * 4;
    let gaps: Vec<SimDuration> = {
        let mut rng = seeded_rng(derive_seed(seed, 0x51AB));
        let gap = Exponential::new(1.0).expect("rate 1 is valid");
        (0..4096)
            .map(|_| SimDuration::from_secs_f64(gap.draw(&mut rng)))
            .collect()
    };
    let mut queue = EventQueue::with_capacity(depth + 1);
    for (i, gap) in gaps.iter().cycle().take(depth).enumerate() {
        queue.push(SimTime::ZERO + *gap, i as u64);
    }
    let event_ns = ns_per_call(
        tracer,
        "probe.simkit.event_queue_ns_per_event",
        FAST_CALLS * 10,
        |i| {
            let (at, event) = queue.pop().expect("the hold model never drains");
            queue.push(at + gaps[i as usize % gaps.len()], event);
        },
    );

    // imagegen + nn
    let generate_ns = ns_per_call(
        tracer,
        "probe.imagegen.generate_ns_per_call",
        FAST_CALLS,
        |i| {
            black_box(light.generate(&prompts[i as usize % prompts.len()]));
        },
    );
    let features: Vec<Vec<f64>> = prompts.iter().map(|p| light.generate(p).features).collect();
    let discriminator_ns = ns_per_call(
        tracer,
        "probe.imagegen.discriminator_ns_per_call",
        FAST_CALLS,
        |i| {
            black_box(
                runtime
                    .discriminator
                    .confidence(&features[i as usize % features.len()]),
            );
        },
    );
    // The discriminator's classifier is private; this is an MLP of the same
    // widths on the same input, i.e. the forward pass the probe above
    // contains, timed alone.
    let mlp = Mlp::new(&[features[0].len(), 32, 16, 2], &mut seeded_rng(seed));
    let rows: Vec<Mat> = features[..64]
        .iter()
        .map(|f| Mat::from_rows(&[f.as_slice()]))
        .collect();
    let forward_ns = ns_per_call(tracer, "probe.nn.mlp_forward_ns", FAST_CALLS, |i| {
        black_box(mlp.predict_proba(&rows[i as usize % rows.len()]));
    });
    // Discriminator training is `Mlp::fit` around a few thousand generate
    // calls: the cost `setup_s` pays per boundary.
    let train_ms = ns_per_call(tracer, "probe.nn.train_ms", 1, |_| {
        black_box(Discriminator::train(
            &runtime.dataset,
            light,
            &runtime.spec.heavy,
            DiscriminatorConfig::default(),
        ));
    }) * 1e-6;

    // metrics + linalg
    let (generate_calls, discriminator_calls) = stage_counts(&inputs.jobs, traced);
    let sim = sim_records(&inputs.jobs, traced);
    let completed: f64 = sim.iter().map(|r| r.report.completed as f64).sum();
    let fit_rows = (completed as usize).clamp(features.len(), 100_000);
    let row_refs: Vec<&[f64]> = features
        .iter()
        .cycle()
        .take(fit_rows)
        .map(Vec::as_slice)
        .collect();
    let matrix = Mat::from_rows(&row_refs);
    let mut fitted = None;
    let fit_ns = ns_per_call(tracer, "probe.metrics.gaussian_fit_ns_per_row", 1, |_| {
        fitted = Some(GaussianStats::fit(&matrix, 1e-6).expect("thousands of rows fit"));
    }) / fit_rows as f64;
    let fitted = fitted.expect("the probe ran once");
    let frechet_us = ns_per_call(tracer, "probe.metrics.frechet_us", SLOW_CALLS, |_| {
        black_box(frechet_distance(&fitted, &runtime.reference).expect("same dimensions"));
    }) * 1e-3;
    let mut slo = SloTracker::new(job.config.slo);
    let slo_ns = ns_per_call(tracer, "probe.metrics.slo_ns_per_record", FAST_CALLS, |i| {
        let arrival = SimTime::from_micros(i * 1000);
        black_box(
            slo.record_completion(arrival, arrival + SimDuration::from_millis(1900 + i % 4000)),
        );
    });
    let mut rolling = RollingFid::new(runtime.reference.clone(), 256, 1e-3);
    let rolling_ns = ns_per_call(
        tracer,
        "probe.metrics.rolling_fid_ns_per_push",
        FAST_CALLS,
        |i| rolling.push(&features[i as usize % features.len()]),
    );
    let sqrtm_us = ns_per_call(tracer, "probe.linalg.sqrtm_psd_us", SLOW_CALLS, |_| {
        black_box(sqrtm_psd(runtime.reference.cov()).expect("a covariance is PSD"));
    }) * 1e-3;
    let eigen_us = ns_per_call(tracer, "probe.linalg.sym_eigen_us", SLOW_CALLS, |_| {
        black_box(sym_eigen(runtime.reference.cov()).expect("a covariance is symmetric"));
    }) * 1e-3;

    // Events the engine handles, estimated from outside: one arrival per
    // query, one completion per stage execution, one event per tick.
    let queries: f64 = sim.iter().map(|r| r.submitted as f64).sum();
    let ticks: f64 = sim.iter().map(|r| r.ticks.len() as f64).sum();
    let events = queries + generate_calls + ticks;
    out.extend([
        ("trace.arrivals_ns_per_query", arrivals_ns),
        ("trace.addon_mix_ns_per_draw", draw_ns),
        ("simkit.event_queue_ns_per_event", event_ns),
        ("simkit.events_est", events),
        ("imagegen.generate_ns_per_call", generate_ns),
        ("imagegen.generate_calls", generate_calls),
        ("imagegen.discriminator_ns_per_call", discriminator_ns),
        ("imagegen.discriminator_calls", discriminator_calls),
        ("nn.mlp_forward_ns", forward_ns),
        ("nn.train_ms", train_ms),
        ("metrics.gaussian_fit_ns_per_row", fit_ns),
        ("metrics.frechet_us", frechet_us),
        ("metrics.slo_ns_per_record", slo_ns),
        ("metrics.rolling_fid_ns_per_push", rolling_ns),
        ("linalg.sqrtm_psd_us", sqrtm_us),
        ("linalg.sym_eigen_us", eigen_us),
    ]);

    // `RunReport::assemble` fits every completed row three times (the whole
    // run, its window, its tier) and takes one Fréchet distance per fit;
    // each completion is also one SLO record and one rolling-FID push.
    let windows: f64 = sim
        .iter()
        .map(|r| (r.report.fid_series.len() + r.report.tier_breakdown.len() + 1) as f64)
        .sum();
    let addon_draws = if job.config.addons.is_some() {
        queries
    } else {
        0.0
    };
    Shares {
        trace_secs: (queries * arrivals_ns + addon_draws * draw_ns) * 1e-9,
        simkit_secs: events * event_ns * 1e-9,
        imagegen_secs: (generate_calls * generate_ns + discriminator_calls * discriminator_ns)
            * 1e-9,
        nn_secs: discriminator_calls * forward_ns * 1e-9,
        metrics_secs: completed * (3.0 * fit_ns + slo_ns + rolling_ns) * 1e-9
            + windows * frechet_us * 1e-6,
        linalg_secs: windows * sqrtm_us * 1e-6,
    }
}

/// Host seconds per repetition the generic probes attribute to each layer:
/// calls × nanoseconds per call.
struct Shares {
    trace_secs: f64,
    simkit_secs: f64,
    imagegen_secs: f64,
    /// Inside `imagegen_secs` (the discriminator's forward pass).
    nn_secs: f64,
    metrics_secs: f64,
    /// Inside `metrics_secs` (the matrix square root of each Fréchet
    /// distance).
    linalg_secs: f64,
}

/// The demand the workload puts on its controller, sampled at up to
/// [`SOLVER_TICKS`] evenly spaced tick instants.
fn demand_at_ticks(job: &Job) -> Vec<f64> {
    let interval = job.config.control_interval;
    let ticks = (job.trace.duration().as_micros() / interval.as_micros()) as usize;
    let stride = ticks.div_ceil(SOLVER_TICKS).max(8);
    (1..=ticks)
        .step_by(stride)
        .map(|k| {
            job.trace
                .qps_at(SimTime::ZERO + interval * k as u64)
                .max(0.5)
        })
        .collect()
}

/// A seeded instance family of the allocator's shape (its pinned residual
/// MILP): one batch size per tier chosen by binaries, integer workers
/// active only under the chosen batch, throughput per tier, fleet
/// capacity, and the end-to-end latency budget; maximise spare workers.
fn allocator_shaped_milp(
    tiers: &[LatencyProfile],
    tier_demands: &[f64],
    batch_sizes: &[usize],
    workers: usize,
    latency_budget: f64,
) -> Problem {
    let s = workers as f64;
    let mut p = Problem::new(Direction::Maximize);
    let mut capacity = Vec::new();
    let mut latency = Vec::new();
    let mut objective = Vec::new();
    for (t, (profile, demand)) in tiers.iter().zip(tier_demands).enumerate() {
        let mut one_batch = Vec::new();
        let mut throughput = Vec::new();
        for (j, &b) in batch_sizes.iter().enumerate() {
            let chosen = p.add_binary(format!("y{t}_{j}"));
            let active = p.add_var(format!("w{t}_{j}"), VarKind::Integer, 0.0, s);
            p.add_constraint(
                format!("active{t}_{j}"),
                &[(active, 1.0), (chosen, -s)],
                Sense::Le,
                0.0,
            );
            one_batch.push((chosen, 1.0));
            throughput.push((active, profile.throughput(b)));
            capacity.push((active, 1.0));
            latency.push((chosen, profile.exec_latency(b).as_secs_f64()));
            objective.push((chosen, -1e-4 * j as f64));
            objective.push((active, -1e-2));
        }
        p.add_constraint(format!("one-batch{t}"), &one_batch, Sense::Eq, 1.0);
        p.add_constraint(format!("throughput{t}"), &throughput, Sense::Ge, *demand);
    }
    p.add_constraint("capacity", &capacity, Sense::Le, s);
    p.add_constraint("latency", &latency, Sense::Le, latency_budget);
    p.set_objective(&objective);
    p
}

/// The solver probes: `milp`, `core.allocator`, `core.control`, run when
/// the lead job's allocator backend, tier count or policy mix uses them.
fn solver_probes(inputs: &Inputs, traced: &Rep, tracer: &mut Tracer, out: &mut Values) {
    let runtime = &inputs.runtime;
    let job = lead(inputs);
    let config = &job.config;
    let demands = demand_at_ticks(job);
    let thresholds = config.threshold_grid();
    let slo = config.slo.as_secs_f64();
    let (q_light, q_heavy) = PROBE_QUEUE_DELAYS;
    let two_tier = |demand: f64| AllocatorInputs {
        demand_qps: demand,
        queue_delay_light: q_light,
        queue_delay_heavy: q_heavy,
        slo,
        total_workers: config.num_workers,
        deferral: &runtime.deferral,
        light: *runtime.spec.light.latency(),
        heavy: *runtime.spec.heavy.latency(),
        resume_heavy: None,
        discriminator_latency: runtime.discriminator.latency().as_secs_f64(),
        batch_sizes: &config.batch_sizes,
        thresholds: &thresholds,
    };
    let milp = job.settings.backend == AllocatorBackend::Milp;
    let mut attempts = 0u64;
    let mut infeasible = 0u64;

    if let Some(ladder) = runtime.ladder.as_ref().filter(|l| l.num_tiers() > 2) {
        let ladder_inputs = |demand: f64| LadderInputs {
            demand_qps: demand,
            queue_delays: vec![q_light; ladder.num_tiers()],
            slo,
            total_workers: config.num_workers,
            deferrals: ladder.deferrals.iter().collect(),
            tiers: ladder.models.iter().map(|m| *m.latency()).collect(),
            discriminator_latency: ladder
                .discriminators
                .iter()
                .map(|d| d.latency().as_secs_f64())
                .collect(),
            batch_sizes: &config.batch_sizes,
            thresholds: &thresholds,
            max_raise_per_solve: config
                .ladder
                .clone()
                .unwrap_or_default()
                .max_threshold_raise_per_tick,
            direct_fractions: Vec::new(),
        };
        let cold = micros_each(
            tracer,
            "probe.core.allocator.ladder_cold_us",
            demands.iter(),
            |&d| {
                attempts += 1;
                let solved = solve_ladder(&ladder_inputs(d), milp, &mut LadderWarmState::new());
                infeasible += u64::from(solved.is_none());
            },
        );
        let mut warm_state = LadderWarmState::new();
        let warm = micros_each(
            tracer,
            "probe.core.allocator.ladder_warm_us",
            demands.iter(),
            |&d| {
                black_box(solve_ladder(&ladder_inputs(d), milp, &mut warm_state));
            },
        );
        let peak = ladder_inputs(demands.iter().copied().fold(0.0, f64::max) * 4.0);
        let fallback_us = ns_per_call(
            tracer,
            "probe.core.allocator.fallback_us",
            SLOW_CALLS,
            |_| {
                black_box(ladder_overload_fallback(&peak));
            },
        ) * 1e-3;
        out.extend([
            ("core.allocator.ladder_cold_us_p50", p50(&cold)),
            ("core.allocator.ladder_cold_us_p95", p95(&cold)),
            ("core.allocator.ladder_warm_us_p50", p50(&warm)),
            ("core.allocator.ladder_warm_us_p95", p95(&warm)),
            ("core.allocator.fallback_us", fallback_us),
        ]);
    } else {
        if milp {
            let cold = micros_each(
                tracer,
                "probe.core.allocator.milp_cold_us",
                demands.iter(),
                |&d| {
                    attempts += 1;
                    infeasible += u64::from(solve_milp_allocation(&two_tier(d)).is_none());
                },
            );
            let mut warm_state = AllocWarmState::new();
            let warm = micros_each(
                tracer,
                "probe.core.allocator.milp_warm_us",
                demands.iter(),
                |&d| {
                    black_box(solve_milp_allocation_warm(&two_tier(d), &mut warm_state));
                },
            );
            let proteus = micros_each(
                tracer,
                "probe.core.allocator.proteus_us",
                demands.iter(),
                |&d| {
                    black_box(solve_proteus(&two_tier(d)));
                },
            );
            out.extend([
                ("core.allocator.milp_cold_us_p50", p50(&cold)),
                ("core.allocator.milp_warm_us_p50", p50(&warm)),
                ("core.allocator.proteus_us_p50", p50(&proteus)),
            ]);
        } else {
            let exhaustive = micros_each(
                tracer,
                "probe.core.allocator.exhaustive_us",
                demands.iter(),
                |&d| {
                    attempts += 1;
                    infeasible += u64::from(solve_exhaustive(&two_tier(d)).is_none());
                },
            );
            out.push(("core.allocator.exhaustive_us_p50", p50(&exhaustive)));
        }
        let peak = two_tier(demands.iter().copied().fold(0.0, f64::max) * 4.0);
        let fallback_us = ns_per_call(
            tracer,
            "probe.core.allocator.fallback_us",
            SLOW_CALLS,
            |_| {
                black_box(overload_fallback(&peak));
            },
        ) * 1e-3;
        out.push(("core.allocator.fallback_us", fallback_us));
    }
    out.push((
        "core.allocator.infeasible_ratio",
        infeasible as f64 / attempts as f64,
    ));

    if milp {
        // Per-tier demand as the deferral profile at mid-grid splits it.
        let tiers: Vec<LatencyProfile> = match &runtime.ladder {
            Some(ladder) => ladder.models.iter().map(|m| *m.latency()).collect(),
            None => vec![*runtime.spec.light.latency(), *runtime.spec.heavy.latency()],
        };
        let deferred = runtime
            .deferral
            .fraction_deferred(thresholds[thresholds.len() / 2]);
        let problems: Vec<Problem> = demands
            .iter()
            .map(|&d| {
                let tier_demands: Vec<f64> = (0..tiers.len())
                    .map(|t| d * deferred.powi(t as i32))
                    .collect();
                allocator_shaped_milp(
                    &tiers,
                    &tier_demands,
                    &config.batch_sizes,
                    config.num_workers,
                    slo - q_light - q_heavy,
                )
            })
            .collect();
        let options = MilpOptions::default();
        let mut nodes = 0usize;
        let cold = micros_each(
            tracer,
            "probe.milp.solve_cold_us",
            problems.iter(),
            |problem| {
                // Infeasible at the demand peak is a valid answer.
                if let Ok(solution) = solve_milp(problem, &options) {
                    nodes += solution.nodes;
                }
            },
        );
        let mut warm_start = WarmStart::new();
        let warm = micros_each(
            tracer,
            "probe.milp.solve_warm_us",
            problems.iter(),
            |problem| {
                black_box(solve_milp_warm(problem, &options, &mut warm_start).ok());
            },
        );
        out.extend([
            ("milp.solve_cold_us", p50(&cold)),
            ("milp.solve_warm_us", p50(&warm)),
            ("milp.nodes_per_solve", nodes as f64 / problems.len() as f64),
        ]);
    }

    if runtime.num_tiers() > 2 {
        control_probe(inputs, traced, tracer, out);
    }
}

/// Drives `SessionSpec::control_loop()` directly with the observation
/// sequence the workload produces: arrivals per control interval from its
/// arrival stream, confidences from its discriminators on its prompts, an
/// idle fleet. The gap to `core.sim.tick_us_*` is observation gathering
/// and actuation inside `core::sim`.
fn control_probe(inputs: &Inputs, traced: &Rep, tracer: &mut Tracer, out: &mut Values) {
    let runtime = &inputs.runtime;
    let job = lead(inputs);
    let config = &job.config;
    let spec = ServingSession::builder()
        .runtime(runtime)
        .config(config.clone())
        .settings(job.settings.clone())
        .validate()
        .expect("the job built a session before");
    let mut control = spec.control_loop();
    black_box(control.bootstrap(job.settings.peak_demand_hint));

    let interval = config.control_interval.as_micros();
    let arrivals = drive::arrivals(job);
    let num_ticks = traced.records[0].ticks.len();
    let mut per_tick = vec![0u64; num_ticks + 1];
    for at in &arrivals {
        per_tick[((at.as_micros() / interval) as usize).min(num_ticks)] += 1;
    }
    let prompts = runtime.dataset.prompts();
    let boundaries = runtime.ladder.as_ref().map_or(1, |l| l.boundaries());
    // Confidences of each tier's outputs at the discriminator of the
    // boundary above it, one pool per boundary, cycled through as queries
    // pass.
    let pools: Vec<Vec<f64>> = (0..boundaries)
        .map(|b| {
            let (model, disc) = match &runtime.ladder {
                Some(ladder) => (&ladder.models[b], &ladder.discriminators[b]),
                None => (&runtime.spec.light, &runtime.discriminator),
            };
            prompts
                .iter()
                .map(|p| disc.confidence(&model.generate(p).features))
                .collect()
        })
        .collect();
    let heavy_share = traced.records[0].report.heavy_fraction;
    let mut served = 0usize;
    let window = num_ticks / 3..num_ticks / 3 + (num_ticks / 3).min(CONTROL_TICKS);
    let observations: Vec<ControlObservation> = window
        .map(|k| {
            let n = per_tick[k] as usize;
            let take = |pool: &Vec<f64>| -> Vec<f64> {
                (0..n).map(|i| pool[(served + i) % pool.len()]).collect()
            };
            let obs = ControlObservation {
                now: SimTime::from_micros((k as u64 + 1) * interval),
                arrivals: n as u64,
                heavy_arrivals: (n as f64 * heavy_share) as u64,
                alive_workers: config.num_workers,
                effective_capacity: config.num_workers as f64,
                current_light_batch: 1,
                current_heavy_batch: 1,
                confidences: take(&pools[0]),
                tier_queues: vec![0; runtime.num_tiers()],
                deep_confidences: pools[1..].iter().map(take).collect(),
                tier_direct_arrivals: vec![0; runtime.num_tiers()],
                ..Default::default()
            };
            served += n;
            obs
        })
        .collect();
    let steps = micros_each(
        tracer,
        "probe.core.control.step_us",
        observations.iter(),
        |obs| {
            black_box(control.step(obs));
        },
    );
    out.extend([
        ("core.control.step_us_p50", p50(&steps)),
        ("core.control.step_us_p95", p95(&steps)),
        ("core.control.ticks", steps.len() as f64),
    ]);
}

/// The feature probes: the online router and deferral refresh (ladder
/// runs), the add-on cache (add-on runs), the testbed runtime.
fn feature_probes(inputs: &Inputs, traced: &Rep, tracer: &mut Tracer, out: &mut Values) {
    let runtime = &inputs.runtime;
    let job = lead(inputs);
    let config = &job.config;
    let prompts = runtime.dataset.prompts();

    if let Some(ladder) = runtime.ladder.as_ref().filter(|l| l.num_tiers() > 2) {
        let knobs = config.ladder.clone().unwrap_or_default();
        let mut router = OnlinePredictiveRouter::new(
            ladder.boundaries(),
            OnlineRouterConfig {
                observation_noise: knobs.predictive_observation_noise,
                learning_rate: knobs.predictive_learning_rate,
                min_observations: knobs.predictive_min_observations,
                margin: knobs.predictive_margin,
            },
        );
        let observe_ns = ns_per_call(
            tracer,
            "probe.imagegen.router_observe_ns",
            FAST_CALLS,
            |i| {
                let prompt = &prompts[i as usize % prompts.len()];
                router.observe(i as usize % ladder.boundaries(), prompt, i % 3 == 0);
            },
        );
        // Past `min_observations` now, so `entry_tier` scores for real.
        let entry_ns = ns_per_call(
            tracer,
            "probe.imagegen.router_entry_tier_ns",
            FAST_CALLS,
            |i| {
                black_box(router.entry_tier(&prompts[i as usize % prompts.len()]));
            },
        );
        out.extend([
            ("imagegen.router_observe_ns", observe_ns),
            ("imagegen.router_entry_tier_ns", entry_ns),
        ]);
    }

    if config.online_profile_refresh {
        let mut estimator = OnlineDeferralEstimator::new(
            config.online_profile_window,
            config.online_profile_min_samples,
        );
        for p in prompts.iter().take(config.online_profile_window) {
            estimator.observe(
                runtime
                    .discriminator
                    .confidence(&runtime.spec.light.generate(p).features),
            );
        }
        let refresh_us = ns_per_call(
            tracer,
            "probe.imagegen.deferral_refresh_us",
            SLOW_CALLS,
            |_| {
                black_box(estimator.refresh());
            },
        ) * 1e-3;
        out.push(("imagegen.deferral_refresh_us", refresh_us));
    }

    if let Some(addons) = &config.addons {
        let mut cache = ModuleCache::new(addons.cache_mem_mb);
        let wanted: Vec<usize> = (0..4096u64)
            .filter_map(|q| addons.mix.draw(q, SimTime::from_micros(q * 100_000)))
            .collect();
        let admit_ns = ns_per_call(tracer, "probe.core.addons.admit_ns", FAST_CALLS, |i| {
            black_box(cache.admit(wanted[i as usize % wanted.len()], &addons.catalog));
        });
        out.push(("core.addons.admit_ns", admit_ns));
    }

    let testbed = inputs
        .jobs
        .iter()
        .zip(&traced.records)
        .find(|(job, _)| job.engine == Engine::Cluster);
    if let Some((job, record)) = testbed {
        let workers = job.config.num_workers;
        let mut plan = ServingPlan::bootstrap(workers);
        let mut excluded = vec![false; workers];
        excluded[workers - 1] = true;
        let retarget_us = ns_per_call(tracer, "probe.cluster.plan_retarget_us", FAST_CALLS, |i| {
            let light = 1 + i as usize % (workers - 2);
            plan.retarget_masked(light, workers - 1 - light, &excluded);
        }) * 1e-3;
        let mut late_micros: Vec<f64> = record.submit_late_secs.iter().map(|s| s * 1e6).collect();
        let (gap_latency, gap_fid) =
            parity_gaps(&inputs.jobs, traced).expect("a testbed job has a twin");
        out.extend([
            ("cluster.launch_ms", record.build.secs() * 1e3),
            ("cluster.finish_ms", record.finish.secs() * 1e3),
            (
                "cluster.submit_late_us_p50",
                percentile(&mut late_micros, 0.50),
            ),
            (
                "cluster.submit_late_us_p99",
                percentile(&mut late_micros, 0.99),
            ),
            ("cluster.plan_retarget_us", retarget_us),
            (
                "cluster.overhead_ms",
                (record.wall_secs() - record.ideal_secs) * 1e3,
            ),
            ("cluster.slo_violation_ratio", record.report.violation_ratio),
            ("cluster.parity_gap_latency", gap_latency),
            ("cluster.parity_gap_fid", gap_fid),
        ]);
    }
}

/// Every per-layer metric of a traced run. `untraced` and `traced` are the
/// two repetitions the run made (the same drive; only the second one's
/// calls became spans), `serial` the sweep's extra repetition on one
/// thread.
pub fn per_layer(
    inputs: &Inputs,
    seed: u64,
    setup: &SetupTimes,
    untraced: &Rep,
    traced: &Rep,
    serial: Option<&Rep>,
    tracer: &mut Tracer,
) -> Values {
    let mut out = Values::new();
    session_metrics(inputs, setup, untraced, traced, &mut out);
    let (shares, _) = tracer.span("probes", |t| {
        let shares = generic_probes(inputs, seed, traced, t, &mut out);
        solver_probes(inputs, traced, t, &mut out);
        feature_probes(inputs, traced, t, &mut out);
        (shares, 0)
    });

    // Shares of the untraced repetition's simulator wall (the testbed's
    // own wall is sleeps). On a parallel repetition the layers' seconds
    // spread over the threads, so they are set against thread-seconds: the
    // sum of the jobs' own walls.
    let wall: f64 = sim_records(&inputs.jobs, untraced)
        .iter()
        .map(|r| r.wall_secs())
        .sum();
    let control = sim_records(&inputs.jobs, untraced)
        .iter()
        .map(|r| total_secs(&r.ticks))
        .sum::<f64>()
        / wall;
    let named = [
        shares.trace_secs,
        shares.simkit_secs,
        shares.imagegen_secs,
        shares.metrics_secs,
    ]
    .iter()
    .sum::<f64>()
        / wall
        + control;
    out.extend([
        ("share.trace", shares.trace_secs / wall),
        ("share.simkit", shares.simkit_secs / wall),
        ("share.imagegen", shares.imagegen_secs / wall),
        ("share.nn", shares.nn_secs / wall),
        ("share.metrics", shares.metrics_secs / wall),
        ("share.linalg", shares.linalg_secs / wall),
        ("share.core.control", control),
        ("core.sim.self_share", 1.0 - named),
        (
            "sweep.parallel_speedup",
            serial.map_or(0.0, |s| s.wall_secs / untraced.wall_secs),
        ),
        (
            "trace_overhead_ratio",
            traced.wall_secs / untraced.wall_secs,
        ),
    ]);

    let pair = [untraced, traced];
    let tick_q = |rep: &Rep, q: f64| percentile(&mut tick_micros(&inputs.jobs, &[rep]), q);
    out.extend([
        ("noise.wall_s", relative_range(&pair.map(|r| r.wall_secs))),
        (
            "noise.core.sim.tick_us_p50",
            relative_range(&pair.map(|r| tick_q(r, 0.50))),
        ),
        (
            "noise.core.sim.tick_us_p95",
            relative_range(&pair.map(|r| tick_q(r, 0.95))),
        ),
    ]);
    out
}
