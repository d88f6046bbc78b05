//! Performance baseline for the serving engine.
//!
//! Three workloads, exported to `BENCH_sim.json` so every future PR has a
//! trajectory to beat:
//!
//! 1. **Azure replay at fleet scale** — the diurnal `trace::azure` curve
//!    replayed on a 1000-worker fleet through the arena-flattened
//!    simulator (per-tier sorted load index, reused batch buffers). Two
//!    sizes: the historical `azure_replay_1000w` (~95 K queries) and the
//!    multi-million-query `azure_replay_1000w_2m` (~2 M queries over two
//!    simulated diurnal hours), each with a `smoke/` variant for CI.
//! 2. **Policy × scenario sweep** — the full 5-policy × 9-scenario matrix,
//!    run once serially and once fanned across cores by a work-stealing
//!    `std::thread::scope` runner. The export records both wall times and
//!    the resulting speedup (≈1.0 on a single-core host by construction).
//! 3. **Solver ticks** — control ticks under drifting demand, solved cold
//!    every tick vs. carrying the warm state tick to tick. Two pairs:
//!    `milp_ladder_cold/warm` is the legacy *two-tier* allocator (the full
//!    MILP cold vs. the knapsack search through an [`AllocWarmState`],
//!    `solve_milp_allocation[_warm]`) — the "ladder" in its key is the
//!    ladder of ticks, kept so the committed baseline stays comparable — and
//!    `ladder3_solve_cold/warm` is the N-tier quality-ladder allocator
//!    (`solve_ladder`, 3 tiers, MILP inner solver).
//! 4. **Cluster replay** — the same diurnal curve replayed on the
//!    thread-and-channel testbed backend (`run_cluster`) at paper-testbed
//!    fleet scale, wall-clock timed, so the cluster runtime's overhead has
//!    a tracked trajectory too (`cluster_replay`, plus a `smoke/` variant
//!    for CI).
//!
//! Usage:
//!
//! ```text
//! perf [--smoke] [--resume | --addons | --ladder] [--threads N]
//!      [--out PATH] [--baseline PATH]
//! ```
//!
//! * `--smoke` — CI-sized workloads only (still 1000 workers, shorter
//!   trace, reduced sweep). A full run *also* executes the smoke
//!   workloads, so a committed full baseline carries every key the CI
//!   smoke job compares against.
//! * `--resume` — run the serving workloads with stage-level resume
//!   enabled (`SystemConfig::resume_from_latents`); benchmark keys gain a
//!   `resume/` prefix so the modes never gate against each other's
//!   baselines. A full run in any mode also executes the *other* modes'
//!   smoke workloads, so one committed full baseline covers every CI
//!   matrix leg.
//! * `--addons` — run the serving workloads with add-on serving enabled
//!   (the demo catalog/mix on `SystemConfig::addons`: per-worker module
//!   caches, swap charging, affinity routing); keys gain an `addons/`
//!   prefix.
//! * `--ladder` — run the serving workloads on the 3-tier quality ladder
//!   (`ladder3` runtime, `SystemConfig::ladder` attached, predictive
//!   routing on); keys gain a `ladder/` prefix.
//! * `--threads N` — fan the parallel sweep across `N` threads instead of
//!   the detected core count (env `PERF_THREADS` works too; the flag
//!   wins). Both the thread count used and the detected core count are
//!   recorded in the export.
//! * `--out PATH` — where to write the JSON (default `BENCH_sim.json`).
//! * `--baseline PATH` — compare against a previous export and exit
//!   nonzero if any benchmark present in both regressed by more than
//!   [`REGRESSION_TOLERANCE`].
//!
//! The JSON is hand-rolled (the workspace has no serde) and deliberately
//! line-oriented — one benchmark per line — so [`parse_benchmark_secs`]
//! can read a baseline back with plain string scanning.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use criterion::{black_box, Criterion};
use diffserve_bench::{f2, CascadeId, Scale, Table, EXPERIMENT_SEED};
use diffserve_cluster::run_cluster;
use diffserve_core::{
    run_scenario, run_trace, solve_ladder, solve_milp_allocation, solve_milp_allocation_warm,
    AddonsConfig, AllocWarmState, AllocatorInputs, CascadeRuntime, LadderConfig, LadderInputs,
    LadderWarmState, Policy, RunSettings, SystemConfig,
};
use diffserve_imagegen::{ladder3, FeatureSpec, LatencyProfile};
use diffserve_simkit::time::SimDuration;
use diffserve_trace::{
    standard_scenarios, synthesize_azure_trace, AzureTraceConfig, Scenario, Trace,
};

/// A benchmark slower than `baseline × (1 + tolerance)` fails the gate.
const REGRESSION_TOLERANCE: f64 = 0.20;

/// The warm MILP ladder must beat the cold ladder by at least this margin
/// (`warm ≤ (1 − margin) × cold`), every run, smoke included. Basis reuse
/// plus threshold pinning is the whole point of the warm path; a slide
/// back to parity is a regression even if no baseline file is supplied.
const WARM_SPEEDUP_MIN: f64 = 0.15;

/// Fleet size for the Azure replay (the paper-scale target from the
/// roadmap; routing must go through the sorted load index to survive it).
const FLEET: usize = 1000;

/// QPS band of the multi-million-query Azure replay. The diurnal curve
/// averages ≈ (min + max) / 2, so 60–500 qps over [`REPLAY_2M_SECS`]
/// simulated seconds arrives ≈ 2.0 M queries.
const REPLAY_2M_MIN_QPS: f64 = 60.0;
/// See [`REPLAY_2M_MIN_QPS`].
const REPLAY_2M_MAX_QPS: f64 = 500.0;
/// Simulated duration of the full ~2 M-query replay (two diurnal hours).
const REPLAY_2M_SECS: u64 = 7200;
/// Simulated duration of the CI-sized `smoke/` variant (~17 K queries).
const REPLAY_2M_SMOKE_SECS: u64 = 60;

/// Which serving-feature variant the serving workloads run under. Each
/// mode namespaces its benchmark keys so the CI matrix legs never gate
/// against each other's baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Plain restart cascade — the unprefixed historical keys.
    Restart,
    /// Stage-level resume escalation (`resume/` keys).
    Resume,
    /// Add-on serving with the demo catalog and mix (`addons/` keys).
    Addons,
    /// 3-tier quality ladder with predictive routing (`ladder/` keys,
    /// served by the `ladder3` runtime instead of Cascade 1).
    Ladder,
}

impl Mode {
    fn all() -> [Mode; 4] {
        [Mode::Restart, Mode::Resume, Mode::Addons, Mode::Ladder]
    }

    fn prefix(self) -> &'static str {
        match self {
            Mode::Restart => "",
            Mode::Resume => "resume/",
            Mode::Addons => "addons/",
            Mode::Ladder => "ladder/",
        }
    }

    fn apply(self, config: &mut SystemConfig) {
        match self {
            Mode::Restart => {}
            Mode::Resume => config.resume_from_latents = true,
            Mode::Addons => config.addons = Some(AddonsConfig::demo(EXPERIMENT_SEED)),
            Mode::Ladder => config.ladder = Some(LadderConfig::default()),
        }
    }
}

/// One exported measurement.
struct Record {
    name: String,
    secs: f64,
    iters: u64,
    /// Extra numeric fields serialized alongside `secs` (not compared by
    /// the regression gate, which only reads `secs`).
    extra: Vec<(&'static str, String)>,
}

fn main() {
    let mut smoke = false;
    let mut resume = false;
    let mut addons = false;
    let mut ladder = false;
    let mut threads_arg: Option<usize> = None;
    let mut out = String::from("BENCH_sim.json");
    let mut baseline: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--resume" => resume = true,
            "--addons" => addons = true,
            "--ladder" => ladder = true,
            "--threads" => {
                let n = args.next().expect("--threads needs a count");
                threads_arg = Some(n.parse().expect("--threads needs a positive integer"));
            }
            "--out" => out = args.next().expect("--out needs a path"),
            "--baseline" => baseline = Some(args.next().expect("--baseline needs a path")),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: perf [--smoke] [--resume | --addons | --ladder] [--threads N] \
                     [--out PATH] [--baseline PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    let mode = match (resume, addons, ladder) {
        (false, false, false) => Mode::Restart,
        (true, false, false) => Mode::Resume,
        (false, true, false) => Mode::Addons,
        (false, false, true) => Mode::Ladder,
        _ => {
            eprintln!(
                "--resume, --addons, and --ladder are separate baseline namespaces; pick one"
            );
            std::process::exit(2);
        }
    };

    // Read the baseline up front: CI overwrites the checked-in file with
    // its own export (`--out BENCH_sim.json --baseline BENCH_sim.json`),
    // so the comparison must capture the committed contents first.
    let baseline_text = baseline.as_ref().map(|path| {
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"))
    });

    let runtime = Scale::Smoke.runtime(CascadeId::One);
    // The ladder mode serves the 3-tier `ladder3` runtime; a full run in
    // any mode also needs it for the ladder smoke keys. Prepared lazily so
    // smoke runs of the other modes skip the extra discriminator training.
    let ladder_runtime = (mode == Mode::Ladder || !smoke)
        .then(|| Scale::Smoke.ladder_runtime(ladder3(FeatureSpec::default())));
    let rt_for = |m: Mode| -> &CascadeRuntime {
        match m {
            Mode::Ladder => ladder_runtime.as_ref().expect("ladder runtime prepared"),
            _ => &runtime,
        }
    };
    let detected_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let threads = threads_arg
        .or_else(|| {
            std::env::var("PERF_THREADS")
                .ok()
                .and_then(|s| s.parse().ok())
        })
        .unwrap_or(detected_cores)
        .max(1);
    let mut records = Vec::new();
    let mut criterion = Criterion::default();

    // Solver ticks: shared between modes, so the CI smoke job tracks solver
    // regressions against the committed full baseline.
    milp_ladder(&runtime, &mut criterion);
    bench_ladder3_solve(&runtime, &mut criterion);

    // Smoke-sized workloads: always run, so a full baseline has the keys
    // the CI job compares.
    azure_replay(
        rt_for(mode),
        &mut criterion,
        &format!("{}smoke/azure_replay_1000w", mode.prefix()),
        30.0,
        120.0,
        60,
        mode,
    );
    azure_replay(
        rt_for(mode),
        &mut criterion,
        &format!("{}smoke/azure_replay_1000w_2m", mode.prefix()),
        REPLAY_2M_MIN_QPS,
        REPLAY_2M_MAX_QPS,
        REPLAY_2M_SMOKE_SECS,
        mode,
    );
    sweep(
        rt_for(mode),
        &mut records,
        &format!("{}smoke/sweep", mode.prefix()),
        true,
        threads,
        mode,
    );
    cluster_replay(
        rt_for(mode),
        &mut records,
        &format!("{}smoke/cluster_replay", mode.prefix()),
        CLUSTER_REPLAY_SMOKE_SECS,
        mode,
    );

    if !smoke {
        azure_replay(
            rt_for(mode),
            &mut criterion,
            &format!("{}azure_replay_1000w", mode.prefix()),
            60.0,
            480.0,
            350,
            mode,
        );
        azure_replay(
            rt_for(mode),
            &mut criterion,
            &format!("{}azure_replay_1000w_2m", mode.prefix()),
            REPLAY_2M_MIN_QPS,
            REPLAY_2M_MAX_QPS,
            REPLAY_2M_SECS,
            mode,
        );
        sweep(
            rt_for(mode),
            &mut records,
            &format!("{}sweep_5x9", mode.prefix()),
            false,
            threads,
            mode,
        );
        cluster_replay(
            rt_for(mode),
            &mut records,
            &format!("{}cluster_replay", mode.prefix()),
            CLUSTER_REPLAY_SECS,
            mode,
        );
        // A full baseline also carries the *other* modes' smoke keys, so
        // every leg of the CI bench matrix gates against one committed
        // export.
        for other in Mode::all().into_iter().filter(|&m| m != mode) {
            azure_replay(
                rt_for(other),
                &mut criterion,
                &format!("{}smoke/azure_replay_1000w", other.prefix()),
                30.0,
                120.0,
                60,
                other,
            );
            azure_replay(
                rt_for(other),
                &mut criterion,
                &format!("{}smoke/azure_replay_1000w_2m", other.prefix()),
                REPLAY_2M_MIN_QPS,
                REPLAY_2M_MAX_QPS,
                REPLAY_2M_SMOKE_SECS,
                other,
            );
            sweep(
                rt_for(other),
                &mut records,
                &format!("{}smoke/sweep", other.prefix()),
                true,
                threads,
                other,
            );
            cluster_replay(
                rt_for(other),
                &mut records,
                &format!("{}smoke/cluster_replay", other.prefix()),
                CLUSTER_REPLAY_SMOKE_SECS,
                other,
            );
        }
    }

    for m in criterion.measurements() {
        let extra = if m.id.contains("azure_replay") {
            vec![("workers", FLEET.to_string())]
        } else if m.id.contains("milp_ladder") {
            vec![("ticks", MILP_TICKS.to_string())]
        } else if m.id.contains("ladder3_solve") {
            vec![("ticks", LADDER3_TICKS.to_string())]
        } else {
            Vec::new()
        };
        records.push(Record {
            name: m.id.clone(),
            secs: m.mean_secs,
            iters: m.iters,
            extra,
        });
    }
    records.sort_by(|a, b| a.name.cmp(&b.name));

    let mut table = Table::new(&["benchmark", "secs", "iters"]);
    for r in &records {
        table.row(vec![
            r.name.clone(),
            format!("{:.4}", r.secs),
            r.iters.to_string(),
        ]);
    }
    println!(
        "\n== perf summary ({} mode) ==",
        if smoke { "smoke" } else { "full" }
    );
    table.print();

    write_json(&out, smoke, threads, detected_cores, &records).expect("write benchmark export");
    println!("\nwrote {out}");

    let mut failed = !warm_ladder_gate(&records);
    if let Some(text) = baseline_text {
        failed |= !check_regressions(&text, &records);
    }
    if failed {
        std::process::exit(1);
    }
}

/// The warm-vs-cold solver gate: `milp_ladder_warm` must beat
/// `milp_ladder_cold` by at least [`WARM_SPEEDUP_MIN`]. Unlike the
/// baseline comparison this needs no baseline file — both sides are
/// measured in the same run — so every smoke run enforces it. Returns
/// `false` on regression to parity.
fn warm_ladder_gate(records: &[Record]) -> bool {
    let secs = |name: &str| records.iter().find(|r| r.name == name).map(|r| r.secs);
    let (Some(cold), Some(warm)) = (secs("milp_ladder_cold"), secs("milp_ladder_warm")) else {
        eprintln!("warning: milp ladder keys missing; warm-vs-cold gate is vacuous");
        return true;
    };
    let ok = warm <= (1.0 - WARM_SPEEDUP_MIN) * cold;
    println!(
        "\n== warm ladder gate (warm must be ≥ {:.0}% faster than cold) ==",
        WARM_SPEEDUP_MIN * 100.0
    );
    println!(
        "cold {cold:.4} s, warm {warm:.4} s ({}x): {}",
        f2(cold / warm),
        if ok { "ok" } else { "FAIL" }
    );
    if !ok {
        eprintln!("FAIL: the warm MILP ladder no longer beats cold by the required margin");
    }
    ok
}

/// Replays the rescaled Azure diurnal trace on a [`FLEET`]-worker fleet.
fn azure_replay(
    runtime: &CascadeRuntime,
    criterion: &mut Criterion,
    id: &str,
    min_qps: f64,
    max_qps: f64,
    secs: u64,
    mode: Mode,
) {
    let mut config = SystemConfig {
        num_workers: FLEET,
        ..Default::default()
    };
    mode.apply(&mut config);
    let trace = synthesize_azure_trace(&AzureTraceConfig {
        min_qps,
        max_qps,
        duration: SimDuration::from_secs(secs),
    })
    .expect("valid azure trace");
    let settings = RunSettings::new(Policy::DiffServe, trace.max_qps());
    criterion.bench_function(id, |b| {
        b.iter(|| run_trace(runtime, &config, &settings, black_box(&trace)))
    });
}

/// The (policy, scenario) jobs of the sweep: the full 5 × 9 matrix, or the
/// CI subset (DiffServe under steady control, the correlated-failure
/// cascade, and the brownout regime — mirroring `scenarios --smoke`).
fn sweep_jobs(system: &SystemConfig, smoke: bool) -> Vec<(RunSettings, Scenario)> {
    let horizon = if smoke { 60 } else { 240 };
    let base = Trace::constant(6.0, SimDuration::from_secs(horizon)).expect("valid base trace");
    let mut scenarios = standard_scenarios(&base, system.num_workers);
    let policies: Vec<Policy> = if smoke {
        scenarios.retain(|s| matches!(s.name(), "steady" | "cascading-failure" | "brownout"));
        vec![Policy::DiffServe]
    } else {
        Policy::all().to_vec()
    };
    let mut jobs = Vec::new();
    for scenario in &scenarios {
        let peak = scenario.effective_trace().max_qps();
        for &policy in &policies {
            jobs.push((RunSettings::new(policy, peak), scenario.clone()));
        }
    }
    jobs
}

/// Times the sweep serially, then fanned across `threads` workers pulling
/// jobs off a shared atomic cursor. Single-shot wall-clock measurements:
/// the sweep is far above timer resolution and iterating it would dominate
/// the suite's runtime.
fn sweep(
    runtime: &CascadeRuntime,
    records: &mut Vec<Record>,
    id: &str,
    smoke: bool,
    threads: usize,
    mode: Mode,
) {
    let mut system = SystemConfig {
        num_workers: 8,
        ..Default::default()
    };
    mode.apply(&mut system);
    let jobs = sweep_jobs(&system, smoke);

    let start = Instant::now();
    for (settings, scenario) in &jobs {
        black_box(run_scenario(runtime, &system, settings, scenario));
    }
    let serial = start.elapsed().as_secs_f64();

    let workers = threads.min(jobs.len()).max(1);
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some((settings, scenario)) = jobs.get(i) else {
                    break;
                };
                black_box(run_scenario(runtime, &system, settings, scenario));
            });
        }
    });
    let parallel = start.elapsed().as_secs_f64();

    println!(
        "{:<55} serial {serial:.3} s, parallel {parallel:.3} s ({workers} threads, {:.2}x)",
        id,
        serial / parallel
    );
    let runs = jobs.len().to_string();
    records.push(Record {
        name: format!("{id}_serial"),
        secs: serial,
        iters: 1,
        extra: vec![("runs", runs.clone())],
    });
    records.push(Record {
        name: format!("{id}_parallel"),
        secs: parallel,
        iters: 1,
        extra: vec![
            ("runs", runs),
            ("threads", workers.to_string()),
            ("speedup", format!("{:.3}", serial / parallel)),
        ],
    });
}

/// Fleet size for the cluster replay: real OS threads, so the paper's
/// 16-worker testbed scale rather than the simulator's 1000.
const CLUSTER_FLEET: usize = 16;

/// Simulated duration of the full cluster replay (wall ≈ duration ×
/// `time_scale` plus runtime overhead).
const CLUSTER_REPLAY_SECS: u64 = 350;

/// Simulated duration of the CI-sized `smoke/cluster_replay` variant.
const CLUSTER_REPLAY_SMOKE_SECS: u64 = 60;

/// Replays a short diurnal curve on the thread-and-channel cluster
/// backend, wall-clock timed. The scaled trace duration is the floor of
/// the measurement by design — regressions in runtime overhead (routing,
/// controller, channel churn, join/drain) surface as growth above it.
fn cluster_replay(
    runtime: &CascadeRuntime,
    records: &mut Vec<Record>,
    id: &str,
    secs: u64,
    mode: Mode,
) {
    let mut system = SystemConfig {
        num_workers: CLUSTER_FLEET,
        ..Default::default()
    };
    mode.apply(&mut system);
    let trace = synthesize_azure_trace(&AzureTraceConfig {
        min_qps: 4.0,
        max_qps: 14.0,
        duration: SimDuration::from_secs(secs),
    })
    .expect("valid azure trace");
    let settings = RunSettings::new(Policy::DiffServe, trace.max_qps());
    let start = Instant::now();
    let report = run_cluster(runtime, &system, &settings, &trace, 0.02);
    let wall = start.elapsed().as_secs_f64();
    let queries: u64 = report.tier_breakdown.iter().map(|s| s.completions).sum();
    println!("{id:<55} wall {wall:.3} s ({queries} completions)");
    records.push(Record {
        name: id.to_string(),
        secs: wall,
        iters: 1,
        extra: vec![
            ("workers", CLUSTER_FLEET.to_string()),
            ("queries", queries.to_string()),
        ],
    });
}

/// Control ticks in the `milp_ladder_*` pair.
const MILP_TICKS: usize = 12;

/// Times [`MILP_TICKS`] solves of the legacy *two-tier* allocator under a
/// drifting demand estimate: once solving the full Eq. 1–5 MILP cold every
/// tick ([`solve_milp_allocation`], the formulation oracle), once
/// threading an [`AllocWarmState`] through the ticks
/// ([`solve_milp_allocation_warm`]) the way
/// the control loop's cascade planner does. Despite the key
/// this is not the N-tier quality ladder — `solve_ladder` is timed by
/// `ladder3_solve_*` ([`bench_ladder3_solve`]). At this 16-worker fleet
/// both return identical allocations. The pair tracks the payoff of the
/// serving path: warm ticks probe and solve the small two-tier batch
/// knapsack from the previous basis instead of the full formulation from
/// scratch, and the `--smoke` gate enforces that warm stays ≥ 15 % faster
/// than cold.
fn milp_ladder(runtime: &CascadeRuntime, criterion: &mut Criterion) {
    let config = SystemConfig::default();
    let thresholds = config.threshold_grid();
    let inputs_at = |demand: f64| AllocatorInputs {
        demand_qps: demand,
        queue_delay_light: 0.2,
        queue_delay_heavy: 0.5,
        slo: config.slo.as_secs_f64(),
        total_workers: config.num_workers,
        deferral: &runtime.deferral,
        light: LatencyProfile::new(0.10, 0.55),
        heavy: LatencyProfile::new(1.78, 0.12),
        resume_heavy: None,
        discriminator_latency: 0.01,
        batch_sizes: &config.batch_sizes,
        thresholds: &thresholds,
    };
    // The EWMA-smoothed demand estimate a controller actually sees: ~0.6%
    // drift per tick, so consecutive optima usually coincide and the
    // carried incumbent is a valid seed on almost every tick.
    let demands: Vec<f64> = (0..MILP_TICKS)
        .map(|i| 20.0 * 1.006f64.powi(i as i32))
        .collect();

    criterion.bench_function("milp_ladder_cold", |b| {
        b.iter(|| {
            for &d in &demands {
                black_box(solve_milp_allocation(&inputs_at(d)));
            }
        })
    });
    criterion.bench_function("milp_ladder_warm", |b| {
        b.iter(|| {
            let mut warm = AllocWarmState::new();
            for &d in &demands {
                black_box(solve_milp_allocation_warm(&inputs_at(d), &mut warm));
            }
        })
    });
}

/// Control ticks per iteration of the `ladder3_solve_*` benchmarks.
const LADDER3_TICKS: usize = 12;

/// Registers `ladder3_solve_cold` and `ladder3_solve_warm`: the N-tier
/// allocator's control tick ([`solve_ladder`] on a 3-tier ladder with the
/// MILP inner solver, predictive direct-admission fractions set and the
/// default raise limit), [`LADDER3_TICKS`] ticks under an EWMA-like ~0.6 %
/// per-tick demand drift. Cold gives every tick a fresh
/// [`LadderWarmState`]; warm threads one through all of them, the way the
/// control loop does.
fn bench_ladder3_solve(runtime: &CascadeRuntime, criterion: &mut Criterion) {
    let config = SystemConfig::default();
    let thresholds = config.threshold_grid();
    let inputs_at = |demand: f64| LadderInputs {
        demand_qps: demand,
        queue_delays: vec![0.2, 0.3, 0.2],
        slo: config.slo.as_secs_f64(),
        total_workers: config.num_workers,
        deferrals: vec![&runtime.deferral; 2],
        tiers: vec![
            LatencyProfile::new(0.10, 0.55),
            LatencyProfile::new(0.85, 0.15),
            LatencyProfile::new(1.78, 0.12),
        ],
        discriminator_latency: vec![0.01; 2],
        batch_sizes: &config.batch_sizes,
        thresholds: &thresholds,
        max_raise_per_solve: LadderConfig::default().max_threshold_raise_per_tick,
        direct_fractions: vec![0.8, 0.15, 0.05],
    };
    let demands: Vec<f64> = (0..LADDER3_TICKS)
        .map(|i| 8.0 * 1.006f64.powi(i as i32))
        .collect();

    criterion.bench_function("ladder3_solve_cold", |b| {
        b.iter(|| {
            for &d in &demands {
                black_box(solve_ladder(
                    &inputs_at(d),
                    true,
                    &mut LadderWarmState::new(),
                ));
            }
        })
    });
    criterion.bench_function("ladder3_solve_warm", |b| {
        b.iter(|| {
            let mut warm = LadderWarmState::new();
            for &d in &demands {
                black_box(solve_ladder(&inputs_at(d), true, &mut warm));
            }
        })
    });
}

/// Writes the line-oriented JSON export. Every benchmark is one line of
/// the `"benchmarks"` object so the baseline reader stays a string scan.
fn write_json(
    path: &str,
    smoke: bool,
    threads: usize,
    detected_cores: usize,
    records: &[Record],
) -> std::io::Result<()> {
    let mut s = String::from("{\n");
    s.push_str("  \"schema\": \"diffserve-perf/v1\",\n");
    s.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if smoke { "smoke" } else { "full" }
    ));
    s.push_str(&format!("  \"threads\": {threads},\n"));
    s.push_str(&format!("  \"detected_cores\": {detected_cores},\n"));
    s.push_str("  \"benchmarks\": {\n");
    for (i, r) in records.iter().enumerate() {
        let mut line = format!(
            "    \"{}\": {{ \"secs\": {:.6}, \"iters\": {}",
            r.name, r.secs, r.iters
        );
        for (k, v) in &r.extra {
            line.push_str(&format!(", \"{k}\": {v}"));
        }
        line.push_str(" }");
        if i + 1 < records.len() {
            line.push(',');
        }
        line.push('\n');
        s.push_str(&line);
    }
    s.push_str("  }\n}\n");
    std::fs::write(path, s)
}

/// Extracts `(name, secs)` pairs from an export written by [`write_json`]:
/// any line whose first token is a quoted name and which carries a
/// `"secs":` field is a benchmark.
fn parse_benchmark_secs(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let t = line.trim();
        let Some(rest) = t.strip_prefix('"') else {
            continue;
        };
        let Some(name_end) = rest.find('"') else {
            continue;
        };
        let name = &rest[..name_end];
        let Some(pos) = t.find("\"secs\":") else {
            continue;
        };
        let num: String = t[pos + "\"secs\":".len()..]
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
            .collect();
        if let Ok(secs) = num.parse::<f64>() {
            out.push((name.to_string(), secs));
        }
    }
    out
}

/// Compares `records` against a baseline export. Benchmarks only present
/// on one side are skipped (smoke runs carry a subset of the full keys).
/// Returns `false` if any shared benchmark exceeds the tolerance.
fn check_regressions(baseline_text: &str, records: &[Record]) -> bool {
    let baseline = parse_benchmark_secs(baseline_text);
    let mut table = Table::new(&["benchmark", "baseline_s", "current_s", "ratio", "verdict"]);
    let mut failed = false;
    let mut compared = 0usize;
    for r in records {
        let Some((_, base)) = baseline.iter().find(|(n, _)| *n == r.name) else {
            continue;
        };
        compared += 1;
        let ratio = r.secs / base;
        let over = ratio > 1.0 + REGRESSION_TOLERANCE;
        failed |= over;
        table.row(vec![
            r.name.clone(),
            format!("{base:.4}"),
            format!("{:.4}", r.secs),
            f2(ratio),
            if over { "REGRESSED" } else { "ok" }.to_string(),
        ]);
    }
    println!(
        "\n== regression gate (tolerance {:.0}%) ==",
        REGRESSION_TOLERANCE * 100.0
    );
    table.print();
    if compared == 0 {
        eprintln!("warning: no benchmarks shared with the baseline; gate is vacuous");
    }
    if failed {
        eprintln!("FAIL: at least one benchmark regressed beyond the tolerance");
    }
    !failed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &str, secs: f64) -> Record {
        Record {
            name: name.to_string(),
            secs,
            iters: 1,
            extra: Vec::new(),
        }
    }

    #[test]
    fn parser_reads_benchmarks_and_tolerates_unknown_keys() {
        // A baseline written by a *future* perf with extra top-level keys,
        // unknown per-benchmark fields, and benchmark names this binary
        // has never heard of must still parse cleanly.
        let text = r#"{
  "schema": "diffserve-perf/v2",
  "mode": "full",
  "threads": 8,
  "frobnication_level": 11,
  "benchmarks": {
    "milp_ladder_cold": { "secs": 1.500000, "iters": 3, "ticks": 12 },
    "some_future_key": { "secs": 0.250000, "iters": 1, "novel_field": "x" },
    "metadata_only_entry": { "iters": 4 }
  }
}
"#;
        let parsed = parse_benchmark_secs(text);
        assert_eq!(
            parsed,
            vec![
                ("milp_ladder_cold".to_string(), 1.5),
                ("some_future_key".to_string(), 0.25),
            ]
        );
    }

    #[test]
    fn regression_gate_skips_keys_present_on_only_one_side() {
        let baseline = r#"
    "shared": { "secs": 1.000000, "iters": 1 },
    "baseline_only_key": { "secs": 0.100000, "iters": 1 }
"#;
        // `current_only_key` is new; `baseline_only_key` was removed. Both
        // must be ignored, and the shared key is within tolerance.
        let records = vec![record("shared", 1.1), record("current_only_key", 99.0)];
        assert!(check_regressions(baseline, &records));
    }

    #[test]
    fn regression_gate_fails_past_tolerance() {
        let baseline = r#""shared": { "secs": 1.000000, "iters": 1 }"#;
        let records = vec![record("shared", 1.0 + REGRESSION_TOLERANCE + 0.05)];
        assert!(!check_regressions(baseline, &records));
    }

    #[test]
    fn warm_gate_requires_the_margin() {
        let ok = vec![
            record("milp_ladder_cold", 1.0),
            record("milp_ladder_warm", 1.0 - WARM_SPEEDUP_MIN - 0.01),
        ];
        assert!(warm_ladder_gate(&ok));
        let parity = vec![
            record("milp_ladder_cold", 1.0),
            record("milp_ladder_warm", 1.0 - WARM_SPEEDUP_MIN + 0.01),
        ];
        assert!(!warm_ladder_gate(&parity));
        // Missing keys (a hypothetical reduced run) make the gate vacuous
        // rather than failing the export.
        assert!(warm_ladder_gate(&[record("milp_ladder_cold", 1.0)]));
    }
}
