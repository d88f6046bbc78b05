//! Performance baseline for the serving engine.
//!
//! One run times every serving mode on the same workloads and exports the
//! results to `BENCH_sim.json`, so every future change has a trajectory to
//! beat:
//!
//! 1. **Azure replay at fleet scale** — the diurnal `trace::azure` curve
//!    replayed on a 1000-worker fleet through the arena-flattened
//!    simulator (per-tier sorted load index, reused batch buffers). Two
//!    sizes: the historical `azure_replay_1000w` (~95 K queries) and the
//!    multi-million-query `azure_replay_1000w_2m` (~2 M queries over two
//!    simulated diurnal hours).
//! 2. **Policy × scenario sweep** — the 5-policy × 9-scenario matrix, run
//!    once serially and once fanned across every detected core by a
//!    work-stealing `std::thread::scope` runner. The export records both
//!    wall times and the resulting speedup (≈1.0 on a single-core host by
//!    construction).
//! 3. **Solver ticks** — control ticks under drifting demand, solved cold
//!    every tick vs. carrying the warm state tick to tick:
//!    `ladder3_solve_cold/warm` is the N-tier quality-ladder allocator
//!    (`solve_ladder`, 3 tiers, enumerating batch tuples as the control
//!    loop does).
//! 4. **Cluster replay** — the same diurnal curve replayed on the
//!    thread-and-channel testbed backend (`run_cluster`) at paper-testbed
//!    fleet scale, wall-clock timed, so the cluster runtime's overhead has
//!    a tracked trajectory too (`cluster_replay`).
//!
//! Every run times the solver ticks once and the CI-sized `smoke/`
//! variants of the serving workloads (1–2 and 4) under each [`Mode`]: the
//! restart cascade (unprefixed keys), stage-level resume (`resume/`),
//! add-on serving (`addons/`) and the 3-tier ladder (`ladder/`). A full run
//! adds the full-size restart-cascade keys, so a committed full baseline
//! carries every key a smoke run compares.
//!
//! Usage:
//!
//! ```text
//! perf [--smoke] [--out PATH] [--baseline PATH]
//! ```
//!
//! * `--smoke` — the smoke keys only (still 1000 workers, shorter traces,
//!   reduced sweep).
//! * `--out PATH` — where to write the JSON (default `BENCH_sim.json`).
//! * `--baseline PATH` — compare against a previous export and exit
//!   nonzero if any benchmark present in both regressed by more than
//!   [`REGRESSION_TOLERANCE`].
//!
//! The JSON is hand-rolled (the workspace has no serde) and deliberately
//! line-oriented — one benchmark per line — so [`parse_benchmark_secs`]
//! can read a baseline back with plain string scanning.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use diffserve_bench::{f2, CascadeId, Scale, Table, EXPERIMENT_SEED};
use diffserve_cluster::run_cluster;
use diffserve_core::{
    run_scenario, run_trace, solve_ladder, AddonsConfig, CascadeRuntime, LadderConfig,
    LadderInputs, LadderWarmState, Policy, RunSettings, SystemConfig,
};
use diffserve_imagegen::{ladder3, FeatureSpec, LatencyProfile};
use diffserve_simkit::time::SimDuration;
use diffserve_trace::{
    standard_scenarios, synthesize_azure_trace, AzureTraceConfig, Scenario, Trace,
};

/// A benchmark slower than `baseline × (1 + tolerance)` fails the gate.
const REGRESSION_TOLERANCE: f64 = 0.20;

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

/// The time a timed benchmark fills after its probe iteration.
const TARGET_TIME: Duration = Duration::from_millis(300);
/// The most iterations a timed benchmark runs.
const MAX_ITERS: u64 = 10_000;

/// Which serving-feature variant the serving workloads run under. Each
/// mode namespaces its benchmark keys so no mode gates against another's
/// baseline.
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
    let Args {
        smoke,
        out,
        baseline,
    } = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    });

    // Read the baseline up front: CI overwrites the checked-in file with
    // its own export (`--out BENCH_sim.json --baseline BENCH_sim.json`),
    // so the comparison must capture the committed contents first.
    let baseline_text = baseline.as_ref().map(|path| {
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"))
    });

    let runtime = Scale::Smoke.runtime(CascadeId::One);
    let ladder_runtime = Scale::Smoke.ladder_runtime(ladder3(FeatureSpec::default()));
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut records = Vec::new();

    bench_ladder3_solve(&runtime, &mut records);
    for (mode, smoke) in workload_runs(smoke) {
        let runtime = match mode {
            Mode::Ladder => &ladder_runtime,
            _ => &runtime,
        };
        serving_workloads(runtime, &mut records, mode, smoke, threads);
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

    write_json(&out, smoke, threads, &records).expect("write benchmark export");
    println!("\nwrote {out}");

    if let Some(text) = baseline_text {
        if !check_regressions(&text, &records) {
            std::process::exit(1);
        }
    }
}

/// The command line: `--smoke`, `--out PATH` and `--baseline PATH`.
#[derive(Debug, PartialEq)]
struct Args {
    smoke: bool,
    out: String,
    baseline: Option<String>,
}

/// Parses the arguments after the program name. Any other argument, or a
/// flag missing its value, is an error.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        smoke: false,
        out: String::from("BENCH_sim.json"),
        baseline: None,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = args.next().ok_or("--out needs a path")?,
            "--baseline" => parsed.baseline = Some(args.next().ok_or("--baseline needs a path")?),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(parsed)
}

/// Prints the usage line and exits 2.
fn usage() -> ! {
    eprintln!("usage: perf [--smoke] [--out PATH] [--baseline PATH]");
    std::process::exit(2)
}

/// How many iterations fill [`TARGET_TIME`] when one takes `probe`
/// (floored at 1 ns), clamped to `[1, MAX_ITERS]`.
fn iterations_for(probe: Duration) -> u64 {
    let per_iter = probe.max(Duration::from_nanos(1)).as_nanos();
    (TARGET_TIME.as_nanos() / per_iter).clamp(1, MAX_ITERS.into()) as u64
}

/// Times `routine`: one probe iteration, then as many iterations as
/// [`iterations_for`] gives for the probe's time, and records their mean
/// wall time per iteration.
fn bench<O>(
    records: &mut Vec<Record>,
    name: &str,
    extra: Vec<(&'static str, String)>,
    mut routine: impl FnMut() -> O,
) {
    let start = Instant::now();
    black_box(routine());
    let iters = iterations_for(start.elapsed());
    let start = Instant::now();
    for _ in 0..iters {
        black_box(routine());
    }
    let secs = start.elapsed().as_secs_f64() / iters as f64;
    println!("{name:<55} {:>12.3} us/iter ({iters} iters)", secs * 1e6);
    records.push(Record {
        name: name.to_string(),
        secs,
        iters,
        extra,
    });
}

/// The serving workloads a run times, as `(mode, smoke)` pairs: the smoke
/// variants under every mode, then, in a full run, the full-size restart
/// cascade.
fn workload_runs(smoke: bool) -> Vec<(Mode, bool)> {
    let mut runs: Vec<(Mode, bool)> = Mode::all().into_iter().map(|m| (m, true)).collect();
    if !smoke {
        runs.push((Mode::Restart, false));
    }
    runs
}

/// The benchmark ids of the serving workloads under `mode` at one size,
/// in order: the two Azure replays, the sweep (recorded as `{id}_serial`
/// and `{id}_parallel`) and the cluster replay.
fn workload_ids(mode: Mode, smoke: bool) -> [String; 4] {
    let (size, sweep) = if smoke {
        ("smoke/", "sweep")
    } else {
        ("", "sweep_5x9")
    };
    let prefix = format!("{}{size}", mode.prefix());
    [
        "azure_replay_1000w",
        "azure_replay_1000w_2m",
        sweep,
        "cluster_replay",
    ]
    .map(|workload| format!("{prefix}{workload}"))
}

/// Times the serving workloads under `mode`: the `smoke/` variants, or
/// the full-size ones (keys without `smoke/`).
fn serving_workloads(
    runtime: &CascadeRuntime,
    records: &mut Vec<Record>,
    mode: Mode,
    smoke: bool,
    threads: usize,
) {
    let ((min_qps, max_qps, secs), replay_2m_secs, cluster_secs) = if smoke {
        (
            (30.0, 120.0, 60),
            REPLAY_2M_SMOKE_SECS,
            CLUSTER_REPLAY_SMOKE_SECS,
        )
    } else {
        ((60.0, 480.0, 350), REPLAY_2M_SECS, CLUSTER_REPLAY_SECS)
    };
    let [azure, azure_2m, sweep_id, cluster] = workload_ids(mode, smoke);
    azure_replay(runtime, records, &azure, min_qps, max_qps, secs, mode);
    azure_replay(
        runtime,
        records,
        &azure_2m,
        REPLAY_2M_MIN_QPS,
        REPLAY_2M_MAX_QPS,
        replay_2m_secs,
        mode,
    );
    sweep(runtime, records, &sweep_id, smoke, threads, mode);
    cluster_replay(runtime, records, &cluster, cluster_secs, mode);
}

/// Replays the rescaled Azure diurnal trace on a [`FLEET`]-worker fleet.
fn azure_replay(
    runtime: &CascadeRuntime,
    records: &mut Vec<Record>,
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
    bench(records, id, vec![("workers", FLEET.to_string())], || {
        run_trace(runtime, &config, &settings, black_box(&trace))
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

/// Control ticks per iteration of the `ladder3_solve_*` benchmarks.
const LADDER3_TICKS: usize = 12;

/// Times `ladder3_solve_cold` and `ladder3_solve_warm`: the N-tier
/// allocator's control tick as the control loop runs it ([`solve_ladder`]
/// on a 3-tier ladder enumerating batch tuples, predictive
/// direct-admission fractions set and the default raise limit), [`LADDER3_TICKS`] ticks under an EWMA-like ~0.6 %
/// per-tick demand drift. Cold gives every tick a fresh
/// [`LadderWarmState`]; warm threads one through all of them, the way the
/// control loop does.
fn bench_ladder3_solve(runtime: &CascadeRuntime, records: &mut Vec<Record>) {
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

    let ticks = || vec![("ticks", LADDER3_TICKS.to_string())];
    bench(records, "ladder3_solve_cold", ticks(), || {
        for &d in &demands {
            black_box(solve_ladder(
                &inputs_at(d),
                false,
                &mut LadderWarmState::new(),
            ));
        }
    });
    bench(records, "ladder3_solve_warm", ticks(), || {
        let mut warm = LadderWarmState::new();
        for &d in &demands {
            black_box(solve_ladder(&inputs_at(d), false, &mut warm));
        }
    });
}

/// Writes the line-oriented JSON export. Every benchmark is one line of
/// the `"benchmarks"` object so the baseline reader stays a string scan.
fn write_json(path: &str, smoke: bool, threads: usize, records: &[Record]) -> std::io::Result<()> {
    let mut s = String::from("{\n");
    s.push_str("  \"schema\": \"diffserve-perf/v1\",\n");
    s.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if smoke { "smoke" } else { "full" }
    ));
    s.push_str(&format!("  \"threads\": {threads},\n"));
    // The sweep fans out over every detected core, so the two agree.
    s.push_str(&format!("  \"detected_cores\": {threads},\n"));
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

    fn args(words: &[&str]) -> Result<Args, String> {
        parse_args(words.iter().map(|w| w.to_string()))
    }

    /// Every key a run records, in [`workload_runs`] order.
    fn run_keys(smoke: bool) -> Vec<String> {
        let mut keys = vec![
            "ladder3_solve_cold".to_string(),
            "ladder3_solve_warm".to_string(),
        ];
        for (mode, smoke) in workload_runs(smoke) {
            let [azure, azure_2m, sweep, cluster] = workload_ids(mode, smoke);
            keys.extend([
                azure,
                azure_2m,
                format!("{sweep}_serial"),
                format!("{sweep}_parallel"),
                cluster,
            ]);
        }
        keys
    }

    #[test]
    fn no_arguments_run_the_full_suite_into_the_committed_file() {
        assert_eq!(
            args(&[]),
            Ok(Args {
                smoke: false,
                out: "BENCH_sim.json".to_string(),
                baseline: None,
            })
        );
    }

    #[test]
    fn the_three_flags_parse_in_any_order() {
        let expected = Ok(Args {
            smoke: true,
            out: "a.json".to_string(),
            baseline: Some("b.json".to_string()),
        });
        assert_eq!(
            args(&["--smoke", "--out", "a.json", "--baseline", "b.json"]),
            expected
        );
        assert_eq!(
            args(&["--baseline", "b.json", "--smoke", "--out", "a.json"]),
            expected
        );
    }

    #[test]
    fn a_flag_without_its_path_is_an_error() {
        assert!(args(&["--out"]).is_err());
        assert!(args(&["--smoke", "--baseline"]).is_err());
    }

    #[test]
    fn the_removed_mode_and_thread_flags_are_unknown() {
        for flag in ["--resume", "--addons", "--ladder", "--threads", "-j"] {
            assert_eq!(
                args(&["--smoke", flag]),
                Err(format!("unknown argument: {flag}"))
            );
        }
    }

    #[test]
    fn modes_namespace_their_keys_apart() {
        let prefixes: Vec<&str> = Mode::all().iter().map(|m| m.prefix()).collect();
        assert_eq!(prefixes, ["", "resume/", "addons/", "ladder/"]);
    }

    #[test]
    fn each_mode_switches_on_only_its_own_feature() {
        for mode in Mode::all() {
            let mut config = SystemConfig::default();
            mode.apply(&mut config);
            assert_eq!(config.resume_from_latents, mode == Mode::Resume, "{mode:?}");
            assert_eq!(config.addons.is_some(), mode == Mode::Addons, "{mode:?}");
            assert_eq!(config.ladder.is_some(), mode == Mode::Ladder, "{mode:?}");
        }
    }

    #[test]
    fn the_smoke_sweep_is_diffserve_on_three_scenarios() {
        let system = SystemConfig {
            num_workers: 8,
            ..Default::default()
        };
        let jobs = sweep_jobs(&system, true);
        let mut names: Vec<&str> = jobs.iter().map(|(_, s)| s.name()).collect();
        names.sort_unstable();
        assert_eq!(names, ["brownout", "cascading-failure", "steady"]);
        assert!(jobs.iter().all(|(s, _)| s.policy == Policy::DiffServe));
    }

    #[test]
    fn the_full_sweep_is_every_policy_on_every_scenario() {
        let system = SystemConfig {
            num_workers: 8,
            ..Default::default()
        };
        let jobs = sweep_jobs(&system, false);
        assert_eq!(jobs.len(), 45);
        for policy in Policy::all() {
            assert_eq!(jobs.iter().filter(|(s, _)| s.policy == policy).count(), 9);
        }
    }

    #[test]
    fn a_smoke_run_records_the_solver_and_every_modes_smoke_keys() {
        let keys = run_keys(true);
        assert_eq!(keys.len(), 22);
        let mut unique = keys.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), 22, "{keys:?}");
        for key in &keys[2..] {
            assert!(key.contains("smoke/"), "{key}");
        }
        assert!(keys.contains(&"ladder/smoke/sweep_parallel".to_string()));
        assert!(keys.contains(&"smoke/azure_replay_1000w".to_string()));
    }

    #[test]
    fn a_full_run_adds_the_five_full_size_restart_keys() {
        let smoke = run_keys(true);
        let full = run_keys(false);
        assert_eq!(full[..22], smoke[..]);
        assert_eq!(
            full[22..],
            [
                "azure_replay_1000w",
                "azure_replay_1000w_2m",
                "sweep_5x9_serial",
                "sweep_5x9_parallel",
                "cluster_replay",
            ]
        );
    }

    #[test]
    fn the_committed_baseline_holds_exactly_a_full_runs_keys() {
        let committed = include_str!("../../../../BENCH_sim.json");
        let mut names: Vec<String> = parse_benchmark_secs(committed)
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        let mut full = run_keys(false);
        names.sort();
        full.sort();
        assert_eq!(names, full);
    }

    #[test]
    fn an_export_reads_back_through_the_parser() {
        let records = vec![
            Record {
                name: "ladder3_solve_warm".to_string(),
                secs: 0.000_092,
                iters: 4307,
                extra: vec![("ticks", "12".to_string())],
            },
            record("smoke/cluster_replay", 1.613_666),
        ];
        let path = std::env::temp_dir().join(format!("perf-export-{}.json", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path");
        write_json(path, true, 2, &records).expect("write export");
        let text = std::fs::read_to_string(path).expect("read export");
        std::fs::remove_file(path).expect("remove export");

        assert!(text.contains("\"schema\": \"diffserve-perf/v1\""));
        assert!(text.contains("\"mode\": \"smoke\""));
        assert!(text.contains("\"ticks\": 12 },\n"));
        // The last benchmark line carries no trailing comma.
        assert!(text.contains("\"iters\": 1 }\n  }\n}\n"));
        assert_eq!(
            parse_benchmark_secs(&text),
            vec![
                ("ladder3_solve_warm".to_string(), 0.000_092),
                ("smoke/cluster_replay".to_string(), 1.613_666),
            ]
        );
    }

    #[test]
    fn regression_gate_passes_at_exactly_the_tolerance() {
        let baseline = r#""shared": { "secs": 1.000000, "iters": 1 }"#;
        let records = vec![record("shared", 1.0 + REGRESSION_TOLERANCE)];
        assert!(check_regressions(baseline, &records));
    }

    #[test]
    fn iterations_fill_the_target_time() {
        // 300 ms of 1 ms iterations, and a remainder rounds down.
        assert_eq!(iterations_for(Duration::from_millis(1)), 300);
        assert_eq!(iterations_for(Duration::from_micros(70)), 4285);
        assert_eq!(iterations_for(TARGET_TIME), 1);
    }

    #[test]
    fn iterations_clamp_to_one_and_to_the_cap() {
        // A probe slower than the target still runs once.
        assert_eq!(iterations_for(TARGET_TIME * 4), 1);
        // Fast probes stop at the cap: 30 µs exactly fills it, 29 µs
        // would overfill it.
        assert_eq!(iterations_for(Duration::from_micros(30)), MAX_ITERS);
        assert_eq!(iterations_for(Duration::from_micros(29)), MAX_ITERS);
        assert_eq!(iterations_for(Duration::from_micros(31)), 9677);
    }

    #[test]
    fn a_zero_probe_counts_as_one_nanosecond() {
        // The 1 ns floor keeps the division defined; the cap then applies.
        assert_eq!(iterations_for(Duration::ZERO), MAX_ITERS);
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
}
