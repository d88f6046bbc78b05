//! Peak memory must grow neither with a replay's length nor with the
//! testbed's worker count, and the work a session does is counted exactly.
//!
//! The simulator keeps one pending arrival per trace replay and retires a
//! query's record at its terminal state, so what a run holds is what is in
//! flight plus per-window report cells — not the queries it has served. The
//! check is end to end, on the process's own high-water mark: a 1000-worker
//! diurnal Azure replay at two sizes (≈ 83 K queries over 350 s and
//! ≈ 1.75 M over 7200 s), each in a child process of its own (this test
//! binary re-executed, so one run's peak cannot hide in the other's), and
//! the larger must peak within 1.5× of the smaller. Measured: 4.7 MB and
//! 5.8 MB. Before the streaming replay: 18.9 MB and 302.8 MB (364 MB with
//! both sizes run in one process).
//!
//! Every testbed worker thread builds its kernel over a clone of the
//! session's `CascadeRuntime`, a reference-counted handle, so the fleet
//! shares one copy of the prepared artifacts. The check launches a testbed
//! session at 4 and at 64 workers on the same 1 500-prompt runtime, each in
//! a child process, and the 64-worker peak must stay within 6 MB of the
//! 4-worker one. Measured: 4.8 MB and 5.4 MB. When each worker deep-copied
//! the runtime (≈ 0.43 MB a copy): 6.1 MB and 33.8 MB.
//!
//! The work-count golden ([`GOLDEN`]) pins, for four sessions, the number
//! of allocations a counting global allocator sees over a fixed span of
//! each, what the span covered, and the report's query and per-tier
//! counts. The simulator is deterministic and so is what it allocates, so
//! every figure is pinned exactly and a change that makes the hot path do
//! more work (a table rebuilt per probe, a buffer no longer reused, a row
//! copied into a fresh `Vec`) moves a count. Each session runs in a child
//! process:
//!
//! - `replay`: 1000 workers on a 60–500 qps Azure trace, polled every 2
//!   simulated seconds; the span runs from the first poll to the last and
//!   covers the outcomes polled after the first. A query's completion
//!   allocates nothing (its feature row travels inline from the render
//!   table to the report's moment cells, and the stage latencies it is
//!   charged are a session table), so the row must also stay under 0.1
//!   allocations per polled outcome. Measured over ≈ 125 K outcomes: 0.047
//!   (0.043 while the two-tier enumerator re-derived its stage numbers
//!   instead of tabling them per tick; 0.073 before control ticks stopped
//!   allocating; 1.073 when each completion copied its row into a `Vec`).
//! - `ladder`, `two_tier` and `two_tier_worker_failure`: a session driven
//!   as the repo benchmark drives it, to 1 µs before each control tick and
//!   then to the tick; the span is the second call of every tick after the
//!   first. The ladder planner keeps its stage table and its odometer's
//!   buffers from tick to tick, and the tick's observation reuses its
//!   vectors, so each row must also stay at or under 32 allocations per
//!   tick. The rows are the benchmark's `ladder_control` configuration (a
//!   3-tier ladder at 16 workers with resume, add-ons and online profile
//!   refresh), a two-tier cascade at 8 workers, and that cascade again
//!   under `standard_scenarios`' `worker-failure` scenario, so churn's
//!   re-planning is counted too. Measured: 13.5, 7.1 and 7.1 per tick
//!   (12.8 and 6.1 on the first two when the MILP served them with its
//!   knapsack, tableaus and scratch kept; 233.7 and 142.7 when every probe
//!   rebuilt its knapsack and every solve its tableaus). A ladder stage
//!   table rebuilt every tick instead of refilled costs 2 allocations a
//!   tick (15.5, inside the bound); only the golden catches that.
//!
//! A change that moves a count on purpose re-pins it: the failing test
//! prints the recomputed table, ready to paste over [`GOLDEN`], and the
//! change says why the counts moved. Debug builds cross-check the render
//! table and re-plan every tick through the MILP oracle, which allocates,
//! so the golden is checked in release builds only.
//!
//! Linux only (`VmHWM` from `/proc/self/status`), release only in practice
//! (≈ 1.5 s there on a 2-core host), so the tests are `#[ignore]`d:
//!
//! ```sh
//! cargo test --release --test replay_memory -- --ignored --nocapture
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use diffserve::prelude::*;

/// The system allocator, counting every allocation and reallocation.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Set in the replay child: the trace's `min_qps,max_qps,seconds`.
const REPLAY_CHILD_ENV: &str = "DIFFSERVE_REPLAY_MEMORY_CHILD";

/// Set in the allocation child: the [`GOLDEN`] row to run.
const ALLOCATION_CHILD_ENV: &str = "DIFFSERVE_ALLOCATION_CHILD";

/// Set in the testbed child: the fleet's worker count.
const TESTBED_CHILD_ENV: &str = "DIFFSERVE_TESTBED_MEMORY_CHILD";

/// What a memory child prints its query count after.
const QUERIES_TAG: &str = "replay_memory_queries=";

/// What a memory child prints its peak resident set size after, in kB.
const PEAK_TAG: &str = "replay_memory_peak_kb=";

/// What the allocation child prints its row's counts after: every
/// [`WorkCounts`] number in field order, each tier's pair last.
const COUNTS_TAG: &str = "replay_memory_counts=";

/// The work one session did, counted exactly.
#[derive(Debug, PartialEq, Eq)]
struct WorkCounts<'a> {
    /// Which session ran.
    row: &'a str,
    /// Allocations and reallocations over the counted span.
    allocations: u64,
    /// What the span covered: polled outcomes on `replay`, control ticks
    /// on the tick rows.
    units: u64,
    total_queries: u64,
    completed: u64,
    dropped: u64,
    late: u64,
    resumed_queries: u64,
    /// Each tier's `[completions, escalated_past]`, cheapest first.
    tiers: &'a [[u64; 2]],
}

/// What each session did at the current commit, in the order the test
/// runs them.
const GOLDEN: &[WorkCounts<'static>] = &[
    WorkCounts {
        row: "replay",
        allocations: 5892,
        units: 125417,
        total_queries: 125421,
        completed: 125267,
        dropped: 154,
        late: 0,
        resumed_queries: 0,
        tiers: &[[19622, 105645], [105645, 0]],
    },
    WorkCounts {
        row: "ladder",
        allocations: 2148,
        units: 159,
        total_queries: 2397,
        completed: 2298,
        dropped: 99,
        late: 6,
        resumed_queries: 377,
        tiers: &[[30, 2268], [1365, 903], [903, 0]],
    },
    WorkCounts {
        row: "two_tier",
        allocations: 1124,
        units: 159,
        total_queries: 1193,
        completed: 1145,
        dropped: 48,
        late: 0,
        resumed_queries: 0,
        tiers: &[[330, 815], [815, 0]],
    },
    WorkCounts {
        row: "two_tier_worker_failure",
        allocations: 1128,
        units: 159,
        total_queries: 1193,
        completed: 1149,
        dropped: 44,
        late: 0,
        resumed_queries: 0,
        tiers: &[[456, 693], [693, 0]],
    },
];

impl<'a> WorkCounts<'a> {
    /// The row the allocation child printed as `numbers`.
    fn from_numbers(row: &'a str, numbers: &'a [u64]) -> Self {
        let (tiers, rest) = numbers[7..].as_chunks::<2>();
        assert!(rest.is_empty(), "{row}: unpaired tier counts {numbers:?}");
        WorkCounts {
            row,
            allocations: numbers[0],
            units: numbers[1],
            total_queries: numbers[2],
            completed: numbers[3],
            dropped: numbers[4],
            late: numbers[5],
            resumed_queries: numbers[6],
            tiers,
        }
    }
}

/// Formats the row as it stands in [`GOLDEN`].
impl fmt::Display for WorkCounts<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tiers: Vec<String> = self
            .tiers
            .iter()
            .map(|[c, e]| format!("[{c}, {e}]"))
            .collect();
        writeln!(f, "    WorkCounts {{")?;
        writeln!(f, "        row: {:?},", self.row)?;
        for (name, value) in [
            ("allocations", self.allocations),
            ("units", self.units),
            ("total_queries", self.total_queries),
            ("completed", self.completed),
            ("dropped", self.dropped),
            ("late", self.late),
            ("resumed_queries", self.resumed_queries),
        ] {
            writeln!(f, "        {name}: {value},")?;
        }
        writeln!(f, "        tiers: &[{}],", tiers.join(", "))?;
        writeln!(f, "    }},")
    }
}

/// This process's peak resident set size in kB, where the OS reports one.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The runtime both kinds of child serve from.
fn child_runtime() -> CascadeRuntime {
    CascadeRuntime::prepare(
        cascade1(FeatureSpec::default()),
        1500,
        20250509,
        DiscriminatorConfig {
            train_prompts: 500,
            epochs: 10,
            ..Default::default()
        },
    )
}

/// The replay child's half: one replay at the size the environment names,
/// then its query count and the process's peak. A plain `--ignored` run has
/// no size set and returns at once.
#[test]
#[ignore = "child process of replay_peak_memory_is_independent_of_its_length"]
fn replay_child() {
    let Ok(size) = std::env::var(REPLAY_CHILD_ENV) else {
        return;
    };
    let size: Vec<f64> = size.split(',').map(|v| v.parse().unwrap()).collect();
    let runtime = child_runtime();
    let config = SystemConfig {
        num_workers: 1000,
        ..Default::default()
    };
    let trace = synthesize_azure_trace(&AzureTraceConfig {
        min_qps: size[0],
        max_qps: size[1],
        duration: SimDuration::from_secs(size[2] as u64),
    })
    .unwrap();
    let settings = RunSettings::new(Policy::DiffServe, trace.max_qps());
    let report = run_trace(&runtime, &config, &settings, &trace);
    assert_eq!(report.completed + report.dropped, report.total_queries);
    println!("{QUERIES_TAG}{}", report.total_queries);
    println!("{PEAK_TAG}{}", peak_rss_kb().expect("a Linux child"));
}

/// The testbed child's half: one session at the worker count the
/// environment names, 5 s of constant demand at 100× time compression,
/// then its query count and the process's peak.
#[test]
#[ignore = "child process of testbed_peak_memory_is_independent_of_its_worker_count"]
fn testbed_child() {
    let Ok(workers) = std::env::var(TESTBED_CHILD_ENV) else {
        return;
    };
    let runtime = child_runtime();
    let config = SystemConfig {
        num_workers: workers.parse().unwrap(),
        ..Default::default()
    };
    let trace = Trace::constant(8.0, SimDuration::from_secs(5)).unwrap();
    let mut session = ServingSession::builder()
        .runtime(&runtime)
        .config(config.clone())
        .settings(RunSettings::new(Policy::DiffServe, 8.0))
        .build_cluster(0.01)
        .expect("valid session");
    session.replay_trace(&trace);
    session.run_until(SimTime::ZERO + trace.duration() + config.slo * 4);
    let report = session.finish();
    assert_eq!(report.completed + report.dropped, report.total_queries);
    println!("{QUERIES_TAG}{}", report.total_queries);
    println!("{PEAK_TAG}{}", peak_rss_kb().expect("a Linux child"));
}

/// The allocation child's half: the [`GOLDEN`] row the environment names,
/// then its counts.
#[test]
#[ignore = "child process of work_counts_match_the_golden"]
fn allocation_child() {
    let Ok(row) = std::env::var(ALLOCATION_CHILD_ENV) else {
        return;
    };
    let two_tier_trace = || {
        synthesize_azure_trace(&AzureTraceConfig {
            min_qps: 1.0,
            max_qps: 8.0,
            duration: SimDuration::from_secs(300),
        })
        .unwrap()
    };
    let two_tier = SystemConfig {
        num_workers: 8,
        ..Default::default()
    };
    let (runtime, config, trace, scenario) = match row.as_str() {
        "replay" => (
            child_runtime(),
            SystemConfig {
                num_workers: 1000,
                ..Default::default()
            },
            synthesize_azure_trace(&AzureTraceConfig {
                min_qps: 60.0,
                max_qps: 500.0,
                duration: SimDuration::from_secs(500),
            })
            .unwrap(),
            None,
        ),
        "ladder" => (
            CascadeRuntime::prepare_ladder(
                ladder3(FeatureSpec::default()),
                1500,
                20250509,
                DiscriminatorConfig::default(),
            ),
            SystemConfig {
                num_workers: 16,
                ladder: Some(LadderConfig::default()),
                resume_from_latents: true,
                addons: Some(AddonsConfig::demo(7)),
                online_profile_refresh: true,
                ..Default::default()
            },
            synthesize_azure_trace(&AzureTraceConfig {
                min_qps: 2.0,
                max_qps: 16.0,
                duration: SimDuration::from_secs(300),
            })
            .unwrap(),
            None,
        ),
        "two_tier" => (child_runtime(), two_tier, two_tier_trace(), None),
        "two_tier_worker_failure" => {
            let scenario = standard_scenarios(&two_tier_trace(), two_tier.num_workers)
                .into_iter()
                .find(|s| s.name() == "worker-failure")
                .expect("a standard scenario");
            let trace = scenario.effective_trace();
            (child_runtime(), two_tier, trace, Some(scenario))
        }
        other => panic!("unknown row {other}"),
    };
    let mut builder = ServingSession::builder()
        .runtime(&runtime)
        .config(config.clone())
        .settings(RunSettings::new(Policy::DiffServe, trace.max_qps()));
    if let Some(scenario) = scenario {
        builder = builder.scenario(scenario);
    }
    let mut session = builder.build().expect("valid session");
    session.replay_trace(&trace);
    let horizon = SimTime::ZERO + trace.duration() + config.slo * 4;
    let (units, allocations) = if row == "replay" {
        poll_every_two_seconds(&mut session, horizon)
    } else {
        drive_ticks(&mut session, config.control_interval, horizon)
    };
    let report = session.finish();
    assert_eq!(report.completed + report.dropped, report.total_queries);
    let mut counts = vec![
        allocations,
        units,
        report.total_queries,
        report.completed,
        report.dropped,
        report.late,
        report.resumed_queries,
    ];
    for tier in &report.tier_breakdown {
        counts.extend([tier.completions, tier.escalated_past]);
    }
    let counts: Vec<String> = counts.iter().map(u64::to_string).collect();
    println!("{COUNTS_TAG}{}", counts.join(" "));
}

/// Runs `session` to `horizon`, polling every 2 simulated seconds; returns
/// the outcomes polled after the first poll and the allocations made
/// between the first poll and the last.
fn poll_every_two_seconds(session: &mut ServingSession<'_>, horizon: SimTime) -> (u64, u64) {
    let (mut at, mut outcomes, mut first, mut last) = (SimTime::ZERO, 0, None, 0);
    while at < horizon {
        at += SimDuration::from_secs(2);
        session.run_until(at);
        let polled = session.poll().len() as u64;
        last = ALLOCATIONS.load(Ordering::Relaxed);
        match first {
            None => first = Some(last),
            Some(_) => outcomes += polled,
        }
    }
    (outcomes, last - first.expect("at least one poll"))
}

/// Runs `session` to `horizon`, to 1 µs before each control tick and then
/// to the tick; returns the ticks after the first and the allocations
/// their calls made.
fn drive_ticks(
    session: &mut ServingSession<'_>,
    interval: SimDuration,
    horizon: SimTime,
) -> (u64, u64) {
    let interval = interval.as_micros();
    let (mut ticks, mut allocations) = (0u64, 0u64);
    for k in 1..=horizon.as_micros() / interval {
        let tick_at = k * interval;
        session.run_until(SimTime::from_micros(tick_at - 1));
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        session.run_until(SimTime::from_micros(tick_at));
        // The first tick sizes what every later one reuses.
        if k > 1 {
            ticks += 1;
            allocations += ALLOCATIONS.load(Ordering::Relaxed) - before;
        }
        session.poll();
    }
    session.run_until(horizon);
    (ticks, allocations)
}

/// Re-executes this binary to run the `child` test alone in a process of
/// its own, with `env` set to `value`; returns what it printed.
fn run_in_child(child: &str, env: &str, value: &str) -> String {
    let output = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["--ignored", "--exact", child, "--nocapture"])
        .env(env, value)
        .output()
        .expect("the test binary re-executes");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(output.status.success(), "child failed:\n{stdout}");
    stdout
}

/// What `stdout` printed after `tag`.
fn field<'s>(stdout: &'s str, tag: &str) -> &'s str {
    stdout
        .lines()
        .find_map(|l| l.split(tag).nth(1))
        .unwrap_or_else(|| panic!("no {tag} in child output:\n{stdout}"))
        .trim()
}

/// Runs `child` with `env` set to `value`; returns its query count and its
/// peak resident set size in kB.
fn peak_in_child(child: &str, env: &str, value: &str) -> (u64, u64) {
    let stdout = run_in_child(child, env, value);
    let number = |tag: &str| field(&stdout, tag).parse().expect("a count");
    (number(QUERIES_TAG), number(PEAK_TAG))
}

fn replay_in_child(min_qps: f64, max_qps: f64, secs: u64) -> (u64, u64) {
    let size = format!("{min_qps},{max_qps},{secs}");
    peak_in_child("replay_child", REPLAY_CHILD_ENV, &size)
}

#[test]
#[ignore = "two fleet-scale replays in child processes; needs --release"]
fn replay_peak_memory_is_independent_of_its_length() {
    if peak_rss_kb().is_none() {
        return; // No VmHWM here: nothing to measure.
    }
    let (small_queries, small_kb) = replay_in_child(60.0, 480.0, 350);
    let (large_queries, large_kb) = replay_in_child(60.0, 500.0, 7200);
    println!(
        "350 s replay: {small_queries} queries, peak {:.1} MB; \
         7200 s replay: {large_queries} queries, peak {:.1} MB",
        small_kb as f64 / 1024.0,
        large_kb as f64 / 1024.0
    );
    assert!(large_queries > 20 * small_queries, "the sizes must differ");
    assert!(
        large_kb as f64 <= 1.5 * small_kb as f64,
        "a {large_queries}-query replay peaked at {large_kb} kB, \
         more than 1.5x the {small_kb} kB of a {small_queries}-query one"
    );
}

#[test]
#[ignore = "two testbed sessions in child processes; needs --release"]
fn testbed_peak_memory_is_independent_of_its_worker_count() {
    if peak_rss_kb().is_none() {
        return; // No VmHWM here: nothing to measure.
    }
    let (small_queries, small_kb) = peak_in_child("testbed_child", TESTBED_CHILD_ENV, "4");
    let (large_queries, large_kb) = peak_in_child("testbed_child", TESTBED_CHILD_ENV, "64");
    println!(
        "testbed at 4 workers: {small_queries} queries, peak {:.1} MB; \
         at 64 workers: {large_queries} queries, peak {:.1} MB",
        small_kb as f64 / 1024.0,
        large_kb as f64 / 1024.0
    );
    assert_eq!(small_queries, large_queries, "same arrival stream");
    assert!(
        large_kb <= small_kb + 6 * 1024,
        "a 64-worker testbed peaked at {large_kb} kB, more than 6 MB above \
         the {small_kb} kB of a 4-worker one"
    );
}

#[test]
#[ignore = "four sessions in child processes; needs --release"]
fn work_counts_match_the_golden() {
    if cfg!(debug_assertions) {
        return; // Debug builds' twins re-render and re-plan, and allocate.
    }
    let printed: Vec<Vec<u64>> = GOLDEN
        .iter()
        .map(|golden| {
            let stdout = run_in_child("allocation_child", ALLOCATION_CHILD_ENV, golden.row);
            let counts = field(&stdout, COUNTS_TAG).split(' ');
            counts.map(|n| n.parse().expect("a count")).collect()
        })
        .collect();
    let counted: Vec<WorkCounts> = GOLDEN
        .iter()
        .zip(&printed)
        .map(|(golden, numbers)| WorkCounts::from_numbers(golden.row, numbers))
        .collect();
    for row in &counted {
        let (name, allocations, units) = (row.row, row.allocations, row.units);
        let per_unit = allocations as f64 / units as f64;
        println!("{name}: {units} units, {allocations} allocations: {per_unit:.3} per unit");
        if name == "replay" {
            assert!(units > 50_000, "the replay must be fleet-scale");
            assert!(
                per_unit < 0.1,
                "{allocations} allocations over {units} polled outcomes: \
                 {per_unit:.3} per outcome, not under 0.1"
            );
        } else {
            assert!(units > 100, "{name}: the replay must span many ticks");
            assert!(
                per_unit <= 32.0,
                "{name}: {allocations} allocations over {units} ticks: \
                 {per_unit:.1} per tick, more than 32"
            );
        }
    }
    let table: String = counted.iter().map(WorkCounts::to_string).collect();
    assert!(
        counted == GOLDEN,
        "the work counts moved; if the change means them to, say why and \
         paste the recomputed table over GOLDEN:\n\
         const GOLDEN: &[WorkCounts<'static>] = &[\n{table}];"
    );
}
