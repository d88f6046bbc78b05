//! Peak memory must grow neither with a replay's length nor with the
//! testbed's worker count.
//!
//! The simulator keeps one pending arrival per trace replay and retires a
//! query's record at its terminal state, so what a run holds is what is in
//! flight plus per-window report cells — not the queries it has served. The
//! check is end to end, on the process's own high-water mark: the 1000-worker
//! Azure replay of `perf` at its two sizes, `azure_replay_1000w` (≈ 95 K
//! queries over 350 s) and `azure_replay_1000w_2m` (≈ 2 M over 7200 s), each
//! in a child process of its own (this test binary re-executed, so one run's
//! peak cannot hide in the other's), and the larger must peak within 1.5× of
//! the smaller. Measured: 4.8 MB and 5.9 MB. Before the streaming replay:
//! 18.9 MB and 302.8 MB (and `perf`, which runs both in one process, peaked
//! at 364 MB).
//!
//! Every testbed worker thread builds its kernel over a clone of the
//! session's `CascadeRuntime`, a reference-counted handle, so the fleet
//! shares one copy of the prepared artifacts. The check launches a testbed
//! session at 4 and at 64 workers on the same 1 500-prompt runtime, each in
//! a child process, and the 64-worker peak must stay within 6 MB of the
//! 4-worker one. Measured: 4.8 MB and 5.4 MB. When each worker deep-copied
//! the runtime (≈ 0.43 MB a copy): 6.1 MB and 33.8 MB.
//!
//! A query's completion allocates nothing either: its feature row travels
//! inline from the render table to the report's moment cells, and the
//! stage latencies it is charged are a session table. The check counts
//! every allocation of this binary (a counting global allocator) in a child
//! process that replays 1000 workers on a 60–500 qps Azure trace and polls
//! every 2 simulated seconds; between the first poll and the last, the
//! session must make fewer than 0.1 allocations per polled outcome.
//! Measured over ≈ 125 K outcomes: 0.043 (0.073 before control ticks stopped
//! allocating). When each completion copied its row into a fresh
//! `Vec`: 1.073. Debug builds re-render every completion to check the
//! render table, which allocates, so that test passes vacuously there.
//!
//! Nor does a steady-state control tick allocate more than a few times. The
//! MILP planner keeps its residual knapsack, its simplex tableaus and its
//! scratch from tick to tick, and the tick's observation reuses its
//! vectors. The check drives a session as the repo benchmark does, to 1 µs
//! before each control tick and then to the tick, counts only the second
//! call, and must read at most 32 allocations per tick on two `Milp` rows:
//! the benchmark's `ladder_control` configuration (a 3-tier ladder at 16
//! workers with resume, add-ons and online profile refresh) and a two-tier
//! cascade at 8 workers. Measured: 13.4 and 6.1. When every probe rebuilt
//! its knapsack and every solve its tableaus: 233.7 and 142.7.
//!
//! Linux only (`VmHWM` from `/proc/self/status`), release only in practice
//! (≈ 10 s there), so the tests are `#[ignore]`d:
//!
//! ```sh
//! cargo test --release --test replay_memory -- --ignored --nocapture
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
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

/// Set in the allocation child (to any value).
const ALLOCATION_CHILD_ENV: &str = "DIFFSERVE_ALLOCATION_CHILD";

/// Set in the testbed child: the fleet's worker count.
const TESTBED_CHILD_ENV: &str = "DIFFSERVE_TESTBED_MEMORY_CHILD";

/// Set in the tick child: which row to drive (`ladder` or `two_tier`).
const TICK_CHILD_ENV: &str = "DIFFSERVE_TICK_ALLOCATION_CHILD";

/// What a child prints its peak resident set size after, in kB.
const PEAK_TAG: &str = "replay_memory_peak_kb=";

/// What the allocation child prints its allocation count after.
const ALLOCATIONS_TAG: &str = "replay_memory_allocations=";

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
    println!("replay_memory_queries={}", report.total_queries);
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
    println!("replay_memory_queries={}", report.total_queries);
    println!("{PEAK_TAG}{}", peak_rss_kb().expect("a Linux child"));
}

/// The allocation child's half: a 1000-worker replay of a 60–500 qps Azure
/// trace, polled every 2 simulated seconds. Prints the outcomes polled
/// after the first poll and the allocations made between the first poll
/// and the last.
#[test]
#[ignore = "child process of completions_allocate_nothing"]
fn allocation_child() {
    if std::env::var(ALLOCATION_CHILD_ENV).is_err() {
        return;
    }
    let runtime = child_runtime();
    let config = SystemConfig {
        num_workers: 1000,
        ..Default::default()
    };
    let trace = synthesize_azure_trace(&AzureTraceConfig {
        min_qps: 60.0,
        max_qps: 500.0,
        duration: SimDuration::from_secs(500),
    })
    .unwrap();
    let mut session = ServingSession::builder()
        .runtime(&runtime)
        .config(config.clone())
        .settings(RunSettings::new(Policy::DiffServe, trace.max_qps()))
        .build()
        .expect("valid session");
    session.replay_trace(&trace);
    let end = SimTime::ZERO + trace.duration() + config.slo * 4;
    let (mut at, mut outcomes, mut first, mut last) = (SimTime::ZERO, 0, None, 0);
    while at < end {
        at += SimDuration::from_secs(2);
        session.run_until(at);
        let polled = session.poll().len() as u64;
        last = ALLOCATIONS.load(Ordering::Relaxed);
        match first {
            None => first = Some(last),
            Some(_) => outcomes += polled,
        }
    }
    let report = session.finish();
    assert_eq!(report.completed + report.dropped, report.total_queries);
    println!("replay_memory_queries={outcomes}");
    let first = first.expect("at least one poll");
    println!("{ALLOCATIONS_TAG}{}", last - first);
}

/// The tick child's half: one `Milp` session of the row the environment
/// names, driven to 1 µs before each control tick and then to the tick.
/// Prints the ticks after the first and the allocations their calls made.
#[test]
#[ignore = "child process of ticks_allocate_a_bounded_amount"]
fn tick_child() {
    let Ok(row) = std::env::var(TICK_CHILD_ENV) else {
        return;
    };
    let (runtime, config, trace) = match row.as_str() {
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
            }),
        ),
        "two_tier" => (
            child_runtime(),
            SystemConfig {
                num_workers: 8,
                ..Default::default()
            },
            synthesize_azure_trace(&AzureTraceConfig {
                min_qps: 1.0,
                max_qps: 8.0,
                duration: SimDuration::from_secs(300),
            }),
        ),
        other => panic!("unknown row {other}"),
    };
    let trace = trace.unwrap();
    let settings = RunSettings {
        backend: AllocatorBackend::Milp,
        ..RunSettings::new(Policy::DiffServe, trace.max_qps())
    };
    let mut session = ServingSession::builder()
        .runtime(&runtime)
        .config(config.clone())
        .settings(settings)
        .build()
        .expect("valid session");
    session.replay_trace(&trace);
    let interval = config.control_interval.as_micros();
    let horizon = SimTime::ZERO + trace.duration() + config.slo * 4;
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
    let report = session.finish();
    assert_eq!(report.completed + report.dropped, report.total_queries);
    println!("replay_memory_queries={ticks}");
    println!("{ALLOCATIONS_TAG}{allocations}");
}

/// Re-executes this binary to run the `child` test alone in a process of
/// its own, with `env` set to `value`; returns its query count and the
/// figure it printed after `tag`.
fn run_in_child(child: &str, env: &str, value: &str, tag: &str) -> (u64, u64) {
    let output = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["--ignored", "--exact", child, "--nocapture"])
        .env(env, value)
        .output()
        .expect("the test binary re-executes");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "child failed:\n{stdout}");
    let field = |tag: &str| -> u64 {
        let line = stdout.lines().find_map(|l| l.split(tag).nth(1));
        line.and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("no {tag} in child output:\n{stdout}"))
    };
    (field("replay_memory_queries="), field(tag))
}

fn replay_in_child(min_qps: f64, max_qps: f64, secs: u64) -> (u64, u64) {
    let size = format!("{min_qps},{max_qps},{secs}");
    run_in_child("replay_child", REPLAY_CHILD_ENV, &size, PEAK_TAG)
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
        "azure_replay_1000w: {small_queries} queries, peak {:.1} MB; \
         azure_replay_1000w_2m: {large_queries} queries, peak {:.1} MB",
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
    let (small_queries, small_kb) = run_in_child("testbed_child", TESTBED_CHILD_ENV, "4", PEAK_TAG);
    let (large_queries, large_kb) =
        run_in_child("testbed_child", TESTBED_CHILD_ENV, "64", PEAK_TAG);
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
#[ignore = "a fleet-scale replay in a child process; needs --release"]
fn completions_allocate_nothing() {
    if cfg!(debug_assertions) {
        return; // The render table's debug cross-check renders, and allocates.
    }
    let (outcomes, allocations) = run_in_child(
        "allocation_child",
        ALLOCATION_CHILD_ENV,
        "1",
        ALLOCATIONS_TAG,
    );
    let per_outcome = allocations as f64 / outcomes as f64;
    println!("{outcomes} polled outcomes, {allocations} allocations: {per_outcome:.3} per outcome");
    assert!(outcomes > 50_000, "the replay must be fleet-scale");
    assert!(
        per_outcome < 0.1,
        "{allocations} allocations over {outcomes} polled outcomes: \
         {per_outcome:.3} per outcome, not under 0.1"
    );
}

#[test]
#[ignore = "two MILP-planned replays in child processes; needs --release"]
fn ticks_allocate_a_bounded_amount() {
    if cfg!(debug_assertions) {
        return; // The kept residual's debug twin rebuilds it, and allocates.
    }
    for row in ["ladder", "two_tier"] {
        let (ticks, allocations) = run_in_child("tick_child", TICK_CHILD_ENV, row, ALLOCATIONS_TAG);
        let per_tick = allocations as f64 / ticks as f64;
        println!("{row}: {ticks} ticks, {allocations} allocations: {per_tick:.1} per tick");
        assert!(ticks > 100, "{row}: the replay must span many ticks");
        assert!(
            per_tick <= 32.0,
            "{row}: {allocations} allocations over {ticks} ticks: {per_tick:.1} per tick, \
             more than 32"
        );
    }
}
