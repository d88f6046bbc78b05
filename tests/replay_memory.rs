//! A replay's peak memory must not grow with its length.
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
//! Linux only (`VmHWM` from `/proc/self/status`), release only in practice
//! (≈ 10 s there), so both tests are `#[ignore]`d:
//!
//! ```sh
//! cargo test --release --test replay_memory -- --ignored --nocapture
//! ```

use diffserve::prelude::*;

/// Set in the child processes: the trace's `min_qps,max_qps,seconds`.
const CHILD_ENV: &str = "DIFFSERVE_REPLAY_MEMORY_CHILD";

/// What a child prints its peak resident set size after, in kB.
const PEAK_TAG: &str = "replay_memory_peak_kb=";

/// This process's peak resident set size in kB, where the OS reports one.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The child's half: one replay at the size the environment names, then
/// its query count and the process's peak. A plain `--ignored` run has no
/// size set and returns at once.
#[test]
#[ignore = "child process of replay_peak_memory_is_independent_of_its_length"]
fn replay_child() {
    let Ok(size) = std::env::var(CHILD_ENV) else {
        return;
    };
    let size: Vec<f64> = size.split(',').map(|v| v.parse().unwrap()).collect();
    let runtime = CascadeRuntime::prepare(
        cascade1(FeatureSpec::default()),
        1500,
        20250509,
        DiscriminatorConfig {
            train_prompts: 500,
            epochs: 10,
            ..Default::default()
        },
    );
    let config = SystemConfig {
        num_workers: 1000,
        ..Default::default()
    };
    let trace = synthesize_azure_trace(&AzureTraceConfig {
        min_qps: size[0],
        max_qps: size[1],
        duration: SimDuration::from_secs(size[2] as u64),
        ..Default::default()
    })
    .unwrap();
    let settings = RunSettings::new(Policy::DiffServe, trace.max_qps());
    let report = run_trace(&runtime, &config, &settings, &trace);
    assert_eq!(report.completed + report.dropped, report.total_queries);
    println!("replay_memory_queries={}", report.total_queries);
    println!("{PEAK_TAG}{}", peak_rss_kb().expect("a Linux child"));
}

/// Re-executes this binary to run one replay in a process of its own;
/// returns (queries, peak kB).
fn replay_in_child(min_qps: f64, max_qps: f64, secs: u64) -> (u64, u64) {
    let output = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["--ignored", "--exact", "replay_child", "--nocapture"])
        .env(CHILD_ENV, format!("{min_qps},{max_qps},{secs}"))
        .output()
        .expect("the test binary re-executes");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "child failed:\n{stdout}");
    let field = |tag: &str| -> u64 {
        let line = stdout.lines().find_map(|l| l.split(tag).nth(1));
        line.and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("no {tag} in child output:\n{stdout}"))
    };
    (field("replay_memory_queries="), field(PEAK_TAG))
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
