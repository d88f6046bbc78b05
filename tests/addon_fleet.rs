//! Add-on routing at fleet scale: a 1000-worker Cascade 1 replay of the
//! Azure diurnal trace (60–500 qps over 300 s, 76 834 queries) with
//! [`AddonsConfig::demo`].
//!
//! Affinity routing once scored every worker of a tier's pool per add-on
//! query, which made this replay 15–25× slower than the same replay
//! without add-ons; the pick now reads the load index, two candidates per
//! key bucket. One test pins what the replay serves, which is what the
//! pool scan served (its FID re-pinned once since, by 8 units in the last
//! place, when the report's eigen-solve became a rational QL). Under the `verify` profile (release codegen, debug
//! assertions on) that replay also compares every affinity pick with the
//! scan and re-derives the holder sets at fleet scale. The other test
//! times the two replays and bounds their ratio. Both are slow in debug
//! builds, so they are `#[ignore]`d:
//!
//! ```sh
//! cargo test --release --test addon_fleet -- --ignored --nocapture
//! cargo test --profile verify --test addon_fleet -- --ignored serves_what
//! ```

use diffserve::prelude::{
    cascade1, run_trace, synthesize_azure_trace, AddonsConfig, AzureTraceConfig, CascadeRuntime,
    DiscriminatorConfig, FeatureSpec, Policy, RunReport, RunSettings, SimDuration, SystemConfig,
    Trace,
};
use std::sync::OnceLock;
use std::time::Instant;

/// The add-on replay may take at most this many times the plain one.
const MAX_SLOWDOWN: f64 = 4.0;

fn runtime() -> &'static CascadeRuntime {
    static RT: OnceLock<CascadeRuntime> = OnceLock::new();
    RT.get_or_init(|| {
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
    })
}

fn plain_config() -> SystemConfig {
    SystemConfig {
        num_workers: 1000,
        ..Default::default()
    }
}

fn addon_config() -> SystemConfig {
    let plain = plain_config();
    SystemConfig {
        addons: Some(AddonsConfig::demo(plain.seed)),
        ..plain
    }
}

fn trace() -> Trace {
    synthesize_azure_trace(&AzureTraceConfig {
        min_qps: 60.0,
        max_qps: 500.0,
        duration: SimDuration::from_secs(300),
    })
    .expect("valid trace")
}

fn replay(config: &SystemConfig, trace: &Trace) -> RunReport {
    let settings = RunSettings::new(Policy::DiffServe, trace.max_qps());
    run_trace(runtime(), config, &settings, trace)
}

#[test]
#[ignore = "a fleet-scale replay; needs --release or --profile verify"]
fn addon_fleet_replay_serves_what_the_pool_scan_served() {
    let report = replay(&addon_config(), &trace());
    println!(
        "completed {} of {}, fid {}, hit rate {:.4}",
        report.completed,
        report.total_queries,
        report.fid,
        report.addon_stats.total_hit_rate()
    );
    assert_eq!(report.total_queries, 76_834);
    assert!(report.addon_stats.total_lookups() > 40_000);
    assert_eq!(
        (report.completed, report.fid.to_bits()),
        (75_316, 18.18412626622792f64.to_bits())
    );
}

#[test]
#[ignore = "times six fleet-scale replays; needs --release"]
fn addon_replay_costs_a_small_multiple_of_the_plain_one() {
    let trace = trace();
    let timed = |config: &SystemConfig| -> (f64, RunReport) {
        let start = Instant::now();
        let report = replay(config, &trace);
        (start.elapsed().as_secs_f64(), report)
    };
    runtime();

    // Alternate the two so host noise lands on both sides alike.
    let (mut plain_secs, mut addon_secs) = (Vec::new(), Vec::new());
    let mut reports = Vec::new();
    for _ in 0..3 {
        let (secs, report) = timed(&plain_config());
        assert_eq!(report.addon_stats.total_lookups(), 0);
        plain_secs.push(secs);
        let (secs, report) = timed(&addon_config());
        addon_secs.push(secs);
        reports.push(report);
    }
    let median = |secs: &mut Vec<f64>| {
        secs.sort_by(f64::total_cmp);
        secs[secs.len() / 2]
    };
    let (plain_s, addon_s) = (median(&mut plain_secs), median(&mut addon_secs));
    let queries = reports[0].total_queries as f64;
    println!(
        "{queries} queries: plain {plain_s:.3} s ({:.0} q/s), add-ons {addon_s:.3} s \
         ({:.0} q/s), ratio {:.2}",
        queries / plain_s,
        queries / addon_s,
        addon_s / plain_s,
    );
    for other in &reports[1..] {
        assert_eq!(
            format!("{other:?}"),
            format!("{:?}", reports[0]),
            "replays are deterministic"
        );
    }
    assert!(
        addon_s <= MAX_SLOWDOWN * plain_s,
        "the add-on replay took {:.1}× the plain one (bound {MAX_SLOWDOWN}×)",
        addon_s / plain_s
    );
}
