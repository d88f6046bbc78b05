//! Runs the thread-based testbed runtime (real threads + job queues + wall
//! clock at 1/50 time scale) on a short diurnal trace and compares it with
//! the discrete-event simulator on the same workload — the paper's §4.3
//! validation in miniature.
//!
//! Run with: `cargo run --release --example live_cluster`

use diffserve::prelude::*;
use diffserve_simkit::time::SimDuration;

fn main() {
    let runtime = CascadeRuntime::prepare(
        cascade1(FeatureSpec::default()),
        2000,
        5,
        DiscriminatorConfig::default(),
    );
    let trace = synthesize_azure_trace(&AzureTraceConfig {
        min_qps: 4.0,
        max_qps: 18.0,
        duration: SimDuration::from_secs(120),
    })
    .expect("valid trace");

    let system = SystemConfig::default();
    let settings = RunSettings::new(Policy::DiffServe, trace.max_qps());

    println!(
        "Replaying a {:.0}s trace ({:.0}->{:.0} QPS) on the thread-based cluster",
        trace.duration().as_secs_f64(),
        trace.min_qps(),
        trace.max_qps()
    );
    let scale = 0.05;
    println!(
        "time scale {scale}: this takes ~{:.0}s of wall clock...\n",
        trace.duration().as_secs_f64() * scale + 4.0 * system.slo.as_secs_f64() * scale
    );

    let testbed = run_cluster(&runtime, &system, &settings, &trace, scale);
    println!("testbed:   {}", testbed.summary());

    let sim = run_trace(&runtime, &system, &settings, &trace);
    println!("simulator: {}", sim.summary());

    println!(
        "\nsim-vs-testbed gap: FID {:.2}% | SLO violations {:.3} absolute",
        100.0 * (testbed.fid - sim.fid).abs() / sim.fid,
        (testbed.violation_ratio - sim.violation_ratio).abs()
    );
    println!("(paper reports 0.56% FID and 1.1% SLO-violation average gap, §4.3)");
}
