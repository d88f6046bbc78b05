//! Quickstart: prepare Cascade 1, serve a short Poisson workload with the
//! full DiffServe policy through a `ServingSession`, and print the paper's
//! two headline metrics. (See `streaming_session.rs` for the incremental
//! submit/poll/observe side of the session API.)
//!
//! Run with: `cargo run --release --example quickstart`

use diffserve::prelude::*;

fn main() {
    println!("Preparing Cascade 1 (SD-Turbo -> SDv1.5): dataset + discriminator...");
    let runtime = CascadeRuntime::prepare(
        cascade1(FeatureSpec::default()),
        2000,
        42,
        DiscriminatorConfig::default(),
    );
    println!(
        "  discriminator: {} ({} params-class), train accuracy {:.3}",
        runtime.discriminator.config().arch.name(),
        runtime.discriminator.latency(),
        runtime.discriminator.train_accuracy()
    );

    let trace = Trace::constant(10.0, SimDuration::from_secs(120)).expect("valid trace");
    println!(
        "Serving {:.0} QPS for {:.0}s on {} workers (SLO {})...",
        trace.mean_qps(),
        trace.duration().as_secs_f64(),
        SystemConfig::default().num_workers,
        SystemConfig::default().slo,
    );

    let mut session = ServingSession::builder()
        .runtime(&runtime)
        .config(SystemConfig::default())
        .policy(Policy::DiffServe)
        .peak_demand(trace.max_qps())
        .build()
        .expect("configuration validated at build time");
    session.replay_trace(&trace);
    session.run_until(SimTime::ZERO + trace.duration() + SystemConfig::default().slo * 4);
    let report = session.finish();

    println!("\n{}", report.summary());
    println!(
        "  responses: {} light / {} heavy ({}% deferred)",
        ((1.0 - report.heavy_fraction) * report.completed as f64) as u64,
        (report.heavy_fraction * report.completed as f64) as u64,
        (report.heavy_fraction * 100.0) as u64,
    );
    println!("  FID (quality, lower = better): {:.2}", report.fid);
    println!(
        "  SLO violation ratio:           {:.3}",
        report.violation_ratio
    );
    println!(
        "  mean latency:                  {:.2}s",
        report.mean_latency
    );
}
