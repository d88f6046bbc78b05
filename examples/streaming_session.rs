//! Streaming session: drive the serving system incrementally through the
//! unified `ServingSession` API — submit queries as they "arrive", watch
//! live metrics from an observer tap, inject a worker failure mid-run, and
//! poll outcomes as they stream out.
//!
//! Run with: `cargo run --release --example streaming_session`

use std::cell::RefCell;
use std::rc::Rc;

use diffserve::prelude::*;

fn main() {
    println!("Preparing Cascade 1 (SD-Turbo -> SDv1.5)...");
    let runtime = CascadeRuntime::prepare(
        cascade1(FeatureSpec::default()),
        2000,
        42,
        DiscriminatorConfig::default(),
    );

    let config = SystemConfig {
        num_workers: 8,
        ..Default::default()
    };
    let mut session = ServingSession::builder()
        .runtime(&runtime)
        .config(config)
        .policy(Policy::DiffServe)
        .build()
        .expect("configuration validated at build time");

    // Live metric tap: fires after every control interval of run_until.
    let taps = Rc::new(RefCell::new(0u32));
    let tap_count = taps.clone();
    session.observer(move |snap| {
        *tap_count.borrow_mut() += 1;
        if tap_count.borrow().is_multiple_of(10) {
            println!(
                "  t={:>6} thr={:.2} light {} (q={}, {:.0}% busy) heavy {} (q={}) \
                 done={} dropped={} fid~{:.1}",
                format!("{}", snap.now),
                snap.thresholds[0],
                snap.tier_workers[0],
                snap.tier_queues[0],
                snap.utilization(0) * 100.0,
                snap.tier_workers[1],
                snap.tier_queues[1],
                snap.completed,
                snap.dropped,
                snap.fid_estimate,
            );
        }
    });

    // Phase 1: a steady stream of queries, submitted incrementally with
    // explicit per-query deadlines (what a real frontend would do).
    println!("Phase 1: streaming 6 QPS for 60s...");
    let mut escalated = 0u64;
    let mut completed = 0u64;
    for second in 0..60u64 {
        for k in 0..6 {
            let qid = second * 6 + k;
            let arrival = SimTime::from_secs(second) + SimDuration::from_millis(k * 160);
            let deadline = arrival + SimDuration::from_secs(5);
            session.submit_spec(
                QuerySpec::new()
                    .at(arrival)
                    .prompt(*runtime.dataset.prompt_cyclic(qid))
                    .deadline(deadline),
            );
        }
        session.run_until(SimTime::from_secs(second + 1));
        for outcome in session.poll() {
            if let QueryOutcome::Completed(r) = outcome {
                completed += 1;
                if r.tier == ModelTier::Heavy {
                    escalated += 1;
                }
            }
        }
    }
    println!("  after 60s: {completed} completed, {escalated} escalated to the heavy model");

    // Phase 2: fail 3 of 8 workers mid-run and keep serving.
    println!("Phase 2: injecting a 3-worker failure at t=60s...");
    session
        .inject(ScenarioEvent::Capacity(CapacityEvent::Fail(3)))
        .expect("pool survives losing 3 of 8");
    for second in 60..90u64 {
        for k in 0..6 {
            let at = SimTime::from_secs(second) + SimDuration::from_millis(k * 160);
            session.submit_spec(QuerySpec::new().at(at));
        }
        session.run_until(SimTime::from_secs(second + 1));
    }
    let snap = session.snapshot();
    println!(
        "  under churn: {} alive workers ({} failed), queues {:?}",
        snap.tier_workers.iter().sum::<usize>(),
        snap.failed_workers,
        snap.tier_queues,
    );

    // Phase 3: recover, drain, and close the session.
    session
        .inject(ScenarioEvent::Capacity(CapacityEvent::Recover(3)))
        .expect("recover the failed workers");
    session.run_until(SimTime::from_secs(120));
    let report = session.finish();

    println!("\n{}", report.summary());
    println!(
        "  observer fired {} times; every submitted query accounted: {} + {} = {}",
        taps.borrow(),
        report.completed,
        report.dropped,
        report.total_queries,
    );
    assert_eq!(report.completed + report.dropped, report.total_queries);
}
