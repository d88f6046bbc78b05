//! Event-throughput of the discrete-event serving simulator: one full
//! 60-second 8-QPS DiffServe run (≈500 queries, thousands of events).

use criterion::{criterion_group, criterion_main, Criterion};
use diffserve_bench::{CascadeId, Scale};
use diffserve_core::{run_trace, Policy, RunSettings, SystemConfig};
use diffserve_simkit::time::SimDuration;
use diffserve_trace::Trace;

fn bench_simulator(c: &mut Criterion) {
    let runtime = Scale::Smoke.runtime(CascadeId::One);
    let config = SystemConfig {
        num_workers: 8,
        ..Default::default()
    };
    let trace = Trace::constant(8.0, SimDuration::from_secs(60)).expect("valid trace");
    let settings = RunSettings::new(Policy::DiffServe, 8.0);
    let mut group = c.benchmark_group("simulator");
    group.sample_size(20);
    group.bench_function("run_60s_8qps_diffserve", |b| {
        b.iter(|| run_trace(&runtime, &config, &settings, std::hint::black_box(&trace)))
    });
    group.finish();
}

criterion_group!(benches, bench_simulator);
criterion_main!(benches);
