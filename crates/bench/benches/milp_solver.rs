//! §4.5 claim: "the average runtime of the MILP solver is ~10 ms".
//!
//! Benchmarks the allocation MILP at production size (51 thresholds ×
//! 5 batch sizes × 16 workers) against the exhaustive grid solver.

use criterion::{criterion_group, criterion_main, Criterion};
use diffserve_bench::{CascadeId, Scale};
use diffserve_core::{solve_exhaustive, solve_milp_allocation, AllocatorInputs};

fn bench_milp(c: &mut Criterion) {
    let runtime = Scale::Smoke.runtime(CascadeId::One);
    let thresholds: Vec<f64> = (0..51).map(|i| 0.9 * i as f64 / 50.0).collect();
    let batches = [1usize, 2, 4, 8, 16];
    let inputs = AllocatorInputs {
        demand_qps: 18.0,
        queue_delay_light: 0.2,
        queue_delay_heavy: 0.5,
        slo: 5.0,
        total_workers: 16,
        deferral: &runtime.deferral,
        light: *runtime.spec.light.latency(),
        heavy: *runtime.spec.heavy.latency(),
        resume_heavy: None,
        discriminator_latency: 0.01,
        batch_sizes: &batches,
        thresholds: &thresholds,
    };
    c.bench_function("milp_allocation_16workers_51thresholds", |b| {
        b.iter(|| solve_milp_allocation(std::hint::black_box(&inputs)).expect("feasible"))
    });
    c.bench_function("exhaustive_allocation_16workers_51thresholds", |b| {
        b.iter(|| solve_exhaustive(std::hint::black_box(&inputs)).expect("feasible"))
    });
}

criterion_group!(benches, bench_milp);
criterion_main!(benches);
