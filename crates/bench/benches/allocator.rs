//! End-to-end controller decision latency: the full per-tick path (demand
//! estimate → queue model → allocation solve) for both two-tier backends,
//! the N-tier ladder tick (`ladder3_solve_cold` / `ladder3_solve_warm`),
//! plus deferral-profile queries.

use criterion::{criterion_group, criterion_main, Criterion};
use diffserve_bench::{bench_ladder3_solve, CascadeId, Scale};
use diffserve_core::{solve_exhaustive, solve_proteus, AllocatorInputs};

fn bench_allocator(c: &mut Criterion) {
    let runtime = Scale::Smoke.runtime(CascadeId::One);
    let thresholds: Vec<f64> = (0..51).map(|i| 0.9 * i as f64 / 50.0).collect();
    let batches = [1usize, 2, 4, 8, 16];
    let mk = |demand: f64| AllocatorInputs {
        demand_qps: demand,
        queue_delay_light: 0.1,
        queue_delay_heavy: 0.4,
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
    c.bench_function("controller_tick_exhaustive", |b| {
        let inputs = mk(18.0);
        b.iter(|| solve_exhaustive(std::hint::black_box(&inputs)).expect("feasible"))
    });
    c.bench_function("controller_tick_proteus", |b| {
        let inputs = mk(18.0);
        b.iter(|| solve_proteus(std::hint::black_box(&inputs)).expect("feasible"))
    });
    bench_ladder3_solve(&runtime, c);
    c.bench_function("deferral_profile_lookup", |b| {
        b.iter(|| {
            runtime
                .deferral
                .fraction_deferred(std::hint::black_box(0.63))
        })
    });
}

criterion_group!(benches, bench_allocator);
criterion_main!(benches);
