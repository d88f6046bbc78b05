//! Cost of the evaluation metric itself: FID over a full 5K-response set
//! (per-run accounting) and over one 200-response window (time series).

use criterion::{criterion_group, criterion_main, Criterion};
use diffserve_bench::{CascadeId, Scale};
use diffserve_linalg::Mat;
use diffserve_metrics::{frechet_distance, GaussianStats};

fn bench_fid(c: &mut Criterion) {
    let runtime = Scale::Smoke.runtime(CascadeId::One);
    let rows: Vec<Vec<f64>> = runtime
        .dataset
        .prompts()
        .iter()
        .map(|p| runtime.spec.light.generate(p).features)
        .collect();
    let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
    let generated = Mat::from_rows(&refs);

    c.bench_function("fid_full_dataset", |b| {
        b.iter(|| {
            let g = GaussianStats::fit(std::hint::black_box(&generated), 1e-6).expect("fit");
            frechet_distance(&g, runtime.dataset.reference()).expect("well-conditioned")
        })
    });

    let window_refs: Vec<&[f64]> = rows[..200].iter().map(|r| r.as_slice()).collect();
    let window = Mat::from_rows(&window_refs);
    c.bench_function("fid_window_200", |b| {
        b.iter(|| {
            let g = GaussianStats::fit(std::hint::black_box(&window), 1e-3).expect("fit");
            frechet_distance(&g, &runtime.reference).expect("finite")
        })
    });
}

criterion_group!(benches, bench_fid);
criterion_main!(benches);
