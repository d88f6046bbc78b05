//! §3.2 / §4.4 claim: discriminator scoring overhead is negligible next to
//! diffusion inference (the paper's EfficientNet costs 10 ms on an A100 vs
//! 100 ms+ for even the lightest diffusion model).
//!
//! Benchmarks confidence scoring per image and per batch of 16.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use diffserve_bench::{CascadeId, Scale};
use diffserve_linalg::Mat;

fn bench_discriminator(c: &mut Criterion) {
    let runtime = Scale::Smoke.runtime(CascadeId::One);
    let prompts = runtime.dataset.prompts();
    let image = runtime.spec.light.generate(&prompts[0]);
    c.bench_function("discriminator_confidence_single", |b| {
        b.iter(|| {
            runtime
                .discriminator
                .confidence(std::hint::black_box(&image.features))
        })
    });
    let batch_rows: Vec<Vec<f64>> = prompts[..16]
        .iter()
        .map(|p| runtime.spec.light.generate(p).features)
        .collect();
    c.bench_function("discriminator_confidence_batch16", |b| {
        b.iter_batched(
            || {
                let refs: Vec<&[f64]> = batch_rows.iter().map(|r| r.as_slice()).collect();
                Mat::from_rows(&refs)
            },
            |m| runtime.discriminator.confidences(std::hint::black_box(&m)),
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(benches, bench_discriminator);
criterion_main!(benches);
