//! Criterion benchmarks of the figure table at quick scale — every row
//! of `wimnet_bench::FIGURES`, so `cargo bench` exercises the entire
//! reproduction pipeline end to end and a new figure is benchmarked
//! without an edit here.

use criterion::{criterion_group, criterion_main, Criterion};

use wimnet_bench::FIGURES;
use wimnet_core::Scale;

fn bench_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    for figure in &FIGURES {
        g.bench_function(format!("{}_quick", figure.name), |b| {
            b.iter(|| (figure.rows)(Scale::Quick).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
