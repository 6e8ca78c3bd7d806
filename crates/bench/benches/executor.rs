//! Serial vs parallel executor benchmarks.
//!
//! Compares the two executor paths on the same per-node algorithm
//! (`ctx.view(r).n()`): the sequential reference and the parallel scratch
//! path. `cargo run --release -p lad-bench --bin executor_bench` writes a
//! wall-clock snapshot at larger sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lad_graph::{generators, Graph};
use lad_runtime::{run_local, Network, Run};
use std::hint::black_box;

fn families(n: usize) -> Vec<(&'static str, Graph)> {
    let side = (n as f64).sqrt().round() as usize;
    vec![
        ("cycle", generators::cycle(n)),
        ("grid", generators::grid2d(side, side, true)),
        ("random-regular", generators::random_regular(n, 4, 42)),
    ]
}

fn bench_executors(c: &mut Criterion) {
    let mut group = c.benchmark_group("executor");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    let radius = 2usize;
    for n in [1_000usize, 10_000] {
        for (family, g) in families(n) {
            let net = Network::with_identity_ids(g);
            let algo = |ctx: &lad_runtime::NodeCtx| ctx.view(radius).n();
            group.bench_with_input(BenchmarkId::new(format!("seq/{family}"), n), &n, |b, _| {
                b.iter(|| run_local(black_box(&net), algo))
            });
            group.bench_with_input(BenchmarkId::new(format!("par/{family}"), n), &n, |b, _| {
                b.iter(|| Run::default().nodes(black_box(&net), algo))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_executors);
criterion_main!(benches);
