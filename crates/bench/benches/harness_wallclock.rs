//! Wall-clock comparison of the full evaluation on a serial harness
//! (`Harness::serial()`) versus a parallel one (`Harness::new()`). Both
//! memoize the same union plan, running each unique
//! `(config, workload, scale)` tuple once, so the gap is the parallel
//! harness fanning the unique runs out over worker threads; it widens
//! with core count.
use criterion::{criterion_group, criterion_main, Criterion};
use piranha::experiments::{self, Harness, RunScale};

fn bench(c: &mut Criterion) {
    // Small enough for Criterion iteration, big enough that simulation
    // dominates the harness bookkeeping.
    let scale = RunScale {
        warmup: 10_000,
        measure: 20_000,
        ..RunScale::tiny()
    };
    let serial = experiments::all_figures(&mut Harness::serial(), scale);
    let parallel = experiments::all_figures(&mut Harness::new(), scale);
    assert_eq!(serial, parallel, "paths must agree before timing them");

    let mut g = c.benchmark_group("all_figures");
    g.sample_size(10);
    g.bench_function("serial", |b| {
        b.iter(|| std::hint::black_box(experiments::all_figures(&mut Harness::serial(), scale)))
    });
    g.bench_function("parallel_memoized", |b| {
        b.iter(|| std::hint::black_box(experiments::all_figures(&mut Harness::new(), scale)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
