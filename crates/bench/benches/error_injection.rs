//! Criterion benches: the Monte-Carlo substrate's error injection, on
//! the batched `corrupt_words` kernel the link simulation runs.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mosaic_sim::inject::BitErrorInjector;
use mosaic_sim::rng::DetRng;

fn bench_injection(c: &mut Criterion) {
    let mut g = c.benchmark_group("inject");
    let mut words = vec![0u64; 16384];
    g.throughput(Throughput::Bytes(words.len() as u64 * 8));
    for &ber in &[1e-3, 1e-6, 1e-9] {
        // One injector and one buffer across iterations: the cost is the
        // gap draws, whatever bits earlier iterations left flipped.
        let mut inj = BitErrorInjector::new(ber, DetRng::new(1));
        g.bench_function(format!("corrupt_128kB_ber_{ber:.0e}"), |b| {
            b.iter(|| inj.corrupt_words(&mut words))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    // Short windows: these are smoke/regression benches, not a tuning lab.
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(20);
    targets = bench_injection
}
criterion_main!(benches);
