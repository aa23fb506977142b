//! Criterion benches: FEC codec throughput (the gearbox's hottest loop).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mosaic_fec::bch::Bch;
use mosaic_fec::rs::ReedSolomon;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_rs(c: &mut Criterion) {
    let mut g = c.benchmark_group("reed_solomon");
    g.sample_size(20);
    for (name, rs) in [
        ("kp4_544_514", ReedSolomon::kp4()),
        ("kr4_528_514", ReedSolomon::kr4()),
    ] {
        let mut rng = StdRng::seed_from_u64(1);
        let data: Vec<u16> = (0..rs.k()).map(|_| rng.gen::<u16>() & 0x3FF).collect();
        let clean = rs.encode(&data);
        let payload_bits = (rs.k() as u64) * 10;
        g.throughput(Throughput::Elements(payload_bits));
        g.bench_with_input(BenchmarkId::new("encode", name), &data, |b, d| {
            b.iter(|| rs.encode(d));
        });
        // Decode with t/2 errors injected (realistic operating point).
        let mut corrupted = clean.clone();
        for i in 0..rs.t() / 2 {
            corrupted[i * 37 % rs.n()] ^= 0x155;
        }
        g.bench_with_input(
            BenchmarkId::new("decode_t_half", name),
            &corrupted,
            |b, w| {
                b.iter(|| {
                    let mut word = w.clone();
                    rs.decode(&mut word)
                });
            },
        );
        g.bench_with_input(BenchmarkId::new("decode_clean", name), &clean, |b, w| {
            b.iter(|| {
                let mut word = w.clone();
                rs.decode(&mut word)
            });
        });
    }
    g.finish();
}

fn bench_bch(c: &mut Criterion) {
    let mut g = c.benchmark_group("bch");
    g.sample_size(20);
    let code = Bch::new(10, 1023, 8);
    let mut rng = StdRng::seed_from_u64(2);
    let data: Vec<u8> = (0..code.k()).map(|_| rng.gen_range(0..2u8)).collect();
    let clean = code.encode(&data);
    g.throughput(Throughput::Elements(code.k() as u64));
    g.bench_function("encode_1023_t8", |b| b.iter(|| code.encode(&data)));
    let mut corrupted = clean.clone();
    for i in 0..4 {
        corrupted[i * 251] ^= 1;
    }
    g.bench_function("decode_1023_t8_4err", |b| {
        b.iter(|| {
            let mut w = corrupted.clone();
            code.decode(&mut w)
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    // Short windows: these are smoke/regression benches, not a tuning lab.
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(20);
    targets = bench_rs, bench_bch
}
criterion_main!(benches);
