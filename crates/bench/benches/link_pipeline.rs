//! Criterion benches: the gearbox transmit/receive pipeline.
//!
//! `f19_epoch` times the layer the repository benchmark reports as
//! `link.transmit_ns_per_frame` and `link.receive_ns_per_frame`: a warm
//! `transmit_into`/`receive_into` pair at F19's geometry with its 96-B
//! mixed frame sizes. The 100-channel benches keep the wide prototype
//! geometry covered.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mosaic_link::framing::{crc32, crc32_bytewise};
use mosaic_link::gearbox::{Gearbox, RxBatch, RxScratch, TxScratch};
use mosaic_link::scrambler::Scrambler;
use mosaic_link::striping::LaneWord;
use mosaic_link::striping::{Deskewer, Distributor, StripeConfig};

fn bench_gearbox(c: &mut Criterion) {
    let mut g = c.benchmark_group("gearbox");
    g.sample_size(20);
    let payloads: Vec<Vec<u8>> = (0..16).map(|i| vec![i as u8; 1024]).collect();
    let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
    let bytes: u64 = payloads.iter().map(|p| p.len() as u64).sum();
    g.throughput(Throughput::Bytes(bytes));
    g.bench_function("transmit_100ch_16k", |b| {
        b.iter_with_setup(|| Gearbox::new(100, 108, 32), |mut tx| tx.transmit(&refs))
    });
    g.bench_function("roundtrip_100ch_16k", |b| {
        b.iter_with_setup(
            || (Gearbox::new(100, 108, 32), Gearbox::new(100, 108, 32)),
            |(mut tx, mut rx)| {
                let ch = tx.transmit(&refs);
                rx.receive(&ch).unwrap()
            },
        )
    });
    g.finish();
}

fn bench_f19_epoch(c: &mut Criterion) {
    let mut g = c.benchmark_group("f19_epoch");
    // One epoch at F19's quota: 32 frames of 48 to 240 bytes, the spread
    // of the default mix around its 96-B base frame.
    let payloads: Vec<Vec<u8>> = (0..32)
        .map(|i| vec![i as u8; 48 + (i * 67) % 193])
        .collect();
    let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
    g.throughput(Throughput::Elements(refs.len() as u64));
    let mut tx = Gearbox::new(8, 12, 16);
    let mut rx = Gearbox::new(8, 12, 16);
    let mut tx_scratch = TxScratch::default();
    let mut rx_scratch = RxScratch::default();
    let mut channels: Vec<Vec<LaneWord>> = Vec::new();
    let mut batch = RxBatch::default();
    g.bench_function("transmit_receive_8of12_32frames", |b| {
        b.iter(|| {
            tx.transmit_into(&refs, &mut tx_scratch, &mut channels);
            rx.receive_into(&channels, &mut rx_scratch, &mut batch)
                .unwrap();
            batch.frames.len()
        })
    });
    g.finish();
}

fn bench_crc(c: &mut Criterion) {
    let mut g = c.benchmark_group("crc32");
    // 150 B is about F19's mean framed size (96-B base payloads, 14-B
    // header and trailer).
    for len in [64usize, 150, 1500] {
        let data: Vec<u8> = (0..len).map(|i| (i * 131 + 7) as u8).collect();
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_function(format!("crc32_{len}B"), |b| b.iter(|| crc32(&data)));
        g.bench_function(format!("crc32_bytewise_{len}B"), |b| {
            b.iter(|| crc32_bytewise(&data))
        });
    }
    g.finish();
}

fn bench_striping(c: &mut Criterion) {
    let mut g = c.benchmark_group("striping");
    let cfg = StripeConfig::new(64, 16);
    let payload: Vec<u64> = (0..64 * 16 * 8).collect();
    g.throughput(Throughput::Bytes(payload.len() as u64 * 8));
    g.bench_function("stripe_64lanes", |b| {
        b.iter_with_setup(|| Distributor::new(cfg), |mut d| d.stripe(&payload, 0))
    });
    let streams = Distributor::new(cfg).stripe(&payload, 0);
    g.bench_function("deskew_64lanes", |b| {
        b.iter(|| Deskewer::new(cfg).reassemble(&streams).unwrap())
    });
    g.finish();
}

fn bench_scrambler(c: &mut Criterion) {
    let mut g = c.benchmark_group("scrambler");
    let words: Vec<u64> = (0..4096).map(|i| i * 0x9E37_79B9_7F4A_7C15).collect();
    g.throughput(Throughput::Bytes(words.len() as u64 * 8));
    g.bench_function("scramble_32kB", |b| {
        b.iter_with_setup(Scrambler::new, |mut s| {
            words
                .iter()
                .map(|&w| s.scramble_word(w))
                .collect::<Vec<_>>()
        })
    });
    g.bench_function("descramble_32kB", |b| {
        b.iter_with_setup(Scrambler::new, |mut s| {
            words
                .iter()
                .map(|&w| s.descramble_word(w))
                .collect::<Vec<_>>()
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
    targets = bench_gearbox, bench_f19_epoch, bench_crc, bench_striping, bench_scrambler
}
criterion_main!(benches);
