//! Criterion benches: the gearbox transmit/receive pipeline.
//!
//! Every bench runs the entry points the simulators call, on buffers
//! kept warm across iterations. `f19_epoch` times the layer the
//! repository benchmark reports as `link.transmit_ns_per_frame` and
//! `link.receive_ns_per_frame`: a `transmit_into`/`receive_into` pair at
//! F19's geometry with its 96-B mixed frame sizes. `payload` times
//! `Workload::payload_into`, which writes every frame F19 offers (part
//! of `traffic.emit_ns_per_frame`). The 100-channel benches keep the
//! wide prototype geometry covered.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mosaic_link::framing::{crc32, crc32_bytewise};
use mosaic_link::gearbox::{Gearbox, RxBatch, RxScratch, TxScratch};
use mosaic_link::scrambler::Scrambler;
use mosaic_link::striping::{deskew_mapped, stripe_mapped, DeskewScratch, LaneWord, StripeConfig};
use mosaic_traffic::{FrameSpec, Workload};

fn bench_gearbox(c: &mut Criterion) {
    let mut g = c.benchmark_group("gearbox");
    g.sample_size(20);
    let payloads: Vec<Vec<u8>> = (0..16).map(|i| vec![i as u8; 1024]).collect();
    let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
    let bytes: u64 = payloads.iter().map(|p| p.len() as u64).sum();
    g.throughput(Throughput::Bytes(bytes));
    let mut tx = Gearbox::new(100, 108, 32);
    let mut rx = Gearbox::new(100, 108, 32);
    let mut tx_scratch = TxScratch::default();
    let mut rx_scratch = RxScratch::default();
    let mut channels: Vec<Vec<LaneWord>> = Vec::new();
    let mut batch = RxBatch::default();
    g.bench_function("transmit_100ch_16k", |b| {
        b.iter(|| {
            tx.transmit_into(&refs, &mut tx_scratch, &mut channels);
            channels.len()
        })
    });
    g.bench_function("roundtrip_100ch_16k", |b| {
        b.iter(|| {
            tx.transmit_into(&refs, &mut tx_scratch, &mut channels);
            rx.receive_into(&channels, &mut rx_scratch, &mut batch)
                .unwrap();
            batch.frames.len()
        })
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

fn bench_payload(c: &mut Criterion) {
    let mut g = c.benchmark_group("payload");
    // F19's frame sizes: the 48- and 240-B ends of its default mix and
    // about its 150-B mean, appended to one arena cleared per call as the
    // harness clears it each epoch.
    for size in [48usize, 150, 240] {
        let spec = FrameSpec {
            flow: 5,
            flow_seq: 1234,
            size,
            emitted: 0,
            deadline: 12,
        };
        let mut arena = Vec::with_capacity(size);
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function(format!("payload_into_{size}B"), |b| {
            b.iter(|| {
                arena.clear();
                Workload::payload_into(&spec, &mut arena)
            })
        });
    }
    g.finish();
}

fn bench_striping(c: &mut Criterion) {
    let mut g = c.benchmark_group("striping");
    let cfg = StripeConfig::try_new(64, 16).unwrap();
    let assignment: Vec<usize> = (0..cfg.lanes).collect();
    let payload: Vec<u64> = (0..64 * 16 * 8).collect();
    g.throughput(Throughput::Bytes(payload.len() as u64 * 8));
    let mut streams: Vec<Vec<LaneWord>> = vec![Vec::new(); cfg.lanes];
    let mut seq = 0u32;
    g.bench_function("stripe_64lanes", |b| {
        b.iter(|| {
            for lane in streams.iter_mut() {
                lane.clear();
            }
            stripe_mapped(cfg, &mut seq, &payload, 0, &assignment, &mut streams);
            streams[0].len()
        })
    });
    let mut scratch = DeskewScratch::default();
    let mut out = Vec::new();
    g.bench_function("deskew_64lanes", |b| {
        b.iter(|| {
            deskew_mapped(cfg, &streams, &assignment, &mut scratch, &mut out).unwrap();
            out.len()
        })
    });
    g.finish();
}

fn bench_scrambler(c: &mut Criterion) {
    let mut g = c.benchmark_group("scrambler");
    let words: Vec<u64> = (0..4096).map(|i| i * 0x9E37_79B9_7F4A_7C15).collect();
    g.throughput(Throughput::Bytes(words.len() as u64 * 8));
    // One warm scrambler per bench, its history carried from pass to
    // pass as on a live lane, into one reused output buffer.
    let mut out = vec![0u64; words.len()];
    g.bench_function("scramble_32kB", |b| {
        let mut s = Scrambler::new();
        b.iter(|| {
            for (o, &w) in out.iter_mut().zip(&words) {
                *o = s.scramble_word(w);
            }
            out[out.len() - 1]
        })
    });
    g.bench_function("descramble_32kB", |b| {
        let mut s = Scrambler::new();
        b.iter(|| {
            for (o, &w) in out.iter_mut().zip(&words) {
                *o = s.descramble_word(w);
            }
            out[out.len() - 1]
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
    targets = bench_gearbox, bench_f19_epoch, bench_crc, bench_payload, bench_striping, bench_scrambler
}
criterion_main!(benches);
