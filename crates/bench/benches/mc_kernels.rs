//! Criterion benches: the allocation-free Monte-Carlo kernels against
//! their allocating predecessors.
//!
//! Three comparisons, one per rewritten kernel:
//!   * RS decode through a reused [`DecodeScratch`] vs the
//!     allocate-per-word `decode` wrapper (corrected and clean words —
//!     the clean case isolates the fused Horner syndrome early exit);
//!   * symbol-domain error injection (`corrupt_symbols`) vs the
//!     serialize → `corrupt_bits` → reassemble round trip;
//!   * the end-to-end coded-channel step (`run_rs_channel_with`), whose
//!     wall time is what the manifest perf gate tracks.
//!
//! The `hyperfleet` group times F18's per-link pieces one by one: a
//! 12-channel campaign regenerated in place (the benchmark's
//! `sim.campaign_generate_ns`) and one fault window replayed on a reset
//! controller (`link.degrade_replay_ns_per_window`). A link seed keyed
//! on its own is `rng/child_next_u64_x16` / 16.
//!
//! The `campaign` group times F18's whole per-link campaign work as
//! `hyperfleet::run_shard` does it: 16 link seeds keyed in one batch,
//! then each link's 12-channel campaign regenerated in place (ns/link =
//! time / 16).
//!
//! The `rng` group times the per-draw cost under F4, F6 and F15: 64
//! words from a long stream, in bulk and one `next_u64` at a time
//! (ns/u64 = time / 64), F6's 432-channel pool with 4 spares through
//! `Bernoulli::at_most` (ns/draw = time / 432), and 4096 slicer bits at
//! F4's −30 and −26 dBm points (ns/bit = time / 4096). It also times the
//! first draw of 16 fresh streams, keyed in one many-key batch
//! (`first_draws_16`) and one by one (`child_next_u64_x16`), in ns/stream
//! = time / 16.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mosaic_fec::{DecodeScratch, ReedSolomon};
use mosaic_link::degrade::DegradeController;
use mosaic_netsim::hyperfleet::{self, BITS_PER_EPOCH};
use mosaic_phy::ber::OokReceiver;
use mosaic_phy::noise::NoiseBudget;
use mosaic_phy::photodiode::Photodiode;
use mosaic_phy::tia::Tia;
use mosaic_sim::faults::{CampaignConfig, FaultCampaign};
use mosaic_sim::inject::BitErrorInjector;
use mosaic_sim::montecarlo::{run_rs_channel_with, SlicerPoint};
use mosaic_sim::rng::{Bernoulli, DetRng};
use mosaic_sim::sweep::Exec;
use mosaic_units::Power;

fn bench_scratch_decode(c: &mut Criterion) {
    let mut g = c.benchmark_group("rs_scratch_decode");
    g.sample_size(20);
    let rs = ReedSolomon::kp4();
    let data: Vec<u16> = (0..rs.k() as u16).map(|v| v & 0x3FF).collect();
    let clean = rs.encode(&data);
    let mut corrupted = clean.clone();
    for i in 0..rs.t() / 2 {
        corrupted[i * 37 % rs.n()] ^= 0x155;
    }
    g.throughput(Throughput::Elements((rs.k() as u64) * 10));
    for (case, word) in [("t_half", &corrupted), ("clean", &clean)] {
        g.bench_with_input(BenchmarkId::new("alloc_per_word", case), word, |b, w| {
            b.iter(|| {
                let mut word = w.clone();
                rs.decode(&mut word)
            });
        });
        g.bench_with_input(BenchmarkId::new("scratch", case), word, |b, w| {
            let mut scratch = DecodeScratch::new();
            let mut word = w.clone();
            b.iter(|| {
                word.copy_from_slice(w);
                rs.decode_scratch(&mut word, &mut scratch)
            });
        });
    }
    g.finish();
}

fn bench_corrupt_symbols(c: &mut Criterion) {
    let mut g = c.benchmark_group("error_injection_symbols");
    g.sample_size(20);
    let rs = ReedSolomon::kp4();
    let m = rs.symbol_bits();
    let data: Vec<u16> = (0..rs.k() as u16).map(|v| v & 0x3FF).collect();
    let clean = rs.encode(&data);
    let ber = 1e-3;
    g.throughput(Throughput::Elements(rs.n() as u64 * m as u64));
    g.bench_function("serialize_round_trip", |b| {
        let mut inj = BitErrorInjector::new(ber, DetRng::new(7));
        b.iter(|| {
            let mut bits: Vec<u8> = Vec::with_capacity(rs.n() * m as usize);
            for &s in &clean {
                for bit in 0..m {
                    bits.push(((s >> bit) & 1) as u8);
                }
            }
            inj.corrupt_bits(&mut bits);
            let word: Vec<u16> = bits
                .chunks(m as usize)
                .map(|chunk| {
                    chunk
                        .iter()
                        .enumerate()
                        .fold(0u16, |acc, (i, &b)| acc | ((b as u16) << i))
                })
                .collect();
            word
        });
    });
    g.bench_function("corrupt_symbols", |b| {
        let mut inj = BitErrorInjector::new(ber, DetRng::new(7));
        let mut word = clean.clone();
        b.iter(|| {
            word.copy_from_slice(&clean);
            inj.corrupt_symbols(&mut word, m)
        });
    });
    g.finish();
}

fn bench_rs_channel(c: &mut Criterion) {
    let mut g = c.benchmark_group("rs_channel");
    g.sample_size(10);
    let rs = ReedSolomon::new(8, 31, 23);
    let exec = Exec::with_threads(1);
    g.throughput(Throughput::Elements(200));
    g.bench_function("run_rs_channel_200w", |b| {
        b.iter(|| run_rs_channel_with(&exec, &rs, 2e-2, 200, 11));
    });
    g.finish();
}

fn bench_hyperfleet(c: &mut Criterion) {
    let mut g = c.benchmark_group("hyperfleet");
    // F18's Mosaic class: 12 supervisory groups over 3 years of hourly
    // epochs at its channel-fault rate.
    let camp = CampaignConfig {
        channels: 12,
        epochs: 26_280,
        faults_per_kilo_epoch: 0.004,
        max_duration: 24,
        permanent_fraction: 0.25,
    };
    let links = DetRng::substreams(0xF18, "bench-hyperfleet-link");
    g.bench_function("generate_into_12ch", |b| {
        let mut campaign = FaultCampaign::default();
        let mut id = 0u64;
        b.iter(|| {
            id += 1;
            campaign.generate_into(camp, id);
            campaign.events().len()
        });
    });
    // The first link whose campaign draws a fault, and the longest
    // window hyperfleet opens for a fault: 16 epochs of active replay
    // plus the controller's settling tail.
    let campaign = (0..)
        .map(|id| FaultCampaign::generate(camp, links.child(id).next_u64()))
        .find(|c| !c.events().is_empty())
        .expect("some link draws a fault");
    let first = campaign.events()[0];
    let policy = hyperfleet::degrade_policy();
    let tail = policy.suspect_dwell_limit + policy.clear_epochs + 2;
    let to = (first.start + 16 + tail).min(camp.epochs - 1);
    let mut ctl = DegradeController::try_new(10, 12, policy).expect("valid geometry");
    g.bench_function("replay_window", |b| {
        b.iter(|| {
            ctl.reset();
            hyperfleet::replay_fault_window(
                &mut ctl,
                campaign.events(),
                first.start,
                to,
                0,
                BITS_PER_EPOCH,
            );
            ctl.transitions().len()
        });
    });
    g.finish();
}

fn bench_campaign(c: &mut Criterion) {
    let mut g = c.benchmark_group("campaign");
    // F18's full-mode Mosaic class: 12 supervisory groups over 3 years
    // of hourly epochs at its channel-fault rate.
    let camp = CampaignConfig {
        channels: 12,
        epochs: 26_280,
        faults_per_kilo_epoch: 0.004,
        max_duration: 24,
        permanent_fraction: 0.25,
    };
    let links = DetRng::substreams(0xF18, "bench-campaign-link");
    let mut campaign = FaultCampaign::default();
    let mut first = 0u64;
    g.throughput(Throughput::Elements(16));
    g.bench_function("generate_fleet_link", |b| {
        b.iter(|| {
            let seeds: [u64; 16] = links.first_draws(first);
            first += 16;
            seeds.iter().fold(0usize, |events, &seed| {
                campaign.generate_into(camp, seed);
                events + campaign.events().len()
            })
        });
    });
    g.finish();
}

fn bench_rng(c: &mut Criterion) {
    let mut g = c.benchmark_group("rng");
    // A stream past its one-block refills, so every buffer is a
    // lane-sliced one, as in a Monte-Carlo slab.
    let mut rng = DetRng::new(0xF4);
    let mut slab = [0u64; 64];
    rng.fill_u64(&mut slab);
    g.throughput(Throughput::Elements(64));
    g.bench_function("fill_u64_64", |b| {
        b.iter(|| {
            rng.fill_u64(&mut slab);
            slab[63]
        });
    });
    g.bench_function("next_u64_64", |b| {
        b.iter(|| (0..64).fold(0u64, |acc, _| acc ^ rng.next_u64()));
    });
    // Sixteen fresh streams read once each, as F18 reads its link seeds
    // and its channels' first arrivals: one many-key pass against
    // sixteen generators keyed one by one.
    let family = DetRng::substreams(0xF18, "bench-first-draws");
    let mut first = 0u64;
    g.throughput(Throughput::Elements(16));
    g.bench_function("first_draws_16", |b| {
        b.iter(|| {
            let draws: [u64; 16] = family.first_draws(first);
            first += 16;
            draws.iter().fold(0u64, |acc, &d| acc ^ d)
        });
    });
    g.bench_function("child_next_u64_x16", |b| {
        b.iter(|| {
            let acc = (first..first + 16).fold(0u64, |acc, id| acc ^ family.child(id).next_u64());
            first += 16;
            acc
        });
    });
    // F6's pool: 428 active channels plus 4 spares, each failing within
    // the 7-year horizon with F6's probability (about 1.3e-3), so nearly
    // every pool walks all 432 draws.
    let fail = Bernoulli::new(1.3e-3);
    g.throughput(Throughput::Elements(432));
    g.bench_function("at_most_432_4", |b| {
        b.iter(|| fail.at_most(432, 4, &mut rng));
    });
    // F4's 2 Gb/s receiver at the waterfall's first and last measured
    // points: most bits need the Box–Muller transform at −30 dBm, almost
    // none at −26 dBm.
    let tia = Tia::low_speed(2.0);
    let rx = OokReceiver {
        pd: Photodiode::silicon_blue(),
        noise: NoiseBudget {
            thermal_a: tia.rms_noise_current(),
            bandwidth: tia.bandwidth,
            rin_db_per_hz: None,
        },
        extinction_ratio: 6.0,
    };
    g.throughput(Throughput::Elements(4096));
    for dbm in [-30.0, -26.0] {
        let point = SlicerPoint::of(&rx, Power::from_dbm(dbm));
        g.bench_with_input(
            BenchmarkId::new("count_errors_4096", format!("{dbm}dBm")),
            &point,
            |b, p| b.iter(|| p.count_errors(4096, &mut rng)),
        );
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
    targets = bench_scratch_decode, bench_corrupt_symbols, bench_rs_channel, bench_hyperfleet, bench_campaign, bench_rng
}
criterion_main!(benches);
