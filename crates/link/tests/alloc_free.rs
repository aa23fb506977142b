//! Proof of the "zero heap allocations per traffic epoch" claim for the
//! gearbox scratch-reuse pair: a counting global allocator wraps the
//! system allocator, and `transmit_into` / `receive_into` (plus the
//! CRC, framing and the shared stripe/deskew kernels underneath them)
//! must not touch it once their buffers are warmed. The degrade
//! controller's per-epoch calls (`LaneHealth::record`,
//! `DegradeController::step`) are held to the same rule.
//!
//! The sim-side twin is `crates/sim/tests/alloc_free.rs`; both harnesses
//! are cross-checked against the `// lint: no-alloc` markers citing them.
//! Everything runs in a single `#[test]` so no concurrent test can
//! pollute the process-wide counter.

use mosaic_link::degrade::{DegradeConfig, DegradeController};
use mosaic_link::framing::{self, frame_into, parse_frame};
use mosaic_link::gearbox::{scan_frames_into, Gearbox, RxBatch, RxScratch, TxScratch};
use mosaic_link::lanes::LaneHealth;
use mosaic_link::striping::{self, DeskewScratch, LaneWord, StripeConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations observed while running `f`.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    f();
    ALLOC_CALLS.load(Ordering::Relaxed) - before
}

#[test]
fn gearbox_epoch_loop_does_not_allocate() {
    let mut tx = Gearbox::new(8, 10, 16);
    let mut rx = Gearbox::new(8, 10, 16);
    let mut tx_scratch = TxScratch::default();
    let mut rx_scratch = RxScratch::default();
    let mut channels: Vec<Vec<LaneWord>> = Vec::new();
    let mut batch = RxBatch::default();
    let data: Vec<Vec<u8>> = (0..24)
        .map(|i| (0..180).map(|j| ((i * 31 + j * 7) & 0xFF) as u8).collect())
        .collect();
    let refs: Vec<&[u8]> = data.iter().map(|p| p.as_slice()).collect();

    // Warm-up: one full epoch grows every buffer to its working set (and
    // runs before the first counter read, so the libtest harness's own
    // startup allocations cannot race the measurement).
    tx.transmit_into(&refs, &mut tx_scratch, &mut channels);
    rx.receive_into(&channels, &mut rx_scratch, &mut batch)
        .unwrap();
    assert_eq!(batch.frames.len(), 24);
    std::thread::sleep(std::time::Duration::from_millis(20));

    // --- Steady-state epochs: the full TX→RX loop is allocation-free ----
    let mut delivered = 0usize;
    let n = allocs_during(|| {
        for _ in 0..16 {
            tx.transmit_into(&refs, &mut tx_scratch, &mut channels);
            rx.receive_into(&channels, &mut rx_scratch, &mut batch)
                .unwrap();
            delivered += batch.frames.len();
            for i in 0..batch.frames.len() {
                delivered += usize::from(!batch.payload(i).is_empty());
            }
        }
    });
    assert_eq!(n, 0, "gearbox epoch loop allocated {n} times");
    assert_eq!(delivered, 16 * 24 * 2);

    // --- Framing helpers on warmed buffers ------------------------------
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    let mut seqs = 0u64;
    let n = allocs_during(|| {
        for round in 0..32u32 {
            buf.clear();
            for s in 0..8 {
                frame_into(round * 8 + s, &data[s as usize], &mut buf);
            }
            let mut pos = 0usize;
            while pos < buf.len() {
                let total = 14 + 180;
                let (seq, payload) = parse_frame(&buf[pos..pos + total]).unwrap();
                seqs += u64::from(seq) + payload.len() as u64;
                pos += total;
            }
        }
    });
    assert_eq!(n, 0, "framing helpers allocated {n} times");
    assert!(seqs > 0);

    // --- The shared stripe/deskew kernels and the CRC, called directly --
    let cfg = StripeConfig::try_new(8, 16).unwrap();
    let assignment: Vec<usize> = vec![0, 1, 2, 9, 4, 5, 6, 7];
    let words: Vec<u64> = (0..3 * 128).map(|i| i * 0x9E37_79B9).collect();
    let mut lanes: Vec<Vec<LaneWord>> = vec![Vec::new(); 12];
    let mut deskew = DeskewScratch::default();
    let mut out: Vec<u64> = Vec::new();
    let mut marker_seq = 0u32;
    let mut kernels = || {
        for lane in lanes.iter_mut() {
            lane.clear();
        }
        striping::stripe_mapped(cfg, &mut marker_seq, &words, 0, &assignment, &mut lanes);
        striping::deskew_mapped(cfg, &lanes, &assignment, &mut deskew, &mut out).unwrap();
        u64::from(framing::crc32(&data[0])) + out.len() as u64
    };
    seqs += kernels();
    let n = allocs_during(|| {
        for _ in 0..16 {
            seqs += kernels();
        }
    });
    assert_eq!(n, 0, "stripe/deskew kernels or crc32 allocated {n} times");
    assert_eq!(out, words);

    // --- Frame scanning into a warmed slot buffer -----------------------
    let mut slots = Vec::with_capacity(64);
    let n = allocs_during(|| {
        for _ in 0..16 {
            let corrupt = scan_frames_into(&batch.bytes, &mut slots);
            seqs += slots.len() as u64 + corrupt as u64;
        }
    });
    assert_eq!(n, 0, "scan_frames_into allocated {n} times");

    // Keep the accumulators live so nothing above is optimized away.
    assert!(seqs > 0, "scans must have recovered frames (seqs {seqs})");

    // --- The BER monitor: records within, across and over windows -------
    let mut health = LaneHealth::new(4096, 4);
    let n = allocs_during(|| {
        for i in 0..256u64 {
            health.record(1000 + 97 * (i % 50), i % 7);
        }
    });
    assert_eq!(n, 0, "LaneHealth::record allocated {n} times");
    assert!(health.degraded(0.0));

    // --- The degrade controller: every channel recorded each epoch (as
    // `FaultedLink` does), a drifting lane, dead marks, spares running
    // dry. The first pass grows the transition log; `reset` keeps it.
    let mut ctl = DegradeController::try_new(10, 12, DegradeConfig::default()).unwrap();
    let run = |ctl: &mut DegradeController| {
        for epoch in 0..300 {
            for ch in 0..12 {
                let errors = if ch == 3 && epoch > 10 { 2 } else { 0 };
                ctl.record(ch, 4096, errors);
            }
            if let Some(&dead) = [7usize, 11, 0, 5].get(epoch / 20) {
                ctl.mark_dead(dead);
            }
            ctl.step();
        }
    };
    run(&mut ctl);
    let warm = ctl.transitions().to_vec();
    let n = allocs_during(|| {
        ctl.reset();
        run(&mut ctl);
    });
    assert_eq!(n, 0, "DegradeController::step allocated {n} times");
    assert_eq!(ctl.transitions(), &warm[..]);
    assert!(ctl.lost_lanes() > 0 && ctl.spares_activated() == 2);
}
