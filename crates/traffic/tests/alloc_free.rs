//! Proof that the steady-state harness epoch loop is allocation-free: a
//! counting global allocator wraps the system allocator and
//! [`LinkHarness::step`] must not touch it once its buffers are warmed,
//! nor [`Workload::payload_into`] appending to a warm arena.
//! This is the lint R4 harness the traffic crate's `no-alloc` markers
//! cite; the link- and sim-side twins are
//! `crates/link/tests/alloc_free.rs` and `crates/sim/tests/alloc_free.rs`.
//!
//! Everything runs in a single `#[test]` so no concurrent test can
//! pollute the process-wide counter.

use mosaic_traffic::{FrameSpec, LinkHarness, Policy, TrafficConfig, Workload};
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
fn harness_epoch_loop_does_not_allocate() {
    // A clean campaign isolates the steady-state data path (controller
    // transitions are rare cold-path events and may grow their log).
    let cfg = TrafficConfig {
        epochs: 10_000,
        faults_per_kilo_epoch: 0.0,
        policy: Policy::ControllerHitless,
        ..TrafficConfig::default()
    };
    let mut h = LinkHarness::try_new(cfg, 99).unwrap();

    // Warm-up: enough epochs for every reused buffer — arena, queue,
    // emission buffer, gearbox scratch, channel streams — to reach its
    // working-set high-water mark across all workload burst phases (the
    // mixed workload's burst pattern repeats every 8 epochs). Runs
    // before the first counter read so libtest startup allocations
    // cannot race the measurement.
    for _ in 0..64 {
        h.step();
    }
    assert!(h.rollup().delivered > 0, "warm-up delivered nothing");
    std::thread::sleep(std::time::Duration::from_millis(20));

    let n = allocs_during(|| {
        for _ in 0..128 {
            h.step();
        }
    });
    assert_eq!(n, 0, "harness epoch loop allocated {n} times");

    // The loop did real work while staying allocation-free.
    let r = h.rollup();
    assert!(r.offered > 500, "offered only {}", r.offered);
    assert_eq!(r.delivered, r.offered - h.in_flight());
    assert!(h.conservation_holds());

    // The payload kernel on its own: 96 frames of 1 to 666 bytes (every
    // tail length of its lane rounds), into one warm arena cleared per
    // pass as the harness clears its own each epoch.
    let specs: Vec<FrameSpec> = (0..96u32)
        .map(|i| FrameSpec {
            flow: i % 8,
            flow_seq: i,
            size: 1 + 7 * i as usize,
            emitted: 0,
            deadline: 12,
        })
        .collect();
    let total: usize = specs.iter().map(|s| s.size).sum();
    let mut arena = Vec::with_capacity(total);
    let fill = |arena: &mut Vec<u8>| {
        arena.clear();
        for spec in &specs {
            std::hint::black_box(Workload::payload_into(spec, arena));
        }
    };
    fill(&mut arena);
    std::thread::sleep(std::time::Duration::from_millis(20));

    let n = allocs_during(|| {
        for _ in 0..64 {
            fill(&mut arena);
        }
    });
    assert_eq!(n, 0, "payload_into allocated {n} times");
    assert_eq!(arena.len(), total);
}
