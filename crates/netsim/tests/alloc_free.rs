//! Proof of the "allocation-free inner event loops" claim for the
//! hyperfleet engine: a counting global allocator wraps the system
//! allocator, and `drain_hard_failures`, `FaultCampaign::generate_into`
//! and `replay_fault_window` must not touch it once their queue,
//! campaign buffer and controller state are warmed — at 10⁶+ links every
//! shard streams through these, so a single per-link allocation would
//! dominate the run.
//!
//! Cross-checked against the `// lint: no-alloc` markers citing it (the
//! sim- and fec-side twins are `crates/sim/tests/alloc_free.rs` and
//! `crates/fec/tests/alloc_free.rs`). Everything runs in a single
//! `#[test]` so no concurrent test can pollute the process-wide
//! counter.

use mosaic_link::degrade::DegradeController;
use mosaic_netsim::failure_sim::ClassFailureProcess;
use mosaic_netsim::hyperfleet::{self, HardFailTally, BITS_PER_EPOCH};
use mosaic_sim::event::EventQueue;
use mosaic_sim::faults::{CampaignConfig, FaultCampaign};
use mosaic_sim::rng::DetRng;
use mosaic_units::Fit;
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
fn hyperfleet_event_loops_do_not_allocate() {
    // --- Hard-failure stream: the queue holds at most one pending event,
    //     so a with_capacity(2) queue never regrows ----------------------
    let mut queue = EventQueue::<()>::with_capacity(2);
    let mut rng = DetRng::substream(11, "alloc-free-hardfail");
    let process = ClassFailureProcess::new(Fit::new(2000.0), 4096);
    let mut tally = HardFailTally::default();
    // Warm-up: one full drain before the first counter read, so the
    // libtest harness's own startup allocations cannot race the
    // measurement.
    hyperfleet::drain_hard_failures(
        &mut queue, &mut rng, process, 26280.0, 8.0, 800.0, &mut tally,
    );
    std::thread::sleep(std::time::Duration::from_millis(20));
    let n = allocs_during(|| {
        for _ in 0..8 {
            hyperfleet::drain_hard_failures(
                &mut queue, &mut rng, process, 26280.0, 8.0, 800.0, &mut tally,
            );
        }
    });
    assert_eq!(n, 0, "drain_hard_failures allocated {n} times");
    assert!(tally.tickets > 0, "the stream must have drawn failures");

    // --- Fault-window replay: controller containers (lane map, health
    //     histories, transition log) reach steady capacity on the first
    //     replay; reset() keeps the storage, so an identical replay is
    //     allocation-free -----------------------------------------------
    let mut ctl =
        DegradeController::try_new(10, 12, hyperfleet::degrade_policy()).expect("valid geometry");
    let campaign = FaultCampaign::generate(
        CampaignConfig {
            channels: 12,
            epochs: 2000,
            faults_per_kilo_epoch: 2.0,
            max_duration: 24,
            permanent_fraction: 0.25,
        },
        0x5eed,
    );
    let events = campaign.events();
    assert!(!events.is_empty(), "campaign must have drawn faults");
    hyperfleet::replay_fault_window(&mut ctl, events, 0, 1999, 0, BITS_PER_EPOCH);
    let warm_transitions = ctl.transitions().len();
    ctl.reset();
    let n = allocs_during(|| {
        hyperfleet::replay_fault_window(&mut ctl, events, 0, 1999, 0, BITS_PER_EPOCH);
    });
    assert_eq!(n, 0, "replay_fault_window allocated {n} times");
    // The replay is deterministic: the warmed capacities were exactly
    // refilled, so the zero count above measured real controller work.
    assert_eq!(ctl.transitions().len(), warm_transitions);
    assert!(
        warm_transitions > 0,
        "the replay must have driven the controller"
    );

    // --- Generate-then-replay, as a shard runs its links: one campaign
    //     buffer regenerated in place per link, then its fault windows
    //     replayed on the reset controller. A first pass over the same
    //     link seeds warms the buffer and the transition log to their
    //     largest sizes; the second pass must not allocate -------------
    let camp_cfg = CampaignConfig {
        channels: 12,
        epochs: 26280,
        faults_per_kilo_epoch: 0.05,
        max_duration: 24,
        permanent_fraction: 0.25,
    };
    let mut campaign = FaultCampaign::default();
    let links = DetRng::substreams(11, "alloc-free-links");
    let run_links = |campaign: &mut FaultCampaign, ctl: &mut DegradeController| {
        let mut events = 0usize;
        for id in 0..64 {
            campaign.generate_into(camp_cfg, links.child(id).next_u64());
            events += campaign.events().len();
            ctl.reset();
            for ev in campaign.events() {
                let to = (ev.start + 28).min(camp_cfg.epochs - 1);
                hyperfleet::replay_fault_window(
                    ctl,
                    campaign.events(),
                    ev.start,
                    to,
                    0,
                    BITS_PER_EPOCH,
                );
            }
        }
        events
    };
    let warm_events = run_links(&mut campaign, &mut ctl);
    assert!(warm_events > 64, "the links must have drawn faults");
    let n = allocs_during(|| {
        assert_eq!(run_links(&mut campaign, &mut ctl), warm_events);
    });
    assert_eq!(
        n, 0,
        "generate_into + replay_fault_window allocated {n} times"
    );
}
