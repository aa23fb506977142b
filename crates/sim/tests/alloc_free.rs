//! Proof of the "zero heap allocations per Monte-Carlo inner loop" claim
//! for the bit-sliced kernels: a counting global allocator wraps the
//! system allocator, and the sliced slicer, injector, scrambler and
//! raw-draw hot paths (the many-key first draws included) must not touch
//! it once their buffers are warmed.
//!
//! The fec-side twin is `crates/fec/tests/alloc_free.rs`; both harnesses
//! are cross-checked against the `// lint: no-alloc` markers citing them.
//! Everything runs in a single `#[test]` so no concurrent test can
//! pollute the process-wide counter.

use mosaic_link::scrambler::Scrambler;
use mosaic_link::striping::LaneWord;
use mosaic_sim::inject::BitErrorInjector;
use mosaic_sim::montecarlo::SlicerPoint;
use mosaic_sim::rng::DetRng;
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
fn sliced_kernel_paths_do_not_allocate() {
    // --- OOK slicer: packed tx/decision arrays live on the stack --------
    let point = SlicerPoint {
        i1: 1.0e-5,
        i0: 1.0e-6,
        s1: 3.0e-6,
        s0: 2.0e-6,
        threshold: 4.6e-6,
    };
    let mut rng = DetRng::substream(3, "alloc-free-slicer");
    let mut total = 0u64;
    // Warm-up: one pass through the slicer before the first counter read,
    // so the libtest harness's own startup allocations (made from its
    // main thread while this test begins) cannot race the measurement.
    total += point.count_errors(4096, &mut rng);
    std::thread::sleep(std::time::Duration::from_millis(20));
    // Boundary bit counts: tail blocks must not fall back to heap scratch.
    let n = allocs_during(|| {
        for bits in [1u64, 63, 64, 65, 1024, 100_000] {
            total += point.count_errors(bits, &mut rng);
            total += point.count_errors_scalar(bits, &mut rng);
        }
    });
    assert_eq!(n, 0, "slicer kernels allocated {n} times");

    // --- Bit-error injector: batched word and symbol corruption ---------
    let mut inj = BitErrorInjector::new(1e-3, DetRng::substream(3, "alloc-free-inject"));
    let mut words = vec![0u64; 1024];
    let mut symbols = vec![0u16; 4096];
    let n = allocs_during(|| {
        for _ in 0..8 {
            total += inj.corrupt_words(&mut words);
            total += inj.corrupt_words_scalar(&mut words);
            total += inj.corrupt_symbols(&mut symbols, 10);
        }
    });
    assert_eq!(n, 0, "injector kernels allocated {n} times");

    // --- Lane corruption: the run-gathering buffer is a stack array -----
    let mut lane: Vec<LaneWord> = (0..512)
        .map(|i| {
            if i % 33 == 0 {
                LaneWord::Marker(i as u32)
            } else {
                LaneWord::Data(i as u64)
            }
        })
        .collect();
    let n = allocs_during(|| {
        for _ in 0..8 {
            total += inj.corrupt_lane(&mut lane);
        }
    });
    assert_eq!(n, 0, "lane corruption allocated {n} times");

    // --- Scrambler: pure register arithmetic ----------------------------
    let mut tx = Scrambler::new();
    let mut rx = Scrambler::new();
    let n = allocs_during(|| {
        for i in 0..512u64 {
            let w = tx.scramble_word(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            total += u64::from(rx.descramble_word(w).count_ones());
        }
    });
    assert_eq!(n, 0, "scrambler word kernels allocated {n} times");

    // --- Raw-draw primitives: slab fill, packed thinning, first draws ---
    let mut slab64 = [0u64; 3 * 256];
    let thin = mosaic_sim::rng::Bernoulli::new(0.125);
    let family = DetRng::substreams(3, "alloc-free-first-draws");
    let n = allocs_during(|| {
        for i in 0..64 {
            rng.fill_u64(&mut slab64);
            total += slab64
                .iter()
                .map(|w| u64::from(w.count_ones()))
                .sum::<u64>();
            total += u64::from(thin.at_most(640, 3, &mut rng));
            let firsts: [u64; 16] = family.first_draws(i * 16);
            total += firsts
                .iter()
                .map(|w| u64::from(w.count_ones()))
                .sum::<u64>();
        }
    });
    assert_eq!(n, 0, "raw-draw primitives allocated {n} times");

    // Keep the accumulator live so nothing above is optimized away.
    assert!(
        total > 0,
        "kernels must have done real work (total {total})"
    );
}
