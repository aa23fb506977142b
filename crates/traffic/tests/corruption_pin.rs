//! Which bits F19's corruption pass flips, pinned end to end.
//!
//! Step 4 of `LinkHarness::step` flips one FNV-chosen bit in each of a
//! set of evenly spaced victim words. A change that keeps the flip count
//! but moves a flip — to another word, or to another bit of the same
//! word — changes which frames fail their CRC or lose framing, so it
//! shows in the rollups below. The fault rate is high enough that every
//! run sees BER elevations on several channels.

use mosaic_sim::digest::Fnv1a;
use mosaic_traffic::{run_seed, LinkHarness, Policy, TrafficConfig};

/// FNV-1a over the rollup fingerprint and transition count of every
/// (policy, run) pair of a small high-BER point.
fn corruption_digest() -> u64 {
    let mut h = Fnv1a::sim();
    for policy in [
        Policy::Static,
        Policy::Controller,
        Policy::ControllerHitless,
    ] {
        let cfg = TrafficConfig {
            epochs: 96,
            faults_per_kilo_epoch: 60.0,
            permanent_fraction: 0.0,
            max_fault_duration: 16,
            policy,
            ..TrafficConfig::default()
        };
        for run in 0..6 {
            let mut link = LinkHarness::try_new(cfg, run_seed(0xC0440B, run)).unwrap();
            let rollup = link.run_to_completion();
            assert!(rollup.balanced());
            h.u64(rollup.fingerprint())
                .u64(rollup.corrupt_frames)
                .u64(link.transitions().len() as u64);
        }
    }
    h.finish()
}

#[test]
fn corruption_pass_flips_the_pinned_bits() {
    assert_eq!(corruption_digest(), 8339932216962788091);
}
