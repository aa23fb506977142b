//! Every workload at its tiny size: outputs pass their checks, the
//! digest is the same on two invocations, and the traced run reproduces
//! the untraced digest.

use mosaic_benchmark::metrics::PER_LAYER;
use mosaic_benchmark::runner::run_workload;
use mosaic_benchmark::{Size, WORKLOADS};

#[test]
fn every_workload_is_stable_and_traced_runs_reproduce_it() {
    for w in WORKLOADS {
        let a = run_workload(w, 7, Size::Tiny, 0.0, false).unwrap();
        let b = run_workload(w, 7, Size::Tiny, 0.0, false).unwrap();
        let traced = run_workload(w, 7, Size::Tiny, 0.0, true).unwrap();
        for r in [&a, &b, &traced] {
            assert_eq!(r.checks.failed, 0, "{w}: {:?}", r.checks.failures);
            assert!(r.checks.attempted > 0, "{w}: nothing checked");
        }
        assert_eq!(
            a.digest, b.digest,
            "{w}: digest differs between invocations"
        );
        assert_eq!(a.digest, traced.digest, "{w}: traced digest differs");
        assert!(!traced.tracer.spans().is_empty(), "{w}: no spans recorded");
        for (name, v) in &traced.metrics {
            assert!(
                PER_LAYER.iter().any(|m| m.name == *name),
                "{w}: unknown {name}"
            );
            assert!(v.is_finite(), "{w}: {name} = {v}");
        }
        for (name, v) in &a.metrics {
            assert!(*v > 0.0, "{w}: {name} = {v}");
        }
    }
}

#[test]
fn a_seed_changes_the_inputs() {
    for w in ["traffic_clean", "traffic_faults", "fleet"] {
        let a = run_workload(w, 1, Size::Tiny, 0.0, false).unwrap();
        let b = run_workload(w, 2, Size::Tiny, 0.0, false).unwrap();
        assert_ne!(a.digest, b.digest, "{w}: seed ignored");
    }
}
