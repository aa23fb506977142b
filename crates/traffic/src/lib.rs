//! Live-traffic resilience over the Mosaic gearbox.
//!
//! This crate closes the loop between the link pipeline and the fault
//! machinery: deterministic packet workloads ([`workload`]) ride the
//! gearbox epoch by epoch through a discrete-event harness ([`harness`])
//! while a seeded fault campaign corrupts and kills physical channels
//! and a live degrade controller spares around them — including a
//! hitless-reconfiguration protocol (drain/pause/replay) that keeps
//! lane-map changes from costing retransmit budget. Exact-integer
//! accounting ([`rollup`]) and checkpointable multi-run sweeps
//! ([`sweep`]) make every number thread- and resume-invariant; the F19
//! experiment builds its goodput and tail-latency curves on top.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod rollup;
pub mod sweep;
pub mod workload;

pub use harness::{
    policy_tag, traffic_degrade_config, LinkHarness, Policy, TrafficConfig, MAX_BATCH,
};
pub use rollup::{TrafficRollup, LAT_BUCKETS};
pub use sweep::{point_digest, run_one, run_point, run_point_with, run_seed, RUNS_PER_BATCH};
pub use workload::{kind_tag, FrameSpec, Workload, WorkloadConfig, WorkloadKind};

/// Crate result alias (re-exported from `mosaic-units`).
pub use mosaic_units::{MosaicError, Result};
