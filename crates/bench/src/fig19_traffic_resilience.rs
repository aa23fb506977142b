//! F19 — Live-traffic resilience (claims C3/C5 at the packet level):
//! goodput and tail-latency SLOs for deterministic datacenter workloads
//! riding the gearbox through seeded fault campaigns, under three
//! lane-map policies — a static map, the live degrade controller, and
//! the controller with the hitless drain/pause/replay protocol.
//!
//! F11/F17 measure the *link* under faults; F19 measures the *traffic*:
//! incast, all-reduce, multicast, and Poisson flows with per-frame
//! deadlines and bounded retransmit budgets, every frame accounted for
//! (`delivered + expired + exhausted = offered`, checked per point).
//! All three policies face bit-identical campaigns and offered loads at
//! each fault rate, so the columns are directly comparable. Lost frames
//! are charged to the latency histogram's top bucket, so the p99/p999
//! columns punish loss instead of rewarding policies that drop their
//! slowest frames.
//!
//! Multi-run points fold through `TrialPlan` with per-batch checkpoints
//! (`MOSAIC_STOP_AFTER_BATCHES` in the standalone binary is the
//! kill/resume drill hook); exact-integer rollup merges make the table
//! bit-identical at any thread count and across any kill/resume
//! schedule.

use crate::cells;
use crate::runcfg;
use crate::table::Table;
use mosaic_sim::checkpoint::FileStore;
use mosaic_sim::sweep::{Exec, RunStats};
use mosaic_sim::telemetry::{self, Stopwatch};
use mosaic_traffic::{policy_tag, run_point_with, Policy, TrafficConfig, LAT_BUCKETS};

const SEED: u64 = 19;

/// Mean fault arrivals per channel per 1000 epochs, zero (clean
/// baseline) through the harshest rate at which the hitless protocol
/// still holds its SLO.
const RATES: [f64; 4] = [0.0, 0.5, 2.0, 4.0];

const POLICIES: [Policy; 3] = [
    Policy::Static,
    Policy::Controller,
    Policy::ControllerHitless,
];

/// Checkpoints live next to the run_all manifest fragments, under the
/// same clear-on-fresh-start / clear-on-completion discipline.
const CHECKPOINT_DIR: &str = "results/manifests/fragments";

fn config(rate: f64, policy: Policy) -> TrafficConfig {
    TrafficConfig {
        epochs: if runcfg::quick() { 240 } else { 400 },
        faults_per_kilo_epoch: rate,
        permanent_fraction: 0.4,
        policy,
        ..TrafficConfig::default()
    }
}

fn runs() -> u64 {
    if runcfg::quick() {
        8
    } else {
        16
    }
}

/// Render a latency-percentile bucket: whole epochs, or "lost" when the
/// percentile frame never arrived.
fn bucket_label(b: usize) -> String {
    if b == LAT_BUCKETS - 1 {
        "lost".to_string()
    } else {
        format!("{b}")
    }
}

/// Run the experiment, executing at most `stop_after_batches` sweep
/// batches per point this invocation. `None` output means the run
/// stopped early with its checkpoints on disk — rerunning (same mode,
/// same config) resumes and completes byte-identically.
pub fn run_with_stop(stop_after_batches: Option<u64>) -> Option<String> {
    let exec = Exec::from_env();
    let start = Stopwatch::start();
    let runs = runs();
    let mut out = format!(
        "F19: live-traffic resilience — mixed workload ({} runs/point, {} epochs, \
         8→12 lanes, deadline {} epochs, retransmit budget {})\n",
        runs,
        config(0.0, Policy::Static).epochs,
        TrafficConfig::default().workload.deadline_epochs,
        TrafficConfig::default().retransmit_budget,
    );
    let mut t = Table::new(&[
        "faults/kilo-epoch",
        "policy",
        "goodput",
        "p99 lat",
        "p999 lat",
        "expired",
        "exhausted",
        "retried",
        "remaps",
        "pauses",
        "lanes lost",
    ]);
    let mut total_runs = 0u64;
    let mut goodput = vec![Vec::new(); POLICIES.len()];
    let mut p99 = vec![Vec::new(); POLICIES.len()];
    let mut p999 = vec![Vec::new(); POLICIES.len()];
    for (ri, &rate) in RATES.iter().enumerate() {
        for (pi, &policy) in POLICIES.iter().enumerate() {
            let cfg = config(rate, policy);
            let tag = format!("{}-r{ri}", policy_tag(policy));
            let mut store = FileStore::new(CHECKPOINT_DIR, &format!("tr-{tag}"));
            let rollup =
                match run_point_with(&cfg, SEED, runs, &exec, &mut store, stop_after_batches) {
                    Ok(Some(rollup)) => rollup,
                    Ok(None) => return None, // stopped early; checkpoints remain
                    Err(e) => {
                        // Static configs always validate; keep the figure
                        // total-failure-proof regardless.
                        eprintln!("[F19] traffic sweep failed for {tag}: {e}");
                        continue;
                    }
                };
            store.clear();
            total_runs += rollup.runs;
            if !rollup.balanced() {
                // The conservation law is tested exhaustively in the
                // traffic crate; surface any violation loudly here too.
                eprintln!(
                    "[F19] WARNING: frame accounting unbalanced for {tag}: {} offered vs {} resolved",
                    rollup.offered,
                    rollup.delivered + rollup.expired + rollup.exhausted
                );
            }
            t.row(cells![
                format!("{rate:.1}"),
                policy_tag(policy),
                format!("{:.4}", rollup.goodput()),
                bucket_label(rollup.p99()),
                bucket_label(rollup.p999()),
                rollup.expired,
                rollup.exhausted,
                rollup.retried,
                rollup.remaps,
                rollup.pause_epochs,
                rollup.lost_lanes
            ]);
            goodput[pi].push(rollup.goodput());
            p99[pi].push(rollup.p99() as f64);
            p999[pi].push(rollup.p999() as f64);
            telemetry::counter_add(&format!("f19.offered.{tag}"), rollup.offered);
            telemetry::counter_add(&format!("f19.delivered.{tag}"), rollup.delivered);
        }
    }
    out.push_str(&t.render());
    out.push_str(
        "identical campaigns and offered load per rate across policies; frames lost for\n\
         good land in the top latency bucket, so p99/p999 = \"lost\" marks >1%/>0.1% loss;\n\
         hitless = controller + drain/pause/replay around every lane-map change\n",
    );
    for (pi, &policy) in POLICIES.iter().enumerate() {
        telemetry::record_series(&format!("f19.goodput.{}", policy_tag(policy)), &goodput[pi]);
        telemetry::record_series(&format!("f19.p99.{}", policy_tag(policy)), &p99[pi]);
        telemetry::record_series(&format!("f19.p999.{}", policy_tag(policy)), &p999[pi]);
    }
    RunStats::new(total_runs, start.elapsed(), exec.threads()).report("F19");
    Some(out)
}

/// Run the experiment to completion.
pub fn run() -> String {
    match run_with_stop(None) {
        Some(out) => out,
        // Unreachable: no stop limit was set.
        None => String::from("F19: stopped early without a stop limit\n"),
    }
}
