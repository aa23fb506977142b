//! F18 — Hyperscale fleet at 10⁶+ links (claims C3/C6 at scale): fleet
//! availability, repair-ticket rate and spare-pool exhaustion for a
//! 1.28 M-link region, all-optics versus the Mosaic deployment policy,
//! through the sharded event-sourced `netsim::hyperfleet` engine.
//!
//! T2 extrapolates the fleet argument from class-level Poisson rollups;
//! F18 runs the per-channel machinery — fault campaigns feeding degrade
//! controllers on every spared link — at full fleet scale, with memory
//! bounded by the shard size and per-batch checkpoints that make the
//! run kill/resume-safe (`MOSAIC_STOP_AFTER_BATCHES` in the standalone
//! binary is the drill hook). Shard merges are exact-integer
//! folds, so the table is bit-identical at any thread count and across
//! any kill/resume schedule.
//!
//! Quick mode simulates the 64k-server fabric over 2 years; full mode
//! simulates the hyperscale region (1,277,952 links) over 3 years.

use crate::cells;
use crate::runcfg;
use crate::table::Table;
use mosaic::compare::candidates;
use mosaic_netsim::assignment::{assign, Policy};
use mosaic_netsim::hyperfleet::{self, HyperFleetConfig, SPARE_BUCKETS};
use mosaic_netsim::topology::ClosTopology;
use mosaic_sim::checkpoint::FileStore;
use mosaic_sim::sweep::{Exec, RunStats};
use mosaic_sim::telemetry::{self, Stopwatch};
use mosaic_units::{BitRate, Duration};

const SEED: u64 = 505;

/// Checkpoints live next to the run_all manifest fragments, under the
/// same clear-on-fresh-start / clear-on-completion discipline.
const CHECKPOINT_DIR: &str = "results/manifests/fragments";

fn config(policy: Policy) -> (HyperFleetConfig, usize) {
    let topo = if runcfg::quick() {
        ClosTopology::large()
    } else {
        ClosTopology::hyperscale()
    };
    let years = if runcfg::quick() { 2.0 } else { 3.0 };
    let classes = topo.link_classes();
    let cands = candidates(BitRate::from_gbps(800.0));
    let assignments = assign(&classes, &cands, policy);
    let mut cfg = HyperFleetConfig::from_assignments(
        &assignments,
        years,
        Duration::from_hours(8.0),
        runcfg::fidelity(),
    );
    // Several batches even in quick mode (26 shards), so the kill/resume
    // drill always has a mid-run boundary to stop at. Batch size shifts
    // checkpoint cadence only — rollups merge commutatively, so the
    // results are identical for any batching.
    cfg.shards_per_batch = 8;
    (cfg, topo.servers())
}

/// Run the experiment, executing at most `stop_after_batches` shard
/// batches per policy this invocation. `None` output means the run
/// stopped early with its checkpoints on disk — rerunning (same mode,
/// same config) resumes and completes byte-identically.
pub fn run_with_stop(stop_after_batches: Option<u64>) -> Option<String> {
    let exec = Exec::from_env();
    let fidelity = runcfg::fidelity();
    let start = Stopwatch::start();
    let mut out = String::new();
    let mut t = Table::new(&[
        "policy",
        "links",
        "event-sourced",
        "tickets/1k-link-yr",
        "availability",
        "delivered cap",
        "spares used",
        "exhausted frac",
    ]);
    let mut tier_notes = String::new();
    let mut occupancy_line = String::new();
    let mut links_total = 0u64;
    let mut avail = Vec::new();
    let mut tickets = Vec::new();
    let mut delivered = Vec::new();
    let mut exhausted = Vec::new();
    for (name, tag, policy) in [
        ("all-optics", "optics", Policy::AllOptics),
        ("with Mosaic", "mosaic", Policy::WithMosaic),
    ] {
        let (cfg, servers) = config(policy);
        if out.is_empty() {
            out = format!(
                "F18: hyperscale fleet — {servers} servers, {} links, {:.1}-year horizon, \
                 shard {} links\n",
                cfg.total_links(),
                cfg.years,
                cfg.shard_links
            );
        }
        let mut store = FileStore::new(CHECKPOINT_DIR, &format!("hf-{tag}"));
        let report =
            match hyperfleet::simulate_with(&cfg, SEED, &exec, &mut store, stop_after_batches) {
                Ok(Some(report)) => report,
                Ok(None) => return None, // stopped early; checkpoints remain
                Err(e) => {
                    // Configs built from assignments always validate; keep the
                    // figure total-failure-proof regardless.
                    eprintln!("[F18] hyperfleet simulation failed: {e}");
                    continue;
                }
            };
        store.clear();
        links_total += report.links;
        let r = &report.rollup;
        t.row(cells![
            name,
            report.links,
            r.event_sourced_links,
            format!("{:.3}", report.tickets_per_1k_link_years),
            format!("{:.6}", report.availability),
            format!("{:.6}", report.delivered_capacity_fraction),
            r.spares_activated,
            format!("{:.2e}", report.spare_exhausted_fraction)
        ]);
        for (class, tier) in cfg.classes.iter().zip(hyperfleet::class_tiers(&cfg)) {
            tier_notes.push_str(&format!(
                "  [{name}] {}: {} ({} links)\n",
                class.name,
                tier.name(),
                class.links
            ));
        }
        avail.push(report.availability);
        tickets.push(report.tickets_per_1k_link_years);
        delivered.push(report.delivered_capacity_fraction);
        exhausted.push(report.spare_exhausted_fraction);
        let occupancy: Vec<f64> = r.spare_occupancy.iter().map(|&c| c as f64).collect();
        telemetry::record_series(&format!("f18.spare_occupancy.{tag}"), &occupancy);
        if r.event_sourced_links > 0 {
            let buckets: Vec<String> = (0..SPARE_BUCKETS)
                .map(|i| format!("{}:{}", i, r.spare_occupancy[i]))
                .collect();
            occupancy_line = format!(
                "spare-pool occupancy under \"{name}\" (spares used × links): {}\n",
                buckets.join(" ")
            );
        }
    }
    out.push_str(&t.render());
    out.push_str(&occupancy_line);
    out.push_str("per-class simulation tiers:\n");
    out.push_str(&tier_notes);
    out.push_str(
        "event-sourced per-channel histories on every spared link; exact-integer shard\n\
         rollups make the table identical at any thread count and kill/resume schedule\n",
    );
    if fidelity.is_adaptive() {
        out.push_str("fidelity: adaptive (quiet spared classes demote to the Poisson tier)\n");
    }
    telemetry::record_series("f18.availability", &avail);
    telemetry::record_series("f18.tickets_per_1k_link_years", &tickets);
    telemetry::record_series("f18.delivered_capacity_fraction", &delivered);
    telemetry::record_series("f18.spare_exhausted_fraction", &exhausted);
    RunStats::new(links_total, start.elapsed(), exec.threads()).report("F18");
    Some(out)
}

/// Run the experiment to completion.
pub fn run() -> String {
    match run_with_stop(None) {
        Some(out) => out,
        // Unreachable: no stop limit was set.
        None => String::from("F18: stopped early without a stop limit\n"),
    }
}
