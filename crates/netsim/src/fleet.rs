//! Fleet-wide rollups: power, energy per bit, expected failures.

use crate::assignment::Assignment;
use mosaic_units::{Fit, Power};
use std::collections::BTreeMap;

/// Aggregated fleet metrics for one assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Total interconnect power (all links, both ends).
    pub total_power: Power,
    /// Total links.
    pub links: usize,
    /// Summed failure rate of every link.
    pub total_fit: Fit,
    /// Expected link-failure (repair) events per year across the fleet.
    pub failures_per_year: f64,
    /// Power by technology name.
    pub power_by_tech: BTreeMap<String, Power>,
    /// Link count by technology name.
    pub links_by_tech: BTreeMap<String, usize>,
}

/// Roll up an assignment into fleet totals.
///
/// The fold runs sequentially in assignment order: each partial is two
/// multiplications, so any parallel decomposition costs more in
/// collection and reassembly than it saves (an earlier parallel-sweep
/// form also cloned every technology name into an intermediate vector;
/// its successor `rollup_with` took an `Exec` it never used, so the
/// dead parameter is gone). Assignment-order accumulation is exactly
/// what the parallel form reassembled to, so the report — including
/// float accumulation order — is unchanged, and trivially identical at
/// every thread count.
pub fn rollup(assignments: &[Assignment]) -> FleetReport {
    let mut total_power = Power::ZERO;
    let mut total_fit = Fit::ZERO;
    let mut links = 0usize;
    let mut power_by_tech: BTreeMap<String, Power> = BTreeMap::new();
    let mut links_by_tech: BTreeMap<String, usize> = BTreeMap::new();
    for a in assignments {
        let n = a.class.count as f64;
        let p = a.choice.link_power * n;
        total_power += p;
        total_fit = total_fit + a.choice.link_fit * n;
        links += a.class.count;
        // `get_mut` first so steady-state updates never clone the name.
        if let Some(v) = power_by_tech.get_mut(&a.choice.name) {
            *v += p;
        } else {
            power_by_tech.insert(a.choice.name.clone(), p);
        }
        if let Some(v) = links_by_tech.get_mut(&a.choice.name) {
            *v += a.class.count;
        } else {
            links_by_tech.insert(a.choice.name.clone(), a.class.count);
        }
    }
    // Telemetry rollup: derived from the already-folded totals (not from
    // inside the sweep), so the values are thread-count invariant.
    mosaic_sim::telemetry::counter_add("fleet.rollups", 1);
    mosaic_sim::telemetry::counter_add("fleet.links", links as u64);
    FleetReport {
        total_power,
        links,
        failures_per_year: total_fit.afr(),
        total_fit,
        power_by_tech,
        links_by_tech,
    }
}

#[cfg(test)]
mod tests {
    use crate::assignment::{assign, Policy};
    use crate::topology::ClosTopology;
    use mosaic::compare::candidates;
    use mosaic_units::BitRate;

    fn report(policy: Policy) -> super::FleetReport {
        let classes = ClosTopology::small().link_classes();
        let cands = candidates(BitRate::from_gbps(800.0));
        super::rollup(&assign(&classes, &cands, policy))
    }

    #[test]
    fn mosaic_policy_cuts_fleet_power() {
        let optics = report(Policy::AllOptics);
        let mosaic = report(Policy::WithMosaic);
        let saving = 1.0 - mosaic.total_power / optics.total_power;
        // T2's headline: fleet interconnect power drops by a large
        // double-digit fraction.
        assert!(saving > 0.5, "saving {saving:.2}");
    }

    #[test]
    fn mosaic_policy_cuts_repair_tickets() {
        let optics = report(Policy::AllOptics);
        let mosaic = report(Policy::WithMosaic);
        assert!(
            mosaic.failures_per_year < 0.5 * optics.failures_per_year,
            "mosaic {} vs optics {}",
            mosaic.failures_per_year,
            optics.failures_per_year
        );
    }

    #[test]
    fn copper_policy_sits_between() {
        let optics = report(Policy::AllOptics);
        let copper = report(Policy::CopperPlusOptics);
        let mosaic = report(Policy::WithMosaic);
        assert!(copper.total_power.as_watts() < optics.total_power.as_watts());
        assert!(mosaic.total_power.as_watts() < copper.total_power.as_watts());
    }

    #[test]
    fn rollup_counts_every_link() {
        let r = report(Policy::WithMosaic);
        assert_eq!(r.links, ClosTopology::small().total_links());
        let by_tech: usize = r.links_by_tech.values().sum();
        assert_eq!(by_tech, r.links);
    }
}
