//! Multi-year fleet failure/repair simulation.
//!
//! Event-driven over the whole fleet: each link fails as a Poisson process
//! at its FIT rate and is repaired after a deterministic MTTR. Outputs the
//! ticket count and the fleet-level link availability — the operational
//! numbers behind T2's reliability column.

use crate::assignment::Assignment;
use mosaic_sim::event::EventQueue;
use mosaic_sim::rng::DetRng;
use mosaic_sim::sweep::{Exec, TrialPlan};
use mosaic_units::{Duration, Fit};

/// Class-level Poisson hard-failure process: `count` statistically
/// identical links, each failing at `link_fit`, superpose to one
/// exponential stream at the summed rate. Exact for exponential
/// lifetimes — this is the analytic tier both [`simulate_fleet`] and
/// `hyperfleet`'s demoted link classes run on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassFailureProcess {
    rate_per_hour: f64,
}

impl ClassFailureProcess {
    /// Process for `count` links at `link_fit` each.
    pub fn new(link_fit: Fit, count: u64) -> Self {
        ClassFailureProcess {
            rate_per_hour: link_fit.per_hour() * count as f64,
        }
    }

    /// Time of the first failure, or `None` for a zero-rate class.
    /// Draws exactly one exponential when the rate is positive.
    pub fn first_failure(&self, rng: &mut DetRng) -> Option<f64> {
        if self.rate_per_hour > 0.0 {
            Some(rng.exponential(self.rate_per_hour))
        } else {
            None
        }
    }

    /// Time of the next failure after one at `now`.
    pub fn next_failure(&self, now: f64, rng: &mut DetRng) -> f64 {
        now + rng.exponential(self.rate_per_hour)
    }
}

/// Result of a fleet failure simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureSimReport {
    /// Years simulated.
    pub years: f64,
    /// Repair tickets raised.
    pub tickets: u64,
    /// Link-hours lost to outages.
    pub downtime_link_hours: f64,
    /// Bandwidth-hours lost to outages (Gb/s × hours of dead links) —
    /// what the job scheduler actually feels.
    pub capacity_lost_gbps_hours: f64,
    /// Fleet link availability (1 − lost/total link-hours).
    pub availability: f64,
}

/// Simulate `years` of fleet operation with `mttr` per repair.
///
/// Links within one class are statistically identical, so the class-level
/// Poisson process (rate = count × per-link rate) is simulated instead of
/// every link individually — exact for exponential lifetimes and fast
/// enough for 100k-link fleets over decades.
pub fn simulate_fleet(
    assignments: &[Assignment],
    years: f64,
    mttr: Duration,
    seed: u64,
) -> FailureSimReport {
    simulate_fleet_core(
        assignments,
        years,
        mttr,
        DetRng::substream(seed, "fleet-failures"),
    )
}

/// One fleet history replica `replica` of the `(seed, replicas)` ensemble —
/// a pure function of `(seed, replica)`, so replicas can run in parallel
/// in any order (see [`simulate_fleet_ensemble`]).
pub fn simulate_fleet_replica(
    assignments: &[Assignment],
    years: f64,
    mttr: Duration,
    seed: u64,
    replica: u64,
) -> FailureSimReport {
    simulate_fleet_core(
        assignments,
        years,
        mttr,
        DetRng::substream_indexed(seed, "fleet-failures", replica),
    )
}

/// Run `replicas` independent fleet histories in parallel and return
/// them in replica order. A single fleet history is an inherently
/// sequential event cascade, so the ensemble — not the event loop — is
/// the parallel dimension; it also turns T2's single-trajectory numbers
/// into mean ± spread.
pub fn simulate_fleet_ensemble(
    exec: &Exec,
    assignments: &[Assignment],
    years: f64,
    mttr: Duration,
    seed: u64,
    replicas: u64,
) -> Vec<FailureSimReport> {
    TrialPlan::new().trials(replicas).run(exec, |ctx| {
        simulate_fleet_replica(assignments, years, mttr, seed, ctx.trial())
    })
}

fn simulate_fleet_core(
    assignments: &[Assignment],
    years: f64,
    mttr: Duration,
    mut rng: DetRng,
) -> FailureSimReport {
    let horizon_h = Duration::from_years(years).as_hours();
    // Failures only, keyed by class: downtime is charged when the
    // failure is popped, so a repair needs no event of its own.
    let mut q: EventQueue<usize> = EventQueue::new();

    // Seed the first failure for each class.
    for (i, a) in assignments.iter().enumerate() {
        let proc = ClassFailureProcess::new(a.choice.link_fit, a.class.count as u64);
        if let Some(t) = proc.first_failure(&mut rng) {
            q.schedule(t, i);
        }
    }

    let mut tickets = 0u64;
    let mut downtime = 0.0f64;
    let mut capacity_lost = 0.0f64;
    while let Some((t, class)) = q.pop() {
        if t > horizon_h {
            break;
        }
        tickets += 1;
        let end = (t + mttr.as_hours()).min(horizon_h);
        downtime += end - t;
        capacity_lost += (end - t) * assignments[class].choice.aggregate.as_gbps();
        // Next failure in this class.
        let a = &assignments[class];
        let proc = ClassFailureProcess::new(a.choice.link_fit, a.class.count as u64);
        q.schedule(proc.next_failure(t, &mut rng), class);
    }

    let total_links: usize = assignments.iter().map(|a| a.class.count).sum();
    let total_link_hours = total_links as f64 * horizon_h;
    FailureSimReport {
        years,
        tickets,
        downtime_link_hours: downtime,
        capacity_lost_gbps_hours: capacity_lost,
        availability: 1.0 - downtime / total_link_hours,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::{assign, Policy};
    use crate::topology::ClosTopology;
    use mosaic::compare::candidates;
    use mosaic_units::BitRate;

    fn assignments(policy: Policy) -> Vec<crate::assignment::Assignment> {
        let classes = ClosTopology::small().link_classes();
        let cands = candidates(BitRate::from_gbps(800.0));
        assign(&classes, &cands, policy)
    }

    #[test]
    fn ticket_count_matches_expected_rate() {
        let a = assignments(Policy::AllOptics);
        let years = 10.0;
        let sim = simulate_fleet(&a, years, Duration::from_hours(24.0), 3);
        let expected: f64 = a
            .iter()
            .map(|x| x.choice.link_fit.per_hour() * x.class.count as f64)
            .sum::<f64>()
            * Duration::from_years(years).as_hours();
        let ratio = sim.tickets as f64 / expected;
        assert!(
            (0.9..1.1).contains(&ratio),
            "tickets {} expected {expected}",
            sim.tickets
        );
    }

    #[test]
    fn mosaic_fleet_raises_fewer_tickets() {
        let optics = simulate_fleet(
            &assignments(Policy::AllOptics),
            10.0,
            Duration::from_hours(24.0),
            7,
        );
        let mosaic = simulate_fleet(
            &assignments(Policy::WithMosaic),
            10.0,
            Duration::from_hours(24.0),
            7,
        );
        assert!(
            (mosaic.tickets as f64) < 0.5 * optics.tickets as f64,
            "mosaic {} vs optics {}",
            mosaic.tickets,
            optics.tickets
        );
        assert!(mosaic.availability > optics.availability);
    }

    #[test]
    fn availability_is_high_and_bounded() {
        let sim = simulate_fleet(
            &assignments(Policy::CopperPlusOptics),
            5.0,
            Duration::from_hours(24.0),
            1,
        );
        assert!(sim.availability > 0.999 && sim.availability <= 1.0);
        // Capacity-hours lost = downtime × 800G (all links same rate here).
        assert!(
            (sim.capacity_lost_gbps_hours - sim.downtime_link_hours * 800.0).abs()
                < 1e-6 * sim.capacity_lost_gbps_hours.max(1.0)
        );
    }

    #[test]
    fn deterministic() {
        let a = assignments(Policy::WithMosaic);
        let x = simulate_fleet(&a, 5.0, Duration::from_hours(24.0), 42);
        let y = simulate_fleet(&a, 5.0, Duration::from_hours(24.0), 42);
        assert_eq!(x, y);
    }

    #[test]
    fn ensemble_is_thread_count_invariant() {
        let a = assignments(Policy::AllOptics);
        let seq = simulate_fleet_ensemble(
            &Exec::with_threads(1),
            &a,
            3.0,
            Duration::from_hours(24.0),
            42,
            6,
        );
        let par = simulate_fleet_ensemble(
            &Exec::with_threads(4),
            &a,
            3.0,
            Duration::from_hours(24.0),
            42,
            6,
        );
        assert_eq!(seq, par);
        // Replicas are genuinely distinct histories.
        assert!(seq.windows(2).any(|w| w[0] != w[1]));
    }
}
