//! Technology-selection policies over a fabric's link classes.

use crate::topology::LinkClass;
use mosaic::compare::{winner_at, LinkCandidate, TechnologyKind};

/// Which technologies a deployment is willing to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Optics everywhere (the conservative incumbent fleet).
    AllOptics,
    /// Copper where it reaches, optics elsewhere (today's cost-optimized
    /// fleet).
    CopperPlusOptics,
    /// Copper, then Mosaic, then optics — the paper's proposal.
    WithMosaic,
}

impl Policy {
    /// Candidate kinds admitted by this policy.
    pub fn admits(self, kind: TechnologyKind) -> bool {
        match self {
            Policy::AllOptics => {
                matches!(
                    kind,
                    TechnologyKind::Sr | TechnologyKind::Dr | TechnologyKind::Lpo
                )
            }
            Policy::CopperPlusOptics => !matches!(kind, TechnologyKind::Mosaic),
            Policy::WithMosaic => true,
        }
    }
}

/// One link class resolved to a technology.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// The link class being served.
    pub class: LinkClass,
    /// The chosen candidate.
    pub choice: LinkCandidate,
}

/// Assign every link class the cheapest admitted candidate that reaches.
///
/// # Panics
/// Panics if some class cannot be served at all under the policy (a
/// mis-specified fabric).
pub fn assign(
    classes: &[LinkClass],
    candidates: &[LinkCandidate],
    policy: Policy,
) -> Vec<Assignment> {
    classes
        .iter()
        .map(|class| {
            let admitted: Vec<LinkCandidate> = candidates
                .iter()
                .filter(|c| policy.admits(c.kind))
                .cloned()
                .collect();
            let choice = winner_at(&admitted, class.length)
                .unwrap_or_else(|| {
                    panic!(
                        "no admitted technology reaches {} for {}",
                        class.length, class.tier
                    )
                })
                .clone();
            Assignment {
                class: class.clone(),
                choice,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic::compare::candidates;
    use mosaic_units::{BitRate, Length};

    fn classes() -> Vec<LinkClass> {
        crate::topology::ClosTopology::small().link_classes()
    }

    fn cands() -> Vec<LinkCandidate> {
        candidates(BitRate::from_gbps(800.0))
    }

    #[test]
    fn with_mosaic_policy_uses_mosaic_in_row() {
        let a = assign(&classes(), &cands(), Policy::WithMosaic);
        let by_tier: Vec<(&str, TechnologyKind)> = a
            .iter()
            .map(|x| (x.class.tier.as_str(), x.choice.kind))
            .collect();
        assert_eq!(by_tier[0], ("server-tor", TechnologyKind::Dac));
        assert_eq!(by_tier[1], ("tor-agg", TechnologyKind::Mosaic));
        assert_eq!(by_tier[2].0, "agg-spine");
        assert!(matches!(
            by_tier[2].1,
            TechnologyKind::Dr | TechnologyKind::Lpo
        ));
    }

    #[test]
    fn copper_plus_optics_never_picks_mosaic() {
        let a = assign(&classes(), &cands(), Policy::CopperPlusOptics);
        assert!(a.iter().all(|x| x.choice.kind != TechnologyKind::Mosaic));
    }

    #[test]
    fn all_optics_picks_only_optics() {
        let a = assign(&classes(), &cands(), Policy::AllOptics);
        for x in &a {
            assert!(matches!(
                x.choice.kind,
                TechnologyKind::Sr | TechnologyKind::Dr | TechnologyKind::Lpo
            ));
        }
    }

    #[test]
    #[should_panic]
    fn unreachable_class_panics() {
        let class = LinkClass {
            tier: "intercontinental".into(),
            count: 1,
            length: Length::from_m(100_000.0),
        };
        let _ = assign(&[class], &cands(), Policy::WithMosaic);
    }
}
