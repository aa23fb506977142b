//! Component-resolved power accounting.
//!
//! Every technology model in the workspace reports its power as a
//! [`PowerBreakdown`] — an ordered list of named components — rather than a
//! single number, because the paper's claims are about *where* the power
//! goes (the DSP you deleted, the laser you replaced), and Table 1 of the
//! evaluation reproduces exactly that decomposition.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mosaic_units::Power;
use std::fmt;

/// An ordered, named decomposition of a power budget.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PowerBreakdown {
    entries: Vec<(String, Power)>,
}

impl PowerBreakdown {
    /// An empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a component (merging into an existing entry of the same name).
    pub fn add(&mut self, name: &str, power: Power) {
        if let Some(e) = self.entries.iter_mut().find(|(n, _)| n == name) {
            e.1 += power;
        } else {
            self.entries.push((name.to_string(), power));
        }
    }

    /// Builder-style [`PowerBreakdown::add`].
    pub fn with(mut self, name: &str, power: Power) -> Self {
        self.add(name, power);
        self
    }

    /// Total power.
    pub fn total(&self) -> Power {
        self.entries.iter().map(|&(_, p)| p).sum()
    }

    /// The entries in insertion order.
    pub fn entries(&self) -> &[(String, Power)] {
        &self.entries
    }
}

impl fmt::Display for PowerBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.total();
        for (name, p) in &self.entries {
            let pct = if total.is_zero() {
                0.0
            } else {
                *p / total * 100.0
            };
            writeln!(f, "  {name:<24} {:>12}  {pct:5.1} %", format!("{p}"))?;
        }
        writeln!(f, "  {:<24} {:>12}", "TOTAL", format!("{total}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn add_and_total() {
        let b = PowerBreakdown::new()
            .with("laser", Power::from_watts(1.0))
            .with("dsp", Power::from_watts(7.0))
            .with("laser", Power::from_watts(0.5));
        assert!((b.total().as_watts() - 8.5).abs() < 1e-12);
        // Same-name entries merge, in first-insertion order.
        assert_eq!(
            b.entries(),
            [
                ("laser".to_string(), Power::from_watts(1.5)),
                ("dsp".to_string(), Power::from_watts(7.0)),
            ]
        );
    }

    #[test]
    fn display_renders_every_row() {
        let b = PowerBreakdown::new()
            .with("driver", Power::from_mw(350.0))
            .with("tia", Power::from_mw(150.0));
        let s = format!("{b}");
        assert!(s.contains("driver") && s.contains("tia") && s.contains("TOTAL"));
    }

    proptest! {
        #[test]
        fn total_equals_sum_of_entries(
            watts in proptest::collection::vec(0f64..10.0, 1..12)
        ) {
            let mut b = PowerBreakdown::new();
            for (i, w) in watts.iter().enumerate() {
                b.add(&format!("c{i}"), Power::from_watts(*w));
            }
            let sum: f64 = watts.iter().sum();
            prop_assert!((b.total().as_watts() - sum).abs() < 1e-9);
        }
    }
}
