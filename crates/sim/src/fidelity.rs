//! The Monte-Carlo fidelity mode: one variant, full budget.
//!
//! Every figure runs each Monte-Carlo kernel at its full trial budget;
//! there is no other mode. [`FidelityMode`] remains only because
//! existing callers name it, and
//! `mosaic_netsim::hyperfleet::HyperFleetConfig::from_assignments` still
//! takes one (and ignores it).

/// The fidelity a run uses. [`FidelityMode::Full`] is the only mode:
/// every measurement runs at its full trial budget. The type is kept so
/// that code naming it keeps compiling; no code path reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FidelityMode {
    /// Every measurement at its full trial budget.
    #[default]
    Full,
}
