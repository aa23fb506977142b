//! Run-scale configuration shared by the figure binaries.
//!
//! `MOSAIC_QUICK=1` switches every Monte-Carlo-heavy experiment to a
//! reduced trial count so the whole evaluation smoke-runs in seconds
//! (CI uses this). Quick and full runs are each individually
//! deterministic — quick mode changes *how many* trials run, never how
//! any given trial draws its randomness — so outputs are byte-identical
//! across thread counts within either mode.

/// Environment variable selecting reduced trial counts.
pub const QUICK_ENV: &str = "MOSAIC_QUICK";

/// Whether quick mode is active (`MOSAIC_QUICK` set to anything but `0`).
pub fn quick() -> bool {
    matches!(std::env::var(QUICK_ENV), Ok(v) if !v.is_empty() && v != "0")
}

/// Pick the trial count for the active mode.
pub fn trials(full: u64, quick_count: u64) -> u64 {
    if quick() {
        quick_count
    } else {
        full
    }
}

/// The active fidelity mode (`MOSAIC_FIDELITY=full|adaptive`, default
/// full). Orthogonal to quick/full trial scaling: quick mode shrinks the
/// *full-fidelity* budgets, adaptive fidelity decides per measurement
/// whether that budget is spent at all (DESIGN §12).
pub fn fidelity() -> mosaic_sim::fidelity::FidelityMode {
    mosaic_sim::fidelity::FidelityMode::from_env()
}

/// Environment variable of the kill/resume drill for the checkpointed
/// figures (F18, F19): each checkpointed fold runs at most this many
/// batches, then the binary exits 3 with its checkpoints on disk.
pub const STOP_AFTER_BATCHES_ENV: &str = "MOSAIC_STOP_AFTER_BATCHES";

/// The drill's batch limit, if `MOSAIC_STOP_AFTER_BATCHES` holds one.
pub fn stop_after_batches() -> Option<u64> {
    std::env::var(STOP_AFTER_BATCHES_ENV).ok()?.parse().ok()
}

/// `main` of a checkpointed figure binary: run under the drill's batch
/// limit and print the output, or — when the limit stopped the run —
/// exit 3 with the checkpoints left for the next invocation to resume
/// from, byte-identically.
pub fn checkpointed_main(id: &str, run_with_stop: fn(Option<u64>) -> Option<String>) {
    match run_with_stop(stop_after_batches()) {
        Some(out) => print!("{out}"),
        None => {
            eprintln!("[{id}] stopped early with checkpoints on disk; rerun to resume");
            std::process::exit(3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_mode_uses_full_count() {
        // The test environment does not set MOSAIC_QUICK.
        if !quick() {
            assert_eq!(trials(100, 7), 100);
        } else {
            assert_eq!(trials(100, 7), 7);
        }
    }
}
