//! Regenerates experiment `fig19_traffic_resilience`. See EXPERIMENTS.md.
//!
//! `MOSAIC_STOP_AFTER_BATCHES=<n>` limits each sweep point to `n` run
//! batches and exits with code 3, leaving the batch checkpoints on disk —
//! rerunning without the limit resumes and prints output byte-identical
//! to an uninterrupted run (the kill/resume drill).
fn main() {
    mosaic_bench::runcfg::checkpointed_main(
        "F19",
        mosaic_bench::fig19_traffic_resilience::run_with_stop,
    );
}
