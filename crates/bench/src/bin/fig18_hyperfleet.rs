//! Regenerates experiment `fig18_hyperfleet`. See EXPERIMENTS.md.
//!
//! `MOSAIC_STOP_AFTER_BATCHES=<n>` limits each policy's simulation to `n`
//! shard batches and exits with code 3, leaving the batch checkpoints on
//! disk — rerunning without the limit resumes and prints output
//! byte-identical to an uninterrupted run (the kill/resume drill).
fn main() {
    mosaic_bench::runcfg::checkpointed_main("F18", mosaic_bench::fig18_hyperfleet::run_with_stop);
}
