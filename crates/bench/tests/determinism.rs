//! The determinism gate, in-process form: the figure pipelines named in
//! the acceptance criteria must produce byte-identical output — and
//! byte-identical telemetry *values* (counters and series) —
//! whether they run sequentially or fanned out over many threads. CI
//! runs the same check against the built binaries (`MOSAIC_THREADS=1`
//! vs default) and diffs the manifests with `bench-report`.
//!
//! One `#[test]` only: the experiments read `MOSAIC_THREADS` from the
//! environment and share the process-global telemetry collector, and
//! tests in one binary run concurrently — a second env- or
//! telemetry-mutating test would race.

#[test]
fn figure_outputs_are_thread_count_invariant() {
    // Quick mode keeps this at smoke-test cost; quick vs full changes
    // trial counts, not the determinism contract under test.
    std::env::set_var(mosaic_bench::runcfg::QUICK_ENV, "1");

    // Each figure runs with a fresh telemetry collector; the snapshot's
    // values JSON (counters/series — no timings) rides along
    // with the output text so both get the byte-identical check.
    type Runner = fn() -> String;
    let run_all_figs = || {
        let figs: [(&str, Runner); 6] = [
            ("F4", mosaic_bench::fig4_ber_waterfall::run),
            ("F10", mosaic_bench::fig10_fec_study::run),
            ("F11", mosaic_bench::fig11_gearbox_resilience::run),
            ("F12", mosaic_bench::fig12_sparing_ablation::run),
            ("F17", mosaic_bench::fig17_fault_campaign::run),
            ("T2", mosaic_bench::tab2_datacenter::run),
        ];
        figs.map(|(id, runner)| {
            mosaic_sim::telemetry::reset();
            let output = runner();
            let values = mosaic_sim::telemetry::take()
                .values_json()
                .to_string_compact();
            (id, output, values)
        })
    };

    std::env::set_var(mosaic_sim::sweep::THREADS_ENV, "1");
    let sequential = run_all_figs();
    for threads in ["2", "8"] {
        std::env::set_var(mosaic_sim::sweep::THREADS_ENV, threads);
        for ((id, seq_out, seq_vals), (_, par_out, par_vals)) in
            sequential.iter().zip(run_all_figs())
        {
            assert_eq!(
                *seq_out, par_out,
                "{id} output diverged at MOSAIC_THREADS={threads}"
            );
            assert_eq!(
                *seq_vals, par_vals,
                "{id} telemetry values diverged at MOSAIC_THREADS={threads}"
            );
        }
    }
    std::env::remove_var(mosaic_sim::sweep::THREADS_ENV);
}
