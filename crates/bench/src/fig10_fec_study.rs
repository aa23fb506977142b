//! F10 — FEC trade study on Mosaic channels: post-FEC output, overhead,
//! and decoder cost for each candidate code, with a Monte-Carlo
//! cross-check against the real decoders.

use crate::cells;
use crate::runcfg;
use crate::table::Table;
use mosaic::config::FecChoice;
use mosaic_fec::analysis::{binary_performance, rs_performance};
use mosaic_fec::rs::ReedSolomon;
use mosaic_sim::montecarlo::{run_rs_channel_with, wilson_ci};
use mosaic_sim::sweep::{Exec, RunStats};
use mosaic_sim::telemetry::Stopwatch;

/// Rough decoder energy per bit (pJ) for each code class — hardware
/// synthesis ballparks: Hamming is trivial, BCH needs BM over GF(2^10),
/// RS adds Forney magnitudes; all are small next to a PAM4 DSP.
fn decoder_pj(fec: FecChoice) -> f64 {
    match fec {
        FecChoice::None => 0.0,
        FecChoice::Hamming => 0.05,
        FecChoice::Bch { .. } => 0.35,
        FecChoice::Kr4 => 0.5,
        FecChoice::Kp4 => 0.8,
    }
}

/// Run the experiment.
pub fn run() -> String {
    let codes: Vec<(&str, FecChoice)> = vec![
        ("none", FecChoice::None),
        ("Hamming(72,64)", FecChoice::Hamming),
        ("BCH(1023,t=8)", FecChoice::Bch { t: 8 }),
        ("KR4 RS(528,514)", FecChoice::Kr4),
        ("KP4 RS(544,514)", FecChoice::Kp4),
    ];

    let mut out = String::from("F10a: post-FEC BER by code and pre-FEC channel BER\n");
    let mut t = Table::new(&[
        "code",
        "overhead",
        "pJ/bit dec",
        "pre 1e-3",
        "pre 2.4e-4",
        "pre 1e-5",
    ]);
    for (name, fec) in &codes {
        let post = |pre: f64| -> String {
            let v = match *fec {
                FecChoice::None => pre,
                FecChoice::Hamming => binary_performance(72, 1, pre).post_ber,
                FecChoice::Bch { t } => binary_performance(1023, t, pre).post_ber,
                FecChoice::Kr4 => rs_performance(528, 7, 10, pre).post_ber,
                FecChoice::Kp4 => rs_performance(544, 15, 10, pre).post_ber,
            };
            format!("{v:.1e}")
        };
        t.row(cells![
            name,
            format!("{:.3}x", fec.overhead()),
            format!("{:.2}", decoder_pj(*fec)),
            post(1e-3),
            post(2.4e-4),
            post(1e-5)
        ]);
    }
    out.push_str(&t.render());

    out.push_str("\nF10b: Monte-Carlo cross-check (real decoders, KP4-class RS at pre-FEC 2e-2, scaled-down code)\n");
    // Full KP4 failures at its threshold are ~1e-15 — unobservable; the
    // cross-check uses a weak RS code at harsh BER where the analytic and
    // measured failure rates are both large. The analytic machinery being
    // validated is identical.
    let rs = ReedSolomon::new(8, 31, 23);
    let exec = Exec::from_env();
    let codewords = runcfg::trials(4000, 600);
    let start = Stopwatch::start();
    let mut word_failure = Vec::new();
    let mut word_lo = Vec::new();
    let mut word_hi = Vec::new();
    let mut mc_words = 0u64;
    for &ber in &[1e-2, 2e-2, 4e-2] {
        let analytic = rs_performance(rs.n(), rs.t(), rs.symbol_bits(), ber);
        let run = run_rs_channel_with(&exec, &rs, ber, codewords, 17);
        mc_words += codewords;
        let (lo, hi) = wilson_ci(run.failures + run.miscorrected, run.codewords);
        word_failure.push(run.failure_prob());
        word_lo.push(lo);
        word_hi.push(hi);
        out.push_str(&format!(
            "  RS(31,23) @BER {ber:.0e}: measured word-failure {:.3e}, analytic {:.3e}\n",
            run.failure_prob(),
            analytic.codeword_failure_prob
        ));
    }
    RunStats::new(mc_words, start.elapsed(), exec.threads()).report("F10");
    mosaic_sim::telemetry::record_series("f10.rs_word_failure", &word_failure);
    mosaic_sim::telemetry::record_series("f10.rs_word_failure_ci_lo", &word_lo);
    mosaic_sim::telemetry::record_series("f10.rs_word_failure_ci_hi", &word_hi);

    out.push_str("\nF10c: FEC threshold (pre-FEC BER for 1e-15 output)\n");
    for (name, fec) in &codes {
        out.push_str(&format!("  {:<16} {:.2e}\n", name, fec.ber_threshold()));
    }
    out
}
