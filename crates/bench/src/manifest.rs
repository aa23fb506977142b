//! Machine-readable run manifests.
//!
//! Every `run_all` invocation emits one JSON manifest describing the run:
//! mode, thread count, a configuration hash, and — per figure — the output
//! digest, the telemetry value snapshot (counters and numeric series)
//! and the stage timings. The *value* portion is thread-count invariant
//! by construction (counters are commutative adds, series are
//! recorded post-reassembly), so CI diffs two manifests' values to extend
//! the determinism gate to telemetry; the *timing* portion feeds the
//! `BENCH_run_all.json` baseline and regression reports.
//!
//! Schema `mosaic-run-manifest/v1` (hashes are 16-digit lowercase hex
//! strings — the JSON layer stores numbers as `f64`, which cannot carry a
//! full 64-bit digest):
//!
//! ```json
//! {
//!   "schema": "mosaic-run-manifest/v1",
//!   "run": {
//!     "mode": "quick" | "full",
//!     "fidelity": "full" | "adaptive",
//!     "threads": 8,
//!     "config_hash": "14653c41b5a3b103",
//!     "timings": { "total_wall_ns": 0, "total_cpu_ns": 0 }
//!   },
//!   "figures": [
//!     {
//!       "id": "F1",
//!       "title": "...",
//!       "output": { "bytes": 0, "fnv1a": "cbf29ce484222325" },
//!       "values": { "counters": {}, "series": {} },
//!       "timings": { "wall_ns": 0, "stages": [ ... ] }
//!     }
//!   ]
//! }
//! ```
//!
//! `values_view` strips every timing-class field, leaving exactly the
//! parts that must be byte-identical across `MOSAIC_THREADS` settings.

use mosaic_sim::json::Json;
use mosaic_sim::telemetry::Snapshot;

/// The manifest schema identifier.
pub const SCHEMA: &str = "mosaic-run-manifest/v1";

/// FNV-1a 64-bit hash: the digest for outputs and configuration strings.
pub use mosaic_sim::digest::fnv1a;

/// A digest's manifest form: 16 lowercase hex digits.
pub fn hex(h: u64) -> String {
    format!("{h:016x}")
}

/// One figure's record in the manifest.
#[derive(Debug, Clone)]
pub struct FigureRecord {
    /// Experiment id ("F1" … "T3").
    pub id: String,
    /// Experiment title.
    pub title: String,
    /// The figure's rendered text output (hashed into the manifest, not
    /// embedded).
    pub output: String,
    /// Telemetry gathered while the figure ran.
    pub telemetry: Snapshot,
    /// Wall time of the whole figure runner, nanoseconds.
    pub wall_ns: u64,
}

impl FigureRecord {
    fn to_json(&self) -> Json {
        let timings = Json::object()
            .with("wall_ns", self.wall_ns)
            .with("stages", self.telemetry.timings_json());
        Json::object()
            .with("id", self.id.as_str())
            .with("title", self.title.as_str())
            .with(
                "output",
                Json::object()
                    .with("bytes", self.output.len())
                    .with("fnv1a", hex(fnv1a(self.output.as_bytes())).as_str()),
            )
            .with("values", self.telemetry.values_json())
            .with("timings", timings)
    }
}

/// A whole `run_all` invocation.
#[derive(Debug, Clone)]
pub struct RunManifest {
    /// "quick" or "full".
    pub mode: String,
    /// Fidelity mode the run used: "full" or "adaptive" (DESIGN §12).
    pub fidelity: String,
    /// Worker threads the sweep engine used.
    pub threads: usize,
    /// Figure records in run order.
    pub figures: Vec<FigureRecord>,
    /// Total wall time, nanoseconds.
    pub total_wall_ns: u64,
    /// Total process CPU time, nanoseconds.
    pub total_cpu_ns: u64,
    /// Peak resident-set size of the run, bytes (0 = unknown). Lives in
    /// the timings block: a resource metric, never a value, so it is
    /// excluded from `values_view` and the determinism gates.
    pub peak_rss_bytes: u64,
}

impl RunManifest {
    /// Hash of everything that *configures* the run (not how fast or how
    /// parallel it ran): mode + the experiment id list, plus the
    /// fidelity mode when it deviates from full (so historic full-mode
    /// hashes stay stable).
    pub fn config_hash(&self) -> u64 {
        let mut desc = self.mode.clone();
        for f in &self.figures {
            desc.push(';');
            desc.push_str(&f.id);
        }
        if self.fidelity != "full" {
            desc.push_str(";fidelity=");
            desc.push_str(&self.fidelity);
        }
        fnv1a(desc.as_bytes())
    }

    /// Render the manifest as a JSON document.
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("schema", SCHEMA)
            .with(
                "run",
                Json::object()
                    .with("mode", self.mode.as_str())
                    .with("fidelity", self.fidelity.as_str())
                    .with("threads", self.threads)
                    .with("config_hash", hex(self.config_hash()).as_str())
                    .with(
                        "timings",
                        Json::object()
                            .with("total_wall_ns", self.total_wall_ns)
                            .with("total_cpu_ns", self.total_cpu_ns)
                            .with("peak_rss_bytes", self.peak_rss_bytes),
                    ),
            )
            .with(
                "figures",
                Json::Arr(self.figures.iter().map(|f| f.to_json()).collect()),
            )
    }

    /// Pretty-printed JSON text of the manifest.
    pub fn to_pretty_string(&self) -> String {
        self.to_json().to_string_pretty()
    }
}

/// Structural schema check on a parsed manifest. Returns every violation
/// found (empty = valid).
pub fn schema_check(doc: &Json) -> Vec<String> {
    let mut errs = Vec::new();
    match doc.get("schema").and_then(|s| s.as_str()) {
        Some(s) if s == SCHEMA => {}
        Some(s) => errs.push(format!("schema: expected {SCHEMA:?}, got {s:?}")),
        None => errs.push("schema: missing or not a string".into()),
    }
    match doc.get("run") {
        Some(run) => {
            match run.get("mode").and_then(|m| m.as_str()) {
                Some("quick") | Some("full") => {}
                other => errs.push(format!("run.mode: expected quick|full, got {other:?}")),
            }
            // Older manifests predate the field; validate only if present.
            if let Some(f) = run.get("fidelity") {
                match f.as_str() {
                    Some("full") | Some("adaptive") => {}
                    other => errs.push(format!(
                        "run.fidelity: expected full|adaptive, got {other:?}"
                    )),
                }
            }
            if run.get("threads").and_then(|t| t.as_u64()).is_none() {
                errs.push("run.threads: missing or not an integer".into());
            }
            match run.get("config_hash").and_then(|h| h.as_str()) {
                Some(h) if h.len() == 16 && h.bytes().all(|b| b.is_ascii_hexdigit()) => {}
                _ => errs.push("run.config_hash: missing or not a 16-digit hex string".into()),
            }
            if run.get("timings").and_then(|t| t.as_obj()).is_none() {
                errs.push("run.timings: missing or not an object".into());
            }
        }
        None => errs.push("run: missing".into()),
    }
    match doc.get("figures").and_then(|f| f.as_arr()) {
        Some(figs) => {
            for (i, fig) in figs.iter().enumerate() {
                if fig.get("id").and_then(|v| v.as_str()).is_none() {
                    errs.push(format!("figures[{i}].id: missing or not a string"));
                }
                let out = fig.get("output");
                if out
                    .and_then(|o| o.get("fnv1a"))
                    .and_then(|h| h.as_str())
                    .is_none()
                {
                    errs.push(format!(
                        "figures[{i}].output.fnv1a: missing or not a string"
                    ));
                }
                for key in ["values", "timings"] {
                    if fig.get(key).and_then(|v| v.as_obj()).is_none() {
                        errs.push(format!("figures[{i}].{key}: missing or not an object"));
                    }
                }
            }
        }
        None => errs.push("figures: missing or not an array".into()),
    }
    errs
}

/// Project a parsed manifest down to its thread-count-invariant parts:
/// run mode + config hash, and per figure the id, output digest and
/// telemetry values. Everything timing-class (thread count, wall/CPU
/// times, stage records) is dropped.
pub fn values_view(doc: &Json) -> Json {
    let run = Json::object()
        .with(
            "mode",
            doc.get("run")
                .and_then(|r| r.get("mode"))
                .cloned()
                .unwrap_or(Json::Null),
        )
        .with(
            "config_hash",
            doc.get("run")
                .and_then(|r| r.get("config_hash"))
                .cloned()
                .unwrap_or(Json::Null),
        );
    let figures = doc
        .get("figures")
        .and_then(|f| f.as_arr())
        .map(|figs| {
            figs.iter()
                .map(|fig| {
                    Json::object()
                        .with("id", fig.get("id").cloned().unwrap_or(Json::Null))
                        .with("output", fig.get("output").cloned().unwrap_or(Json::Null))
                        .with("values", fig.get("values").cloned().unwrap_or(Json::Null))
                })
                .collect::<Vec<_>>()
        })
        .unwrap_or_default();
    Json::object()
        .with("run", run)
        .with("figures", Json::Arr(figures))
}

/// One difference between two manifests.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// JSON-pointer-ish path of the differing field.
    pub path: String,
    /// Rendering of the left value (`"<absent>"` when missing).
    pub left: String,
    /// Rendering of the right value.
    pub right: String,
}

fn render(v: Option<&Json>) -> String {
    v.map(|j| j.to_string_compact())
        .unwrap_or_else(|| "<absent>".into())
}

fn diff_into(path: &str, a: &Json, b: &Json, out: &mut Vec<DiffEntry>) {
    match (a, b) {
        (Json::Obj(ea), Json::Obj(eb)) => {
            for (k, va) in ea {
                match eb.iter().find(|(kb, _)| kb == k) {
                    Some((_, vb)) => diff_into(&format!("{path}/{k}"), va, vb, out),
                    None => out.push(DiffEntry {
                        path: format!("{path}/{k}"),
                        left: render(Some(va)),
                        right: render(None),
                    }),
                }
            }
            for (k, vb) in eb {
                if !ea.iter().any(|(ka, _)| ka == k) {
                    out.push(DiffEntry {
                        path: format!("{path}/{k}"),
                        left: render(None),
                        right: render(Some(vb)),
                    });
                }
            }
        }
        (Json::Arr(aa), Json::Arr(ab)) => {
            if aa.len() != ab.len() {
                out.push(DiffEntry {
                    path: format!("{path}/#len"),
                    left: aa.len().to_string(),
                    right: ab.len().to_string(),
                });
            }
            for (i, (va, vb)) in aa.iter().zip(ab).enumerate() {
                diff_into(&format!("{path}/{i}"), va, vb, out);
            }
        }
        _ if a == b => {}
        _ => out.push(DiffEntry {
            path: path.to_string(),
            left: render(Some(a)),
            right: render(Some(b)),
        }),
    }
}

/// Structural diff of two manifest documents. With `values_only`, both
/// sides are first projected through [`values_view`], so timing noise
/// (and the thread count itself) cannot produce differences.
pub fn diff(a: &Json, b: &Json, values_only: bool) -> Vec<DiffEntry> {
    let mut out = Vec::new();
    if values_only {
        diff_into("", &values_view(a), &values_view(b), &mut out);
    } else {
        diff_into("", a, b, &mut out);
    }
    out
}

/// Counter name prefixes that legitimately depend on the trial budget
/// (and hence on the fidelity mode): raw trial counts, the fidelity
/// controller's own bookkeeping, and the link simulator's traffic-volume
/// tallies (which scale with its adaptive epoch budget — its
/// *structural* counters, `link_sim.runs` and `link_sim.remaps`, are
/// still compared exactly). These are excluded from the
/// fidelity-equivalence gate.
const BUDGET_METRIC_PREFIXES: &[&str] = &[
    "trials.",
    "fidelity.",
    "link_sim.frames_",
    "link_sim.deskew_",
    "link_sim.bit_errors_",
    // Hyperfleet aggregates scale with which classes run event-sourced,
    // which is exactly what adaptive fidelity decides per class.
    "hyperfleet.",
];

fn budget_dependent(name: &str) -> bool {
    BUDGET_METRIC_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// Series the adaptive mode is allowed to add on top of the full-mode
/// set: rare-event tail estimates that full mode cannot resolve at all.
fn adaptive_only_series(name: &str) -> bool {
    name.contains("tail")
}

fn ci_companion(name: &str) -> bool {
    name.ends_with("_ci_lo") || name.ends_with("_ci_hi")
}

fn series_map(fig: &Json) -> Vec<(String, Vec<f64>)> {
    fig.get("values")
        .and_then(|v| v.get("series"))
        .and_then(|s| s.as_obj())
        .map(|entries| {
            entries
                .iter()
                .filter_map(|(k, v)| {
                    v.as_arr().map(|arr| {
                        (
                            k.clone(),
                            arr.iter().filter_map(|x| x.as_f64()).collect::<Vec<_>>(),
                        )
                    })
                })
                .collect()
        })
        .unwrap_or_default()
}

fn counter_map(fig: &Json) -> Vec<(String, Json)> {
    fig.get("values")
        .and_then(|v| v.get("counters"))
        .and_then(|s| s.as_obj())
        .map(|s| s.to_vec())
        .unwrap_or_default()
}

/// Half-width per index of a series' 95 % confidence interval, read from
/// its `<name>_ci_lo` / `<name>_ci_hi` companion series. Missing
/// companions mean a zero half-width (the value is exact).
fn half_widths(series: &[(String, Vec<f64>)], name: &str, len: usize) -> Vec<f64> {
    let find = |suffix: &str| {
        series
            .iter()
            .find(|(k, _)| *k == format!("{name}{suffix}"))
            .map(|(_, v)| v.clone())
    };
    match (find("_ci_lo"), find("_ci_hi")) {
        (Some(lo), Some(hi)) if lo.len() == len && hi.len() == len => {
            (0..len).map(|i| ((hi[i] - lo[i]) / 2.0).abs()).collect()
        }
        _ => vec![0.0; len],
    }
}

/// The fidelity-equivalence gate: compare a full-fidelity manifest
/// against an adaptive-fidelity manifest of the same configuration and
/// return every violation (empty = the adaptive run is statistically
/// equivalent).
///
/// Rules (DESIGN §12):
/// * `run.mode` must match; `run.fidelity` must be `full` vs `adaptive`.
/// * Figure ids must match pairwise in order.
/// * Counters must be identical, except names under the budget-dependent
///   prefixes (`trials.`, `fidelity.`, …), which are expected to differ.
/// * Each shared numeric series must have equal length, and each entry
///   must satisfy `|full − adaptive| ≤ K·(h_full + h_adaptive)` where the
///   `h` are the 95 % CI half-widths from the `_ci_lo`/`_ci_hi` companion
///   series (0 when absent — i.e. exact match required) and `K` is
///   `ci_widening`.
/// * The adaptive side may add series whose name contains `tail`
///   (rare-event estimates full mode cannot produce); any other extra or
///   missing series is a violation.
/// * Output digests are ignored (adaptive output annotates tiers).
pub fn fidelity_check(full: &Json, adaptive: &Json, ci_widening: f64) -> Vec<String> {
    let mut errs = Vec::new();
    let run_str = |doc: &Json, key: &str| {
        doc.get("run")
            .and_then(|r| r.get(key))
            .and_then(|v| v.as_str())
            .unwrap_or("")
            .to_string()
    };
    let (ma, mb) = (run_str(full, "mode"), run_str(adaptive, "mode"));
    if ma != mb {
        errs.push(format!(
            "run.mode: full manifest {ma:?} vs adaptive manifest {mb:?}"
        ));
    }
    let fa = run_str(full, "fidelity");
    if fa != "full" {
        errs.push(format!(
            "run.fidelity: left manifest must be \"full\", got {fa:?}"
        ));
    }
    let fb = run_str(adaptive, "fidelity");
    if fb != "adaptive" {
        errs.push(format!(
            "run.fidelity: right manifest must be \"adaptive\", got {fb:?}"
        ));
    }
    let figs = |doc: &Json| {
        doc.get("figures")
            .and_then(|f| f.as_arr())
            .map(|f| f.to_vec())
            .unwrap_or_default()
    };
    let (figs_full, figs_adapt) = (figs(full), figs(adaptive));
    if figs_full.len() != figs_adapt.len() {
        errs.push(format!(
            "figures/#len: {} vs {}",
            figs_full.len(),
            figs_adapt.len()
        ));
    }
    for (ff, fa) in figs_full.iter().zip(&figs_adapt) {
        let id = ff
            .get("id")
            .and_then(|v| v.as_str())
            .unwrap_or("?")
            .to_string();
        let id_a = fa.get("id").and_then(|v| v.as_str()).unwrap_or("?");
        if id != id_a {
            errs.push(format!("figure id mismatch: {id:?} vs {id_a:?}"));
            continue;
        }
        // Exact-match metrics, modulo the budget-dependent names.
        let left = counter_map(ff);
        let right = counter_map(fa);
        for (k, v) in &left {
            if budget_dependent(k) {
                continue;
            }
            match right.iter().find(|(rk, _)| rk == k) {
                Some((_, rv)) if rv == v => {}
                Some((_, rv)) => errs.push(format!(
                    "{id}: counters.{k}: {} vs {}",
                    v.to_string_compact(),
                    rv.to_string_compact()
                )),
                None => errs.push(format!("{id}: counters.{k}: missing in adaptive run")),
            }
        }
        for (k, _) in &right {
            if !budget_dependent(k) && !left.iter().any(|(lk, _)| lk == k) {
                errs.push(format!("{id}: counters.{k}: only present in adaptive run"));
            }
        }
        // Series: CI-aware tolerance.
        let left = series_map(ff);
        let right = series_map(fa);
        for (name, xs) in &left {
            if ci_companion(name) {
                continue; // folded into the parent series' tolerance
            }
            let Some((_, ys)) = right.iter().find(|(k, _)| k == name) else {
                errs.push(format!("{id}: series.{name}: missing in adaptive run"));
                continue;
            };
            if xs.len() != ys.len() {
                errs.push(format!(
                    "{id}: series.{name}/#len: {} vs {}",
                    xs.len(),
                    ys.len()
                ));
                continue;
            }
            let hf = half_widths(&left, name, xs.len());
            let ha = half_widths(&right, name, ys.len());
            for i in 0..xs.len() {
                let tol = ci_widening * (hf[i] + ha[i]);
                let diff = (xs[i] - ys[i]).abs();
                let ok = if tol > 0.0 {
                    diff <= tol
                } else {
                    xs[i].to_bits() == ys[i].to_bits()
                };
                if !ok {
                    errs.push(format!(
                        "{id}: series.{name}[{i}]: {} vs {} (|Δ| = {diff:.3e} > tol {tol:.3e})",
                        xs[i], ys[i]
                    ));
                }
            }
        }
        for (name, _) in &right {
            let extra = !left.iter().any(|(k, _)| k == name);
            if extra && !adaptive_only_series(name) {
                errs.push(format!(
                    "{id}: series.{name}: only present in adaptive run (not a tail series)"
                ));
            }
        }
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_sim::telemetry;

    // The telemetry collector is process-global; serialize the tests that
    // reset it so the harness's parallelism cannot interleave them.
    static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        match GUARD.lock() {
            Ok(g) => g,
            Err(e) => e.into_inner(),
        }
    }

    fn sample(threads: usize, wall: u64) -> RunManifest {
        telemetry::reset();
        telemetry::counter_add("trials.demo", 100);
        telemetry::record_series("demo.curve", &[1.0, 2.5, -3.0]);
        let snap = telemetry::take();
        RunManifest {
            mode: "quick".into(),
            fidelity: "full".into(),
            threads,
            figures: vec![FigureRecord {
                id: "F1".into(),
                title: "demo".into(),
                output: "col1 col2\n1 2\n".into(),
                telemetry: snap,
                wall_ns: wall,
            }],
            total_wall_ns: wall,
            total_cpu_ns: wall * 2,
            peak_rss_bytes: 64 * 1024 * 1024,
        }
    }

    /// A manifest document whose one figure carries the given series map
    /// (name → values), for fidelity-gate tests.
    fn doc_with_series(fidelity: &str, series: &[(&str, &[f64])]) -> Json {
        let _ = &GUARD; // series built without touching the global collector
        let mut sobj = Json::object();
        for (name, vals) in series {
            sobj = sobj.with(
                name,
                Json::Arr(vals.iter().map(|&v| Json::Num(v)).collect()),
            );
        }
        Json::object()
            .with("schema", SCHEMA)
            .with(
                "run",
                Json::object()
                    .with("mode", "quick")
                    .with("fidelity", fidelity),
            )
            .with(
                "figures",
                Json::Arr(vec![Json::object().with("id", "F1").with(
                    "values",
                    Json::object()
                        .with("counters", Json::object())
                        .with("series", sobj),
                )]),
            )
    }

    #[test]
    fn manifest_round_trips_and_passes_schema() {
        let _g = locked();
        let m = sample(8, 12345);
        let text = m.to_pretty_string();
        let doc = Json::parse(&text).unwrap();
        assert_eq!(schema_check(&doc), Vec::<String>::new());
    }

    #[test]
    fn schema_check_flags_corruption() {
        let _g = locked();
        let m = sample(8, 12345);
        let mut doc = Json::parse(&m.to_pretty_string()).unwrap();
        doc.set("schema", "bogus/v9");
        assert!(!schema_check(&doc).is_empty());
        assert!(!schema_check(&Json::object()).is_empty());
    }

    #[test]
    fn values_diff_ignores_threads_and_timings() {
        let _g = locked();
        let a = Json::parse(&sample(1, 999).to_pretty_string()).unwrap();
        let b = Json::parse(&sample(8, 123_456_789).to_pretty_string()).unwrap();
        assert!(!diff(&a, &b, false).is_empty(), "timings must differ");
        assert_eq!(diff(&a, &b, true), Vec::new());
    }

    #[test]
    fn values_diff_catches_metric_changes() {
        let _g = locked();
        let a = Json::parse(&sample(1, 1).to_pretty_string()).unwrap();
        let mut m = sample(1, 1);
        m.figures[0].output.push('x');
        let b = Json::parse(&m.to_pretty_string()).unwrap();
        let d = diff(&a, &b, true);
        assert!(
            d.iter().any(|e| e.path.contains("output")),
            "expected an output diff, got {d:?}"
        );
    }

    #[test]
    fn fnv1a_is_the_reference_function() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hex(fnv1a(b"")), "cbf29ce484222325");
    }

    #[test]
    fn adaptive_fidelity_changes_the_config_hash_full_does_not() {
        let _g = locked();
        let full = sample(1, 1);
        let mut adaptive = sample(1, 1);
        adaptive.fidelity = "adaptive".into();
        // Full-fidelity hashes are byte-for-byte the pre-fidelity hashes
        // (the field is appended only when it deviates from "full").
        assert_eq!(full.config_hash(), fnv1a(b"quick;F1"));
        assert_ne!(full.config_hash(), adaptive.config_hash());
    }

    #[test]
    fn schema_check_validates_fidelity_when_present() {
        let _g = locked();
        let mut doc = Json::parse(&sample(1, 1).to_pretty_string()).unwrap();
        assert_eq!(schema_check(&doc), Vec::<String>::new());
        let mut run = doc.get("run").unwrap().clone();
        run.set("fidelity", "turbo");
        doc.set("run", run);
        assert!(schema_check(&doc)
            .iter()
            .any(|e| e.contains("run.fidelity")));
    }

    #[test]
    fn fidelity_check_accepts_values_inside_the_widened_ci() {
        let full = doc_with_series(
            "full",
            &[
                ("f.ber", &[1.00e-3, 2.00e-4]),
                ("f.ber_ci_lo", &[0.90e-3, 1.80e-4]),
                ("f.ber_ci_hi", &[1.10e-3, 2.20e-4]),
            ],
        );
        let adaptive = doc_with_series(
            "adaptive",
            &[
                ("f.ber", &[1.05e-3, 2.10e-4]),
                ("f.ber_ci_lo", &[0.95e-3, 1.90e-4]),
                ("f.ber_ci_hi", &[1.15e-3, 2.30e-4]),
                ("f.tail_ber", &[3.0e-15]),
            ],
        );
        assert_eq!(fidelity_check(&full, &adaptive, 2.0), Vec::<String>::new());
    }

    #[test]
    fn fidelity_check_flags_out_of_tolerance_and_shape_mismatches() {
        let full = doc_with_series(
            "full",
            &[
                ("f.ber", &[1.00e-3]),
                ("f.ber_ci_lo", &[0.99e-3]),
                ("f.ber_ci_hi", &[1.01e-3]),
                ("f.exact", &[7.0]),
            ],
        );
        // Way outside 2×(hf+ha), an inexact "exact" series, an extra
        // non-tail series, and a missing series.
        let adaptive = doc_with_series(
            "adaptive",
            &[
                ("f.ber", &[2.00e-3]),
                ("f.ber_ci_lo", &[1.99e-3]),
                ("f.ber_ci_hi", &[2.01e-3]),
                ("f.exact", &[7.5]),
                ("f.surprise", &[1.0]),
            ],
        );
        let errs = fidelity_check(&full, &adaptive, 2.0);
        assert!(
            errs.iter().any(|e| e.contains("series.f.ber[0]")),
            "{errs:?}"
        );
        assert!(
            errs.iter().any(|e| e.contains("series.f.exact[0]")),
            "{errs:?}"
        );
        assert!(errs.iter().any(|e| e.contains("f.surprise")), "{errs:?}");
    }

    #[test]
    fn fidelity_check_requires_the_fidelity_labels() {
        let a = doc_with_series("full", &[]);
        let b = doc_with_series("full", &[]);
        let errs = fidelity_check(&a, &b, 2.0);
        assert!(errs.iter().any(|e| e.contains("run.fidelity")), "{errs:?}");
    }
}
