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
    /// parallel it ran): mode + the experiment id list.
    pub fn config_hash(&self) -> u64 {
        let mut desc = self.mode.clone();
        for f in &self.figures {
            desc.push(';');
            desc.push_str(&f.id);
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
    fn config_hash_is_mode_and_figure_ids() {
        let _g = locked();
        assert_eq!(sample(1, 1).config_hash(), fnv1a(b"quick;F1"));
    }
}
