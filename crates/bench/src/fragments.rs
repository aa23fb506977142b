//! Per-figure manifest fragments: the checkpoint format behind
//! `run_all --resume`.
//!
//! `run_all` writes one fragment per completed figure (atomically:
//! temp-file + rename) under `results/manifests/fragments/`. A killed
//! run leaves the completed figures' fragments behind; `--resume` loads
//! them instead of re-running those figures, then regenerates
//! `results/` and the final manifest **byte-identically** to an
//! uninterrupted run. That works because a fragment captures everything
//! the manifest and result files need from a figure: the full output
//! text (not just its digest), the telemetry value snapshot, and the
//! stage/wall timings.
//!
//! Schema `mosaic-manifest-fragment/v1`:
//!
//! ```json
//! {
//!   "schema": "mosaic-manifest-fragment/v1",
//!   "mode": "quick" | "full",
//!   "id": "F1",
//!   "title": "...",
//!   "output_text": "...",
//!   "wall_ns": 0,
//!   "values": { "counters": {}, "histograms": {}, "series": {} },
//!   "stages": [ { "name": "...", "trials": 0, "wall_ns": 0, "cpu_ns": 0 } ]
//! }
//! ```
//!
//! A fragment whose `mode` does not match the resuming run is rejected
//! (quick fragments must never seed a full run), as is any fragment that
//! fails schema or field validation — the figure is simply re-run.
//!
//! F18 and F19 also checkpoint *within* a figure: their
//! `mosaic_sim::checkpoint::FileStore` batch files (`hf-*`, `tr-*`) live
//! in the same directory, so [`clear_fragments`] (every `*.json`) clears
//! them together with the figure fragments.

use crate::manifest::FigureRecord;
use mosaic_sim::json::Json;
use mosaic_sim::telemetry::{Histogram, Snapshot, StageRecord};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The fragment schema identifier.
pub const FRAGMENT_SCHEMA: &str = "mosaic-manifest-fragment/v1";

/// Canonical fragment path for a figure id under `dir`.
pub fn fragment_path(dir: &Path, id: &str) -> PathBuf {
    dir.join(format!("{}.json", id.to_lowercase()))
}

fn snapshot_to_json(snap: &Snapshot) -> (Json, Json) {
    (snap.values_json(), snap.timings_json())
}

/// Render a figure record as fragment JSON.
pub fn to_json(record: &FigureRecord, mode: &str) -> Json {
    let (values, stages) = snapshot_to_json(&record.telemetry);
    Json::object()
        .with("schema", FRAGMENT_SCHEMA)
        .with("mode", mode)
        .with("id", record.id.as_str())
        .with("title", record.title.as_str())
        .with("output_text", record.output.as_str())
        .with("wall_ns", record.wall_ns)
        .with("values", values)
        .with("stages", stages)
}

/// Write a fragment atomically (temp file + rename), so a kill mid-write
/// can never leave a truncated fragment that `--resume` would trust.
pub fn write_fragment(dir: &Path, record: &FigureRecord, mode: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let final_path = fragment_path(dir, &record.id);
    let tmp_path = dir.join(format!(".{}.tmp", record.id.to_lowercase()));
    std::fs::write(&tmp_path, to_json(record, mode).to_string_pretty())?;
    std::fs::rename(&tmp_path, &final_path)
}

fn parse_u64(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(|v| v.as_u64())
        .ok_or_else(|| format!("{key}: missing or not a non-negative integer"))
}

fn parse_str(doc: &Json, key: &str) -> Result<String, String> {
    doc.get(key)
        .and_then(|v| v.as_str())
        .map(|s| s.to_string())
        .ok_or_else(|| format!("{key}: missing or not a string"))
}

fn parse_f64_arr(v: &Json, what: &str) -> Result<Vec<f64>, String> {
    let arr = v.as_arr().ok_or_else(|| format!("{what}: not an array"))?;
    arr.iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| format!("{what}: non-numeric element"))
        })
        .collect()
}

fn parse_snapshot(values: &Json, stages: &Json) -> Result<Snapshot, String> {
    let mut counters = BTreeMap::new();
    for (k, v) in values
        .get("counters")
        .and_then(|c| c.as_obj())
        .ok_or("values.counters: missing or not an object")?
    {
        counters.insert(
            k.clone(),
            v.as_u64()
                .ok_or_else(|| format!("values.counters.{k}: not an integer"))?,
        );
    }
    let mut histograms = BTreeMap::new();
    for (k, h) in values
        .get("histograms")
        .and_then(|c| c.as_obj())
        .ok_or("values.histograms: missing or not an object")?
    {
        let edges = parse_f64_arr(
            h.get("edges")
                .ok_or_else(|| format!("histogram {k}: no edges"))?,
            "edges",
        )?;
        let counts = h
            .get("counts")
            .and_then(|c| c.as_arr())
            .ok_or_else(|| format!("histogram {k}: no counts"))?
            .iter()
            .map(|c| {
                c.as_u64()
                    .ok_or_else(|| format!("histogram {k}: bad count"))
            })
            .collect::<Result<Vec<u64>, String>>()?;
        let total = h
            .get("total")
            .and_then(|t| t.as_u64())
            .ok_or_else(|| format!("histogram {k}: no total"))?;
        if counts.len() != edges.len() + 1 {
            return Err(format!("histogram {k}: counts/edges length mismatch"));
        }
        histograms.insert(
            k.clone(),
            Histogram {
                edges,
                counts,
                total,
            },
        );
    }
    let mut series = BTreeMap::new();
    for (k, xs) in values
        .get("series")
        .and_then(|c| c.as_obj())
        .ok_or("values.series: missing or not an object")?
    {
        series.insert(k.clone(), parse_f64_arr(xs, &format!("series {k}"))?);
    }
    let mut stage_records = Vec::new();
    for s in stages.as_arr().ok_or("stages: not an array")? {
        stage_records.push(StageRecord {
            name: parse_str(s, "name")?,
            trials: parse_u64(s, "trials")?,
            wall_ns: parse_u64(s, "wall_ns")?,
            cpu_ns: parse_u64(s, "cpu_ns")?,
        });
    }
    Ok(Snapshot {
        counters,
        histograms,
        series,
        stages: stage_records,
    })
}

/// Parse fragment JSON back into a [`FigureRecord`], validating the
/// schema and that the fragment's mode matches `expect_mode`.
pub fn from_json(doc: &Json, expect_mode: &str) -> Result<FigureRecord, String> {
    match doc.get("schema").and_then(|s| s.as_str()) {
        Some(s) if s == FRAGMENT_SCHEMA => {}
        other => {
            return Err(format!(
                "schema: expected {FRAGMENT_SCHEMA:?}, got {other:?}"
            ))
        }
    }
    let mode = parse_str(doc, "mode")?;
    if mode != expect_mode {
        return Err(format!(
            "mode mismatch: fragment is {mode:?}, run is {expect_mode:?}"
        ));
    }
    let telemetry = parse_snapshot(
        doc.get("values").unwrap_or(&Json::Null),
        doc.get("stages").unwrap_or(&Json::Null),
    )?;
    Ok(FigureRecord {
        id: parse_str(doc, "id")?,
        title: parse_str(doc, "title")?,
        output: parse_str(doc, "output_text")?,
        telemetry,
        wall_ns: parse_u64(doc, "wall_ns")?,
    })
}

/// Load and validate the fragment for `id` under `dir`, if one exists.
/// Any unreadable, unparsable, or mismatched fragment returns `None` —
/// the caller re-runs the figure.
pub fn load_fragment(dir: &Path, id: &str, expect_mode: &str) -> Option<FigureRecord> {
    let path = fragment_path(dir, id);
    let text = std::fs::read_to_string(&path).ok()?;
    let doc = match Json::parse(&text) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!(
                "[run_all] ignoring corrupt fragment {}: {e:?}",
                path.display()
            );
            return None;
        }
    };
    match from_json(&doc, expect_mode) {
        Ok(rec) if rec.id == id => Some(rec),
        Ok(rec) => {
            eprintln!(
                "[run_all] ignoring fragment {}: id {:?} does not match {id:?}",
                path.display(),
                rec.id
            );
            None
        }
        Err(e) => {
            eprintln!(
                "[run_all] ignoring invalid fragment {}: {e}",
                path.display()
            );
            None
        }
    }
}

/// Delete every fragment file under `dir` (fresh starts and successful
/// completions both clear the checkpoint state).
pub fn clear_fragments(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) == Some("json") {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Build the snapshot by hand (fields are public) rather than through
    // the process-global telemetry collector, so these tests cannot race
    // with the manifest tests that reset it.
    fn sample_record() -> FigureRecord {
        let mut snap = Snapshot::default();
        snap.counters.insert("trials.demo".into(), 42);
        snap.histograms.insert(
            "h.demo".into(),
            Histogram {
                edges: vec![1.0, 2.0],
                counts: vec![0, 1, 0],
                total: 1,
            },
        );
        snap.series.insert("s.demo".into(), vec![0.25, -1.0, 3e-9]);
        snap.stages.push(StageRecord {
            name: "st.demo".into(),
            trials: 7,
            wall_ns: 99,
            cpu_ns: 55,
        });
        FigureRecord {
            id: "F9".into(),
            title: "demo \"figure\" with\nnewlines".into(),
            output: "col\n1\n2\n".into(),
            telemetry: snap,
            wall_ns: 123_456,
        }
    }

    #[test]
    fn fragment_round_trips_exactly() {
        let rec = sample_record();
        let doc = to_json(&rec, "quick");
        let parsed = Json::parse(&doc.to_string_pretty()).unwrap();
        let back = from_json(&parsed, "quick").unwrap();
        assert_eq!(back.id, rec.id);
        assert_eq!(back.title, rec.title);
        assert_eq!(back.output, rec.output);
        assert_eq!(back.wall_ns, rec.wall_ns);
        assert_eq!(back.telemetry, rec.telemetry);
    }

    #[test]
    fn mode_mismatch_is_rejected() {
        let rec = sample_record();
        let doc = to_json(&rec, "quick");
        assert!(from_json(&doc, "full").is_err());
    }

    #[test]
    fn corrupt_fragments_are_rejected() {
        let rec = sample_record();
        let mut doc = to_json(&rec, "quick");
        doc.set("schema", "bogus/v0");
        assert!(from_json(&doc, "quick").is_err());
        let mut doc = to_json(&rec, "quick");
        doc.set("values", Json::object());
        assert!(from_json(&doc, "quick").is_err());
    }

    #[test]
    fn write_load_clear_cycle() {
        let dir = std::env::temp_dir().join(format!("mosaic-frag-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rec = sample_record();
        write_fragment(&dir, &rec, "quick").unwrap();
        let loaded = load_fragment(&dir, "F9", "quick").expect("fragment loads");
        assert_eq!(loaded.output, rec.output);
        assert_eq!(loaded.telemetry, rec.telemetry);
        // Wrong mode or id: ignored.
        assert!(load_fragment(&dir, "F9", "full").is_none());
        assert!(load_fragment(&dir, "F1", "quick").is_none());
        clear_fragments(&dir);
        assert!(load_fragment(&dir, "F9", "quick").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
