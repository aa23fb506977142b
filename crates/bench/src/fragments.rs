//! Per-figure manifest fragments: the record type behind
//! `run_all --resume`.
//!
//! `run_all` writes one fragment per completed figure under
//! `results/manifests/fragments/`. A killed
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
//!   "values": { "counters": {}, "series": {} },
//!   "stages": [ { "name": "...", "trials": 0, "wall_ns": 0, "cpu_ns": 0 } ]
//! }
//! ```
//!
//! This module owns only the envelope (`schema` to `wall_ns`); `values`
//! and `stages` are the telemetry snapshot, written and read by
//! `mosaic_sim::telemetry::Snapshot`. Numbers are JSON numbers, exact up
//! to 2^53. Files go through the record layer of
//! `mosaic_sim::checkpoint`: `write_atomic` writes them, `read_record`
//! loads them, and `clear_records` deletes them. A fragment that is
//! corrupt, of another schema, of another `mode` (quick fragments must
//! never seed a full run) or of another `id` loads as `None`, and the
//! figure is simply re-run.
//!
//! F18 and F19 also checkpoint *within* a figure: their
//! `mosaic_sim::checkpoint::FileStore` batch files (`hf-*`, `tr-*`) live
//! in the same directory, so [`clear_fragments`] (every `*.json` and
//! every writer's `.*.tmp`) clears them together with the figure
//! fragments.

use crate::manifest::FigureRecord;
use mosaic_sim::checkpoint::{check_schema, clear_records, read_record, write_atomic};
use mosaic_sim::json::Json;
use mosaic_sim::telemetry::Snapshot;
use std::path::{Path, PathBuf};

/// The fragment schema identifier.
pub const FRAGMENT_SCHEMA: &str = "mosaic-manifest-fragment/v1";

/// Canonical fragment path for a figure id under `dir`.
pub fn fragment_path(dir: &Path, id: &str) -> PathBuf {
    dir.join(format!("{}.json", id.to_lowercase()))
}

/// Render a figure record as fragment JSON.
pub fn to_json(record: &FigureRecord, mode: &str) -> Json {
    Json::object()
        .with("schema", FRAGMENT_SCHEMA)
        .with("mode", mode)
        .with("id", record.id.as_str())
        .with("title", record.title.as_str())
        .with("output_text", record.output.as_str())
        .with("wall_ns", record.wall_ns)
        .with("values", record.telemetry.values_json())
        .with("stages", record.telemetry.timings_json())
}

/// Write a fragment atomically ([`write_atomic`]), so a kill mid-write
/// can never leave a truncated fragment that `--resume` would trust.
pub fn write_fragment(dir: &Path, record: &FigureRecord, mode: &str) -> std::io::Result<()> {
    write_atomic(
        &fragment_path(dir, &record.id),
        &to_json(record, mode).to_string_pretty(),
    )
}

fn parse_str(doc: &Json, key: &str) -> Result<String, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("{key}: missing or not a string"))
}

/// Parse fragment JSON back into a [`FigureRecord`], validating the
/// schema and that the fragment's mode matches `expect_mode`.
pub fn from_json(doc: &Json, expect_mode: &str) -> Result<FigureRecord, String> {
    check_schema(doc, FRAGMENT_SCHEMA)?;
    let mode = parse_str(doc, "mode")?;
    if mode != expect_mode {
        return Err(format!(
            "mode mismatch: fragment is {mode:?}, run is {expect_mode:?}"
        ));
    }
    let telemetry = Snapshot::from_json(
        doc.get("values").unwrap_or(&Json::Null),
        doc.get("stages").unwrap_or(&Json::Null),
    )?;
    Ok(FigureRecord {
        id: parse_str(doc, "id")?,
        title: parse_str(doc, "title")?,
        output: parse_str(doc, "output_text")?,
        telemetry,
        wall_ns: doc
            .get("wall_ns")
            .and_then(Json::as_u64)
            .ok_or("wall_ns: missing or not a non-negative integer")?,
    })
}

/// Load and validate the fragment for `id` under `dir`, if one exists
/// ([`read_record`]). A fragment that is unreadable, unparsable, or of
/// another schema, mode or id returns `None` — the caller re-runs the
/// figure.
pub fn load_fragment(dir: &Path, id: &str, expect_mode: &str) -> Option<FigureRecord> {
    read_record(&fragment_path(dir, id), |doc| {
        let record = from_json(doc, expect_mode)?;
        if record.id == id {
            Ok(record)
        } else {
            Err(format!("id {:?} does not match {id:?}", record.id))
        }
    })
}

/// Delete every record under `dir` — figure fragments and in-figure
/// checkpoints alike — and every `.*.tmp` file a kill mid-write left
/// behind (fresh starts and successful completions both clear the
/// checkpoint state).
pub fn clear_fragments(dir: &Path) {
    clear_records(dir, "");
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_sim::telemetry::StageRecord;

    // Build the snapshot by hand (fields are public) rather than through
    // the process-global telemetry collector, so these tests cannot race
    // with the manifest tests that reset it.
    fn sample_record() -> FigureRecord {
        let mut snap = Snapshot::default();
        snap.counters.insert("trials.demo".into(), 42);
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

    fn assert_same(a: &FigureRecord, b: &FigureRecord) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.title, b.title);
        assert_eq!(a.output, b.output);
        assert_eq!(a.wall_ns, b.wall_ns);
        assert_eq!(a.telemetry, b.telemetry);
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mosaic-frag-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn envelope_round_trips_exactly() {
        let rec = sample_record();
        assert_same(&from_json(&to_json(&rec, "quick"), "quick").unwrap(), &rec);
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
        doc.set("wall_ns", -1.0);
        assert!(from_json(&doc, "quick").is_err());
    }

    #[test]
    fn write_load_clear_cycle() {
        let dir = temp_dir("cycle");
        let rec = sample_record();
        write_fragment(&dir, &rec, "quick").unwrap();
        let loaded = load_fragment(&dir, "F9", "quick").expect("fragment loads");
        assert_same(&loaded, &rec);
        // Wrong mode or id: ignored.
        assert!(load_fragment(&dir, "F9", "full").is_none());
        std::fs::copy(fragment_path(&dir, "F9"), fragment_path(&dir, "F1")).unwrap();
        assert!(load_fragment(&dir, "F1", "quick").is_none());
        clear_fragments(&dir);
        assert!(load_fragment(&dir, "F9", "quick").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_removes_stale_temp_files() {
        let dir = temp_dir("tmp");
        write_fragment(&dir, &sample_record(), "quick").unwrap();
        // A kill between write and rename leaves the writer's temp file,
        // for a figure fragment or an in-figure checkpoint alike.
        let stale = [dir.join(".f9.tmp"), dir.join(".hf-b2.tmp")];
        for path in &stale {
            std::fs::write(path, "{").unwrap();
        }
        clear_fragments(&dir);
        for path in &stale {
            assert!(!path.exists(), "{} survived clear", path.display());
        }
        assert!(load_fragment(&dir, "F9", "quick").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
