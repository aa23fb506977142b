//! Checkpointed exact folds: the batch/resume protocol behind every
//! long-running sweep (the F18 fleet, the F19 traffic points).
//!
//! A checkpointed fold splits its trials into fixed batches, folds each
//! batch through [`TrialPlan::fold`](crate::sweep::TrialPlan::fold), and
//! saves the *cumulative* rollup after every batch. On entry the store is
//! scanned newest batch first and the fold resumes after the last valid
//! checkpoint, so a killed run finishes with the rollup an uninterrupted
//! run produces. Two properties make that exact rather than approximate:
//!
//! * the rollup is an [`ExactRollup`]: fixed-width integers only, merged
//!   by integer addition, so any partition of the trials merged in any
//!   order gives the same bits (the lint R6 contract);
//! * every checkpoint is stamped with a digest of the run's full
//!   configuration and seed, and a load whose digest differs is ignored,
//!   so a stale checkpoint can never seed a different run.
//!
//! [`TrialPlan::fold_checkpointed`](crate::sweep::TrialPlan::fold_checkpointed)
//! runs the protocol; a [`Store`] persists it. [`FileStore`] writes one
//! JSON file per batch, [`NoStore`] keeps nothing.
//!
//! File format (schema named by [`ExactRollup::SCHEMA`], one file
//! `<family>-b<batch>.json` per batch, written to a temp file and renamed
//! so a kill never leaves a torn checkpoint): `schema`, then `batch` and
//! `digest`, then every rollup field by name. Integers are fixed-width
//! lowercase hex strings — 16 digits for `u64`, 32 for `u128`, arrays of
//! 16-digit strings for histograms — because the JSON number layer is
//! f64-backed and would round counts above 2^53.

use crate::json::Json;
use mosaic_units::{MosaicError, Result};
use std::path::PathBuf;

/// One field of an [`ExactRollup`], borrowed mutably so a single visit
/// serves encoding, decoding and hashing.
#[derive(Debug)]
pub enum Field<'a> {
    /// A 64-bit counter.
    U64(&'a mut u64),
    /// A 128-bit counter (fixed-point sums that could pass 2^64).
    U128(&'a mut u128),
    /// A fixed-length histogram of 64-bit counts.
    U64s(&'a mut [u64]),
}

/// An exact-integer rollup: a commutative, associative merge over a fixed
/// list of integer fields.
pub trait ExactRollup: Copy + Default + Send {
    /// Schema identifier written into every checkpoint.
    const SCHEMA: &'static str;

    /// Fold `other` in by exact integer addition: `a.merge(b)` equals
    /// `b.merge(a)` bit for bit.
    fn merge(&mut self, other: &Self);

    /// Visit every field, by name, in declaration order.
    fn fields(&mut self, visit: &mut dyn FnMut(&'static str, Field<'_>));
}

/// FNV-1a ([`Fnv1a::sim`](crate::digest::Fnv1a::sim)) over every field
/// in declaration order (`u128`s as their low then high word): the cheap
/// bit-identity check the determinism gates and resume drills compare.
pub fn fingerprint<R: ExactRollup>(rollup: &R) -> u64 {
    let mut h = crate::digest::Fnv1a::sim();
    let mut r = *rollup;
    r.fields(&mut |_, field| match field {
        Field::U64(v) => {
            h.u64(*v);
        }
        Field::U128(v) => {
            h.u64(*v as u64).u64((*v >> 64) as u64);
        }
        Field::U64s(vs) => {
            for v in vs.iter() {
                h.u64(*v);
            }
        }
    });
    h.finish()
}

/// Persistence for cumulative batch rollups: the kill/resume seam of
/// [`TrialPlan::fold_checkpointed`](crate::sweep::TrialPlan::fold_checkpointed).
pub trait Store<R> {
    /// The cumulative rollup checkpointed after `batch`, if present and
    /// stamped with `digest`.
    fn load(&mut self, batch: u64, digest: u64) -> Option<R>;
    /// Persist the cumulative rollup after `batch`.
    fn save(&mut self, batch: u64, digest: u64, rollup: &R) -> Result<()>;
}

/// A [`Store`] that never persists: every fold starts fresh.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoStore;

impl<R> Store<R> for NoStore {
    fn load(&mut self, _batch: u64, _digest: u64) -> Option<R> {
        None
    }
    fn save(&mut self, _batch: u64, _digest: u64, _rollup: &R) -> Result<()> {
        Ok(())
    }
}

/// How a [`TrialPlan::fold_checkpointed`](crate::sweep::TrialPlan::fold_checkpointed)
/// batches and persists its fold.
pub struct Checkpoints<'s, R> {
    /// Where the cumulative rollup goes after each batch.
    pub store: &'s mut dyn Store<R>,
    /// Digest of the full configuration and seed, stamped on every
    /// checkpoint.
    pub digest: u64,
    /// Trials per batch (at least 1).
    pub batch_trials: u64,
    /// Batches to execute in this invocation (`None`: all of them) — the
    /// kill/resume drill.
    pub stop_after_batches: Option<u64>,
}

/// A [`Store`] of one JSON file per batch, `<dir>/<family>-b<batch>.json`
/// (format in the module docs). `family` keeps concurrent folds — F18's
/// two policies, F19's twelve points — apart within one directory.
#[derive(Debug, Clone)]
pub struct FileStore {
    dir: PathBuf,
    family: String,
}

impl FileStore {
    /// A store writing under `dir` (created on first save).
    pub fn new(dir: impl Into<PathBuf>, family: &str) -> Self {
        FileStore {
            dir: dir.into(),
            family: family.to_string(),
        }
    }

    /// Checkpoint path for one batch.
    pub fn path(&self, batch: u64) -> PathBuf {
        self.dir.join(format!("{}-b{batch}.json", self.family))
    }

    /// Delete this family's checkpoint files, leaving every other file
    /// in the directory alone — what a completed fold calls.
    pub fn clear(&self) {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        let prefix = format!("{}-b", self.family);
        for entry in entries.flatten() {
            let path = entry.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with(&prefix) && name.ends_with(".json") {
                let _ = std::fs::remove_file(path);
            }
        }
    }

    fn write(&self, batch: u64, text: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        let tmp = self.dir.join(format!(".{}-b{batch}.tmp", self.family));
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, self.path(batch))
    }
}

impl<R: ExactRollup> Store<R> for FileStore {
    fn load(&mut self, batch: u64, digest: u64) -> Option<R> {
        let path = self.path(batch);
        let text = std::fs::read_to_string(&path).ok()?;
        match Json::parse(&text)
            .map_err(|e| format!("{e:?}"))
            .and_then(|doc| decode(&doc, batch, digest))
        {
            Ok(r) => Some(r),
            Err(e) => {
                eprintln!("[checkpoint] ignoring invalid {}: {e}", path.display());
                None
            }
        }
    }

    fn save(&mut self, batch: u64, digest: u64, rollup: &R) -> Result<()> {
        let text = encode(batch, digest, rollup).to_string_pretty();
        self.write(batch, &text).map_err(|e| {
            MosaicError::invalid_config(
                "checkpoint",
                format!("cannot write {}: {e}", self.path(batch).display()),
            )
        })
    }
}

fn hex64(v: u64) -> Json {
    Json::from(format!("{v:016x}"))
}

fn parse_hex64(v: Option<&Json>, what: &str) -> std::result::Result<u64, String> {
    let s = v
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{what}: missing or not a string"))?;
    u64::from_str_radix(s, 16).map_err(|_| format!("{what}: not a hex integer"))
}

/// A rollup as checkpoint JSON.
pub fn encode<R: ExactRollup>(batch: u64, digest: u64, rollup: &R) -> Json {
    let mut doc = Json::object()
        .with("schema", R::SCHEMA)
        .with("batch", hex64(batch))
        .with("digest", hex64(digest));
    let mut r = *rollup;
    r.fields(&mut |name, field| {
        let value = match field {
            Field::U64(v) => hex64(*v),
            Field::U128(v) => Json::from(format!("{:032x}", *v)),
            Field::U64s(vs) => Json::Arr(vs.iter().map(|&v| hex64(v)).collect()),
        };
        doc.set(name, value);
    });
    doc
}

/// Checkpoint JSON back into a rollup, rejecting any document that is not
/// exactly the checkpoint of `batch` under `digest`.
pub fn decode<R: ExactRollup>(
    doc: &Json,
    batch: u64,
    digest: u64,
) -> std::result::Result<R, String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(s) if s == R::SCHEMA => {}
        other => return Err(format!("schema: expected {:?}, got {other:?}", R::SCHEMA)),
    }
    if parse_hex64(doc.get("batch"), "batch")? != batch {
        return Err("batch mismatch".into());
    }
    if parse_hex64(doc.get("digest"), "digest")? != digest {
        return Err("config digest mismatch".into());
    }
    let mut r = R::default();
    let mut err = None;
    r.fields(&mut |name, field| {
        if err.is_some() {
            return;
        }
        let v = doc.get(name);
        let parsed = match field {
            Field::U64(x) => parse_hex64(v, name).map(|p| *x = p),
            Field::U128(x) => v
                .and_then(Json::as_str)
                .and_then(|s| u128::from_str_radix(s, 16).ok())
                .map(|p| *x = p)
                .ok_or_else(|| format!("{name}: missing or not a hex integer")),
            Field::U64s(xs) => match v.and_then(Json::as_arr) {
                Some(arr) if arr.len() == xs.len() => arr
                    .iter()
                    .zip(xs.iter_mut())
                    .try_for_each(|(a, x)| parse_hex64(Some(a), name).map(|p| *x = p)),
                _ => Err(format!("{name}: expected an array of {} counts", xs.len())),
            },
        };
        err = parsed.err();
    });
    match err {
        Some(e) => Err(e),
        None => Ok(r),
    }
}
