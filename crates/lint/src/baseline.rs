//! Baseline ratchet (schema `mosaic-lint-baseline/v1`).
//!
//! A baseline file pins the *audited* state of the workspace: the number
//! of `// lint: allow(...)` escapes and the fingerprint set of every
//! diagnostic (denied or allowed). `--baseline` mode then enforces a
//! one-way ratchet: runs may shrink both sets but never grow them — a
//! new fingerprint or an extra allow fails CI until it is either fixed
//! or the baseline is deliberately re-written (`--write-baseline`) in
//! the same reviewed change.
//!
//! Fingerprints come from [`crate::report`] and are line-insensitive, so
//! unrelated edits that shift code around do not churn the baseline.
//! `--diff OLD NEW` is the same ratchet between two report files: each is
//! read as a `Baseline` ([`Baseline::from_report_json`]) and OLD checks NEW.

use crate::report;
use std::collections::BTreeSet;
use std::io;
use std::path::Path;

pub const SCHEMA: &str = "mosaic-lint-baseline/v1";

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Baseline {
    /// Audited count of active `lint: allow` escapes.
    pub allowed: usize,
    /// Fingerprints of every known diagnostic (denied + allowed).
    pub fingerprints: BTreeSet<String>,
}

/// Outcome of checking a run against a baseline.
#[derive(Debug, Default)]
pub struct RatchetReport {
    /// Fingerprints present in the run but absent from the baseline.
    pub new_fingerprints: Vec<String>,
    /// Allow-count regression, if any: (baseline, current).
    pub allow_regression: Option<(usize, usize)>,
    /// Fingerprints the baseline still carries but the run no longer
    /// produces — candidates for a tightening re-write.
    pub retired: Vec<String>,
}

impl RatchetReport {
    pub fn is_ok(&self) -> bool {
        self.new_fingerprints.is_empty() && self.allow_regression.is_none()
    }
}

impl Baseline {
    pub fn new(allowed: usize, fingerprints: impl IntoIterator<Item = String>) -> Baseline {
        Baseline {
            allowed,
            fingerprints: fingerprints.into_iter().collect(),
        }
    }

    /// Ratchet check: the current run must introduce no fingerprint the
    /// baseline does not know, and must not grow the allow count.
    pub fn check<'a>(
        &self,
        allowed: usize,
        fingerprints: impl IntoIterator<Item = &'a String>,
    ) -> RatchetReport {
        let current: BTreeSet<&str> = fingerprints.into_iter().map(String::as_str).collect();
        let mut rep = RatchetReport::default();
        for fp in &current {
            if !self.fingerprints.contains(*fp) {
                rep.new_fingerprints.push((*fp).to_string());
            }
        }
        if allowed > self.allowed {
            rep.allow_regression = Some((self.allowed, allowed));
        }
        for fp in &self.fingerprints {
            if !current.contains(fp.as_str()) {
                rep.retired.push(fp.clone());
            }
        }
        rep
    }

    /// Serialize as a small stable JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        s.push_str(&format!("  \"allowed\": {},\n", self.allowed));
        s.push_str("  \"fingerprints\": [\n");
        let n = self.fingerprints.len();
        for (i, fp) in self.fingerprints.iter().enumerate() {
            s.push_str(&format!(
                "    \"{fp}\"{}\n",
                if i + 1 < n { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parse the JSON emitted by [`Baseline::to_json`]. A tiny
    /// hand-rolled reader (the crate is dependency-free); returns `None`
    /// on schema mismatch or malformed input, never panics.
    pub fn from_json(text: &str) -> Option<Baseline> {
        let allowed = schema_and_allowed(text, SCHEMA, text)?;
        let list = text.split("\"fingerprints\"").nth(1)?;
        let list = list.split_once('[')?.1.split_once(']')?.0;
        let fingerprints = list
            .split(',')
            .map(|part| part.trim())
            .filter(|part| !part.is_empty())
            .map(|part| fingerprint(part.strip_prefix('"')?.strip_suffix('"')?))
            .collect::<Option<_>>()?;
        Some(Baseline {
            allowed,
            fingerprints,
        })
    }

    /// Read the ratchet view of a [`report::SCHEMA`] document written by
    /// [`Report::to_json`](crate::report::Report::to_json): its
    /// `summary.allowed` and the fingerprint of every diagnostic. `None`
    /// on schema mismatch or malformed input, never a panic. `--diff`
    /// compares two reports as `old.check(new.allowed, &new.fingerprints)`.
    pub fn from_report_json(text: &str) -> Option<Baseline> {
        let summary = text.split_once("\"summary\": {")?.1.split_once('}')?.0;
        let allowed = schema_and_allowed(text, report::SCHEMA, summary)?;
        let fingerprints = text
            .split("\"fingerprint\": \"")
            .skip(1)
            .map(|part| fingerprint(part.split_once('"')?.0))
            .collect::<Option<_>>()?;
        Some(Baseline {
            allowed,
            fingerprints,
        })
    }

    pub fn load(path: &Path) -> io::Result<Baseline> {
        read(path, SCHEMA, Baseline::from_json)
    }

    /// [`Baseline::from_report_json`] on the file at `path`.
    pub fn load_report(path: &Path) -> io::Result<Baseline> {
        read(path, report::SCHEMA, Baseline::from_report_json)
    }

    pub fn save(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

fn read(path: &Path, schema: &str, parse: fn(&str) -> Option<Baseline>) -> io::Result<Baseline> {
    let text = std::fs::read_to_string(path)?;
    parse(&text).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("not a {schema} document"),
        )
    })
}

/// The `"allowed": N` count inside `section`, if `text` declares `schema`.
fn schema_and_allowed(text: &str, schema: &str, section: &str) -> Option<usize> {
    if !text.contains(&format!("\"schema\": \"{schema}\"")) {
        return None;
    }
    let digits = section.split_once("\"allowed\":")?.1.trim_start();
    let end = digits
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(digits.len());
    digits[..end].parse().ok()
}

/// A fingerprint as [`report::hex16`] writes it: 16 lowercase hex digits.
fn fingerprint(s: &str) -> Option<String> {
    let ok = s.len() == 16 && s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    ok.then(|| s.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(n: u8) -> String {
        crate::report::hex16(crate::report::fnv64(&[n]))
    }

    #[test]
    fn json_roundtrip() {
        let b = Baseline::new(7, vec![fp(1), fp(2), fp(3)]);
        let parsed = Baseline::from_json(&b.to_json()).expect("parses");
        assert_eq!(parsed, b);
    }

    #[test]
    fn empty_baseline_roundtrip() {
        let b = Baseline::new(0, Vec::new());
        assert_eq!(Baseline::from_json(&b.to_json()), Some(b));
    }

    #[test]
    fn ratchet_allows_shrink_but_not_growth() {
        let b = Baseline::new(3, vec![fp(1), fp(2)]);
        // Identical run: ok.
        assert!(b.check(3, &[fp(1), fp(2)]).is_ok());
        // Shrinking both: ok, with retirement candidates surfaced.
        let rep = b.check(1, &[fp(1)]);
        assert!(rep.is_ok());
        assert_eq!(rep.retired, vec![fp(2)]);
        // New fingerprint: fail.
        let rep = b.check(3, &[fp(1), fp(2), fp(9)]);
        assert!(!rep.is_ok());
        assert_eq!(rep.new_fingerprints, vec![fp(9)]);
        // Allow growth: fail.
        let rep = b.check(4, &[fp(1)]);
        assert_eq!(rep.allow_regression, Some((3, 4)));
        assert!(!rep.is_ok());
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(Baseline::from_json("{}").is_none());
        assert!(Baseline::from_json("{\"schema\": \"mosaic-lint-baseline/v1\"}").is_none());
        let bad_fp = "{\n  \"schema\": \"mosaic-lint-baseline/v1\",\n  \"allowed\": 1,\n  \"fingerprints\": [\n    \"nothex\"\n  ]\n}\n";
        assert!(Baseline::from_json(bad_fp).is_none());
        // `]` before `[` once sliced the list backwards and panicked.
        let reversed =
            "{\"schema\": \"mosaic-lint-baseline/v1\", \"allowed\": 0, \"fingerprints\": ] [ }";
        assert!(Baseline::from_json(reversed).is_none());
        let unclosed = format!(
            "{{\"schema\": \"mosaic-lint-baseline/v1\", \"allowed\": 0, \"fingerprints\": [\"{}\"",
            fp(1)
        );
        assert!(Baseline::from_json(&unclosed).is_none());
    }

    fn report_json(allowed: usize, fps: &[String]) -> String {
        let diags: Vec<String> = fps
            .iter()
            .map(|f| format!("{{\"fingerprint\": \"{f}\"}}"))
            .collect();
        format!(
            "{{\"schema\": \"mosaic-lint-report/v2\", \"summary\": {{\"deny\": 0, \"allowed\": {allowed}}}, \"diagnostics\": [{}]}}",
            diags.join(", ")
        )
    }

    #[test]
    fn report_diff_by_fingerprint() {
        let old = Baseline::from_report_json(&report_json(2, &[fp(1), fp(2)])).expect("old");
        let new = Baseline::from_report_json(&report_json(3, &[fp(1), fp(9)])).expect("new");
        assert_eq!(new, Baseline::new(3, vec![fp(1), fp(9)]));
        let rep = old.check(new.allowed, &new.fingerprints);
        assert_eq!(rep.new_fingerprints, vec![fp(9)]);
        assert_eq!(rep.retired, vec![fp(2)]);
        assert_eq!(rep.allow_regression, Some((2, 3)));
    }

    #[test]
    fn report_reader_round_trips_a_real_report() {
        use crate::report::{Diagnostic, Level, Report};
        let diag = |level, line| Diagnostic {
            rule: "R1".into(),
            level,
            file: "x.rs".into(),
            line,
            message: "say \"allowed\": 9 and \"fingerprint\": \"x\"".into(),
            reason: Some("r".into()),
            fingerprint: String::new(),
        };
        let mut r = Report {
            diagnostics: vec![diag(Level::Allowed, 1), diag(Level::Deny, 2)],
            ..Report::default()
        };
        r.finish();
        let read = Baseline::from_report_json(&r.to_json()).expect("parses");
        assert_eq!(read, Baseline::new(1, r.fingerprints()));
    }

    /// A v2 report written before unnoted indexing became an R7 panic
    /// site carries a summary count and a per-file map the current writer
    /// no longer emits. It still reads: CI's first `--diff` after that
    /// change compares against one.
    #[test]
    fn report_reader_accepts_a_report_with_retired_fields() {
        let old = include_str!("../tests/fixtures/legacy_report_v2.json");
        let read = Baseline::from_report_json(old).expect("parses");
        assert_eq!(read.allowed, 1);
        assert_eq!(read.fingerprints.len(), 12);
        assert!(read.fingerprints.contains("d03c87c7bebb4db1"));
    }

    #[test]
    fn report_reader_rejects_other_documents() {
        for text in [
            "garbage\n",
            "",
            &Baseline::new(0, vec![fp(1)]).to_json(),
            &report_json(1, &[fp(1)]).replace("report/v2", "report/v1"),
            &report_json(1, &[fp(1)]).replace("\"allowed\": 1", "\"allowed\": x"),
            &report_json(1, &["nothex".into()]),
            &report_json(1, &[fp(1)]).replace("\"}]", ""),
            "\"schema\": \"mosaic-lint-report/v2\" }  \"summary\": {",
        ] {
            assert!(Baseline::from_report_json(text).is_none(), "{text:?}");
        }
    }
}
