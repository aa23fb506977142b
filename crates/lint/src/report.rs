//! Diagnostics, the aggregate report, JSON serialization, and the human
//! table. Output is deterministic: diagnostics sort by (file, line,
//! rule), maps are BTreeMaps, and the JSON writer emits keys in a fixed
//! order — so golden fixtures can pin exact bytes.
//!
//! Schema `mosaic-lint-report/v2` adds a per-diagnostic `fingerprint`:
//! a line-number-insensitive stable id (rule | level | file | message,
//! plus an ordinal among identical tuples) that survives unrelated edits
//! shifting code up or down. The `--baseline` ratchet and the CI trend
//! diff compare fingerprints, not positions. Readers key on `schema`,
//! `summary.allowed` and the fingerprints alone, so a report written
//! before a summary field was retired still reads as v2.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema tag of [`Report::to_json`] documents.
pub const SCHEMA: &str = "mosaic-lint-report/v2";

/// Diagnostic severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// A rule violation with no (valid) allow annotation: fails the run.
    Deny,
    /// A violation covered by a `// lint: allow(...)` annotation:
    /// counted and reported, does not fail the run.
    Allowed,
}

impl Level {
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Deny => "deny",
            Level::Allowed => "allowed",
        }
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub rule: String,
    pub level: Level,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    pub line: u32,
    pub message: String,
    /// The annotation's reason, for `Allowed` diagnostics.
    pub reason: Option<String>,
    /// Stable id, filled in by [`Report::finish`].
    pub fingerprint: String,
}

/// Call-graph summary counters (see `callgraph`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SymbolStats {
    pub functions: u64,
    pub call_edges: u64,
    pub entry_points: u64,
    pub reachable_fns: u64,
}

/// The full run result.
#[derive(Debug, Default)]
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
    /// Files scanned.
    pub files: u64,
    /// The `no-alloc` kernels (R4): (file, function, harness).
    pub registry: Vec<(String, String, Option<String>)>,
    /// The `exact-fold` kernels (R6): (file, function, proof).
    pub exactness: Vec<(String, String, String)>,
    /// Symbol-table / call-graph counters.
    pub symbols: SymbolStats,
}

impl Report {
    /// Sort diagnostics into canonical order and assign fingerprints.
    /// Call once after all files are scanned.
    pub fn finish(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            (&a.file, a.line, &a.rule, &a.message).cmp(&(&b.file, b.line, &b.rule, &b.message))
        });
        let mut seen: BTreeMap<String, u32> = BTreeMap::new();
        for d in &mut self.diagnostics {
            let key = format!("{}|{}|{}|{}", d.rule, d.level.as_str(), d.file, d.message);
            let ordinal = seen.entry(key.clone()).or_insert(0);
            d.fingerprint = hex16(fnv64(format!("{key}#{ordinal}").as_bytes()));
            *ordinal += 1;
        }
    }

    pub fn deny_count(&self) -> u64 {
        self.count(Level::Deny)
    }

    pub fn allowed_count(&self) -> u64 {
        self.count(Level::Allowed)
    }

    fn count(&self, level: Level) -> u64 {
        self.diagnostics.iter().filter(|d| d.level == level).count() as u64
    }

    /// Allowed-violation counts per rule (the "escape hatch ledger").
    pub fn allows_by_rule(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for d in &self.diagnostics {
            if d.level == Level::Allowed {
                *out.entry(d.rule.clone()).or_insert(0) += 1;
            }
        }
        out
    }

    /// All fingerprints in canonical order.
    pub fn fingerprints(&self) -> Vec<String> {
        self.diagnostics
            .iter()
            .map(|d| d.fingerprint.clone())
            .collect()
    }

    /// Machine-readable report (schema [`SCHEMA`]).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"schema\": \"{SCHEMA}\",");
        let _ = writeln!(s, "  \"summary\": {{");
        let _ = writeln!(s, "    \"deny\": {},", self.deny_count());
        let _ = writeln!(s, "    \"allowed\": {},", self.allowed_count());
        let _ = writeln!(s, "    \"files\": {},", self.files);
        let _ = writeln!(s, "    \"functions\": {},", self.symbols.functions);
        let _ = writeln!(s, "    \"call_edges\": {},", self.symbols.call_edges);
        let _ = writeln!(s, "    \"entry_points\": {},", self.symbols.entry_points);
        let _ = writeln!(s, "    \"reachable_fns\": {}", self.symbols.reachable_fns);
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"allows_by_rule\": {{");
        let allows = self.allows_by_rule();
        for (i, (rule, n)) in allows.iter().enumerate() {
            let comma = if i + 1 < allows.len() { "," } else { "" };
            let _ = writeln!(s, "    {}: {n}{comma}", json_str(rule));
        }
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            let comma = if i + 1 < self.diagnostics.len() {
                ","
            } else {
                ""
            };
            let reason = match &d.reason {
                Some(r) => format!(", \"reason\": {}", json_str(r)),
                None => String::new(),
            };
            let _ = writeln!(
                s,
                "    {{\"rule\": {}, \"level\": {}, \"file\": {}, \"line\": {}, \
                 \"fingerprint\": {}, \"message\": {}{reason}}}{comma}",
                json_str(&d.rule),
                json_str(d.level.as_str()),
                json_str(&d.file),
                d.line,
                json_str(&d.fingerprint),
                json_str(&d.message),
            );
        }
        let _ = writeln!(s, "  ],");
        let _ = writeln!(s, "  \"registry\": [");
        for (i, (file, func, harness)) in self.registry.iter().enumerate() {
            let comma = if i + 1 < self.registry.len() { "," } else { "" };
            let harness = match harness {
                Some(h) => json_str(h),
                None => "null".to_string(),
            };
            let _ = writeln!(
                s,
                "    {{\"file\": {}, \"function\": {}, \"harness\": {harness}}}{comma}",
                json_str(file),
                json_str(func),
            );
        }
        let _ = writeln!(s, "  ],");
        let _ = writeln!(s, "  \"exactness\": [");
        for (i, (file, func, proof)) in self.exactness.iter().enumerate() {
            let comma = if i + 1 < self.exactness.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                s,
                "    {{\"file\": {}, \"function\": {}, \"proof\": {}}}{comma}",
                json_str(file),
                json_str(func),
                json_str(proof),
            );
        }
        let _ = writeln!(s, "  ]");
        s.push_str("}\n");
        s
    }

    /// Human-readable table: one row per diagnostic plus a summary line.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        if !self.diagnostics.is_empty() {
            let loc_w = self
                .diagnostics
                .iter()
                .map(|d| d.file.len() + 1 + digits(d.line))
                .max()
                .unwrap_or(8)
                .max(8);
            let _ = writeln!(
                out,
                "{:<4} {:<7} {:<loc_w$} message",
                "rule", "level", "location"
            );
            for d in &self.diagnostics {
                let loc = format!("{}:{}", d.file, d.line);
                let reason = match &d.reason {
                    Some(r) => format!("  [reason: {r}]"),
                    None => String::new(),
                };
                let _ = writeln!(
                    out,
                    "{:<4} {:<7} {:<loc_w$} {}{reason}",
                    d.rule,
                    d.level.as_str(),
                    loc,
                    d.message
                );
            }
        }
        let _ = writeln!(
            out,
            "mosaic-lint: {} violation(s), {} allowed across {} file(s); \
             {} no-alloc kernel(s), {} exact fold(s); \
             {} fn(s), {} call edge(s), {} fallible entry point(s), {} reachable fn(s)",
            self.deny_count(),
            self.allowed_count(),
            self.files,
            self.registry.len(),
            self.exactness.len(),
            self.symbols.functions,
            self.symbols.call_edges,
            self.symbols.entry_points,
            self.symbols.reachable_fns,
        );
        out
    }
}

fn digits(mut n: u32) -> usize {
    let mut d = 1;
    while n >= 10 {
        n /= 10;
        d += 1;
    }
    d
}

/// FNV-1a 64-bit: the workspace-standard dependency-free hash (matches
/// the spirit of `DetRng::label_hash`), used for diagnostic fingerprints.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fixed-width lowercase hex for a 64-bit hash.
pub fn hex16(h: u64) -> String {
    format!("{h:016x}")
}

/// JSON string literal with escaping.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: &str, level: Level, file: &str, line: u32, message: &str) -> Diagnostic {
        Diagnostic {
            rule: rule.into(),
            level,
            file: file.into(),
            line,
            message: message.into(),
            reason: None,
            fingerprint: String::new(),
        }
    }

    fn sample() -> Report {
        let mut r = Report {
            diagnostics: vec![
                diag("R1", Level::Deny, "b.rs", 3, "HashMap"),
                Diagnostic {
                    reason: Some("wrapper".into()),
                    ..diag("R5", Level::Allowed, "a.rs", 9, "non-literal label")
                },
            ],
            files: 2,
            registry: vec![("k.rs".into(), "kernel".into(), None)],
            ..Report::default()
        };
        r.finish();
        r
    }

    #[test]
    fn diagnostics_sort_canonically() {
        let r = sample();
        assert_eq!(r.diagnostics[0].file, "a.rs");
        assert_eq!(r.deny_count(), 1);
        assert_eq!(r.allowed_count(), 1);
        assert_eq!(r.allows_by_rule().get("R5"), Some(&1));
    }

    #[test]
    fn json_is_parseable_shape_and_escaped() {
        let json = sample().to_json();
        assert!(json.contains("\"schema\": \"mosaic-lint-report/v2\""));
        assert!(json.contains("\"deny\": 1"));
        assert!(json.contains("\"fingerprint\": \""));
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn table_has_summary_line() {
        let t = sample().to_table();
        assert!(t.contains(
            "1 violation(s), 1 allowed across 2 file(s); 1 no-alloc kernel(s), 0 exact fold(s); "
        ));
    }

    #[test]
    fn fingerprints_are_line_insensitive_and_duplicate_stable() {
        let mut a = Report {
            diagnostics: vec![diag("R1", Level::Deny, "x.rs", 10, "HashMap bad")],
            ..Report::default()
        };
        a.finish();
        // The same finding after unrelated code shifted it 50 lines down.
        let mut b = Report {
            diagnostics: vec![diag("R1", Level::Deny, "x.rs", 60, "HashMap bad")],
            ..Report::default()
        };
        b.finish();
        assert_eq!(a.diagnostics[0].fingerprint, b.diagnostics[0].fingerprint);

        // Two identical findings in one file get distinct ordinals.
        let mut c = Report {
            diagnostics: vec![
                diag("R1", Level::Deny, "x.rs", 10, "HashMap bad"),
                diag("R1", Level::Deny, "x.rs", 20, "HashMap bad"),
            ],
            ..Report::default()
        };
        c.finish();
        assert_ne!(c.diagnostics[0].fingerprint, c.diagnostics[1].fingerprint);
        assert_eq!(c.diagnostics[0].fingerprint, a.diagnostics[0].fingerprint);
    }

    #[test]
    fn fnv64_is_stable() {
        // Pinned value: the FNV-1a 64 test vector for "a".
        assert_eq!(fnv64(b""), 0xcbf29ce484222325);
        assert_eq!(hex16(fnv64(b"a")), "af63dc4c8601ec8c");
    }
}
