//! Structural pass over the token stream: test-code spans and the
//! `// lint:` comments — `allow(...)` annotations and kernel markers.

use crate::lexer::{lex, Comment, Lexed, Tok, Token};

/// An allow annotation parsed from a line comment.
///
/// Grammar (line comments only):
///
/// ```text
/// // lint: allow(<rule>) reason=<free text to end of line>
/// ```
///
/// The annotation suppresses diagnostics of `<rule>` on the same line or
/// the line directly below. The reason is mandatory — a reasonless allow
/// is itself reported as a violation — and every allow must actually
/// suppress something, or it is reported as stale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    pub line: u32,
    pub rule: String,
    pub reason: String,
}

/// The contract a kernel marker declares for its function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkerKind {
    /// `no-alloc`: no banned allocating call in the body (R4).
    NoAlloc,
    /// `exact-fold`: the function's parallel-fold accumulation is exact
    /// integer arithmetic (R6).
    Exact,
}

impl MarkerKind {
    /// The rule that checks the contract.
    pub fn rule(self) -> &'static str {
        match self {
            MarkerKind::NoAlloc => "R4",
            MarkerKind::Exact => "R6",
        }
    }

    /// The marker's spelling after `lint:`.
    pub fn name(self) -> &'static str {
        match self {
            MarkerKind::NoAlloc => "no-alloc",
            MarkerKind::Exact => "exact-fold",
        }
    }
}

/// A kernel marker parsed from a line comment.
///
/// Grammar (line comments only, on the line directly above the `fn`
/// item — below its doc comment, above any attributes):
///
/// ```text
/// // lint: no-alloc [proof=<counting-allocator harness>]
/// // lint: exact-fold proof=<integer-rollup test>
/// ```
///
/// Paths are workspace-relative. The markers are the kernel list: R4
/// scans every `no-alloc` function's body and R6 accepts accumulation
/// inside the parallel folds of `exact-fold` functions only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Marker {
    pub line: u32,
    pub kind: MarkerKind,
    pub proof: Option<String>,
}

/// A malformed `lint:` comment (unknown shape or missing reason).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadAllow {
    pub line: u32,
    pub message: String,
}

/// Everything the rules need to know about one source file.
#[derive(Debug)]
pub struct FileScan {
    pub tokens: Vec<Token>,
    pub allows: Vec<Allow>,
    pub markers: Vec<Marker>,
    pub bad_allows: Vec<BadAllow>,
    /// Lines an index expression on which a `bound:` comment documents
    /// as unable to overrun (R7): a trailing note covers its own line, a
    /// note alone on its line covers the line below.
    pub bound_note_lines: Vec<u32>,
    /// Half-open token-index ranges that are test-only code
    /// (`#[cfg(test)]` items and `#[test]` functions).
    test_spans: Vec<(usize, usize)>,
}

impl FileScan {
    /// Lex and structure one file.
    pub fn of(src: &str) -> FileScan {
        let Lexed { tokens, comments } = lex(src);
        let (allows, markers, bad_allows) = parse_annotations(&comments);
        // A note alone on its line covers the next one. Tokens come in
        // source order, so their lines are sorted.
        let alone = |line: u32| tokens.binary_search_by_key(&line, |t| t.line).is_err();
        let bound_note_lines = comments
            .iter()
            .filter(|c| c.text.contains("bound:"))
            .map(|c| c.line + u32::from(alone(c.line)))
            .collect();
        let test_spans = find_test_spans(&tokens);
        FileScan {
            tokens,
            allows,
            markers,
            bad_allows,
            bound_note_lines,
            test_spans,
        }
    }

    /// Is token index `i` inside test-only code?
    pub fn is_test_code(&self, i: usize) -> bool {
        self.test_spans.iter().any(|&(a, b)| a <= i && i < b)
    }
}

fn parse_annotations(comments: &[Comment]) -> (Vec<Allow>, Vec<Marker>, Vec<BadAllow>) {
    let mut allows = Vec::new();
    let mut markers = Vec::new();
    let mut bad = Vec::new();
    for c in comments {
        let text = c.text.trim();
        let Some(rest) = text.strip_prefix("lint:") else {
            continue;
        };
        let mut words = rest.split_whitespace();
        let kind = match words.next() {
            Some("no-alloc") => Some(MarkerKind::NoAlloc),
            Some("exact-fold") => Some(MarkerKind::Exact),
            _ => None,
        };
        if let Some(kind) = kind {
            // At most one `proof=<path>` word; `exact-fold` requires it.
            let proof = words
                .next()
                .map(|w| w.strip_prefix("proof=").unwrap_or_default());
            let valid = words.next().is_none()
                && proof.map_or(kind == MarkerKind::NoAlloc, |p| !p.is_empty());
            if valid {
                markers.push(Marker {
                    line: c.line,
                    kind,
                    proof: proof.map(str::to_string),
                });
            } else {
                bad.push(BadAllow {
                    line: c.line,
                    message: format!(
                        "malformed lint marker {text:?}; expected \
                         `lint: no-alloc [proof=<harness>]` or `lint: exact-fold proof=<test>`"
                    ),
                });
            }
            continue;
        }
        let rest = rest.trim();
        let parsed = (|| {
            let rest = rest.strip_prefix("allow(")?;
            let close = rest.find(')')?;
            let rule = rest[..close].trim();
            if rule.is_empty() {
                return None;
            }
            let tail = rest[close + 1..].trim();
            let reason = tail.strip_prefix("reason=")?.trim();
            if reason.is_empty() {
                return None;
            }
            Some(Allow {
                line: c.line,
                rule: rule.to_string(),
                reason: reason.to_string(),
            })
        })();
        match parsed {
            Some(a) => allows.push(a),
            None => bad.push(BadAllow {
                line: c.line,
                message: format!(
                    "malformed lint annotation {text:?}; expected \
                     `lint: allow(<rule>) reason=<why>`"
                ),
            }),
        }
    }
    (allows, markers, bad)
}

/// Find `#[cfg(test)]` / `#[test]` items and return the token span of
/// each (attribute through end of item body, or through `;` for bodiless
/// items).
fn find_test_spans(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut spans: Vec<(usize, usize)> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        // Already inside a recorded span? Skip past it (a #[test] fn
        // inside a #[cfg(test)] mod needs no second span).
        if let Some(&(_, end)) = spans.iter().find(|&&(a, b)| a <= i && i < b) {
            i = end;
            continue;
        }
        if toks[i].tok == Tok::Sym('#') && matches_test_attr(toks, i) {
            let start = i;
            let mut j = i;
            // Skip this and any further attributes.
            while j < toks.len() && toks[j].tok == Tok::Sym('#') {
                j = skip_attr(toks, j);
            }
            // Item body: first `{` before a top-level `;` → brace-match;
            // a `;` first means a bodiless item (e.g. `use`, `mod m;`).
            let mut depth = 0i32;
            let mut k = j;
            let mut end = toks.len();
            while k < toks.len() {
                match toks[k].tok {
                    Tok::Sym('{') => depth += 1,
                    Tok::Sym('}') => {
                        depth -= 1;
                        if depth == 0 {
                            end = k + 1;
                            break;
                        }
                    }
                    Tok::Sym(';') if depth == 0 => {
                        end = k + 1;
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
            spans.push((start, end));
            i = end;
        } else {
            i += 1;
        }
    }
    spans
}

/// Does the attribute starting at `#` token `i` mark test code?
/// Matches `#[test]`, `#[cfg(test)]`, and `#[cfg_attr(test, ...)]`.
fn matches_test_attr(toks: &[Token], i: usize) -> bool {
    let ident = |k: usize, s: &str| toks.get(k).is_some_and(|t| t.tok == Tok::Ident(s.into()));
    let sym = |k: usize, c: char| toks.get(k).is_some_and(|t| t.tok == Tok::Sym(c));
    if !sym(i + 1, '[') {
        return false;
    }
    (ident(i + 2, "test") && sym(i + 3, ']'))
        || ((ident(i + 2, "cfg") || ident(i + 2, "cfg_attr"))
            && sym(i + 3, '(')
            && ident(i + 4, "test"))
}

/// Skip one `#[...]` attribute starting at the `#`; returns the index
/// after the closing `]`.
pub(crate) fn skip_attr(toks: &[Token], i: usize) -> usize {
    let mut j = i + 1;
    let mut depth = 0i32;
    while j < toks.len() {
        match toks[j].tok {
            Tok::Sym('[') => depth += 1,
            Tok::Sym(']') => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_mod_is_test_code() {
        let src = "pub fn lib() {}\n#[cfg(test)]\nmod tests {\n fn helper() {}\n}\n";
        let scan = FileScan::of(src);
        let helper_idx = scan
            .tokens
            .iter()
            .position(|t| t.tok == Tok::Ident("helper".into()))
            .unwrap();
        let lib_idx = scan
            .tokens
            .iter()
            .position(|t| t.tok == Tok::Ident("lib".into()))
            .unwrap();
        assert!(scan.is_test_code(helper_idx));
        assert!(!scan.is_test_code(lib_idx));
    }

    #[test]
    fn test_fn_with_stacked_attrs_is_test_code() {
        let src = "#[test]\n#[ignore]\nfn t() { body(); }\nfn real() { x(); }";
        let scan = FileScan::of(src);
        let body = scan
            .tokens
            .iter()
            .position(|t| t.tok == Tok::Ident("body".into()))
            .unwrap();
        let real = scan
            .tokens
            .iter()
            .position(|t| t.tok == Tok::Ident("real".into()))
            .unwrap();
        assert!(scan.is_test_code(body));
        assert!(!scan.is_test_code(real));
    }

    #[test]
    fn allow_annotation_parses() {
        let scan =
            FileScan::of("// lint: allow(R1) reason=lookup only\nuse std::collections::HashMap;");
        assert_eq!(
            scan.allows,
            vec![Allow {
                line: 1,
                rule: "R1".into(),
                reason: "lookup only".into()
            }]
        );
        assert!(scan.bad_allows.is_empty());
    }

    #[test]
    fn reasonless_allow_is_malformed() {
        let scan = FileScan::of("// lint: allow(R1)\nuse std::collections::HashMap;");
        assert!(scan.allows.is_empty());
        assert_eq!(scan.bad_allows.len(), 1);
    }

    #[test]
    fn markers_parse_with_and_without_proof() {
        let scan = FileScan::of(
            "// lint: no-alloc\nfn a() {}\n// lint: no-alloc proof=t/h.rs\nfn b() {}\n\
             // lint: exact-fold proof=t/p.rs\nfn c() {}\n",
        );
        let got: Vec<_> = scan
            .markers
            .iter()
            .map(|m| (m.line, m.kind, m.proof.as_deref()))
            .collect();
        assert_eq!(
            got,
            vec![
                (1, MarkerKind::NoAlloc, None),
                (3, MarkerKind::NoAlloc, Some("t/h.rs")),
                (5, MarkerKind::Exact, Some("t/p.rs")),
            ]
        );
        assert!(scan.bad_allows.is_empty());
    }

    #[test]
    fn malformed_markers_are_reported() {
        let src = "// lint: exact-fold\n// lint: no-alloc proof=\n// lint: no-alloc harness=x\n\
                   // lint: no-alloc proof=a proof=b\n";
        let scan = FileScan::of(src);
        assert!(scan.markers.is_empty());
        assert_eq!(scan.bad_allows.len(), 4);
        assert!(scan
            .bad_allows
            .iter()
            .all(|b| b.message.starts_with("malformed lint marker")));
    }
}
