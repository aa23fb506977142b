//! Structural pass over the token stream: test-code spans, function-body
//! spans, and `// lint: allow(...)` annotations.

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
    pub bad_allows: Vec<BadAllow>,
    /// Lines carrying a `bound:` comment, which documents why an index
    /// expression on that line or the next cannot overrun (R7).
    pub bound_note_lines: Vec<u32>,
    /// Half-open token-index ranges that are test-only code
    /// (`#[cfg(test)]` items and `#[test]` functions).
    test_spans: Vec<(usize, usize)>,
}

impl FileScan {
    /// Lex and structure one file.
    pub fn of(src: &str) -> FileScan {
        let Lexed { tokens, comments } = lex(src);
        let (allows, bad_allows) = parse_allows(&comments);
        let bound_note_lines = comments
            .iter()
            .filter(|c| c.text.contains("bound:"))
            .map(|c| c.line)
            .collect();
        let test_spans = find_test_spans(&tokens);
        FileScan {
            tokens,
            allows,
            bad_allows,
            bound_note_lines,
            test_spans,
        }
    }

    /// Is token index `i` inside test-only code?
    pub fn is_test_code(&self, i: usize) -> bool {
        self.test_spans.iter().any(|&(a, b)| a <= i && i < b)
    }

    /// Find the body token range of `fn name` (first non-test match):
    /// half-open range covering the tokens between the body's braces.
    pub fn fn_body(&self, name: &str) -> Option<(usize, usize)> {
        let toks = &self.tokens;
        let mut i = 0;
        while i + 1 < toks.len() {
            if toks[i].tok == Tok::Ident("fn".into())
                && toks[i + 1].tok == Tok::Ident(name.into())
                && !self.is_test_code(i)
            {
                // Skip the signature: balance `(`…`)`, then take the
                // first `{` at paren depth 0 as the body opener. Return
                // types here never contain braces (no `impl Fn` sugar in
                // the registry functions).
                let mut j = i + 2;
                let mut paren = 0i32;
                while j < toks.len() {
                    match toks[j].tok {
                        Tok::Sym('(') => paren += 1,
                        Tok::Sym(')') => paren -= 1,
                        Tok::Sym('{') if paren == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                if j >= toks.len() {
                    return None;
                }
                let open = j;
                let mut depth = 0i32;
                while j < toks.len() {
                    match toks[j].tok {
                        Tok::Sym('{') => depth += 1,
                        Tok::Sym('}') => {
                            depth -= 1;
                            if depth == 0 {
                                return Some((open + 1, j));
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                return None;
            }
            i += 1;
        }
        None
    }
}

fn parse_allows(comments: &[Comment]) -> (Vec<Allow>, Vec<BadAllow>) {
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    for c in comments {
        let text = c.text.trim();
        let Some(rest) = text.strip_prefix("lint:") else {
            continue;
        };
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
    (allows, bad)
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
fn skip_attr(toks: &[Token], i: usize) -> usize {
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
    fn fn_body_span_covers_only_the_body() {
        let src = "fn outer(a: usize) -> usize { inner() }\nfn tail() { other() }";
        let scan = FileScan::of(src);
        let (a, b) = scan.fn_body("outer").unwrap();
        let names: Vec<_> = scan.tokens[a..b]
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Ident(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(names, vec!["inner"]);
        assert!(scan.fn_body("missing").is_none());
    }

    #[test]
    fn fn_body_skips_test_duplicates() {
        let src = "#[cfg(test)]\nmod t { fn hot() { alloc() } }\nfn hot() { clean() }";
        let scan = FileScan::of(src);
        let (a, b) = scan.fn_body("hot").unwrap();
        let has_clean = scan.tokens[a..b]
            .iter()
            .any(|t| t.tok == Tok::Ident("clean".into()));
        assert!(has_clean);
    }
}
