//! A minimal Rust lexer: just enough structure for token-pattern rules.
//!
//! The build environment vendors every dependency and has no `syn`, so
//! the lint engine tokenizes by hand. The lexer's contract is narrow but
//! load-bearing:
//!
//! * **Comments and string/char literals never produce identifier
//!   tokens** — `"HashMap"` in a message or doc comment cannot trip a
//!   rule.
//! * **Line numbers are exact** (1-based), so diagnostics and
//!   `// lint: allow(...)` annotations anchor correctly.
//! * **Raw strings, nested block comments, lifetimes, and char literals
//!   are disambiguated** — the classic traps for regex-grade scanners.
//!
//! Anything finer-grained (expression structure, types, name resolution)
//! is out of scope: the rules are designed to need only token sequences
//! plus brace-depth structure (see `scan.rs`).

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (`HashMap`, `fn`, `unwrap`, ...).
    Ident(String),
    /// Single punctuation character (`::` arrives as two `:` tokens).
    Sym(char),
    /// String, byte-string, or char literal. The raw contents (between
    /// the delimiters, escapes unprocessed) are carried for the rules
    /// that inspect literal *arguments* — R5 reads `DetRng` substream
    /// labels — but literals never lex as identifiers, so token-pattern
    /// rules still cannot match inside them.
    Str(String),
    /// Numeric literal.
    Num,
}

/// A token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub tok: Tok,
    pub line: u32,
}

/// A `//` line comment (block comments are skipped; the allow-annotation
/// grammar is line-comment only, by design — annotations sit on or above
/// the line they justify).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    pub line: u32,
    pub text: String,
}

/// Lexer output: the token stream plus every line comment.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

/// Tokenize Rust source. Never fails: unrecognized bytes lex as `Sym`,
/// and an unterminated literal consumes to end-of-file (the compiler is
/// the authority on validity; the linter only needs to stay in sync on
/// valid code).
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;

    macro_rules! bump_lines {
        ($s:expr) => {
            line += $s.bytes().filter(|&c| c == b'\n').count() as u32
        };
    }

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let end = memchr_newline(b, i);
                out.comments.push(Comment {
                    line,
                    text: src[i + 2..end].to_string(),
                });
                i = end; // newline handled on next iteration
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                // Nested block comment.
                let mut depth = 1;
                let mut j = i + 2;
                while j < b.len() && depth > 0 {
                    if b[j] == b'/' && j + 1 < b.len() && b[j + 1] == b'*' {
                        depth += 1;
                        j += 2;
                    } else if b[j] == b'*' && j + 1 < b.len() && b[j + 1] == b'/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        if b[j] == b'\n' {
                            line += 1;
                        }
                        j += 1;
                    }
                }
                i = j;
            }
            b'"' => {
                let end = scan_string(b, i);
                bump_lines!(&src[i..end]);
                out.tokens.push(Token {
                    tok: Tok::Str(quoted_contents(src, i, end)),
                    line,
                });
                i = end;
            }
            b'\'' => {
                // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                let next = b.get(i + 1).copied().unwrap_or(0);
                let is_lifetime = (next.is_ascii_alphabetic() || next == b'_')
                    && b.get(i + 2).copied() != Some(b'\'');
                if is_lifetime {
                    let mut j = i + 1;
                    while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                        j += 1;
                    }
                    i = j; // lifetimes carry no rule signal; drop them
                } else {
                    let end = scan_char(b, i);
                    bump_lines!(&src[i..end]);
                    out.tokens.push(Token {
                        tok: Tok::Str(quoted_contents(src, i, end)),
                        line,
                    });
                    i = end;
                }
            }
            c if c.is_ascii_digit() => {
                let end = scan_number(b, i);
                out.tokens.push(Token {
                    tok: Tok::Num,
                    line,
                });
                i = end;
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let mut j = i;
                while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                    j += 1;
                }
                let ident = &src[i..j];
                // Raw / byte string prefixes and raw identifiers.
                let next = b.get(j).copied().unwrap_or(0);
                match (ident, next) {
                    ("r" | "b" | "br" | "rb", b'"') => {
                        let end = if ident == "b" {
                            scan_string(b, j)
                        } else {
                            scan_raw_string(b, j)
                        };
                        bump_lines!(&src[i..end]);
                        out.tokens.push(Token {
                            tok: Tok::Str(quoted_contents(src, j, end)),
                            line,
                        });
                        i = end;
                    }
                    ("r" | "br" | "rb", b'#') => {
                        // `r#"..."#` raw string or `r#ident` raw identifier.
                        let after = b.get(j + 1).copied().unwrap_or(0);
                        if after.is_ascii_alphabetic() || after == b'_' {
                            let mut k = j + 1;
                            while k < b.len() && (b[k].is_ascii_alphanumeric() || b[k] == b'_') {
                                k += 1;
                            }
                            out.tokens.push(Token {
                                tok: Tok::Ident(src[j + 1..k].to_string()),
                                line,
                            });
                            i = k;
                        } else {
                            let end = scan_raw_string(b, j);
                            bump_lines!(&src[i..end]);
                            out.tokens.push(Token {
                                tok: Tok::Str(raw_contents(src, j, end)),
                                line,
                            });
                            i = end;
                        }
                    }
                    ("b", b'\'') => {
                        let end = scan_char(b, j);
                        bump_lines!(&src[i..end]);
                        out.tokens.push(Token {
                            tok: Tok::Str(quoted_contents(src, j, end)),
                            line,
                        });
                        i = end;
                    }
                    _ => {
                        out.tokens.push(Token {
                            tok: Tok::Ident(ident.to_string()),
                            line,
                        });
                        i = j;
                    }
                }
            }
            c => {
                out.tokens.push(Token {
                    tok: Tok::Sym(c as char),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

fn memchr_newline(b: &[u8], from: usize) -> usize {
    b[from..]
        .iter()
        .position(|&c| c == b'\n')
        .map(|p| from + p)
        .unwrap_or(b.len())
}

/// Scan a `"..."` string starting at the opening quote; returns the index
/// one past the closing quote.
fn scan_string(b: &[u8], start: usize) -> usize {
    let mut j = start + 1;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'"' => return j + 1,
            _ => j += 1,
        }
    }
    j
}

/// Scan `r"..."` / `r#"..."#` (arbitrary `#` count) starting at the first
/// `#` or `"` after the prefix letters.
fn scan_raw_string(b: &[u8], start: usize) -> usize {
    let mut hashes = 0usize;
    let mut j = start;
    while j < b.len() && b[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    if b.get(j) != Some(&b'"') {
        // Malformed (`r#` at end of file, or `r#1`): not a raw string
        // after all. Consume just the hashes and keep lexing — the lexer
        // must never fail, even in debug builds.
        return j;
    }
    j += 1;
    while j < b.len() {
        if b[j] == b'"'
            && b[j + 1..]
                .iter()
                .take(hashes)
                .filter(|&&c| c == b'#')
                .count()
                == hashes
        {
            return j + 1 + hashes;
        }
        j += 1;
    }
    j
}

/// Contents of a plain quoted literal spanning `[start, end)`: the bytes
/// between the delimiter at `start` and the closing delimiter (absent on
/// an unterminated literal). Escapes are left raw.
fn quoted_contents(src: &str, start: usize, end: usize) -> String {
    let b = src.as_bytes();
    let open = start + 1;
    let close = if end > open && b.get(end - 1) == Some(&b[start]) {
        end - 1
    } else {
        end
    };
    src.get(open..close).unwrap_or_default().to_string()
}

/// Contents of a raw string `#...#"..."#...#` spanning `[start, end)`
/// where `start` is the first `#`.
fn raw_contents(src: &str, start: usize, end: usize) -> String {
    let b = src.as_bytes();
    let mut hashes = 0usize;
    while b.get(start + hashes) == Some(&b'#') {
        hashes += 1;
    }
    let open = start + hashes + 1; // past the opening quote
    let close = end.saturating_sub(hashes + 1); // before `"##...`
    if open > end || close < open {
        return String::new();
    }
    src.get(open..close).unwrap_or_default().to_string()
}

/// Scan a char literal `'x'`, `'\n'`, `'\u{1F600}'` starting at the quote.
fn scan_char(b: &[u8], start: usize) -> usize {
    let mut j = start + 1;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'\'' => return j + 1,
            _ => j += 1,
        }
    }
    j
}

/// Scan a numeric literal. Consumes alphanumerics and underscores
/// (covers hex/binary/suffixes) and a decimal point only when followed by
/// a digit — so `1..n` and `1.max(2)` don't swallow the dot.
fn scan_number(b: &[u8], start: usize) -> usize {
    let mut j = start;
    while j < b.len() {
        let c = b[j];
        let continues = c.is_ascii_alphanumeric()
            || c == b'_'
            || (c == b'.' && b.get(j + 1).is_some_and(|d| d.is_ascii_digit()));
        if !continues {
            break;
        }
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_identifiers() {
        let src = r##"
            // HashMap in a comment
            /* Instant::now in /* a nested */ block */
            let s = "HashMap"; let r = r#"Instant"#; let c = 'H';
            let real = BTreeMap::new();
        "##;
        let ids = idents(src);
        assert!(!ids.iter().any(|s| s == "HashMap" || s == "Instant"));
        assert!(ids.iter().any(|s| s == "BTreeMap"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let ids = idents("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(ids.iter().any(|s| s == "str"));
        // The 'a lifetimes must not have eaten `(x: &` as a char literal.
        assert!(ids.iter().any(|s| s == "x"));
    }

    #[test]
    fn line_numbers_are_exact() {
        let lexed = lex("a\nb\n\nc");
        let lines: Vec<u32> = lexed.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn comments_are_captured_with_lines() {
        let lexed = lex("x();\n// lint: allow(R1) reason=test\ny();");
        assert_eq!(lexed.comments.len(), 1);
        assert_eq!(lexed.comments[0].line, 2);
        assert!(lexed.comments[0].text.contains("allow(R1)"));
    }

    #[test]
    fn raw_identifiers_lex_as_identifiers() {
        let ids = idents("let r#type = 1;");
        assert!(ids.iter().any(|s| s == "type"));
    }

    #[test]
    fn numbers_do_not_eat_ranges_or_methods() {
        let lexed = lex("for i in 0..10 { x[1].max(2.5); }");
        let dots = lexed
            .tokens
            .iter()
            .filter(|t| t.tok == Tok::Sym('.'))
            .count();
        // `..` (two) + `.max` (one); `2.5` keeps its dot inside the number.
        assert_eq!(dots, 3);
    }

    #[test]
    fn string_tokens_carry_contents() {
        let strs: Vec<String> =
            lex(r###"let a = "plain"; let b = r#"raw "inner""#; let c = 'x';"###)
                .tokens
                .into_iter()
                .filter_map(|t| match t.tok {
                    Tok::Str(s) => Some(s),
                    _ => None,
                })
                .collect();
        assert_eq!(strs, vec!["plain", "raw \"inner\"", "x"]);
    }

    #[test]
    fn malformed_raw_prefix_does_not_panic() {
        // `r#` at end of file and `r#1` are invalid Rust; the lexer must
        // consume them gracefully (contract: lexing never fails).
        let _ = lex("let x = r#");
        let lexed = lex("r#1");
        assert!(lexed.tokens.iter().any(|t| t.tok == Tok::Num));
    }

    #[test]
    fn unterminated_string_consumes_to_eof() {
        let lexed = lex("let s = \"never closed");
        assert!(matches!(
            lexed.tokens.last().map(|t| &t.tok),
            Some(Tok::Str(c)) if c == "never closed"
        ));
    }

    #[test]
    fn multiline_string_advances_line_counter() {
        let lexed = lex("let s = \"a\nb\nc\";\nz");
        let z = lexed.tokens.last().unwrap();
        assert_eq!(z.tok, Tok::Ident("z".into()));
        assert_eq!(z.line, 4);
    }
}
