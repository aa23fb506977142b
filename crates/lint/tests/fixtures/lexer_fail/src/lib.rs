//! Lexer edge-case fixture (failing): real violations *after* tricky
//! constructs must still be caught — a lexer that loses sync inside raw
//! strings or nested comments would miss all of them.

/// The raw string is text, but the unwrap and the index after it are real.
pub fn try_after_raw_string(x: Option<u8>, v: &[u8], i: usize) -> Result<u8, String> {
    let doc = r#"x.unwrap() and v[i] in prose"#;
    Ok(x.unwrap() ^ v[i] ^ doc.len() as u8)
}

/* /* nested */ still a comment: x.unwrap() */
pub fn try_after_nested_comment(x: Option<u8>, v: &[u8], i: usize) -> Result<u8, String> {
    let quote = '"';
    Ok(x.unwrap() ^ v[i] ^ quote as u8)
}
