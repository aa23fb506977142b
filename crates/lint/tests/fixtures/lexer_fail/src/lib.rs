//! Lexer edge-case fixture (failing): real violations *after* tricky
//! constructs must still be caught — a lexer that loses sync inside raw
//! strings or nested comments would miss all of them.

/// The raw string is text, but the type after it is a real HashMap.
pub fn after_raw_string() -> usize {
    let doc = r#"HashMap in prose"#;
    let real: HashMap<u8, u8> = HashMap::new();
    doc.len() + real.len()
}

/* /* nested */ still a comment */
pub fn try_after_nested_comment(x: Option<u8>) -> Result<u8, String> {
    Ok(x.unwrap())
}
