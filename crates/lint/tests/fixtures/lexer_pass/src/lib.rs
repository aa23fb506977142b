//! Lexer edge-case fixture (passing): panic sites inside raw strings,
//! nested block comments, char literals and macro bodies must never
//! become tokens, even in functions every `try_*` entry reaches.

/// Raw string: nothing in here is code.
pub fn try_docs() -> Result<&'static str, String> {
    Ok(r#"x.unwrap(), v[i], Instant::now() and panic!() are just text"#)
}

/// Hash-count raw string with an embedded `"#` sequence.
pub fn try_nested_quote() -> Result<&'static str, String> {
    Ok(r##"still text: "# v[i] "# unwrap()"##)
}

/* Nested /* block /* comments */ close */ properly: x.unwrap() here
   is commentary, as is v[i]. */
pub fn try_after_comments() -> Result<u32, String> {
    Ok(1)
}

/// `::path(` call forms inside macro bodies still lex as tokens — the
/// path below must not be mistaken for a panic site.
pub fn try_in_macros() -> Result<usize, String> {
    let n = core::cmp::max(1usize, core::mem::size_of::<u8>());
    assert!(n >= 1, "size_of::<u8>() is {}, v[i] is text", n);
    Ok(n)
}

/// A char literal quote must not open a string that swallows the rest
/// of the file, and the literal `'['` opens no index.
pub fn try_quotes(v: &[char]) -> Result<(char, char, &'static str), String> {
    Ok(('"', '[', if v.is_empty() { "empty" } else { "plain" }))
}
