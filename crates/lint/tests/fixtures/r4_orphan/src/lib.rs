//! R4 violating fixture: markers that declare no function. One sits
//! above a blank line, one above a struct, and one ends the file.

// lint: no-alloc

pub fn kernel(input: &[u8]) -> usize {
    input.len()
}

// lint: no-alloc
pub struct Scratch;

// lint: no-alloc
