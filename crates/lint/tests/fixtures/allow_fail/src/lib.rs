//! lint-allow violating fixture: a stale allow (suppresses nothing) and
//! a malformed one (missing reason).

// lint: allow(R7) reason=this function no longer unwraps
pub fn fine() -> u8 {
    7
}

// lint: allow(R5)
pub fn also_fine() -> u8 {
    9
}
