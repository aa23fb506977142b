//! lint-allow violating fixture: a stale allow (suppresses nothing) and
//! a malformed one (missing reason).

// lint: allow(R1) reason=this function no longer uses a HashMap
pub fn fine() -> u8 {
    7
}

// lint: allow(R2)
pub fn also_fine() -> u8 {
    9
}
