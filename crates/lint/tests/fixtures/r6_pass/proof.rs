//! Stand-in integer-rollup proof for the fixture: mentions `rollup`, the
//! marked fold, as a real proof test would.

#[test]
fn rollup_is_thread_invariant() {
    assert_eq!(rollup(&Exec::with_threads(1), 64), rollup(&Exec::with_threads(8), 64));
}
