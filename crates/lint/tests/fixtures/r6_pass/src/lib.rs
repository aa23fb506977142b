//! R6 passing fixture: the parallel fold accumulates exact integers and
//! is registered (with a proof file); iterator folds and sequential
//! sums are out of scope.

/// Registered in the fixture's exactness registry: u64 counters only.
pub fn rollup(exec: &Exec, n: u64) -> u64 {
    TrialPlan::new().trials(n).fold(
        exec,
        || (),
        || 0u64,
        |ctx, _state, acc| {
            *acc += ctx.trial();
        },
        |a, b| *a += b,
    )
}

/// An iterator fold is not a parallel reduction.
pub fn peak(xs: &[f64]) -> f64 {
    xs.iter().fold(f64::MIN, |a, &b| a.max(b))
}

/// A sequential float sum is allowed anywhere.
pub fn mean(xs: &[f64]) -> f64 {
    let mut total = 0.0f64;
    for x in xs {
        total += x;
    }
    total / xs.len() as f64
}
