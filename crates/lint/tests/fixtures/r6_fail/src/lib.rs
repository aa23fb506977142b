//! R6 failing fixture: float accumulation inside parallel folds without
//! an exact-fold marker, on a plan held in a variable (recognised by its
//! `exec` argument) and on a builder chain; and a stale marker citing a
//! missing proof on a function that folds nothing in parallel.

/// Unregistered float accumulation in a commutative fold: the merge
/// order changes the rounding, so totals drift across thread counts.
pub fn biased(exec: &Exec, n: u64) -> f64 {
    let plan = TrialPlan::new().trials(n);
    plan.fold(
        exec,
        || (),
        || 0.0f64,
        |ctx, _state, acc| {
            *acc += ctx.trial() as f64;
        },
        |a, b| *a += b,
    )
}

/// Same defect on the builder chain.
pub fn plan_biased(exec: &Exec) -> f64 {
    TrialPlan::new().trials(8).fold(
        exec,
        || (),
        || 0.0f64,
        |_ctx, _state, acc| {
            *acc += 0.5;
        },
        |a, b| *a += b,
    )
}

/// A sequential sum: its exact-fold marker is stale.
// lint: exact-fold proof=missing_proof.rs
pub fn rollup(xs: &[u64]) -> u64 {
    xs.iter().sum()
}
