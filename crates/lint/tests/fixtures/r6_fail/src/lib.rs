//! R6 failing fixture: float accumulation inside parallel folds without
//! a registry entry, on a plan held in a variable (recognised by its
//! `exec` argument) and on a builder chain.

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
