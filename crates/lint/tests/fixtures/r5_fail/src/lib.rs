//! R5 failing fixture: a seed collision between two call sites, a
//! non-literal label, a raw stream call, and a captured DetRng.

/// Collides with `also_dup` below: same constructor, same label.
pub fn dup_one(seed: u64) -> DetRng {
    DetRng::substream(seed, "dup")
}

pub fn also_dup(seed: u64) -> DetRng {
    DetRng::substream(seed, "dup")
}

/// The label is computed, so the collision check cannot see it.
pub fn computed(seed: u64, tag: &str) -> DetRng {
    DetRng::substream(seed, tag)
}

/// Raw task-id stream bypasses the labelled namespace entirely.
pub fn raw(seed: u64) -> DetRng {
    DetRng::stream(seed, 7)
}

/// One stream captured by every task: nondeterministic interleaving.
pub fn shared(exec: &Exec, seed: u64) -> Result<Vec<u64>> {
    let mut rng = DetRng::substream(seed, "shared");
    exec.try_run_tasks(4, |_i| rng.next_u64())
}
