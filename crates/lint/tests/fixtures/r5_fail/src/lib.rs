//! R5 failing fixture: seed collisions (two call sites; a label family
//! and an indexed site), a non-literal label, a raw stream, a capture.

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
pub fn shared(exec: &Exec, seed: u64) -> Vec<u64> {
    let mut rng = DetRng::substream(seed, "shared");
    TrialPlan::new().trials(4).run(exec, |_ctx| rng.next_u64())
}

/// A hoisted-label family derives the same streams as the indexed
/// constructor with that label, so the two collide.
pub fn family(seed: u64, id: u64) -> DetRng {
    DetRng::substreams(seed, "fam").child(id)
}

pub fn also_family(seed: u64) -> DetRng {
    DetRng::substream_indexed(seed, "fam", 2)
}
