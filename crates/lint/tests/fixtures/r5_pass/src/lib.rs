//! R5 passing fixture: unique literal labels, per-task derivation inside
//! the closure, and an annotated label forwarder.

/// Distinct literal labels never collide; the indexed form may share a
/// label with the plain form because the constructors mix differently.
pub fn streams(seed: u64) -> u64 {
    let mut a = DetRng::substream(seed, "alpha");
    let mut b = DetRng::substream(seed, "beta");
    let mut c = DetRng::substream_indexed(seed, "alpha", 3);
    a.next_u64() ^ b.next_u64() ^ c.next_u64()
}

/// Per-task streams derived inside the task closure are fine.
pub fn per_task(exec: &Exec, seed: u64) -> Vec<u64> {
    TrialPlan::new().trials(4).run(exec, |ctx| {
        let mut rng = DetRng::substream_indexed(seed, "tasks", ctx.trial());
        rng.next_u64()
    })
}

/// Infrastructure forwarders carry an audited allow.
pub fn forwarder(seed: u64, label: &str) -> DetRng {
    // lint: allow(R5) reason=forwards the caller's label; checked at the literal call sites
    DetRng::substream_indexed(seed, label, 0)
}
