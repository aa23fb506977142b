//! Deterministic packet/flow workload generation.
//!
//! Workloads are the datacenter mixes ROADMAP item 2 calls for: incast
//! bursts, AI-collective all-reduce phases (ring and butterfly
//! schedules), multicast fan-out à la Shufflecast, and Poisson
//! background — emitted as sized frames with per-flow sequence numbers
//! and delivery deadlines.
//!
//! Determinism contract: emission is a pure function of
//! `(seed, flow, epoch)` — every flow-epoch that draws at all draws from
//! its own counter-derived `DetRng` substream, so the offered load is
//! bit-identical across policies, thread counts, and resume points. The
//! harness may reorder, retransmit, or drop frames; it can never change
//! what was offered.

use mosaic_sim::rng::{DetRng, Substreams};

/// Workload taxonomy (DESIGN §15).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Synchronized many-to-one burst: every flow fires together on a
    /// shared period, the classic incast microburst.
    Incast,
    /// Ring all-reduce: steady per-step chunk exchange with a compute
    /// gap every few epochs.
    AllReduceRing,
    /// Butterfly (recursive-halving) all-reduce: fewer, fatter bursts.
    AllReduceButterfly,
    /// Multicast fan-out: one emission replicated to several receivers
    /// (modeled as replica frames sharing an emission epoch).
    MulticastFanout,
    /// Poisson background traffic with jittered sizes.
    PoissonBackground,
    /// Per-flow mixture cycling through all five kinds — the default
    /// datacenter blend.
    Mixed,
}

/// Stable lowercase tag (telemetry names, result tables).
pub fn kind_tag(k: WorkloadKind) -> &'static str {
    match k {
        WorkloadKind::Incast => "incast",
        WorkloadKind::AllReduceRing => "allreduce-ring",
        WorkloadKind::AllReduceButterfly => "allreduce-butterfly",
        WorkloadKind::MulticastFanout => "multicast",
        WorkloadKind::PoissonBackground => "poisson",
        WorkloadKind::Mixed => "mixed",
    }
}

/// Workload shape parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Traffic mix.
    pub kind: WorkloadKind,
    /// Concurrent flows.
    pub flows: u32,
    /// Epochs between emission and delivery deadline.
    pub deadline_epochs: u64,
    /// Base frame payload size in bytes (kinds scale around it).
    pub base_frame_bytes: usize,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            kind: WorkloadKind::Mixed,
            flows: 8,
            deadline_epochs: 12,
            base_frame_bytes: 96,
        }
    }
}

/// One offered frame: flow identity, in-flow sequence number, payload
/// size, and the emission/deadline epochs the SLO accounting runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameSpec {
    /// Flow the frame belongs to.
    pub flow: u32,
    /// Per-flow sequence number (reorder detection).
    pub flow_seq: u32,
    /// Payload bytes.
    pub size: usize,
    /// Epoch the workload emitted it.
    pub emitted: u64,
    /// Last epoch at which delivery still meets the SLO.
    pub deadline: u64,
}

/// The deterministic workload generator.
#[derive(Debug, Clone)]
pub struct Workload {
    cfg: WorkloadConfig,
    /// `(seed, "traffic-flow")`'s stream family, label hashed once.
    streams: Substreams,
    next_seq: Vec<u32>,
}

impl Workload {
    /// Generator for `cfg` on the given seed.
    pub fn new(cfg: WorkloadConfig, seed: u64) -> Self {
        Workload {
            cfg,
            streams: DetRng::substreams(seed, "traffic-flow"),
            next_seq: vec![0; cfg.flows as usize],
        }
    }

    /// Effective kind of one flow under the configured mix.
    fn flow_kind(&self, flow: u32) -> WorkloadKind {
        match self.cfg.kind {
            WorkloadKind::Mixed => match flow % 5 {
                0 => WorkloadKind::Incast,
                1 => WorkloadKind::AllReduceRing,
                2 => WorkloadKind::AllReduceButterfly,
                3 => WorkloadKind::MulticastFanout,
                _ => WorkloadKind::PoissonBackground,
            },
            k => k,
        }
    }

    /// Append this epoch's offered frames to `out` (reused by the
    /// caller; nothing is cleared). Pure in `(seed, flow, epoch)` apart
    /// from the monotone per-flow sequence counters.
    pub fn emit_epoch(&mut self, epoch: u64, out: &mut Vec<FrameSpec>) {
        let base = self.cfg.base_frame_bytes;
        for flow in 0..self.cfg.flows {
            // The scheduled kinds fix their count by the epoch; Poisson
            // (`None`) draws it. A silent scheduled flow-epoch draws
            // nothing, so it skips the stream keying too.
            let (scheduled, size_lo, size_hi) = match self.flow_kind(flow) {
                WorkloadKind::Incast => {
                    // Every flow fires together every 8 epochs.
                    if !epoch.is_multiple_of(8) {
                        continue;
                    }
                    (Some(3), base / 2, base * 2)
                }
                WorkloadKind::AllReduceRing => {
                    // Chunk per step, compute gap every 4th epoch.
                    if epoch % 4 == 3 {
                        continue;
                    }
                    (Some(2), base, base * 2)
                }
                WorkloadKind::AllReduceButterfly => {
                    // log-structured: short fat bursts, longer gaps.
                    if epoch % 8 >= 3 {
                        continue;
                    }
                    (Some(3), base * 3 / 2, base * 5 / 2)
                }
                WorkloadKind::MulticastFanout => {
                    // One emission per 4 epochs, replicated 4-way.
                    if epoch % 4 != 1 {
                        continue;
                    }
                    (Some(4), base, base * 3 / 2)
                }
                WorkloadKind::PoissonBackground => (None, base / 2, base * 5 / 2),
                WorkloadKind::Mixed => unreachable!("flow_kind resolves Mixed"),
            };
            // One substream per (flow, epoch): emission never depends on
            // what the link did with earlier frames.
            let task = (u64::from(flow) << 32) | (epoch & 0xFFFF_FFFF);
            let mut rng = self.streams.child(task);
            let count = scheduled.unwrap_or_else(|| {
                // Mean one frame per epoch via exponential arrivals.
                let mut t = rng.exponential(1.0);
                let mut n = 0usize;
                while t < 1.0 && n < 6 {
                    n += 1;
                    t += rng.exponential(1.0);
                }
                n
            });
            for _ in 0..count {
                let span = size_hi.saturating_sub(size_lo).max(1);
                let size = size_lo + rng.below(span);
                let flow_seq = self.next_seq[flow as usize];
                self.next_seq[flow as usize] = flow_seq.wrapping_add(1);
                out.push(FrameSpec {
                    flow,
                    flow_seq,
                    size,
                    emitted: epoch,
                    deadline: epoch + self.cfg.deadline_epochs,
                });
            }
        }
    }

    /// Append the frame's deterministic payload pattern (a pure function
    /// of flow and sequence number, so deliveries can be integrity-checked
    /// without storing the bytes) to `arena` and return its `(start, len)`
    /// span — the allocation-free arena form the harness epoch loop uses.
    ///
    /// Byte `i` is `(x_{i+1} >> 33) ^ i` over the LCG
    /// `x_{n+1} = a·x_n + c`. 32 copies of the recurrence run side by
    /// side: lane `j` starts at `x_{j+1}`, read straight off the seed
    /// `x_0` through a jump table, and each round appends bytes
    /// `i..i + 32` and moves every lane 32 steps on. The lanes' multiplies
    /// are independent, so a round waits on one multiply, not one per
    /// byte or per word.
    // Every offered frame is written with this pattern.
    // lint: no-alloc proof=crates/traffic/tests/alloc_free.rs
    pub fn payload_into(spec: &FrameSpec, arena: &mut Vec<u8>) -> (usize, usize) {
        let start = arena.len();
        arena.reserve(spec.size);
        let seed = (u64::from(spec.flow) << 32) ^ u64::from(spec.flow_seq) ^ 0x9E37_79B9;
        let (mul, add) = LANE_START;
        let mut x = [0u64; PAYLOAD_LANES];
        for j in 0..PAYLOAD_LANES {
            x[j] = mul[j].wrapping_mul(seed).wrapping_add(add[j]);
        }
        let mut i = 0usize;
        while i + PAYLOAD_LANES <= spec.size {
            arena.extend_from_slice(&lane_bytes(&x, i));
            for lane in x.iter_mut() {
                *lane = lane.wrapping_mul(LANE_ROUND.0).wrapping_add(LANE_ROUND.1);
            }
            i += PAYLOAD_LANES;
        }
        arena.extend_from_slice(&lane_bytes(&x, i)[..spec.size - i]);
        (start, spec.size)
    }
}

/// Bytes `i..i + PAYLOAD_LANES` of a payload from lanes holding
/// `x_{i+1}..=x_{i+PAYLOAD_LANES}`.
#[inline]
fn lane_bytes(x: &[u64; PAYLOAD_LANES], i: usize) -> [u8; PAYLOAD_LANES] {
    let mut out = [0u8; PAYLOAD_LANES];
    for j in 0..PAYLOAD_LANES {
        out[j] = ((x[j] >> 33) as u8) ^ (i + j) as u8;
    }
    out
}

/// The payload LCG's multiplier and increment.
const LCG_A: u64 = 0x5851_F42D_4C95_7F2D;
const LCG_C: u64 = 0x1405_7B7E_F767_814F;
/// Independent LCG lanes per round of [`Workload::payload_into`]. 32
/// keeps four 8-lane vector multiplies in flight; 8 and 16 wait on the
/// multiply latency, 64 spends more on seeding than short frames repay.
const PAYLOAD_LANES: usize = 32;
/// Lane `j`'s start, `x_{j+1} = A_{j+1}·x_0 + C_{j+1}`: the multipliers
/// and increments of `lcg_jump(j + 1)`.
const LANE_START: ([u64; PAYLOAD_LANES], [u64; PAYLOAD_LANES]) = {
    let (mut mul, mut add) = ([0u64; PAYLOAD_LANES], [0u64; PAYLOAD_LANES]);
    let mut j = 0;
    while j < PAYLOAD_LANES {
        (mul[j], add[j]) = lcg_jump(j as u32 + 1);
        j += 1;
    }
    (mul, add)
};
/// One round: every lane moves `PAYLOAD_LANES` steps.
const LANE_ROUND: (u64, u64) = lcg_jump(PAYLOAD_LANES as u32);

/// `(a^n, c·(a^{n-1} + … + 1))` mod 2⁶⁴: the affine map of `n` LCG steps.
const fn lcg_jump(n: u32) -> (u64, u64) {
    let (mut a, mut c) = (1u64, 0u64);
    let mut k = 0;
    while k < n {
        a = a.wrapping_mul(LCG_A);
        c = c.wrapping_mul(LCG_A).wrapping_add(LCG_C);
        k += 1;
    }
    (a, c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn emission_is_deterministic_and_policy_blind() {
        let cfg = WorkloadConfig::default();
        let mut a = Workload::new(cfg, 42);
        let mut b = Workload::new(cfg, 42);
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        for epoch in 0..40 {
            a.emit_epoch(epoch, &mut out_a);
        }
        // Interleave differently: emission cannot depend on call pattern.
        for epoch in 0..20 {
            b.emit_epoch(epoch, &mut out_b);
        }
        for epoch in 20..40 {
            b.emit_epoch(epoch, &mut out_b);
        }
        assert_eq!(out_a, out_b);
        assert!(!out_a.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = WorkloadConfig::default();
        let mut a = Workload::new(cfg, 1);
        let mut b = Workload::new(cfg, 2);
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        for epoch in 0..32 {
            a.emit_epoch(epoch, &mut out_a);
            b.emit_epoch(epoch, &mut out_b);
        }
        assert_ne!(out_a, out_b);
    }

    #[test]
    fn flow_seqs_are_contiguous_per_flow() {
        let cfg = WorkloadConfig {
            kind: WorkloadKind::Mixed,
            flows: 10,
            ..WorkloadConfig::default()
        };
        let mut w = Workload::new(cfg, 7);
        let mut out = Vec::new();
        for epoch in 0..64 {
            w.emit_epoch(epoch, &mut out);
        }
        for flow in 0..10u32 {
            let seqs: Vec<u32> = out
                .iter()
                .filter(|f| f.flow == flow)
                .map(|f| f.flow_seq)
                .collect();
            let expect: Vec<u32> = (0..seqs.len() as u32).collect();
            assert_eq!(seqs, expect, "flow {flow} seqs not contiguous");
        }
    }

    #[test]
    fn every_kind_offers_load() {
        for kind in [
            WorkloadKind::Incast,
            WorkloadKind::AllReduceRing,
            WorkloadKind::AllReduceButterfly,
            WorkloadKind::MulticastFanout,
            WorkloadKind::PoissonBackground,
            WorkloadKind::Mixed,
        ] {
            let cfg = WorkloadConfig {
                kind,
                ..WorkloadConfig::default()
            };
            let mut w = Workload::new(cfg, 9);
            let mut out = Vec::new();
            for epoch in 0..32 {
                w.emit_epoch(epoch, &mut out);
            }
            assert!(!out.is_empty(), "{} offered nothing", kind_tag(kind));
            for f in &out {
                assert!(f.size > 0 && f.size <= 4096);
                assert_eq!(f.deadline, f.emitted + cfg.deadline_epochs);
            }
        }
    }

    /// The payload as the serial recurrence defines it, one LCG step per
    /// byte: the test reference for [`Workload::payload_into`].
    fn serial_payload(spec: &FrameSpec) -> Vec<u8> {
        let mut x = (u64::from(spec.flow) << 32) ^ u64::from(spec.flow_seq) ^ 0x9E37_79B9;
        (0..spec.size)
            .map(|i| {
                x = x.wrapping_mul(LCG_A).wrapping_add(LCG_C);
                ((x >> 33) as u8) ^ (i as u8)
            })
            .collect()
    }

    #[test]
    fn payload_matches_serial_recurrence() {
        for size in (0..70).chain([255, 256, 257, 600, 4096]) {
            let spec = FrameSpec {
                flow: 5,
                flow_seq: 0xABCD + size as u32,
                size,
                emitted: 0,
                deadline: 12,
            };
            let mut arena = vec![0xEE; 13];
            assert_eq!(Workload::payload_into(&spec, &mut arena), (13, size));
            assert_eq!(&arena[..13], &[0xEE; 13]);
            assert_eq!(
                &arena[13..],
                serial_payload(&spec).as_slice(),
                "size {size}"
            );
        }
    }

    proptest! {
        /// Random flows, sequence numbers and sizes up to 600 (18 lane
        /// rounds and any tail length) after a random arena prefix, which
        /// must survive.
        #[test]
        fn payload_matches_serial_recurrence_anywhere(
            flow: u32,
            flow_seq: u32,
            size in 0usize..=600,
            prefix in proptest::collection::vec(any::<u8>(), 1..64),
        ) {
            let spec = FrameSpec { flow, flow_seq, size, emitted: 0, deadline: 12 };
            let mut arena = prefix.clone();
            let span = Workload::payload_into(&spec, &mut arena);
            prop_assert_eq!(span, (prefix.len(), size));
            prop_assert_eq!(&arena[..prefix.len()], prefix.as_slice());
            prop_assert_eq!(&arena[prefix.len()..], serial_payload(&spec).as_slice());
        }
    }

    #[test]
    fn payload_pattern_is_reproducible() {
        let spec = FrameSpec {
            flow: 3,
            flow_seq: 17,
            size: 200,
            emitted: 5,
            deadline: 17,
        };
        let mut a = Vec::new();
        let mut b = Vec::new();
        Workload::payload_into(&spec, &mut a);
        Workload::payload_into(&spec, &mut b);
        assert_eq!(a, b);
        assert_eq!(a.len(), 200);
    }
}
