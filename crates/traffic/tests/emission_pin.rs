//! Emission is pinned to the loop that keys a stream for every
//! flow-epoch.
//!
//! `Workload::emit_epoch` keys a flow's `(flow << 32) | epoch` stream only
//! when that flow-epoch draws from it. `keyed_every_flow_epoch` below is
//! the earlier loop, which keyed the stream for every flow-epoch whether
//! or not it drew; the offered frames must be the same, frame for frame.

use mosaic_sim::rng::DetRng;
use mosaic_traffic::workload::{FrameSpec, Workload, WorkloadConfig, WorkloadKind};

/// The reference emitter: every flow-epoch keys
/// `substream_indexed(seed, "traffic-flow", (flow << 32) | epoch)`.
struct KeyedEveryFlowEpoch {
    cfg: WorkloadConfig,
    seed: u64,
    next_seq: Vec<u32>,
}

impl KeyedEveryFlowEpoch {
    fn new(cfg: WorkloadConfig, seed: u64) -> Self {
        KeyedEveryFlowEpoch {
            cfg,
            seed,
            next_seq: vec![0; cfg.flows as usize],
        }
    }

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

    fn emit_epoch(&mut self, epoch: u64, out: &mut Vec<FrameSpec>) {
        let base = self.cfg.base_frame_bytes;
        for flow in 0..self.cfg.flows {
            let task = (u64::from(flow) << 32) | (epoch & 0xFFFF_FFFF);
            let mut rng = DetRng::substream_indexed(self.seed, "traffic-flow", task);
            let (count, size_lo, size_hi) = match self.flow_kind(flow) {
                WorkloadKind::Incast => {
                    if epoch.is_multiple_of(8) {
                        (3, base / 2, base * 2)
                    } else {
                        (0, 0, 0)
                    }
                }
                WorkloadKind::AllReduceRing => {
                    if epoch % 4 == 3 {
                        (0, 0, 0)
                    } else {
                        (2, base, base * 2)
                    }
                }
                WorkloadKind::AllReduceButterfly => {
                    if epoch % 8 < 3 {
                        (3, base * 3 / 2, base * 5 / 2)
                    } else {
                        (0, 0, 0)
                    }
                }
                WorkloadKind::MulticastFanout => {
                    if epoch % 4 == 1 {
                        (4, base, base * 3 / 2)
                    } else {
                        (0, 0, 0)
                    }
                }
                WorkloadKind::PoissonBackground => {
                    let mut t = rng.exponential(1.0);
                    let mut n = 0usize;
                    while t < 1.0 && n < 6 {
                        n += 1;
                        t += rng.exponential(1.0);
                    }
                    (n, base / 2, base * 5 / 2)
                }
                WorkloadKind::Mixed => unreachable!("flow_kind resolves Mixed"),
            };
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
}

#[test]
fn emission_matches_the_loop_that_keys_every_flow_epoch() {
    let kinds = [
        WorkloadKind::Incast,
        WorkloadKind::AllReduceRing,
        WorkloadKind::AllReduceButterfly,
        WorkloadKind::MulticastFanout,
        WorkloadKind::PoissonBackground,
        WorkloadKind::Mixed,
    ];
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for kind in kinds {
        for flows in [1u32, 8, 32] {
            for base_frame_bytes in [32usize, 96] {
                for seed in [1u64, 7, 0xDEAD_BEEF] {
                    let cfg = WorkloadConfig {
                        kind,
                        flows,
                        base_frame_bytes,
                        ..WorkloadConfig::default()
                    };
                    let mut workload = Workload::new(cfg, seed);
                    let mut reference = KeyedEveryFlowEpoch::new(cfg, seed);
                    got.clear();
                    want.clear();
                    for epoch in 0..1024 {
                        workload.emit_epoch(epoch, &mut got);
                        reference.emit_epoch(epoch, &mut want);
                    }
                    assert!(!want.is_empty());
                    assert_eq!(
                        got, want,
                        "{kind:?}, {flows} flows, {base_frame_bytes} B, seed {seed}"
                    );
                }
            }
        }
    }
}
