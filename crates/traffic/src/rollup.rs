//! Exact-integer traffic accounting, merged commutatively.
//!
//! Every counter is a `u64` and the latency histogram is integer-bucketed
//! (whole epochs), so merging partial rollups is exact addition — no
//! float order-of-operations, no rounding. That is what makes multi-run
//! sweeps thread-invariant and resume-invariant: any partition of the
//! runs, merged in any order, produces the identical rollup, the same
//! contract `FleetRollup` upholds for the hyperfleet simulation.
//!
//! The frame-conservation law is the load-bearing invariant:
//!
//! ```text
//! offered = delivered + expired + exhausted + in-flight
//! ```
//!
//! A finished run has nothing in flight (the harness drains its queues),
//! so `offered = delivered + expired + exhausted` exactly — the CI
//! proptest feeds arbitrary fault masks through the harness and checks
//! the books balance at every epoch.

use mosaic_sim::checkpoint::{self, ExactRollup, Field};

/// Latency histogram buckets. Bucket `i < LAT_BUCKETS - 1` counts frames
/// delivered with a queue-to-delivery latency of exactly `i` epochs
/// (the last data bucket also absorbs anything slower); the final bucket
/// counts frames that were never delivered (deadline expired or
/// retransmit budget exhausted), so loss drags the tail percentiles up
/// instead of silently vanishing from the SLO.
pub const LAT_BUCKETS: usize = 16;

/// Exact-integer rollup of one or more traffic runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficRollup {
    /// Completed runs merged into this rollup.
    pub runs: u64,
    /// Frames emitted by the workload generator.
    pub offered: u64,
    /// Frames delivered intact (CRC-verified) before their deadline
    /// forced expiry.
    pub delivered: u64,
    /// Retransmission attempts launched (free hitless replays included).
    pub retried: u64,
    /// Frames dropped because their delivery deadline passed while
    /// queued.
    pub expired: u64,
    /// Frames dropped because their retransmit budget ran out.
    pub exhausted: u64,
    /// Frames delivered behind a later sequence number of the same flow.
    pub reordered: u64,
    /// Frame candidates the receiver rejected on CRC/framing (each is a
    /// detected corruption, later recovered by retransmission or
    /// accounted as a loss — never silent).
    pub corrupt_frames: u64,
    /// Epochs whose receive failed deskew entirely.
    pub deskew_epochs: u64,
    /// Spare-activation remaps mirrored into the gearboxes.
    pub remaps: u64,
    /// Epochs the hitless-reconfiguration protocol paused transmission.
    pub pause_epochs: u64,
    /// Logical lanes shed after spare exhaustion (rate back-off).
    pub lost_lanes: u64,
    /// Payload bytes delivered intact.
    pub payload_bytes: u64,
    /// Delivered-latency histogram plus the loss bucket (see
    /// [`LAT_BUCKETS`]).
    pub latency_hist: [u64; LAT_BUCKETS],
    /// Sum of delivered latencies in epochs (u128: immune to overflow at
    /// any realistic scale, still exact integer addition).
    pub latency_sum: u128,
}

impl Default for TrafficRollup {
    fn default() -> Self {
        TrafficRollup {
            runs: 0,
            offered: 0,
            delivered: 0,
            retried: 0,
            expired: 0,
            exhausted: 0,
            reordered: 0,
            corrupt_frames: 0,
            deskew_epochs: 0,
            remaps: 0,
            pause_epochs: 0,
            lost_lanes: 0,
            payload_bytes: 0,
            latency_hist: [0; LAT_BUCKETS],
            latency_sum: 0,
        }
    }
}

impl TrafficRollup {
    /// Merge another rollup in: exact integer addition, commutative and
    /// associative by construction (lint R6).
    pub fn merge(&mut self, other: &TrafficRollup) {
        self.runs += other.runs;
        self.offered += other.offered;
        self.delivered += other.delivered;
        self.retried += other.retried;
        self.expired += other.expired;
        self.exhausted += other.exhausted;
        self.reordered += other.reordered;
        self.corrupt_frames += other.corrupt_frames;
        self.deskew_epochs += other.deskew_epochs;
        self.remaps += other.remaps;
        self.pause_epochs += other.pause_epochs;
        self.lost_lanes += other.lost_lanes;
        self.payload_bytes += other.payload_bytes;
        for (a, b) in self.latency_hist.iter_mut().zip(other.latency_hist.iter()) {
            *a += *b;
        }
        self.latency_sum += other.latency_sum;
    }

    /// Record one delivered frame with the given latency in epochs.
    pub fn record_delivery(&mut self, latency_epochs: u64, payload_len: usize) {
        self.delivered += 1;
        self.payload_bytes += payload_len as u64;
        self.latency_sum += u128::from(latency_epochs);
        let bucket = (latency_epochs as usize).min(LAT_BUCKETS - 2);
        self.latency_hist[bucket] += 1;
    }

    /// Record one frame lost for good (expired or budget-exhausted): it
    /// lands in the loss bucket so tail percentiles feel it.
    pub fn record_loss(&mut self) {
        self.latency_hist[LAT_BUCKETS - 1] += 1;
    }

    /// Frames resolved (delivered or lost) — the histogram's total mass.
    pub fn resolved(&self) -> u64 {
        self.latency_hist.iter().sum()
    }

    /// Delivered fraction of offered frames (goodput), `0.0` when
    /// nothing was offered.
    pub fn goodput(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.delivered as f64 / self.offered as f64
    }

    /// Exact integer percentile over the latency histogram (loss bucket
    /// included): the smallest bucket index `b` such that at least
    /// `ceil(resolved * num / den)` resolved frames sat in buckets
    /// `..= b`. Returns the loss-bucket index (`LAT_BUCKETS - 1`) when
    /// the percentile falls on lost frames, and `0` when nothing
    /// resolved. Pure integer arithmetic: thread- and platform-exact.
    pub fn latency_percentile(&self, num: u64, den: u64) -> usize {
        let total = self.resolved();
        if total == 0 || den == 0 {
            return 0;
        }
        // ceil(total * num / den) without floats; u128 dodges overflow.
        let need = (u128::from(total) * u128::from(num)).div_ceil(u128::from(den));
        let mut cum = 0u128;
        for (i, &n) in self.latency_hist.iter().enumerate() {
            cum += u128::from(n);
            if cum >= need {
                return i;
            }
        }
        LAT_BUCKETS - 1
    }

    /// p99 latency bucket (epochs; `LAT_BUCKETS - 1` means the 99th
    /// percentile frame was lost).
    pub fn p99(&self) -> usize {
        self.latency_percentile(99, 100)
    }

    /// p999 latency bucket.
    pub fn p999(&self) -> usize {
        self.latency_percentile(999, 1000)
    }

    /// The conservation check for a *finished* run set:
    /// `delivered + expired + exhausted == offered`.
    pub fn balanced(&self) -> bool {
        self.delivered + self.expired + self.exhausted == self.offered
    }

    /// FNV-1a fingerprint over every counter
    /// ([`checkpoint::fingerprint`]) — the cheap bit-identity check used
    /// by the determinism gates and the resume drill.
    pub fn fingerprint(&self) -> u64 {
        checkpoint::fingerprint(self)
    }
}

impl ExactRollup for TrafficRollup {
    const SCHEMA: &'static str = "mosaic-traffic-rollup/v1";

    fn merge(&mut self, other: &Self) {
        TrafficRollup::merge(self, other);
    }

    fn fields(&mut self, visit: &mut dyn FnMut(&'static str, Field<'_>)) {
        visit("runs", Field::U64(&mut self.runs));
        visit("offered", Field::U64(&mut self.offered));
        visit("delivered", Field::U64(&mut self.delivered));
        visit("retried", Field::U64(&mut self.retried));
        visit("expired", Field::U64(&mut self.expired));
        visit("exhausted", Field::U64(&mut self.exhausted));
        visit("reordered", Field::U64(&mut self.reordered));
        visit("corrupt_frames", Field::U64(&mut self.corrupt_frames));
        visit("deskew_epochs", Field::U64(&mut self.deskew_epochs));
        visit("remaps", Field::U64(&mut self.remaps));
        visit("pause_epochs", Field::U64(&mut self.pause_epochs));
        visit("lost_lanes", Field::U64(&mut self.lost_lanes));
        visit("payload_bytes", Field::U64(&mut self.payload_bytes));
        visit("latency_hist", Field::U64s(&mut self.latency_hist));
        visit("latency_sum", Field::U128(&mut self.latency_sum));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(k: u64) -> TrafficRollup {
        let mut r = TrafficRollup {
            runs: 1,
            offered: 10 * k,
            retried: k,
            expired: k / 2,
            exhausted: k / 3,
            ..TrafficRollup::default()
        };
        for i in 0..k {
            r.record_delivery(i % 7, 100 + i as usize);
        }
        for _ in 0..(k / 2 + k / 3) {
            r.record_loss();
        }
        r
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        let (a, b, c) = (sample(5), sample(11), sample(23));
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        let mut ab_c = ab;
        ab_c.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut a_bc = a;
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
        assert_eq!(ab_c.fingerprint(), a_bc.fingerprint());
    }

    #[test]
    fn percentiles_are_exact_integers() {
        let mut r = TrafficRollup::default();
        // 99 deliveries at 1 epoch, one lost frame: p99 hits the last
        // delivered frame, p999 lands on the loss bucket.
        for _ in 0..99 {
            r.record_delivery(1, 10);
        }
        r.record_loss();
        assert_eq!(r.p99(), 1);
        assert_eq!(r.p999(), LAT_BUCKETS - 1);
        // All-lost: every percentile is the loss bucket.
        let mut dead = TrafficRollup::default();
        dead.record_loss();
        assert_eq!(dead.p99(), LAT_BUCKETS - 1);
        // Empty: degenerate zero.
        assert_eq!(TrafficRollup::default().p99(), 0);
    }

    #[test]
    fn loss_raises_the_tail() {
        let mut clean = TrafficRollup::default();
        let mut lossy = TrafficRollup::default();
        for _ in 0..1000 {
            clean.record_delivery(2, 10);
            lossy.record_delivery(2, 10);
        }
        for _ in 0..20 {
            lossy.record_loss(); // 2% loss
        }
        assert_eq!(clean.p99(), 2);
        assert_eq!(clean.p999(), 2);
        assert_eq!(lossy.p999(), LAT_BUCKETS - 1);
    }

    #[test]
    fn checkpoints_round_trip_exactly() {
        let mut r = sample(9);
        // Above 2^53: a float-backed number field would round these.
        r.payload_bytes = (1u64 << 60) + 77;
        r.latency_sum = (1u128 << 90) + 5;
        let doc = checkpoint::encode(2, 0xfeed_f00d, &r);
        assert_eq!(checkpoint::decode(&doc, 2, 0xfeed_f00d), Ok(r));
        assert!(checkpoint::decode::<TrafficRollup>(&doc, 2, 0xfeed_f00e).is_err());
    }

    #[test]
    fn v1_checkpoints_in_the_earlier_key_order_still_load() {
        // The first v1 writer put `latency_sum` before `latency_hist`;
        // fields are read by name, so both layouts load.
        let r = sample(4);
        let mut doc = checkpoint::encode(1, 0xff, &r);
        if let mosaic_sim::json::Json::Obj(entries) = &mut doc {
            let n = entries.len();
            entries.swap(n - 2, n - 1);
            assert_eq!(entries[n - 2].0, "latency_sum");
        }
        assert_eq!(checkpoint::decode(&doc, 1, 0xff), Ok(r));
    }

    #[test]
    fn balance_check() {
        let mut r = TrafficRollup {
            offered: 10,
            expired: 2,
            exhausted: 1,
            ..TrafficRollup::default()
        };
        for _ in 0..7 {
            r.record_delivery(0, 1);
        }
        assert!(r.balanced());
        r.offered += 1;
        assert!(!r.balanced());
    }
}
