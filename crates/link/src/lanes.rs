//! Per-lane health monitoring and spare-channel mapping.
//!
//! Mosaic's reliability story (claim C3) rests on cheap redundancy: a few
//! spare microLED/core/PD channels replace any failed channel, invisible
//! above the gearbox. [`LaneHealth`] estimates each channel's live BER from
//! a sliding window of bit-error counts (the degrade controller runs the
//! same monitor, `RingCounts`, over one slot buffer for all its channels);
//! [`LaneMap`] maintains the logical-lane → physical-channel assignment
//! and swaps in spares when a channel degrades.

/// Sliding-window BER monitor for one physical channel.
///
/// Completed windows sit in a fixed ring of error counts with a running
/// sum, so [`LaneHealth::record`], [`LaneHealth::ber`] and
/// [`LaneHealth::degraded`] are O(1) per closed window and allocation-free
/// after [`LaneHealth::try_new`]. Every completed window holds exactly
/// `window_bits` bits, so only its error count is stored.
#[derive(Debug, Clone)]
pub struct LaneHealth {
    /// The ring: `max_windows` error-count slots.
    ring: Vec<u64>,
    counts: RingCounts,
}

impl LaneHealth {
    /// Monitor with a given window size in bits, keeping `max_windows`
    /// completed windows of history.
    ///
    /// # Panics
    /// Panics on zero parameters; use [`LaneHealth::try_new`] to handle
    /// the error instead.
    pub fn new(window_bits: u64, max_windows: usize) -> Self {
        match Self::try_new(window_bits, max_windows) {
            Ok(h) => h,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`LaneHealth::new`]: errors on zero window size or count.
    pub fn try_new(window_bits: u64, max_windows: usize) -> mosaic_units::Result<Self> {
        Ok(LaneHealth {
            counts: RingCounts::try_new(window_bits, max_windows)?,
            ring: vec![0; max_windows],
        })
    }

    /// Record `bits` observed with `errors` mismatches. An error count
    /// exceeding the bit count is clamped — counters fed from hardware
    /// telemetry can glitch, and a saturated window is the conservative
    /// reading.
    pub fn record(&mut self, bits: u64, errors: u64) {
        self.counts.record(&mut self.ring, bits, errors);
    }

    /// Forget all observations, keeping the allocated history storage.
    /// Used when a link is rebuilt in place (hardware swap): the new
    /// channel starts with a clean monitor but no fresh allocation.
    pub fn reset(&mut self) {
        self.ring.fill(0);
        self.counts.reset();
    }

    /// BER estimate over the retained history (plus the open window),
    /// or `None` before any data.
    pub fn ber(&self) -> Option<f64> {
        self.counts.ber()
    }

    /// True once the measured BER exceeds `threshold` with at least one
    /// full window of evidence.
    pub fn degraded(&self, threshold: f64) -> bool {
        self.counts.degraded(threshold)
    }
}

/// A [`LaneHealth`] without its ring: the counters and the arithmetic,
/// run on ring slots the caller owns. The degrade controller keeps one
/// per channel over a single slot buffer for all its channels, so a
/// controller allocates its monitor storage once.
#[derive(Debug, Clone)]
pub(crate) struct RingCounts {
    window_bits: u64,
    /// Completed windows held: `len` slots of the ring, oldest at `head`.
    head: usize,
    len: usize,
    /// Sum of the `len` held slots.
    hist_errors: u64,
    cur_bits: u64,
    cur_errors: u64,
}

impl RingCounts {
    /// Counters for a ring of `max_windows` slots; errors on a zero window
    /// size or count.
    pub(crate) fn try_new(window_bits: u64, max_windows: usize) -> mosaic_units::Result<Self> {
        if window_bits == 0 || max_windows == 0 {
            return Err(mosaic_units::MosaicError::invalid_config(
                "lane_monitor",
                "window size and history depth must be non-zero",
            ));
        }
        Ok(RingCounts {
            window_bits,
            head: 0,
            len: 0,
            hist_errors: 0,
            cur_bits: 0,
            cur_errors: 0,
        })
    }

    /// [`LaneHealth::record`] on `ring`, this monitor's `max_windows`
    /// slots (the same slice on every call).
    pub(crate) fn record(&mut self, ring: &mut [u64], bits: u64, errors: u64) {
        let errors = errors.min(bits);
        self.cur_bits += bits;
        self.cur_errors += errors;
        while self.cur_bits >= self.window_bits {
            // Close a window (approximately: carry the remainder forward).
            // A window closed exactly carries nothing: the product is 0.
            let carry_bits = self.cur_bits - self.window_bits;
            let carry_errors = if carry_bits == 0 {
                0
            } else {
                ((self.cur_errors as f64) * (carry_bits as f64 / self.cur_bits as f64)) as u64
            };
            let closed = self.cur_errors - carry_errors;
            // Append the closed window, evicting the oldest once the ring
            // is full.
            let cap = ring.len();
            if self.len < cap {
                ring[(self.head + self.len) % cap] = closed;
                self.len += 1;
            } else {
                self.hist_errors -= ring[self.head];
                ring[self.head] = closed;
                self.head = (self.head + 1) % cap;
            }
            self.hist_errors += closed;
            self.cur_bits = carry_bits;
            self.cur_errors = carry_errors;
        }
    }

    /// Forget all observations (the ring's slots are dead until
    /// overwritten).
    pub(crate) fn reset(&mut self) {
        self.head = 0;
        self.len = 0;
        self.hist_errors = 0;
        self.cur_bits = 0;
        self.cur_errors = 0;
    }

    /// [`LaneHealth::ber`].
    pub(crate) fn ber(&self) -> Option<f64> {
        let bits = self.len as u64 * self.window_bits + self.cur_bits;
        if bits == 0 {
            return None;
        }
        Some((self.hist_errors + self.cur_errors) as f64 / bits as f64)
    }

    /// [`LaneHealth::degraded`].
    pub(crate) fn degraded(&self, threshold: f64) -> bool {
        if self.len == 0 {
            return false;
        }
        matches!(self.ber(), Some(ber) if ber > threshold)
    }
}

/// Why a physical channel was taken out of service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// BER monitor crossed the degrade threshold.
    Degraded,
    /// Hard failure (no light / no lock).
    Dead,
}

/// Logical-lane to physical-channel assignment with hot spares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneMap {
    /// `assignment[logical] = physical channel index`.
    assignment: Vec<usize>,
    /// Unused healthy channels available as spares.
    spares: Vec<usize>,
    /// Channels removed from service, with the reason.
    retired: Vec<(usize, FailureKind)>,
    /// Bit `p` set: channel `p` (below [`FLAGGED`]) appears in
    /// `assignment`. Kept in step with it so "does this channel carry a
    /// lane?" is O(1) without one more allocation per map.
    carrying: u128,
}

/// Channels below this index keep their "carries a lane" flag as a bit
/// of `LaneMap::carrying`; any above it are looked up in the assignment.
const FLAGGED: usize = u128::BITS as usize;

/// `carrying`'s bit for channel `physical`; 0 from [`FLAGGED`] on.
fn flag(physical: usize) -> u128 {
    if physical < FLAGGED {
        1 << physical
    } else {
        0
    }
}

/// `carrying` for the pristine map: lane `i` on channel `i`.
fn pristine_flags(logical: usize) -> u128 {
    if logical >= FLAGGED {
        u128::MAX
    } else {
        flag(logical) - 1
    }
}

impl LaneMap {
    /// Create a map with `logical` active lanes drawn from `physical`
    /// channels; the surplus becomes the spare pool. Errors when
    /// `physical < logical`.
    pub fn try_new(logical: usize, physical: usize) -> mosaic_units::Result<Self> {
        if physical < logical {
            return Err(mosaic_units::MosaicError::invalid_config(
                "physical_channels",
                format!("need at least {logical} channels, have {physical}"),
            ));
        }
        Ok(LaneMap {
            assignment: (0..logical).collect(),
            spares: (logical..physical).collect(),
            retired: vec![],
            carrying: pristine_flags(logical),
        })
    }

    /// Number of logical lanes.
    pub fn logical_lanes(&self) -> usize {
        self.assignment.len()
    }

    /// Physical channel currently carrying `logical`.
    pub fn physical_for(&self, logical: usize) -> usize {
        self.assignment[logical]
    }

    /// The current assignment slice.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Does physical channel `physical` carry a logical lane? Equal to
    /// `assignment().contains(&physical)`, in O(1) below channel 128;
    /// `false` out of range.
    pub fn carries_lane(&self, physical: usize) -> bool {
        if physical < FLAGGED {
            self.carrying & flag(physical) != 0
        } else {
            self.assignment.contains(&physical)
        }
    }

    /// Channels retired so far.
    pub fn retired(&self) -> &[(usize, FailureKind)] {
        &self.retired
    }

    /// Restore the pristine assignment (lane `i` → channel `i`, surplus
    /// as spares, nothing retired) without releasing allocated storage.
    ///
    /// The original geometry is recovered from the containers: every
    /// physical channel lives in exactly one of `assignment`, `spares`,
    /// or `retired` (swaps move channels between them one-for-one), so
    /// their combined length is the provisioned channel count.
    pub fn reset(&mut self) {
        let logical = self.assignment.len();
        let physical = logical + self.spares.len() + self.retired.len();
        self.assignment.clear();
        self.assignment.extend(0..logical);
        self.spares.clear();
        self.spares.extend(logical..physical);
        self.retired.clear();
        self.carrying = pristine_flags(logical);
    }

    /// Report a physical-channel failure. If the channel is active, a
    /// spare is swapped in; returns the logical lane that was remapped.
    /// Returns `Err(NoSpares)` if the channel was active but no spare
    /// remains — the link must degrade (fewer lanes) or go down.
    pub fn fail_channel(
        &mut self,
        physical: usize,
        kind: FailureKind,
    ) -> Result<Option<usize>, NoSpares> {
        if let Some(pos) = self.spares.iter().position(|&s| s == physical) {
            // A spare died in the pool: just drop it.
            self.spares.remove(pos);
            self.retired.push((physical, kind));
            return Ok(None);
        }
        let Some(logical) = self.assignment.iter().position(|&p| p == physical) else {
            // Already retired; nothing to do.
            return Ok(None);
        };
        let Some(replacement) = self.spares.pop() else {
            return Err(NoSpares { logical });
        };
        self.assignment[logical] = replacement;
        self.carrying = self.carrying & !flag(physical) | flag(replacement);
        self.retired.push((physical, kind));
        Ok(Some(logical))
    }
}

/// No spare channel remains for a required remap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoSpares {
    /// The logical lane left without a physical channel.
    pub logical: usize,
}

impl std::fmt::Display for NoSpares {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "no spare channel left for logical lane {}", self.logical)
    }
}

impl std::error::Error for NoSpares {}

impl From<NoSpares> for mosaic_units::MosaicError {
    fn from(e: NoSpares) -> Self {
        mosaic_units::MosaicError::infeasible(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn health_tracks_ber() {
        let mut h = LaneHealth::new(1000, 4);
        h.record(10_000, 10);
        let ber = h.ber().unwrap();
        assert!((ber - 1e-3).abs() < 1e-4, "got {ber}");
    }

    #[test]
    fn degraded_requires_full_window() {
        let mut h = LaneHealth::new(10_000, 4);
        h.record(100, 50); // terrible, but not yet a full window
        assert!(!h.degraded(1e-3));
        h.record(20_000, 10_000);
        assert!(h.degraded(1e-3));
    }

    #[test]
    fn history_is_bounded() {
        // Fifty saturated windows, then clean ones: with three windows of
        // history the saturated ones are gone after the third clean one.
        let mut h = LaneHealth::new(100, 3);
        for _ in 0..50 {
            h.record(100, 100);
        }
        h.record(100, 0);
        h.record(100, 0);
        assert_eq!(h.ber(), Some(1.0 / 3.0));
        h.record(100, 0);
        assert_eq!(h.ber(), Some(0.0));
        assert!(!h.degraded(0.0));
    }

    /// The monitor as it was before the error ring: a `Vec` of
    /// `(bits, errors)` per completed window, oldest first, trimmed with
    /// `remove(0)`, summed on every read.
    struct VecHealth {
        window_bits: u64,
        history: Vec<(u64, u64)>,
        cur_bits: u64,
        cur_errors: u64,
        max_windows: usize,
    }

    impl VecHealth {
        fn record(&mut self, bits: u64, errors: u64) {
            let errors = errors.min(bits);
            self.cur_bits += bits;
            self.cur_errors += errors;
            while self.cur_bits >= self.window_bits {
                let carry_bits = self.cur_bits - self.window_bits;
                let carry_errors =
                    ((self.cur_errors as f64) * (carry_bits as f64 / self.cur_bits as f64)) as u64;
                self.history
                    .push((self.window_bits, self.cur_errors - carry_errors));
                if self.history.len() > self.max_windows {
                    self.history.remove(0);
                }
                self.cur_bits = carry_bits;
                self.cur_errors = carry_errors;
            }
        }

        fn reset(&mut self) {
            self.history.clear();
            self.cur_bits = 0;
            self.cur_errors = 0;
        }

        fn ber(&self) -> Option<f64> {
            let bits: u64 = self.history.iter().map(|&(b, _)| b).sum::<u64>() + self.cur_bits;
            if bits == 0 {
                return None;
            }
            let errors: u64 = self.history.iter().map(|&(_, e)| e).sum::<u64>() + self.cur_errors;
            Some(errors as f64 / bits as f64)
        }

        fn degraded(&self, threshold: f64) -> bool {
            if self.history.is_empty() {
                return false;
            }
            matches!(self.ber(), Some(ber) if ber > threshold)
        }
    }

    #[test]
    fn spare_swap_on_failure() {
        let mut map = LaneMap::try_new(4, 6).unwrap(); // spares: {4, 5}
        assert_eq!(map.spares.len(), 2);
        let remapped = map.fail_channel(1, FailureKind::Dead).unwrap();
        assert_eq!(remapped, Some(1));
        assert_ne!(map.physical_for(1), 1);
        assert_eq!(map.spares.len(), 1);
    }

    #[test]
    fn spare_pool_failure_consumes_spare_quietly() {
        let mut map = LaneMap::try_new(4, 6).unwrap();
        assert_eq!(map.fail_channel(5, FailureKind::Degraded).unwrap(), None);
        assert_eq!(map.spares.len(), 1);
        assert_eq!(map.logical_lanes(), 4);
    }

    #[test]
    fn exhausted_spares_is_an_error() {
        let mut map = LaneMap::try_new(2, 3).unwrap(); // one spare: channel 2
        assert_eq!(map.fail_channel(0, FailureKind::Dead).unwrap(), Some(0));
        assert_eq!(
            map.fail_channel(1, FailureKind::Dead),
            Err(NoSpares { logical: 1 })
        );
    }

    #[test]
    fn double_failure_of_same_channel_is_idempotent() {
        let mut map = LaneMap::try_new(2, 4).unwrap();
        map.fail_channel(0, FailureKind::Dead).unwrap();
        assert_eq!(map.fail_channel(0, FailureKind::Dead).unwrap(), None);
        assert_eq!(map.retired().len(), 1);
    }

    proptest! {
        /// The ring monitor reads exactly what the `Vec` monitor reads:
        /// the same `ber()` bits and the same `degraded()` verdicts, over
        /// records shorter than, straddling and spanning many windows,
        /// error counts past the bit count (clamped) and resets.
        #[test]
        fn ring_monitor_matches_vec_monitor(
            window_bits in 1u64..5000,
            max_windows in 1usize..7,
            // Packed record: bits 0..16 the bit count, 16..32 the error
            // count, bit 32 scales the errors down to a realistic rate,
            // bits 33..36 all clear reset the monitors first.
            script in proptest::collection::vec(0u64..(1u64 << 36), 1..80),
        ) {
            let mut ring = LaneHealth::new(window_bits, max_windows);
            let mut vec = VecHealth {
                window_bits,
                history: Vec::new(),
                cur_bits: 0,
                cur_errors: 0,
                max_windows,
            };
            for word in script {
                if (word >> 33) & 7 == 0 {
                    ring.reset();
                    vec.reset();
                }
                let bits = word & 0xFFFF;
                let raw = (word >> 16) & 0xFFFF;
                let errors = if (word >> 32) & 1 == 1 { raw % (bits / 64 + 1) } else { raw };
                ring.record(bits, errors);
                vec.record(bits, errors);
                prop_assert_eq!(ring.ber(), vec.ber());
                for t in [-1.0, 0.0, 1e-5, 1e-4, 1e-3, 1e-2, 0.2, 0.5, 1.0] {
                    prop_assert_eq!(ring.degraded(t), vec.degraded(t), "threshold {}", t);
                }
            }
        }

        #[test]
        fn assignment_always_unique_and_live(
            logical in 1usize..16,
            extra in 0usize..8,
            kills in proptest::collection::vec(0usize..24, 0..12),
            wide in 0usize..2,
        ) {
            // `wide` moves the channels that fail across the last flagged
            // channel (127) into the ones looked up by scan.
            let base = if wide == 1 { 120 } else { 0 };
            let (logical, physical) = (base + logical, base + logical + extra);
            let mut map = LaneMap::try_new(logical, physical).unwrap();
            for k in kills {
                let k = base + k;
                if k < physical {
                    let _ = map.fail_channel(k, FailureKind::Dead);
                }
            }
            // Invariants: no duplicate physical channels; no assigned
            // channel is retired.
            let mut a = map.assignment().to_vec();
            a.sort_unstable();
            let before = a.len();
            a.dedup();
            prop_assert_eq!(a.len(), before, "duplicate physical assignment");
            for &(dead, _) in map.retired() {
                prop_assert!(!map.assignment().contains(&dead));
            }
            for p in 0..physical + 2 {
                prop_assert_eq!(map.carries_lane(p), map.assignment().contains(&p));
            }
            map.reset();
            for p in 0..physical {
                prop_assert_eq!(map.carries_lane(p), p < logical);
            }
        }
    }
}
