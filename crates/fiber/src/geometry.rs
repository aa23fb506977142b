//! Hexagonal core lattice geometry and channel→core assignment.
//!
//! Imaging fibers pack cores on a triangular (hexagonal) lattice. We use
//! axial coordinates `(q, r)`: the six neighbors of a core are at unit
//! steps, and Euclidean positions follow from the pitch. Channels are
//! assigned to cores spiralling outward from the center, which matches how
//! an imaged square-ish LED array lands on the facet and keeps early
//! channels in the best (central, least-aberrated) region.

use mosaic_units::Length;

/// Axial hex-lattice coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HexCoord {
    /// Axial q coordinate.
    pub q: i32,
    /// Axial r coordinate.
    pub r: i32,
}

impl HexCoord {
    /// The origin (central core).
    pub const CENTER: HexCoord = HexCoord { q: 0, r: 0 };

    /// The six axial direction steps, in counter-clockwise order.
    pub const DIRECTIONS: [HexCoord; 6] = [
        HexCoord { q: 1, r: 0 },
        HexCoord { q: 1, r: -1 },
        HexCoord { q: 0, r: -1 },
        HexCoord { q: -1, r: 0 },
        HexCoord { q: -1, r: 1 },
        HexCoord { q: 0, r: 1 },
    ];

    /// The six lattice neighbors.
    pub fn neighbors(self) -> [HexCoord; 6] {
        let mut out = [HexCoord::CENTER; 6];
        for (o, d) in out.iter_mut().zip(Self::DIRECTIONS) {
            *o = HexCoord {
                q: self.q + d.q,
                r: self.r + d.r,
            };
        }
        out
    }

    /// Euclidean position in metres for a lattice with the given pitch.
    pub fn position(self, pitch: Length) -> (f64, f64) {
        let p = pitch.as_m();
        let x = p * (self.q as f64 + self.r as f64 / 2.0);
        let y = p * (3f64.sqrt() / 2.0) * self.r as f64;
        (x, y)
    }
}

/// Number of cores in a filled hex lattice of `rings` rings
/// (ring 0 = just the center): `1 + 3·k·(k+1)`.
pub fn cores_in_rings(rings: u32) -> usize {
    1 + 3 * rings as usize * (rings as usize + 1)
}

/// A concrete core lattice: coordinates of every usable core, in spiral
/// (center-out) order, with the physical pitch.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreLattice {
    /// Core coordinates in spiral assignment order.
    pub cores: Vec<HexCoord>,
    /// Center-to-center core pitch.
    pub pitch: Length,
    /// Per-core populated-neighbor indices in `DIRECTIONS` order,
    /// `NO_NEIGHBOR` marking unpopulated directions. Precomputed once at
    /// construction so the budget engine's per-channel crosstalk query is
    /// O(1) instead of a linear scan over the whole lattice.
    adjacency: Vec<[u32; 6]>,
}

/// Sentinel for an unpopulated neighbor slot in the adjacency table.
const NO_NEIGHBOR: u32 = u32::MAX;

fn build_adjacency(cores: &[HexCoord]) -> Vec<[u32; 6]> {
    // BTreeMap rather than HashMap (lint rule R1): lookup-only today, but
    // deterministic order keeps any future iteration safe by default.
    let index: std::collections::BTreeMap<HexCoord, u32> = cores
        .iter()
        .enumerate()
        .map(|(i, &c)| (c, i as u32))
        .collect();
    cores
        .iter()
        .map(|c| {
            let mut slots = [NO_NEIGHBOR; 6];
            for (slot, n) in slots.iter_mut().zip(c.neighbors()) {
                if let Some(&i) = index.get(&n) {
                    *slot = i;
                }
            }
            slots
        })
        .collect()
}

impl CoreLattice {
    /// Build a lattice with exactly `count` cores assigned spiralling out
    /// from the center.
    pub fn spiral(count: usize, pitch: Length) -> Self {
        assert!(count >= 1, "a lattice needs at least one core");
        let mut cores = Vec::with_capacity(count);
        cores.push(HexCoord::CENTER);
        let mut ring = 1u32;
        'outer: while cores.len() < count {
            // Walk the ring counter-clockwise starting from the "east" spoke.
            let mut c = HexCoord {
                q: ring as i32,
                r: 0,
            };
            for dir in [2usize, 3, 4, 5, 0, 1] {
                for _ in 0..ring {
                    cores.push(c);
                    if cores.len() == count {
                        break 'outer;
                    }
                    let d = HexCoord::DIRECTIONS[dir];
                    c = HexCoord {
                        q: c.q + d.q,
                        r: c.r + d.r,
                    };
                }
            }
            ring += 1;
        }
        let adjacency = build_adjacency(&cores);
        CoreLattice {
            cores,
            pitch,
            adjacency,
        }
    }

    /// Number of cores.
    pub fn len(&self) -> usize {
        self.cores.len()
    }

    /// True if the lattice is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    /// Number of populated lattice neighbors of core `idx`. Allocation-free;
    /// the crosstalk model only needs the aggressor count.
    pub fn neighbor_count(&self, idx: usize) -> usize {
        self.adjacency[idx]
            .iter()
            .filter(|&&n| n != NO_NEIGHBOR)
            .count()
    }

    /// Euclidean distance from the lattice center of core `idx`, metres —
    /// drives radially-varying effects (lens aberration, vignetting).
    pub fn radius_of(&self, idx: usize) -> Length {
        let (x, y) = self.cores[idx].position(self.pitch);
        Length::from_m((x * x + y * y).sqrt())
    }

    /// The largest core radius in the lattice (the image-circle radius the
    /// coupling optics must cover).
    pub fn image_radius(&self) -> Length {
        (0..self.len())
            .map(|i| self.radius_of(i))
            .fold(Length::ZERO, Length::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ring_population() {
        assert_eq!(cores_in_rings(0), 1);
        assert_eq!(cores_in_rings(1), 7);
        assert_eq!(cores_in_rings(2), 19);
        assert_eq!(cores_in_rings(5), 91);
    }

    #[test]
    fn spiral_has_unique_cores() {
        let lat = CoreLattice::spiral(127, Length::from_um(20.0));
        let mut set: Vec<_> = lat.cores.clone();
        set.sort();
        set.dedup();
        assert_eq!(set.len(), 127);
    }

    /// Hex-grid distance (number of lattice steps) between two coordinates.
    fn distance(a: HexCoord, b: HexCoord) -> u32 {
        let dq = (a.q - b.q).abs();
        let dr = (a.r - b.r).abs();
        let ds = (a.q + a.r - b.q - b.r).abs();
        ((dq + dr + ds) / 2) as u32
    }

    /// Ring index (distance from center).
    fn ring(c: &HexCoord) -> u32 {
        distance(*c, HexCoord::CENTER)
    }

    #[test]
    fn spiral_fills_rings_in_order() {
        let lat = CoreLattice::spiral(19, Length::from_um(20.0));
        // First 7 cores are rings 0–1, the rest ring 2.
        assert!(lat.cores[..7].iter().all(|c| ring(c) <= 1));
        assert!(lat.cores[7..].iter().all(|c| ring(c) == 2));
    }

    #[test]
    fn interior_core_has_six_neighbors() {
        let lat = CoreLattice::spiral(19, Length::from_um(20.0));
        // The center has six populated neighbors; a ring-2 (outermost)
        // corner core has fewer.
        assert_eq!(lat.neighbor_count(0), 6);
        let outer = lat.cores.iter().position(|c| ring(c) == 2).unwrap();
        assert!(lat.neighbor_count(outer) < 6);
    }

    #[test]
    fn neighbor_distance_equals_pitch() {
        let pitch = Length::from_um(20.0);
        let a = HexCoord::CENTER.position(pitch);
        for n in HexCoord::CENTER.neighbors() {
            let b = n.position(pitch);
            let d = ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt();
            assert!((d - pitch.as_m()).abs() < 1e-12);
        }
    }

    #[test]
    fn image_radius_grows_with_core_count() {
        let pitch = Length::from_um(20.0);
        let small = CoreLattice::spiral(7, pitch).image_radius();
        let big = CoreLattice::spiral(127, pitch).image_radius();
        assert!(big.as_m() > small.as_m());
        // 127 cores = 6 rings → radius 6·pitch.
        assert!((big.as_um() - 120.0).abs() < 1e-6);
    }

    proptest! {
        #[test]
        fn spiral_count_exact(n in 1usize..400) {
            let lat = CoreLattice::spiral(n, Length::from_um(20.0));
            prop_assert_eq!(lat.len(), n);
        }

        #[test]
        fn adjacency_matches_linear_scan(n in 1usize..200) {
            // The precomputed table must agree with the original O(n) search
            // (same indices, same DIRECTIONS order).
            let lat = CoreLattice::spiral(n, Length::from_um(20.0));
            for idx in 0..lat.len() {
                let me = lat.cores[idx];
                let scanned: Vec<usize> = me
                    .neighbors()
                    .iter()
                    .filter_map(|n| lat.cores.iter().position(|c| c == n))
                    .collect();
                let table: Vec<usize> = lat.adjacency[idx]
                    .iter()
                    .filter(|&&n| n != NO_NEIGHBOR)
                    .map(|&n| n as usize)
                    .collect();
                prop_assert_eq!(&table, &scanned);
                prop_assert_eq!(lat.neighbor_count(idx), scanned.len());
            }
        }

        #[test]
        fn neighbors_are_at_unit_distance(q in -8i32..8, r in -8i32..8) {
            let c = HexCoord { q, r };
            for n in c.neighbors() {
                prop_assert_eq!(distance(c, n), 1);
            }
        }
    }
}
