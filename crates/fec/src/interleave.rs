//! Block interleaving.
//!
//! Mosaic stripes FEC codewords across hundreds of channels. Interleaving
//! turns a burst on one channel (e.g. a transient SNR dip or a dying lane)
//! into isolated symbol errors spread over many codewords, keeping each
//! word within its correction budget. A classic rows×cols block
//! interleaver suffices and is what hardware would implement.

use mosaic_units::{MosaicError, Result};

/// A rows×cols block interleaver: write row-major, read column-major.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockInterleaver {
    /// Number of rows (typically: codewords in flight).
    pub rows: usize,
    /// Number of columns (typically: symbols per codeword).
    pub cols: usize,
}

impl BlockInterleaver {
    /// Construct; both dimensions must be non-zero.
    ///
    /// # Panics
    /// Panics on zero dimensions; use [`BlockInterleaver::try_new`] to
    /// handle the error instead.
    pub fn new(rows: usize, cols: usize) -> Self {
        match Self::try_new(rows, cols) {
            Ok(il) => il,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`BlockInterleaver::new`]: errors on zero dimensions.
    pub fn try_new(rows: usize, cols: usize) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(MosaicError::invalid_config(
                "interleaver",
                format!("dimensions must be non-zero, got {rows}×{cols}"),
            ));
        }
        Ok(BlockInterleaver { rows, cols })
    }

    /// Total block size.
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// True if the block is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Interleave one block: output index `c·rows + r` takes input
    /// `r·cols + c`.
    ///
    /// # Panics
    /// Panics on a block-size mismatch; use
    /// [`BlockInterleaver::try_interleave`] to handle the error instead.
    pub fn interleave<T: Copy>(&self, input: &[T]) -> Vec<T> {
        match self.try_interleave(input) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`BlockInterleaver::interleave`].
    pub fn try_interleave<T: Copy>(&self, input: &[T]) -> Result<Vec<T>> {
        if input.len() != self.len() {
            return Err(MosaicError::LengthMismatch {
                what: "interleaver block",
                expected: self.len(),
                got: input.len(),
            });
        }
        let mut out = Vec::with_capacity(input.len());
        for c in 0..self.cols {
            for r in 0..self.rows {
                out.push(input[r * self.cols + c]);
            }
        }
        Ok(out)
    }

    /// Invert [`BlockInterleaver::interleave`].
    ///
    /// # Panics
    /// Panics on a block-size mismatch; use
    /// [`BlockInterleaver::try_deinterleave`] to handle the error instead.
    pub fn deinterleave<T: Copy + Default>(&self, input: &[T]) -> Vec<T> {
        match self.try_deinterleave(input) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`BlockInterleaver::deinterleave`].
    pub fn try_deinterleave<T: Copy + Default>(&self, input: &[T]) -> Result<Vec<T>> {
        if input.len() != self.len() {
            return Err(MosaicError::LengthMismatch {
                what: "interleaver block",
                expected: self.len(),
                got: input.len(),
            });
        }
        let mut out = vec![T::default(); input.len()];
        for (i, &v) in input.iter().enumerate() {
            let (c, r) = (i / self.rows, i % self.rows);
            out[r * self.cols + c] = v;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn small_example() {
        // 2×3: [a b c / d e f] reads out as a d b e c f.
        let il = BlockInterleaver::new(2, 3);
        let out = il.interleave(&['a', 'b', 'c', 'd', 'e', 'f']);
        assert_eq!(out, vec!['a', 'd', 'b', 'e', 'c', 'f']);
    }

    #[test]
    fn burst_spreads_across_rows() {
        // A burst of `rows` consecutive transmitted symbols must hit each
        // row exactly once.
        let il = BlockInterleaver::new(4, 8);
        let data: Vec<usize> = (0..32).collect();
        let tx = il.interleave(&data);
        // Corrupt transmitted positions 8..12 (a 4-burst).
        let corrupted: Vec<usize> = tx
            .iter()
            .enumerate()
            .map(|(i, &v)| if (8..12).contains(&i) { 999 } else { v })
            .collect();
        let rx = il.deinterleave(&corrupted);
        for r in 0..4 {
            let row = &rx[r * 8..(r + 1) * 8];
            let errors = row.iter().filter(|&&v| v == 999).count();
            assert_eq!(errors, 1, "row {r} took {errors} errors");
        }
    }

    proptest! {
        #[test]
        fn roundtrip(rows in 1usize..16, cols in 1usize..16, seed in 0u64..100) {
            let il = BlockInterleaver::new(rows, cols);
            let data: Vec<u64> = (0..il.len() as u64).map(|i| i.wrapping_mul(seed + 1)).collect();
            let rt = il.deinterleave(&il.interleave(&data));
            prop_assert_eq!(rt, data);
        }

        #[test]
        fn interleave_is_permutation(rows in 1usize..12, cols in 1usize..12) {
            let il = BlockInterleaver::new(rows, cols);
            let data: Vec<usize> = (0..il.len()).collect();
            let mut out = il.interleave(&data);
            out.sort_unstable();
            prop_assert_eq!(out, data);
        }
    }
}
