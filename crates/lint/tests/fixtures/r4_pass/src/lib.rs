//! R4 passing fixture: a no-alloc kernel writing through caller-owned
//! scratch buffers. Unmarked helper functions may allocate.

// lint: no-alloc
pub fn kernel(input: &[u8], scratch: &mut [u8]) -> usize {
    let n = input.len().min(scratch.len());
    // bound: n <= len of both slices by construction
    scratch[..n].copy_from_slice(&input[..n]);
    let mut flips = 0;
    for b in scratch[..n].iter_mut() {
        // bound: iterating within n
        *b ^= 0x5a;
        flips += 1;
    }
    flips
}

/// Cold-path helper, not marked: allocation here is fine.
pub fn describe(n: usize) -> String {
    format!("kernel processed {n} symbols")
}
