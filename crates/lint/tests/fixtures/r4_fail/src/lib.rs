//! R4 violating fixture: a marked kernel that allocates, once with each
//! kind of banned call the rule knows beyond `Vec::new`/`vec!`.

// lint: no-alloc
pub fn kernel(input: &[u8], scratch: &mut [u8]) -> usize {
    let doubled: Vec<u8> = input.iter().map(|b| b.wrapping_mul(2)).collect();
    let copy = doubled.to_vec();
    let mut staged: Vec<u8> = Vec::with_capacity(copy.len());
    staged.extend_from_slice(input.to_owned().as_slice());
    let boxed: Box<[u8]> = Box::from(&copy[..]);
    let n = boxed.len().min(scratch.len()).min(staged.len());
    scratch[..n].copy_from_slice(&boxed[..n]);
    n
}
