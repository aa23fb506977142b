//! R4 violating fixture: two functions named `kernel` in one file. The
//! marker sits on the second, which allocates; a lookup by name would
//! have checked the first, clean one instead.

pub struct Clean;
pub struct Hot;

impl Clean {
    pub fn kernel(&self, out: &mut [u8]) -> usize {
        out.fill(0);
        out.len()
    }
}

impl Hot {
    // lint: no-alloc
    pub fn kernel(&self, input: &[u8]) -> usize {
        let copy: Vec<u8> = input.to_vec();
        copy.len()
    }
}
