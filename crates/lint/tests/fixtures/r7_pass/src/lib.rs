//! R7 passing fixture: the fallible entry returns errors all the way
//! down, and the panicking convenience wrapper is legal *structurally* —
//! it is not named `try_*`, and no `try_*` entry reaches it.

#[derive(Debug, Clone)]
pub struct Widget {
    n: u32,
    bytes: [u8; 4],
}

impl Widget {
    pub fn try_new(n: u32) -> Result<Widget, String> {
        if n == 0 {
            return Err("zero".to_string());
        }
        let bytes = n.to_le_bytes();
        Ok(Widget {
            n: checked(n) + low_byte(&bytes) + spread(&bytes),
            bytes,
        })
    }

    /// Panicking convenience wrapper over `try_new`. A file-scoped panic
    /// rule would need an allow annotation here; under R7 it is a
    /// structural fact: `new` is unreachable from any `try_*` entry.
    pub fn new(n: u32) -> Widget {
        Widget::try_new(n).expect("invalid n")
    }

    pub fn n(&self) -> u32 {
        self.n
    }

    /// Indexes with a caller's value, but no `try_*` entry reaches it.
    pub fn byte(&self, i: usize) -> u8 {
        self.bytes[i]
    }
}

fn checked(n: u32) -> u32 {
    n.min(1024)
}

/// A literal index is not a panic site.
fn low_byte(bytes: &[u8; 4]) -> u32 {
    bytes[0] as u32
}

/// A noted index states why it stays in range.
fn spread(bytes: &[u8; 4]) -> u32 {
    let mut total = 0;
    for i in 0..bytes.len() {
        // bound: i < bytes.len()
        total += bytes[i] as u32;
    }
    total
}
