//! R7 passing fixture: the fallible entry returns errors all the way
//! down, and the panicking convenience wrapper is legal *structurally* —
//! it is not named `try_*`, and no `try_*` entry reaches it.

pub struct Widget {
    n: u32,
}

impl Widget {
    pub fn try_new(n: u32) -> Result<Widget, String> {
        if n == 0 {
            return Err("zero".to_string());
        }
        Ok(Widget { n: checked(n) })
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
}

fn checked(n: u32) -> u32 {
    n.min(1024)
}
