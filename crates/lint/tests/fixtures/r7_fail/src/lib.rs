//! R7 failing fixture: panics buried two calls deep behind a fallible
//! entry point. A file-list scope would need every helper's file listed;
//! reachability finds them wherever they live.

pub fn try_run(x: u8, table: &[u8]) -> Result<u8, String> {
    Ok(step(x) ^ lookup(table, x) ^ pair(table, x))
}

fn step(x: u8) -> u8 {
    let doubled: Option<u8> = x.checked_mul(2);
    inner(doubled.unwrap())
}

fn inner(x: u8) -> u8 {
    if x > 250 {
        panic!("overflow");
    }
    x + 1
}

/// An index with nothing keeping it in range: `table` may be shorter
/// than `x`.
fn lookup(table: &[u8], x: u8) -> u8 {
    let i = x as usize;
    table[i]
}

/// A trailing note covers only the line it trails: the index on the line
/// below it still has nothing keeping it in range.
fn pair(table: &[u8], x: u8) -> u8 {
    let i = x as usize % table.len();
    let first = table[i]; // bound: i < table.len() after the modulo
    let next = table[i + 1];
    first ^ next
}
