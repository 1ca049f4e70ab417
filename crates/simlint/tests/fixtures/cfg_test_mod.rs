//! Fixture: `#[cfg(test)]` modules are exempt from the cast rule (test
//! scaffolding counters are not packet counters).

fn shipped(x: u64) -> u16 {
    x as u16
}

#[cfg(test)]
mod tests {
    fn helper(x: u64) -> u32 {
        x as u32
    }
}
