//! Fixture: lives under `tests/`, so the cast rule does not apply.

fn helper(x: u64) -> u32 {
    x as u32
}
