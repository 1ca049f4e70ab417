//! Fixture: a stale suppression. The narrowing cast this allow once
//! excused was deleted, so the directive covers nothing — and a
//! suppression that suppresses nothing is a silently-disabled invariant.

// simlint: allow(cast-truncation): masked to 8 bits (stale — the cast is gone)
pub fn narrow_placeholder() -> u64 {
    42
}

pub fn used_allow_stays_legal() -> u64 {
    // simlint: allow(cast-truncation): masked to 16 bits
    let x = (0x1_2345u64 & 0xffff) as u16;
    u64::from(x)
}
