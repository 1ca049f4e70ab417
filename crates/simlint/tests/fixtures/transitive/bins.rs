//! Fixture: the hot function `Bins::note` grows its table one call
//! down. `resize` may reallocate, so it must surface as an allocation.

pub struct Bins {
    counts: Vec<u64>,
}

impl Bins {
    pub fn note(&mut self, idx: usize) {
        grow(&mut self.counts, idx + 1);
    }
}

fn grow(counts: &mut Vec<u64>, len: usize) {
    counts.resize(len, 0);
}
