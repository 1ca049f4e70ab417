//! Fixture: the hot function `Merge::pump` never blocks in its own
//! body, but `gather`, one call down, parks on a channel `recv`. The
//! token scan of `pump` sees nothing; the call-graph pass must report
//! `hot-path-block` with the chain through `gather`.

pub struct Merge;

impl Merge {
    pub fn pump(&mut self) {
        gather();
    }
}

fn gather() {
    let (tx, rx) = std::sync::mpsc::channel::<u64>();
    tx.send(4);
    let _ = rx.recv();
}
