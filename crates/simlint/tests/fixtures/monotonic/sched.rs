//! Monotonicity fixtures: a `now - delta` schedule, a raw-literal
//! timestamp and a float-derived timestamp.

pub struct EventQueue;

impl EventQueue {
    pub fn schedule(&mut self, at: u64, ev: u32) {
        let _ = (at, ev);
    }
}

pub struct Gate {
    q: EventQueue,
    fabric_delay: u64,
}

impl Gate {
    pub fn rewind(&mut self, now: u64) {
        self.q.schedule(now - 3, 1);
    }

    pub fn absolute(&mut self) {
        self.q.schedule(1_000, 2);
    }

    pub fn rounded(&mut self, now: u64, rate: u64) {
        let next = (rate as f64 * 3) as u64;
        self.q.schedule(now + next, 3);
    }

    pub fn clean(&mut self, now: u64) {
        self.q.schedule(now + self.fabric_delay, 4);
    }
}
