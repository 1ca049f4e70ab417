//! Fixture: panics and allocations inside the configured hot function
//! `Widget::poll`. The same constructs in `Widget::setup` are legal.

pub struct Widget {
    buf: Vec<u8>,
}

impl Widget {
    pub fn setup(n: usize) -> Self {
        // Cold path: allocation and unwrap are fine here.
        let buf = vec![0u8; n];
        let _copy = buf.clone();
        Widget { buf }
    }

    #[inline]
    pub fn poll(&mut self, x: Option<u64>) -> u64 {
        let v = x.unwrap();
        if v == 0 {
            panic!("zero");
        }
        let label = format!("{v}");
        let owned = label.to_string();
        let boxed = Box::new(v);
        let mut scratch = Vec::new();
        scratch.push(owned.len() as u64);
        let doubled = self.buf.clone();
        let総: Vec<u64> = scratch.iter().map(|a| a + doubled.len() as u64).collect();
        self.buf.resize(v as usize, 0);
        *boxed + 総.len() as u64
    }
}
