//! Benchmark-side spans: one per call across a layer boundary, kept in
//! memory and written out when the run ends. Nothing inside the crates
//! is traced here — that is a later issue; these spans wrap the calls
//! `perf` itself makes.

use crate::json::{obj, Value};
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub workload: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

/// Records spans when on; when off every call is one branch, so the
/// same workload code runs in the timed and the traced pass.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    workload: &'static str,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer::new(false, "")
    }

    pub fn on(workload: &'static str) -> Self {
        Tracer::new(true, workload)
    }

    fn new(on: bool, workload: &'static str) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            workload,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            workload: self.workload,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Closes a span. Spans close innermost-first; anything else is a
    /// bug in the benchmark, not data.
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name totals over a span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelfTime {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of a span = its duration minus the part its direct
/// children cover. Aggregated by name, in first-seen order. `spans` is
/// one tracer's spans or a contiguous run of them (ids are consecutive);
/// a parent outside the run is treated as absent.
pub fn self_times(spans: &[Span]) -> Vec<SelfTime> {
    let base = spans.first().map_or(0, |s| s.id);
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| p.checked_sub(base)) {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: Vec<SelfTime> = Vec::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let own = dur.saturating_sub(child_ns[(s.id - base) as usize]);
        match out.iter_mut().find(|t| t.name == s.name) {
            Some(t) => {
                t.count += 1;
                t.total_ns += dur;
                t.self_ns += own;
            }
            None => out.push(SelfTime {
                name: s.name,
                count: 1,
                total_ns: dur,
                self_ns: own,
            }),
        }
    }
    out
}

pub fn spans_json(spans: &[Span]) -> Value {
    Value::Arr(
        spans
            .iter()
            .map(|s| {
                obj([
                    ("id", Value::from(u64::from(s.id))),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::from(u64::from(p))),
                    ),
                    ("workload", Value::from(s.workload)),
                    ("name", Value::from(s.name)),
                    ("start_ns", Value::from(s.start_ns)),
                    ("end_ns", Value::from(s.end_ns)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            workload: "w",
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // rep [0,100] ─ build [10,30] ─ spec [12,20]
        //             └ run   [30,90]
        //             └ run   [90,95]
        let tree = [
            span(0, None, "rep", 0, 100),
            span(1, Some(0), "build", 10, 30),
            span(2, Some(1), "spec", 12, 20),
            span(3, Some(0), "run", 30, 90),
            span(4, Some(0), "run", 90, 95),
        ];
        let t = self_times(&tree);
        let by = |n: &str| t.iter().find(|s| s.name == n).unwrap().clone();
        assert_eq!(by("rep").self_ns, 100 - 20 - 60 - 5);
        assert_eq!(by("build").self_ns, 20 - 8);
        assert_eq!(by("spec").self_ns, 8);
        assert_eq!(
            (by("run").count, by("run").total_ns, by("run").self_ns),
            (2, 65, 65)
        );
        // Self times partition the root exactly.
        assert_eq!(t.iter().map(|s| s.self_ns).sum::<u64>(), 100);
        // A contiguous run (one subtree) works without renumbering.
        let sub = self_times(&tree[1..3]);
        assert_eq!(sub.iter().map(|s| s.self_ns).sum::<u64>(), 20);
    }

    #[test]
    fn tracer_records_parents_and_is_inert_when_off() {
        let mut t = Tracer::on("w");
        let a = t.enter("a");
        let b = t.enter("b");
        t.exit(b);
        t.exit(a);
        let c = t.enter("c");
        t.exit(c);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), None)
        );
        assert!(s[0].end_ns >= s[1].end_ns && s[1].end_ns >= s[1].start_ns);

        let mut off = Tracer::off();
        let a = off.enter("a");
        off.exit(a);
        assert!(off.spans().is_empty());
    }
}
