//! Deterministic engine profiler: per-event-type dispatch counters plus
//! optional wall-time accounting.
//!
//! Says where event-processing work goes — per event type, per
//! component — so an engine optimisation can name its target before it
//! lands. [`EngineProfile`] counts every dispatch by kind; counts are a
//! pure function of the event stream and therefore byte-identical per
//! seed. Wall-time accounting is *injected*:
//! the sim crates never read a clock (clippy's `disallowed_methods`
//! bans `Instant::now`), so a caller that may (a bench binary, under an
//! `#[expect]`) passes a monotonic-nanosecond
//! function via [`EngineProfile::set_clock`] and only then do the
//! `wall_ns` columns fill in. Exports keep the two strictly separated so
//! "compare only sim-time counters" is a field filter, not a diff hack:
//! [`EngineProfile::counts_json`] is deterministic, and the collapsed
//! stacks ([`EngineProfile::collapsed_stacks`]) fold counts, not time.

/// Per-event-type dispatch counters with optional wall-time accounting.
///
/// The kind table is fixed at construction (one slot per event-enum
/// variant plus whatever component grouping the caller chooses), so
/// recording is two slice stores — no allocation, no panic, no floats.
#[derive(Debug, Clone)]
pub struct EngineProfile {
    /// Kind names, e.g. `("switch", "TorArrive")`; index = kind id.
    names: &'static [(&'static str, &'static str)],
    /// Dispatches per kind (deterministic; sim-time only).
    counts: Vec<u64>,
    /// Wall nanoseconds per kind (all zero unless a clock is injected).
    wall_ns: Vec<u64>,
    /// Injected monotonic-nanosecond source; `None` in deterministic runs.
    clock: Option<fn() -> u64>,
}

impl EngineProfile {
    /// Builds a profiler over a fixed `(component, event)` kind table.
    pub fn new(names: &'static [(&'static str, &'static str)]) -> Self {
        EngineProfile {
            names,
            counts: vec![0; names.len()],
            wall_ns: vec![0; names.len()],
            clock: None,
        }
    }

    /// Injects a wall-clock source (monotonic nanoseconds). Only relaxed
    /// crates (bench) may call this — the sim itself never reads time.
    pub fn set_clock(&mut self, clock: fn() -> u64) {
        self.clock = clock.into();
    }

    /// Whether wall-time accounting is active.
    pub fn has_clock(&self) -> bool {
        self.clock.is_some()
    }

    /// Reads the injected clock, or 0 when profiling sim-time only.
    /// Callers bracket dispatch with two calls and pass the difference to
    /// [`EngineProfile::record_dispatch`].
    #[inline]
    pub fn clock_now(&self) -> u64 {
        match self.clock {
            Some(f) => f(),
            None => 0,
        }
    }

    /// Counts one dispatch of `kind`, attributing `wall` nanoseconds to
    /// it. On the per-event dispatch path: two bounded slice stores — no
    /// allocation, no panic (out-of-range kinds are ignored), no floats.
    #[inline]
    pub fn record_dispatch(&mut self, kind: usize, wall: u64) {
        if let Some(c) = self.counts.get_mut(kind) {
            *c += 1;
            self.wall_ns[kind] += wall;
        }
    }

    /// Counts one dispatch of `kind` without touching the wall column —
    /// the clock-less dispatch loop's cheaper bracket: one bounded
    /// slice store, no allocation, no panic.
    #[inline]
    pub fn record_count(&mut self, kind: usize) {
        if let Some(c) = self.counts.get_mut(kind) {
            *c += 1;
        }
    }

    /// Dispatch count of one kind (0 for out-of-range).
    pub fn count(&self, kind: usize) -> u64 {
        self.counts.get(kind).copied().unwrap_or(0)
    }

    /// Total dispatches across all kinds.
    pub fn total_dispatches(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total attributed wall nanoseconds (0 without an injected clock).
    pub fn total_wall_ns(&self) -> u64 {
        self.wall_ns.iter().sum()
    }

    /// Collapsed-stack flamegraph text (`inferno`/`flamegraph.pl` input):
    /// one `engine;<component>;<event> <count>` line per non-zero kind,
    /// in kind-table order. Folds the deterministic dispatch counts, so
    /// the text is byte-identical per seed.
    pub fn collapsed_stacks(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (i, &(component, event)) in self.names.iter().enumerate() {
            if self.counts[i] > 0 {
                let _ = writeln!(out, "engine;{component};{event} {}", self.counts[i]);
            }
        }
        out
    }

    /// JSON object with the deterministic counters first and the wall
    /// (non-deterministic) section last, so seed-stability checks can
    /// compare everything before `"wall"`.
    pub fn counts_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("{\"dispatch\":{");
        let mut first = true;
        for (i, &(component, event)) in self.names.iter().enumerate() {
            if self.counts[i] == 0 {
                continue;
            }
            let sep = if first { "" } else { "," };
            first = false;
            let _ = write!(out, "{sep}\"{component}.{event}\":{}", self.counts[i]);
        }
        let _ = write!(
            out,
            "}},\"total_dispatches\":{},\"wall\":{{\"accounted_ns\":{}",
            self.total_dispatches(),
            self.total_wall_ns()
        );
        let mut first = true;
        for (i, &(component, event)) in self.names.iter().enumerate() {
            if self.wall_ns[i] == 0 {
                continue;
            }
            let sep = if first { ",\"by_kind\":{" } else { "," };
            first = false;
            let _ = write!(out, "{sep}\"{component}.{event}\":{}", self.wall_ns[i]);
        }
        if !first {
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: &[(&str, &str)] = &[
        ("switch", "TorArrive"),
        ("switch", "TorDrain"),
        ("host", "HostDeliver"),
    ];

    #[test]
    fn counts_are_deterministic_and_wall_free_by_default() {
        let run = || {
            let mut p = EngineProfile::new(KINDS);
            for _ in 0..5 {
                let t0 = p.clock_now();
                p.record_dispatch(0, p.clock_now() - t0);
            }
            p.record_dispatch(2, 0);
            p
        };
        let (a, b) = (run(), run());
        assert_eq!(a.counts_json(), b.counts_json());
        assert_eq!(a.collapsed_stacks(), b.collapsed_stacks());
        assert_eq!(a.total_dispatches(), 6);
        assert_eq!(a.count(0), 5);
        assert_eq!(a.count(1), 0);
        assert_eq!(a.total_wall_ns(), 0, "no clock injected, no wall time");
        assert!(!a.has_clock());
    }

    #[test]
    fn out_of_range_kind_is_ignored_not_panicking() {
        let mut p = EngineProfile::new(KINDS);
        p.record_dispatch(99, 1);
        assert_eq!(p.total_dispatches(), 0);
        assert_eq!(p.count(99), 0);
    }

    #[test]
    fn collapsed_stacks_fold_component_then_event() {
        let mut p = EngineProfile::new(KINDS);
        p.record_dispatch(1, 0);
        p.record_dispatch(1, 0);
        p.record_dispatch(2, 0);
        assert_eq!(
            p.collapsed_stacks(),
            "engine;switch;TorDrain 2\nengine;host;HostDeliver 1\n"
        );
    }

    #[test]
    fn injected_clock_fills_the_wall_section() {
        fn fake_clock() -> u64 {
            42
        }
        let mut p = EngineProfile::new(KINDS);
        p.set_clock(fake_clock);
        assert!(p.has_clock());
        let t0 = p.clock_now();
        assert_eq!(t0, 42);
        p.record_dispatch(0, 7);
        assert_eq!(p.total_wall_ns(), 7);
        let json = p.counts_json();
        assert!(json.contains("\"accounted_ns\":7"));
        assert!(json.contains("\"by_kind\":{\"switch.TorArrive\":7}"));
    }

    #[test]
    fn counts_json_is_valid_json() {
        let mut p = EngineProfile::new(KINDS);
        p.record_dispatch(0, 3);
        p.record_dispatch(2, 0);
        ms_telemetry::validate_json(&p.counts_json()).unwrap();
        ms_telemetry::validate_json(&EngineProfile::new(KINDS).counts_json()).unwrap();
    }
}
