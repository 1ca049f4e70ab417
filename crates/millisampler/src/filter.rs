//! The tc-filter hot path.
//!
//! [`TcFilter`] mirrors the structure of the deployed eBPF program (§4.1):
//!
//! * it is **attached** to the packet path, **enabled** to start a run, and
//!   latches its start time from the first packet it sees while enabled;
//! * per packet it computes `bucket = (now − start) / interval` and
//!   increments per-CPU counters: ingress bytes, ingress retransmit bytes,
//!   egress bytes, egress retransmit bytes, ingress ECN-marked bytes, and
//!   a per-bucket 128-bit flow sketch;
//! * when the computed bucket runs past the configured bucket count, the
//!   filter **clears its own enabled flag** — the signal to user space that
//!   the run completed — and does no further work;
//! * while attached-but-disabled the per-packet cost is a single branch
//!   (the 7 ns fast path of §4.3); while detached it costs nothing because
//!   it is simply not invoked.
//!
//! Per-CPU counters exist to avoid cross-CPU locking in the kernel; here
//! they faithfully reproduce the memory layout and the aggregation step
//! (user space sums per-CPU arrays when reading the map).

use crate::run::{HostSeries, RunConfig};
use ms_dcsim::{Direction, Ns};
use ms_sketch::FlowSketch128;

/// Everything the tc filter inspects about one packet. This corresponds to
/// the fields the eBPF program reads from the skb: direction, length, the
/// ECN CE codepoint, the diagnostic retransmit bit, and a flow hash.
#[derive(Debug, Clone, Copy)]
pub struct PacketMeta {
    /// Ingress (entering the host) or egress (leaving it).
    pub direction: Direction,
    /// Wire bytes.
    pub bytes: u32,
    /// Whether the IP header carries ECN CE.
    pub ecn_ce: bool,
    /// Whether the Meta-style diagnostic retransmit bit is set.
    pub retx_bit: bool,
    /// 64-bit five-tuple surrogate hash (used by the flow sketch).
    pub flow_hash: u64,
}

/// Attachment/enablement state of the filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterState {
    /// Not in the packet path at all (zero per-packet cost).
    Detached,
    /// In the path but not collecting (the 7 ns early-return path).
    AttachedDisabled,
    /// Collecting a run.
    Enabled,
}

/// Counters for one CPU: one `u64` per bucket per measure, plus one sketch
/// per bucket. Layout matches §4.1's description of the memory footprint
/// ("2000 64-bit counters per CPU core for each value we measure").
#[derive(Debug, Clone)]
struct CpuCounters {
    in_bytes: Vec<u64>,
    in_retx: Vec<u64>,
    out_bytes: Vec<u64>,
    out_retx: Vec<u64>,
    in_ecn: Vec<u64>,
    flows: Vec<FlowSketch128>,
}

impl CpuCounters {
    fn new(buckets: usize) -> Self {
        CpuCounters {
            in_bytes: vec![0; buckets],
            in_retx: vec![0; buckets],
            out_bytes: vec![0; buckets],
            out_retx: vec![0; buckets],
            in_ecn: vec![0; buckets],
            flows: vec![FlowSketch128::new(); buckets],
        }
    }

    fn clear(&mut self) {
        self.in_bytes.fill(0);
        self.in_retx.fill(0);
        self.out_bytes.fill(0);
        self.out_retx.fill(0);
        self.in_ecn.fill(0);
        self.flows.fill(FlowSketch128::new());
    }
}

/// The Millisampler kernel-side filter.
#[derive(Debug, Clone)]
pub struct TcFilter {
    interval: Ns,
    buckets: usize,
    state: FilterState,
    /// Host-clock timestamp of the first packet of the current run.
    started: Option<Ns>,
    per_cpu: Vec<CpuCounters>,
    /// Count of flow-sketch updates skipped because flow counting was
    /// disabled (the §4.3 "84 ns without flow counting" configuration).
    count_flows: bool,
    /// Optional telemetry hub plus the host id used in trace events;
    /// sampler-window closes are recorded when attached.
    telemetry: Option<(ms_telemetry::SharedTelemetry, u32)>,
}

impl TcFilter {
    /// Creates a detached filter for `num_cpus` CPUs.
    pub fn new(cfg: &RunConfig, num_cpus: usize) -> Self {
        assert!(num_cpus > 0);
        assert!(cfg.buckets > 0);
        TcFilter {
            interval: cfg.interval,
            buckets: cfg.buckets,
            state: FilterState::Detached,
            started: None,
            per_cpu: (0..num_cpus)
                .map(|_| CpuCounters::new(cfg.buckets))
                .collect(),
            count_flows: cfg.count_flows,
            telemetry: None,
        }
    }

    /// Attaches a telemetry hub: the start-time latch of the first packet
    /// is recorded as `SamplerWindowOpen` and the filter's
    /// self-termination (its sampling window filling up) as a
    /// `SamplerWindowClose` event, both attributed to `host`.
    pub fn set_telemetry(&mut self, telemetry: ms_telemetry::SharedTelemetry, host: u32) {
        self.telemetry = Some((telemetry, host));
    }

    /// Current state.
    pub fn state(&self) -> FilterState {
        self.state
    }

    /// The sampling interval of the current configuration.
    pub fn interval(&self) -> Ns {
        self.interval
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.buckets
    }

    /// Attaches the filter to the packet path (disabled).
    pub fn attach(&mut self) {
        if self.state == FilterState::Detached {
            self.state = FilterState::AttachedDisabled;
        }
    }

    /// Detaches the filter entirely ("no CPU time is used by the
    /// Millisampler while it is disabled", §4.1).
    pub fn detach(&mut self) {
        self.state = FilterState::Detached;
    }

    /// Re-configures the filter (between runs only).
    pub fn reconfigure(&mut self, cfg: &RunConfig) {
        assert_ne!(self.state, FilterState::Enabled, "reconfigure during run");
        if cfg.buckets != self.buckets {
            let cpus = self.per_cpu.len();
            self.per_cpu = (0..cpus).map(|_| CpuCounters::new(cfg.buckets)).collect();
        }
        self.interval = cfg.interval;
        self.buckets = cfg.buckets;
        self.count_flows = cfg.count_flows;
    }

    /// Enables collection: clears counters and waits for the first packet.
    pub fn enable(&mut self) {
        for cpu in &mut self.per_cpu {
            cpu.clear();
        }
        self.started = None;
        self.state = FilterState::Enabled;
    }

    /// The per-packet hot path. `now` is the **host clock** (the eBPF
    /// program reads `ktime`, which carries the host's NTP discipline).
    ///
    /// Returns quickly when not enabled. Never allocates.
    #[inline]
    pub fn record(&mut self, cpu: usize, now: Ns, meta: &PacketMeta) {
        if self.state != FilterState::Enabled {
            return; // the 7 ns path
        }
        let start = match self.started {
            Some(s) => s,
            None => {
                self.started = Some(now);
                if let Some((tr, host)) = &self.telemetry {
                    tr.borrow_mut()
                        .bus
                        .record(ms_telemetry::TraceEvent::SamplerWindowOpen {
                            ns: now.as_nanos(),
                            host: *host,
                        });
                }
                now
            }
        };
        let bucket = now.saturating_sub(start).bucket_index(self.interval) as usize;
        if bucket >= self.buckets {
            // Signal completion to user space and stop costing CPU.
            self.state = FilterState::AttachedDisabled;
            if let Some((tr, host)) = &self.telemetry {
                tr.borrow_mut()
                    .bus
                    .record(ms_telemetry::TraceEvent::SamplerWindowClose {
                        ns: now.as_nanos(),
                        host: *host,
                    });
            }
            return;
        }
        let c = &mut self.per_cpu[cpu];
        match meta.direction {
            Direction::Ingress => {
                c.in_bytes[bucket] += meta.bytes as u64;
                if meta.retx_bit {
                    c.in_retx[bucket] += meta.bytes as u64;
                }
                if meta.ecn_ce {
                    c.in_ecn[bucket] += meta.bytes as u64;
                }
            }
            Direction::Egress => {
                c.out_bytes[bucket] += meta.bytes as u64;
                if meta.retx_bit {
                    c.out_retx[bucket] += meta.bytes as u64;
                }
            }
        }
        if self.count_flows {
            c.flows[bucket].insert(meta.flow_hash);
        }
    }

    /// Reads the counter map, aggregating across CPUs — the fixed-cost
    /// user-space read (§4.3 measures it at 4.3 ms regardless of packet
    /// count; the `read_counters` bench reproduces the fixed-cost claim).
    ///
    /// Returns `None` if the run never started (no packet arrived).
    pub fn read(&self, host: u32) -> Option<HostSeries> {
        let start = self.started?;
        let n = self.buckets;
        let mut out = HostSeries::zeroed(host, start, self.interval, n);
        for cpu in &self.per_cpu {
            for i in 0..n {
                out.in_bytes[i] += cpu.in_bytes[i];
                out.in_retx[i] += cpu.in_retx[i];
                out.out_bytes[i] += cpu.out_bytes[i];
                out.out_retx[i] += cpu.out_retx[i];
                out.in_ecn[i] += cpu.in_ecn[i];
            }
        }
        // Merge per-CPU sketches per bucket, then estimate.
        for i in 0..n {
            let mut merged = FlowSketch128::new();
            for cpu in &self.per_cpu {
                merged.merge(&cpu.flows[i]);
            }
            out.conns[i] = merged.estimate_rounded();
        }
        Some(out)
    }

    /// In-kernel memory footprint in bytes (counters + sketches), matching
    /// the §4.3 accounting (~3.6 MB average across the fleet).
    pub fn memory_footprint(&self) -> usize {
        let per_cpu = self.buckets * (5 * 8 + 16);
        per_cpu * self.per_cpu.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(dir: Direction, bytes: u32) -> PacketMeta {
        PacketMeta {
            direction: dir,
            bytes,
            ecn_ce: false,
            retx_bit: false,
            flow_hash: ms_sketch::mix64(1),
        }
    }

    fn enabled_filter() -> TcFilter {
        let mut f = TcFilter::new(&RunConfig::one_ms(), 4);
        f.attach();
        f.enable();
        f
    }

    #[test]
    fn disabled_filter_records_nothing() {
        let mut f = TcFilter::new(&RunConfig::one_ms(), 2);
        f.attach();
        f.record(0, Ns::from_millis(1), &meta(Direction::Ingress, 1500));
        assert!(f.read(0).is_none(), "run never started");
    }

    #[test]
    fn start_latches_on_first_packet() {
        let mut f = enabled_filter();
        assert!(f.read(9).is_none(), "no packet, no start");
        f.record(0, Ns::from_millis(7), &meta(Direction::Ingress, 100));
        // Bucketing is relative to the latched start, not zero.
        let s = f.read(9).unwrap();
        assert_eq!(s.start, Ns::from_millis(7));
        assert_eq!(s.host, 9);
        assert_eq!(s.in_bytes[0], 100);
    }

    #[test]
    fn bucketing_by_elapsed_over_interval() {
        let mut f = enabled_filter();
        let t0 = Ns::from_millis(10);
        f.record(0, t0, &meta(Direction::Ingress, 1));
        f.record(0, t0 + Ns::from_micros(999), &meta(Direction::Ingress, 2));
        f.record(0, t0 + Ns::from_millis(1), &meta(Direction::Ingress, 4));
        f.record(0, t0 + Ns::from_micros(2500), &meta(Direction::Ingress, 8));
        let s = f.read(0).unwrap();
        assert_eq!(s.in_bytes[0], 3);
        assert_eq!(s.in_bytes[1], 4);
        assert_eq!(s.in_bytes[2], 8);
    }

    #[test]
    fn run_self_terminates_past_last_bucket() {
        let cfg = RunConfig {
            buckets: 10,
            ..RunConfig::one_ms()
        };
        let mut f = TcFilter::new(&cfg, 1);
        f.attach();
        f.enable();
        f.record(0, Ns::ZERO, &meta(Direction::Ingress, 1));
        assert_eq!(f.state(), FilterState::Enabled);
        // A packet past bucket 9 clears the enabled flag and is NOT counted.
        f.record(0, Ns::from_millis(10), &meta(Direction::Ingress, 999));
        assert_eq!(f.state(), FilterState::AttachedDisabled);
        let s = f.read(0).unwrap();
        assert_eq!(s.total_in_bytes(), 1);
    }

    #[test]
    fn per_cpu_counters_aggregate_on_read() {
        let mut f = enabled_filter();
        let t = Ns::from_millis(1);
        f.record(0, t, &meta(Direction::Ingress, 100));
        f.record(1, t, &meta(Direction::Ingress, 200));
        f.record(3, t + Ns::from_micros(10), &meta(Direction::Ingress, 400));
        let s = f.read(0).unwrap();
        assert_eq!(s.in_bytes[0], 700);
    }

    #[test]
    fn directions_and_flags_counted_separately() {
        let mut f = enabled_filter();
        let t = Ns::ZERO;
        f.record(0, t, &meta(Direction::Ingress, 100));
        f.record(
            0,
            t,
            &PacketMeta {
                ecn_ce: true,
                ..meta(Direction::Ingress, 50)
            },
        );
        f.record(
            0,
            t,
            &PacketMeta {
                retx_bit: true,
                ..meta(Direction::Ingress, 25)
            },
        );
        f.record(0, t, &meta(Direction::Egress, 64));
        f.record(
            0,
            t,
            &PacketMeta {
                retx_bit: true,
                ..meta(Direction::Egress, 32)
            },
        );
        let s = f.read(0).unwrap();
        assert_eq!(s.in_bytes[0], 175);
        assert_eq!(s.in_ecn[0], 50);
        assert_eq!(s.in_retx[0], 25);
        assert_eq!(s.out_bytes[0], 96);
        assert_eq!(s.out_retx[0], 32);
    }

    #[test]
    fn flow_counts_merge_across_cpus() {
        let mut f = enabled_filter();
        let t = Ns::ZERO;
        // Same flow hitting two CPUs must count once; distinct flows add up.
        for (cpu, flow) in [(0usize, 1u64), (1, 1), (2, 2), (3, 3)] {
            f.record(
                cpu,
                t,
                &PacketMeta {
                    flow_hash: ms_sketch::mix64(flow),
                    ..meta(Direction::Ingress, 10)
                },
            );
        }
        let s = f.read(0).unwrap();
        assert_eq!(s.conns[0], 3);
    }

    #[test]
    fn disabling_flow_count_skips_sketch() {
        let cfg = RunConfig {
            count_flows: false,
            ..RunConfig::one_ms()
        };
        let mut f = TcFilter::new(&cfg, 1);
        f.attach();
        f.enable();
        f.record(0, Ns::ZERO, &meta(Direction::Ingress, 10));
        let s = f.read(0).unwrap();
        assert_eq!(s.conns[0], 0);
        assert_eq!(s.in_bytes[0], 10);
    }

    #[test]
    fn enable_clears_previous_run() {
        let mut f = enabled_filter();
        f.record(0, Ns::ZERO, &meta(Direction::Ingress, 123));
        f.enable();
        f.record(0, Ns::from_millis(100), &meta(Direction::Ingress, 1));
        let s = f.read(0).unwrap();
        assert_eq!(s.total_in_bytes(), 1);
        assert_eq!(s.start, Ns::from_millis(100));
    }

    #[test]
    fn window_open_and_close_bracket_the_run_on_the_bus() {
        use ms_telemetry::{Telemetry, TelemetryConfig, TraceEvent};
        let cfg = RunConfig {
            buckets: 10,
            ..RunConfig::one_ms()
        };
        let mut f = TcFilter::new(&cfg, 1);
        let hub = Telemetry::shared(TelemetryConfig::default());
        f.set_telemetry(hub.clone(), 4);
        f.attach();
        f.enable();
        f.record(0, Ns::from_millis(3), &meta(Direction::Ingress, 1));
        f.record(0, Ns::from_millis(4), &meta(Direction::Ingress, 1));
        f.record(0, Ns::from_millis(14), &meta(Direction::Ingress, 1));
        let hub = hub.borrow();
        let windows: Vec<(u64, &str, u32)> = hub
            .bus
            .iter()
            .filter_map(|e| match e {
                TraceEvent::SamplerWindowOpen { ns, host } => Some((*ns, "open", *host)),
                TraceEvent::SamplerWindowClose { ns, host } => Some((*ns, "close", *host)),
                _ => None,
            })
            .collect();
        assert_eq!(
            windows,
            vec![(3_000_000, "open", 4), (14_000_000, "close", 4)]
        );
    }

    #[test]
    fn memory_footprint_matches_paper_scale() {
        // 2000 buckets, 5 counters of 8B plus a 16B sketch per bucket,
        // times CPUs. For a large (e.g. 64-core) host this lands in the
        // multi-MB range the paper reports (avg 3.6MB fleet-wide).
        let f = TcFilter::new(&RunConfig::one_ms(), 32);
        let mb = f.memory_footprint() as f64 / 1e6;
        assert!((3.0..=4.0).contains(&mb), "footprint {mb} MB");
    }

    #[test]
    fn reconfigure_switches_interval_and_buckets() {
        let mut f = TcFilter::new(&RunConfig::one_ms(), 2);
        f.reconfigure(&RunConfig::hundred_us());
        assert_eq!(f.interval(), Ns::from_micros(100));
        assert_eq!(f.interval() * f.buckets() as u64, Ns::from_millis(200));
        f.reconfigure(&RunConfig::ten_ms());
        assert_eq!(f.interval() * f.buckets() as u64, Ns::from_secs(20));
    }
}
