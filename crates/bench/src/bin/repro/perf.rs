//! §4.3 performance numbers, in-process.
//!
//! Prints quick wall-clock measurements of the Millisampler hot path and
//! the baselines the paper compares against. The tracked per-layer
//! versions (`millisampler.record*_ns`, `millisampler.pcap_copy_ns`,
//! `millisampler.read_map_us`, with a history per commit) live in the
//! benchmark package, `perf/`; this subcommand exists so `repro all`
//! leaves a complete record in one place.

use crate::Ctx;
use millisampler::{Direction, PacketMeta, RunConfig, TcFilter};
use ms_bench::report::{f3, Report};
use ms_dcsim::Ns;
use std::hint::black_box;

/// A tcpdump-like baseline: copy a 100-byte "header snapshot" per packet
/// into a ring buffer (the kernel→user copy cost that makes packet capture
/// expensive; the paper measured tcpdump at 271 ns/packet with `-s 100`).
struct PcapLike {
    ring: Vec<u8>,
    pos: usize,
}

impl PcapLike {
    fn new() -> Self {
        PcapLike {
            ring: vec![0u8; 4 * 1024 * 1024],
            pos: 0,
        }
    }

    #[inline]
    fn capture(&mut self, header: &[u8; 100], ts: u64) {
        let end = self.pos + 108;
        if end > self.ring.len() {
            self.pos = 0;
        }
        self.ring[self.pos..self.pos + 8].copy_from_slice(&ts.to_le_bytes());
        self.ring[self.pos + 8..self.pos + 108].copy_from_slice(header);
        self.pos += 108;
    }
}

/// Median ns per call of `f` over five timed passes of `iters` calls
/// each, after one untimed warm-up pass (caches, branch predictors and
/// the filter's buckets are hot before the clock starts).
fn time_per_op<F: FnMut(u64)>(iters: u64, mut f: F) -> f64 {
    let mut pass = || {
        let t0 = std::time::Instant::now();
        for i in 0..iters {
            f(i);
        }
        t0.elapsed().as_nanos() as f64 / iters as f64
    };
    pass();
    let mut ns: [f64; 5] = std::array::from_fn(|_| pass());
    ns.sort_by(f64::total_cmp);
    ns[2]
}

/// Runs the in-process performance comparison.
pub fn perf(ctx: &mut Ctx) {
    const N: u64 = 3_000_000;
    let meta = PacketMeta {
        direction: Direction::Ingress,
        bytes: 1500,
        ecn_ce: false,
        retx_bit: false,
        flow_hash: ms_sketch::mix64(7),
    };

    // Enabled, full feature set (the paper's 88 ns configuration).
    let mut full = TcFilter::new(&RunConfig::one_ms(), 4);
    full.attach();
    full.enable();
    let ns_full = time_per_op(N, |i| {
        // Vary time within the window so all buckets get touched and vary
        // the flow hash so the sketch sees realistic inserts.
        let now = Ns(i % 1_999_000_000);
        let m = PacketMeta {
            flow_hash: ms_sketch::mix64(i % 64),
            ..meta
        };
        full.record((i % 4) as usize, now, black_box(&m));
        // Keep the run alive: re-enable when it self-terminates.
        if full.state() != millisampler::FilterState::Enabled {
            full.enable();
        }
    });

    // Without flow counting (the paper's 84 ns configuration).
    let mut noflow = TcFilter::new(
        &RunConfig {
            count_flows: false,
            ..RunConfig::one_ms()
        },
        4,
    );
    noflow.attach();
    noflow.enable();
    let ns_noflow = time_per_op(N, |i| {
        let now = Ns(i % 1_999_000_000);
        noflow.record((i % 4) as usize, now, black_box(&meta));
        if noflow.state() != millisampler::FilterState::Enabled {
            noflow.enable();
        }
    });

    // Attached but disabled (the 7 ns early-return path).
    let mut disabled = TcFilter::new(&RunConfig::one_ms(), 4);
    disabled.attach();
    let ns_disabled = time_per_op(N, |i| {
        disabled.record((i % 4) as usize, Ns(i), black_box(&meta));
    });

    // The pcap-like copy baseline (the 271 ns tcpdump comparison point).
    let mut pcap = PcapLike::new();
    let header = [0xABu8; 100];
    let ns_pcap = time_per_op(N, |i| {
        pcap.capture(black_box(&header), i);
    });
    black_box(pcap.ring[0]);

    // The fixed-cost map read (§4.3: 4.3 ms regardless of packet count).
    let read_ns = time_per_op(200, |_| {
        black_box(full.read(0));
    });

    let mut r = Report::new("perf", &["operation", "ns_per_op", "paper_ns"]);
    r.row(&["record (all features)".into(), f3(ns_full), "88".into()]);
    r.row(&["record (no flow count)".into(), f3(ns_noflow), "84".into()]);
    r.row(&["record (disabled)".into(), f3(ns_disabled), "7".into()]);
    r.row(&["pcap-like header copy".into(), f3(ns_pcap), "271".into()]);
    r.row(&[
        "read counter map (us)".into(),
        f3(read_ns / 1e3),
        "4300".into(),
    ]);
    r.finish(&ctx.opts.out);
    println!("  shape checks: record << pcap copy; disabled path ~an order cheaper than enabled;");
    println!("  no-flow-count slightly cheaper than full. Absolute ns differ from the paper's");
    println!("  1.6GHz Skylake; the ORDERING is the claim under test.");
    // The map read pays for itself only once a record is cheaper than a
    // copy; otherwise there is no break-even to report.
    if ns_pcap > ns_full {
        println!(
            "  break-even vs pcap after {} packets per run (paper: 33,000), using read cost {}us",
            f3(read_ns / (ns_pcap - ns_full)),
            f3(read_ns / 1e3)
        );
    } else {
        println!("  no break-even vs pcap: a record costs no less than the header copy here");
    }
}
