//! The per-layer table: host time per call of each layer's public
//! functions, measured from outside, plus the ratios that need a small
//! dedicated run (timer growth, telemetry-attached overhead, fleet
//! efficiency, lake rates). Per-workload layer metrics (dispatch mix,
//! drop share, span shares) are derived in `trace.rs` from the traced rep.

use crate::api::{self, Ns};
use crate::spans::{self_times, Tracer};
use crate::stats::summarize;
use crate::workloads::{self, Params};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// How long the microbenchmarks measure.
#[derive(Debug, Clone, Copy)]
pub struct Micro {
    /// Timed batches per metric; the median batch is reported.
    pub batches: usize,
    /// Shortest batch that is trusted.
    pub min_batch: Duration,
}

impl Micro {
    /// `perf trace`: median of 7 batches of at least 20 ms.
    pub const FULL: Micro = Micro {
        batches: 7,
        min_batch: Duration::from_millis(20),
    };

    /// Median nanoseconds per call of `f`. The batch size doubles until
    /// one batch lasts `min_batch`, then `batches` batches are timed.
    pub fn ns_per_call(&self, mut f: impl FnMut()) -> f64 {
        let mut iters = 1u64;
        loop {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            let dt = t0.elapsed();
            if dt >= self.min_batch {
                break;
            }
            let grow = (self.min_batch.as_nanos() * 2 / dt.as_nanos().max(1)).clamp(2, 64);
            iters = iters.saturating_mul(grow as u64);
        }
        let samples: Vec<f64> = (0..self.batches)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..iters {
                    f();
                }
                t0.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        summarize(&samples).median
    }

    /// Median nanoseconds per call when the state wears out: every batch
    /// is exactly `iters` calls on a fresh `setup()` that is not timed.
    pub fn ns_per_call_fresh<S>(
        &self,
        iters: u64,
        mut setup: impl FnMut() -> S,
        mut f: impl FnMut(&mut S, u64),
    ) -> f64 {
        let mut samples = Vec::new();
        let mut measured = Duration::ZERO;
        let target = self.min_batch * self.batches as u32;
        while samples.len() < self.batches || (measured < target && samples.len() < 10_000) {
            let mut state = setup();
            let t0 = Instant::now();
            for i in 0..iters {
                f(&mut state, i);
            }
            let dt = t0.elapsed();
            black_box(&state);
            measured += dt;
            samples.push(dt.as_nanos() as f64 / iters as f64);
        }
        summarize(&samples).median
    }
}

/// Median wall seconds of `f` over `n` calls.
fn median_secs(n: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    summarize(&samples).median
}

/// Name → value of every global per-layer metric.
pub type Table = Vec<(String, f64)>;

/// Measures the global table. `scale` shrinks the small dedicated runs
/// the way it shrinks the workloads (the microbenchmarks have no size);
/// `scratch` is where the lake runs put their files.
pub fn global_table(m: Micro, seed: u64, scale: f64, scratch: &Path) -> Table {
    let mut out = Table::new();
    engine(m, &mut out);
    switch(m, &mut out);
    transport(m, &mut out);
    sampler(m, seed, &mut out);
    telemetry(m, &mut out);
    topo(m, &mut out);
    workload_and_analysis(m, seed, scale, &mut out);
    small_runs(seed, scale, scratch, &mut out);
    out
}

fn put(out: &mut Table, name: impl Into<String>, value: f64) {
    out.push((name.into(), value));
}

fn engine(m: Micro, out: &mut Table) {
    for (label, depth) in [("d16", 16u64), ("d1k", 1024), ("d64k", 65_536)] {
        let mut q = api::event_queue::<u64>();
        for i in 0..depth {
            api::queue_schedule(&mut q, Ns(i * 1000), i);
        }
        let mut t = depth * 1000;
        let ns = m.ns_per_call(|| {
            let (at, ev) = api::queue_pop(&mut q).expect("queue kept full");
            black_box(at);
            t += 1000;
            api::queue_schedule(&mut q, Ns(t), ev);
        });
        put(out, format!("dcsim.engine_sched_pop_ns.{label}"), ns);
    }
}

fn pkt(i: u64) -> api::Packet {
    api::data_packet(i % 64, 100, (i % 16) as u32, i * 1500, 1500)
}

fn switch(m: Micro, out: &mut Table) {
    for kind in api::POLICY_KINDS {
        let mut sw = api::tor_switch(16, api::policy_spec(kind, 1.0));
        let mut i = 0u64;
        // Enqueue then drain one packet: occupancy stays low, so admission
        // always runs the policy's full computation, never the drop path.
        let ns = m.ns_per_call(|| {
            i += 1;
            let queue = (i % 16) as usize;
            black_box(api::switch_try_enqueue(
                &mut sw,
                queue,
                black_box(pkt(i)),
                Ns(i),
            ));
            black_box(api::switch_dequeue(&mut sw, queue, Ns(i)));
        });
        put(
            out,
            format!("dcsim.switch_enq_deq_ns.{}", api::policy_label(kind)),
            ns,
        );
    }
    // Queue 0 filled to its DT fixpoint: every offer is decided at the
    // threshold (mostly refused).
    let mut sw = api::tor_switch(16, api::policy_spec(api::PolicyKind::DtAlpha, 1.0));
    let mut i = 0u64;
    loop {
        i += 1;
        if !api::switch_try_enqueue(&mut sw, 0, pkt(i), Ns::ZERO) {
            break;
        }
    }
    let ns = m.ns_per_call(|| {
        i += 1;
        if api::switch_try_enqueue(&mut sw, 0, black_box(pkt(i)), Ns(i)) {
            black_box(api::switch_dequeue(&mut sw, 0, Ns(i)));
        }
    });
    put(out, "dcsim.switch_enq_near_threshold_ns.dt", ns);
}

fn transport(m: Micro, out: &mut Table) {
    const MSS: u32 = 1500;

    // One segment pushed, sent, and acknowledged per call: the per-ACK
    // work including the send the ACK clocks out.
    for (label, cc) in [
        ("dctcp", api::CcAlgorithm::Dctcp),
        ("cubic", api::CcAlgorithm::Cubic),
        ("reno", api::CcAlgorithm::Reno),
    ] {
        let mut s = api::sender_new(1, cc, MSS);
        let (mut now, mut acked) = (0u64, 0u64);
        let ns = m.ns_per_call(|| {
            now += 10_000;
            api::sender_push(&mut s, u64::from(MSS));
            black_box(api::sender_poll_send(&mut s, Ns(now)));
            acked += u64::from(MSS);
            black_box(api::sender_on_ack(
                &mut s,
                Ns(now + 5_000),
                &api::ack_packet(1, acked),
            ));
        });
        put(out, format!("transport.on_ack_ns.{label}"), ns);
    }

    // A window-limited sender with a backlog: the poll that finds no room
    // and the timer event that fires before its deadline — the two no-op
    // paths a stale event pays for.
    let mut s = api::sender_new(1, api::CcAlgorithm::Dctcp, MSS);
    api::sender_push(&mut s, 100_000_000);
    black_box(api::sender_poll_send(&mut s, Ns(1_000)));
    let ns = m.ns_per_call(|| {
        black_box(api::sender_poll_send(&mut s, Ns(2_000)));
    });
    put(out, "transport.poll_send_ns", ns);
    let ns = m.ns_per_call(|| {
        black_box(api::sender_on_timer(&mut s, Ns(2_000)));
    });
    put(out, "transport.sender_timer_idle_ns", ns);

    let mut r = api::receiver_new(1);
    let mut seq = 0u64;
    let ns = m.ns_per_call(|| {
        let p = api::data_packet(1, 100, 0, seq, MSS);
        seq += u64::from(MSS);
        black_box(api::receiver_on_data(&mut r, Ns(seq), &p));
    });
    put(out, "transport.receiver_on_data_ns", ns);
    let ns = m.ns_per_call(|| {
        black_box(api::receiver_on_timer(&mut r, Ns(1)));
    });
    put(out, "transport.receiver_timer_ns", ns);
}

fn meta(flow: u64) -> api::PacketMeta {
    api::PacketMeta {
        direction: api::Direction::Ingress,
        bytes: 1500,
        ecn_ce: false,
        retx_bit: false,
        flow_hash: api::mix64(flow),
    }
}

/// The paper's §4.3 cost table, plus the series codec and the sketch.
fn sampler(m: Micro, seed: u64, out: &mut Table) {
    let one_ms = api::RunConfig::one_ms();
    for (name, count_flows) in [
        ("millisampler.record_ns", true),
        ("millisampler.record_noflow_ns", false),
    ] {
        let cfg = api::RunConfig {
            count_flows,
            ..one_ms
        };
        let mut filter = api::filter_enabled(&cfg, 4);
        let mut i = 0u64;
        let ns = m.ns_per_call(|| {
            i += 1;
            api::filter_record(
                &mut filter,
                (i % 4) as usize,
                Ns(i % 1_999_000_000),
                black_box(&meta(i % 64)),
            );
            api::filter_rearm(&mut filter);
        });
        put(out, name, ns);
    }
    let mut filter = api::filter_disabled(&one_ms, 4);
    let mut i = 0u64;
    let ns = m.ns_per_call(|| {
        i += 1;
        api::filter_record(&mut filter, (i % 4) as usize, Ns(i), black_box(&meta(i)));
    });
    put(out, "millisampler.record_disabled_ns", ns);

    // tcpdump -s 100: a 100-byte header snapshot + timestamp into a ring.
    let mut ring = vec![0u8; 4 << 20];
    let header = [0xABu8; 100];
    let (mut pos, mut i) = (0usize, 0u64);
    let ns = m.ns_per_call(|| {
        i += 1;
        if pos + 108 > ring.len() {
            pos = 0;
        }
        ring[pos..pos + 8].copy_from_slice(&i.to_le_bytes());
        ring[pos + 8..pos + 108].copy_from_slice(black_box(&header));
        pos += 108;
    });
    black_box(ring[0]);
    put(out, "millisampler.pcap_copy_ns", ns);

    let mut filter = api::filter_enabled(&one_ms, 4);
    for i in 0..200_000u64 {
        api::filter_record(&mut filter, (i % 4) as usize, Ns(i * 9_000), &meta(i % 500));
    }
    let ns = m.ns_per_call(|| {
        black_box(api::filter_read(&filter, 0));
    });
    put(out, "millisampler.read_map_us", ns / 1e3);

    // Codec rate over the in-memory size of a series (6 counters × 8 B).
    let series = api::synth_diurnal_series(seed, 1, 2000, Ns::from_millis(1)).remove(0);
    let raw_mb = (series.len() * 6 * 8) as f64 / 1e6;
    let encoded = api::series_encode(&series);
    let ns = m.ns_per_call(|| {
        black_box(api::series_encode(black_box(&series)));
    });
    put(out, "millisampler.codec_encode_mb_s", raw_mb / (ns * 1e-9));
    let ns = m.ns_per_call(|| {
        black_box(api::series_decode(black_box(&encoded)));
    });
    put(out, "millisampler.codec_decode_mb_s", raw_mb / (ns * 1e-9));

    let mut sketch = api::flow_sketch();
    let mut i = 0u64;
    let ns = m.ns_per_call(|| {
        i += 1;
        api::sketch_insert(&mut sketch, black_box(api::mix64(i % 256)));
    });
    put(out, "sketch.insert_ns", ns);
    let ns = m.ns_per_call(|| {
        black_box(api::sketch_estimate(&sketch));
    });
    put(out, "sketch.estimate_ns", ns);
}

fn enqueue_event(i: u64) -> api::TraceEvent {
    api::TraceEvent::PacketEnqueue {
        ns: i,
        queue: (i % 16) as u32,
        size: 1500,
        occupancy: api::Bytes(i % 100_000),
        marked: i & 7 == 0,
    }
}

fn telemetry(m: Micro, out: &mut Table) {
    const RING: usize = 1 << 16;
    let mut bus = api::trace_bus(RING);
    let mut i = 0u64;
    let ns = m.ns_per_call(|| {
        i += 1;
        api::bus_record(&mut bus, black_box(enqueue_event(i)));
    });
    put(out, "telemetry.bus_record_ns", ns);

    let mut hist = api::histogram();
    let ns = m.ns_per_call(|| {
        i = i.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        api::hist_record(&mut hist, black_box(i >> 40));
    });
    put(out, "telemetry.hist_record_ns", ns);

    // The store keeps the first `capacity` records and then only counts,
    // so each batch fills a fresh store exactly once.
    let forensic = |i: u64| api::DropForensic {
        ns: i,
        queue: (i % 16) as u32,
        flow: i % 64,
        size: 1500,
        reason: api::DropReason::SharedBufferFull,
        cause: api::DropCause::CrossContention,
        queue_occupancy: 1_000_000,
        shared_occupancy: 3_000_000,
        dt_threshold: 900_000,
        burst_len: 3,
        competing_flows: 5,
        self_bytes: 40_000,
        other_bytes: 90_000,
        ecn_on: true,
        recent_kinds: i,
    };
    let ns = m.ns_per_call_fresh(
        RING as u64,
        || api::forensic_store(RING),
        |store, i| api::forensic_record(store, black_box(forensic(i))),
    );
    put(out, "telemetry.forensic_record_ns", ns);

    // A full ring of switch events through the Perfetto exporter.
    let mut exported = 0u64;
    let secs = median_secs(m.batches, || {
        let mut sink = workloads::CountingSink::default();
        api::write_perfetto(&mut sink, &bus).expect("counting sink cannot fail");
        exported = sink.bytes;
    });
    put(
        out,
        "telemetry.perfetto_export_mb_s",
        exported as f64 / 1e6 / secs,
    );
}

fn topo(m: Micro, out: &mut Table) {
    let opts = |k| api::FatTreeOpts {
        k,
        ..api::FatTreeOpts::default()
    };
    let tree = api::fat_tree(opts(8));
    let hosts = 8 * 8 * 8 / 4;
    let mut i = 0u32;
    let ns = m.ns_per_call(|| {
        i = i.wrapping_add(7);
        let sw = api::tree_tor_of(&tree, i % hosts);
        black_box(api::tree_route(&tree, sw, black_box((i / 3) % hosts)));
    });
    put(out, "topo.route_ns", ns);

    let hash = api::ecmp_hash(42);
    let mut f = 0u64;
    let ns = m.ns_per_call(|| {
        f += 1;
        black_box(api::ecmp_pick(
            &hash,
            black_box(f),
            f % 128,
            f % 97,
            f % 5,
            4,
        ));
    });
    put(out, "topo.ecmp_pick_ns", ns);

    for k in [4u32, 8] {
        let ns = m.ns_per_call(|| {
            black_box(api::fat_tree(black_box(opts(k))));
        });
        put(out, format!("topo.build_us.k{k}"), ns / 1e3);
    }
}

fn workload_and_analysis(m: Micro, seed: u64, scale: f64, out: &mut Table) {
    let ns = m.ns_per_call(|| {
        black_box(api::build_region(
            api::RegionKind::RegA,
            12,
            16,
            black_box(seed),
        ));
    });
    put(out, "workload.build_region_ms", ns / 1e6);

    // One placed rack at the busy hour, as `region_day` builds it, with
    // the window the analysis figure is quoted for: 16 servers × 250 ms.
    let region = api::build_region(api::RegionKind::RegA, 12, 16, seed);
    let cfg = api::ScenarioConfig {
        buckets: ((250.0 * scale) as usize).max(20),
        warmup: Ns::from_millis(30),
        ..api::ScenarioConfig::default()
    };
    let spec = api::rack_spec_for(&region.racks[0], &region.diurnal, 7, 0, &cfg);
    let ns = m.ns_per_call(|| {
        black_box(api::spec_build(black_box(&spec)));
    });
    put(out, "workload.spec_build_us", ns / 1e3);
    let bytes = api::spec_encode(&spec);
    let ns = m.ns_per_call(|| {
        black_box(api::spec_encode(black_box(&spec)));
    });
    put(out, "workload.spec_encode_us", ns / 1e3);
    let ns = m.ns_per_call(|| {
        black_box(api::spec_decode(black_box(&bytes)));
    });
    put(out, "workload.spec_decode_us", ns / 1e3);

    let mut sim = api::spec_build(&spec);
    let report = api::run_sync_window(&mut sim, 0);
    let run = report
        .rack_run
        .as_ref()
        .expect("a placed rack at the busy hour has traffic");
    let ns = m.ns_per_call(|| {
        black_box(api::analyze_run(
            black_box(run),
            api::Bps(12_500_000_000),
            5,
        ));
    });
    put(out, "analysis.analyze_run_ms", ns / 1e6);
    let outcome = api::outcome_from(&api::analyze_run(run, api::Bps(12_500_000_000), 5), &report);
    let ns = m.ns_per_call(|| {
        let bytes = api::outcome_encode(black_box(&outcome));
        black_box(api::outcome_decode(&bytes));
    });
    put(out, "analysis.outcome_codec_ns", ns);
}

/// Seconds spent under each span name of a finished tracer.
fn span_secs(t: &Tracer) -> impl Fn(&str) -> f64 {
    let totals = self_times(t.spans());
    move |name| {
        let hit = totals.iter().find(|s| s.name == name);
        hit.map_or(0.0, |s| s.total_ns as f64 * 1e-9)
    }
}

fn fact(out: &workloads::RepOutput, name: &str) -> f64 {
    out.facts
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| *v)
}

/// The ratios that need real (small) runs of the workloads themselves.
fn small_runs(seed: u64, scale: f64, scratch: &Path, out: &mut Table) {
    let params = |share: f64| Params {
        seed,
        scale: share * scale,
        scratch: scratch.to_path_buf(),
    };
    let mut off = Tracer::off();

    // SenderTimer dispatches at 2× the bytes ÷ 1×, on the bulk_stream
    // shape. 2.0 is linear; today's stale-timer re-arm gives ~3.
    let sender_timers = |share: f64| {
        let mut t = Tracer::off();
        let mut w = workloads::prepare("bulk_stream", &params(share), &mut t);
        w.rep(&mut t, false).sim.sender_timer as f64
    };
    let growth = sender_timers(0.75) / sender_timers(0.375).max(1.0);
    put(out, "transport.timer_dispatch_growth", growth);

    // The same small storm with and without observability attached,
    // interleaved so drift hits both.
    let mut detached = workloads::prepare("incast_storm", &params(0.2), &mut off);
    let mut attached = workloads::prepare("incast_storm_traced", &params(0.2), &mut off);
    let (mut wall_detached, mut wall_attached) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        for (w, walls) in [
            (&mut detached, &mut wall_detached),
            (&mut attached, &mut wall_attached),
        ] {
            let t0 = Instant::now();
            black_box(w.rep(&mut off, false));
            walls.push(t0.elapsed().as_secs_f64());
        }
    }
    let overhead = summarize(&wall_attached).median / summarize(&wall_detached).median - 1.0;
    put(out, "telemetry.attached_overhead_pct", overhead * 100.0);

    // Lake write and read rates from the lake_scan workload's own spans.
    let mut t = Tracer::on("layers");
    let mut lake = workloads::prepare("lake_scan", &params(0.25), &mut t);
    let rep = lake.rep(&mut t, false);
    drop(lake);
    let secs = span_secs(&t);
    let rows = fact(&rep, "lake_rows");
    let lake_bytes = fact(&rep, "lake_bytes");
    let raw_mb = rows * 6.0 * 8.0 / 1e6;
    for (name, value) in [
        ("lake.shard_append_mb_s", raw_mb / secs("lake.shard_append")),
        ("lake.compact_rows_per_s", rows / secs("lake.compact")),
        ("lake.scan_full_rows_per_s", rows / secs("lake.scan.full")),
        (
            "lake.scan_range_rows_per_s",
            fact(&rep, "range_rows") / secs("lake.scan.range"),
        ),
        (
            "lake.chunks_pruned_share",
            fact(&rep, "chunks_pruned_share"),
        ),
        ("lake.peak_resident_rows", fact(&rep, "peak_resident_rows")),
        ("lake.bytes_per_row", lake_bytes / rows),
        ("lake.verify_mb_s", lake_bytes / 1e6 / secs("lake.verify")),
    ] {
        put(out, name, value);
    }

    // The six reports over a one-seed grid's lake.
    let mut t = Tracer::on("layers");
    let mut fleet = workloads::prepare("fleet_lake", &params(0.25), &mut t);
    black_box(fleet.rep(&mut t, false));
    fleet.cleanup();
    let secs = span_secs(&t);
    for kind in api::LAKE_REPORTS {
        let ms = secs(&format!("lake.report.{kind}")) * 1e3;
        put(out, format!("lake.report_ms.{kind}"), ms);
    }

    fleet_runner(seed, scale, out);
    column_codec(out);
}

/// Runner overhead and parallel efficiency on a grid of ~1 ms cells:
/// the in-memory runner's wall against the same cells run serially here.
fn fleet_runner(seed: u64, scale: f64, out: &mut Table) {
    let grid = api::FleetGrid {
        servers: 8,
        buckets: 80,
        warmup: Ns::from_millis(10),
        seeds: vec![seed, seed + 1],
        alphas: vec![0.5, 1.0, 2.0, 4.0],
        placements: vec![api::PlacementKind::SingleVictim, api::PlacementKind::Spread],
        ccs: vec![api::CcAlgorithm::Dctcp, api::CcAlgorithm::Cubic],
        policies: vec![api::PolicyKind::DtAlpha],
        topos: vec![api::TopoPoint::SingleRack],
        connections: 24,
        total_bytes: 1_500_000,
        forensics: false,
    };
    let mut cells = api::grid_cells(&grid);
    cells.truncate(((cells.len() as f64 * scale).ceil() as usize).clamp(2, cells.len()));
    let jobs = workloads::threads_used("fleet_lake");
    let cfg = api::FleetConfig {
        jobs,
        link_bps: api::Bps(12_500_000_000),
        loss_slack: 5,
        progress: false,
    };
    let serial_once = || {
        for cell in &cells {
            let mut sim = api::spec_build(&cell.spec);
            let report = api::run_sync_window(&mut sim, 0);
            if let Some(run) = &report.rack_run {
                let analysis = api::analyze_run(run, cfg.link_bps, cfg.loss_slack);
                black_box(api::outcome_encode(&api::outcome_from(&analysis, &report)));
            }
        }
    };
    serial_once(); // warm caches and the allocator for both sides
    let (mut serial, mut parallel) = (Vec::new(), Vec::new());
    let mut report = None;
    for _ in 0..5 {
        let t0 = Instant::now();
        serial_once();
        serial.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        report = Some(api::run_fleet(&cells, &cfg));
        parallel.push(t0.elapsed().as_secs_f64());
    }
    let serial = summarize(&serial).median;
    let busy = summarize(&parallel).median * jobs as f64;
    put(
        out,
        "fleet.overhead_per_cell_us",
        (busy - serial) / cells.len() as f64 * 1e6,
    );
    put(out, "fleet.parallel_efficiency", serial / busy);
    let report = report.expect("the loop ran");
    let secs = median_secs(5, || {
        black_box(api::fleet_report_render(&report));
    });
    put(out, "fleet.report_merge_ms", secs * 1e3);
}

/// The lake's per-value column codec on a smooth (delta-friendly) series.
fn column_codec(out: &mut Table) {
    const ROWS: u64 = 4096;
    let value = |i: u64| 500_000 + (i * 37) % 9_000;
    let m = Micro {
        batches: 200,
        min_batch: Duration::ZERO,
    };
    let ns = m.ns_per_call_fresh(ROWS, api::column_writer, |w, i| {
        api::column_push(w, black_box(value(i)));
    });
    put(out, "lake.column_push_ns", ns);
    let mut w = api::column_writer();
    for i in 0..ROWS {
        api::column_push(&mut w, value(i));
    }
    let chunk = api::column_take_chunk(&mut w);
    let ns = m.ns_per_call_fresh(
        ROWS,
        || api::column_reader(&chunk, ROWS),
        |r, _| {
            black_box(api::column_next(r));
        },
    );
    put(out, "lake.column_next_ns", ns);
}
