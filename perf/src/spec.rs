//! The benchmark's names: every end-to-end metric with its unit,
//! direction and regression bound, every per-layer metric with its unit,
//! and why each workload exists. `BENCHMARK.json` at the repository root
//! is this table rendered by `perf spec`; `tests/contract.rs` fails when
//! the two differ.

use crate::json::{obj, Value};
use crate::stats::{Better, Bound};
use crate::workloads::{work_unit, DISPATCH_GROUPS, WORKLOADS};

/// Seconds one contract run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 8;

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
    /// Listed in `BENCHMARK.json`. The two exact metrics are not: the
    /// contract wants metrics that are never 0 and vary run to run, so
    /// they travel as `failed`/`attempted`/`correct` instead.
    pub in_contract: bool,
}

/// The seven end-to-end metrics every workload reports.
///
/// The relative bounds are set by the host, not by taste: on the shared
/// 2-core sandbox this was sized on, ten runs of unchanged code spread
/// (IQR ÷ median) 1–5 % in a quiet quarter of an hour and 10–15 % when a
/// neighbour is busy, and a bound has to clear the noise with room to
/// spare before "worse" means anything. Tighten them on a quieter host.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound {
            rel: 0.25,
            abs: 0.05,
        },
        in_contract: true,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound {
            rel: 0.25,
            abs: 0.02,
        },
        in_contract: true,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound {
            rel: 0.25,
            abs: 0.02,
        },
        in_contract: true,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "work/s",
        better: Better::Higher,
        bound: Bound {
            rel: 0.25,
            abs: 0.0,
        },
        in_contract: true,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: Bound {
            rel: 0.25,
            abs: 2.0,
        },
        in_contract: true,
    },
    EndToEnd {
        name: "failed_share",
        unit: "ratio",
        better: Better::Lower,
        bound: Bound { rel: 0.0, abs: 0.0 },
        in_contract: false,
    },
    EndToEnd {
        name: "sim_fingerprint_stable",
        unit: "0/1",
        better: Better::Higher,
        bound: Bound { rel: 0.0, abs: 0.0 },
        in_contract: false,
    },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// One line per workload: what it stresses and the unit of its work.
pub fn workload_why(workload: &str) -> &'static str {
    match workload {
        "region_day" => "paper-exhibit path: placed racks of two regions at two hours, sampler on every host, burst/contention analysis; work = sim_mbyte (switch-admitted simulated MB)",
        "incast_storm" => "short DCTCP flows at the DT boundary: admission near threshold, drops, retransmits, RTO; transport and switch-drop path do most of the work; work = sim_mbyte",
        "incast_storm_traced" => "the same storm with telemetry, forensics and a Perfetto export attached: observability cost shows here and not on incast_storm; work = sim_mbyte",
        "bulk_stream" => "long DCTCP flows in ECN steady state, zero drops: per-ACK and timer path, where stale-timer growth is super-linear; work = sim_mbyte",
        "udp_floor" => "bare forwarding of 200-256 B packets (chatter + multicast), no transport events: engine, switch, host and sampler record only; work = sim_mbyte",
        "fat_tree_shuffle" => "cross-pod all-to-all over a k=4 fat-tree: route, ECMP pick and hop-by-hop fabric switches, the third data plane; work = sim_mbyte",
        "fleet_lake" => "grid of ~1 ms cells through the 2-thread runner into a lake, then all six reports: runner, codec, shard, compaction, report cost; work = cell",
        "lake_scan" => "full, range and point scans plus segment verify over a diurnal corpus written in set-up; no simulator code runs; work = row",
        _ => "",
    }
}

#[derive(Debug, Clone)]
pub struct LayerMetric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Measured once per trace (true) or once per traced workload (false).
    pub global: bool,
}

/// Every per-layer metric, global ones first.
pub fn layer_metrics() -> Vec<LayerMetric> {
    use Better::{Higher, Lower};
    let mut out = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: Better, global: bool| {
        out.push(LayerMetric {
            name: name.to_string(),
            unit,
            better,
            global,
        });
    };

    for d in ["d16", "d1k", "d64k"] {
        add(&format!("dcsim.engine_sched_pop_ns.{d}"), "ns", Lower, true);
    }
    for p in ["dt", "cs", "sp", "fb", "delay"] {
        add(&format!("dcsim.switch_enq_deq_ns.{p}"), "ns", Lower, true);
    }
    add("dcsim.switch_enq_near_threshold_ns.dt", "ns", Lower, true);
    add("transport.poll_send_ns", "ns", Lower, true);
    for cc in ["dctcp", "cubic", "reno"] {
        add(&format!("transport.on_ack_ns.{cc}"), "ns", Lower, true);
    }
    add("transport.sender_timer_idle_ns", "ns", Lower, true);
    add("transport.receiver_on_data_ns", "ns", Lower, true);
    add("transport.receiver_timer_ns", "ns", Lower, true);
    add("transport.timer_dispatch_growth", "ratio", Lower, true);
    add("millisampler.record_ns", "ns", Lower, true);
    add("millisampler.record_noflow_ns", "ns", Lower, true);
    add("millisampler.record_disabled_ns", "ns", Lower, true);
    add("millisampler.pcap_copy_ns", "ns", Lower, true);
    add("millisampler.read_map_us", "us", Lower, true);
    add("millisampler.codec_encode_mb_s", "MB/s", Higher, true);
    add("millisampler.codec_decode_mb_s", "MB/s", Higher, true);
    add("sketch.insert_ns", "ns", Lower, true);
    add("sketch.estimate_ns", "ns", Lower, true);
    add("telemetry.bus_record_ns", "ns", Lower, true);
    add("telemetry.hist_record_ns", "ns", Lower, true);
    add("telemetry.forensic_record_ns", "ns", Lower, true);
    add("telemetry.perfetto_export_mb_s", "MB/s", Higher, true);
    add("telemetry.attached_overhead_pct", "%", Lower, true);
    add("topo.route_ns", "ns", Lower, true);
    add("topo.ecmp_pick_ns", "ns", Lower, true);
    add("topo.build_us.k4", "us", Lower, true);
    add("topo.build_us.k8", "us", Lower, true);
    add("workload.build_region_ms", "ms", Lower, true);
    add("workload.spec_build_us", "us", Lower, true);
    add("workload.spec_encode_us", "us", Lower, true);
    add("workload.spec_decode_us", "us", Lower, true);
    add("analysis.analyze_run_ms", "ms", Lower, true);
    add("analysis.outcome_codec_ns", "ns", Lower, true);
    add("fleet.overhead_per_cell_us", "us", Lower, true);
    add("fleet.parallel_efficiency", "ratio", Higher, true);
    add("fleet.report_merge_ms", "ms", Lower, true);
    add("lake.column_push_ns", "ns", Lower, true);
    add("lake.column_next_ns", "ns", Lower, true);
    add("lake.shard_append_mb_s", "MB/s", Higher, true);
    add("lake.compact_rows_per_s", "row/s", Higher, true);
    add("lake.scan_full_rows_per_s", "row/s", Higher, true);
    add("lake.scan_range_rows_per_s", "row/s", Higher, true);
    add("lake.chunks_pruned_share", "ratio", Higher, true);
    add("lake.peak_resident_rows", "count", Lower, true);
    add("lake.bytes_per_row", "B/row", Lower, true);
    add("lake.verify_mb_s", "MB/s", Higher, true);
    for r in crate::api::LAKE_REPORTS {
        add(&format!("lake.report_ms.{r}"), "ms", Lower, true);
    }

    add("dcsim.engine_dispatches", "count", Lower, false);
    add("dcsim.engine_ns_per_dispatch", "ns", Lower, false);
    add(
        "dcsim.engine_dispatches_per_sim_mb",
        "count/MB",
        Lower,
        false,
    );
    add("dcsim.engine_heap_high_water", "count", Lower, false);
    for g in DISPATCH_GROUPS {
        add(&format!("dcsim.dispatch_share.{g}"), "ratio", Lower, false);
    }
    for g in DISPATCH_GROUPS {
        add(
            &format!("dcsim.dispatch_wall_share.{g}"),
            "ratio",
            Lower,
            false,
        );
    }
    add("dcsim.switch_drop_share", "ratio", Lower, false);
    add(
        "transport.timer_dispatch_per_data_pkt",
        "ratio",
        Lower,
        false,
    );
    add("transport.retx_share", "ratio", Lower, false);
    add("telemetry.events_overwritten", "count", Lower, false);
    add("workload.run_self_share", "ratio", Higher, false);
    add("trace_overhead_pct", "%", Lower, false);
    out
}

/// The `BENCHMARK.json` document (exactly the contract's six keys).
pub fn benchmark_json() -> Value {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "perf/Cargo.toml",
        "--",
        "bench",
    ];
    obj([
        ("command", Value::from(command.to_vec())),
        ("paths", Value::from(vec!["perf"])),
        ("run_seconds", Value::from(RUN_SECONDS)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        debug_assert!(workload_why(w).contains(work_unit(w)));
                        obj([
                            ("name", Value::from(*w)),
                            ("why", Value::from(workload_why(w))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .filter(|m| m.in_contract)
                    .map(|m| {
                        obj([
                            ("name", Value::from(m.name)),
                            ("unit", Value::from(m.unit)),
                            ("better", Value::from(m.better.as_str())),
                            ("bound", Value::from(m.bound.rel)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                layer_metrics()
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", Value::from(m.name.as_str())),
                            ("unit", Value::from(m.unit)),
                            ("better", Value::from(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
