//! Chrome/Perfetto trace-event JSON export, a plain-text summary, and a
//! minimal JSON validator for smoke gates.
//!
//! The exporter renders the trace ring into the [trace-event format]
//! understood by `ui.perfetto.dev` and `chrome://tracing`: per-queue
//! occupancy counter tracks (`ph:"C"`), per-flow cwnd tracks, and instant
//! events (`ph:"i"`) for drops, ECN marks, threshold crossings, RTO
//! firings, window flushes, and sampler window closes. Timestamps are the
//! event's simulation time converted from nanoseconds to microseconds with
//! fixed three-decimal formatting, so identical event streams serialize to
//! byte-identical JSON.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::io::{self, Write};

use crate::bus::{TraceBus, TraceEvent};
use crate::metrics::{escape_json, Histogram};

/// Naming metadata for the exported trace.
#[derive(Debug, Clone)]
pub struct PerfettoMeta {
    /// Process name shown for the switch/queue tracks (e.g. `"tor-switch"`).
    pub process_name: String,
}

impl Default for PerfettoMeta {
    fn default() -> Self {
        PerfettoMeta {
            process_name: String::from("rack-sim"),
        }
    }
}

/// Formats a nanosecond sim timestamp as the microsecond `ts` field with a
/// fixed three-decimal fraction (`1234.567`), keeping output byte-stable.
fn ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn write_counter<W: Write>(
    w: &mut W,
    first: &mut bool,
    ns: u64,
    name: &str,
    arg: &str,
    value: u64,
) -> io::Result<()> {
    let sep = if *first { "" } else { ",\n" };
    *first = false;
    write!(
        w,
        "{sep}{{\"ph\":\"C\",\"pid\":1,\"name\":\"{name}\",\"ts\":{},\"args\":{{\"{arg}\":{value}}}}}",
        ts_us(ns)
    )
}

fn write_instant<W: Write>(
    w: &mut W,
    first: &mut bool,
    ns: u64,
    tid: u64,
    name: &str,
    args: &str,
) -> io::Result<()> {
    let sep = if *first { "" } else { ",\n" };
    *first = false;
    write!(
        w,
        "{sep}{{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{tid},\"name\":\"{name}\",\"ts\":{},\"args\":{{{args}}}}}",
        ts_us(ns)
    )
}

/// Writes one half of a duration event (`ph:"B"` begin / `ph:"E"` end).
/// Spans for the same flow share a tid, so Perfetto nests them (flow ⊃
/// burst ⊃ recovery/HoL) by interval containment.
fn write_span<W: Write>(
    w: &mut W,
    first: &mut bool,
    ns: u64,
    tid: u64,
    phase: char,
    name: &str,
    args: &str,
) -> io::Result<()> {
    let sep = if *first { "" } else { ",\n" };
    *first = false;
    write!(
        w,
        "{sep}{{\"ph\":\"{phase}\",\"pid\":1,\"tid\":{tid},\"name\":\"{name}\",\"ts\":{},\"args\":{{{args}}}}}",
        ts_us(ns)
    )
}

/// Thread id hosting a flow's span hierarchy (one track per flow).
fn flow_tid(flow: u64) -> u64 {
    300 + flow
}

/// Track label for a queue id: legacy single-rack ids keep the
/// historical `queue<N>` name; packed region ids render per switch
/// (`agg5.q2`, `spine0.q3` — see [`crate::qid`]).
fn queue_track(queue: u32) -> String {
    if queue <= crate::qid::QID_PORT_MASK {
        format!("queue{queue}")
    } else {
        crate::qid::qid_name(queue)
    }
}

/// Serializes the trace ring as Chrome/Perfetto trace-event JSON.
///
/// Occupancy and cwnd become counter tracks; drops, marks, crossings,
/// flushes, RTOs, and sampler closes become instant events. Output depends
/// only on the event stream, so two identical runs produce byte-identical
/// files.
pub fn write_perfetto<W: Write>(w: &mut W, bus: &TraceBus, meta: &PerfettoMeta) -> io::Result<()> {
    writeln!(w, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    write!(
        w,
        "{{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{{\"name\":\"{}\"}}}}",
        escape_json(&meta.process_name)
    )?;
    let mut first = false;
    for ev in bus.iter() {
        match *ev {
            TraceEvent::PacketEnqueue {
                ns,
                queue,
                occupancy,
                ..
            }
            | TraceEvent::Dequeue {
                ns,
                queue,
                occupancy,
                ..
            } => {
                let name = format!("{}.occupancy", queue_track(queue));
                write_counter(w, &mut first, ns, &name, "bytes", occupancy.as_u64())?;
            }
            TraceEvent::PacketDrop {
                ns,
                queue,
                size,
                reason,
            } => {
                let name = format!("drop:{}", reason.as_str());
                let args = format!("\"queue\":{queue},\"size\":{size}");
                write_instant(w, &mut first, ns, u64::from(queue), &name, &args)?;
            }
            TraceEvent::EcnMark {
                ns,
                queue,
                occupancy,
            } => {
                let args = format!("\"queue\":{queue},\"occupancy\":{}", occupancy.as_u64());
                write_instant(w, &mut first, ns, u64::from(queue), "ecn-mark", &args)?;
            }
            TraceEvent::ThresholdCross {
                ns,
                queue,
                occupancy,
                threshold,
                up,
            } => {
                let name = if up {
                    "threshold-cross:up"
                } else {
                    "threshold-cross:down"
                };
                let args = format!(
                    "\"queue\":{queue},\"occupancy\":{},\"threshold\":{}",
                    occupancy.as_u64(),
                    threshold.as_u64()
                );
                write_instant(w, &mut first, ns, u64::from(queue), name, &args)?;
            }
            TraceEvent::WindowFlush { ns, host, bytes } => {
                let args = format!("\"host\":{host},\"bytes\":{bytes}");
                write_instant(w, &mut first, ns, 100 + u64::from(host), "gro-flush", &args)?;
            }
            TraceEvent::CwndChange { ns, flow, cwnd } => {
                let name = format!("flow{flow}.cwnd");
                write_counter(w, &mut first, ns, &name, "bytes", cwnd.as_u64())?;
            }
            TraceEvent::RtoFired { ns, flow } => {
                let args = format!("\"flow\":{flow}");
                write_instant(w, &mut first, ns, 200, "rto-fired", &args)?;
            }
            TraceEvent::SamplerWindowClose { ns, host } => {
                let args = format!("\"host\":{host}");
                write_instant(
                    w,
                    &mut first,
                    ns,
                    100 + u64::from(host),
                    "sampler-window-close",
                    &args,
                )?;
            }
            TraceEvent::SamplerWindowOpen { ns, host } => {
                let args = format!("\"host\":{host}");
                write_instant(
                    w,
                    &mut first,
                    ns,
                    100 + u64::from(host),
                    "sampler-window-open",
                    &args,
                )?;
            }
            TraceEvent::FlowSpanStart { ns, flow } => {
                let args = format!("\"flow\":{flow}");
                write_span(w, &mut first, ns, flow_tid(flow), 'B', "flow", &args)?;
            }
            TraceEvent::FlowSpanEnd { ns, flow } => {
                write_span(w, &mut first, ns, flow_tid(flow), 'E', "flow", "")?;
            }
            TraceEvent::BurstSpanStart { ns, flow } => {
                let args = format!("\"flow\":{flow}");
                write_span(w, &mut first, ns, flow_tid(flow), 'B', "burst", &args)?;
            }
            TraceEvent::BurstSpanEnd { ns, flow } => {
                write_span(w, &mut first, ns, flow_tid(flow), 'E', "burst", "")?;
            }
            TraceEvent::RecoverySpanStart { ns, flow, rto } => {
                let args = format!(
                    "\"flow\":{flow},\"trigger\":\"{}\"",
                    if rto { "rto" } else { "fast-retx" }
                );
                write_span(w, &mut first, ns, flow_tid(flow), 'B', "recovery", &args)?;
            }
            TraceEvent::RecoverySpanEnd { ns, flow } => {
                write_span(w, &mut first, ns, flow_tid(flow), 'E', "recovery", "")?;
            }
            TraceEvent::HolSpanStart { ns, flow } => {
                let args = format!("\"flow\":{flow}");
                write_span(w, &mut first, ns, flow_tid(flow), 'B', "hol-wait", &args)?;
            }
            TraceEvent::HolSpanEnd { ns, flow } => {
                write_span(w, &mut first, ns, flow_tid(flow), 'E', "hol-wait", "")?;
            }
            TraceEvent::ForensicDrop {
                ns,
                queue,
                flow,
                cause,
            } => {
                let name = format!("forensic:{}", cause.as_str());
                let args = format!("\"queue\":{queue},\"flow\":{flow}");
                write_instant(w, &mut first, ns, u64::from(queue), &name, &args)?;
            }
        }
    }
    writeln!(w, "\n]}}")?;
    Ok(())
}

/// Renders a plain-text summary of the trace ring: total/overwritten event
/// counts, a per-kind breakdown, and the top-`n` queues by drop count.
pub fn summary(bus: &TraceBus, top_n: usize) -> String {
    use std::fmt::Write;
    let mut kinds: Vec<(&'static str, u64)> = Vec::new();
    let mut drops_by_queue: Vec<(u32, u64)> = Vec::new();
    let mut span_starts: Vec<(u64, u64)> = Vec::new();
    let mut fct = Histogram::new();
    for ev in bus.iter() {
        let kind = ev.kind();
        match kinds.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, c)) => *c += 1,
            None => kinds.push((kind, 1)),
        }
        match *ev {
            TraceEvent::PacketDrop { queue, .. } => {
                match drops_by_queue.iter_mut().find(|(q, _)| *q == queue) {
                    Some((_, c)) => *c += 1,
                    None => drops_by_queue.push((queue, 1)),
                }
            }
            TraceEvent::FlowSpanStart { ns, flow } => span_starts.push((flow, ns)),
            TraceEvent::FlowSpanEnd { ns, flow } => {
                if let Some(i) = span_starts.iter().position(|(f, _)| *f == flow) {
                    let (_, start) = span_starts.swap_remove(i);
                    fct.record(ns.saturating_sub(start));
                }
            }
            _ => {}
        }
    }
    // Descending by count, then by name/queue for a total deterministic order.
    kinds.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    drops_by_queue.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace: {} events recorded, {} in ring, {} overwritten",
        bus.recorded(),
        bus.len(),
        bus.overwritten()
    );
    for (kind, count) in &kinds {
        let _ = writeln!(out, "  {kind:<24} {count}");
    }
    if !drops_by_queue.is_empty() {
        let _ = writeln!(out, "top queues by drops:");
        for (queue, count) in drops_by_queue.iter().take(top_n) {
            let name = if *queue <= crate::qid::QID_PORT_MASK {
                queue.to_string()
            } else {
                crate::qid::qid_name(*queue)
            };
            let _ = writeln!(out, "  queue {name:<4} {count}");
        }
    }
    if fct.total() > 0 {
        let _ = writeln!(
            out,
            "flow spans: {} complete, fct ns p50={} p99={} p999={}",
            fct.total(),
            fct.percentile(0.50),
            fct.percentile(0.99),
            fct.percentile(0.999)
        );
    }
    out
}

/// Minimal JSON validity check (no external dependencies): verifies the
/// input is one complete, syntactically well-formed JSON value. Used by the
/// CI smoke gate and the golden tests to assert exported traces parse.
pub fn validate_json(input: &str) -> Result<(), String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    match b.get(*pos) {
        None => Err(String::from("unexpected end of input")),
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => parse_string(b, pos),
        Some(b't') => parse_lit(b, pos, b"true"),
        Some(b'f') => parse_lit(b, pos, b"false"),
        Some(b'n') => parse_lit(b, pos, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte {c:#x} at {pos}", pos = *pos)),
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // consume '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        skip_ws(b, pos);
        parse_value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // consume '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        parse_value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // consume opening quote
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 2; // escape plus escaped byte; \uXXXX hex is benign
            }
            _ => *pos += 1,
        }
    }
    Err(String::from("unterminated string"))
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut saw_digit = false;
    while let Some(&c) = b.get(*pos) {
        if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
            saw_digit |= c.is_ascii_digit();
            *pos += 1;
        } else {
            break;
        }
    }
    if saw_digit {
        Ok(())
    } else {
        Err(format!("malformed number at byte {start}"))
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b.len() >= *pos + lit.len() && &b[*pos..*pos + lit.len()] == lit {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("malformed literal at byte {pos}", pos = *pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::DropReason;
    use ms_units::Bytes;

    fn sample_bus() -> TraceBus {
        let mut bus = TraceBus::with_capacity(64);
        bus.record(TraceEvent::PacketEnqueue {
            ns: 1_000,
            queue: 2,
            size: 1500,
            occupancy: Bytes(1500),
            marked: false,
        });
        bus.record(TraceEvent::ThresholdCross {
            ns: 1_500,
            queue: 2,
            occupancy: Bytes(130_000),
            threshold: Bytes(120_000),
            up: true,
        });
        bus.record(TraceEvent::EcnMark {
            ns: 1_600,
            queue: 2,
            occupancy: Bytes(130_000),
        });
        bus.record(TraceEvent::PacketDrop {
            ns: 2_000,
            queue: 2,
            size: 1500,
            reason: DropReason::DynamicThresholdReject,
        });
        bus.record(TraceEvent::Dequeue {
            ns: 2_500,
            queue: 2,
            size: 1500,
            occupancy: Bytes::ZERO,
        });
        bus.record(TraceEvent::CwndChange {
            ns: 3_000,
            flow: 7,
            cwnd: Bytes(29_200),
        });
        bus.record(TraceEvent::RtoFired { ns: 4_000, flow: 7 });
        bus.record(TraceEvent::WindowFlush {
            ns: 5_000,
            host: 3,
            bytes: 64_000,
        });
        bus.record(TraceEvent::SamplerWindowClose { ns: 6_000, host: 3 });
        bus
    }

    #[test]
    fn perfetto_output_is_valid_and_deterministic() {
        let bus = sample_bus();
        let meta = PerfettoMeta::default();
        let mut a = Vec::new();
        write_perfetto(&mut a, &bus, &meta).unwrap();
        let mut b = Vec::new();
        write_perfetto(&mut b, &bus, &meta).unwrap();
        assert_eq!(a, b);
        let text = String::from_utf8(a).unwrap();
        validate_json(&text).expect("exported trace must be valid JSON");
        assert!(text.contains("\"traceEvents\""));
        assert!(text.contains("queue2.occupancy"));
        assert!(text.contains("drop:dynamic-threshold-reject"));
        assert!(text.contains("\"ph\":\"C\""));
        assert!(text.contains("\"ph\":\"i\""));
    }

    #[test]
    fn process_name_is_escaped() {
        let bus = TraceBus::with_capacity(4);
        let meta = PerfettoMeta {
            process_name: String::from("rack\"sim\\v1\n"),
        };
        let mut out = Vec::new();
        write_perfetto(&mut out, &bus, &meta).unwrap();
        let text = String::from_utf8(out).unwrap();
        validate_json(&text).expect("metadata strings must be escaped");
        assert!(text.contains("rack\\\"sim\\\\v1\\u000a"));
    }

    #[test]
    fn span_and_forensic_events_export_as_durations_and_instants() {
        use crate::forensics::DropCause;
        let mut bus = TraceBus::with_capacity(64);
        bus.record(TraceEvent::FlowSpanStart { ns: 1_000, flow: 7 });
        bus.record(TraceEvent::BurstSpanStart { ns: 1_100, flow: 7 });
        bus.record(TraceEvent::RecoverySpanStart {
            ns: 1_200,
            flow: 7,
            rto: false,
        });
        bus.record(TraceEvent::ForensicDrop {
            ns: 1_250,
            queue: 2,
            flow: 7,
            cause: DropCause::CrossContention,
        });
        bus.record(TraceEvent::RecoverySpanEnd { ns: 1_300, flow: 7 });
        bus.record(TraceEvent::BurstSpanEnd { ns: 1_400, flow: 7 });
        bus.record(TraceEvent::HolSpanStart { ns: 1_500, flow: 7 });
        bus.record(TraceEvent::HolSpanEnd { ns: 1_600, flow: 7 });
        bus.record(TraceEvent::SamplerWindowOpen { ns: 1_700, host: 3 });
        bus.record(TraceEvent::FlowSpanEnd { ns: 2_000, flow: 7 });

        let mut out = Vec::new();
        write_perfetto(&mut out, &bus, &PerfettoMeta::default()).unwrap();
        let text = String::from_utf8(out).unwrap();
        validate_json(&text).unwrap();
        // Duration halves on the flow's own track (tid 300 + flow).
        assert!(text.contains("\"ph\":\"B\",\"pid\":1,\"tid\":307,\"name\":\"flow\""));
        assert!(text.contains("\"ph\":\"E\",\"pid\":1,\"tid\":307,\"name\":\"flow\""));
        assert!(text.contains("\"name\":\"burst\""));
        assert!(text.contains("\"trigger\":\"fast-retx\""));
        assert!(text.contains("\"name\":\"hol-wait\""));
        assert!(text.contains("forensic:cross-contention"));
        assert!(text.contains("sampler-window-open"));

        // The summary derives flow FCT percentiles from the span pairs.
        let s = summary(&bus, 3);
        assert!(s.contains("flow spans: 1 complete"), "{s}");
        // 1000 ns FCT lands in the bucket whose lower bound is 896.
        assert!(s.contains("p50=896"), "{s}");
    }

    #[test]
    fn ts_is_microseconds_with_fixed_fraction() {
        assert_eq!(ts_us(0), "0.000");
        assert_eq!(ts_us(1), "0.001");
        assert_eq!(ts_us(1_234_567), "1234.567");
        assert_eq!(ts_us(2_000), "2.000");
    }

    #[test]
    fn summary_counts_kinds_and_top_queues() {
        let bus = sample_bus();
        let text = summary(&bus, 3);
        assert!(text.contains("9 events recorded"));
        assert!(text.contains("packet-drop"));
        assert!(text.contains("top queues by drops:"));
        assert!(text.contains("queue 2"));
    }

    #[test]
    fn validator_accepts_valid_and_rejects_invalid() {
        validate_json("{}").unwrap();
        validate_json("[1, 2.5, -3e2, \"x\\\"y\", true, false, null]").unwrap();
        validate_json("{\"a\":{\"b\":[{}]}}").unwrap();
        assert!(validate_json("").is_err());
        assert!(validate_json("{").is_err());
        assert!(validate_json("{\"a\":}").is_err());
        assert!(validate_json("[1,]").is_err());
        assert!(validate_json("{} extra").is_err());
        assert!(validate_json("\"unterminated").is_err());
    }

    #[test]
    fn empty_bus_exports_valid_trace() {
        let bus = TraceBus::with_capacity(4);
        let mut out = Vec::new();
        write_perfetto(&mut out, &bus, &PerfettoMeta::default()).unwrap();
        let text = String::from_utf8(out).unwrap();
        validate_json(&text).unwrap();
        assert!(text.contains("traceEvents"));
    }
}
