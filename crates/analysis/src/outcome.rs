//! The unified per-run result record: [`RunOutcome`].
//!
//! Before this module existed, three overlapping report shapes carried a
//! run's results: `RackSimReport` (simulation ground truth), the bench
//! harness's ad-hoc rows, and `RunAnalysis` (the §6–8 classification).
//! Sweeps had to thread all three around and every consumer re-derived
//! its own scalars. `RunOutcome` is the one flattened record a sweep
//! cell produces: simulation ground truth plus the analysis scalars,
//! with a single canonical codec encoding (for shipping results across
//! worker threads or storing them) and a single CSV row shape (for
//! aggregate output). The heavyweight series data stays in
//! [`RunAnalysis`] / `AlignedRackRun` and is dropped once the outcome is
//! extracted.

use crate::classify::RunAnalysis;
use millisampler::codec::{DecodeError, WireReader, WireWriter};
use ms_dcsim::PolicyKind;

/// Everything one sweep cell reports, flattened to scalars.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Bytes the switch admitted over the window (SNMP-like ground truth).
    pub switch_ingress_bytes: u64,
    /// Bytes the switch discarded over the window.
    pub switch_discard_bytes: u64,
    /// Connection groups started.
    pub flows_started: u64,
    /// Connections completed.
    pub conns_completed: u64,
    /// Simulator events processed.
    pub events: u64,
    /// Sampled ingress bytes across all servers.
    pub total_in_bytes: u64,
    /// Sampled retransmit-bit ingress bytes across all servers.
    pub total_retx_bytes: u64,
    /// Bursts detected (§5).
    pub bursts: u64,
    /// Bursts classified contended (§8).
    pub contended_bursts: u64,
    /// Bursts classified lossy (§8).
    pub lossy_bursts: u64,
    /// Average per-sample contention.
    pub contention_avg: f64,
    /// 90th-percentile per-sample contention.
    pub contention_p90: u32,
    /// Maximum per-sample contention.
    pub contention_max: u32,
    /// Servers with any traffic.
    pub active_servers: u32,
    /// Servers with at least one bursty sample.
    pub bursty_servers: u32,
    /// The buffer-sharing policy the cell's ToR ran (defaults to DT —
    /// stamp from the scenario spec when sweeping other policies).
    pub policy: PolicyKind,
}

const OUTCOME_MAGIC: &[u8; 4] = b"MSO1";

impl RunOutcome {
    /// Flattens a [`RunAnalysis`] plus the simulation ground-truth
    /// counters into one outcome record.
    pub fn from_analysis(
        analysis: &RunAnalysis,
        switch_ingress_bytes: u64,
        switch_discard_bytes: u64,
        flows_started: u64,
        conns_completed: u64,
        events: u64,
    ) -> Self {
        RunOutcome {
            switch_ingress_bytes,
            switch_discard_bytes,
            flows_started,
            conns_completed,
            events,
            total_in_bytes: analysis.total_in_bytes,
            total_retx_bytes: analysis.total_retx_bytes,
            bursts: analysis.bursts.len() as u64,
            contended_bursts: analysis.bursts.iter().filter(|b| b.contended).count() as u64,
            lossy_bursts: analysis.bursts.iter().filter(|b| b.lossy).count() as u64,
            contention_avg: analysis.contention_stats.avg,
            contention_p90: analysis.contention_stats.p90,
            contention_max: analysis.contention_stats.max,
            // simlint: allow(cast-truncation): server counts are rack-sized
            active_servers: analysis.active_servers as u32,
            // simlint: allow(cast-truncation): server counts are rack-sized
            bursty_servers: analysis.bursty_servers as u32,
            policy: PolicyKind::DtAlpha,
        }
    }

    /// An all-zero outcome (a run that produced no sampled data).
    pub fn empty() -> Self {
        RunOutcome {
            switch_ingress_bytes: 0,
            switch_discard_bytes: 0,
            flows_started: 0,
            conns_completed: 0,
            events: 0,
            total_in_bytes: 0,
            total_retx_bytes: 0,
            bursts: 0,
            contended_bursts: 0,
            lossy_bursts: 0,
            contention_avg: 0.0,
            contention_p90: 0,
            contention_max: 0,
            active_servers: 0,
            bursty_servers: 0,
            policy: PolicyKind::DtAlpha,
        }
    }

    /// Canonical codec encoding: identical outcomes encode to identical
    /// bytes, which is what lets the fleet merge assert byte-identity
    /// across thread counts.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::with_magic(OUTCOME_MAGIC);
        w.u64(self.switch_ingress_bytes);
        w.u64(self.switch_discard_bytes);
        w.u64(self.flows_started);
        w.u64(self.conns_completed);
        w.u64(self.events);
        w.u64(self.total_in_bytes);
        w.u64(self.total_retx_bytes);
        w.u64(self.bursts);
        w.u64(self.contended_bursts);
        w.u64(self.lossy_bursts);
        w.f64(self.contention_avg);
        w.u64(u64::from(self.contention_p90));
        w.u64(u64::from(self.contention_max));
        w.u64(u64::from(self.active_servers));
        w.u64(u64::from(self.bursty_servers));
        w.u64(self.policy.code());
        w.finish()
    }

    /// Decodes an outcome produced by [`RunOutcome::encode`].
    pub fn decode(data: &[u8]) -> Result<Self, DecodeError> {
        let mut r = WireReader::new(data);
        r.expect_magic(OUTCOME_MAGIC)?;
        let outcome = RunOutcome {
            switch_ingress_bytes: r.u64()?,
            switch_discard_bytes: r.u64()?,
            flows_started: r.u64()?,
            conns_completed: r.u64()?,
            events: r.u64()?,
            total_in_bytes: r.u64()?,
            total_retx_bytes: r.u64()?,
            bursts: r.u64()?,
            contended_bursts: r.u64()?,
            lossy_bursts: r.u64()?,
            contention_avg: r.f64()?,
            contention_p90: r.u32()?,
            contention_max: r.u32()?,
            active_servers: r.u32()?,
            bursty_servers: r.u32()?,
            policy: PolicyKind::from_code(r.u64()?).ok_or(DecodeError::OutOfRange)?,
        };
        r.expect_end()?;
        Ok(outcome)
    }

    /// The CSV column names matching [`RunOutcome::csv_cells`].
    pub const CSV_HEADER: &'static str = "switch_ingress_bytes,switch_discard_bytes,\
flows_started,conns_completed,events,total_in_bytes,total_retx_bytes,bursts,\
contended_bursts,lossy_bursts,contention_avg,contention_p90,contention_max,\
active_servers,bursty_servers,policy";

    /// One deterministic CSV row (floats at fixed precision, so the same
    /// outcome always prints the same bytes).
    pub fn csv_cells(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{},{},{:.6},{},{},{},{},{}",
            self.switch_ingress_bytes,
            self.switch_discard_bytes,
            self.flows_started,
            self.conns_completed,
            self.events,
            self.total_in_bytes,
            self.total_retx_bytes,
            self.bursts,
            self.contended_bursts,
            self.lossy_bursts,
            self.contention_avg,
            self.contention_p90,
            self.contention_max,
            self.active_servers,
            self.bursty_servers,
            self.policy.label()
        )
    }

    /// Loss rate against switch-admitted bytes (NaN if the switch saw
    /// nothing).
    pub fn loss_rate(&self) -> f64 {
        if self.switch_ingress_bytes == 0 {
            return f64::NAN;
        }
        self.switch_discard_bytes as f64 / self.switch_ingress_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunOutcome {
        RunOutcome {
            switch_ingress_bytes: 123_456_789,
            switch_discard_bytes: 4_242,
            flows_started: 17,
            conns_completed: 160,
            events: 999_999,
            total_in_bytes: 120_000_000,
            total_retx_bytes: 3_000,
            bursts: 41,
            contended_bursts: 12,
            lossy_bursts: 3,
            contention_avg: 1.625,
            contention_p90: 3,
            contention_max: 5,
            active_servers: 8,
            bursty_servers: 6,
            policy: PolicyKind::FlexibleBounds,
        }
    }

    #[test]
    fn codec_round_trip_exact() {
        let o = sample();
        let enc = o.encode();
        assert_eq!(RunOutcome::decode(&enc).unwrap(), o);
        assert_eq!(enc, RunOutcome::decode(&enc).unwrap().encode());
    }

    #[test]
    fn decode_rejects_bad_magic_and_truncation() {
        assert!(RunOutcome::decode(b"NOPE").is_err());
        let mut enc = sample().encode();
        enc.truncate(enc.len() - 3);
        assert!(RunOutcome::decode(&enc).is_err());
    }

    #[test]
    fn csv_row_matches_header_arity() {
        let header_cols = RunOutcome::CSV_HEADER.split(',').count();
        let row_cols = sample().csv_cells().split(',').count();
        assert_eq!(header_cols, row_cols);
        assert_eq!(header_cols, 16);
    }

    #[test]
    fn every_policy_kind_survives_the_codec() {
        for kind in PolicyKind::ALL {
            let mut o = sample();
            o.policy = kind;
            let back = RunOutcome::decode(&o.encode()).unwrap();
            assert_eq!(back.policy, kind);
            assert!(o.csv_cells().ends_with(kind.label()));
        }
    }

    #[test]
    fn csv_is_deterministic() {
        assert_eq!(sample().csv_cells(), sample().csv_cells());
        assert!(sample().csv_cells().contains("1.625000"));
    }

    #[test]
    fn loss_rate_handles_empty() {
        assert!(RunOutcome::empty().loss_rate().is_nan());
        let o = sample();
        assert!((o.loss_rate() - 4_242.0 / 123_456_789.0).abs() < 1e-15);
    }
}
