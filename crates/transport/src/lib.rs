//! # ms-transport — transport state machines for the rack simulator
//!
//! Implements the transport behaviour the paper's analysis depends on
//! (§3, §4.2, §8): **DCTCP** for in-region traffic, **Cubic** for
//! inter-region traffic, **Reno** as a classic baseline, loss recovery via
//! retransmission timeouts and NewReno-style fast retransmit, ECN echo, and
//! the Meta-style **diagnostic retransmit bit** that Millisampler counts.
//! Congestion control is one [`cc::CongestionWindow`] per sender whose law
//! is DCTCP, Cubic or Reno; the RTO bounds are the [`rtt`] constants.
//!
//! The design is *sans-io*, in the style of smoltcp: a [`Sender`] and a
//! [`Receiver`] are pure state machines. They are handed packets and
//! timer expirations by the caller and return packets to transmit; they
//! never touch an event queue or a clock. This keeps them unit-testable
//! in isolation and lets the simulation driver (in `ms-workload`) own all
//! scheduling.
//!
//! ## Simplifications (documented per DESIGN.md)
//!
//! * Cumulative ACKs with NewReno partial-ACK recovery; no SACK. Multiple
//!   losses per window repair at one hole per RTT, or by RTO — adequate
//!   for loss *accounting* fidelity, which is what the reproduction needs.
//! * ECN echo carries exact CE-marked byte counts on ACKs (the standard
//!   simulator simplification of DCTCP's ECE state machine).
//! * No tail-loss probes: the paper notes TLP-triggered sends do *not*
//!   carry the retransmit bit, so omitting TLP only removes events that
//!   Millisampler would not have counted anyway.
//! * Receive window is unbounded (DC servers; memory is not the bottleneck
//!   under study).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cc;
pub mod receiver;
pub mod rtt;
pub mod sender;

pub use cc::CcAlgorithm;
pub use receiver::Receiver;
pub use rtt::RttEstimator;
pub use sender::{Sender, SenderConfig};
