//! `ms-perf` — the repository's benchmark: eight workloads, seven
//! end-to-end metrics, a per-layer table, a traced run and an A/B
//! compare. It links the workspace's crates as libraries and drives them
//! only through their public functions. See `perf/README.md`.

pub mod api;
pub mod bench;
pub mod compare;
pub mod host;
pub mod json;
pub mod layers;
pub mod run;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
