//! Campaign benchmark for the capture machine.
//!
//! A timed run builds the world several times (set-up time), then repeats
//! whole capture campaigns through the batched writer tail for the run's
//! time budget and reports the end-to-end metrics. A traced run replays
//! the same workload one layer at a time and reports per-layer metrics.
//! See `README.md` in this directory for the workloads, the metrics and
//! which end-to-end metric each layer metric should move.

pub mod adapter;
pub mod check;
pub mod reference;
pub mod replay;
pub mod report;
pub mod sink;
pub mod spans;
pub mod sys;
pub mod timed;
pub mod workloads;
