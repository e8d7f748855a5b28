//! # etw-bench — benchmark harness
//!
//! One harness, two experiments of the `repro` binary, both timing with
//! [`harness::time_best_of`]:
//!
//! * `repro bench` ([`suite`]) — the gated throughput suite: the
//!   decode-only / tail-only / anonymise-only / end-to-end measurements,
//!   their self-checks, and the ≤ 20% regression gate against the
//!   committed `BENCH_PR<k>.json` baseline;
//! * `repro ablations` ([`ablations`]) — the paper's design comparisons
//!   (ablations A1–A7), the per-figure extraction costs and the codec
//!   and distinct-counting extensions, printed one row per measurement
//!   for EXPERIMENTS.md. No gate.
//!
//! Supporting modules:
//!
//! * [`alloc`] — allocation-counting `#[global_allocator]` wrapper, so
//!   the zero-alloc claims of the batched tail are measured, not trusted;
//! * [`harness`] — best-of-N timing and the `BENCH_*.json` format.

pub mod ablations;
pub mod alloc;
pub mod harness;
pub mod suite;
