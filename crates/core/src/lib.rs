//! # etw-core — the capture machine
//!
//! Orchestrates the full reproduction of the paper's measurement
//! (Fig. 1): the traffic source (workload + server), the lossy capture,
//! the parallel decode pipeline, the sequential anonymiser and the
//! dataset sink.
//!
//! * [`config`] — one configuration struct for the whole campaign;
//! * [`wirepath`] — messages ⇄ ethernet frames (down- and up-path);
//! * [`pipeline`] — the staged concurrent capture pipeline with
//!   deterministic output ordering, supervised workers, load shedding
//!   and checkpoint cuts;
//! * [`campaign`] — the end-to-end driver: one [`Campaign`] builder
//!   (config, registry, resume point) with three terminals, the serial
//!   tail, the serial reference writer and the writer tail, each
//!   producing a [`CampaignReport`];
//! * [`checkpoint`] — the resume-sidecar format;
//! * [`summary`] — the T1 headline-numbers table.
//!
//! ## Example
//!
//! ```
//! use etw_core::campaign::Campaign;
//! use etw_core::config::CampaignConfig;
//! use etw_xmlout::writer::DatasetWriter;
//!
//! let config = CampaignConfig::tiny();
//! let mut records = 0u64;
//! let report = Campaign::new(&config)
//!     .run(|_record| records += 1, |_checkpoint| {})
//!     .expect("valid configuration");
//! assert_eq!(report.records, records);
//! assert!(report.distinct_clients > 0);
//!
//! // The reference writer: the same records, as dataset XML.
//! let (report, writer) = Campaign::new(&config)
//!     .run_reference(DatasetWriter::new(Vec::new())?, |_checkpoint| {})?;
//! assert_eq!(report.records, records);
//! assert!(writer.finish()?.starts_with(b"<?xml"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod campaign;
pub mod checkpoint;
pub mod config;
pub mod livecap;
pub mod pipeline;
pub mod source;
pub mod summary;
pub mod wirepath;

pub use campaign::{
    render_health_dat, run_campaign, Campaign, CampaignError, CampaignReport, CaptureSide,
};
pub use checkpoint::{Checkpoint, CheckpointError};
pub use config::{CampaignConfig, ConfigError};
pub use pipeline::{
    run_capture_pipeline_with, PipelineCheckpoint, PipelineOptions, PipelineStats, ResumePoint,
    TimedFrame, TraceOptions,
};
pub use source::{run_source_only, SourceStream};
pub use summary::{render_t1, t1_key_values};
