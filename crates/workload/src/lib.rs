//! # etw-workload — the synthetic eDonkey population
//!
//! The paper measured a live population of ~90 M clients; that network no
//! longer exists, so this crate generates a population whose *behavioural
//! structure* matches what the paper reports (DESIGN.md §5 documents the
//! substitution):
//!
//! * [`zipf`] — heavy-tailed samplers (Zipf, bounded Pareto, log-normal);
//! * [`filesizes`] — the Fig. 8 file-size mixture (audio mass, 700 MB CD
//!   peak and its fractions/multiples, 1 GB split pieces);
//! * [`catalog`] — the file population with distinct provider- and
//!   search-popularity rankings (Figs. 4–5);
//! * [`clients`] — behaviour classes incl. the exact-52-queries client
//!   cap (Fig. 7) and share-directory limits (Fig. 6), plus polluters
//!   (Fig. 3);
//! * [`session`] — the client behaviour model: per-client session
//!   machines merged into the time-ordered query stream fed to the server
//!   and capture pipeline.
//!
//! ## Example
//!
//! ```
//! use etw_workload::catalog::{Catalog, CatalogParams};
//! use etw_workload::clients::{Population, PopulationParams};
//! use etw_workload::session::{GeneratorParams, MergedSessions, SourceBlobs, WireParams};
//! use std::sync::Arc;
//!
//! let catalog = Catalog::generate(&CatalogParams { n_files: 500, ..Default::default() }, 1);
//! let population = Population::generate(
//!     &PopulationParams { n_clients: 50, id_space_bits: 16, ..Default::default() }, 2);
//! let blobs = SourceBlobs::build(&catalog);
//! let params = GeneratorParams { duration_secs: 600, ..Default::default() };
//! let wire = WireParams {
//!     p_corrupt: 0.0, p_corrupt_structural: 0.0, p_tcp_noise: 0.0, p_udp_noise: 0.0,
//! };
//! // Two generator shards, merged back into one time-ordered stream.
//! let queries: Vec<_> = MergedSessions::new(
//!     Arc::new(catalog), Arc::new(population), Arc::new(blobs), params, wire, 3, 2,
//! )
//! .collect();
//! // Each event carries its query as wire bytes.
//! let first = etw_edonkey::messages::Message::decode(&queries[0].query).unwrap();
//! assert!(first.is_client_to_server());
//! ```

#![warn(missing_docs)]

pub mod catalog;
pub mod clients;
pub mod filesizes;
pub mod session;
pub mod zipf;

pub use catalog::{Catalog, CatalogFile, CatalogParams};
pub use clients::{ClassMix, ClientClass, ClientProfile, Population, PopulationParams};
pub use filesizes::{FileKind, FileSizeModel};
pub use session::{
    GeneratorParams, MergedSessions, MgmtOp, NoiseDraws, PubEntry, SessionShard, SourceBlobs,
    SrcEvent, SrcOp, WireParams,
};
pub use zipf::{BoundedPareto, LogNormal, Zipf};
