//! The replay's frame source: a serial reference for the campaign's
//! traffic on a noise-free configuration.
//!
//! The campaign's sharded source is private to it, and the serial
//! `ServerEngine` it replaced needs minutes per 20k-client campaign
//! (each search collects whole keyword candidate sets). This reference
//! therefore answers the workload's events with one public `ShardIndex`
//! in event order, which is the source at one shard, and encapsulates
//! queries and answers with consecutive IP idents. On a noise-free
//! configuration its frames are byte-identical to the `ServerEngine`
//! reference; the `reference_matches_serial_engine` test checks that.

use etw_core::pipeline::TimedFrame;
use etw_core::source::TokenTable;
use etw_core::wirepath::{datagram_frames, Direction};
use etw_edonkey::tags::special;
use etw_netsim::VirtualTime;
use etw_server::{SearchHit, ShardIndex};
use etw_workload::catalog::Catalog;
use etw_workload::session::{MgmtOp, SourceBlobs, SrcEvent, SrcOp};
use std::collections::HashSet;
use std::sync::Arc;

/// eDonkey datagram marker byte.
const MARKER: u8 = 0xE3;
/// Results per search answer, sources per source answer and sources kept
/// per file: the values the campaign's source uses.
pub const MAX_SEARCH_RESULTS: usize = 15;
const ANSWER_MAX_SOURCES: usize = 50;
const STORE_MAX_SOURCES: usize = 500;
/// The campaign's peer servers (ip = 1..=8) and server identity.
pub const PEER_SERVERS: u32 = 8;
const SERVER_NAME: &str = "TenWeeksServer";
const SERVER_DESC: &str = "simulated eDonkey directory server";

/// Answers events in order and turns them into capture frames.
pub struct Reference {
    index: ShardIndex,
    tokens: TokenTable,
    blobs: Arc<SourceBlobs>,
    users: HashSet<u32>,
    seq: u64,
    ident: u16,
    mtu: usize,
    hits: Vec<SearchHit>,
    sources: Vec<(u32, u16)>,
}

impl Reference {
    /// A reference server over `catalog`'s files, framing at `mtu`.
    pub fn new(catalog: &Catalog, blobs: Arc<SourceBlobs>, mtu: usize) -> Self {
        let tokens = TokenTable::build(catalog);
        Reference {
            index: ShardIndex::new(tokens.n_tokens(), STORE_MAX_SOURCES),
            tokens,
            blobs,
            users: HashSet::new(),
            seq: 0,
            ident: 0,
            mtu,
            hits: Vec::new(),
            sources: Vec::new(),
        }
    }

    /// The answer datagram to `ev`, if the server answers it.
    fn answer(&mut self, ev: &SrcEvent) -> Option<Vec<u8>> {
        let client = ev.client.raw();
        self.users.insert(client);
        let answer = match &ev.op {
            SrcOp::Mgmt(MgmtOp::Status { challenge }) => {
                let mut out = vec![MARKER, 0x97];
                out.extend_from_slice(&challenge.to_le_bytes());
                out.extend_from_slice(&(self.users.len() as u32).to_le_bytes());
                out.extend_from_slice(&self.index.file_count().to_le_bytes());
                Some(out)
            }
            SrcOp::Mgmt(MgmtOp::ServerList) => {
                let mut out = vec![MARKER, 0xA1, PEER_SERVERS as u8];
                for i in 1..=PEER_SERVERS {
                    out.extend_from_slice(&i.to_le_bytes());
                    out.extend_from_slice(&(4661 + (i % 4) as u16).to_le_bytes());
                }
                Some(out)
            }
            SrcOp::Mgmt(MgmtOp::Desc) => {
                let mut out = vec![MARKER, 0xA3];
                for s in [SERVER_NAME, SERVER_DESC] {
                    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
                    out.extend_from_slice(s.as_bytes());
                }
                Some(out)
            }
            SrcOp::Offer(entries) => {
                for (i, e) in entries.iter().enumerate() {
                    self.index.publish(
                        (self.seq, i as u16),
                        e.file_id,
                        e.file_idx,
                        self.tokens.size(e.file_idx),
                        self.tokens.pub_toks(e.file_idx),
                        client,
                        ev.port,
                    );
                }
                None
            }
            SrcOp::Search {
                file_idx,
                n_kws,
                size_min,
            } => {
                let toks = self.tokens.kw_toks(*file_idx);
                self.hits.clear();
                self.index.search(
                    &toks[..*n_kws as usize],
                    *size_min,
                    MAX_SEARCH_RESULTS,
                    &mut self.hits,
                );
                let mut out = vec![MARKER, 0x99];
                out.extend_from_slice(&(self.hits.len() as u32).to_le_bytes());
                for h in &self.hits {
                    out.extend_from_slice(h.file_id.as_bytes());
                    out.extend_from_slice(&h.provider.to_le_bytes());
                    out.extend_from_slice(&h.provider_port.to_le_bytes());
                    out.extend_from_slice(&4u32.to_le_bytes());
                    out.extend_from_slice(self.blobs.tags3(h.meta_idx));
                    out.extend_from_slice(&[0x03, 0x01, 0x00, special::SOURCES]);
                    out.extend_from_slice(&h.n_sources.to_le_bytes());
                }
                Some(out)
            }
            SrcOp::Sources { file_id } => {
                self.index
                    .sources_for(file_id, ANSWER_MAX_SOURCES, &mut self.sources);
                let mut out = vec![MARKER, 0x9B];
                out.extend_from_slice(file_id.as_bytes());
                out.push(self.sources.len() as u8);
                for (c, port) in &self.sources {
                    out.extend_from_slice(&c.to_le_bytes());
                    out.extend_from_slice(&port.to_le_bytes());
                }
                Some(out)
            }
        };
        self.seq += 1;
        answer
    }

    /// Appends the frames of `events` (queries and answers) to `out`.
    pub fn frames(&mut self, events: &[SrcEvent], out: &mut Vec<TimedFrame>) {
        for ev in events {
            let answer = self.answer(ev);
            let ts = VirtualTime(ev.t_us);
            let mut emit = |bytes| out.push(TimedFrame { ts, bytes });
            let (client, port, mtu) = (ev.client, ev.port, self.mtu);
            self.ident = self.ident.wrapping_add(1);
            datagram_frames(
                &ev.query,
                client,
                port,
                Direction::ToServer,
                self.ident,
                mtu,
                &mut emit,
            );
            if let Some(a) = answer {
                self.ident = self.ident.wrapping_add(1);
                datagram_frames(
                    &a,
                    client,
                    port,
                    Direction::FromServer,
                    self.ident,
                    mtu,
                    &mut emit,
                );
            }
        }
    }
}
