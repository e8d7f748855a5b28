//! The sharded traffic source: a parallel front-end for the capture
//! pipeline.
//!
//! PR 5 sharded the *anonymiser*; this module applies the same striping
//! idea to the *traffic source*, which had become the pipeline's
//! bottleneck. The client population is partitioned across `S` generator
//! workers ([`SessionShard`]), the directory server is partitioned across
//! `S` per-fileID index shards ([`ShardIndex`]), and a sequential merger
//! replays everything in global virtual-time order so the frames handed
//! to the (unchanged) decode → anonymise → format → write pipeline are
//! **byte-identical for every shard count** (DESIGN.md §17).
//!
//! ```text
//! gen 0 ─┐ chan.src.gen0                     chan.src.srv{j}  ┌─ idx 0
//! gen 1 ─┼──────────────▶ merger ───────────────────────────▶ ├─ idx 1
//! gen S ─┘     (k-way merge, seq, users,     ops in global    └─ idx S
//!               fileID routing, manifests)   order, FIFO        │
//!                          │ chan.src.asm       chan.src.res{j} │
//!                          ▼                                    ▼
//!                assembler (sequential): replies → answers → frames
//! ```
//!
//! Determinism rests on three invariants:
//!
//! * generator events are *partition-invariant* (per-client RNG; see
//!   [`etw_workload::session`]), so the merged `(t_us, gidx)` order is
//!   the same for any `S`;
//! * every index shard receives its operations in global sequence order
//!   and files carry their first-announcement [`SlotKey`], so merged
//!   search answers reproduce the serial index's result order exactly;
//! * the assembler is the only stage with side effects on the capture
//!   (ident counter, lossy ring, corruption, noise), and it runs
//!   sequentially over the merged manifest stream.
//!
//! Deadlock freedom: the channel graph is acyclic (generators → merger →
//! {index shards, assembler}, shards → assembler), the merger flushes
//! shard operation batches *before* the manifest batch that references
//! their replies, and the assembler consumes each shard's reply FIFO in
//! manifest order — the reply it needs is always at or behind the FIFO
//! head, so every blocking receive is eventually satisfied.

use crate::campaign::CaptureSide;
use crate::config::CampaignConfig;
use crate::pipeline::TimedFrame;
use crate::wirepath::{datagram_frames, tcp_noise_frame_bytes, Direction, SERVER_IP};
use etw_edonkey::ids::{ClientId, FileId};
use etw_edonkey::tags::special;
use etw_netsim::capture::{CaptureBuffer, LossRecorder};
use etw_netsim::clock::VirtualTime;
use etw_server::index::tokenize;
use etw_server::shard::{shard_of, SearchHit, ShardIndex, SlotKey};
use etw_telemetry::channel::{metered_bounded, MeteredReceiver, MeteredSender};
use etw_telemetry::health::{HealthRecorder, HealthSeries};
use etw_telemetry::{Counter, Gauge, Registry};
use etw_workload::catalog::Catalog;
use etw_workload::clients::Population;
use etw_workload::session::{
    MgmtOp, NoiseDraws, SessionShard, SourceBlobs, SrcEvent, SrcOp, WireParams,
};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::thread::JoinHandle;

/// eDonkey datagram marker byte.
const MARKER: u8 = 0xE3;
/// Results cap per SearchResponse (keeps answers under the MTU, as real
/// servers do; same value the serial campaign used).
const MAX_SEARCH_RESULTS: usize = 15;
/// Sources cap per FoundSources answer.
const ANSWER_MAX_SOURCES: usize = 50;
/// Sources remembered per file in the index.
const STORE_MAX_SOURCES: usize = 500;
/// Directory-server identity (ServerDescResponse).
const SERVER_NAME: &str = "TenWeeksServer";
const SERVER_DESC: &str = "simulated eDonkey directory server";

/// Events per batch on every source channel.
const EVENT_BATCH: usize = 512;
/// Bounded channel capacities, in batches.
const GEN_QUEUE: usize = 4;
const OP_QUEUE: usize = 8;
const RES_QUEUE: usize = 8;
const MAN_QUEUE: usize = 4;

/// Interned keyword tokens for the whole catalog, shared by the merger
/// (search token lookup) and the index shards (posting lists), so no
/// stage ever re-tokenises a filename string in the hot path.
pub struct TokenTable {
    n_tokens: usize,
    /// Per catalog file: tokens of `tokenize(name)` (keywords + the
    /// extension, duplicates preserved — the index dedups per publish).
    pub_toks: Vec<Box<[u32]>>,
    /// Per catalog file: the first four keyword tokens (search atoms).
    kw_toks: Vec<[u32; 4]>,
    /// Per catalog file: its size (the search size filter).
    sizes: Vec<u32>,
}

impl TokenTable {
    /// Interns every keyword and extension of `catalog`.
    pub fn build(catalog: &Catalog) -> Self {
        let mut intern: HashMap<String, u32> = HashMap::new();
        let mut id_of = |s: &str| {
            if let Some(&id) = intern.get(s) {
                id
            } else {
                let id = intern.len() as u32;
                intern.insert(s.to_owned(), id);
                id
            }
        };
        let n = catalog.len();
        let mut pub_toks = Vec::with_capacity(n);
        let mut kw_toks = Vec::with_capacity(n);
        let mut sizes = Vec::with_capacity(n);
        for f in catalog.files() {
            let toks: Box<[u32]> = tokenize(&f.name).iter().map(|t| id_of(t)).collect();
            pub_toks.push(toks);
            let mut kws = [0u32; 4];
            for (i, kw) in f.keywords.iter().take(4).enumerate() {
                kws[i] = id_of(kw);
            }
            kw_toks.push(kws);
            sizes.push(f.size);
        }
        TokenTable {
            n_tokens: intern.len(),
            pub_toks,
            kw_toks,
            sizes,
        }
    }

    /// Distinct interned tokens.
    pub fn n_tokens(&self) -> usize {
        self.n_tokens
    }

    /// Posting tokens of file `idx`'s canonical name.
    pub fn pub_toks(&self, idx: u32) -> &[u32] {
        &self.pub_toks[idx as usize]
    }

    /// The first four keyword tokens of file `idx`.
    pub fn kw_toks(&self, idx: u32) -> [u32; 4] {
        self.kw_toks[idx as usize]
    }

    /// Size of file `idx`.
    pub fn size(&self, idx: u32) -> u32 {
        self.sizes[idx as usize]
    }
}

/// One operation routed to an index shard, in global sequence order.
enum ShardOp {
    /// Index one announced file entry.
    Publish {
        key: SlotKey,
        id: FileId,
        meta_idx: u32,
        client: u32,
        port: u16,
    },
    /// Keyword search (broadcast to every shard; one reply each).
    Search {
        toks: [u32; 4],
        n: u8,
        size_min: Option<u32>,
    },
    /// Report the shard's file count (broadcast; one reply each).
    Count,
    /// Look up a file's sources (routed to the owning shard).
    Sources { id: FileId },
}

/// A shard's reply to one reply-bearing [`ShardOp`], FIFO per shard.
enum ShardReply {
    Count(u32),
    Search(Vec<SearchHit>),
    Sources(Vec<(u32, u16)>),
}

/// What the assembler must do for one event, in global order.
enum ManifestOp {
    /// No answer (announcements and corrupted queries).
    Passthrough,
    /// StatusResponse; `users` was counted by the merger, `files` comes
    /// from summing the shards' Count replies.
    Status {
        challenge: u32,
        users: u32,
    },
    ServerList,
    Desc,
    /// SearchResponse; merge one Search reply per shard.
    Search,
    /// FoundSources; one Sources reply from `shard`.
    Sources {
        file_id: FileId,
        shard: u8,
    },
}

/// One merged event: everything the assembler needs, nothing it must
/// recompute.
struct Manifest {
    t_us: u64,
    client: ClientId,
    port: u16,
    query: Vec<u8>,
    wire: NoiseDraws,
    op: ManifestOp,
}

/// Damages an encoded message so the capture decoder rejects it — same
/// two failure modes as the paper (§2.3): structural truncation, or a
/// well-formed header with a garbage body.
fn damage(bytes: &mut Vec<u8>, structural: bool) {
    if structural {
        if bytes.len() <= 2 {
            bytes.push(0xff);
        } else {
            bytes.truncate(2);
        }
    } else {
        bytes.clear();
        bytes.extend_from_slice(&[MARKER, 0x98, 0x7f]);
    }
}

fn build_serverlist_answer() -> Vec<u8> {
    // The campaign's eight peer servers live inside the compressed
    // clientID space (ip = i), so the anonymiser covers them.
    let mut out = Vec::with_capacity(3 + 8 * 6);
    out.extend_from_slice(&[MARKER, 0xA1, 8]);
    for i in 1..=8u32 {
        out.extend_from_slice(&i.to_le_bytes());
        out.extend_from_slice(&(4661 + (i % 4) as u16).to_le_bytes());
    }
    out
}

fn build_desc_answer() -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + SERVER_NAME.len() + SERVER_DESC.len() + 2);
    out.extend_from_slice(&[MARKER, 0xA3]);
    for s in [SERVER_NAME, SERVER_DESC] {
        out.extend_from_slice(&(s.len() as u16).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    }
    out
}

/// Generator worker: drains one [`SessionShard`] into batches.
fn run_generator(mut shard: SessionShard, tx: MeteredSender<Vec<SrcEvent>>, events_ctr: Counter) {
    let mut batch = Vec::with_capacity(EVENT_BATCH);
    for ev in &mut shard {
        batch.push(ev);
        if batch.len() >= EVENT_BATCH {
            events_ctr.add(batch.len() as u64);
            let full = std::mem::replace(&mut batch, Vec::with_capacity(EVENT_BATCH));
            if tx.send(full).is_err() {
                return; // downstream gone: shutting down
            }
        }
    }
    if !batch.is_empty() {
        events_ctr.add(batch.len() as u64);
        let _ = tx.send(batch);
    }
}

/// Index shard: applies its operation stream in order, batching replies.
fn run_shard(
    token: Arc<TokenTable>,
    op_rx: MeteredReceiver<Vec<ShardOp>>,
    res_tx: MeteredSender<Vec<ShardReply>>,
) {
    let mut index = ShardIndex::new(token.n_tokens(), STORE_MAX_SOURCES);
    while let Ok(batch) = op_rx.recv() {
        let mut replies = Vec::with_capacity(batch.len());
        for op in batch {
            match op {
                ShardOp::Publish {
                    key,
                    id,
                    meta_idx,
                    client,
                    port,
                } => index.publish(
                    key,
                    id,
                    meta_idx,
                    token.size(meta_idx),
                    token.pub_toks(meta_idx),
                    client,
                    port,
                ),
                ShardOp::Search { toks, n, size_min } => {
                    let mut out = Vec::with_capacity(MAX_SEARCH_RESULTS);
                    index.search(&toks[..n as usize], size_min, MAX_SEARCH_RESULTS, &mut out);
                    replies.push(ShardReply::Search(out));
                }
                ShardOp::Count => replies.push(ShardReply::Count(index.file_count())),
                ShardOp::Sources { id } => {
                    let mut out = Vec::with_capacity(ANSWER_MAX_SOURCES);
                    index.sources_for(&id, ANSWER_MAX_SOURCES, &mut out);
                    replies.push(ShardReply::Sources(out));
                }
            }
        }
        if !replies.is_empty() && res_tx.send(replies).is_err() {
            return;
        }
    }
}

/// One generator stream's read cursor inside the merger.
struct GenCursor {
    rx: MeteredReceiver<Vec<SrcEvent>>,
    batch: std::vec::IntoIter<SrcEvent>,
    head: Option<SrcEvent>,
}

impl GenCursor {
    fn new(rx: MeteredReceiver<Vec<SrcEvent>>) -> Self {
        let mut c = GenCursor {
            rx,
            batch: Vec::new().into_iter(),
            head: None,
        };
        c.advance();
        c
    }

    fn advance(&mut self) {
        loop {
            if let Some(ev) = self.batch.next() {
                self.head = Some(ev);
                return;
            }
            match self.rx.recv() {
                Ok(b) => self.batch = b.into_iter(),
                Err(_) => {
                    self.head = None;
                    return;
                }
            }
        }
    }
}

/// The merger: k-way merge to global `(t_us, gidx)` order, sequence
/// numbering, user accounting, fileID routing, manifest emission.
fn run_merger(
    gen_rxs: Vec<MeteredReceiver<Vec<SrcEvent>>>,
    op_txs: Vec<MeteredSender<Vec<ShardOp>>>,
    man_tx: MeteredSender<Vec<Manifest>>,
    token: Arc<TokenTable>,
) {
    let shards = op_txs.len();
    let mut cursors: Vec<GenCursor> = gen_rxs.into_iter().map(GenCursor::new).collect();
    let mut ops: Vec<Vec<ShardOp>> = (0..shards).map(|_| Vec::new()).collect();
    let mut manifests: Vec<Manifest> = Vec::with_capacity(EVENT_BATCH);
    let mut users: HashSet<u32> = HashSet::new();
    let mut seq = 0u64;

    // Flushes shard op batches BEFORE the manifest batch referencing
    // their replies — the deadlock-freedom invariant.
    let flush = |ops: &mut Vec<Vec<ShardOp>>, manifests: &mut Vec<Manifest>| -> bool {
        for (j, o) in ops.iter_mut().enumerate() {
            if !o.is_empty() {
                let batch = std::mem::take(o);
                if op_txs[j].send(batch).is_err() {
                    return false;
                }
            }
        }
        let batch = std::mem::replace(manifests, Vec::with_capacity(EVENT_BATCH));
        man_tx.send(batch).is_ok()
    };

    loop {
        let mut best: Option<usize> = None;
        for (i, c) in cursors.iter().enumerate() {
            if let Some(h) = &c.head {
                let better = match best {
                    None => true,
                    Some(b) => {
                        // The cursor at `best` always has a head.
                        let bh = match &cursors[b].head {
                            Some(bh) => bh,
                            None => continue,
                        };
                        (h.t_us, h.gidx) < (bh.t_us, bh.gidx)
                    }
                };
                if better {
                    best = Some(i);
                }
            }
        }
        let Some(i) = best else { break };
        let Some(ev) = cursors[i].head.take() else {
            break;
        };
        cursors[i].advance();

        let SrcEvent {
            t_us,
            gidx: _,
            client,
            port,
            query,
            op: src_op,
            wire,
        } = ev;
        // A corrupted query never reaches the server (the serial engine
        // was not invoked for it either): no user touch, no index ops.
        let op = if wire.query_corrupt {
            ManifestOp::Passthrough
        } else {
            users.insert(client.raw());
            match src_op {
                SrcOp::Mgmt(MgmtOp::Status { challenge }) => {
                    for o in ops.iter_mut() {
                        o.push(ShardOp::Count);
                    }
                    ManifestOp::Status {
                        challenge,
                        users: users.len() as u32,
                    }
                }
                SrcOp::Mgmt(MgmtOp::ServerList) => ManifestOp::ServerList,
                SrcOp::Mgmt(MgmtOp::Desc) => ManifestOp::Desc,
                SrcOp::Offer(entries) => {
                    for (idx, e) in entries.into_iter().enumerate() {
                        let j = shard_of(&e.file_id, shards);
                        ops[j].push(ShardOp::Publish {
                            key: (seq, idx as u16),
                            id: e.file_id,
                            meta_idx: e.file_idx,
                            client: client.raw(),
                            port,
                        });
                    }
                    ManifestOp::Passthrough
                }
                SrcOp::Search {
                    file_idx,
                    n_kws,
                    size_min,
                } => {
                    let toks = token.kw_toks(file_idx);
                    for o in ops.iter_mut() {
                        o.push(ShardOp::Search {
                            toks,
                            n: n_kws,
                            size_min,
                        });
                    }
                    ManifestOp::Search
                }
                SrcOp::Sources { file_id } => {
                    let j = shard_of(&file_id, shards);
                    ops[j].push(ShardOp::Sources { id: file_id });
                    ManifestOp::Sources {
                        file_id,
                        shard: j as u8,
                    }
                }
            }
        };
        seq += 1;
        manifests.push(Manifest {
            t_us,
            client,
            port,
            query,
            wire,
            op,
        });
        if manifests.len() >= EVENT_BATCH && !flush(&mut ops, &mut manifests) {
            return;
        }
    }
    let _ = flush(&mut ops, &mut manifests);
}

/// The sequential frame assembler: consumes manifests and shard replies
/// in global order and produces the campaign's [`TimedFrame`] stream —
/// answer synthesis, ident stamping, corruption, noise, and the lossy
/// capture, exactly as the serial producer did.
pub struct SourceStream {
    man_rx: Option<MeteredReceiver<Vec<Manifest>>>,
    man_batch: std::vec::IntoIter<Manifest>,
    res_rxs: Vec<MeteredReceiver<Vec<ShardReply>>>,
    fifos: Vec<VecDeque<ShardReply>>,
    pending: VecDeque<TimedFrame>,
    capture: CaptureBuffer,
    loss_recorder: LossRecorder,
    ident: u16,
    mtu: usize,
    blobs: Arc<SourceBlobs>,
    serverlist_answer: Vec<u8>,
    desc_answer: Vec<u8>,
    merge_buf: Vec<SearchHit>,
    stats: CaptureSide,
    queries_ctr: Counter,
    answers_ctr: Counter,
    queries_delta: u64,
    answers_delta: u64,
    virtual_secs_gauge: Gauge,
    last_tick_sec: u64,
    last_virtual_us: u64,
    health: Option<HealthRecorder>,
    threads: Vec<JoinHandle<()>>,
}

impl SourceStream {
    /// Spawns the front-end fleet (`S` generators, `S` index shards, the
    /// merger) and returns the sequential assembler as a frame iterator.
    /// `config.source.source_shards` picks `S`; the produced frames are
    /// byte-identical for every valid `S`. Once the consumer has drained
    /// it, [`SourceStream::finish`] hands back the capture ledger and the
    /// health series.
    pub(crate) fn spawn(
        catalog: Arc<Catalog>,
        population: Arc<Population>,
        config: &CampaignConfig,
        registry: &Registry,
        capture: CaptureBuffer,
        health: Option<HealthRecorder>,
    ) -> SourceStream {
        let shards = config.source.source_shards.max(1);
        let blobs = Arc::new(SourceBlobs::build(&catalog));
        let token = Arc::new(TokenTable::build(&catalog));
        let wire = WireParams {
            p_corrupt: config.p_corrupt,
            p_corrupt_structural: config.p_corrupt_structural,
            p_tcp_noise: config.p_tcp_noise,
            p_udp_noise: config.p_udp_noise,
        };
        let seed = config.seed ^ 3;
        let mut threads = Vec::with_capacity(2 * shards + 1);

        let mut gen_rxs = Vec::with_capacity(shards);
        // The spawn loops below run once at stream construction, at
        // most 16 iterations: the channel labels and thread names they
        // format are startup-time, not per-event, allocations.
        for k in 0..shards {
            // etwlint: allow(no-alloc-hot-loop): startup-time label.
            let (tx, rx) = metered_bounded(GEN_QUEUE, registry, &format!("src.gen{k}"));
            let shard = SessionShard::new(
                Arc::clone(&catalog),
                Arc::clone(&population),
                Arc::clone(&blobs),
                config.generator.clone(),
                wire.clone(),
                seed,
                k,
                shards,
            );
            // etwlint: allow(no-alloc-hot-loop): startup-time label.
            let events_ctr = registry.counter(&format!("source.shard{k}.events_total"));
            threads.push(
                std::thread::Builder::new()
                    // etwlint: allow(no-alloc-hot-loop): startup-time.
                    .name(format!("src-gen{k}"))
                    .spawn(move || run_generator(shard, tx, events_ctr))
                    // etwlint: allow(no-panic-hot-path): thread spawn
                    // failure is a startup-time resource error.
                    .expect("spawn generator worker"),
            );
            gen_rxs.push(rx);
        }

        let mut op_txs = Vec::with_capacity(shards);
        let mut res_rxs = Vec::with_capacity(shards);
        for j in 0..shards {
            // etwlint: allow(no-alloc-hot-loop): startup-time labels.
            let (op_tx, op_rx) = metered_bounded(OP_QUEUE, registry, &format!("src.srv{j}"));
            // etwlint: allow(no-alloc-hot-loop): startup-time labels.
            let (res_tx, res_rx) = metered_bounded(RES_QUEUE, registry, &format!("src.res{j}"));
            let token = Arc::clone(&token);
            threads.push(
                std::thread::Builder::new()
                    // etwlint: allow(no-alloc-hot-loop): startup-time.
                    .name(format!("src-idx{j}"))
                    .spawn(move || run_shard(token, op_rx, res_tx))
                    // etwlint: allow(no-panic-hot-path): startup-time.
                    .expect("spawn index shard"),
            );
            op_txs.push(op_tx);
            res_rxs.push(res_rx);
        }

        let (man_tx, man_rx) = metered_bounded(MAN_QUEUE, registry, "src.asm");
        {
            let token = Arc::clone(&token);
            threads.push(
                std::thread::Builder::new()
                    .name("src-merge".to_owned())
                    .spawn(move || run_merger(gen_rxs, op_txs, man_tx, token))
                    // etwlint: allow(no-panic-hot-path): startup-time.
                    .expect("spawn merger"),
            );
        }

        SourceStream {
            man_rx: Some(man_rx),
            man_batch: Vec::new().into_iter(),
            fifos: (0..shards).map(|_| VecDeque::new()).collect(),
            res_rxs,
            pending: VecDeque::new(),
            capture,
            loss_recorder: LossRecorder::new(),
            ident: 0,
            mtu: config.mtu,
            blobs,
            serverlist_answer: build_serverlist_answer(),
            desc_answer: build_desc_answer(),
            merge_buf: Vec::new(),
            stats: CaptureSide::default(),
            queries_ctr: registry.counter("campaign.queries_total"),
            answers_ctr: registry.counter("campaign.answers_total"),
            queries_delta: 0,
            answers_delta: 0,
            virtual_secs_gauge: registry.gauge("campaign.virtual_secs"),
            last_tick_sec: 0,
            last_virtual_us: 0,
            health,
            threads,
        }
    }

    fn next_ident(&mut self) -> u16 {
        self.ident = self.ident.wrapping_add(1);
        self.ident
    }

    fn next_manifest(&mut self) -> Option<Manifest> {
        loop {
            if let Some(m) = self.man_batch.next() {
                return Some(m);
            }
            let received = match &self.man_rx {
                None => return None,
                Some(rx) => rx.recv(),
            };
            match received {
                Ok(batch) => self.man_batch = batch.into_iter(),
                Err(_) => {
                    self.man_rx = None;
                    return None;
                }
            }
        }
    }

    /// Pops shard `j`'s next reply (FIFO; refilled from its channel).
    fn reply(&mut self, j: usize) -> Option<ShardReply> {
        loop {
            if let Some(r) = self.fifos[j].pop_front() {
                return Some(r);
            }
            match self.res_rxs[j].recv() {
                Ok(batch) => self.fifos[j].extend(batch),
                // A disconnected reply channel mid-protocol means the
                // shard thread died; degrade to empty answers rather
                // than wedging the campaign.
                Err(_) => return None,
            }
        }
    }

    fn tick(&mut self, now: VirtualTime) {
        self.last_virtual_us = self.last_virtual_us.max(now.0);
        let sec = now.as_secs();
        if sec > self.last_tick_sec {
            self.loss_recorder.tick(self.last_tick_sec, &self.capture);
            self.last_tick_sec = sec;
            self.capture.sample_telemetry();
            self.virtual_secs_gauge.set(sec as i64);
            self.flush_counters();
            if let Some(h) = self.health.as_mut() {
                h.observe(now.0);
            }
        }
    }

    /// Flushes the batched query/answer counters into the registry —
    /// called at every virtual-second boundary *before* the health
    /// observer reads them, so boundary snapshots match the serial
    /// producer's per-event increments exactly.
    fn flush_counters(&mut self) {
        if self.queries_delta > 0 {
            self.queries_ctr.add(self.queries_delta);
            self.queries_delta = 0;
        }
        if self.answers_delta > 0 {
            self.answers_ctr.add(self.answers_delta);
            self.answers_delta = 0;
        }
    }

    /// Builds the answer datagram for one manifest, consuming the shard
    /// replies it references. Returns `None` for answerless events.
    fn build_answer(&mut self, m: &Manifest) -> Option<Vec<u8>> {
        match &m.op {
            ManifestOp::Passthrough => None,
            ManifestOp::ServerList => Some(self.serverlist_answer.clone()),
            ManifestOp::Desc => Some(self.desc_answer.clone()),
            ManifestOp::Status { challenge, users } => {
                let mut files = 0u32;
                for j in 0..self.fifos.len() {
                    if let Some(ShardReply::Count(n)) = self.reply(j) {
                        files += n;
                    }
                }
                let mut out = Vec::with_capacity(14);
                out.extend_from_slice(&[MARKER, 0x97]);
                out.extend_from_slice(&challenge.to_le_bytes());
                out.extend_from_slice(&users.to_le_bytes());
                out.extend_from_slice(&files.to_le_bytes());
                Some(out)
            }
            ManifestOp::Search => {
                let mut hits = std::mem::take(&mut self.merge_buf);
                hits.clear();
                for j in 0..self.fifos.len() {
                    if let Some(ShardReply::Search(part)) = self.reply(j) {
                        hits.extend(part);
                    }
                }
                // Per-shard lists are key-ordered; the global order is
                // the serial index's slot order.
                hits.sort_unstable_by_key(|h| h.key);
                hits.truncate(MAX_SEARCH_RESULTS);
                let mut out = Vec::with_capacity(6 + hits.len() * 112);
                out.extend_from_slice(&[MARKER, 0x99]);
                out.extend_from_slice(&(hits.len() as u32).to_le_bytes());
                for h in &hits {
                    out.extend_from_slice(h.file_id.as_bytes());
                    out.extend_from_slice(&h.provider.to_le_bytes());
                    out.extend_from_slice(&h.provider_port.to_le_bytes());
                    out.extend_from_slice(&4u32.to_le_bytes());
                    out.extend_from_slice(self.blobs.tags3(h.meta_idx));
                    out.push(0x03);
                    out.extend_from_slice(&[0x01, 0x00, special::SOURCES]);
                    out.extend_from_slice(&h.n_sources.to_le_bytes());
                }
                self.merge_buf = hits;
                Some(out)
            }
            ManifestOp::Sources { file_id, shard } => {
                let sources = match self.reply(*shard as usize) {
                    Some(ShardReply::Sources(s)) => s,
                    _ => Vec::new(),
                };
                let mut out = Vec::with_capacity(19 + sources.len() * 6);
                out.extend_from_slice(&[MARKER, 0x9B]);
                out.extend_from_slice(file_id.as_bytes());
                out.push(sources.len() as u8);
                for (cid, port) in &sources {
                    out.extend_from_slice(&cid.to_le_bytes());
                    out.extend_from_slice(&port.to_le_bytes());
                }
                Some(out)
            }
        }
    }

    /// Expands one manifest into capture frames (query, answer, noise) —
    /// the same per-event structure as the serial producer.
    fn process(&mut self, mut m: Manifest) {
        let t = VirtualTime(m.t_us);
        self.tick(t);
        self.stats.queries_generated += 1;
        self.queries_delta += 1;
        if m.wire.query_corrupt {
            self.stats.corrupted += 1;
            damage(&mut m.query, m.wire.query_structural);
        }
        let answer = if m.wire.query_corrupt {
            None
        } else {
            self.build_answer(&m)
        };

        let mtu = self.mtu;
        let ident = self.next_ident();
        {
            let (capture, stats, pending) = (&mut self.capture, &mut self.stats, &mut self.pending);
            datagram_frames(
                &m.query,
                m.client,
                m.port,
                Direction::ToServer,
                ident,
                mtu,
                |b| offer(capture, stats, pending, t, b),
            );
        }
        if let Some(mut a) = answer {
            self.stats.answers_generated += 1;
            self.answers_delta += 1;
            if m.wire.answer_corrupt {
                self.stats.corrupted += 1;
                damage(&mut a, m.wire.answer_structural);
            }
            let ident = self.next_ident();
            let (capture, stats, pending) = (&mut self.capture, &mut self.stats, &mut self.pending);
            datagram_frames(
                &a,
                m.client,
                m.port,
                Direction::FromServer,
                ident,
                mtu,
                |b| offer(capture, stats, pending, t, b),
            );
        }
        for i in 0..m.wire.tcp_flight as usize {
            self.stats.tcp_noise += 1;
            let frame =
                tcp_noise_frame_bytes(m.wire.tcp_src[i], SERVER_IP, m.wire.tcp_len[i] as usize);
            offer(
                &mut self.capture,
                &mut self.stats,
                &mut self.pending,
                t,
                frame,
            );
        }
        if m.wire.udp_len > 0 {
            self.stats.udp_noise += 1;
            let ident = self.next_ident();
            let (capture, stats, pending) = (&mut self.capture, &mut self.stats, &mut self.pending);
            datagram_frames(
                &m.wire.udp_payload[..m.wire.udp_len as usize],
                m.client,
                m.port,
                Direction::ToServer,
                ident,
                mtu,
                |b| offer(capture, stats, pending, t, b),
            );
        }
    }

    /// Finishes the stream once its consumer has drained it and hands
    /// back the capture ledger and the health series. The final health
    /// record is cut now, after the sink has drained, so its snapshot
    /// agrees with the run's totals.
    pub(crate) fn finish(mut self) -> (CaptureSide, HealthSeries) {
        self.loss_recorder.tick(self.last_tick_sec, &self.capture);
        self.capture.sample_telemetry();
        self.flush_counters();
        self.stats.losses_per_sec = std::mem::take(&mut self.loss_recorder.losses_per_sec);
        let health = self.health.take().map(|h| h.finish(self.last_virtual_us));
        (std::mem::take(&mut self.stats), health.unwrap_or_default())
    }
}

/// Offers one frame to the lossy capture, queueing it only if the ring
/// accepted it (free function so the emit closures can borrow the three
/// fields disjointly).
fn offer(
    capture: &mut CaptureBuffer,
    stats: &mut CaptureSide,
    pending: &mut VecDeque<TimedFrame>,
    ts: VirtualTime,
    bytes: Vec<u8>,
) {
    stats.offered += 1;
    if capture.offer(ts) {
        stats.captured += 1;
        pending.push_back(TimedFrame { ts, bytes });
    } else {
        stats.lost += 1;
    }
}

impl Iterator for SourceStream {
    type Item = TimedFrame;

    fn next(&mut self) -> Option<TimedFrame> {
        loop {
            if let Some(f) = self.pending.pop_front() {
                return Some(f);
            }
            let m = self.next_manifest()?;
            self.process(m);
        }
    }
}

impl Drop for SourceStream {
    fn drop(&mut self) {
        // Disconnect every channel this end holds, so blocked workers
        // wake with a send/recv error and exit; then reap them. On the
        // normal path the threads have already finished.
        self.man_rx = None;
        self.man_batch = Vec::new().into_iter();
        self.res_rxs.clear();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Runs only the sharded source — generators, merger, index shards,
/// answer assembly, lossy capture — without the decode pipeline behind
/// it. Returns the capture-side stats and total frame bytes; this is the
/// `repro bench` `source_only` row.
pub fn run_source_only(config: &CampaignConfig, registry: &Registry) -> (CaptureSide, u64) {
    let catalog = Arc::new(Catalog::generate(&config.catalog, config.seed ^ 1));
    let population = Arc::new(Population::generate(&config.population, config.seed ^ 2));
    let mut capture = CaptureBuffer::new(config.capture_ring, config.capture_drain_pps);
    capture.attach_telemetry(registry);
    let mut stream = SourceStream::spawn(catalog, population, config, registry, capture, None);
    let bytes = (&mut stream).map(|f| f.bytes.len() as u64).sum();
    (stream.finish().0, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wirepath::encapsulate;
    use etw_edonkey::messages::Message;
    use etw_server::engine::{EngineConfig, ServerEngine};
    use etw_workload::session::MergedSessions;

    fn collect_frames(config: &CampaignConfig) -> (Vec<TimedFrame>, CaptureSide) {
        let catalog = Arc::new(Catalog::generate(&config.catalog, config.seed ^ 1));
        let population = Arc::new(Population::generate(&config.population, config.seed ^ 2));
        let capture = CaptureBuffer::new(config.capture_ring, config.capture_drain_pps);
        let registry = Registry::disabled();
        let mut stream = SourceStream::spawn(catalog, population, config, &registry, capture, None);
        let frames: Vec<TimedFrame> = (&mut stream).collect();
        (frames, stream.finish().0)
    }

    fn quiet_config(shards: usize) -> CampaignConfig {
        // No corruption and no noise: every frame is a query or answer
        // datagram, so the stream compares 1:1 against the serial engine.
        let mut config = CampaignConfig::tiny();
        config.p_corrupt = 0.0;
        config.p_tcp_noise = 0.0;
        config.p_udp_noise = 0.0;
        config.capture_ring = 1 << 20; // lossless
        config.capture_drain_pps = 1e9;
        config.source.source_shards = shards;
        config
    }

    /// The strongest correctness check: the sharded source must emit the
    /// exact frame bytes a serial [`ServerEngine`] fed by the same event
    /// stream would produce — same answers, same idents, same order.
    #[test]
    fn sharded_answers_match_serial_engine() {
        let config = quiet_config(4);
        let catalog = Arc::new(Catalog::generate(&config.catalog, config.seed ^ 1));
        let population = Arc::new(Population::generate(&config.population, config.seed ^ 2));
        let blobs = Arc::new(SourceBlobs::build(&catalog));
        let wire = WireParams {
            p_corrupt: 0.0,
            p_corrupt_structural: config.p_corrupt_structural,
            p_tcp_noise: 0.0,
            p_udp_noise: 0.0,
        };
        let events: Vec<SrcEvent> = MergedSessions::new(
            Arc::clone(&catalog),
            Arc::clone(&population),
            blobs,
            config.generator.clone(),
            wire,
            config.seed ^ 3,
            1,
        )
        .collect();
        assert!(events.len() > 2_000, "only {} events", events.len());

        // Serial reference: the exact engine configuration the campaign
        // driver used before the source was sharded.
        let mut engine = ServerEngine::new(EngineConfig {
            peer_servers: (1..=8u32)
                .map(|i| etw_edonkey::messages::ServerAddr {
                    ip: i,
                    port: 4661 + (i % 4) as u16,
                })
                .collect(),
            max_search_results: MAX_SEARCH_RESULTS,
            ..EngineConfig::default()
        });
        let mut expected: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut ident = 0u16;
        for ev in &events {
            let msg = Message::decode(&ev.query).expect("clean queries decode");
            let answers = engine.handle(ev.client, &msg);
            ident = ident.wrapping_add(1);
            for f in encapsulate(
                ev.query.clone(),
                ev.client,
                ev.port,
                Direction::ToServer,
                ident,
                config.mtu,
            ) {
                expected.push((ev.t_us, f.to_bytes()));
            }
            for a in answers {
                ident = ident.wrapping_add(1);
                for f in encapsulate(
                    a.encode(),
                    ev.client,
                    ev.port,
                    Direction::FromServer,
                    ident,
                    config.mtu,
                ) {
                    expected.push((ev.t_us, f.to_bytes()));
                }
            }
        }

        let (frames, side) = collect_frames(&config);
        assert_eq!(side.offered, side.captured, "quiet config must be lossless");
        assert_eq!(expected.len(), frames.len(), "frame count diverges");
        for (i, (exp, got)) in expected.iter().zip(&frames).enumerate() {
            assert_eq!(exp.0, got.ts.0, "timestamp diverges at frame {i}");
            assert_eq!(&exp.1, &got.bytes, "frame bytes diverge at frame {i}");
        }
    }

    #[test]
    fn frames_invariant_under_shard_count() {
        let mut config = CampaignConfig::tiny();
        config.source.source_shards = 1;
        let (one, side_one) = collect_frames(&config);
        assert!(one.len() > 5_000, "only {} frames", one.len());
        assert_eq!(side_one.offered, side_one.captured + side_one.lost);
        for s in [2usize, 4, 8] {
            config.source.source_shards = s;
            let (many, side) = collect_frames(&config);
            assert_eq!(one.len(), many.len(), "{s} shards: frame count diverges");
            for (i, (a, b)) in one.iter().zip(&many).enumerate() {
                assert_eq!(a.ts, b.ts, "{s} shards: ts diverges at {i}");
                assert_eq!(a.bytes, b.bytes, "{s} shards: bytes diverge at {i}");
            }
            assert_eq!(side_one.offered, side.offered);
            assert_eq!(side_one.queries_generated, side.queries_generated);
            assert_eq!(side_one.answers_generated, side.answers_generated);
            assert_eq!(side_one.corrupted, side.corrupted);
            assert_eq!(side_one.tcp_noise, side.tcp_noise);
            assert_eq!(side_one.udp_noise, side.udp_noise);
        }
    }

    #[test]
    fn token_table_matches_serial_tokenizer() {
        let catalog = Catalog::generate(&CampaignConfig::tiny().catalog, 99);
        let token = TokenTable::build(&catalog);
        for (i, f) in catalog.files().iter().enumerate().take(200) {
            let toks = tokenize(&f.name);
            assert_eq!(toks.len(), token.pub_toks(i as u32).len());
            assert_eq!(token.size(i as u32), f.size);
            // Keyword atoms intern to the same ids as their occurrence
            // in the name's token stream.
            for (k, kw) in f.keywords.iter().take(4).enumerate() {
                let id = token.kw_toks(i as u32)[k];
                let pos = toks.iter().position(|t| t == kw).expect("keyword in name");
                assert_eq!(id, token.pub_toks(i as u32)[pos]);
            }
        }
    }

    #[test]
    fn early_drop_shuts_down_cleanly() {
        let config = CampaignConfig::tiny();
        let catalog = Arc::new(Catalog::generate(&config.catalog, config.seed ^ 1));
        let population = Arc::new(Population::generate(&config.population, config.seed ^ 2));
        let capture = CaptureBuffer::new(config.capture_ring, config.capture_drain_pps);
        let registry = Registry::disabled();
        let mut stream =
            SourceStream::spawn(catalog, population, &config, &registry, capture, None);
        // Take a handful of frames, then drop mid-campaign: Drop must
        // disconnect and join every worker without deadlocking.
        for _ in 0..100 {
            let _ = stream.next();
        }
        drop(stream);
    }

    #[test]
    fn source_only_runner_reports_capture_side() {
        let mut config = CampaignConfig::tiny();
        config.source.source_shards = 2;
        let (side, bytes) = run_source_only(&config, &Registry::disabled());
        assert!(side.offered > 10_000, "offered {}", side.offered);
        assert_eq!(side.offered, side.captured + side.lost);
        assert!(bytes > side.captured * 40, "bytes {bytes}");
        assert!(side.queries_generated > 2_000);
    }
}
