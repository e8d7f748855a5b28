//! Sharded anonymisation along the paper's clientID/fileID split.
//!
//! The paper's two encoder structures partition naturally:
//!
//! * **clientIDs** — the direct-index array splits by the *low bits* of
//!   the raw clientID: shard `s` of `S` owns every id with
//!   `id & (S-1) == s` and indexes its private slice with
//!   `id >> log2(S)`, so the `S` tables tile the full address space with
//!   no overlap and no locking;
//! * **fileIDs** — the 65 536 sorted buckets split by the *low bits of
//!   the bucket index* (the byte-pair selector value), again giving each
//!   shard a disjoint set of buckets.
//!
//! The subtle part is the **order-of-appearance contract**: the dataset
//! promises that the `n`-th distinct id *in stream order* encodes to
//! `n-1`. A shard cannot know the global order, so it assigns
//! **striped provisionals**: shard `s` numbers its `k`-th locally-new id
//! `p = s + k·S` — forever. Provisionals from different shards can never
//! collide (they differ mod `S`), and within a shard they are dense.
//! The single sequential **assembler** owns a provisional→final remap:
//! walking each batch's resolved ids in stream order, the first touch of
//! a provisional assigns the next final number. Because an id maps to
//! exactly one provisional, and the assembler walks in stream order, the
//! final numbers are *exactly* the serial appearance order for any `S`
//! (see DESIGN.md §13 for the proof sketch). `S = 1` degenerates to the
//! serial encoders with an identity remap.

use crate::clientid::{ClientIdAnonymizer, DirectArrayAnonymizer};
use crate::fileid::{BucketedArrays, ByteSelector, FileIdAnonymizer, ProbeStats};
use crate::scheme::{AnonRecord, AnonymizationScheme, BatchSummary};
use etw_edonkey::ids::{ClientId, FileId};
use etw_edonkey::messages::Message;

/// Upper bound on the shard count (the client partition uses at most
/// the low 4 bits, matching the checkpoint sidecar's canonical 16
/// stripes).
pub const MAX_SHARDS: usize = 16;

/// Sentinel for a not-yet-scattered provisional clientID slot.
const UNRESOLVED_CLIENT: u32 = u32::MAX;
/// Sentinel for a not-yet-scattered provisional fileID slot.
const UNRESOLVED_FILE: u64 = u64::MAX;
/// Sentinel for an unassigned remap cell.
const UNMAPPED_CLIENT: u32 = u32::MAX;
/// Sentinel for an unassigned remap cell (files).
const UNMAPPED_FILE: u64 = u64::MAX;

/// True iff `n` is an acceptable shard count: a power of two in
/// `1..=MAX_SHARDS`.
pub fn shard_count_valid(n: usize) -> bool {
    n.is_power_of_two() && (1..=MAX_SHARDS).contains(&n)
}

/// One shard of the clientID direct-index array.
///
/// Owns raw ids with `raw & (shards-1) == shard`; stores striped
/// provisionals `shard + k·shards` where `k` is the shard-local
/// first-sight index (delegated to a narrower [`DirectArrayAnonymizer`]
/// over `raw >> log2(shards)`).
pub struct ClientShard {
    shard: u32,
    shards: u32,
    shard_bits: u32,
    inner: DirectArrayAnonymizer,
}

impl ClientShard {
    /// Shard `shard` of `shards` over a `width_bits`-wide id space.
    pub fn new(width_bits: u32, shards: usize, shard: usize) -> Self {
        assert!(shard_count_valid(shards), "bad shard count {shards}");
        assert!(shard < shards);
        let shard_bits = shards.trailing_zeros();
        // Up to the paper's full 32 bits: the shard's `k` stays below
        // 2^(w - log2 S), so its provisional `k·S + s` stays below 2^w.
        assert!(
            width_bits > shard_bits && width_bits <= 32,
            "client space of {width_bits} bits cannot be split {shards} ways"
        );
        ClientShard {
            shard: shard as u32,
            shards: shards as u32,
            shard_bits,
            inner: DirectArrayAnonymizer::new(width_bits - shard_bits),
        }
    }

    /// Does this shard own `raw`?
    #[inline]
    pub fn owns(&self, raw: u32) -> bool {
        raw & (self.shards - 1) == self.shard
    }

    /// Striped provisional for `raw` (must be owned by this shard).
    #[inline]
    // etwlint: sanitize(raw-id): maps a raw clientID to its provisional index
    pub fn resolve(&mut self, raw: u32) -> u32 {
        debug_assert!(self.owns(raw));
        let k = self.inner.anonymize(ClientId(raw >> self.shard_bits));
        k * self.shards + self.shard
    }

    /// Distinct clientIDs this shard has seen.
    pub fn distinct(&self) -> u32 {
        self.inner.distinct()
    }
}

/// One shard of the bucketed fileID arrays.
///
/// Owns fileIDs whose bucket index (byte-pair selector value) satisfies
/// `bucket & (shards-1) == shard`; stripes provisionals the same way as
/// [`ClientShard`].
pub struct FileShard {
    shard: u64,
    shards: u64,
    bucket_mask: usize,
    bucket_shard: usize,
    inner: BucketedArrays,
}

impl FileShard {
    /// Shard `shard` of `shards` using `selector` for bucket indices.
    pub fn new(selector: ByteSelector, shards: usize, shard: usize) -> Self {
        assert!(shard_count_valid(shards), "bad shard count {shards}");
        assert!(shard < shards);
        FileShard {
            shard: shard as u64,
            shards: shards as u64,
            bucket_mask: shards - 1,
            bucket_shard: shard,
            inner: BucketedArrays::new(selector),
        }
    }

    /// Does this shard own `id`?
    #[inline]
    pub fn owns(&self, id: &FileId) -> bool {
        self.inner.selector().index(id) & self.bucket_mask == self.bucket_shard
    }

    /// Striped provisional for `id` (must be owned by this shard).
    #[inline]
    // etwlint: sanitize(raw-id): maps a raw fileID to its provisional index
    pub fn resolve(&mut self, id: &FileId) -> u64 {
        debug_assert!(self.owns(id));
        self.inner.anonymize(id) * self.shards + self.shard
    }

    /// Distinct fileIDs this shard has seen.
    pub fn distinct(&self) -> u64 {
        self.inner.distinct()
    }

    /// Probe accounting for this shard's buckets.
    pub fn probe_stats(&self) -> ProbeStats {
        self.inner.probe_stats()
    }
}

/// Everything one shard worker owns: its slice of both id spaces.
pub struct ShardSet {
    /// ClientID slice.
    pub clients: ClientShard,
    /// FileID bucket slice.
    pub files: FileShard,
}

impl ShardSet {
    /// Shard `shard` of `shards`.
    pub fn new(width_bits: u32, selector: ByteSelector, shards: usize, shard: usize) -> Self {
        ShardSet {
            clients: ClientShard::new(width_bits, shards, shard),
            files: FileShard::new(selector, shards, shard),
        }
    }

    /// Scans a batch's flat id arrays (stream order, as produced by
    /// [`collect_ids`]), resolves the ids this shard owns, and emits
    /// sparse `(index, provisional)` pairs into the reused output
    /// vectors.
    pub fn resolve_batch(
        &mut self,
        client_ids: &[u32],
        file_ids: &[FileId],
        clients_out: &mut Vec<(u32, u32)>,
        files_out: &mut Vec<(u32, u64)>,
    ) {
        clients_out.clear();
        files_out.clear();
        for (i, &raw) in client_ids.iter().enumerate() {
            if self.clients.owns(raw) {
                clients_out.push((i as u32, self.clients.resolve(raw)));
            }
        }
        for (i, id) in file_ids.iter().enumerate() {
            if self.files.owns(id) {
                files_out.push((i as u32, self.files.resolve(id)));
            }
        }
    }
}

/// Appends every clientID and fileID the anonymiser will encode for
/// `(peer, msg)` — in exactly the order [`AnonymizationScheme`] touches
/// its encoders (peer first, then the message walk). The visit pass
/// runs once in the sequential stage so the shards can resolve from
/// flat arrays instead of re-walking message trees.
pub fn collect_ids(
    peer: ClientId,
    msg: &Message,
    client_ids: &mut Vec<u32>,
    file_ids: &mut Vec<FileId>,
) {
    client_ids.push(peer.raw());
    match msg {
        Message::ServerList { servers } => {
            for s in servers {
                client_ids.push(s.ip);
            }
        }
        Message::SearchResponse { results } | Message::OfferFiles { files: results } => {
            for e in results {
                file_ids.push(e.file_id);
                client_ids.push(e.client_id.raw());
            }
        }
        Message::GetSources { file_ids: ids } => {
            for id in ids {
                file_ids.push(*id);
            }
        }
        Message::FoundSources { file_id, sources } => {
            file_ids.push(*file_id);
            for s in sources {
                client_ids.push(s.client_id.raw());
            }
        }
        _ => {}
    }
}

/// ClientID "encoder" that replays pre-resolved final values in order.
/// The assembler fills `values` per batch; record construction then pops
/// them by cursor, so [`AnonymizationScheme`]'s walk never touches a
/// shared table.
pub struct ResolvedClientIds {
    pub(crate) values: Vec<u32>,
    pub(crate) cursor: usize,
    pub(crate) distinct: u32,
}

impl ClientIdAnonymizer for ResolvedClientIds {
    #[inline]
    // etwlint: sanitize(raw-id): pops the pre-resolved appearance-order index
    fn anonymize(&mut self, _id: ClientId) -> u32 {
        let v = self.values[self.cursor];
        self.cursor += 1;
        v
    }

    fn distinct(&self) -> u32 {
        self.distinct
    }

    fn lookup(&self, _id: ClientId) -> Option<u32> {
        None
    }

    fn name(&self) -> &'static str {
        "sharded-resolved"
    }
}

/// FileID counterpart of [`ResolvedClientIds`].
pub struct ResolvedFileIds {
    pub(crate) values: Vec<u64>,
    pub(crate) cursor: usize,
    pub(crate) distinct: u64,
}

impl FileIdAnonymizer for ResolvedFileIds {
    #[inline]
    // etwlint: sanitize(raw-id): pops the pre-resolved appearance-order index
    fn anonymize(&mut self, _id: &FileId) -> u64 {
        let v = self.values[self.cursor];
        self.cursor += 1;
        v
    }

    fn distinct(&self) -> u64 {
        self.distinct
    }

    fn lookup(&self, _id: &FileId) -> Option<u64> {
        None
    }

    fn name(&self) -> &'static str {
        "sharded-resolved"
    }
}

/// The sequential reassembly stage: scatters shard results back into
/// stream order, remaps striped provisionals to final global
/// appearance orders, and constructs records (with allocation reuse)
/// through an [`AnonymizationScheme`] whose id encoders replay the
/// remapped values.
pub struct Assembler {
    client_remap: Vec<u32>,
    client_order: Vec<u32>,
    file_remap: Vec<u64>,
    file_order: Vec<FileId>,
    scheme: AnonymizationScheme<ResolvedClientIds, ResolvedFileIds>,
}

impl Default for Assembler {
    fn default() -> Self {
        Self::new()
    }
}

impl Assembler {
    /// Fresh assembler (no ids seen).
    pub fn new() -> Self {
        Assembler {
            client_remap: Vec::new(),
            client_order: Vec::new(),
            file_remap: Vec::new(),
            file_order: Vec::new(),
            scheme: AnonymizationScheme::new(
                ResolvedClientIds {
                    values: Vec::new(),
                    cursor: 0,
                    distinct: 0,
                },
                ResolvedFileIds {
                    values: Vec::new(),
                    cursor: 0,
                    distinct: 0,
                },
            ),
        }
    }

    /// Prepares the per-batch scatter buffers for `n_clients` clientID
    /// touches and `n_files` fileID touches.
    pub fn begin_batch(&mut self, n_clients: usize, n_files: usize) {
        let (c, f) = self.scheme.encoders_mut();
        c.values.clear();
        c.values.resize(n_clients, UNRESOLVED_CLIENT);
        c.cursor = 0;
        f.values.clear();
        f.values.resize(n_files, UNRESOLVED_FILE);
        f.cursor = 0;
    }

    /// Scatters one shard's clientID resolutions into the batch buffer.
    pub fn apply_clients(&mut self, res: &[(u32, u32)]) {
        let (c, _) = self.scheme.encoders_mut();
        for &(idx, prov) in res {
            debug_assert_eq!(c.values[idx as usize], UNRESOLVED_CLIENT);
            c.values[idx as usize] = prov;
        }
    }

    /// Scatters one shard's fileID resolutions into the batch buffer.
    pub fn apply_files(&mut self, res: &[(u32, u64)]) {
        let (_, f) = self.scheme.encoders_mut();
        for &(idx, prov) in res {
            debug_assert_eq!(f.values[idx as usize], UNRESOLVED_FILE);
            f.values[idx as usize] = prov;
        }
    }

    /// After every shard has scattered: remap provisionals to final
    /// appearance orders, in stream order. `client_ids`/`file_ids` are
    /// the batch's raw id arrays (for recording first appearances).
    pub fn finish_batch(&mut self, client_ids: &[u32], file_ids: &[FileId]) {
        let (c, f) = self.scheme.encoders_mut();
        assert_eq!(c.values.len(), client_ids.len());
        assert_eq!(f.values.len(), file_ids.len());
        for (i, slot) in c.values.iter_mut().enumerate() {
            let p = *slot as usize;
            assert!(
                *slot != UNRESOLVED_CLIENT,
                "clientID index {i} was never resolved by any shard"
            );
            if p >= self.client_remap.len() {
                self.client_remap.resize(p + 1, UNMAPPED_CLIENT);
            }
            if self.client_remap[p] == UNMAPPED_CLIENT {
                self.client_remap[p] = self.client_order.len() as u32;
                self.client_order.push(client_ids[i]);
            }
            *slot = self.client_remap[p];
        }
        c.distinct = self.client_order.len() as u32;
        for (i, slot) in f.values.iter_mut().enumerate() {
            let p = *slot as usize;
            assert!(
                *slot != UNRESOLVED_FILE,
                "fileID index {i} was never resolved by any shard"
            );
            if p >= self.file_remap.len() {
                self.file_remap.resize(p + 1, UNMAPPED_FILE);
            }
            if self.file_remap[p] == UNMAPPED_FILE {
                self.file_remap[p] = self.file_order.len() as u64;
                self.file_order.push(file_ids[i]);
            }
            *slot = self.file_remap[p];
        }
        f.distinct = self.file_order.len() as u64;
    }

    /// Constructs the batch's records after [`finish_batch`]
    /// (allocation-reusing; `out` must keep its stale records — see
    /// [`AnonymizationScheme::anonymize_batch_reuse`]). Asserts that the
    /// construction walk consumed exactly the ids the visit pass
    /// collected — a cheap per-batch guard that the two walks agree.
    pub fn construct<'a, I>(&mut self, items: I, out: &mut Vec<AnonRecord>) -> BatchSummary
    where
        I: IntoIterator<Item = (u64, ClientId, &'a Message)>,
    {
        let summary = self.scheme.anonymize_batch_reuse(items, out);
        let (c, f) = self.scheme.encoders_mut();
        assert_eq!(
            c.cursor,
            c.values.len(),
            "construction touched {} clientIDs but the visit pass collected {}",
            c.cursor,
            c.values.len()
        );
        assert_eq!(
            f.cursor,
            f.values.len(),
            "construction touched {} fileIDs but the visit pass collected {}",
            f.cursor,
            f.values.len()
        );
        summary
    }

    /// Global clientID appearance order so far (checkpoints snapshot
    /// this).
    // etwlint: source(raw-id): global clientID appearance order, raw
    pub fn client_order(&self) -> &[u32] {
        &self.client_order
    }

    /// Global fileID appearance order so far.
    // etwlint: source(raw-id): global fileID appearance order, raw
    pub fn file_order(&self) -> &[FileId] {
        &self.file_order
    }

    /// Distinct clientIDs seen.
    pub fn distinct_clients(&self) -> u32 {
        self.client_order.len() as u32
    }

    /// Distinct fileIDs seen.
    pub fn distinct_files(&self) -> u64 {
        self.file_order.len() as u64
    }
}

/// Builds `shards` shard sets plus an assembler, replaying checkpointed
/// appearance orders (empty slices = fresh start). Replay drives each
/// id through its owning shard in global appearance order, which
/// reproduces exactly the shard-local state and remap a live run would
/// have reached — so resume continues bit-for-bit. As in
/// [`BucketedArrays::from_order`], the replay is not counted as probe
/// work: the shards' ledgers start from zero.
pub fn build_sharded(
    width_bits: u32,
    selector: ByteSelector,
    shards: usize,
    client_order: &[u32],
    file_order: &[FileId],
) -> (Vec<ShardSet>, Assembler) {
    assert!(shard_count_valid(shards), "bad shard count {shards}");
    let mut sets: Vec<ShardSet> = (0..shards)
        .map(|s| ShardSet::new(width_bits, selector, shards, s))
        .collect();
    let mut asm = Assembler::new();
    let mask = (shards - 1) as u32;
    for &raw in client_order {
        let p = sets[(raw & mask) as usize].clients.resolve(raw) as usize;
        if p >= asm.client_remap.len() {
            asm.client_remap.resize(p + 1, UNMAPPED_CLIENT);
        }
        debug_assert_eq!(asm.client_remap[p], UNMAPPED_CLIENT);
        asm.client_remap[p] = asm.client_order.len() as u32;
        asm.client_order.push(raw);
    }
    for id in file_order {
        let s = selector.index(id) & (shards - 1);
        let p = sets[s].files.resolve(id) as usize;
        if p >= asm.file_remap.len() {
            asm.file_remap.resize(p + 1, UNMAPPED_FILE);
        }
        debug_assert_eq!(asm.file_remap[p], UNMAPPED_FILE);
        asm.file_remap[p] = asm.file_order.len() as u64;
        asm.file_order.push(*id);
    }
    for set in &mut sets {
        set.files.inner.reset_probe_stats();
    }
    let (c, f) = asm.scheme.encoders_mut();
    c.distinct = asm.client_order.len() as u32;
    f.distinct = asm.file_order.len() as u64;
    (sets, asm)
}

/// Single-threaded composition of the sharded protocol: visit → resolve
/// (every shard in turn) → scatter/remap → construct. This is the exact
/// data path the threaded pipeline runs, minus the channels — the bench
/// measures it, the differential tests pin it to the serial scheme, and
/// the interleave model permutes its steps.
pub struct ShardedAnonymizer {
    shards: Vec<ShardSet>,
    assembler: Assembler,
    client_ids: Vec<u32>,
    file_ids: Vec<FileId>,
    client_res: Vec<(u32, u32)>,
    file_res: Vec<(u32, u64)>,
}

impl ShardedAnonymizer {
    /// Fresh sharded anonymiser.
    pub fn new(width_bits: u32, selector: ByteSelector, shards: usize) -> Self {
        Self::from_orders(width_bits, selector, shards, &[], &[])
    }

    /// Rebuilds from checkpointed appearance orders (campaign resume).
    // etwlint: sanitize(raw-id): raw checkpoint orders are replayed into shard tables
    pub fn from_orders(
        width_bits: u32,
        selector: ByteSelector,
        shards: usize,
        client_order: &[u32],
        file_order: &[FileId],
    ) -> Self {
        let (shards, assembler) =
            build_sharded(width_bits, selector, shards, client_order, file_order);
        ShardedAnonymizer {
            shards,
            assembler,
            client_ids: Vec::new(),
            file_ids: Vec::new(),
            client_res: Vec::new(),
            file_res: Vec::new(),
        }
    }

    /// Anonymises one batch; produces exactly the records the serial
    /// [`AnonymizationScheme`] would. `out` keeps its stale records
    /// between calls (allocation pool), like
    /// [`AnonymizationScheme::anonymize_batch_reuse`].
    // etwlint: sanitize(raw-id): full sharded resolve/assemble pass over the batch
    pub fn anonymize_batch<'a, I>(&mut self, items: I, out: &mut Vec<AnonRecord>) -> BatchSummary
    where
        I: Iterator<Item = (u64, ClientId, &'a Message)> + Clone,
    {
        self.client_ids.clear();
        self.file_ids.clear();
        for (_ts, peer, msg) in items.clone() {
            collect_ids(peer, msg, &mut self.client_ids, &mut self.file_ids);
        }
        self.assembler
            .begin_batch(self.client_ids.len(), self.file_ids.len());
        for shard in &mut self.shards {
            shard.resolve_batch(
                &self.client_ids,
                &self.file_ids,
                &mut self.client_res,
                &mut self.file_res,
            );
            self.assembler.apply_clients(&self.client_res);
            self.assembler.apply_files(&self.file_res);
        }
        self.assembler
            .finish_batch(&self.client_ids, &self.file_ids);
        self.assembler.construct(items, out)
    }

    /// The assembler (orders, distinct counts).
    pub fn assembler(&self) -> &Assembler {
        &self.assembler
    }

    /// The shard sets (probe stats, distinct counts per shard).
    pub fn shard_sets(&self) -> &[ShardSet] {
        &self.shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::PaperScheme;
    use etw_edonkey::messages::Source;
    use etw_edonkey::search::SearchExpr;

    fn mixed(n: u64) -> Vec<(u64, ClientId, Message)> {
        (0..n)
            .map(|i| {
                let m = match i % 5 {
                    0 => Message::GetSources {
                        file_ids: (0..(i % 4))
                            .map(|k| FileId::of_identity((i + k) % 37))
                            .collect(),
                    },
                    1 => Message::SearchRequest {
                        expr: SearchExpr::keyword(format!("kw {}", i % 7)),
                    },
                    2 => Message::FoundSources {
                        file_id: FileId::of_identity(i % 23),
                        sources: (0..(i % 3))
                            .map(|k| Source {
                                client_id: ClientId(((i * 7 + k) % 97) as u32),
                                port: 4662,
                            })
                            .collect(),
                    },
                    3 => Message::ServerList {
                        servers: (0..(i % 2))
                            .map(|k| etw_edonkey::messages::ServerAddr {
                                ip: ((i + k) % 41) as u32,
                                port: 4661,
                            })
                            .collect(),
                    },
                    _ => Message::StatusRequest {
                        challenge: i as u32,
                    },
                };
                (i, ClientId(((i * 13) % 89) as u32), m)
            })
            .collect()
    }

    fn serial_reference(msgs: &[(u64, ClientId, Message)]) -> (Vec<AnonRecord>, PaperScheme) {
        let mut s = PaperScheme::paper(16);
        let mut out = Vec::new();
        s.anonymize_batch(msgs.iter().map(|(ts, p, m)| (*ts, *p, m)), &mut out);
        (out, s)
    }

    #[test]
    fn provisionals_are_striped_and_disjoint() {
        let shards = 4;
        let mut sets: Vec<ClientShard> = (0..shards)
            .map(|s| ClientShard::new(16, shards, s))
            .collect();
        let mut seen = std::collections::HashSet::new();
        for raw in 0..64u32 {
            let s = (raw % shards as u32) as usize;
            let p = sets[s].resolve(raw);
            assert_eq!(p as usize % shards, s, "provisional {p} off-stripe");
            assert!(seen.insert(p), "provisional {p} assigned twice");
        }
    }

    #[test]
    fn sharded_matches_serial_for_every_shard_count() {
        let msgs = mixed(600);
        let (expected, serial) = serial_reference(&msgs);
        for shards in [1usize, 2, 4, 8, 16] {
            let mut sh = ShardedAnonymizer::new(16, ByteSelector::ALTERNATIVE, shards);
            let mut got = Vec::new();
            let mut out = Vec::new();
            for chunk in msgs.chunks(41) {
                sh.anonymize_batch(chunk.iter().map(|(ts, p, m)| (*ts, *p, m)), &mut out);
                got.extend(out.iter().cloned());
            }
            assert_eq!(got, expected, "diverged at {shards} shards");
            assert_eq!(sh.assembler().distinct_clients(), serial.distinct_clients());
            assert_eq!(sh.assembler().distinct_files(), serial.distinct_files());
            assert_eq!(
                sh.assembler().client_order(),
                &serial.client_encoder().appearance_order()[..],
            );
            assert_eq!(
                sh.assembler().file_order(),
                &serial.file_encoder().appearance_order()[..],
            );
        }
    }

    #[test]
    fn resume_from_orders_continues_identically() {
        let msgs = mixed(400);
        let (expected, _) = serial_reference(&msgs);
        let (head, tail) = msgs.split_at(173);
        let mut first = ShardedAnonymizer::new(16, ByteSelector::ALTERNATIVE, 4);
        let mut out = Vec::new();
        first.anonymize_batch(head.iter().map(|(ts, p, m)| (*ts, *p, m)), &mut out);
        // Restart from the checkpointed orders, at a different shard
        // count — the orders are shard-count-independent.
        let mut resumed = ShardedAnonymizer::from_orders(
            16,
            ByteSelector::ALTERNATIVE,
            8,
            first.assembler().client_order(),
            first.assembler().file_order(),
        );
        let mut out2 = Vec::new();
        resumed.anonymize_batch(tail.iter().map(|(ts, p, m)| (*ts, *p, m)), &mut out2);
        let got: Vec<AnonRecord> = out.iter().chain(out2.iter()).cloned().collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn shards_tile_both_id_spaces() {
        let shards = 8;
        let sets: Vec<ShardSet> = (0..shards)
            .map(|s| ShardSet::new(16, ByteSelector::ALTERNATIVE, shards, s))
            .collect();
        for raw in 0..256u32 {
            let owners = sets.iter().filter(|s| s.clients.owns(raw)).count();
            assert_eq!(owners, 1, "clientID {raw} owned by {owners} shards");
        }
        for i in 0..256u64 {
            let id = FileId::of_identity(i);
            let owners = sets.iter().filter(|s| s.files.owns(&id)).count();
            assert_eq!(owners, 1, "fileID {i} owned by {owners} shards");
        }
    }

    #[test]
    fn paper_width_splits_without_overflow() {
        // Shard 0 of 16 over the paper's 2^32 space holds a 2^28-cell
        // (1 GB) table; the highest id it owns is its first, so it
        // must come back as provisional 0, and the next as 0 + 16.
        let mut shard = ClientShard::new(32, 16, 0);
        assert_eq!(shard.resolve(0xFFFF_FFF0), 0);
        assert_eq!(shard.resolve(0x10), 16);
        assert_eq!(shard.resolve(0xFFFF_FFF0), 0);
        assert_eq!(shard.distinct(), 2);
    }

    #[test]
    #[should_panic(expected = "bad shard count")]
    fn non_power_of_two_shard_count_rejected() {
        let _ = ClientShard::new(16, 3, 0);
    }

    #[test]
    fn visit_pass_counts_match_construction() {
        // collect_ids must mirror the scheme's encoder-touch order; the
        // Assembler asserts the counts agree, so a full batch through
        // ShardedAnonymizer exercises the guard for every message shape.
        let msgs = mixed(100);
        let mut sh = ShardedAnonymizer::new(16, ByteSelector::ALTERNATIVE, 2);
        let mut out = Vec::new();
        let s = sh.anonymize_batch(msgs.iter().map(|(ts, p, m)| (*ts, *p, m)), &mut out);
        assert_eq!(s.records, 100);
    }
}
