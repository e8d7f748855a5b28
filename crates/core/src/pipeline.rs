//! The capture-machine pipeline (paper Fig. 1).
//!
//! ```text
//! frames ──► route by (src,dst,ident) ──► N decode workers ──► reorder ──► anonymise ──► sink
//!            (fragments stay together)     eth/ip/udp +          (seq)       (stateful,
//!                                          two-step eDonkey                  sequential)
//! ```
//!
//! The paper's constraint is that the whole path must run in real time
//! (§2.2: anonymisation "must be done in real-time during the capture").
//! Decoding is stateless per datagram and parallelises across workers;
//! the anonymiser is inherently sequential (order-of-appearance encoding
//! is a running fold), which is precisely why the paper engineered its
//! O(1) data structures. A sequence-number reorder buffer between the
//! two restores deterministic capture order regardless of worker
//! interleaving.

use crate::wirepath::{Direction, Recovered, WireDecoder, SERVER_IP};
use bytes::Bytes;
use etw_anonymize::fileid::ProbeStats;
use etw_anonymize::scheme::{AnonRecord, PaperScheme};
use etw_anonymize::shard::{build_sharded, collect_ids, shard_count_valid, MAX_SHARDS};
use etw_edonkey::decoder::{DecodeOutcome, Decoder, DecoderStats};
use etw_edonkey::ids::{ClientId, FileId};
use etw_edonkey::messages::Message;
use etw_faults::{InjectedWorkerCrash, LinkDirection, LinkFrame, WorkerFaultPlan};
use etw_netsim::clock::VirtualTime;
use etw_netsim::frag::ReassemblyStats;
use etw_telemetry::channel::{metered_bounded, MeteredReceiver, MeteredSender};
use etw_telemetry::{Counter, Gauge, Histogram, Registry};
use etw_trace::ring::{FlightRecorder, SpanRing};
use etw_trace::{
    file as trace_file, wall_now_ns, SpanEvent, SpanKind, StageId, StageProfile, StageTimer,
};
use etw_xmlout::encode;
use etw_xmlout::writer::DatasetWriter;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// One captured ethernet frame with its timestamp.
#[derive(Clone, Debug)]
pub struct TimedFrame {
    /// Capture timestamp.
    pub ts: VirtualTime,
    /// Raw frame bytes.
    pub bytes: Vec<u8>,
}

impl LinkFrame for TimedFrame {
    fn ts_us(&self) -> u64 {
        self.ts.0
    }
    fn set_ts_us(&mut self, us: u64) {
        self.ts = VirtualTime(us);
    }
    fn direction(&self) -> LinkDirection {
        // Ethernet header is 14 bytes; IPv4 destination at +16. Frames
        // too short to tell default to the client→server side.
        if self.bytes.len() >= 34 {
            let d = &self.bytes[30..34];
            let dst = u32::from_be_bytes([d[0], d[1], d[2], d[3]]);
            if dst == SERVER_IP {
                return LinkDirection::ToServer;
            }
            return LinkDirection::FromServer;
        }
        LinkDirection::ToServer
    }
    fn wire_len(&self) -> usize {
        self.bytes.len()
    }
    fn truncate_wire(&mut self, keep: usize) {
        self.bytes.truncate(keep);
    }
    fn swap_wire(&mut self, other: &mut Self) {
        std::mem::swap(&mut self.bytes, &mut other.bytes);
    }
}

/// Counters accumulated across the pipeline.
#[derive(Clone, Copy, Default, Debug)]
pub struct PipelineStats {
    /// Frames entering the pipeline.
    pub frames: u64,
    /// Frames that were not UDP (TCP and friends).
    pub not_udp: u64,
    /// UDP datagrams on unrelated ports.
    pub other_port: u64,
    /// Link/network-layer parse failures.
    pub parse_errors: u64,
    /// Complete UDP datagrams recovered (after reassembly).
    pub udp_datagrams: u64,
    /// Datagrams that arrived fragmented.
    pub fragmented_datagrams: u64,
    /// eDonkey decoder accounting (two-step decoder).
    pub decoder: DecoderStats,
    /// IP reassembly accounting.
    pub reassembly: ReassemblyStats,
    /// Anonymised records produced.
    pub records: u64,
    /// Queries among the records.
    pub query_records: u64,
    /// Records decoded from client→server datagrams.
    pub to_server: u64,
    /// Records decoded from server→client datagrams.
    pub from_server: u64,
    /// Frames shed (dropped-and-counted) by the producer under overload
    /// instead of blocking the capture.
    pub shed: u64,
    /// Sequence steps the producer issued that the reorder stage never
    /// drained: missing ones, and every one stranded behind a missing
    /// one, so none of them reached the anonymiser. Always 0 in a
    /// healthy run; also counted as `pipeline.reorder.holes_total`.
    pub reorder_holes: u64,
    /// Probe work of the fileID encoder during this run, restored state
    /// excluded. Every tail reports the same ledger for the same input,
    /// whatever its shard count; the campaign publishes it as
    /// `anon.fileid.*`.
    pub fileid_probes: ProbeStats,
}

/// Where a resumed pipeline picks up: produced by a checkpoint, consumed
/// by [`PipelineOptions::resume`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ResumePoint {
    /// Messages already consumed (and written) by the interrupted run;
    /// the resumed sink replays and skips exactly this many.
    pub records: u64,
    /// Timestamp of the last consumed message, µs.
    pub virtual_us: u64,
    /// The next checkpoint boundary the interrupted run would have cut,
    /// stored so the resumed run cuts the very same boundaries.
    pub next_checkpoint_us: u64,
}

/// Knobs for the fault-tolerant pipeline entry point.
#[derive(Clone, Debug, Default)]
pub struct PipelineOptions {
    /// Cut a checkpoint whenever virtual time crosses a multiple of this
    /// interval (0 = no checkpoints).
    pub checkpoint_interval_us: u64,
    /// Resume from an earlier checkpoint instead of starting fresh.
    pub resume: Option<ResumePoint>,
    /// Worker crash injection and overload shedding schedule.
    pub faults: Option<WorkerFaultPlan>,
    /// Stage-span flight recorder: every stage thread keeps its last N
    /// span events in a lock-free ring and fault events dump the merged
    /// recorder to disk. `None` = tracing off (zero cost).
    pub trace: Option<TraceOptions>,
}

/// Configuration of the stage-span flight recorder
/// ([`PipelineOptions::trace`]).
#[derive(Clone, Debug)]
pub struct TraceOptions {
    /// Span events retained per stage-thread ring. The recorder's memory
    /// is fixed at `lanes × ring_slots × 40` bytes for the whole run.
    pub ring_slots: usize,
    /// Directory receiving `flight_<n>_<reason>_<virtual-µs>.etwtrace`
    /// dumps when a worker crashes, degrades, the producer starts
    /// shedding, or a checkpoint is cut. `None` records in memory only.
    pub dump_dir: Option<PathBuf>,
    /// Cap on dump files per run, so a crash storm cannot fill the disk.
    pub max_dumps: u32,
}

impl Default for TraceOptions {
    fn default() -> Self {
        TraceOptions {
            ring_slots: 256,
            dump_dir: None,
            max_dumps: 64,
        }
    }
}

// Ring-lane layout of one pipeline run:
// `[producer, decode×W, seq, format, write, assemble, shard×S]`.
// Lanes for stages a particular tail does not spawn stay empty and
// merge away for free at dump time.
fn lane_decode(w: usize) -> usize {
    1 + w
}
fn lane_seq(n_workers: usize) -> usize {
    1 + n_workers
}
fn lane_format(n_workers: usize) -> usize {
    2 + n_workers
}
fn lane_write(n_workers: usize) -> usize {
    3 + n_workers
}
fn lane_assemble(n_workers: usize) -> usize {
    4 + n_workers
}
fn lane_shard(n_workers: usize, s: usize) -> usize {
    5 + n_workers + s
}

/// Per-shard ledger handles for the anonymiser pool, feeding the
/// `etwtool monitor` shard-balance panel. The aggregate `anon.shard.*`
/// counters answer "how much work"; these answer "how evenly": skew in
/// `batches_total`/`busy_ns_total` across shards exposes a hot shard,
/// and `queue_depth` (maintained at the broadcast send and the worker
/// receive) exposes the backlog behind it. Built outside the worker
/// loops so the name formatting never allocates per batch.
struct ShardLaneMetrics {
    batches: Counter,
    client_ids: Counter,
    file_ids: Counter,
    busy_ns: Counter,
    queue_depth: Gauge,
}

fn shard_lane_metrics(registry: &Registry, sindex: usize) -> ShardLaneMetrics {
    ShardLaneMetrics {
        batches: registry.counter(&format!("anon.shard{sindex}.batches_total")),
        client_ids: registry.counter(&format!("anon.shard{sindex}.client_ids_total")),
        file_ids: registry.counter(&format!("anon.shard{sindex}.file_ids_total")),
        busy_ns: registry.counter(&format!("anon.shard{sindex}.busy_ns_total")),
        queue_depth: registry.gauge(&format!("anon.shard{sindex}.queue_depth")),
    }
}

/// Shared flight-recorder state for one pipeline run. Each stage thread
/// writes its own single-writer ring (lane); any thread may trigger a
/// dump, which seqlock-snapshots every lane and writes one `.etwtrace`
/// file without pausing the writers.
struct TraceCtx {
    recorder: FlightRecorder,
    dump_dir: Option<PathBuf>,
    dumps_left: AtomicU32,
    dump_seq: AtomicU32,
    dumps: Counter,
    dumps_dropped: Counter,
}

impl TraceCtx {
    fn new(
        t: &TraceOptions,
        n_workers: usize,
        n_shards: usize,
        registry: &Registry,
    ) -> Arc<TraceCtx> {
        Arc::new(TraceCtx {
            recorder: FlightRecorder::new(5 + n_workers + n_shards, t.ring_slots),
            dump_dir: t.dump_dir.clone(),
            dumps_left: AtomicU32::new(t.max_dumps),
            dump_seq: AtomicU32::new(0),
            dumps: registry.counter("trace.dumps_total"),
            dumps_dropped: registry.counter("trace.dumps_dropped_total"),
        })
    }

    fn lane(self: &Arc<Self>, index: usize, worker: u16) -> TraceLane {
        TraceLane {
            ring: self.recorder.ring(index),
            ctx: Arc::clone(self),
            worker,
        }
    }

    /// Snapshots every lane and writes one flight dump, if the per-run
    /// budget allows and a dump directory was configured.
    fn dump(&self, reason: &str, virtual_us: u64) {
        let Some(dir) = &self.dump_dir else { return };
        let took = self
            .dumps_left
            // ordering: Relaxed — the budget is a plain counter; no data
            // is published through it (rings publish via their seqlocks).
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1));
        if took.is_err() {
            self.dumps_dropped.inc();
            return;
        }
        // ordering: Relaxed — only uniqueness of the file ordinal matters.
        let n = self.dump_seq.fetch_add(1, Ordering::Relaxed);
        let events = self.recorder.dump();
        // etwlint: allow(no-alloc-hot-loop): fault path — dumps are
        // budgeted and never fire on the steady-state path.
        let path = dir.join(format!("flight_{n:03}_{reason}_{virtual_us}.etwtrace"));
        if trace_file::write_file(&path, &events).is_ok() {
            self.dumps.inc();
        }
    }
}

/// One stage thread's handle into the flight recorder.
#[derive(Clone)]
struct TraceLane {
    ctx: Arc<TraceCtx>,
    ring: Arc<SpanRing>,
    worker: u16,
}

/// Per-thread stage instrumentation: the registry-backed
/// [`StageProfile`] (queue-wait vs service histograms, busy/idle
/// counters, utilisation gauge) plus an optional flight-recorder lane.
/// Every method degenerates to a no-op when the registry is disabled
/// and tracing is off.
struct StageTrace {
    stage: StageId,
    profile: StageProfile,
    lane: Option<TraceLane>,
}

impl StageTrace {
    fn new(registry: &Registry, stage: StageId, lane: Option<TraceLane>) -> StageTrace {
        StageTrace {
            stage,
            profile: StageProfile::new(registry, stage),
            lane,
        }
    }

    /// Starts the wait phase; call before blocking on the input queue.
    fn begin(&self) -> StageTimer {
        self.profile.begin()
    }

    /// Wait ended, service begins. Returns the wall clock at service
    /// start for the flight-recorder span (0 when untraced).
    fn service_begin(&self, t: &mut StageTimer) -> u64 {
        self.profile.note_wait(t);
        if self.lane.is_some() {
            wall_now_ns()
        } else {
            0
        }
    }

    /// Service ended: closes the histogram sample and records the span.
    fn service_end(&self, t: &mut StageTimer, arg: u32, virtual_us: u64, wall0: u64, items: u64) {
        self.profile.note_service(t, items);
        if let Some(lane) = &self.lane {
            let end = wall_now_ns();
            lane.ring.record(SpanEvent::new(
                self.stage,
                SpanKind::Service,
                lane.worker,
                arg,
                virtual_us,
                end,
                end.saturating_sub(wall0),
            ));
        }
    }

    /// Records an instantaneous (zero-duration) event in the lane.
    fn event(&self, kind: SpanKind, arg: u32, virtual_us: u64) {
        if let Some(lane) = &self.lane {
            lane.ring.record(SpanEvent::new(
                self.stage,
                kind,
                lane.worker,
                arg,
                virtual_us,
                wall_now_ns(),
                0,
            ));
        }
    }

    /// Records `kind`, then dumps the merged recorder (budgeted).
    fn event_dump(&self, kind: SpanKind, reason: &str, arg: u32, virtual_us: u64) {
        self.event(kind, arg, virtual_us);
        if let Some(lane) = &self.lane {
            lane.ctx.dump(reason, virtual_us);
        }
    }
}

/// Sizing knobs for the writer tail ([`run_capture_pipeline_batched`]).
#[derive(Clone, Copy, Debug)]
pub struct TailConfig {
    /// Records staged per batch before the reorder stage hands them to
    /// the shard pool and the assembler as one unit. Larger batches
    /// amortise channel traffic and counter updates; smaller batches cut
    /// the latency between decode and disk. The default keeps a batch
    /// comfortably inside L2 while leaving per-batch overhead in the
    /// noise.
    pub batch_records: usize,
    /// Capacity, in batches, of the formatter and writer queues. Bounds
    /// how far formatting may run ahead of the disk (and with the
    /// recycling pools, the total number of live batch buffers).
    pub batch_queue: usize,
    /// Anonymiser shards (power of two, `1..=16`): each batch fans out
    /// to this many shard workers, split along the paper's
    /// clientID/fileID partition, and the assembler reassembles it in
    /// sequence. `1` runs the same stages with one shard that owns both
    /// id spaces whole. The output is byte-identical for every count
    /// (see [`etw_anonymize::shard`]).
    pub anon_shards: usize,
}

impl Default for TailConfig {
    fn default() -> Self {
        TailConfig {
            batch_records: 256,
            batch_queue: 4,
            anon_shards: 1,
        }
    }
}

/// A consistent cut of the sequential stage's state, taken between two
/// messages. Everything a resumed run needs to continue the anonymised
/// dataset byte-for-byte.
#[derive(Clone, Debug, PartialEq)]
pub struct PipelineCheckpoint {
    /// Timestamp of the last message consumed before the cut, µs.
    pub virtual_us: u64,
    /// Boundary the *next* checkpoint will be cut at.
    pub next_checkpoint_us: u64,
    /// Messages consumed so far (== records written so far).
    pub records: u64,
    /// clientID appearance order of the anonymiser.
    // etwlint: source(raw-id): checkpoint cut carries the raw clientID order
    pub client_order: Vec<u32>,
    /// fileID appearance order of the anonymiser.
    // etwlint: source(raw-id): checkpoint cut carries the raw fileID order
    pub file_order: Vec<FileId>,
}

/// A decoded message with its envelope, in capture order.
#[derive(Clone, Debug)]
struct DecodedMsg {
    ts: VirtualTime,
    // etwlint: source(raw-id): wire clientID of the peer
    peer: ClientId,
    direction: Direction,
    // etwlint: source(raw-id): decoded message embeds raw ids
    msg: Message,
}

/// One decode step, exactly one per input frame: the frame's sequence
/// number and its decoded message (or `None` for noise, fragments and
/// tombstones). The front channels move these in [`FRAME_BATCH`]-sized
/// batches — per-frame sends would cost a channel round-trip (and, on a
/// loaded host, a context switch) per captured frame, which at capture
/// rates dwarfs the decode work itself.
type WorkerStep = (u64, Option<DecodedMsg>);

/// Frames (producer → workers) and steps (workers → sequencer) per
/// batch on the decode front's channels.
const FRAME_BATCH: usize = 256;

/// Capacity, in batches, of each worker's input queue and of the shared
/// worker-output queue. In frames this bounds roughly the same buffering
/// as the old per-frame caps (1024 and 4096).
const FRAME_QUEUE: usize = 8;

/// Per-thread handles for the decode stage.
#[derive(Clone)]
struct DecodeTelemetry {
    frames: Counter,
    service_ns: Histogram,
}

/// Handles for the sequential sink stage (reorder + anonymise).
struct SinkTelemetry {
    reorder_depth: Gauge,
    reorder_depth_hwm: Gauge,
    records: Counter,
    queries: Counter,
    to_server: Counter,
    from_server: Counter,
}

impl SinkTelemetry {
    fn new(registry: &Registry) -> Self {
        SinkTelemetry {
            reorder_depth: registry.gauge("stage.reorder.depth"),
            reorder_depth_hwm: registry.gauge("stage.reorder.depth_hwm"),
            records: registry.counter("stage.sink.records_total"),
            queries: registry.counter("stage.sink.queries_total"),
            to_server: registry.counter("stage.sink.to_server_total"),
            from_server: registry.counter("stage.sink.from_server_total"),
        }
    }
}

/// Runs the full pipeline over `frames` (the serial tail), invoking
/// `on_record` for every anonymised record in deterministic capture
/// order. Returns the final statistics and the anonymisation scheme with
/// its accumulated state.
///
/// Every stage reports throughput, service time and queueing into
/// `registry` while the pipeline runs, under the names below. The
/// writer tail, [`run_capture_pipeline_batched`], reports the same
/// producer, decode, reorder and sink names; in place of
/// `stage.anonymize.service_ns` it reports `stage.shard.*`,
/// `stage.assemble.*`, `stage.format.*`, `stage.write.*` and
/// `anon.shard.*`, plus the `chan.*` series of its own queues.
///
/// * `stage.producer.frames_total` — frames routed to workers;
/// * `chan.decode_in.*` / `chan.decode_out.*` — queue depth, messages,
///   and backpressure stalls of the worker input and output channels
///   (input metrics aggregate over all workers);
/// * `stage.decode.frames_total`, `stage.decode.service_ns` — decode
///   worker throughput and per-frame service time;
/// * `stage.reorder.depth`, `stage.reorder.depth_hwm` — reorder-buffer
///   occupancy (a growing value means one worker lags its siblings);
/// * `stage.anonymize.service_ns` — per-record anonymiser service time;
/// * `stage.sink.records_total`, `stage.sink.queries_total`,
///   `stage.sink.to_server_total`, `stage.sink.from_server_total`.
///
/// With a disabled registry every instrument degenerates to a no-op.
/// `opts` adds the fault-tolerance surface:
///
/// * **Supervised workers** — with [`PipelineOptions::faults`], each
///   decode worker wraps its per-frame work in `catch_unwind`. A crashed
///   worker is restarted in place with fresh decoder state; during an
///   exponential-backoff window it tombstones frames (emits the
///   sequence step with no message) so the sink never stalls, and after
///   `max_restarts` it degrades permanently. All events count under
///   `faults.worker.*`.
/// * **Load shedding** — inside the plan's overload windows the producer
///   drops-and-counts frames (`pipeline.shed_total`) *before* sequence
///   assignment, keeping one in `shed_keep_every`. Shedding upstream of
///   the sequence space keeps the decision deterministic: a resumed run
///   sheds the exact same frames.
/// * **Checkpoints** — with a nonzero interval, the sequential sink cuts
///   a [`PipelineCheckpoint`] the moment it meets the first message at
///   or past the boundary (so the cut state is exactly "everything
///   before this message"), then arms the next boundary past that
///   message's timestamp.
/// * **Resume** — with [`PipelineOptions::resume`], the sink replays the
///   deterministic frame stream but skips the first `records` messages
///   without touching anonymiser state (that state was restored from
///   the checkpoint), then continues exactly where the interrupted run
///   left off.
pub fn run_capture_pipeline_with<I>(
    frames: I,
    n_workers: usize,
    mut scheme: PaperScheme,
    registry: &Registry,
    opts: &PipelineOptions,
    mut on_record: impl FnMut(AnonRecord),
    mut on_checkpoint: impl FnMut(PipelineCheckpoint),
) -> (PipelineStats, PaperScheme)
where
    I: Iterator<Item = TimedFrame> + Send,
{
    assert!(n_workers > 0);
    let mut stats = PipelineStats::default();
    if opts
        .faults
        .as_ref()
        .is_some_and(|plan| plan.crash_every > 0)
    {
        silence_injected_crashes();
    }

    let trace_ctx = opts
        .trace
        .as_ref()
        .map(|t| TraceCtx::new(t, n_workers, 0, registry));
    crossbeam::thread::scope(|scope| {
        let (out_rx, producer, handles) = spawn_front(
            scope,
            frames,
            n_workers,
            registry,
            opts.faults.clone(),
            trace_ctx.clone(),
        );

        // Sink: restore sequence order, then anonymise sequentially.
        let seq_trace = StageTrace::new(
            registry,
            StageId::Reorder,
            trace_ctx.as_ref().map(|c| c.lane(lane_seq(n_workers), 0)),
        );
        let sink = SinkTelemetry::new(registry);
        let anonymize_ns = registry.histogram("stage.anonymize.service_ns");
        let cp_interval = opts.checkpoint_interval_us;
        let (skip, mut last_ts, mut next_cp) = match &opts.resume {
            Some(r) => (r.records, r.virtual_us, r.next_checkpoint_us),
            None => (0, 0, cp_interval),
        };
        // Messages consumed since *stream* start, skipped ones included,
        // so checkpoint record counts agree between full and resumed runs.
        let mut consumed = 0u64;
        let mut reorder: BTreeMap<u64, Option<DecodedMsg>> = BTreeMap::new();
        let mut next_seq = 0u64;
        let mut pt = seq_trace.begin();
        while let Ok(batch) = out_rx.recv() {
            let w0 = seq_trace.service_begin(&mut pt);
            let items = batch.len() as u64;
            for (seq, decoded) in batch {
                reorder.insert(seq, decoded);
            }
            while let Some(decoded) = reorder.remove(&next_seq) {
                next_seq += 1;
                let Some(d) = decoded else { continue };
                if cp_interval > 0 && d.ts.0 >= next_cp {
                    // Cut *before* consuming this message: the state is
                    // exactly "everything through the previous message".
                    // During the resume skip phase this never fires: the
                    // restored boundary lies past every skipped message.
                    next_cp = (d.ts.0 / cp_interval + 1) * cp_interval;
                    seq_trace.event_dump(
                        SpanKind::Checkpoint,
                        "checkpoint",
                        consumed as u32,
                        last_ts,
                    );
                    on_checkpoint(PipelineCheckpoint {
                        virtual_us: last_ts,
                        next_checkpoint_us: next_cp,
                        records: consumed,
                        client_order: scheme.client_encoder().appearance_order(),
                        file_order: scheme.file_encoder().appearance_order(),
                    });
                }
                consumed += 1;
                last_ts = d.ts.0;
                if consumed <= skip {
                    // Resume replay: this message was already written by
                    // the interrupted run and its effects live in the
                    // restored anonymiser state. Touch nothing.
                    continue;
                }
                match d.direction {
                    Direction::ToServer => {
                        stats.to_server += 1;
                        sink.to_server.inc();
                    }
                    Direction::FromServer => {
                        stats.from_server += 1;
                        sink.from_server.inc();
                    }
                }
                let t = anonymize_ns.start();
                let record = scheme.anonymize(d.ts.0, d.peer, &d.msg);
                anonymize_ns.record_since(t);
                stats.records += 1;
                sink.records.inc();
                if record.msg.is_query() {
                    stats.query_records += 1;
                    sink.queries.inc();
                }
                on_record(record);
            }
            let depth = reorder.len() as i64;
            sink.reorder_depth.set(depth);
            if depth > sink.reorder_depth_hwm.get() {
                sink.reorder_depth_hwm.set(depth);
            }
            seq_trace.service_end(&mut pt, depth as u32, last_ts, w0, items);
        }

        join_front(producer, handles, &mut stats);
        count_reorder_holes(&mut stats, next_seq, registry);
    })
    // etwlint: allow(no-panic-hot-path): crossbeam scope() errs only when
    // a child panicked; re-raising is panic propagation.
    .expect("pipeline scope panicked");

    stats.fileid_probes = scheme.file_encoder().probe_stats();
    (stats, scheme)
}

/// A unit of work for the formatter stage, in strict capture order.
enum FormatItem {
    /// A run of anonymised records to render.
    Batch(Vec<AnonRecord>),
    /// A checkpoint cut; forwarded to the writer so it is stamped with
    /// the exact dataset offset of everything enqueued before it.
    Checkpoint(PipelineCheckpoint),
}

/// A unit of work for the writer stage, in strict capture order.
enum WriteItem {
    /// Rendered bytes covering `records` records.
    Bytes {
        /// The batch's rendered bytes (recycled back to the formatter).
        buf: Vec<u8>,
        /// Records the bytes cover, for the writer's record counter.
        records: u64,
    },
    /// A checkpoint reaching its stamping point.
    Checkpoint(PipelineCheckpoint),
}

/// Handles for the formatter stage.
struct FormatTelemetry {
    batches: Counter,
    records: Counter,
    bytes: Counter,
    service_ns: Histogram,
}

/// Handles for the writer stage.
struct WriteTelemetry {
    batches: Counter,
    bytes: Counter,
    flush_ns: Histogram,
}

/// Spawns the formatter stage: renders record batches into recycled byte
/// buffers with the zero-alloc encoder and forwards them (and checkpoint
/// markers) to the writer in order. The emptied record vectors go back
/// to the pool with their contents: the assembler overwrites records in
/// place, so the stale records *are* its allocation pool.
fn spawn_tail_formatter<'scope, 'env>(
    scope: &crossbeam::thread::Scope<'scope, 'env>,
    registry: &Registry,
    fmt_rx: MeteredReceiver<FormatItem>,
    write_tx: MeteredSender<WriteItem>,
    rec_pool_back: crossbeam::channel::Sender<Vec<AnonRecord>>,
    buf_pool_rx: crossbeam::channel::Receiver<Vec<u8>>,
    lane: Option<TraceLane>,
) -> crossbeam::thread::ScopedJoinHandle<'scope, ()> {
    let fmt = FormatTelemetry {
        batches: registry.counter("stage.format.batches_total"),
        records: registry.counter("stage.format.records_total"),
        bytes: registry.counter("stage.format.bytes_total"),
        service_ns: registry.histogram("stage.format.service_ns"),
    };
    let trace = StageTrace::new(registry, StageId::Format, lane);
    scope.spawn(move |_| {
        let mut pt = trace.begin();
        while let Ok(item) = fmt_rx.recv() {
            let w0 = trace.service_begin(&mut pt);
            let ok = match item {
                FormatItem::Batch(recs) => {
                    let mut buf = buf_pool_rx
                        .try_recv()
                        .unwrap_or_else(|| Vec::with_capacity(recs.len() * 64));
                    buf.clear();
                    let t = fmt.service_ns.start();
                    encode::encode_batch(&mut buf, &recs);
                    fmt.service_ns.record_since(t);
                    fmt.batches.inc();
                    fmt.records.add(recs.len() as u64);
                    fmt.bytes.add(buf.len() as u64);
                    let records = recs.len() as u64;
                    let last_us = recs.last().map_or(0, |r| r.ts_us);
                    let _ = rec_pool_back.try_send(recs);
                    trace.service_end(&mut pt, records as u32, last_us, w0, records);
                    write_tx.send(WriteItem::Bytes { buf, records }).is_ok()
                }
                FormatItem::Checkpoint(cp) => {
                    trace.service_end(&mut pt, cp.records as u32, cp.virtual_us, w0, 0);
                    write_tx.send(WriteItem::Checkpoint(cp)).is_ok()
                }
            };
            if !ok {
                break;
            }
        }
    })
}

/// Spawns the writer stage: flushes buffers in sequence, stamps
/// checkpoints with the exact dataset offset, recycles buffers. On an io
/// error it keeps draining (without writing) so upstream never stalls.
#[allow(clippy::too_many_arguments)]
fn spawn_tail_writer<'scope, 'env, W, F>(
    scope: &crossbeam::thread::Scope<'scope, 'env>,
    registry: &Registry,
    write_rx: MeteredReceiver<WriteItem>,
    buf_pool_tx: crossbeam::channel::Sender<Vec<u8>>,
    writer: DatasetWriter<W>,
    mut on_checkpoint: F,
    lane: Option<TraceLane>,
) -> crossbeam::thread::ScopedJoinHandle<'scope, (DatasetWriter<W>, Option<io::Error>)>
where
    W: Write + Send + 'scope,
    F: FnMut(PipelineCheckpoint, u64) + Send + 'scope,
{
    let wt = WriteTelemetry {
        batches: registry.counter("stage.write.batches_total"),
        bytes: registry.counter("stage.write.bytes_total"),
        flush_ns: registry.histogram("stage.write.flush_ns"),
    };
    let trace = StageTrace::new(registry, StageId::Write, lane);
    scope.spawn(move |_| {
        let mut w = writer;
        let mut io_err: Option<io::Error> = None;
        let mut pt = trace.begin();
        while let Ok(item) = write_rx.recv() {
            let w0 = trace.service_begin(&mut pt);
            match item {
                WriteItem::Bytes { mut buf, records } => {
                    if io_err.is_none() {
                        let t = wt.flush_ns.start();
                        match w.write_encoded(&buf, records) {
                            Ok(()) => {
                                wt.flush_ns.record_since(t);
                                wt.batches.inc();
                                wt.bytes.add(buf.len() as u64);
                            }
                            Err(e) => io_err = Some(e),
                        }
                    }
                    buf.clear();
                    let _ = buf_pool_tx.try_send(buf);
                    trace.service_end(&mut pt, records as u32, 0, w0, records);
                }
                WriteItem::Checkpoint(cp) => {
                    if io_err.is_none() {
                        let virtual_us = cp.virtual_us;
                        let records = cp.records;
                        on_checkpoint(cp, w.bytes_written());
                        trace.service_end(&mut pt, records as u32, virtual_us, w0, 0);
                    }
                }
            }
        }
        (w, io_err)
    })
}

/// One staged run of messages travelling to the shard pool and the
/// assembler. The flat id arrays are the visit pass's output: every
/// clientID/fileID the anonymiser will touch, in encoder order, so the
/// shards scan plain arrays instead of message trees. Shared by `Arc`:
/// each shard reads it, the assembler reads it last and reclaims the
/// buffers.
struct ShardBatch {
    /// Batch sequence number (assembler matches shard results to it).
    seq: u64,
    msgs: Vec<DecodedMsg>,
    client_ids: Vec<u32>,
    file_ids: Vec<FileId>,
}

/// Sparse resolutions from one shard for one batch: `(index into the
/// batch's id array, striped provisional)`.
struct ShardResult {
    seq: u64,
    clients: Vec<(u32, u32)>,
    files: Vec<(u32, u64)>,
}

/// A recycled pair of resolution vectors (clients, files) from the
/// shard workers' shared free-list.
type ResVecs = (Vec<(u32, u32)>, Vec<(u32, u64)>);
/// The shard workers' shared resolution-vector free-list.
type ResPool = std::sync::Arc<std::sync::Mutex<Vec<ResVecs>>>;

/// Work for the assembler, in strict capture order.
enum AsmItem {
    Batch(std::sync::Arc<ShardBatch>),
    /// A checkpoint cut; the assembler owns the appearance orders, so it
    /// fills them in and forwards the completed checkpoint down the
    /// ordered queues.
    Checkpoint {
        virtual_us: u64,
        next_checkpoint_us: u64,
        records: u64,
    },
}

/// [`run_capture_pipeline_with`] with the serial tail replaced by the
/// batched, overlapped writer tail. Downstream of the decode workers,
/// every stage runs concurrently:
///
/// ```text
///                      ┌► shard 0 ───┐
/// reorder ─► visit ────┼► ...        ├─► assemble ─► format ─► write
///   (seq)    (ids)     └► shard S-1 ─┘   (remap +
///                 └──────────────────────► construct, seq)
/// ```
///
/// * The reorder stage restores capture order, counts consumed messages
///   (checkpoint cuts, resume replay), runs the visit pass
///   ([`collect_ids`]) while staging [`TailConfig::batch_records`]
///   messages, and fans each batch out to the shard pool and the
///   assembler.
/// * [`TailConfig::anon_shards`] shard workers resolve the ids they own
///   to striped provisionals: clientIDs split by low id bits, fileIDs by
///   low bucket-index bits (see [`etw_anonymize::shard`]). One shard
///   owns both id spaces whole.
/// * The assembler gathers every shard's resolutions in batch order,
///   remaps the provisionals to global appearance orders, constructs the
///   records with allocation reuse, and fills checkpoint cuts with its
///   orders.
/// * The formatter renders each batch into a recycled byte buffer with
///   [`encode::encode_batch`] — byte-identical to
///   [`DatasetWriter::write_record`], zero heap allocations per record
///   in steady state — reporting under `stage.format.*`.
/// * The writer flushes completed buffers strictly in sequence through
///   [`DatasetWriter::write_encoded`] (`stage.write.*`), so the output
///   is byte-identical to the serial tail for every shard count and
///   `.etwckpt` offsets stay valid: a checkpoint cut travels through the
///   ordered queues as a marker and `on_checkpoint` fires on the writer
///   thread with [`DatasetWriter::bytes_written`] at exactly the cut's
///   offset.
///
/// Checkpoint cuts flush the staged run first, so the captured encoder
/// state covers precisely "everything before the boundary message", as
/// in the serial tail. The returned scheme is rebuilt from the
/// assembler's final orders. On a writer io error the pipeline drains
/// the decode stage without formatting further and returns the error.
#[allow(clippy::too_many_arguments)]
pub fn run_capture_pipeline_batched<I, W>(
    frames: I,
    n_workers: usize,
    scheme: PaperScheme,
    registry: &Registry,
    opts: &PipelineOptions,
    tail: TailConfig,
    writer: DatasetWriter<W>,
    on_checkpoint: impl FnMut(PipelineCheckpoint, u64) + Send,
) -> io::Result<(PipelineStats, PaperScheme, DatasetWriter<W>)>
where
    I: Iterator<Item = TimedFrame> + Send,
    W: Write + Send,
{
    assert!(n_workers > 0);
    assert!(tail.batch_records > 0 && tail.batch_queue > 0);
    assert!(
        shard_count_valid(tail.anon_shards),
        "anon_shards must be a power of two in 1..={MAX_SHARDS}, got {}",
        tail.anon_shards
    );
    let n_shards = tail.anon_shards;
    let width_bits = scheme.client_encoder().width_bits();
    let selector = scheme.file_encoder().selector();
    // Split the (possibly checkpoint-restored) serial encoder state into
    // shard + assembler state by replaying the appearance orders. The
    // caller's tables go first, so a 2^32 run never holds two 16 GB
    // clientID tables at once.
    let (shard_sets, assembler) = {
        let client_order = scheme.client_encoder().appearance_order();
        let file_order = scheme.file_encoder().appearance_order();
        drop(scheme);
        build_sharded(width_bits, selector, n_shards, &client_order, &file_order)
    };

    let mut stats = PipelineStats::default();
    if opts
        .faults
        .as_ref()
        .is_some_and(|plan| plan.crash_every > 0)
    {
        silence_injected_crashes();
    }
    let trace_ctx = opts
        .trace
        .as_ref()
        .map(|t| TraceCtx::new(t, n_workers, n_shards, registry));
    let (writer, io_err, asm) = crossbeam::thread::scope(|scope| {
        let (out_rx, producer, handles) = spawn_front(
            scope,
            frames,
            n_workers,
            registry,
            opts.faults.clone(),
            trace_ctx.clone(),
        );

        // Tail plumbing. Metered, bounded work queues; unmetered bounded
        // pool channels flow emptied buffers back upstream so steady
        // state reuses the same allocations forever.
        let pool_cap = tail.batch_queue + 2;
        let (fmt_tx, fmt_rx) = metered_bounded::<FormatItem>(tail.batch_queue, registry, "fmt_in");
        let (write_tx, write_rx) =
            metered_bounded::<WriteItem>(tail.batch_queue, registry, "write_in");
        // etwlint: allow(no-unbounded-channel): bounded recycling pool, not a work queue — try_send/try_recv only, never blocks
        let (rec_pool_tx, rec_pool_rx) = crossbeam::channel::bounded::<Vec<AnonRecord>>(pool_cap);
        // etwlint: allow(no-unbounded-channel): bounded recycling pool, as above
        let (buf_pool_tx, buf_pool_rx) = crossbeam::channel::bounded::<Vec<u8>>(pool_cap);
        // etwlint: allow(no-unbounded-channel): bounded recycling pool, as above
        let (batch_pool_tx, batch_pool_rx) = crossbeam::channel::bounded::<ShardBatch>(pool_cap);
        // The resolution-vector pool is shared by all shard workers, so
        // it is a mutexed free-list rather than a channel (the channel
        // stub is single-consumer). Uncontended in steady state: shards
        // pop, the assembler pushes, each holds the lock for two Vec
        // moves.
        let res_pool: ResPool =
            std::sync::Arc::new(std::sync::Mutex::new(Vec::with_capacity(2 * n_shards + 2)));
        for _ in 0..pool_cap {
            let _ = rec_pool_tx.try_send(Vec::with_capacity(tail.batch_records));
            let _ = buf_pool_tx.try_send(Vec::with_capacity(tail.batch_records * 64));
        }

        let formatter = spawn_tail_formatter(
            scope,
            registry,
            fmt_rx,
            write_tx,
            rec_pool_tx.clone(),
            buf_pool_rx,
            trace_ctx
                .as_ref()
                .map(|c| c.lane(lane_format(n_workers), 0)),
        );
        let writer_thread = spawn_tail_writer(
            scope,
            registry,
            write_rx,
            buf_pool_tx,
            writer,
            on_checkpoint,
            trace_ctx.as_ref().map(|c| c.lane(lane_write(n_workers), 0)),
        );

        // Shard pool: every worker owns a disjoint slice of both id
        // spaces and resolves each batch independently — no shared
        // state, no locks. All input channels share the "shard_in"
        // metrics (like "decode_in"); results funnel into "shard_out".
        let (shard_out_tx, shard_out_rx) =
            metered_bounded::<ShardResult>(2 * n_shards, registry, "shard_out");
        let shard_batches = registry.counter("anon.shard.batches_total");
        let shard_cids = registry.counter("anon.shard.client_ids_total");
        let shard_fids = registry.counter("anon.shard.file_ids_total");
        let shard_ns = registry.histogram("stage.shard.service_ns");
        let mut shard_txs = Vec::with_capacity(n_shards);
        let mut shard_handles = Vec::with_capacity(n_shards);
        for (sindex, mut set) in shard_sets.into_iter().enumerate() {
            let (tx, rx) = metered_bounded::<std::sync::Arc<ShardBatch>>(
                tail.batch_queue,
                registry,
                "shard_in",
            );
            let lane_metrics = shard_lane_metrics(registry, sindex);
            shard_txs.push((tx, lane_metrics.queue_depth.clone()));
            let out = shard_out_tx.clone();
            let res_pool = res_pool.clone();
            let (batches, cids, fids, ns) = (
                shard_batches.clone(),
                shard_cids.clone(),
                shard_fids.clone(),
                shard_ns.clone(),
            );
            let trace = StageTrace::new(
                registry,
                StageId::Shard,
                trace_ctx
                    .as_ref()
                    .map(|c| c.lane(lane_shard(n_workers, sindex), sindex as u16)),
            );
            shard_handles.push(scope.spawn(move |_| {
                let mut pt = trace.begin();
                while let Ok(batch) = rx.recv() {
                    lane_metrics.queue_depth.add(-1);
                    let w0 = trace.service_begin(&mut pt);
                    let (mut cres, mut fres) = res_pool
                        .lock()
                        // etwlint: allow(no-panic-hot-path): lock poisoning implies another pipeline thread already panicked
                        .expect("res pool poisoned")
                        .pop()
                        .unwrap_or_default();
                    let t = ns.start();
                    set.resolve_batch(&batch.client_ids, &batch.file_ids, &mut cres, &mut fres);
                    if let Some(t0) = t {
                        let busy = t0.elapsed().as_nanos() as u64;
                        ns.record(busy);
                        lane_metrics.busy_ns.add(busy);
                    }
                    batches.inc();
                    lane_metrics.batches.inc();
                    cids.add(cres.len() as u64);
                    fids.add(fres.len() as u64);
                    lane_metrics.client_ids.add(cres.len() as u64);
                    lane_metrics.file_ids.add(fres.len() as u64);
                    let last_us = batch.msgs.last().map_or(0, |d| d.ts.0);
                    let r = ShardResult {
                        seq: batch.seq,
                        clients: cres,
                        files: fres,
                    };
                    trace.service_end(&mut pt, batch.seq as u32, last_us, w0, 1);
                    if out.send(r).is_err() {
                        break;
                    }
                }
                set
            }));
        }
        drop(shard_out_tx);

        // Assembler: strict batch order. For each batch, gather all
        // shards' resolutions (stashing early arrivals for later seqs),
        // scatter + remap to final appearance orders, construct records
        // in place, and hand them to the formatter.
        let (asm_tx, asm_rx) = metered_bounded::<AsmItem>(tail.batch_queue, registry, "asm_in");
        let asm_ns = registry.histogram("stage.assemble.service_ns");
        let asm_trace = StageTrace::new(
            registry,
            StageId::Assemble,
            trace_ctx
                .as_ref()
                .map(|c| c.lane(lane_assemble(n_workers), 0)),
        );
        let asm_thread = scope.spawn(move |_| {
            let mut asm = assembler;
            let mut stash: BTreeMap<u64, Vec<ShardResult>> = BTreeMap::new();
            let mut failed = false;
            let mut pt = asm_trace.begin();
            while let Ok(item) = asm_rx.recv() {
                let w0 = asm_trace.service_begin(&mut pt);
                match item {
                    AsmItem::Batch(arc) => {
                        let mut got = stash.remove(&arc.seq).unwrap_or_default();
                        while got.len() < n_shards {
                            match shard_out_rx.recv() {
                                Ok(r) if r.seq == arc.seq => got.push(r),
                                Ok(r) => stash.entry(r.seq).or_default().push(r),
                                // Shards only hang up early on panic;
                                // stop assembling, keep draining.
                                Err(_) => break,
                            }
                        }
                        if got.len() < n_shards {
                            failed = true;
                        }
                        if failed {
                            continue;
                        }
                        let t = asm_ns.start();
                        asm.begin_batch(arc.client_ids.len(), arc.file_ids.len());
                        for r in &got {
                            asm.apply_clients(&r.clients);
                            asm.apply_files(&r.files);
                        }
                        asm.finish_batch(&arc.client_ids, &arc.file_ids);
                        // The pooled record vector keeps its previous
                        // batch's records: construct overwrites them in
                        // place (see anonymize_batch_reuse).
                        let mut recs = rec_pool_rx.try_recv().unwrap_or_default();
                        asm.construct(arc.msgs.iter().map(|d| (d.ts.0, d.peer, &d.msg)), &mut recs);
                        asm_ns.record_since(t);
                        {
                            // etwlint: allow(no-panic-hot-path): lock
                            // poisoning implies a prior panic, as above.
                            let mut pool = res_pool.lock().expect("res pool poisoned");
                            for r in got {
                                if pool.len() < 2 * n_shards + 2 {
                                    pool.push((r.clients, r.files));
                                }
                            }
                        }
                        failed = fmt_tx.send(FormatItem::Batch(recs)).is_err();
                        let (bseq, last_us) = (arc.seq, arc.msgs.last().map_or(0, |d| d.ts.0));
                        // All shards have dropped their handles by the
                        // time their results are in; reclaim the batch
                        // buffers (racy against a shard's loop tail —
                        // a failed unwrap just allocates fresh later).
                        if let Ok(b) = std::sync::Arc::try_unwrap(arc) {
                            let _ = batch_pool_tx.try_send(b);
                        }
                        asm_trace.service_end(&mut pt, bseq as u32, last_us, w0, 1);
                    }
                    AsmItem::Checkpoint {
                        virtual_us,
                        next_checkpoint_us,
                        records,
                    } => {
                        if failed {
                            continue;
                        }
                        failed = fmt_tx
                            .send(FormatItem::Checkpoint(PipelineCheckpoint {
                                virtual_us,
                                next_checkpoint_us,
                                records,
                                // etwlint: allow(no-alloc-hot-loop): checkpoint cut — runs once per interval, not per record
                                client_order: asm.client_order().to_vec(),
                                // etwlint: allow(no-alloc-hot-loop): checkpoint cut, as above
                                file_order: asm.file_order().to_vec(),
                            }))
                            .is_err();
                        asm_trace.service_end(&mut pt, records as u32, virtual_us, w0, 0);
                    }
                }
            }
            asm
        });

        // Sequential stage: restore capture order, run the visit pass
        // while staging, fan out batches.
        let seq_trace = StageTrace::new(
            registry,
            StageId::Reorder,
            trace_ctx.as_ref().map(|c| c.lane(lane_seq(n_workers), 0)),
        );
        let sink = SinkTelemetry::new(registry);
        let cp_interval = opts.checkpoint_interval_us;
        let (skip, mut last_ts, mut next_cp) = match &opts.resume {
            Some(r) => (r.records, r.virtual_us, r.next_checkpoint_us),
            None => (0, 0, cp_interval),
        };
        let mut consumed = 0u64;
        let mut reorder: BTreeMap<u64, Option<DecodedMsg>> = BTreeMap::new();
        let mut next_seq = 0u64;
        let fresh_batch = || ShardBatch {
            seq: 0,
            msgs: Vec::with_capacity(tail.batch_records),
            client_ids: Vec::new(),
            file_ids: Vec::new(),
        };
        let mut cur = fresh_batch();
        let mut batch_seq = 0u64;
        let mut queries = 0u64;
        let mut dirs = (0u64, 0u64);
        let mut tail_failed = false;
        // Stages the current run: account it, stamp its sequence number
        // and fan it out to every shard plus the assembler.
        let flush = |cur: &mut ShardBatch,
                     queries: &mut u64,
                     dirs: &mut (u64, u64),
                     batch_seq: &mut u64,
                     stats: &mut PipelineStats|
         -> bool {
            if cur.msgs.is_empty() {
                return true;
            }
            let records = cur.msgs.len() as u64;
            stats.records += records;
            stats.query_records += *queries;
            stats.to_server += dirs.0;
            stats.from_server += dirs.1;
            sink.records.add(records);
            sink.queries.add(*queries);
            sink.to_server.add(dirs.0);
            sink.from_server.add(dirs.1);
            *queries = 0;
            *dirs = (0, 0);
            cur.seq = *batch_seq;
            *batch_seq += 1;
            let mut next = batch_pool_rx.try_recv().unwrap_or_else(&fresh_batch);
            next.msgs.clear();
            next.client_ids.clear();
            next.file_ids.clear();
            let arc = std::sync::Arc::new(std::mem::replace(cur, next));
            for (tx, depth) in &shard_txs {
                if tx.send(arc.clone()).is_err() {
                    return false;
                }
                depth.add(1);
            }
            asm_tx.send(AsmItem::Batch(arc)).is_ok()
        };
        let mut pt = seq_trace.begin();
        while let Ok(batch) = out_rx.recv() {
            let w0 = seq_trace.service_begin(&mut pt);
            let items = batch.len() as u64;
            for (seq, decoded) in batch {
                reorder.insert(seq, decoded);
            }
            while let Some(decoded) = reorder.remove(&next_seq) {
                next_seq += 1;
                let Some(d) = decoded else { continue };
                if cp_interval > 0 && d.ts.0 >= next_cp {
                    // Cut *before* consuming this message, staged run
                    // flushed first — exactly as the serial tail. The
                    // assembler completes the marker with the orders.
                    next_cp = (d.ts.0 / cp_interval + 1) * cp_interval;
                    seq_trace.event_dump(
                        SpanKind::Checkpoint,
                        "checkpoint",
                        consumed as u32,
                        last_ts,
                    );
                    if !tail_failed {
                        tail_failed = !flush(
                            &mut cur,
                            &mut queries,
                            &mut dirs,
                            &mut batch_seq,
                            &mut stats,
                        );
                    }
                    if !tail_failed {
                        tail_failed = asm_tx
                            .send(AsmItem::Checkpoint {
                                virtual_us: last_ts,
                                next_checkpoint_us: next_cp,
                                records: consumed,
                            })
                            .is_err();
                    }
                }
                consumed += 1;
                last_ts = d.ts.0;
                if consumed <= skip {
                    // Resume replay: already written by the interrupted
                    // run; its effects live in the restored state.
                    continue;
                }
                if tail_failed {
                    // Tail is gone: keep consuming so the decode front
                    // drains instead of deadlocking the producer.
                    continue;
                }
                match d.direction {
                    Direction::ToServer => dirs.0 += 1,
                    Direction::FromServer => dirs.1 += 1,
                }
                queries += u64::from(d.msg.is_client_to_server());
                collect_ids(d.peer, &d.msg, &mut cur.client_ids, &mut cur.file_ids);
                cur.msgs.push(d);
                if cur.msgs.len() >= tail.batch_records {
                    tail_failed = !flush(
                        &mut cur,
                        &mut queries,
                        &mut dirs,
                        &mut batch_seq,
                        &mut stats,
                    );
                }
            }
            let depth = reorder.len() as i64;
            sink.reorder_depth.set(depth);
            if depth > sink.reorder_depth_hwm.get() {
                sink.reorder_depth_hwm.set(depth);
            }
            seq_trace.service_end(&mut pt, depth as u32, last_ts, w0, items);
        }
        if !tail_failed {
            // Final partial batch.
            flush(
                &mut cur,
                &mut queries,
                &mut dirs,
                &mut batch_seq,
                &mut stats,
            );
        }
        drop(shard_txs);
        drop(asm_tx);

        // Shutdown order follows the data: shards, assembler, formatter,
        // writer, then the front. The shards own disjoint buckets, so
        // their probe ledgers sum to the serial encoder's.
        for h in shard_handles {
            // etwlint: allow(no-panic-hot-path): join() only errs when
            // the joined thread panicked; re-raising is panic
            // propagation, not a new failure mode.
            let set = h.join().expect("shard worker panicked");
            stats.fileid_probes.merge(&set.files.probe_stats());
        }
        // etwlint: allow(no-panic-hot-path): panic propagation, as above
        let asm = asm_thread.join().expect("assembler panicked");
        // etwlint: allow(no-panic-hot-path): panic propagation, as above
        formatter.join().expect("formatter panicked");
        // etwlint: allow(no-panic-hot-path): panic propagation, as above
        let (w, io_err) = writer_thread.join().expect("writer panicked");
        join_front(producer, handles, &mut stats);
        count_reorder_holes(&mut stats, next_seq, registry);
        (w, io_err, asm)
    })
    // etwlint: allow(no-panic-hot-path): crossbeam scope() errs only when
    // a child panicked; re-raising is panic propagation.
    .expect("pipeline scope panicked");

    // Rebuild a serial-equivalent scheme from the assembler's final
    // orders: distinct counts and bucket sizes match the serial run
    // exactly (the probe ledger is in `stats`).
    let scheme =
        PaperScheme::from_orders(width_bits, selector, asm.client_order(), asm.file_order());
    match io_err {
        Some(e) => Err(e),
        None => Ok((stats, scheme, writer)),
    }
}

/// Spawns the parallel front of the pipeline — the routing producer and
/// the decode workers — into `scope`, wiring shared stage telemetry.
/// Returns the sequenced worker-output channel plus the join handles:
/// the producer yields `(frames_routed, frames_shed)`, each worker its
/// accumulated [`WorkerStats`]. Both the serial tail and the writer tail
/// sit downstream of this same front, so fault injection, shedding and
/// sequence assignment behave identically in the two.
type FrontHandles<'scope> = (
    MeteredReceiver<Vec<WorkerStep>>,
    crossbeam::thread::ScopedJoinHandle<'scope, (u64, u64)>,
    Vec<crossbeam::thread::ScopedJoinHandle<'scope, WorkerStats>>,
);

/// Joins the front spawned by [`spawn_front`] — the producer, then
/// every decode worker — and folds their counters into `stats`.
fn join_front(
    producer: crossbeam::thread::ScopedJoinHandle<'_, (u64, u64)>,
    handles: Vec<crossbeam::thread::ScopedJoinHandle<'_, WorkerStats>>,
    stats: &mut PipelineStats,
) {
    // etwlint: allow(no-panic-hot-path): join() only errs when the
    // joined thread panicked; re-raising is panic propagation, not a
    // new failure mode.
    (stats.frames, stats.shed) = producer.join().expect("producer panicked");
    for h in handles {
        // etwlint: allow(no-panic-hot-path): panic propagation, as above
        let w = h.join().expect("worker panicked");
        stats.not_udp += w.not_udp;
        stats.other_port += w.other_port;
        stats.parse_errors += w.parse_errors;
        stats.udp_datagrams += w.udp_datagrams;
        stats.fragmented_datagrams += w.fragmented_datagrams;
        stats.decoder.merge(&w.decoder);
        merge_reassembly(&mut stats.reassembly, &w.reassembly);
    }
}

fn spawn_front<'scope, 'env, I>(
    scope: &crossbeam::thread::Scope<'scope, 'env>,
    frames: I,
    n_workers: usize,
    registry: &Registry,
    faults: Option<WorkerFaultPlan>,
    trace_ctx: Option<Arc<TraceCtx>>,
) -> FrontHandles<'scope>
where
    I: Iterator<Item = TimedFrame> + Send + 'scope,
{
    let (out_tx, out_rx) =
        metered_bounded::<Vec<WorkerStep>>(2 * FRAME_QUEUE, registry, "decode_out");
    let mut worker_txs = Vec::with_capacity(n_workers);
    let mut handles = Vec::with_capacity(n_workers);
    let decode_telemetry = DecodeTelemetry {
        frames: registry.counter("stage.decode.frames_total"),
        service_ns: registry.histogram("stage.decode.service_ns"),
    };
    let fault_telemetry = WorkerFaultTelemetry {
        crashes: registry.counter("faults.worker.crashes_total"),
        restarts: registry.counter("faults.worker.restarts_total"),
        backoff_dropped: registry.counter("faults.worker.backoff_dropped_total"),
        degraded: registry.counter("faults.worker.degraded_total"),
        tombstoned: registry.counter("faults.worker.tombstoned_total"),
    };
    for windex in 0..n_workers {
        // All worker input channels share the "decode_in" metrics,
        // so depth reads as batches queued across the stage.
        let (tx, rx) =
            metered_bounded::<Vec<(u64, TimedFrame)>>(FRAME_QUEUE, registry, "decode_in");
        worker_txs.push(tx);
        let out_tx = out_tx.clone();
        let telemetry = decode_telemetry.clone();
        let trace = StageTrace::new(
            registry,
            StageId::Decode,
            trace_ctx
                .as_ref()
                .map(|c| c.lane(lane_decode(windex), windex as u16)),
        );
        let supervision = faults
            .clone()
            .map(|plan| (windex, plan, fault_telemetry.clone()));
        handles.push(scope.spawn(move |_| worker_loop(rx, out_tx, telemetry, trace, supervision)));
    }
    drop(out_tx);

    // Producer: route frames so that all fragments of one datagram
    // land on the same worker (reassembly is per-worker state).
    // Overload shedding happens here, before sequence assignment:
    // the sequence space stays dense and the decision depends only
    // on the (deterministic) frame stream, never on queue timing.
    let produced = registry.counter("stage.producer.frames_total");
    let shed = registry.counter("pipeline.shed_total");
    let producer_lane = trace_ctx.as_ref().map(|c| c.lane(0, 0));
    let producer_plan = faults;
    let producer = scope.spawn(move |_| {
        let mut seq = 0u64;
        let mut offered = 0u64;
        let mut shed_count = 0u64;
        // Shed dumps are deduplicated per overload *burst*: within a
        // window the kept-every-Nth frames interleave with shed ones,
        // so contiguity can't delimit the burst — a virtual-time gap
        // larger than any intra-window stride can.
        const SHED_BURST_GAP_US: u64 = 5_000_000;
        let mut last_shed_us: Option<u64> = None;
        // Per-worker frame batches: routed frames accumulate locally and
        // ship [`FRAME_BATCH`] at a time, so the channel (and on a busy
        // host, the scheduler) is paid per batch, not per frame.
        let mut batches: Vec<Vec<(u64, TimedFrame)>> = (0..n_workers)
            .map(|_| Vec::with_capacity(FRAME_BATCH))
            .collect();
        for frame in frames {
            offered += 1;
            if let Some(plan) = &producer_plan {
                if plan.should_shed(frame.ts.0, offered) {
                    shed.inc();
                    shed_count += 1;
                    if let Some(lane) = &producer_lane {
                        lane.ring.record(SpanEvent::new(
                            StageId::Producer,
                            SpanKind::Shed,
                            0,
                            offered as u32,
                            frame.ts.0,
                            wall_now_ns(),
                            0,
                        ));
                        let new_burst = last_shed_us
                            .is_none_or(|t| frame.ts.0.saturating_sub(t) > SHED_BURST_GAP_US);
                        if new_burst {
                            lane.ctx.dump("shed", frame.ts.0);
                        }
                    }
                    last_shed_us = Some(frame.ts.0);
                    continue;
                }
            }
            let w = route(&frame.bytes, n_workers);
            batches[w].push((seq, frame));
            if batches[w].len() >= FRAME_BATCH {
                let full = std::mem::replace(&mut batches[w], Vec::with_capacity(FRAME_BATCH));
                worker_txs[w]
                    .send(full)
                    // etwlint: allow(no-panic-hot-path): a worker hanging
                    // up mid-run means it already panicked; propagating
                    // beats silently dropping the rest of the trace.
                    .expect("worker hung up early");
            }
            produced.inc();
            seq += 1;
        }
        for (w, batch) in batches.into_iter().enumerate() {
            if !batch.is_empty() {
                // etwlint: allow(no-panic-hot-path): panic propagation, as above
                worker_txs[w].send(batch).expect("worker hung up early");
            }
        }
        (seq, shed_count)
    });

    (out_rx, producer, handles)
}

/// Keep injected worker crashes out of stderr: they are scheduled fault
/// events, not bugs. Genuine panics still reach the previous hook. The
/// hook is process-global, so it is installed once and filters only by
/// payload type.
fn silence_injected_crashes() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info
                .payload()
                .downcast_ref::<InjectedWorkerCrash>()
                .is_none()
            {
                previous(info);
            }
        }));
    });
}

#[derive(Default)]
struct WorkerStats {
    not_udp: u64,
    other_port: u64,
    parse_errors: u64,
    udp_datagrams: u64,
    fragmented_datagrams: u64,
    decoder: DecoderStats,
    reassembly: ReassemblyStats,
}

/// Counters for supervised-worker fault events (shared by all workers).
#[derive(Clone)]
struct WorkerFaultTelemetry {
    crashes: Counter,
    restarts: Counter,
    backoff_dropped: Counter,
    degraded: Counter,
    tombstoned: Counter,
}

fn worker_loop(
    rx: MeteredReceiver<Vec<(u64, TimedFrame)>>,
    out: MeteredSender<Vec<WorkerStep>>,
    telemetry: DecodeTelemetry,
    trace: StageTrace,
    supervision: Option<(usize, WorkerFaultPlan, WorkerFaultTelemetry)>,
) -> WorkerStats {
    let mut wire = WireDecoder::new();
    let mut decoder = Decoder::new();
    let mut ws = WorkerStats::default();
    let mut received = 0u64;
    let mut restarts = 0u32;
    let mut backoff_left = 0u64;
    let mut degraded = false;
    let mut pt = trace.begin();
    'batches: while let Ok(batch) = rx.recv() {
        let w0 = trace.service_begin(&mut pt);
        let t = telemetry.service_ns.start();
        let items = batch.len() as u64;
        let mut last_us = 0u64;
        let mut steps: Vec<WorkerStep> = Vec::with_capacity(batch.len());
        for (seq, frame) in batch {
            received += 1;
            telemetry.frames.inc();
            let decoded = match &supervision {
                None => process_frame(&mut wire, &mut decoder, &mut ws, &frame),
                Some((windex, plan, faults)) => {
                    if degraded {
                        // Out of restart budget: tombstone everything rather
                        // than stop the capture ("never stop the capture").
                        faults.tombstoned.inc();
                        None
                    } else if backoff_left > 0 {
                        backoff_left -= 1;
                        faults.backoff_dropped.inc();
                        faults.tombstoned.inc();
                        None
                    } else {
                        let crash_due = plan.crash_due(*windex, received);
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            if crash_due {
                                std::panic::panic_any(InjectedWorkerCrash);
                            }
                            process_frame(&mut wire, &mut decoder, &mut ws, &frame)
                        }));
                        match outcome {
                            Ok(d) => d,
                            Err(_) => {
                                faults.crashes.inc();
                                faults.tombstoned.inc();
                                // Salvage the dead instance's accounting,
                                // then restart with fresh decoder state: a
                                // crash mid-frame may have left reassembly
                                // or stream state poisoned.
                                ws.decoder.merge(&decoder.stats());
                                merge_reassembly(&mut ws.reassembly, &wire.reassembly_stats());
                                wire = WireDecoder::new();
                                decoder = Decoder::new();
                                trace.event_dump(
                                    SpanKind::Crash,
                                    "crash",
                                    received as u32,
                                    frame.ts.0,
                                );
                                if restarts >= plan.max_restarts {
                                    degraded = true;
                                    faults.degraded.inc();
                                    trace.event_dump(
                                        SpanKind::Degraded,
                                        "degraded",
                                        restarts,
                                        frame.ts.0,
                                    );
                                } else {
                                    restarts += 1;
                                    faults.restarts.inc();
                                    backoff_left = plan.backoff_after(restarts);
                                    trace.event(SpanKind::Restart, restarts, frame.ts.0);
                                }
                                None
                            }
                        }
                    }
                }
            };
            last_us = frame.ts.0;
            steps.push((seq, decoded));
        }
        telemetry.service_ns.record_since(t);
        trace.service_end(&mut pt, received as u32, last_us, w0, items);
        if out.send(steps).is_err() {
            break 'batches;
        }
    }
    ws.decoder.merge(&decoder.stats());
    merge_reassembly(&mut ws.reassembly, &wire.reassembly_stats());
    ws
}

fn process_frame(
    wire: &mut WireDecoder,
    decoder: &mut Decoder,
    ws: &mut WorkerStats,
    frame: &TimedFrame,
) -> Option<DecodedMsg> {
    match wire.push(frame.ts, &frame.bytes) {
        Recovered::Udp {
            peer,
            direction,
            payload,
            was_fragmented,
        } => {
            ws.udp_datagrams += 1;
            if was_fragmented {
                ws.fragmented_datagrams += 1;
            }
            decode_payload(decoder, frame.ts, peer, direction, &payload)
        }
        Recovered::FragmentPending => None,
        Recovered::NotUdp => {
            ws.not_udp += 1;
            None
        }
        Recovered::OtherPort => {
            ws.other_port += 1;
            None
        }
        Recovered::ParseError => {
            ws.parse_errors += 1;
            None
        }
    }
}

fn decode_payload(
    decoder: &mut Decoder,
    ts: VirtualTime,
    peer: ClientId,
    direction: Direction,
    payload: &Bytes,
) -> Option<DecodedMsg> {
    match decoder.push(payload) {
        DecodeOutcome::Ok(msg) => Some(DecodedMsg {
            ts,
            peer,
            direction,
            msg,
        }),
        DecodeOutcome::StructurallyInvalid(_)
        | DecodeOutcome::DecodeFailed(_)
        | DecodeOutcome::NotEdonkey => None,
    }
}

/// Routing key: hash of (src, dst, ident) straight out of the IP header
/// bytes, so fragments of one datagram always share a worker. Frames too
/// short to carry an IP header all go to worker 0 (they will be counted
/// as parse errors there).
fn route(frame: &[u8], n_workers: usize) -> usize {
    if frame.len() < 34 {
        return 0;
    }
    // Ethernet header is 14 bytes; IPv4: ident at +4, src at +12, dst at +16.
    let ip = &frame[14..];
    let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
    for &b in ip[4..6].iter().chain(&ip[12..20]) {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    (h % n_workers as u64) as usize
}

fn merge_reassembly(a: &mut ReassemblyStats, b: &ReassemblyStats) {
    a.whole += b.whole;
    a.fragments += b.fragments;
    a.reassembled += b.reassembled;
    a.timed_out += b.timed_out;
    a.duplicates += b.duplicates;
}

/// Sets `stats.reorder_holes` once [`join_front`] has filled
/// `stats.frames`: the producer issued one sequence step per routed
/// frame, and the reorder stage drained the first `next_seq` of them.
/// Every step past that never reached the anonymiser, whether it went
/// missing or sat stranded behind one that did. Counted into
/// `pipeline.reorder.holes_total` rather than asserted, so release
/// builds report it and ledgers can gate it at 0.
fn count_reorder_holes(stats: &mut PipelineStats, next_seq: u64, registry: &Registry) {
    stats.reorder_holes = stats.frames - next_seq;
    registry
        .counter("pipeline.reorder.holes_total")
        .add(stats.reorder_holes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wirepath::{encapsulate, tcp_noise_frame, Direction};
    use etw_anonymize::fileid::ByteSelector;
    use etw_edonkey::ids::FileId;

    fn frames_for(msgs: &[(u32, Message)]) -> Vec<TimedFrame> {
        let mut out = Vec::new();
        for (i, (client, msg)) in msgs.iter().enumerate() {
            for f in encapsulate(
                msg.encode(),
                ClientId(*client),
                4672,
                Direction::ToServer,
                i as u16,
                1500,
            ) {
                out.push(TimedFrame {
                    ts: VirtualTime::from_secs(i as u64),
                    bytes: f.to_bytes(),
                });
            }
        }
        out
    }

    fn run(frames: Vec<TimedFrame>, workers: usize) -> (PipelineStats, Vec<AnonRecord>) {
        let mut records = Vec::new();
        let (stats, _) = run_capture_pipeline_with(
            frames.into_iter(),
            workers,
            PaperScheme::paper(16),
            &Registry::disabled(),
            &PipelineOptions::default(),
            |r| records.push(r),
            |_| {},
        );
        (stats, records)
    }

    #[test]
    fn single_message_flows_through() {
        let frames = frames_for(&[(100, Message::StatusRequest { challenge: 1 })]);
        let (stats, records) = run(frames, 2);
        assert_eq!(stats.frames, 1);
        assert_eq!(stats.udp_datagrams, 1);
        assert_eq!(stats.decoder.decoded, 1);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].peer, 0);
    }

    #[test]
    fn order_is_deterministic_across_worker_counts() {
        let msgs: Vec<(u32, Message)> = (0..200)
            .map(|i| {
                (
                    (i % 37) as u32,
                    Message::GetSources {
                        file_ids: vec![FileId::of_identity(i as u64 % 13)],
                    },
                )
            })
            .collect();
        let (_, r1) = run(frames_for(&msgs), 1);
        let (_, r4) = run(frames_for(&msgs), 4);
        assert_eq!(r1.len(), 200);
        assert_eq!(r1, r4, "worker count changed anonymised output");
    }

    #[test]
    fn fragmented_announcements_survive_parallel_decode() {
        // Large OfferFiles messages fragment; routing must keep the
        // fragments on one worker.
        use etw_edonkey::messages::FileEntry;
        use etw_edonkey::tags::{special, Tag, TagList};
        let files: Vec<FileEntry> = (0..60u8)
            .map(|i| FileEntry {
                file_id: FileId([i; 16]),
                client_id: ClientId(55),
                port: 4662,
                tags: TagList(vec![
                    Tag::str(special::FILENAME, format!("some file name {i}.mp3")),
                    Tag::u32(special::FILESIZE, 4_000_000),
                ]),
            })
            .collect();
        let msgs: Vec<(u32, Message)> = (0..40)
            .map(|i| {
                (
                    i as u32,
                    Message::OfferFiles {
                        files: files.clone(),
                    },
                )
            })
            .collect();
        let frames = frames_for(&msgs);
        assert!(frames.len() > 80, "expected fragmentation");
        let (stats, records) = run(frames, 4);
        assert_eq!(stats.decoder.decoded, 40);
        assert_eq!(records.len(), 40);
        assert_eq!(stats.reassembly.reassembled, 40);
        assert_eq!(stats.fragmented_datagrams, 40);
    }

    #[test]
    fn noise_is_classified_not_decoded() {
        let mut frames = frames_for(&[(1, Message::GetServerList)]);
        frames.push(TimedFrame {
            ts: VirtualTime::ZERO,
            bytes: tcp_noise_frame(9, 10, 50).to_bytes(),
        });
        frames.push(TimedFrame {
            ts: VirtualTime::ZERO,
            bytes: vec![0xff; 10],
        });
        let (stats, records) = run(frames, 2);
        assert_eq!(stats.frames, 3);
        assert_eq!(stats.not_udp, 1);
        assert_eq!(stats.parse_errors, 1);
        assert_eq!(records.len(), 1);
    }

    #[test]
    fn reorder_holes_count_undrained_sequence_steps() {
        let registry = Registry::new();
        let mut stats = PipelineStats {
            frames: 10,
            ..PipelineStats::default()
        };
        count_reorder_holes(&mut stats, 10, &registry);
        assert_eq!(stats.reorder_holes, 0);
        // The last three steps never arrived: nothing is left queued in
        // the reorder buffer, yet they never reached the anonymiser.
        count_reorder_holes(&mut stats, 7, &registry);
        assert_eq!(stats.reorder_holes, 3);
        assert_eq!(
            registry.snapshot().counter("pipeline.reorder.holes_total"),
            3
        );
    }

    #[test]
    fn empty_input() {
        let (stats, records) = run(Vec::new(), 3);
        assert_eq!(stats.frames, 0);
        assert!(records.is_empty());
    }

    #[test]
    fn observed_pipeline_reports_consistent_stage_metrics() {
        let msgs: Vec<(u32, Message)> = (0..50)
            .map(|i| {
                (
                    i as u32,
                    Message::StatusRequest {
                        challenge: i as u32,
                    },
                )
            })
            .collect();
        let frames = frames_for(&msgs);
        let registry = Registry::new();
        let mut records = Vec::new();
        let (stats, _) = run_capture_pipeline_with(
            frames.into_iter(),
            2,
            PaperScheme::paper(16),
            &registry,
            &PipelineOptions::default(),
            |r| records.push(r),
            |_| {},
        );
        let snap = registry.snapshot();
        // Every frame is seen once per stage; the decode channels tick
        // per *batch* (frames ride in Vecs), so their counters are
        // bounded by the frame count and agree with each other — the
        // worker emits exactly one out-batch per in-batch.
        assert_eq!(snap.counter("stage.producer.frames_total"), stats.frames);
        let in_batches = snap.counter("chan.decode_in.sent_total");
        let out_batches = snap.counter("chan.decode_out.sent_total");
        assert!(in_batches > 0 && in_batches <= stats.frames);
        assert_eq!(out_batches, in_batches);
        assert_eq!(snap.counter("stage.decode.frames_total"), stats.frames);
        assert_eq!(
            snap.histogram("stage.decode.service_ns").unwrap().count,
            out_batches
        );
        // Sink accounting matches the pipeline stats, direction included.
        assert_eq!(snap.counter("stage.sink.records_total"), stats.records);
        assert_eq!(
            snap.counter("stage.sink.to_server_total")
                + snap.counter("stage.sink.from_server_total"),
            stats.records
        );
        assert_eq!(stats.to_server + stats.from_server, stats.records);
        assert_eq!(
            stats.to_server, stats.records,
            "all test frames are queries"
        );
        assert_eq!(
            snap.histogram("stage.anonymize.service_ns").unwrap().count,
            stats.records
        );
        // Queues fully drained at exit.
        assert_eq!(snap.gauge("stage.reorder.depth"), 0);
        assert_eq!(snap.gauge("chan.decode_in.depth"), 0);
        assert_eq!(snap.gauge("chan.decode_out.depth"), 0);
    }

    fn query_msgs(n: usize) -> Vec<(u32, Message)> {
        (0..n)
            .map(|i| {
                (
                    (i % 40) as u32,
                    Message::GetSources {
                        file_ids: vec![FileId::of_identity(i as u64 % 17)],
                    },
                )
            })
            .collect()
    }

    #[test]
    fn producer_sheds_deterministically_during_overload() {
        // 200 one-frame messages at ts = 0..200 s; overload covers
        // [50 s, 100 s) and keeps every 2nd offered frame.
        let frames = frames_for(&query_msgs(200));
        let plan = WorkerFaultPlan {
            crash_every: 0,
            max_restarts: 0,
            backoff_frames: 0,
            backoff_cap: 0,
            overload: vec![etw_faults::Window {
                start_us: 50_000_000,
                end_us: 100_000_000,
            }],
            shed_keep_every: 2,
        };
        let opts = PipelineOptions {
            checkpoint_interval_us: 0,
            resume: None,
            faults: Some(plan),
            trace: None,
        };
        let registry = Registry::new();
        let run_once = |registry: &Registry| {
            let mut records = Vec::new();
            let (stats, _) = run_capture_pipeline_with(
                frames.clone().into_iter(),
                3,
                PaperScheme::paper(16),
                registry,
                &opts,
                |r| records.push(r),
                |_| {},
            );
            (stats, records)
        };
        let (stats, records) = run_once(&registry);
        // 50 frames fall in the window; ordinals there alternate
        // keep/shed, so half are shed.
        assert_eq!(stats.shed, 25);
        assert_eq!(stats.frames, 175);
        assert_eq!(stats.frames + stats.shed, 200, "frames conserve");
        assert_eq!(records.len(), 175, "survivors all decode");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("pipeline.shed_total"), stats.shed);
        assert_eq!(snap.counter("stage.producer.frames_total"), stats.frames);
        // Shedding is a pure function of the frame stream: re-running
        // sheds the exact same frames.
        let (stats2, records2) = run_once(&Registry::disabled());
        assert_eq!(stats2.shed, stats.shed);
        assert_eq!(records2, records);
    }

    #[test]
    fn traced_faulty_run_dumps_flight_files_and_output_is_unchanged() {
        let frames = frames_for(&query_msgs(300));
        let plan = WorkerFaultPlan {
            crash_every: 40,
            max_restarts: 1,
            backoff_frames: 2,
            backoff_cap: 8,
            overload: vec![etw_faults::Window {
                start_us: 50_000_000,
                end_us: 80_000_000,
            }],
            shed_keep_every: 2,
        };
        let dir = std::env::temp_dir().join("etw-trace-flight-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let base = PipelineOptions {
            checkpoint_interval_us: 60_000_000,
            resume: None,
            faults: Some(plan),
            trace: None,
        };
        let traced = PipelineOptions {
            trace: Some(TraceOptions {
                ring_slots: 64,
                dump_dir: Some(dir.clone()),
                max_dumps: 16,
            }),
            ..base.clone()
        };
        let run = |opts: &PipelineOptions| {
            let mut records = Vec::new();
            let (stats, _) = run_capture_pipeline_with(
                frames.clone().into_iter(),
                2,
                PaperScheme::paper(16),
                &Registry::new(),
                opts,
                |r| records.push(r),
                |_| {},
            );
            (stats, records)
        };
        let (stats_plain, recs_plain) = run(&base);
        let (stats_traced, recs_traced) = run(&traced);
        // Tracing is a pure observer: identical stats and records.
        assert_eq!(recs_traced, recs_plain);
        assert_eq!(stats_traced.shed, stats_plain.shed);
        assert_eq!(stats_traced.records, stats_plain.records);

        // Crashes, the shed burst and checkpoint cuts each dumped a
        // flight file; every dump parses and the merged events include
        // service spans and the fault markers.
        let mut dumps: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        dumps.sort();
        assert!(!dumps.is_empty(), "no flight dumps written");
        let names: Vec<String> = dumps
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        for reason in ["_crash_", "_shed_", "_checkpoint_"] {
            assert!(
                names.iter().any(|n| n.contains(reason)),
                "no {reason} dump among {names:?}"
            );
        }
        let mut kinds = std::collections::BTreeSet::new();
        for p in &dumps {
            let events = trace_file::read_file(p).unwrap();
            assert!(!events.is_empty(), "empty flight dump {p:?}");
            for ev in &events {
                kinds.insert(ev.kind().expect("valid kind").name());
            }
        }
        assert!(kinds.contains("service"), "kinds: {kinds:?}");
        assert!(kinds.contains("CRASH"), "kinds: {kinds:?}");
        assert!(kinds.contains("checkpoint"), "kinds: {kinds:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn supervised_workers_crash_restart_then_degrade() {
        let frames = frames_for(&query_msgs(400));
        let plan = WorkerFaultPlan {
            crash_every: 25,
            max_restarts: 2,
            backoff_frames: 2,
            backoff_cap: 8,
            overload: Vec::new(),
            shed_keep_every: 0,
        };
        let opts = PipelineOptions {
            checkpoint_interval_us: 0,
            resume: None,
            faults: Some(plan),
            trace: None,
        };
        let registry = Registry::new();
        let mut records = Vec::new();
        let (stats, _) = run_capture_pipeline_with(
            frames.into_iter(),
            2,
            PaperScheme::paper(16),
            &registry,
            &opts,
            |r| records.push(r),
            |_| {},
        );
        let snap = registry.snapshot();
        let crashes = snap.counter("faults.worker.crashes_total");
        let restarts = snap.counter("faults.worker.restarts_total");
        let degraded = snap.counter("faults.worker.degraded_total");
        let tombstoned = snap.counter("faults.worker.tombstoned_total");
        let backoff = snap.counter("faults.worker.backoff_dropped_total");
        assert!(crashes > 0, "no crashes fired");
        assert!(restarts > 0, "no restarts happened");
        assert_eq!(degraded, 2, "both workers exhaust their budget");
        assert!(backoff > 0);
        // Every frame still produced exactly one sequence step: the sink
        // never stalls and the channels drain fully (decode_out ticks
        // per batch, so it is bounded by the frame count).
        assert_eq!(stats.frames, 400);
        let out_batches = snap.counter("chan.decode_out.sent_total");
        assert!(out_batches > 0 && out_batches <= stats.frames);
        assert_eq!(snap.counter("stage.decode.frames_total"), stats.frames);
        // Tombstoned frames are exactly the records gap (every survivor
        // in this workload decodes to a record).
        assert_eq!(stats.records, records.len() as u64);
        assert_eq!(stats.records + tombstoned, stats.frames);
        // Tombstones decompose into crash-consumed, backoff-dropped and
        // degraded-mode frames.
        let degraded_frames = tombstoned - crashes - backoff;
        assert!(degraded_frames > 0, "degraded workers saw no traffic");
    }

    #[test]
    fn checkpoints_cut_at_boundaries_and_resume_reproduces_tail() {
        let frames = frames_for(&query_msgs(300));
        let opts = PipelineOptions {
            checkpoint_interval_us: 60_000_000, // every virtual minute
            resume: None,
            faults: None,
            trace: None,
        };
        let mut full = Vec::new();
        let mut cuts = Vec::new();
        let (stats, _) = run_capture_pipeline_with(
            frames.clone().into_iter(),
            2,
            PaperScheme::paper(16),
            &Registry::disabled(),
            &opts,
            |r| full.push(r),
            |cp| cuts.push(cp),
        );
        assert_eq!(stats.records, 300);
        assert!(cuts.len() >= 4, "expected several checkpoint cuts");
        for w in cuts.windows(2) {
            assert!(w[0].records < w[1].records, "cuts advance");
            assert!(w[0].next_checkpoint_us <= w[1].virtual_us + 60_000_000);
        }
        // A cut's state is "everything before the boundary": each
        // checkpoint at boundary k*60s holds exactly the messages with
        // ts < boundary (one message per second here).
        let first = &cuts[0];
        assert_eq!(first.records, 60);
        assert_eq!(first.virtual_us, 59_000_000);

        // Resume from a middle checkpoint and replay: the tail must match
        // the uninterrupted run record-for-record, and the later cuts
        // must be identical too.
        let cp = cuts[1].clone();
        let scheme = PaperScheme::from_orders(
            16,
            ByteSelector::ALTERNATIVE,
            &cp.client_order,
            &cp.file_order,
        );
        let resume_opts = PipelineOptions {
            checkpoint_interval_us: 60_000_000,
            resume: Some(ResumePoint {
                records: cp.records,
                virtual_us: cp.virtual_us,
                next_checkpoint_us: cp.next_checkpoint_us,
            }),
            faults: None,
            trace: None,
        };
        let mut tail = Vec::new();
        let mut tail_cuts = Vec::new();
        let (rstats, _) = run_capture_pipeline_with(
            frames.into_iter(),
            4, // different worker count: output must not care
            scheme,
            &Registry::disabled(),
            &resume_opts,
            |r| tail.push(r),
            |c| tail_cuts.push(c),
        );
        assert_eq!(rstats.records, 300 - cp.records);
        assert_eq!(&full[cp.records as usize..], &tail[..]);
        assert_eq!(&cuts[2..], &tail_cuts[..], "resumed cuts diverge");
    }

    /// Serial reference: pipeline → `write_record`, checkpoints stamped
    /// with the writer offset as `repro soak` does.
    fn serial_dataset(
        frames: Vec<TimedFrame>,
        workers: usize,
        opts: &PipelineOptions,
    ) -> (Vec<u8>, Vec<(PipelineCheckpoint, u64)>, PipelineStats) {
        use std::cell::RefCell;
        let writer = RefCell::new(DatasetWriter::new(Vec::new()).unwrap());
        let cps = RefCell::new(Vec::new());
        let (stats, _) = run_capture_pipeline_with(
            frames.into_iter(),
            workers,
            PaperScheme::paper(16),
            &Registry::disabled(),
            opts,
            |r| writer.borrow_mut().write_record(&r).unwrap(),
            |cp| {
                let bytes = writer.borrow().bytes_written();
                cps.borrow_mut().push((cp, bytes));
            },
        );
        let bytes = writer.into_inner().finish().unwrap();
        (bytes, cps.into_inner(), stats)
    }

    fn batched_dataset(
        frames: Vec<TimedFrame>,
        workers: usize,
        opts: &PipelineOptions,
        tail: TailConfig,
        registry: &Registry,
    ) -> (Vec<u8>, Vec<(PipelineCheckpoint, u64)>, PipelineStats) {
        let mut cps = Vec::new();
        let (stats, _, writer) = run_capture_pipeline_batched(
            frames.into_iter(),
            workers,
            PaperScheme::paper(16),
            registry,
            opts,
            tail,
            DatasetWriter::new(Vec::new()).unwrap(),
            |cp, bytes| cps.push((cp, bytes)),
        )
        .unwrap();
        let bytes = writer.finish().unwrap();
        (bytes, cps, stats)
    }

    fn mixed_msgs(n: usize) -> Vec<(u32, Message)> {
        use etw_edonkey::search::SearchExpr;
        (0..n)
            .map(|i| {
                let m = match i % 4 {
                    0 => Message::GetSources {
                        file_ids: vec![FileId::of_identity(i as u64 % 17)],
                    },
                    1 => Message::SearchRequest {
                        expr: SearchExpr::keyword("pink floyd"),
                    },
                    2 => Message::StatusRequest {
                        challenge: i as u32,
                    },
                    _ => Message::GetServerList,
                };
                ((i % 31) as u32, m)
            })
            .collect()
    }

    #[test]
    fn batched_tail_is_byte_identical_to_serial() {
        let frames = frames_for(&mixed_msgs(300));
        let opts = PipelineOptions {
            checkpoint_interval_us: 60_000_000,
            resume: None,
            faults: None,
            trace: None,
        };
        let (serial, serial_cps, sstats) = serial_dataset(frames.clone(), 2, &opts);
        assert!(serial_cps.len() >= 3, "want several checkpoint cuts");
        // Batch size, queue depth and worker count must all be
        // invisible in the output — including the partial final batch
        // and a batch size of one.
        for (workers, tail) in [
            (
                1,
                TailConfig {
                    batch_records: 1,
                    batch_queue: 1,
                    anon_shards: 1,
                },
            ),
            (
                3,
                TailConfig {
                    batch_records: 7,
                    batch_queue: 2,
                    anon_shards: 1,
                },
            ),
            (2, TailConfig::default()),
            // Sharded anonymiser: the shard count must be invisible too,
            // including a batch size of one and the awkward batch 7.
            (
                2,
                TailConfig {
                    batch_records: 1,
                    batch_queue: 1,
                    anon_shards: 2,
                },
            ),
            (
                3,
                TailConfig {
                    batch_records: 7,
                    batch_queue: 2,
                    anon_shards: 4,
                },
            ),
            (
                1,
                TailConfig {
                    batch_records: 64,
                    batch_queue: 2,
                    anon_shards: 8,
                },
            ),
        ] {
            let (batched, cps, bstats) =
                batched_dataset(frames.clone(), workers, &opts, tail, &Registry::disabled());
            assert!(batched == serial, "diverged with {tail:?}");
            assert_eq!(cps, serial_cps, "checkpoints diverged with {tail:?}");
            assert_eq!(bstats.records, sstats.records);
            assert_eq!(bstats.query_records, sstats.query_records);
            assert_eq!(bstats.to_server, sstats.to_server);
            assert_eq!(bstats.from_server, sstats.from_server);
        }
    }

    #[test]
    fn writer_tail_reports_stage_ledgers() {
        let frames = frames_for(&mixed_msgs(200));
        for shards in [1usize, 4] {
            let registry = Registry::new();
            let (bytes, _, stats) = batched_dataset(
                frames.clone(),
                2,
                &PipelineOptions::default(),
                TailConfig {
                    batch_records: 32,
                    batch_queue: 4,
                    anon_shards: shards,
                },
                &registry,
            );
            let snap = registry.snapshot();
            let batches = stats.records.div_ceil(32);
            let fanned = batches * shards as u64;
            // Format and write: each batch once. Everything formatted got
            // written; the dataset is header + formatted bytes + footer.
            assert_eq!(snap.counter("stage.format.records_total"), stats.records);
            assert_eq!(snap.counter("stage.sink.records_total"), stats.records);
            assert_eq!(snap.counter("stage.format.batches_total"), batches);
            assert_eq!(snap.counter("stage.write.batches_total"), batches);
            let body = snap.counter("stage.format.bytes_total");
            assert_eq!(snap.counter("stage.write.bytes_total"), body);
            assert!(body > 0 && (body as usize) < bytes.len());
            assert_eq!(
                snap.histogram("stage.format.service_ns").unwrap().count,
                batches
            );
            assert_eq!(
                snap.histogram("stage.write.flush_ns").unwrap().count,
                batches
            );
            // Shard and assemble: every batch visits every shard; the
            // assembler reassembles each exactly once. The per-record
            // anonymise timing belongs to the serial tail alone.
            assert_eq!(snap.counter("anon.shard.batches_total"), fanned);
            assert_eq!(
                snap.histogram("stage.shard.service_ns").unwrap().count,
                fanned
            );
            assert_eq!(
                snap.histogram("stage.assemble.service_ns").unwrap().count,
                batches
            );
            assert!(snap.histogram("stage.anonymize.service_ns").is_none());
            // Each id is resolved by exactly one shard, so the summed
            // resolution counts cover at least one clientID per record
            // (the peer) without double counting. The mixed workload
            // carries fileIDs, so the probe ledger has work in it.
            assert!(snap.counter("anon.shard.client_ids_total") >= stats.records);
            assert!(stats.fileid_probes.inserts > 0 && stats.fileid_probes.probes > 0);
            // Per-shard balance ledgers (the monitor panel's feed): each
            // shard saw every batch exactly once, the per-shard
            // resolution counts tile the aggregates, and every backlog
            // drained.
            let mut cid_sum = 0;
            let mut fid_sum = 0;
            for s in 0..shards {
                assert_eq!(
                    snap.counter(&format!("anon.shard{s}.batches_total")),
                    batches,
                    "shard {s} batch count"
                );
                cid_sum += snap.counter(&format!("anon.shard{s}.client_ids_total"));
                fid_sum += snap.counter(&format!("anon.shard{s}.file_ids_total"));
                assert_eq!(snap.gauge(&format!("anon.shard{s}.queue_depth")), 0);
            }
            assert_eq!(cid_sum, snap.counter("anon.shard.client_ids_total"));
            assert_eq!(fid_sum, snap.counter("anon.shard.file_ids_total"));
            // Every tail queue fully drained at exit.
            for chan in ["fmt_in", "write_in", "shard_in", "shard_out", "asm_in"] {
                assert_eq!(
                    snap.gauge(&format!("chan.{chan}.depth")),
                    0,
                    "{chan} at {shards} shards"
                );
            }
        }
    }

    #[test]
    fn probe_ledger_matches_across_tails() {
        // Fig. 3's polluted stream under FIRST_TWO: forged ids pile into
        // bucket 0, so probes run deep and inserts shift.
        let msgs: Vec<(u32, Message)> = (0..240u64)
            .map(|i| {
                let file_ids = vec![
                    FileId::forged(i * 7 % 90, [0x00, 0x00]),
                    FileId::of_identity(i % 40),
                ];
                ((i % 23) as u32, Message::GetSources { file_ids })
            })
            .collect();
        let frames = frames_for(&msgs);
        let scheme = |cp: Option<&PipelineCheckpoint>| match cp {
            Some(cp) => PaperScheme::from_orders(
                16,
                ByteSelector::FIRST_TWO,
                &cp.client_order,
                &cp.file_order,
            ),
            None => PaperScheme::from_orders(16, ByteSelector::FIRST_TWO, &[], &[]),
        };
        let opts = |cp: Option<&PipelineCheckpoint>| PipelineOptions {
            checkpoint_interval_us: 60_000_000,
            resume: cp.map(|cp| ResumePoint {
                records: cp.records,
                virtual_us: cp.virtual_us,
                next_checkpoint_us: cp.next_checkpoint_us,
            }),
            faults: None,
            trace: None,
        };
        let serial = |cp: Option<&PipelineCheckpoint>| {
            let mut cuts = Vec::new();
            let (stats, _) = run_capture_pipeline_with(
                frames.clone().into_iter(),
                2,
                scheme(cp),
                &Registry::disabled(),
                &opts(cp),
                |_| {},
                |c| cuts.push(c),
            );
            (stats.fileid_probes, cuts)
        };
        let (fresh, cuts) = serial(None);
        assert_eq!(fresh.probes, 2 * 240);
        assert!(fresh.max_shift > 0 && fresh.max_probe_depth > 1);
        // The restored state is not the resumed run's work.
        let cut = &cuts[1];
        let (resumed, _) = serial(Some(cut));
        assert_eq!(resumed.probes, 2 * (240 - cut.records));
        for shards in [1usize, 4] {
            for (cp, expected) in [(None, fresh), (Some(cut), resumed)] {
                let (stats, _, _) = run_capture_pipeline_batched(
                    frames.clone().into_iter(),
                    2,
                    scheme(cp),
                    &Registry::disabled(),
                    &opts(cp),
                    TailConfig {
                        batch_records: 16,
                        batch_queue: 2,
                        anon_shards: shards,
                    },
                    DatasetWriter::new(Vec::new()).unwrap(),
                    |_, _| {},
                )
                .unwrap();
                assert_eq!(
                    stats.fileid_probes,
                    expected,
                    "{shards} shards, resumed: {}",
                    cp.is_some()
                );
            }
        }
    }

    #[test]
    fn sharded_tail_rejects_bad_shard_count() {
        let result = std::panic::catch_unwind(|| {
            batched_dataset(
                frames_for(&mixed_msgs(4)),
                1,
                &PipelineOptions::default(),
                TailConfig {
                    batch_records: 8,
                    batch_queue: 2,
                    anon_shards: 3,
                },
                &Registry::disabled(),
            )
        });
        assert!(result.is_err(), "non-power-of-two shard count must panic");
    }

    #[test]
    fn batched_tail_resumes_from_serial_checkpoint() {
        // A checkpoint cut by the serial tail restores into the batched
        // one (and vice versa): the cut protocol is tail-agnostic.
        let frames = frames_for(&mixed_msgs(300));
        let opts = PipelineOptions {
            checkpoint_interval_us: 60_000_000,
            resume: None,
            faults: None,
            trace: None,
        };
        let (full, cps, _) = serial_dataset(frames.clone(), 2, &opts);
        let (cp, cp_bytes) = cps[1].clone();
        let scheme = PaperScheme::from_orders(
            16,
            ByteSelector::ALTERNATIVE,
            &cp.client_order,
            &cp.file_order,
        );
        let resume_opts = PipelineOptions {
            checkpoint_interval_us: 60_000_000,
            resume: Some(ResumePoint {
                records: cp.records,
                virtual_us: cp.virtual_us,
                next_checkpoint_us: cp.next_checkpoint_us,
            }),
            faults: None,
            trace: None,
        };
        let prefix = full[..cp_bytes as usize].to_vec();
        let mut tail_cps = Vec::new();
        let (_, _, writer) = run_capture_pipeline_batched(
            frames.into_iter(),
            4,
            scheme,
            &Registry::disabled(),
            &resume_opts,
            TailConfig {
                batch_records: 5,
                batch_queue: 2,
                anon_shards: 4,
            },
            DatasetWriter::resume(prefix, cp.records, cp_bytes),
            |c, b| tail_cps.push((c, b)),
        )
        .unwrap();
        let rebuilt = writer.finish().unwrap();
        assert!(rebuilt == full, "resumed batched dataset diverges");
        assert_eq!(&cps[2..], &tail_cps[..]);
    }

    #[test]
    fn direction_counting_sees_both_directions() {
        // Hand-build one frame in each direction.
        let mut frames = Vec::new();
        for (dir, client) in [(Direction::ToServer, 7), (Direction::FromServer, 7)] {
            for f in encapsulate(
                Message::StatusRequest { challenge: 1 }.encode(),
                ClientId(client),
                4672,
                dir,
                1,
                1500,
            ) {
                frames.push(TimedFrame {
                    ts: VirtualTime::ZERO,
                    bytes: f.to_bytes(),
                });
            }
        }
        let (stats, records) = run(frames, 1);
        assert_eq!(records.len(), 2);
        assert_eq!(stats.to_server, 1);
        assert_eq!(stats.from_server, 1);
    }
}
