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
//! O(1) data structures. A reorder window indexed by sequence number
//! between the two restores deterministic capture order regardless of
//! worker interleaving.
//!
//! The decode front copies no frame: a worker parses each captured frame
//! in place ([`WireDecoder`]), and only IP fragments are copied, into
//! its reassembler. Buffers are freed on the thread that allocated them.
//! A worker hands each spent frame batch back to the producer, which
//! built the frames. The writer tail hands each spent message back to
//! the worker that decoded it. Both return queues are bounded and never
//! block: a buffer that finds its queue full is freed where it is.

use crate::wirepath::{fragment_key, frame_direction, Direction, Recovered, WireDecoder};
use crossbeam::channel::{Receiver, Sender};
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
use etw_telemetry::{Counter, Gauge, Registry};
use etw_trace::ring::{FlightRecorder, SpanRing};
use etw_trace::{
    file as trace_file, wall_now_ns, SpanEvent, SpanKind, StageId, StageProfile, StageTimer,
};
use etw_xmlout::encode;
use etw_xmlout::writer::DatasetWriter;
use std::collections::VecDeque;
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
        // Frames too short to tell default to the client→server side.
        match frame_direction(&self.bytes) {
            Some(Direction::FromServer) => LinkDirection::FromServer,
            Some(Direction::ToServer) | None => LinkDirection::ToServer,
        }
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
// `[producer, decode×W, seq, write, assemble, shard×S]`.
// Lanes for stages a particular tail does not spawn stay empty and
// merge away for free at dump time.
fn lane_decode(w: usize) -> usize {
    1 + w
}
fn lane_seq(n_workers: usize) -> usize {
    1 + n_workers
}
fn lane_write(n_workers: usize) -> usize {
    2 + n_workers
}
fn lane_assemble(n_workers: usize) -> usize {
    3 + n_workers
}
fn lane_shard(n_workers: usize, s: usize) -> usize {
    4 + n_workers + s
}

/// Per-shard ledger handles for the anonymiser pool, feeding the
/// `etwtool monitor` shard-balance panel. Every shard sees every batch,
/// so skew in `client_ids_total`/`file_ids_total`/`busy_ns_total` (the
/// shard's span time) exposes a hot shard, and `queue_depth`
/// (maintained at the broadcast send and the worker receive) exposes
/// the backlog behind it. Built outside the worker loops so the name
/// formatting never allocates per batch.
struct ShardLaneMetrics {
    client_ids: Counter,
    file_ids: Counter,
    busy_ns: Counter,
    queue_depth: Gauge,
}

fn shard_lane_metrics(registry: &Registry, sindex: usize) -> ShardLaneMetrics {
    ShardLaneMetrics {
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
            recorder: FlightRecorder::new(4 + n_workers + n_shards, t.ring_slots),
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
/// [`StageProfile`] (the stage's one timer) plus an optional
/// flight-recorder lane. Every method degenerates to a no-op when the
/// registry is disabled and tracing is off.
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

    /// Starts the wait phase; call before blocking on the input queue,
    /// and again after a downstream send, which is neither.
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
    /// Returns the service nanoseconds (0 with a disabled registry).
    fn service_end(&self, t: &mut StageTimer, arg: u32, virtual_us: u64, wall0: u64) -> u64 {
        let ns = self.profile.note_service(t);
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
        ns
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
    /// the shard pool as one unit. Larger batches
    /// amortise channel traffic and counter updates; smaller batches cut
    /// the latency between decode and disk. The default keeps a batch
    /// comfortably inside L2 while leaving per-batch overhead in the
    /// noise.
    pub batch_records: usize,
    /// Capacity, in items (batches and checkpoint cuts), of each
    /// shard's input queue (`shard_in`) and of the write stage's
    /// (`write_in`); each shard's output queue (`shard_out`), which the
    /// assembler reads, holds two. Bounds how far the reorder stage may
    /// run ahead of the disk, and the number of live batch buffers,
    /// which two recycling pools keep: record vectors, `batch_queue + 2`
    /// (a full `write_in`, one in the write stage's hands, one in the
    /// assembler's), and shard batches, `batch_queue + 5` plus one per
    /// decode worker (a full `shard_in` and `shard_out`, one in a
    /// shard's hands, one in the assembler's, and the reorder stage's
    /// filling batch plus those one reorder span stages).
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

impl PipelineCheckpoint {
    /// Completes the cut the reorder stage made at `at` with the
    /// anonymiser's appearance orders.
    fn at(at: ResumePoint, client_order: Vec<u32>, file_order: Vec<FileId>) -> Self {
        PipelineCheckpoint {
            virtual_us: at.virtual_us,
            next_checkpoint_us: at.next_checkpoint_us,
            records: at.records,
            client_order,
            file_order,
        }
    }
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
    /// The decode worker that allocated `msg`, where the writer tail
    /// sends it once spent ([`SpentMsgs`]).
    worker: usize,
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

/// A frame batch on its way from the producer to a decode worker: each
/// frame with its sequence number.
type FrameBatch = Vec<(u64, TimedFrame)>;

/// Messages per run on a decode worker's spent-message queue, and runs
/// the queue holds. A worker frees its queue only between frame
/// batches, so the queue takes the runs that arrive while it decodes or
/// waits on its channels: at four runs, about one run in eight found it
/// full on steady-2k; at eight, about one in twenty-five.
const SPENT_RUN: usize = 128;
const SPENT_QUEUE: usize = 8;

/// The way home for spent messages. The writer tail hands each message
/// it is done with back to the decode worker that allocated it, in runs
/// of [`SPENT_RUN`], and the worker frees it on its own thread: the
/// allocator frees a block from another thread at a higher cost. A run
/// that finds its worker's queue full, or the worker gone, is dropped
/// where it is; nothing blocks.
struct SpentMsgs {
    runs: Vec<Vec<DecodedMsg>>,
    homes: Vec<Sender<Vec<DecodedMsg>>>,
}

impl SpentMsgs {
    /// One queue per decode worker: the tail's sending side, and the
    /// receivers [`run_front`] hands the workers.
    fn new(n_workers: usize) -> (SpentMsgs, Vec<Receiver<Vec<DecodedMsg>>>) {
        let (homes, receivers) = (0..n_workers)
            // etwlint: allow(no-unbounded-channel): bounded recycling pool, not a work queue — try_send/try_recv only, never blocks
            .map(|_| crossbeam::channel::bounded(SPENT_QUEUE))
            .unzip();
        let runs = (0..n_workers)
            .map(|_| Vec::with_capacity(SPENT_RUN))
            .collect();
        (SpentMsgs { runs, homes }, receivers)
    }

    /// Empties `msgs`, sending each message toward its worker.
    fn send_home(&mut self, msgs: &mut Vec<DecodedMsg>) {
        for d in msgs.drain(..) {
            let w = d.worker;
            let run = &mut self.runs[w];
            run.push(d);
            if run.len() >= SPENT_RUN {
                let full = std::mem::replace(run, Vec::with_capacity(SPENT_RUN));
                let _ = self.homes[w].try_send(full);
            }
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
/// producer, decode, reorder and sink names, plus the timers of its
/// shard, assemble and write stages, `stage.write.*_total`,
/// `anon.shard<i>.*` and the `chan.*` series of its own queues.
///
/// * `stage.{decode,reorder}.latency_ns` / `.queue_wait_ns` — each
///   stage's one timer: service per batch (the reorder span includes
///   the anonymiser) and time blocked on input;
/// * `stage.producer.frames_total` — frames routed to workers;
/// * `chan.decode_in.*` / `chan.decode_out.*` — queue depth, messages,
///   and backpressure stalls of the worker input and output channels
///   (input metrics aggregate over all workers);
/// * `stage.decode.frames_total` — decode worker throughput;
/// * `stage.reorder.depth`, `stage.reorder.depth_hwm` — reorder-buffer
///   occupancy (a growing value means one worker lags its siblings);
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
/// * **Checkpoints** — with a nonzero interval, the reorder stage both
///   tails share cuts a [`PipelineCheckpoint`] the moment it meets the
///   first message at or past the boundary (so the cut state is exactly
///   "everything before this message"), then arms the next boundary
///   past that message's timestamp.
/// * **Resume** — with [`PipelineOptions::resume`], the same shared
///   reorder stage replays the deterministic frame stream but consumes
///   the first `records` messages without handing them to the tail (the
///   anonymiser state was restored from the checkpoint), then continues
///   exactly where the interrupted run left off.
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
    let trace_ctx = opts
        .trace
        .as_ref()
        .map(|t| TraceCtx::new(t, n_workers, 0, registry));
    // The serial tail anonymises inside the reorder span.
    let emit = |step: Step| {
        match step {
            Step::Cut(at) => on_checkpoint(PipelineCheckpoint::at(
                at,
                scheme.client_encoder().appearance_order(),
                scheme.file_encoder().appearance_order(),
            )),
            Step::Msg(d) => on_record(scheme.anonymize(d.ts.0, d.peer, &d.msg)),
            Step::SpanClosed => {}
        }
        true
    };
    // Messages die here, after anonymisation: no return queues.
    let (mut stats, _) = crossbeam::thread::scope(|scope| {
        run_front(
            scope,
            frames,
            n_workers,
            registry,
            opts,
            trace_ctx.as_ref(),
            Vec::new(),
            emit,
        )
    })
    // etwlint: allow(no-panic-hot-path): crossbeam scope() errs only when
    // a child panicked; re-raising is panic propagation.
    .expect("pipeline scope panicked");

    stats.fileid_probes = scheme.file_encoder().probe_stats();
    (stats, scheme)
}

/// A unit of work for the write stage, in strict capture order.
enum FormatItem {
    /// A run of anonymised records to encode and write.
    Batch(Vec<AnonRecord>),
    /// A checkpoint cut, stamped with the dataset offset of everything
    /// written before it.
    Checkpoint(PipelineCheckpoint),
}

/// Spawns a pipeline stage thread named `etw-<stage>`, with the worker
/// or shard index appended for the stages that run several
/// (`etw-decode0`, `etw-shard3`), so per-thread tools such as `top -H`
/// show which stage a thread runs. Every name fits Linux's 15-byte
/// thread-name limit.
fn spawn_stage<'scope, 'env, T: Send + 'scope>(
    scope: &crossbeam::thread::Scope<'scope, 'env>,
    stage: StageId,
    index: Option<usize>,
    f: impl FnOnce() -> T + Send + 'scope,
) -> crossbeam::thread::ScopedJoinHandle<'scope, T> {
    let name = match index {
        Some(i) => format!("etw-{}{i}", stage.name()),
        None => format!("etw-{}", stage.name()),
    };
    debug_assert!(name.len() <= 15, "thread name {name} is cut by Linux");
    scope
        .builder()
        .name(name)
        .spawn(move |_| f())
        // etwlint: allow(no-panic-hot-path): the OS refused a thread at
        // pipeline start-up, before any frame moved; `Scope::spawn`
        // panics the same way.
        .expect("spawn pipeline stage")
}

/// Spawns the write stage, the writer tail's last: it encodes each
/// record batch into one reused byte buffer with the zero-alloc encoder,
/// writes it through [`DatasetWriter::write_encoded`] and stamps each
/// checkpoint with [`DatasetWriter::bytes_written`] when the cut reaches
/// it. The emptied record vectors go back to the pool with their
/// contents: the assembler overwrites records in place, so the stale
/// records *are* its allocation pool. After an io error the stage stops
/// encoding, writing and handing out cuts, but keeps draining so
/// upstream never stalls.
fn spawn_write_stage<'scope, 'env, W, F>(
    scope: &crossbeam::thread::Scope<'scope, 'env>,
    registry: &Registry,
    rx: MeteredReceiver<FormatItem>,
    rec_pool_back: crossbeam::channel::Sender<Vec<AnonRecord>>,
    writer: DatasetWriter<W>,
    mut on_checkpoint: F,
    lane: Option<TraceLane>,
) -> crossbeam::thread::ScopedJoinHandle<'scope, (DatasetWriter<W>, Option<io::Error>)>
where
    W: Write + Send + 'scope,
    F: FnMut(PipelineCheckpoint, u64) + Send + 'scope,
{
    let written_batches = registry.counter("stage.write.batches_total");
    let written_bytes = registry.counter("stage.write.bytes_total");
    let trace = StageTrace::new(registry, StageId::Write, lane);
    spawn_stage(scope, StageId::Write, None, move || {
        let mut w = writer;
        let mut io_err: Option<io::Error> = None;
        let mut buf = Vec::new();
        let mut pt = trace.begin();
        while let Ok(item) = rx.recv() {
            let w0 = trace.service_begin(&mut pt);
            let (records, virtual_us) = match item {
                FormatItem::Batch(recs) => {
                    let records = recs.len() as u64;
                    if io_err.is_none() {
                        buf.clear();
                        encode::encode_batch(&mut buf, &recs);
                        match w.write_encoded(&buf, records) {
                            Ok(()) => {
                                written_batches.inc();
                                written_bytes.add(buf.len() as u64);
                            }
                            Err(e) => io_err = Some(e),
                        }
                    }
                    let last_us = recs.last().map_or(0, |r| r.ts_us);
                    let _ = rec_pool_back.try_send(recs);
                    (records, last_us)
                }
                FormatItem::Checkpoint(cp) => {
                    let at = (cp.records, cp.virtual_us);
                    if io_err.is_none() {
                        on_checkpoint(cp, w.bytes_written());
                    }
                    at
                }
            };
            trace.service_end(&mut pt, records as u32, virtual_us, w0);
        }
        (w, io_err)
    })
}

/// One staged run of messages travelling through the shard pool to the
/// assembler. The flat id arrays are the visit pass's output: every
/// clientID/fileID the anonymiser will touch, in encoder order, so the
/// shards scan plain arrays instead of message trees. Shared by `Arc`:
/// each shard reads it and passes its handle on with its resolutions;
/// the assembler reads it last and reclaims the buffers.
struct ShardBatch {
    msgs: Vec<DecodedMsg>,
    client_ids: Vec<u32>,
    file_ids: Vec<FileId>,
}

impl ShardBatch {
    fn with_capacity(records: usize) -> ShardBatch {
        ShardBatch {
            msgs: Vec::with_capacity(records),
            client_ids: Vec::new(),
            file_ids: Vec::new(),
        }
    }

    /// A stage span's arguments for this batch: its records and the
    /// virtual time of the last one.
    fn span_args(&self) -> (u32, u64) {
        (
            self.msgs.len() as u32,
            self.msgs.last().map_or(0, |d| d.ts.0),
        )
    }
}

/// An item on a shard's ordered queues, in capture order. Every shard
/// gets every item: a batch, which it answers with its resolutions, or
/// a checkpoint cut, which it passes on unchanged.
#[derive(Clone)]
enum ShardItem<B> {
    Batch(B),
    Cut(ResumePoint),
}

/// A shard's sparse resolutions for one batch, clientIDs and fileIDs:
/// `(index into the batch's id array, striped provisional)`. The vectors
/// go back to their shard for reuse.
type ResVecs = (Vec<(u32, u32)>, Vec<(u32, u64)>);

/// One shard's answer to one batch: the batch handle, passed on, and the
/// shard's resolutions.
type Resolved = (Arc<ShardBatch>, ResVecs);

/// Capacity, in items, of each shard's output queue (`shard_out`): the
/// shard resolves the next batch while the assembler takes the last.
const SHARD_OUT_QUEUE: usize = 2;

/// The writer tail's side of the reorder stage. Inside the reorder span
/// the visit pass stages messages into batches of
/// [`TailConfig::batch_records`], and the batches and checkpoint cuts
/// the span releases wait in `items`, in capture order. [`Outbox::send`]
/// hands them to every shard once the span has closed, so a blocked
/// send is a channel stall, never reorder time. Dropping the outbox
/// hangs up the shards, and through them the assembler.
struct Outbox {
    cur: ShardBatch,
    items: Vec<ShardItem<Arc<ShardBatch>>>,
    batch_records: usize,
    pool: crossbeam::channel::Receiver<ShardBatch>,
    /// Each shard's input queue, with its `anon.shard<i>.queue_depth`.
    shards: Vec<(MeteredSender<ShardItem<Arc<ShardBatch>>>, Gauge)>,
}

impl Outbox {
    /// Runs the visit pass over `d` and stages it, closing the batch
    /// once it is full.
    fn push(&mut self, d: DecodedMsg) {
        let cur = &mut self.cur;
        collect_ids(d.peer, &d.msg, &mut cur.client_ids, &mut cur.file_ids);
        cur.msgs.push(d);
        if cur.msgs.len() >= self.batch_records {
            self.close_batch();
        }
    }

    /// Queues a checkpoint cut behind the staged run, so the cut covers
    /// exactly the messages before it.
    fn cut(&mut self, at: ResumePoint) {
        self.close_batch();
        self.items.push(ShardItem::Cut(at));
    }

    /// Queues the staged run, if any, as the next batch.
    fn close_batch(&mut self) {
        if self.cur.msgs.is_empty() {
            return;
        }
        let mut next = self
            .pool
            .try_recv()
            .unwrap_or_else(|| ShardBatch::with_capacity(self.batch_records));
        next.msgs.clear();
        next.client_ids.clear();
        next.file_ids.clear();
        let batch = std::mem::replace(&mut self.cur, next);
        self.items.push(ShardItem::Batch(Arc::new(batch)));
    }

    /// Sends the queued items in capture order, each to every shard.
    /// The last shard takes the outbox's own batch handle, so once every
    /// shard has passed its handle on the assembler holds the only one.
    /// Returns `false` once a shard is gone.
    fn send(&mut self) -> bool {
        let Some((last, rest)) = self.shards.split_last() else {
            return false;
        };
        let send = |(tx, depth): &(MeteredSender<_>, Gauge), item| {
            let sent = tx.send(item).is_ok();
            if sent {
                depth.add(1);
            }
            sent
        };
        self.items
            .drain(..)
            .all(|item| rest.iter().all(|s| send(s, item.clone())) && send(last, item))
    }
}

/// [`run_capture_pipeline_with`] with the serial tail replaced by the
/// batched, overlapped writer tail. Downstream of the decode workers,
/// every stage runs concurrently:
///
/// ```text
///                      ┌► shard 0 ───┐
/// reorder ─► visit ────┼► ...        ├─► assemble ─► write
///   (seq)    (ids)     └► shard S-1 ─┘   (lockstep,   (encode +
///                                         remap +      write_encoded)
///                                         construct)
/// ```
///
/// * The reorder stage, the serial tail's own, restores capture order
///   through its window over the sequence space, cuts checkpoints and
///   consumes the resume prefix. Inside its span the tail runs the
///   visit pass ([`collect_ids`]) while staging
///   [`TailConfig::batch_records`] messages per batch, and queues the
///   batches and cuts in an outbox. Once the span has closed, it hands
///   every item to every shard, in capture order.
/// * [`TailConfig::anon_shards`] shard workers resolve the ids they own
///   to striped provisionals: clientIDs split by low id bits, fileIDs by
///   low bucket-index bits (see [`etw_anonymize::shard`]). One shard
///   owns both id spaces whole. Each shard answers a batch with its
///   resolutions and passes a cut on unchanged, into its own ordered
///   output queue.
/// * The assembler reads the S output queues in lockstep, so each round
///   is one batch or one cut. It remaps a batch's provisionals to global
///   appearance orders, constructs the records with allocation reuse,
///   and fills a cut with its orders. It then sends the batch's spent
///   messages back to the decode workers that allocated them.
/// * The write stage encodes each batch into one reused byte buffer
///   with [`encode::encode_batch`] — byte-identical to
///   [`DatasetWriter::write_record`], zero heap allocations per record
///   in steady state — and writes it through
///   [`DatasetWriter::write_encoded`] (`stage.write.*_total`), strictly
///   in sequence. The output is therefore byte-identical to the serial
///   tail for every shard count and `.etwckpt` offsets stay valid: a
///   checkpoint cut travels through the ordered queues as a marker and
///   `on_checkpoint` fires on the write stage's thread with
///   [`DatasetWriter::bytes_written`] at exactly the cut's offset.
///
/// The tail runs `S + 2` threads beside the reorder stage: the shards,
/// the assembler and the write stage, named `etw-shard<s>`,
/// `etw-assemble` and `etw-write` (the front's are `etw-producer` and
/// `etw-decode<w>`). Every stage times its own work only: the assembler
/// opens its span once it holds every shard's result, and each stage
/// closes its span before the downstream send and restarts the timer
/// after it, so a blocked send shows only in `chan.<out>.stall_ns_total`.
///
/// Checkpoint cuts flush the staged run first, so the captured encoder
/// state covers precisely "everything before the boundary message", as
/// in the serial tail. The returned scheme is rebuilt from the
/// assembler's final orders. After a writer io error the write stage
/// drains the tail without encoding, writing or handing out cuts, and
/// the pipeline returns the error.
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

    let trace_ctx = opts
        .trace
        .as_ref()
        .map(|t| TraceCtx::new(t, n_workers, n_shards, registry));
    let (stats, writer, io_err, asm) = crossbeam::thread::scope(|scope| {
        // Tail plumbing. Metered, bounded work queues; unmetered bounded
        // pool channels flow emptied buffers back upstream so steady
        // state reuses the same allocations forever.
        let pool_cap = tail.batch_queue + 2;
        let (write_tx, write_rx) =
            metered_bounded::<FormatItem>(tail.batch_queue, registry, "write_in");
        // etwlint: allow(no-unbounded-channel): bounded recycling pool, not a work queue — try_send/try_recv only, never blocks
        let (rec_pool_tx, rec_pool_rx) = crossbeam::channel::bounded::<Vec<AnonRecord>>(pool_cap);
        // The shard-batch pool holds every batch that can be live at
        // once, as a smaller one drops and reallocates batches: a full
        // `shard_in`, one in a shard's hands, a full `shard_out`, one in
        // the assembler's round, the outbox's filling batch, and the
        // batches one reorder span stages. A span that fills a reorder
        // hole releases the decode batches held behind it, one per
        // other worker in steady state, so it stages up to `n_workers`.
        let batch_cap = tail.batch_queue + 1 + SHARD_OUT_QUEUE + 1 + 1 + n_workers;
        // etwlint: allow(no-unbounded-channel): bounded recycling pool, as above
        let (batch_pool_tx, batch_pool_rx) = crossbeam::channel::bounded::<ShardBatch>(batch_cap);
        for _ in 0..pool_cap {
            let _ = rec_pool_tx.try_send(Vec::with_capacity(tail.batch_records));
        }

        let write_stage = spawn_write_stage(
            scope,
            registry,
            write_rx,
            rec_pool_tx,
            writer,
            on_checkpoint,
            trace_ctx.as_ref().map(|c| c.lane(lane_write(n_workers), 0)),
        );

        // Shard pool: every worker owns a disjoint slice of both id
        // spaces and resolves each batch independently — no shared
        // state, no locks. Each shard has one ordered input queue and
        // one ordered output queue; all shards' queues share the
        // "shard_in" and "shard_out" metrics (like "decode_in"), and
        // each shard gets its resolution vectors back on its own pool.
        let mut shard_txs = Vec::with_capacity(n_shards);
        let mut shard_outs = Vec::with_capacity(n_shards);
        let mut shard_handles = Vec::with_capacity(n_shards);
        for (sindex, mut set) in shard_sets.into_iter().enumerate() {
            let (tx, rx) = metered_bounded::<ShardItem<Arc<ShardBatch>>>(
                tail.batch_queue,
                registry,
                "shard_in",
            );
            let (out, out_rx) =
                metered_bounded::<ShardItem<Resolved>>(SHARD_OUT_QUEUE, registry, "shard_out");
            // etwlint: allow(no-unbounded-channel): bounded recycling pool, as above
            let (res_back, res_pool) = crossbeam::channel::bounded::<ResVecs>(SHARD_OUT_QUEUE + 2);
            let lane_metrics = shard_lane_metrics(registry, sindex);
            shard_txs.push((tx, lane_metrics.queue_depth.clone()));
            shard_outs.push((out_rx, res_back));
            let trace = StageTrace::new(
                registry,
                StageId::Shard,
                trace_ctx
                    .as_ref()
                    .map(|c| c.lane(lane_shard(n_workers, sindex), sindex as u16)),
            );
            let handle = spawn_stage(scope, StageId::Shard, Some(sindex), move || {
                let mut pt = trace.begin();
                while let Ok(item) = rx.recv() {
                    lane_metrics.queue_depth.add(-1);
                    let w0 = trace.service_begin(&mut pt);
                    let (answer, arg, virtual_us) = match item {
                        ShardItem::Batch(batch) => {
                            let (mut clients, mut files) = res_pool.try_recv().unwrap_or_default();
                            set.resolve_batch(
                                &batch.client_ids,
                                &batch.file_ids,
                                &mut clients,
                                &mut files,
                            );
                            lane_metrics.client_ids.add(clients.len() as u64);
                            lane_metrics.file_ids.add(files.len() as u64);
                            let (arg, last_us) = batch.span_args();
                            (ShardItem::Batch((batch, (clients, files))), arg, last_us)
                        }
                        ShardItem::Cut(at) => {
                            (ShardItem::Cut(at), at.records as u32, at.virtual_us)
                        }
                    };
                    let busy = trace.service_end(&mut pt, arg, virtual_us, w0);
                    lane_metrics.busy_ns.add(busy);
                    if out.send(answer).is_err() {
                        break;
                    }
                    pt = trace.begin();
                }
                set
            });
            shard_handles.push(handle);
        }

        // Assembler: one round per item, reading the shards' output
        // queues in lockstep. Every shard passes its items on in the
        // order it got them, so the round holds every shard's answer to
        // one batch, or one cut S times. A batch is scattered, remapped
        // to final appearance orders and constructed into records in
        // place; a cut is filled with the orders. Either goes on to the
        // write stage.
        let asm_trace = StageTrace::new(
            registry,
            StageId::Assemble,
            trace_ctx
                .as_ref()
                .map(|c| c.lane(lane_assemble(n_workers), 0)),
        );
        let (mut spent, spent_queues) = SpentMsgs::new(n_workers);
        let asm_thread = spawn_stage(scope, StageId::Assemble, None, move || {
            let mut asm = assembler;
            let mut round: Vec<Resolved> = Vec::with_capacity(n_shards);
            let mut pt = asm_trace.begin();
            'rounds: loop {
                let mut cut = None;
                for (rx, _) in &shard_outs {
                    match rx.recv() {
                        Ok(ShardItem::Batch(r)) => round.push(r),
                        Ok(ShardItem::Cut(at)) => cut = Some(at),
                        // The outbox hung up, or a shard panicked.
                        Err(_) => break 'rounds,
                    }
                }
                debug_assert!(cut.is_none() || round.is_empty(), "shards out of step");
                let w0 = asm_trace.service_begin(&mut pt);
                let item = match cut {
                    Some(at) => {
                        let cp = PipelineCheckpoint::at(
                            at,
                            // etwlint: allow(no-alloc-hot-loop): checkpoint cut — runs once per interval, not per record
                            asm.client_order().to_vec(),
                            // etwlint: allow(no-alloc-hot-loop): checkpoint cut, as above
                            asm.file_order().to_vec(),
                        );
                        asm_trace.service_end(&mut pt, at.records as u32, at.virtual_us, w0);
                        FormatItem::Checkpoint(cp)
                    }
                    None => {
                        let batch = &round[0].0;
                        debug_assert!(round.iter().all(|(b, _)| Arc::ptr_eq(b, batch)));
                        // The pooled record vector keeps its previous
                        // batch's records: construct overwrites them in
                        // place (see anonymize_batch_reuse).
                        let mut recs = rec_pool_rx.try_recv().unwrap_or_default();
                        asm.begin_batch(batch.client_ids.len(), batch.file_ids.len());
                        for (_, (clients, files)) in &round {
                            asm.apply_clients(clients);
                            asm.apply_files(files);
                        }
                        asm.finish_batch(&batch.client_ids, &batch.file_ids);
                        asm.construct(
                            batch.msgs.iter().map(|d| (d.ts.0, d.peer, &d.msg)),
                            &mut recs,
                        );
                        let (arg, last_us) = batch.span_args();
                        // Each shard gets its vectors back; the batch's
                        // last handle reclaims its buffers.
                        let mut last = None;
                        for ((batch, res), (_, res_back)) in round.drain(..).zip(&shard_outs) {
                            let _ = res_back.try_send(res);
                            last = Some(batch);
                        }
                        // Its messages go home to their decode workers.
                        let reclaimed = last.map(Arc::try_unwrap);
                        debug_assert!(matches!(reclaimed, Some(Ok(_))), "batch handle leaked");
                        if let Some(Ok(mut b)) = reclaimed {
                            spent.send_home(&mut b.msgs);
                            let _ = batch_pool_tx.try_send(b);
                        }
                        asm_trace.service_end(&mut pt, arg, last_us, w0);
                        FormatItem::Batch(recs)
                    }
                };
                if write_tx.send(item).is_err() {
                    break;
                }
                pt = asm_trace.begin();
            }
            asm
        });

        // Inside the reorder span the visit pass fills the outbox; the
        // fan-out waits for the span to close.
        let mut outbox = Outbox {
            cur: ShardBatch::with_capacity(tail.batch_records),
            items: Vec::new(),
            batch_records: tail.batch_records,
            pool: batch_pool_rx,
            shards: shard_txs,
        };
        let emit = |step: Step| {
            match step {
                Step::Cut(at) => outbox.cut(at),
                Step::Msg(d) => outbox.push(d),
                Step::SpanClosed => return outbox.send(),
            }
            true
        };
        let (mut stats, live) = run_front(
            scope,
            frames,
            n_workers,
            registry,
            opts,
            trace_ctx.as_ref(),
            spent_queues,
            emit,
        );
        if live {
            // The final partial batch.
            outbox.close_batch();
            outbox.send();
        }
        drop(outbox);

        // Shutdown order follows the data: shards, assembler, write
        // stage. The shards own disjoint buckets, so their probe ledgers
        // sum to the serial encoder's.
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
        let (w, io_err) = write_stage.join().expect("write stage panicked");
        (stats, w, io_err, asm)
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

/// What the reorder stage hands its tail, in capture order.
enum Step {
    /// A checkpoint cut: the tail's state covers exactly the messages
    /// handed on before this step.
    Cut(ResumePoint),
    /// The next message past the resume point.
    Msg(DecodedMsg),
    /// The reorder span has closed: what the tail does now, such as the
    /// writer tail's fan-out, is neither the stage's service nor its
    /// queue wait.
    SpanClosed,
}

/// The reorder stage both tails share, run on the calling thread. It
/// restores sequence order over the decode front's batches through a
/// window over the sequence space (slot `i` holds step `next_seq + i`
/// once it has arrived), cuts each checkpoint before the first message
/// at or past its boundary, consumes the resume prefix (the first
/// `ResumePoint::records` messages) without handing it on, and keeps
/// the sink ledgers (`stats` and `stage.sink.*`) and the
/// `stage.reorder.depth*` gauges, published once per span. `emit`
/// returns `false` once the tail's downstream is gone: the stage then
/// keeps draining, so the decode front never deadlocks, but hands
/// nothing further on. Returns the sequence steps drained and whether
/// the downstream is still live.
fn reorder_stage(
    batches: impl IntoIterator<Item = Vec<WorkerStep>>,
    registry: &Registry,
    opts: &PipelineOptions,
    lane: Option<TraceLane>,
    stats: &mut PipelineStats,
    mut emit: impl FnMut(Step) -> bool,
) -> (u64, bool) {
    let trace = StageTrace::new(registry, StageId::Reorder, lane);
    let depth = registry.gauge("stage.reorder.depth");
    let depth_hwm = registry.gauge("stage.reorder.depth_hwm");
    let sink = [
        registry.counter("stage.sink.records_total"),
        registry.counter("stage.sink.queries_total"),
        registry.counter("stage.sink.to_server_total"),
        registry.counter("stage.sink.from_server_total"),
    ];
    let ledger = |s: &PipelineStats| [s.records, s.query_records, s.to_server, s.from_server];
    let mut published = ledger(stats);
    let interval = opts.checkpoint_interval_us;
    let (skip, mut last_ts, mut next_cp) = match &opts.resume {
        Some(r) => (r.records, r.virtual_us, r.next_checkpoint_us),
        None => (0, 0, interval),
    };
    // Messages consumed since *stream* start, skipped ones included,
    // so checkpoint record counts agree between full and resumed runs.
    let mut consumed = 0u64;
    // The reorder window starts at the next step to hand on and reaches
    // the furthest step that has arrived; `None` marks a step still in
    // flight. `held` counts the arrived ones.
    let mut window: VecDeque<Option<Option<DecodedMsg>>> = VecDeque::new();
    let mut held = 0usize;
    let mut next_seq = 0u64;
    let mut live = true;
    let mut pt = trace.begin();
    for batch in batches {
        let w0 = trace.service_begin(&mut pt);
        for (seq, decoded) in batch {
            debug_assert!(seq >= next_seq, "sequence step {seq} arrived twice");
            let i = (seq - next_seq) as usize;
            if i >= window.len() {
                window.resize_with(i + 1, || None);
            }
            window[i] = Some(decoded);
            held += 1;
        }
        while let Some(decoded) = window.front_mut().and_then(Option::take) {
            window.pop_front();
            held -= 1;
            next_seq += 1;
            let Some(d) = decoded else { continue };
            if interval > 0 && d.ts.0 >= next_cp {
                // Cut *before* consuming this message: the state is
                // exactly "everything through the previous message".
                // During the resume skip phase this never fires: the
                // restored boundary lies past every skipped message.
                next_cp = (d.ts.0 / interval + 1) * interval;
                trace.event_dump(SpanKind::Checkpoint, "checkpoint", consumed as u32, last_ts);
                if live {
                    live = emit(Step::Cut(ResumePoint {
                        records: consumed,
                        virtual_us: last_ts,
                        next_checkpoint_us: next_cp,
                    }));
                }
            }
            consumed += 1;
            last_ts = d.ts.0;
            // Resume replay: the interrupted run already wrote this
            // message, and its effects live in the restored anonymiser
            // state. A tail whose downstream is gone gets nothing more.
            if consumed <= skip || !live {
                continue;
            }
            stats.records += 1;
            stats.query_records += u64::from(d.msg.is_client_to_server());
            match d.direction {
                Direction::ToServer => stats.to_server += 1,
                Direction::FromServer => stats.from_server += 1,
            }
            live = emit(Step::Msg(d));
        }
        let now = ledger(stats);
        for (i, counter) in sink.iter().enumerate() {
            counter.add(now[i] - published[i]);
        }
        published = now;
        depth.set(held as i64);
        if held as i64 > depth_hwm.get() {
            depth_hwm.set(held as i64);
        }
        trace.service_end(&mut pt, held as u32, last_ts, w0);
        if live {
            live = emit(Step::SpanClosed);
        }
        pt = trace.begin();
    }
    (next_seq, live)
}

/// The one way both tails reach the decode front. Spawns the routing
/// producer and the decode workers into `scope`, runs [`reorder_stage`]
/// over their output into `emit` on the calling thread, then joins the
/// front and counts the reorder holes. Fault injection, shedding and
/// sequence assignment therefore behave identically in the two tails.
/// Each worker hands its spent frame batches back to the producer, which
/// allocated the frames, and frees the spent messages that reach it on
/// its queue in `spent_queues` (one per worker, or none for a tail that
/// drops its messages itself). Returns the pipeline statistics, all but
/// the tail's probe ledger, and whether the tail's downstream is still
/// live.
#[allow(clippy::too_many_arguments)]
fn run_front<'scope, 'env, I>(
    scope: &crossbeam::thread::Scope<'scope, 'env>,
    frames: I,
    n_workers: usize,
    registry: &Registry,
    opts: &PipelineOptions,
    trace_ctx: Option<&Arc<TraceCtx>>,
    spent_queues: Vec<Receiver<Vec<DecodedMsg>>>,
    emit: impl FnMut(Step) -> bool,
) -> (PipelineStats, bool)
where
    I: Iterator<Item = TimedFrame> + Send + 'scope,
{
    if opts
        .faults
        .as_ref()
        .is_some_and(|plan| plan.crash_every > 0)
    {
        silence_injected_crashes();
    }
    let (out_tx, out_rx) =
        metered_bounded::<Vec<WorkerStep>>(2 * FRAME_QUEUE, registry, "decode_out");
    // Spent frame batches go home to the producer. The queue holds every
    // batch that can be out at once (per worker, a full input queue, one
    // in the worker's hands and one filling at the producer), so none is
    // dropped; the producer empties all that have come back each time it
    // ships a batch.
    let frames_out = n_workers * (FRAME_QUEUE + 2);
    // etwlint: allow(no-unbounded-channel): bounded recycling pool, not a work queue — try_send/try_recv only, never blocks
    let (frames_home, frame_pool) = crossbeam::channel::bounded::<FrameBatch>(frames_out);
    let mut spent_queues = spent_queues.into_iter();
    let mut worker_txs = Vec::with_capacity(n_workers);
    let mut handles = Vec::with_capacity(n_workers);
    let decoded_frames = registry.counter("stage.decode.frames_total");
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
        let (tx, rx) = metered_bounded::<FrameBatch>(FRAME_QUEUE, registry, "decode_in");
        worker_txs.push(tx);
        let queues = WorkerQueues {
            frames_in: rx,
            steps_out: out_tx.clone(),
            frames_home: frames_home.clone(),
            spent: spent_queues.next(),
        };
        let frames = decoded_frames.clone();
        let trace = StageTrace::new(
            registry,
            StageId::Decode,
            trace_ctx.map(|c| c.lane(lane_decode(windex), windex as u16)),
        );
        let supervision = opts
            .faults
            .clone()
            .map(|plan| (plan, fault_telemetry.clone()));
        handles.push(spawn_stage(
            scope,
            StageId::Decode,
            Some(windex),
            move || worker_loop(windex, queues, frames, trace, supervision),
        ));
    }
    drop(out_tx);
    drop(frames_home);

    // Producer: route frames so that all fragments of one datagram
    // land on the same worker (reassembly is per-worker state).
    // Overload shedding happens here, before sequence assignment:
    // the sequence space stays dense and the decision depends only
    // on the (deterministic) frame stream, never on queue timing.
    let produced = registry.counter("stage.producer.frames_total");
    let shed = registry.counter("pipeline.shed_total");
    let producer_lane = trace_ctx.map(|c| c.lane(0, 0));
    let producer_plan = opts.faults.clone();
    let producer = spawn_stage(scope, StageId::Producer, None, move || {
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
        // host, the scheduler) is paid per batch, not per frame. A full
        // batch is replaced by a spent one a worker has sent back,
        // emptied here, where its frames were allocated. Every batch
        // that has come back is emptied at once, so spent frames wait
        // for the next shipment, not for their batch's reuse.
        let mut emptied: Vec<FrameBatch> = Vec::new();
        let mut next_batch = || {
            while let Some(mut spent) = frame_pool.try_recv() {
                spent.clear();
                emptied.push(spent);
            }
            emptied
                .pop()
                .unwrap_or_else(|| Vec::with_capacity(FRAME_BATCH))
        };
        let mut batches: Vec<FrameBatch> = (0..n_workers)
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
            // Fragments of one datagram share a key, so they land on
            // one worker; frames too short to carry a key go to worker
            // 0, which counts them as parse errors.
            let w = fragment_key(&frame.bytes).map_or(0, |h| (h % n_workers as u64) as usize);
            batches[w].push((seq, frame));
            if batches[w].len() >= FRAME_BATCH {
                let full = std::mem::replace(&mut batches[w], next_batch());
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

    let mut stats = PipelineStats::default();
    let lane = trace_ctx.map(|c| c.lane(lane_seq(n_workers), 0));
    let (drained, live) = reorder_stage(&out_rx, registry, opts, lane, &mut stats, emit);
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
        stats.reassembly.merge(&w.reassembly);
    }
    count_reorder_holes(&mut stats, drained, registry);
    (stats, live)
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

/// One decode worker's queues: its frame batches in, its steps out, and
/// the return paths that carry spent buffers home.
struct WorkerQueues {
    frames_in: MeteredReceiver<FrameBatch>,
    steps_out: MeteredSender<Vec<WorkerStep>>,
    /// Spent frame batches, back to the producer, which allocated them.
    frames_home: Sender<FrameBatch>,
    /// Spent messages, back from the writer tail ([`SpentMsgs`]).
    spent: Option<Receiver<Vec<DecodedMsg>>>,
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
    windex: usize,
    queues: WorkerQueues,
    frames: Counter,
    trace: StageTrace,
    supervision: Option<(WorkerFaultPlan, WorkerFaultTelemetry)>,
) -> WorkerStats {
    let mut wire = WireDecoder::new();
    let mut decoder = Decoder::new();
    let mut ws = WorkerStats::default();
    let mut received = 0u64;
    let mut restarts = 0u32;
    let mut backoff_left = 0u64;
    let mut degraded = false;
    let mut pt = trace.begin();
    'batches: while let Ok(batch) = queues.frames_in.recv() {
        let w0 = trace.service_begin(&mut pt);
        // Free the messages the tail is done with, on this thread,
        // which allocated them.
        if let Some(spent) = &queues.spent {
            while spent.try_recv().is_some() {}
        }
        let mut last_us = 0u64;
        let mut steps: Vec<WorkerStep> = Vec::with_capacity(batch.len());
        for &(seq, ref frame) in &batch {
            received += 1;
            frames.inc();
            let decoded = match &supervision {
                None => process_frame(windex, &mut wire, &mut decoder, &mut ws, frame),
                Some((plan, faults)) => {
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
                        let crash_due = plan.crash_due(windex, received);
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            if crash_due {
                                std::panic::panic_any(InjectedWorkerCrash);
                            }
                            process_frame(windex, &mut wire, &mut decoder, &mut ws, frame)
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
                                ws.reassembly.merge(&wire.reassembly_stats());
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
        let frame_count = batch.len() as u32;
        // The batch goes home to be emptied where its frames were made.
        let _ = queues.frames_home.try_send(batch);
        trace.service_end(&mut pt, frame_count, last_us, w0);
        if queues.steps_out.send(steps).is_err() {
            break 'batches;
        }
        pt = trace.begin();
    }
    ws.decoder.merge(&decoder.stats());
    ws.reassembly.merge(&wire.reassembly_stats());
    ws
}

fn process_frame(
    windex: usize,
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
            match decoder.push(&payload) {
                DecodeOutcome::Ok(msg) => Some(DecodedMsg {
                    ts: frame.ts,
                    peer,
                    direction,
                    msg,
                    worker: windex,
                }),
                DecodeOutcome::StructurallyInvalid(_)
                | DecodeOutcome::DecodeFailed(_)
                | DecodeOutcome::NotEdonkey => None,
            }
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

/// Sets `stats.reorder_holes` once [`run_front`] has joined the
/// producer into `stats.frames`: the producer issued one sequence step
/// per routed frame, and the reorder stage drained the first `next_seq`
/// of them.
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
            snap.histogram("stage.decode.latency_ns").unwrap().count,
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
        // The serial tail anonymises inside the reorder span, one span
        // per decode_out batch.
        assert_eq!(
            snap.histogram("stage.reorder.latency_ns").unwrap().count,
            out_batches
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
    fn decode_spans_carry_their_batch_size() {
        // One frame per message, a message per virtual second, about six
        // batches per worker; a cut every 1 000 s dumps the recorder.
        let frames = frames_for(&query_msgs(12 * FRAME_BATCH));
        let dir = std::env::temp_dir().join(format!("etw-decode-spans-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let opts = PipelineOptions {
            checkpoint_interval_us: 1_000_000_000,
            trace: Some(TraceOptions {
                ring_slots: 64,
                dump_dir: Some(dir.clone()),
                max_dumps: 16,
            }),
            ..PipelineOptions::default()
        };
        let (stats, _) = run_capture_pipeline_with(
            frames.into_iter(),
            2,
            PaperScheme::paper(16),
            &Registry::disabled(),
            &opts,
            |_| {},
            |_| {},
        );
        assert_eq!(stats.records, 12 * FRAME_BATCH as u64);
        // Every decode span carries its own batch's frames, however many
        // batches its worker decoded before it.
        let mut most_spans = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let events = trace_file::read_file(&entry.unwrap().path()).unwrap();
            let mut spans_per_worker = [0; 2];
            for ev in events.iter().filter(|e| {
                e.stage() == Some(StageId::Decode) && e.kind() == Some(SpanKind::Service)
            }) {
                assert!(
                    ev.arg() as usize <= FRAME_BATCH,
                    "decode span of worker {} carries {} frames",
                    ev.worker(),
                    ev.arg()
                );
                spans_per_worker[usize::from(ev.worker())] += 1;
            }
            most_spans = spans_per_worker.into_iter().fold(most_spans, usize::max);
        }
        assert!(
            most_spans > 2,
            "a dump holds {most_spans} spans of one worker"
        );
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
            // Write: each batch encoded and written once. The dataset is
            // header + written bytes + footer.
            assert_eq!(snap.counter("stage.sink.records_total"), stats.records);
            assert_eq!(snap.counter("stage.write.batches_total"), batches);
            let body = snap.counter("stage.write.bytes_total");
            assert!(body > 0 && (body as usize) < bytes.len());
            assert_eq!(
                snap.histogram("stage.write.latency_ns").unwrap().count,
                batches
            );
            // Shard and assemble: every batch visits every shard; the
            // assembler reassembles each exactly once.
            assert_eq!(
                snap.histogram("stage.shard.latency_ns").unwrap().count,
                fanned
            );
            assert_eq!(
                snap.histogram("stage.assemble.latency_ns").unwrap().count,
                batches
            );
            // Per-shard balance ledgers (the monitor panel's feed). Each
            // id is resolved by exactly one shard, so the summed
            // resolution counts cover at least one clientID per record
            // (the peer) without double counting, and every backlog
            // drained. The mixed workload carries fileIDs, so the probe
            // ledger has work in it.
            let mut cid_sum = 0;
            for s in 0..shards {
                cid_sum += snap.counter(&format!("anon.shard{s}.client_ids_total"));
                assert_eq!(snap.gauge(&format!("anon.shard{s}.queue_depth")), 0);
            }
            assert!(cid_sum >= stats.records);
            assert!(stats.fileid_probes.inserts > 0 && stats.fileid_probes.probes > 0);
            // Every tail queue fully drained at exit.
            for chan in ["write_in", "shard_in", "shard_out"] {
                assert_eq!(
                    snap.gauge(&format!("chan.{chan}.depth")),
                    0,
                    "{chan} at {shards} shards"
                );
            }
        }
    }

    /// A disk slower than everything upstream: 2 ms per write call.
    struct SlowWrite;
    impl Write for SlowWrite {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            std::thread::sleep(std::time::Duration::from_millis(2));
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn blocked_send_is_a_channel_stall_not_stage_time() {
        // The slow disk is the write stage's own service time, and it
        // backs the tail up: the assembler blocks sending into write_in.
        // That time belongs to the channel's stall counter, not to the
        // assembler's timer.
        let registry = Registry::new();
        let tail = TailConfig {
            batch_records: 8,
            batch_queue: 1,
            anon_shards: 1,
        };
        let writer = DatasetWriter::new(SlowWrite).unwrap();
        let frames = frames_for(&mixed_msgs(200)).into_iter();
        let opts = PipelineOptions::default();
        let scheme = PaperScheme::paper(16);
        run_capture_pipeline_batched(frames, 2, scheme, &registry, &opts, tail, writer, |_, _| {})
            .unwrap();
        let snap = registry.snapshot();
        let sum = |name: &str| snap.histogram(name).unwrap().sum;
        let write_stalls = snap.counter("chan.write_in.stall_ns_total");
        assert!(
            write_stalls > 10_000_000,
            "write_in stalled {write_stalls} ns"
        );
        // One 2 ms write call per batch.
        let batches = snap.counter("stage.write.batches_total");
        let writing = sum("stage.write.latency_ns");
        assert!(
            writing >= batches * 2_000_000,
            "write stage booked {writing} ns for {batches} writes"
        );
        let assembler = sum("stage.assemble.latency_ns");
        assert!(
            assembler < write_stalls / 2,
            "assembler booked {assembler} ns against {write_stalls} ns stalled on write_in"
        );
    }

    #[test]
    fn pipeline_threads_carry_stage_names() {
        use std::collections::BTreeSet;
        use std::sync::Mutex;
        type Names = Arc<Mutex<BTreeSet<String>>>;
        fn note(names: &Names) {
            let name = std::thread::current().name().unwrap_or("").to_owned();
            names.lock().unwrap().insert(name);
        }
        /// Records the name of every thread that writes to it.
        struct NamingSink(Names);
        impl Write for NamingSink {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                note(&self.0);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let (pulled_by, written_by) = (Names::default(), Names::default());
        let pulls = Arc::clone(&pulled_by);
        let frames = frames_for(&mixed_msgs(100))
            .into_iter()
            .inspect(move |_| note(&pulls));
        let writer = DatasetWriter::new(NamingSink(Arc::clone(&written_by))).unwrap();
        // The header was written here, on the test's own thread.
        written_by.lock().unwrap().clear();
        let tail = TailConfig {
            batch_records: 16,
            batch_queue: 2,
            anon_shards: 2,
        };
        // Held open to the end: closing it writes the footer from here.
        let (stats, _, _writer) = run_capture_pipeline_batched(
            frames,
            2,
            PaperScheme::paper(16),
            &Registry::disabled(),
            &PipelineOptions::default(),
            tail,
            writer,
            |_, _| {},
        )
        .unwrap();
        assert_eq!(stats.records, 100);
        let only = |name: &str| BTreeSet::from([name.to_owned()]);
        assert_eq!(*pulled_by.lock().unwrap(), only("etw-producer"));
        assert_eq!(*written_by.lock().unwrap(), only("etw-write"));
    }

    #[test]
    fn blocked_fan_out_is_a_channel_stall_not_reorder_time() {
        // The slow disk backs the tail up to the reorder stage, whose
        // fan-out blocks on shard_in. The reorder span has closed before
        // those sends, so the time is the channel's.
        let registry = Registry::new();
        let tail = TailConfig {
            batch_records: 8,
            batch_queue: 1,
            anon_shards: 1,
        };
        let writer = DatasetWriter::new(SlowWrite).unwrap();
        let frames = frames_for(&mixed_msgs(200)).into_iter();
        let opts = PipelineOptions::default();
        let scheme = PaperScheme::paper(16);
        run_capture_pipeline_batched(frames, 2, scheme, &registry, &opts, tail, writer, |_, _| {})
            .unwrap();
        let snap = registry.snapshot();
        let stalled = snap.counter("chan.shard_in.stall_ns_total");
        assert!(stalled > 10_000_000, "fan-out stalled {stalled} ns");
        let reorder = snap.histogram("stage.reorder.latency_ns").unwrap().sum;
        assert!(
            reorder < stalled / 2,
            "reorder booked {reorder} ns against {stalled} ns stalled on its fan-out"
        );
    }

    #[test]
    fn reorder_drains_the_front_after_the_downstream_is_gone() {
        // 60 sequence steps, every third one a tombstone, the rest one
        // message per virtual second; a cut every 10 s.
        let steps: Vec<WorkerStep> = (0..60u64)
            .map(|seq| {
                let msg = (seq % 3 != 2).then(|| DecodedMsg {
                    ts: VirtualTime::from_secs(seq),
                    peer: ClientId(seq as u32),
                    direction: Direction::ToServer,
                    msg: Message::StatusRequest {
                        challenge: seq as u32,
                    },
                    worker: 0,
                });
                (seq, msg)
            })
            .collect();
        let batches: Vec<Vec<WorkerStep>> = steps.chunks(7).map(<[_]>::to_vec).collect();
        let opts = PipelineOptions {
            checkpoint_interval_us: 10_000_000,
            ..PipelineOptions::default()
        };
        // The 14th message is at 19 s; the cut at 20 s comes next.
        const K: u64 = 14;
        let run = |arrivals: Vec<Vec<WorkerStep>>| {
            let registry = Registry::new();
            let mut stats = PipelineStats {
                frames: steps.len() as u64,
                ..PipelineStats::default()
            };
            // Steps handed on: ('c', records) per cut, ('m', seconds) per
            // message, ('s', 0) per closed span.
            let mut handed = Vec::new();
            let mut msgs = 0;
            let (drained, live) =
                reorder_stage(arrivals, &registry, &opts, None, &mut stats, |step| {
                    match step {
                        Step::Cut(at) => handed.push(('c', at.records)),
                        Step::Msg(d) => {
                            msgs += 1;
                            handed.push(('m', d.ts.as_secs()));
                        }
                        Step::SpanClosed => handed.push(('s', 0)),
                    }
                    msgs < K
                });
            assert!(!live);
            count_reorder_holes(&mut stats, drained, &registry);
            assert_eq!(stats.reorder_holes, 0, "every sequence step drained");
            assert_eq!(
                handed.last(),
                Some(&('m', 19)),
                "handed on after message {K}"
            );
            // The one cut handed on, at 10 s, follows seven messages.
            let cuts: Vec<_> = handed.iter().filter(|s| s.0 == 'c').collect();
            assert_eq!(cuts, [&('c', 7)]);
            assert_eq!(stats.records, K);
            let snap = registry.snapshot();
            assert_eq!(snap.counter("stage.sink.records_total"), K);
            assert_eq!(snap.gauge("stage.reorder.depth"), 0);
            handed.retain(|s| s.0 != 's');
            handed
        };
        // Two arrival orders, neither in sequence order.
        let reversed: Vec<_> = batches.iter().rev().cloned().collect();
        let odd_then_even: Vec<_> = batches
            .iter()
            .skip(1)
            .step_by(2)
            .chain(batches.iter().step_by(2))
            .cloned()
            .collect();
        assert_eq!(run(reversed), run(odd_then_even));
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
