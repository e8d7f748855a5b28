//! Stage-level tracing for the capture machine.
//!
//! The telemetry crate answers *how much* (counters, histograms); this
//! crate answers *where time goes* while a campaign runs, which is what
//! the paper's unattended ten-week capture depended on. Three layers:
//!
//! * [`StageProfile`] — per-stage queue-wait vs service-time split,
//!   `busy_ns`/`idle_ns` accumulation and a derived utilisation gauge,
//!   all landing in the existing [`etw_telemetry`] registry under
//!   `stage.<name>.latency_ns`, `stage.<name>.queue_wait_ns`,
//!   `stage.<name>.busy_ns_total` / `idle_ns_total` and
//!   `stage.<name>.util_permille`. A pipeline thread drives it with the
//!   same zero-disabled-cost idiom as [`etw_telemetry::Histogram`]:
//!   timers are `None` when the registry is disabled, so the untraced
//!   hot path pays one branch per update.
//! * [`ring`] — the flight recorder: one bounded single-writer
//!   [`ring::SpanRing`] per worker, seqlock slots, zero allocation in
//!   steady state. The supervisor merges every ring with
//!   [`ring::FlightRecorder::dump`] at a crash, restart, shed or
//!   checkpoint cut, without stopping the writers.
//! * [`mod@file`] + [`ops`] — the operator surfaces: the compact
//!   `.etwtrace` binary dump (`etwtool trace-dump` pretty-prints it)
//!   and a dependency-free blocking HTTP listener serving
//!   `/health.json` and `/metrics`.
//!
//! Every span event carries both clocks: the item's **virtual**
//! microsecond timestamp and the **wall** nanosecond the span ended
//! (monotonic, relative to the process's trace epoch). This crate is
//! the one place outside `etw-telemetry` allowed to read the wall
//! clock — it owns the wall/virtual boundary for tracing, and the
//! etwlint `no-wall-clock` exemption list says so.

#![warn(missing_docs)]

use etw_telemetry::{Counter, Gauge, Histogram, Registry};
use std::sync::OnceLock;
use std::time::Instant;

pub mod file;
pub mod ops;
pub mod ring;

/// Monotonic trace epoch: every wall timestamp in a span event is
/// nanoseconds since the first clock read in this process, so merged
/// dumps from different worker threads order correctly.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Current wall time in nanoseconds since the trace epoch.
#[inline]
pub fn wall_now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// The pipeline stages a span can belong to, in pipeline order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum StageId {
    /// The producer routing frames into the decode pool.
    Producer = 0,
    /// A supervised decode worker.
    Decode = 1,
    /// The sequence-reorder buffer on the sink thread.
    Reorder = 2,
    /// The serial anonymise step (1-shard tail).
    Anonymize = 3,
    /// An anonymiser shard worker.
    Shard = 4,
    /// The assembler remapping shard results into final records.
    Assemble = 5,
    /// The batch formatter (zero-alloc XML encoder).
    Format = 6,
    /// The dataset writer.
    Write = 7,
    /// The worker supervisor (crash/restart/backoff decisions).
    Supervisor = 8,
    /// A checkpoint cut.
    Checkpoint = 9,
    /// The real-socket serving loop (ingress classify + answer).
    Net = 10,
    /// The client-swarm load harness driving the serving loop.
    Swarm = 11,
}

impl StageId {
    /// Every stage, in pipeline order.
    pub const ALL: [StageId; 12] = [
        StageId::Producer,
        StageId::Decode,
        StageId::Reorder,
        StageId::Anonymize,
        StageId::Shard,
        StageId::Assemble,
        StageId::Format,
        StageId::Write,
        StageId::Supervisor,
        StageId::Checkpoint,
        StageId::Net,
        StageId::Swarm,
    ];

    /// The short name used in metric names (`stage.<name>.*`) and dumps.
    pub fn name(self) -> &'static str {
        match self {
            StageId::Producer => "producer",
            StageId::Decode => "decode",
            StageId::Reorder => "reorder",
            StageId::Anonymize => "anonymize",
            StageId::Shard => "shard",
            StageId::Assemble => "assemble",
            StageId::Format => "format",
            StageId::Write => "write",
            StageId::Supervisor => "supervisor",
            StageId::Checkpoint => "checkpoint",
            StageId::Net => "net",
            StageId::Swarm => "swarm",
        }
    }

    /// Inverse of the `repr(u8)` discriminant, for decoding dumps.
    pub fn from_u8(v: u8) -> Option<StageId> {
        StageId::ALL.into_iter().find(|s| *s as u8 == v)
    }
}

/// What a span event records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SpanKind {
    /// A completed unit of stage work (`dur_ns` is the service time).
    Service = 0,
    /// Time spent blocked waiting for input (`dur_ns` is the wait).
    Wait = 1,
    /// An injected worker crash observed by the supervisor.
    Crash = 2,
    /// A supervisor restart of a crashed worker.
    Restart = 3,
    /// A frame shed by the producer under overload.
    Shed = 4,
    /// A checkpoint cut.
    Checkpoint = 5,
    /// A worker degraded permanently (restart budget exhausted).
    Degraded = 6,
}

impl SpanKind {
    /// The label used by the pretty-printer.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Service => "service",
            SpanKind::Wait => "wait",
            SpanKind::Crash => "CRASH",
            SpanKind::Restart => "restart",
            SpanKind::Shed => "shed",
            SpanKind::Checkpoint => "checkpoint",
            SpanKind::Degraded => "DEGRADED",
        }
    }

    /// Inverse of the `repr(u8)` discriminant, for decoding dumps.
    pub fn from_u8(v: u8) -> Option<SpanKind> {
        [
            SpanKind::Service,
            SpanKind::Wait,
            SpanKind::Crash,
            SpanKind::Restart,
            SpanKind::Shed,
            SpanKind::Checkpoint,
            SpanKind::Degraded,
        ]
        .into_iter()
        .find(|k| *k as u8 == v)
    }
}

/// One completed span or point event: 32 bytes, fixed layout, the unit
/// the flight recorder stores and the `.etwtrace` format serialises.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct SpanEvent {
    /// Virtual time of the item the stage was handling, in µs.
    pub virtual_us: u64,
    /// Wall time the span ended, in ns since the trace epoch.
    pub end_wall_ns: u64,
    /// Span duration in ns (0 for point events like a crash).
    pub dur_ns: u64,
    /// `stage | kind << 8 | worker << 16 | arg << 32` — see
    /// [`SpanEvent::pack`].
    pub packed: u64,
}

impl SpanEvent {
    /// Builds the packed word from its fields. `worker` identifies the
    /// thread within the stage; `arg` is stage-specific (items in the
    /// batch, frame ordinal at a crash, queue depth at a shed).
    pub fn pack(stage: StageId, kind: SpanKind, worker: u16, arg: u32) -> u64 {
        stage as u64 | (kind as u64) << 8 | (worker as u64) << 16 | (arg as u64) << 32
    }

    /// A fully-populated event.
    pub fn new(
        stage: StageId,
        kind: SpanKind,
        worker: u16,
        arg: u32,
        virtual_us: u64,
        end_wall_ns: u64,
        dur_ns: u64,
    ) -> SpanEvent {
        SpanEvent {
            virtual_us,
            end_wall_ns,
            dur_ns,
            packed: SpanEvent::pack(stage, kind, worker, arg),
        }
    }

    /// The stage this event belongs to, if the packed word is valid.
    pub fn stage(&self) -> Option<StageId> {
        StageId::from_u8((self.packed & 0xff) as u8)
    }

    /// The event kind, if the packed word is valid.
    pub fn kind(&self) -> Option<SpanKind> {
        SpanKind::from_u8((self.packed >> 8 & 0xff) as u8)
    }

    /// The worker index within the stage.
    pub fn worker(&self) -> u16 {
        (self.packed >> 16 & 0xffff) as u16
    }

    /// The stage-specific argument.
    pub fn arg(&self) -> u32 {
        (self.packed >> 32) as u32
    }
}

/// A pending wall-clock measurement from [`StageProfile::begin`];
/// `None` when the profile is disabled, so the hot path never reads the
/// clock for a dropped measurement.
#[derive(Debug)]
pub struct StageTimer(Option<Instant>);

impl StageTimer {
    /// A timer that records nothing (what a disabled profile returns).
    pub fn noop() -> StageTimer {
        StageTimer(None)
    }
}

/// Per-stage wall-time accounting: the queue-wait vs service-time
/// split, cumulative busy/idle nanoseconds and the derived utilisation
/// gauge. One profile per stage thread; all handles are lock-free.
///
/// The driving pattern, once per loop iteration:
///
/// ```
/// # use etw_telemetry::Registry;
/// # use etw_trace::{StageId, StageProfile};
/// # let registry = Registry::new();
/// let profile = StageProfile::new(&registry, StageId::Format);
/// let mut t = profile.begin();       // before blocking on input
/// /* item = rx.recv() */
/// profile.note_wait(&mut t);         // wait ends, service begins
/// /* process(item) */
/// profile.note_service(&mut t, 1);   // service ends; next wait begins
/// # let snap = registry.snapshot();
/// # assert_eq!(snap.histogram("stage.format.latency_ns").unwrap().count, 1);
/// ```
#[derive(Clone, Debug)]
pub struct StageProfile {
    latency_ns: Histogram,
    queue_wait_ns: Histogram,
    busy_ns: Counter,
    idle_ns: Counter,
    util: Gauge,
}

impl StageProfile {
    /// Registers the stage's metrics (`stage.<name>.latency_ns`,
    /// `.queue_wait_ns`, `.busy_ns_total`, `.idle_ns_total`,
    /// `.util_permille`). All handles are no-ops for a disabled
    /// registry.
    pub fn new(registry: &Registry, stage: StageId) -> StageProfile {
        let name = stage.name();
        StageProfile {
            latency_ns: registry.histogram(&format!("stage.{name}.latency_ns")),
            queue_wait_ns: registry.histogram(&format!("stage.{name}.queue_wait_ns")),
            busy_ns: registry.counter(&format!("stage.{name}.busy_ns_total")),
            idle_ns: registry.counter(&format!("stage.{name}.idle_ns_total")),
            util: registry.gauge(&format!("stage.{name}.util_permille")),
        }
    }

    /// A profile that records nothing.
    pub fn noop() -> StageProfile {
        StageProfile {
            latency_ns: Histogram::noop(),
            queue_wait_ns: Histogram::noop(),
            busy_ns: Counter::noop(),
            idle_ns: Counter::noop(),
            util: Gauge::noop(),
        }
    }

    /// Whether measurements land anywhere.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.latency_ns.is_enabled()
    }

    /// Starts a measurement; reads the clock only when enabled.
    #[inline]
    pub fn begin(&self) -> StageTimer {
        if self.is_enabled() {
            StageTimer(Some(Instant::now()))
        } else {
            StageTimer(None)
        }
    }

    /// Ends a queue-wait: the elapsed time lands in
    /// `queue_wait_ns` + `idle_ns_total`, and the timer restarts for
    /// the service measurement. Returns the waited nanoseconds.
    #[inline]
    pub fn note_wait(&self, t: &mut StageTimer) -> u64 {
        self.note(t, &self.queue_wait_ns, &self.idle_ns)
    }

    /// Ends a service span: the elapsed time lands in `latency_ns` +
    /// `busy_ns_total`, the utilisation gauge is refreshed, and the
    /// timer restarts for the next wait. Returns the service
    /// nanoseconds. `_items` documents the batch size at the call site;
    /// item counts are tracked by the stage's own `*_total` counters.
    #[inline]
    pub fn note_service(&self, t: &mut StageTimer, _items: u64) -> u64 {
        let ns = self.note(t, &self.latency_ns, &self.busy_ns);
        if ns > 0 {
            self.refresh_util();
        }
        ns
    }

    #[inline]
    fn note(&self, t: &mut StageTimer, hist: &Histogram, total: &Counter) -> u64 {
        let Some(started) = t.0 else { return 0 };
        let now = Instant::now();
        let ns = now.duration_since(started).as_nanos() as u64;
        hist.record(ns);
        total.add(ns);
        t.0 = Some(now);
        ns
    }

    /// Recomputes `util_permille` = busy / (busy + idle) × 1000 from
    /// the cumulative counters.
    pub fn refresh_util(&self) {
        let busy = self.busy_ns.get();
        let idle = self.idle_ns.get();
        if let Some(permille) = busy.saturating_mul(1000).checked_div(busy + idle) {
            self.util.set(permille as i64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_event_packs_and_unpacks() {
        let ev = SpanEvent::new(
            StageId::Shard,
            SpanKind::Crash,
            2,
            4017,
            123_456,
            789,
            40_000,
        );
        assert_eq!(ev.stage(), Some(StageId::Shard));
        assert_eq!(ev.kind(), Some(SpanKind::Crash));
        assert_eq!(ev.worker(), 2);
        assert_eq!(ev.arg(), 4017);
        assert_eq!(ev.virtual_us, 123_456);
        assert_eq!(ev.dur_ns, 40_000);
    }

    #[test]
    fn stage_ids_round_trip() {
        for s in StageId::ALL {
            assert_eq!(StageId::from_u8(s as u8), Some(s));
            assert!(!s.name().is_empty());
        }
        assert_eq!(StageId::from_u8(200), None);
        for k in [
            SpanKind::Service,
            SpanKind::Wait,
            SpanKind::Crash,
            SpanKind::Restart,
            SpanKind::Shed,
            SpanKind::Checkpoint,
            SpanKind::Degraded,
        ] {
            assert_eq!(SpanKind::from_u8(k as u8), Some(k));
        }
        assert_eq!(SpanKind::from_u8(200), None);
    }

    #[test]
    fn profile_records_wait_service_split() {
        let registry = Registry::new();
        let profile = StageProfile::new(&registry, StageId::Decode);
        assert!(profile.is_enabled());
        let mut t = profile.begin();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let waited = profile.note_wait(&mut t);
        assert!(waited >= 1_000_000, "slept 1ms, waited {waited}ns");
        let served = profile.note_service(&mut t, 10);
        let snap = registry.snapshot();
        assert_eq!(
            snap.histogram("stage.decode.queue_wait_ns").unwrap().count,
            1
        );
        assert_eq!(snap.histogram("stage.decode.latency_ns").unwrap().count, 1);
        assert_eq!(snap.counter("stage.decode.idle_ns_total"), waited);
        assert_eq!(snap.counter("stage.decode.busy_ns_total"), served);
        let util = snap.gauge("stage.decode.util_permille");
        assert!((0..=1000).contains(&util), "permille out of range: {util}");
    }

    #[test]
    fn disabled_profile_is_inert() {
        let profile = StageProfile::new(&Registry::disabled(), StageId::Write);
        assert!(!profile.is_enabled());
        let mut t = profile.begin();
        assert_eq!(profile.note_wait(&mut t), 0);
        assert_eq!(profile.note_service(&mut t, 5), 0);
        let noop = StageProfile::noop();
        assert!(!noop.is_enabled());
        let mut t = StageTimer::noop();
        assert_eq!(noop.note_service(&mut t, 1), 0);
    }

    #[test]
    fn wall_clock_is_monotone() {
        let a = wall_now_ns();
        let b = wall_now_ns();
        assert!(b >= a);
    }
}
