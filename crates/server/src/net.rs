//! The real-socket serving loop: the eDonkey UDP protocol on an actual
//! `std::net::UdpSocket`, run as a non-blocking readiness-style event
//! loop.
//!
//! Structurally this is the mio `UdpSocket` + Poll/Token idiom with a
//! single token: the socket is non-blocking, "readiness" is discovered
//! by attempting the read and treating `WouldBlock` as "not ready", and
//! one thread multiplexes ingress, processing, delayed egress and
//! housekeeping. With vendored-only dependencies there is no epoll
//! binding, so readiness is polled — on a loopback soak the socket is
//! essentially always readable and the loop runs hot; when idle it backs
//! off with a short sleep.
//!
//! Robustness machinery, in the order a datagram meets it:
//!
//! 1. **Hostile ingress** — every datagram is untrusted. Oversized
//!    frames (> [`MAX_DATAGRAM`]) are counted and never decoded;
//!    everything else goes through the two-step decoder, whose outcomes
//!    land in the `server.net.malformed.*` ledgers. Nothing panics.
//! 2. **Bounded ingress queue** — arrivals beyond `queue_cap` are shed
//!    with accounting (`server.shed.queue_total`), never buffered
//!    unboundedly: the paper's capture machine had the same rule (keep
//!    up or account the loss, §2.2).
//! 3. **Degraded mode** — when the queue crosses `high_water` the
//!    server keeps answering source queries (cheap, the paper's
//!    dominant traffic) but sheds keyword searches (expensive index
//!    scans) until the queue falls back under `low_water`.
//! 4. **Per-client policy** — a sliding-window request counter per peer
//!    address; flooding clients are put in a penalty box and their
//!    traffic shed (`server.shed.backoff_total`) until the penalty
//!    expires. Idle clients are evicted on a periodic sweep.
//! 5. **Egress impairment** — an optional [`SocketImpairment`] sits
//!    between the answer encoder and `sendto`, so answers can be
//!    dropped/duplicated/truncated/delayed with exact ledger accounting
//!    for the soak's conservation gate.
//!
//! Conservation (the ci.sh `swarm` stage gates this exactly):
//!
//! ```text
//! server.net.recv_total == server.net.answered_total
//!                        + server.shed_total
//!                        + server.net.malformed_total
//! ```
//!
//! Every received datagram lands in exactly one of those three buckets;
//! `answered_total` counts request datagrams the engine fully handled
//! (including announcements, which produce zero reply datagrams).
//!
//! The optional [`PacketTap`] sees every datagram that actually crossed
//! the wire — ingress before any policy decision (a sniffer does not
//! care that the server later shed the frame), egress after impairment
//! (a sniffer sees what really went out). The capture stack hangs off
//! this tap and feeds the unchanged decode→anonymise pipeline.

use crate::engine::ServerEngine;
use etw_edonkey::datagram::{DatagramBuf, MAX_DATAGRAM, RECV_BUF};
use etw_edonkey::decoder::{DecodeOutcome, Decoder};
use etw_edonkey::ids::ClientId;
use etw_edonkey::messages::Message;
use etw_faults::sock::{SockDatagram, SocketImpairment};
use etw_faults::LinkDirection;
use etw_telemetry::{Counter, Gauge, Registry, Snapshot};
use etw_trace::{wall_now_ns, StageId, StageProfile};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Observer of datagrams actually crossing the server's socket — the
/// capture tap. Must never block: a sniffer that blocks the server
/// would invert the paper's problem (the *capture* must keep up with
/// the server, not throttle it).
pub trait PacketTap: Send {
    /// One datagram on the wire. `now_us` is `wall_now_ns() / 1000`,
    /// the same clock axis every component of a soak shares.
    fn packet(&mut self, dir: LinkDirection, peer: SocketAddr, payload: &[u8], now_us: u64);
}

/// Serving-loop configuration. Defaults are sized for a loopback soak
/// on a small host; a real deployment would scale `queue_cap` and the
/// client policy with expected load.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Largest accepted datagram; bigger ones count as malformed.
    pub max_datagram: usize,
    /// Bounded ingress queue capacity; arrivals beyond it are shed.
    pub queue_cap: usize,
    /// Queue depth at which degraded mode engages.
    pub high_water: usize,
    /// Queue depth at which degraded mode releases.
    pub low_water: usize,
    /// Max datagrams pulled from the socket per loop tick.
    pub recv_burst: usize,
    /// Max queued datagrams processed per loop tick.
    pub proc_budget: usize,
    /// Sliding window for the per-client request counter, in µs.
    pub client_window_us: u64,
    /// Requests allowed per window before the penalty box.
    pub client_window_max: u32,
    /// Penalty-box duration, in µs.
    pub client_penalty_us: u64,
    /// Idle time after which a client's state is evicted, in µs.
    pub client_idle_evict_us: u64,
    /// Sweep interval for eviction / gauge refresh, in µs.
    pub sweep_every_us: u64,
    /// Sleep when a tick found nothing to do, in µs.
    pub idle_sleep_us: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_datagram: MAX_DATAGRAM,
            queue_cap: 1024,
            high_water: 768,
            low_water: 256,
            recv_burst: 64,
            proc_budget: 128,
            client_window_us: 100_000,
            client_window_max: 200,
            client_penalty_us: 250_000,
            client_idle_evict_us: 10_000_000,
            sweep_every_us: 1_000_000,
            idle_sleep_us: 200,
        }
    }
}

/// The `server.net.*` / `server.shed_total` ledger handles.
struct Ledgers {
    recv: Counter,
    recv_bytes: Counter,
    malformed: Counter,
    malformed_structural: Counter,
    malformed_decode: Counter,
    malformed_not_edonkey: Counter,
    malformed_oversize: Counter,
    answered: Counter,
    answers_sent: Counter,
    send_errors: Counter,
    shed: Counter,
    shed_queue: Counter,
    shed_degraded: Counter,
    shed_backoff: Counter,
    degraded: Gauge,
    degraded_entered: Counter,
    queue_depth: Gauge,
    queue_depth_hwm: Gauge,
    clients: Gauge,
    penalized: Counter,
}

impl Ledgers {
    fn new(registry: &Registry) -> Ledgers {
        Ledgers {
            recv: registry.counter("server.net.recv_total"),
            recv_bytes: registry.counter("server.net.recv_bytes_total"),
            malformed: registry.counter("server.net.malformed_total"),
            malformed_structural: registry.counter("server.net.malformed.structural_total"),
            malformed_decode: registry.counter("server.net.malformed.decode_total"),
            malformed_not_edonkey: registry.counter("server.net.malformed.not_edonkey_total"),
            malformed_oversize: registry.counter("server.net.malformed.oversize_total"),
            answered: registry.counter("server.net.answered_total"),
            answers_sent: registry.counter("server.net.answers_sent_total"),
            send_errors: registry.counter("server.net.send_errors_total"),
            shed: registry.counter("server.shed_total"),
            shed_queue: registry.counter("server.shed.queue_total"),
            shed_degraded: registry.counter("server.shed.degraded_total"),
            shed_backoff: registry.counter("server.shed.backoff_total"),
            degraded: registry.gauge("server.net.degraded"),
            degraded_entered: registry.counter("server.net.degraded_entered_total"),
            queue_depth: registry.gauge("server.net.queue_depth"),
            queue_depth_hwm: registry.gauge("server.net.queue_depth_hwm"),
            clients: registry.gauge("server.net.clients"),
            penalized: registry.counter("server.net.penalized_total"),
        }
    }
}

/// Read-back of the serving ledgers from a metrics [`Snapshot`], for
/// gates and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetLedger {
    /// Datagrams received from the socket.
    pub recv: u64,
    /// Bytes received.
    pub recv_bytes: u64,
    /// Datagrams rejected as malformed (all classes).
    pub malformed: u64,
    /// …rejected by structural validation.
    pub malformed_structural: u64,
    /// …passed validation, failed effective decoding.
    pub malformed_decode: u64,
    /// …not eDonkey traffic at all.
    pub malformed_not_edonkey: u64,
    /// …larger than the acceptance ceiling.
    pub malformed_oversize: u64,
    /// Request datagrams the engine fully handled.
    pub answered: u64,
    /// Answer datagrams that reached `sendto` successfully.
    pub answers_sent: u64,
    /// Answer datagrams `sendto` refused.
    pub send_errors: u64,
    /// Datagrams shed (all classes).
    pub shed: u64,
    /// …shed because the ingress queue was full.
    pub shed_queue: u64,
    /// …keyword searches shed in degraded mode.
    pub shed_degraded: u64,
    /// …shed because the peer was in the penalty box.
    pub shed_backoff: u64,
    /// Times degraded mode engaged.
    pub degraded_entered: u64,
    /// Peers put in the penalty box.
    pub penalized: u64,
}

impl NetLedger {
    /// Reads the ledgers out of a snapshot.
    pub fn from_snapshot(snap: &Snapshot) -> NetLedger {
        NetLedger {
            recv: snap.counter("server.net.recv_total"),
            recv_bytes: snap.counter("server.net.recv_bytes_total"),
            malformed: snap.counter("server.net.malformed_total"),
            malformed_structural: snap.counter("server.net.malformed.structural_total"),
            malformed_decode: snap.counter("server.net.malformed.decode_total"),
            malformed_not_edonkey: snap.counter("server.net.malformed.not_edonkey_total"),
            malformed_oversize: snap.counter("server.net.malformed.oversize_total"),
            answered: snap.counter("server.net.answered_total"),
            answers_sent: snap.counter("server.net.answers_sent_total"),
            send_errors: snap.counter("server.net.send_errors_total"),
            shed: snap.counter("server.shed_total"),
            shed_queue: snap.counter("server.shed.queue_total"),
            shed_degraded: snap.counter("server.shed.degraded_total"),
            shed_backoff: snap.counter("server.shed.backoff_total"),
            degraded_entered: snap.counter("server.net.degraded_entered_total"),
            penalized: snap.counter("server.net.penalized_total"),
        }
    }

    /// The exact-conservation identities, as human-readable failures
    /// (empty = everything conserves).
    pub fn conservation_failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        if self.recv != self.answered + self.shed + self.malformed {
            failures.push(format!(
                "ingress does not conserve: recv {} != answered {} + shed {} + malformed {}",
                self.recv, self.answered, self.shed, self.malformed
            ));
        }
        if self.shed != self.shed_queue + self.shed_degraded + self.shed_backoff {
            failures.push(format!(
                "shed detail does not tile: {} != queue {} + degraded {} + backoff {}",
                self.shed, self.shed_queue, self.shed_degraded, self.shed_backoff
            ));
        }
        let detail = self.malformed_structural
            + self.malformed_decode
            + self.malformed_not_edonkey
            + self.malformed_oversize;
        if self.malformed != detail {
            failures.push(format!(
                "malformed detail does not tile: {} != {detail}",
                self.malformed
            ));
        }
        failures
    }
}

/// Per-peer bookkeeping: rate window, penalty box, identity.
struct ClientState {
    cid: ClientId,
    last_seen_us: u64,
    window_start_us: u64,
    in_window: u32,
    penalty_until_us: u64,
}

/// One queued ingress datagram.
struct Ingress {
    peer: SocketAddr,
    bytes: Vec<u8>,
}

/// The serving loop: one UDP socket, one engine, bounded queues, exact
/// ledgers. Built with [`ServerNet::bind`], driven by
/// [`ServerNet::run`].
pub struct ServerNet {
    socket: UdpSocket,
    local: SocketAddr,
    engine: ServerEngine,
    cfg: NetConfig,
    decoder: Decoder,
    led: Ledgers,
    profile: StageProfile,
    clients: HashMap<SocketAddr, ClientState>,
    next_cid: u32,
    queue: VecDeque<Ingress>,
    pool: Vec<Vec<u8>>,
    degraded: bool,
    impair: Option<SocketImpairment<SocketAddr>>,
    tap: Option<Box<dyn PacketTap>>,
    emit: Vec<SockDatagram<SocketAddr>>,
    encode_buf: DatagramBuf,
    recv_buf: Box<[u8]>,
    last_sweep_us: u64,
}

impl ServerNet {
    /// Binds the serving socket (non-blocking, enlarged receive buffer)
    /// and wires the ledgers into `registry`.
    pub fn bind(
        addr: &str,
        engine: ServerEngine,
        cfg: NetConfig,
        registry: &Registry,
    ) -> io::Result<ServerNet> {
        let socket = UdpSocket::bind(addr)?;
        socket.set_nonblocking(true)?;
        let local = socket.local_addr()?;
        bump_rcvbuf(&socket, 4 << 20);
        Ok(ServerNet {
            socket,
            local,
            engine,
            cfg,
            decoder: Decoder::new(),
            led: Ledgers::new(registry),
            profile: StageProfile::new(registry, StageId::Net),
            clients: HashMap::new(),
            next_cid: 1,
            queue: VecDeque::new(),
            pool: Vec::new(),
            degraded: false,
            impair: None,
            tap: None,
            emit: Vec::new(),
            encode_buf: DatagramBuf::new(),
            recv_buf: vec![0u8; RECV_BUF].into_boxed_slice(),
            last_sweep_us: 0,
        })
    }

    /// Installs egress (from-server) impairment.
    pub fn with_impairment(mut self, impair: SocketImpairment<SocketAddr>) -> Self {
        self.impair = Some(impair);
        self
    }

    /// Installs the capture tap.
    pub fn with_tap(mut self, tap: Box<dyn PacketTap>) -> Self {
        self.tap = Some(tap);
        self
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Engine counters (after a run).
    pub fn engine(&self) -> &ServerEngine {
        &self.engine
    }

    /// Decoder accounting (after a run).
    pub fn decoder_stats(&self) -> etw_edonkey::decoder::DecoderStats {
        self.decoder.stats()
    }

    /// Runs the event loop until `shutdown` is set *and* a full tick
    /// found nothing to do — so every datagram the kernel delivered
    /// before shutdown is classified and the ledgers close exactly.
    pub fn run(&mut self, shutdown: &AtomicBool) -> io::Result<()> {
        loop {
            let now_us = wall_now_ns() / 1_000;
            let got = self.pump_ingress(now_us)?;
            let did = self.process_some(now_us);
            let sent = self.pump_delayed(now_us);
            self.maybe_sweep(now_us);
            if !got && !did && !sent && self.queue.is_empty() {
                // ordering: relaxed — the flag is a latch set once by the
                // controller; the next iteration observing it late only
                // delays shutdown by one idle sleep.
                if shutdown.load(Ordering::Relaxed) {
                    break;
                }
                std::thread::sleep(Duration::from_micros(self.cfg.idle_sleep_us));
            }
        }
        // Flush delayed answers so the egress ledger closes too.
        if let Some(imp) = self.impair.as_mut() {
            imp.drain_due(u64::MAX, &mut self.emit);
        }
        let now_us = wall_now_ns() / 1_000;
        for d in self.emit.drain(..) {
            send_raw(
                &self.socket,
                &self.led,
                &mut self.tap,
                d.ctx,
                &d.bytes,
                now_us,
            );
        }
        self.led.queue_depth.set(self.queue.len() as i64);
        Ok(())
    }

    /// Pulls up to `recv_burst` datagrams off the socket. Returns
    /// whether anything arrived.
    fn pump_ingress(&mut self, now_us: u64) -> io::Result<bool> {
        let mut any = false;
        for _ in 0..self.cfg.recv_burst {
            match self.socket.recv_from(&mut self.recv_buf) {
                Ok((n, peer)) => {
                    any = true;
                    self.led.recv.inc();
                    self.led.recv_bytes.add(n as u64);
                    if let Some(tap) = self.tap.as_mut() {
                        tap.packet(LinkDirection::ToServer, peer, &self.recv_buf[..n], now_us);
                    }
                    if self.queue.len() >= self.cfg.queue_cap {
                        self.led.shed_queue.inc();
                        self.led.shed.inc();
                    } else {
                        let mut bytes = self.pool.pop().unwrap_or_default();
                        bytes.clear();
                        bytes.extend_from_slice(&self.recv_buf[..n]);
                        self.queue.push_back(Ingress { peer, bytes });
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let depth = self.queue.len() as i64;
        self.led.queue_depth.set(depth);
        if depth > self.led.queue_depth_hwm.get() {
            self.led.queue_depth_hwm.set(depth);
        }
        if !self.degraded && self.queue.len() >= self.cfg.high_water {
            self.degraded = true;
            self.led.degraded.set(1);
            self.led.degraded_entered.inc();
        }
        Ok(any)
    }

    /// Processes up to `proc_budget` queued datagrams. Returns whether
    /// anything was processed.
    fn process_some(&mut self, now_us: u64) -> bool {
        let mut did = false;
        for _ in 0..self.cfg.proc_budget {
            let Some(item) = self.queue.pop_front() else {
                break;
            };
            did = true;
            self.process_one(item, now_us);
        }
        if self.degraded && self.queue.len() <= self.cfg.low_water {
            self.degraded = false;
            self.led.degraded.set(0);
        }
        self.led.queue_depth.set(self.queue.len() as i64);
        did
    }

    /// Classifies and answers one datagram; exactly one ledger bucket
    /// is incremented per call.
    fn process_one(&mut self, item: Ingress, now_us: u64) {
        let mut t = self.profile.begin();
        let Ingress { peer, bytes } = item;

        // Per-client policy first: a penalty-boxed flooder costs us one
        // hash lookup, not a decode.
        let next_cid = &mut self.next_cid;
        let state = self.clients.entry(peer).or_insert_with(|| {
            let cid = ClientId(*next_cid);
            *next_cid += 1;
            ClientState {
                cid,
                last_seen_us: now_us,
                window_start_us: now_us,
                in_window: 0,
                penalty_until_us: 0,
            }
        });
        state.last_seen_us = now_us;
        if now_us.saturating_sub(state.window_start_us) > self.cfg.client_window_us {
            state.window_start_us = now_us;
            state.in_window = 0;
        }
        state.in_window += 1;
        if state.in_window > self.cfg.client_window_max && now_us >= state.penalty_until_us {
            state.penalty_until_us = now_us + self.cfg.client_penalty_us;
            self.led.penalized.inc();
        }
        if now_us < state.penalty_until_us {
            self.led.shed_backoff.inc();
            self.led.shed.inc();
            self.recycle(bytes);
            self.profile.note_service(&mut t);
            return;
        }
        let cid = state.cid;

        if bytes.len() > self.cfg.max_datagram {
            self.led.malformed_oversize.inc();
            self.led.malformed.inc();
            self.recycle(bytes);
            self.profile.note_service(&mut t);
            return;
        }

        match self.decoder.push(&bytes) {
            DecodeOutcome::Ok(msg) => {
                if self.degraded && matches!(msg, Message::SearchRequest { .. }) {
                    self.led.shed_degraded.inc();
                    self.led.shed.inc();
                } else {
                    let answers = self.engine.handle(cid, &msg);
                    self.led.answered.inc();
                    for answer in &answers {
                        self.send_answer(peer, answer, now_us);
                    }
                }
            }
            DecodeOutcome::StructurallyInvalid(_) => {
                self.led.malformed_structural.inc();
                self.led.malformed.inc();
            }
            DecodeOutcome::DecodeFailed(_) => {
                self.led.malformed_decode.inc();
                self.led.malformed.inc();
            }
            DecodeOutcome::NotEdonkey => {
                self.led.malformed_not_edonkey.inc();
                self.led.malformed.inc();
            }
        }
        self.recycle(bytes);
        self.profile.note_service(&mut t);
    }

    /// Encodes one answer and puts it on the wire (through impairment
    /// when installed).
    fn send_answer(&mut self, peer: SocketAddr, answer: &Message, now_us: u64) {
        let wire = wire_encode(&mut self.encode_buf, answer);
        match self.impair.as_mut() {
            Some(imp) => {
                imp.admit(
                    peer,
                    LinkDirection::FromServer,
                    wire,
                    now_us,
                    &mut self.emit,
                );
                for d in self.emit.drain(..) {
                    send_raw(
                        &self.socket,
                        &self.led,
                        &mut self.tap,
                        d.ctx,
                        &d.bytes,
                        now_us,
                    );
                }
            }
            None => send_raw(&self.socket, &self.led, &mut self.tap, peer, wire, now_us),
        }
    }

    /// Releases impairment-delayed answers whose deadline passed.
    fn pump_delayed(&mut self, now_us: u64) -> bool {
        let Some(imp) = self.impair.as_mut() else {
            return false;
        };
        if imp.next_due_us().is_none_or(|due| due > now_us) {
            return false;
        }
        imp.drain_due(now_us, &mut self.emit);
        let mut sent = false;
        for d in self.emit.drain(..) {
            sent = true;
            send_raw(
                &self.socket,
                &self.led,
                &mut self.tap,
                d.ctx,
                &d.bytes,
                now_us,
            );
        }
        sent
    }

    /// Periodic housekeeping: evict idle clients, refresh gauges.
    fn maybe_sweep(&mut self, now_us: u64) {
        if now_us.saturating_sub(self.last_sweep_us) < self.cfg.sweep_every_us {
            return;
        }
        self.last_sweep_us = now_us;
        let evict = self.cfg.client_idle_evict_us;
        self.clients
            .retain(|_, s| now_us.saturating_sub(s.last_seen_us) < evict);
        self.led.clients.set(self.clients.len() as i64);
    }

    /// Returns a drained payload buffer to the pool (bounded by the
    /// queue capacity, so the pool cannot grow without limit).
    fn recycle(&mut self, bytes: Vec<u8>) {
        if self.pool.len() < self.cfg.queue_cap {
            self.pool.push(bytes);
        }
    }
}

/// The single deliberate encode boundary between protocol values and
/// the wire. eDonkey answers *are* protocol messages: FoundSources
/// carries client identifiers by protocol design, so the serving side
/// cannot anonymise its own answers — what the taint pass proves
/// instead is that nothing else in the process (anonymiser tables,
/// checkpoint orders, dataset records) has any dataflow path to the
/// socket: the wire is reachable only through this encoder. The
/// anonymisation boundary for the *published dataset* stays where it
/// always was, in etw-anonymize (DESIGN.md §16).
// etwlint: sanitize(raw-id): protocol answers legitimately carry raw ids; this fn is the single audited wire-encode chokepoint
fn wire_encode<'a>(buf: &'a mut DatagramBuf, msg: &Message) -> &'a [u8] {
    buf.encode(msg)
}

/// The only raw socket write on the serving side. `WouldBlock` from a
/// full send buffer is counted as a send error (UDP: the datagram is
/// gone either way); the tap only sees datagrams `sendto` accepted.
// etwlint: sink(net): bytes leave the process on the wire here
fn send_raw(
    socket: &UdpSocket,
    led: &Ledgers,
    tap: &mut Option<Box<dyn PacketTap>>,
    peer: SocketAddr,
    bytes: &[u8],
    now_us: u64,
) {
    match socket.send_to(bytes, peer) {
        Ok(_) => {
            led.answers_sent.inc();
            if let Some(t) = tap.as_mut() {
                t.packet(LinkDirection::FromServer, peer, bytes, now_us);
            }
        }
        Err(_) => led.send_errors.inc(),
    }
}

/// Best-effort receive-buffer enlargement, so a loopback burst of
/// thousands of small datagrams is absorbed by the kernel queue instead
/// of silently dropped (which would break exact conservation).
/// `std::net` exposes no API for this; the raw `setsockopt` is three
/// constants deep and the result is deliberately ignored — the kernel
/// clamps to `net.core.rmem_max` and the swarm's in-flight cap is sized
/// for the unclamped minimum anyway.
#[cfg(target_os = "linux")]
fn bump_rcvbuf(socket: &UdpSocket, bytes: i32) {
    use std::os::fd::AsRawFd;
    const SOL_SOCKET: i32 = 1;
    const SO_RCVBUF: i32 = 8;
    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            name: i32,
            value: *const std::ffi::c_void,
            len: u32,
        ) -> i32;
    }
    let v: i32 = bytes;
    // SAFETY: passes a valid 4-byte buffer for the documented
    // SOL_SOCKET/SO_RCVBUF option on a live fd; the kernel copies it.
    unsafe {
        setsockopt(
            socket.as_raw_fd(),
            SOL_SOCKET,
            SO_RCVBUF,
            (&v as *const i32).cast(),
            std::mem::size_of::<i32>() as u32,
        );
    }
}

#[cfg(not(target_os = "linux"))]
fn bump_rcvbuf(_socket: &UdpSocket, _bytes: i32) {}
