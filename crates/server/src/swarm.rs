//! The client-swarm harness: thousands of concurrent eDonkey client
//! sessions over loopback, driven against the real serving socket.
//!
//! The paper measured a *live* server under *real* client load; the
//! closest a reproduction gets on one host is a swarm of UDP sockets —
//! one per simulated client — speaking the genuine wire protocol to
//! [`crate::net::ServerNet`] over loopback, with the capture tap
//! sniffing the server's own traffic. Nothing here is simulated: the
//! datagrams cross the kernel, the backpressure is real, and the
//! capture loss is measured rather than injected.
//!
//! Design points that make the soak's *exact* conservation gate hold:
//!
//! * **Stop-and-wait sessions.** Each session has at most one request
//!   outstanding; answers are awaited with a deadline and bounded
//!   retries, so client-side accounting (sent / answered / timed out)
//!   tiles exactly.
//! * **A global in-flight token cap.** The kernel silently drops
//!   datagrams when the server's receive buffer overflows, which would
//!   break `client sent == server received + impairment drops`. The
//!   swarm therefore bounds the bytes in flight: a request charges
//!   `1 + len/1500` tokens, released when its transaction completes.
//!   The cap is sized so worst-case in-flight truesize stays under the
//!   unclamped minimum `SO_RCVBUF`.
//! * **Sender-boundary impairment.** The to-server
//!   [`SocketImpairment`] runs *before* `sendto`, so every ledger
//!   increment corresponds to a datagram that verifiably did or did not
//!   enter loopback.
//! * **Noise sessions.** A configurable fraction of sessions send
//!   garbage — random bytes, marked-but-corrupt bodies, truncations,
//!   oversized frames — exercising the server's hostile-ingress ledgers
//!   under load, exactly as the paper's capture machine saw arbitrary
//!   traffic on the server port.
//! * **Sentinel sessions.** The first `special` sessions carry the
//!   anonymisation canary's client/file identifiers in real traffic
//!   (OfferFiles / GetSources), so the captured dataset can be scanned
//!   for sentinel leaks downstream.

use crate::engine::ServerEngine;
use crate::net::{NetConfig, PacketTap, ServerNet};
use etw_edonkey::ids::{ClientId, FileId};
use etw_edonkey::messages::{opcodes, FileEntry, Message, PROTO_EDONKEY};
use etw_edonkey::search::SearchExpr;
use etw_edonkey::tags::{special, Tag, TagList};
use etw_faults::sock::{SockDatagram, SocketImpairment};
use etw_faults::{FaultSpec, LinkDirection};
use etw_telemetry::{Counter, Gauge, Registry};
use etw_trace::{wall_now_ns, StageId, StageProfile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Peer-address → client-identity map, registered by the swarm before
/// any traffic flows. The live-capture consumer uses it to label frames
/// the way the paper's capture point knew its clients.
pub type Roster = Arc<parking_lot::Mutex<HashMap<SocketAddr, ClientId>>>;

/// Swarm configuration.
#[derive(Debug, Clone)]
pub struct SwarmConfig {
    /// Concurrent client sessions (one UDP socket each).
    pub sessions: usize,
    /// Seed for all swarm randomness (scripts, think times, noise).
    pub seed: u64,
    /// How long new requests keep being initiated, in µs.
    pub duration_us: u64,
    /// Global in-flight token cap (one token ≈ 1500 wire bytes).
    pub inflight_cap: usize,
    /// Sessions-per-mille that send hostile garbage instead of protocol.
    pub noise_per_mille: u32,
    /// Answer deadline per request, in µs.
    pub timeout_us: u64,
    /// Retries after a timeout before giving up.
    pub retries: u32,
    /// Minimum think time between a session's requests, in µs.
    pub think_min_us: u64,
    /// Maximum think time between a session's requests, in µs.
    pub think_max_us: u64,
    /// Burst window start, relative to swarm start, in µs.
    pub burst_start_us: u64,
    /// Burst window length, in µs (0 = no burst). Inside the window
    /// think times shrink by `burst_think_div`.
    pub burst_len_us: u64,
    /// Think-time divisor during the burst window.
    pub burst_think_div: u64,
    /// Sentinel sessions: `(client id, file id)` pairs carried verbatim
    /// in real traffic by the first `special.len()` sessions.
    pub special: Vec<(ClientId, FileId)>,
    /// To-server impairment applied at the sender boundary.
    pub fault: Option<FaultSpec>,
}

impl Default for SwarmConfig {
    fn default() -> Self {
        SwarmConfig {
            sessions: 256,
            seed: 0xED_0017,
            duration_us: 2_000_000,
            inflight_cap: 96,
            noise_per_mille: 60,
            timeout_us: 250_000,
            retries: 2,
            think_min_us: 2_000,
            think_max_us: 40_000,
            burst_start_us: 500_000,
            burst_len_us: 600_000,
            burst_think_div: 8,
            special: Vec::new(),
            fault: None,
        }
    }
}

/// What one swarm run did, from the clients' point of view.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwarmReport {
    /// Sessions driven.
    pub sessions: usize,
    /// Request datagrams offered to the wire path (including retries).
    pub sent: u64,
    /// Answer datagrams received (including late ones).
    pub answers: u64,
    /// Answers that arrived after their transaction was closed.
    pub late: u64,
    /// Deadline expiries with the answer still missing.
    pub timeouts: u64,
    /// Retransmissions issued.
    pub retries: u64,
    /// Transactions abandoned after the retry budget.
    pub gave_up: u64,
    /// Hostile datagrams sent by noise sessions.
    pub noise: u64,
    /// `sendto` failures on client sockets.
    pub send_errors: u64,
    /// Completed transactions.
    pub requests: u64,
    /// Wall time the run phase took, in µs.
    pub duration_us: u64,
}

/// The `swarm.*` ledger handles.
struct SwarmLedgers {
    sent: Counter,
    answers: Counter,
    late: Counter,
    timeouts: Counter,
    retries: Counter,
    gave_up: Counter,
    noise: Counter,
    send_errors: Counter,
    requests: Counter,
    inflight: Gauge,
    inflight_hwm: Gauge,
}

impl SwarmLedgers {
    fn new(registry: &Registry) -> SwarmLedgers {
        SwarmLedgers {
            sent: registry.counter("swarm.sent_total"),
            answers: registry.counter("swarm.answers_total"),
            late: registry.counter("swarm.late_answers_total"),
            timeouts: registry.counter("swarm.timeouts_total"),
            retries: registry.counter("swarm.retries_total"),
            gave_up: registry.counter("swarm.gave_up_total"),
            noise: registry.counter("swarm.noise_sent_total"),
            send_errors: registry.counter("swarm.send_errors_total"),
            requests: registry.counter("swarm.requests_total"),
            inflight: registry.gauge("swarm.inflight_tokens"),
            inflight_hwm: registry.gauge("swarm.inflight_tokens_hwm"),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum SessState {
    Idle,
    Waiting,
}

/// One simulated client: its socket, identity, script state.
struct Session {
    socket: UdpSocket,
    cid: ClientId,
    rng: StdRng,
    noise: bool,
    special_file: Option<FileId>,
    published: bool,
    state: SessState,
    /// Encoded payload of the current request, kept for retransmission.
    pending: Vec<u8>,
    expect: u32,
    got: u32,
    deadline_us: u64,
    retries_left: u32,
    tokens_held: usize,
    next_at_us: u64,
}

/// The swarm driver: builds the sessions, runs the load phase, and
/// drains stragglers after the server has quiesced.
pub struct Swarm {
    cfg: SwarmConfig,
    server: SocketAddr,
    sessions: Vec<Session>,
    file_pool: Vec<FileId>,
    led: SwarmLedgers,
    profile: StageProfile,
    imp: Option<SocketImpairment<usize>>,
    emit: Vec<SockDatagram<usize>>,
    recv_buf: Box<[u8]>,
    tokens_in_use: usize,
    burst_now: bool,
    last_sweep_us: u64,
    run_us: u64,
}

/// Tokens a payload charges against the in-flight cap: one per started
/// 1500-byte MTU's worth, so oversized noise cannot overrun the
/// server's receive buffer even at the cap.
fn tokens_for(len: usize) -> usize {
    1 + len / 1500
}

/// Words shared by filenames and search keywords, so swarm searches
/// actually hit the index the swarm populated.
const VOCAB: [&str; 12] = [
    "sunrise", "acoustic", "live", "1997", "ocean", "midnight", "jazz", "reactor", "tape", "echo",
    "delta", "harbor",
];

impl Swarm {
    /// Binds one non-blocking socket per session, registers every
    /// session in `roster`, and seeds the deterministic scripts.
    pub fn new(
        cfg: SwarmConfig,
        server: SocketAddr,
        roster: &Roster,
        registry: &Registry,
    ) -> io::Result<Swarm> {
        let mut pool_rng = StdRng::seed_from_u64(cfg.seed ^ 0x706f_6f6c); // "pool"
        let n_files = 48;
        let mut file_pool = Vec::with_capacity(n_files + cfg.special.len());
        for _ in 0..n_files {
            let mut id = [0u8; 16];
            pool_rng.fill(&mut id[..]);
            file_pool.push(FileId(id));
        }
        for (_, fid) in &cfg.special {
            file_pool.push(*fid);
        }

        let imp = cfg
            .fault
            .clone()
            .map(|spec| SocketImpairment::new(spec, registry));
        let mut sessions = Vec::with_capacity(cfg.sessions);
        {
            let mut map = roster.lock();
            for i in 0..cfg.sessions {
                let socket = UdpSocket::bind("127.0.0.1:0")?;
                socket.set_nonblocking(true)?;
                let special_file = cfg.special.get(i).map(|(_, f)| *f);
                let cid = match cfg.special.get(i) {
                    Some((c, _)) => *c,
                    // Low-ID space (< 2^24), clear of the sentinels.
                    None => ClientId(0x00A0_0000 + i as u32),
                };
                let mut rng = StdRng::seed_from_u64(cfg.seed ^ (0x5e55 + i as u64 * 0x9E37));
                let noise =
                    special_file.is_none() && rng.gen_range(0..1000u32) < cfg.noise_per_mille;
                map.insert(socket.local_addr()?, cid);
                sessions.push(Session {
                    socket,
                    cid,
                    rng,
                    noise,
                    special_file,
                    published: false,
                    state: SessState::Idle,
                    pending: Vec::with_capacity(256),
                    expect: 0,
                    got: 0,
                    deadline_us: 0,
                    retries_left: 0,
                    tokens_held: 0,
                    next_at_us: 0,
                });
            }
        }
        Ok(Swarm {
            cfg,
            server,
            sessions,
            file_pool,
            led: SwarmLedgers::new(registry),
            profile: StageProfile::new(registry, StageId::Swarm),
            imp,
            emit: Vec::new(),
            recv_buf: vec![0u8; 65536].into_boxed_slice(),
            tokens_in_use: 0,
            burst_now: false,
            last_sweep_us: 0,
            run_us: 0,
        })
    }

    /// Runs the load phase (`duration_us` of request initiation), then
    /// quiesces: waits for every outstanding transaction to resolve and
    /// flushes impairment-held datagrams so the to-server ledger closes.
    pub fn run(&mut self) {
        let start_us = wall_now_ns() / 1_000;
        let t_end = start_us + self.cfg.duration_us;
        // Stagger session starts across the first think window.
        for s in &mut self.sessions {
            s.next_at_us = start_us + s.rng.gen_range(0..self.cfg.think_max_us.max(1));
        }
        loop {
            let now_us = wall_now_ns() / 1_000;
            let mut timer = self.profile.begin();
            self.burst_now = self.cfg.burst_len_us > 0
                && now_us >= start_us + self.cfg.burst_start_us
                && now_us < start_us + self.cfg.burst_start_us + self.cfg.burst_len_us;
            let mut events = self.pump_delayed(now_us);
            events += self.poll_waiting(now_us);
            if now_us < t_end {
                events += self.initiate(now_us);
            }
            if events > 0 {
                self.profile.note_service(&mut timer);
            }
            self.maybe_sweep(now_us);
            if now_us >= t_end && self.all_idle() {
                break;
            }
            if events == 0 {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        // Flush datagrams the delay fault is still holding, so
        // `faults.sock.to_server` conserves exactly.
        if let Some(imp) = self.imp.as_mut() {
            imp.drain_due(u64::MAX, &mut self.emit);
        }
        self.send_emitted();
        self.led.inflight.set(self.tokens_in_use as i64);
        self.run_us = (wall_now_ns() / 1_000).saturating_sub(start_us);
    }

    /// One last sweep of every client socket, to be called after the
    /// server has fully quiesced: answers that were still crossing
    /// loopback when [`Swarm::run`] returned are counted here, closing
    /// the `answers sent == answers received` identity.
    pub fn final_drain(&mut self) {
        let now_us = wall_now_ns() / 1_000;
        let n = self.sessions.len();
        for idx in 0..n {
            self.drain_socket(idx, false, now_us);
        }
    }

    /// The run's client-side accounting.
    pub fn report(&self) -> SwarmReport {
        SwarmReport {
            sessions: self.sessions.len(),
            sent: self.led.sent.get(),
            answers: self.led.answers.get(),
            late: self.led.late.get(),
            timeouts: self.led.timeouts.get(),
            retries: self.led.retries.get(),
            gave_up: self.led.gave_up.get(),
            noise: self.led.noise.get(),
            send_errors: self.led.send_errors.get(),
            requests: self.led.requests.get(),
            duration_us: self.run_us,
        }
    }

    fn all_idle(&self) -> bool {
        self.sessions.iter().all(|s| s.state == SessState::Idle)
            && self.imp.as_ref().is_none_or(|i| i.held_len() == 0)
    }

    /// Sends everything the impairment layer emitted. Each emitted
    /// datagram is routed by its session index (`ctx`).
    fn send_emitted(&mut self) -> u64 {
        let Swarm {
            sessions,
            emit,
            server,
            led,
            ..
        } = self;
        let mut sent = 0u64;
        for d in emit.drain(..) {
            sent += 1;
            if sessions[d.ctx].socket.send_to(&d.bytes, *server).is_err() {
                led.send_errors.inc();
            }
        }
        sent
    }

    /// Releases impairment-delayed datagrams whose deadline passed.
    fn pump_delayed(&mut self, now_us: u64) -> u64 {
        let due = matches!(
            self.imp.as_ref().and_then(|i| i.next_due_us()),
            Some(d) if d <= now_us
        );
        if !due {
            return 0;
        }
        if let Some(imp) = self.imp.as_mut() {
            imp.drain_due(now_us, &mut self.emit);
        }
        self.send_emitted()
    }

    /// Polls every waiting session: receive answers, enforce deadlines,
    /// retransmit or give up. Returns the number of events handled.
    fn poll_waiting(&mut self, now_us: u64) -> u64 {
        let mut events = 0u64;
        let n = self.sessions.len();
        for idx in 0..n {
            if self.sessions[idx].state != SessState::Waiting {
                continue;
            }
            events += self.drain_socket(idx, true, now_us);
            let s = &self.sessions[idx];
            if s.state != SessState::Waiting || now_us < s.deadline_us {
                continue;
            }
            // Deadline expired.
            if s.expect == 0 {
                // Fire-and-forget (announcements, noise): the deadline
                // is only a token-release timer, not a timeout.
                self.complete(idx, now_us);
                events += 1;
                continue;
            }
            self.led.timeouts.inc();
            if self.sessions[idx].retries_left > 0 {
                self.sessions[idx].retries_left -= 1;
                self.led.retries.inc();
                self.resend(idx, now_us);
                events += 1;
            } else {
                self.led.gave_up.inc();
                self.complete(idx, now_us);
                events += 1;
            }
        }
        events
    }

    /// Drains one session's socket. `credit` counts arrivals toward the
    /// current transaction; otherwise they are late answers.
    fn drain_socket(&mut self, idx: usize, credit: bool, now_us: u64) -> u64 {
        let mut events = 0u64;
        loop {
            let res = {
                let Swarm {
                    sessions, recv_buf, ..
                } = self;
                sessions[idx].socket.recv_from(recv_buf)
            };
            match res {
                Ok((_n, _from)) => {
                    events += 1;
                    self.led.answers.inc();
                    let s = &mut self.sessions[idx];
                    if credit && s.state == SessState::Waiting {
                        s.got += 1;
                        if s.got >= s.expect {
                            self.complete(idx, now_us);
                        }
                    } else {
                        self.led.late.inc();
                    }
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        events
    }

    /// Closes the current transaction, releases its tokens, schedules
    /// the next think (shortened during the burst window).
    fn complete(&mut self, idx: usize, now_us: u64) {
        let div = if self.burst_now {
            self.cfg.burst_think_div.max(1)
        } else {
            1
        };
        let s = &mut self.sessions[idx];
        let lo = self.cfg.think_min_us / div;
        let hi = (self.cfg.think_max_us / div).max(lo + 1);
        let think = s.rng.gen_range(lo..hi);
        s.state = SessState::Idle;
        s.next_at_us = now_us + think;
        self.tokens_in_use = self.tokens_in_use.saturating_sub(s.tokens_held);
        s.tokens_held = 0;
        self.led.requests.inc();
    }

    /// Starts new transactions on idle sessions whose think time has
    /// elapsed, respecting the global token cap.
    fn initiate(&mut self, now_us: u64) -> u64 {
        let mut events = 0u64;
        let n = self.sessions.len();
        for idx in 0..n {
            let s = &self.sessions[idx];
            if s.state != SessState::Idle || now_us < s.next_at_us {
                continue;
            }
            // Sweep up stale answers before a fresh request, so they
            // are not miscredited to it.
            events += self.drain_socket(idx, false, now_us);
            if !self.start_transaction(idx, now_us) {
                // Token cap reached: try again next tick.
                break;
            }
            events += 1;
        }
        events
    }

    /// Builds and sends one request for session `idx`. Returns false if
    /// the token cap refused it.
    fn start_transaction(&mut self, idx: usize, now_us: u64) -> bool {
        let (payload_len, is_noise, expect) = {
            let pool = &self.file_pool;
            let s = &mut self.sessions[idx];
            build_request(s, pool);
            (s.pending.len(), s.noise, s.expect)
        };
        let need = tokens_for(payload_len);
        if self.tokens_in_use + need > self.cfg.inflight_cap {
            return false;
        }
        self.tokens_in_use += need;
        if self.tokens_in_use as i64 > self.led.inflight_hwm.get() {
            self.led.inflight_hwm.set(self.tokens_in_use as i64);
        }
        let (retries, hold_us) = if expect == 0 {
            // Token-release timer only: nothing to wait for.
            (0, 20_000)
        } else {
            (self.cfg.retries, self.cfg.timeout_us)
        };
        {
            let s = &mut self.sessions[idx];
            s.tokens_held = need;
            s.state = SessState::Waiting;
            s.got = 0;
            s.retries_left = retries;
            s.deadline_us = now_us + hold_us;
        }
        if is_noise {
            self.led.noise.inc();
        }
        self.offer(idx, now_us);
        true
    }

    /// Puts session `idx`'s pending payload on the wire (through
    /// impairment when installed). Counted as one offered datagram.
    fn offer(&mut self, idx: usize, now_us: u64) {
        self.led.sent.inc();
        let Swarm {
            sessions,
            emit,
            imp,
            server,
            led,
            ..
        } = self;
        match imp.as_mut() {
            Some(imp) => {
                imp.admit(
                    idx,
                    LinkDirection::ToServer,
                    &sessions[idx].pending,
                    now_us,
                    emit,
                );
                for d in emit.drain(..) {
                    if sessions[d.ctx].socket.send_to(&d.bytes, *server).is_err() {
                        led.send_errors.inc();
                    }
                }
            }
            None => {
                let s = &sessions[idx];
                if s.socket.send_to(&s.pending, *server).is_err() {
                    led.send_errors.inc();
                }
            }
        }
    }

    /// Retransmits the pending payload unchanged.
    fn resend(&mut self, idx: usize, now_us: u64) {
        self.offer(idx, now_us);
        let s = &mut self.sessions[idx];
        s.deadline_us = now_us + self.cfg.timeout_us;
    }

    fn maybe_sweep(&mut self, now_us: u64) {
        if now_us.saturating_sub(self.last_sweep_us) < 500_000 {
            return;
        }
        self.last_sweep_us = now_us;
        self.led.inflight.set(self.tokens_in_use as i64);
    }
}

/// Builds the next request for a session into `s.pending` and sets
/// `s.expect`. Honest sessions publish first, then mix source queries
/// (the paper's dominant traffic), keyword searches, and management
/// requests; noise sessions emit hostile bytes.
fn build_request(s: &mut Session, pool: &[FileId]) {
    if s.noise {
        build_noise(s);
        return;
    }
    if !s.published {
        s.published = true;
        let msg = build_offer(s, pool);
        msg.encode_into(&mut s.pending);
        s.expect = 0;
        return;
    }
    let roll = s.rng.gen_range(0..100u32);
    let msg = if let Some(fid) = s.special_file.filter(|_| roll < 50) {
        // Sentinel sessions keep their canary fileID on the wire.
        Message::GetSources {
            file_ids: vec![fid],
        }
    } else if roll < 50 {
        let k = s.rng.gen_range(1..=3usize);
        let mut ids = Vec::with_capacity(k);
        for _ in 0..k {
            ids.push(pool[s.rng.gen_range(0..pool.len())]);
        }
        Message::GetSources { file_ids: ids }
    } else if roll < 75 {
        Message::SearchRequest {
            expr: SearchExpr::keyword(VOCAB[s.rng.gen_range(0..VOCAB.len())]),
        }
    } else if roll < 90 {
        Message::StatusRequest {
            challenge: s.rng.gen::<u32>(),
        }
    } else if roll < 95 {
        Message::GetServerList
    } else {
        Message::ServerDescRequest
    };
    s.expect = match &msg {
        Message::GetSources { file_ids } => file_ids.len() as u32,
        _ => 1,
    };
    msg.encode_into(&mut s.pending);
}

/// The session's one-time announcement: 1–3 files from the shared pool
/// (sentinel sessions always include their canary file), named from the
/// shared vocabulary so swarm searches hit.
fn build_offer(s: &mut Session, pool: &[FileId]) -> Message {
    let mut files = Vec::new();
    let k = s.rng.gen_range(1..=3usize);
    for i in 0..k {
        let fid = match (i, s.special_file) {
            (0, Some(f)) => f,
            _ => pool[s.rng.gen_range(0..pool.len())],
        };
        let a = VOCAB[s.rng.gen_range(0..VOCAB.len())];
        let b = VOCAB[s.rng.gen_range(0..VOCAB.len())];
        files.push(FileEntry {
            file_id: fid,
            client_id: s.cid,
            port: 4662,
            // etwlint: allow(no-alloc-hot-loop): offer construction — once per session at publish, not per packet
            tags: TagList(vec![
                // etwlint: allow(no-alloc-hot-loop): as above
                Tag::str(
                    special::FILENAME,
                    // etwlint: allow(no-alloc-hot-loop): as above
                    format!("{a} {b} take{}.mp3", s.cid.0 & 0xFF),
                ),
                Tag::u32(
                    special::FILESIZE,
                    s.rng.gen_range(1_000_000..900_000_000u32),
                ),
                Tag::str(special::FILETYPE, "Audio"),
            ]),
        });
    }
    Message::OfferFiles { files }
}

/// Hostile payloads: random garbage, marked-but-corrupt, truncations,
/// oversized frames, wrong protocol markers — the arbitrary traffic a
/// real server port attracts.
fn build_noise(s: &mut Session) {
    s.expect = 0;
    s.pending.clear();
    match s.rng.gen_range(0..5u32) {
        0 => {
            // Pure garbage.
            let len = s.rng.gen_range(0..64usize);
            s.pending.resize(len, 0);
            s.rng.fill(&mut s.pending[..]);
        }
        1 => {
            // Valid marker + opcode, noise body.
            let ops = [
                opcodes::SEARCH_REQ,
                opcodes::GET_SOURCES,
                opcodes::STATUS_REQ,
                opcodes::OFFER_FILES,
            ];
            s.pending.push(PROTO_EDONKEY);
            s.pending.push(ops[s.rng.gen_range(0..ops.len())]);
            let len = s.rng.gen_range(0..48usize);
            let start = s.pending.len();
            s.pending.resize(start + len, 0);
            s.rng.fill(&mut s.pending[start..]);
        }
        2 => {
            // Truncated valid message.
            let msg = Message::StatusRequest {
                challenge: s.rng.gen::<u32>(),
            };
            msg.encode_into(&mut s.pending);
            let keep = s.rng.gen_range(1..s.pending.len().max(2));
            s.pending.truncate(keep);
        }
        3 => {
            // Oversized marked frame (rejected before decode).
            let len = s.rng.gen_range(4097..5000usize);
            s.pending.push(PROTO_EDONKEY);
            s.pending.push(opcodes::SEARCH_REQ);
            s.pending.resize(len, 0xA5);
        }
        _ => {
            // Wrong protocol marker.
            s.pending.push(0x00);
            s.pending.push(s.rng.gen::<u8>());
        }
    }
}

/// A full loopback-soak configuration: server, swarm, and the egress
/// impairment applied to the server's answers.
#[derive(Debug, Clone, Default)]
pub struct SoakConfig {
    /// The client swarm.
    pub swarm: SwarmConfig,
    /// The serving loop.
    pub net: NetConfig,
    /// From-server impairment on the server's answers.
    pub server_fault: Option<FaultSpec>,
}

/// Everything a soak run produced, for gates and reports.
#[derive(Debug)]
pub struct SoakOutcome {
    /// Client-side accounting.
    pub report: SwarmReport,
    /// Where the server bound.
    pub server_addr: SocketAddr,
    /// Engine counters after the run.
    pub engine: crate::engine::EngineStats,
    /// Decoder accounting after the run.
    pub decoder: etw_edonkey::decoder::DecoderStats,
    /// The serving loop's I/O error, if it died (a gate failure).
    pub server_error: Option<String>,
}

/// Runs a complete loopback soak: binds the server on an ephemeral
/// port, spawns its event loop on a thread, drives the swarm from the
/// calling thread, then shuts down in the order that lets every ledger
/// close exactly (swarm quiesce → grace → server drain-and-exit →
/// final client drain).
pub fn run_loopback_soak(
    cfg: SoakConfig,
    registry: &Registry,
    roster: &Roster,
    tap: Option<Box<dyn PacketTap>>,
) -> Result<SoakOutcome, String> {
    let mut net = ServerNet::bind("127.0.0.1:0", ServerEngine::default(), cfg.net, registry)
        .map_err(|e| format!("server bind failed: {e}"))?;
    if let Some(spec) = cfg.server_fault {
        net = net.with_impairment(SocketImpairment::new(spec, registry));
    }
    if let Some(t) = tap {
        net = net.with_tap(t);
    }
    let server_addr = net.local_addr();

    let mut swarm = Swarm::new(cfg.swarm, server_addr, roster, registry)
        .map_err(|e| format!("swarm setup failed: {e}"))?;

    let shutdown = Arc::new(AtomicBool::new(false));
    let server_stop = Arc::clone(&shutdown);
    let handle = std::thread::Builder::new()
        .name("etw-served".into())
        .spawn(move || {
            let r = net.run(&server_stop);
            (net, r)
        })
        .map_err(|e| format!("server thread spawn failed: {e}"))?;

    swarm.run();
    // Grace: let the last datagrams cross loopback before asking the
    // server to drain-and-exit.
    std::thread::sleep(Duration::from_millis(50));
    // ordering: relaxed — one-shot latch; the serving loop re-checks it
    // every idle iteration, so a late observation only delays exit.
    shutdown.store(true, Ordering::Relaxed);
    let (net, run_result) = match handle.join() {
        Ok(x) => x,
        Err(_) => return Err("server thread panicked".into()),
    };
    // The server is silent now: anything still buffered on client
    // sockets is the tail of `answers_sent`, picked up here.
    swarm.final_drain();

    Ok(SoakOutcome {
        report: swarm.report(),
        server_addr,
        engine: net.engine().stats(),
        decoder: net.decoder_stats(),
        server_error: run_result.err().map(|e| e.to_string()),
    })
}

/// The soak's exact-conservation gate, evaluated over the metrics
/// snapshot: client sent == server received + impairment drops, server
/// received == answered + shed + malformed, answers sent == answers
/// received. Empty result = everything conserves.
pub fn soak_gate_failures(
    snap: &etw_telemetry::Snapshot,
    to_server_impaired: bool,
    from_server_impaired: bool,
) -> Vec<String> {
    use etw_faults::sock::SockLedger;
    let mut failures = crate::net::NetLedger::from_snapshot(snap).conservation_failures();
    let sent = snap.counter("swarm.sent_total");
    let cli_send_errors = snap.counter("swarm.send_errors_total");
    let recv = snap.counter("server.net.recv_total");
    if to_server_impaired {
        let lg = SockLedger::from_snapshot(snap, LinkDirection::ToServer);
        if lg.offered != sent {
            failures.push(format!(
                "to-server impairment saw {} datagrams but the swarm offered {sent}",
                lg.offered
            ));
        }
        if !lg.conserves() {
            failures.push(format!(
                "to-server impairment ledger does not conserve: {lg:?}"
            ));
        }
        if recv != lg.delivered - cli_send_errors {
            failures.push(format!(
                "loopback lost datagrams: server received {recv}, clients delivered {} ({} send errors)",
                lg.delivered, cli_send_errors
            ));
        }
    } else if recv != sent - cli_send_errors {
        failures.push(format!(
            "loopback lost datagrams: server received {recv}, clients sent {sent} ({cli_send_errors} send errors)"
        ));
    }
    if from_server_impaired {
        let lg = SockLedger::from_snapshot(snap, LinkDirection::FromServer);
        if !lg.conserves() {
            failures.push(format!(
                "from-server impairment ledger does not conserve: {lg:?}"
            ));
        }
    }
    let answers_sent = snap.counter("server.net.answers_sent_total");
    let answers_recv = snap.counter("swarm.answers_total");
    if answers_recv != answers_sent {
        failures.push(format!(
            "answer path lost datagrams: server sent {answers_sent}, clients received {answers_recv}"
        ));
    }
    failures
}
