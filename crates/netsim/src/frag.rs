//! IPv4 fragmentation and reassembly.
//!
//! The paper's capture saw 2 981 fragmented UDP packets among 14 G (§2.3);
//! rare, but the decoding software must handle them, so the simulation
//! generates and reassembles real fragments. Reassembly follows the
//! classical hole-filling model keyed by (src, dst, ident, protocol), with
//! a timeout that discards stale partial datagrams (fragment loss).

use crate::clock::{Duration, VirtualTime};
use crate::packet::{Ipv4Packet, Ipv4View};
use std::borrow::Cow;
use std::collections::HashMap;

/// Fragments `packet` into IPv4 fragments no larger than `mtu` bytes of
/// total packet size (header + payload). Returns the packet unchanged if
/// it fits. Panics if `mtu` cannot carry the 20-byte header plus one
/// 8-byte payload unit.
pub fn fragment(packet: &Ipv4Packet, mtu: usize) -> Vec<Ipv4Packet> {
    let max_payload = mtu
        .checked_sub(crate::packet::IPV4_HEADER_LEN)
        .expect("mtu below IPv4 header size");
    assert!(max_payload >= 8, "mtu too small to fragment");
    if packet.payload.len() <= max_payload {
        return vec![packet.clone()];
    }
    // Fragment payload sizes must be multiples of 8 except the last.
    let unit = max_payload / 8 * 8;
    let mut out = Vec::with_capacity(packet.payload.len() / unit + 1);
    let mut offset = 0usize;
    while offset < packet.payload.len() {
        let end = (offset + unit).min(packet.payload.len());
        let last = end == packet.payload.len();
        out.push(Ipv4Packet {
            src: packet.src,
            dst: packet.dst,
            ident: packet.ident,
            more_fragments: !last,
            frag_offset: (offset / 8) as u16,
            ttl: packet.ttl,
            protocol: packet.protocol,
            payload: packet.payload.slice(offset..end),
        });
        offset = end;
    }
    out
}

/// Key identifying the datagram a fragment belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct FragKey {
    src: u32,
    dst: u32,
    ident: u16,
    protocol: u8,
}

struct Partial {
    /// Received (offset_bytes, payload) pieces, unordered: copies of
    /// the fragments' payloads, which outlive the captured frames.
    pieces: Vec<(usize, Vec<u8>)>,
    /// Total length once the last fragment is seen.
    total: Option<usize>,
    /// Arrival time of the first fragment (for timeout).
    first_seen: VirtualTime,
}

impl Partial {
    fn bytes_present(&self) -> usize {
        self.pieces.iter().map(|(_, b)| b.len()).sum()
    }

    /// Completed iff the total is known and the pieces tile [0, total)
    /// exactly (duplicates rejected on insert).
    fn try_assemble(&mut self) -> Option<Vec<u8>> {
        let total = self.total?;
        if self.bytes_present() != total {
            return None;
        }
        self.pieces.sort_by_key(|(off, _)| *off);
        let mut expect = 0usize;
        for (off, b) in &self.pieces {
            if *off != expect {
                return None; // overlapping or hole despite matching sum
            }
            expect += b.len();
        }
        let mut buf = Vec::with_capacity(total);
        for (_, b) in &self.pieces {
            buf.extend_from_slice(b);
        }
        Some(buf)
    }
}

/// Counters kept by the reassembler.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct ReassemblyStats {
    /// Packets that were not fragments and passed straight through.
    pub whole: u64,
    /// Fragments received.
    pub fragments: u64,
    /// Datagrams successfully reassembled from fragments.
    pub reassembled: u64,
    /// Partial datagrams dropped on timeout.
    pub timed_out: u64,
    /// Duplicate fragments discarded.
    pub duplicates: u64,
}

impl ReassemblyStats {
    /// Merges counters from another reassembler (used when decoding is
    /// sharded across worker threads).
    pub fn merge(&mut self, other: &ReassemblyStats) {
        self.whole += other.whole;
        self.fragments += other.fragments;
        self.reassembled += other.reassembled;
        self.timed_out += other.timed_out;
        self.duplicates += other.duplicates;
    }
}

/// Hole-filling IPv4 reassembler with timeout.
pub struct Reassembler {
    partials: HashMap<FragKey, Partial>,
    timeout: Duration,
    stats: ReassemblyStats,
}

impl Reassembler {
    /// Creates a reassembler that abandons partial datagrams older than
    /// `timeout`.
    pub fn new(timeout: Duration) -> Self {
        Reassembler {
            partials: HashMap::new(),
            timeout,
            stats: ReassemblyStats::default(),
        }
    }

    /// Standard 30-second reassembly timeout.
    pub fn with_default_timeout() -> Self {
        Self::new(Duration::from_secs(30))
    }

    /// Offers a packet; returns its datagram's layer-4 payload once the
    /// datagram is whole: the packet's own payload, borrowed, when it is
    /// not a fragment, or the reassembled payload, owned. Only fragments
    /// are copied.
    pub fn push<'a>(&mut self, now: VirtualTime, packet: Ipv4View<'a>) -> Option<Cow<'a, [u8]>> {
        self.expire(now);
        if !packet.is_fragment() {
            self.stats.whole += 1;
            return Some(Cow::Borrowed(packet.payload));
        }
        self.stats.fragments += 1;
        let key = FragKey {
            src: packet.src,
            dst: packet.dst,
            ident: packet.ident,
            protocol: packet.protocol,
        };
        let entry = self.partials.entry(key).or_insert_with(|| Partial {
            pieces: Vec::new(),
            total: None,
            first_seen: now,
        });
        let off = packet.frag_offset as usize * 8;
        if entry.pieces.iter().any(|(o, _)| *o == off) {
            self.stats.duplicates += 1;
            return None;
        }
        if !packet.more_fragments {
            entry.total = Some(off + packet.payload.len());
        }
        entry.pieces.push((off, packet.payload.to_vec()));
        let payload = entry.try_assemble()?;
        self.partials.remove(&key);
        self.stats.reassembled += 1;
        Some(Cow::Owned(payload))
    }

    /// Drops partial datagrams older than the timeout.
    pub fn expire(&mut self, now: VirtualTime) {
        let timeout = self.timeout;
        let before = self.partials.len();
        self.partials.retain(|_, p| (now - p.first_seen) < timeout);
        self.stats.timed_out += (before - self.partials.len()) as u64;
    }

    /// Partial datagrams currently pending.
    pub fn pending(&self) -> usize {
        self.partials.len()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ReassemblyStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PROTO_UDP;
    use bytes::Bytes;

    fn big_packet(len: usize) -> Ipv4Packet {
        let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        Ipv4Packet {
            src: 10,
            dst: 20,
            ident: 777,
            more_fragments: false,
            frag_offset: 0,
            ttl: 64,
            protocol: PROTO_UDP,
            payload: Bytes::from(payload),
        }
    }

    #[test]
    fn small_packet_not_fragmented() {
        let p = big_packet(100);
        let frags = fragment(&p, 1500);
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0], p);
    }

    #[test]
    fn fragments_cover_payload_exactly() {
        let p = big_packet(4000);
        let frags = fragment(&p, 1500);
        assert!(frags.len() >= 3);
        let mut total = 0;
        for (i, f) in frags.iter().enumerate() {
            assert_eq!(f.ident, p.ident);
            assert_eq!(f.more_fragments, i != frags.len() - 1);
            assert_eq!(f.frag_offset as usize * 8, total);
            // Non-last fragments are multiples of 8.
            if i != frags.len() - 1 {
                assert_eq!(f.payload.len() % 8, 0);
            }
            assert!(f.payload.len() + crate::packet::IPV4_HEADER_LEN <= 1500);
            total += f.payload.len();
        }
        assert_eq!(total, 4000);
    }

    #[test]
    fn in_order_reassembly() {
        let p = big_packet(5000);
        let frags = fragment(&p, 1500);
        let mut r = Reassembler::with_default_timeout();
        let mut result = None;
        for f in &frags {
            if let Some(done) = r.push(VirtualTime::ZERO, f.view()) {
                assert!(result.is_none());
                result = Some(done);
            }
        }
        let done = result.expect("reassembled");
        assert!(matches!(done, Cow::Owned(_)), "reassembly copies");
        assert_eq!(done, &p.payload[..]);
        assert_eq!(r.stats().reassembled, 1);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn out_of_order_reassembly() {
        let p = big_packet(5000);
        let mut frags = fragment(&p, 1500);
        frags.reverse();
        let mut r = Reassembler::with_default_timeout();
        let mut result = None;
        for f in &frags {
            if let Some(done) = r.push(VirtualTime::ZERO, f.view()) {
                result = Some(done);
            }
        }
        assert_eq!(result.expect("reassembled"), &p.payload[..]);
    }

    #[test]
    fn duplicate_fragments_ignored() {
        let p = big_packet(3000);
        let frags = fragment(&p, 1500);
        let mut r = Reassembler::with_default_timeout();
        assert!(r.push(VirtualTime::ZERO, frags[0].view()).is_none());
        assert!(r.push(VirtualTime::ZERO, frags[0].view()).is_none());
        assert_eq!(r.stats().duplicates, 1);
        let done = frags[1..]
            .iter()
            .filter_map(|f| r.push(VirtualTime::ZERO, f.view()))
            .next();
        assert_eq!(done.expect("reassembled"), &p.payload[..]);
    }

    #[test]
    fn missing_fragment_times_out() {
        let p = big_packet(5000);
        let frags = fragment(&p, 1500);
        let mut r = Reassembler::new(Duration::from_secs(30));
        // Drop the second fragment.
        for (i, f) in frags.iter().enumerate() {
            if i == 1 {
                continue;
            }
            assert!(r.push(VirtualTime::ZERO, f.view()).is_none());
        }
        assert_eq!(r.pending(), 1);
        r.expire(VirtualTime::from_secs(31));
        assert_eq!(r.pending(), 0);
        assert_eq!(r.stats().timed_out, 1);
    }

    #[test]
    fn interleaved_datagrams_keyed_separately() {
        let mut a = big_packet(3000);
        a.ident = 1;
        let mut b = big_packet(3000);
        b.ident = 2;
        let fa = fragment(&a, 1500);
        let fb = fragment(&b, 1500);
        let mut r = Reassembler::with_default_timeout();
        let mut done = Vec::new();
        for f in fa.iter().chain(fb.iter()) {
            if let Some(d) = r.push(VirtualTime::ZERO, f.view()) {
                done.push(d);
            }
        }
        assert_eq!(done.len(), 2);
        assert_eq!(r.stats().reassembled, 2);
    }

    #[test]
    fn whole_packets_pass_through_and_counted() {
        let mut r = Reassembler::with_default_timeout();
        let p = big_packet(100);
        assert_eq!(
            r.push(VirtualTime::ZERO, p.view()),
            Some(Cow::Borrowed(&p.payload[..]))
        );
        assert_eq!(r.stats().whole, 1);
    }

    #[test]
    fn fragment_round_trip_through_wire_format() {
        // Fragments survive serialisation: fragment → bytes → parse →
        // reassemble.
        let p = big_packet(4000);
        let mut r = Reassembler::with_default_timeout();
        let mut out = None;
        for f in fragment(&p, 1500) {
            let raw = f.to_bytes();
            let parsed = Ipv4Packet::parse(&raw).unwrap();
            if let Some(d) = r.push(VirtualTime::ZERO, parsed) {
                out = Some(d.into_owned());
            }
        }
        assert_eq!(out.unwrap(), &p.payload[..]);
    }
}
