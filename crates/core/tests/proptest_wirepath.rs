//! The in-place wire path against the copying chain it replaced.
//!
//! `WireDecoder::push` reads the Ethernet, IPv4 and UDP headers from the
//! captured frame itself and hands on a payload that borrows it; only IP
//! fragments are copied, into the reassembler. The oracle below is the
//! chain the decoder used to run, kept here verbatim in behaviour: every
//! layer copies its payload out (`EthernetFrame::parse` →
//! `Ipv4Packet::parse` → `Reassembler::push` → `UdpDatagram::parse`).
//! Both see the same frame stream: datagrams in both directions, low-ID
//! peers, fragmented datagrams with fragments shuffled, duplicated and
//! lost, TCP noise, other-port UDP, and truncated or byte-flipped copies
//! of each. After every frame they must agree on what was recovered and
//! on the reassembly counters.

use bytes::Bytes;
use etw_core::wirepath::{
    encapsulate, tcp_noise_frame_bytes, Direction, Recovered, WireDecoder, SERVER_IP, SERVER_PORT,
};
use etw_edonkey::ids::ClientId;
use etw_netsim::clock::VirtualTime;
use etw_netsim::frag::ReassemblyStats;
use etw_netsim::packet::{EthernetFrame, Ipv4Packet, UdpDatagram, PROTO_UDP};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The copying chain, as the wire decoder ran it before it parsed in
/// place.
mod copying {
    use bytes::Bytes;
    use etw_core::wirepath::{Direction, SERVER_IP, SERVER_PORT};
    use etw_edonkey::ids::ClientId;
    use etw_netsim::clock::{Duration, VirtualTime};
    use etw_netsim::frag::ReassemblyStats;
    use etw_netsim::packet::{
        internet_checksum, Ipv4Packet, UdpDatagram, ETH_HEADER_LEN, IPV4_HEADER_LEN, PROTO_UDP,
        UDP_HEADER_LEN,
    };
    use std::collections::HashMap;

    /// What the copying chain recovers from one frame.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum Outcome {
        Udp {
            peer: ClientId,
            direction: Direction,
            payload: Vec<u8>,
            was_fragmented: bool,
        },
        FragmentPending,
        NotUdp,
        OtherPort,
        ParseError,
    }

    fn parse_ethernet(buf: &[u8]) -> Option<Bytes> {
        (buf.len() >= ETH_HEADER_LEN).then(|| Bytes::copy_from_slice(&buf[ETH_HEADER_LEN..]))
    }

    fn parse_ipv4(buf: &[u8]) -> Option<Ipv4Packet> {
        if buf.len() < IPV4_HEADER_LEN || buf[0] >> 4 != 4 {
            return None;
        }
        let ihl = (buf[0] & 0x0f) as usize * 4;
        if ihl < IPV4_HEADER_LEN || buf.len() < ihl || internet_checksum(&buf[..ihl]) != 0 {
            return None;
        }
        let total_len = u16::from_be_bytes([buf[2], buf[3]]) as usize;
        if total_len < ihl || total_len > buf.len() {
            return None;
        }
        let flags_frag = u16::from_be_bytes([buf[6], buf[7]]);
        Some(Ipv4Packet {
            src: u32::from_be_bytes([buf[12], buf[13], buf[14], buf[15]]),
            dst: u32::from_be_bytes([buf[16], buf[17], buf[18], buf[19]]),
            ident: u16::from_be_bytes([buf[4], buf[5]]),
            more_fragments: flags_frag & 0x2000 != 0,
            frag_offset: flags_frag & 0x1fff,
            ttl: buf[8],
            protocol: buf[9],
            payload: Bytes::copy_from_slice(&buf[ihl..total_len]),
        })
    }

    fn parse_udp(ip: &Ipv4Packet) -> Option<UdpDatagram> {
        let buf = &ip.payload;
        if ip.protocol != PROTO_UDP || buf.len() < UDP_HEADER_LEN {
            return None;
        }
        let udp_len = u16::from_be_bytes([buf[4], buf[5]]) as usize;
        if udp_len < UDP_HEADER_LEN || udp_len > buf.len() {
            return None;
        }
        Some(UdpDatagram {
            src_ip: ip.src,
            dst_ip: ip.dst,
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            payload: ip.payload.slice(UDP_HEADER_LEN..udp_len),
        })
    }

    #[derive(Clone, Copy, PartialEq, Eq, Hash)]
    struct FragKey {
        src: u32,
        dst: u32,
        ident: u16,
        protocol: u8,
    }

    struct Partial {
        pieces: Vec<(usize, Bytes)>,
        total: Option<usize>,
        first_seen: VirtualTime,
    }

    impl Partial {
        fn try_assemble(&mut self) -> Option<Bytes> {
            let total = self.total?;
            if self.pieces.iter().map(|(_, b)| b.len()).sum::<usize>() != total {
                return None;
            }
            self.pieces.sort_by_key(|(off, _)| *off);
            let mut expect = 0usize;
            for (off, b) in &self.pieces {
                if *off != expect {
                    return None;
                }
                expect += b.len();
            }
            let mut buf = Vec::with_capacity(total);
            for (_, b) in &self.pieces {
                buf.extend_from_slice(b);
            }
            Some(Bytes::from(buf))
        }
    }

    /// The hole-filling reassembler over owned packets, 30 s timeout.
    struct Reassembler {
        partials: HashMap<FragKey, Partial>,
        stats: ReassemblyStats,
    }

    impl Reassembler {
        fn push(&mut self, now: VirtualTime, packet: Ipv4Packet) -> Option<Ipv4Packet> {
            let before = self.partials.len();
            self.partials
                .retain(|_, p| (now - p.first_seen) < Duration::from_secs(30));
            self.stats.timed_out += (before - self.partials.len()) as u64;
            if !packet.is_fragment() {
                self.stats.whole += 1;
                return Some(packet);
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
            entry.pieces.push((off, packet.payload.clone()));
            let payload = entry.try_assemble()?;
            self.partials.remove(&key);
            self.stats.reassembled += 1;
            Some(Ipv4Packet {
                more_fragments: false,
                frag_offset: 0,
                payload,
                ..packet
            })
        }
    }

    /// The wire decoder before it parsed in place.
    pub struct Decoder {
        reassembler: Reassembler,
    }

    impl Decoder {
        pub fn new() -> Self {
            Decoder {
                reassembler: Reassembler {
                    partials: HashMap::new(),
                    stats: ReassemblyStats::default(),
                },
            }
        }

        pub fn stats(&self) -> ReassemblyStats {
            self.reassembler.stats
        }

        pub fn push(&mut self, now: VirtualTime, frame: &[u8]) -> Outcome {
            let Some(l3) = parse_ethernet(frame) else {
                return Outcome::ParseError;
            };
            let Some(ip) = parse_ipv4(&l3) else {
                return Outcome::ParseError;
            };
            if ip.protocol != PROTO_UDP {
                return Outcome::NotUdp;
            }
            let was_fragmented = ip.is_fragment();
            let Some(whole) = self.reassembler.push(now, ip) else {
                return Outcome::FragmentPending;
            };
            let Some(udp) = parse_udp(&whole) else {
                return Outcome::ParseError;
            };
            let (peer_ip, direction) = if udp.dst_ip == SERVER_IP && udp.dst_port == SERVER_PORT {
                (udp.src_ip, Direction::ToServer)
            } else if udp.src_ip == SERVER_IP && udp.src_port == SERVER_PORT {
                (udp.dst_ip, Direction::FromServer)
            } else {
                return Outcome::OtherPort;
            };
            let peer = if peer_ip & 0xff00_0000 == 0x0a00_0000 {
                ClientId(peer_ip & 0x00ff_ffff)
            } else {
                ClientId(peer_ip)
            };
            Outcome::Udp {
                peer,
                direction,
                payload: udp.payload.to_vec(),
                was_fragmented,
            }
        }
    }
}

use copying::Outcome;

fn outcome(r: Recovered<'_>) -> Outcome {
    match r {
        Recovered::Udp {
            peer,
            direction,
            payload,
            was_fragmented,
        } => Outcome::Udp {
            peer,
            direction,
            payload: payload.into_owned(),
            was_fragmented,
        },
        Recovered::FragmentPending => Outcome::FragmentPending,
        Recovered::NotUdp => Outcome::NotUdp,
        Recovered::OtherPort => Outcome::OtherPort,
        Recovered::ParseError => Outcome::ParseError,
    }
}

fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
    let mut v: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
    if let Some(first) = v.first_mut() {
        *first = 0xe3; // the eDonkey marker, as on the captured link
    }
    v
}

fn random_client(rng: &mut StdRng) -> ClientId {
    if rng.gen_bool(0.3) {
        ClientId::low(rng.gen_range(1..0x00ff_ffff))
    } else {
        ClientId(rng.gen_range(0x0100_0000..=u32::MAX))
    }
}

fn datagram(rng: &mut StdRng, payload_len: usize, mtu: usize) -> Vec<Vec<u8>> {
    let direction = if rng.gen_bool(0.5) {
        Direction::ToServer
    } else {
        Direction::FromServer
    };
    encapsulate(
        random_bytes(rng, payload_len),
        random_client(rng),
        rng.gen_range(1024..=u16::MAX),
        direction,
        rng.gen(),
        mtu,
    )
    .iter()
    .map(EthernetFrame::to_bytes)
    .collect()
}

fn other_port_udp(rng: &mut StdRng) -> Vec<u8> {
    let len = rng.gen_range(0..300);
    // Sometimes the server's address on another port, sometimes
    // neither end is the server.
    let (src_ip, src_port) = if rng.gen_bool(0.5) {
        (SERVER_IP, 53)
    } else {
        (rng.gen(), SERVER_PORT)
    };
    let udp = UdpDatagram {
        src_ip,
        dst_ip: rng.gen(),
        src_port,
        dst_port: rng.gen_range(1..SERVER_PORT),
        payload: Bytes::from(random_bytes(rng, len)),
    };
    let ip = Ipv4Packet {
        src: udp.src_ip,
        dst: udp.dst_ip,
        ident: rng.gen(),
        more_fragments: false,
        frag_offset: 0,
        ttl: 64,
        protocol: PROTO_UDP,
        payload: Bytes::from(udp.to_bytes()),
    };
    EthernetFrame::ipv4(Bytes::from(ip.to_bytes())).to_bytes()
}

/// A damaged copy: cut short, or one byte flipped.
fn damaged(rng: &mut StdRng, frame: &[u8]) -> Vec<u8> {
    let mut copy = frame.to_vec();
    if copy.is_empty() || rng.gen_bool(0.5) {
        copy.truncate(rng.gen_range(0..frame.len().max(1)));
    } else {
        let at = rng.gen_range(0..copy.len());
        copy[at] ^= rng.gen_range(1..=u8::MAX);
    }
    copy
}

/// `items` pieces of traffic, each one or more frames with timestamps
/// that never go back; now and then a gap past the 30 s reassembly
/// timeout strands a partial datagram.
fn frame_stream(seed: u64, items: usize) -> Vec<(VirtualTime, Vec<u8>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut now = 0u64;
    let mut out = Vec::new();
    for _ in 0..items {
        now += if rng.gen_bool(0.05) {
            40_000_000
        } else {
            rng.gen_range(0..2_000_000)
        };
        let mut frames = match rng.gen_range(0..4) {
            0 => {
                let len = rng.gen_range(0..1_400);
                datagram(&mut rng, len, 1500)
            }
            1 => {
                // Fragmented: shuffled, some duplicated, one sometimes lost.
                let (len, mtu) = (rng.gen_range(1_500..6_000), rng.gen_range(576..1500));
                let mut frags = datagram(&mut rng, len, mtu);
                for _ in 0..rng.gen_range(0..3) {
                    let dup = frags[rng.gen_range(0..frags.len())].clone();
                    frags.push(dup);
                }
                if rng.gen_bool(0.2) {
                    frags.remove(rng.gen_range(0..frags.len()));
                }
                frags.shuffle(&mut rng);
                frags
            }
            2 => vec![tcp_noise_frame_bytes(
                rng.gen(),
                SERVER_IP,
                rng.gen_range(0..1_400),
            )],
            _ => vec![other_port_udp(&mut rng)],
        };
        for i in 0..frames.len() {
            if rng.gen_bool(0.3) {
                let copy = damaged(&mut rng, &frames[i]);
                frames.push(copy);
            }
        }
        out.extend(frames.into_iter().map(|f| (VirtualTime(now), f)));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Frame by frame, the in-place decoder recovers what the copying
    /// chain recovered, and keeps the same reassembly counters.
    #[test]
    fn in_place_wire_path_matches_the_copying_chain(seed in any::<u64>(), items in 1usize..60) {
        let mut in_place = WireDecoder::new();
        let mut oracle = copying::Decoder::new();
        let mut seen = ReassemblyStats::default();
        for (i, (ts, frame)) in frame_stream(seed, items).iter().enumerate() {
            let got = outcome(in_place.push(*ts, frame));
            let want = oracle.push(*ts, frame);
            prop_assert_eq!(got, want, "frame {} of seed {}", i, seed);
            prop_assert_eq!(in_place.reassembly_stats(), oracle.stats(), "frame {}", i);
            seen = oracle.stats();
        }
        // The stream reaches the reassembler at all (every case has at
        // least one whole packet or one fragment).
        prop_assert!(seen.whole + seen.fragments > 0);
    }
}

/// The generator covers every outcome and every reassembly counter, so
/// the property above is not vacuous on any of them.
#[test]
fn frame_stream_covers_every_outcome() {
    let mut kinds = std::collections::BTreeSet::new();
    let mut s = ReassemblyStats::default();
    for seed in 0..64 {
        let mut oracle = copying::Decoder::new();
        for (ts, frame) in frame_stream(seed, 60) {
            let kind = match oracle.push(ts, &frame) {
                Outcome::Udp {
                    was_fragmented: true,
                    ..
                } => "reassembled",
                Outcome::Udp { peer, .. } if peer.ipv4().is_none() => "low-id",
                Outcome::Udp { .. } => "udp",
                Outcome::FragmentPending => "pending",
                Outcome::NotUdp => "not-udp",
                Outcome::OtherPort => "other-port",
                Outcome::ParseError => "parse-error",
            };
            kinds.insert(kind);
        }
        s.merge(&oracle.stats());
    }
    assert_eq!(kinds.len(), 7, "outcomes seen: {kinds:?}");
    assert!(s.whole > 0 && s.fragments > 0 && s.reassembled > 0, "{s:?}");
    assert!(s.timed_out > 0 && s.duplicates > 0, "{s:?}");
}
