//! The wire path: application messages down to ethernet frames and back.
//!
//! Down-path (the simulated network): eDonkey message → UDP datagram →
//! IPv4 packet(s) (fragmenting at the MTU) → ethernet frames.
//! Up-path (the capture machine): frame → IPv4 → reassembly → UDP →
//! eDonkey payload.

use bytes::Bytes;
use etw_edonkey::ids::ClientId;
use etw_netsim::clock::VirtualTime;
use etw_netsim::frag::{fragment, Reassembler};
use etw_netsim::packet::{
    EthernetFrame, Ipv4Packet, Ipv4View, UdpDatagram, PROTO_TCP, PROTO_UDP, UDP_HEADER_LEN,
};
use std::borrow::Cow;

/// The simulated server's IPv4 address.
pub const SERVER_IP: u32 = 0x5216_0a01; // 82.22.10.1
/// The server's UDP port (the classic eDonkey server UDP port).
pub const SERVER_PORT: u16 = 4665;

/// Derives a stable client IPv4 address from its clientID. High IDs *are*
/// the address; low IDs (NATed clients) are mapped into a reserved /8 so
/// their packets still have well-formed, distinct source addresses.
pub fn client_ip(client: ClientId) -> u32 {
    match client.ipv4() {
        Some(octets) => u32::from_be_bytes(octets),
        None => 0x0a00_0000 | client.raw(), // 10.x.y.z
    }
}

/// Direction of a datagram on the captured link.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// Client query to the server.
    ToServer,
    /// Server answer to a client.
    FromServer,
}

/// Encapsulates an eDonkey payload into ethernet frames (one per IP
/// fragment). `ident` must be unique per datagram for reassembly.
pub fn encapsulate(
    payload: Vec<u8>,
    client: ClientId,
    client_port: u16,
    direction: Direction,
    ident: u16,
    mtu: usize,
) -> Vec<EthernetFrame> {
    let (src_ip, dst_ip, src_port, dst_port) = match direction {
        Direction::ToServer => (client_ip(client), SERVER_IP, client_port, SERVER_PORT),
        Direction::FromServer => (SERVER_IP, client_ip(client), SERVER_PORT, client_port),
    };
    let udp = UdpDatagram {
        src_ip,
        dst_ip,
        src_port,
        dst_port,
        payload: Bytes::from(payload),
    };
    let ip = Ipv4Packet {
        src: src_ip,
        dst: dst_ip,
        ident,
        more_fragments: false,
        frag_offset: 0,
        ttl: 64,
        protocol: PROTO_UDP,
        payload: Bytes::from(udp.to_bytes()),
    };
    fragment(&ip, mtu)
        .into_iter()
        .map(|frag| EthernetFrame::ipv4(Bytes::from(frag.to_bytes())))
        .collect()
}

/// Builds a TCP-looking frame (payload opaque); the decoder must skip it,
/// as the paper restricts itself to UDP traffic.
pub fn tcp_noise_frame(src: u32, dst: u32, payload_len: usize) -> EthernetFrame {
    let ip = Ipv4Packet {
        src,
        dst,
        ident: 0,
        more_fragments: false,
        frag_offset: 0,
        ttl: 64,
        protocol: PROTO_TCP,
        payload: Bytes::from(vec![0u8; payload_len.max(20)]),
    };
    EthernetFrame::ipv4(Bytes::from(ip.to_bytes()))
}

/// Incremental RFC 1071 checksum accumulator (big-endian u16 words; odd
/// trailing byte padded with zero), folded like
/// [`internet_checksum`](etw_netsim::packet::internet_checksum).
fn csum_words(mut sum: u64, data: &[u8]) -> u64 {
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u64::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u64::from(u16::from_be_bytes([*last, 0]));
    }
    sum
}

fn csum_fold(mut sum: u64) -> u16 {
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// Serialises one UDP datagram straight to ethernet frame bytes in a
/// single buffer — byte-identical to `encapsulate(..)` followed by
/// `EthernetFrame::to_bytes()`, without the intermediate packet structs
/// and copies. Datagrams that need IP fragmentation (more than `mtu`
/// bytes of IP packet) take the generic path.
pub fn datagram_frames(
    payload: &[u8],
    client: ClientId,
    client_port: u16,
    direction: Direction,
    ident: u16,
    mtu: usize,
    mut emit: impl FnMut(Vec<u8>),
) {
    let (src_ip, dst_ip, src_port, dst_port) = match direction {
        Direction::ToServer => (client_ip(client), SERVER_IP, client_port, SERVER_PORT),
        Direction::FromServer => (SERVER_IP, client_ip(client), SERVER_PORT, client_port),
    };
    let udp_len = 8 + payload.len();
    if 20 + udp_len > mtu {
        for f in encapsulate(payload.to_vec(), client, client_port, direction, ident, mtu) {
            emit(f.to_bytes());
        }
        return;
    }
    let total_len = 20 + udp_len;
    let mut out = Vec::with_capacity(14 + total_len);
    // Ethernet header (fixed simulation MACs, IPv4 ethertype).
    out.extend_from_slice(&[0x02, 0, 0, 0, 0, 0x01, 0x02, 0, 0, 0, 0, 0x02, 0x08, 0x00]);
    // IPv4 header.
    out.push(0x45);
    out.push(0);
    out.extend_from_slice(&(total_len as u16).to_be_bytes());
    out.extend_from_slice(&ident.to_be_bytes());
    out.extend_from_slice(&[0, 0]); // no fragmentation
    out.push(64); // ttl
    out.push(PROTO_UDP);
    out.extend_from_slice(&[0, 0]); // header checksum placeholder
    out.extend_from_slice(&src_ip.to_be_bytes());
    out.extend_from_slice(&dst_ip.to_be_bytes());
    let ip_csum = csum_fold(csum_words(0, &out[14..34]));
    out[24..26].copy_from_slice(&ip_csum.to_be_bytes());
    // UDP header + payload.
    out.extend_from_slice(&src_port.to_be_bytes());
    out.extend_from_slice(&dst_port.to_be_bytes());
    out.extend_from_slice(&(udp_len as u16).to_be_bytes());
    out.extend_from_slice(&[0, 0]); // udp checksum placeholder
    out.extend_from_slice(payload);
    // RFC 768 pseudo-header checksum over addresses + proto + length,
    // then the UDP bytes themselves.
    let mut sum = csum_words(0, &src_ip.to_be_bytes());
    sum = csum_words(sum, &dst_ip.to_be_bytes());
    sum += u64::from(PROTO_UDP);
    sum += udp_len as u64;
    sum = csum_words(sum, &out[34..]);
    let udp_csum = match csum_fold(sum) {
        0 => 0xffff,
        c => c,
    };
    out[40..42].copy_from_slice(&udp_csum.to_be_bytes());
    emit(out);
}

/// Fast single-buffer equivalent of
/// `tcp_noise_frame(..).to_bytes()` (zero-filled opaque TCP payload).
pub fn tcp_noise_frame_bytes(src: u32, dst: u32, payload_len: usize) -> Vec<u8> {
    let payload_len = payload_len.max(20);
    let total_len = 20 + payload_len;
    let mut out = Vec::with_capacity(14 + total_len);
    out.extend_from_slice(&[0x02, 0, 0, 0, 0, 0x01, 0x02, 0, 0, 0, 0, 0x02, 0x08, 0x00]);
    out.push(0x45);
    out.push(0);
    out.extend_from_slice(&(total_len as u16).to_be_bytes());
    out.extend_from_slice(&[0, 0, 0, 0]); // ident 0, no fragmentation
    out.push(64);
    out.push(PROTO_TCP);
    out.extend_from_slice(&[0, 0]);
    out.extend_from_slice(&src.to_be_bytes());
    out.extend_from_slice(&dst.to_be_bytes());
    let ip_csum = csum_fold(csum_words(0, &out[14..34]));
    out[24..26].copy_from_slice(&ip_csum.to_be_bytes());
    out.resize(14 + total_len, 0);
    out
}

/// Ethernet header length: the IPv4 header starts here in every frame
/// [`datagram_frames`] and [`tcp_noise_frame_bytes`] write.
const ETH_LEN: usize = 14;
/// Ethernet plus a minimal IPv4 header: the shortest frame the
/// fixed-offset readers below accept.
const ETH_IP_LEN: usize = ETH_LEN + 20;

/// Which way a frame travels, read from its IPv4 destination at the
/// fixed offset [`datagram_frames`] writes it to: toward [`SERVER_IP`]
/// or away from it. `None` for a frame too short to hold an IPv4 header.
pub fn frame_direction(frame: &[u8]) -> Option<Direction> {
    let dst = frame.get(ETH_LEN + 16..ETH_IP_LEN)?;
    Some(if *dst == SERVER_IP.to_be_bytes() {
        Direction::ToServer
    } else {
        Direction::FromServer
    })
}

/// FNV-1a hash of a frame's IPv4 ident, source and destination, read at
/// their fixed offsets, so every fragment of one datagram has the same
/// key. `None` for a frame too short to hold an IPv4 header.
pub fn fragment_key(frame: &[u8]) -> Option<u64> {
    let ip = frame.get(ETH_LEN..ETH_IP_LEN)?;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in ip[4..6].iter().chain(&ip[12..20]) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    Some(h)
}

/// What the capture machine recovers from one frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Recovered<'a> {
    /// A complete UDP datagram (possibly after reassembly) with the peer
    /// clientID and direction.
    Udp {
        /// Whose dialog this datagram belongs to.
        peer: ClientId,
        /// Query or answer.
        direction: Direction,
        /// eDonkey-level payload bytes: borrowed from the captured frame,
        /// owned only when the datagram was reassembled from fragments.
        payload: Cow<'a, [u8]>,
        /// True if this datagram arrived fragmented.
        was_fragmented: bool,
    },
    /// A fragment that did not (yet) complete a datagram.
    FragmentPending,
    /// Non-UDP traffic (TCP etc.) — skipped, like the paper's tcp flows.
    NotUdp,
    /// Traffic not involving the server's UDP port (other applications).
    OtherPort,
    /// Unparseable link/network-layer bytes.
    ParseError,
}

/// Stateful up-path decoder: ethernet bytes → recovered UDP payloads.
/// It reads every header in place; only IP fragments are copied, into
/// the reassembler.
pub struct WireDecoder {
    reassembler: Reassembler,
}

impl Default for WireDecoder {
    fn default() -> Self {
        WireDecoder {
            reassembler: Reassembler::with_default_timeout(),
        }
    }
}

impl WireDecoder {
    /// Fresh decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reassembly statistics (fragments seen, reassembled, timed out).
    pub fn reassembly_stats(&self) -> etw_netsim::frag::ReassemblyStats {
        self.reassembler.stats()
    }

    /// Processes one captured frame. The recovered payload borrows
    /// `frame_bytes` unless the frame completed a fragmented datagram.
    pub fn push<'a>(&mut self, now: VirtualTime, frame_bytes: &'a [u8]) -> Recovered<'a> {
        let Ok(frame) = EthernetFrame::parse(frame_bytes) else {
            return Recovered::ParseError;
        };
        let Ok(ip) = Ipv4Packet::parse(frame.payload) else {
            return Recovered::ParseError;
        };
        if ip.protocol != PROTO_UDP {
            return Recovered::NotUdp;
        }
        let was_fragmented = ip.is_fragment();
        let Some(whole) = self.reassembler.push(now, ip) else {
            return Recovered::FragmentPending;
        };
        let Ok(udp) = UdpDatagram::parse(&Ipv4View {
            payload: &whole,
            ..ip
        }) else {
            return Recovered::ParseError;
        };
        let (peer_ip, direction) = if udp.dst_ip == SERVER_IP && udp.dst_port == SERVER_PORT {
            (udp.src_ip, Direction::ToServer)
        } else if udp.src_ip == SERVER_IP && udp.src_port == SERVER_PORT {
            (udp.dst_ip, Direction::FromServer)
        } else {
            return Recovered::OtherPort;
        };
        let peer = if peer_ip & 0xff00_0000 == 0x0a00_0000 {
            ClientId(peer_ip & 0x00ff_ffff) // undo the low-ID mapping
        } else {
            ClientId(peer_ip)
        };
        // The eDonkey payload follows the UDP header, cut to the UDP
        // length; a reassembled buffer is cut in place.
        let end = UDP_HEADER_LEN + udp.payload.len();
        let payload = match whole {
            Cow::Borrowed(datagram) => Cow::Borrowed(&datagram[UDP_HEADER_LEN..end]),
            Cow::Owned(mut datagram) => {
                datagram.truncate(end);
                datagram.drain(..UDP_HEADER_LEN);
                Cow::Owned(datagram)
            }
        };
        Recovered::Udp {
            peer,
            direction,
            payload,
            was_fragmented,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etw_edonkey::messages::Message;

    fn query_bytes() -> Vec<u8> {
        Message::StatusRequest { challenge: 7 }.encode()
    }

    #[test]
    fn small_message_one_frame_round_trip() {
        let client = ClientId(0x5000_1234);
        let frames = encapsulate(query_bytes(), client, 4672, Direction::ToServer, 1, 1500);
        assert_eq!(frames.len(), 1);
        let mut d = WireDecoder::new();
        match d.push(VirtualTime::ZERO, &frames[0].to_bytes()) {
            Recovered::Udp {
                peer,
                direction,
                payload,
                was_fragmented,
            } => {
                assert_eq!(peer, client);
                assert_eq!(direction, Direction::ToServer);
                assert_eq!(&payload[..], &query_bytes()[..]);
                assert!(!was_fragmented);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn low_id_clients_mapped_and_recovered() {
        let client = ClientId::low(777);
        let frames = encapsulate(query_bytes(), client, 4672, Direction::ToServer, 2, 1500);
        let mut d = WireDecoder::new();
        match d.push(VirtualTime::ZERO, &frames[0].to_bytes()) {
            Recovered::Udp { peer, .. } => assert_eq!(peer, client),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn big_message_fragments_and_reassembles() {
        let payload = vec![0xE3u8; 5000];
        let client = ClientId(0x5000_0001);
        let frames: Vec<Vec<u8>> =
            encapsulate(payload.clone(), client, 4672, Direction::ToServer, 3, 1500)
                .iter()
                .map(EthernetFrame::to_bytes)
                .collect();
        assert!(frames.len() >= 4);
        let mut d = WireDecoder::new();
        let mut got = None;
        for f in &frames {
            match d.push(VirtualTime::ZERO, f) {
                Recovered::Udp {
                    payload,
                    was_fragmented,
                    ..
                } => {
                    assert!(was_fragmented);
                    got = Some(payload);
                }
                Recovered::FragmentPending => {}
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(&got.expect("reassembled")[..], &payload[..]);
        assert!(d.reassembly_stats().fragments >= 4);
    }

    #[test]
    fn answer_direction_detected() {
        let client = ClientId(0x5000_0009);
        let frames = encapsulate(
            Message::StatusResponse {
                challenge: 7,
                users: 1,
                files: 2,
            }
            .encode(),
            client,
            4672,
            Direction::FromServer,
            4,
            1500,
        );
        let mut d = WireDecoder::new();
        match d.push(VirtualTime::ZERO, &frames[0].to_bytes()) {
            Recovered::Udp {
                peer, direction, ..
            } => {
                assert_eq!(peer, client);
                assert_eq!(direction, Direction::FromServer);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn tcp_frames_skipped() {
        let f = tcp_noise_frame(1, 2, 100);
        let mut d = WireDecoder::new();
        assert_eq!(d.push(VirtualTime::ZERO, &f.to_bytes()), Recovered::NotUdp);
    }

    #[test]
    fn unrelated_udp_is_other_port() {
        let udp = UdpDatagram {
            src_ip: 1,
            dst_ip: 2,
            src_port: 53,
            dst_port: 53,
            payload: Bytes::from_static(b"dns-ish"),
        };
        let ip = Ipv4Packet {
            src: 1,
            dst: 2,
            ident: 0,
            more_fragments: false,
            frag_offset: 0,
            ttl: 64,
            protocol: PROTO_UDP,
            payload: Bytes::from(udp.to_bytes()),
        };
        let frame = EthernetFrame::ipv4(Bytes::from(ip.to_bytes()));
        let mut d = WireDecoder::new();
        assert_eq!(
            d.push(VirtualTime::ZERO, &frame.to_bytes()),
            Recovered::OtherPort
        );
    }

    #[test]
    fn garbage_is_parse_error() {
        let mut d = WireDecoder::new();
        assert_eq!(d.push(VirtualTime::ZERO, &[1, 2, 3]), Recovered::ParseError);
    }

    #[test]
    fn client_ip_mapping_is_injective_for_low_ids() {
        let a = client_ip(ClientId::low(1));
        let b = client_ip(ClientId::low(2));
        assert_ne!(a, b);
        assert_eq!(a & 0xff00_0000, 0x0a00_0000);
    }

    #[test]
    fn fast_datagram_frames_match_generic_path() {
        let mut payloads: Vec<Vec<u8>> =
            vec![Vec::new(), vec![0xE3], query_bytes(), (0..255u8).collect()];
        // Odd length, near-MTU length, and over-MTU (fragmenting) cases.
        payloads.push(vec![0xAB; 1471]);
        payloads.push(vec![0xCD; 1472]);
        payloads.push(vec![0x77; 1473]);
        payloads.push(vec![0x55; 4000]);
        for client in [ClientId(0x5000_1234), ClientId::low(99)] {
            for dir in [Direction::ToServer, Direction::FromServer] {
                for (i, p) in payloads.iter().enumerate() {
                    let expect: Vec<Vec<u8>> =
                        encapsulate(p.clone(), client, 4710, dir, i as u16, 1500)
                            .iter()
                            .map(|f| f.to_bytes())
                            .collect();
                    let mut got = Vec::new();
                    datagram_frames(p, client, 4710, dir, i as u16, 1500, |b| got.push(b));
                    assert_eq!(expect, got, "payload case {i} dir {dir:?}");
                }
            }
        }
    }

    #[test]
    fn fixed_offset_readers_match_the_written_layout() {
        // 4 000 B at MTU 1 500: three fragments of one datagram.
        let frames = |dir, ident| -> Vec<Vec<u8>> {
            encapsulate(vec![0xe3; 4_000], ClientId(7), 4672, dir, ident, 1500)
                .iter()
                .map(EthernetFrame::to_bytes)
                .collect()
        };
        for dir in [Direction::ToServer, Direction::FromServer] {
            let datagram = frames(dir, 9);
            assert_eq!(datagram.len(), 3);
            for f in &datagram {
                assert_eq!(frame_direction(f), Some(dir));
                assert_eq!(fragment_key(f), fragment_key(&datagram[0]));
            }
            assert_ne!(
                fragment_key(&frames(dir, 10)[0]),
                fragment_key(&datagram[0])
            );
        }
        assert_eq!(frame_direction(&[0; ETH_IP_LEN - 1]), None);
        assert_eq!(fragment_key(&[0; ETH_IP_LEN - 1]), None);
    }

    #[test]
    fn fast_tcp_noise_matches_generic_path() {
        for len in [0usize, 19, 20, 21, 40, 1399] {
            assert_eq!(
                tcp_noise_frame(0xdead_beef, SERVER_IP, len).to_bytes(),
                tcp_noise_frame_bytes(0xdead_beef, SERVER_IP, len),
                "len {len}"
            );
        }
    }
}
