//! Property-based tests for the network substrate: framing round-trips,
//! fragmentation identity, capture conservation, pcap stream integrity.

use bytes::Bytes;
use etw_netsim::capture::CaptureBuffer;
use etw_netsim::clock::VirtualTime;
use etw_netsim::frag::{fragment, Reassembler};
use etw_netsim::packet::{internet_checksum, Ipv4Packet, UdpDatagram, PROTO_UDP};
use etw_netsim::pcap::{PcapReader, PcapWriter};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn arb_ipv4_packet() -> impl Strategy<Value = Ipv4Packet> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u16>(),
        any::<u8>(),
        prop::collection::vec(any::<u8>(), 0..2000),
    )
        .prop_map(|(src, dst, ident, ttl, payload)| Ipv4Packet {
            src,
            dst,
            ident,
            more_fragments: false,
            frag_offset: 0,
            ttl,
            protocol: PROTO_UDP,
            payload: Bytes::from(payload),
        })
}

proptest! {
    /// IPv4 serialisation round-trips and the checksum always verifies.
    #[test]
    fn ipv4_round_trip(pkt in arb_ipv4_packet()) {
        let raw = pkt.to_bytes();
        let parsed = Ipv4Packet::parse(&raw).expect("parse");
        prop_assert_eq!(parsed, pkt.view());
        // RFC 1071: checksum over a header containing its own checksum is 0.
        prop_assert_eq!(internet_checksum(&raw[..20]), 0);
    }

    /// Single-bit corruption in the IPv4 header is always detected (the
    /// internet checksum catches all 1-bit errors).
    #[test]
    fn ipv4_header_bitflip_detected(pkt in arb_ipv4_packet(),
                                    byte in 0usize..20, bit in 0u8..8) {
        let mut raw = pkt.to_bytes();
        raw[byte] ^= 1 << bit;
        let out = Ipv4Packet::parse(&raw);
        // Either rejected outright, or (if the flip hit version/IHL and
        // produced a different but self-consistent framing) not equal to
        // the original — it must never parse back identical.
        if let Ok(p) = out {
            prop_assert_ne!(p, pkt.view());
        }
    }

    /// UDP datagrams survive the full stack: UDP → IP → bytes → IP → UDP.
    #[test]
    fn udp_stack_round_trip(
        src_ip in any::<u32>(), dst_ip in any::<u32>(),
        src_port in any::<u16>(), dst_port in any::<u16>(),
        payload in prop::collection::vec(any::<u8>(), 0..1400),
    ) {
        let udp = UdpDatagram {
            src_ip, dst_ip, src_port, dst_port,
            payload: Bytes::from(payload),
        };
        let ip = Ipv4Packet {
            src: src_ip, dst: dst_ip, ident: 1,
            more_fragments: false, frag_offset: 0,
            ttl: 64, protocol: PROTO_UDP,
            payload: Bytes::from(udp.to_bytes()),
        };
        let raw = ip.to_bytes();
        let parsed_ip = Ipv4Packet::parse(&raw).expect("ip");
        let got = UdpDatagram::parse(&parsed_ip).expect("udp");
        prop_assert_eq!(got, udp.view());
    }

    /// Fragmentation + reassembly is the identity for any payload and any
    /// delivery order.
    #[test]
    fn fragment_reassemble_identity(
        payload in prop::collection::vec(any::<u8>(), 1..12_000),
        mtu in 576usize..1500,
        order_seed in any::<u64>(),
    ) {
        let pkt = Ipv4Packet {
            src: 1, dst: 2, ident: 99,
            more_fragments: false, frag_offset: 0,
            ttl: 64, protocol: PROTO_UDP,
            payload: Bytes::from(payload),
        };
        let mut frags = fragment(&pkt, mtu);
        let mut rng = rand::rngs::StdRng::seed_from_u64(order_seed);
        frags.shuffle(&mut rng);
        let mut reasm = Reassembler::with_default_timeout();
        let mut done = None;
        for f in &frags {
            if let Some(d) = reasm.push(VirtualTime::ZERO, f.view()) {
                prop_assert!(done.is_none(), "double completion");
                done = Some(d);
            }
        }
        let d = done.expect("reassembled");
        prop_assert_eq!(&d[..], &pkt.payload[..]);
        prop_assert_eq!(reasm.pending(), 0);
    }

    /// Fragments are each wire-legal: they fit the MTU and non-last
    /// fragments carry 8-byte-aligned payloads.
    #[test]
    fn fragments_are_wire_legal(
        len in 1usize..10_000,
        mtu in 576usize..1500,
    ) {
        let pkt = Ipv4Packet {
            src: 1, dst: 2, ident: 0,
            more_fragments: false, frag_offset: 0,
            ttl: 64, protocol: PROTO_UDP,
            payload: Bytes::from(vec![0xaa; len]),
        };
        let frags = fragment(&pkt, mtu);
        let n = frags.len();
        let mut covered = 0usize;
        for (i, f) in frags.iter().enumerate() {
            prop_assert!(f.payload.len() + 20 <= mtu);
            if i + 1 != n {
                prop_assert_eq!(f.payload.len() % 8, 0);
                prop_assert!(f.more_fragments);
            } else {
                prop_assert!(!f.more_fragments || n == 1);
            }
            prop_assert_eq!(f.frag_offset as usize * 8, covered);
            covered += f.payload.len();
        }
        prop_assert_eq!(covered, len);
    }

    /// Capture conservation: offered = captured + lost, under any load.
    #[test]
    fn capture_conservation(
        capacity in 1u64..5_000,
        drain in 1.0f64..50_000.0,
        loads in prop::collection::vec(0u64..5_000, 1..60),
    ) {
        let mut buf = CaptureBuffer::new(capacity, drain);
        let mut offered = 0u64;
        for (s, &n) in loads.iter().enumerate() {
            offered += n;
            buf.offer_batch(VirtualTime::from_secs(s as u64), n);
        }
        prop_assert_eq!(buf.captured() + buf.lost(), offered);
        prop_assert!(buf.occupancy() <= capacity as f64);
    }

    /// pcap write → read returns exactly the frames written (modulo
    /// snaplen truncation, which is reflected in orig_len).
    #[test]
    fn pcap_round_trip(
        frames in prop::collection::vec(
            (any::<u32>(), prop::collection::vec(any::<u8>(), 0..300)), 0..30),
        snaplen in 1u32..400,
    ) {
        let mut w = PcapWriter::new(snaplen);
        for (ts, frame) in &frames {
            w.write(VirtualTime(*ts as u64), frame);
        }
        let bytes = w.into_bytes();
        let recs: Vec<_> = PcapReader::new(&bytes)
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        prop_assert_eq!(recs.len(), frames.len());
        for (rec, (ts, frame)) in recs.iter().zip(&frames) {
            prop_assert_eq!(rec.ts, VirtualTime(*ts as u64));
            prop_assert_eq!(rec.orig_len as usize, frame.len());
            let keep = (snaplen as usize).min(frame.len());
            prop_assert_eq!(&rec.data[..], &frame[..keep]);
        }
    }
}
