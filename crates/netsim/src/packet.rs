//! Byte-accurate Ethernet / IPv4 / UDP packet model.
//!
//! The capture in the paper operates at the Ethernet level via libpcap and
//! must be decoded up through IP and UDP before the eDonkey payload is
//! reachable (§2.2–2.3). This module provides the same layering for the
//! simulation: real header layouts, real checksums, real parsing errors.

use bytes::Bytes;

/// IPv4 protocol number for UDP.
pub const PROTO_UDP: u8 = 17;
/// IPv4 protocol number for TCP (present in traffic, ignored by the
/// decoder just as the paper restricts itself to UDP).
pub const PROTO_TCP: u8 = 6;
/// EtherType for IPv4.
pub const ETHERTYPE_IPV4: u16 = 0x0800;
/// Ethernet header length (no VLAN tags in our model).
pub const ETH_HEADER_LEN: usize = 14;
/// Minimal IPv4 header length (no options in our model).
pub const IPV4_HEADER_LEN: usize = 20;
/// UDP header length.
pub const UDP_HEADER_LEN: usize = 8;

/// Errors from parsing raw frames.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ParseError {
    /// Frame shorter than the header being parsed.
    Short,
    /// EtherType is not IPv4.
    NotIpv4,
    /// IP version field is not 4 or header length invalid.
    BadIpHeader,
    /// IPv4 header checksum mismatch.
    BadIpChecksum,
    /// Total-length field disagrees with the actual buffer.
    BadLength,
    /// IP protocol is not UDP.
    NotUdp,
    /// UDP length field inconsistent.
    BadUdpLength,
}

/// An Ethernet frame (addresses + ethertype + payload).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EthernetFrame {
    /// Destination MAC.
    pub dst: [u8; 6],
    /// Source MAC.
    pub src: [u8; 6],
    /// EtherType.
    pub ethertype: u16,
    /// Layer-3 payload.
    pub payload: Bytes,
}

impl EthernetFrame {
    /// Wraps an IPv4 payload in a frame with fixed simulation MACs.
    pub fn ipv4(payload: Bytes) -> Self {
        EthernetFrame {
            dst: [0x02, 0, 0, 0, 0, 0x01],
            src: [0x02, 0, 0, 0, 0, 0x02],
            ethertype: ETHERTYPE_IPV4,
            payload,
        }
    }

    /// Serialises the frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(ETH_HEADER_LEN + self.payload.len());
        out.extend_from_slice(&self.dst);
        out.extend_from_slice(&self.src);
        out.extend_from_slice(&self.ethertype.to_be_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Reads a frame's header in place; the payload borrows `buf`.
    pub fn parse(buf: &[u8]) -> Result<EthernetView<'_>, ParseError> {
        if buf.len() < ETH_HEADER_LEN {
            return Err(ParseError::Short);
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&buf[0..6]);
        src.copy_from_slice(&buf[6..12]);
        Ok(EthernetView {
            dst,
            src,
            ethertype: u16::from_be_bytes([buf[12], buf[13]]),
            payload: &buf[ETH_HEADER_LEN..],
        })
    }
}

/// An Ethernet frame read in place: the header fields, and the layer-3
/// payload borrowed from the captured bytes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EthernetView<'a> {
    /// Destination MAC.
    pub dst: [u8; 6],
    /// Source MAC.
    pub src: [u8; 6],
    /// EtherType.
    pub ethertype: u16,
    /// Layer-3 payload.
    pub payload: &'a [u8],
}

/// An IPv4 packet (fixed 20-byte header, no options).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Ipv4Packet {
    /// Source address (big-endian octets as u32).
    pub src: u32,
    /// Destination address.
    pub dst: u32,
    /// Identification field (shared by all fragments of a datagram).
    pub ident: u16,
    /// "More fragments" flag.
    pub more_fragments: bool,
    /// Fragment offset in 8-byte units.
    pub frag_offset: u16,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol.
    pub protocol: u8,
    /// Layer-4 payload (or fragment thereof).
    pub payload: Bytes,
}

/// RFC 1071 internet checksum over `data` (with optional initial sum).
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum = 0u32;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

impl Ipv4Packet {
    /// Serialises header + payload, computing the header checksum.
    pub fn to_bytes(&self) -> Vec<u8> {
        let total_len = IPV4_HEADER_LEN + self.payload.len();
        debug_assert!(total_len <= u16::MAX as usize);
        let mut h = [0u8; IPV4_HEADER_LEN];
        h[0] = 0x45; // version 4, ihl 5
        h[1] = 0; // tos
        h[2..4].copy_from_slice(&(total_len as u16).to_be_bytes());
        h[4..6].copy_from_slice(&self.ident.to_be_bytes());
        let flags_frag = ((self.more_fragments as u16) << 13) | (self.frag_offset & 0x1fff);
        h[6..8].copy_from_slice(&flags_frag.to_be_bytes());
        h[8] = self.ttl;
        h[9] = self.protocol;
        // checksum zero for computation
        h[12..16].copy_from_slice(&self.src.to_be_bytes());
        h[16..20].copy_from_slice(&self.dst.to_be_bytes());
        let csum = internet_checksum(&h);
        h[10..12].copy_from_slice(&csum.to_be_bytes());
        let mut out = Vec::with_capacity(total_len);
        out.extend_from_slice(&h);
        out.extend_from_slice(&self.payload);
        out
    }

    /// Reads and verifies a packet's header in place; the payload
    /// borrows `buf` (up to the header's total length, so trailing
    /// Ethernet padding is left out).
    pub fn parse(buf: &[u8]) -> Result<Ipv4View<'_>, ParseError> {
        if buf.len() < IPV4_HEADER_LEN {
            return Err(ParseError::Short);
        }
        if buf[0] >> 4 != 4 {
            return Err(ParseError::BadIpHeader);
        }
        let ihl = (buf[0] & 0x0f) as usize * 4;
        if ihl < IPV4_HEADER_LEN || buf.len() < ihl {
            return Err(ParseError::BadIpHeader);
        }
        if internet_checksum(&buf[..ihl]) != 0 {
            return Err(ParseError::BadIpChecksum);
        }
        let total_len = u16::from_be_bytes([buf[2], buf[3]]) as usize;
        if total_len < ihl || total_len > buf.len() {
            return Err(ParseError::BadLength);
        }
        let flags_frag = u16::from_be_bytes([buf[6], buf[7]]);
        Ok(Ipv4View {
            src: u32::from_be_bytes([buf[12], buf[13], buf[14], buf[15]]),
            dst: u32::from_be_bytes([buf[16], buf[17], buf[18], buf[19]]),
            ident: u16::from_be_bytes([buf[4], buf[5]]),
            more_fragments: flags_frag & 0x2000 != 0,
            frag_offset: flags_frag & 0x1fff,
            ttl: buf[8],
            protocol: buf[9],
            payload: &buf[ihl..total_len],
        })
    }

    /// This packet as [`Ipv4Packet::parse`] reads it back.
    pub fn view(&self) -> Ipv4View<'_> {
        Ipv4View {
            src: self.src,
            dst: self.dst,
            ident: self.ident,
            more_fragments: self.more_fragments,
            frag_offset: self.frag_offset,
            ttl: self.ttl,
            protocol: self.protocol,
            payload: &self.payload,
        }
    }

    /// True when this packet is a fragment (either more to come, or a
    /// non-zero offset).
    pub fn is_fragment(&self) -> bool {
        self.view().is_fragment()
    }
}

/// An IPv4 packet read in place: the header fields, and the layer-4
/// payload (or fragment thereof) borrowed from the captured bytes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Ipv4View<'a> {
    /// Source address (big-endian octets as u32).
    pub src: u32,
    /// Destination address.
    pub dst: u32,
    /// Identification field (shared by all fragments of a datagram).
    pub ident: u16,
    /// "More fragments" flag.
    pub more_fragments: bool,
    /// Fragment offset in 8-byte units.
    pub frag_offset: u16,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol.
    pub protocol: u8,
    /// Layer-4 payload (or fragment thereof).
    pub payload: &'a [u8],
}

impl Ipv4View<'_> {
    /// True when this packet is a fragment (either more to come, or a
    /// non-zero offset).
    pub fn is_fragment(&self) -> bool {
        self.more_fragments || self.frag_offset != 0
    }
}

/// A UDP datagram with its addressing 4-tuple.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UdpDatagram {
    /// Source IPv4 address.
    pub src_ip: u32,
    /// Destination IPv4 address.
    pub dst_ip: u32,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Application payload.
    pub payload: Bytes,
}

impl UdpDatagram {
    /// Serialises header + payload with the RFC 768 pseudo-header
    /// checksum.
    pub fn to_bytes(&self) -> Vec<u8> {
        let udp_len = UDP_HEADER_LEN + self.payload.len();
        debug_assert!(udp_len <= u16::MAX as usize);
        let mut out = Vec::with_capacity(udp_len);
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&(udp_len as u16).to_be_bytes());
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&self.payload);
        let csum = self.checksum(&out);
        // RFC 768: transmitted-zero checksum means "not computed"; an
        // actual zero is sent as 0xffff.
        let csum = if csum == 0 { 0xffff } else { csum };
        out[6..8].copy_from_slice(&csum.to_be_bytes());
        out
    }

    fn checksum(&self, udp_bytes: &[u8]) -> u16 {
        let mut pseudo = Vec::with_capacity(12 + udp_bytes.len() + 1);
        pseudo.extend_from_slice(&self.src_ip.to_be_bytes());
        pseudo.extend_from_slice(&self.dst_ip.to_be_bytes());
        pseudo.push(0);
        pseudo.push(PROTO_UDP);
        pseudo.extend_from_slice(&(udp_bytes.len() as u16).to_be_bytes());
        pseudo.extend_from_slice(udp_bytes);
        internet_checksum(&pseudo)
    }

    /// Reads a UDP header in place out of a whole (unfragmented or
    /// reassembled) IPv4 packet; the payload borrows the packet's.
    pub fn parse<'a>(ip: &Ipv4View<'a>) -> Result<UdpView<'a>, ParseError> {
        if ip.protocol != PROTO_UDP {
            return Err(ParseError::NotUdp);
        }
        let buf = ip.payload;
        if buf.len() < UDP_HEADER_LEN {
            return Err(ParseError::Short);
        }
        let udp_len = u16::from_be_bytes([buf[4], buf[5]]) as usize;
        if udp_len < UDP_HEADER_LEN || udp_len > buf.len() {
            return Err(ParseError::BadUdpLength);
        }
        Ok(UdpView {
            src_ip: ip.src,
            dst_ip: ip.dst,
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            payload: &buf[UDP_HEADER_LEN..udp_len],
        })
    }

    /// This datagram as [`UdpDatagram::parse`] reads it back.
    pub fn view(&self) -> UdpView<'_> {
        UdpView {
            src_ip: self.src_ip,
            dst_ip: self.dst_ip,
            src_port: self.src_port,
            dst_port: self.dst_port,
            payload: &self.payload,
        }
    }

    /// Verifies the checksum of serialised UDP bytes against this
    /// datagram's pseudo-header (test/diagnostic helper).
    pub fn verify_checksum(&self, udp_bytes: &[u8]) -> bool {
        self.checksum(udp_bytes) == 0
    }
}

/// A UDP datagram read in place: its addressing 4-tuple, and the
/// application payload borrowed from the packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct UdpView<'a> {
    /// Source IPv4 address.
    pub src_ip: u32,
    /// Destination IPv4 address.
    pub dst_ip: u32,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Application payload.
    pub payload: &'a [u8],
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_udp() -> UdpDatagram {
        UdpDatagram {
            src_ip: u32::from_be_bytes([192, 168, 1, 10]),
            dst_ip: u32::from_be_bytes([82, 5, 5, 5]),
            src_port: 4672,
            dst_port: 4665,
            payload: Bytes::from_static(b"\xE3\x96\x01\x02\x03\x04"),
        }
    }

    #[test]
    fn rfc1071_checksum_known_vector() {
        // Classic example from RFC 1071 discussions:
        // words 0x0001 0xf203 0xf4f5 0xf6f7 → checksum 0x220d.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), 0x220d);
    }

    #[test]
    fn checksum_of_zero_buffer() {
        assert_eq!(internet_checksum(&[]), 0xffff);
    }

    #[test]
    fn odd_length_checksum_pads_with_zero() {
        let even = internet_checksum(&[0xab, 0x00]);
        let odd = internet_checksum(&[0xab]);
        assert_eq!(even, odd);
    }

    #[test]
    fn udp_round_trip_via_ip() {
        let udp = sample_udp();
        let ip = Ipv4Packet {
            src: udp.src_ip,
            dst: udp.dst_ip,
            ident: 42,
            more_fragments: false,
            frag_offset: 0,
            ttl: 64,
            protocol: PROTO_UDP,
            payload: Bytes::from(udp.to_bytes()),
        };
        let raw = ip.to_bytes();
        let parsed_ip = Ipv4Packet::parse(&raw).unwrap();
        assert_eq!(parsed_ip, ip.view());
        let parsed_udp = UdpDatagram::parse(&parsed_ip).unwrap();
        assert_eq!(parsed_udp, udp.view());
    }

    #[test]
    fn udp_checksum_verifies() {
        let udp = sample_udp();
        let raw = udp.to_bytes();
        assert!(udp.verify_checksum(&raw));
        let mut bad = raw.clone();
        bad[9] ^= 0xff;
        assert!(!udp.verify_checksum(&bad));
    }

    #[test]
    fn ip_checksum_detects_corruption() {
        let ip = Ipv4Packet {
            src: 1,
            dst: 2,
            ident: 7,
            more_fragments: false,
            frag_offset: 0,
            ttl: 64,
            protocol: PROTO_UDP,
            payload: Bytes::from_static(b"hello"),
        };
        let mut raw = ip.to_bytes();
        raw[8] = raw[8].wrapping_add(1); // ttl flip
        assert_eq!(Ipv4Packet::parse(&raw), Err(ParseError::BadIpChecksum));
    }

    #[test]
    fn ethernet_round_trip() {
        let f = EthernetFrame::ipv4(Bytes::from_static(b"ip-bytes"));
        let raw = f.to_bytes();
        let v = EthernetFrame::parse(&raw).unwrap();
        assert_eq!((v.dst, v.src, v.ethertype), (f.dst, f.src, f.ethertype));
        assert_eq!(v.payload, &f.payload[..]);
    }

    #[test]
    fn short_buffers_rejected() {
        assert_eq!(EthernetFrame::parse(&[0; 5]), Err(ParseError::Short));
        assert_eq!(Ipv4Packet::parse(&[0x45; 10]), Err(ParseError::Short));
    }

    #[test]
    fn non_ipv4_version_rejected() {
        let mut raw = Ipv4Packet {
            src: 1,
            dst: 2,
            ident: 0,
            more_fragments: false,
            frag_offset: 0,
            ttl: 1,
            protocol: PROTO_UDP,
            payload: Bytes::new(),
        }
        .to_bytes();
        raw[0] = 0x65; // version 6
        assert_eq!(Ipv4Packet::parse(&raw), Err(ParseError::BadIpHeader));
    }

    #[test]
    fn fragment_flags_round_trip() {
        let ip = Ipv4Packet {
            src: 1,
            dst: 2,
            ident: 9,
            more_fragments: true,
            frag_offset: 185, // 1480/8
            ttl: 64,
            protocol: PROTO_UDP,
            payload: Bytes::from_static(&[0u8; 16]),
        };
        let raw = ip.to_bytes();
        let parsed = Ipv4Packet::parse(&raw).unwrap();
        assert!(parsed.is_fragment());
        assert!(parsed.more_fragments);
        assert_eq!(parsed.frag_offset, 185);
    }

    #[test]
    fn tcp_payload_not_parsed_as_udp() {
        let ip = Ipv4Packet {
            src: 1,
            dst: 2,
            ident: 0,
            more_fragments: false,
            frag_offset: 0,
            ttl: 64,
            protocol: PROTO_TCP,
            payload: Bytes::from_static(&[0u8; 20]),
        };
        assert_eq!(UdpDatagram::parse(&ip.view()), Err(ParseError::NotUdp));
    }

    #[test]
    fn udp_length_field_validated() {
        let udp = sample_udp();
        let mut raw = udp.to_bytes();
        raw[4..6].copy_from_slice(&1u16.to_be_bytes()); // impossible length
        let ip = Ipv4Packet {
            src: udp.src_ip,
            dst: udp.dst_ip,
            ident: 0,
            more_fragments: false,
            frag_offset: 0,
            ttl: 64,
            protocol: PROTO_UDP,
            payload: Bytes::from(raw),
        };
        assert_eq!(
            UdpDatagram::parse(&ip.view()),
            Err(ParseError::BadUdpLength)
        );
    }

    #[test]
    fn total_length_shorter_than_buffer_truncates_payload() {
        // Ethernet padding: IP total_len < frame payload length is legal;
        // the parser must honour total_len.
        let ip = Ipv4Packet {
            src: 1,
            dst: 2,
            ident: 0,
            more_fragments: false,
            frag_offset: 0,
            ttl: 64,
            protocol: PROTO_UDP,
            payload: Bytes::from_static(b"abc"),
        };
        let mut raw = ip.to_bytes();
        raw.extend_from_slice(&[0u8; 7]); // ethernet pad bytes
        let parsed = Ipv4Packet::parse(&raw).unwrap();
        assert_eq!(parsed.payload, b"abc");
    }
}
