//! # etw-netsim — network substrate for the eDonkey capture reproduction
//!
//! The paper's measurement (§2.2) sits on a stack we cannot rent in 2026:
//! a production eDonkey server's ethernet link, mirrored through libpcap
//! into a capture machine. This crate rebuilds that stack as a simulator:
//!
//! * [`clock`] — virtual time (microsecond resolution, relative to the
//!   capture origin, the paper's own timestamp convention);
//! * [`packet`] — byte-accurate Ethernet/IPv4/UDP framing with RFC 1071
//!   checksums;
//! * [`frag`] — IPv4 fragmentation and hole-filling reassembly (the
//!   capture saw 2 981 fragments; the decoder must cope);
//! * [`traffic`] — offered-load model: diurnal/weekly modulation plus
//!   flash bursts, sampled as a Poisson process;
//! * [`capture`] — the finite libpcap kernel ring with its loss counter,
//!   the mechanism behind the paper's Fig. 2;
//! * [`pcap`] — classic pcap file framing for the captured stream;
//! * [`tcp`] / [`flows`] — the TCP layer and flow reconstruction the
//!   paper names as its first extension (and the loss-sensitivity that
//!   made it restrict itself to UDP).
//!
//! ## Example: a datagram's journey through the capture stack
//!
//! ```
//! use bytes::Bytes;
//! use etw_netsim::packet::{Ipv4Packet, Ipv4View, UdpDatagram, PROTO_UDP};
//! use etw_netsim::frag::{fragment, Reassembler};
//! use etw_netsim::clock::VirtualTime;
//!
//! let udp = UdpDatagram {
//!     src_ip: 0x0a00_0001, dst_ip: 0x0a00_0002,
//!     src_port: 4672, dst_port: 4665,
//!     payload: Bytes::from(vec![0xE3; 3000]),
//! };
//! let ip = Ipv4Packet {
//!     src: udp.src_ip, dst: udp.dst_ip, ident: 1,
//!     more_fragments: false, frag_offset: 0, ttl: 64,
//!     protocol: PROTO_UDP, payload: Bytes::from(udp.to_bytes()),
//! };
//! // The capture side reads each fragment in place; the reassembler
//! // copies fragment payloads and hands back the whole datagram.
//! let frames: Vec<Vec<u8>> = fragment(&ip, 1500).iter().map(|f| f.to_bytes()).collect();
//! let mut reasm = Reassembler::with_default_timeout();
//! let mut whole = None;
//! for raw in &frames {
//!     let fragment = Ipv4Packet::parse(raw).unwrap();
//!     if let Some(payload) = reasm.push(VirtualTime::ZERO, fragment) {
//!         whole = Some(payload.into_owned());
//!     }
//! }
//! let whole = whole.unwrap();
//! let got = UdpDatagram::parse(&Ipv4View { payload: &whole, ..ip.view() }).unwrap();
//! assert_eq!(got, udp.view());
//! ```

#![warn(missing_docs)]

pub mod capture;
pub mod clock;
pub mod flows;
pub mod frag;
pub mod packet;
pub mod pcap;
pub mod tcp;
pub mod traffic;

pub use capture::{CaptureBuffer, LossRecorder};
pub use clock::{Duration, VirtualTime};
pub use flows::{FlowOutcome, FlowReassembler, FlowStats};
pub use frag::{fragment, Reassembler, ReassemblyStats};
pub use packet::{EthernetFrame, Ipv4Packet, ParseError, UdpDatagram};
pub use pcap::{PcapReader, PcapRecord, PcapWriter};
pub use tcp::{TcpFlags, TcpSegment};
pub use traffic::RateModel;
