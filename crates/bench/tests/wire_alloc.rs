//! Allocation budget of the wire path: `WireDecoder::push` reads every
//! header in place, so an unfragmented frame costs no heap allocation,
//! whether it carries an eDonkey datagram or TCP noise. Only IP
//! fragments are copied, into the reassembler.
//!
//! This binary installs the counting allocator, and holds one test so
//! that no other test allocates while it counts.

use etw_bench::alloc::{counting_active, AllocSpan, CountingAllocator};
use etw_core::wirepath::{
    datagram_frames, tcp_noise_frame_bytes, Direction, Recovered, WireDecoder, SERVER_IP,
};
use etw_edonkey::ids::ClientId;
use etw_edonkey::messages::Message;
use etw_netsim::clock::VirtualTime;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Fewest allocations seen over several rounds of `pushes` calls of
/// `push`: the minimum shrugs off a stray allocation by the test
/// harness's own thread, while a per-push allocation shows in every
/// round.
fn fewest_allocations(pushes: usize, mut push: impl FnMut()) -> u64 {
    (0..5)
        .map(|_| {
            let span = AllocSpan::start();
            for _ in 0..pushes {
                push();
            }
            span.delta()
        })
        .min()
        .unwrap_or(0)
}

#[test]
fn unfragmented_frames_decode_without_allocating() {
    assert!(counting_active(), "the counting allocator is not installed");
    let query = Message::GetSources {
        file_ids: vec![etw_edonkey::ids::FileId([7; 16])],
    }
    .encode();
    let mut frames = Vec::new();
    datagram_frames(
        &query,
        ClientId(0x5000_1234),
        4672,
        Direction::ToServer,
        1,
        1500,
        |f| frames.push(f),
    );
    assert_eq!(frames.len(), 1, "the query fits one frame");
    let edonkey = frames.pop().unwrap();
    let noise = tcp_noise_frame_bytes(0x5000_1234, SERVER_IP, 200);

    let mut wire = WireDecoder::new();
    let mut udp = 0u64;
    let edonkey_allocs = fewest_allocations(1_000, || {
        if let Recovered::Udp { payload, .. } = wire.push(VirtualTime::ZERO, &edonkey) {
            udp += payload.len() as u64;
        }
    });
    assert_eq!(
        udp,
        5 * 1_000 * query.len() as u64,
        "every push recovers the query"
    );
    assert_eq!(
        edonkey_allocs, 0,
        "eDonkey frames: allocations per 1 000 pushes"
    );

    let mut not_udp = 0u64;
    let noise_allocs = fewest_allocations(1_000, || {
        not_udp += u64::from(wire.push(VirtualTime::ZERO, &noise) == Recovered::NotUdp);
    });
    assert_eq!(not_udp, 5 * 1_000);
    assert_eq!(
        noise_allocs, 0,
        "TCP noise frames: allocations per 1 000 pushes"
    );
}
