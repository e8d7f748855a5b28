//! Robustness property tests for the capture pipeline: arbitrary frame
//! streams must never panic, counters must always partition, and output
//! order must be independent of parallelism.

use etw_anonymize::scheme::PaperScheme;
use etw_core::pipeline::{run_capture_pipeline_with, PipelineOptions, TimedFrame};
use etw_core::wirepath::{encapsulate, Direction};
use etw_edonkey::ids::ClientId;
use etw_edonkey::messages::Message;
use etw_netsim::clock::VirtualTime;
use etw_telemetry::Registry;
use proptest::prelude::*;

fn arb_frame() -> impl Strategy<Value = TimedFrame> {
    prop_oneof![
        // Random garbage bytes.
        (any::<u32>(), prop::collection::vec(any::<u8>(), 0..200)).prop_map(|(ts, bytes)| {
            TimedFrame {
                ts: VirtualTime(ts as u64),
                bytes,
            }
        }),
        // A legitimate encapsulated message (sometimes truncated).
        (any::<u32>(), 0u32..(1 << 16), any::<u16>(), 0usize..3).prop_map(
            |(ts, client, ident, cut)| {
                let msg = Message::StatusRequest {
                    challenge: ident as u32,
                };
                let frames = encapsulate(
                    msg.encode(),
                    ClientId(client),
                    4672,
                    Direction::ToServer,
                    ident,
                    1500,
                );
                let mut bytes = frames[0].to_bytes();
                let keep = bytes.len().saturating_sub(cut * 7);
                bytes.truncate(keep);
                TimedFrame {
                    ts: VirtualTime(ts as u64),
                    bytes,
                }
            }
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any byte soup survives the pipeline: no panics, counters
    /// partition the input exactly.
    #[test]
    fn pipeline_total_on_garbage(
        mut frames in prop::collection::vec(arb_frame(), 0..60),
        workers in 1usize..5,
    ) {
        // Timestamps must be non-decreasing for the reassembler contract.
        frames.sort_by_key(|f| f.ts);
        let n = frames.len() as u64;
        let mut records = 0u64;
        let (stats, _) = run_capture_pipeline_with(
            frames.into_iter(),
            workers,
            PaperScheme::paper(16),
            &Registry::disabled(),
            &PipelineOptions::default(),
            |_| records += 1,
            |_| {},
        );
        prop_assert_eq!(stats.frames, n);
        // Wire-layer classification partitions the frames.
        let datagram_frames = stats.reassembly.whole + stats.reassembly.fragments;
        prop_assert_eq!(
            datagram_frames + stats.not_udp + stats.other_port + stats.parse_errors,
            n
        );
        // Decoder outcomes partition the recovered datagrams.
        let d = stats.decoder;
        prop_assert_eq!(d.handled, stats.udp_datagrams);
        prop_assert_eq!(
            d.decoded + d.structurally_invalid + d.decode_failed + d.not_edonkey,
            d.handled
        );
        prop_assert_eq!(records, stats.records);
        prop_assert_eq!(records, d.decoded);
    }

    /// The anonymised output is identical at any worker count, frame mix
    /// included.
    #[test]
    fn worker_invariance(
        mut frames in prop::collection::vec(arb_frame(), 0..40),
    ) {
        frames.sort_by_key(|f| f.ts);
        let run = |workers: usize| {
            let mut out = Vec::new();
            run_capture_pipeline_with(
                frames.clone().into_iter(),
                workers,
                PaperScheme::paper(16),
                &Registry::disabled(),
                &PipelineOptions::default(),
                |r| out.push(r),
                |_| {},
            );
            out
        };
        prop_assert_eq!(run(1), run(4));
    }
}
