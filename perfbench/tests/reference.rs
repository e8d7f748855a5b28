//! The replay's reference source against the serial `ServerEngine`
//! reference that the campaign's source is proven equal to.

use etw_core::pipeline::TimedFrame;
use etw_core::wirepath::{encapsulate, Direction};
use etw_edonkey::{Message, ServerAddr};
use etw_server::{EngineConfig, ServerEngine};
use etw_workload::catalog::Catalog;
use etw_workload::clients::Population;
use etw_workload::session::{SessionShard, SourceBlobs, SrcEvent, WireParams};
use perfbench::adapter;
use perfbench::reference::{Reference, MAX_SEARCH_RESULTS, PEER_SERVERS};
use perfbench::workloads;
use std::sync::Arc;

#[test]
fn reference_matches_serial_engine() {
    let w = workloads::by_name("steady-2k").unwrap().shrunk(10);
    let config = adapter::config(&w.shape, 7);
    let catalog = Arc::new(Catalog::generate(&config.catalog, config.seed ^ 1));
    let population = Arc::new(Population::generate(&config.population, config.seed ^ 2));
    let blobs = Arc::new(SourceBlobs::build(&catalog));
    let quiet = WireParams {
        p_corrupt: 0.0,
        p_corrupt_structural: config.p_corrupt_structural,
        p_tcp_noise: 0.0,
        p_udp_noise: 0.0,
    };
    let events: Vec<SrcEvent> = SessionShard::new(
        Arc::clone(&catalog),
        population,
        Arc::clone(&blobs),
        config.generator.clone(),
        quiet,
        config.seed ^ 3,
        0,
        1,
    )
    .collect();
    assert!(events.len() > 2_000, "only {} events", events.len());

    let mut engine = ServerEngine::new(EngineConfig {
        peer_servers: (1..=PEER_SERVERS)
            .map(|i| ServerAddr {
                ip: i,
                port: 4661 + (i % 4) as u16,
            })
            .collect(),
        max_search_results: MAX_SEARCH_RESULTS,
        ..EngineConfig::default()
    });
    let mut expected: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut ident = 0u16;
    for ev in &events {
        let msg = Message::decode(&ev.query).expect("clean queries decode");
        let answers = engine.handle(ev.client, &msg);
        let mut push = |payload: Vec<u8>, dir, ident| {
            for f in encapsulate(payload, ev.client, ev.port, dir, ident, config.mtu) {
                expected.push((ev.t_us, f.to_bytes()));
            }
        };
        ident = ident.wrapping_add(1);
        push(ev.query.clone(), Direction::ToServer, ident);
        for a in answers {
            ident = ident.wrapping_add(1);
            push(a.encode(), Direction::FromServer, ident);
        }
    }

    let mut frames: Vec<TimedFrame> = Vec::new();
    let mut reference = Reference::new(&catalog, blobs, config.mtu);
    for chunk in events.chunks(1000) {
        reference.frames(chunk, &mut frames);
    }
    assert_eq!(expected.len(), frames.len(), "frame count diverges");
    for (i, (exp, got)) in expected.iter().zip(&frames).enumerate() {
        assert_eq!(exp.0, got.ts.0, "timestamp diverges at frame {i}");
        assert_eq!(exp.1, got.bytes, "frame bytes diverge at frame {i}");
    }
}
