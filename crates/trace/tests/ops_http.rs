//! End-to-end tests of the ops surface: the `/metrics` endpoint served
//! over a real socket must round-trip through the Prometheus text
//! parser and match the checked-in golden rendering; the listener must
//! survive malformed requests and clients that drop mid-request.

use etw_telemetry::prom::{parse_prometheus, PromKind};
use etw_telemetry::Registry;
use etw_trace::ops::{serve, OpsSource, RegistryOps};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// A small deterministic registry: fixed values, no clocks, so the
/// rendered text is byte-stable across runs and machines.
fn golden_registry() -> Registry {
    let reg = Registry::new();
    reg.counter("stage.decode.frames_total").add(40_960);
    reg.counter("stage.write.bytes_total").add(1_048_576);
    reg.gauge("chan.decode_in.depth").set(12);
    reg.gauge("stage.reorder.depth_hwm").set(875);
    let h = reg.histogram("stage.decode.latency_ns");
    for v in [0u64, 1, 3, 900, 900, 70_000] {
        h.record(v);
    }
    reg
}

fn http_get(addr: std::net::SocketAddr, request: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    (head.to_string(), body.to_string())
}

#[test]
fn metrics_endpoint_matches_golden_and_round_trips() {
    let reg = golden_registry();
    let server = serve("127.0.0.1:0", Arc::new(RegistryOps::new(reg.clone()))).unwrap();
    let (head, body) = http_get(server.local_addr(), "GET /metrics HTTP/1.1\r\n\r\n");
    server.shutdown();

    assert!(head.starts_with("HTTP/1.1 200 OK"), "head: {head}");
    assert!(head.contains("Content-Type: text/plain; version=0.0.4"));

    // Golden: the body is byte-identical to the checked-in rendering.
    let golden = include_str!("golden/metrics.prom");
    assert_eq!(
        body, golden,
        "update crates/trace/tests/golden/metrics.prom if the format changed intentionally"
    );

    // Round-trip: the served text parses back to the snapshot's values.
    let scrape = parse_prometheus(&body).unwrap();
    let snap = reg.snapshot();
    assert_eq!(
        scrape.value("etw_stage_decode_frames_total"),
        Some(snap.counter("stage.decode.frames_total") as f64)
    );
    assert_eq!(
        scrape.value("etw_stage_reorder_depth_hwm"),
        Some(snap.gauge("stage.reorder.depth_hwm") as f64)
    );
    let hist = snap.histogram("stage.decode.latency_ns").unwrap();
    assert_eq!(
        scrape.value("etw_stage_decode_latency_ns_count"),
        Some(hist.count as f64)
    );
    assert_eq!(
        scrape.value("etw_stage_decode_latency_ns_sum"),
        Some(hist.sum as f64)
    );
    assert_eq!(
        scrape.kind("etw_stage_decode_latency_ns"),
        Some(PromKind::Histogram)
    );
    assert!(scrape.inconsistent_histograms().is_empty());
}

#[test]
fn health_endpoint_serves_json() {
    let reg = golden_registry();
    let server = serve("127.0.0.1:0", Arc::new(RegistryOps::new(reg))).unwrap();
    let (head, body) = http_get(server.local_addr(), "GET /health.json HTTP/1.1\r\n\r\n");
    server.shutdown();
    assert!(head.contains("Content-Type: application/json"));
    assert!(body.contains("\"stage.decode.frames_total\":40960"));
    assert!(body.contains("\"counters\""));
    assert!(body.contains("\"histograms\""));
}

#[test]
fn listener_survives_malformed_requests_and_dropped_connections() {
    let reg = Registry::new();
    reg.counter("up").add(1);
    let server = serve("127.0.0.1:0", Arc::new(RegistryOps::new(reg))).unwrap();
    let addr = server.local_addr();

    // Malformed request line: answered with 400, connection closed.
    let (head, body) = http_get(addr, "complete garbage\r\n\r\n");
    assert!(head.starts_with("HTTP/1.1 400"), "head: {head}");
    assert!(body.contains("400"));

    // Unknown path and wrong method get their own statuses.
    let (head, _) = http_get(addr, "GET /nope HTTP/1.1\r\n\r\n");
    assert!(head.starts_with("HTTP/1.1 404"));
    let (head, _) = http_get(addr, "POST /metrics HTTP/1.1\r\n\r\n");
    assert!(head.starts_with("HTTP/1.1 405"));

    // A client that connects and immediately drops, and one that sends
    // half a request line and drops: neither kills the serve loop.
    drop(TcpStream::connect(addr).unwrap());
    {
        let mut half = TcpStream::connect(addr).unwrap();
        half.write_all(b"GET /met").unwrap();
        // Dropped here, mid-request.
    }

    // The listener is still alive and serving real requests.
    let (head, body) = http_get(addr, "GET /metrics HTTP/1.1\r\n\r\n");
    assert!(head.starts_with("HTTP/1.1 200"), "listener died: {head}");
    assert!(body.contains("etw_up 1"));
    server.shutdown();
}

#[test]
fn custom_source_is_served_verbatim() {
    struct Canned;
    impl OpsSource for Canned {
        fn health_json(&self) -> String {
            "{\"ok\":true}".to_string()
        }
        fn metrics_text(&self) -> String {
            "etw_canned 7\n".to_string()
        }
    }
    let server = serve("127.0.0.1:0", Arc::new(Canned)).unwrap();
    let (_, body) = http_get(server.local_addr(), "GET /health.json HTTP/1.1\r\n\r\n");
    assert_eq!(body, "{\"ok\":true}");
    server.shutdown();
}
