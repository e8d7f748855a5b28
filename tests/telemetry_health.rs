//! The telemetry registry as a witness: every conservation law the
//! report structs satisfy must also hold in the metric counters, the
//! health series must be monotone in both clocks, the rendered
//! artefacts (health table, Prometheus exposition) must agree with the
//! registry, and the set of exported metric names is a reviewed list.

use edonkey_ten_weeks::core::pipeline::TailConfig;
use edonkey_ten_weeks::core::{render_health_dat, Campaign, CampaignConfig};
use edonkey_ten_weeks::telemetry::Registry;
use edonkey_ten_weeks::xmlout::writer::DatasetWriter;
use std::collections::BTreeSet;

#[test]
fn telemetry_counters_obey_conservation_laws() {
    let registry = Registry::new();
    let mut config = CampaignConfig::tiny();
    config.health_interval_secs = 300;
    let report = Campaign::new(&config)
        .registry(&registry)
        .run(|_| {}, |_| {})
        .expect("valid config");
    let snap = registry.snapshot();

    // Ring conservation: offered = captured + lost, counted by the
    // capture hook itself (not derived from the report).
    assert_eq!(
        snap.counter("ring.offered_total"),
        snap.counter("ring.captured_total") + snap.counter("ring.lost_total")
    );
    assert_eq!(snap.counter("ring.offered_total"), report.capture.offered);
    assert_eq!(snap.counter("ring.lost_total"), report.capture.lost);

    // Every captured frame is produced into the pipeline and seen by
    // exactly one decode worker. The decode channels tick per *batch*
    // (frames ride in Vecs since the front end was sharded), so their
    // counters are bounded by the frame count and agree with each
    // other — one out-batch per in-batch.
    let frames = snap.counter("stage.producer.frames_total");
    assert_eq!(frames, report.capture.captured);
    assert_eq!(snap.counter("stage.decode.frames_total"), frames);
    let in_batches = snap.counter("chan.decode_in.sent_total");
    let out_batches = snap.counter("chan.decode_out.sent_total");
    assert!(in_batches > 0 && in_batches <= frames);
    assert_eq!(out_batches, in_batches);

    // The decode service-time histogram saw one sample per batch.
    let service = snap
        .histogram("stage.decode.latency_ns")
        .expect("decode histogram exists");
    assert_eq!(service.count, out_batches);
    assert!(service.sum > 0);
    assert!(service.min <= service.max);

    // Sink accounting: records partition into directions. The serial
    // tail anonymises inside the reorder span, timed once per batch.
    let records = snap.counter("stage.sink.records_total");
    assert_eq!(records, report.records);
    assert_eq!(
        snap.counter("stage.sink.to_server_total") + snap.counter("stage.sink.from_server_total"),
        records
    );
    assert_eq!(
        snap.histogram("stage.reorder.latency_ns")
            .expect("reorder histogram exists")
            .count,
        out_batches
    );

    // Application layer: the generator's own counters match the
    // capture-side stats.
    assert_eq!(
        snap.counter("campaign.queries_total"),
        report.capture.queries_generated
    );
    assert_eq!(
        snap.counter("campaign.answers_total"),
        report.capture.answers_generated
    );

    // All queues drained.
    assert_eq!(snap.gauge("chan.decode_in.depth"), 0);
    assert_eq!(snap.gauge("chan.decode_out.depth"), 0);
    assert_eq!(snap.gauge("stage.reorder.depth"), 0);
}

#[test]
fn health_series_is_monotone_and_consistent() {
    let registry = Registry::new();
    let mut config = CampaignConfig::tiny();
    config.health_interval_secs = 300;
    let report = Campaign::new(&config)
        .registry(&registry)
        .run(|_| {}, |_| {})
        .expect("valid config");
    let health = &report.health;
    assert!(
        health.records.len() >= 4,
        "1800 virtual s at 300 s intervals must cut several records, got {}",
        health.records.len()
    );

    // Both clocks advance, and cumulative counters never regress.
    let monotone = [
        "ring.offered_total",
        "stage.producer.frames_total",
        "stage.decode.frames_total",
        "stage.sink.records_total",
        "campaign.queries_total",
    ];
    for pair in health.records.windows(2) {
        assert!(pair[1].virtual_us > pair[0].virtual_us);
        assert!(pair[1].wall_secs >= pair[0].wall_secs);
        for name in monotone {
            assert!(
                pair[1].snapshot.counter(name) >= pair[0].snapshot.counter(name),
                "{name} regressed between snapshots"
            );
        }
    }

    // Interval deltas sum back to the final cumulative value.
    for name in monotone {
        let total: u64 = health.counter_deltas(name).iter().sum();
        let last = health.records.last().unwrap().snapshot.counter(name);
        assert_eq!(total, last, "{name} deltas must telescope");
    }

    // The final record agrees with the report's own accounting (it is
    // cut after the sink drains).
    let last = &health.records.last().unwrap().snapshot;
    assert_eq!(last.counter("stage.sink.records_total"), report.records);
    assert_eq!(last.counter("ring.offered_total"), report.capture.offered);
}

#[test]
fn rendered_artefacts_match_the_registry() {
    let registry = Registry::new();
    let mut config = CampaignConfig::tiny();
    config.health_interval_secs = 600;
    let report = Campaign::new(&config)
        .registry(&registry)
        .run(|_| {}, |_| {})
        .expect("valid config");

    // The .dat table has one header plus one row per health record,
    // each row leading with the record's virtual seconds.
    let dat = render_health_dat(&report.health);
    let lines: Vec<&str> = dat.lines().collect();
    assert!(lines[0].starts_with('#'));
    assert_eq!(lines.len(), 1 + report.health.records.len());
    for (line, rec) in lines[1..].iter().zip(&report.health.records) {
        let first = line.split_whitespace().next().unwrap();
        assert_eq!(first.parse::<u64>().unwrap(), rec.virtual_secs());
    }

    // The Prometheus exposition carries the ring counters verbatim.
    let prom = registry.snapshot().render_prometheus();
    assert!(prom.contains(&format!(
        "etw_ring_offered_total {}",
        report.capture.offered
    )));
    assert!(prom.contains(&format!("etw_stage_sink_records_total {}", report.records)));
    assert!(prom.contains("# TYPE etw_stage_decode_latency_ns histogram"));
}

#[test]
fn disabled_registry_leaves_no_trace() {
    // A campaign run against the disabled registry must behave exactly
    // like the unobserved entry point: no health, empty snapshot.
    let registry = Registry::disabled();
    let report = Campaign::new(&CampaignConfig::tiny())
        .registry(&registry)
        .run(|_| {}, |_| {})
        .expect("valid config");
    assert!(report.health.is_empty());
    let snap = registry.snapshot();
    assert_eq!(snap.counter("ring.offered_total"), 0);
    assert_eq!(snap.render_prometheus(), "");
    assert!(report.records > 0, "the campaign itself still runs");
}

#[test]
fn metric_surface_is_the_reviewed_list() {
    // Every counter, gauge and histogram name a tiny writer-tail
    // campaign exports. A change that adds or removes an instrument
    // updates the golden list in its own diff.
    for (shards, golden) in [
        (1, include_str!("golden/metric_names_s1.txt")),
        (4, include_str!("golden/metric_names_s4.txt")),
    ] {
        let registry = Registry::new();
        let tail = TailConfig {
            anon_shards: shards,
            ..TailConfig::default()
        };
        let (_, writer) = Campaign::new(&CampaignConfig::tiny())
            .registry(&registry)
            .run_to_writer(tail, DatasetWriter::new(std::io::sink()).unwrap(), |_| {})
            .expect("valid config");
        writer.finish().unwrap();
        let snap = registry.snapshot();
        let names: BTreeSet<&str> = snap
            .counters
            .keys()
            .chain(snap.gauges.keys())
            .chain(snap.histograms.keys())
            .map(String::as_str)
            .collect();
        let expected: BTreeSet<&str> = golden.lines().collect();
        let added: Vec<_> = names.difference(&expected).collect();
        let missing: Vec<_> = expected.difference(&names).collect();
        assert!(
            added.is_empty() && missing.is_empty(),
            "tests/golden/metric_names_s{shards}.txt: added {added:?}, missing {missing:?}"
        );
        assert!(golden.lines().is_sorted(), "keep the golden list sorted");
    }
}
