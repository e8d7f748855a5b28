//! Crash-resilience property tests: a campaign killed at a random
//! virtual time under random fault seeds, resumed from its last
//! checkpoint, must reproduce the uninterrupted run — record for record
//! at the API level and **byte for byte** at the dataset-file level.
//!
//! This is the acceptance test of the fault-injection layer: the
//! checkpoint protocol (anonymiser appearance orders + record count +
//! writer offset), the deterministic replay (seeded faults included)
//! and the writer's truncated-tail recovery have to agree, for *every*
//! seed, not just the soak preset's.

use edonkey_ten_weeks::core::campaign::Campaign;
use edonkey_ten_weeks::core::checkpoint::Checkpoint;
use edonkey_ten_weeks::core::config::CampaignConfig;
use edonkey_ten_weeks::core::pipeline::TailConfig;
use edonkey_ten_weeks::faults::Window;
use edonkey_ten_weeks::xmlout::writer::DatasetWriter;
use proptest::prelude::*;

/// A faster variant of the soak preset: same fault classes all active,
/// shorter campaign, windows moved inside the shortened run.
fn small_faulty(seed: u64) -> CampaignConfig {
    let mut config = CampaignConfig::tiny_faulty();
    config.seed = seed;
    config.faults.seed = seed ^ 0xFA17;
    config.generator.duration_secs = 600;
    config.checkpoint_interval_secs = 120;
    config.faults.outages = vec![Window {
        start_us: 200_000_000,
        end_us: 210_000_000,
    }];
    config.faults.overload = vec![
        Window {
            start_us: 100_000_000,
            end_us: 150_000_000,
        },
        Window {
            start_us: 400_000_000,
            end_us: 450_000_000,
        },
    ];
    // A third of the frames → a third of the crash schedule.
    config.faults.worker_crash_every = 1_500;
    config
}

/// Runs the campaign to completion through the reference writer
/// (`Campaign::run_reference`: the serial tail into a [`DatasetWriter`],
/// `writer_bytes` stamped into each checkpoint). Returns the finished
/// document bytes, the checkpoints, and the record count.
fn run_writing(config: &CampaignConfig) -> (Vec<u8>, Vec<Checkpoint>, u64) {
    let mut cps = Vec::new();
    let (report, writer) = Campaign::new(config)
        .run_reference(DatasetWriter::new(Vec::new()).expect("vec write"), |cp| {
            cps.push(cp)
        })
        .expect("valid config");
    assert_eq!(report.pipeline.reorder_holes, 0, "sequence holes");
    let bytes = writer.finish().expect("vec write");
    (bytes, cps, report.records)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4 })]

    /// Kill the campaign at a random point (a random checkpoint plus a
    /// torn partial tail), recover, resume: the rebuilt dataset must be
    /// byte-identical to the uninterrupted run's, and the checkpoints
    /// cut after the kill must be the very same cuts.
    #[test]
    fn killed_campaign_resumes_byte_identical(
        seed in 0u64..1_000,
        cp_frac in 0.0f64..1.0,
        tear_frac in 0.0f64..1.0,
    ) {
        let config = small_faulty(seed);
        let (full, cps, records) = run_writing(&config);
        prop_assert!(cps.len() >= 3, "only {} checkpoints", cps.len());
        prop_assert!(records > 100, "only {records} records");

        // The kill: the machine dies somewhere after checkpoint `cp`,
        // leaving the dataset file torn at an arbitrary byte.
        let cp = &cps[(cp_frac * (cps.len() - 1) as f64) as usize];
        let tear_at = cp.writer_bytes as usize
            + (tear_frac * (full.len() - cp.writer_bytes as usize) as f64) as usize;
        let mut torn = full[..tear_at].to_vec();

        // Recovery: truncate to the checkpoint's writer offset and
        // resume both the writer and the campaign from the checkpoint.
        torn.truncate(cp.writer_bytes as usize);
        let mut tail_cps = Vec::new();
        let (resumed, writer) = Campaign::new(&config)
            .resume_from(cp)
            .run_reference(
                DatasetWriter::resume(torn, cp.records, cp.writer_bytes),
                |c| tail_cps.push(c),
            )
            .expect("resume accepted");
        let rebuilt = writer.finish().expect("vec write");

        prop_assert_eq!(resumed.records + cp.records, records);
        prop_assert_eq!(resumed.pipeline.reorder_holes, 0);
        prop_assert_eq!(rebuilt.len(), full.len());
        prop_assert!(rebuilt == full, "rebuilt dataset diverges from the full run");
        // Post-kill checkpoints replay identically, writer offsets
        // included — so a second kill during the resumed run recovers
        // the same way.
        let expected: Vec<&Checkpoint> =
            cps.iter().filter(|c| c.records > cp.records).collect();
        prop_assert_eq!(expected.len(), tail_cps.len());
        for (a, b) in expected.iter().zip(&tail_cps) {
            prop_assert_eq!(*a, b);
        }
    }

    /// The batched tail under kill-anywhere: a campaign run through the
    /// overlapped anonymise→format→write stage (random batch size,
    /// random anonymiser shard count in {1, 2, 4, 8}, random *source*
    /// shard count in {1, 2, 4, 8}) must produce the *same bytes and
    /// the same checkpoints* as the serial writer, and a kill at a
    /// random checkpoint resumed through the batched tail must rebuild
    /// the serial run's dataset byte for byte. This is the
    /// cross-implementation guarantee that lets `.etwckpt` files written
    /// by any tail at any shard count resume through any other — now
    /// including the sharded front end: the resume replays generator
    /// workers and the virtual-time merge from the checkpoint exactly.
    #[test]
    fn killed_batched_campaign_resumes_byte_identical(
        seed in 0u64..1_000,
        batch_records in 1usize..64,
        cp_frac in 0.0f64..1.0,
        shard_pow in 0u32..4,
        src_pow in 0u32..4,
    ) {
        let mut config = small_faulty(seed);
        config.source.source_shards = 1 << src_pow;
        // The serial run is the reference for bytes and checkpoints.
        let (full, cps, records) = run_writing(&config);
        prop_assert!(cps.len() >= 3, "only {} checkpoints", cps.len());
        let tail = TailConfig {
            batch_records,
            batch_queue: 2,
            anon_shards: 1 << shard_pow,
        };

        // Uninterrupted batched run: byte- and checkpoint-identical.
        let mut batched_cps = Vec::new();
        let (report, writer) = Campaign::new(&config)
            .run_to_writer(
                tail,
                DatasetWriter::new(Vec::new()).expect("vec write"),
                |cp| batched_cps.push(cp),
            )
            .expect("valid config");
        let batched_full = writer.finish().expect("vec write");
        prop_assert_eq!(report.records, records);
        prop_assert_eq!(report.pipeline.reorder_holes, 0);
        prop_assert!(batched_full == full, "batched tail diverges from serial writer");
        prop_assert_eq!(&batched_cps, &cps);

        // Kill after a random checkpoint; resume through the batched
        // tail from the serial run's sidecar.
        let cp = &cps[(cp_frac * (cps.len() - 1) as f64) as usize];
        let torn = full[..cp.writer_bytes as usize].to_vec();
        let mut tail_cps = Vec::new();
        let (resumed, writer) = Campaign::new(&config)
            .resume_from(cp)
            .run_to_writer(
                tail,
                DatasetWriter::resume(torn, cp.records, cp.writer_bytes),
                |c| tail_cps.push(c),
            )
            .expect("resume accepted");
        let rebuilt = writer.finish().expect("vec write");

        prop_assert_eq!(resumed.records + cp.records, records);
        prop_assert_eq!(resumed.pipeline.reorder_holes, 0);
        prop_assert!(rebuilt == full, "batched resume diverges from the full run");
        let expected: Vec<&Checkpoint> =
            cps.iter().filter(|c| c.records > cp.records).collect();
        prop_assert_eq!(expected.len(), tail_cps.len());
        for (a, b) in expected.iter().zip(&tail_cps) {
            prop_assert_eq!(*a, b);
        }
    }

    /// The checkpoint sidecar round-trips through its text encoding, so
    /// what `repro soak` persists is what resume reads back. Freshly
    /// encoded sidecars speak version 3 (sealed id payloads).
    #[test]
    fn checkpoint_sidecar_roundtrips(seed in 0u64..1_000) {
        let config = small_faulty(seed);
        let (_, cps, _) = run_writing(&config);
        for cp in &cps {
            let text = cp.encode();
            prop_assert!(text.starts_with("etwckpt 3\n"));
            let decoded = Checkpoint::decode(&text).expect("roundtrip");
            prop_assert_eq!(cp, &decoded);
        }
    }

    /// A v1 sidecar — what a PR 4-era run left on disk — restores
    /// through the *sharded* anonymiser byte-identically: upgrading the
    /// binary mid-campaign loses nothing.
    #[test]
    fn v1_sidecar_resumes_through_sharded_tail(
        seed in 0u64..1_000,
        cp_frac in 0.0f64..1.0,
    ) {
        let config = small_faulty(seed);
        let (full, cps, records) = run_writing(&config);
        prop_assert!(cps.len() >= 3, "only {} checkpoints", cps.len());
        let cp = &cps[(cp_frac * (cps.len() - 1) as f64) as usize];

        // Round-trip through the legacy flat text: the decoder must
        // treat the old file exactly like the state it encoded.
        let decoded = Checkpoint::decode(&encode_v1(cp)).expect("v1 decodes");
        prop_assert_eq!(cp, &decoded);

        let torn = full[..cp.writer_bytes as usize].to_vec();
        let (resumed, writer) = Campaign::new(&config)
            .resume_from(&decoded)
            .run_to_writer(
                TailConfig { batch_records: 7, batch_queue: 2, anon_shards: 4 },
                DatasetWriter::resume(torn, decoded.records, decoded.writer_bytes),
                |_| {},
            )
            .expect("resume accepted");
        let rebuilt = writer.finish().expect("vec write");
        prop_assert_eq!(resumed.records + cp.records, records);
        prop_assert!(rebuilt == full, "v1-resumed sharded dataset diverges");
    }
}

/// Renders a checkpoint in the legacy v1 sidecar layout (flat id lists,
/// global order implicit in line position) — a faithful copy of what the
/// PR 4 encoder produced for a campaign running the live Fig. 3 tracker,
/// kept here as the compatibility fixture. That tracker saw exactly the
/// fileID encoder's ids in the same order, so its `fig3` section repeats
/// the file order.
fn encode_v1(cp: &Checkpoint) -> String {
    fn push_hex(out: &mut String, id: &edonkey_ten_weeks::edonkey::ids::FileId) {
        for i in 0..16 {
            out.push_str(&format!("{:02x}", id.byte(i)));
        }
        out.push('\n');
    }
    let mut out = String::new();
    out.push_str("etwckpt 1\n");
    out.push_str(&format!("seed {}\n", cp.seed));
    out.push_str(&format!("virtual_us {}\n", cp.virtual_us));
    out.push_str(&format!("next_checkpoint_us {}\n", cp.next_checkpoint_us));
    out.push_str(&format!("records {}\n", cp.records));
    out.push_str(&format!("writer_bytes {}\n", cp.writer_bytes));
    out.push_str(&format!("clients {}\n", cp.client_order.len()));
    for id in &cp.client_order {
        out.push_str(&format!("{id}\n"));
    }
    out.push_str(&format!("files {}\n", cp.file_order.len()));
    for id in &cp.file_order {
        push_hex(&mut out, id);
    }
    out.push_str(&format!("fig3 {}\n", cp.file_order.len()));
    for id in &cp.file_order {
        push_hex(&mut out, id);
    }
    out.push_str("end\n");
    out
}
