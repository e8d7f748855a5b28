//! `repro ablations`: the design comparisons the paper argues for
//! (§2.3–2.4) and the extension measurements EXPERIMENTS.md cites, each
//! row timed best-of-N with [`time_best_of`] and printed in the row
//! format of `repro bench` ([`crate::suite`]):
//! `group/variant: N records in T = R records/s`,
//! where a "record" is the row's unit of work (an id, a message, a
//! frame, a byte). Nothing here is gated: the rows are evidence for
//! EXPERIMENTS.md, which quotes them by `group/variant`.
//!
//! | group | reproduces |
//! |---|---|
//! | `a1_clientid`, `a1_clientid_lookup` | direct array vs hashtable vs tree (§2.4) |
//! | `a2_fileid`, `a2_selector` | bucketed sorted arrays vs baselines; byte selector under pollution (§2.4, Fig. 3), plus entries shifted per insert |
//! | `a3_decode`, `a3_wire_path` | two-step decoder, early reject, full wire path (§2.3) on the `repro bench` message mix |
//! | (table) | A4: capture ring capacity vs loss (Fig. 2 mechanics) |
//! | `a5_pipeline` | end-to-end campaign per decode-worker count (Fig. 1) |
//! | `a6_telemetry`, `a6_primitives`, `a6_channel` | what watching the machine costs |
//! | `figures` | per-figure statistic extraction (§3) |
//! | `e2_codec` | LZSS dataset codec (§2.4 fn. 3) |
//! | `e3_distinct` | exact vs order-of-appearance vs HyperLogLog distinct counting (§1) |
//!
//! `--smoke` keeps every input and printed table and times one repeat
//! per row instead of the best of several.

use crate::harness::{time_best_of, BenchResult};
use crate::suite::{decode_frames, describe, message_mix, mix_frames, SuiteOptions};
use etw_analysis::cardinality::{hash_bytes, HyperLogLog};
use etw_analysis::distributions::DatasetStats;
use etw_analysis::histogram::IntHistogram;
use etw_analysis::peaks::find_peaks;
use etw_analysis::powerlaw::fit_histogram;
use etw_analysis::timeseries::SparseSeries;
use etw_anonymize::clientid::{
    BTreeAnonymizer, ClientIdAnonymizer, DirectArrayAnonymizer, HashMapAnonymizer,
};
use etw_anonymize::fileid::{
    BucketedArrays, ByteSelector, FileIdAnonymizer, HashMapFileAnonymizer, SingleSortedArray,
};
use etw_anonymize::scheme::{AnonMessage, AnonRecord};
use etw_core::campaign::{run_campaign, Campaign};
use etw_core::config::CampaignConfig;
use etw_edonkey::decoder::{validate, Decoder};
use etw_edonkey::ids::{ClientId, FileId};
use etw_netsim::capture::CaptureBuffer;
use etw_netsim::clock::VirtualTime;
use etw_netsim::traffic::{Burst, RateModel};
use etw_telemetry::channel::metered_bounded;
use etw_telemetry::Registry;
use etw_xmlout::compress::{compress, decompress};
use etw_xmlout::writer::to_xml_string;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::hint::black_box;

/// Repeats per row: micro rows are milliseconds, so a full run keeps
/// the best of nine; campaign rows the best of three.
struct Reps {
    micro: usize,
    campaign: usize,
}

/// Runs every ablation and prints its rows and tables to stdout.
pub fn run_ablations(opts: &SuiteOptions) {
    let reps = if opts.smoke {
        Reps {
            micro: 1,
            campaign: 1,
        }
    } else {
        Reps {
            micro: 9,
            campaign: 3,
        }
    };
    clientid(&reps);
    fileid(&reps);
    decode(&reps);
    capture_ring();
    pipeline_workers(&reps);
    telemetry(&reps);
    figures(&reps);
    codec(&reps);
    distinct(&reps);
}

/// Times `f` best-of-`reps` as `items` units of work and prints the row.
/// Every repeat's result goes through `black_box`, so no pass can be
/// optimised away.
fn row<R>(group: &str, variant: &str, items: u64, reps: usize, mut f: impl FnMut() -> R) {
    let (wall_secs, _) = time_best_of(reps, || black_box(f()));
    print_row(group, variant, items, wall_secs);
}

/// Prints one measured row in the `repro bench` format.
fn print_row(group: &str, variant: &str, items: u64, wall_secs: f64) {
    println!(
        "  {}",
        describe(&BenchResult {
            name: group.into(),
            preset: variant.into(),
            records: items,
            wall_secs,
            records_per_sec: items as f64 / wall_secs,
            allocs_per_record: None,
        })
    );
}

/// A1: 200 k clientIDs with the capture's access pattern (90 % from a
/// recently active 1/64 of a 20-bit space), anonymised from scratch and
/// then looked up in the filled store.
fn clientid(reps: &Reps) {
    println!("== A1: clientID anonymiser (§2.4) ==");
    const BITS: u32 = 20;
    let space = 1u32 << BITS;
    let mut rng = StdRng::seed_from_u64(42);
    let ids: Vec<ClientId> = (0..200_000)
        .map(|_| {
            if rng.gen_bool(0.9) {
                ClientId(rng.gen_range(0..space / 64))
            } else {
                ClientId(rng.gen_range(0..space))
            }
        })
        .collect();
    let n = ids.len() as u64;
    fn fill<A: ClientIdAnonymizer>(mut a: A, ids: &[ClientId]) -> u64 {
        ids.iter().map(|&id| a.anonymize(id) as u64).sum()
    }
    row("a1_clientid", "direct_array", n, reps.micro, || {
        fill(DirectArrayAnonymizer::new(BITS), &ids)
    });
    row("a1_clientid", "hashmap", n, reps.micro, || {
        fill(HashMapAnonymizer::new(), &ids)
    });
    row("a1_clientid", "btreemap", n, reps.micro, || {
        fill(BTreeAnonymizer::new(), &ids)
    });

    let mut direct = DirectArrayAnonymizer::new(BITS);
    let mut hash = HashMapAnonymizer::new();
    let mut btree = BTreeAnonymizer::new();
    for &id in &ids {
        direct.anonymize(id);
        hash.anonymize(id);
        btree.anonymize(id);
    }
    row("a1_clientid_lookup", "direct_array", n, reps.micro, || {
        ids.iter().filter_map(|&id| direct.lookup(id)).count()
    });
    row("a1_clientid_lookup", "hashmap", n, reps.micro, || {
        ids.iter().filter_map(|&id| hash.lookup(id)).count()
    });
    row("a1_clientid_lookup", "btreemap", n, reps.micro, || {
        ids.iter().filter_map(|&id| btree.lookup(id)).count()
    });
}

/// A2: 100 k fileIDs over 40 k distinct identities, clean (uniform MD4)
/// or polluted (55 % forged ids with the constant prefixes that land in
/// buckets 0 and 256 under FIRST_TWO).
fn fileid(reps: &Reps) {
    println!("== A2: fileID anonymiser (§2.4, Fig. 3) ==");
    const OPS: usize = 100_000;
    const DISTINCT: u64 = 40_000;
    let mut rng = StdRng::seed_from_u64(7);
    let clean: Vec<FileId> = (0..OPS)
        .map(|_| FileId::of_identity(rng.gen_range(0..DISTINCT)))
        .collect();
    let mut rng = StdRng::seed_from_u64(8);
    let polluted: Vec<FileId> = (0..OPS)
        .map(|_| {
            if rng.gen_bool(0.55) {
                let prefix = if rng.gen_bool(0.5) {
                    [0x00, 0x00]
                } else {
                    [0x00, 0x01]
                };
                FileId::forged(rng.gen_range(0..DISTINCT), prefix)
            } else {
                FileId::of_identity(rng.gen_range(0..DISTINCT))
            }
        })
        .collect();
    fn fill<A: FileIdAnonymizer>(mut a: A, ids: &[FileId]) -> u64 {
        ids.iter().map(|id| a.anonymize(id)).sum()
    }
    let n = OPS as u64;
    let (first_two, alternative) = (ByteSelector::FIRST_TWO, ByteSelector::ALTERNATIVE);
    row("a2_fileid", "bucketed_arrays", n, reps.micro, || {
        fill(BucketedArrays::new(alternative), &clean)
    });
    row("a2_fileid", "single_sorted_array", n, reps.micro, || {
        fill(SingleSortedArray::new(), &clean)
    });
    row("a2_fileid", "hashmap", n, reps.micro, || {
        fill(HashMapFileAnonymizer::new(), &clean)
    });
    let selectors = [
        ("first_two_bytes/clean", first_two, &clean),
        ("first_two_bytes/polluted", first_two, &polluted),
        ("alternative_bytes/polluted", alternative, &polluted),
    ];
    for (variant, selector, ids) in selectors {
        row("a2_selector", variant, n, reps.micro, || {
            fill(BucketedArrays::new(selector), ids)
        });
    }
    println!("  entries shifted by sorted insertion, per op:");
    for (variant, selector, ids) in selectors {
        let mut store = BucketedArrays::new(selector);
        ids.iter().for_each(|id| {
            store.anonymize(id);
        });
        println!(
            "    {variant:<28} {:>8.1}",
            store.probe_stats().shifted as f64 / OPS as f64
        );
    }
}

/// A3: 50 k messages of `repro bench`'s decode mix, 50 k garbage
/// datagrams behind a valid eDonkey marker, and the mix's frames
/// through the wire path.
fn decode(reps: &Reps) {
    println!("== A3: decoder throughput (§2.3) ==");
    const N: usize = 50_000;
    let msgs = message_mix(N, 3);
    let mut rng = StdRng::seed_from_u64(4);
    let garbage: Vec<Vec<u8>> = (0..N)
        .map(|_| {
            let mut v = vec![0u8; rng.gen_range(2..100)];
            rng.fill(&mut v[..]);
            v[0] = 0xE3; // eDonkey marker so it reaches validation
            v
        })
        .collect();
    let two_step = |corpus: &[Vec<u8>]| {
        let mut d = Decoder::new();
        for m in corpus {
            let _ = d.push(m);
        }
        d.stats().handled
    };
    let n = N as u64;
    row("a3_decode", "two_step_valid_mix", n, reps.micro, || {
        two_step(&msgs)
    });
    row(
        "a3_decode",
        "validation_only_valid_mix",
        n,
        reps.micro,
        || msgs.iter().filter(|m| validate(m).is_ok()).count(),
    );
    row("a3_decode", "two_step_garbage", n, reps.micro, || {
        two_step(&garbage)
    });
    row(
        "a3_decode",
        "validation_only_garbage",
        n,
        reps.micro,
        || garbage.iter().filter(|m| validate(m).is_err()).count(),
    );

    let frames = mix_frames(msgs);
    row(
        "a3_wire_path",
        "frames_to_messages",
        frames.len() as u64,
        reps.micro,
        || decode_frames(&frames),
    );
}

/// A4: one fixed bursty load (20 000 s of a 5 200 pps diurnal model
/// with two flash bursts) into rings of growing capacity, drained at
/// 26 kpps. A table, not a timing: the question is loss, not speed.
fn capture_ring() {
    println!("== A4: capture ring sizing (Fig. 2 mechanics) ==");
    let horizon = 20_000u64;
    let mut model = RateModel::new(5_200.0, 0.45, 0.10, horizon, 0, 1);
    model.set_bursts(vec![
        Burst {
            start_sec: horizon / 4,
            duration_sec: 30,
            amplitude: 9.0,
        },
        Burst {
            start_sec: horizon / 2,
            duration_sec: 60,
            amplitude: 12.0,
        },
    ]);
    let mut rng = StdRng::seed_from_u64(5);
    let arrivals: Vec<u64> = (0..horizon)
        .map(|s| model.sample_arrivals(VirtualTime::from_secs(s), &mut rng))
        .collect();
    let offered: u64 = arrivals.iter().sum();
    println!("  offered {offered} packets, drain 26 000 pps");
    println!("  {:>10} {:>12} {:>12}", "capacity", "lost", "loss ratio");
    for capacity in [256u64, 1_024, 4_096, 8_192, 16_384, 65_536, 262_144] {
        let mut ring = CaptureBuffer::new(capacity, 26_000.0);
        for (s, &n) in arrivals.iter().enumerate() {
            ring.offer_batch(VirtualTime::from_secs(s as u64), n);
        }
        println!(
            "  {:>10} {:>12} {:>12.2e}",
            capacity,
            ring.lost(),
            ring.lost() as f64 / offered as f64
        );
    }
}

/// The campaign A5 and A6 run: `tiny` at 400 clients for 1 200 virtual
/// seconds, with a health snapshot every 300 s when observed.
fn small_campaign() -> CampaignConfig {
    let mut config = CampaignConfig::tiny();
    config.population.n_clients = 400;
    config.generator.duration_secs = 1_200;
    config.health_interval_secs = 300;
    config
}

/// A5: the whole capture machine (source → wire → decode → anonymise)
/// per decode-worker count, in dataset records.
fn pipeline_workers(reps: &Reps) {
    println!("== A5: pipeline parallelism (Fig. 1) ==");
    let mut config = small_campaign();
    for workers in [1usize, 2, 4, 8] {
        config.decode_workers = workers;
        let (wall_secs, records) =
            time_best_of(reps.campaign, || run_campaign(&config, |_| {}).records);
        print_row(
            "a5_pipeline",
            &format!("decode_workers_{workers}"),
            records,
            wall_secs,
        );
    }
}

/// A6: the same campaign unobserved and fully instrumented (live
/// registry, health snapshots), then the primitive costs: one counter
/// add, one histogram record, one channel round trip.
fn telemetry(reps: &Reps) {
    println!("== A6: telemetry overhead ==");
    let config = small_campaign();
    let (unobserved, plain) = time_best_of(reps.campaign, || run_campaign(&config, |_| {}));
    let (instrumented, observed) = time_best_of(reps.campaign, || {
        Campaign::new(&config)
            .registry(&Registry::new())
            .run(|_| {}, |_| {})
            .expect("valid config")
    });
    assert!(!observed.health.is_empty(), "no health records cut");
    print_row(
        "a6_telemetry",
        "campaign_unobserved",
        plain.records,
        unobserved,
    );
    print_row(
        "a6_telemetry",
        "campaign_instrumented",
        observed.records,
        instrumented,
    );
    println!(
        "  overhead: {:+.1} % (instrumented vs unobserved)",
        (instrumented / unobserved - 1.0) * 100.0
    );

    const OPS: u64 = 1_000_000;
    let registry = Registry::new();
    let counter = registry.counter("bench.counter");
    let disabled = Registry::disabled().counter("bench.counter");
    let histogram = registry.histogram("bench.histogram");
    row("a6_primitives", "counter_add", OPS, reps.micro, || {
        (0..OPS).for_each(|_| counter.add(1))
    });
    row(
        "a6_primitives",
        "counter_add_disabled",
        OPS,
        reps.micro,
        || (0..OPS).for_each(|_| black_box(&disabled).add(1)),
    );
    row("a6_primitives", "histogram_record", OPS, reps.micro, || {
        (0..OPS).for_each(|i| histogram.record(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
    });
    let (plain_tx, plain_rx) = crossbeam::channel::bounded::<u64>(1024);
    row("a6_channel", "plain_send_recv", OPS, reps.micro, || {
        (0..OPS)
            .map(|i| {
                let _ = plain_tx.send(i);
                plain_rx.recv().unwrap_or(0)
            })
            .sum::<u64>()
    });
    for (variant, registry) in [
        ("metered_send_recv", registry.clone()),
        ("metered_send_recv_disabled", Registry::disabled()),
    ] {
        let (tx, rx) = metered_bounded::<u64>(1024, &registry, "bench");
        row("a6_channel", variant, OPS, reps.micro, || {
            (0..OPS)
                .map(|i| {
                    let _ = tx.send(i);
                    rx.recv().unwrap_or(0)
                })
                .sum::<u64>()
        });
    }
}

/// Per-figure statistic extraction from one small campaign's dataset
/// (500 clients, one virtual hour), in dataset records; Fig. 2's rows
/// run over a 100 000 s sparse loss series and Fig. 3's over a 50 000
/// fileID store, in points and buckets.
fn figures(reps: &Reps) {
    println!("== figures: statistic extraction (§3) ==");
    let mut config = CampaignConfig::tiny();
    config.population.n_clients = 500;
    config.generator.duration_secs = 3_600;
    let mut records = Vec::new();
    run_campaign(&config, |r| records.push(r));
    let n = records.len() as u64;
    let accumulate = || {
        let mut stats = DatasetStats::new();
        records.iter().for_each(|r| stats.observe(r));
        stats
    };
    let stats = accumulate();
    row("figures", "accumulate_dataset", n, reps.micro, accumulate);
    row("figures", "fig4_providers_per_file", n, reps.micro, || {
        stats.providers_per_file().total()
    });
    row("figures", "fig5_seekers_per_file", n, reps.micro, || {
        stats.seekers_per_file().total()
    });
    row("figures", "fig6_files_per_provider", n, reps.micro, || {
        stats.files_per_provider().total()
    });
    row(
        "figures",
        "fig7_files_per_seeker_with_peak",
        n,
        reps.micro,
        || find_peaks(&stats.files_per_seeker(), 5, 3.0, 5).len(),
    );
    row(
        "figures",
        "fig8_size_histogram_with_peaks",
        n,
        reps.micro,
        || find_peaks(&stats.size_histogram_kb(), 8, 10.0, 5).len(),
    );
    let providers = stats.providers_per_file();
    row("figures", "powerlaw_fit_fig4", n, reps.micro, || {
        fit_histogram(&providers)
    });

    let series = SparseSeries::new((0..100_000u64).step_by(37).map(|s| (s, s % 7)).collect());
    let points = series.points.len() as u64;
    row("figures", "fig2_cumulative", points, reps.micro, || {
        series.cumulative().len()
    });
    row("figures", "fig2_bucketed_1h", points, reps.micro, || {
        series.bucketed(3_600).len()
    });
    let mut store = BucketedArrays::new(ByteSelector::ALTERNATIVE);
    for i in 0..50_000u64 {
        store.anonymize(&FileId::of_identity(i));
    }
    row(
        "figures",
        "fig3_bucket_sizes_histogram",
        65_536,
        reps.micro,
        || {
            let h: IntHistogram = store.bucket_sizes().iter().map(|&s| s as u64).collect();
            h.distinct_values()
        },
    );
}

/// E2: the LZSS codec over a ~1 MB dataset document, in bytes of XML.
fn codec(reps: &Reps) {
    println!("== E2: dataset codec (§2.4 fn. 3) ==");
    let records: Vec<AnonRecord> = (0..8_000u64)
        .map(|i| AnonRecord {
            ts_us: i * 1_000,
            peer: (i % 500) as u32,
            msg: AnonMessage::GetSources {
                files: vec![i % 900, (i * 7) % 900],
            },
        })
        .collect();
    let xml = to_xml_string(&records);
    let packed = compress(xml.as_bytes());
    let bytes = xml.len() as u64;
    row("e2_codec", "compress_bytes", bytes, reps.micro, || {
        compress(xml.as_bytes()).len()
    });
    row("e2_codec", "decompress_bytes", bytes, reps.micro, || {
        decompress(&packed).map_or(0, |v| v.len())
    });
    println!(
        "  ratio: {} -> {} bytes ({:.1}x)",
        xml.len(),
        packed.len(),
        xml.len() as f64 / packed.len() as f64
    );
}

/// E3: 300 k observations of 120 k distinct fileIDs, counted exactly, by
/// the paper's order-of-appearance store, and by HyperLogLog (p = 14).
fn distinct(reps: &Reps) {
    println!("== E3: distinct counting (§1) ==");
    let ids: Vec<FileId> = (0..300_000u64)
        .map(|i| FileId::of_identity(i % 120_000))
        .collect();
    let n = ids.len() as u64;
    let hll = || {
        let mut hll = HyperLogLog::new(14);
        ids.iter()
            .for_each(|id| hll.insert_hash(hash_bytes(id.as_bytes())));
        hll
    };
    row("e3_distinct", "hashset_exact", n, reps.micro, || {
        ids.iter().collect::<HashSet<_>>().len()
    });
    row(
        "e3_distinct",
        "order_of_appearance_store",
        n,
        reps.micro,
        || {
            let mut store = BucketedArrays::new(ByteSelector::ALTERNATIVE);
            ids.iter().for_each(|id| {
                store.anonymize(id);
            });
            store.distinct()
        },
    );
    row("e3_distinct", "hyperloglog_p14", n, reps.micro, || {
        hll().estimate() as u64
    });
    let exact = ids.iter().collect::<HashSet<_>>().len();
    let sketch = hll();
    println!(
        "  exact {exact} | HLL(p=14) {:.0} ({:.2} % error, {} bytes)",
        sketch.estimate(),
        100.0 * (sketch.estimate() - exact as f64).abs() / exact as f64,
        sketch.memory_bytes()
    );
}
