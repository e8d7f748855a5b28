//! Property tests for the synthetic population and the session model:
//! the invariants every campaign run relies on.

use etw_edonkey::messages::Message;
use etw_workload::catalog::{Catalog, CatalogParams};
use etw_workload::clients::{ClientClass, Population, PopulationParams};
use etw_workload::session::{GeneratorParams, SessionShard, SourceBlobs, SrcOp, WireParams};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

fn small_catalog(n_files: usize, seed: u64) -> Catalog {
    Catalog::generate(
        &CatalogParams {
            n_files,
            ..CatalogParams::default()
        },
        seed,
    )
}

/// The whole population's event stream from one shard, with a
/// campaign's default wire-noise rates.
fn sessions(catalog: Catalog, pop: Population, duration_secs: u64, seed: u64) -> SessionShard {
    let blobs = SourceBlobs::build(&catalog);
    let params = GeneratorParams {
        duration_secs,
        ..GeneratorParams::default()
    };
    let wire = WireParams {
        p_corrupt: 0.0068,
        p_corrupt_structural: 0.78,
        p_tcp_noise: 0.8,
        p_udp_noise: 0.01,
    };
    SessionShard::new(
        Arc::new(catalog),
        Arc::new(pop),
        Arc::new(blobs),
        params,
        wire,
        seed,
        0,
        1,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The event stream is time-ordered and bounded by the campaign
    /// duration, for any population size and duration.
    #[test]
    fn stream_ordered_and_bounded(
        n_clients in 5usize..120,
        duration in 300u64..4_000,
        seed in 0u64..1_000,
    ) {
        let catalog = small_catalog(500, seed);
        let pop = Population::generate(
            &PopulationParams {
                n_clients,
                id_space_bits: 18,
                scanner_max_asks: 300,
                heavy_max_shared: 100,
                ..PopulationParams::default()
            },
            seed ^ 1,
        );
        let mut last = 0u64;
        let mut n = 0u64;
        for ev in sessions(catalog, pop, duration, seed ^ 2) {
            prop_assert!(ev.t_us >= last, "time went backwards");
            prop_assert!(ev.t_us < duration * 1_000_000);
            let msg = Message::decode(&ev.query);
            prop_assert!(msg.is_ok(), "query does not decode: {:?}", ev.op);
            prop_assert!(msg.unwrap().is_client_to_server());
            last = ev.t_us;
            n += 1;
        }
        prop_assert!(n > 0);
    }

    /// Every event's sender is a population member, and per-client
    /// announced distinct files never exceed the profile.
    #[test]
    fn senders_and_share_bounds(seed in 0u64..500) {
        let catalog = small_catalog(800, seed);
        let pop = Population::generate(
            &PopulationParams {
                n_clients: 80,
                id_space_bits: 18,
                scanner_max_asks: 200,
                heavy_max_shared: 150,
                ..PopulationParams::default()
            },
            seed ^ 3,
        );
        let members: HashMap<u32, u32> = pop
            .clients()
            .iter()
            .map(|c| (c.id.raw(), c.n_shared + c.n_forged))
            .collect();
        let mut announced: HashMap<u32, HashSet<etw_edonkey::FileId>> = HashMap::new();
        for ev in sessions(catalog, pop, 2_000, seed ^ 4) {
            prop_assert!(members.contains_key(&ev.client.raw()), "unknown sender");
            if let SrcOp::Offer(entries) = &ev.op {
                let set = announced.entry(ev.client.raw()).or_default();
                for e in entries {
                    set.insert(e.file_id);
                }
            }
        }
        for (client, set) in &announced {
            let budget = members[client];
            prop_assert!(
                set.len() as u32 <= budget,
                "client {client} announced {} > budget {budget}",
                set.len()
            );
        }
    }

    /// Catalog popularity sampling always returns valid indices and the
    /// most popular rank dominates.
    #[test]
    fn catalog_sampling_valid(n_files in 10usize..3_000, seed in 0u64..500) {
        let catalog = small_catalog(n_files, seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        use rand::SeedableRng;
        for _ in 0..500 {
            let p = catalog.sample_provided(&mut rng);
            let s = catalog.sample_sought(&mut rng);
            prop_assert!(p < n_files);
            prop_assert!(s < n_files);
        }
    }

    /// Population class counts roughly follow the mix (chi-square-free
    /// sanity: each configured-nonzero class appears given enough
    /// clients).
    #[test]
    fn population_mix_represented(seed in 0u64..200) {
        let pop = Population::generate(
            &PopulationParams {
                n_clients: 3_000,
                id_space_bits: 20,
                ..PopulationParams::default()
            },
            seed,
        );
        for class in ClientClass::ALL {
            prop_assert!(
                pop.of_class(class).next().is_some(),
                "class {class:?} absent at n=3000"
            );
        }
        // Casual is the majority class.
        let casual = pop.of_class(ClientClass::Casual).count();
        prop_assert!(casual * 2 > pop.len());
    }
}
