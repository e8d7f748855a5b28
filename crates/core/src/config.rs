//! Campaign configuration: one knob set for the whole measurement stack.

use etw_anonymize::fileid::ByteSelector;
use etw_faults::{DirectedRates, FaultSpec, Window};
use etw_workload::catalog::CatalogParams;
use etw_workload::clients::PopulationParams;
use etw_workload::session::GeneratorParams;

/// A cross-field configuration invariant violation, found by
/// [`CampaignConfig::validate`].
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// Population clientID width disagrees with the anonymiser array
    /// width.
    IdSpaceMismatch {
        /// Bits the population draws clientIDs from.
        population_bits: u32,
        /// Bits the anonymiser array covers.
        anonymizer_bits: u32,
    },
    /// MTU below the IPv4 minimum of 576.
    MtuTooSmall {
        /// The configured MTU.
        mtu: usize,
    },
    /// A probability knob outside `[0, 1]`.
    ProbabilityOutOfRange {
        /// Which knob.
        field: &'static str,
        /// Its value.
        value: f64,
    },
    /// `decode_workers == 0` — the pipeline needs at least one worker.
    NoDecodeWorkers,
    /// A fault window with `start_us >= end_us`.
    FaultWindowInvalid {
        /// Window start, µs.
        start_us: u64,
        /// Window end, µs.
        end_us: u64,
    },
    /// A checkpoint does not belong to this configuration (different
    /// seed).
    CheckpointMismatch {
        /// What disagreed.
        reason: &'static str,
    },
    /// `anon_shards` is not a power of two in `1..=16`.
    ShardCountInvalid {
        /// The configured shard count.
        got: usize,
    },
    /// `source_shards` is not a power of two in `1..=16`.
    SourceShardsInvalid {
        /// The configured source shard count.
        got: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::IdSpaceMismatch {
                population_bits,
                anonymizer_bits,
            } => write!(
                f,
                "population draws {population_bits}-bit clientIDs but the \
                 anonymiser array covers {anonymizer_bits} bits"
            ),
            ConfigError::MtuTooSmall { mtu } => {
                write!(f, "mtu {mtu} below the IPv4 minimum of 576")
            }
            ConfigError::ProbabilityOutOfRange { field, value } => {
                write!(f, "{field} = {value} outside [0,1]")
            }
            ConfigError::NoDecodeWorkers => write!(f, "need at least one decode worker"),
            ConfigError::FaultWindowInvalid { start_us, end_us } => {
                write!(
                    f,
                    "fault window [{start_us}, {end_us}) is empty or inverted"
                )
            }
            ConfigError::CheckpointMismatch { reason } => {
                write!(f, "checkpoint does not match this campaign: {reason}")
            }
            ConfigError::ShardCountInvalid { got } => {
                write!(f, "anon_shards must be a power of two in 1..=16, got {got}")
            }
            ConfigError::SourceShardsInvalid { got } => {
                write!(
                    f,
                    "source_shards must be a power of two in 1..=16, got {got}"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Traffic-source sharding: how many parallel generator workers (and
/// matching directory-index shards) feed the capture pipeline. The
/// sharded source is deterministic for any width — DESIGN.md §17
/// explains why the dataset bytes are shard-count-invariant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SourceConfig {
    /// Generator workers / directory-index shards. Power of two in
    /// `1..=16`; 1 keeps the source fully sequential.
    pub source_shards: usize,
}

impl Default for SourceConfig {
    fn default() -> Self {
        SourceConfig { source_shards: 1 }
    }
}

/// Everything the campaign driver needs.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Master seed; every stage derives its own stream from it.
    pub seed: u64,
    /// File catalog parameters.
    pub catalog: CatalogParams,
    /// Client population parameters.
    pub population: PopulationParams,
    /// Traffic generator parameters.
    pub generator: GeneratorParams,
    /// Capture ring capacity in packets (the paper's libpcap kernel
    /// buffer).
    pub capture_ring: u64,
    /// Capture drain rate in packets/second.
    pub capture_drain_pps: f64,
    /// Link MTU (fragmentation threshold).
    pub mtu: usize,
    /// Fraction of client queries whose bytes are corrupted on the wire
    /// (buggy client software; paper §2.3: 0.68 % undecodable).
    pub p_corrupt: f64,
    /// Within corrupted messages, fraction using a *structural*
    /// corruption (paper: 78 % of undecodable were structurally
    /// incorrect).
    pub p_corrupt_structural: f64,
    /// Per-query probability of an extra unrelated UDP datagram on the
    /// link (other applications; decodes as non-eDonkey).
    pub p_udp_noise: f64,
    /// Per-query probability of an extra TCP packet on the link (the
    /// paper's capture was ~half TCP; the decoder ignores it).
    pub p_tcp_noise: f64,
    /// clientID anonymiser width in bits (32 = the paper's 16 GB array).
    pub client_space_bits: u32,
    /// Byte pair indexing the fileID anonymisation arrays.
    pub fileid_selector: ByteSelector,
    /// Decoder worker threads in the pipeline.
    pub decode_workers: usize,
    /// Traffic-source sharding (generator workers + index shards).
    pub source: SourceConfig,
    /// Virtual seconds between machine-health snapshots (0 disables
    /// them). Consulted by every campaign terminal that runs with an
    /// enabled registry; a snapshot is cut each time virtual time
    /// crosses an interval boundary.
    pub health_interval_secs: u64,
    /// Fault injection: lossy link, outage/overload windows, worker
    /// crash plan. The default is a perfect world.
    pub faults: FaultSpec,
    /// Virtual seconds between resume checkpoints (0 disables them).
    pub checkpoint_interval_secs: u64,
    /// Span events retained per stage-thread flight-recorder ring
    /// (0 disables the flight recorder entirely).
    pub trace_ring_slots: usize,
    /// Directory receiving `flight_*.etwtrace` dumps when a worker
    /// crashes or degrades, the producer starts shedding, or a
    /// checkpoint is cut. `None` records in memory only.
    pub trace_dump_dir: Option<std::path::PathBuf>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        // The "scale ≈ 1e-4 of the paper" preset from DESIGN.md §4:
        // ~10 k clients, 50 k files, one virtual week, a few million
        // messages.
        let population = PopulationParams::default();
        CampaignConfig {
            seed: 0xED0, /*nkey*/
            catalog: CatalogParams::default(),
            client_space_bits: population.id_space_bits,
            population,
            generator: GeneratorParams::default(),
            capture_ring: 4096,
            capture_drain_pps: 50_000.0,
            mtu: 1500,
            p_corrupt: 0.0068,
            p_corrupt_structural: 0.78,
            p_udp_noise: 0.01,
            p_tcp_noise: 0.8,
            fileid_selector: ByteSelector::ALTERNATIVE,
            decode_workers: 4,
            source: SourceConfig::default(),
            health_interval_secs: 3_600,
            faults: FaultSpec::default(),
            checkpoint_interval_secs: 0,
            trace_ring_slots: 0,
            trace_dump_dir: None,
        }
    }
}

impl CampaignConfig {
    /// A seconds-long configuration for tests and doc examples.
    pub fn tiny() -> Self {
        let population = PopulationParams {
            n_clients: 200,
            id_space_bits: 16,
            scanner_max_asks: 500,
            heavy_max_shared: 300,
            ..PopulationParams::default()
        };
        CampaignConfig {
            catalog: CatalogParams {
                n_files: 1_500,
                ..CatalogParams::default()
            },
            client_space_bits: population.id_space_bits,
            population,
            generator: GeneratorParams {
                duration_secs: 1_800,
                ..GeneratorParams::default()
            },
            decode_workers: 2,
            ..CampaignConfig::default()
        }
    }

    /// [`CampaignConfig::tiny`] under adversity: every link fault class
    /// active at realistic rates, a mid-campaign outage, two overload
    /// windows, scheduled worker crashes, and periodic checkpoints.
    /// This is the soak-test configuration.
    pub fn tiny_faulty() -> Self {
        let mut config = CampaignConfig::tiny();
        config.faults = FaultSpec {
            seed: config.seed ^ 0xFA17,
            drop: DirectedRates {
                to_server: 0.02,
                from_server: 0.03,
            },
            duplicate: DirectedRates::symmetric(0.01),
            reorder: DirectedRates::symmetric(0.02),
            truncate: DirectedRates::symmetric(0.005),
            delay: DirectedRates::symmetric(0.01),
            delay_max_us: 50_000,
            // One link blackout around minute 10 of the 30-minute run.
            outages: vec![Window {
                start_us: 600_000_000,
                end_us: 615_000_000,
            }],
            // Two sustained-overload periods where the producer sheds.
            overload: vec![
                Window {
                    start_us: 300_000_000,
                    end_us: 360_000_000,
                },
                Window {
                    start_us: 1_200_000_000,
                    end_us: 1_260_000_000,
                },
            ],
            shed_keep_every: 3,
            worker_crash_every: 4_000,
            max_worker_restarts: 3,
            restart_backoff_frames: 8,
            restart_backoff_cap: 64,
        };
        config.checkpoint_interval_secs = 300;
        config
    }

    /// Sanity checks cross-field invariants; call before running.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.population.id_space_bits != self.client_space_bits {
            return Err(ConfigError::IdSpaceMismatch {
                population_bits: self.population.id_space_bits,
                anonymizer_bits: self.client_space_bits,
            });
        }
        if self.mtu < 576 {
            return Err(ConfigError::MtuTooSmall { mtu: self.mtu });
        }
        for (field, value) in [
            ("p_corrupt", self.p_corrupt),
            ("p_corrupt_structural", self.p_corrupt_structural),
            ("p_udp_noise", self.p_udp_noise),
            ("p_tcp_noise", self.p_tcp_noise),
        ] {
            if !(0.0..=1.0).contains(&value) {
                return Err(ConfigError::ProbabilityOutOfRange { field, value });
            }
        }
        if self.decode_workers == 0 {
            return Err(ConfigError::NoDecodeWorkers);
        }
        if let Some((field, value)) = self.faults.invalid_probability() {
            return Err(ConfigError::ProbabilityOutOfRange { field, value });
        }
        if let Some((start_us, end_us)) = self.faults.invalid_window() {
            return Err(ConfigError::FaultWindowInvalid { start_us, end_us });
        }
        let shards = self.source.source_shards;
        if !shards.is_power_of_two() || !(1..=16).contains(&shards) {
            return Err(ConfigError::SourceShardsInvalid { got: shards });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        CampaignConfig::default().validate().unwrap();
        CampaignConfig::tiny().validate().unwrap();
    }

    #[test]
    fn mismatched_id_space_rejected() {
        let mut c = CampaignConfig::tiny();
        c.client_space_bits = 8;
        assert!(c.validate().is_err());
    }

    #[test]
    fn tiny_mtu_rejected() {
        let mut c = CampaignConfig::tiny();
        c.mtu = 100;
        assert!(c.validate().is_err());
    }

    #[test]
    fn zero_workers_rejected() {
        let mut c = CampaignConfig::tiny();
        c.decode_workers = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn bad_probability_rejected() {
        let mut c = CampaignConfig::tiny();
        c.p_corrupt = 1.5;
        assert_eq!(
            c.validate(),
            Err(ConfigError::ProbabilityOutOfRange {
                field: "p_corrupt",
                value: 1.5
            })
        );
    }

    #[test]
    fn bad_source_shards_rejected() {
        for bad in [0usize, 3, 12, 32] {
            let mut c = CampaignConfig::tiny();
            c.source.source_shards = bad;
            assert_eq!(
                c.validate(),
                Err(ConfigError::SourceShardsInvalid { got: bad })
            );
        }
        for good in [1usize, 2, 4, 8, 16] {
            let mut c = CampaignConfig::tiny();
            c.source.source_shards = good;
            c.validate().unwrap();
        }
    }

    #[test]
    fn errors_are_typed_and_render() {
        let mut c = CampaignConfig::tiny();
        c.client_space_bits = 8;
        let err = c.validate().unwrap_err();
        assert!(matches!(err, ConfigError::IdSpaceMismatch { .. }));
        assert!(err.to_string().contains("8 bits"));

        let mut c = CampaignConfig::tiny();
        c.mtu = 100;
        assert_eq!(c.validate(), Err(ConfigError::MtuTooSmall { mtu: 100 }));

        let mut c = CampaignConfig::tiny();
        c.decode_workers = 0;
        assert_eq!(c.validate(), Err(ConfigError::NoDecodeWorkers));
    }
}
