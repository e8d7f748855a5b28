//! The timed run: world set-up repetitions, then whole campaigns repeated
//! for the run's time budget, each one checked.

use crate::adapter::{self, Outcome, Shape};
use crate::check::check;
use crate::sys::{peak_rss_mb, process_cpu, reset_peak_rss, thread_cpu};
use crate::workloads::Workload;
use etw_anonymize::fileid::BucketedArrays;
use etw_anonymize::DirectArrayAnonymizer;
use etw_core::source::TokenTable;
use etw_core::{CampaignConfig, Checkpoint};
use etw_workload::catalog::Catalog;
use etw_workload::clients::Population;
use etw_workload::session::SourceBlobs;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Wall time of one world construction, split by layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Catalog, population, source blobs and token table.
    pub workload: Duration,
    /// The clientID direct array and the fileID bucket store.
    pub anonymize: Duration,
}

/// Builds the world a campaign of `config` builds before its first
/// frame, with the same public constructors, and times it.
pub fn build_world(config: &CampaignConfig) -> SetupTimes {
    let t = Instant::now();
    let catalog = black_box(Catalog::generate(&config.catalog, config.seed ^ 1));
    let population = black_box(Population::generate(&config.population, config.seed ^ 2));
    let blobs = black_box(SourceBlobs::build(&catalog));
    let tokens = black_box(TokenTable::build(&catalog));
    let workload = t.elapsed();
    let t = Instant::now();
    let clients = black_box(DirectArrayAnonymizer::new(config.client_space_bits));
    let files = black_box(BucketedArrays::new(config.fileid_selector));
    let anonymize = t.elapsed();
    drop((catalog, population, blobs, tokens, clients, files));
    SetupTimes {
        workload,
        anonymize,
    }
}

/// World constructions per run; the run reports their median.
pub const SETUP_REPS: usize = 11;

/// Median set-up times over [`SETUP_REPS`] constructions.
pub fn setup(config: &CampaignConfig) -> SetupTimes {
    let runs: Vec<SetupTimes> = (0..SETUP_REPS).map(|_| build_world(config)).collect();
    let med = |f: fn(&SetupTimes) -> Duration| {
        let mut v: Vec<Duration> = runs.iter().map(f).collect();
        v.sort();
        v[v.len() / 2]
    };
    SetupTimes {
        workload: med(|s| s.workload),
        anonymize: med(|s| s.anonymize),
    }
}

/// What the checkpoint callback did over one campaign.
#[derive(Clone, Debug, Default)]
pub struct CutLog {
    /// Checkpoints cut.
    pub cuts: u64,
    /// Encoded sidecar bytes, summed over cuts (traced runs only).
    pub bytes: u64,
    /// Wall time in `Checkpoint::encode` (traced runs only).
    pub encode: Duration,
    /// Wall time in `Checkpoint::write_atomic`, which encodes again and
    /// writes (traced runs only).
    pub persist: Duration,
    /// Thread CPU time of both calls (traced runs only).
    pub cpu: Duration,
    /// The first persist failure, if any.
    pub error: Option<String>,
}

impl CutLog {
    /// Persists `cp` to `path` as an operator would. When `traced`, the
    /// encode is also timed on its own.
    pub fn persist(&mut self, cp: &Checkpoint, path: &Path, traced: bool) {
        self.cuts += 1;
        let c0 = traced.then(thread_cpu);
        if traced {
            let t = Instant::now();
            self.bytes += black_box(cp.encode()).len() as u64;
            self.encode += t.elapsed();
        }
        let t = Instant::now();
        if let Err(e) = cp.write_atomic(path) {
            self.error.get_or_insert(e.to_string());
        }
        if let Some(c0) = c0 {
            self.persist += t.elapsed();
            self.cpu += thread_cpu() - c0;
        }
    }
}

/// One timed campaign.
#[derive(Clone, Debug)]
pub struct Rep {
    /// Campaign seed.
    pub seed: u64,
    /// Wall time of the campaign call.
    pub wall: Duration,
    /// Process CPU time (user + system) across the campaign call.
    pub cpu: Duration,
    /// Peak resident memory during the campaign call, in MiB.
    pub peak_rss_mb: f64,
    /// What the campaign produced.
    pub outcome: Outcome,
    /// Checkpoint work.
    pub cuts: CutLog,
    /// The output check's verdict.
    pub check: Result<(), String>,
}

impl Rep {
    /// Dataset records per wall second.
    pub fn records_per_s(&self) -> f64 {
        self.outcome.records as f64 / self.wall.as_secs_f64()
    }

    /// Process CPU nanoseconds per dataset record.
    pub fn cpu_ns_per_record(&self) -> f64 {
        self.cpu.as_nanos() as f64 / self.outcome.records.max(1) as f64
    }

    /// Frames neither lost in the capture ring nor shed by the pipeline,
    /// per mille of the frames offered.
    pub fn frames_kept_permille(&self) -> f64 {
        let o = &self.outcome;
        1000.0 - 1000.0 * (o.lost + o.shed) as f64 / o.offered.max(1) as f64
    }
}

/// Runs one campaign of `shape` under `seed`, persisting checkpoints to
/// `cut_path`, and checks it against `expected_digest`.
pub fn campaign(
    shape: &Shape,
    seed: u64,
    cut_path: &Path,
    traced: bool,
    expected_digest: Option<u64>,
) -> Rep {
    let mut cuts = CutLog::default();
    reset_peak_rss();
    let cpu0 = process_cpu();
    let t0 = Instant::now();
    let result = adapter::run(shape, seed, |cp| cuts.persist(&cp, cut_path, traced));
    let wall = t0.elapsed();
    let cpu = process_cpu() - cpu0;
    let peak_rss_mb = peak_rss_mb();
    let (outcome, check) = match result {
        Ok(o) => {
            let verdict = match &cuts.error {
                Some(e) => Err(format!("checkpoint persist failed: {e}")),
                None => check(&o, expected_digest),
            };
            (o, verdict)
        }
        Err(e) => (Outcome::default(), Err(format!("campaign failed: {e}"))),
    };
    Rep {
        seed,
        wall,
        cpu,
        peak_rss_mb,
        outcome,
        cuts,
        check,
    }
}

/// Campaign seeds one timed run draws from its workload seed. The
/// record count of a 2k-client population varies by a third between
/// seeds while checkpoint work hardly does, so on `durable-2k` the
/// per-record figures of a single population depend on the seed more
/// than on the code; a run covers more than one population instead.
pub const SUB_SEEDS: u64 = 2;

/// The `j`-th campaign seed of workload seed `seed`; the first is the
/// workload seed itself.
fn sub_seed(seed: u64, j: u64) -> u64 {
    seed.wrapping_add(j.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Campaigns always run per timed run, however short the budget: each
/// campaign seed once, and the first twice, so that the digest check
/// always compares two datasets of one seed.
pub const MIN_REPS: usize = SUB_SEEDS as usize + 1;

/// Runs one campaign of `w` at a tenth of its size, so that thread
/// start-up, allocator arenas and code pages are warm before timing.
pub fn warm_up(w: &Workload, seed: u64, cut_path: &Path) {
    black_box(campaign(&w.shrunk(10).shape, seed, cut_path, false, None));
}

/// Repeats campaigns, cycling through the [`SUB_SEEDS`] campaign seeds:
/// at least [`MIN_REPS`], then more while the next one is expected to
/// end within `budget`. Every campaign must reproduce the dataset digest
/// of the first campaign of its seed.
pub fn repeat(shape: &Shape, seed: u64, budget: Duration, cut_path: &Path) -> Vec<Rep> {
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let fits = |reps: &[Rep]| {
        let mean = reps.iter().map(|r| r.wall).sum::<Duration>() / reps.len().max(1) as u32;
        start.elapsed() + mean <= budget
    };
    while reps.len() < MIN_REPS || fits(&reps) {
        let s = sub_seed(seed, reps.len() as u64 % SUB_SEEDS);
        let expected = reps
            .iter()
            .find(|r| r.seed == s && r.check.is_ok())
            .map(|r| r.outcome.digest);
        reps.push(campaign(shape, s, cut_path, false, expected));
    }
    reps
}

/// `metric` over `reps`: each campaign seed's best campaign (the largest
/// value when higher is better, else the smallest), averaged over the
/// seeds. Interference from other tenants of a shared host only ever
/// slows a campaign down, and it comes in bursts longer than one
/// campaign, so a seed's best campaign is a steadier estimate of the
/// code's cost than the median of the few a run has time for.
pub fn seed_mean_of_best(reps: &[Rep], metric: fn(&Rep) -> f64, higher_is_better: bool) -> f64 {
    let mut seeds: Vec<u64> = reps.iter().map(|r| r.seed).collect();
    seeds.sort_unstable();
    seeds.dedup();
    let best = |s: u64| {
        let values = reps.iter().filter(|r| r.seed == s).map(metric);
        if higher_is_better {
            values.fold(f64::NEG_INFINITY, f64::max)
        } else {
            values.fold(f64::INFINITY, f64::min)
        }
    };
    seeds.iter().map(|&s| best(s)).sum::<f64>() / seeds.len() as f64
}
