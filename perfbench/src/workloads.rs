//! The named workloads. Each is a [`Shape`]; the seed comes from the
//! command line, so the same name and seed always give the same inputs.

use crate::adapter::Shape;

/// One named workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists: which layers it stresses.
    pub why: &'static str,
    /// Population, id space, campaign length and mode.
    pub shape: Shape,
}

/// Every workload, in `BENCHMARK.json` order.
pub const ALL: [Workload; 3] = [
    Workload {
        name: "steady-2k",
        why: "2k clients, 2^20 ids, clean link: steady per-record decode/anonymise/format/write cost with the id array in cache",
        shape: Shape {
            clients: 2_000,
            id_bits: 20,
            duration_secs: 6 * 3_600,
            durable: false,
        },
    },
    Workload {
        name: "wide-20k",
        why: "20k clients, 2^24 ids, clean link: population-bound cost in the source and in anonymise (64 MB array, Fig. 3 buckets)",
        shape: Shape {
            clients: 20_000,
            id_bits: 24,
            duration_secs: 300,
            durable: false,
        },
    },
    Workload {
        name: "durable-2k",
        why: "steady-2k plus link faults, overload, worker crashes and a full checkpoint persisted every 1800 virtual s: the operator's setup",
        shape: Shape {
            clients: 2_000,
            id_bits: 20,
            duration_secs: 6 * 3_600,
            durable: true,
        },
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    ALL.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The same workload shrunk by `factor` in clients and virtual time
    /// (id space and mode unchanged), for seconds-long test runs.
    pub fn shrunk(mut self, factor: u64) -> Workload {
        self.shape.clients = (self.shape.clients / factor as usize).max(50);
        self.shape.duration_secs = (self.shape.duration_secs / factor).max(60);
        self
    }
}
