//! Capture-machine telemetry: a lock-free metrics registry, instrumented
//! channels, and virtual-time health snapshots.
//!
//! The paper's capture setup ran unattended for ten weeks on a single
//! machine next to the eDonkey server; knowing whether that machine is
//! keeping up (ring occupancy, decode backlog, anonymiser service time)
//! is as important as the measurement itself. This crate provides the
//! observability layer for the reproduction's pipeline:
//!
//! * [`Registry`] — named [`Counter`]s, [`Gauge`]s, and log₂-bucketed
//!   [`Histogram`]s. Handles are `Arc`-backed and update with relaxed
//!   atomics, so worker threads clone them once and touch no locks on
//!   the hot path. A disabled registry hands out no-op handles whose
//!   updates compile to a null-pointer check.
//! * [`channel`] — bounded crossbeam channels wrapped with depth,
//!   throughput, and backpressure-stall accounting.
//! * [`health`] — a virtual-time-driven snapshotter that cuts periodic
//!   [`health::HealthRecord`]s (virtual time, wall time, real-time
//!   factor, full metric snapshot) from the registry.
//! * [`Snapshot::render_prometheus`] — text exposition of a snapshot in
//!   the Prometheus format, for scraping or offline diffing.
//! * [`prom`] — the inverse: a parser for the text exposition format,
//!   so tests can prove the rendering (and the `/metrics` endpoint)
//!   round-trips instead of string-matching a few lines.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub mod channel;
pub mod health;
pub mod prom;

/// Number of log₂ buckets in a [`Histogram`]: one per possible
/// `bit_length(value)` for a `u64`, plus one for zero.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing event count.
///
/// Cloning is cheap (an `Arc` clone); clones share the underlying cell.
/// A counter from a disabled registry holds `None` and every operation
/// is a no-op.
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A detached no-op counter (what a disabled registry hands out).
    pub fn noop() -> Counter {
        Counter(None)
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            // ordering: relaxed — independent event count; snapshot
            // readers tolerate staleness and nothing is published via
            // this cell.
            cell.fetch_add(n, Relaxed);
        }
    }

    /// Current value (0 for a no-op counter).
    pub fn get(&self) -> u64 {
        // ordering: relaxed — monotone advisory read, no cross-variable
        // ordering required.
        self.0.as_ref().map_or(0, |c| c.load(Relaxed))
    }

    /// Whether updates actually land anywhere. Lets callers skip work
    /// that exists only to feed the metric (e.g. clock reads).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }
}

/// An instantaneous signed level (queue depth, occupancy).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Option<Arc<AtomicI64>>);

impl Gauge {
    /// A detached no-op gauge.
    pub fn noop() -> Gauge {
        Gauge(None)
    }

    /// Sets the level.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(cell) = &self.0 {
            // ordering: relaxed — last-writer-wins level; readers only
            // ever sample it, never synchronise through it.
            cell.store(v, Relaxed);
        }
    }

    /// Adjusts the level by `delta` and returns the new value, or 0 if
    /// disabled.
    #[inline]
    pub fn add(&self, delta: i64) -> i64 {
        match &self.0 {
            // ordering: relaxed — the RMW is atomic on its own cell,
            // which is all depth accounting needs.
            Some(cell) => cell.fetch_add(delta, Relaxed) + delta,
            None => 0,
        }
    }

    /// Current level (0 for a no-op gauge).
    pub fn get(&self) -> i64 {
        // ordering: relaxed — advisory sample of the level.
        self.0.as_ref().map_or(0, |c| c.load(Relaxed))
    }

    /// Whether updates actually land anywhere.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl HistogramCore {
    fn new() -> HistogramCore {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// Index of the log₂ bucket covering `v`: bucket `i` holds values whose
/// bit length is `i`, i.e. `[2^(i-1), 2^i)`; bucket 0 holds only zero.
#[inline]
fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// A log₂-scaled histogram of `u64` samples (latencies in nanoseconds,
/// occupancies, depths). Relaxed atomics throughout; buckets double in
/// width, which is plenty to spot a service-time distribution shifting
/// by an order of magnitude.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    /// A detached no-op histogram.
    pub fn noop() -> Histogram {
        Histogram(None)
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(core) = &self.0 {
            // ordering: relaxed — each cell is independently atomic; a
            // concurrent snapshot may see (count, sum) torn relative to
            // each other, which telemetry accepts by design.
            core.buckets[bucket_index(v)].fetch_add(1, Relaxed);
            core.count.fetch_add(1, Relaxed); // ordering: relaxed, as above
            core.sum.fetch_add(v, Relaxed); // ordering: relaxed, as above
            core.min.fetch_min(v, Relaxed); // ordering: relaxed, as above
            core.max.fetch_max(v, Relaxed); // ordering: relaxed, as above
        }
    }

    /// Whether samples actually land anywhere. Callers use this to skip
    /// the `Instant::now()` pair that would feed a latency histogram.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// `Some(Instant::now())` when enabled: the start of a measurement
    /// that reads the clock only when a sample would land.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        if self.0.is_some() {
            Some(Instant::now())
        } else {
            None
        }
    }

    fn snapshot(&self) -> HistogramSnapshot {
        match &self.0 {
            None => HistogramSnapshot::default(),
            Some(core) => {
                // ordering: relaxed — snapshot reads are advisory and
                // may be mutually torn under concurrent writers; totals
                // are exact once writers quiesce.
                let count = core.count.load(Relaxed);
                HistogramSnapshot {
                    count,
                    sum: core.sum.load(Relaxed), // ordering: relaxed, as above
                    min: if count == 0 {
                        0
                    } else {
                        core.min.load(Relaxed) // ordering: relaxed, as above
                    },
                    max: core.max.load(Relaxed), // ordering: relaxed, as above
                    // ordering: relaxed, as above
                    buckets: core.buckets.iter().map(|b| b.load(Relaxed)).collect(),
                }
            }
        }
    }
}

/// A point-in-time copy of one histogram.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Per-bucket sample counts; bucket `i` covers values of bit length
    /// `i` (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Arithmetic mean of the samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0 ≤ q ≤ 1`) from the buckets,
    /// returning the upper bound of the bucket containing it. Exact min
    /// and max are available directly.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank.max(1) {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }
}

/// Inclusive upper bound of bucket `i`: `2^i - 1` (zero for bucket 0).
fn bucket_upper_bound(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

#[derive(Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug, Default)]
struct RegistryCore {
    // Registration is rare (once per metric per pipeline run); updates
    // never touch this lock — they go straight to the Arc'd cells.
    metrics: Mutex<BTreeMap<String, Metric>>,
}

/// A named collection of metrics.
///
/// `Registry` is a cheap cloneable handle. [`Registry::disabled`]
/// produces a registry whose metric handles are all no-ops, so
/// instrumented code pays one branch per update and nothing else when
/// telemetry is off.
#[derive(Clone, Debug, Default)]
pub struct Registry(Option<Arc<RegistryCore>>);

impl Registry {
    /// An enabled, empty registry.
    pub fn new() -> Registry {
        Registry(Some(Arc::new(RegistryCore::default())))
    }

    /// A registry that hands out no-op metric handles.
    pub fn disabled() -> Registry {
        Registry(None)
    }

    /// Whether metric handles from this registry record anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Returns the counter named `name`, creating it on first use.
    /// Panics if the name is already registered as a different kind.
    pub fn counter(&self, name: &str) -> Counter {
        let Some(core) = &self.0 else {
            return Counter::noop();
        };
        let mut metrics = core.metrics.lock().unwrap();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter(Some(Arc::new(AtomicU64::new(0))))))
        {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric {name:?} already registered as {other:?}, wanted counter"),
        }
    }

    /// Returns the gauge named `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let Some(core) = &self.0 else {
            return Gauge::noop();
        };
        let mut metrics = core.metrics.lock().unwrap();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge(Some(Arc::new(AtomicI64::new(0))))))
        {
            Metric::Gauge(g) => g.clone(),
            other => panic!("metric {name:?} already registered as {other:?}, wanted gauge"),
        }
    }

    /// Returns the histogram named `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let Some(core) = &self.0 else {
            return Histogram::noop();
        };
        let mut metrics = core.metrics.lock().unwrap();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram(Some(Arc::new(HistogramCore::new())))))
        {
            Metric::Histogram(h) => h.clone(),
            other => panic!("metric {name:?} already registered as {other:?}, wanted histogram"),
        }
    }

    /// Copies every metric's current value. Returns an empty snapshot
    /// for a disabled registry.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        let Some(core) = &self.0 else {
            return snap;
        };
        let metrics = core.metrics.lock().unwrap();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => {
                    snap.counters.insert(name.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.get());
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        snap
    }
}

/// A point-in-time copy of a whole [`Registry`], ordered by name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Counter value, or 0 when absent (mirrors a no-op counter).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge level, or 0 when absent.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Histogram state, when present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Difference of this snapshot's counter against an earlier
    /// snapshot's (saturating at zero, in case a metric appeared late).
    pub fn counter_delta(&self, earlier: &Snapshot, name: &str) -> u64 {
        self.counter(name).saturating_sub(earlier.counter(name))
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    /// Metric names are sanitised to `[a-zA-Z0-9_]` and prefixed with
    /// `etw_`; histograms emit cumulative `_bucket{le="..."}` series
    /// plus `_sum` and `_count`.
    // etwlint: sink(telemetry): text is scraped by external collectors
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} counter");
            let _ = writeln!(out, "{n} {value}");
        }
        for (name, value) in &self.gauges {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} gauge");
            let _ = writeln!(out, "{n} {value}");
        }
        for (name, h) in &self.histograms {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} histogram");
            let mut cumulative = 0u64;
            for (i, &count) in h.buckets.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                cumulative += count;
                let _ = writeln!(
                    out,
                    "{n}_bucket{{le=\"{}\"}} {cumulative}",
                    bucket_upper_bound(i)
                );
            }
            let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{n}_sum {}", h.sum);
            let _ = writeln!(out, "{n}_count {}", h.count);
        }
        out
    }
}

fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("etw_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() || c == '_' {
            c
        } else {
            '_'
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_is_inert() {
        let reg = Registry::disabled();
        let c = reg.counter("x");
        let g = reg.gauge("y");
        let h = reg.histogram("z");
        c.add(5);
        g.set(3);
        h.record(100);
        assert!(!c.is_enabled());
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert!(h.start().is_none());
        assert_eq!(reg.snapshot(), Snapshot::default());
    }

    #[test]
    fn handles_share_cells_across_clones_and_lookups() {
        let reg = Registry::new();
        let a = reg.counter("frames");
        let b = reg.counter("frames");
        let c = a.clone();
        a.inc();
        b.add(2);
        c.add(3);
        assert_eq!(reg.counter("frames").get(), 6);
        assert_eq!(reg.snapshot().counter("frames"), 6);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);

        let reg = Registry::new();
        let h = reg.histogram("lat");
        for v in [0u64, 1, 3, 4, 1000, 1024] {
            h.record(v);
        }
        let snap = reg.snapshot();
        let hs = snap.histogram("lat").unwrap();
        assert_eq!(hs.count, 6);
        assert_eq!(hs.sum, 2032);
        assert_eq!(hs.min, 0);
        assert_eq!(hs.max, 1024);
        assert_eq!(hs.buckets[0], 1); // 0
        assert_eq!(hs.buckets[1], 1); // 1
        assert_eq!(hs.buckets[2], 1); // 3
        assert_eq!(hs.buckets[3], 1); // 4
        assert_eq!(hs.buckets[10], 1); // 1000
        assert_eq!(hs.buckets[11], 1); // 1024
        assert!((hs.mean() - 2032.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_estimates_from_buckets() {
        let reg = Registry::new();
        let h = reg.histogram("q");
        for _ in 0..90 {
            h.record(10); // bucket 4, upper bound 15
        }
        for _ in 0..10 {
            h.record(1000); // bucket 10, upper bound 1023
        }
        let snap = reg.snapshot();
        let hs = snap.histogram("q").unwrap();
        assert_eq!(hs.quantile(0.5), 15);
        assert_eq!(hs.quantile(0.99), 1000); // capped at observed max
        assert_eq!(hs.quantile(0.0), 15);
    }

    #[test]
    fn counter_delta_between_snapshots() {
        let reg = Registry::new();
        let c = reg.counter("n");
        c.add(10);
        let early = reg.snapshot();
        c.add(7);
        let late = reg.snapshot();
        assert_eq!(late.counter_delta(&early, "n"), 7);
        assert_eq!(late.counter_delta(&early, "missing"), 0);
    }

    #[test]
    fn prometheus_rendering_shape() {
        let reg = Registry::new();
        reg.counter("frames_total").add(3);
        reg.gauge("chan.depth").set(-2);
        let h = reg.histogram("svc_ns");
        h.record(5);
        h.record(700);
        let text = reg.snapshot().render_prometheus();
        assert!(text.contains("# TYPE etw_frames_total counter"));
        assert!(text.contains("etw_frames_total 3"));
        assert!(text.contains("etw_chan_depth -2"));
        assert!(text.contains("etw_svc_ns_bucket{le=\"7\"} 1"));
        assert!(text.contains("etw_svc_ns_bucket{le=\"1023\"} 2"));
        assert!(text.contains("etw_svc_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("etw_svc_ns_sum 705"));
        assert!(text.contains("etw_svc_ns_count 2"));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflicts_panic() {
        let reg = Registry::new();
        reg.counter("dual");
        reg.gauge("dual");
    }
}
