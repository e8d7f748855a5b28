//! Bounded channels instrumented with depth, throughput, and
//! backpressure accounting.
//!
//! A [`metered_bounded`] channel behaves exactly like
//! `crossbeam::channel::bounded`, but maintains four metrics in the
//! owning [`crate::Registry`], named after the channel:
//!
//! * `chan.<name>.depth` (gauge) — messages currently queued;
//! * `chan.<name>.depth_hwm` (gauge) — high-water mark of the above;
//! * `chan.<name>.sent_total` (counter) — messages enqueued;
//! * `chan.<name>.stalls_total` / `chan.<name>.stall_ns_total`
//!   (counters) — how often and for how long senders blocked because
//!   the channel was full (backpressure).
//!
//! The fast path is a `try_send` plus three relaxed atomic updates; the
//! clock is read only when the channel is actually full, so an
//! uncontended instrumented channel costs a few nanoseconds over the
//! raw one, and a disabled registry reduces the updates to no-ops.
//!
//! Depth accounting is intentionally loose: the gauge is bumped after
//! the underlying send and decremented after the receive, so a
//! concurrent snapshot can transiently read a depth off by one per
//! in-flight message (including briefly negative). Health reporting
//! tolerates that; drained channels always settle back to zero.

use crate::{Counter, Gauge, Registry};
use crossbeam::channel::{self, RecvError, SendError, TrySendError};
use std::time::Instant;

/// Metric handles shared by all clones of one channel's sender side.
#[derive(Clone, Debug)]
struct ChannelStats {
    depth: Gauge,
    depth_hwm: Gauge,
    sent: Counter,
    stalls: Counter,
    stall_ns: Counter,
}

impl ChannelStats {
    fn new(registry: &Registry, name: &str) -> ChannelStats {
        ChannelStats {
            depth: registry.gauge(&format!("chan.{name}.depth")),
            depth_hwm: registry.gauge(&format!("chan.{name}.depth_hwm")),
            sent: registry.counter(&format!("chan.{name}.sent_total")),
            stalls: registry.counter(&format!("chan.{name}.stalls_total")),
            stall_ns: registry.counter(&format!("chan.{name}.stall_ns_total")),
        }
    }

    #[inline]
    fn on_send(&self) {
        self.sent.inc();
        let depth = self.depth.add(1);
        if depth > self.depth_hwm.get() {
            // Racy max, but the HWM only drifts low by at most the
            // number of concurrently racing senders — fine for health
            // reporting, and it keeps the fast path CAS-free.
            self.depth_hwm.set(depth);
        }
    }
}

/// The sending half of a metered channel. Cloneable; clones share the
/// channel's metrics.
pub struct MeteredSender<T> {
    inner: channel::Sender<T>,
    stats: ChannelStats,
}

// Manual impl: a derive would demand `T: Clone`, but only the handle is
// cloned, never a `T`.
impl<T> Clone for MeteredSender<T> {
    fn clone(&self) -> Self {
        MeteredSender {
            inner: self.inner.clone(),
            stats: self.stats.clone(),
        }
    }
}

impl<T> MeteredSender<T> {
    /// Sends, blocking while the channel is full; blocked time is
    /// charged to the channel's stall counters.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        match self.inner.try_send(value) {
            Ok(()) => {
                self.stats.on_send();
                Ok(())
            }
            Err(TrySendError::Disconnected(v)) => Err(SendError(v)),
            Err(TrySendError::Full(v)) => {
                self.stats.stalls.inc();
                let t = Instant::now();
                let result = self.inner.send(v);
                self.stats.stall_ns.add(t.elapsed().as_nanos() as u64);
                if result.is_ok() {
                    self.stats.on_send();
                }
                result
            }
        }
    }

    /// Non-blocking send with the same accounting.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let result = self.inner.try_send(value);
        match &result {
            Ok(()) => self.stats.on_send(),
            Err(TrySendError::Full(_)) => self.stats.stalls.inc(),
            Err(TrySendError::Disconnected(_)) => {}
        }
        result
    }
}

/// The receiving half of a metered channel.
pub struct MeteredReceiver<T> {
    inner: channel::Receiver<T>,
    depth: Gauge,
}

impl<T> MeteredReceiver<T> {
    /// Blocks for the next message.
    pub fn recv(&self) -> Result<T, RecvError> {
        let v = self.inner.recv()?;
        self.depth.add(-1);
        Ok(v)
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<T> {
        let v = self.inner.try_recv()?;
        self.depth.add(-1);
        Some(v)
    }

    /// Blocking iterator over messages until all senders disconnect.
    pub fn iter(&self) -> MeteredIter<'_, T> {
        MeteredIter { rx: self }
    }
}

impl<'a, T> IntoIterator for &'a MeteredReceiver<T> {
    type Item = T;
    type IntoIter = MeteredIter<'a, T>;
    fn into_iter(self) -> MeteredIter<'a, T> {
        self.iter()
    }
}

/// Blocking iterator over a [`MeteredReceiver`].
pub struct MeteredIter<'a, T> {
    rx: &'a MeteredReceiver<T>,
}

impl<T> Iterator for MeteredIter<'_, T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.rx.recv().ok()
    }
}

/// Creates a bounded channel of capacity `cap` whose depth, throughput,
/// and stalls are tracked in `registry` under `chan.<name>.*`.
pub fn metered_bounded<T>(
    cap: usize,
    registry: &Registry,
    name: &str,
) -> (MeteredSender<T>, MeteredReceiver<T>) {
    let (tx, rx) = channel::bounded(cap);
    let stats = ChannelStats::new(registry, name);
    let depth = stats.depth.clone();
    (
        MeteredSender { inner: tx, stats },
        MeteredReceiver { inner: rx, depth },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn depth_and_throughput_accounting() {
        let reg = Registry::new();
        let (tx, rx) = metered_bounded::<u32>(8, &reg, "test");
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("chan.test.depth"), 5);
        assert_eq!(snap.gauge("chan.test.depth_hwm"), 5);
        assert_eq!(snap.counter("chan.test.sent_total"), 5);
        assert_eq!(snap.counter("chan.test.stalls_total"), 0);

        assert_eq!(rx.recv().unwrap(), 0);
        assert_eq!(rx.try_recv(), Some(1));
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("chan.test.depth"), 3);
        assert_eq!(snap.gauge("chan.test.depth_hwm"), 5);
    }

    #[test]
    fn full_channel_records_stall() {
        let reg = Registry::new();
        let (tx, rx) = metered_bounded::<u32>(1, &reg, "full");
        tx.send(1).unwrap();
        let handle = std::thread::spawn(move || tx.send(2));
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(rx.recv().unwrap(), 1);
        handle.join().unwrap().unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("chan.full.stalls_total"), 1);
        assert!(snap.counter("chan.full.stall_ns_total") >= 10_000_000);
        assert_eq!(snap.counter("chan.full.sent_total"), 2);
    }

    #[test]
    fn iteration_drains_and_tracks_depth() {
        let reg = Registry::new();
        let (tx, rx) = metered_bounded::<u32>(16, &reg, "drain");
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let got: Vec<u32> = rx.iter().collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        assert_eq!(reg.snapshot().gauge("chan.drain.depth"), 0);
    }

    #[test]
    fn disabled_registry_still_transports() {
        let reg = Registry::disabled();
        let (tx, rx) = metered_bounded::<u32>(4, &reg, "off");
        tx.send(7).unwrap();
        assert_eq!(rx.recv().unwrap(), 7);
        assert_eq!(reg.snapshot(), crate::Snapshot::default());
    }
}
