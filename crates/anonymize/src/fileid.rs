//! fileID anonymisation by order of appearance (paper §2.4, Fig. 3).
//!
//! fileIDs are 128-bit MD4 digests, so the clientID direct-array trick is
//! impossible. The paper's solution: exploit MD4 uniformity by splitting
//! one huge sorted array into 65 536 small sorted arrays indexed by two
//! bytes of the fileID; each bucket stays short (≈1 500 entries at their
//! 88 M-fileID scale), so sorted insertion stays affordable and lookup is
//! a binary search.
//!
//! The paper's twist — and their Fig. 3 — is that indexing by the *first*
//! two bytes fails in practice: forged (polluted) fileIDs concentrate in
//! buckets 0 and 256, which balloon and "strongly hamper" the
//! computation. Choosing two *other* bytes restores near-uniformity.
//! [`ByteSelector`] makes the choice explicit, and
//! [`BucketedArrays::bucket_sizes`] exposes the distribution Fig. 3
//! plots.
//!
//! Baselines for ablation A2: [`SingleSortedArray`] (the "prohibitive
//! insertion" strawman the paper dismisses) and [`HashMapFileAnonymizer`]
//! (the classical structure).

use etw_edonkey::ids::FileId;
use std::collections::HashMap;

/// Order-of-appearance encoder for fileIDs.
pub trait FileIdAnonymizer {
    /// Returns the anonymised value for `id`, assigning the next integer
    /// on first sight.
    fn anonymize(&mut self, id: &FileId) -> u64;

    /// Number of distinct fileIDs seen so far. The paper makes a point of
    /// how non-trivial this count is at scale ("like for instance
    /// counting the number of distinct fileID observed"); with
    /// order-of-appearance encoding it falls out for free.
    fn distinct(&self) -> u64;

    /// Looks up without inserting.
    fn lookup(&self, id: &FileId) -> Option<u64>;

    /// Implementation name for reports.
    fn name(&self) -> &'static str;
}

/// Which two bytes of the 16-byte fileID index the 65 536 buckets.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ByteSelector {
    /// Byte supplying the high 8 bits of the bucket index.
    pub hi: usize,
    /// Byte supplying the low 8 bits.
    pub lo: usize,
}

impl ByteSelector {
    /// The paper's first attempt: index by the first two bytes. Under
    /// pollution this is the pathological choice of Fig. 3 (left).
    pub const FIRST_TWO: ByteSelector = ByteSelector { hi: 1, lo: 0 };

    /// The paper's fix: "selecting two different bytes in the fileID".
    /// Forged IDs only fix their first bytes, so any interior pair works;
    /// we pick bytes 5 and 9.
    pub const ALTERNATIVE: ByteSelector = ByteSelector { hi: 9, lo: 5 };

    /// Builds a selector, checking byte positions.
    pub fn new(hi: usize, lo: usize) -> Self {
        assert!(hi < 16 && lo < 16 && hi != lo, "invalid byte selector");
        ByteSelector { hi, lo }
    }

    /// Bucket index of `id` under this selector.
    #[inline]
    pub fn index(&self, id: &FileId) -> usize {
        ((id.byte(self.hi) as usize) << 8) | id.byte(self.lo) as usize
    }
}

/// Number of buckets (two index bytes).
pub const NUM_BUCKETS: usize = 1 << 16;

/// Running work counters for a [`BucketedArrays`] store: how deep its
/// binary searches probe and how much sorted insertion shifts. This is
/// the per-operation cost Fig. 3 is about — under a bad selector the
/// oversized buckets show up here as growing probe depths and shift
/// distances long before wall-clock time degrades visibly.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct ProbeStats {
    /// Encode operations performed (`anonymize` calls).
    pub probes: u64,
    /// Total binary-search comparisons across all probes.
    pub comparisons: u64,
    /// Deepest single probe, in comparisons.
    pub max_probe_depth: u64,
    /// First-sight insertions.
    pub inserts: u64,
    /// Total elements shifted right by sorted insertions.
    pub shifted: u64,
    /// Largest single insertion shift.
    pub max_shift: u64,
}

impl ProbeStats {
    /// Folds in the work of another store over a disjoint set of
    /// buckets (a shard's): totals add, maxima take the larger.
    pub fn merge(&mut self, other: &ProbeStats) {
        self.probes += other.probes;
        self.comparisons += other.comparisons;
        self.max_probe_depth = self.max_probe_depth.max(other.max_probe_depth);
        self.inserts += other.inserts;
        self.shifted += other.shifted;
        self.max_shift = self.max_shift.max(other.max_shift);
    }
}

/// The paper's structure: 65 536 sorted arrays of `(fileID, value)`.
pub struct BucketedArrays {
    selector: ByteSelector,
    buckets: Vec<Vec<(FileId, u64)>>,
    next: u64,
    probe_stats: ProbeStats,
}

impl BucketedArrays {
    /// Creates an empty store indexed by `selector`.
    pub fn new(selector: ByteSelector) -> Self {
        BucketedArrays {
            selector,
            buckets: vec![Vec::new(); NUM_BUCKETS],
            next: 0,
            probe_stats: ProbeStats::default(),
        }
    }

    /// Accumulated probe/insertion work counters.
    pub fn probe_stats(&self) -> ProbeStats {
        self.probe_stats
    }

    /// The selector in use.
    pub fn selector(&self) -> ByteSelector {
        self.selector
    }

    /// Sizes of all 65 536 buckets — the data behind Fig. 3.
    pub fn bucket_sizes(&self) -> Vec<usize> {
        self.buckets.iter().map(Vec::len).collect()
    }

    /// Sizes the 65 536 buckets would have if this store's fileIDs were
    /// indexed by `selector` instead: one pass over the distinct ids,
    /// counted inside the store so no raw id leaves it. Fig. 3 derives
    /// its FIRST_TWO panel this way at campaign end, instead of keeping
    /// a second store live for the whole capture.
    pub fn bucket_sizes_by(&self, selector: ByteSelector) -> Vec<usize> {
        let mut sizes = vec![0; NUM_BUCKETS];
        for (id, _) in self.buckets.iter().flatten() {
            sizes[selector.index(id)] += 1;
        }
        sizes
    }

    /// Largest bucket (paper quotes "our max array size: 819" after one
    /// week with the alternative selector, vs 24 024 in bucket 0 with the
    /// first-two-bytes selector).
    pub fn max_bucket_size(&self) -> usize {
        self.buckets.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Mean bucket size.
    pub fn mean_bucket_size(&self) -> f64 {
        self.next as f64 / NUM_BUCKETS as f64
    }

    /// fileIDs in order of first appearance — the checkpointable state
    /// of the store. Replaying them through
    /// [`FileIdAnonymizer::anonymize`] rebuilds identical buckets, which
    /// is what [`BucketedArrays::from_order`] does on campaign resume.
    // etwlint: source(raw-id): returns the raw fileID store for checkpointing
    pub fn appearance_order(&self) -> Vec<FileId> {
        let mut entries: Vec<(u64, FileId)> = self
            .buckets
            .iter()
            .flatten()
            .map(|&(id, v)| (v, id))
            .collect();
        entries.sort_unstable_by_key(|&(v, _)| v);
        entries.into_iter().map(|(_, id)| id).collect()
    }

    /// Rebuilds a store from a checkpointed appearance order. Probe
    /// statistics restart from zero: they describe work done by *this*
    /// process, not by the campaign as a whole.
    // etwlint: sanitize(raw-id): raw checkpoint ids are replayed into the private buckets
    pub fn from_order(selector: ByteSelector, order: &[FileId]) -> Self {
        let mut b = BucketedArrays::new(selector);
        for id in order {
            b.anonymize(id);
        }
        b.reset_probe_stats();
        b
    }

    /// Zeroes the probe ledger, so that after a checkpoint replay it
    /// counts only the work of the process that resumed.
    pub(crate) fn reset_probe_stats(&mut self) {
        self.probe_stats = ProbeStats::default();
    }
}

impl FileIdAnonymizer for BucketedArrays {
    // etwlint: sanitize(raw-id): raw id becomes its appearance-order index
    fn anonymize(&mut self, id: &FileId) -> u64 {
        let bucket = &mut self.buckets[self.selector.index(id)];
        let mut depth = 0u64;
        let found = bucket.binary_search_by(|(k, _)| {
            depth += 1;
            k.cmp(id)
        });
        self.probe_stats.probes += 1;
        self.probe_stats.comparisons += depth;
        self.probe_stats.max_probe_depth = self.probe_stats.max_probe_depth.max(depth);
        match found {
            Ok(pos) => bucket[pos].1,
            Err(pos) => {
                let v = self.next;
                self.next += 1;
                // Sorted insertion: the cost the bucket splitting keeps
                // small, and the cost that explodes in Fig. 3's oversized
                // buckets. The shift distance is that cost, element by
                // element.
                let shift = (bucket.len() - pos) as u64;
                self.probe_stats.inserts += 1;
                self.probe_stats.shifted += shift;
                self.probe_stats.max_shift = self.probe_stats.max_shift.max(shift);
                bucket.insert(pos, (*id, v));
                v
            }
        }
    }

    fn distinct(&self) -> u64 {
        self.next
    }

    fn lookup(&self, id: &FileId) -> Option<u64> {
        let bucket = &self.buckets[self.selector.index(id)];
        bucket
            .binary_search_by(|(k, _)| k.cmp(id))
            .ok()
            .map(|pos| bucket[pos].1)
    }

    fn name(&self) -> &'static str {
        "bucketed_arrays"
    }
}

/// Strawman baseline: a single sorted array. Lookup is a fast dichotomic
/// search, but "insertion has a prohibitive cost, due to the
/// reorganisation it implies to keep the array sorted" (paper §2.4).
#[derive(Default)]
pub struct SingleSortedArray {
    entries: Vec<(FileId, u64)>,
}

impl SingleSortedArray {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl FileIdAnonymizer for SingleSortedArray {
    // etwlint: sanitize(raw-id): raw id becomes its appearance-order index
    fn anonymize(&mut self, id: &FileId) -> u64 {
        match self.entries.binary_search_by(|(k, _)| k.cmp(id)) {
            Ok(pos) => self.entries[pos].1,
            Err(pos) => {
                let v = self.entries.len() as u64;
                self.entries.insert(pos, (*id, v));
                v
            }
        }
    }

    fn distinct(&self) -> u64 {
        self.entries.len() as u64
    }

    fn lookup(&self, id: &FileId) -> Option<u64> {
        self.entries
            .binary_search_by(|(k, _)| k.cmp(id))
            .ok()
            .map(|pos| self.entries[pos].1)
    }

    fn name(&self) -> &'static str {
        "single_sorted_array"
    }
}

/// Classical baseline: a hash map keyed by the 128-bit fileID.
#[derive(Default)]
pub struct HashMapFileAnonymizer {
    map: HashMap<FileId, u64>,
}

impl HashMapFileAnonymizer {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl FileIdAnonymizer for HashMapFileAnonymizer {
    // etwlint: sanitize(raw-id): raw id becomes its appearance-order index
    fn anonymize(&mut self, id: &FileId) -> u64 {
        let next = self.map.len() as u64;
        *self.map.entry(*id).or_insert(next)
    }

    fn distinct(&self) -> u64 {
        self.map.len() as u64
    }

    fn lookup(&self, id: &FileId) -> Option<u64> {
        self.map.get(id).copied()
    }

    fn name(&self) -> &'static str {
        "hashmap"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn impls() -> Vec<Box<dyn FileIdAnonymizer>> {
        vec![
            Box::new(BucketedArrays::new(ByteSelector::ALTERNATIVE)),
            Box::new(SingleSortedArray::new()),
            Box::new(HashMapFileAnonymizer::new()),
        ]
    }

    #[test]
    fn order_of_appearance() {
        for mut a in impls() {
            let x = FileId([1; 16]);
            let y = FileId([2; 16]);
            assert_eq!(a.anonymize(&x), 0, "{}", a.name());
            assert_eq!(a.anonymize(&y), 1);
            assert_eq!(a.anonymize(&x), 0);
            assert_eq!(a.distinct(), 2);
            assert_eq!(a.lookup(&y), Some(1));
            assert_eq!(a.lookup(&FileId([3; 16])), None);
        }
    }

    #[test]
    fn implementations_agree_differentially() {
        let mut rng = StdRng::seed_from_u64(4);
        let ids: Vec<FileId> = (0..3000)
            .map(|_| FileId::of_identity(rng.gen_range(0..800)))
            .collect();
        let mut oracle = HashMapFileAnonymizer::new();
        let mut bucketed = BucketedArrays::new(ByteSelector::ALTERNATIVE);
        let mut bucketed_first = BucketedArrays::new(ByteSelector::FIRST_TWO);
        let mut single = SingleSortedArray::new();
        for id in &ids {
            let want = oracle.anonymize(id);
            assert_eq!(bucketed.anonymize(id), want);
            assert_eq!(bucketed_first.anonymize(id), want);
            assert_eq!(single.anonymize(id), want);
        }
        assert_eq!(bucketed.distinct(), oracle.distinct());
    }

    #[test]
    fn byte_selector_index() {
        let mut bytes = [0u8; 16];
        bytes[0] = 0xcd;
        bytes[1] = 0xab;
        let id = FileId(bytes);
        assert_eq!(ByteSelector::FIRST_TWO.index(&id), 0xabcd);
        let sel = ByteSelector::new(3, 2);
        bytes[2] = 0x34;
        bytes[3] = 0x12;
        assert_eq!(sel.index(&FileId(bytes)), 0x1234);
    }

    #[test]
    #[should_panic(expected = "invalid byte selector")]
    fn selector_rejects_equal_bytes() {
        let _ = ByteSelector::new(3, 3);
    }

    #[test]
    fn legitimate_ids_spread_across_buckets() {
        let mut b = BucketedArrays::new(ByteSelector::FIRST_TWO);
        for i in 0..20_000u64 {
            b.anonymize(&FileId::of_identity(i));
        }
        // MD4 uniformity: max bucket should be close to the mean.
        let max = b.max_bucket_size();
        assert!(max <= 6, "max bucket {max} too large for uniform input");
        assert_eq!(b.distinct(), 20_000);
    }

    #[test]
    fn forged_ids_blow_up_first_two_bytes_selector() {
        // The Fig. 3 phenomenon: pollution with fixed prefixes lands in
        // buckets 0 and 256 under FIRST_TWO, and spreads under
        // ALTERNATIVE.
        let mut first = BucketedArrays::new(ByteSelector::FIRST_TWO);
        let mut alt = BucketedArrays::new(ByteSelector::ALTERNATIVE);
        for i in 0..4000u64 {
            // Paper-observed prefixes: bucket 0 ("00 00") and 256
            // ("00 01" under little-endian two-byte index).
            let prefix = if i % 2 == 0 {
                [0x00, 0x00]
            } else {
                [0x00, 0x01]
            };
            let id = FileId::forged(i, prefix);
            first.anonymize(&id);
            alt.anonymize(&id);
        }
        for i in 0..4000u64 {
            let id = FileId::of_identity(i);
            first.anonymize(&id);
            alt.anonymize(&id);
        }
        let sizes = first.bucket_sizes();
        assert_eq!(sizes[0], 2000, "forged 00 00 IDs in bucket 0");
        assert_eq!(sizes[256], 2000, "forged 00 01 IDs in bucket 256");
        assert!(first.max_bucket_size() >= 2000);
        // The alternative selector sees the forged IDs' *random* interior
        // bytes and stays balanced.
        assert!(
            alt.max_bucket_size() < 20,
            "alt max {}",
            alt.max_bucket_size()
        );
        assert_eq!(first.distinct(), alt.distinct());
        // Either store derives the other's distribution exactly.
        assert_eq!(alt.bucket_sizes_by(ByteSelector::FIRST_TWO), sizes);
        assert_eq!(
            first.bucket_sizes_by(ByteSelector::ALTERNATIVE),
            alt.bucket_sizes()
        );
        assert_eq!(alt.bucket_sizes_by(alt.selector()), alt.bucket_sizes());
    }

    #[test]
    fn bucket_size_accounting() {
        let mut b = BucketedArrays::new(ByteSelector::ALTERNATIVE);
        for i in 0..500u64 {
            b.anonymize(&FileId::of_identity(i));
        }
        let sizes = b.bucket_sizes();
        assert_eq!(sizes.len(), NUM_BUCKETS);
        assert_eq!(sizes.iter().sum::<usize>(), 500);
        assert!((b.mean_bucket_size() - 500.0 / 65_536.0).abs() < 1e-12);
    }

    #[test]
    fn probe_stats_track_search_and_insert_work() {
        let mut b = BucketedArrays::new(ByteSelector::ALTERNATIVE);
        assert_eq!(b.probe_stats(), ProbeStats::default());
        for i in 0..1_000u64 {
            b.anonymize(&FileId::of_identity(i));
        }
        for i in 0..1_000u64 {
            b.anonymize(&FileId::of_identity(i)); // all hits, no inserts
        }
        let s = b.probe_stats();
        assert_eq!(s.probes, 2_000);
        assert_eq!(s.inserts, 1_000);
        // Probes into empty buckets compare zero times, but each of the
        // 1 000 second-pass hits compares at least once.
        assert!(
            s.comparisons >= 1_000,
            "hits must compare at least once each (saw {})",
            s.comparisons
        );
        assert!(s.max_probe_depth >= 1);
        // Uniform input keeps buckets tiny, so shifts stay tiny too.
        assert!(s.max_shift <= b.max_bucket_size() as u64);

        // A polluted bucket drives insertion shifts up.
        let mut polluted = BucketedArrays::new(ByteSelector::FIRST_TWO);
        for i in 0..500u64 {
            polluted.anonymize(&FileId::forged(i, [0x00, 0x00]));
        }
        assert!(
            polluted.probe_stats().shifted > b.probe_stats().shifted,
            "concentrated inserts must shift more than uniform ones"
        );
    }

    #[test]
    fn values_are_dense_prefix() {
        let mut b = BucketedArrays::new(ByteSelector::ALTERNATIVE);
        let mut rng = StdRng::seed_from_u64(8);
        let mut max_v = 0;
        for _ in 0..1000 {
            let v = b.anonymize(&FileId::of_identity(rng.gen_range(0..300)));
            max_v = max_v.max(v);
        }
        assert_eq!(max_v + 1, b.distinct());
    }
}
