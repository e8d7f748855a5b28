//! Allocation-counting global allocator for the benchmark harness.
//!
//! The batched capture tail claims *zero steady-state heap allocations
//! per record* (its write stage encodes into one reused buffer with the
//! zero-alloc encoder). Claims like that rot silently — an innocent
//! `format!` in a hot loop brings the allocator right back — so `repro
//! bench` measures it instead of trusting it: the binary installs
//! [`CountingAllocator`] as its `#[global_allocator]` and the tail-only
//! benchmark reads the counter delta across a steady-state formatting
//! run.
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: etw_bench::alloc::CountingAllocator = CountingAllocator;
//! ```
//!
//! The counters are process-global relaxed atomics: two uncontended
//! `fetch_add`s per allocation, cheap enough to leave installed for all
//! `repro` subcommands. Spans measured while other threads allocate
//! attribute their allocations too — the suite therefore measures the
//! formatter single-threaded, after the campaign threads have joined.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

/// A pass-through wrapper over [`System`] that counts allocation events
/// and bytes. Deallocations are not tracked: the benchmarks care about
/// allocator round-trips in hot loops, not live-set size.
pub struct CountingAllocator;

// SAFETY: defers entirely to `System`; the counters never influence the
// returned pointers.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // ordering: independent event counters, read only after the
        // measured threads have joined; no cross-counter invariant
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow-in-place still counts: the caller asked the allocator
        // for more memory, which is exactly the event a zero-alloc hot
        // loop must not produce.
        // ordering: independent event counters, as in `alloc` above
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Total allocation events since process start (0 if the counting
/// allocator is not installed).
pub fn allocations() -> u64 {
    // ordering: monotone counter snapshot; spans tolerate concurrent
    // increments and only compare same-thread before/after reads
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Total bytes requested since process start.
pub fn allocated_bytes() -> u64 {
    // ordering: monotone counter snapshot, same as `allocations`
    ALLOCATED_BYTES.load(Ordering::Relaxed)
}

/// Whether the process actually routes allocations through
/// [`CountingAllocator`]. Performs a heap allocation to find out, so
/// call it outside measured spans.
pub fn counting_active() -> bool {
    let before = allocations();
    let probe = vec![0u8; 1];
    std::hint::black_box(&probe);
    drop(probe);
    allocations() > before
}

/// Allocation-count delta over a span of code.
pub struct AllocSpan {
    start: u64,
}

impl AllocSpan {
    /// Starts counting from the current total.
    pub fn start() -> Self {
        AllocSpan {
            start: allocations(),
        }
    }

    /// Allocation events since [`AllocSpan::start`].
    pub fn delta(&self) -> u64 {
        allocations() - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_without_install_reads_zero() {
        // The test binary does not install the allocator; the counters
        // must still be safe to read and monotone.
        let span = AllocSpan::start();
        let _v: Vec<u8> = Vec::with_capacity(3);
        // Either 0 (not installed) or >0 (some harness installed it);
        // never a panic or underflow — and the byte counter reads too.
        let _ = span.delta();
        let _ = allocated_bytes();
    }
}
