//! Counting global allocator: every heap allocation the measured program
//! makes is counted, so "allocate per job, not per event" (DESIGN.md
//! §Simulator performance) is a recorded number.
//!
//! Calls and bytes are counted per thread — a phase is measured by
//! differencing two [`snapshot`]s on the thread that runs it, and nothing
//! another thread allocates meanwhile leaks in. Live bytes and their peak
//! are process-wide `Relaxed` atomics (a block may be freed by another
//! thread than the one that allocated it); they publish no other data.
//!
//! This module holds the only `unsafe` in the package.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

thread_local! {
    // Const-initialised and without destructors, so touching them from
    // inside the allocator neither allocates nor can observe a torn-down
    // slot.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// The system allocator with counters in front of it.
pub struct Counting;

#[global_allocator]
static GLOBAL: Counting = Counting;

fn on_alloc(size: usize) {
    let size = size as u64;
    ALLOCS.with(|c| c.set(c.get() + 1));
    BYTES.with(|c| c.set(c.get() + size));
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator
// state and never allocate, so they cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller guarantees `layout` has non-zero size.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr`/`layout` describe a live
        // block of this allocator and `new_size` is a valid size for
        // `layout.align()`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            on_alloc(new_size);
        }
        p
    }
}

/// The calling thread's counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Allocation calls (a successful `realloc` counts as one).
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

impl Snapshot {
    /// Allocations and bytes since `earlier`.
    pub fn since(self, earlier: Snapshot) -> Snapshot {
        Snapshot {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Reads the calling thread's cumulative counters.
pub fn snapshot() -> Snapshot {
    Snapshot {
        allocs: ALLOCS.with(Cell::get),
        bytes: BYTES.with(Cell::get),
    }
}

/// Restarts peak tracking from the current live size, which it returns:
/// [`peak_bytes`] less this is what was allocated on top since.
pub fn reset_peak() -> u64 {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// Highest process-wide live size since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_scoped_phase_counts_exactly_its_own_allocations() {
        let before = snapshot();
        // One block for the outer vector, one for each inner one.
        let blocks: Vec<Vec<u8>> = (0..10).map(|_| Vec::with_capacity(4096)).collect();
        let during = snapshot().since(before);
        assert_eq!(during.allocs, 11);
        assert_eq!(during.bytes, 10 * 4096 + 10 * size_of::<Vec<u8>>() as u64);
        drop(blocks);
        assert_eq!(
            snapshot().since(before),
            during,
            "frees are not allocations"
        );
        // A reallocation counts once, with its new size.
        let mut v: Vec<u64> = Vec::with_capacity(4);
        let before = snapshot();
        v.reserve_exact(1024);
        assert_eq!(
            snapshot().since(before),
            Snapshot {
                allocs: 1,
                bytes: 1024 * 8
            }
        );
    }

    #[test]
    fn other_threads_stay_out_of_a_phase() {
        let before = snapshot();
        std::thread::scope(|s| {
            s.spawn(|| std::hint::black_box(vec![0u8; 1 << 16]));
        });
        // Spawning allocates on this thread; the 64 KiB block did not.
        assert!(snapshot().since(before).bytes < 1 << 16);
    }

    // Other tests reset the process-wide peak while this one runs, so it
    // is only bounded by what this thread holds live.
    #[test]
    fn the_peak_covers_live_bytes() {
        reset_peak();
        let block = vec![0u8; 1 << 20];
        assert!(peak_bytes() >= 1 << 20);
        drop(block);
    }
}
