//! A live-bytes + high-water-mark tracking allocator. The counters are
//! process-wide and monotonic (peak never decreases), so a gate on
//! [`peak_bytes`] sees allocations freed before the check.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn charge(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    // Monotonic max; races only ever lose to a larger peak.
    PEAK.fetch_max(live, Ordering::Relaxed);
}

/// System allocator wrapper that tracks live bytes and their peak.
pub struct TrackingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns what `System` returned, so `System`'s guarantees carry over;
// the counters only read `layout.size()` and `new_size`.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            charge(layout.size());
        }
        p
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            charge(new_size);
        }
        p
    }
}

/// High-water mark of live bytes since process start.
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}
