//! The benchmark binary's global allocator: the system allocator plus
//! three counters — heap acquisitions, live bytes and the live-byte
//! high-water mark — the last resettable so every repetition reports
//! its own peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

static ACQUISITIONS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn charge(bytes: usize) {
    ACQUISITIONS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    // A racing thread can only ever lose to a larger peak.
    PEAK.fetch_max(live, Ordering::Relaxed);
}

/// System allocator wrapper counting acquisitions (`alloc`, `alloc_zeroed`,
/// `realloc`)
/// and tracking live bytes with their peak.
pub struct TrackingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain statistics and never
// influence which pointer is returned or freed.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            charge(layout.size());
        }
        p
    }

    // Forwarded rather than left to the default (`alloc` + `write_bytes`):
    // the system allocator hands out untouched zero pages for large
    // requests, and the programs under test rely on that.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
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

/// Heap acquisitions since process start.
pub fn acquisitions() -> u64 {
    ACQUISITIONS.load(Ordering::Relaxed)
}

/// Restarts the high-water mark from the bytes live right now and returns
/// that starting level, so a caller can report the peak *above* whatever
/// the harness itself was holding.
pub fn reset_peak() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// High-water mark of live bytes since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Pins glibc's mmap threshold at its start-up value (128 KiB), which
/// also switches off glibc's habit of raising it after the first large
/// `free`.
///
/// A user's experiment is one process that builds its tables once: large
/// allocations are fresh `mmap`s. This binary builds the same tables
/// hundreds of times, and with the moving threshold later builds are
/// served from recycled heap instead — or not, depending on heap layout,
/// which depends on the seed: `fleet_hybrid` set-up measured 0.9 ms on
/// seven seeds in ten and 1.6 ms on the other three. Pinned, every
/// repetition sees the allocator a fresh process would (1.2 ms on all).
/// A no-op on other C libraries.
pub fn pin_mmap_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::ffi::c_int;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        const M_MMAP_THRESHOLD: c_int = -3;
        // SAFETY: `mallopt` is glibc's documented tuning entry point; it
        // takes two ints, changes only an allocator parameter, and is
        // called once at start-up before any other thread exists.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 128 * 1024);
        }
    }
}
