//! Shared plumbing for the experiment binaries: `--quick` scaling and
//! result output.
//!
//! Every binary regenerates one table or figure of the paper. Run with
//! `--quick` for a fast smoke-scale pass; results print as aligned tables
//! and are also written as JSON under `results/`.

use std::path::Path;

use serde::Serialize;

/// Whether `--quick` was passed on the command line.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Writes `value` as pretty JSON to `results/<name>.json` (best effort;
/// failures are reported but not fatal).
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            } else {
                eprintln!("wrote {}", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialise {name}: {e}"),
    }
}

/// Writes a pre-rendered document (e.g. a Chrome trace export) verbatim
/// to `results/<name>` (best effort; failures are reported but not
/// fatal).
pub fn write_raw(name: &str, content: &str) {
    let dir = Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(name);
    if let Err(e) = std::fs::write(&path, content) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    } else {
        eprintln!("wrote {}", path.display());
    }
}

/// Prints what a run cost the event engine, on stderr: host timings and
/// queue counters never go into a `results/` file whose bytes CI diffs
/// across same-seed runs. `timed` names what `host` covers.
pub fn report_engine_cost(
    events: u64,
    timed: &str,
    host: std::time::Duration,
    queue: dcsim::QueueStats,
) {
    let per = |count: u64, of: u64| count as f64 / of.max(1) as f64;
    eprintln!(
        "engine: {events} events, {timed} {:.3} s, {:.0} ns/event",
        host.as_secs_f64(),
        per(host.as_nanos() as u64, events),
    );
    eprintln!(
        "queue:  {} pushes ({:.1} % to the far heap), {:.3} insert steps/push; \
         {} pops, {:.2} occupancy words scanned/pop",
        queue.pushes,
        100.0 * per(queue.far_pushes, queue.pushes),
        per(queue.insert_steps, queue.pushes),
        queue.pops,
        per(queue.words_scanned, queue.pops),
    );
}

/// Prints a standard experiment header.
pub fn header(id: &str, title: &str) {
    println!("=== {id}: {title} ===");
}

/// A live-bytes + high-water-mark tracking allocator for memory-bounded
/// benchmark lanes.
///
/// Install it in a binary with
/// `#[global_allocator] static A: bench::mem::TrackingAlloc = bench::mem::TrackingAlloc;`
/// and gate the run on [`mem::peak_bytes`]. The counters are process-wide
/// and monotonic (peak never decreases), so the gate captures the true
/// high-water mark even for allocations freed before the check.
pub mod mem {
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
}

/// Parses `--flag value` from the command line.
pub fn arg_value(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
    }
    None
}

/// Short git commit hash of the working tree, or "unknown".
pub fn current_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}
