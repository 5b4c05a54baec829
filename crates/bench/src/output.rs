//! What every experiment prints and writes: its header, its results
//! under `results/`, and the engine cost on stderr.

use std::path::Path;

use serde::Serialize;

/// Writes `value` as pretty JSON to `results/<name>.json` (best effort;
/// failures are reported but not fatal).
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    match serde_json::to_string_pretty(value) {
        Ok(json) => write_raw(&format!("{name}.json"), &json),
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
