//! # torus — the Catapult v1 6x8 torus baseline
//!
//! The prior system this paper replaces: 48 FPGAs per rack wired into a
//! 6x8 2-D torus over a dedicated secondary network. It is the comparison
//! line in Figure 10 and the motivation list in the introduction: nearest
//! neighbour round trips of ~1 µs, worst-case 7 µs, scale capped at 48,
//! expensive cabling that demands physical-location awareness, and failure
//! handling that reroutes traffic around dead nodes — or, for unlucky
//! failure patterns, isolates survivors entirely.
//!
//! # Examples
//!
//! ```
//! use torus::{Torus, TorusConfig};
//!
//! let t = Torus::new(TorusConfig::catapult_v1());
//! assert_eq!(t.node_count(), 48);
//! let rtt = t.rtt((0, 0), (3, 4)).unwrap();
//! assert!(rtt <= t.worst_case_rtt());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use std::collections::{HashSet, VecDeque};

use dcsim::SimDuration;

/// A node's coordinates in the torus: `(column, row)`.
pub type Coord = (usize, usize);

/// Torus dimensions and link timing.
#[derive(Debug, Clone, Copy)]
pub struct TorusConfig {
    /// Columns (8 in Catapult v1).
    pub width: usize,
    /// Rows (6 in Catapult v1).
    pub height: usize,
    /// One-way per-hop latency over the dedicated SAS links.
    pub hop_latency: SimDuration,
}

impl TorusConfig {
    /// The production Catapult v1 rack fabric: 6x8, ~1 µs nearest-neighbour
    /// round trip.
    pub fn catapult_v1() -> TorusConfig {
        TorusConfig {
            width: 8,
            height: 6,
            hop_latency: SimDuration::from_nanos(500),
        }
    }
}

/// The rack-scale torus with a set of failed nodes.
#[derive(Debug, Clone)]
pub struct Torus {
    cfg: TorusConfig,
    failed: HashSet<Coord>,
}

impl Torus {
    /// Creates a healthy torus.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(cfg: TorusConfig) -> Torus {
        assert!(cfg.width > 0 && cfg.height > 0, "degenerate torus");
        Torus {
            cfg,
            failed: HashSet::new(),
        }
    }

    /// Total node slots (the scale cap the paper criticises: 48).
    pub fn node_count(&self) -> usize {
        self.cfg.width * self.cfg.height
    }

    /// Marks a node failed.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of range.
    pub fn fail(&mut self, node: Coord) {
        self.check(node);
        self.failed.insert(node);
    }

    /// Repairs a node.
    pub fn repair(&mut self, node: Coord) {
        self.failed.remove(&node);
    }

    /// Whether a node is healthy.
    pub fn is_healthy(&self, node: Coord) -> bool {
        !self.failed.contains(&node)
    }

    fn check(&self, (x, y): Coord) {
        assert!(
            x < self.cfg.width && y < self.cfg.height,
            "coordinate out of range"
        );
    }

    fn ring_dist(a: usize, b: usize, n: usize) -> usize {
        let d = a.abs_diff(b);
        d.min(n - d)
    }

    /// Minimal hop distance on a *healthy* torus (dimension-ordered with
    /// wraparound).
    pub fn hop_distance(&self, a: Coord, b: Coord) -> usize {
        self.check(a);
        self.check(b);
        Self::ring_dist(a.0, b.0, self.cfg.width) + Self::ring_dist(a.1, b.1, self.cfg.height)
    }

    /// The worst healthy-fabric round trip (opposite corner of the torus).
    pub fn worst_case_rtt(&self) -> SimDuration {
        let hops = self.cfg.width / 2 + self.cfg.height / 2;
        self.cfg.hop_latency * (2 * hops) as u64
    }

    fn neighbours(&self, (x, y): Coord) -> [Coord; 4] {
        let w = self.cfg.width;
        let h = self.cfg.height;
        [
            ((x + 1) % w, y),
            ((x + w - 1) % w, y),
            (x, (y + 1) % h),
            (x, (y + h - 1) % h),
        ]
    }

    /// Hop count of the shortest route avoiding failed nodes, or `None` if
    /// `b` is unreachable from `a`. Failed endpoints are unreachable.
    pub fn route_hops(&self, a: Coord, b: Coord) -> Option<usize> {
        self.check(a);
        self.check(b);
        if !self.is_healthy(a) || !self.is_healthy(b) {
            return None;
        }
        if a == b {
            return Some(0);
        }
        let mut seen = HashSet::new();
        let mut queue = VecDeque::new();
        seen.insert(a);
        queue.push_back((a, 0usize));
        while let Some((node, d)) = queue.pop_front() {
            for n in self.neighbours(node) {
                if n == b {
                    return Some(d + 1);
                }
                if self.is_healthy(n) && seen.insert(n) {
                    queue.push_back((n, d + 1));
                }
            }
        }
        None
    }

    /// Round-trip latency between two nodes under the current failure set,
    /// or `None` if unreachable.
    pub fn rtt(&self, a: Coord, b: Coord) -> Option<SimDuration> {
        self.route_hops(a, b)
            .map(|hops| self.cfg.hop_latency * (2 * hops) as u64)
    }

    /// Number of healthy nodes reachable from `from` (including itself).
    pub fn reachable_from(&self, from: Coord) -> usize {
        if !self.is_healthy(from) {
            return 0;
        }
        let mut seen = HashSet::new();
        let mut queue = VecDeque::new();
        seen.insert(from);
        queue.push_back(from);
        while let Some(node) = queue.pop_front() {
            for n in self.neighbours(node) {
                if self.is_healthy(n) && seen.insert(n) {
                    queue.push_back(n);
                }
            }
        }
        seen.len()
    }

    /// All-pairs round-trip statistics over healthy, mutually reachable
    /// nodes: `(average, max)`.
    pub fn rtt_statistics(&self) -> (SimDuration, SimDuration) {
        let mut total_ns = 0u64;
        let mut count = 0u64;
        let mut max = SimDuration::ZERO;
        for x1 in 0..self.cfg.width {
            for y1 in 0..self.cfg.height {
                for x2 in 0..self.cfg.width {
                    for y2 in 0..self.cfg.height {
                        if (x1, y1) >= (x2, y2) {
                            continue;
                        }
                        if let Some(rtt) = self.rtt((x1, y1), (x2, y2)) {
                            total_ns += rtt.as_nanos();
                            count += 1;
                            max = max.max(rtt);
                        }
                    }
                }
            }
        }
        let avg = total_ns
            .checked_div(count)
            .map(SimDuration::from_nanos)
            .unwrap_or(SimDuration::ZERO);
        (avg, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn torus() -> Torus {
        Torus::new(TorusConfig::catapult_v1())
    }

    #[test]
    fn scale_is_capped_at_48() {
        assert_eq!(torus().node_count(), 48);
    }

    #[test]
    fn nearest_neighbour_rtt_is_one_microsecond() {
        let t = torus();
        assert_eq!(t.rtt((0, 0), (1, 0)).unwrap(), SimDuration::from_micros(1));
    }

    #[test]
    fn worst_case_rtt_is_seven_microseconds() {
        let t = torus();
        assert_eq!(t.worst_case_rtt(), SimDuration::from_micros(7));
        // And it is achieved by the opposite corner.
        assert_eq!(t.rtt((0, 0), (4, 3)).unwrap(), SimDuration::from_micros(7));
    }

    #[test]
    fn wraparound_shortens_paths() {
        let t = torus();
        // (0,0) to (7,0): one hop via the wrap link, not seven.
        assert_eq!(t.hop_distance((0, 0), (7, 0)), 1);
        assert_eq!(t.hop_distance((0, 0), (0, 5)), 1);
    }

    #[test]
    fn bfs_matches_dimension_order_when_healthy() {
        let t = torus();
        for a in [(0usize, 0usize), (3, 2), (7, 5)] {
            for b in [(1usize, 1usize), (4, 3), (6, 0)] {
                assert_eq!(t.route_hops(a, b), Some(t.hop_distance(a, b)));
            }
        }
    }

    #[test]
    fn failure_forces_longer_routes() {
        let mut t = torus();
        // Block the shortest path between (0,0) and (2,0).
        t.fail((1, 0));
        let rerouted = t.route_hops((0, 0), (2, 0)).unwrap();
        assert!(rerouted > 2, "rerouted hops {rerouted}");
        // Performance cost: latency rises versus the healthy fabric.
        assert!(t.rtt((0, 0), (2, 0)).unwrap() > SimDuration::from_micros(2));
    }

    #[test]
    fn certain_failure_patterns_isolate_nodes() {
        let mut t = torus();
        // Surround (0,0) with failures: all four neighbours.
        for n in [(1, 0), (7, 0), (0, 1), (0, 5)] {
            t.fail(n);
        }
        assert_eq!(t.route_hops((0, 0), (3, 3)), None, "isolated");
        assert_eq!(t.reachable_from((0, 0)), 1);
        // The rest of the fabric is still mutually connected.
        assert_eq!(t.reachable_from((3, 3)), 48 - 4 - 1);
    }

    #[test]
    fn failed_node_is_not_an_endpoint() {
        let mut t = torus();
        t.fail((2, 2));
        assert_eq!(t.rtt((0, 0), (2, 2)), None);
        assert_eq!(t.reachable_from((2, 2)), 0);
        t.repair((2, 2));
        assert!(t.rtt((0, 0), (2, 2)).is_some());
    }

    #[test]
    fn rtt_statistics_bracket_1_to_7_microseconds() {
        let (avg, max) = torus().rtt_statistics();
        assert_eq!(max, SimDuration::from_micros(7));
        assert!(avg >= SimDuration::from_micros(1));
        assert!(avg <= SimDuration::from_micros(4), "avg {avg}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_coordinate_panics() {
        torus().hop_distance((8, 0), (0, 0));
    }
}
