//! The pending-event set: a two-level calendar queue.
//!
//! Discrete-event simulation of a datacenter schedules almost every event a
//! short, bounded delay into the future — a NIC hop, a switch traversal, a
//! service time — so the pending set behaves like a sliding window over
//! time. A binary heap pays `O(log n)` pointer-chasing per operation and
//! re-sorts that window on every push. The calendar queue instead hashes
//! each event by time into a wheel of buckets whose width tracks the
//! observed inter-event spacing.
//!
//! Layout:
//!
//! * a **wheel** of `nbuckets` (power of two) buckets, each `1 <<
//!   width_shift` nanoseconds wide, covering the year starting at the
//!   wheel cursor — events due soon. Each bucket's list is kept ascending
//!   by `(time, seq)`, and one **occupancy bit** per bucket says whether
//!   the list is empty;
//! * a **far heap** (plain binary heap) for events beyond the wheel's
//!   range — rare long timers, day-scale horizons;
//! * an adaptive retune step that resizes the wheel from the observed
//!   average push delay and queue length.
//!
//! What that guarantees: the wheel's minimum *is* the head of the first
//! occupied bucket at or after the cursor, found by `trailing_zeros` over
//! the occupancy words — 64 empty buckets per word examined — and removed
//! in `O(1)`. A pop therefore costs the same whether the wheel is dense,
//! whether thousands of events parked far ahead have made the buckets a
//! few nanoseconds wide, or whether a burst of same-instant events shares
//! one bucket. A push is `O(1)` when the new entry sorts after its
//! bucket's tail (the usual case: keys of later pushes are larger) or
//! before its head; only an entry that lands strictly inside a bucket
//! walks that bucket's list to its place. [`QueueStats`] counts both costs
//! (`words_scanned`, `insert_steps`) so they are measured, not assumed.
//!
//! Ordering is exact, not approximate: a bucket pops in `(time, seq)`
//! order, and the wheel and far heads are compared on the same key, so
//! events pop in precisely the order a binary heap would produce —
//! timestamp order with FIFO tie-break. All `Engine` ordering tests and
//! every experiment seed reproduce unchanged.
//!
//! Storage is pooled: wheel **and far** entries live in one slab of
//! nodes. Wheel nodes are threaded into per-bucket intrusive circular
//! lists addressed by their tail (one `u32` per bucket reaches both
//! ends); far entries park their payload in the slab and put only a
//! 24-byte `(at, seq, idx)` key on the heap, so heap sifts move small
//! keys instead of full payloads. Popped nodes go on a free list that the
//! next push recycles. The steady-state dequeue→enqueue cycle of a running
//! simulation therefore never touches the allocator, and a retune relinks
//! nodes in place instead of draining and reallocating every bucket.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One pending event with its ordering key.
#[derive(Debug)]
pub(crate) struct Entry<T> {
    /// Due time in nanoseconds.
    pub at: u64,
    /// Global FIFO sequence number (unique; breaks timestamp ties).
    pub seq: u64,
    /// The scheduled payload.
    pub value: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap and the far set needs its
        // earliest entry on top.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Ordering key of a far-heap entry whose payload is parked in the slab.
///
/// Keeping the heap element at three words means a sift swaps 24 bytes
/// regardless of how large `T` is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FarKey {
    at: u64,
    seq: u64,
    /// Slab index of the node holding the payload.
    idx: u32,
}

impl PartialOrd for FarKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FarKey {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap and the far set needs its
        // earliest entry on top.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Initial bucket count (power of two).
const INITIAL_BUCKETS: usize = 64;
/// Initial bucket width: 256 ns, the substrate's typical hop delay scale.
const INITIAL_WIDTH_SHIFT: u32 = 8;
/// Bounds on the adaptive bucket width: 1 ns .. ~69 s.
const MIN_WIDTH_SHIFT: u32 = 0;
const MAX_WIDTH_SHIFT: u32 = 36;
/// Bounds on the wheel size.
const MIN_BUCKETS: usize = 64;
const MAX_BUCKETS: usize = 1 << 17;
/// Pushes between retune checks.
const TUNE_INTERVAL: u64 = 4096;

/// Slab index marking "no node" (empty bucket / end of the free list).
const NIL: u32 = u32::MAX;

/// One slab slot: an event plus the intrusive link to the next node in
/// its bucket (or in the free list when the slot is vacant).
#[derive(Debug)]
struct Node<T> {
    at: u64,
    seq: u64,
    /// `None` while the node sits on the free list.
    value: Option<T>,
    next: u32,
}

/// What the event queue has done so far, as exact counts: the cost model
/// in the module docs, measured. See [`crate::Engine::queue_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Entries inserted.
    pub pushes: u64,
    /// Entries removed.
    pub pops: u64,
    /// Occupancy words (64 buckets each) examined to find the wheel's
    /// first occupied bucket; `words_scanned / pops` near 1 means pops
    /// found their event in the cursor's own word.
    pub words_scanned: u64,
    /// Nodes stepped over by pushes that landed strictly inside a
    /// bucket's ordered list (appends and prepends cost none).
    pub insert_steps: u64,
    /// Entries placed on the far heap because they lay beyond the
    /// wheel's year, at push time or when a retune narrowed the year.
    pub far_pushes: u64,
}

/// A two-level calendar queue over `(time, seq)`-keyed entries.
///
/// Semantically identical to a min-heap ordered by `(at, seq)`; tuned so
/// that the common short-delay case costs `O(1)` per operation and — once
/// the slab has grown to the simulation's peak in-flight event count —
/// zero allocations.
pub(crate) struct CalendarQueue<T> {
    /// Node pool backing the wheel; indices are stable for a node's
    /// lifetime, so buckets store indices and retunes relink in place.
    nodes: Vec<Node<T>>,
    /// Head of the free list threaded through vacant slab slots.
    free_head: u32,
    /// The wheel. `buckets[vslot & mask]` is the *tail* of the circular
    /// list of events whose virtual slot (`at >> width_shift`) is `vslot`,
    /// ascending by `(at, seq)` from the tail's successor (the head) round
    /// to the tail. Every wheel event's virtual slot lies in
    /// `[cur_vslot, cur_vslot + nbuckets)`, so a bucket never mixes slots.
    buckets: Vec<u32>,
    /// Bit `slot % 64` of word `slot / 64` is set iff `buckets[slot]` is
    /// not `NIL`.
    occupied: Vec<u64>,
    /// Power-of-two bucket index mask (`buckets.len() - 1`).
    mask: usize,
    /// log2 of the bucket width in nanoseconds.
    width_shift: u32,
    /// Virtual slot of the wheel cursor, `floor_at >> width_shift`; all
    /// wheel events live at or after it.
    cur_vslot: u64,
    /// Keys of events beyond the wheel's current year; payloads stay in
    /// the slab (unlinked from any bucket) until popped.
    far: BinaryHeap<FarKey>,
    /// Events stored in the wheel (not counting `far`).
    wheel_len: usize,
    /// Time of the most recently popped entry; a floor for all pending
    /// and future events.
    floor_at: u64,
    /// Pushes since the last retune check.
    pushes_since_tune: u64,
    /// Sum of `at - floor_at` over those pushes (delay profile sample).
    delay_sum: u128,
    /// Reusable retune scratch holding live node indices.
    relink_scratch: Vec<u32>,
    stats: QueueStats,
}

impl<T> CalendarQueue<T> {
    pub(crate) fn new() -> Self {
        CalendarQueue {
            nodes: Vec::new(),
            free_head: NIL,
            buckets: vec![NIL; INITIAL_BUCKETS],
            occupied: vec![0; INITIAL_BUCKETS / 64],
            mask: INITIAL_BUCKETS - 1,
            width_shift: INITIAL_WIDTH_SHIFT,
            cur_vslot: 0,
            far: BinaryHeap::new(),
            wheel_len: 0,
            floor_at: 0,
            pushes_since_tune: 0,
            delay_sum: 0,
            relink_scratch: Vec::new(),
            stats: QueueStats::default(),
        }
    }

    /// Total pending entries.
    pub(crate) fn len(&self) -> usize {
        self.wheel_len + self.far.len()
    }

    /// The counters so far.
    pub(crate) fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Due time of the earliest pending entry, without removing it.
    pub(crate) fn next_at(&mut self) -> Option<u64> {
        let wheel = self.wheel_min().map(|head| head.at);
        let far = self.far.peek().map(|key| key.at);
        match (wheel, far) {
            (Some(w), Some(f)) => Some(w.min(f)),
            (wheel, None) => wheel,
            (None, far) => far,
        }
    }

    /// Takes a node off the free list (or grows the slab) and fills it.
    fn alloc_node(&mut self, at: u64, seq: u64, value: T) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            let node = &mut self.nodes[idx as usize];
            self.free_head = node.next;
            node.at = at;
            node.seq = seq;
            node.value = Some(value);
            node.next = NIL;
            idx
        } else {
            assert!(self.nodes.len() < NIL as usize, "event slab full");
            self.nodes.push(Node {
                at,
                seq,
                value: Some(value),
                next: NIL,
            });
            (self.nodes.len() - 1) as u32
        }
    }

    /// Vacates a node onto the free list, returning its contents.
    fn free_node(&mut self, idx: u32) -> Entry<T> {
        let node = &mut self.nodes[idx as usize];
        let value = node.value.take().expect("freeing a vacant node");
        let entry = Entry {
            at: node.at,
            seq: node.seq,
            value,
        };
        node.next = self.free_head;
        self.free_head = idx;
        entry
    }

    fn key(&self, idx: u32) -> (u64, u64) {
        let node = &self.nodes[idx as usize];
        (node.at, node.seq)
    }

    /// Inserts an entry. `at` must be at or after the most recently popped
    /// entry's time (the engine's no-scheduling-into-the-past rule).
    pub(crate) fn push(&mut self, at: u64, seq: u64, value: T) {
        debug_assert!(at >= self.floor_at, "push behind the queue floor");
        self.stats.pushes += 1;
        self.pushes_since_tune += 1;
        self.delay_sum += (at - self.floor_at) as u128;
        if self.pushes_since_tune >= TUNE_INTERVAL {
            self.maybe_retune();
        }
        let idx = self.alloc_node(at, seq, value);
        let vslot = at >> self.width_shift;
        if vslot >= self.cur_vslot + self.buckets.len() as u64 {
            self.stats.far_pushes += 1;
            self.far.push(FarKey { at, seq, idx });
            return;
        }
        self.wheel_len += 1;
        let slot = (vslot as usize) & self.mask;
        self.occupied[slot / 64] |= 1 << (slot % 64);
        // Alone, the node is a ring of one and its own tail, so an empty
        // bucket is an append like any other. The list is a ring: "after
        // the tail" and "before the head" are the same gap, and only the
        // first moves the bucket's tail. Which of empty / append /
        // prepend a push meets is a coin toss on a well-tuned wheel, so
        // none of the three is branched on — selects and an idempotent
        // bit-set instead. Branching on empty-or-not, here and in
        // `pop_due`'s unlink, measured 13 ns per event on a dense wheel;
        // on append-or-prepend, 3 % of `ltl_volley`'s throughput.
        self.nodes[idx as usize].next = idx;
        let tail = self.buckets[slot];
        let tail = if tail == NIL { idx } else { tail };
        let head = self.nodes[tail as usize].next;
        let after_tail = (at, seq) >= self.key(tail);
        let before_head = (at, seq) < self.key(head);
        let mut prev = tail;
        if !(after_tail | before_head) {
            // Strictly inside, the rare case. Keys are unique and the
            // tail's is larger, so the walk stops at the tail at the latest.
            prev = head;
            self.stats.insert_steps += 1;
            while self.key(self.nodes[prev as usize].next) < (at, seq) {
                prev = self.nodes[prev as usize].next;
                self.stats.insert_steps += 1;
            }
        }
        self.nodes[idx as usize].next = self.nodes[prev as usize].next;
        self.nodes[prev as usize].next = idx;
        self.buckets[slot] = if after_tail { idx } else { tail };
    }

    /// Removes and returns the earliest entry if it is due at or before
    /// `horizon`; otherwise leaves the queue untouched and returns `None`.
    pub(crate) fn pop_due(&mut self, horizon: u64) -> Option<Entry<T>> {
        let wheel_key = self.wheel_min();
        let far_key = self.far.peek().map(|e| (e.at, e.seq));

        let take_wheel = match (wheel_key, far_key) {
            (Some(w), Some(f)) => (w.at, w.seq) <= f,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };

        let idx = if take_wheel {
            let head = wheel_key.expect("wheel head exists");
            if head.at > horizon {
                return None;
            }
            // Commit: the cursor moves to the popped event's slot. Every
            // remaining event is at or after it, and all future pushes are
            // at or after `at`, so nothing can land behind the cursor.
            self.cur_vslot = head.vslot;
            self.floor_at = head.at;
            self.wheel_len -= 1;
            // Unlink the head from the bucket's ring.
            let slot = (head.vslot as usize) & self.mask;
            let tail = self.buckets[slot];
            let idx = self.nodes[tail as usize].next;
            // Branch-free, as in `push`: when the ring had one node the
            // link written here is the freed node's own.
            let emptied = idx == tail;
            self.nodes[tail as usize].next = self.nodes[idx as usize].next;
            self.buckets[slot] = if emptied { NIL } else { tail };
            self.occupied[slot / 64] &= !(u64::from(emptied) << (slot % 64));
            idx
        } else {
            let (at, _) = far_key.expect("far head exists");
            if at > horizon {
                return None;
            }
            self.cur_vslot = at >> self.width_shift;
            self.floor_at = at;
            self.far.pop().expect("far head exists").idx
        };
        self.stats.pops += 1;
        Some(self.free_node(idx))
    }

    /// Finds the wheel's minimum `(at, seq)` entry — the head of the first
    /// occupied bucket at or after the cursor — without removing it.
    fn wheel_min(&mut self) -> Option<WheelHead> {
        if self.wheel_len == 0 {
            return None;
        }
        let start = (self.cur_vslot as usize) & self.mask;
        let words = self.occupied.len();
        // The cursor's word first, from the cursor's bit up; then every
        // word after it, wrapping, until the cursor's own word comes
        // round again for the bits below the cursor.
        let mut word = start / 64;
        let mut bits = self.occupied[word] & (!0 << (start % 64));
        self.stats.words_scanned += 1;
        while bits == 0 {
            word = (word + 1) & (words - 1);
            bits = self.occupied[word];
            self.stats.words_scanned += 1;
        }
        let slot = word * 64 + bits.trailing_zeros() as usize;
        let (at, seq) = self.key(self.nodes[self.buckets[slot] as usize].next);
        Some(WheelHead {
            at,
            seq,
            vslot: self.cur_vslot + (slot.wrapping_sub(start) & self.mask) as u64,
        })
    }

    /// Resizes the wheel to fit the observed workload: bucket width tracks
    /// the average spacing between pending events (so buckets hold ~1
    /// event) and the bucket count tracks the queue length. Nodes are
    /// relinked in place — no per-entry moves or allocations.
    fn maybe_retune(&mut self) {
        let avg_delay = (self.delay_sum / self.pushes_since_tune as u128) as u64;
        self.pushes_since_tune = 0;
        self.delay_sum = 0;

        let n = self.len().max(1) as u64;
        // Events spread over roughly [floor, floor + 2*avg_delay); aim for
        // one event per bucket across that span.
        let target_width = (avg_delay.saturating_mul(2) / n).max(1);
        let new_shift =
            (63 - target_width.leading_zeros().min(63)).clamp(MIN_WIDTH_SHIFT, MAX_WIDTH_SHIFT);
        let new_buckets = (2 * n as usize)
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);

        if new_shift == self.width_shift && new_buckets == self.buckets.len() {
            return;
        }

        // Collect the live wheel nodes (indices only) in pop order: each
        // occupied bucket head to tail, buckets from the cursor round the
        // wheel.
        let mut scratch = std::mem::take(&mut self.relink_scratch);
        scratch.clear();
        let start = (self.cur_vslot as usize) & self.mask;
        let mut behind_cursor = 0;
        for (word, &bits) in self.occupied.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let slot = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let tail = self.buckets[slot];
                let mut idx = tail;
                loop {
                    idx = self.nodes[idx as usize].next;
                    scratch.push(idx);
                    if idx == tail {
                        break;
                    }
                }
                if slot < start {
                    behind_cursor = scratch.len();
                }
            }
        }
        // Slots below the cursor's are the far end of the year.
        scratch.rotate_left(behind_cursor);

        // Reset the wheel under the new geometry and relink each node in
        // place. Ascending keys mean ascending virtual slots, so a
        // bucket's nodes arrive as one run: they are chained as they come
        // and the ring is closed when the next bucket's first node shows
        // up, without a bucket being read or a key compared. (Pushing
        // each node again instead costs `service_chaos` 8 % of its
        // `setup_s`: its 19,200 set-up pushes cross three retunes.) A
        // node the new, narrower year no longer covers parks its payload
        // where it is and goes on the far heap by key. Far events stay in
        // the far heap: `pop_due` compares the wheel and far heads on the
        // same key, so one that now falls inside the new year still pops
        // in exact order, just via the heap path.
        self.width_shift = new_shift;
        self.buckets.clear();
        self.buckets.resize(new_buckets, NIL);
        self.occupied.clear();
        self.occupied.resize(new_buckets / 64, 0);
        self.mask = new_buckets - 1;
        self.cur_vslot = self.floor_at >> new_shift;
        self.wheel_len = 0;
        let year_end = self.cur_vslot + new_buckets as u64;
        let mut run = None;
        let mut last_key = None;
        for &idx in &scratch {
            let (at, seq) = self.key(idx);
            debug_assert!(
                last_key.replace((at, seq)) < Some((at, seq)),
                "retune collected the wheel out of pop order"
            );
            let vslot = at >> new_shift;
            if vslot >= year_end {
                self.stats.far_pushes += 1;
                self.far.push(FarKey { at, seq, idx });
                continue;
            }
            self.wheel_len += 1;
            let slot = (vslot as usize) & self.mask;
            run = match run {
                Some((open, head, tail)) if open == slot => {
                    self.nodes[tail as usize].next = idx;
                    Some((open, head, idx))
                }
                finished => {
                    self.close_ring(finished);
                    Some((slot, idx, idx))
                }
            };
        }
        self.close_ring(run);
        self.relink_scratch = scratch;
    }

    /// Makes the chain `head ..= tail` bucket `slot`'s ring.
    fn close_ring(&mut self, run: Option<(usize, u32, u32)>) {
        if let Some((slot, head, tail)) = run {
            self.nodes[tail as usize].next = head;
            self.buckets[slot] = tail;
            self.occupied[slot / 64] |= 1 << (slot % 64);
        }
    }
}

/// Position of the wheel's minimum entry, as found by `wheel_min`.
#[derive(Debug, Clone, Copy)]
struct WheelHead {
    at: u64,
    seq: u64,
    vslot: u64,
}

impl<T> std::fmt::Debug for CalendarQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CalendarQueue")
            .field("len", &self.len())
            .field("wheel_len", &self.wheel_len)
            .field("far_len", &self.far.len())
            .field("nbuckets", &self.buckets.len())
            .field("width_shift", &self.width_shift)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference model: a plain min-ordered heap over `(at, seq)`.
    struct Reference {
        heap: BinaryHeap<Entry<u32>>,
    }

    impl Reference {
        fn new() -> Self {
            Reference {
                heap: BinaryHeap::new(),
            }
        }
        fn push(&mut self, at: u64, seq: u64, value: u32) {
            self.heap.push(Entry { at, seq, value });
        }
        fn pop_due(&mut self, horizon: u64) -> Option<Entry<u32>> {
            if self.heap.peek()?.at > horizon {
                return None;
            }
            self.heap.pop()
        }
    }

    /// Deterministic operation-sequence generator (SplitMix64).
    struct OpRng(u64);
    impl OpRng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// The calendar queue and the reference heap, driven in lockstep:
    /// every push goes to both under the next `seq`, every pop is taken
    /// from both and must agree.
    struct Lockstep {
        cal: CalendarQueue<u32>,
        reference: Reference,
        seq: u64,
        /// Time of the last pop.
        now: u64,
    }

    impl Lockstep {
        fn new() -> Self {
            Lockstep {
                cal: CalendarQueue::new(),
                reference: Reference::new(),
                seq: 0,
                now: 0,
            }
        }

        fn push(&mut self, at: u64, value: u32) {
            self.cal.push(at, self.seq, value);
            self.reference.push(at, self.seq, value);
            self.seq += 1;
        }

        fn pop_due(&mut self, horizon: u64) -> Option<Entry<u32>> {
            let a = self.cal.pop_due(horizon);
            let b = self.reference.pop_due(horizon);
            let key = |e: &Option<Entry<u32>>| e.as_ref().map(|e| (e.at, e.seq, e.value));
            assert_eq!(
                key(&a),
                key(&b),
                "calendar queue (left) left the heap's order"
            );
            if let Some(e) = &a {
                assert!(e.at >= self.now, "time went backwards");
                self.now = e.at;
            }
            a
        }

        fn drain(&mut self) {
            while self.pop_due(u64::MAX).is_some() {}
            assert_eq!(self.cal.len(), 0);
        }

        /// The counters, once the schedule has crossed enough retune
        /// checks for the wheel to have resized under it repeatedly.
        fn stats_after_20_retunes(&self) -> QueueStats {
            let stats = self.cal.stats();
            assert_eq!(stats.pushes, self.seq);
            assert!(stats.pushes >= 20 * TUNE_INTERVAL, "{stats:?}");
            stats
        }
    }

    /// Drives both queues through the same random schedule.
    fn check_against_reference(seed: u64, ops: usize, delay_mask: u64) {
        let mut q = Lockstep::new();
        let mut rng = OpRng(seed);

        for _ in 0..ops {
            let r = rng.next();
            if !r.is_multiple_of(3) || q.cal.len() == 0 {
                // Push a batch with mixed delays.
                let batch = 1 + (r >> 8) % 4;
                for _ in 0..batch {
                    let delay = rng.next() & delay_mask;
                    q.push(q.now + delay, q.seq as u32);
                }
            } else {
                // Pop everything due within a random horizon.
                let horizon = q.now + (rng.next() & delay_mask);
                while q.pop_due(horizon).is_some() {}
            }
        }
        q.drain();
    }

    #[test]
    fn matches_reference_short_delays() {
        // ns-scale delays: everything lands in the wheel.
        check_against_reference(1, 4000, 0x3FF);
    }

    #[test]
    fn matches_reference_mixed_delays() {
        // Up to ~4 ms delays: wheel and far heap both exercised.
        check_against_reference(2, 4000, 0x3F_FFFF);
    }

    #[test]
    fn matches_reference_long_delays() {
        // Up to ~17 s delays: mostly far heap, forces cursor jumps.
        check_against_reference(3, 2000, 0x3_FFFF_FFFF);
    }

    #[test]
    fn matches_reference_across_retunes() {
        // Enough pushes to trigger several retune cycles.
        for seed in 10..14 {
            check_against_reference(seed, 20_000, 0xFFFF);
        }
    }

    #[test]
    fn fifo_ties_pop_in_seq_order() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        for seq in 0..100 {
            q.push(500, seq, seq as u32);
        }
        for expect in 0..100 {
            let e = q.pop_due(u64::MAX).unwrap();
            assert_eq!(e.seq, expect);
        }
        assert!(q.pop_due(u64::MAX).is_none());
    }

    #[test]
    fn pop_due_respects_horizon_without_disturbing() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        q.push(1000, 0, 0);
        q.push(2000, 1, 1);
        assert!(q.pop_due(999).is_none());
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_due(1000).unwrap().at, 1000);
        assert!(q.pop_due(1999).is_none());
        // A push between failed pops must stay ordered.
        q.push(1500, 2, 2);
        assert_eq!(q.pop_due(u64::MAX).unwrap().at, 1500);
        assert_eq!(q.pop_due(u64::MAX).unwrap().at, 2000);
    }

    #[test]
    fn steady_state_cycles_recycle_pool_nodes() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        let mut seq = 0u64;
        for i in 0..16u64 {
            q.push(i * 50, seq, seq as u32);
            seq += 1;
        }
        let high_water = q.nodes.len();
        // A long dequeue->enqueue steady state (through many retune
        // checks) must run entirely off the free list.
        for _ in 0..100_000 {
            let e = q.pop_due(u64::MAX).unwrap();
            q.push(e.at + 50, seq, seq as u32);
            seq += 1;
        }
        assert_eq!(
            q.nodes.len(),
            high_water,
            "slab grew during steady state: pool nodes were not recycled"
        );
        assert_eq!(q.len(), 16);
    }

    #[test]
    fn far_events_become_due_after_cursor_jump() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        // One near event, one far beyond the initial wheel year (64
        // buckets * 256 ns = 16384 ns).
        q.push(100, 0, 0);
        q.push(1_000_000, 1, 1);
        q.push(50_000_000_000, 2, 2); // 50 s out
        assert_eq!(q.pop_due(u64::MAX).unwrap().value, 0);
        assert_eq!(q.pop_due(u64::MAX).unwrap().value, 1);
        // Push near events after the jump; they must pop before the 50 s one.
        q.push(1_000_100, 3, 3);
        assert_eq!(q.pop_due(u64::MAX).unwrap().value, 3);
        assert_eq!(q.pop_due(u64::MAX).unwrap().value, 2);
        assert!(q.pop_due(u64::MAX).is_none());
    }

    // The three shapes the wheel was never measured on, as exact counts.

    /// 20,000 events parked 1-400 ms ahead (a chaos rig's request plan, a
    /// fleet's probes) under 32 chains rescheduling themselves every
    /// 100-900 ns. The parked ones size the wheel, so the live ones sit
    /// hundreds of empty few-ns buckets apart: the bitmap has to make
    /// that a handful of words per pop.
    #[test]
    fn parked_events_do_not_make_pops_scan_the_wheel() {
        let mut q = Lockstep::new();
        let mut rng = OpRng(41);
        for _ in 0..20_000 {
            q.push(1_000_000 + rng.next() % 399_000_000, u32::MAX);
        }
        for chain in 0..32 {
            q.push(100 + rng.next() % 800, chain);
        }
        for _ in 0..100_000 {
            let e = q.pop_due(u64::MAX).unwrap();
            if e.value != u32::MAX {
                q.push(e.at + 100 + rng.next() % 800, e.value);
            }
        }
        let stats = q.stats_after_20_retunes();
        assert!(stats.words_scanned <= 8 * stats.pops, "{stats:?}");
        q.drain();
    }

    /// 64 zero-delay pushes per 100 us tick, a component fanning a burst
    /// out at one instant: one bucket holds them all, each lands past the
    /// tail, and they pop in `seq` order without the list being searched.
    #[test]
    fn same_instant_bursts_append_and_pop_in_seq_order() {
        const TICK: u32 = u32::MAX;
        let mut q = Lockstep::new();
        q.push(0, TICK);
        for _ in 0..2_000 {
            let tick = q.pop_due(u64::MAX).unwrap();
            assert_eq!(tick.value, TICK);
            for i in 0..64 {
                q.push(tick.at, i);
            }
            q.push(tick.at + 100_000, TICK);
            for i in 0..64 {
                let e = q.pop_due(u64::MAX).unwrap();
                assert_eq!((e.at, e.value), (tick.at, i));
            }
        }
        let stats = q.stats_after_20_retunes();
        assert!(stats.insert_steps * 20 <= stats.pushes, "{stats:?}");
        q.drain();
    }

    /// `ChaosRig::build`: 24 clients x 800 requests 500 us apart, pushed
    /// client by client with nothing popped, then run. Later clients land
    /// between earlier ones' entries; with the wheel sized by everything
    /// pending that is a short walk, not a sort (sizing it by what the
    /// wheel alone holds would file these 19,200 into 64 buckets).
    #[test]
    fn set_up_pushes_in_client_major_order_walk_short_lists() {
        let mut q = Lockstep::new();
        let mut rng = OpRng(43);
        for _round in 0..5 {
            let base = q.now;
            for client in 0..24 {
                let phase = rng.next() % 500_000;
                for k in 0..800 {
                    q.push(base + phase + k * 500_000, client);
                }
            }
            q.drain();
        }
        let stats = q.stats_after_20_retunes();
        assert!(stats.insert_steps <= 2 * stats.pushes, "{stats:?}");
    }
}
