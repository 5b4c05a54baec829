//! Conservative parallel execution: one simulation, many shards.
//!
//! A [`ShardedEngine`] is the executor in front of every run. Unsharded
//! it holds one plain [`Engine`] and adds nothing. Partitioned, it deals
//! that engine's components out to *shards* — each shard is itself an
//! [`Engine`], running the same dispatch loop over its own calendar
//! queue, switched into a *routed* state (`Routed`: per-component send
//! counters and random streams, outboxes, cut-class counters) — and
//! advances them together in conservative time windows (classic
//! CMB-style null-message-free synchronization):
//!
//! 1. every shard publishes the due time of its earliest pending event
//!    (local queue minimum plus the minimum over events it just flushed
//!    to other shards), and a *cut ETA* — a lower bound on when any of
//!    its pending events could cause a cross-shard arrival;
//! 2. one sense-reversing barrier makes the published values visible;
//!    every worker then computes the same window `[T, E)` from them:
//!    `T` is the global minimum next-event time (jumping straight over
//!    idle gaps), and `E` is `T + lookahead` stretched up to the global
//!    cut ETA when every shard's near-cut activity is quiescent;
//! 3. each shard drains its mailbox, processes local events in `[T, E)`,
//!    flushes cross-shard sends into per-destination mailboxes, and
//!    publishes the next round's values before arriving at the barrier
//!    again. One barrier per window, not two.
//!
//! # Window safety
//!
//! The fixed-window argument (PR 6): `lookahead` is a lower bound on the
//! delay of any cross-shard interaction, so an event generated at
//! `t >= T` for another shard lands at `t + lookahead >= T + lookahead`,
//! outside the window `[T, T + lookahead)`.
//!
//! The adaptive extension generalizes this with per-component **cut
//! excess** values. `cut_excess[c]` is a lower bound on the time between
//! an event being processed *at component `c`* and the earliest
//! cross-shard arrival any causal chain it starts can produce (the final
//! cut-crossing hop included). The fixed argument is the degenerate case
//! `cut_excess ≡ lookahead`. Given a sound excess table, any window end
//!
//! ```text
//! E  <=  min over pending events e of (at(e) + cut_excess[dest(e)])
//! ```
//!
//! is safe: every cross-shard arrival caused by this window lands at or
//! beyond `E`. Shards do not track that minimum per event; they bucket
//! components into a handful of excess *classes* and keep one queued-event
//! counter per class, publishing `next_at + min(excess of non-empty
//! classes)` — a lower bound on the true minimum, hence conservative.
//! In-flight cross-shard events are covered by the *sender* publishing
//! the minimum ETA over what it just flushed. The send-time lookahead
//! assert still runs against the (extended) window end, so an excess
//! table that overstates a component's distance to the cut fails loudly,
//! exactly like an overstated lookahead.
//!
//! Plans without an excess table get `cut_excess ≡ lookahead`, which
//! reproduces the fixed windows byte-for-byte even in adaptive mode.
//!
//! # Determinism, independent of shard count
//!
//! Fingerprints must be byte-identical for a given seed whether the run
//! uses 1, 2, 4 or 8 shards — and whichever window policy is in force.
//! Three mechanisms make that hold:
//!
//! * **Invariant tie-break keys.** Same-timestamp events are ordered by a
//!   key derived from the *sending component* and its private send
//!   counter (`(time, source, source-seq)`), not from any global or
//!   per-shard submission counter. The key of an event therefore depends
//!   only on the causal history of its sender — which the shard layout
//!   never changes — so every component consumes its incoming events in
//!   the same order under any partitioning. (A per-shard `(time, seq,
//!   shard)` key would *not* survive re-partitioning: both the counter
//!   values and the shard ids change with the shard count.)
//! * **Per-component random streams.** Each component draws from its own
//!   stream seeded by `(engine seed, component id)`. A single engine-wide
//!   stream would interleave draws in global dispatch order, which
//!   legitimately differs between shards running concurrently.
//! * **Policy-independent event order.** Window boundaries only decide
//!   *when* events are processed relative to wall-clock, never their
//!   `(time, key)` order, so stretching or splitting windows cannot
//!   change any component-visible state.
//!
//! Consequently a 1-shard partitioned run is the determinism baseline for
//! the routed family. The two families share everything but the key and
//! RNG scheme — one branch in `Context::push` — and that is exactly why
//! they differ (deterministically): an unrouted engine orders same-time
//! events by global FIFO sequence and draws from one stream, and every
//! fingerprint recorded under either scheme depends on it staying so.
//!
//! Worker threads are decoupled from shards: `min(shards, cores)` scoped
//! threads each drive a chunk of shards, so an 8-shard plan still runs
//! correctly (and without barrier spin-waste) on a smaller machine, and
//! a 1-worker run degenerates to a plain sequential loop.

use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::engine::{Component, ComponentId, Engine, EventKind};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Panic message of the operations that only exist under the window
/// protocol.
const UNSHARDED: &str = "the engine is unsharded; call partition() first";

/// `T` alone on 128-byte lines of its own (two 64-byte cache lines,
/// because x86 prefetchers fetch lines in adjacent pairs). State one
/// worker writes every window must not share a line with state another
/// worker touches, or the line bounces between the cores on every write
/// (false sharing; DESIGN.md, "Conservative parallel engine", has its
/// measured cost). [`Engine`] and [`Routed`] carry the same alignment as
/// an attribute.
#[derive(Default)]
#[repr(align(128))]
struct CachePadded<T>(T);

impl<T> Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// One mailbox slot: the events one shard flushed to another.
type Mailbox<M> = CachePadded<Mutex<Vec<RemoteEvent<M>>>>;

/// Low bits of an event key reserved for the per-source send counter.
const SEQ_BITS: u32 = 40;

/// Tie-break key for an event sent by `src` as its `seq`-th send. Keys
/// order events with equal timestamps; they are unique (source ids and
/// per-source counters both are) and invariant under re-partitioning.
/// Bootstrap events scheduled from outside any component use the raw
/// counter (source 0), sorting ahead of all component-sourced keys.
pub(crate) fn source_key(src: ComponentId, seq: u64) -> u64 {
    debug_assert!(seq < 1 << SEQ_BITS, "per-component send counter overflow");
    debug_assert!(
        (src.as_raw() as u64) < (1 << (64 - SEQ_BITS)) - 1,
        "component id exceeds key space"
    );
    ((src.as_raw() as u64 + 1) << SEQ_BITS) | seq
}

/// Per-component random stream seed: a pure function of the engine seed
/// and the component id, so streams are identical under any shard layout.
fn component_seed(engine_seed: u64, id: usize) -> u64 {
    let mut z = engine_seed ^ (id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How the window loop chooses window ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowPolicy {
    /// Stretch windows to the published cut ETA when near-cut activity is
    /// quiescent, and count idle fast-forwards. Off: every window is
    /// exactly one lookahead (the PR-6 protocol on the single-barrier
    /// loop). Either way the processed event order is identical.
    pub adaptive: bool,
    /// Upper bound on the window length, in lookahead multiples. Keeps a
    /// huge excess claim (e.g. a fully shard-local phase) from running one
    /// shard arbitrarily far ahead of a `stop()` or an external observer.
    pub stride_cap: u32,
}

impl WindowPolicy {
    /// Fixed lookahead-sized windows.
    pub fn fixed() -> WindowPolicy {
        WindowPolicy {
            adaptive: false,
            stride_cap: 1,
        }
    }

    /// Adaptive windows with the default stride cap.
    pub fn adaptive() -> WindowPolicy {
        WindowPolicy {
            adaptive: true,
            stride_cap: 16,
        }
    }
}

impl Default for WindowPolicy {
    fn default() -> WindowPolicy {
        WindowPolicy::adaptive()
    }
}

/// Per-shard synchronization counters for one `ShardedEngine`. All
/// values are deterministic for a given (seed, plan, policy) and
/// independent of the worker thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardSyncStats {
    /// Windows this shard participated in (= global rounds).
    pub windows_run: u64,
    /// Windows whose start jumped past the previous window's end — idle
    /// gaps the loop fast-forwarded over instead of spinning through.
    pub windows_fast_forwarded: u64,
    /// Windows stretched beyond one lookahead by quiescent-cut ETAs.
    pub window_extensions: u64,
    /// Cross-shard events this shard sent through its outboxes.
    pub cut_events: u64,
    /// Events this shard dispatched in windows (the 1-shard path counts
    /// its single pass per `run_until` call as one window).
    pub events: u64,
}

/// A cross-shard event parked in an outbox until the window barrier.
pub(crate) struct RemoteEvent<M> {
    pub at: u64,
    pub key: u64,
    pub dest: ComponentId,
    pub kind: EventKind<M>,
}

/// Assignment of every component to a shard, plus the conservative
/// lookahead the partition guarantees — and, optionally, the per-component
/// cut-excess and send-pacing tables adaptive windows are derived from.
///
/// Build one from a topology helper (e.g. `dcnet`'s fabric partitioner)
/// or by hand for custom component graphs. Validity contract: any event
/// a component on shard A schedules for a component on shard B (A ≠ B)
/// must be at least `lookahead` in the future. The engine asserts this
/// at send time.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    shards: u32,
    shard_of: Vec<u32>,
    lookahead: SimDuration,
    /// Per-component cut excess (ns); empty means `lookahead` everywhere
    /// (adaptive mode degenerates to fixed windows).
    cut_excess: Vec<u64>,
    /// Per-component minimum send delay toward other components (ns);
    /// empty means no pacing is declared.
    min_send: Vec<u64>,
}

impl ShardPlan {
    /// Builds a plan mapping component `i` to `shard_of[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero, any entry names a shard out of range,
    /// or a multi-shard plan has zero lookahead.
    pub fn new(shards: u32, shard_of: Vec<u32>, lookahead: SimDuration) -> ShardPlan {
        assert!(shards >= 1, "a plan needs at least one shard");
        assert!(
            shards == 1 || lookahead > SimDuration::ZERO,
            "multi-shard plans need a positive lookahead"
        );
        assert!(
            shard_of.iter().all(|&s| s < shards),
            "shard assignment out of range"
        );
        ShardPlan {
            shards,
            shard_of,
            lookahead,
            cut_excess: Vec::new(),
            min_send: Vec::new(),
        }
    }

    /// Attaches a per-component cut-excess table: `excess[c]` must lower-
    /// bound the delay between an event processed at component `c` and
    /// any cross-shard arrival a causal chain from it can produce.
    /// `SimDuration::MAX` marks a component whose events can never reach
    /// a cut (a fully shard-local subgraph).
    ///
    /// # Panics
    ///
    /// Panics if the table length disagrees with the plan or any entry is
    /// below the lookahead (the universal floor: every cross-shard
    /// arrival already pays at least one cut-crossing hop).
    pub fn with_cut_excess(mut self, excess: Vec<SimDuration>) -> ShardPlan {
        assert_eq!(
            excess.len(),
            self.shard_of.len(),
            "cut-excess table covers {} components but the plan has {}",
            excess.len(),
            self.shard_of.len(),
        );
        if self.shards > 1 {
            assert!(
                excess.iter().all(|&e| e >= self.lookahead),
                "cut excess below the plan lookahead: the lookahead is a \
                 universal lower bound on cross-shard arrival delay"
            );
        }
        self.cut_excess = excess.iter().map(|e| e.as_nanos()).collect();
        self
    }

    /// Declares per-component minimum send delays: component `c` promises
    /// every event it schedules for *another* component to be at least
    /// `floor[c]` in the future (self-sends and timers are exempt — a
    /// chain that leaves the component still pays the floor once). The
    /// engine asserts the promise at send time; cut-excess tables may
    /// rely on it.
    ///
    /// # Panics
    ///
    /// Panics if the table length disagrees with the plan.
    pub fn with_min_send_delay(mut self, floor: Vec<SimDuration>) -> ShardPlan {
        assert_eq!(
            floor.len(),
            self.shard_of.len(),
            "min-send table covers {} components but the plan has {}",
            floor.len(),
            self.shard_of.len(),
        );
        self.min_send = floor.iter().map(|f| f.as_nanos()).collect();
        self
    }
}

/// The plan in dispatch-ready form, shared by every shard: the component
/// → shard map, components bucketed into excess classes (one queued-event
/// counter per class is cheaper than a per-event priority structure) and
/// the pacing floors.
pub(crate) struct PlanTables {
    pub shard_of: Vec<u32>,
    /// Cut-excess class of every component.
    pub cut_class: Vec<u16>,
    /// Excess value (ns) of every class.
    pub class_excess: Vec<u64>,
    /// Declared per-component minimum send delay (ns) toward *other*
    /// components; the excess table is only sound if these hold, so they
    /// are asserted per send.
    pub min_send: Vec<u64>,
}

impl PlanTables {
    fn build(plan: ShardPlan, ncomp: usize) -> PlanTables {
        let lookahead = plan.lookahead.as_nanos();
        let (cut_class, class_excess) = if plan.cut_excess.is_empty() {
            (vec![0u16; ncomp], vec![lookahead])
        } else {
            let mut distinct: Vec<u64> = plan.cut_excess.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert!(
                distinct.len() <= u16::MAX as usize,
                "too many distinct cut-excess values"
            );
            let class = |e: u64| distinct.binary_search(&e).expect("value present") as u16;
            (
                plan.cut_excess.iter().map(|&e| class(e)).collect(),
                distinct,
            )
        };
        let min_send = if plan.min_send.is_empty() {
            vec![0u64; ncomp]
        } else {
            plan.min_send
        };
        PlanTables {
            shard_of: plan.shard_of,
            cut_class,
            class_excess,
            min_send,
        }
    }
}

/// What a shard owns beyond a plain [`Engine`]: per-component send
/// counters and random streams (lent to each dispatch as the `Context`'s
/// own), and the routing state below. An engine whose `routed` slot holds
/// one of these *is* a shard; its queue, component table and dispatch
/// loop are the engine's own. Aligned like [`CachePadded`]: every
/// dispatch writes it, and the shards' boxes are allocated one after
/// another.
#[repr(align(128))]
pub(crate) struct Routed<M> {
    src_seq: Vec<u64>,
    rngs: Vec<SimRng>,
    route: ShardRoute<M>,
}

/// The routing state [`Context`] sends through while a shard dispatches:
/// maps destinations to shards, collects cross-shard sends, and maintains
/// the per-class queued-event counters the adaptive window end is
/// computed from.
pub(crate) struct ShardRoute<M> {
    pub my_shard: u32,
    pub plan: Arc<PlanTables>,
    /// Exclusive end of the window being run; cross-shard events must
    /// land at or beyond it (the lookahead/cut-excess guarantee). `MAX`
    /// on the sequential one-shard path, which has no cut to guard.
    pub window_end: u64,
    /// One outbox per destination shard.
    pub outboxes: Vec<Vec<RemoteEvent<M>>>,
    /// Queued events per cut-excess class (mirrors the queue's contents).
    pub cut_counts: Vec<u64>,
    /// Minimum `at` / `at + excess(dest)` over remote events pushed since
    /// the last publish; reset to `MAX` every round.
    pub out_min_at: u64,
    pub out_min_eta: u64,
    pub sync: ShardSyncStats,
}

impl<M> Routed<M> {
    fn new(seed: u64, my_shard: usize, nshards: usize, plan: &Arc<PlanTables>) -> Routed<M> {
        let ncomp = plan.shard_of.len();
        Routed {
            src_seq: vec![0; ncomp],
            rngs: (0..ncomp)
                .map(|i| SimRng::seed_from(component_seed(seed, i)))
                .collect(),
            route: ShardRoute {
                my_shard: my_shard as u32,
                plan: Arc::clone(plan),
                window_end: u64::MAX,
                outboxes: (0..nshards).map(|_| Vec::new()).collect(),
                cut_counts: vec![0; plan.class_excess.len()],
                out_min_at: u64::MAX,
                out_min_eta: u64::MAX,
                sync: ShardSyncStats::default(),
            },
        }
    }

    /// Accounts for the pop of an event addressed to `dest` and lends out
    /// what its dispatch needs: the component's own send counter and
    /// random stream, and the routing state.
    pub(crate) fn enter(
        &mut self,
        dest: ComponentId,
    ) -> (&mut u64, &mut SimRng, Option<&mut ShardRoute<M>>) {
        let idx = dest.as_raw();
        let route = &mut self.route;
        route.cut_counts[route.plan.cut_class[idx] as usize] -= 1;
        (&mut self.src_seq[idx], &mut self.rngs[idx], Some(route))
    }
}

/// The window-protocol side of a shard: what a routed [`Engine`] does
/// between dispatches. Only the shards of a partitioned engine get here.
impl<M: 'static> Engine<M> {
    fn route_mut(&mut self) -> &mut ShardRoute<M> {
        let routed = self.routed.as_deref_mut();
        &mut routed.expect("shard engines are routed").route
    }

    /// Queues an event under an explicit key, keeping a shard's class
    /// counters in sync.
    pub(crate) fn push_keyed(&mut self, at: u64, key: u64, dest: ComponentId, kind: EventKind<M>) {
        if let Some(routed) = self.routed.as_deref_mut() {
            let route = &mut routed.route;
            route.cut_counts[route.plan.cut_class[dest.as_raw()] as usize] += 1;
        }
        self.queue.push(at, key, (dest, kind));
    }

    /// A lower bound on `min over queued events e of (at(e) + excess(e))`:
    /// every queued event is at or after the queue head, so the head time
    /// plus the smallest excess among non-empty classes bounds them all.
    fn eta_floor(&mut self) -> u64 {
        let Some(next) = self.queue.next_at() else {
            return u64::MAX;
        };
        let route = self.route_mut();
        let mut excess = u64::MAX;
        for (class, &count) in route.cut_counts.iter().enumerate() {
            if count > 0 {
                excess = excess.min(route.plan.class_excess[class]);
            }
        }
        next.saturating_add(excess)
    }

    /// Publishes this shard's queue head and cut-ETA floor into its slot
    /// of `buf`, with `(out_at, out_eta)` as its in-flight contribution
    /// (the minima over what it just flushed) and `events` as the count
    /// it dispatched in the window just run.
    fn publish(&mut self, buf: &RoundBuf, (out_at, out_eta): (u64, u64), events: u64) {
        let next_at = self.queue.next_at().unwrap_or(u64::MAX);
        let eta = self.eta_floor();
        let slot = &buf[self.route_mut().my_shard as usize];
        slot.next_at.store(next_at, Ordering::Release);
        slot.out_next.store(out_at, Ordering::Release);
        slot.eta.store(eta, Ordering::Release);
        slot.out_eta.store(out_eta, Ordering::Release);
        slot.events.store(events, Ordering::Release);
    }

    /// Publishes this shard's outboxes into its mailbox row, swapping
    /// buffers so capacity circulates instead of being reallocated, and
    /// returns (and resets) the minima over what was flushed.
    fn flush_outboxes(&mut self, mail: &[Mailbox<M>]) -> (u64, u64) {
        let route = self.route_mut();
        let nshards = route.outboxes.len();
        let me = route.my_shard as usize;
        for (dst, outbox) in route.outboxes.iter_mut().enumerate() {
            if outbox.is_empty() {
                continue;
            }
            let mut slot = mail[me * nshards + dst].lock().expect("mailbox poisoned");
            if slot.is_empty() {
                std::mem::swap(&mut *slot, outbox);
            } else {
                slot.append(outbox);
            }
        }
        (
            std::mem::replace(&mut route.out_min_at, u64::MAX),
            std::mem::replace(&mut route.out_min_eta, u64::MAX),
        )
    }

    /// Drains the mailboxes addressed to this shard into its queue. Given
    /// the values published for this window, it skips a source whose
    /// `out_next` is `MAX`: that source flushed nothing last window, so
    /// its slot is empty and need not be locked. Without them (run entry,
    /// merge) it drains every slot.
    fn drain_mail(&mut self, mail: &[Mailbox<M>], published: Option<&RoundBuf>) {
        let route = self.route_mut();
        let (nshards, me) = (route.outboxes.len(), route.my_shard as usize);
        for src in 0..nshards {
            let flushed_nothing =
                |buf: &RoundBuf| buf[src].out_next.load(Ordering::Acquire) == u64::MAX;
            if published.is_some_and(flushed_nothing) {
                continue;
            }
            let mut slot = mail[src * nshards + me].lock().expect("mailbox poisoned");
            for ev in slot.drain(..) {
                self.push_keyed(ev.at, ev.key, ev.dest, ev.kind);
            }
        }
    }
}

/// A reusable, spin-then-yield barrier. `std::sync::Barrier` parks
/// threads through a mutex/condvar pair — microseconds per crossing —
/// which would dwarf the sub-microsecond windows conservative lookahead
/// produces; this one stays in userspace while peers are close behind.
/// Each counter has its lines to itself: arrivals write `arrived` while
/// the waiters spin on `generation`.
struct SpinBarrier {
    n: usize,
    arrived: CachePadded<AtomicUsize>,
    generation: CachePadded<AtomicUsize>,
    /// Set when a worker unwinds: it will never arrive, so its peers must
    /// stop waiting for it.
    poisoned: AtomicBool,
}

impl SpinBarrier {
    fn new(n: usize) -> SpinBarrier {
        SpinBarrier {
            n,
            arrived: CachePadded::default(),
            generation: CachePadded::default(),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Waits for every worker; `false` means a peer panicked and the
    /// caller must abandon the run instead of computing another window.
    fn wait(&self) -> bool {
        if self.n == 1 {
            return true;
        }
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.arrived.store(0, Ordering::Relaxed);
            self.generation
                .store(generation.wrapping_add(1), Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == generation {
                if self.poisoned.load(Ordering::Acquire) {
                    return false;
                }
                spins += 1;
                if spins < 128 {
                    std::hint::spin_loop();
                } else {
                    // Oversubscribed (more workers than cores): let the
                    // peer holding the core finish its window.
                    std::thread::yield_now();
                }
            }
        }
        true
    }
}

/// Held by each worker thread: poisons the barrier if the worker unwinds
/// (lookahead or pacing violation, any component panic), so its peers
/// return instead of spinning on a barrier that can never fill.
struct PoisonOnPanic<'a>(&'a SpinBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poisoned.store(true, Ordering::Release);
        }
    }
}

/// What one shard publishes for the next round, on lines of its own.
#[derive(Default)]
struct Published {
    /// Earliest pending event in the shard's queue (`MAX` when idle).
    next_at: AtomicU64,
    /// Earliest event the shard flushed to a mailbox last window (`MAX`
    /// if none) — in-flight events not yet in any queue.
    out_next: AtomicU64,
    /// The shard's queued-events cut-ETA floor ([`Engine::eta_floor`]).
    eta: AtomicU64,
    /// Minimum cut ETA over the shard's just-flushed events.
    out_eta: AtomicU64,
    /// Events the shard dispatched last window.
    events: AtomicU64,
}

/// One round's published values, one slot per shard. Two of these
/// alternate by round parity: workers read round `p` from `bufs[p]` and
/// publish round `p+1` into `bufs[p^1]`, so a worker racing ahead after
/// the (single) barrier never overwrites values a peer is still reading.
type RoundBuf = Vec<CachePadded<Published>>;

/// One parallel run, shared by its workers: the constants every worker
/// computes windows from, and what they synchronize through.
struct Run<'a, M> {
    horizon_excl: u64,
    lookahead: u64,
    /// Maximum window length in ns (`stride_cap * lookahead`, saturated).
    cap: u64,
    adaptive: bool,
    barrier: SpinBarrier,
    bufs: &'a [RoundBuf; 2],
    stop: AtomicBool,
    /// `nshards * nshards` mailbox slots, indexed `src * nshards + dst`.
    mail: &'a [Mailbox<M>],
    /// When recording, every executed window's `(start, end)`.
    window_log: Option<&'a Mutex<Vec<(u64, u64)>>>,
}

/// The single-barrier window loop one worker thread runs over its chunk
/// of shards (`leader` marks the worker that records windows). Per round:
/// compute `[T, E)` from the values published before the last barrier,
/// drain mail, dispatch the window, flush outboxes, publish next round's
/// values into the other parity buffer, barrier.
///
/// Returns the rounds run and the critical path (the sum over rounds of
/// the largest per-shard event count). Every worker reads the same
/// published values, so every worker returns the same pair.
fn worker_loop<M: 'static>(shards: &mut [Engine<M>], leader: bool, run: &Run<'_, M>) -> (u64, u64) {
    // Entry: deliver mail left in flight by a previous `run_until` call
    // (its last window may have flushed events it never got to drain),
    // then publish the initial state into the parity-0 buffer.
    for shard in shards.iter_mut() {
        shard.drain_mail(run.mail, None);
        shard.publish(&run.bufs[0], (u64::MAX, u64::MAX), 0);
    }
    let mut parity = 0usize;
    let mut prev_end: Option<u64> = None;
    let (mut rounds, mut critical_path) = (0u64, 0u64);
    while run.barrier.wait() {
        // Every worker computes the same window from the same published
        // values, so all of them agree without a leader.
        let cur = &run.bufs[parity];
        let mut window_start = u64::MAX;
        let mut eta = u64::MAX;
        let mut busiest = 0;
        for slot in cur {
            window_start = window_start
                .min(slot.next_at.load(Ordering::Acquire))
                .min(slot.out_next.load(Ordering::Acquire));
            eta = eta
                .min(slot.eta.load(Ordering::Acquire))
                .min(slot.out_eta.load(Ordering::Acquire));
            busiest = busiest.max(slot.events.load(Ordering::Acquire));
        }
        // The window the values came from ends here, even if no new one
        // starts.
        critical_path += busiest;
        if window_start >= run.horizon_excl || run.stop.load(Ordering::Acquire) {
            break;
        }
        let floor = window_start.saturating_add(run.lookahead);
        let window_end = if run.adaptive {
            // `eta >= floor` for sound tables (excess >= lookahead and
            // every pending event is at or after `window_start`); the max
            // is a defensive clamp, never a correctness requirement.
            eta.max(floor)
        } else {
            floor
        }
        .min(window_start.saturating_add(run.cap))
        .min(run.horizon_excl);
        let extended = window_end > floor.min(run.horizon_excl);
        let fast_forwarded = prev_end.is_some_and(|end| window_start > end);
        prev_end = Some(window_end);
        rounds += 1;
        if let Some(log) = run.window_log.filter(|_| leader) {
            log.lock()
                .expect("window log poisoned")
                .push((window_start, window_end));
        }
        let mut stopped = false;
        for shard in shards.iter_mut() {
            shard.drain_mail(run.mail, Some(cur));
            // Local events with `at < window_end`; cross-shard sends
            // must land at or beyond it.
            shard.route_mut().window_end = window_end;
            let events = shard.dispatch(window_end - 1);
            let flushed = shard.flush_outboxes(run.mail);
            shard.publish(&run.bufs[parity ^ 1], flushed, events);
            let stats = &mut shard.route_mut().sync;
            stats.windows_run += 1;
            stats.window_extensions += extended as u64;
            stats.windows_fast_forwarded += fast_forwarded as u64;
            stats.events += events;
            stopped |= shard.stopped;
        }
        if stopped {
            run.stop.store(true, Ordering::Release);
        }
        parity ^= 1;
    }
    (rounds, critical_path)
}

/// Everything the window protocol needs and an unsharded engine does
/// not: allocated by [`ShardedEngine::partition`], dropped by
/// [`ShardedEngine::merge`].
struct Partition<M> {
    plan: Arc<PlanTables>,
    lookahead: SimDuration,
    policy: WindowPolicy,
    /// The global clock; each shard's own `now` is the time of the last
    /// event it processed.
    now: SimTime,
    /// The build-phase global stream, preserved for the merge.
    build_rng: SimRng,
    boot_seq: u64,
    rounds: u64,
    /// Sum over rounds of the largest per-shard event count.
    critical_path: u64,
    worker_cap: Option<usize>,
    /// Persistent mailbox + published-value buffers so repeated runs
    /// reuse warm capacity instead of reallocating.
    mail: Vec<Mailbox<M>>,
    bufs: [RoundBuf; 2],
    /// `Some` while window recording is on; every executed multi-shard
    /// window's `(start, end)` in order.
    window_log: Option<Vec<(u64, u64)>>,
}

/// The executor: one simulation behind [`Engine`]'s run/schedule/
/// component-access surface, in one of two states.
///
/// * **Unsharded** ([`ShardedEngine::unsharded`]): exactly one plain,
///   unrouted [`Engine`], reachable through [`ShardedEngine::engine`] /
///   [`ShardedEngine::engine_mut`]; `run_until` is `Engine::run_until`.
///   Nothing of the window protocol is allocated.
/// * **Partitioned** ([`ShardedEngine::partition`]): one routed engine
///   per shard, advanced together in conservative windows.
///   [`ShardedEngine::merge`] collapses them back.
///
/// Unsupported while partitioned (asserted by `partition`): observers and
/// tie-break salts; the engine-global RNG stream is parked until the
/// merge.
pub struct ShardedEngine<M> {
    /// The sole engine when unsharded, one routed engine per shard when
    /// partitioned.
    engines: Vec<Engine<M>>,
    part: Option<Partition<M>>,
}

impl<M: Send + 'static> ShardedEngine<M> {
    /// Wraps a built engine without partitioning it.
    pub fn unsharded(engine: Engine<M>) -> ShardedEngine<M> {
        ShardedEngine {
            engines: vec![engine],
            part: None,
        }
    }

    /// [`ShardedEngine::unsharded`] followed by [`ShardedEngine::partition`].
    pub fn from_engine(engine: Engine<M>, plan: ShardPlan) -> ShardedEngine<M> {
        let mut sharded = ShardedEngine::unsharded(engine);
        sharded.partition(plan);
        sharded
    }

    /// [`ShardedEngine::merge`], then hands the sole engine out.
    pub fn into_engine(mut self) -> Engine<M> {
        self.merge();
        self.engines.pop().expect("unsharded: exactly one engine")
    }

    /// The sole engine while unsharded, `None` while partitioned.
    pub fn engine(&self) -> Option<&Engine<M>> {
        self.engines.first().filter(|_| self.part.is_none())
    }

    /// The sole engine while unsharded, `None` while partitioned.
    pub fn engine_mut(&mut self) -> Option<&mut Engine<M>> {
        self.engines.first_mut().filter(|_| self.part.is_none())
    }

    /// Deals the sole engine's components and pending events out to the
    /// shards of `plan`. The window policy starts at
    /// [`WindowPolicy::default`] (adaptive); change it with
    /// [`ShardedEngine::set_window_policy`].
    ///
    /// # Panics
    ///
    /// Panics if already partitioned, the plan's length disagrees with
    /// the component count, an observer is attached, or a tie-break salt
    /// is set (neither is supported under sharded execution).
    pub fn partition(&mut self, plan: ShardPlan) {
        assert!(self.part.is_none(), "already partitioned; merge first");
        let engine = &self.engines[0];
        let ncomp = engine.components.len();
        assert_eq!(
            plan.shard_of.len(),
            ncomp,
            "shard plan covers {} components but the engine has {}",
            plan.shard_of.len(),
            ncomp,
        );
        assert!(
            engine.observer.is_none(),
            "observers are not supported under sharded execution; detach first"
        );
        assert_eq!(
            engine.tie_break_salt, 0,
            "tie-break salts are not supported under sharded execution"
        );
        let mut engine = self.engines.pop().expect("unsharded: exactly one engine");
        let nshards = plan.shards as usize;
        let lookahead = plan.lookahead;
        let plan = Arc::new(PlanTables::build(plan, ncomp));
        self.engines = (0..nshards)
            .map(|s| {
                let mut shard = Engine::new(engine.seed());
                shard.now = engine.now;
                shard.components = (0..ncomp).map(|_| None).collect();
                shard.routed = Some(Box::new(Routed::new(engine.seed(), s, nshards, &plan)));
                shard
            })
            .collect();
        // Shard 0 carries what has no per-shard meaning, so totals over
        // the shards stay the simulation's totals.
        self.engines[0].events_processed = engine.events_processed;
        self.engines[0].stopped = engine.stopped;
        for (i, slot) in engine.components.drain(..).enumerate() {
            if let Some(component) = slot {
                self.engines[plan.shard_of[i] as usize].components[i] = Some(component);
            }
        }
        // Pending events become bootstrap events under the fifo keys they
        // already have: unique, in their relative order, and below every
        // component-sourced key. Keeping them (rather than renumbering)
        // means a timer key reserved before the partition still compares
        // against them exactly as the timer itself would have. A series
        // keeps its reserved keys too (all below `boot_seq`), and its
        // shard walks them as the engine would have.
        let boot_seq = engine.seq;
        assert!(
            boot_seq < 1 << SEQ_BITS,
            "submission counter exceeds the bootstrap key space"
        );
        while let Some(ev) = engine.queue.pop_due(u64::MAX) {
            let (dest, kind) = ev.value;
            let series = match &kind {
                EventKind::Series(series) => Some((series.salt, series.left)),
                _ => None,
            };
            assert!(
                ev.seq < boot_seq && series.is_none_or(|(salt, _)| salt == 0),
                "a pending event was keyed under a tie-break salt"
            );
            let shard = &mut self.engines[plan.shard_of[dest.as_raw()] as usize];
            shard.series_backlog += series.map_or(0, |(_, left)| left);
            shard.push_keyed(ev.at, ev.seq, dest, kind);
        }
        self.part = Some(Partition {
            plan,
            lookahead,
            policy: WindowPolicy::default(),
            now: engine.now,
            build_rng: engine.rng,
            boot_seq,
            rounds: 0,
            critical_path: 0,
            worker_cap: None,
            mail: (0..nshards * nshards).map(|_| Mailbox::default()).collect(),
            bufs: std::array::from_fn(|_| (0..nshards).map(|_| CachePadded::default()).collect()),
            window_log: None,
        });
    }

    /// Merges the shards back into the sole unrouted engine; a no-op
    /// when unsharded. Pending events are re-keyed FIFO in global
    /// `(time, key)` order, so the merged engine pops them exactly as the
    /// shards would have. A pending series is first materialised — each
    /// remaining message built and keyed as eager scheduling would have
    /// left it — so the re-keying sees exactly those events.
    pub fn merge(&mut self) {
        let Some(part) = self.part.take() else {
            return;
        };
        let mut merged = Engine::new(self.engines[0].seed());
        merged.now = part.now;
        merged.rng = part.build_rng;
        merged.events_processed = self.events_processed();
        merged.stopped = self.is_stopped();
        merged.components = (0..part.plan.shard_of.len()).map(|_| None).collect();
        let mut pending = Vec::new();
        for shard in &mut self.engines {
            // Undelivered cross-shard mail is still pending work.
            shard.drain_mail(&part.mail, None);
            while let Some(ev) = shard.queue.pop_due(u64::MAX) {
                let (dest, kind) = ev.value;
                let EventKind::Series(mut series) = kind else {
                    pending.push((ev.at, ev.seq, (dest, kind)));
                    continue;
                };
                let mut next = Some((ev.at, ev.seq));
                while let Some((at, key)) = next {
                    pending.push((at, key, (dest, EventKind::Message(series.make()))));
                    next = series.advance(at);
                }
            }
            for (slot, own) in merged.components.iter_mut().zip(&mut shard.components) {
                if own.is_some() {
                    *slot = own.take();
                }
            }
        }
        pending.sort_by_key(|&(at, key, _)| (at, key));
        for (at, _, (dest, kind)) in pending {
            merged.push(SimTime::from_nanos(at), dest, kind);
        }
        self.engines.clear();
        self.engines.push(merged);
    }

    /// The partition state, for operations that only mean something
    /// under the window protocol.
    fn part_mut(&mut self) -> &mut Partition<M> {
        self.part.as_mut().expect(UNSHARDED)
    }

    /// Number of shards (1 while unsharded).
    pub fn shard_count(&self) -> usize {
        self.engines.len()
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        match &self.part {
            Some(part) => part.now,
            None => self.engines[0].now,
        }
    }

    /// Total events dispatched, including those before partitioning.
    pub fn events_processed(&self) -> u64 {
        self.engines.iter().map(|e| e.events_processed).sum()
    }

    /// Events still pending across all queues, counted as
    /// [`Engine::pending_events`] counts them (every message a series has
    /// yet to dispatch).
    pub fn pending_events(&self) -> usize {
        self.engines.iter().map(Engine::pending_events).sum()
    }

    /// Synchronization rounds since partitioning (diagnostic: events per
    /// round is the parallelism-versus-overhead figure of merit): one per
    /// window on several shards, one per `run_until` call on one shard,
    /// which runs no windows; 0 while unsharded.
    pub fn rounds(&self) -> u64 {
        self.part.as_ref().map_or(0, |part| part.rounds)
    }

    /// The run's critical path in events since partitioning: the sum over
    /// rounds of the largest event count any one shard dispatched in that
    /// round. No number of cores can dispatch those rounds faster than
    /// their busiest shards, so the sum of
    /// [`ShardSyncStats::events`] over this is an upper bound on the
    /// speedup the window protocol allows. Deterministic for a given
    /// (seed, plan, policy) and independent of the worker thread count;
    /// 0 while unsharded.
    pub fn critical_path(&self) -> u64 {
        self.part.as_ref().map_or(0, |part| part.critical_path)
    }

    /// The window policy in force.
    ///
    /// # Panics
    ///
    /// Panics while unsharded.
    pub fn window_policy(&self) -> WindowPolicy {
        self.part.as_ref().expect(UNSHARDED).policy
    }

    /// Overrides the window policy (fixed vs adaptive, stride cap).
    /// Event order — and therefore every fingerprint — is policy-
    /// independent; only window counts and wall-clock change.
    ///
    /// # Panics
    ///
    /// Panics while unsharded.
    pub fn set_window_policy(&mut self, policy: WindowPolicy) {
        self.part_mut().policy = WindowPolicy {
            adaptive: policy.adaptive,
            stride_cap: policy.stride_cap.max(1),
        };
    }

    /// Per-shard synchronization counters (windows, fast-forwards,
    /// extensions, cross-shard events); empty while unsharded.
    /// Deterministic for a given (seed, plan, policy); independent of
    /// the worker thread count.
    pub fn sync_stats(&self) -> Vec<ShardSyncStats> {
        let routed = self.engines.iter().filter_map(|e| e.routed.as_deref());
        routed.map(|r| r.route.sync).collect()
    }

    /// Worker threads the next run will use: `min(shards, cores)` unless
    /// capped, so 1 while unsharded.
    pub fn effective_workers(&self) -> usize {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let cap = self.part.as_ref().and_then(|part| part.worker_cap);
        cap.unwrap_or(cores).min(self.engines.len()).max(1)
    }

    /// Starts (or stops) recording every executed window's
    /// `(start, end)`. Recording is for tests and diagnostics; the
    /// sequential 1-shard path runs no windows and records nothing.
    ///
    /// # Panics
    ///
    /// Panics while unsharded.
    pub fn record_windows(&mut self, on: bool) {
        let log = &mut self.part_mut().window_log;
        *log = on.then(|| log.take().unwrap_or_default());
    }

    /// The recorded windows so far (empty unless recording is on).
    pub fn window_log(&self) -> &[(u64, u64)] {
        let part = self.part.as_ref();
        part.and_then(|p| p.window_log.as_deref()).unwrap_or(&[])
    }

    /// Whether a component stopped the simulation.
    pub fn is_stopped(&self) -> bool {
        self.engines.iter().any(|e| e.stopped)
    }

    /// Caps the number of worker threads (default: `min(shards, cores)`).
    /// A cap of 1 runs every shard on the calling thread — same results,
    /// no synchronization overhead.
    ///
    /// # Panics
    ///
    /// Panics while unsharded.
    pub fn set_worker_threads(&mut self, workers: usize) {
        self.part_mut().worker_cap = Some(workers.max(1));
    }

    /// Schedules `msg` for `dest` at absolute time `at`. While
    /// partitioned this is a bootstrap event, ordered ahead of component
    /// sends at the same instant.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current simulation time.
    pub fn schedule(&mut self, at: SimTime, dest: ComponentId, msg: M) {
        let Some(part) = &mut self.part else {
            return self.engines[0].schedule(at, dest, msg);
        };
        assert!(at >= part.now, "cannot schedule into the past");
        debug_assert!(part.boot_seq < 1 << SEQ_BITS);
        let shard = part.plan.shard_of[dest.as_raw()] as usize;
        let kind = EventKind::Message(msg);
        self.engines[shard].push_keyed(at.as_nanos(), part.boot_seq, dest, kind);
        part.boot_seq += 1;
    }

    /// Schedules `msg` for `dest` after `delay` from the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, dest: ComponentId, msg: M) {
        self.schedule(self.now() + delay, dest, msg);
    }

    /// Borrows the concrete component at `id`, if it has type `T`. (A
    /// shard's table is sparse, so only the owning engine answers.)
    pub fn component<T: Component<M>>(&self, id: ComponentId) -> Option<&T> {
        self.engines.iter().find_map(|e| e.component(id))
    }

    /// Mutably borrows the concrete component at `id`, if it has type `T`.
    pub fn component_mut<T: Component<M>>(&mut self, id: ComponentId) -> Option<&mut T> {
        self.engines.iter_mut().find_map(|e| e.component_mut(id))
    }

    /// Number of component slots (populated or not).
    pub fn component_count(&self) -> usize {
        self.engines[0].component_count()
    }

    /// Runs until every queue drains or a component stops the simulation.
    pub fn run_to_idle(&mut self) -> u64 {
        self.run_until(SimTime::MAX)
    }

    /// Runs for `span` of simulated time from the current clock.
    pub fn run_for(&mut self, span: SimDuration) -> u64 {
        let horizon = self.now() + span;
        self.run_until(horizon)
    }

    /// Runs events with timestamps `<= horizon`; the clock is left at the
    /// last processed event (or advanced to `horizon` if it is finite and
    /// the queues drained early). Returns the number of events processed.
    pub fn run_until(&mut self, horizon: SimTime) -> u64 {
        if self.part.is_none() {
            return self.engines[0].run_until(horizon);
        }
        let before = self.events_processed();
        if !self.is_stopped() {
            if self.engines.len() == 1 {
                // One shard: no windows, no barriers — a single pass to
                // the horizon. Event order is identical to the windowed
                // path (it is a pure function of `(time, key)`), making
                // this the determinism baseline and the speedup
                // denominator.
                let shard = &mut self.engines[0];
                let events = shard.dispatch(horizon.as_nanos());
                shard.route_mut().sync.events += events;
                let part = self.part_mut();
                part.rounds += 1;
                part.critical_path += events;
            } else {
                self.run_windows(horizon);
            }
        }
        let stopped = self.is_stopped();
        let last = self.engines.iter().map(|e| e.now).max();
        let part = self.part_mut();
        part.now = part.now.max(last.expect("at least one shard"));
        if !stopped && horizon != SimTime::MAX {
            part.now = part.now.max(horizon);
        }
        self.events_processed() - before
    }

    fn run_windows(&mut self, horizon: SimTime) {
        let nworkers = self.effective_workers();
        let ShardedEngine { engines, part } = self;
        let part = part.as_mut().expect("windows run on a partitioned engine");
        let lookahead = part.lookahead.as_nanos();
        let log = part.window_log.as_ref().map(|_| Mutex::new(Vec::new()));
        let run = &Run {
            horizon_excl: horizon.as_nanos().saturating_add(1),
            lookahead,
            cap: lookahead.saturating_mul(part.policy.stride_cap.max(1) as u64),
            adaptive: part.policy.adaptive,
            barrier: SpinBarrier::new(nworkers),
            bufs: &part.bufs,
            stop: AtomicBool::new(false),
            mail: &part.mail,
            window_log: log.as_ref(),
        };
        let (rounds, critical_path) = if nworkers == 1 {
            worker_loop(engines, true, run)
        } else {
            let joined = std::thread::scope(|scope| {
                let mut rest = &mut engines[..];
                let workers: Vec<_> = (0..nworkers)
                    .map(|worker| {
                        let count = rest.len() / (nworkers - worker);
                        let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(count);
                        rest = tail;
                        scope.spawn(move || {
                            let _poison = PoisonOnPanic(&run.barrier);
                            worker_loop(chunk, worker == 0, run)
                        })
                    })
                    .collect();
                // Join every worker (a panicking one has poisoned the
                // barrier, so the rest return).
                let joined = workers.into_iter().map(|w| w.join());
                joined.collect::<Vec<_>>()
            });
            // Every worker returns the same counts. Re-raise the first
            // worker's panic so the assert text (lookahead / send-pacing
            // violation, …) reaches the caller.
            match joined.into_iter().collect::<Result<Vec<_>, _>>() {
                Ok(counts) => counts[0],
                Err(payload) => std::panic::resume_unwind(payload),
            }
        };
        part.rounds += rounds;
        part.critical_path += critical_path;
        if let Some(log) = log {
            let mut recorded = log.into_inner().expect("window log poisoned");
            part.window_log
                .as_mut()
                .expect("recording enabled")
                .append(&mut recorded);
        }
    }
}

impl<M: 'static> std::fmt::Debug for ShardedEngine<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let part = self.part.as_ref();
        f.debug_struct("ShardedEngine")
            .field("shards", &self.engines.len())
            .field("partitioned", &part.is_some())
            .field("policy", &part.map(|p| p.policy))
            .field("rounds", &part.map(|p| p.rounds))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Context, EventRecord, Observer};

    /// Ping-pong component: replies to its peer after a per-message delay
    /// drawn from its private stream, recording what it saw.
    struct Pinger {
        peer: ComponentId,
        remaining: u64,
        log: Vec<(u64, u64)>,
        draws: u64,
    }

    impl Component<u64> for Pinger {
        fn on_message(&mut self, msg: u64, ctx: &mut Context<'_, u64>) {
            self.log.push((ctx.now().as_nanos(), msg));
            self.draws = self.draws.wrapping_add(ctx.rng().next_u64());
            if self.remaining > 0 {
                self.remaining -= 1;
                let delay = 200 + ctx.rng().next_u64() % 800;
                ctx.send_after(SimDuration::from_nanos(delay), self.peer, msg + 1);
            }
        }
    }

    /// Builds `pairs` ping-pong pairs and returns the engine.
    fn build(seed: u64, pairs: usize, volleys: u64) -> Engine<u64> {
        let mut engine: Engine<u64> = Engine::new(seed);
        for p in 0..pairs {
            let a = ComponentId::from_raw(2 * p);
            let b = ComponentId::from_raw(2 * p + 1);
            engine.add_component(Pinger {
                peer: b,
                remaining: volleys,
                log: Vec::new(),
                draws: 0,
            });
            engine.add_component(Pinger {
                peer: a,
                remaining: volleys,
                log: Vec::new(),
                draws: 0,
            });
            engine.schedule(SimTime::from_nanos(p as u64), a, 0);
        }
        engine
    }

    /// Fingerprint: every component's full receive log and RNG digest.
    fn fingerprint_with<'a>(
        pairs: usize,
        pinger: impl Fn(ComponentId) -> Option<&'a Pinger>,
    ) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for i in 0..2 * pairs {
            let p = pinger(ComponentId::from_raw(i)).unwrap();
            writeln!(out, "c{} draws={} log={:?}", i, p.draws, p.log).unwrap();
        }
        out
    }

    fn fingerprint(engine: &ShardedEngine<u64>, pairs: usize) -> String {
        fingerprint_with(pairs, |id| engine.component(id))
    }

    /// Partitions pairs round-robin; cross-shard traffic never happens
    /// (pairs are colocated), so any positive lookahead is valid.
    fn colocated_plan(pairs: usize, shards: u32) -> ShardPlan {
        let shard_of = (0..2 * pairs).map(|i| (i / 2) as u32 % shards).collect();
        ShardPlan::new(shards, shard_of, SimDuration::from_nanos(100))
    }

    /// Splits each pair across two shards; all traffic is cross-shard
    /// with delay >= 200 ns, so a 200 ns lookahead is valid.
    fn split_plan(pairs: usize, shards: u32) -> ShardPlan {
        let shard_of = (0..2 * pairs)
            .map(|i| ((i % 2) as u32 + 2 * (i as u32 / 2)) % shards)
            .collect();
        ShardPlan::new(shards, shard_of, SimDuration::from_nanos(200))
    }

    #[test]
    fn sharded_results_are_invariant_across_shard_counts() {
        const PAIRS: usize = 8;
        const VOLLEYS: u64 = 300;
        let reference = {
            let mut e =
                ShardedEngine::from_engine(build(42, PAIRS, VOLLEYS), colocated_plan(PAIRS, 1));
            e.run_to_idle();
            fingerprint(&e, PAIRS)
        };
        for shards in [2u32, 3, 4, 8] {
            for plan in [colocated_plan(PAIRS, shards), split_plan(PAIRS, shards)] {
                let mut e = ShardedEngine::from_engine(build(42, PAIRS, VOLLEYS), plan);
                e.run_to_idle();
                assert_eq!(
                    fingerprint(&e, PAIRS),
                    reference,
                    "fingerprint diverged at {shards} shards"
                );
                assert_eq!(e.now(), {
                    let mut r = ShardedEngine::from_engine(
                        build(42, PAIRS, VOLLEYS),
                        colocated_plan(PAIRS, 1),
                    );
                    r.run_to_idle();
                    r.now()
                });
            }
        }
    }

    #[test]
    fn worker_thread_count_does_not_change_results() {
        const PAIRS: usize = 6;
        let mut runs = Vec::new();
        for workers in [1usize, 2, 4] {
            let mut e = ShardedEngine::from_engine(build(7, PAIRS, 200), split_plan(PAIRS, 4));
            e.set_worker_threads(workers);
            e.run_to_idle();
            let counts = (e.rounds(), e.critical_path(), e.sync_stats());
            runs.push((fingerprint(&e, PAIRS), counts));
        }
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
    }

    /// Re-arms itself every `period` until `left` runs out and draws
    /// nothing, so every shard holding one does the same work per window.
    struct Ticker {
        period: SimDuration,
        left: u64,
    }

    impl Component<u64> for Ticker {
        fn on_message(&mut self, msg: u64, ctx: &mut Context<'_, u64>) {
            if self.left > 0 {
                self.left -= 1;
                ctx.send_after(self.period, ctx.id(), msg);
            }
        }
    }

    /// The parallelism bound (events over critical path) is exact: equal
    /// work on every shard bounds the speedup at the shard count, all of
    /// it on one shard (or a single shard) at 1.
    #[test]
    fn critical_path_bounds_the_speedup_exactly() {
        const TICKERS: usize = 4;
        let bound = |shards: u32, shard_of: Vec<u32>| {
            let mut engine = Engine::new(3);
            for _ in 0..TICKERS {
                let id = engine.add_component(Ticker {
                    period: SimDuration::from_nanos(100),
                    left: 500,
                });
                engine.schedule(SimTime::ZERO, id, 0);
            }
            let plan = ShardPlan::new(shards, shard_of, SimDuration::from_nanos(100));
            let mut e = ShardedEngine::from_engine(engine, plan);
            e.run_to_idle();
            let events: u64 = e.sync_stats().iter().map(|s| s.events).sum();
            assert_eq!(events, e.events_processed(), "every event is counted once");
            events as f64 / e.critical_path() as f64
        };
        assert_eq!(bound(4, vec![0, 1, 2, 3]), 4.0);
        assert_eq!(bound(2, vec![0, 1, 0, 1]), 2.0);
        assert_eq!(bound(4, vec![0; TICKERS]), 1.0);
        assert_eq!(bound(1, vec![0; TICKERS]), 1.0);
    }

    /// Every piece of per-shard state a worker writes each window starts
    /// on a 128-byte line and shares none of its lines with another's:
    /// without the padding `sharded_volley` on two workers runs ~15 %
    /// slower (2-core x86-64).
    #[test]
    fn shard_hot_state_sits_on_lines_of_its_own() {
        const LINE: usize = 128;
        fn span<T>(item: &T) -> (usize, usize) {
            (item as *const T as usize, std::mem::size_of::<T>())
        }
        for shards in [2u32, 4] {
            let e = ShardedEngine::from_engine(build(1, 4, 10), colocated_plan(4, shards));
            let part = e.part.as_ref().expect("partitioned");
            let barrier = SpinBarrier::new(2);
            let mut spans = vec![span(&*barrier.arrived), span(&*barrier.generation)];
            for engine in &e.engines {
                spans.push(span(engine));
                spans.push(span(engine.routed.as_deref().expect("shards are routed")));
            }
            spans.extend(part.bufs.iter().flatten().map(span));
            spans.extend(part.mail.iter().map(span));
            spans.sort_unstable();
            for &(addr, _) in &spans {
                assert_eq!(addr % LINE, 0, "{shards} shards: {addr:#x} starts mid-line");
            }
            for pair in spans.windows(2) {
                let ((a, size), (b, _)) = (pair[0], pair[1]);
                assert!(
                    (a + size - 1) / LINE < b / LINE,
                    "{shards} shards: {a:#x} (+{size}) shares a line with {b:#x}"
                );
            }
        }
    }

    #[test]
    fn horizon_and_resume_match_sequential_semantics() {
        const PAIRS: usize = 4;
        let mut sharded = ShardedEngine::from_engine(build(9, PAIRS, 500), split_plan(PAIRS, 4));
        let mut single = ShardedEngine::from_engine(build(9, PAIRS, 500), colocated_plan(PAIRS, 1));
        for horizon in [10_000u64, 50_000, 120_000] {
            let a = sharded.run_until(SimTime::from_nanos(horizon));
            let b = single.run_until(SimTime::from_nanos(horizon));
            assert_eq!(a, b, "events processed up to {horizon} ns");
            assert_eq!(sharded.now(), single.now());
        }
        sharded.run_to_idle();
        single.run_to_idle();
        assert_eq!(fingerprint(&sharded, PAIRS), fingerprint(&single, PAIRS));
        assert_eq!(sharded.events_processed(), single.events_processed());
    }

    /// Counts dispatched events and folds their records into a digest.
    #[derive(Default)]
    struct Tally {
        events: u64,
        digest: u64,
    }

    impl Observer<u64> for Tally {
        fn after_event(&mut self, event: &EventRecord, _engine: &Engine<u64>) {
            self.events += 1;
            let record = event.at.as_nanos() ^ event.index << 40 ^ event.dest.as_raw() as u64;
            self.digest = self.digest.wrapping_mul(0x100_0000_01B3) ^ record;
        }
    }

    /// The unsharded executor is the bare engine: salted tie-breaks, the
    /// engine-global random stream and an attached observer all behave
    /// exactly as on `Engine`, and no window-protocol state exists.
    #[test]
    fn unsharded_executor_is_the_bare_engine() {
        const PAIRS: usize = 4;
        let salted = || {
            let mut e = build(31, PAIRS, 200);
            e.set_tie_break_salt(0xC0FFEE);
            e.set_observer(Box::new(Tally::default()));
            e
        };
        let tally = |e: &Engine<u64>| {
            let t = e.observer_as::<Tally>().expect("observer attached");
            (t.events, t.digest)
        };
        let mut bare = salted();
        let ran_bare = bare.run_until(SimTime::from_nanos(50_000)) + bare.run_to_idle();

        let mut exec = ShardedEngine::unsharded(salted());
        assert_eq!(exec.shard_count(), 1);
        assert_eq!(exec.effective_workers(), 1);
        let ran_exec = exec.run_until(SimTime::from_nanos(50_000)) + exec.run_to_idle();
        assert_eq!((exec.rounds(), exec.sync_stats()), (0, Vec::new()));

        assert_eq!(ran_exec, ran_bare);
        assert_eq!(exec.events_processed(), bare.events_processed());
        assert_eq!(exec.now(), bare.now());
        assert_eq!(
            fingerprint(&exec, PAIRS),
            fingerprint_with(PAIRS, |id| bare.component(id))
        );
        let sole = exec.engine().expect("unsharded: the engine is reachable");
        assert_eq!(tally(sole), tally(&bare));
        assert_eq!(tally(sole).0, ran_exec, "the observer saw every event");
    }

    /// `partition` / `merge` in place are `from_engine` / `into_engine`
    /// by value: same sync counters while partitioned, same simulation
    /// after merging, scheduling and running to idle on the merged engine.
    #[test]
    fn in_place_partition_and_merge_match_the_by_value_wrappers() {
        const PAIRS: usize = 4;
        let horizon = SimTime::from_nanos(40_000);
        let poke = (SimTime::from_nanos(45_000), ComponentId::from_raw(0), 9_000);

        let mut sharded = ShardedEngine::from_engine(build(27, PAIRS, 300), split_plan(PAIRS, 4));
        sharded.run_until(horizon);
        let by_value_sync = (sharded.rounds(), sharded.sync_stats());
        let mut engine = sharded.into_engine();
        engine.schedule(poke.0, poke.1, poke.2);
        engine.run_to_idle();

        let mut exec = ShardedEngine::unsharded(build(27, PAIRS, 300));
        exec.partition(split_plan(PAIRS, 4));
        assert!(exec.engine().is_none(), "partitioned: no sole engine");
        exec.run_until(horizon);
        assert!(by_value_sync.0 > 1, "the horizon spans several windows");
        assert_eq!((exec.rounds(), exec.sync_stats()), by_value_sync);
        exec.merge();
        assert_eq!((exec.rounds(), exec.shard_count()), (0, 1));
        assert!(
            exec.pending_events() > 0,
            "mid-run events survive the merge"
        );
        exec.schedule(poke.0, poke.1, poke.2);
        exec.run_to_idle();

        assert_eq!(
            fingerprint(&exec, PAIRS),
            fingerprint_with(PAIRS, |id| engine.component(id))
        );
        assert_eq!(exec.events_processed(), engine.events_processed());
        assert_eq!(exec.now(), engine.now());
    }

    #[test]
    fn into_engine_round_trips_components_and_pending_events() {
        const PAIRS: usize = 3;
        let mut sharded = ShardedEngine::from_engine(build(5, PAIRS, 100), split_plan(PAIRS, 3));
        sharded.run_until(SimTime::from_nanos(20_000));
        let processed = sharded.events_processed();
        let mut engine = sharded.into_engine();
        assert_eq!(engine.events_processed(), processed);
        assert!(engine.pending_events() > 0, "mid-run events survive");
        engine.run_to_idle();
        // All volleys complete: every pinger exhausted its budget.
        for i in 0..2 * PAIRS {
            let p = engine
                .component::<Pinger>(ComponentId::from_raw(i))
                .unwrap();
            assert_eq!(p.remaining, 0);
        }
    }

    #[test]
    #[should_panic(expected = "lookahead violation")]
    fn undersized_lookahead_is_caught_at_send_time() {
        const PAIRS: usize = 2;
        // Claim 100 us of lookahead for traffic that crosses shards in
        // well under 1 us: the first cross-shard send must trip the guard.
        let shard_of = (0..2 * PAIRS).map(|i| (i % 2) as u32).collect();
        let plan = ShardPlan::new(2, shard_of, SimDuration::from_micros(100));
        let mut e = ShardedEngine::from_engine(build(3, PAIRS, 50), plan);
        // Two worker threads (an explicit cap holds even on one core):
        // the panicking worker must release its peer from the barrier and
        // its own assert message must reach the harness.
        e.set_worker_threads(2);
        e.run_to_idle();
    }

    #[test]
    fn schedule_after_sharding_is_deterministic() {
        let build_and_poke = |shards: u32| {
            let plan = colocated_plan(2, shards);
            let mut e = ShardedEngine::from_engine(build(11, 2, 50), plan);
            e.run_until(SimTime::from_nanos(5_000));
            e.schedule(SimTime::from_nanos(6_000), ComponentId::from_raw(0), 1000);
            e.schedule_after(
                SimDuration::from_nanos(2_000),
                ComponentId::from_raw(2),
                2000,
            );
            e.run_to_idle();
            fingerprint(&e, 2)
        };
        assert_eq!(build_and_poke(1), build_and_poke(2));
    }

    /// Colocated pairs can never reach a cut, so a `MAX` excess table
    /// lets every window stretch to the stride cap: same results, far
    /// fewer rounds than fixed windows.
    #[test]
    fn adaptive_windows_merge_rounds_without_changing_results() {
        const PAIRS: usize = 6;
        const VOLLEYS: u64 = 400;
        let run = |policy: WindowPolicy| {
            let plan = colocated_plan(PAIRS, 4).with_cut_excess(vec![SimDuration::MAX; 2 * PAIRS]);
            let mut e = ShardedEngine::from_engine(build(21, PAIRS, VOLLEYS), plan);
            e.set_window_policy(policy);
            e.run_to_idle();
            (fingerprint(&e, PAIRS), e.rounds(), e.sync_stats())
        };
        let (fixed_fp, fixed_rounds, fixed_stats) = run(WindowPolicy::fixed());
        let (adaptive_fp, adaptive_rounds, adaptive_stats) = run(WindowPolicy::adaptive());
        assert_eq!(adaptive_fp, fixed_fp, "window policy changed results");
        assert!(
            adaptive_rounds * 4 <= fixed_rounds,
            "extension should merge windows: adaptive {adaptive_rounds} vs fixed {fixed_rounds}"
        );
        assert!(
            adaptive_stats.iter().all(|s| s.window_extensions > 0),
            "quiescent cuts never stretched a window: {adaptive_stats:?}"
        );
        assert!(
            fixed_stats.iter().all(|s| s.window_extensions == 0),
            "fixed policy must never extend: {fixed_stats:?}"
        );
        // Counters are per-round and identical across shards.
        for stats in [&fixed_stats, &adaptive_stats] {
            assert!(stats.iter().all(|s| s.windows_run == stats[0].windows_run));
            assert!(
                stats.iter().all(|s| s.cut_events == 0),
                "colocated pairs never cross shards"
            );
        }
    }

    /// With the default (no-table) plan, adaptive mode is byte-identical
    /// to fixed — including the number of windows run.
    #[test]
    fn default_excess_table_degenerates_to_fixed_windows() {
        const PAIRS: usize = 4;
        // The starting policy is a constant, not read from the environment.
        let fresh = ShardedEngine::from_engine(build(13, PAIRS, 200), split_plan(PAIRS, 4));
        assert_eq!(fresh.window_policy(), WindowPolicy::adaptive());
        let run = |policy: WindowPolicy| {
            let mut e = ShardedEngine::from_engine(build(13, PAIRS, 200), split_plan(PAIRS, 4));
            e.set_window_policy(policy);
            e.run_to_idle();
            (fingerprint(&e, PAIRS), e.rounds())
        };
        let (fixed_fp, fixed_rounds) = run(WindowPolicy::fixed());
        let (adaptive_fp, adaptive_rounds) = run(WindowPolicy::adaptive());
        assert_eq!(adaptive_fp, fixed_fp);
        assert_eq!(
            adaptive_rounds, fixed_rounds,
            "lookahead-everywhere excess must not extend windows"
        );
    }

    /// The recorded window log respects the lookahead lower bound and the
    /// stride cap, and fast-forward jumps only skip genuinely idle gaps.
    #[test]
    fn window_log_respects_bounds() {
        const PAIRS: usize = 5;
        let plan = colocated_plan(PAIRS, 4).with_cut_excess(vec![SimDuration::MAX; 2 * PAIRS]);
        let mut e = ShardedEngine::from_engine(build(17, PAIRS, 300), plan);
        e.set_window_policy(WindowPolicy {
            adaptive: true,
            stride_cap: 8,
        });
        e.record_windows(true);
        e.run_to_idle();
        let log = e.window_log();
        assert!(!log.is_empty());
        let lookahead = 100u64;
        let mut prev_end = 0u64;
        for &(start, end) in log {
            assert!(start >= prev_end, "windows overlap: {log:?}");
            assert!(
                end >= start.saturating_add(lookahead),
                "window shorter than lookahead: [{start}, {end})"
            );
            assert!(
                end <= start.saturating_add(8 * lookahead),
                "window beyond stride cap: [{start}, {end})"
            );
            prev_end = end;
        }
    }

    /// A component that violates its declared send pacing trips the
    /// engine's soundness assert.
    #[test]
    #[should_panic(expected = "send-pacing violation")]
    fn pacing_violation_is_caught_at_send_time() {
        const PAIRS: usize = 2;
        // Pingers reply after 200..1000 ns but declare a 5 us floor.
        let plan = colocated_plan(PAIRS, 2)
            .with_min_send_delay(vec![SimDuration::from_micros(5); 2 * PAIRS]);
        let mut e = ShardedEngine::from_engine(build(19, PAIRS, 50), plan);
        // Two workers, as in `undersized_lookahead_is_caught_at_send_time`.
        e.set_worker_threads(2);
        e.run_to_idle();
    }

    /// An excess table below the lookahead is rejected at plan build.
    #[test]
    #[should_panic(expected = "cut excess below the plan lookahead")]
    fn undersized_excess_is_rejected() {
        let _ = colocated_plan(2, 2).with_cut_excess(vec![SimDuration::from_nanos(1); 4]);
    }
}
