//! Conservative parallel execution: one simulation, many shards.
//!
//! A [`ShardedEngine`] partitions the components of a built [`Engine`]
//! across *shards*, each with its own calendar queue and per-component
//! random streams, and advances them together in conservative time
//! windows (classic CMB-style null-message-free synchronization):
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
//! Consequently a 1-shard `ShardedEngine` run is the determinism baseline
//! for the sharded family; it differs (deterministically) from the legacy
//! single-threaded [`Engine`] order, which keeps its exact historical
//! FIFO semantics untouched.
//!
//! Worker threads are decoupled from shards: `min(shards, cores)` scoped
//! threads each drive a chunk of shards, so an 8-shard plan still runs
//! correctly (and without barrier spin-waste) on a smaller machine, and
//! a 1-worker run degenerates to a plain sequential loop.

use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::engine::{Component, ComponentId, Context, Engine, EngineParts, EventKind};
use crate::queue::CalendarQueue;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

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
}

/// A cross-shard event parked in an outbox until the window barrier.
pub(crate) struct RemoteEvent<M> {
    pub at: u64,
    pub key: u64,
    pub dest: ComponentId,
    pub kind: EventKind<M>,
}

/// Routing state handed to [`Context`] while a shard dispatches: maps
/// destinations to shards, collects cross-shard sends, and maintains the
/// per-class queued-event counters the adaptive window end is computed
/// from.
pub(crate) struct ShardRoute<'a, M> {
    pub shard_of: &'a [u32],
    pub my_shard: u32,
    /// Exclusive end of the current window; cross-shard events must land
    /// at or beyond it (the lookahead/cut-excess guarantee).
    pub window_end: u64,
    /// One outbox per destination shard.
    pub outboxes: &'a mut [Vec<RemoteEvent<M>>],
    /// Cut-excess class of every component.
    pub cut_class: &'a [u16],
    /// Excess value (ns) of every class.
    pub class_excess: &'a [u64],
    /// Declared per-component minimum send delay (ns) toward *other*
    /// components; the excess table is only sound if these hold, so they
    /// are asserted per send.
    pub min_send: &'a [u64],
    /// Queued events per cut-excess class on this shard.
    pub cut_counts: &'a mut [u64],
    /// Minimum `at` over remote events pushed this window.
    pub out_min_at: &'a mut u64,
    /// Minimum `at + excess(dest)` over remote events pushed this window.
    pub out_min_eta: &'a mut u64,
    /// Cross-shard events sent by this shard (all-time).
    pub remote_sent: &'a mut u64,
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

    /// The trivial single-shard plan over `components` components.
    pub fn single(components: usize) -> ShardPlan {
        ShardPlan::new(1, vec![0; components], SimDuration::MAX)
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

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The guaranteed minimum cross-shard event delay.
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// The shard holding component `id`.
    pub fn shard_of(&self, id: ComponentId) -> u32 {
        self.shard_of[id.as_raw()]
    }
}

/// The plan's per-component tables in dispatch-ready form: components
/// bucketed into excess classes (one queued-event counter per class is
/// cheaper than a per-event priority structure) plus the pacing floors.
struct PlanTables {
    cut_class: Vec<u16>,
    class_excess: Vec<u64>,
    min_send: Vec<u64>,
}

impl PlanTables {
    fn build(plan: &ShardPlan, ncomp: usize) -> PlanTables {
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
            plan.min_send.clone()
        };
        PlanTables {
            cut_class,
            class_excess,
            min_send,
        }
    }
}

/// One shard: a slice of the component table with its own event queue,
/// per-component random streams and send counters, outboxes for
/// cross-shard traffic, and the per-class counters behind the adaptive
/// window end.
struct Shard<M> {
    queue: CalendarQueue<(ComponentId, EventKind<M>)>,
    /// Sparse, full-length table: only this shard's components are
    /// populated, so global `ComponentId`s index directly.
    components: Vec<Option<Box<dyn Component<M>>>>,
    rngs: Vec<SimRng>,
    src_seq: Vec<u64>,
    outboxes: Vec<Vec<RemoteEvent<M>>>,
    /// Queued events per cut-excess class (mirrors `queue` contents).
    cut_counts: Vec<u64>,
    /// Minimum `at` / `at + excess` over remote events pushed since the
    /// last publish; reset to `MAX` every round.
    out_min_at: u64,
    out_min_eta: u64,
    /// Timestamp of the last event this shard processed.
    last_at: u64,
    processed: u64,
    stopped: bool,
    sync: ShardSyncStats,
}

impl<M: 'static> Shard<M> {
    fn new(seed: u64, ncomponents: usize, nshards: usize, nclasses: usize) -> Shard<M> {
        Shard {
            queue: CalendarQueue::new(),
            components: (0..ncomponents).map(|_| None).collect(),
            rngs: (0..ncomponents)
                .map(|i| SimRng::seed_from(component_seed(seed, i)))
                .collect(),
            src_seq: vec![0; ncomponents],
            outboxes: (0..nshards).map(|_| Vec::new()).collect(),
            cut_counts: vec![0; nclasses],
            out_min_at: u64::MAX,
            out_min_eta: u64::MAX,
            last_at: 0,
            processed: 0,
            stopped: false,
            sync: ShardSyncStats::default(),
        }
    }

    /// Queues an event, keeping the class counters in sync.
    fn push_local(
        &mut self,
        at: u64,
        key: u64,
        dest: ComponentId,
        kind: EventKind<M>,
        tables: &PlanTables,
    ) {
        self.cut_counts[tables.cut_class[dest.as_raw()] as usize] += 1;
        self.queue.push(at, key, (dest, kind));
    }

    /// A lower bound on `min over queued events e of (at(e) + excess(e))`:
    /// every queued event is at or after the queue head, so the head time
    /// plus the smallest excess among non-empty classes bounds them all.
    fn eta_floor(&self, class_excess: &[u64]) -> u64 {
        let Some(next) = self.queue.next_at() else {
            return u64::MAX;
        };
        let mut excess = u64::MAX;
        for (class, &count) in self.cut_counts.iter().enumerate() {
            if count > 0 {
                excess = excess.min(class_excess[class]);
            }
        }
        next.saturating_add(excess)
    }

    /// Takes and resets the flushed-events minima published as this
    /// shard's in-flight contribution to the next round's `T` and ETA.
    fn take_out_mins(&mut self) -> (u64, u64) {
        let mins = (self.out_min_at, self.out_min_eta);
        self.out_min_at = u64::MAX;
        self.out_min_eta = u64::MAX;
        mins
    }

    /// Processes local events with `at <= until_incl` in `(time, key)`
    /// order; cross-shard sends must land at or beyond `window_end`.
    fn run_window(
        &mut self,
        my_shard: u32,
        until_incl: u64,
        window_end: u64,
        shard_of: &[u32],
        tables: &PlanTables,
    ) {
        let Shard {
            queue,
            components,
            rngs,
            src_seq,
            outboxes,
            cut_counts,
            out_min_at,
            out_min_eta,
            last_at,
            processed,
            stopped,
            sync,
        } = self;
        while !*stopped {
            let Some(ev) = queue.pop_due(until_incl) else {
                break;
            };
            *last_at = ev.at;
            let (dest, kind) = ev.value;
            let idx = dest.as_raw();
            cut_counts[tables.cut_class[idx] as usize] -= 1;
            let mut component = components
                .get_mut(idx)
                .unwrap_or_else(|| panic!("event addressed to unregistered component {dest}"))
                .take()
                .expect("event routed to a shard that does not own its destination");
            {
                let route = ShardRoute {
                    shard_of,
                    my_shard,
                    window_end,
                    outboxes,
                    cut_class: &tables.cut_class,
                    class_excess: &tables.class_excess,
                    min_send: &tables.min_send,
                    cut_counts,
                    out_min_at,
                    out_min_eta,
                    remote_sent: &mut sync.cut_events,
                };
                let mut ctx = Context::for_shard(
                    SimTime::from_nanos(ev.at),
                    dest,
                    queue,
                    &mut src_seq[idx],
                    &mut rngs[idx],
                    stopped,
                    route,
                );
                match kind {
                    EventKind::Message(msg) => component.on_message(msg, &mut ctx),
                    EventKind::Timer(token) => component.on_timer(token, &mut ctx),
                }
            }
            components[idx] = Some(component);
            *processed += 1;
        }
    }

    /// Publishes this shard's outboxes into the mailbox row `me`, swapping
    /// buffers so capacity circulates instead of being reallocated.
    fn flush_outboxes(&mut self, me: usize, nshards: usize, mail: &[Mutex<Vec<RemoteEvent<M>>>]) {
        for (dst, outbox) in self.outboxes.iter_mut().enumerate() {
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
    }

    /// Drains every mailbox addressed to shard `me` into the local queue.
    fn drain_mail(
        &mut self,
        me: usize,
        nshards: usize,
        mail: &[Mutex<Vec<RemoteEvent<M>>>],
        tables: &PlanTables,
    ) {
        for src in 0..nshards {
            let mut slot = mail[src * nshards + me].lock().expect("mailbox poisoned");
            for ev in slot.drain(..) {
                self.cut_counts[tables.cut_class[ev.dest.as_raw()] as usize] += 1;
                self.queue.push(ev.at, ev.key, (ev.dest, ev.kind));
            }
        }
    }
}

/// A reusable, spin-then-yield barrier. `std::sync::Barrier` parks
/// threads through a mutex/condvar pair — microseconds per crossing —
/// which would dwarf the sub-microsecond windows conservative lookahead
/// produces; this one stays in userspace while peers are close behind.
struct SpinBarrier {
    n: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    fn new(n: usize) -> SpinBarrier {
        SpinBarrier {
            n,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    fn wait(&self) {
        if self.n == 1 {
            return;
        }
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.arrived.store(0, Ordering::Relaxed);
            self.generation
                .store(generation.wrapping_add(1), Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == generation {
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
    }
}

/// One round's published per-shard values. Two of these alternate by
/// round parity: workers read round `p` from `bufs[p]` and publish round
/// `p+1` into `bufs[p^1]`, so a worker racing ahead after the (single)
/// barrier never overwrites values a peer is still reading.
struct RoundBuf {
    /// Earliest pending event in each shard's queue (`MAX` when idle).
    next_at: Vec<AtomicU64>,
    /// Earliest event each shard flushed to a mailbox last window (`MAX`
    /// if none) — in-flight events not yet in any queue.
    out_next: Vec<AtomicU64>,
    /// Each shard's queued-events cut-ETA floor ([`Shard::eta_floor`]).
    eta: Vec<AtomicU64>,
    /// Minimum cut ETA over each shard's just-flushed events.
    out_eta: Vec<AtomicU64>,
}

impl RoundBuf {
    fn new(nshards: usize) -> RoundBuf {
        RoundBuf {
            next_at: (0..nshards).map(|_| AtomicU64::new(0)).collect(),
            out_next: (0..nshards).map(|_| AtomicU64::new(0)).collect(),
            eta: (0..nshards).map(|_| AtomicU64::new(0)).collect(),
            out_eta: (0..nshards).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// Shared synchronization state for one parallel run.
struct SyncState<'a, M> {
    barrier: SpinBarrier,
    bufs: &'a [RoundBuf; 2],
    stop: AtomicBool,
    /// `nshards * nshards` mailbox slots, indexed `src * nshards + dst`.
    mail: &'a [Mutex<Vec<RemoteEvent<M>>>],
    rounds: AtomicU64,
    /// When recording, every executed window's `(start, end)`.
    window_log: Option<&'a Mutex<Vec<(u64, u64)>>>,
}

/// Per-run constants every worker computes windows from.
struct RunCfg<'a> {
    nshards: usize,
    horizon_excl: u64,
    lookahead: u64,
    /// Maximum window length in ns (`stride_cap * lookahead`, saturated).
    cap: u64,
    adaptive: bool,
    shard_of: &'a [u32],
    tables: &'a PlanTables,
}

/// The single-barrier window loop one worker thread runs over its chunk
/// of shards. Per round: compute `[T, E)` from the values published
/// before the last barrier, drain mail, run the window, flush outboxes,
/// publish next round's values into the other parity buffer, barrier.
fn worker_loop<M: 'static>(
    shards: &mut [Shard<M>],
    base: usize,
    cfg: &RunCfg<'_>,
    sync: &SyncState<'_, M>,
) {
    // Entry: deliver mail left in flight by a previous `run_until` call
    // (its last window may have flushed events it never got to drain),
    // then publish the initial state into the parity-0 buffer.
    for (i, shard) in shards.iter_mut().enumerate() {
        let s = base + i;
        shard.drain_mail(s, cfg.nshards, sync.mail, cfg.tables);
        sync.bufs[0].next_at[s].store(shard.queue.next_at().unwrap_or(u64::MAX), Ordering::Release);
        sync.bufs[0].out_next[s].store(u64::MAX, Ordering::Release);
        sync.bufs[0].eta[s].store(shard.eta_floor(&cfg.tables.class_excess), Ordering::Release);
        sync.bufs[0].out_eta[s].store(u64::MAX, Ordering::Release);
    }
    sync.barrier.wait();
    let mut parity = 0usize;
    let mut prev_end: Option<u64> = None;
    loop {
        // Every worker computes the same window from the same published
        // values, so all of them agree without a leader.
        let cur = &sync.bufs[parity];
        let mut window_start = u64::MAX;
        let mut eta = u64::MAX;
        for s in 0..cfg.nshards {
            window_start = window_start
                .min(cur.next_at[s].load(Ordering::Acquire))
                .min(cur.out_next[s].load(Ordering::Acquire));
            eta = eta
                .min(cur.eta[s].load(Ordering::Acquire))
                .min(cur.out_eta[s].load(Ordering::Acquire));
        }
        if window_start >= cfg.horizon_excl || sync.stop.load(Ordering::Acquire) {
            break;
        }
        let floor = window_start.saturating_add(cfg.lookahead);
        let window_end = if cfg.adaptive {
            // `eta >= floor` for sound tables (excess >= lookahead and
            // every pending event is at or after `window_start`); the max
            // is a defensive clamp, never a correctness requirement.
            eta.max(floor)
        } else {
            floor
        }
        .min(window_start.saturating_add(cfg.cap))
        .min(cfg.horizon_excl);
        let extended = window_end > floor.min(cfg.horizon_excl);
        let fast_forwarded = prev_end.is_some_and(|end| window_start > end);
        prev_end = Some(window_end);
        if base == 0 {
            sync.rounds.fetch_add(1, Ordering::Relaxed);
            if let Some(log) = sync.window_log {
                log.lock()
                    .expect("window log poisoned")
                    .push((window_start, window_end));
            }
        }
        let nxt = &sync.bufs[parity ^ 1];
        let mut stopped = false;
        for (i, shard) in shards.iter_mut().enumerate() {
            let s = base + i;
            shard.drain_mail(s, cfg.nshards, sync.mail, cfg.tables);
            shard.run_window(
                s as u32,
                window_end - 1,
                window_end,
                cfg.shard_of,
                cfg.tables,
            );
            shard.flush_outboxes(s, cfg.nshards, sync.mail);
            let (out_at, out_eta) = shard.take_out_mins();
            nxt.next_at[s].store(shard.queue.next_at().unwrap_or(u64::MAX), Ordering::Release);
            nxt.out_next[s].store(out_at, Ordering::Release);
            nxt.eta[s].store(shard.eta_floor(&cfg.tables.class_excess), Ordering::Release);
            nxt.out_eta[s].store(out_eta, Ordering::Release);
            shard.sync.windows_run += 1;
            shard.sync.window_extensions += extended as u64;
            shard.sync.windows_fast_forwarded += fast_forwarded as u64;
            stopped |= shard.stopped;
        }
        if stopped {
            sync.stop.store(true, Ordering::Release);
        }
        sync.barrier.wait();
        parity ^= 1;
    }
}

/// A sharded engine: drop-in replacement for [`Engine`]'s run/schedule/
/// component-access surface, executing one simulation across shards.
///
/// Build the simulation in a plain [`Engine`], then convert with
/// [`ShardedEngine::from_engine`]; convert back with
/// [`ShardedEngine::into_engine`]. Unsupported in sharded mode (assert or
/// documented): observers, tie-break salts, and the legacy engine-global
/// RNG stream.
pub struct ShardedEngine<M> {
    shards: Vec<Shard<M>>,
    shard_of: Vec<u32>,
    lookahead: SimDuration,
    tables: PlanTables,
    policy: WindowPolicy,
    now: SimTime,
    seed: u64,
    /// The build-phase global stream, preserved for `into_engine`.
    build_rng: SimRng,
    boot_seq: u64,
    base_processed: u64,
    stopped: bool,
    rounds: u64,
    worker_cap: Option<usize>,
    /// Persistent mailbox + published-value buffers so repeated runs
    /// reuse warm capacity instead of reallocating.
    mail: Vec<Mutex<Vec<RemoteEvent<M>>>>,
    bufs: [RoundBuf; 2],
    /// `Some` while window recording is on; every executed multi-shard
    /// window's `(start, end)` in order.
    window_log: Option<Vec<(u64, u64)>>,
}

impl<M: Send + 'static> ShardedEngine<M> {
    /// Partitions `engine` under `plan`. The window policy starts at
    /// [`WindowPolicy::default`] (adaptive); change it with
    /// [`ShardedEngine::set_window_policy`].
    ///
    /// # Panics
    ///
    /// Panics if the plan's length disagrees with the component count, an
    /// observer is attached, or a tie-break salt is set (neither is
    /// supported under sharded execution).
    pub fn from_engine(engine: Engine<M>, plan: ShardPlan) -> ShardedEngine<M> {
        let parts = engine.into_parts();
        assert_eq!(
            plan.shard_of.len(),
            parts.components.len(),
            "shard plan covers {} components but the engine has {}",
            plan.shard_of.len(),
            parts.components.len(),
        );
        assert!(
            parts.observer.is_none(),
            "observers are not supported under sharded execution; detach first"
        );
        assert_eq!(
            parts.tie_break_salt, 0,
            "tie-break salts are not supported under sharded execution"
        );
        let nshards = plan.shards as usize;
        let ncomp = parts.components.len();
        let tables = PlanTables::build(&plan, ncomp);
        let mut shards: Vec<Shard<M>> = (0..nshards)
            .map(|_| Shard::new(parts.seed, ncomp, nshards, tables.class_excess.len()))
            .collect();
        for (i, slot) in parts.components.into_iter().enumerate() {
            if let Some(component) = slot {
                shards[plan.shard_of[i] as usize].components[i] = Some(component);
            }
        }
        // Pending events become bootstrap events: keyed by their global
        // drain position (already `(time, key)`-sorted), which keeps
        // their relative order and sorts them ahead of component sends.
        let mut boot_seq = 0u64;
        for (at, dest, kind) in parts.pending {
            let shard = plan.shard_of[dest.as_raw()] as usize;
            shards[shard].push_local(at, boot_seq, dest, kind, &tables);
            boot_seq += 1;
        }
        ShardedEngine {
            shards,
            shard_of: plan.shard_of,
            lookahead: plan.lookahead,
            tables,
            policy: WindowPolicy::default(),
            now: parts.now,
            seed: parts.seed,
            build_rng: parts.rng,
            boot_seq,
            base_processed: parts.events_processed,
            stopped: parts.stopped,
            rounds: 0,
            worker_cap: None,
            mail: (0..nshards * nshards)
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
            bufs: [RoundBuf::new(nshards), RoundBuf::new(nshards)],
            window_log: None,
        }
    }

    /// Merges the shards back into a sequential [`Engine`]. Pending
    /// events are re-keyed FIFO in global `(time, key)` order, so the
    /// merged engine pops them exactly as the shards would have.
    pub fn into_engine(mut self) -> Engine<M> {
        let events_processed = self.events_processed();
        // Undelivered cross-shard mail is still pending work.
        let nshards = self.shards.len();
        for (s, shard) in self.shards.iter_mut().enumerate() {
            shard.drain_mail(s, nshards, &self.mail, &self.tables);
        }
        let mut pending: Vec<(u64, u64, ComponentId, EventKind<M>)> = Vec::new();
        let mut components: Vec<Option<Box<dyn Component<M>>>> =
            (0..self.shard_of.len()).map(|_| None).collect();
        for shard in &mut self.shards {
            while let Some(ev) = shard.queue.pop_due(u64::MAX) {
                let (dest, kind) = ev.value;
                pending.push((ev.at, ev.seq, dest, kind));
            }
            for (i, slot) in shard.components.iter_mut().enumerate() {
                if let Some(component) = slot.take() {
                    components[i] = Some(component);
                }
            }
        }
        pending.sort_by_key(|&(at, key, ..)| (at, key));
        Engine::from_parts(EngineParts {
            now: self.now,
            seed: self.seed,
            rng: self.build_rng,
            components,
            pending: pending
                .into_iter()
                .map(|(at, _, dest, kind)| (at, dest, kind))
                .collect(),
            events_processed,
            stopped: self.stopped,
            observer: None,
            tie_break_salt: 0,
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The conservative lookahead this engine synchronizes with.
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The seed the simulation was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Total events dispatched, including those before sharding.
    pub fn events_processed(&self) -> u64 {
        self.base_processed + self.shards.iter().map(|s| s.processed).sum::<u64>()
    }

    /// Events still pending across all shard queues.
    pub fn pending_events(&self) -> usize {
        self.shards.iter().map(|s| s.queue.len()).sum()
    }

    /// Synchronization windows executed so far (diagnostic: events per
    /// window is the parallelism-versus-overhead figure of merit).
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The window policy in force.
    pub fn window_policy(&self) -> WindowPolicy {
        self.policy
    }

    /// Overrides the window policy (fixed vs adaptive, stride cap).
    /// Event order — and therefore every fingerprint — is policy-
    /// independent; only window counts and wall-clock change.
    pub fn set_window_policy(&mut self, policy: WindowPolicy) {
        self.policy = WindowPolicy {
            adaptive: policy.adaptive,
            stride_cap: policy.stride_cap.max(1),
        };
    }

    /// Per-shard synchronization counters (windows, fast-forwards,
    /// extensions, cross-shard events). Deterministic for a given
    /// (seed, plan, policy); independent of the worker thread count.
    pub fn sync_stats(&self) -> Vec<ShardSyncStats> {
        self.shards.iter().map(|s| s.sync).collect()
    }

    /// Worker threads the next multi-shard run will use.
    pub fn effective_workers(&self) -> usize {
        self.workers()
    }

    /// Starts (or stops) recording every executed window's
    /// `(start, end)`. Recording is for tests and diagnostics; the
    /// sequential 1-shard path runs no windows and records nothing.
    pub fn record_windows(&mut self, on: bool) {
        self.window_log = if on {
            Some(self.window_log.take().unwrap_or_default())
        } else {
            None
        };
    }

    /// The recorded windows so far (empty unless recording is on).
    pub fn window_log(&self) -> &[(u64, u64)] {
        self.window_log.as_deref().unwrap_or(&[])
    }

    /// Whether a component stopped the simulation.
    pub fn is_stopped(&self) -> bool {
        self.stopped
    }

    /// Clears the stop flag so the engine can be resumed.
    pub fn clear_stop(&mut self) {
        self.stopped = false;
        for shard in &mut self.shards {
            shard.stopped = false;
        }
    }

    /// Caps the number of worker threads (default: `min(shards, cores)`).
    /// A cap of 1 runs every shard on the calling thread — same results,
    /// no synchronization overhead.
    pub fn set_worker_threads(&mut self, workers: usize) {
        self.worker_cap = Some(workers.max(1));
    }

    fn workers(&self) -> usize {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        self.worker_cap
            .unwrap_or(cores)
            .min(self.shards.len())
            .max(1)
    }

    /// Schedules `msg` for `dest` at absolute time `at` (a bootstrap
    /// event, ordered ahead of component sends at the same instant).
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current simulation time.
    pub fn schedule(&mut self, at: SimTime, dest: ComponentId, msg: M) {
        assert!(at >= self.now, "cannot schedule into the past");
        let shard = self.shard_of[dest.as_raw()] as usize;
        debug_assert!(self.boot_seq < 1 << SEQ_BITS);
        let (at_ns, seq) = (at.as_nanos(), self.boot_seq);
        self.shards[shard].push_local(at_ns, seq, dest, EventKind::Message(msg), &self.tables);
        self.boot_seq += 1;
    }

    /// Schedules `msg` for `dest` after `delay` from the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, dest: ComponentId, msg: M) {
        self.schedule(self.now + delay, dest, msg);
    }

    /// Borrows the concrete component at `id`, if it has type `T`.
    pub fn component<T: Component<M>>(&self, id: ComponentId) -> Option<&T> {
        let shard = *self.shard_of.get(id.as_raw())? as usize;
        let boxed = self.shards[shard].components.get(id.as_raw())?.as_deref()?;
        (boxed as &dyn Any).downcast_ref::<T>()
    }

    /// Mutably borrows the concrete component at `id`, if it has type `T`.
    pub fn component_mut<T: Component<M>>(&mut self, id: ComponentId) -> Option<&mut T> {
        let shard = *self.shard_of.get(id.as_raw())? as usize;
        let boxed = self.shards[shard]
            .components
            .get_mut(id.as_raw())?
            .as_deref_mut()?;
        (boxed as &mut dyn Any).downcast_mut::<T>()
    }

    /// Number of component slots (populated or not).
    pub fn component_count(&self) -> usize {
        self.shard_of.len()
    }

    /// Runs until every queue drains or a component stops the simulation.
    pub fn run_to_idle(&mut self) -> u64 {
        self.run_until(SimTime::MAX)
    }

    /// Runs for `span` of simulated time from the current clock.
    pub fn run_for(&mut self, span: SimDuration) -> u64 {
        let horizon = self.now + span;
        self.run_until(horizon)
    }

    /// Runs events with timestamps `<= horizon`; the clock is left at the
    /// last processed event (or advanced to `horizon` if it is finite and
    /// the queues drained early). Returns the number of events processed.
    pub fn run_until(&mut self, horizon: SimTime) -> u64 {
        let before = self.events_processed();
        if !self.stopped {
            if self.shards.len() == 1 {
                self.run_sequential(horizon);
            } else {
                self.run_windows(horizon);
            }
            self.stopped = self.shards.iter().any(|s| s.stopped);
        }
        let last = self
            .shards
            .iter()
            .map(|s| s.last_at)
            .max()
            .unwrap_or(0)
            .max(self.now.as_nanos());
        let now_ns = if !self.stopped && horizon != SimTime::MAX {
            last.max(horizon.as_nanos())
        } else {
            last
        };
        self.now = SimTime::from_nanos(now_ns);
        self.events_processed() - before
    }

    /// One shard: no windows, no barriers — a single pass to the horizon.
    /// Event order is identical to the windowed path (it is a pure
    /// function of `(time, key)`), making this the determinism baseline
    /// and the speedup denominator.
    fn run_sequential(&mut self, horizon: SimTime) {
        let shard = &mut self.shards[0];
        shard.run_window(
            0,
            horizon.as_nanos(),
            u64::MAX,
            &self.shard_of,
            &self.tables,
        );
        self.rounds += 1;
    }

    fn run_windows(&mut self, horizon: SimTime) {
        let nshards = self.shards.len();
        let nworkers = self.workers();
        let lookahead = self.lookahead.as_nanos();
        let cfg = RunCfg {
            nshards,
            horizon_excl: horizon.as_nanos().saturating_add(1),
            lookahead,
            cap: lookahead.saturating_mul(self.policy.stride_cap.max(1) as u64),
            adaptive: self.policy.adaptive,
            shard_of: &self.shard_of,
            tables: &self.tables,
        };
        let log = self.window_log.as_ref().map(|_| Mutex::new(Vec::new()));
        let sync = SyncState {
            barrier: SpinBarrier::new(nworkers),
            bufs: &self.bufs,
            stop: AtomicBool::new(false),
            mail: &self.mail,
            rounds: AtomicU64::new(0),
            window_log: log.as_ref(),
        };
        if nworkers == 1 {
            worker_loop(&mut self.shards, 0, &cfg, &sync);
        } else {
            let (sync, cfg) = (&sync, &cfg);
            std::thread::scope(|scope| {
                let mut rest = &mut self.shards[..];
                let mut base = 0usize;
                for worker in 0..nworkers {
                    let count = (nshards - base) / (nworkers - worker);
                    let (chunk, tail) = rest.split_at_mut(count);
                    rest = tail;
                    scope.spawn(move || worker_loop(chunk, base, cfg, sync));
                    base += count;
                }
            });
        }
        self.rounds += sync.rounds.into_inner();
        if let Some(log) = log {
            let mut recorded = log.into_inner().expect("window log poisoned");
            self.window_log
                .as_mut()
                .expect("recording enabled")
                .append(&mut recorded);
        }
    }
}

impl<M: 'static> std::fmt::Debug for ShardedEngine<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("shards", &self.shards.len())
            .field("lookahead", &self.lookahead)
            .field("policy", &self.policy)
            .field("now", &self.now)
            .field("events_processed", &self.base_processed)
            .field("rounds", &self.rounds)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn fingerprint(engine: &ShardedEngine<u64>, pairs: usize) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for i in 0..2 * pairs {
            let p = engine
                .component::<Pinger>(ComponentId::from_raw(i))
                .unwrap();
            writeln!(out, "c{} draws={} log={:?}", i, p.draws, p.log).unwrap();
        }
        out
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
            runs.push(fingerprint(&e, PAIRS));
        }
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
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
        // One worker runs the shards on this thread, so the assert's own
        // message reaches the harness; with two, the scope re-panics with
        // a generic message or the surviving worker spins at the barrier.
        e.set_worker_threads(1);
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
                end >= start.saturating_add(lookahead).min(u64::MAX) || end == u64::MAX,
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
        // One worker, as in `undersized_lookahead_is_caught_at_send_time`.
        e.set_worker_threads(1);
        e.run_to_idle();
    }

    /// An excess table below the lookahead is rejected at plan build.
    #[test]
    #[should_panic(expected = "cut excess below the plan lookahead")]
    fn undersized_excess_is_rejected() {
        let _ = colocated_plan(2, 2).with_cut_excess(vec![SimDuration::from_nanos(1); 4]);
    }
}
