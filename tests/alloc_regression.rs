//! Allocation-regression gate for the event hot path.
//!
//! The zero-allocation contract: once pools and buffers are warm, the
//! steady-state dequeue→dispatch→enqueue cycle of a running simulation
//! never touches the heap. This test runs the whole binary under a
//! counting global allocator and asserts **zero** allocations per event
//! after warm-up on two workloads:
//!
//! * a ping chain — the pure scheduler cycle (calendar-queue node pool,
//!   timer/message recycling, no component state);
//! * a small switch fabric — packets bouncing between two hosts through a
//!   TOR switch, exercising the typed `Msg` hot variants, per-port
//!   queues, PFC accounting and the contention-jitter sampler;
//! * a sharded cross-shard ping — pairs split across two shards of a
//!   `ShardedEngine`, every message crossing the shard cut through the
//!   outbox/mailbox exchange. Per-shard event dispatch must stay at zero
//!   allocations; the window-barrier exchange recirculates buffer
//!   capacity (`mem::swap`), so after warm-up it may keep only a small
//!   constant budget (thread spawns for the run call), never per-event
//!   or per-window growth.
//!
//! The two single-threaded workloads count only the allocations of the
//! thread that runs them (a thread-local flag the allocator reads), so
//! whatever the libtest harness does on its own threads meanwhile is not
//! attributed to the measured window. The sharded workload spawns workers
//! and has to count the whole process; its constant budget absorbs that,
//! and [`SERIAL`] keeps this file's other tests out of it.
//!
//! The LTL message path is allocation-free in steady state too, for a
//! one-frame message. Every buffer on it is reused once nothing else
//! holds a view of it (`Bytes::is_unique`): a sender hands its shell a
//! `Msg::LtlSend` variant; each engine encodes a one-frame message into
//! the wire buffer of one an acknowledgement retired (one spare per
//! engine), and lets go of the sender's payload before `send_message`
//! returns; the remote-acceleration apps then write their next request or
//! reply into the payload they sent last. Control frames, SACKs included,
//! are 20 bytes and live inline in their `Bytes`. What a message costs
//! beyond that is a box its sender chose, a payload it built, or the two
//! buffers of a multi-frame message. Four more tests pin that, two-sided
//! — an acquisition that disappears is news as much as one that appears:
//!
//! * two shells under one TOR in a closed-loop 48-byte volley: 0 per
//!   round trip with `Msg::LtlSend`, and 2 with the boxed
//!   `ShellCmd::LtlSend` the repository benchmark still sends (one box
//!   per side; wire buffers, ACKs, upcalls and deliveries are free);
//! * a `RemoteClient` request answered by an `AcceleratorRole`: 0 — the
//!   request and reply payloads are rewritten in place (building them
//!   cost 4);
//! * two `LtlEngine`s driven back to back: 0 per data frame once the
//!   data packet is dropped before its acknowledgement arrives, and 0 per
//!   acknowledgement in both modes (an ACK, and a SACK with its bitmap
//!   in the header, is a 20-byte wire image);
//! * the same engines carrying an 8 KiB message, six frames: all six are
//!   encoded into one message buffer (2: the vector and its shared
//!   handle), and the receiver joins the fragments in one buffer of the
//!   previous message's length (2) — 4 in either mode.
//!
//! The fleet background path is allocation-free and pinned the same
//! two-sided way: a tick of `FleetLoadGen` hands its up to 64 batches to
//! `FlowSim` as one `Msg::FlowSim`, refilling one shared buffer, and
//! `FlowSim` publishes pressure to every spine as `Msg::Switch` — 0
//! acquisitions per tick.
//!
//! Off the event path, a registry snapshot is budgeted per component: a
//! paper cluster's `metrics_snapshot` acquires for each source's path and
//! each histogram's copies, never once per metric. A fabric is budgeted in
//! live bytes per cabled port: a switch keeps a 552-byte port only for the
//! ports that are cabled, so a paper pod holds 88 of them, not 1,048.
//! A fleet run holds what it reads: `fleet_hybrid`'s 12,000 probes are
//! 12 queue nodes until they come due, and its generator keeps one bit
//! per host slot, 31,200 B at 260 pods.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use apps::remote::{AcceleratorRole, IssueRequest, RemoteClient};
use bytes::Bytes;
use catapult::elastic::{generate_trace, run_trace, standard_region_alms, ElasticTraceConfig};
use catapult::probe::schedule_probes;
use catapult::workload::{FleetLoadGen, FleetWorkloadConfig};
use catapult::ClusterBuilder;
use dcnet::{
    FabricBuilder, FabricConfig, FabricShape, FidelityMap, FlowBatch, FlowSim, FlowSimConfig,
    Jitter, Msg, NetEvent, NodeAddr, Packet, PortId, Switch, SwitchConfig, SwitchRole,
    TrafficClass,
};
use dcsim::{
    Component, ComponentId, Context, Engine, ShardPlan, ShardedEngine, SimDuration, SimTime,
};
use haas::{ElasticConfig, LeaseEvent, RegionLease, TenantClass};
use host::StartGenerator;
use shell::ltl::{LtlConfig, LtlEngine, LtlEvent, LtlMode, Poll, SendConnId};
use shell::{LtlDeliver, LtlSend, ShellCmd};

/// Counts heap acquisitions (`alloc` and `realloc`), and the live bytes
/// of measured threads; frees are irrelevant to the steady-state-zero
/// contract.
struct CountingAlloc;

/// Acquisitions by any thread.
static PROCESS_ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Acquisitions by threads inside [`on_this_thread`].
static MEASURED_ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes acquired minus bytes released by threads inside
/// [`on_this_thread`], in layout sizes.
static MEASURED_LIVE: AtomicI64 = AtomicI64::new(0);
/// The highest [`MEASURED_LIVE`] has been since [`heap_on_this_thread`]
/// last reset it.
static MEASURED_PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    /// Set while this thread runs a measured window. Const-initialised and
    /// without a destructor, so reading it from the allocator neither
    /// allocates nor registers anything.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

/// Records one acquisition, if `acquired`, and a change of `live` bytes.
fn count(acquired: bool, live: i64) {
    if acquired {
        PROCESS_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
    // `try_with`: a thread may still allocate while it is being torn down.
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        if acquired {
            MEASURED_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        let now = MEASURED_LIVE.fetch_add(live, Ordering::Relaxed) + live;
        MEASURED_PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

/// A layout's size is at most `isize::MAX`, so this never panics.
fn bytes(n: usize) -> i64 {
    i64::try_from(n).expect("an allocation fits i64")
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; `count` only touches atomics and a thread-local
// `Cell` that needs no lazy initialisation, so it cannot re-enter the
// allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(true, bytes(layout.size()));
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(false, -bytes(layout.size()));
        // SAFETY: as above; `ptr` came from `System` via this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(true, bytes(new_size) - bytes(layout.size()));
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One test of this file at a time: the sharded window counts the whole
/// process, and the others allocate by the tens of thousands.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A test that failed while holding the lock has already reported.
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs `window` and returns how many times *this thread* acquired heap
/// memory inside it.
fn on_this_thread(window: impl FnOnce()) -> u64 {
    heap_on_this_thread(window).0
}

/// Runs `window` and returns how many times *this thread* acquired heap
/// memory inside it, and how many bytes of what it acquired and released
/// there are still live.
fn heap_on_this_thread(window: impl FnOnce()) -> (u64, i64) {
    let (allocs, live, _) = heap_peak_on_this_thread(window);
    (allocs, live)
}

/// [`heap_on_this_thread`], plus the most bytes live at any point inside
/// `window`.
fn heap_peak_on_this_thread(window: impl FnOnce()) -> (u64, i64, i64) {
    let before = (
        MEASURED_ALLOCS.load(Ordering::Relaxed),
        MEASURED_LIVE.load(Ordering::Relaxed),
    );
    MEASURED_PEAK.store(before.1, Ordering::Relaxed);
    MEASURING.with(|m| m.set(true));
    window();
    MEASURING.with(|m| m.set(false));
    (
        MEASURED_ALLOCS.load(Ordering::Relaxed) - before.0,
        MEASURED_LIVE.load(Ordering::Relaxed) - before.1,
        MEASURED_PEAK.load(Ordering::Relaxed) - before.1,
    )
}

#[inline]
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Self-rescheduling ping chain: the message is the number of events left.
struct Chain {
    rng: u64,
}

impl Component<u64> for Chain {
    fn on_message(&mut self, left: u64, ctx: &mut Context<'_, u64>) {
        if left > 0 {
            let delay = 100 + splitmix(&mut self.rng) % 1_000;
            ctx.send_to_self_after(SimDuration::from_nanos(delay), left - 1);
        }
    }
}

/// Steady-state allocations per event on the ping-chain workload.
fn ping_chain_allocs_per_event() -> (u64, u64) {
    const CHAINS: u64 = 64;
    const EVENTS_PER_CHAIN: u64 = 2_000;
    let mut e: Engine<u64> = Engine::new(7);
    for i in 0..CHAINS {
        let id = e.add_component(Chain { rng: 0xC0FFEE ^ i });
        e.schedule(SimTime::from_nanos(i), id, EVENTS_PER_CHAIN);
    }
    // Warm-up: grows the node pool and bucket vectors to the steady-state
    // footprint (~first tenth of the run).
    e.run_until(SimTime::from_nanos(EVENTS_PER_CHAIN * 600 / 10));
    let ev0 = e.events_processed();
    let allocs = on_this_thread(|| {
        e.run_to_idle();
    });
    (allocs, e.events_processed() - ev0)
}

/// One side of a packet ping-pong pair: answers every delivered packet
/// with a reversed one until its budget is spent.
struct Bouncer {
    tor: ComponentId,
    tor_port: PortId,
    remaining: u64,
}

impl Component<Msg> for Bouncer {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        if let Msg::Net(NetEvent::Packet { pkt, .. }) = msg {
            if self.remaining == 0 {
                return;
            }
            self.remaining -= 1;
            // A reply is a new flow: build a fresh packet (stack-only; the
            // payload `Bytes` moves, it is not copied).
            let back = Packet::new(
                pkt.dst,
                pkt.src,
                pkt.dst_port,
                pkt.src_port,
                pkt.class,
                pkt.payload,
            );
            ctx.send(self.tor, Msg::packet(back, self.tor_port));
        }
    }
}

/// Steady-state allocations per event on a small switch workload: one TOR
/// with jitter enabled, two hosts bouncing an LTL-class packet.
fn switch_allocs_per_event() -> (u64, u64) {
    const BOUNCES: u64 = 20_000;
    let mut e: Engine<Msg> = Engine::new(11);
    let cfg = FabricConfig {
        shape: FabricShape {
            hosts_per_tor: 2,
            tors_per_pod: 1,
            pods: 1,
            spines: 1,
        },
        tor: SwitchConfig::default().with_jitter(Jitter {
            median_ns: 8.0,
            sigma: 0.5,
        }),
        ..FabricConfig::default()
    };
    let mut fabric = FabricBuilder::from_config(&cfg).build(&mut e);

    let a_addr = NodeAddr::new(0, 0, 0);
    let b_addr = NodeAddr::new(0, 0, 1);
    let next = e.next_component_id();
    let a_attach = fabric.attach(&mut e, a_addr, next, PortId(0), None);
    let a = e.add_component(Bouncer {
        tor: a_attach.tor,
        tor_port: a_attach.port,
        remaining: BOUNCES,
    });
    assert_eq!(a, next);
    let next = e.next_component_id();
    let b_attach = fabric.attach(&mut e, b_addr, next, PortId(0), None);
    e.add_component(Bouncer {
        tor: b_attach.tor,
        tor_port: b_attach.port,
        remaining: BOUNCES,
    });

    let seed = Packet::new(
        a_addr,
        b_addr,
        4791,
        4791,
        TrafficClass::LTL,
        Bytes::from(vec![0x5Au8; 64]),
    );
    e.schedule(
        SimTime::ZERO,
        a_attach.tor,
        Msg::packet(seed, a_attach.port),
    );

    // Warm-up: pools, per-port queues and the ziggurat tables.
    e.run_until(SimTime::from_micros(100));
    let ev0 = e.events_processed();
    let allocs = on_this_thread(|| {
        e.run_to_idle();
    });
    (allocs, e.events_processed() - ev0)
}

/// One side of a cross-shard ping pair: answers after a delay that always
/// clears the lookahead window, so every message rides the outbox.
struct CrossPing {
    peer: ComponentId,
    rng: u64,
}

const SHARD_LOOKAHEAD_NS: u64 = 500;

impl Component<u64> for CrossPing {
    fn on_message(&mut self, left: u64, ctx: &mut Context<'_, u64>) {
        if left > 0 {
            let delay = SHARD_LOOKAHEAD_NS + splitmix(&mut self.rng) % 1_000;
            ctx.send_after(SimDuration::from_nanos(delay), self.peer, left - 1);
        }
    }
}

/// Steady-state allocations per event on the sharded cross-shard
/// workload: ping pairs split across two shards, every event crossing
/// the cut at the window barrier.
fn sharded_allocs_per_event() -> (u64, u64) {
    const PAIRS: u64 = 32;
    const EVENTS_PER_SIDE: u64 = 2_000;
    let mut e: Engine<u64> = Engine::new(23);
    let mut shard_of = Vec::new();
    for i in 0..PAIRS {
        let a_tmp = e.next_component_id();
        let a = e.add_component(CrossPing {
            peer: a_tmp, // placeholder until b exists
            rng: 0xFEED ^ i,
        });
        let b = e.add_component(CrossPing {
            peer: a,
            rng: 0xBEEF ^ i,
        });
        e.component_mut::<CrossPing>(a).unwrap().peer = b;
        shard_of.extend_from_slice(&[0, 1]);
        e.schedule(SimTime::from_nanos(i), a, EVENTS_PER_SIDE);
        e.schedule(SimTime::from_nanos(i + PAIRS), b, EVENTS_PER_SIDE);
    }
    let plan = ShardPlan::new(2, shard_of, SimDuration::from_nanos(SHARD_LOOKAHEAD_NS));
    let mut sharded = ShardedEngine::from_engine(e, plan);
    // Warm-up: node pools, outbox/mailbox capacities, bucket vectors.
    sharded.run_until(SimTime::from_micros(300));
    let ev0 = sharded.events_processed();
    let a0 = PROCESS_ALLOCS.load(Ordering::Relaxed);
    sharded.run_to_idle();
    let allocs = PROCESS_ALLOCS.load(Ordering::Relaxed) - a0;
    (allocs, sharded.events_processed() - ev0)
}

/// The gate: zero steady-state allocations per event on all workloads.
/// A single failing allocation anywhere in the pop→dispatch→push cycle
/// (scheduler node churn, boxed messages, payload copies) trips this.
#[test]
fn steady_state_event_path_is_allocation_free() {
    let _serial = serial();
    let (chain_allocs, chain_events) = ping_chain_allocs_per_event();
    assert!(
        chain_events > 50_000,
        "chain workload too small: {chain_events}"
    );
    assert_eq!(
        chain_allocs, 0,
        "ping chain allocated {chain_allocs} times over {chain_events} steady-state events"
    );

    let (switch_allocs, switch_events) = switch_allocs_per_event();
    assert!(
        switch_events > 20_000,
        "switch workload too small: {switch_events}"
    );
    assert_eq!(
        switch_allocs, 0,
        "switch workload allocated {switch_allocs} times over {switch_events} steady-state events"
    );

    // The sharded run's only allowance is a small constant for the worker
    // threads the measured `run_to_idle` call spawns (and whatever the
    // test harness does meanwhile: this count is process-wide) — nothing
    // that scales with events (128k here) or windows (~4k here).
    let (sharded_allocs, sharded_events) = sharded_allocs_per_event();
    assert!(
        sharded_events > 100_000,
        "sharded workload too small: {sharded_events}"
    );
    assert!(
        sharded_allocs <= 64,
        "sharded workload allocated {sharded_allocs} times over {sharded_events} \
         steady-state events (budget 64: thread spawns only)"
    );
}

/// Slack of the two-sided LTL budgets: each engine's RTT recorder keeps
/// every sample, so its `Vec` doubles a handful of times per window.
const RECORDER_GROWTH: u64 = 64;

#[track_caller]
fn assert_budget(what: &str, measured: u64, n: u64, per_op: u64) {
    let floor = n * per_op;
    assert!(
        (floor..=floor + RECORDER_GROWTH).contains(&measured),
        "{what}: {measured} acquisitions over {n} operations, budget {per_op} each \
         ({floor}..={})",
        floor + RECORDER_GROWTH
    );
}

/// One side of a closed-loop volley: answers every delivery with one
/// message until its budget is spent.
struct VolleyPeer {
    shell: ComponentId,
    conn: SendConnId,
    payload: Bytes,
    replies_left: u64,
    /// Box the command as `ShellCmd::LtlSend`, as the repository
    /// benchmark does, instead of sending the `Msg::LtlSend` variant.
    boxed: bool,
}

impl VolleyPeer {
    /// The command a consumer hands its shell: the variant is free, the
    /// box one acquisition per message.
    fn send(&self) -> Msg {
        let (conn, payload) = (self.conn, self.payload.clone());
        if self.boxed {
            let cmd = ShellCmd::LtlSend {
                conn,
                vc: 0,
                payload,
            };
            Msg::custom(cmd)
        } else {
            Msg::LtlSend(LtlSend {
                conn,
                vc: 0,
                payload,
            })
        }
    }
}

impl Component<Msg> for VolleyPeer {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        if msg.downcast::<LtlDeliver>().is_ok() && self.replies_left > 0 {
            self.replies_left -= 1;
            ctx.send(self.shell, self.send());
        }
    }
}

/// Round trips a measured volley runs.
const ROUND_TRIPS: u64 = 10_000;

/// The whole shell-to-shell path, as the benchmark's `ltl_volley` drives
/// it: per round trip, nothing with the `Msg::LtlSend` variant and the 2
/// boxes the senders build with the boxed `ShellCmd::LtlSend`. Everything
/// the transport does for a message — the data frame's wire buffer, ACK
/// wire images, the engine's upcalls, `Msg::LtlDeliver` — acquires
/// nothing.
#[test]
fn ltl_round_trip_acquires_only_the_senders_boxes() {
    let _serial = serial();
    assert_budget(
        "shell-to-shell round trip",
        volley_allocs(false),
        ROUND_TRIPS,
        0,
    );
    assert_budget(
        "shell-to-shell round trip, boxed commands",
        volley_allocs(true),
        ROUND_TRIPS,
        2,
    );
}

/// Acquisitions of `ROUND_TRIPS` round trips between two shells under one
/// TOR, after a warm-up, with the send commands `boxed` or not.
fn volley_allocs(boxed: bool) -> u64 {
    const WARM_UP: u64 = 1_000;
    let mut cluster = ClusterBuilder::paper(5, 1).build();
    let (a, b) = (NodeAddr::new(0, 0, 0), NodeAddr::new(0, 0, 1));
    let a_shell = cluster.add_shell(a);
    let b_shell = cluster.add_shell(b);
    let (a_send, b_send, _, _) = cluster.connect_pair(a, b);
    let payload = Bytes::from(vec![0xA5u8; 48]);
    let peer = |shell, conn| VolleyPeer {
        shell,
        conn,
        payload: payload.clone(),
        replies_left: u64::MAX,
        boxed,
    };
    let initiator = cluster.add_component_at(a, peer(a_shell, a_send));
    let responder = cluster.add_component_at(b, peer(b_shell, b_send));
    cluster.set_consumer(a, initiator);
    cluster.set_consumer(b, responder);

    // A volley of `n` round trips, run to idle: the initiator's kick plus
    // `n - 1` of its replies, each answered by the responder.
    let mut volley = |n: u64| {
        let engine = cluster.engine_mut();
        let kick = {
            let initiator = engine.component_mut::<VolleyPeer>(initiator).unwrap();
            initiator.replies_left = n - 1;
            initiator.send()
        };
        let now = engine.now();
        engine.schedule(now, a_shell, kick);
        engine.run_to_idle();
    };
    volley(WARM_UP);
    let measured = on_this_thread(|| volley(ROUND_TRIPS));

    let delivered = |addr| cluster.shell(addr).ltl().stats_view().msgs_delivered;
    assert_eq!(delivered(a), WARM_UP + ROUND_TRIPS);
    assert_eq!(delivered(b), WARM_UP + ROUND_TRIPS);
    measured
}

/// The remote-acceleration path as `service_chaos` drives it: a
/// `RemoteClient` issuing requests to an `AcceleratorRole` over one
/// connection pair. Per request: nothing. The client and the role write
/// each payload into the one they sent last, which the engine let go of
/// when it encoded the frame (a fresh request and reply payload made it
/// 4). Both send with `Msg::LtlSend` (boxing added 2), each engine
/// refills a retired frame's wire buffer (fresh ones added 6),
/// `IssueRequest` is zero-sized, so its box is free, and the role parks
/// its reply behind a timer instead of boxing a self-message (which added
/// 1).
#[test]
fn remote_request_acquires_nothing() {
    const WARM_UP: u64 = 1_000;
    const REQUESTS: u64 = 10_000;
    let _serial = serial();
    let mut cluster = ClusterBuilder::paper(5, 1).build();
    let (client_addr, role_addr) = (NodeAddr::new(0, 0, 0), NodeAddr::new(0, 0, 1));
    let client_shell = cluster.add_shell(client_addr);
    let role_shell = cluster.add_shell(role_addr);
    let (to_role, to_client, _, role_recv) = cluster.connect_pair(client_addr, role_addr);
    let service = SimDuration::from_micros(2);
    let mut role = AcceleratorRole::new(role_shell, service, 0.1, 4, 256);
    role.add_reply_route(role_recv, to_client);
    let role = cluster.add_component_at(role_addr, role);
    cluster.set_consumer(role_addr, role);
    let client = RemoteClient::new(client_shell, to_role, 512, 1);
    let client = cluster.add_component_at(client_addr, client);
    cluster.set_consumer(client_addr, client);

    // `n` requests 20 us apart, each answered before the next is issued.
    let mut issue = |n: u64| {
        let engine = cluster.engine_mut();
        let (now, gap) = (engine.now(), SimDuration::from_micros(20));
        engine.schedule_series(now, gap, n, client, || Msg::custom(IssueRequest));
        on_this_thread(|| {
            engine.run_to_idle();
        })
    };
    issue(WARM_UP);
    let measured = issue(REQUESTS);

    let engine = cluster.engine();
    let client = engine.component::<RemoteClient>(client).unwrap();
    assert_eq!(client.completed() as u64, WARM_UP + REQUESTS);
    let role = engine.component::<AcceleratorRole>(role).unwrap();
    assert_eq!(role.completed(), WARM_UP + REQUESTS);
    assert_budget("remote request", measured, REQUESTS, 0);
}

/// Acquisitions of `messages` messages of `len` bytes pushed through a
/// back-to-back engine pair, split into the data leg (`send_message`,
/// `poll` until every frame is out) and the receive-and-acknowledge leg
/// (B's `on_packet` per frame, its `poll`s, A's `on_packet` per reply).
/// Each data packet is dropped once B has it, as a network drops a
/// delivered frame: a packet still alive holds the wire buffer, which is
/// then rightly not reused. The delivery is dropped unread.
fn engine_pair_allocs(mode: LtlMode, len: usize, messages: u64) -> (u64, u64) {
    let (a_addr, b_addr) = (NodeAddr::new(0, 0, 1), NodeAddr::new(0, 0, 2));
    let cfg = LtlConfig::default().with_mode(mode);
    let mut a = LtlEngine::new(a_addr, cfg.clone());
    let mut b = LtlEngine::new(b_addr, cfg);
    let recv = b.add_recv(a_addr);
    let conn = a.add_send(b_addr, recv);
    let payload = Bytes::from(vec![0x3Cu8; len]);
    let mut now = SimTime::ZERO;
    let mut frames: Vec<Packet> = Vec::with_capacity(64);
    let mut message = |a: &mut LtlEngine, b: &mut LtlEngine| {
        now += SimDuration::from_micros(1);
        let data_leg = on_this_thread(|| {
            a.send_message(conn, 0, payload.clone()).expect("open");
            // DC-QCN paces the frames of a message apart.
            loop {
                match a.poll(now) {
                    Poll::Ready(data) => frames.push(data),
                    Poll::Later(at) => now = at,
                    Poll::Empty => break,
                }
            }
        });
        let ack_leg = on_this_thread(|| {
            let mut delivered = 0;
            for data in frames.drain(..) {
                delivered += b
                    .on_packet(&data, now)
                    .filter(|ev| matches!(ev, LtlEvent::Deliver { .. }))
                    .count();
            }
            assert_eq!(delivered, 1);
            let mut replies = 0;
            while let Poll::Ready(ack) = b.poll(now) {
                assert_eq!(a.on_packet(&ack, now).len(), 0);
                replies += 1;
            }
            assert!(replies > 0, "acknowledgement expected");
        });
        (data_leg, ack_leg)
    };
    for _ in 0..1_000 {
        message(&mut a, &mut b);
    }
    let mut legs = (0, 0);
    for _ in 0..messages {
        let (data_leg, ack_leg) = message(&mut a, &mut b);
        legs = (legs.0 + data_leg, legs.1 + ack_leg);
    }
    assert_eq!(a.in_flight(), 0, "every frame acknowledged");
    legs
}

/// The engine alone: a data frame is encoded into the retired frame's
/// wire buffer and costs nothing, and so does its acknowledgement, whose
/// 20-byte wire image, an ACK's or a SACK's, fits the `Bytes` inline arm.
#[test]
fn ltl_engine_pair_acquires_nothing_per_one_frame_message() {
    const MESSAGES: u64 = 10_000;
    let _serial = serial();
    for mode in [LtlMode::GoBackN, LtlMode::SelectiveRepeat] {
        let (data_leg, ack_leg) = engine_pair_allocs(mode, 48, MESSAGES);
        assert_eq!(data_leg, 0, "{mode} data leg");
        assert_budget(&format!("{mode} acknowledgement leg"), ack_leg, MESSAGES, 0);
    }
}

/// An 8 KiB message, six frames, as `incast_lossy` sends them: the sender
/// encodes all six into one buffer (2: the vector and its shared handle;
/// a buffer per frame cost 2 for each of frames 2-6), and the receiver
/// joins the fragments in one buffer sized by the previous message (2;
/// growing it by doubling cost 5). The SACKs a selective-repeat receiver
/// answers each frame with are free (their 28-byte wire images cost 2
/// each).
#[test]
fn a_six_frame_message_acquires_one_message_buffer_and_one_reassembly() {
    const MESSAGES: u64 = 2_000;
    const LEN: usize = 8 * 1024;
    let _serial = serial();
    for mode in [LtlMode::GoBackN, LtlMode::SelectiveRepeat] {
        let (data_leg, ack_leg) = engine_pair_allocs(mode, LEN, MESSAGES);
        assert_eq!(
            data_leg,
            MESSAGES * 2,
            "{mode} data leg: one message buffer"
        );
        assert_budget(
            &format!("{mode} receive-and-acknowledge leg"),
            ack_leg,
            MESSAGES,
            2,
        );
    }
}

/// The fleet background path, as `fleet_hybrid` drives it: the default
/// two-million-user generator into the flow model of a 6-pod fabric whose
/// two packet pods hang off two spines. A tick is one command carrying
/// ~64 batches to `FlowSim`, in a buffer the generator refills every tick,
/// and, whenever a packet pod's pressure moved, one command per spine.
/// The budget's slack is the flow table's last few doublings.
#[test]
fn fleet_background_tick_acquires_nothing() {
    const WARM_UP: u64 = 500;
    const TICKS: u64 = 2_000;
    let _serial = serial();
    let shape = FabricShape {
        hosts_per_tor: 24,
        tors_per_pod: 4,
        pods: 6,
        spines: 2,
    };
    let map = FidelityMap::packet_island(6, 2);
    let cfg = FleetWorkloadConfig::default();
    let tick = cfg.tick;
    let mut e: Engine<Msg> = Engine::new(11);
    let spines: Vec<ComponentId> = (0..shape.spines)
        .map(|index| {
            e.add_component(Switch::new(
                SwitchRole::Spine { index },
                shape,
                SwitchConfig::default(),
            ))
        })
        .collect();
    let sim = e.add_component(
        FlowSim::new(FlowSimConfig::new(shape))
            .with_fidelity(&map)
            .with_spines(&spines),
    );
    let gen = e.add_component(FleetLoadGen::new(cfg, shape, &map, sim));
    e.schedule(SimTime::ZERO, gen, Msg::custom(StartGenerator));

    let counters = |e: &Engine<Msg>| {
        let fs = e.component::<FlowSim>(sim).unwrap();
        (fs.ticks(), fs.bytes_injected(), e.events_processed())
    };
    e.run_for(tick * WARM_UP);
    let before = counters(&e);
    let measured = on_this_thread(|| {
        e.run_for(tick * TICKS);
    });
    let after = counters(&e);

    assert_eq!(
        after.0 - before.0,
        TICKS,
        "the flow model ticked throughout"
    );
    assert!(after.1 > before.1, "batches kept arriving");
    // Three events a tick (the generator's timer, its one `Inject`, the
    // flow model's drain) plus the pressure sends: 9,244 in this window.
    let events = after.2 - before.2;
    assert!(
        (4 * TICKS..=5 * TICKS).contains(&events),
        "{events} events over {TICKS} ticks, expected 4 to 5 a tick"
    );
    let pressure_moved = spines.iter().all(|&spine| {
        let spine = e.component::<Switch>(spine).unwrap();
        (0..2).any(|pod| spine.background_bytes(PortId(pod)) > 0)
    });
    assert!(pressure_moved, "both spines saw background pressure");
    assert_budget("fleet background tick", measured, TICKS, 0);
}

/// A registry snapshot of a paper pod with four busy shell pairs. What
/// `Cluster::metrics_snapshot` may acquire: each source's path (a switch,
/// a shell, the shell's LTL child; formatting one can take a second
/// acquisition), each RTT histogram's four (its sample copy, the sorted
/// copy, the buckets, the box) and the doublings of the entry and path
/// vectors. A `String` per metric path, as a map keyed by full paths
/// needs, is several times that.
#[test]
fn metrics_snapshot_acquires_per_component_not_per_metric() {
    const SHELLS: u16 = 8;
    let _serial = serial();
    let mut cluster = ClusterBuilder::paper(5, 1).build();
    let addrs: Vec<NodeAddr> = (0..SHELLS)
        .map(|i| NodeAddr::new(0, i / 2, i % 2))
        .collect();
    for &addr in &addrs {
        cluster.add_shell(addr);
    }
    for pair in addrs.chunks(2) {
        let (send, _, _, _) = cluster.connect_pair(pair[0], pair[1]);
        let gap = SimDuration::from_micros(5);
        schedule_probes(&mut cluster, pair[0], send, SimTime::ZERO, gap, 50, 64);
    }
    cluster.run_to_idle();

    let mut snap = None;
    let measured = on_this_thread(|| snap = Some(cluster.metrics_snapshot()));
    let metrics = snap.expect("snapshot taken").len() as u64;
    let components = cluster.fabric().switch_count() as u64 + 2 * u64::from(SHELLS);
    let histograms = u64::from(SHELLS);
    let doublings = 2 * u64::from(u64::BITS - metrics.leading_zeros());
    let budget = 2 * components + 4 * histograms + doublings;
    assert!(
        3 * budget < metrics,
        "{metrics} metrics over {components} components: the budget must not scale with metrics"
    );
    assert!(
        measured <= budget,
        "snapshot of {components} components and {histograms} histograms ({metrics} metrics): \
         {measured} acquisitions, budget {budget}"
    );
}

/// A one-pod paper fabric — 40 TORs, an aggregation switch, 4 spines —
/// cables 88 of its 1,048 nominal switch ports: each TOR's uplink, the
/// aggregation switch's 40 rack and 4 spine ports, and each spine's port
/// to the pod. Only those hold a 552-byte port; every nominal port costs
/// an 8-byte slot of its switch's port table. Two-sided: the lower bound
/// is the ports and slots that must exist, the upper adds an allowance
/// per switch (its box in the engine, ~200 B, and the engine's and
/// fabric's tables) that is below one more port each (71,993 B measured).
#[test]
fn a_paper_pod_holds_one_port_per_cabled_port() {
    const PORT: i64 = 552;
    const CABLED: i64 = 40 + 40 + 4 + 4;
    const NOMINAL: i64 = 40 * 25 + 44 + 4;
    const SWITCHES: i64 = 45;
    const PER_SWITCH: i64 = 512;
    let _serial = serial();
    let cfg = catapult::calib::fabric_config(catapult::calib::paper_shape(1));
    let mut e: Engine<Msg> = Engine::new(1);
    let mut fabric = None;
    let (_, live) = heap_on_this_thread(|| {
        fabric = Some(FabricBuilder::from_config(&cfg).build(&mut e));
    });
    let fabric = fabric.expect("fabric built");
    assert_eq!(fabric.switch_count(), SWITCHES as usize);
    let floor = CABLED * PORT + NOMINAL * 8;
    let budget = floor + SWITCHES * PER_SWITCH;
    assert!(
        (floor..=budget).contains(&live),
        "a one-pod paper fabric holds {live} B; budget {floor}..={budget} \
         ({CABLED} cabled ports of {PORT} B); one port per nominal port was {}",
        NOMINAL * PORT
    );
}

/// The repository benchmark's `haas_elastic` trace (seed 1, load 1.2, 64
/// tenants, no crashes) on `boards` boards over `secs` simulated seconds.
fn elastic_trace_config(boards: u16, secs: u64) -> ElasticTraceConfig {
    ElasticTraceConfig {
        seed: 1,
        boards,
        horizon: SimDuration::from_secs(secs),
        load: 1.2,
        tenants: 64,
        ..ElasticTraceConfig::default()
    }
}

/// A trace is generated in order, so what `generate_trace` returns is all
/// it leaves behind: exactly one `LeaseEvent` per event, no doubling slack
/// and no tuples of a sort. While it runs, the trace's own doubling and
/// the releases still open may take it at most a quarter above that
/// (collecting tuples and sorting them peaked at 5.7 MB for 2.2 MB of
/// events).
#[test]
fn a_generated_trace_holds_one_event_per_event() {
    let _serial = serial();
    let mut trace = Vec::new();
    let (_, live, peak) = heap_peak_on_this_thread(|| {
        trace = generate_trace(&elastic_trace_config(96, 240));
    });
    let exact = bytes(trace.len() * size_of::<LeaseEvent>());
    assert_eq!(
        live,
        exact,
        "{} events of {} B",
        trace.len(),
        size_of::<LeaseEvent>()
    );
    assert!(
        4 * peak <= 5 * exact,
        "generating {} events peaked at {peak} B, {exact} B kept",
        trace.len()
    );
}

/// The scheduler keeps state for live requests and leases only: after a
/// 240 s trace it holds what it holds after a 60 s one, not four times as
/// much. Its wait histograms keep every grant's sample on purpose and are
/// left out (each is a vector pushed once per sample). What may differ is
/// the capacity of the id tables, grown to a run's largest live set, and
/// the nodes of what is live at its end: at most one growth step of the
/// largest table, the lease table doubling from 512 to 1,024 buckets of a
/// lease, its key and a control byte. Keeping every request id ever
/// accepted held 819 KB more at 240 s.
#[test]
fn the_elastic_scheduler_holds_live_state_only() {
    let growth_step = bytes(512 * (size_of::<u64>() + size_of::<RegionLease>() + 1));
    let _serial = serial();
    let held = |secs: u64| {
        let cfg = elastic_trace_config(96, secs);
        let trace = generate_trace(&cfg);
        let regions = standard_region_alms();
        let mut sched = None;
        let (_, live) = heap_on_this_thread(|| {
            sched = Some(
                run_trace(
                    cfg.boards,
                    &regions,
                    ElasticConfig::default(),
                    &trace,
                    cfg.horizon,
                )
                .0,
            );
        });
        let sched = sched.expect("trace ran");
        let histograms: i64 = TenantClass::ALL
            .iter()
            .map(|&class| {
                let samples = sched.wait_histogram(class).count();
                let mut pushed = Vec::new();
                heap_on_this_thread(|| (0..samples).for_each(|v| pushed.push(v))).1
            })
            .sum();
        (live - histograms, sched.decision_count())
    };
    let (short, short_decisions) = held(60);
    let (long, long_decisions) = held(240);
    assert!(
        long_decisions > 3 * short_decisions,
        "{short_decisions} vs {long_decisions} decisions"
    );
    assert!(
        (long - short).abs() <= growth_step,
        "the scheduler holds {short} B after 60 s and {long} B after 240 s, \
         histograms excluded"
    );
}

/// `fleet_hybrid`'s probes: 12 pairs in the two-pod packet island of a
/// lazy 260-pod paper fabric, 1,000 probes a pair. Each pair's probes
/// are one `schedule_series` stream, so scheduling them pushes 12 queue
/// nodes, not 12,000, while every probe still counts as pending. What the
/// streams hold is one node each and their state: a boxed series and
/// its closure, and the pair's payload. A push per probe held
/// 1,903,192 B: the queue's slab grown for 12,000 nodes.
#[test]
fn fleet_probes_hold_one_queue_node_per_stream() {
    const PAIRS: u16 = 12;
    const PROBES: u64 = 1_000;
    let _serial = serial();
    let mut cluster = ClusterBuilder::paper(1, 260)
        .packet_island(2)
        .lazy(true)
        .build();
    let senders: Vec<(NodeAddr, SendConnId)> = (0..PAIRS)
        .map(|i| {
            let (a, b) = (NodeAddr::new(0, i, 0), NodeAddr::new(1, i, 1));
            cluster.add_shell(a);
            cluster.add_shell(b);
            let (send, _, _, _) = cluster.connect_pair(a, b);
            (a, send)
        })
        .collect();
    let (pushes, pending) = {
        let engine = cluster.engine();
        (engine.queue_stats().pushes, engine.pending_events())
    };
    let (_, live) = heap_on_this_thread(|| {
        for (i, &(a, send)) in senders.iter().enumerate() {
            let start = SimTime::from_nanos(7_000 * (i as u64 + 1));
            let gap = SimDuration::from_millis(2);
            schedule_probes(&mut cluster, a, send, start, gap, PROBES, 32);
        }
    });
    let engine = cluster.engine();
    assert_eq!(
        engine.pending_events() - pending,
        (u64::from(PAIRS) * PROBES) as usize,
        "every probe is pending"
    );
    assert_eq!(
        engine.queue_stats().pushes - pushes,
        u64::from(PAIRS),
        "one queue node per probe stream"
    );
    // 3,872 B measured, about 323 B a stream.
    let (floor, budget) = (i64::from(PAIRS) * 32, i64::from(PAIRS) * 512);
    assert!(
        (floor..=budget).contains(&live),
        "{PAIRS} probe streams hold {live} B; budget {floor}..={budget}"
    );
}

/// `FleetLoadGen` at `fleet_hybrid`'s 260-pod shape keeps one bit per
/// host slot of which hosts have sourced traffic: 249,600 slots in
/// 31,200 B, at most 32 KB. What else it holds is its pod lists and its
/// tick's batch buffer, a few kilobytes. A byte count and a flow count
/// per slot held 2,995,200 B.
#[test]
fn the_fleet_generator_holds_a_bit_per_host() {
    let _serial = serial();
    let shape = catapult::calib::paper_shape(260);
    let map = FidelityMap::packet_island(260, 2);
    let cfg = FleetWorkloadConfig::default();
    let mut gen = None;
    let (_, live) = heap_on_this_thread(|| {
        gen = Some(FleetLoadGen::new(
            cfg,
            shape,
            &map,
            ComponentId::from_raw(0),
        ));
    });
    let gen = gen.expect("generator built");
    assert_eq!(gen.hosts().hosts(), 249_600);
    // Besides the bits: the 258 flow pods and 2 packet pods (collected
    // from an iterator, so with doubling slack: 512 B of it measured) and
    // the shared buffer with room for 64 batches.
    let pods = bytes(260 * size_of::<u16>());
    let batches =
        bytes(2 * size_of::<usize>() + size_of::<Vec<FlowBatch>>() + 64 * size_of::<FlowBatch>());
    let hosts = live - pods - batches;
    assert!(
        (249_600 / 8..=32 * 1024).contains(&hosts),
        "{live} B held, {hosts} B of it beyond the pod lists and batch buffer"
    );
}
