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
//! and has to count the whole process; its constant budget absorbs that.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use dcnet::{
    FabricBuilder, FabricConfig, FabricShape, Jitter, Msg, NetEvent, NodeAddr, Packet, PortId,
    SwitchConfig, TrafficClass,
};
use dcsim::{
    Component, ComponentId, Context, Engine, ShardPlan, ShardedEngine, SimDuration, SimTime,
};

/// Counts heap acquisitions (`alloc` and `realloc`); frees are irrelevant
/// to the steady-state-zero contract.
struct CountingAlloc;

/// Acquisitions by any thread.
static PROCESS_ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Acquisitions by threads inside [`on_this_thread`].
static MEASURED_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set while this thread runs a measured window. Const-initialised and
    /// without a destructor, so reading it from the allocator neither
    /// allocates nor registers anything.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    PROCESS_ALLOCS.fetch_add(1, Ordering::Relaxed);
    // `try_with`: a thread may still allocate while it is being torn down.
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        MEASURED_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; `count` only touches atomics and a thread-local
// `Cell` that needs no lazy initialisation, so it cannot re-enter the
// allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above; `ptr` came from `System` via this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `window` and returns how many times *this thread* acquired heap
/// memory inside it.
fn on_this_thread(window: impl FnOnce()) -> u64 {
    let before = MEASURED_ALLOCS.load(Ordering::Relaxed);
    MEASURING.with(|m| m.set(true));
    window();
    MEASURING.with(|m| m.set(false));
    MEASURED_ALLOCS.load(Ordering::Relaxed) - before
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
    let a_attach = fabric.attach(&mut e, a_addr, next, PortId(0));
    let a = e.add_component(Bouncer {
        tor: a_attach.tor,
        tor_port: a_attach.port,
        remaining: BOUNCES,
    });
    assert_eq!(a, next);
    let next = e.next_component_id();
    let b_attach = fabric.attach(&mut e, b_addr, next, PortId(0));
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
