//! Differential property test of the timer reservation
//! (`Context::{reserve_timer, timer_is_ahead, arm_timer}`).
//!
//! A random graph of `Node`s plays the part of serializing ports: a node
//! that receives a hop while idle "transmits" it (holds itself busy for a
//! few nanoseconds and forwards the hop to a random peer); while busy it
//! queues the hop instead. Its busy-until timer does something only if a
//! hop is queued when it fires — otherwise the handler is a no-op.
//!
//! Every graph runs twice: *eager* (a `busy` flag plus `timer_after`, the
//! model the reservation replaces) and *deferred* (reserve the key, arm
//! iff a hop is waiting). The deferred run must dispatch exactly the eager
//! run's events minus its no-op timers, in the same order, with the same
//! random draws — in a plain engine with and without a tie-break salt,
//! and partitioned over 1, 2 and 4 shards, from the start or mid-run.
//! Delays are a few nanoseconds, so timers and arrivals collide on the
//! same instant all the time and the key comparison, not the clock,
//! decides most busy checks.

use std::collections::VecDeque;

use dcsim::{
    Component, ComponentId, Context, Engine, EventRecord, Observer, ShardPlan, ShardedEngine,
    SimDuration, SimTime, TimerKey,
};
use proptest::prelude::*;

/// What a node recorded about one dispatch: time, whether it was the
/// timer, and the hop count handled.
type Entry = (u64, bool, u32);

struct Node {
    deferred: bool,
    peers: Vec<ComponentId>,
    queue: VecDeque<u32>,
    /// Eager model: a transmission's timer has not fired yet.
    busy: bool,
    /// Deferred model: when the transmission ends, the reserved position
    /// of its timer (while not armed), and whether the timer is enqueued.
    free_at: SimTime,
    reserved: Option<TimerKey>,
    armed: bool,
    log: Vec<Entry>,
    draws: Vec<u64>,
    noop_timers: u64,
    last_was_noop: bool,
}

impl Node {
    fn new(deferred: bool, peers: Vec<ComponentId>) -> Node {
        Node {
            deferred,
            peers,
            queue: VecDeque::new(),
            busy: false,
            free_at: SimTime::ZERO,
            reserved: None,
            armed: false,
            log: Vec::new(),
            draws: Vec::new(),
            noop_timers: 0,
            last_was_noop: false,
        }
    }

    fn is_busy(&self, ctx: &Context<'_, u32>) -> bool {
        if !self.deferred {
            return self.busy;
        }
        self.armed
            || self
                .reserved
                .is_some_and(|key| ctx.timer_is_ahead(self.free_at, key))
    }

    fn transmit(&mut self, hops: u32, ctx: &mut Context<'_, u32>) {
        let r = ctx.rng().next_u64();
        self.draws.push(r);
        let hold = SimDuration::from_nanos(1 + r % 4);
        let flight = SimDuration::from_nanos(1 + (r >> 8) % 5);
        let peer = self.peers[(r >> 16) as usize % self.peers.len()];
        // Timer first, then the message: both models consume the same
        // two keys in the same order.
        if self.deferred {
            self.free_at = ctx.now() + hold;
            self.reserved = Some(ctx.reserve_timer());
        } else {
            self.busy = true;
            ctx.timer_after(hold, 0);
        }
        if hops > 0 {
            ctx.send_after(flight, peer, hops - 1);
        }
        self.arm_if_waiting(ctx);
    }

    fn arm_if_waiting(&mut self, ctx: &mut Context<'_, u32>) {
        if self.queue.is_empty() {
            return;
        }
        if let Some(key) = self.reserved.take() {
            ctx.arm_timer(self.free_at, key, 0);
            self.armed = true;
        }
    }
}

impl Component<u32> for Node {
    fn on_message(&mut self, hops: u32, ctx: &mut Context<'_, u32>) {
        self.last_was_noop = false;
        self.log.push((ctx.now().as_nanos(), false, hops));
        if self.is_busy(ctx) {
            self.queue.push_back(hops);
            self.arm_if_waiting(ctx);
        } else {
            self.transmit(hops, ctx);
        }
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut Context<'_, u32>) {
        self.busy = false;
        self.armed = false;
        self.last_was_noop = self.queue.is_empty();
        let Some(hops) = self.queue.pop_front() else {
            assert!(!self.deferred, "a deferred timer fired with no work");
            self.noop_timers += 1;
            return;
        };
        self.log.push((ctx.now().as_nanos(), true, hops));
        self.transmit(hops, ctx);
    }
}

/// Global dispatch order of a plain-engine run, no-op timers left out.
#[derive(Default)]
struct Trace(Vec<(u64, usize, bool)>);

impl Observer<u32> for Trace {
    fn after_event(&mut self, ev: &EventRecord, engine: &Engine<u32>) {
        let node = engine.component::<Node>(ev.dest).expect("all nodes");
        if !node.last_was_noop {
            self.0
                .push((ev.at.as_nanos(), ev.dest.as_raw(), ev.timer.is_some()));
        }
    }
}

/// A graph and its injected hops, generated once and built in either mode.
#[derive(Debug, Clone)]
struct Spec {
    seed: u64,
    peers: Vec<Vec<usize>>,
    /// `(at ns, node, hops)`.
    injected: Vec<(u64, usize, u32)>,
}

impl Spec {
    /// Folds generated node indices into the graph's size.
    fn new(seed: u64, mut peers: Vec<Vec<usize>>, mut injected: Vec<(u64, usize, u32)>) -> Spec {
        let n = peers.len();
        peers.iter_mut().flatten().for_each(|p| *p %= n);
        injected.iter_mut().for_each(|hop| hop.1 %= n);
        Spec {
            seed,
            peers,
            injected,
        }
    }
}

fn build(spec: &Spec, deferred: bool, salt: u64) -> Engine<u32> {
    let mut engine: Engine<u32> = Engine::new(spec.seed);
    engine.set_tie_break_salt(salt);
    for peers in &spec.peers {
        let peers = peers.iter().map(|&p| ComponentId::from_raw(p)).collect();
        engine.add_component(Node::new(deferred, peers));
    }
    for &(at, node, hops) in &spec.injected {
        engine.schedule(SimTime::from_nanos(at), ComponentId::from_raw(node), hops);
    }
    engine
}

/// What must not differ between the two models: every node's dispatch log
/// and random draws, and the count of events that did anything.
#[derive(Debug, PartialEq)]
struct Outcome {
    nodes: Vec<(Vec<Entry>, Vec<u64>)>,
    useful_events: u64,
}

fn outcome<'a>(n: usize, events: u64, node: impl Fn(ComponentId) -> Option<&'a Node>) -> Outcome {
    let nodes: Vec<&Node> = (0..n)
        .map(|i| node(ComponentId::from_raw(i)).expect("all nodes"))
        .collect();
    let noops: u64 = nodes.iter().map(|n| n.noop_timers).sum();
    Outcome {
        nodes: nodes
            .iter()
            .map(|n| (n.log.clone(), n.draws.clone()))
            .collect(),
        useful_events: events - noops,
    }
}

fn run_plain(spec: &Spec, deferred: bool, salt: u64) -> (Outcome, Vec<(u64, usize, bool)>, u64) {
    let mut engine = build(spec, deferred, salt);
    engine.set_observer(Box::new(Trace::default()));
    engine.run_to_idle();
    let trace = engine.observer_as::<Trace>().expect("attached").0.clone();
    let events = engine.events_processed();
    let out = outcome(spec.peers.len(), events, |id| engine.component(id));
    (out, trace, events)
}

/// Runs unsharded up to `split_at` (when given), partitions over
/// `shards`, runs on to `merge_at` (when given), merges, and drains.
fn run_sharded(
    spec: &Spec,
    deferred: bool,
    shards: u32,
    (split_at, merge_at): (Option<u64>, Option<u64>),
) -> (Outcome, u64) {
    let n = spec.peers.len();
    let shard_of = (0..n).map(|i| i as u32 % shards).collect();
    // Every hop is at least 1 ns in flight.
    let plan = ShardPlan::new(shards, shard_of, SimDuration::from_nanos(1));
    let mut engine = ShardedEngine::unsharded(build(spec, deferred, 0));
    if let Some(at) = split_at {
        engine.run_until(SimTime::from_nanos(at));
    }
    engine.partition(plan);
    if let Some(at) = merge_at {
        engine.run_until(SimTime::from_nanos(at));
        engine.merge();
    }
    engine.run_to_idle();
    let events = engine.events_processed();
    let out = outcome(n, events, |id| engine.component(id));
    (out, events)
}

proptest! {
    #[test]
    fn deferred_timers_elide_only_noop_events(
        seed in any::<u64>(),
        peers in proptest::collection::vec(proptest::collection::vec(0usize..64, 1..4), 2..9),
        injected in proptest::collection::vec((0u64..12, 0usize..64, 1u32..40), 1..10),
        mid in 5u64..60,
    ) {
        let spec = Spec::new(seed, peers, injected);
        for salt in [0u64, 0x5EED_CAFE] {
            let (eager, eager_trace, eager_events) = run_plain(&spec, false, salt);
            let (deferred, deferred_trace, deferred_events) = run_plain(&spec, true, salt);
            prop_assert_eq!(&deferred, &eager, "plain engine, salt {:#x}", salt);
            prop_assert_eq!(deferred_trace, eager_trace, "dispatch order, salt {:#x}", salt);
            prop_assert_eq!(deferred_events, deferred.useful_events, "no no-op left");
            prop_assert!(deferred_events <= eager_events);
        }
        // Partitioned from the start, and partitioned mid-run with
        // reservations outstanding: `partition` keeps the keys they were
        // taken against, so both stay exact.
        for phases in [(None, None), (Some(mid), None)] {
            let mut across_shards: Option<Outcome> = None;
            for shards in [1u32, 2, 4] {
                let (eager, _) = run_sharded(&spec, false, shards, phases);
                let (deferred, deferred_events) = run_sharded(&spec, true, shards, phases);
                prop_assert_eq!(&deferred, &eager, "{} shard(s), {:?}", shards, phases);
                prop_assert_eq!(deferred_events, deferred.useful_events, "no no-op left");
                let first = across_shards.get_or_insert(deferred);
                prop_assert_eq!(&eager, &*first, "shard-count invariance, {} shards", shards);
            }
        }
        // Merged mid-run: `merge` renumbers the queue, so a reservation it
        // finds outstanding compares as last at its instant — no longer
        // the eager order, but the same whatever the shard count was.
        let merged = |shards| run_sharded(&spec, true, shards, (None, Some(mid))).0;
        let one = merged(1);
        prop_assert_eq!(&merged(2), &one, "merge after 2 shards");
        prop_assert_eq!(&merged(4), &one, "merge after 4 shards");
    }
}
