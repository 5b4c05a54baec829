//! The discrete-event engine.
//!
//! A simulation is a set of [`Component`]s that exchange typed messages
//! through the [`Engine`]. Components never hold references to each other;
//! all interaction is mediated by messages scheduled on the global event
//! queue, which keeps the simulation deterministic and the borrow checker
//! happy at any scale.
//!
//! # Examples
//!
//! ```
//! use dcsim::{Component, Context, Engine, SimDuration, SimTime};
//!
//! struct Ping {
//!     peer: dcsim::ComponentId,
//!     hops: u32,
//! }
//!
//! impl Component<u32> for Ping {
//!     fn on_message(&mut self, msg: u32, ctx: &mut Context<'_, u32>) {
//!         self.hops += 1;
//!         if msg > 0 {
//!             ctx.send_after(SimDuration::from_micros(1), self.peer, msg - 1);
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(42);
//! let a = engine.add_component(Ping { peer: dcsim::ComponentId::from_raw(1), hops: 0 });
//! let b = engine.add_component(Ping { peer: a, hops: 0 });
//! engine.schedule(SimTime::ZERO, a, 10u32);
//! engine.run_to_idle();
//! assert_eq!(engine.component::<Ping>(a).unwrap().hops + engine.component::<Ping>(b).unwrap().hops, 11);
//! ```

use std::any::Any;
use std::fmt;

use crate::queue::{CalendarQueue, QueueStats};
use crate::rng::SimRng;
use crate::sharded::{self, RemoteEvent, Routed, ShardRoute};
use crate::time::{SimDuration, SimTime};

/// Identifies a component registered with an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(usize);

impl ComponentId {
    /// Constructs an id from its raw index. Only useful for wiring up
    /// mutually-referential components before both exist; the id must match
    /// the registration order of `add_component` calls.
    pub const fn from_raw(index: usize) -> Self {
        ComponentId(index)
    }

    /// The raw index of this id.
    pub const fn as_raw(self) -> usize {
        self.0
    }
}

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A simulation actor. Implementors receive messages of type `M` and timer
/// callbacks, and react by scheduling further events through the
/// [`Context`].
///
/// The `Any` supertrait lets experiment drivers recover concrete component
/// state after a run via [`Engine::component`]. The `Send` supertrait lets
/// a built simulation be partitioned across worker threads by
/// [`crate::ShardedEngine`]; components still never run concurrently with
/// anything that can observe them, so no `Sync` bound is needed.
pub trait Component<M>: Any + Send {
    /// Called when a message scheduled for this component becomes due.
    fn on_message(&mut self, msg: M, ctx: &mut Context<'_, M>);

    /// Called when a timer armed with [`Context::timer_after`] fires.
    /// The default implementation ignores timers.
    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, M>) {
        let _ = (token, ctx);
    }
}

pub(crate) enum EventKind<M> {
    Message(M),
    Timer(u64),
    /// A periodic message stream ([`Engine::schedule_series`]): one queue
    /// node standing for its next instance and every one after it. Boxed,
    /// so it adds no byte to the queue node.
    Series(Box<Series<M>>),
}

/// The state of a pending [`Engine::schedule_series`] stream. The queue
/// node holding it sits at the `(time, key)` of the instance it will
/// dispatch next; `seq` is that instance's submission index.
pub(crate) struct Series<M> {
    seq: u64,
    /// Instances after the queued one.
    pub(crate) left: u64,
    gap: u64,
    /// The tie-break salt in force when the keys were reserved.
    pub(crate) salt: u64,
    make: Box<dyn FnMut() -> M + Send>,
}

impl<M> Series<M> {
    /// Builds the queued instance's message.
    pub(crate) fn make(&mut self) -> M {
        (self.make)()
    }

    /// Moves from the instance queued at `at` to the next one, returning
    /// its `(time, key)`; `None` when the queued instance was the last.
    pub(crate) fn advance(&mut self, at: u64) -> Option<(u64, u64)> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        self.seq += 1;
        Some((at + self.gap, fifo_key(self.seq, self.salt)))
    }
}

/// Metadata describing one dispatched event, handed to an [`Observer`]
/// after the receiving component has processed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRecord {
    /// Timestamp of the event (equals the engine clock during the callback).
    pub at: SimTime,
    /// The component the event was delivered to.
    pub dest: ComponentId,
    /// The timer token, for timer events; `None` for messages. Message
    /// payloads are consumed by the component and are not exposed here —
    /// observers inspect component state through [`Engine::component`]
    /// instead.
    pub timer: Option<u64>,
    /// Index of this event in dispatch order (0-based, monotonically
    /// increasing across the engine's lifetime).
    pub index: u64,
}

/// An event-granularity probe attached to an [`Engine`] with
/// [`Engine::set_observer`].
///
/// The observer runs after every dispatched event, once the component has
/// been returned to its slot, so it can inspect any component's state via
/// [`Engine::component`]. Observers must be passive: they get only a shared
/// borrow of the engine and cannot schedule events, so attaching one never
/// changes the simulation's event order or its deterministic outcome.
///
/// This is the hook simulation-testing oracles (invariant checkers,
/// differential reference models) use to check the system between every
/// pair of events.
///
/// The `Send` supertrait keeps [`Engine`] itself `Send`: the shards of a
/// partitioned [`crate::ShardedEngine`] are plain engines handed to scoped
/// worker threads, and the observer slot is the only field that could
/// otherwise pin an engine to its thread.
pub trait Observer<M>: Any + Send {
    /// Called after each event is dispatched.
    fn after_event(&mut self, event: &EventRecord, engine: &Engine<M>);
}

/// The queue position of a timer that has not been enqueued: the
/// tie-break key [`Context::reserve_timer`] consumed for it. Together with
/// the timer's due time (which the component already knows) it says
/// exactly where the timer would sit in the event order, so the component
/// can decide later — with [`Context::timer_is_ahead`] — whether it would
/// have fired yet, and pay for the event ([`Context::arm_timer`]) only if
/// its handler will have something to do.
#[derive(Debug, Clone, Copy)]
pub struct TimerKey(u64);

/// Handle given to a component while it processes an event. Lets it read
/// the clock, schedule messages and timers, draw random numbers and stop
/// the simulation.
pub struct Context<'a, M> {
    now: SimTime,
    /// Tie-break key of the event being dispatched; `(now, dispatching)`
    /// is its position in the event order.
    dispatching: u64,
    id: ComponentId,
    /// The engine's event queue, pushed to directly: scheduling from a
    /// component costs one queue insert, not a staging-buffer round-trip.
    queue: &'a mut CalendarQueue<(ComponentId, EventKind<M>)>,
    seq: &'a mut u64,
    tie_break_salt: u64,
    rng: &'a mut SimRng,
    stop: &'a mut bool,
    /// `Some` when the dispatching engine is a shard of a partitioned
    /// [`crate::ShardedEngine`]: sends are routed by destination shard and
    /// keyed with the shard-count-invariant `(source, send index)` scheme,
    /// and `seq`/`rng` are the executing component's own.
    route: Option<&'a mut ShardRoute<M>>,
}

impl<'a, M> Context<'a, M> {
    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the component currently executing.
    pub fn id(&self) -> ComponentId {
        self.id
    }

    /// Sends `msg` to `dest`, delivered at the current time (after all
    /// events already due now, preserving FIFO order).
    pub fn send(&mut self, dest: ComponentId, msg: M) {
        self.send_after(SimDuration::ZERO, dest, msg);
    }

    /// Sends `msg` to `dest` after `delay`.
    pub fn send_after(&mut self, delay: SimDuration, dest: ComponentId, msg: M) {
        self.push(self.now + delay, dest, EventKind::Message(msg));
    }

    /// Sends `msg` back to the executing component after `delay`.
    pub fn send_to_self_after(&mut self, delay: SimDuration, msg: M) {
        self.send_after(delay, self.id, msg);
    }

    /// Arms a timer on the executing component; [`Component::on_timer`] will
    /// be invoked with `token` after `delay`.
    pub fn timer_after(&mut self, delay: SimDuration, token: u64) {
        self.push(self.now + delay, self.id, EventKind::Timer(token));
    }

    /// Consumes the tie-break key a [`Context::timer_after`] issued now
    /// would get, without enqueuing anything. Every later event keeps the
    /// key it would have had next to an eager timer, so reserving instead
    /// of arming cannot move any other event in the order.
    pub fn reserve_timer(&mut self) -> TimerKey {
        TimerKey(self.next_key())
    }

    /// Whether a timer due at `at` under the reserved `key` still sorts
    /// after the event being dispatched — i.e. whether, had it been
    /// enqueued, it would not have fired yet. A timer is not ahead of its
    /// own dispatch.
    pub fn timer_is_ahead(&self, at: SimTime, key: TimerKey) -> bool {
        (at.as_nanos(), key.0) > (self.now.as_nanos(), self.dispatching)
    }

    /// Enqueues the reserved timer on the executing component at exactly
    /// `(at, key)`, the position an eager `timer_after` would have given
    /// it; [`Component::on_timer`] is invoked with `token`. Arm a
    /// reservation at most once.
    ///
    /// # Panics
    ///
    /// Panics unless the timer [is ahead](Context::timer_is_ahead): an
    /// event enqueued behind the one being dispatched would run the
    /// clock backwards.
    pub fn arm_timer(&mut self, at: SimTime, key: TimerKey, token: u64) {
        assert!(
            self.timer_is_ahead(at, key),
            "cannot arm a timer whose reserved position has passed"
        );
        if let Some(route) = self.route.as_deref_mut() {
            route.cut_counts[route.plan.cut_class[self.id.as_raw()] as usize] += 1;
        }
        self.queue
            .push(at.as_nanos(), key.0, (self.id, EventKind::Timer(token)));
    }

    /// Takes the next tie-break key of the scheme in force: submission
    /// order (salted or not) in a plain engine, `(source, send index)`
    /// in a shard.
    fn next_key(&mut self) -> u64 {
        let key = match self.route {
            Some(_) => sharded::source_key(self.id, *self.seq),
            None => fifo_key(*self.seq, self.tie_break_salt),
        };
        *self.seq += 1;
        key
    }

    /// Enqueues with the same key scheme as [`Engine::push`]: events are
    /// keyed in submission order, exactly as the engine itself pushes.
    ///
    /// Under a [`crate::ShardedEngine`] the key is instead derived from the
    /// sending component and its private send counter — an ordering that
    /// does not depend on how components are interleaved across shards —
    /// and cross-shard sends land in the window outbox rather than the
    /// local queue.
    fn push(&mut self, at: SimTime, dest: ComponentId, kind: EventKind<M>) {
        let key = self.next_key();
        if let Some(route) = self.route.as_deref_mut() {
            let plan = &*route.plan;
            let at_ns = at.as_nanos();
            if dest != self.id {
                // Declared send pacing: the cut-excess table the adaptive
                // window end is derived from may rely on this floor, so a
                // component breaking its promise must fail loudly rather
                // than silently corrupt the window-safety argument.
                // Self-sends and timers are exempt — a causal chain still
                // pays the floor once when it leaves the component.
                let floor = plan.min_send[self.id.as_raw()];
                assert!(
                    at_ns >= self.now.as_nanos().saturating_add(floor),
                    "send-pacing violation: {} declared a minimum send delay \
                     of {} ns but scheduled an event for {} only {} ns ahead",
                    self.id,
                    floor,
                    dest,
                    at_ns.saturating_sub(self.now.as_nanos()),
                );
            }
            let dst_shard = plan.shard_of[dest.as_raw()];
            let class = plan.cut_class[dest.as_raw()] as usize;
            if dst_shard == route.my_shard {
                route.cut_counts[class] += 1;
                self.queue.push(at_ns, key, (dest, kind));
            } else {
                assert!(
                    at_ns >= route.window_end,
                    "lookahead violation: {} scheduled a cross-shard event at {} ns \
                     inside the window ending at {} ns; the shard plan's lookahead \
                     overstates the minimum cross-shard delay",
                    self.id,
                    at_ns,
                    route.window_end,
                );
                // In-flight minima published at the barrier: the event is
                // in no queue until the destination drains its mailbox, so
                // the sender accounts for it in the next round's window
                // start and cut-ETA reductions.
                route.out_min_at = route.out_min_at.min(at_ns);
                route.out_min_eta = route
                    .out_min_eta
                    .min(at_ns.saturating_add(plan.class_excess[class]));
                route.sync.cut_events += 1;
                route.outboxes[dst_shard as usize].push(RemoteEvent {
                    at: at_ns,
                    key,
                    dest,
                    kind,
                });
            }
            return;
        }
        self.queue.push(at.as_nanos(), key, (dest, kind));
    }

    /// The simulation-wide deterministic random number generator.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Requests that the engine stop after the current event completes.
    ///
    /// Under a [`crate::ShardedEngine`] the stop takes effect at the next
    /// window barrier, and the set of events processed before it lands
    /// depends on the shard layout — deterministic per shard count, but
    /// not invariant across shard counts.
    pub fn stop(&mut self) {
        *self.stop = true;
    }
}

/// The discrete-event scheduler: owns all components and the event queue.
///
/// The fields marked `pub(crate)` are what [`crate::ShardedEngine`] deals
/// out and collects when it partitions one engine into routed shard
/// engines and merges them back. Those shards sit side by side in one
/// `Vec`, each written by its own worker thread, so an engine starts on
/// a 128-byte line of its own and shares none with its neighbour.
#[repr(align(128))]
pub struct Engine<M> {
    pub(crate) now: SimTime,
    pub(crate) seq: u64,
    pub(crate) queue: CalendarQueue<(ComponentId, EventKind<M>)>,
    /// Indexed by global [`ComponentId`]. In a shard the table is sparse
    /// (full length, only the shard's own components populated).
    pub(crate) components: Vec<Option<Box<dyn Component<M>>>>,
    pub(crate) rng: SimRng,
    seed: u64,
    pub(crate) stopped: bool,
    pub(crate) events_processed: u64,
    pub(crate) observer: Option<Box<dyn Observer<M>>>,
    pub(crate) tie_break_salt: u64,
    /// `Some` while this engine is one shard of a partitioned
    /// [`crate::ShardedEngine`]; selects the routed key and RNG scheme in
    /// [`Context::push`].
    pub(crate) routed: Option<Box<Routed<M>>>,
    /// Messages of pending series not yet behind a queue node: the sum of
    /// their `left`. Counted by [`Engine::pending_events`], never seen by
    /// the queue's sizing.
    pub(crate) series_backlog: u64,
}

impl<M: 'static> Engine<M> {
    /// Creates an engine whose random stream is derived from `seed`.
    pub fn new(seed: u64) -> Self {
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            queue: CalendarQueue::new(),
            components: Vec::new(),
            rng: SimRng::seed_from(seed),
            seed,
            stopped: false,
            events_processed: 0,
            observer: None,
            tie_break_salt: 0,
            routed: None,
            series_backlog: 0,
        }
    }

    /// Creates an engine with the component registry pre-sized for
    /// `components` registrations — avoids repeated reallocation when a
    /// fleet-scale builder is about to register tens of thousands of
    /// components up front.
    pub fn with_capacity(seed: u64, components: usize) -> Self {
        let mut engine = Self::new(seed);
        engine.components.reserve(components);
        engine
    }

    /// The seed this engine's random stream was derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Registers a component and returns its id. Ids are assigned in
    /// registration order starting from zero.
    pub fn add_component<C: Component<M>>(&mut self, component: C) -> ComponentId {
        self.add_boxed(Box::new(component))
    }

    /// Registers an already-boxed component.
    pub fn add_boxed(&mut self, component: Box<dyn Component<M>>) -> ComponentId {
        let id = ComponentId(self.components.len());
        self.components.push(Some(component));
        id
    }

    /// The id the next registered component will receive.
    pub fn next_component_id(&self) -> ComponentId {
        ComponentId(self.components.len())
    }

    /// Number of registered components.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Schedules `msg` for `dest` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current simulation time.
    pub fn schedule(&mut self, at: SimTime, dest: ComponentId, msg: M) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.push(at, dest, EventKind::Message(msg));
    }

    /// Schedules `msg` for `dest` after `delay` from the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, dest: ComponentId, msg: M) {
        self.push(self.now + delay, dest, EventKind::Message(msg));
    }

    /// Schedules `count` messages for `dest` at `start`, `start + gap`,
    /// `start + 2·gap`, … — exactly what `count` calls of
    /// [`Engine::schedule`] would schedule, holding one queue node instead
    /// of `count`. The stream takes the `count` tie-break keys those calls
    /// would take (under the salt in force now), and its node sits at the
    /// next instance's `(time, key)`; when it pops, `make()` builds that
    /// instance's message, the node moves on to the next instance, and the
    /// message is dispatched as a scheduled one would be. No event is
    /// added, removed or reordered, and an [`Observer`] sees the same
    /// [`EventRecord`]s.
    ///
    /// `make` is called once per instance, in instance order, but not
    /// necessarily at the instance's dispatch: a zero `gap` (every
    /// instance at one instant, in key order) builds them all now, and
    /// [`crate::ShardedEngine::merge`] builds every instance left. It
    /// must not depend on when it is called.
    ///
    /// # Panics
    ///
    /// Panics if `start` is earlier than the current simulation time or
    /// the last instance's time overflows the clock.
    pub fn schedule_series(
        &mut self,
        start: SimTime,
        gap: SimDuration,
        count: u64,
        dest: ComponentId,
        mut make: impl FnMut() -> M + Send + 'static,
    ) {
        assert!(start >= self.now, "cannot schedule into the past");
        let Some(left) = count.checked_sub(1) else {
            return;
        };
        let last = gap
            .as_nanos()
            .checked_mul(left)
            .and_then(|span| start.as_nanos().checked_add(span));
        assert!(
            last.is_some(),
            "a series of {count} messages {} ns apart from {} ns overflows the clock",
            gap.as_nanos(),
            start.as_nanos(),
        );
        if gap == SimDuration::ZERO {
            // One instant: the node would have to pop in salted key
            // order, which a counter cannot walk.
            for _ in 0..count {
                self.push(start, dest, EventKind::Message(make()));
            }
            return;
        }
        let series = Series {
            seq: self.seq,
            left,
            gap: gap.as_nanos(),
            salt: self.tie_break_salt,
            make: Box::new(make),
        };
        self.push(start, dest, EventKind::Series(Box::new(series)));
        self.seq += left;
        self.series_backlog += left;
    }

    /// Attaches an [`Observer`] invoked after every dispatched event.
    /// Replaces any previous observer.
    pub fn set_observer(&mut self, observer: Box<dyn Observer<M>>) {
        self.observer = Some(observer);
    }

    /// Detaches and returns the current observer, if any.
    pub fn take_observer(&mut self) -> Option<Box<dyn Observer<M>>> {
        self.observer.take()
    }

    /// Borrows the attached observer, if it has concrete type `T`.
    pub fn observer_as<T: Observer<M>>(&self) -> Option<&T> {
        let boxed = self.observer.as_deref()?;
        (boxed as &dyn Any).downcast_ref::<T>()
    }

    /// Deterministically perturbs the tie-break order of same-timestamp
    /// events. Salt `0` (the default) is exact submission-order FIFO — the
    /// documented baseline contract. Any nonzero salt reorders events that
    /// share a timestamp into a different but fully deterministic order
    /// (a pure function of the salt and each event's submission index);
    /// timestamp order is never affected, and causality is preserved
    /// because an event's children are only enqueued after it executes.
    ///
    /// Simulation-testing drivers sweep salts to check that protocol
    /// correctness does not secretly depend on FIFO tie-breaking between
    /// unrelated components. Set the salt before scheduling; events pushed
    /// earlier keep the keys they were enqueued with.
    pub fn set_tie_break_salt(&mut self, salt: u64) {
        self.tie_break_salt = salt;
    }

    pub(crate) fn push(&mut self, at: SimTime, dest: ComponentId, kind: EventKind<M>) {
        let key = fifo_key(self.seq, self.tie_break_salt);
        self.queue.push(at.as_nanos(), key, (dest, kind));
        self.seq += 1;
    }

    /// Runs until the queue is empty or a component calls [`Context::stop`].
    /// Returns the number of events processed by this call.
    pub fn run_to_idle(&mut self) -> u64 {
        self.run_until(SimTime::MAX)
    }

    /// Runs events with timestamps `<= horizon`; the clock is left at the
    /// last processed event (or advanced to `horizon` if it is finite and the
    /// queue drained early). Returns the number of events processed.
    pub fn run_until(&mut self, horizon: SimTime) -> u64 {
        let processed = self.dispatch(horizon.as_nanos());
        if !self.stopped && horizon != SimTime::MAX && self.now < horizon {
            self.now = horizon;
        }
        processed
    }

    /// The dispatch loop — the only one: pops events due at or before
    /// `until_incl` in `(time, key)` order and hands each to its
    /// component, leaving the clock at the last one processed. A
    /// [`crate::ShardedEngine`] runs every window of every shard through
    /// here too; the shard's [`Routed`] state then supplies the executing
    /// component's own send counter and random stream plus the routing
    /// view [`Context::push`] branches on.
    pub(crate) fn dispatch(&mut self, until_incl: u64) -> u64 {
        let mut processed = 0;
        while !self.stopped {
            let Some(ev) = self.queue.pop_due(until_incl) else {
                break;
            };
            debug_assert!(ev.at >= self.now.as_nanos(), "event queue went backwards");
            self.now = SimTime::from_nanos(ev.at);
            let (dest, kind) = ev.value;
            let kind = match kind {
                EventKind::Series(mut series) => {
                    let msg = series.make();
                    if let Some((at, key)) = series.advance(ev.at) {
                        self.series_backlog -= 1;
                        self.push_keyed(at, key, dest, EventKind::Series(series));
                    }
                    EventKind::Message(msg)
                }
                kind => kind,
            };
            let timer = match &kind {
                EventKind::Timer(token) => Some(*token),
                _ => None,
            };

            let Some(slot) = self.components.get_mut(dest.0) else {
                panic!("event addressed to unregistered component {dest}");
            };
            let mut component = slot
                .take()
                .expect("component is registered here and returned after every dispatch");

            {
                let (seq, rng, route) = match self.routed.as_deref_mut() {
                    None => (&mut self.seq, &mut self.rng, None),
                    Some(routed) => routed.enter(dest),
                };
                let mut ctx = Context {
                    now: self.now,
                    dispatching: ev.seq,
                    id: dest,
                    queue: &mut self.queue,
                    seq,
                    tie_break_salt: self.tie_break_salt,
                    rng,
                    stop: &mut self.stopped,
                    route,
                };
                match kind {
                    EventKind::Message(msg) => component.on_message(msg, &mut ctx),
                    EventKind::Timer(token) => component.on_timer(token, &mut ctx),
                    EventKind::Series(_) => unreachable!("a series dispatches its message"),
                }
            }
            self.components[dest.0] = Some(component);

            let record = EventRecord {
                at: self.now,
                dest,
                timer,
                index: self.events_processed,
            };
            processed += 1;
            self.events_processed += 1;
            if let Some(mut obs) = self.observer.take() {
                obs.after_event(&record, self);
                self.observer = Some(obs);
            }
        }
        processed
    }

    /// Runs for `span` of simulated time from the current clock.
    pub fn run_for(&mut self, span: SimDuration) -> u64 {
        let horizon = self.now + span;
        self.run_until(horizon)
    }

    /// Whether a component stopped the simulation.
    pub fn is_stopped(&self) -> bool {
        self.stopped
    }

    /// Clears the stop flag so the engine can be resumed.
    pub fn clear_stop(&mut self) {
        self.stopped = false;
    }

    /// Borrows the concrete component at `id`, if it has type `T`.
    pub fn component<T: Component<M>>(&self, id: ComponentId) -> Option<&T> {
        let boxed = self.components.get(id.0)?.as_deref()?;
        (boxed as &dyn Any).downcast_ref::<T>()
    }

    /// Mutably borrows the concrete component at `id`, if it has type `T`.
    pub fn component_mut<T: Component<M>>(&mut self, id: ComponentId) -> Option<&mut T> {
        let boxed = self.components.get_mut(id.0)?.as_deref_mut()?;
        (boxed as &mut dyn Any).downcast_mut::<T>()
    }

    /// The engine's deterministic random number generator (e.g. to fork
    /// per-component streams while building a topology).
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Number of events still pending: a [`Engine::schedule_series`]
    /// stream counts every message it has yet to dispatch, not its one
    /// queue node.
    pub fn pending_events(&self) -> usize {
        self.queue.len() + self.series_backlog as usize
    }

    /// What the event queue has cost so far, as exact counts.
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }
}

/// The unrouted tie-break key of the `seq`-th submission. With no salt
/// it is the submission counter itself (FIFO); with a salt it is the
/// SplitMix64 finalizer of their xor — a bijection on `u64`, so keys stay
/// unique and the permutation of same-timestamp events is deterministic.
#[inline]
fn fifo_key(seq: u64, salt: u64) -> u64 {
    if salt == 0 {
        return seq;
    }
    let mut z = seq ^ salt;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl<M: 'static> fmt::Debug for Engine<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("components", &self.components.len())
            // Series messages included, as `pending_events` counts them.
            .field("pending_events", &self.pending_events())
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Recorder {
        seen: Vec<(SimTime, u32)>,
        timers: Vec<(SimTime, u64)>,
    }

    impl Recorder {
        fn new() -> Self {
            Recorder {
                seen: Vec::new(),
                timers: Vec::new(),
            }
        }
    }

    impl Component<u32> for Recorder {
        fn on_message(&mut self, msg: u32, ctx: &mut Context<'_, u32>) {
            self.seen.push((ctx.now(), msg));
        }
        fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, u32>) {
            self.timers.push((ctx.now(), token));
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut e: Engine<u32> = Engine::new(1);
        let r = e.add_component(Recorder::new());
        e.schedule(SimTime::from_micros(5), r, 5);
        e.schedule(SimTime::from_micros(1), r, 1);
        e.schedule(SimTime::from_micros(3), r, 3);
        e.run_to_idle();
        let rec = e.component::<Recorder>(r).unwrap();
        let order: Vec<u32> = rec.seen.iter().map(|&(_, m)| m).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn ties_break_in_fifo_order() {
        let mut e: Engine<u32> = Engine::new(1);
        let r = e.add_component(Recorder::new());
        for i in 0..10 {
            e.schedule(SimTime::from_micros(1), r, i);
        }
        e.run_to_idle();
        let rec = e.component::<Recorder>(r).unwrap();
        let order: Vec<u32> = rec.seen.iter().map(|&(_, m)| m).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut e: Engine<u32> = Engine::new(1);
        let r = e.add_component(Recorder::new());
        e.schedule(SimTime::from_micros(1), r, 1);
        e.schedule(SimTime::from_micros(10), r, 10);
        let n = e.run_until(SimTime::from_micros(5));
        assert_eq!(n, 1);
        assert_eq!(e.now(), SimTime::from_micros(5));
        assert_eq!(e.pending_events(), 1);
        e.run_to_idle();
        assert_eq!(e.component::<Recorder>(r).unwrap().seen.len(), 2);
    }

    #[test]
    fn timers_are_delivered() {
        struct Armer;
        impl Component<u32> for Armer {
            fn on_message(&mut self, _msg: u32, ctx: &mut Context<'_, u32>) {
                ctx.timer_after(SimDuration::from_micros(2), 77);
            }
            fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, u32>) {
                assert_eq!(token, 77);
                assert_eq!(ctx.now(), SimTime::from_micros(3));
                ctx.stop();
            }
        }
        let mut e: Engine<u32> = Engine::new(1);
        let a = e.add_component(Armer);
        e.schedule(SimTime::from_micros(1), a, 0);
        e.run_to_idle();
        assert!(e.is_stopped());
    }

    /// Arms at 1 us a timer due at 3 us — eagerly, or by reservation armed
    /// from a second message at 2 us — and in between sends itself a
    /// message that lands on the timer's instant.
    struct LateArmer {
        reserve: bool,
        reserved: Option<TimerKey>,
        order: Vec<&'static str>,
    }

    impl Component<u32> for LateArmer {
        fn on_message(&mut self, msg: u32, ctx: &mut Context<'_, u32>) {
            let due = SimTime::from_micros(3);
            match msg {
                0 if self.reserve => {
                    self.reserved = Some(ctx.reserve_timer());
                    ctx.send_to_self_after(SimDuration::from_micros(2), 2);
                }
                0 => {
                    ctx.timer_after(SimDuration::from_micros(2), 7);
                    ctx.send_to_self_after(SimDuration::from_micros(2), 2);
                }
                1 => {
                    if let Some(key) = self.reserved {
                        assert!(ctx.timer_is_ahead(due, key));
                        ctx.arm_timer(due, key, 7);
                    }
                }
                _ => {
                    // Pushed after the timer's key was taken: the timer
                    // has fired, armed late or not.
                    if let Some(key) = self.reserved {
                        assert!(!ctx.timer_is_ahead(due, key));
                    }
                    self.order.push("message");
                }
            }
        }
        fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, u32>) {
            assert_eq!((token, ctx.now()), (7, SimTime::from_micros(3)));
            if let Some(key) = self.reserved {
                assert!(!ctx.timer_is_ahead(ctx.now(), key), "not ahead of itself");
            }
            self.order.push("timer");
        }
    }

    #[test]
    fn reserved_timer_fires_where_the_eager_one_would() {
        for reserve in [false, true] {
            let mut e: Engine<u32> = Engine::new(1);
            let a = e.add_component(LateArmer {
                reserve,
                reserved: None,
                order: Vec::new(),
            });
            e.schedule(SimTime::from_micros(1), a, 0);
            e.schedule(SimTime::from_micros(2), a, 1);
            assert_eq!(e.run_to_idle(), 4);
            // FIFO: the timer's key was taken before the message's.
            let order = &e.component::<LateArmer>(a).unwrap().order;
            assert_eq!(*order, ["timer", "message"], "reserve {reserve}");
        }
    }

    #[test]
    #[should_panic(expected = "reserved position has passed")]
    fn arming_a_passed_reservation_panics() {
        struct TooLate(Option<TimerKey>);
        impl Component<u32> for TooLate {
            fn on_message(&mut self, _msg: u32, ctx: &mut Context<'_, u32>) {
                match self.0 {
                    None => self.0 = Some(ctx.reserve_timer()),
                    Some(key) => ctx.arm_timer(SimTime::from_micros(1), key, 0),
                }
            }
        }
        let mut e: Engine<u32> = Engine::new(1);
        let a = e.add_component(TooLate(None));
        e.schedule(SimTime::from_micros(1), a, 0);
        e.schedule(SimTime::from_micros(2), a, 0);
        e.run_to_idle();
    }

    #[test]
    fn self_messages_cascade() {
        struct Counter {
            left: u32,
        }
        impl Component<u32> for Counter {
            fn on_message(&mut self, _m: u32, ctx: &mut Context<'_, u32>) {
                if self.left > 0 {
                    self.left -= 1;
                    ctx.send_to_self_after(SimDuration::from_nanos(100), 0);
                }
            }
        }
        let mut e: Engine<u32> = Engine::new(1);
        let c = e.add_component(Counter { left: 1000 });
        e.schedule(SimTime::ZERO, c, 0);
        let n = e.run_to_idle();
        assert_eq!(n, 1001);
        assert_eq!(e.now(), SimTime::from_nanos(100 * 1000));
    }

    #[test]
    fn stop_halts_immediately() {
        struct Stopper;
        impl Component<u32> for Stopper {
            fn on_message(&mut self, _m: u32, ctx: &mut Context<'_, u32>) {
                ctx.stop();
            }
        }
        let mut e: Engine<u32> = Engine::new(1);
        let s = e.add_component(Stopper);
        let r = e.add_component(Recorder::new());
        e.schedule(SimTime::from_micros(1), s, 0);
        e.schedule(SimTime::from_micros(2), r, 9);
        e.run_to_idle();
        assert!(e.component::<Recorder>(r).unwrap().seen.is_empty());
        e.clear_stop();
        e.run_to_idle();
        assert_eq!(e.component::<Recorder>(r).unwrap().seen.len(), 1);
    }

    #[test]
    fn downcast_wrong_type_is_none() {
        let mut e: Engine<u32> = Engine::new(1);
        struct Other;
        impl Component<u32> for Other {
            fn on_message(&mut self, _m: u32, _ctx: &mut Context<'_, u32>) {}
        }
        let r = e.add_component(Recorder::new());
        assert!(e.component::<Other>(r).is_none());
        assert!(e.component::<Recorder>(r).is_some());
    }

    #[test]
    fn run_for_advances_clock_even_when_idle() {
        let mut e: Engine<u32> = Engine::new(1);
        e.run_for(SimDuration::from_millis(5));
        assert_eq!(e.now(), SimTime::from_millis(5));
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_the_past_panics() {
        let mut e: Engine<u32> = Engine::new(1);
        let r = e.add_component(Recorder::new());
        e.schedule(SimTime::from_micros(2), r, 0);
        e.run_to_idle();
        e.schedule(SimTime::from_micros(1), r, 0);
    }

    struct Tally {
        records: Vec<EventRecord>,
        seen_sum: u64,
    }

    impl Observer<u32> for Tally {
        fn after_event(&mut self, event: &EventRecord, engine: &Engine<u32>) {
            self.records.push(*event);
            // Observers may inspect component state after each event.
            if let Some(rec) = engine.component::<Recorder>(event.dest) {
                self.seen_sum = rec.seen.iter().map(|&(_, m)| u64::from(m)).sum();
            }
        }
    }

    #[test]
    fn observer_sees_every_event_in_order() {
        let mut e: Engine<u32> = Engine::new(1);
        let r = e.add_component(Recorder::new());
        e.set_observer(Box::new(Tally {
            records: Vec::new(),
            seen_sum: 0,
        }));
        e.schedule(SimTime::from_micros(2), r, 7);
        e.schedule(SimTime::from_micros(1), r, 3);
        e.run_to_idle();
        let tally = e.observer_as::<Tally>().unwrap();
        assert_eq!(tally.records.len(), 2);
        assert_eq!(tally.records[0].at, SimTime::from_micros(1));
        assert_eq!(tally.records[0].index, 0);
        assert_eq!(tally.records[1].index, 1);
        assert_eq!(tally.seen_sum, 10, "observer saw post-event state");
        assert!(tally.records.iter().all(|r| r.timer.is_none()));
    }

    fn tie_order(salt: u64) -> Vec<u32> {
        let mut e: Engine<u32> = Engine::new(1);
        let r = e.add_component(Recorder::new());
        e.set_tie_break_salt(salt);
        for i in 0..32 {
            e.schedule(SimTime::from_micros(1), r, i);
        }
        e.schedule(SimTime::from_micros(2), r, 999);
        e.run_to_idle();
        e.component::<Recorder>(r)
            .unwrap()
            .seen
            .iter()
            .map(|&(_, m)| m)
            .collect()
    }

    /// A 3-message stream 5 us from `start`, every `gap`, either eagerly
    /// or as a series, between two plain messages (one at the stream's
    /// start, one after it in submission order); returns what the
    /// recorder saw and the pending count before the run.
    fn stream(series: bool, salt: u64, gap: SimDuration) -> (Vec<(SimTime, u32)>, usize) {
        let mut e: Engine<u32> = Engine::new(1);
        let r = e.add_component(Recorder::new());
        e.set_tie_break_salt(salt);
        let start = SimTime::from_micros(5);
        e.schedule(start, r, 100);
        let mut next = 0;
        let mut make = move || {
            next += 1;
            next
        };
        if series {
            e.schedule_series(start, gap, 3, r, make);
        } else {
            for k in 0..3 {
                e.schedule(start + gap * k, r, make());
            }
        }
        e.schedule(start, r, 200);
        let pending = e.pending_events();
        e.run_to_idle();
        let seen = e.component::<Recorder>(r).unwrap().seen.clone();
        (seen, pending)
    }

    #[test]
    fn series_dispatches_what_eager_scheduling_would() {
        for salt in [0, 0xDEAD_BEEF] {
            for gap in [SimDuration::ZERO, SimDuration::from_micros(2)] {
                let eager = stream(false, salt, gap);
                let series = stream(true, salt, gap);
                assert_eq!(series, eager, "salt {salt:#x}, gap {gap:?}");
                assert_eq!(eager.1, 5, "every message counts as pending");
            }
        }
    }

    #[test]
    fn empty_series_takes_no_key() {
        let mut e: Engine<u32> = Engine::new(1);
        let r = e.add_component(Recorder::new());
        e.schedule_series(SimTime::ZERO, SimDuration::from_micros(1), 0, r, || 7);
        assert_eq!((e.pending_events(), e.seq), (0, 0));
    }

    #[test]
    #[should_panic(expected = "overflows the clock")]
    fn series_beyond_the_end_of_time_panics() {
        let mut e: Engine<u32> = Engine::new(1);
        let r = e.add_component(Recorder::new());
        let gap = SimDuration::from_nanos(u64::MAX / 2);
        e.schedule_series(SimTime::from_nanos(2), gap, 3, r, || 0);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn series_into_the_past_panics() {
        let mut e: Engine<u32> = Engine::new(1);
        let r = e.add_component(Recorder::new());
        e.schedule(SimTime::from_micros(2), r, 0);
        e.run_to_idle();
        let us = SimDuration::from_micros(1);
        e.schedule_series(SimTime::ZERO + us, us, 2, r, || 0);
    }

    #[test]
    fn tie_break_salt_permutes_only_same_timestamp_events() {
        let fifo = tie_order(0);
        assert_eq!(fifo.len(), 33);
        assert_eq!(fifo[..32], (0..32).collect::<Vec<_>>()[..]);
        let salted = tie_order(0xDEAD_BEEF);
        assert_ne!(fifo, salted, "salt changes tie order");
        assert_eq!(*salted.last().unwrap(), 999, "timestamp order preserved");
        let mut sorted = salted[..32].to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>(), "a permutation");
        assert_eq!(salted, tie_order(0xDEAD_BEEF), "same salt, same order");
    }
}
