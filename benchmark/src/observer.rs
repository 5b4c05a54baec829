//! The benchmark-owned [`dcsim::Observer`]: attributes the host time of an
//! unsharded run to component classes, from outside the program.
//!
//! The engine calls `after_event` once per dispatched event. The interval
//! since the previous callback — queue pop, dispatch, the handler, and
//! this observer's own clock read — is charged to the class of the
//! component the event was delivered to. Components are classified once,
//! on first sight, by downcasting through `Engine::component`.

use std::time::Instant;

use dcsim::{ComponentId, Engine, EventRecord, Observer};

/// Per-event spans kept for the trace file, per workload.
pub const EVENT_SPAN_CAP: usize = 65_536;

/// Maps a component to its class index; asked once per component.
pub type Classifier<M> = fn(&Engine<M>, ComponentId) -> usize;

/// Accumulated cost of one component class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCost {
    /// Events delivered to components of this class.
    pub events: u64,
    /// Host nanoseconds charged to them.
    pub busy_ns: u64,
}

impl ClassCost {
    /// Mean host nanoseconds per event (0 for an idle class).
    pub fn busy_ns_per_event(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.events as f64
        }
    }
}

/// One per-event span: class index, start and duration in nanoseconds
/// since the observer was armed.
pub type EventSpan = (usize, u64, u64);

/// Class-accounting observer. Attach it right before the timed phase: the
/// first event is charged from the moment of construction.
pub struct ClassObserver<M> {
    classify: Classifier<M>,
    class_of: Vec<Option<usize>>,
    costs: Vec<ClassCost>,
    armed: Instant,
    last: Instant,
    event_spans: Vec<EventSpan>,
}

impl<M: 'static> ClassObserver<M> {
    /// An observer over `classes` classes; `classify` must return an
    /// index below `classes`.
    pub fn new(classes: usize, classify: Classifier<M>) -> ClassObserver<M> {
        let now = Instant::now();
        ClassObserver {
            classify,
            class_of: Vec::new(),
            costs: vec![ClassCost::default(); classes],
            armed: now,
            last: now,
            event_spans: Vec::with_capacity(EVENT_SPAN_CAP),
        }
    }

    /// Cost per class, indexed as the classifier numbers them.
    pub fn costs(&self) -> &[ClassCost] {
        &self.costs
    }

    /// The first [`EVENT_SPAN_CAP`] per-event spans.
    pub fn event_spans(&self) -> &[EventSpan] {
        &self.event_spans
    }
}

impl<M: 'static> Observer<M> for ClassObserver<M> {
    fn after_event(&mut self, event: &EventRecord, engine: &Engine<M>) {
        let raw = event.dest.as_raw();
        if raw >= self.class_of.len() {
            self.class_of.resize(raw + 1, None);
        }
        let class = match self.class_of[raw] {
            Some(class) => class,
            None => {
                let class = (self.classify)(engine, event.dest);
                self.class_of[raw] = Some(class);
                class
            }
        };
        let now = Instant::now();
        let busy = now.duration_since(self.last).as_nanos() as u64;
        let cost = &mut self.costs[class];
        cost.events += 1;
        cost.busy_ns += busy;
        if self.event_spans.len() < EVENT_SPAN_CAP {
            let start = self.last.duration_since(self.armed).as_nanos() as u64;
            self.event_spans.push((class, start, busy));
        }
        self.last = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcsim::{Component, Context, SimDuration, SimTime};

    struct Ping(u32);
    struct Pong;
    struct Idle;

    impl Component<u32> for Ping {
        fn on_message(&mut self, left: u32, ctx: &mut Context<'_, u32>) {
            self.0 += 1;
            if left > 0 {
                ctx.send_to_self_after(SimDuration::from_nanos(10), left - 1);
            }
        }
    }
    impl Component<u32> for Pong {
        fn on_message(&mut self, _msg: u32, _ctx: &mut Context<'_, u32>) {}
    }
    impl Component<u32> for Idle {
        fn on_message(&mut self, _msg: u32, _ctx: &mut Context<'_, u32>) {}
    }

    fn classify(engine: &Engine<u32>, id: ComponentId) -> usize {
        if engine.component::<Ping>(id).is_some() {
            0
        } else if engine.component::<Pong>(id).is_some() {
            1
        } else {
            2
        }
    }

    #[test]
    fn charges_every_event_to_its_destination_class() {
        let mut e: Engine<u32> = Engine::new(1);
        let ping = e.add_component(Ping(0));
        let pong = e.add_component(Pong);
        let _idle = e.add_component(Idle);
        // 1 + 9 self-rescheduled Ping events, 3 Pong events, no Idle events.
        e.schedule(SimTime::ZERO, ping, 9);
        for i in 0..3 {
            e.schedule(SimTime::from_nanos(5 + i), pong, 0);
        }
        let before = Instant::now();
        e.set_observer(Box::new(ClassObserver::new(3, classify)));
        e.run_to_idle();
        let wall = before.elapsed().as_nanos() as u64;

        let obs = e.observer_as::<ClassObserver<u32>>().expect("attached");
        let costs = obs.costs();
        assert_eq!(costs[0].events, 10);
        assert_eq!(costs[1].events, 3);
        assert_eq!(costs[2], ClassCost::default());
        assert_eq!(costs[2].busy_ns_per_event(), 0.0);
        // Intervals tile the run: nothing is charged twice or dropped.
        let charged: u64 = costs.iter().map(|c| c.busy_ns).sum();
        assert!(charged <= wall, "charged {charged} ns of a {wall} ns run");
        let spans = obs.event_spans();
        assert_eq!(spans.len(), 13);
        assert_eq!(spans.iter().map(|s| s.2).sum::<u64>(), charged);
        for w in spans.windows(2) {
            assert_eq!(w[0].1 + w[0].2, w[1].1, "spans are contiguous");
        }
        assert_eq!(spans.iter().filter(|s| s.0 == 1).count(), 3);
    }
}
