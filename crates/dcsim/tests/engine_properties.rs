//! Property-based tests of the event kernel's core guarantees:
//! time-ordered delivery, FIFO tie-breaking and determinism.

use dcsim::{Component, ComponentId, Context, Engine, SimDuration, SimTime};
use proptest::prelude::*;

#[derive(Debug, Default)]
struct Recorder {
    seen: Vec<(u64, u32)>,
}

impl Component<u32> for Recorder {
    fn on_message(&mut self, msg: u32, ctx: &mut Context<'_, u32>) {
        self.seen.push((ctx.now().as_nanos(), msg));
    }
}

proptest! {
    /// Whatever order events are scheduled in, delivery is by timestamp,
    /// with ties broken by scheduling order.
    #[test]
    fn events_deliver_in_timestamp_order(times in proptest::collection::vec(0u64..1_000, 1..100)) {
        let mut e: Engine<u32> = Engine::new(1);
        let r = e.add_component(Recorder::default());
        for (i, &t) in times.iter().enumerate() {
            e.schedule(SimTime::from_nanos(t), r, i as u32);
        }
        e.run_to_idle();
        let rec = e.component::<Recorder>(r).unwrap();
        prop_assert_eq!(rec.seen.len(), times.len());
        for w in rec.seen.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time went backwards");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO violated on tie");
            }
        }
    }

    /// The same seed and schedule produce identical traces.
    #[test]
    fn runs_are_deterministic(
        seed in any::<u64>(),
        times in proptest::collection::vec(0u64..10_000, 1..50),
    ) {
        let run = |seed: u64| {
            let mut e: Engine<u32> = Engine::new(seed);
            let r = e.add_component(Recorder::default());
            for (i, &t) in times.iter().enumerate() {
                e.schedule(SimTime::from_nanos(t), r, i as u32);
            }
            e.run_to_idle();
            e.component::<Recorder>(r).unwrap().seen.clone()
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    /// Cascading self-messages advance the clock by exactly the sum of
    /// delays.
    #[test]
    fn relative_delays_accumulate(delays in proptest::collection::vec(1u64..10_000, 1..50)) {
        struct Chain {
            delays: Vec<u64>,
            next: usize,
        }
        impl Component<u32> for Chain {
            fn on_message(&mut self, _m: u32, ctx: &mut Context<'_, u32>) {
                if let Some(&d) = self.delays.get(self.next) {
                    self.next += 1;
                    ctx.send_to_self_after(SimDuration::from_nanos(d), 0);
                }
            }
        }
        let total: u64 = delays.iter().sum();
        let mut e: Engine<u32> = Engine::new(2);
        let c = e.add_component(Chain { delays, next: 0 });
        e.schedule(SimTime::ZERO, c, 0);
        e.run_to_idle();
        prop_assert_eq!(e.now().as_nanos(), total);
    }

}

#[test]
fn component_ids_are_stable_across_registration() {
    let mut e: Engine<u32> = Engine::new(1);
    let ids: Vec<ComponentId> = (0..10)
        .map(|_| e.add_component(Recorder::default()))
        .collect();
    for (i, id) in ids.iter().enumerate() {
        assert_eq!(id.as_raw(), i);
    }
}
