//! Property-based tests of the flow-level aggregate model: every injected
//! byte is delivered, still in flight, or explicitly rejected — never
//! silently lost — across arbitrary injection schedules and seeds.

use std::sync::Arc;

use dcnet::{FabricShape, FlowBatch, FlowSim, FlowSimCmd, FlowSimConfig, Msg};
use dcsim::{Engine, SimTime};
use proptest::prelude::*;

fn shape(pods: u16) -> FabricShape {
    FabricShape {
        hosts_per_tor: 24,
        tors_per_pod: 4,
        pods,
        spines: 4,
    }
}

proptest! {
    /// bytes_injected == bytes_delivered + bytes_in_flight at any horizon,
    /// and a fully drained run delivers everything it accepted.
    #[test]
    fn flowsim_conserves_bytes(
        seed in 0u64..1_000,
        injections in proptest::collection::vec(
            // (time µs, src pod, dst pod, bytes, flows)
            (0u64..2_000, 0u16..6, 0u16..6, 0u64..200_000_000, 0u32..40),
            1..30,
        ),
        horizon_us in 1u64..3_000,
    ) {
        let mut e: Engine<Msg> = Engine::new(seed);
        let sim = e.add_component(FlowSim::new(FlowSimConfig::new(shape(6))));
        for &(at, src_pod, dst_pod, bytes, flows) in &injections {
            e.schedule(
                SimTime::from_micros(at),
                sim,
                Msg::FlowSim(FlowSimCmd::Inject(Arc::new(vec![FlowBatch {
                    src_pod,
                    dst_pod,
                    bytes,
                    flows,
                }]))),
            );
        }

        // Mid-run: conservation must hold at an arbitrary cut point.
        e.run_until(SimTime::from_micros(horizon_us));
        {
            let fs = e.component::<FlowSim>(sim).unwrap();
            prop_assert_eq!(
                fs.bytes_injected(),
                fs.bytes_delivered() + fs.bytes_in_flight(),
                "mid-run conservation"
            );
        }

        // Fully drained: nothing left in flight, everything delivered.
        e.run_to_idle();
        let fs = e.component::<FlowSim>(sim).unwrap();
        prop_assert_eq!(fs.bytes_in_flight(), 0u64);
        prop_assert_eq!(fs.active_flows(), 0usize);
        prop_assert_eq!(fs.bytes_injected(), fs.bytes_delivered());
    }

    /// The flow table bound rejects loudly: accepted + rejected equals the
    /// total offered, so overload never disappears from the ledger.
    #[test]
    fn flowsim_accounts_for_rejections(
        seed in 0u64..100,
        batches in proptest::collection::vec((1u64..50_000, 1u32..30), 1..20),
        max_flows in 1usize..16,
    ) {
        let mut cfg = FlowSimConfig::new(shape(2));
        cfg.max_flows = max_flows;
        let mut e: Engine<Msg> = Engine::new(seed);
        let sim = e.add_component(FlowSim::new(cfg));
        let offered: u64 = batches.iter().map(|&(bytes, _)| bytes).sum();
        let batches = batches
            .iter()
            .map(|&(bytes, flows)| FlowBatch { src_pod: 0, dst_pod: 1, bytes, flows })
            .collect();
        e.schedule(SimTime::ZERO, sim, Msg::FlowSim(FlowSimCmd::Inject(Arc::new(batches))));
        e.run_to_idle();
        let fs = e.component::<FlowSim>(sim).unwrap();
        prop_assert_eq!(fs.bytes_injected() + fs.bytes_rejected(), offered);
        prop_assert_eq!(fs.bytes_injected(), fs.bytes_delivered());
    }
}
