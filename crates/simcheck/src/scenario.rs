//! Randomized whole-cluster scenarios under the invariant checker.
//!
//! Each seed materialises a small random fat-tree, a set of LTL flows
//! between random endpoint pairs, a HaaS control plane tracking every
//! node, and a chaos [`FaultPlan`] — then runs to quiescence with the
//! [`InvariantObserver`] attached and a per-flow delivery-order oracle
//! on every consumer. The same spec replays byte-identically: the
//! outcome is a pure function of `(seed, salt, topology, plan)`.

use crate::invariants::InvariantObserver;
use crate::json::{array, as_object, get_array, get_u64, uint};
use crate::repro::{fault_event_from_value, fault_event_to_value};
use crate::session::fault_config;
use crate::{Case, Outcome, Violation};
use bytes::Bytes;
use catapult::chaos::{ChaosTargets, FaultEvent, FaultPlan};
use catapult::ClusterBuilder;
use dcnet::{Msg, NodeAddr};
use dcsim::{Component, ComponentId, Context, SimDuration, SimRng, SimTime};
use haas::{
    Constraints, FailureMonitor, FpgaManager, NodeDownReport, ResourceManager, ServiceManager,
};
use serde::Value;
use shell::{LtlConnFailed, LtlDeliver, LtlSend};
use std::collections::BTreeMap;

/// Per-node delivery-order oracle and failure reporter: checks that the
/// counter embedded in each delivered payload strictly increases per
/// (source, connection) flow — no duplicated, reordered or replayed
/// delivery survives go-back-N — and relays connection failures to the
/// failure monitor like a production consumer would.
struct FlowConsumer {
    addr: NodeAddr,
    monitor: ComponentId,
    last_counter: BTreeMap<(u32, u16), u64>,
    delivered: u64,
    violations: Vec<Violation>,
}

impl Component<Msg> for FlowConsumer {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        match msg.downcast::<LtlDeliver>() {
            Ok(deliver) => {
                self.delivered += 1;
                let mut head = [0u8; 8];
                let n = deliver.payload.len().min(8);
                head[..n].copy_from_slice(&deliver.payload[..n]);
                let counter = u64::from_be_bytes(head);
                let key = (deliver.src.as_u32(), deliver.conn);
                if let Some(&prev) = self.last_counter.get(&key) {
                    if counter <= prev {
                        self.violations.push(Violation {
                            at: ctx.now(),
                            check: "flow.delivery_order",
                            detail: format!(
                                "node {} flow {key:?}: counter {counter} after {prev} \
                                 (duplicate or reordered delivery)",
                                self.addr
                            ),
                        });
                    }
                }
                self.last_counter.insert(key, counter);
            }
            Err(msg) => {
                if let Ok(failed) = msg.downcast::<LtlConnFailed>() {
                    ctx.send(
                        self.monitor,
                        Msg::custom(NodeDownReport {
                            addr: failed.remote,
                        }),
                    );
                }
            }
        }
    }
}

/// Everything parameterising one cluster scenario.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Cluster / engine seed.
    pub seed: u64,
    /// Tie-break salt (0 = FIFO).
    pub salt: u64,
    /// Racks in the single pod.
    pub racks: u16,
    /// Hosts per rack.
    pub hosts_per_rack: u16,
    /// LTL flow pairs.
    pub pairs: u16,
    /// Messages per pair.
    pub msgs_per_pair: u32,
    /// Send/fault window.
    pub horizon: SimDuration,
    /// The chaos schedule.
    pub plan: FaultPlan,
}

impl ScenarioSpec {
    /// All populated node addresses of the scenario's topology.
    pub fn addrs(&self) -> Vec<NodeAddr> {
        let mut addrs = Vec::new();
        for rack in 0..self.racks {
            for host in 0..self.hosts_per_rack {
                addrs.push(NodeAddr::new(0, rack, host));
            }
        }
        addrs
    }

    /// Fault-plan targets: every node, every rack.
    pub fn targets(&self) -> ChaosTargets {
        ChaosTargets {
            accelerators: self.addrs(),
            clients: Vec::new(),
            racks: (0..self.racks).map(|r| (0, r)).collect(),
        }
    }
}

impl Case for ScenarioSpec {
    const KIND: &'static str = "cluster";
    type Event = FaultEvent;

    /// Generates the spec for one fuzzing seed: random topology, random
    /// flow set, seeded fault plan. Odd seeds run salted.
    fn generate(seed: u64) -> ScenarioSpec {
        let mut rng = SimRng::seed_from(seed ^ 0x5CE2_A210);
        let racks = 2 + rng.index(3) as u16;
        let hosts_per_rack = 2 + rng.index(3) as u16;
        let total = (racks * hosts_per_rack) as usize;
        let pairs = (1 + rng.index(3)).min(total / 2) as u16;
        let horizon = SimDuration::from_millis(2);
        let mut spec = ScenarioSpec {
            seed,
            salt: if seed % 2 == 1 {
                seed ^ 0xA5A5_0F0F_3C3C_9696
            } else {
                0
            },
            racks,
            hosts_per_rack,
            pairs,
            msgs_per_pair: 4 + rng.index(5) as u32,
            horizon,
            plan: FaultPlan::default(),
        };
        spec.plan = FaultPlan::generate(seed, &spec.targets(), &fault_config(horizon, 1.0));
        spec
    }

    fn events(&self) -> &[FaultEvent] {
        &self.plan.events
    }

    fn with_events(&self, events: Vec<FaultEvent>) -> ScenarioSpec {
        ScenarioSpec {
            plan: FaultPlan { events },
            ..self.clone()
        }
    }

    fn to_value(&self) -> Value {
        Value::Object(vec![
            uint("seed", self.seed),
            uint("salt", self.salt),
            array("events", &self.plan.events, fault_event_to_value),
        ])
    }

    /// Topology and flow set are regenerated from the seed.
    fn from_value(value: &Value) -> Result<ScenarioSpec, String> {
        let obj = as_object(value, "repro")?;
        Ok(ScenarioSpec {
            salt: get_u64(obj, "salt")?,
            plan: FaultPlan {
                events: get_array(obj, "events", fault_event_from_value)?,
            },
            ..ScenarioSpec::generate(get_u64(obj, "seed")?)
        })
    }

    /// Runs one scenario to quiescence under the invariant observer.
    fn run(&self) -> Outcome {
        let shape = dcnet::FabricShape {
            hosts_per_tor: self.hosts_per_rack,
            tors_per_pod: self.racks,
            pods: 1,
            spines: 1,
        };
        let mut cluster = ClusterBuilder::new(self.seed)
            .fabric_config(&catapult::calib::fabric_config(shape))
            .shell_config(catapult::calib::shell_config())
            .build();
        cluster.engine_mut().set_tie_break_salt(self.salt);

        let addrs = self.addrs();
        for &addr in &addrs {
            cluster.add_shell(addr);
        }

        // HaaS control plane: every node registered, one service leasing a
        // slice of the pool, an FM view per node.
        let mut rm = ResourceManager::new();
        for &addr in &addrs {
            rm.register(addr);
        }
        let mut sm = ServiceManager::new("simcheck");
        sm.grow(&mut rm, self.pairs as usize, &Constraints::default())
            .expect("pool covers the flow count");
        let mut monitor = FailureMonitor::new(rm, Some(SimDuration::from_micros(600)));
        monitor.add_service(sm);
        for &addr in &addrs {
            monitor.add_fm(FpgaManager::new(addr));
        }
        let monitor_id = cluster.engine_mut().add_component(monitor);

        // Flows between the first 2*pairs shuffled nodes; consumer per node.
        let mut rng = SimRng::seed_from(self.seed ^ 0xF10A_5EED);
        let mut shuffled = addrs.clone();
        rng.shuffle(&mut shuffled);
        let mut send_conns = Vec::new();
        for pair in 0..self.pairs as usize {
            let client = shuffled[2 * pair];
            let server = shuffled[2 * pair + 1];
            let (client_send, _, _, _) = cluster.connect_pair(client, server);
            send_conns.push((client, client_send));
        }
        let mut consumer_ids = Vec::new();
        for &addr in &addrs {
            let consumer = FlowConsumer {
                addr,
                monitor: monitor_id,
                last_counter: BTreeMap::new(),
                delivered: 0,
                violations: Vec::new(),
            };
            let id = cluster.engine_mut().add_component(consumer);
            cluster.set_consumer(addr, id);
            consumer_ids.push(id);
        }

        // Workload: per-flow monotone counters embedded in each payload.
        // Submission times are made strictly increasing per flow so a
        // tie-break salt can never reorder two submissions of the same flow
        // (which would be a workload artefact, not a protocol violation).
        let window = self.horizon.as_nanos() as f64 * 0.7;
        for &(client, conn) in &send_conns {
            let shell_id = cluster.shell_id(client).expect("just populated");
            let mut times: Vec<u64> = (0..self.msgs_per_pair)
                .map(|_| (rng.uniform() * window) as u64)
                .collect();
            times.sort_unstable();
            for (counter, t) in times.into_iter().enumerate() {
                let len = 9 + rng.index(1800);
                let mut payload = vec![0u8; len];
                payload[..8].copy_from_slice(&(counter as u64).to_be_bytes());
                cluster.engine_mut().schedule(
                    SimTime::from_nanos(t + counter as u64),
                    shell_id,
                    Msg::LtlSend(LtlSend {
                        conn,
                        vc: 0,
                        payload: Bytes::from(payload),
                    }),
                );
            }
        }

        // Scenario clusters run no host software: host stalls have no target.
        catapult::chaos::install_plan(&mut cluster, monitor_id, &self.plan, |_| None);

        let switches: Vec<ComponentId> = cluster.fabric().switches().map(|(_, id)| id).collect();
        let shell_ids: Vec<ComponentId> = cluster.shells().map(|(_, id)| id).collect();
        cluster
            .engine_mut()
            .set_observer(Box::new(InvariantObserver::new(
                switches,
                shell_ids,
                Some((monitor_id, addrs.clone())),
            )));

        let events = cluster.run_to_idle();

        let engine = cluster.engine();
        let observer = engine
            .observer_as::<InvariantObserver>()
            .expect("observer attached above");
        let mut violations = observer.violations().to_vec();
        let checks = observer.checks();
        let mut delivered = 0;
        for id in consumer_ids {
            if let Some(consumer) = engine.component::<FlowConsumer>(id) {
                violations.extend(consumer.violations.iter().cloned());
                delivered += consumer.delivered;
            }
        }
        violations.sort_by_key(|v| v.at);
        Outcome {
            violations,
            events,
            checks,
            delivered,
            decisions: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_scenario_upholds_all_invariants() {
        let mut spec = ScenarioSpec::generate(4);
        spec.plan = FaultPlan::default();
        let out = spec.run();
        assert_eq!(out.violations, Vec::new());
        assert!(out.delivered > 0);
        assert!(out.checks > 0);
    }

    #[test]
    fn chaotic_scenarios_uphold_all_invariants() {
        for seed in 0..4 {
            let out = ScenarioSpec::generate(seed).run();
            assert_eq!(out.violations, Vec::new(), "seed {seed}");
        }
    }

    #[test]
    fn repro_json_round_trips_and_replays() {
        let spec = ScenarioSpec::generate(3).with_events(crate::repro::tests::every_fault_kind());
        let repro = crate::repro::tests::round_trip_and_replay(&spec, "fpga_hang");
        assert_eq!(repro.case.salt, spec.salt, "odd seed: salted");
        assert_eq!(repro.first_violation, "", "{:?}", repro.replay());
    }

    #[test]
    fn scenario_replays_identically() {
        let spec = ScenarioSpec::generate(7);
        let a = spec.run();
        let b = spec.run();
        assert_eq!(a.events, b.events);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.checks, b.checks);
        assert_eq!(a.violations, b.violations);
    }
}
