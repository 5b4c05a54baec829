//! Differential test of the switch's deferred free-timers against an
//! *eager* reference port model.
//!
//! `EagerSwitch` below is the transmit path the switch had before its
//! ports took a deferred free-timer (`FreeTimer`, private to `dcnet`): a
//! `busy` flag per port, set when a frame goes on the wire and cleared by
//! a `timer_after(departs)` that is always enqueued. The real [`Switch`] reserves that timer and enqueues it
//! only while a frame waits. Both are driven by the same random schedule of
//! arrivals, PFC pause/resume frames, link flaps and crashes, relayed
//! through a `Feeder` so that inputs reach the switch under tie-break keys
//! on *both* sides of the keys its timers hold; frame sizes and times sit
//! on a 50 ns grid, so arrivals land exactly on `busy_until` all the time.
//! The sinks must see identical `(arrival time, port, class, bytes)`
//! schedules — and since propagation and pipeline latency are constants,
//! identical `departs` — and the loss counters must agree.
//!
//! Not modelled by the reference (off in the real switch's config here):
//! ECN marking, PFC *generation* and jitter, none of which touch the wire
//! state. Reboots outlast the longest frame and never overlap; a switch
//! that is back before a pre-crash frame would have left the wire is the
//! one schedule on which the two models are not meant to agree (DESIGN.md,
//! "Deferred timers").

use std::collections::VecDeque;

use bytes::Bytes;
use dcnet::{
    FabricShape, LinkParams, LinkTx, Msg, NetEvent, NodeAddr, Packet, PortId, Switch, SwitchCmd,
    SwitchConfig, SwitchRole, TrafficClass,
};
use dcsim::{Component, ComponentId, Context, Engine, SimDuration, SimTime};
use proptest::prelude::*;

const PORTS: usize = 3;
const CAPACITY: u64 = 4_000;
const BASE_LATENCY: SimDuration = SimDuration::from_nanos(300);
const REBOOT: u64 = u64::MAX;

fn link() -> LinkParams {
    LinkParams::gbe40(SimDuration::from_nanos(100))
}

struct EagerPort {
    tx: LinkTx,
    queues: [VecDeque<Packet>; TrafficClass::COUNT],
    queued_bytes: [u64; TrafficClass::COUNT],
    tx_paused: [bool; TrafficClass::COUNT],
    busy: bool,
    up: bool,
}

impl EagerPort {
    fn flush(&mut self) -> u64 {
        let flushed = self.queues.iter().map(|q| q.len() as u64).sum();
        self.queues.iter_mut().for_each(VecDeque::clear);
        self.queued_bytes = [0; TrafficClass::COUNT];
        self.tx_paused = [false; TrafficClass::COUNT];
        flushed
    }
}

/// One TOR's worth of eager ports; port `i` is cabled to `sink` port `i`.
struct EagerSwitch {
    sink: ComponentId,
    ports: Vec<EagerPort>,
    crashed: bool,
    tx_frames: u64,
    dropped: u64,
    link_down_drops: u64,
    crash_drops: u64,
}

impl EagerSwitch {
    fn new(sink: ComponentId) -> EagerSwitch {
        EagerSwitch {
            sink,
            ports: (0..PORTS)
                .map(|_| EagerPort {
                    tx: LinkTx::new(link()),
                    queues: Default::default(),
                    queued_bytes: [0; TrafficClass::COUNT],
                    tx_paused: [false; TrafficClass::COUNT],
                    busy: false,
                    up: true,
                })
                .collect(),
            crashed: false,
            tx_frames: 0,
            dropped: 0,
            link_down_drops: 0,
            crash_drops: 0,
        }
    }

    fn handle_packet(&mut self, pkt: Packet, ingress: PortId, ctx: &mut Context<'_, Msg>) {
        if self.crashed {
            self.crash_drops += 1;
            return;
        }
        if !self.ports[ingress.index()].up {
            self.link_down_drops += 1;
            return;
        }
        let egress = PortId(pkt.dst.host);
        let ci = pkt.class.index();
        let wire = pkt.wire_bytes() as u64;
        let port = &mut self.ports[egress.index()];
        if !port.up {
            self.link_down_drops += 1;
            return;
        }
        if pkt.class != TrafficClass::LTL && port.queued_bytes[ci] + wire > CAPACITY {
            self.dropped += 1;
            return;
        }
        port.queued_bytes[ci] += wire;
        port.queues[ci].push_back(pkt);
        self.try_transmit(egress, ctx);
    }

    fn try_transmit(&mut self, egress: PortId, ctx: &mut Context<'_, Msg>) {
        let port = &mut self.ports[egress.index()];
        if self.crashed || port.busy || !port.up {
            return;
        }
        let Some(ci) = (0..TrafficClass::COUNT)
            .rev()
            .find(|&c| !port.tx_paused[c] && !port.queues[c].is_empty())
        else {
            return;
        };
        let pkt = port.queues[ci].pop_front().expect("checked non-empty");
        port.queued_bytes[ci] -= pkt.wire_bytes() as u64;
        let timing = port.tx.transmit(ctx.now(), pkt.wire_bytes());
        port.busy = true;
        self.tx_frames += 1;
        ctx.timer_after(timing.departs - ctx.now(), egress.0 as u64);
        ctx.send_after(
            (timing.arrives + BASE_LATENCY) - ctx.now(),
            self.sink,
            Msg::packet(pkt, egress),
        );
    }
}

impl Component<Msg> for EagerSwitch {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        match msg {
            Msg::Net(NetEvent::Packet { pkt, ingress }) => self.handle_packet(pkt, ingress, ctx),
            Msg::Net(NetEvent::Pfc {
                class,
                ingress,
                pause,
            }) => {
                if self.crashed {
                    return;
                }
                self.ports[ingress.index()].tx_paused[class.index()] = pause;
                if !pause {
                    self.try_transmit(ingress, ctx);
                }
            }
            cmd => match cmd.downcast::<SwitchCmd>().expect("switch command") {
                SwitchCmd::SetLinkUp { port, up } => {
                    let p = &mut self.ports[port.index()];
                    if p.up != up {
                        p.up = up;
                        if !up {
                            self.link_down_drops += p.flush();
                        }
                    }
                }
                SwitchCmd::Crash { reboot_after } => {
                    for p in &mut self.ports {
                        self.crash_drops += p.flush();
                        p.busy = false;
                    }
                    self.crashed = true;
                    ctx.timer_after(reboot_after, REBOOT);
                }
                other => panic!("not generated: {other:?}"),
            },
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, Msg>) {
        if token == REBOOT {
            self.crashed = false;
            return;
        }
        if self.crashed {
            return;
        }
        let port = PortId(token as u16);
        self.ports[port.index()].busy = false;
        self.try_transmit(port, ctx);
    }
}

/// Relays each input to the switch after the delay it carries, so the
/// relayed event's key is taken mid-run, between the switch's own.
struct Feeder {
    switch: ComponentId,
}

struct Relay {
    delay: SimDuration,
    msg: Msg,
}

impl Component<Msg> for Feeder {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        let relay = msg.downcast::<Relay>().expect("feeder takes relays");
        ctx.send_after(relay.delay, self.switch, relay.msg);
    }
}

/// What reached the far end of a port: `(time, port, class, payload bytes)`.
#[derive(Default)]
struct Sink {
    frames: Vec<(u64, u16, usize, usize)>,
}

impl Component<Msg> for Sink {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        if let Msg::Net(NetEvent::Packet { pkt, ingress }) = msg {
            self.frames.push((
                ctx.now().as_nanos(),
                ingress.0,
                pkt.class.index(),
                pkt.payload.len(),
            ));
        }
    }
}

/// One generated input: `(slot, kind, a, b, c)`; see [`input_msg`].
type Input = (u64, u8, u8, u8, u8);

/// Payload length whose frame serializes in exactly `50 * units` ns at
/// 40 Gb/s (250 wire bytes per unit).
fn payload_len(units: u32) -> usize {
    let overhead = Packet::new(
        NodeAddr::new(0, 0, 0),
        NodeAddr::new(0, 0, 1),
        1,
        2,
        TrafficClass::LTL,
        Bytes::new(),
    )
    .wire_bytes();
    (250 * units - overhead) as usize
}

fn input_msg((_, kind, a, b, c): Input) -> Msg {
    // Two lossy classes around the lossless one, so strict priority,
    // tail drop and PFC all have something to order.
    let class = [
        TrafficClass::new(1),
        TrafficClass::LTL,
        TrafficClass::new(5),
    ][a as usize % 3];
    let port = PortId(b as u16 % PORTS as u16);
    match kind {
        0..=6 => {
            let pkt = Packet::new(
                NodeAddr::new(0, 0, (port.0 + 1) % PORTS as u16),
                NodeAddr::new(0, 0, port.0),
                1,
                2,
                class,
                Bytes::from(vec![kind; payload_len(1 + c as u32 % 6)]),
            );
            Msg::packet(pkt, PortId((port.0 + 1) % PORTS as u16))
        }
        7 => Msg::Net(NetEvent::Pfc {
            class,
            ingress: port,
            pause: c % 2 == 0,
        }),
        8 => Msg::Switch(SwitchCmd::SetLinkUp {
            port,
            up: c % 2 == 0,
        }),
        _ => Msg::Switch(SwitchCmd::Crash {
            // Longer than the longest frame (6 units = 300 ns) is on the wire.
            reboot_after: SimDuration::from_nanos(350 + 50 * (c as u64 % 8)),
        }),
    }
}

struct Observed {
    frames: Vec<(u64, u16, usize, usize)>,
    /// `(tx_frames, dropped, link_down_drops, crash_drops)`.
    counters: (u64, u64, u64, u64),
    events: u64,
}

/// Runs `inputs` (sorted by slot) through one of the two switches.
fn run(inputs: &[Input], salt: u64, eager: bool) -> Observed {
    let mut e: Engine<Msg> = Engine::new(1);
    e.set_tie_break_salt(salt);
    let (switch, sink, feeder) = (
        ComponentId::from_raw(0),
        ComponentId::from_raw(1),
        ComponentId::from_raw(2),
    );
    if eager {
        e.add_component(EagerSwitch::new(sink));
    } else {
        let cfg = SwitchConfig {
            base_latency: BASE_LATENCY,
            ecn: None,
            pfc: None,
            queue_capacity_bytes: CAPACITY,
            link: link(),
            ..SwitchConfig::default()
        };
        let shape = FabricShape {
            hosts_per_tor: PORTS as u16,
            tors_per_pod: 1,
            pods: 1,
            spines: 1,
        };
        let mut sw = Switch::new(SwitchRole::Tor { pod: 0, tor: 0 }, shape, cfg);
        for p in 0..PORTS as u16 {
            sw.connect(PortId(p), sink, PortId(p));
        }
        e.add_component(sw);
    }
    e.add_component(Sink::default());
    e.add_component(Feeder { switch });
    let mut rebooted_by = 0;
    for &input in inputs {
        if input.1 >= 9 {
            // One crash at a time: a second `Crash` before the first
            // reboot would cut the second outage short of a frame time.
            if input.0 < rebooted_by {
                continue;
            }
            rebooted_by = input.0 + 20;
        }
        let relay = Relay {
            // 0-150 ns: lands among the keys of the transmissions under way.
            delay: SimDuration::from_nanos(50 * (input.4 as u64 / 8 % 4)),
            msg: input_msg(input),
        };
        e.schedule(
            SimTime::from_nanos(50 * input.0),
            feeder,
            Msg::custom(relay),
        );
    }
    let events = e.run_to_idle();
    let counters = if eager {
        let sw = e.component::<EagerSwitch>(switch).expect("eager switch");
        (sw.tx_frames, sw.dropped, sw.link_down_drops, sw.crash_drops)
    } else {
        let s = e.component::<Switch>(switch).expect("switch").stats_view();
        (s.tx_frames, s.dropped, s.link_down_drops, s.crash_drops)
    };
    Observed {
        frames: e.component::<Sink>(sink).expect("sink").frames.clone(),
        counters,
        events,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn deferred_ports_keep_the_eager_schedule(
        inputs in proptest::collection::vec(
            (0u64..120, 0u8..10, any::<u8>(), any::<u8>(), any::<u8>()),
            1..160,
        ),
    ) {
        let mut inputs = inputs;
        inputs.sort_unstable();
        for salt in [0u64, 0xD1FF] {
            let eager = run(&inputs, salt, true);
            let deferred = run(&inputs, salt, false);
            prop_assert_eq!(&deferred.frames, &eager.frames, "schedule, salt {:#x}", salt);
            prop_assert_eq!(deferred.counters, eager.counters, "counters, salt {:#x}", salt);
            prop_assert!(deferred.events <= eager.events);
        }
    }
}

/// The schedule above is dense enough to matter: over a fixed busy input
/// the deferred switch both skips free-timers and has to arm some.
#[test]
fn the_differential_exercises_both_outcomes() {
    let inputs: Vec<Input> = (0..200u64)
        .map(|i| {
            (
                i / 2,
                (i % 7) as u8,
                (i * 5) as u8,
                (i * 3) as u8,
                (i * 11) as u8,
            )
        })
        .collect();
    let eager = run(&inputs, 0, true);
    let deferred = run(&inputs, 0, false);
    assert_eq!(deferred.frames, eager.frames);
    let frames = eager.counters.0;
    let skipped = eager.events - deferred.events;
    assert!(skipped > 0, "no free-timer was ever skipped");
    assert!(skipped < frames, "no free-timer was ever armed");
}
