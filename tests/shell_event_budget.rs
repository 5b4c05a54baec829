//! Exact event budget of an LTL round trip on the paper fabric.
//!
//! One closed-loop volley per Figure 10 tier (same TOR, same pod, across
//! pods), each on its own cluster as `fig10_ltl_latency` runs them, a
//! fixed number of round trips each. The shell's transmit and receive
//! pipelines are fixed-latency stages called in sequence, so a round trip
//! costs the shells 6 events: the two sends and the four frames (probe,
//! its ACK, reply, its ACK) entering their receive stages. On top of
//! those, each shell's one LTL timer fires at a frame's 50 µs deadline,
//! finds it ACKed and re-arms for the frame then in flight: 60 / 168 /
//! 500 timers on L0 / L1 / L2, 6.12 / 6.34 / 7.00 shell events per round
//! trip.
//! A per-frame self-event (there were 10 more per round trip when the
//! pipelines were events), a timer per frame, or a shift in any frame's
//! timing, fails here by name.
//!
//! Bridged host frames take their egress wire slot the same way, in the
//! call that hands them over: a frame costs the shell its arrival and its
//! exit from the bridge, however many frames wait for the wire before it.

use bytes::Bytes;
use catapult::{calib, ClusterBuilder};
use dcnet::{LtlDeliver, Msg, NetEvent, NodeAddr, Packet, PortId, TrafficClass};
use dcsim::{Component, ComponentId, Context, Engine, EventRecord, Observer, SimTime};
use shell::ltl::SendConnId;
use shell::{LtlSend, Shell, PORT_NIC};

const ROUND_TRIPS: u64 = 500;

/// Engine events of each tier's run.
const EVENTS: [u64; 3] = [6_060, 10_531, 15_531];
/// Events dispatched to the tier's two shells.
const SHELL_EVENTS: [u64; 3] = [3_060, 3_168, 3_500];
/// Sum of the tier's round-trip times, nanoseconds. The same to the
/// nanosecond as when the pipelines were events.
const RTT_SUM_NS: [u64; 3] = [1_463_503, 3_913_775, 9_608_960];

/// One pair per tier: L0, L1, L2.
fn pairs() -> [(NodeAddr, NodeAddr); 3] {
    [
        (NodeAddr::new(0, 0, 0), NodeAddr::new(0, 0, 1)),
        (NodeAddr::new(0, 1, 0), NodeAddr::new(0, 2, 0)),
        (NodeAddr::new(0, 3, 0), NodeAddr::new(1, 3, 0)),
    ]
}

fn send(conn: SendConnId, payload: &Bytes) -> Msg {
    Msg::LtlSend(LtlSend {
        conn,
        vc: 0,
        payload: payload.clone(),
    })
}

/// Keeps one probe outstanding and sums the round-trip times.
struct Initiator {
    shell: ComponentId,
    conn: SendConnId,
    payload: Bytes,
    sent_at: SimTime,
    done: u64,
    rtt_sum_ns: u64,
    rtt_max_ns: u64,
}

impl Component<Msg> for Initiator {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        if msg.downcast::<LtlDeliver>().is_ok() {
            self.done += 1;
            let rtt_ns = (ctx.now() - self.sent_at).as_nanos();
            self.rtt_sum_ns += rtt_ns;
            self.rtt_max_ns = self.rtt_max_ns.max(rtt_ns);
            if self.done < ROUND_TRIPS {
                self.sent_at = ctx.now();
                ctx.send(self.shell, send(self.conn, &self.payload));
            }
        }
    }
}

/// Answers every delivery with one message.
struct Responder {
    shell: ComponentId,
    conn: SendConnId,
    payload: Bytes,
}

impl Component<Msg> for Responder {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        if msg.downcast::<LtlDeliver>().is_ok() {
            ctx.send(self.shell, send(self.conn, &self.payload));
        }
    }
}

/// Counts the events dispatched to shells, and how many were timers.
struct ShellEvents {
    shells: Vec<ComponentId>,
    events: u64,
    timers: u64,
}

impl ShellEvents {
    fn new(shells: Vec<ComponentId>) -> ShellEvents {
        ShellEvents {
            shells,
            events: 0,
            timers: 0,
        }
    }
}

impl Observer<Msg> for ShellEvents {
    fn after_event(&mut self, event: &EventRecord, _engine: &Engine<Msg>) {
        if self.shells.contains(&event.dest) {
            self.events += 1;
            self.timers += u64::from(event.timer.is_some());
        }
    }
}

/// What one tier's volley cost.
struct Run {
    events: u64,
    shell_events: u64,
    shell_timers: u64,
    rtt_sum_ns: u64,
    rtt_max_ns: u64,
    /// When the cluster fell idle.
    end: SimTime,
}

/// Runs `ROUND_TRIPS` of one pair's volley on a fresh two-pod paper
/// cluster.
fn volley((a, b): (NodeAddr, NodeAddr)) -> Run {
    let mut cluster = ClusterBuilder::paper(1, 2).build();
    let payload = Bytes::from(vec![0xA5u8; 32]);
    let a_shell = cluster.add_shell(a);
    let b_shell = cluster.add_shell(b);
    let (a_send, b_send, _, _) = cluster.connect_pair(a, b);
    let initiator = cluster.add_component_at(
        a,
        Initiator {
            shell: a_shell,
            conn: a_send,
            payload: payload.clone(),
            sent_at: SimTime::ZERO,
            done: 0,
            rtt_sum_ns: 0,
            rtt_max_ns: 0,
        },
    );
    let responder = cluster.add_component_at(
        b,
        Responder {
            shell: b_shell,
            conn: b_send,
            payload: payload.clone(),
        },
    );
    cluster.set_consumer(a, initiator);
    cluster.set_consumer(b, responder);
    let engine = cluster.engine_mut();
    engine.schedule(SimTime::ZERO, a_shell, send(a_send, &payload));
    engine.set_observer(Box::new(ShellEvents::new(vec![a_shell, b_shell])));

    let events = cluster.run_to_idle();

    let i = cluster
        .component::<Initiator>(initiator)
        .expect("initiator");
    assert_eq!(i.done, ROUND_TRIPS);
    let counted = (cluster.engine().observer_as::<ShellEvents>()).expect("observer attached");
    Run {
        events,
        shell_events: counted.events,
        shell_timers: counted.timers,
        rtt_sum_ns: i.rtt_sum_ns,
        rtt_max_ns: i.rtt_max_ns,
        end: cluster.now(),
    }
}

#[test]
fn a_round_trip_costs_the_shells_six_events_and_a_timer_per_timeout() {
    let runs: Vec<Run> = pairs().into_iter().map(volley).collect();
    let events: Vec<u64> = runs.iter().map(|r| r.events).collect();
    let shell_events: Vec<u64> = runs.iter().map(|r| r.shell_events).collect();
    let rtt_sums: Vec<u64> = runs.iter().map(|r| r.rtt_sum_ns).collect();
    assert_eq!(rtt_sums, RTT_SUM_NS, "a frame's timing moved");
    assert_eq!(shell_events, SHELL_EVENTS, "shell events");
    assert_eq!(events, EVENTS, "engine events");
    for (tier, run) in runs.iter().enumerate() {
        // A fire at a frame's deadline finds it ACKed and re-arms for the
        // frame then in flight, sent at most one round trip earlier: each
        // shell's fires are at least 50 us less a round trip apart.
        let spacing = 50_000 - run.rtt_max_ns;
        let fires = run.end.as_nanos().div_ceil(spacing);
        assert!(
            run.shell_timers <= 2 * fires + 2,
            "L{tier}: {} shell timers over {} ns",
            run.shell_timers,
            run.end.as_nanos()
        );
        assert_eq!(
            run.shell_events - run.shell_timers,
            6 * ROUND_TRIPS,
            "L{tier}"
        );
    }
}

/// Records when each packet reaches it, and for whom.
#[derive(Default)]
struct Sink {
    arrivals: Vec<(SimTime, NodeAddr)>,
}

impl Component<Msg> for Sink {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        if let Msg::Net(NetEvent::Packet { pkt, .. }) = msg {
            self.arrivals.push((ctx.now(), pkt.dst));
        }
    }
}

/// Four 1000-byte host frames reach the shell from the NIC at once. Each
/// costs the shell two events, its arrival and its `Msg::Egress` out of
/// the bridge, and no timer: the three that find the TOR wire busy take
/// the slots behind it in the call that hands them over, in arrival
/// order, where a queue drained by a free-timer cost one timer each.
#[test]
fn bridged_host_frames_cost_the_shell_two_events_each() {
    let cfg = calib::shell_config();
    let mut e: Engine<Msg> = Engine::new(1);
    let mut shell = Shell::new(NodeAddr::new(0, 0, 1), cfg.clone());
    shell.connect_tor(ComponentId::from_raw(1), PortId(0), None);
    let shell_id = e.add_component(shell);
    let tor = e.add_component(Sink::default());
    e.set_observer(Box::new(ShellEvents::new(vec![shell_id])));
    let frame = |dst| {
        Packet::new(
            NodeAddr::new(0, 0, 1),
            NodeAddr::new(0, 0, dst),
            1111,
            2222,
            TrafficClass::BEST_EFFORT,
            Bytes::from(vec![0u8; 1000]),
        )
    };
    for dst in 2..6 {
        e.schedule(SimTime::ZERO, shell_id, Msg::packet(frame(dst), PORT_NIC));
    }
    e.run_to_idle();

    let counted = e.observer_as::<ShellEvents>().expect("observer attached");
    assert_eq!(
        (counted.events, counted.timers),
        (8, 0),
        "(shell events, timers)"
    );
    let wire = cfg.tor_link.serialization(frame(2).wire_bytes());
    let expected: Vec<(SimTime, NodeAddr)> = (1..=4u16)
        .map(|k| {
            let done = SimTime::ZERO + cfg.bridge_latency + wire * u64::from(k);
            (done + cfg.tor_link.propagation, NodeAddr::new(0, 0, k + 1))
        })
        .collect();
    let sink = e.component::<Sink>(tor).expect("sink");
    assert_eq!(sink.arrivals, expected);
}
