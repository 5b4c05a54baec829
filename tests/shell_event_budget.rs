//! Exact event budget of an LTL round trip on the paper fabric.
//!
//! One closed-loop volley per Figure 10 tier (same TOR, same pod, across
//! pods), each on its own cluster as `fig10_ltl_latency` runs them, a
//! fixed number of round trips each. The shell's transmit and receive
//! pipelines are fixed-latency stages called in sequence, so a round trip
//! costs the shells 8 events over the three tiers: the two sends, the
//! four frames (probe, its ACK, reply, its ACK) entering their receive
//! stages, and two retransmission ticks. A per-frame self-event (there
//! were 10 more per round trip when the pipelines were events), or a
//! shift in any frame's timing, fails here by name.

use bytes::Bytes;
use catapult::ClusterBuilder;
use dcnet::{LtlDeliver, Msg, NodeAddr};
use dcsim::{Component, ComponentId, Context, Engine, EventRecord, Observer, SimTime};
use shell::ltl::SendConnId;
use shell::ShellCmd;

const ROUND_TRIPS: u64 = 500;

/// Engine events of each tier's run.
const EVENTS: [u64; 3] = [6_294, 11_147, 16_953];
/// Events dispatched to the tier's two shells.
const SHELL_EVENTS: [u64; 3] = [3_294, 3_784, 4_922];
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
    Msg::custom(ShellCmd::LtlSend {
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
}

impl Component<Msg> for Initiator {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        if msg.downcast::<LtlDeliver>().is_ok() {
            self.done += 1;
            self.rtt_sum_ns += (ctx.now() - self.sent_at).as_nanos();
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

/// Counts the events dispatched to shells.
struct ShellEvents {
    shells: Vec<ComponentId>,
    events: u64,
}

impl Observer<Msg> for ShellEvents {
    fn after_event(&mut self, event: &EventRecord, _engine: &Engine<Msg>) {
        if self.shells.contains(&event.dest) {
            self.events += 1;
        }
    }
}

/// Runs `ROUND_TRIPS` of one pair's volley on a fresh two-pod paper
/// cluster: `(engine events, shell events, sum of round trips in ns)`.
fn volley((a, b): (NodeAddr, NodeAddr)) -> (u64, u64, u64) {
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
    engine.set_observer(Box::new(ShellEvents {
        shells: vec![a_shell, b_shell],
        events: 0,
    }));

    let events = cluster.run_to_idle();

    let i = cluster
        .component::<Initiator>(initiator)
        .expect("initiator");
    assert_eq!(i.done, ROUND_TRIPS);
    let shell_events = (cluster.engine().observer_as::<ShellEvents>())
        .expect("observer attached")
        .events;
    (events, shell_events, i.rtt_sum_ns)
}

#[test]
fn a_round_trip_costs_the_shells_eight_events() {
    let runs: Vec<(u64, u64, u64)> = pairs().into_iter().map(volley).collect();
    let events: Vec<u64> = runs.iter().map(|r| r.0).collect();
    let shell_events: Vec<u64> = runs.iter().map(|r| r.1).collect();
    let rtt_sums: Vec<u64> = runs.iter().map(|r| r.2).collect();
    assert_eq!(rtt_sums, RTT_SUM_NS, "a frame's timing moved");
    assert_eq!(shell_events, SHELL_EVENTS, "shell events");
    assert_eq!(events, EVENTS, "engine events");
    let per_round_trip =
        shell_events.iter().sum::<u64>() as f64 / (ROUND_TRIPS * runs.len() as u64) as f64;
    assert_eq!(per_round_trip, 8.0, "shell events per round trip");
}
