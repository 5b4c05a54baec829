//! An LTL engine driven by a simulation component: the poll loop, the
//! pacing retry and the retransmission tick, in one place.

use dcnet::Packet;
use dcsim::{Context, SimDuration};

use super::{LtlEngine, LtlEvent, Poll};

/// What a frame the pump hands to the wire is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxKind {
    /// An ACK, NACK, SACK or CNP.
    Control,
    /// The first transmission of a data frame.
    Data,
    /// A data frame sent again.
    Retransmit,
}

/// An [`LtlEngine`] plus the two timers a component needs to drive it:
/// the periodic retransmission *tick*, armed while frames are in flight,
/// with token `TICK_TOKEN`, and a *poll* timer, armed when pacing holds
/// back a frame, with token `POLL_TOKEN`. The owner routes both tokens to
/// [`on_timer`](Self::on_timer) and pumps after every entry point that can
/// leave a frame to send. The tokens are type parameters so that they
/// cost the owner, a shell on every FPGA, no bytes.
#[derive(Debug)]
pub struct Endpoint<const TICK_TOKEN: u64, const POLL_TOKEN: u64> {
    engine: LtlEngine,
    tick: SimDuration,
    tick_armed: bool,
    poll_armed: bool,
}

impl<const TICK_TOKEN: u64, const POLL_TOKEN: u64> Endpoint<TICK_TOKEN, POLL_TOKEN> {
    /// Wraps `engine`; ticks fire every `tick`.
    pub fn new(engine: LtlEngine, tick: SimDuration) -> Self {
        Endpoint {
            engine,
            tick,
            tick_armed: false,
            poll_armed: false,
        }
    }

    /// The engine, for statistics and introspection.
    pub fn engine(&self) -> &LtlEngine {
        &self.engine
    }

    /// The engine, for connection set-up and message submission.
    pub fn engine_mut(&mut self) -> &mut LtlEngine {
        &mut self.engine
    }

    /// Whether the engine is pacing: a poll said `Later` and the poll
    /// timer armed for it has not fired yet.
    pub fn pacing(&self) -> bool {
        self.poll_armed
    }

    /// Polls the engine until it is empty or pacing, handing each frame
    /// to `wire`, then arms the tick if frames are in flight. A poll that
    /// says `Later` arms the poll timer unless it is armed already.
    /// Returns whether this pump armed it: pacing started.
    pub fn pump<M>(
        &mut self,
        ctx: &mut Context<'_, M>,
        mut wire: impl FnMut(&mut Context<'_, M>, Packet, TxKind),
    ) -> bool {
        let mut started = false;
        loop {
            let before = self.engine.stats_view();
            let (retransmits, data_sent) = (before.retransmits, before.data_sent);
            match self.engine.poll(ctx.now()) {
                Poll::Ready(pkt) => {
                    let after = self.engine.stats_view();
                    let kind = if after.retransmits > retransmits {
                        TxKind::Retransmit
                    } else if after.data_sent > data_sent {
                        TxKind::Data
                    } else {
                        TxKind::Control
                    };
                    wire(ctx, pkt, kind);
                }
                Poll::Later(t) => {
                    if !self.poll_armed {
                        self.poll_armed = true;
                        started = true;
                        ctx.timer_after(t.saturating_since(ctx.now()), POLL_TOKEN);
                    }
                    break;
                }
                Poll::Empty => break,
            }
        }
        self.ensure_tick(ctx);
        started
    }

    /// Arms the tick if it is not armed and the engine has frames pending
    /// or unacknowledged; a receive-only engine never ticks.
    pub fn ensure_tick<M>(&mut self, ctx: &mut Context<'_, M>) {
        if !self.tick_armed && self.engine.in_flight() > 0 {
            self.tick_armed = true;
            ctx.timer_after(self.tick, TICK_TOKEN);
        }
    }

    /// Hands a received frame to the engine and each resulting upcall, in
    /// engine order, to `upcall`. The caller pumps next.
    pub fn on_packet<M>(
        &mut self,
        pkt: &Packet,
        ctx: &mut Context<'_, M>,
        mut upcall: impl FnMut(&mut Context<'_, M>, LtlEvent),
    ) {
        for ev in self.engine.on_packet(pkt, ctx.now()) {
            upcall(ctx, ev);
        }
    }

    /// Takes one of the endpoint's timers: the tick runs the engine's
    /// retransmission scan, handing its upcalls to `upcall`; the poll
    /// timer ends pacing. Other tokens are ignored. The caller pumps next.
    pub fn on_timer<M>(
        &mut self,
        token: u64,
        ctx: &mut Context<'_, M>,
        mut upcall: impl FnMut(&mut Context<'_, M>, LtlEvent),
    ) {
        if token == TICK_TOKEN {
            self.tick_armed = false;
            for ev in self.engine.on_tick(ctx.now()) {
                upcall(ctx, ev);
            }
        } else if token == POLL_TOKEN {
            self.poll_armed = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ltl::{LtlConfig, LtlMode, SendConnId};
    use bytes::Bytes;
    use dcnet::NodeAddr;
    use dcsim::{Component, Engine, SimTime};

    const TICK: u64 = 1;
    const POLL: u64 = 2;

    enum Cmd {
        Send(SendConnId),
        Packet(Packet),
    }

    /// The endpoint's state right after one pump.
    #[derive(Debug)]
    struct Pumped {
        started: bool,
        pacing: bool,
        in_flight: usize,
        tick_armed: bool,
    }

    /// A component around one endpoint whose wire goes nowhere: it sends
    /// `Cmd::Send` messages of 1000 bytes, feeds `Cmd::Packet`s to the
    /// engine and records what the endpoint does.
    struct Host {
        ep: Endpoint<TICK, POLL>,
        upcalls: Vec<LtlEvent>,
        timers: Vec<(SimTime, u64)>,
        pumps: Vec<Pumped>,
    }

    impl Host {
        fn new(engine: LtlEngine, tick: SimDuration) -> Host {
            Host {
                ep: Endpoint::new(engine, tick),
                upcalls: Vec::new(),
                timers: Vec::new(),
                pumps: Vec::new(),
            }
        }

        fn pump(&mut self, ctx: &mut Context<'_, Cmd>) {
            let started = self.ep.pump(ctx, |_, _, _| {});
            self.pumps.push(Pumped {
                started,
                pacing: self.ep.pacing(),
                in_flight: self.ep.engine().in_flight(),
                tick_armed: self.ep.tick_armed,
            });
        }
    }

    impl Component<Cmd> for Host {
        fn on_message(&mut self, msg: Cmd, ctx: &mut Context<'_, Cmd>) {
            let upcalls = &mut self.upcalls;
            match msg {
                Cmd::Send(conn) => {
                    let payload = Bytes::from(vec![7u8; 1000]);
                    self.ep
                        .engine_mut()
                        .send_message(conn, 0, payload)
                        .expect("conn is open");
                }
                Cmd::Packet(pkt) => self.ep.on_packet(&pkt, ctx, |_, ev| upcalls.push(ev)),
            }
            self.pump(ctx);
        }

        fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, Cmd>) {
            self.timers.push((ctx.now(), token));
            let upcalls = &mut self.upcalls;
            self.ep.on_timer(token, ctx, |_, ev| upcalls.push(ev));
            self.pump(ctx);
        }
    }

    fn addr(h: u16) -> NodeAddr {
        NodeAddr::new(0, 0, h)
    }

    #[test]
    fn a_pacing_engine_arms_one_poll_timer_and_paces_until_it_fires() {
        let mut cfg = LtlConfig::default();
        // 1 Gb/s: each 1000-byte frame paces its connection for 8.16 us.
        cfg.dcqcn.as_mut().expect("on by default").line_rate_bps = 1e9;
        let mut engine = LtlEngine::new(addr(1), cfg);
        let conn = engine.add_send(addr(2), 0);
        let mut e: Engine<Cmd> = Engine::new(1);
        let id = e.add_component(Host::new(engine, SimDuration::from_millis(1)));
        for us in [0, 0, 1, 2, 3] {
            e.schedule(SimTime::from_micros(us), id, Cmd::Send(conn));
        }
        e.run_until(SimTime::from_micros(9));

        let host = e.component::<Host>(id).expect("host");
        let started: Vec<bool> = host.pumps.iter().map(|p| p.started).collect();
        // The first pump sends; the second sees `Later` and arms; three
        // more see `Later` too and arm nothing; the poll timer's pump
        // sends one frame and arms again for the next.
        assert_eq!(started, [false, true, false, false, false, true]);
        let pacing: Vec<bool> = host.pumps.iter().map(|p| p.pacing).collect();
        assert_eq!(pacing, [false, true, true, true, true, true]);
        let [(at, POLL)] = host.timers[..] else {
            panic!("one poll timer, got {:?}", host.timers);
        };
        assert!(at > SimTime::from_micros(8) && at < SimTime::from_micros(9));
    }

    #[test]
    fn the_tick_is_armed_while_frames_are_in_flight_and_re_armed_after_each_tick() {
        let cfg = LtlConfig::default().without_dcqcn().with_max_retries(3);
        let mut engine = LtlEngine::new(addr(1), cfg);
        let conn = engine.add_send(addr(2), 0);
        let mut e: Engine<Cmd> = Engine::new(1);
        let id = e.add_component(Host::new(engine, SimDuration::from_micros(10)));
        e.schedule(SimTime::ZERO, id, Cmd::Send(conn));
        e.run_to_idle();

        let host = e.component::<Host>(id).expect("host");
        // Nothing is ever ACKed, so frames leave the engine only when the
        // connection fails, inside a tick.
        for p in &host.pumps {
            assert_eq!(p.tick_armed, p.in_flight > 0, "{:?}", host.pumps);
        }
        let ticks: Vec<u64> = host
            .timers
            .iter()
            .map(|&(t, _)| t.as_nanos() / 10_000)
            .collect();
        assert_eq!(ticks, (1..=ticks.len() as u64).collect::<Vec<_>>());
        assert!(host.timers.iter().all(|&(_, token)| token == TICK));
        assert_eq!(
            host.upcalls,
            [LtlEvent::ConnectionFailed {
                conn,
                remote: addr(2)
            }]
        );
        assert_eq!(host.pumps.last().map(|p| p.in_flight), Some(0));
    }

    #[test]
    fn upcalls_reach_the_callback_in_engine_order() {
        let cfg = LtlConfig::default()
            .without_dcqcn()
            .with_mode(LtlMode::SelectiveRepeat)
            .with_max_retries(0);
        // Three one-frame messages, polled from a bare sender.
        let mut sender = LtlEngine::new(addr(2), cfg.clone());
        let to_rx = sender.add_send(addr(1), 0);
        for k in 1..=3u8 {
            sender
                .send_message(to_rx, 0, Bytes::from(vec![k; 100]))
                .expect("conn is open");
        }
        let frames: Vec<Packet> = std::iter::from_fn(|| match sender.poll(SimTime::ZERO) {
            Poll::Ready(pkt) => Some(pkt),
            _ => None,
        })
        .collect();
        assert_eq!(frames.len(), 3);

        // The receiving endpoint also sends on two connections nobody
        // ACKs, so its first tick fails both.
        let mut engine = LtlEngine::new(addr(1), cfg);
        engine.add_recv(addr(2));
        let a = engine.add_send(addr(3), 0);
        let b = engine.add_send(addr(4), 0);
        let mut e: Engine<Cmd> = Engine::new(1);
        let id = e.add_component(Host::new(engine, SimDuration::from_micros(100)));
        e.schedule(SimTime::ZERO, id, Cmd::Send(a));
        e.schedule(SimTime::ZERO, id, Cmd::Send(b));
        // Frames 2 and 3 wait in the reassembly buffer; frame 1 releases
        // all three messages from one `on_packet`.
        for (i, at) in [(1, 1), (2, 2), (0, 3)] {
            e.schedule(SimTime::from_micros(at), id, Cmd::Packet(frames[i].clone()));
        }
        e.run_to_idle();

        let host = e.component::<Host>(id).expect("host");
        let seen: Vec<String> = host
            .upcalls
            .iter()
            .map(|ev| match ev {
                LtlEvent::Deliver { payload, .. } => format!("deliver {}", payload[0]),
                LtlEvent::ConnectionFailed { conn, .. } => format!("fail {conn}"),
            })
            .collect();
        assert_eq!(
            seen,
            [
                "deliver 1",
                "deliver 2",
                "deliver 3",
                format!("fail {a}").as_str(),
                format!("fail {b}").as_str(),
            ]
        );
    }
}
