//! An LTL engine driven by a simulation component: the poll loop, the
//! pacing retry and the retransmission tick, in one place.

use dcnet::Packet;
use dcsim::{Context, SimDuration, SimTime};

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

/// Period of the retransmission-timeout scan of every [`Endpoint`].
pub const TICK: SimDuration = SimDuration::from_micros(10);

/// An [`LtlEngine`] plus the two timers a component needs to drive it:
/// the periodic retransmission *tick*, armed every [`TICK`] while frames
/// are in flight, with token `TICK_TOKEN`, and a *poll* timer, armed for
/// the instant pacing releases a held-back frame, with token
/// `POLL_TOKEN`. The owner routes both tokens to
/// [`on_timer`](Self::on_timer) and pumps after every entry point that can
/// leave a frame to send. The tokens are type parameters so that they
/// cost the owner, a shell on every FPGA, no bytes.
#[derive(Debug)]
pub struct Endpoint<const TICK_TOKEN: u64, const POLL_TOKEN: u64> {
    engine: LtlEngine,
    tick_armed: bool,
    /// When the armed poll timer fires, if one is armed.
    poll_at: Option<SimTime>,
}

impl<const TICK_TOKEN: u64, const POLL_TOKEN: u64> Endpoint<TICK_TOKEN, POLL_TOKEN> {
    /// Wraps `engine`.
    pub fn new(engine: LtlEngine) -> Self {
        Endpoint {
            engine,
            tick_armed: false,
            poll_at: None,
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

    /// Polls the engine until it is empty or pacing, handing each frame
    /// to `wire`, then arms the tick if frames are in flight. A poll that
    /// says `Later(t)` arms the poll timer for `t` unless one is armed for
    /// `t` or earlier: each paced frame leaves at its own instant.
    pub fn pump<M>(
        &mut self,
        ctx: &mut Context<'_, M>,
        mut wire: impl FnMut(&mut Context<'_, M>, Packet, TxKind),
    ) {
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
                    if self.poll_at.is_none_or(|armed| t < armed) {
                        self.poll_at = Some(t);
                        ctx.timer_after(t.saturating_since(ctx.now()), POLL_TOKEN);
                    }
                    break;
                }
                Poll::Empty => break,
            }
        }
        self.ensure_tick(ctx);
    }

    /// Arms the tick if it is not armed and the engine has frames pending
    /// or unacknowledged; a receive-only engine never ticks.
    pub fn ensure_tick<M>(&mut self, ctx: &mut Context<'_, M>) {
        if !self.tick_armed && self.engine.in_flight() > 0 {
            self.tick_armed = true;
            ctx.timer_after(TICK, TICK_TOKEN);
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
    /// timer disarms, unless an earlier one replaced it (a stale timer is
    /// ignored). Other tokens are ignored. The caller pumps next.
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
        } else if token == POLL_TOKEN && self.poll_at.is_some_and(|at| at <= ctx.now()) {
            self.poll_at = None;
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

    const TICK_TIMER: u64 = 1;
    const POLL_TIMER: u64 = 2;

    enum Cmd {
        Send(SendConnId),
        Packet(Packet),
    }

    /// The endpoint's state right after one pump.
    #[derive(Debug)]
    struct Pumped {
        in_flight: usize,
        tick_armed: bool,
    }

    /// A component around one endpoint whose wire goes nowhere: it sends
    /// `Cmd::Send` messages of 1000 bytes, feeds `Cmd::Packet`s to the
    /// engine and records what the endpoint does.
    struct Host {
        ep: Endpoint<TICK_TIMER, POLL_TIMER>,
        upcalls: Vec<LtlEvent>,
        timers: Vec<(SimTime, u64)>,
        pumps: Vec<Pumped>,
        /// When each frame was handed to the wire.
        sent: Vec<SimTime>,
    }

    impl Host {
        fn new(engine: LtlEngine) -> Host {
            Host {
                ep: Endpoint::new(engine),
                upcalls: Vec::new(),
                timers: Vec::new(),
                pumps: Vec::new(),
                sent: Vec::new(),
            }
        }

        fn pump(&mut self, ctx: &mut Context<'_, Cmd>) {
            let sent = &mut self.sent;
            self.ep.pump(ctx, |ctx, _, _| sent.push(ctx.now()));
            self.pumps.push(Pumped {
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

    /// An engine whose connections each pace a 1000-byte frame for
    /// 8.16 us (1 Gb/s).
    fn paced_engine() -> LtlEngine {
        let mut cfg = LtlConfig::default();
        cfg.dcqcn.as_mut().expect("on by default").line_rate_bps = 1e9;
        LtlEngine::new(addr(1), cfg)
    }

    #[test]
    fn a_pacing_engine_arms_one_poll_timer_and_paces_until_it_fires() {
        let mut engine = paced_engine();
        let conn = engine.add_send(addr(2), 0);
        let mut e: Engine<Cmd> = Engine::new(1);
        let id = e.add_component(Host::new(engine));
        for us in [0, 0, 1, 2, 3] {
            e.schedule(SimTime::from_micros(us), id, Cmd::Send(conn));
        }
        e.run_until(SimTime::from_micros(9));

        let host = e.component::<Host>(id).expect("host");
        // The first pump sends; the four that see `Later` for the same
        // instant arm one timer between them; its pump sends the next
        // frame and arms again for the one after.
        let [(at, POLL_TIMER)] = host.timers[..] else {
            panic!("one poll timer, got {:?}", host.timers);
        };
        assert!(at > SimTime::from_micros(8) && at < SimTime::from_micros(9));
        assert_eq!(host.sent, [SimTime::ZERO, at]);
        assert!(host.ep.poll_at.is_some_and(|next| next > at));
    }

    /// A `Later` earlier than the armed poll timer re-arms it: B's second
    /// frame arms the timer for B's instant, then A's second frame, due
    /// sooner, arms it for A's. Each leaves when its own connection's
    /// pacing allows. The replaced timer still fires, at B's instant,
    /// beside the one armed for it again, and nothing is sent twice.
    #[test]
    fn an_earlier_pacing_instant_re_arms_the_poll_timer() {
        let mut engine = paced_engine();
        let a = engine.add_send(addr(2), 0);
        let b = engine.add_send(addr(3), 0);
        let mut e: Engine<Cmd> = Engine::new(1);
        let id = e.add_component(Host::new(engine));
        for (us, conn) in [(0, a), (1, b), (2, b), (3, a)] {
            e.schedule(SimTime::from_micros(us), id, Cmd::Send(conn));
        }
        e.run_until(SimTime::from_micros(9) + SimDuration::from_nanos(500));

        let host = e.component::<Host>(id).expect("host");
        let [a1, b1, a2, b2] = host.sent[..] else {
            panic!("four frames, got {:?}", host.sent);
        };
        assert_eq!((a1, b1), (SimTime::ZERO, SimTime::from_micros(1)));
        assert_eq!(a2 - a1, b2 - b1, "each frame paced by its own connection");
        let polls: Vec<SimTime> = host.timers.iter().map(|&(t, _)| t).collect();
        assert_eq!(polls, [a2, b2, b2]);
    }

    #[test]
    fn the_tick_is_armed_while_frames_are_in_flight_and_re_armed_after_each_tick() {
        let cfg = LtlConfig::default().without_dcqcn().with_max_retries(3);
        let mut engine = LtlEngine::new(addr(1), cfg);
        let conn = engine.add_send(addr(2), 0);
        let mut e: Engine<Cmd> = Engine::new(1);
        let id = e.add_component(Host::new(engine));
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
        assert!(host.timers.iter().all(|&(_, token)| token == TICK_TIMER));
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
        let id = e.add_component(Host::new(engine));
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
