//! An LTL engine driven by a simulation component: the poll loop and the
//! one timer that wakes it for pacing and retransmission, in one place.

use dcnet::Packet;
use dcsim::{Context, SimTime};

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

/// An [`LtlEngine`] plus the one timer a component needs to drive it,
/// with token `TOKEN`. The timer is armed for the earlier of the instant
/// pacing releases a held-back frame and the engine's earliest
/// retransmission deadline, as far as the engine knows it: a send lowers
/// that bound, an ACK leaves it, so an acknowledged frame's deadline
/// still fires once and finds nothing due. The owner routes the token to
/// [`on_timer`](Self::on_timer) and pumps after every entry point that can
/// leave a frame to send. The token is a type parameter so that it costs
/// the owner, a shell on every FPGA, no bytes.
#[derive(Debug)]
pub struct Endpoint<const TOKEN: u64> {
    engine: LtlEngine,
    /// When the armed timer fires, if one is armed.
    timer_at: Option<SimTime>,
}

impl<const TOKEN: u64> Endpoint<TOKEN> {
    /// Wraps `engine`.
    pub fn new(engine: LtlEngine) -> Self {
        Endpoint {
            engine,
            timer_at: None,
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
    /// to `wire`, then arms the timer for the earlier of the instant a
    /// `Later` names and the next retransmission deadline.
    pub fn pump<M>(
        &mut self,
        ctx: &mut Context<'_, M>,
        mut wire: impl FnMut(&mut Context<'_, M>, Packet, TxKind),
    ) {
        let later = loop {
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
                Poll::Later(t) => break t,
                Poll::Empty => break SimTime::MAX,
            }
        };
        self.arm(ctx, later);
    }

    /// Arms the timer for `at` or the engine's next retransmission
    /// deadline, whichever is earlier, unless it is armed for that
    /// instant or earlier. An owner whose egress is closed calls this
    /// with `SimTime::MAX` instead of pumping, so that frames in flight
    /// still time out on time.
    pub fn arm<M>(&mut self, ctx: &mut Context<'_, M>, at: SimTime) {
        let at = at.min(self.engine.timeout_bound);
        if at < SimTime::MAX && self.timer_at.is_none_or(|armed| at < armed) {
            self.timer_at = Some(at);
            ctx.timer_after(at.saturating_since(ctx.now()), TOKEN);
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

    /// Takes the endpoint's timer: it disarms and expires the frames that
    /// are due ([`LtlEngine::on_tick`]), handing its upcalls to `upcall`,
    /// unless an earlier timer replaced it (a superseded timer is
    /// ignored). The caller pumps next, which re-arms.
    pub fn on_timer<M>(
        &mut self,
        ctx: &mut Context<'_, M>,
        mut upcall: impl FnMut(&mut Context<'_, M>, LtlEvent),
    ) {
        if self.timer_at.is_some_and(|at| at <= ctx.now()) {
            self.timer_at = None;
            for ev in self.engine.on_tick(ctx.now()) {
                upcall(ctx, ev);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ltl::{FrameKind, LtlConfig, LtlFrame, LtlMode, SendConnId};
    use bytes::Bytes;
    use dcnet::{NodeAddr, TrafficClass, LTL_UDP_PORT};
    use dcsim::{Component, Engine, SimDuration, SimTime};

    const TIMER: u64 = 1;

    enum Cmd {
        Send(SendConnId),
        Packet(Packet),
    }

    /// The endpoint's state right after one pump.
    #[derive(Debug)]
    struct Pumped {
        in_flight: usize,
        timer_at: Option<SimTime>,
    }

    /// A component around one endpoint whose wire goes nowhere: it sends
    /// `Cmd::Send` messages of 1000 bytes, feeds `Cmd::Packet`s to the
    /// engine and records what the endpoint does.
    struct Host {
        ep: Endpoint<TIMER>,
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
                timer_at: self.ep.timer_at,
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
            self.ep.on_timer(ctx, |_, ev| upcalls.push(ev));
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
        let [(at, TIMER)] = host.timers[..] else {
            panic!("one poll timer, got {:?}", host.timers);
        };
        assert!(at > SimTime::from_micros(8) && at < SimTime::from_micros(9));
        assert_eq!(host.sent, [SimTime::ZERO, at]);
        assert!(host.ep.timer_at.is_some_and(|next| next > at));
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

    /// A cumulative ACK of `seq` on `conn`, from the peer at `addr(2)`.
    fn ack(conn: SendConnId, seq: u32) -> Packet {
        let frame = LtlFrame::control(FrameKind::Ack, 0, conn, seq);
        Packet::new(
            addr(2),
            addr(1),
            LTL_UDP_PORT,
            LTL_UDP_PORT,
            TrafficClass::LTL,
            frame.encode(),
        )
    }

    fn micros(us: &[u64]) -> Vec<SimTime> {
        us.iter().map(|&us| SimTime::from_micros(us)).collect()
    }

    #[test]
    fn the_timer_is_armed_while_frames_are_in_flight_and_fires_on_time() {
        let cfg = LtlConfig::default().without_dcqcn().with_max_retries(3);
        let mut engine = LtlEngine::new(addr(1), cfg);
        let conn = engine.add_send(addr(2), 0);
        let mut e: Engine<Cmd> = Engine::new(1);
        let id = e.add_component(Host::new(engine));
        e.schedule(SimTime::ZERO, id, Cmd::Send(conn));
        e.run_to_idle();

        let host = e.component::<Host>(id).expect("host");
        // Nothing is ever ACKed: the frame times out 50 us after each
        // send, doubled per timeout, and the fourth timeout fails the
        // connection.
        for p in &host.pumps {
            assert_eq!(p.timer_at.is_some(), p.in_flight > 0, "{:?}", host.pumps);
        }
        assert_eq!(host.sent, micros(&[0, 50, 150, 350]));
        let timers: Vec<SimTime> = host.timers.iter().map(|&(t, _)| t).collect();
        assert_eq!(timers, micros(&[50, 150, 350, 750]));
        assert_eq!(
            host.upcalls,
            [LtlEvent::ConnectionFailed {
                conn,
                remote: addr(2)
            }]
        );
        assert_eq!(host.pumps.last().map(|p| p.in_flight), Some(0));
    }

    /// Two frames 3 us apart, the second lost once: it is re-sent exactly
    /// 50 us after its first send. The ACKed first frame's deadline and
    /// the re-sent frame's still fire, once each, and find nothing due.
    #[test]
    fn a_go_back_n_frame_lost_once_is_re_sent_at_its_exact_deadline() {
        let mut engine = LtlEngine::new(addr(1), LtlConfig::default().without_dcqcn());
        let conn = engine.add_send(addr(2), 0);
        let mut e: Engine<Cmd> = Engine::new(1);
        let id = e.add_component(Host::new(engine));
        e.schedule(SimTime::ZERO, id, Cmd::Send(conn));
        e.schedule(SimTime::from_micros(3), id, Cmd::Send(conn));
        e.schedule(SimTime::from_micros(5), id, Cmd::Packet(ack(conn, 0)));
        e.schedule(SimTime::from_micros(60), id, Cmd::Packet(ack(conn, 1)));
        e.run_to_idle();

        let host = e.component::<Host>(id).expect("host");
        assert_eq!(host.sent, micros(&[0, 3, 53]));
        let timers: Vec<SimTime> = host.timers.iter().map(|&(t, _)| t).collect();
        assert_eq!(timers, micros(&[50, 53, 153]));
        let engine = host.ep.engine();
        assert_eq!((engine.stats_view().timeouts, engine.in_flight()), (1, 0));
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
        // ACKs, so their first deadline fails both.
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
