//! The LTL protocol engine (Section V-A, Figure 9).
//!
//! An ordered, reliable, connection-based transport with statically
//! allocated, persistent connections held in send and receive connection
//! tables. Outgoing frames are buffered in an unacknowledged frame store
//! until the receiver's cumulative ACK releases them; the configured
//! retransmission timeout (the paper's 50 µs by default) triggers
//! retransmission, NACKs request timely retransmission when reordering is
//! detected, and repeated timeouts identify failing nodes. Egress is
//! shaped by a configurable bandwidth limiter and by per-connection
//! DC-QCN reaction points, so FPGAs can inject traffic without disturbing
//! the datacenter's existing flows.
//!
//! Both transport modes ([`LtlMode`]) run one receive, acknowledgment,
//! NACK and retransmission path. An ACK is a SACK with an empty bitmap,
//! and the modes differ in four decisions only:
//!
//! * **Gap frame:** [`LtlMode::GoBackN`] (the paper's protocol) discards
//!   it; [`LtlMode::SelectiveRepeat`] (Transport v2) buffers it in a
//!   reassembly window of [`RECV_WINDOW`] frames.
//! * **Reply to a data frame:** go-back-N sends a cumulative ACK, except
//!   for a gap frame; selective repeat always sends a SACK
//!   ([`LtlFrame::sack`]) carrying the exact reassembly bitmap.
//! * **NACK:** go-back-N re-queues the window from the NACKed frame on;
//!   selective repeat re-queues that one frame.
//! * **Retransmission timeout:** go-back-N uses the fixed configured
//!   timeout × 2^k after k timeouts; selective repeat uses the adaptive
//!   per-connection RTO ([`RtoEstimator`]).
//!
//! In both modes the retry budget ([`LtlConfig::max_retries`]) counts a
//! frame's own timeouts; re-sends a NACK asks for are not charged. A
//! frame queued for a re-send has no deadline until it is re-sent.
//!
//! The engine is a pure state machine: the enclosing
//! [`Shell`](crate::Shell) component feeds it packets and deadlines and
//! transmits whatever [`LtlEngine::poll`] hands back, which keeps every
//! protocol rule unit-testable without a simulator.

use std::collections::VecDeque;
use std::vec::Drain;

use bytes::{Bytes, BytesMut};
use dcnet::{CnpPacer, DcqcnConfig, DcqcnRp, Ecn, NodeAddr, Packet, TrafficClass, LTL_UDP_PORT};
use dcsim::{PercentileRecorder, SimDuration, SimTime};
use telemetry::{MetricSource, MetricVisitor};

use super::frame::{FrameKind, LtlFrame, LTL_HEADER_BYTES};
use super::rto::RtoEstimator;

/// Index into the send connection table.
pub type SendConnId = u16;
/// Index into the receive connection table.
pub type RecvConnId = u16;

/// Receive-side reassembly window of selective repeat, in frames: at most
/// `RECV_WINDOW - 1` frames ahead of the expected sequence are buffered.
/// 64 is the span of one SACK bitmap, so every buffered frame is
/// reportable in one SACK.
pub const RECV_WINDOW: u32 = 64;

/// Clamp of selective repeat's adaptive RTO.
const MIN_RTO: SimDuration = SimDuration::from_micros(10);
const MAX_RTO: SimDuration = SimDuration::from_millis(2);

/// Minimum interval between CNPs per flow (notification point).
const CNP_INTERVAL: SimDuration = SimDuration::from_micros(50);

/// Which retransmission protocol the engine runs. Both modes share the
/// wire format, connection tables, pacing, congestion control and one
/// protocol path; they differ in four decisions (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum LtlMode {
    /// The paper's protocol: cumulative ACKs, out-of-order frames
    /// discarded, full-window replay from the first unacknowledged frame
    /// on timeout, fixed configured RTO.
    #[default]
    GoBackN,
    /// Transport v2: SACK bitmaps, receive-side reassembly window,
    /// per-frame retransmission, and an adaptive RTT-derived RTO.
    SelectiveRepeat,
}

impl LtlMode {
    /// Stable lowercase name, used by CLI flags and report JSON.
    pub fn name(&self) -> &'static str {
        match self {
            LtlMode::GoBackN => "gbn",
            LtlMode::SelectiveRepeat => "sr",
        }
    }

    /// Parses a mode name as accepted by CLI flags.
    pub fn parse(s: &str) -> Option<LtlMode> {
        match s {
            "gbn" | "go-back-n" => Some(LtlMode::GoBackN),
            "sr" | "selective-repeat" => Some(LtlMode::SelectiveRepeat),
            _ => None,
        }
    }
}

impl core::fmt::Display for LtlMode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// LTL engine configuration.
#[derive(Debug, Clone)]
pub struct LtlConfig {
    /// Retransmission protocol (paper go-back-N by default).
    pub mode: LtlMode,
    /// Maximum LTL payload bytes per frame (segmentation threshold), in
    /// `1..=u16::MAX` ([`LtlEngine::new`] rejects anything else).
    pub mtu_payload: usize,
    /// Retransmission timeout (the paper's 50 µs by default). Go-back-N
    /// uses this fixed value; selective repeat uses it as the initial RTO
    /// until the first RTT sample arrives, then clamps its adaptive RTO
    /// to 10 µs – 2 ms.
    pub timeout: SimDuration,
    /// Timeouts of one frame before its connection is declared failed
    /// (NACK-requested re-sends do not count).
    pub max_retries: u32,
    /// Optional egress bandwidth cap in bits/s ("LTL implements bandwidth
    /// limiting to prevent the FPGA from exceeding a configurable limit").
    pub rate_limit_bps: Option<f64>,
    /// DC-QCN reaction-point configuration; `None` disables end-to-end
    /// congestion control (ablation).
    pub dcqcn: Option<DcqcnConfig>,
    /// Whether NACK fast retransmission is enabled (ablation: timeout-only).
    pub nack_enabled: bool,
}

impl Default for LtlConfig {
    fn default() -> Self {
        LtlConfig {
            mode: LtlMode::GoBackN,
            mtu_payload: dcnet::MTU_PAYLOAD - LTL_HEADER_BYTES,
            timeout: SimDuration::from_micros(50),
            max_retries: 8,
            rate_limit_bps: None,
            dcqcn: Some(DcqcnConfig::default()),
            nack_enabled: true,
        }
    }
}

impl LtlConfig {
    /// Sets the retransmission protocol.
    pub fn with_mode(mut self, mode: LtlMode) -> Self {
        self.mode = mode;
        self
    }

    /// Shorthand for [`LtlMode::SelectiveRepeat`].
    pub fn selective_repeat(self) -> Self {
        self.with_mode(LtlMode::SelectiveRepeat)
    }

    /// Sets the retry budget before a connection is declared failed.
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Caps egress bandwidth at `bps` bits/s.
    pub fn with_rate_limit_bps(mut self, bps: f64) -> Self {
        self.rate_limit_bps = Some(bps);
        self
    }

    /// Disables DC-QCN congestion control (ablation).
    pub fn without_dcqcn(mut self) -> Self {
        self.dcqcn = None;
        self
    }

    /// Enables or disables NACK fast retransmission.
    pub fn with_nack_enabled(mut self, enabled: bool) -> Self {
        self.nack_enabled = enabled;
        self
    }
}

/// Simple token bucket used for the engine-wide bandwidth limit.
#[derive(Debug, Clone)]
struct TokenBucket {
    rate_bps: f64,
    burst_bytes: f64,
    tokens: f64,
    last: SimTime,
}

impl TokenBucket {
    fn new(rate_bps: f64) -> TokenBucket {
        let burst_bytes = 2.0 * 1500.0;
        TokenBucket {
            rate_bps,
            burst_bytes,
            tokens: burst_bytes,
            last: SimTime::ZERO,
        }
    }

    fn refill(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last).as_secs_f64();
        self.tokens = (self.tokens + dt * self.rate_bps / 8.0).min(self.burst_bytes);
        self.last = now;
    }

    /// Earliest time `bytes` could be sent.
    fn ready_at(&mut self, now: SimTime, bytes: f64) -> SimTime {
        self.refill(now);
        if self.tokens >= bytes {
            now
        } else {
            now + SimDuration::from_secs_f64((bytes - self.tokens) * 8.0 / self.rate_bps)
        }
    }

    fn consume(&mut self, now: SimTime, bytes: f64) {
        self.refill(now);
        self.tokens -= bytes; // may go negative briefly under retransmit bursts
    }
}

#[derive(Debug)]
struct Unacked {
    seq: u32,
    /// Encoded wire bytes, kept so retransmissions clone the shared
    /// buffer instead of re-encoding the frame.
    wire: Bytes,
    sent_at: SimTime,
    /// When the frame times out. `SimTime::MAX` while it waits in the
    /// retransmission queue: `poll` sets it when it re-sends the frame,
    /// so a gated pump cannot time a queued frame out again.
    deadline: SimTime,
    /// Times this frame timed out: charged against `max_retries`, and
    /// go-back-N's backoff exponent. NACK re-sends are not counted.
    timeouts: u32,
    /// Re-sent at least once, by timeout or NACK: Karn's rule takes no
    /// RTT sample from it.
    retransmitted: bool,
}

#[derive(Debug)]
struct SendConn {
    remote: NodeAddr,
    remote_conn: RecvConnId,
    next_seq: u32,
    /// Frames awaiting first transmission: sequence number and wire
    /// image, encoded by `send_message`.
    pending: VecDeque<(u32, Bytes)>,
    unacked: VecDeque<Unacked>,
    rp: Option<DcqcnRp>,
    next_allowed: SimTime,
    failed: bool,
    /// Adaptive RTO state; only consulted in selective-repeat mode, but
    /// fed RTT samples in both so the telemetry gauges stay comparable.
    rtt: RtoEstimator,
}

#[derive(Debug)]
struct RecvConn {
    remote: NodeAddr,
    expected_seq: u32,
    assembling: BytesMut,
    /// Length of the last multi-frame message reassembled here: the first
    /// fragment of the next one reserves it, so a run of equal messages
    /// is joined in one exact-size buffer instead of one grown by
    /// doubling.
    last_assembled: usize,
    assembling_vc: u8,
    nack_sent_for: Option<u32>,
    /// Selective repeat: out-of-order frames held for reassembly, kept
    /// sorted by (serial) sequence number; empty in go-back-N mode.
    buffered: Vec<LtlFrame>,
}

/// Upcalls produced by the engine for the enclosing shell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LtlEvent {
    /// A complete message arrived on a receive connection.
    Deliver {
        /// Receive connection it arrived on.
        conn: RecvConnId,
        /// Sending node.
        src: NodeAddr,
        /// Elastic Router virtual channel requested by the sender.
        vc: u8,
        /// Reassembled message payload.
        payload: Bytes,
    },
    /// A send connection exhausted its retries; the remote node is
    /// presumed failed (used for fast reprovisioning by HaaS).
    ConnectionFailed {
        /// The failed send connection.
        conn: SendConnId,
        /// Its remote endpoint.
        remote: NodeAddr,
    },
}

/// Result of asking the engine for the next frame to transmit.
#[derive(Debug, Clone)]
pub enum Poll {
    /// Transmit this packet now.
    Ready(Packet),
    /// Nothing eligible before this instant (rate limiting / pacing).
    Later(SimTime),
    /// Nothing to send.
    Empty,
}

/// Error from [`LtlEngine::send_message`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// Unknown connection id.
    BadConnection,
    /// The connection was declared failed after repeated timeouts.
    ConnectionFailed,
}

impl core::fmt::Display for SendError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SendError::BadConnection => f.write_str("unknown ltl connection"),
            SendError::ConnectionFailed => f.write_str("ltl connection has failed"),
        }
    }
}

impl std::error::Error for SendError {}

/// Protocol counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LtlStats {
    /// Data frames transmitted (first transmissions).
    pub data_sent: u64,
    /// Data frames retransmitted.
    pub retransmits: u64,
    /// Retransmissions triggered by timeout.
    pub timeouts: u64,
    /// ACK frames received.
    pub acks_rx: u64,
    /// NACK frames sent.
    pub nacks_tx: u64,
    /// NACK frames received.
    pub nacks_rx: u64,
    /// CNPs sent (we are the notification point).
    pub cnps_tx: u64,
    /// CNPs received (we are the reaction point).
    pub cnps_rx: u64,
    /// Complete messages delivered to local consumers.
    pub msgs_delivered: u64,
    /// Bytes delivered in those messages.
    pub bytes_delivered: u64,
    /// Duplicate data frames discarded (re-ACKed).
    pub duplicates: u64,
    /// Out-of-order data frames (discarded in go-back-N, buffered in
    /// selective repeat) pending retransmission of the gap.
    pub out_of_order: u64,
    /// Connections declared failed.
    pub conn_failures: u64,
    /// SACK frames sent (selective repeat).
    pub sacks_tx: u64,
    /// SACK frames received (selective repeat).
    pub sacks_rx: u64,
    /// Frames retired early by a SACK bitmap bit, ahead of the cumulative
    /// acknowledgment (selective repeat).
    pub sacked: u64,
    /// Out-of-order frames dropped because they fell beyond the receive
    /// reassembly window (selective repeat).
    pub window_drops: u64,
}

/// The LTL protocol engine state.
#[derive(Debug)]
pub struct LtlEngine {
    addr: NodeAddr,
    cfg: LtlConfig,
    sends: Vec<SendConn>,
    recvs: Vec<RecvConn>,
    /// Control frames (ACK/NACK/CNP): transmitted ahead of data, unshaped.
    control: VecDeque<(NodeAddr, LtlFrame)>,
    /// (send conn, seq) pairs queued for retransmission.
    retransmit: VecDeque<(SendConnId, u32)>,
    /// The wire buffer of a retired one-frame message that nothing else
    /// held when its acknowledgement arrived: the next one-frame message
    /// is encoded into it instead of a fresh buffer. Only a buffer that
    /// holds exactly one frame qualifies. A multi-frame message's buffer
    /// is freed when its last frame retires: kept, whole message buffers
    /// would hoard memory in idle engines (DESIGN.md, "Hot-path memory
    /// discipline").
    spare: Option<Bytes>,
    bucket: Option<TokenBucket>,
    pacer: CnpPacer,
    /// One sample per frame acknowledged on its first transmission, in
    /// ns at 32 bits: an RTT that outlived 4.29 s would have timed out.
    rtts: PercentileRecorder<u32>,
    stats: LtlStats,
    next_msg_id: u32,
    rr_conn: usize,
    /// At or before the earliest retransmission deadline (`MAX`: none);
    /// [`on_tick`](Self::on_tick) makes it exact.
    pub(super) timeout_bound: SimTime,
    /// Upcalls of the [`on_packet`](Self::on_packet) or
    /// [`on_tick`](Self::on_tick) call in progress, handed out as a
    /// `Drain` so the steady state allocates nothing per receive. Empty
    /// between calls: the `Drain` removes what its holder does not take.
    events: Vec<LtlEvent>,
    /// Test-only fault injection: timed-out frames silently discarded
    /// instead of retransmitted (validates that the oracle catches bugs).
    lose_retransmits: u32,
    /// Test-only fault injection: the next `n` SACK bitmaps omit their
    /// highest buffered sequence (validates the SACK oracle's exact
    /// bitmap check; the protocol itself self-heals around it).
    omit_sacks: u32,
}

impl LtlEngine {
    /// Creates an engine for the FPGA at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.mtu_payload` is outside `1..=u16::MAX`: zero would
    /// segment a message into empty frames forever, and a larger payload
    /// does not fit the 16-bit length field of the LTL header.
    pub fn new(addr: NodeAddr, cfg: LtlConfig) -> LtlEngine {
        assert!(
            (1..=u16::MAX as usize).contains(&cfg.mtu_payload),
            "LtlConfig.mtu_payload must be in 1..={}, got {}",
            u16::MAX,
            cfg.mtu_payload
        );
        LtlEngine {
            addr,
            bucket: cfg.rate_limit_bps.map(TokenBucket::new),
            pacer: CnpPacer::new(CNP_INTERVAL),
            cfg,
            sends: Vec::new(),
            recvs: Vec::new(),
            control: VecDeque::new(),
            retransmit: VecDeque::new(),
            spare: None,
            rtts: PercentileRecorder::default(),
            stats: LtlStats::default(),
            next_msg_id: 1,
            rr_conn: 0,
            timeout_bound: SimTime::MAX,
            events: Vec::new(),
            lose_retransmits: 0,
            omit_sacks: 0,
        }
    }

    /// This engine's node address.
    pub fn addr(&self) -> NodeAddr {
        self.addr
    }

    /// Protocol counters, by reference. The registry view via
    /// [`telemetry::MetricSource`] remains the primary read path; this
    /// accessor serves event-granularity oracles that compare counters
    /// between every pair of events.
    pub fn stats_view(&self) -> &LtlStats {
        &self.stats
    }

    /// Next sequence number send connection `conn` will assign, if the id
    /// is known.
    pub fn send_next_seq(&self, conn: SendConnId) -> Option<u32> {
        self.sends.get(conn as usize).map(|sc| sc.next_seq)
    }

    /// Number of receive connections allocated.
    pub fn recv_conn_count(&self) -> usize {
        self.recvs.len()
    }

    /// Next sequence number receive connection `conn` will accept, if the
    /// id is known.
    pub fn recv_expected_seq(&self, conn: RecvConnId) -> Option<u32> {
        self.recvs.get(conn as usize).map(|rc| rc.expected_seq)
    }

    /// Exact in-flight sequence numbers on send connection `conn`, in
    /// window order (a selective-repeat window may legitimately contain
    /// SACK-punched holes).
    pub fn send_unacked_seqs(&self, conn: SendConnId) -> Option<Vec<u32>> {
        let sc = self.sends.get(conn as usize)?;
        Some(sc.unacked.iter().map(|u| u.seq).collect())
    }

    /// Exact buffered out-of-order sequence numbers on receive connection
    /// `conn`, in window order (empty in go-back-N mode).
    pub fn recv_buffered_seqs(&self, conn: RecvConnId) -> Option<Vec<u32>> {
        let rc = self.recvs.get(conn as usize)?;
        Some(rc.buffered.iter().map(|f| f.seq).collect())
    }

    /// Test-only fault injection: the next `n` timed-out frames are
    /// silently discarded from the retransmission state instead of being
    /// retransmitted, as a hardware bug losing window state would. Exists
    /// so the simulation-testing oracle can prove it detects real protocol
    /// bugs; no production path calls this.
    #[doc(hidden)]
    pub fn debug_lose_retransmits(&mut self, n: u32) {
        self.lose_retransmits = n;
    }

    /// Test-only fault injection (selective repeat): the next `n`
    /// non-empty SACK bitmaps omit their highest buffered sequence, as a
    /// hardware bug dropping an out-of-order acknowledgment would. The
    /// protocol self-heals (the sender retransmits, the receiver counts a
    /// duplicate), so only an oracle that checks the exact bitmap against
    /// the reassembly buffer can catch it; exists to prove the simcheck
    /// SACK oracle does. No production path calls this.
    #[doc(hidden)]
    pub fn debug_omit_sacks(&mut self, n: u32) {
        self.omit_sacks = n;
    }

    /// Round-trip time samples (transmit to cumulative-ACK receipt),
    /// excluding retransmitted frames.
    pub fn rtts_mut(&mut self) -> &mut PercentileRecorder<u32> {
        &mut self.rtts
    }

    /// Allocates a receive connection for messages from `remote`.
    pub fn add_recv(&mut self, remote: NodeAddr) -> RecvConnId {
        let id = self.recvs.len() as RecvConnId;
        self.recvs.push(RecvConn {
            remote,
            expected_seq: 0,
            assembling: BytesMut::new(),
            last_assembled: 0,
            assembling_vc: 0,
            nack_sent_for: None,
            buffered: Vec::new(),
        });
        id
    }

    /// Allocates a send connection to `remote_conn` on the node at
    /// `remote`. Connections are statically allocated and persistent, as in
    /// the paper; once established they carry messages with no handshake.
    pub fn add_send(&mut self, remote: NodeAddr, remote_conn: RecvConnId) -> SendConnId {
        let id = self.sends.len() as SendConnId;
        self.sends.push(SendConn {
            remote,
            remote_conn,
            next_seq: 0,
            pending: VecDeque::new(),
            unacked: VecDeque::new(),
            rp: self.cfg.dcqcn.clone().map(DcqcnRp::new),
            next_allowed: SimTime::ZERO,
            failed: false,
            rtt: RtoEstimator::new(self.cfg.timeout, MIN_RTO, MAX_RTO),
        });
        id
    }

    /// Number of frames awaiting first transmission plus unacknowledged
    /// frames, across all connections (idle test helper).
    pub fn in_flight(&self) -> usize {
        self.sends
            .iter()
            .map(|s| s.pending.len() + s.unacked.len())
            .sum()
    }

    /// Whether `conn` has been declared failed.
    pub fn is_failed(&self, conn: SendConnId) -> bool {
        self.sends
            .get(conn as usize)
            .map(|s| s.failed)
            .unwrap_or(true)
    }

    /// Queues `payload` as one message on `conn`, segmenting into MTU-sized
    /// frames. Returns the message id.
    ///
    /// Every frame is encoded here, once: a one-frame message into the
    /// engine's spare if it has one, a longer message into one buffer
    /// laid out `[header₁|payload₁|header₂|payload₂|…]` whose frames are
    /// views of it. The engine keeps no view of `payload`: the caller
    /// holds it alone again when this returns.
    ///
    /// # Errors
    ///
    /// [`SendError::BadConnection`] for an unknown id,
    /// [`SendError::ConnectionFailed`] if the connection timed out.
    ///
    /// # Panics
    ///
    /// Panics if the encoded message, a 20-byte header per frame included,
    /// reaches 4 GiB, the most one [`Bytes`] holds.
    pub fn send_message(
        &mut self,
        conn: SendConnId,
        vc: u8,
        payload: Bytes,
    ) -> Result<u32, SendError> {
        let mtu = self.cfg.mtu_payload;
        let msg_id = self.next_msg_id;
        let sc = self
            .sends
            .get_mut(conn as usize)
            .ok_or(SendError::BadConnection)?;
        if sc.failed {
            return Err(SendError::ConnectionFailed);
        }
        self.next_msg_id = self.next_msg_id.wrapping_add(1);
        let (total, first_seq, dst_conn) = (payload.len(), sc.next_seq, sc.remote_conn);
        let frames = total.div_ceil(mtu).max(1);
        let frame = |i: usize| LtlFrame {
            kind: FrameKind::Data,
            src_conn: conn,
            dst_conn,
            seq: first_seq.wrapping_add(i as u32),
            msg_id,
            last_frag: i + 1 == frames,
            vc,
            payload: payload.slice(i * mtu..((i + 1) * mtu).min(total)),
        };
        if frames == 1 {
            let wire = frame(0).encode_reusing(self.spare.take());
            sc.pending.push_back((first_seq, wire));
        } else {
            let mut buf = Vec::with_capacity(frames * LTL_HEADER_BYTES + total);
            for i in 0..frames {
                frame(i).encode_into(&mut buf);
            }
            let buf = Bytes::from(buf);
            let stride = LTL_HEADER_BYTES + mtu;
            for i in 0..frames {
                let wire = buf.slice(i * stride..((i + 1) * stride).min(buf.len()));
                sc.pending
                    .push_back((first_seq.wrapping_add(i as u32), wire));
            }
        }
        sc.next_seq = first_seq.wrapping_add(frames as u32);
        Ok(msg_id)
    }

    /// Wraps encoded frame bytes (shared, for a retransmission) into an
    /// LTL/UDP packet.
    fn wrap(&self, dst: NodeAddr, wire: Bytes) -> Packet {
        Packet::new(
            self.addr,
            dst,
            LTL_UDP_PORT,
            LTL_UDP_PORT,
            TrafficClass::LTL,
            wire,
        )
    }

    /// The retransmission timeout of a frame that has already timed out
    /// `timeouts` times. Exponential backoff keeps congestion-induced
    /// delays from snowballing into retransmit storms: go-back-N scales
    /// its fixed timeout by the frame's timeout count, selective repeat
    /// carries the backoff inside the adaptive estimator.
    fn rto(cfg: &LtlConfig, rtt: &RtoEstimator, timeouts: u32) -> SimDuration {
        match cfg.mode {
            LtlMode::GoBackN => cfg.timeout * (1u64 << timeouts.min(4)),
            LtlMode::SelectiveRepeat => rtt.rto(),
        }
    }

    /// Returns the next frame to transmit, if any is eligible at `now`.
    /// Control frames go first (unshaped), then retransmissions, then new
    /// data, subject to the bandwidth limiter and per-connection DC-QCN
    /// pacing.
    pub fn poll(&mut self, now: SimTime) -> Poll {
        if let Some((dst, frame)) = self.control.pop_front() {
            return Poll::Ready(self.wrap(dst, frame.encode()));
        }

        // Retransmissions: shaped by the bucket only.
        while let Some(&(conn, seq)) = self.retransmit.front() {
            let sc = &mut self.sends[conn as usize];
            let Some(u) = sc.unacked.iter_mut().find(|u| u.seq == seq) else {
                self.retransmit.pop_front(); // ACKed in the meantime
                continue;
            };
            let bytes = u.wire.len() as f64;
            if let Some(b) = &mut self.bucket {
                let at = b.ready_at(now, bytes);
                if at > now {
                    return Poll::Later(at);
                }
                b.consume(now, bytes);
            }
            self.retransmit.pop_front();
            u.sent_at = now;
            u.deadline = now + Self::rto(&self.cfg, &sc.rtt, u.timeouts);
            self.timeout_bound = self.timeout_bound.min(u.deadline);
            self.stats.retransmits += 1;
            // Retransmit the cached wire bytes: no re-encode, no copy.
            let wire = u.wire.clone();
            let dst = sc.remote;
            return Poll::Ready(self.wrap(dst, wire));
        }

        // New data, round-robin over connections.
        let n = self.sends.len();
        let mut earliest: Option<SimTime> = None;
        for k in 0..n {
            let idx = (self.rr_conn + k) % n;
            let sc = &mut self.sends[idx];
            if sc.failed || sc.pending.is_empty() {
                continue;
            }
            let bytes = sc.pending[0].1.len() as f64;
            let mut at = sc.next_allowed.max(now);
            if at <= now {
                if let Some(b) = &mut self.bucket {
                    at = at.max(b.ready_at(now, bytes));
                }
            }
            if at > now {
                earliest = Some(earliest.map_or(at, |e| e.min(at)));
                continue;
            }
            // Eligible: transmit.
            if let Some(b) = &mut self.bucket {
                b.consume(now, bytes);
            }
            let (seq, wire) = sc.pending.pop_front().expect("checked non-empty");
            if let Some(rp) = &mut sc.rp {
                rp.advance(now);
                rp.on_bytes_sent(bytes as u64);
                let gap = SimDuration::from_secs_f64(bytes * 8.0 / rp.current_rate_bps());
                sc.next_allowed = now + gap;
            }
            let dst = sc.remote;
            // The unacked entry keeps the shared wire bytes, so a later
            // retransmission is a pure Arc clone.
            let deadline = now + Self::rto(&self.cfg, &sc.rtt, 0);
            self.timeout_bound = self.timeout_bound.min(deadline);
            sc.unacked.push_back(Unacked {
                seq,
                wire: wire.clone(),
                sent_at: now,
                deadline,
                timeouts: 0,
                retransmitted: false,
            });
            self.stats.data_sent += 1;
            self.rr_conn = (idx + 1) % n;
            return Poll::Ready(self.wrap(dst, wire));
        }
        match earliest {
            Some(t) => Poll::Later(t),
            None => Poll::Empty,
        }
    }

    /// Processes an incoming LTL packet. Returns upcalls for the shell,
    /// drained from an engine-owned buffer; dropping the result unread
    /// discards them. Non-LTL or corrupt payloads are ignored (counted
    /// nowhere: the shell only routes LTL-port packets here).
    pub fn on_packet(&mut self, pkt: &Packet, now: SimTime) -> Drain<'_, LtlEvent> {
        if let Ok(frame) = LtlFrame::decode(&pkt.payload) {
            match frame.kind {
                FrameKind::Data => self.on_data(pkt, frame, now),
                FrameKind::Ack | FrameKind::Sack => self.on_ack(frame, now),
                FrameKind::Nack => self.on_nack(frame),
                FrameKind::Cnp => {
                    self.stats.cnps_rx += 1;
                    if let Some(sc) = self.sends.get_mut(frame.dst_conn as usize) {
                        if let Some(rp) = &mut sc.rp {
                            // Rate increases and alpha decays due since
                            // the last send apply first.
                            rp.advance(now);
                            rp.on_cnp(now);
                        }
                    }
                }
            }
        }
        self.events.drain(..)
    }

    /// Data receipt, both modes: an in-order frame is delivered (and,
    /// in selective repeat, the buffered run behind it), a duplicate is
    /// counted, a gap frame is NACKed; then the receiver replies.
    fn on_data(&mut self, pkt: &Packet, frame: LtlFrame, now: SimTime) {
        // Unknown connection, or a frame from somewhere other than the
        // connection's static peer: discard.
        match self.recvs.get(frame.dst_conn as usize) {
            Some(rc) if rc.remote == pkt.src => {}
            _ => return,
        }

        // Notification point: congestion-marked data triggers a paced CNP.
        if pkt.ecn == Ecn::CongestionExperienced {
            let flow = ((frame.src_conn as u64) << 32) | pkt.src.as_u32() as u64;
            if self.pacer.on_ce_packet(flow, now) {
                self.control.push_back((
                    pkt.src,
                    LtlFrame::control(FrameKind::Cnp, frame.dst_conn, frame.src_conn, 0),
                ));
                self.stats.cnps_tx += 1;
            }
        }

        let (conn, src_conn) = (frame.dst_conn, frame.src_conn);
        let sr = self.cfg.mode == LtlMode::SelectiveRepeat;
        let rc = &mut self.recvs[conn as usize];
        let mut gap = false;
        if frame.seq == rc.expected_seq {
            rc.nack_sent_for = None;
            Self::accept_in_order(rc, &mut self.stats, &mut self.events, conn, pkt.src, frame);
            // A filled gap may unlock a run of buffered frames — and with
            // them, possibly several complete messages.
            while rc
                .buffered
                .first()
                .is_some_and(|f| f.seq == rc.expected_seq)
            {
                let next = rc.buffered.remove(0);
                Self::accept_in_order(rc, &mut self.stats, &mut self.events, conn, pkt.src, next);
            }
        } else if seq_lt(frame.seq, rc.expected_seq)
            || rc.buffered.iter().any(|f| f.seq == frame.seq)
        {
            // Already delivered or already buffered: the reply below
            // re-advertises the receiver state so the sender releases it.
            self.stats.duplicates += 1;
        } else if sr && frame.seq.wrapping_sub(rc.expected_seq) >= RECV_WINDOW {
            // Beyond the reassembly window: drop; the sender retransmits
            // once the window opens.
            self.stats.window_drops += 1;
        } else {
            // Gap: packet reordering or loss detected. Go-back-N discards
            // the frame, selective repeat buffers it.
            gap = true;
            self.stats.out_of_order += 1;
            if sr {
                let pos = rc
                    .buffered
                    .iter()
                    .position(|f| seq_lt(frame.seq, f.seq))
                    .unwrap_or(rc.buffered.len());
                rc.buffered.insert(pos, frame);
            }
            if self.cfg.nack_enabled && rc.nack_sent_for != Some(rc.expected_seq) {
                rc.nack_sent_for = Some(rc.expected_seq);
                let want = rc.expected_seq;
                self.control.push_back((
                    pkt.src,
                    LtlFrame::control(FrameKind::Nack, conn, src_conn, want),
                ));
                self.stats.nacks_tx += 1;
            }
        }
        // The reply: go-back-N acknowledges cumulatively unless the frame
        // left a gap; selective repeat answers every data frame with the
        // receiver's exact state.
        let cum = rc.expected_seq.wrapping_sub(1);
        let reply = match self.cfg.mode {
            LtlMode::GoBackN if gap => return,
            LtlMode::GoBackN => LtlFrame::control(FrameKind::Ack, conn, src_conn, cum),
            LtlMode::SelectiveRepeat => {
                self.stats.sacks_tx += 1;
                LtlFrame::sack(conn, src_conn, cum, self.sack_bitmap(conn))
            }
        };
        self.control.push_back((pkt.src, reply));
    }

    /// The SACK bitmap of receive connection `conn`: bit i reports
    /// `expected_seq + 1 + i` (cum + 2 + i on the wire) as buffered.
    fn sack_bitmap(&mut self, conn: RecvConnId) -> u64 {
        let rc = &self.recvs[conn as usize];
        let mut bits = 0u64;
        for f in &rc.buffered {
            let bit = f.seq.wrapping_sub(rc.expected_seq).wrapping_sub(1);
            if bit < 64 {
                bits |= 1u64 << bit;
            }
        }
        if self.omit_sacks > 0 && bits != 0 {
            // Injected bug (test-only): forget the highest out-of-order
            // acknowledgment. See `debug_omit_sacks`.
            self.omit_sacks -= 1;
            bits &= !(1u64 << (63 - bits.leading_zeros()));
        }
        bits
    }

    /// Accepts the frame at `expected_seq`: advances the window, extends
    /// the reassembly buffer, and emits a delivery on the final fragment.
    fn accept_in_order(
        rc: &mut RecvConn,
        stats: &mut LtlStats,
        events: &mut Vec<LtlEvent>,
        conn: RecvConnId,
        src: NodeAddr,
        frame: LtlFrame,
    ) {
        rc.expected_seq = rc.expected_seq.wrapping_add(1);
        rc.assembling_vc = frame.vc;
        if !frame.last_frag {
            if rc.assembling.is_empty() {
                rc.assembling = BytesMut::with_capacity(rc.last_assembled);
            }
            rc.assembling.extend_from_slice(&frame.payload);
            return;
        }
        // A single-fragment message is delivered as the zero-copy view of
        // the received frame; only multi-fragment ones are copied together.
        let payload = if rc.assembling.is_empty() {
            frame.payload
        } else {
            rc.assembling.extend_from_slice(&frame.payload);
            rc.last_assembled = rc.assembling.len();
            core::mem::take(&mut rc.assembling).freeze()
        };
        stats.msgs_delivered += 1;
        stats.bytes_delivered += payload.len() as u64;
        events.push(LtlEvent::Deliver {
            conn,
            src,
            vc: frame.vc,
            payload,
        });
    }

    /// Retires one in-flight frame and records its RTT (Karn's rule — only
    /// never-retransmitted frames produce samples). The wire buffer of a
    /// one-frame message becomes the engine's spare if there is none and
    /// nothing else — a packet still in flight, a delivered payload the
    /// receiver's consumer keeps, a frame in its reassembly buffer —
    /// holds a view of it. A frame of a longer message views part of its
    /// message's buffer and is never kept: the buffer is freed once the
    /// last of its views goes.
    fn retire(
        rtts: &mut PercentileRecorder<u32>,
        spare: &mut Option<Bytes>,
        sc: &mut SendConn,
        u: Unacked,
        now: SimTime,
    ) {
        if !u.retransmitted {
            let rtt = now.saturating_since(u.sent_at);
            rtts.record_duration(rtt);
            sc.rtt.on_sample(rtt);
        }
        if spare.is_none() && u.wire.is_unique_whole() {
            *spare = Some(u.wire);
        }
    }

    /// ACK or SACK receipt. The cumulative part releases the window
    /// prefix; a SACK's bitmap then punches individually received frames
    /// out of the middle of the window, so only missing frames are ever
    /// retransmitted. An ACK is a SACK with an empty bitmap.
    fn on_ack(&mut self, frame: LtlFrame, now: SimTime) {
        let bits = if frame.kind == FrameKind::Ack {
            self.stats.acks_rx += 1;
            Some(0)
        } else {
            self.stats.sacks_rx += 1;
            frame.sack_bits()
        };
        let (Some(bits), Some(sc)) = (bits, self.sends.get_mut(frame.dst_conn as usize)) else {
            return;
        };
        let cum = frame.seq;
        while sc.unacked.front().is_some_and(|u| seq_le(u.seq, cum)) {
            let u = sc.unacked.pop_front().expect("front checked");
            Self::retire(&mut self.rtts, &mut self.spare, sc, u, now);
        }
        // Bit i reports sequence cum + 2 + i as received (cum + 1 is by
        // definition the receiver's first gap and is never sacked).
        let mut i = 0;
        while bits != 0 && i < sc.unacked.len() {
            let off = sc.unacked[i].seq.wrapping_sub(cum);
            if (2..=65).contains(&off) && bits & (1u64 << (off - 2)) != 0 {
                let u = sc.unacked.remove(i).expect("index checked");
                Self::retire(&mut self.rtts, &mut self.spare, sc, u, now);
                self.stats.sacked += 1;
                continue;
            }
            i += 1;
        }
    }

    /// NACK receipt: go-back-N re-queues the window from the NACKed frame
    /// on; selective repeat only the frame the receiver asked for, since
    /// frames above it may already sit in its reassembly buffer.
    fn on_nack(&mut self, frame: LtlFrame) {
        self.stats.nacks_rx += 1;
        let conn = frame.dst_conn;
        let Some(sc) = self.sends.get_mut(conn as usize) else {
            return;
        };
        for u in sc.unacked.iter_mut() {
            let wanted = match self.cfg.mode {
                LtlMode::GoBackN => seq_le(frame.seq, u.seq),
                LtlMode::SelectiveRepeat => u.seq == frame.seq,
            };
            if wanted {
                u.retransmitted = true;
                u.deadline = SimTime::MAX;
                self.retransmit.push_back((conn, u.seq));
            }
        }
    }

    /// Retransmits the frames due by `now` and fails connections whose
    /// frames exhausted their retries; selective repeat backs off once
    /// per connection per call, so once per expiry instant. Returns
    /// failure upcalls, drained from the same engine-owned buffer as
    /// [`on_packet`](Self::on_packet)'s.
    pub fn on_tick(&mut self, now: SimTime) -> Drain<'_, LtlEvent> {
        if now < self.timeout_bound {
            return self.events.drain(..);
        }
        let mut bound = SimTime::MAX;
        // A failed connection has nothing in flight.
        for (idx, sc) in self.sends.iter_mut().enumerate() {
            let mut fail = false;
            let mut backed_off = false;
            let mut i = 0;
            while i < sc.unacked.len() {
                let u = &mut sc.unacked[i];
                if u.deadline > now {
                    bound = bound.min(u.deadline);
                } else if u.timeouts >= self.cfg.max_retries {
                    fail = true;
                    break;
                } else if self.lose_retransmits > 0 {
                    // Injected bug (test-only): forget the frame as if it
                    // had been acknowledged. See `debug_lose_retransmits`.
                    self.lose_retransmits -= 1;
                    sc.unacked.remove(i);
                    continue;
                } else {
                    u.timeouts += 1;
                    u.retransmitted = true;
                    u.deadline = SimTime::MAX;
                    self.stats.timeouts += 1;
                    self.retransmit.push_back((idx as SendConnId, u.seq));
                    // One backoff step per connection per expiry instant:
                    // a burst of frames expiring together signals one
                    // loss event, not many.
                    if self.cfg.mode == LtlMode::SelectiveRepeat && !backed_off {
                        sc.rtt.on_timeout();
                        backed_off = true;
                    }
                }
                i += 1;
            }
            if fail {
                sc.failed = true;
                sc.pending.clear();
                sc.unacked.clear();
                self.stats.conn_failures += 1;
                self.events.push(LtlEvent::ConnectionFailed {
                    conn: idx as SendConnId,
                    remote: sc.remote,
                });
            }
        }
        self.timeout_bound = bound;
        self.events.drain(..)
    }
}

impl MetricSource for LtlEngine {
    fn metrics(&self, m: &mut MetricVisitor<'_>) {
        m.counter("data_sent", self.stats.data_sent);
        m.counter("retransmits", self.stats.retransmits);
        m.counter("timeouts", self.stats.timeouts);
        m.counter("acks_rx", self.stats.acks_rx);
        m.counter("nacks_tx", self.stats.nacks_tx);
        m.counter("nacks_rx", self.stats.nacks_rx);
        m.counter("cnps_tx", self.stats.cnps_tx);
        m.counter("cnps_rx", self.stats.cnps_rx);
        m.counter("msgs_delivered", self.stats.msgs_delivered);
        m.counter("bytes_delivered", self.stats.bytes_delivered);
        m.counter("duplicates", self.stats.duplicates);
        m.counter("out_of_order", self.stats.out_of_order);
        m.counter("conn_failures", self.stats.conn_failures);
        m.counter("sacks_tx", self.stats.sacks_tx);
        m.counter("sacks_rx", self.stats.sacks_rx);
        m.counter("sacked", self.stats.sacked);
        m.counter("window_drops", self.stats.window_drops);
        m.gauge("in_flight", self.in_flight() as f64);
        // Adaptive-RTO visibility: deterministic means over connections
        // in table order (0 until the first RTT sample / connection).
        let mut srtt_sum = 0u64;
        let mut srtt_n = 0u64;
        let mut rto_sum = 0u64;
        for sc in &self.sends {
            if let Some(s) = sc.rtt.srtt_ns() {
                srtt_sum = srtt_sum.saturating_add(s);
                srtt_n += 1;
            }
            rto_sum = rto_sum.saturating_add(sc.rtt.rto().as_nanos());
        }
        let mean = |sum: u64, n: u64| if n == 0 { 0.0 } else { sum as f64 / n as f64 };
        m.gauge("srtt_ns", mean(srtt_sum, srtt_n));
        m.gauge("rto_ns", mean(rto_sum, self.sends.len() as u64));
        // 250 ns buckets match the fig10 RTT distribution resolution.
        m.histogram_samples("rtt_ns", 250, self.rtts.iter());
    }
}

/// Serial number comparison on 32-bit sequence space.
fn seq_lt(a: u32, b: u32) -> bool {
    a != b && b.wrapping_sub(a) < u32::MAX / 2
}

fn seq_le(a: u32, b: u32) -> bool {
    a == b || seq_lt(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: NodeAddr = NodeAddr {
        pod: 0,
        tor: 0,
        host: 1,
    };
    const B: NodeAddr = NodeAddr {
        pod: 0,
        tor: 0,
        host: 2,
    };

    /// Two engines with a unidirectional data path A->B and acks B->A.
    struct Pair {
        a: LtlEngine,
        b: LtlEngine,
        a_send: SendConnId,
        now: SimTime,
    }

    impl Pair {
        fn new(cfg: LtlConfig) -> Pair {
            let mut a = LtlEngine::new(A, cfg.clone());
            let mut b = LtlEngine::new(B, cfg);
            let b_recv = b.add_recv(A);
            let a_send = a.add_send(B, b_recv);
            Pair {
                a,
                b,
                a_send,
                now: SimTime::ZERO,
            }
        }

        /// Moves all eligible traffic in both directions with `delay` per
        /// hop, delivering every packet. Returns delivered events from B.
        fn exchange(&mut self, delay: SimDuration) -> Vec<LtlEvent> {
            let mut events = Vec::new();
            for _ in 0..10_000 {
                let mut progressed = false;
                while let Poll::Ready(pkt) = self.a.poll(self.now) {
                    self.now += delay;
                    events.extend(self.b.on_packet(&pkt, self.now));
                    progressed = true;
                }
                while let Poll::Ready(pkt) = self.b.poll(self.now) {
                    self.now += delay;
                    self.a.on_packet(&pkt, self.now);
                    progressed = true;
                }
                if !progressed {
                    break;
                }
            }
            events
        }
    }

    fn no_dcqcn() -> LtlConfig {
        LtlConfig::default().without_dcqcn()
    }

    #[test]
    fn small_message_delivered_and_acked() {
        let mut p = Pair::new(no_dcqcn());
        p.a.send_message(p.a_send, 1, Bytes::from_static(b"hello"))
            .unwrap();
        let events = p.exchange(SimDuration::from_micros(1));
        assert_eq!(events.len(), 1);
        match &events[0] {
            LtlEvent::Deliver {
                src, vc, payload, ..
            } => {
                assert_eq!(*src, A);
                assert_eq!(*vc, 1);
                assert_eq!(payload.as_ref(), b"hello");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(p.a.in_flight(), 0, "all frames acked");
        assert_eq!(p.a.stats_view().data_sent, 1);
        assert_eq!(p.b.stats_view().msgs_delivered, 1);
    }

    #[test]
    #[should_panic(expected = "LtlConfig.mtu_payload must be in 1..=65535, got 0")]
    fn zero_mtu_payload_is_rejected_up_front() {
        // Unchecked, `send_message` would push empty frames forever.
        let cfg = LtlConfig {
            mtu_payload: 0,
            ..no_dcqcn()
        };
        let _ = LtlEngine::new(A, cfg);
    }

    #[test]
    #[should_panic(expected = "LtlConfig.mtu_payload must be in 1..=65535, got 65536")]
    fn mtu_payload_beyond_the_length_field_is_rejected_up_front() {
        // Unchecked, the header's u16 length would truncate and every
        // frame would fail to decode.
        let cfg = LtlConfig {
            mtu_payload: u16::MAX as usize + 1,
            ..no_dcqcn()
        };
        let _ = LtlEngine::new(A, cfg);
    }

    #[test]
    fn both_ends_of_the_legal_mtu_payload_range_carry_messages() {
        for mtu in [1, u16::MAX as usize] {
            let cfg = LtlConfig {
                mtu_payload: mtu,
                ..no_dcqcn()
            };
            let mut p = Pair::new(cfg);
            p.a.send_message(p.a_send, 0, Bytes::from_static(b"abc"))
                .unwrap();
            let events = p.exchange(SimDuration::from_micros(1));
            let [LtlEvent::Deliver { payload, .. }] = &events[..] else {
                panic!("mtu {mtu}: expected one delivery, got {events:?}");
            };
            assert_eq!(payload.as_ref(), b"abc");
        }
    }

    #[test]
    fn single_fragment_message_is_delivered_as_a_view_of_the_frame() {
        let mut p = Pair::new(no_dcqcn());
        p.a.send_message(p.a_send, 0, Bytes::from_static(b"zero copy"))
            .unwrap();
        let Poll::Ready(pkt) = p.a.poll(p.now) else {
            panic!("data frame expected");
        };
        let events = p.b.on_packet(&pkt, p.now);
        let [LtlEvent::Deliver { payload, .. }] = events.as_slice() else {
            panic!("expected one delivery, got {events:?}");
        };
        assert_eq!(
            payload.as_slice().as_ptr(),
            pkt.payload[LTL_HEADER_BYTES..].as_ptr(),
            "a single-fragment delivery must share the wire buffer"
        );
    }

    /// Sends `msg`, hands its data frame to B and B's replies back to A,
    /// dropping the data packet before the reply leg as a network would.
    /// Returns where the frame's wire image lives and B's upcalls, which
    /// are dropped before the reply leg too unless `keep`.
    fn round_trip(p: &mut Pair, msg: &'static [u8], keep: bool) -> (*const u8, Vec<LtlEvent>) {
        p.a.send_message(p.a_send, 0, Bytes::from_static(msg))
            .unwrap();
        let Poll::Ready(data) = p.a.poll(p.now) else {
            panic!("data frame expected");
        };
        let wire = data.payload.as_slice().as_ptr();
        let mut events: Vec<LtlEvent> = p.b.on_packet(&data, p.now).collect();
        assert_eq!(delivered(&events), [msg]);
        drop(data);
        if !keep {
            events.clear();
        }
        while let Poll::Ready(reply) = p.b.poll(p.now) {
            p.a.on_packet(&reply, p.now);
        }
        (wire, events)
    }

    fn delivered(events: &[LtlEvent]) -> Vec<&[u8]> {
        events
            .iter()
            .map(|ev| match ev {
                LtlEvent::Deliver { payload, .. } => payload.as_ref(),
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    /// A delivered payload is a view into the sender's wire buffer: the
    /// sender refills that buffer for its next message only once the
    /// receiver's consumer has let the delivery go.
    #[test]
    fn a_kept_delivery_is_never_overwritten_by_the_next_message() {
        const KEPT: &[u8] = b"kept message, held across the next one";
        for mode in [LtlMode::GoBackN, LtlMode::SelectiveRepeat] {
            let mut p = Pair::new(no_dcqcn().with_mode(mode));
            let (w0, _) = round_trip(&mut p, b"warm-up message, delivered and dropped", false);
            assert!(
                p.a.spare.is_some(),
                "{mode}: a dropped delivery frees its buffer"
            );
            let (w1, kept) = round_trip(&mut p, KEPT, true);
            assert_eq!(w1, w0, "{mode}: the spare is refilled in place");
            assert!(p.a.spare.is_none(), "{mode}: the kept delivery pins it");
            let (w2, _) = round_trip(&mut p, b"next message, must not overwrite the kept", false);
            assert_ne!(w2, w1, "{mode}: a fresh buffer while the delivery is alive");
            assert_eq!(delivered(&kept), [KEPT], "{mode}");
        }
    }

    /// Selective repeat: a SACK retires a frame the receiver still holds
    /// in its reassembly buffer, so that frame's buffer is not reused.
    #[test]
    fn a_frame_in_the_reassembly_buffer_is_never_overwritten() {
        const MSGS: [&[u8]; 3] = [
            b"first message, lost on the way",
            b"second message, buffered in the gap",
            b"third message, must not overwrite the second",
        ];
        let mut p = Pair::new(no_dcqcn().with_mode(LtlMode::SelectiveRepeat));
        round_trip(&mut p, b"warm-up message, delivered and dropped", false);
        assert!(p.a.spare.is_some());
        for msg in &MSGS[..2] {
            p.a.send_message(p.a_send, 0, Bytes::from_static(msg))
                .unwrap();
        }
        let (Poll::Ready(lost), Poll::Ready(gap)) = (p.a.poll(p.now), p.a.poll(p.now)) else {
            panic!("two data frames expected");
        };
        drop(lost);
        let buffered = gap.payload.as_slice().as_ptr();
        assert_eq!(p.b.on_packet(&gap, p.now).len(), 0);
        drop(gap);
        assert_eq!(p.b.recv_buffered_seqs(0), Some(vec![2]));
        while let Poll::Ready(reply) = p.b.poll(p.now) {
            p.a.on_packet(&reply, p.now);
        }
        assert_eq!(
            p.a.stats_view().sacked,
            1,
            "the SACK retired the buffered frame"
        );
        assert!(p.a.spare.is_none(), "the receiver still holds its buffer");

        p.a.send_message(p.a_send, 0, Bytes::from_static(MSGS[2]))
            .unwrap();
        let mut events = Vec::new();
        while let Poll::Ready(pkt) = p.a.poll(p.now) {
            assert_ne!(pkt.payload.as_slice().as_ptr(), buffered);
            events.extend(p.b.on_packet(&pkt, p.now));
        }
        assert_eq!(delivered(&events), MSGS);
    }

    #[test]
    fn large_message_is_segmented_and_reassembled() {
        let mut p = Pair::new(no_dcqcn());
        let payload: Vec<u8> = (0..10_000u32).map(|i| i as u8).collect();
        p.a.send_message(p.a_send, 0, Bytes::from(payload.clone()))
            .unwrap();
        let events = p.exchange(SimDuration::from_micros(1));
        assert_eq!(events.len(), 1);
        let LtlEvent::Deliver { payload: got, .. } = &events[0] else {
            panic!("expected deliver");
        };
        assert_eq!(got.as_ref(), payload.as_slice());
        assert!(
            p.a.stats_view().data_sent >= 7,
            "segmented into multiple frames"
        );
    }

    /// The sender encodes a message when it is queued and lets go of the
    /// caller's payload before `send_message` returns: the caller may then
    /// write it in place. What it kept for retransmission, the wire image,
    /// is resent byte for byte whatever the caller wrote.
    #[test]
    fn the_payload_is_released_when_queued_and_resends_are_unchanged() {
        for mode in [LtlMode::GoBackN, LtlMode::SelectiveRepeat] {
            let cfg = no_dcqcn().with_mode(mode);
            let timeout = cfg.timeout;
            let mut p = Pair::new(cfg);
            let mut payload = Bytes::from(vec![0x5Au8; 3 * p.a.cfg.mtu_payload]);
            p.a.send_message(p.a_send, 0, payload.clone()).unwrap();
            assert!(payload.is_unique(), "{mode}: released when queued");
            payload.try_mut().expect("unique").fill(0xEE);
            let mut first = Vec::new();
            while let Poll::Ready(pkt) = p.a.poll(p.now) {
                first.push(pkt.payload.as_slice().to_vec()); // then lost
            }
            assert_eq!(first.len(), 3, "{mode}");
            assert!(
                first
                    .iter()
                    .all(|w| w[LTL_HEADER_BYTES..].iter().all(|&b| b == 0x5A)),
                "{mode}: the first sends carry what was queued"
            );

            p.now = SimTime::ZERO + timeout * 2;
            p.a.on_tick(p.now);
            let mut resent = Vec::new();
            while let Poll::Ready(pkt) = p.a.poll(p.now) {
                resent.push(pkt.payload.as_slice().to_vec());
            }
            assert_eq!(resent, first, "{mode}: retransmissions are the first sends");
        }
    }

    /// A multi-frame message is one buffer, `[header|payload]` per frame
    /// back to back, and every frame's wire image is a view of it.
    #[test]
    fn a_multi_frame_message_is_encoded_into_one_buffer() {
        let mut p = Pair::new(no_dcqcn());
        let mtu = p.a.cfg.mtu_payload;
        let payload: Vec<u8> = (0..4 * mtu + 100).map(|i| (i % 251) as u8).collect();
        p.a.send_message(p.a_send, 3, Bytes::from(payload.clone()))
            .unwrap();
        let mut wires = Vec::new();
        while let Poll::Ready(pkt) = p.a.poll(p.now) {
            wires.push(pkt.payload);
        }
        assert_eq!(wires.len(), 5);
        let base = wires[0].as_slice().as_ptr();
        for (i, wire) in wires.iter().enumerate() {
            let offset = i * (LTL_HEADER_BYTES + mtu);
            assert_eq!(
                wire.as_slice().as_ptr(),
                base.wrapping_add(offset),
                "frame {i}"
            );
            let f = LtlFrame::decode(wire).unwrap();
            assert_eq!((f.seq, f.vc, f.last_frag), (i as u32, 3, i == 4));
            let chunk = &payload[i * mtu..((i + 1) * mtu).min(payload.len())];
            assert_eq!(f.payload.as_ref(), chunk, "frame {i}");
        }
    }

    /// Only a buffer holding one frame becomes the spare: a message
    /// buffer is freed with its last frame, however the ACKs retire it.
    #[test]
    fn a_message_buffer_never_becomes_the_spare() {
        for mode in [LtlMode::GoBackN, LtlMode::SelectiveRepeat] {
            let mut p = Pair::new(no_dcqcn().with_mode(mode));
            let len = 3 * p.a.cfg.mtu_payload;
            p.a.send_message(p.a_send, 0, Bytes::from(vec![1u8; len]))
                .unwrap();
            let events = p.exchange(SimDuration::from_micros(1));
            assert_eq!(delivered(&events), [vec![1u8; len]], "{mode}");
            assert_eq!(p.a.in_flight(), 0, "{mode}");
            assert!(p.a.spare.is_none(), "{mode}: the message buffer is freed");
            round_trip(&mut p, b"one frame, one buffer, kept once retired", false);
            assert!(p.a.spare.is_some(), "{mode}: a one-frame buffer is kept");
        }
    }

    /// More frames than one SACK bitmap spans: the message is still one
    /// buffer, and arrives byte for byte under loss in both modes.
    #[test]
    fn a_message_of_more_than_64_frames_is_delivered_intact() {
        for mode in [LtlMode::GoBackN, LtlMode::SelectiveRepeat] {
            let cfg = LtlConfig {
                mtu_payload: 7,
                ..no_dcqcn().with_mode(mode)
            };
            let timeout = cfg.timeout;
            let mut p = Pair::new(cfg);
            let payload: Vec<u8> = (0..7 * 150 + 3).map(|i| (i * 7 % 256) as u8).collect();
            p.a.send_message(p.a_send, 0, Bytes::from(payload.clone()))
                .unwrap();
            // Every tenth frame of the first pass is lost.
            let mut events = Vec::new();
            let mut sent = 0;
            while let Poll::Ready(pkt) = p.a.poll(p.now) {
                if sent % 10 != 3 {
                    events.extend(p.b.on_packet(&pkt, p.now));
                }
                sent += 1;
            }
            assert_eq!(sent, 151, "{mode}");
            for _ in 0..50 {
                events.extend(p.exchange(SimDuration::from_micros(1)));
                if p.a.in_flight() == 0 {
                    break;
                }
                p.now += timeout * 20;
                p.a.on_tick(p.now);
            }
            assert_eq!(delivered(&events), [payload.as_slice()], "{mode}");
            assert_eq!(p.a.in_flight(), 0, "{mode}");
        }
    }

    /// A multi-frame message is joined in a buffer of the previous one's
    /// length, so a run of equal messages never regrows it.
    #[test]
    fn reassembly_reserves_the_previous_message_s_length() {
        let mut p = Pair::new(no_dcqcn());
        let len = 5 * p.a.cfg.mtu_payload + 17;
        for round in 0..3u8 {
            p.a.send_message(p.a_send, 0, Bytes::from(vec![round; len]))
                .unwrap();
            let events = p.exchange(SimDuration::from_micros(1));
            assert_eq!(delivered(&events), [vec![round; len]]);
        }
        assert_eq!(p.b.recvs[0].last_assembled, len);
    }

    #[test]
    fn rtt_samples_recorded() {
        let mut p = Pair::new(no_dcqcn());
        for _ in 0..5 {
            p.a.send_message(p.a_send, 0, Bytes::from_static(b"ping"))
                .unwrap();
            p.exchange(SimDuration::from_micros(1));
        }
        let rtts = p.a.rtts_mut();
        assert_eq!(rtts.count(), 5);
        // Each hop advanced the clock 1us; data + ack = 2us.
        assert_eq!(rtts.percentile(100.0), Some(2_000));
    }

    #[test]
    fn lost_packet_recovered_by_timeout() {
        let cfg = no_dcqcn();
        let timeout = cfg.timeout;
        let mut p = Pair::new(cfg);
        p.a.send_message(p.a_send, 0, Bytes::from_static(b"lost"))
            .unwrap();
        // First transmission is dropped on the floor.
        let Poll::Ready(_dropped) = p.a.poll(p.now) else {
            panic!("expected frame");
        };
        // Before the configured timeout nothing happens.
        p.now = SimTime::ZERO + timeout - SimDuration::from_micros(1);
        assert_eq!(p.a.on_tick(p.now).len(), 0);
        assert!(matches!(p.a.poll(p.now), Poll::Empty));
        // After the timeout the frame is retransmitted and delivery works.
        p.now = SimTime::ZERO + timeout + SimDuration::from_micros(1);
        p.a.on_tick(p.now);
        let events = p.exchange(SimDuration::from_micros(1));
        assert_eq!(events.len(), 1);
        assert_eq!(p.a.stats_view().timeouts, 1);
        assert_eq!(p.a.stats_view().retransmits, 1);
        // The retransmitted frame must not pollute RTT samples (Karn).
        assert_eq!(p.a.rtts_mut().count(), 0);
    }

    #[test]
    fn reorder_triggers_nack_fast_retransmit() {
        let mut p = Pair::new(no_dcqcn());
        p.a.send_message(p.a_send, 0, Bytes::from_static(b"one"))
            .unwrap();
        p.a.send_message(p.a_send, 0, Bytes::from_static(b"two"))
            .unwrap();
        let Poll::Ready(first) = p.a.poll(p.now) else {
            panic!()
        };
        let Poll::Ready(second) = p.a.poll(p.now) else {
            panic!()
        };
        // Deliver out of order: second first.
        p.now = SimTime::from_micros(1);
        let delivered = p.b.on_packet(&second, p.now).len();
        assert_eq!(delivered, 0, "gap: nothing delivered");
        assert_eq!(p.b.stats_view().nacks_tx, 1);
        // NACK flows back; sender queues a fast retransmit well before the
        // 50us timeout.
        let Poll::Ready(nack) = p.b.poll(p.now) else {
            panic!()
        };
        p.a.on_packet(&nack, p.now);
        assert_eq!(p.a.stats_view().nacks_rx, 1);
        let Poll::Ready(re_first) = p.a.poll(p.now) else {
            panic!("fast retransmit expected")
        };
        assert_eq!(p.a.stats_view().retransmits, 1);
        assert_eq!(p.a.stats_view().timeouts, 0, "no timeout needed");
        // Now in-order delivery completes both messages.
        assert_eq!(p.b.on_packet(&re_first, p.now).len(), 1);
        let dup = p.b.on_packet(&first, p.now).len();
        assert_eq!(dup, 0, "duplicate of already-delivered seq 1");
        // Drain: the NACK also queued seq 1 for fast retransmit, which
        // completes the second message.
        let events = p.exchange(SimDuration::from_micros(1));
        assert_eq!(events.len(), 1, "second message delivered: {events:?}");
        assert_eq!(p.b.stats_view().msgs_delivered, 2);
    }

    #[test]
    fn timeout_only_mode_ignores_reorder() {
        let cfg = LtlConfig::default()
            .without_dcqcn()
            .with_nack_enabled(false);
        let mut p = Pair::new(cfg);
        p.a.send_message(p.a_send, 0, Bytes::from_static(b"one"))
            .unwrap();
        p.a.send_message(p.a_send, 0, Bytes::from_static(b"two"))
            .unwrap();
        let Poll::Ready(_first) = p.a.poll(p.now) else {
            panic!()
        };
        let Poll::Ready(second) = p.a.poll(p.now) else {
            panic!()
        };
        p.b.on_packet(&second, SimTime::from_micros(1));
        assert_eq!(p.b.stats_view().nacks_tx, 0);
        assert_eq!(p.b.stats_view().out_of_order, 1);
    }

    #[test]
    fn repeated_timeouts_fail_the_connection() {
        let mut p = Pair::new(no_dcqcn());
        p.a.send_message(p.a_send, 0, Bytes::from_static(b"void"))
            .unwrap();
        // Transmit into the void repeatedly.
        let mut failed = Vec::new();
        for step in 0..200u64 {
            p.now = SimTime::from_micros(step * 60);
            while let Poll::Ready(_) = p.a.poll(p.now) {}
            failed.extend(p.a.on_tick(p.now));
            if !failed.is_empty() {
                break;
            }
        }
        assert_eq!(
            failed,
            vec![LtlEvent::ConnectionFailed {
                conn: p.a_send,
                remote: B
            }]
        );
        assert!(p.a.is_failed(p.a_send));
        assert_eq!(
            p.a.send_message(p.a_send, 0, Bytes::new()).unwrap_err(),
            SendError::ConnectionFailed
        );
        // Failure detected quickly: with exponential backoff capped at
        // 16x the 50us timeout, well under 10ms.
        assert!(p.now < SimTime::from_millis(10));
    }

    #[test]
    fn bandwidth_limit_paces_data() {
        let cfg = LtlConfig::default()
            .without_dcqcn()
            .with_rate_limit_bps(1e9); // 1 Gb/s
        let mut a = LtlEngine::new(A, cfg);
        let mut b = LtlEngine::new(B, no_dcqcn());
        let b_recv = b.add_recv(A);
        let a_send = a.add_send(B, b_recv);
        // 100 KB: at 1 Gb/s should take ~0.8 ms to clock out.
        a.send_message(a_send, 0, Bytes::from(vec![0u8; 100_000]))
            .unwrap();
        let mut now = SimTime::ZERO;
        let mut sent_bytes = 0u64;
        for _ in 0..10_000 {
            match a.poll(now) {
                Poll::Ready(pkt) => {
                    sent_bytes += pkt.payload.len() as u64;
                    // ACK immediately so the window never binds.
                    for ev in b.on_packet(&pkt, now) {
                        let _ = ev;
                    }
                    while let Poll::Ready(ack) = b.poll(now) {
                        a.on_packet(&ack, now);
                    }
                }
                Poll::Later(t) => now = t,
                Poll::Empty => break,
            }
        }
        let secs = now.as_secs_f64();
        let gbps = sent_bytes as f64 * 8.0 / secs / 1e9;
        assert!(
            (gbps - 1.0).abs() < 0.15,
            "paced rate {gbps} Gb/s over {secs}s"
        );
    }

    #[test]
    fn cnp_slows_sender() {
        let cfg = LtlConfig::default(); // DC-QCN on
        let mut p = Pair::new(cfg);
        p.a.send_message(p.a_send, 0, Bytes::from(vec![0u8; 50_000]))
            .unwrap();
        // Take one data frame, mark it CE, deliver: B must emit a CNP.
        let Poll::Ready(mut pkt) = p.a.poll(p.now) else {
            panic!()
        };
        pkt.ecn = Ecn::CongestionExperienced;
        p.b.on_packet(&pkt, p.now);
        assert_eq!(p.b.stats_view().cnps_tx, 1);
        let Poll::Ready(cnp) = p.b.poll(p.now) else {
            panic!("CNP should be queued")
        };
        p.a.on_packet(&cnp, p.now);
        assert_eq!(p.a.stats_view().cnps_rx, 1);
        // Next data transmissions are paced below line rate: after the next
        // frame, the inter-frame gap roughly doubles versus line rate.
        p.now = SimTime::from_micros(5); // clear the pre-CNP pacing gap
        let Poll::Ready(_d1) = p.a.poll(p.now) else {
            panic!()
        };
        match p.a.poll(p.now) {
            Poll::Later(t) => {
                let gap = t.saturating_since(p.now);
                let line_gap = SimDuration::from_secs_f64(1458.0 * 8.0 / 40e9);
                assert!(gap > line_gap, "gap {gap} vs line-rate gap {line_gap}");
            }
            other => panic!("expected pacing, got {other:?}"),
        }
    }

    #[test]
    fn a_cnp_reaches_a_reaction_point_advanced_to_its_instant() {
        let mut p = Pair::new(LtlConfig::default()); // DC-QCN on
        let mut reference = DcqcnRp::new(DcqcnConfig::default());
        // A CNP, no traffic, then a second CNP three 55 us increase
        // timers later: the increases due in between apply before it.
        for at in [10, 175] {
            let now = SimTime::from_micros(at);
            let cnp = LtlFrame::control(FrameKind::Cnp, 0, p.a_send, 0);
            let pkt = p.b.wrap(A, cnp.encode());
            p.a.on_packet(&pkt, now);
            reference.advance(now);
            reference.on_cnp(now);
        }
        p.now = SimTime::from_micros(175);
        let mtu = p.a.cfg.mtu_payload;
        p.a.send_message(p.a_send, 0, Bytes::from(vec![0u8; mtu + 1]))
            .unwrap();
        let Poll::Ready(_first) = p.a.poll(p.now) else {
            panic!()
        };
        let bytes = (mtu + LTL_HEADER_BYTES) as f64;
        reference.advance(p.now);
        reference.on_bytes_sent(bytes as u64);
        let gap = SimDuration::from_secs_f64(bytes * 8.0 / reference.current_rate_bps());
        match p.a.poll(p.now) {
            Poll::Later(t) => assert_eq!(t, p.now + gap),
            other => panic!("expected pacing, got {other:?}"),
        }
    }

    /// A paced frame's instant is fixed when the frame before it leaves,
    /// so a rate increase that comes due in between neither pulls it
    /// earlier nor needs a timer: the next send advances the reaction
    /// point and paces the frame after it at the increased rate.
    #[test]
    fn a_rate_increase_between_paced_sends_applies_at_the_next_send() {
        let dcqcn = DcqcnConfig {
            line_rate_bps: 1e9,
            ..DcqcnConfig::default()
        };
        let mut p = Pair::new(LtlConfig {
            dcqcn: Some(dcqcn.clone()),
            ..LtlConfig::default()
        });
        let mut reference = DcqcnRp::new(dcqcn.clone());
        // A CNP halves the rate and restarts the increase timer.
        let cnp_at = SimTime::from_micros(10);
        let cnp = LtlFrame::control(FrameKind::Cnp, 0, p.a_send, 0);
        p.a.on_packet(&p.b.wrap(A, cnp.encode()), cnp_at);
        reference.advance(cnp_at);
        reference.on_cnp(cnp_at);
        let increase_at = cnp_at + dcqcn.increase_timer;

        let mtu = p.a.cfg.mtu_payload;
        p.a.send_message(p.a_send, 0, Bytes::from(vec![0u8; 3 * mtu]))
            .unwrap();
        let bytes = (mtu + LTL_HEADER_BYTES) as f64;
        let gap_after_send = |reference: &mut DcqcnRp, at: SimTime| {
            reference.advance(at);
            reference.on_bytes_sent(bytes as u64);
            SimDuration::from_secs_f64(bytes * 8.0 / reference.current_rate_bps())
        };
        let first = SimTime::from_micros(50);
        assert!(matches!(p.a.poll(first), Poll::Ready(_)));
        let second = first + gap_after_send(&mut reference, first);
        let halved = reference.current_rate_bps();
        assert!(first < increase_at && increase_at < second);
        // Polled once the increase is due, the frame keeps its instant.
        assert!(matches!(p.a.poll(increase_at), Poll::Later(t) if t == second));
        assert!(matches!(p.a.poll(second), Poll::Ready(_)));
        // Its send paces the next frame at the reaction point's rate then.
        let third = second + gap_after_send(&mut reference, second);
        assert!(reference.current_rate_bps() > halved, "increase applied");
        assert!(matches!(p.a.poll(second), Poll::Later(t) if t == third));
    }

    #[test]
    fn cnps_are_paced_per_flow() {
        let mut p = Pair::new(LtlConfig::default());
        p.a.send_message(p.a_send, 0, Bytes::from(vec![0u8; 20_000]))
            .unwrap();
        for _ in 0..5 {
            if let Poll::Ready(mut pkt) = p.a.poll(p.now) {
                pkt.ecn = Ecn::CongestionExperienced;
                p.b.on_packet(&pkt, p.now);
            }
        }
        assert_eq!(
            p.b.stats_view().cnps_tx,
            1,
            "one CNP per cnp_interval per flow"
        );
    }

    #[test]
    fn control_frames_preempt_data() {
        let mut p = Pair::new(no_dcqcn());
        p.a.send_message(p.a_send, 0, Bytes::from_static(b"data"))
            .unwrap();
        let Poll::Ready(data) = p.a.poll(p.now) else {
            panic!()
        };
        p.b.on_packet(&data, p.now);
        // B has an ACK queued; if B also had data it would still send the
        // ACK first. (B has no send conn, but the ordering contract is in
        // poll(): control queue first.)
        let Poll::Ready(ack) = p.b.poll(p.now) else {
            panic!()
        };
        let frame = LtlFrame::decode(&ack.payload).unwrap();
        assert_eq!(frame.kind, FrameKind::Ack);
    }

    #[test]
    fn seq_comparison_wraps() {
        assert!(seq_lt(u32::MAX, 0));
        assert!(seq_lt(u32::MAX - 1, 2));
        assert!(!seq_lt(2, u32::MAX));
        assert!(seq_le(5, 5));
    }

    fn sr_cfg() -> LtlConfig {
        no_dcqcn().selective_repeat()
    }

    #[test]
    fn sr_small_message_delivered_and_sacked() {
        let mut p = Pair::new(sr_cfg());
        p.a.send_message(p.a_send, 1, Bytes::from_static(b"hello"))
            .unwrap();
        let events = p.exchange(SimDuration::from_micros(1));
        assert_eq!(events.len(), 1);
        assert_eq!(p.a.in_flight(), 0, "released by the cumulative sack");
        assert_eq!(p.b.stats_view().sacks_tx, 1);
        assert_eq!(p.a.stats_view().sacks_rx, 1);
        assert_eq!(p.a.stats_view().acks_rx, 0, "sr replies with sacks only");
    }

    #[test]
    fn sr_gap_is_buffered_and_only_the_hole_retransmitted() {
        let mut p = Pair::new(sr_cfg());
        p.a.send_message(p.a_send, 0, Bytes::from_static(b"one"))
            .unwrap();
        p.a.send_message(p.a_send, 0, Bytes::from_static(b"two"))
            .unwrap();
        let Poll::Ready(_lost_first) = p.a.poll(p.now) else {
            panic!()
        };
        let Poll::Ready(second) = p.a.poll(p.now) else {
            panic!()
        };
        // Seq 1 arrives over the gap: buffered (not discarded), nacked,
        // and sacked so the sender retires it early.
        p.now = SimTime::from_micros(1);
        let delivered = p.b.on_packet(&second, p.now).len();
        assert_eq!(delivered, 0, "gap: nothing delivered yet");
        assert_eq!(p.b.stats_view().out_of_order, 1);
        assert_eq!(p.b.recv_buffered_seqs(0), Some(vec![1]));
        let events = p.exchange(SimDuration::from_micros(1));
        assert_eq!(events.len(), 2, "gap fill releases both messages");
        assert_eq!(p.a.stats_view().sacked, 1, "seq 1 retired from the middle");
        assert_eq!(
            p.a.stats_view().retransmits,
            1,
            "only the hole goes again; go-back-n would replay the window"
        );
        assert_eq!(p.a.in_flight(), 0);
        assert_eq!(p.b.recv_buffered_seqs(0), Some(vec![]));
    }

    #[test]
    fn sr_gap_fill_delivers_every_unlocked_message_in_order_from_one_call() {
        let mut p = Pair::new(sr_cfg());
        for msg in [&b"m0"[..], b"m1", b"m2"] {
            p.a.send_message(p.a_send, 0, Bytes::copy_from_slice(msg))
                .unwrap();
        }
        let mut frames = Vec::new();
        while let Poll::Ready(pkt) = p.a.poll(p.now) {
            frames.push(pkt);
        }
        let [first, second, third] = &frames[..] else {
            panic!("three single-frame messages, got {}", frames.len());
        };
        assert_eq!(p.b.on_packet(third, p.now).len(), 0);
        assert_eq!(p.b.on_packet(second, p.now).len(), 0);
        let delivered: Vec<Bytes> =
            p.b.on_packet(first, p.now)
                .map(|ev| match ev {
                    LtlEvent::Deliver { payload, .. } => payload,
                    other => panic!("unexpected {other:?}"),
                })
                .collect();
        assert_eq!(delivered, [&b"m0"[..], b"m1", b"m2"]);
    }

    #[test]
    fn upcalls_dropped_unread_do_not_reach_the_next_call() {
        let mut p = Pair::new(no_dcqcn());
        for msg in [&b"dropped"[..], b"kept"] {
            p.a.send_message(p.a_send, 0, Bytes::copy_from_slice(msg))
                .unwrap();
        }
        let Poll::Ready(first) = p.a.poll(p.now) else {
            panic!()
        };
        let Poll::Ready(second) = p.a.poll(p.now) else {
            panic!()
        };
        p.b.on_packet(&first, p.now); // one delivery, never looked at
        let events = p.b.on_packet(&second, p.now);
        let [LtlEvent::Deliver { payload, .. }] = events.as_slice() else {
            panic!("expected the second call's own delivery only, got {events:?}");
        };
        assert_eq!(payload.as_ref(), b"kept");
        drop(events);
        // ... nor an `on_tick`'s: same buffer, different entry point.
        assert_eq!(p.b.on_tick(p.now).len(), 0);
        assert_eq!(p.b.stats_view().msgs_delivered, 2);
    }

    #[test]
    fn sr_duplicate_data_is_reacked_not_redelivered() {
        let mut p = Pair::new(sr_cfg());
        p.a.send_message(p.a_send, 0, Bytes::from_static(b"once"))
            .unwrap();
        let Poll::Ready(pkt) = p.a.poll(p.now) else {
            panic!()
        };
        assert_eq!(p.b.on_packet(&pkt, p.now).len(), 1);
        assert_eq!(p.b.on_packet(&pkt, p.now).len(), 0, "dup discarded");
        assert_eq!(p.b.stats_view().duplicates, 1);
        assert_eq!(p.b.stats_view().sacks_tx, 2, "dup still re-advertises");
    }

    /// `name`'s gauge in the metrics `engine` publishes.
    fn gauge(engine: &LtlEngine, name: &str) -> f64 {
        let mut snap = telemetry::MetricsSnapshot::new(SimTime::ZERO);
        snap.visit("", engine);
        match snap.get(name) {
            Some(telemetry::MetricValue::Gauge(v)) => *v,
            other => panic!("{name}: expected a gauge, got {other:?}"),
        }
    }

    #[test]
    fn sr_adaptive_rto_tracks_the_measured_rtt() {
        let mut p = Pair::new(sr_cfg());
        for _ in 0..5 {
            p.a.send_message(p.a_send, 0, Bytes::from_static(b"ping"))
                .unwrap();
            p.exchange(SimDuration::from_micros(1));
        }
        // Data + sack = 2us round trips; the adaptive RTO collapses from
        // the 50us initial value to SRTT plus the 10us variance floor.
        assert_eq!(gauge(&p.a, "srtt_ns"), 2_000.0);
        assert_eq!(gauge(&p.a, "rto_ns"), 12_000.0);
    }

    #[test]
    fn sr_timeout_backs_off_the_rto() {
        let mut p = Pair::new(sr_cfg());
        p.a.send_message(p.a_send, 0, Bytes::from_static(b"lost"))
            .unwrap();
        let Poll::Ready(_dropped) = p.a.poll(p.now) else {
            panic!()
        };
        // No samples yet: the initial RTO is the configured timeout.
        p.now = SimTime::from_micros(51);
        p.a.on_tick(p.now);
        assert_eq!(p.a.stats_view().timeouts, 1);
        assert_eq!(
            gauge(&p.a, "rto_ns"),
            100_000.0,
            "one unanswered timeout doubles the rto"
        );
        let events = p.exchange(SimDuration::from_micros(1));
        assert_eq!(events.len(), 1);
    }

    /// A, in selective repeat, sends a one-frame message into the void at
    /// each of `sends` (us), and each frame times out at its deadline.
    /// Returns A's timeouts and RTO (ns) once all have.
    fn sr_timeouts(sends: &[u64]) -> (u64, f64) {
        let mut p = Pair::new(sr_cfg());
        let rto = p.a.cfg.timeout.as_nanos() / 1_000;
        let mut instants: Vec<u64> = sends.iter().flat_map(|&us| [us, us + rto]).collect();
        instants.sort_unstable();
        instants.dedup();
        for us in instants {
            p.now = SimTime::from_micros(us);
            for _ in sends.iter().filter(|&&at| at == us) {
                p.a.send_message(p.a_send, 0, Bytes::from_static(b"lost"))
                    .unwrap();
                assert!(matches!(p.a.poll(p.now), Poll::Ready(_)));
            }
            p.a.on_tick(p.now);
        }
        (p.a.stats_view().timeouts, gauge(&p.a, "rto_ns"))
    }

    #[test]
    fn sr_backs_off_once_per_expiry_instant() {
        assert_eq!(sr_timeouts(&[0, 0, 0]), (3, 100_000.0), "a burst");
        assert_eq!(sr_timeouts(&[0, 1]), (2, 200_000.0), "1 us apart");
    }

    /// A NACK for `seq` from B, as its receiver would send one.
    fn nack_from_b(p: &mut Pair, seq: u32) -> Packet {
        let nack = LtlFrame::control(FrameKind::Nack, 0, p.a_send, seq);
        p.b.wrap(A, nack.encode())
    }

    /// Moves the clock in 10 us steps, polling and ticking A into the
    /// void, until A fails its connection; returns A's timeouts by then.
    fn time_out_until_failed(p: &mut Pair) -> u64 {
        for _ in 0..100_000 {
            p.now += SimDuration::from_micros(10);
            while let Poll::Ready(_) = p.a.poll(p.now) {}
            if p.a.on_tick(p.now).next().is_some() {
                return p.a.stats_view().timeouts;
            }
        }
        panic!("connection never failed");
    }

    #[test]
    fn nack_resends_do_not_spend_the_retry_budget() {
        for mode in [LtlMode::GoBackN, LtlMode::SelectiveRepeat] {
            let mut p = Pair::new(no_dcqcn().with_mode(mode).with_max_retries(8));
            p.a.send_message(p.a_send, 0, Bytes::from_static(b"nacked"))
                .unwrap();
            let Poll::Ready(_lost) = p.a.poll(p.now) else {
                panic!()
            };
            // Nine NACK-driven re-sends, each lost, well inside the timeout.
            for _ in 0..9 {
                let nack = nack_from_b(&mut p, 0);
                p.a.on_packet(&nack, p.now);
                assert!(matches!(p.a.poll(p.now), Poll::Ready(_)), "{mode}");
                p.now += SimDuration::from_micros(1);
                assert_eq!(p.a.on_tick(p.now).len(), 0, "{mode}");
            }
            assert_eq!(p.a.stats_view().retransmits, 9, "{mode}");
            // Its first timeout re-sends it rather than failing the
            // connection: the NACKs charged nothing.
            p.now += SimDuration::from_micros(100);
            assert_eq!(p.a.on_tick(p.now).len(), 0, "{mode}");
            assert!(!p.a.is_failed(p.a_send), "{mode}");
            assert_eq!(p.a.stats_view().timeouts, 1, "{mode}");
            assert_eq!(p.exchange(SimDuration::from_micros(1)).len(), 1, "{mode}");
            assert_eq!(p.a.rtts_mut().count(), 0, "{mode}: Karn, no sample");
        }
    }

    #[test]
    fn the_ninth_timeout_of_one_frame_fails_the_connection() {
        for mode in [LtlMode::GoBackN, LtlMode::SelectiveRepeat] {
            let mut p = Pair::new(no_dcqcn().with_mode(mode).with_max_retries(8));
            p.a.send_message(p.a_send, 0, Bytes::from_static(b"void"))
                .unwrap();
            // Eight timeouts re-send the frame; the ninth gives up.
            assert_eq!(time_out_until_failed(&mut p), 8, "{mode}");
            assert!(p.a.is_failed(p.a_send), "{mode}");
            assert_eq!(p.a.stats_view().retransmits, 8, "{mode}");
        }
    }

    #[test]
    fn a_frame_queued_for_a_resend_does_not_time_out_again() {
        for mode in [LtlMode::GoBackN, LtlMode::SelectiveRepeat] {
            for nacked in [false, true] {
                let mut p = Pair::new(no_dcqcn().with_mode(mode));
                p.a.send_message(p.a_send, 0, Bytes::from(vec![0u8; 100]))
                    .unwrap();
                let Poll::Ready(_lost) = p.a.poll(p.now) else {
                    panic!()
                };
                if nacked {
                    let nack = nack_from_b(&mut p, 0);
                    p.a.on_packet(&nack, p.now);
                }
                // The pump is gated (a PFC pause, a closed credit): 400 us
                // of scans and no poll. The frame waits in the queue.
                for _ in 0..40 {
                    p.now += SimDuration::from_micros(10);
                    p.a.on_tick(p.now);
                }
                let copies = std::iter::from_fn(|| match p.a.poll(p.now) {
                    Poll::Ready(pkt) => Some(pkt),
                    _ => None,
                })
                .count();
                let timeouts = u64::from(!nacked);
                assert_eq!(
                    (p.a.stats_view().timeouts, copies),
                    (timeouts, 1),
                    "{mode}, queued by {}",
                    if nacked { "a nack" } else { "a timeout" }
                );
            }
        }
    }

    #[test]
    fn sr_frames_beyond_the_window_are_dropped_and_recovered() {
        let mut p = Pair::new(sr_cfg());
        for _ in 0..=RECV_WINDOW {
            p.a.send_message(p.a_send, 0, Bytes::from_static(b"m"))
                .unwrap();
        }
        let Poll::Ready(_lost) = p.a.poll(p.now) else {
            panic!()
        };
        p.now = SimTime::from_micros(1);
        for _ in 0..RECV_WINDOW {
            // Offsets 1..RECV_WINDOW - 1 are buffered; offset RECV_WINDOW
            // is beyond the window and dropped.
            let Poll::Ready(f) = p.a.poll(p.now) else {
                panic!()
            };
            p.b.on_packet(&f, p.now);
        }
        assert_eq!(p.b.stats_view().window_drops, 1);
        assert_eq!(p.b.recv_buffered_seqs(0), Some((1..RECV_WINDOW).collect()));
        p.exchange(SimDuration::from_micros(1));
        // The last frame was genuinely lost to the window drop; the
        // adaptive timeout recovers it.
        p.now += SimDuration::from_micros(120);
        p.a.on_tick(p.now);
        p.exchange(SimDuration::from_micros(1));
        assert_eq!(p.b.stats_view().msgs_delivered, u64::from(RECV_WINDOW) + 1);
        assert_eq!(p.a.in_flight(), 0);
    }

    #[test]
    fn sr_omitted_sack_bits_self_heal() {
        let mut p = Pair::new(sr_cfg());
        p.b.debug_omit_sacks(1);
        p.a.send_message(p.a_send, 0, Bytes::from_static(b"one"))
            .unwrap();
        p.a.send_message(p.a_send, 0, Bytes::from_static(b"two"))
            .unwrap();
        let Poll::Ready(_lost) = p.a.poll(p.now) else {
            panic!()
        };
        let Poll::Ready(second) = p.a.poll(p.now) else {
            panic!()
        };
        p.now = SimTime::from_micros(1);
        p.b.on_packet(&second, p.now);
        let events = p.exchange(SimDuration::from_micros(1));
        // The buggy sack dropped seq 1's bit, so it is never retired from
        // the middle — but the cumulative ack after the gap fill still
        // releases it, and delivery is unharmed: only an oracle checking
        // the exact bitmap can see this bug.
        assert_eq!(events.len(), 2);
        assert_eq!(p.a.stats_view().sacked, 0);
        assert_eq!(p.a.in_flight(), 0);
    }

    /// The receive path's one mode branch, as a table: B has taken seq 0
    /// and expects seq 1 when each arrival lands.
    #[test]
    fn each_arrival_gets_its_mode_s_reply() {
        use FrameKind::{Ack, Nack, Sack};
        use LtlMode::{GoBackN as Gbn, SelectiveRepeat as Sr};
        const FAR: u32 = 1 + RECV_WINDOW;
        /// Mode, arrival, its seq, the control frames B queues in order
        /// as (kind, seq, SACK bitmap), and the moves of `duplicates`,
        /// `out_of_order`, `window_drops`, `nacks_tx` and `sacks_tx`.
        type Row = (
            LtlMode,
            &'static str,
            u32,
            &'static [(FrameKind, u32, u64)],
            [u64; 5],
        );
        const TABLE: [Row; 8] = [
            (Gbn, "in order", 1, &[(Ack, 1, 0)], [0, 0, 0, 0, 0]),
            (Gbn, "duplicate", 0, &[(Ack, 0, 0)], [1, 0, 0, 0, 0]),
            (Gbn, "gap", 3, &[(Nack, 1, 0)], [0, 1, 0, 1, 0]),
            (Gbn, "far gap", FAR, &[(Nack, 1, 0)], [0, 1, 0, 1, 0]),
            (Sr, "in order", 1, &[(Sack, 1, 0)], [0, 0, 0, 0, 1]),
            (Sr, "duplicate", 0, &[(Sack, 0, 0)], [1, 0, 0, 0, 1]),
            // Seq 3 is expected_seq + 2: bitmap bit 1.
            (Sr, "gap", 3, &[(Nack, 1, 0), (Sack, 0, 2)], [0, 1, 0, 1, 1]),
            (Sr, "far gap", FAR, &[(Sack, 0, 0)], [0, 0, 1, 0, 1]),
        ];
        let counters = |e: &LtlEngine| {
            let s = e.stats_view();
            [
                s.duplicates,
                s.out_of_order,
                s.window_drops,
                s.nacks_tx,
                s.sacks_tx,
            ]
        };
        for (mode, arrival, seq, replies, moved) in TABLE {
            let mut p = Pair::new(no_dcqcn().with_mode(mode));
            let data = |seq| {
                let frame = LtlFrame {
                    kind: FrameKind::Data,
                    src_conn: 0,
                    dst_conn: 0,
                    seq,
                    msg_id: seq,
                    last_frag: true,
                    vc: 0,
                    payload: Bytes::from_static(b"x"),
                };
                p.a.wrap(B, frame.encode())
            };
            let (first, arriving) = (data(0), data(seq));
            p.b.on_packet(&first, p.now);
            while let Poll::Ready(_) = p.b.poll(p.now) {}
            let before = counters(&p.b);
            p.b.on_packet(&arriving, p.now);
            let mut queued = Vec::new();
            while let Poll::Ready(pkt) = p.b.poll(p.now) {
                let f = LtlFrame::decode(&pkt.payload).unwrap();
                queued.push((f.kind, f.seq, f.sack_bits().unwrap_or(0)));
            }
            assert_eq!(queued, replies, "{mode} {arrival}: control frames");
            let after = counters(&p.b);
            let delta: [u64; 5] = std::array::from_fn(|i| after[i] - before[i]);
            assert_eq!(delta, moved, "{mode} {arrival}: counters");
        }
    }

    #[test]
    fn ltl_mode_names_round_trip() {
        for mode in [LtlMode::GoBackN, LtlMode::SelectiveRepeat] {
            assert_eq!(LtlMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(
            LtlMode::parse("selective-repeat"),
            Some(LtlMode::SelectiveRepeat)
        );
        assert_eq!(LtlMode::parse("bogus"), None);
    }

    #[test]
    fn messages_to_multiple_connections_interleave() {
        let mut a = LtlEngine::new(A, no_dcqcn());
        let mut b = LtlEngine::new(B, no_dcqcn());
        let c_addr = NodeAddr {
            pod: 0,
            tor: 0,
            host: 3,
        };
        let mut c = LtlEngine::new(c_addr, no_dcqcn());
        let b_recv = b.add_recv(A);
        let c_recv = c.add_recv(A);
        let to_b = a.add_send(B, b_recv);
        let to_c = a.add_send(c_addr, c_recv);
        a.send_message(to_b, 0, Bytes::from_static(b"to-b"))
            .unwrap();
        a.send_message(to_c, 0, Bytes::from_static(b"to-c"))
            .unwrap();
        let mut dsts = Vec::new();
        while let Poll::Ready(pkt) = a.poll(SimTime::ZERO) {
            dsts.push(pkt.dst);
        }
        assert_eq!(dsts.len(), 2);
        assert!(dsts.contains(&B) && dsts.contains(&c_addr));
    }
}
