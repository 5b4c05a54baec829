//! Remote acceleration building blocks (Sections V-D and V-E).
//!
//! An [`AcceleratorRole`] is the FPGA-side service: it consumes LTL
//! requests delivered by its shell, runs them through a fixed number of
//! pipeline slots, and replies over LTL — the host of that FPGA sees no
//! CPU or memory load. A [`RemoteClient`] is the software side: it fires
//! requests at the pool through its local shell and records end-to-end
//! latency from enqueue to response, which is exactly what Figure 12
//! measures.

use std::collections::HashMap;

use bytes::{BufMut, Bytes, BytesMut};
use dcnet::Msg;
use dcsim::{Component, ComponentId, Context, SimDuration, SimRng, SimTime};
use host::CorePool;
use shell::ltl::{RecvConnId, SendConnId};
use shell::{LtlDeliver, LtlSend};
use telemetry::{Histogram, MetricSource, MetricVisitor, TrackTracer};

/// Builds a request payload: an 8-byte id followed by padding to
/// `total_bytes` (the document/tensor data in the real system).
pub fn encode_request(id: u64, total_bytes: usize) -> Bytes {
    let len = total_bytes.max(8);
    let mut b = BytesMut::with_capacity(len);
    b.put_u64(id);
    b.resize(len, 0);
    b.freeze()
}

/// The last request or reply payload a sender built, kept so the next one
/// costs no heap: the LTL engine lets go of a payload once it has encoded
/// the message's last frame, so by the next request the sender usually
/// holds its payload alone again.
#[derive(Default)]
pub(crate) struct PayloadBuf(Bytes);

impl PayloadBuf {
    /// What [`encode_request`] builds, written into the kept payload when
    /// nothing else holds it and its length matches: only its 8-byte id
    /// changes, the padding is already zero. Otherwise a fresh payload,
    /// kept in turn; one still in flight is never touched.
    pub(crate) fn request(&mut self, id: u64, total_bytes: usize) -> Bytes {
        if self.0.len() == total_bytes.max(8) {
            if let Some(buf) = self.0.try_mut() {
                buf[..8].copy_from_slice(&id.to_be_bytes());
                return self.0.clone();
            }
        }
        self.0 = encode_request(id, total_bytes);
        self.0.clone()
    }
}

/// Extracts the request id from a request or reply payload.
pub fn decode_reply(payload: &Bytes) -> Option<u64> {
    if payload.len() < 8 {
        return None;
    }
    Some(u64::from_be_bytes(
        payload[..8].try_into().expect("length checked"),
    ))
}

/// The FPGA-side accelerator service role.
///
/// Roles compose into multi-FPGA services ("services that consume more
/// than one FPGA, e.g. more aggressive web search ranking, large-scale
/// machine learning"): a stage with a [`AcceleratorRole::set_forward`]
/// connection passes its output to the next FPGA over LTL instead of
/// replying, and the final stage replies to the client.
pub struct AcceleratorRole {
    /// This FPGA's shell.
    shell: ComponentId,
    /// Mean service time per request.
    service: SimDuration,
    /// Lognormal service variability.
    sigma: f64,
    /// Pipeline parallelism.
    slots: CorePool,
    /// Which send connection answers requests arriving on each receive
    /// connection.
    reply_routes: HashMap<RecvConnId, SendConnId>,
    /// If set, processed requests are forwarded to the next pipeline stage
    /// instead of being answered.
    forward: Option<SendConnId>,
    /// Reply payload size.
    response_bytes: usize,
    completed: u64,
    /// Time requests spend queued + in service on the accelerator.
    service_latencies: Histogram,
    replies: ParkedReplies,
}

/// Replies waiting for their pipeline slot to finish, one slot per reply;
/// the timer that sends a reply carries its slot as the token. Freed
/// slots are reused, so once the table has grown to the most replies in
/// flight at once, parking one allocates nothing (a boxed self-message
/// per reply did). Each slot keeps its own [`PayloadBuf`], so replies
/// parked at once never share a buffer.
#[derive(Default)]
pub(crate) struct ParkedReplies {
    slots: Vec<ParkedSlot>,
    free: Vec<usize>,
}

#[derive(Default)]
struct ParkedSlot {
    reply: Option<(SendConnId, Bytes)>,
    buf: PayloadBuf,
}

impl ParkedReplies {
    /// Parks the reply `payload` builds, from a free slot's buffer, for
    /// `conn` and arms the timer that sends it after `delay`.
    pub(crate) fn park(
        &mut self,
        delay: SimDuration,
        conn: SendConnId,
        ctx: &mut Context<'_, Msg>,
        payload: impl FnOnce(&mut PayloadBuf) -> Bytes,
    ) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(ParkedSlot::default());
            self.slots.len() - 1
        });
        let parked = &mut self.slots[slot];
        parked.reply = Some((conn, payload(&mut parked.buf)));
        ctx.timer_after(delay, slot as u64);
    }

    /// Hands the reply parked under timer `token` to `shell` for sending.
    pub(crate) fn send(&mut self, token: u64, shell: ComponentId, ctx: &mut Context<'_, Msg>) {
        let slot = token as usize;
        let (conn, payload) = self.slots[slot]
            .reply
            .take()
            .expect("each parked reply's timer fires once");
        self.free.push(slot);
        ctx.send(
            shell,
            Msg::LtlSend(LtlSend {
                conn,
                vc: 1,
                payload,
            }),
        );
    }
}

impl AcceleratorRole {
    /// Creates a role behind `shell` with the given service time and
    /// `slots`-way pipelining.
    pub fn new(
        shell: ComponentId,
        service: SimDuration,
        sigma: f64,
        slots: usize,
        response_bytes: usize,
    ) -> AcceleratorRole {
        AcceleratorRole {
            shell,
            service,
            sigma,
            slots: CorePool::new(slots),
            reply_routes: HashMap::new(),
            forward: None,
            response_bytes,
            completed: 0,
            service_latencies: Histogram::new(),
            replies: ParkedReplies::default(),
        }
    }

    /// Registers the send connection used to answer requests arriving on
    /// `recv`.
    pub fn add_reply_route(&mut self, recv: RecvConnId, send: SendConnId) {
        self.reply_routes.insert(recv, send);
    }

    /// Turns this role into a non-terminal pipeline stage: processed
    /// requests are forwarded over `next` (same message id) rather than
    /// answered.
    pub fn set_forward(&mut self, next: SendConnId) {
        self.forward = Some(next);
    }

    /// Requests served.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    fn sample_service(&self, rng: &mut SimRng) -> SimDuration {
        let mu = self.service.as_secs_f64().ln() - self.sigma * self.sigma / 2.0;
        SimDuration::from_secs_f64(rng.lognormal(mu, self.sigma))
    }
}

impl Component<Msg> for AcceleratorRole {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        let Ok(del) = msg.downcast::<LtlDeliver>() else {
            return;
        };
        let Some(id) = decode_reply(&del.payload) else {
            return;
        };
        let reply_conn = match self.forward {
            Some(next) => next,
            None => match self.reply_routes.get(&del.conn) {
                Some(&conn) => conn,
                None => return,
            },
        };
        let service = self.sample_service(ctx.rng());
        let now = ctx.now();
        let (_, done) = self.slots.assign(now, service);
        self.service_latencies
            .record(done.saturating_since(now).as_nanos());
        self.completed += 1;
        let response_bytes = self.response_bytes;
        self.replies
            .park(done.saturating_since(now), reply_conn, ctx, |buf| {
                buf.request(id, response_bytes)
            });
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, Msg>) {
        self.replies.send(token, self.shell, ctx);
    }
}

impl MetricSource for AcceleratorRole {
    fn metrics(&self, m: &mut MetricVisitor<'_>) {
        m.counter("completed", self.completed);
        m.histogram_samples("service_lat_ns", 1_000, self.service_latencies.iter());
    }
}

impl core::fmt::Debug for AcceleratorRole {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("AcceleratorRole")
            .field("completed", &self.completed)
            .finish()
    }
}

/// A software client of a remote accelerator pool: requests go out through
/// the local shell; latency is measured from enqueue to response receipt.
///
/// LTL connections are statically allocated and persistent, so a client
/// that must survive accelerator failures pre-provisions a connection to a
/// spare ([`RemoteClient::add_backup`]); when the shell reports the active
/// connection failed, the client fails over and re-issues every
/// outstanding request — "failing nodes are removed from the pool with
/// replacements quickly added." With [`RemoteClient::set_request_timeout`]
/// the client also re-issues individual requests that have gone
/// unanswered (covering faults the transport cannot see, like a hung
/// role that still ACKs), and with [`RemoteClient::set_monitor`] it
/// reports dead nodes to a [`haas::FailureMonitor`] so the management
/// plane can drain and re-map them.
pub struct RemoteClient {
    shell: ComponentId,
    conn: SendConnId,
    backups: Vec<SendConnId>,
    request_bytes: usize,
    payload: PayloadBuf,
    outstanding: HashMap<u64, Pending>,
    latencies: Histogram,
    next_id: u64,
    /// High bits distinguishing this client's ids from other clients'.
    id_tag: u64,
    failovers: u64,
    request_timeout: Option<SimDuration>,
    max_attempts: u32,
    retry_timer_armed: bool,
    stalled_until: Option<SimTime>,
    monitor: Option<ComponentId>,
    completion_log: Option<Vec<(SimTime, u64)>>,
    retries: u64,
    abandoned: u64,
    tracer: Option<TrackTracer>,
}

/// Client counters, read together in one struct (the chaos experiment
/// totals all five per client); [`MetricSource`] is the registry view of
/// the same numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Responses received.
    pub completed: u64,
    /// Requests with no response yet.
    pub outstanding: u64,
    /// Failovers performed.
    pub failovers: u64,
    /// Timeout-driven re-issues performed.
    pub retries: u64,
    /// Requests given up on after the attempt budget.
    pub abandoned: u64,
}

/// Book-keeping for one in-flight request.
struct Pending {
    /// Original enqueue time; latency accrues from here across retries
    /// and failovers, as Figure 12's end-to-end definition demands.
    sent: SimTime,
    last_attempt: SimTime,
    attempts: u32,
}

/// Message asking a [`RemoteClient`] to issue one request.
#[derive(Debug, Clone, Copy)]
pub struct IssueRequest;

/// Fault injection: the client's host stalls (GC pause, VM freeze,
/// kernel hiccup) for the given duration. Requests that would be issued
/// during the stall are deferred to its end, bunching up as real stalled
/// hosts do.
#[derive(Debug, Clone, Copy)]
pub struct StallFor(pub SimDuration);

const RETRY_TIMER: u64 = 0;

impl RemoteClient {
    /// Creates a client sending over `conn` of `shell`. `id_tag` must be
    /// unique per client sharing an accelerator.
    pub fn new(shell: ComponentId, conn: SendConnId, request_bytes: usize, id_tag: u16) -> Self {
        RemoteClient {
            shell,
            conn,
            backups: Vec::new(),
            request_bytes,
            payload: PayloadBuf::default(),
            outstanding: HashMap::new(),
            latencies: Histogram::new(),
            next_id: 0,
            id_tag: (id_tag as u64) << 48,
            failovers: 0,
            request_timeout: None,
            max_attempts: 1,
            retry_timer_armed: false,
            stalled_until: None,
            monitor: None,
            completion_log: None,
            retries: 0,
            abandoned: 0,
            tracer: None,
        }
    }

    /// Installs a flight-recorder track; the client then records one
    /// `request` complete-span per response (start = first issue, duration
    /// = end-to-end latency).
    pub fn set_tracer(&mut self, tracer: TrackTracer) {
        self.tracer = Some(tracer);
    }

    /// Client counters as one struct.
    pub fn stats(&self) -> ClientStats {
        ClientStats {
            completed: self.latencies.count(),
            outstanding: self.outstanding.len() as u64,
            failovers: self.failovers,
            retries: self.retries,
            abandoned: self.abandoned,
        }
    }

    /// Pre-provisions a spare connection used if the active one fails.
    pub fn add_backup(&mut self, conn: SendConnId) {
        self.backups.push(conn);
    }

    /// Enables application-level retries: a request unanswered for
    /// `timeout` is re-issued on the current connection, up to
    /// `max_attempts` total attempts, after which it counts as abandoned
    /// (a lost request in the recovery report).
    pub fn set_request_timeout(&mut self, timeout: SimDuration, max_attempts: u32) {
        self.request_timeout = Some(timeout);
        self.max_attempts = max_attempts.max(1);
    }

    /// Registers the failure monitor to notify when the active connection
    /// is declared dead.
    pub fn set_monitor(&mut self, monitor: ComponentId) {
        self.monitor = Some(monitor);
    }

    /// Starts recording `(completion time, latency ns)` for every
    /// response, so a harness can carve per-fault latency windows.
    pub fn enable_completion_log(&mut self) {
        self.completion_log = Some(Vec::new());
    }

    /// The completion log, if enabled: `(completion time, latency ns)`
    /// in completion order.
    pub fn completion_log(&self) -> Option<&[(SimTime, u64)]> {
        self.completion_log.as_deref()
    }

    /// Failovers performed.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Timeout-driven re-issues performed.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Requests given up on after `max_attempts` attempts.
    pub fn abandoned(&self) -> u64 {
        self.abandoned
    }

    /// End-to-end request latencies (ns).
    pub fn latencies(&self) -> &Histogram {
        &self.latencies
    }

    /// Requests with no response yet.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// Responses received.
    pub fn completed(&self) -> usize {
        self.latencies.count() as usize
    }

    fn send_request(&mut self, id: u64, ctx: &mut Context<'_, Msg>) {
        ctx.send(
            self.shell,
            Msg::LtlSend(LtlSend {
                conn: self.conn,
                vc: 1,
                payload: self.payload.request(id, self.request_bytes),
            }),
        );
    }

    fn ensure_retry_timer(&mut self, ctx: &mut Context<'_, Msg>) {
        if let Some(timeout) = self.request_timeout {
            if !self.retry_timer_armed && !self.outstanding.is_empty() {
                self.retry_timer_armed = true;
                ctx.timer_after(timeout, RETRY_TIMER);
            }
        }
    }
}

impl Component<Msg> for RemoteClient {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        match msg.downcast::<IssueRequest>() {
            Ok(IssueRequest) => {
                if let Some(until) = self.stalled_until {
                    if ctx.now() < until {
                        // The host is frozen: the request is issued when
                        // it thaws.
                        ctx.send_to_self_after(
                            until.saturating_since(ctx.now()),
                            Msg::custom(IssueRequest),
                        );
                        return;
                    }
                    self.stalled_until = None;
                }
                let id = self.id_tag | self.next_id;
                self.next_id += 1;
                self.outstanding.insert(
                    id,
                    Pending {
                        sent: ctx.now(),
                        last_attempt: ctx.now(),
                        attempts: 1,
                    },
                );
                self.send_request(id, ctx);
                self.ensure_retry_timer(ctx);
            }
            Err(msg) => match msg.downcast::<LtlDeliver>() {
                Ok(del) => {
                    if let Some(id) = decode_reply(&del.payload) {
                        // A retried request can be answered twice; only the
                        // first response completes it.
                        if let Some(pending) = self.outstanding.remove(&id) {
                            let latency = ctx.now().saturating_since(pending.sent);
                            self.latencies.record(latency.as_nanos());
                            if let Some(log) = &mut self.completion_log {
                                log.push((ctx.now(), latency.as_nanos()));
                            }
                            if let Some(tracer) = &self.tracer {
                                tracer.complete(
                                    pending.sent,
                                    latency,
                                    "request",
                                    &[
                                        ("id", id & 0xFFFF_FFFF_FFFF),
                                        ("attempts", pending.attempts as u64),
                                    ],
                                );
                            }
                        }
                    }
                }
                Err(msg) => match msg.downcast::<shell::LtlConnFailed>() {
                    Ok(failed) => {
                        if failed.conn != self.conn {
                            return; // some other connection of this shell
                        }
                        if let Some(monitor) = self.monitor {
                            ctx.send(
                                monitor,
                                Msg::custom(haas::NodeDownReport {
                                    addr: failed.remote,
                                }),
                            );
                        }
                        let Some(spare) = self.backups.pop() else {
                            return; // no spare: requests stay outstanding
                        };
                        self.conn = spare;
                        self.failovers += 1;
                        // Re-issue everything in flight on the new node, in
                        // id order so the replay is deterministic.
                        let mut ids: Vec<u64> = self.outstanding.keys().copied().collect();
                        ids.sort_unstable();
                        for id in ids {
                            let pending = self.outstanding.get_mut(&id).expect("key just listed");
                            pending.last_attempt = ctx.now();
                            pending.attempts += 1;
                            self.send_request(id, ctx);
                        }
                    }
                    Err(msg) => {
                        if let Ok(stall) = msg.downcast::<StallFor>() {
                            let until = ctx.now() + stall.0;
                            if self.stalled_until.is_none_or(|t| until > t) {
                                self.stalled_until = Some(until);
                            }
                        }
                    }
                },
            },
        }
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut Context<'_, Msg>) {
        self.retry_timer_armed = false;
        let Some(timeout) = self.request_timeout else {
            return;
        };
        let now = ctx.now();
        let mut due: Vec<u64> = self
            .outstanding
            .iter()
            .filter(|(_, p)| now.saturating_since(p.last_attempt) >= timeout)
            .map(|(&id, _)| id)
            .collect();
        due.sort_unstable();
        for id in due {
            let pending = self.outstanding.get_mut(&id).expect("key just listed");
            if pending.attempts >= self.max_attempts {
                self.outstanding.remove(&id);
                self.abandoned += 1;
            } else {
                pending.attempts += 1;
                pending.last_attempt = now;
                self.retries += 1;
                self.send_request(id, ctx);
            }
        }
        self.ensure_retry_timer(ctx);
    }
}

impl MetricSource for RemoteClient {
    fn metrics(&self, m: &mut MetricVisitor<'_>) {
        m.counter("completed", self.latencies.count());
        m.counter("failovers", self.failovers);
        m.counter("retries", self.retries);
        m.counter("abandoned", self.abandoned);
        m.gauge("outstanding", self.outstanding.len() as f64);
        m.histogram_samples("latency_ns", 1_000, self.latencies.iter());
    }
}

impl core::fmt::Debug for RemoteClient {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RemoteClient")
            .field("completed", &self.latencies.count())
            .field("outstanding", &self.outstanding.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip_encoding() {
        let req = encode_request(0xDEAD_BEEF_0000_0042, 1024);
        assert_eq!(req.len(), 1024);
        assert_eq!(decode_reply(&req), Some(0xDEAD_BEEF_0000_0042));
    }

    #[test]
    fn tiny_requests_still_carry_id() {
        let req = encode_request(7, 0);
        assert_eq!(req.len(), 8);
        assert_eq!(decode_reply(&req), Some(7));
    }

    #[test]
    fn a_payload_held_alone_is_rewritten_in_place() {
        let mut buf = PayloadBuf::default();
        let first = buf.request(1, 512);
        let at = first.as_ptr();
        drop(first);
        let second = buf.request(2, 512);
        assert_eq!(second.as_ptr(), at, "the kept payload is reused");
        assert_eq!(second, encode_request(2, 512));
    }

    #[test]
    fn a_pinned_or_resized_payload_is_never_rewritten() {
        let mut buf = PayloadBuf::default();
        let pinned = buf.request(1, 512);
        let fresh = buf.request(2, 512);
        assert_ne!(fresh.as_ptr(), pinned.as_ptr());
        assert_eq!(pinned, encode_request(1, 512), "the pinned one is intact");
        assert_eq!(fresh, encode_request(2, 512));
        drop((pinned, fresh));
        assert_eq!(buf.request(3, 1024), encode_request(3, 1024));
        // Short enough to live inline: nothing to reuse, nothing to pay.
        assert_eq!(buf.request(4, 0), encode_request(4, 0));
    }

    #[test]
    fn short_payload_rejected() {
        assert_eq!(decode_reply(&Bytes::from_static(b"short")), None);
    }
}
