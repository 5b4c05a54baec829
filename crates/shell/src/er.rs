//! The Elastic Router (Section V-B): an on-chip, input-buffered crossbar
//! switch with virtual channels and credit-based flow control.
//!
//! The distinguishing microarchitectural idea is the *elastic* buffer
//! policy: instead of statically dedicating a fixed number of flit credits
//! to every VC, each input port keeps a small dedicated allocation per VC
//! plus a pool of credits shared among its VCs, which cuts the aggregate
//! buffering needed for a given throughput. [`CreditPolicy::Static`] is
//! retained as the conventional baseline for the ablation benchmark.
//!
//! The router is a cycle-stepped model: [`ElasticRouter::inject`] places
//! flits into input buffers (subject to credits) and
//! [`ElasticRouter::step`] performs one cycle of switch allocation,
//! moving at most one flit to each output port. U-turns (output == input)
//! are supported, and multiple routers compose into larger topologies by
//! forwarding output flits into a neighbour's `inject`.

use std::collections::VecDeque;

use telemetry::{MetricSource, MetricVisitor};

/// How input-buffer credits are allocated across VCs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CreditPolicy {
    /// Conventional: each VC owns `credits_per_vc` slots; nothing is shared.
    Static,
    /// The ER policy: `credits_per_vc` dedicated slots per VC plus a pool of
    /// `shared_credits` usable by any VC of the port.
    Elastic,
}

/// Router configuration. Fully parameterisable in ports, VCs, flit size and
/// buffer capacities, as the paper describes.
#[derive(Debug, Clone)]
pub struct ErConfig {
    /// Number of ports (the production shell instantiates 4:
    /// PCIe DMA, Role, DRAM, Remote/LTL).
    pub ports: usize,
    /// Virtual channels multiplexed over each physical link.
    pub vcs: usize,
    /// Flit payload size in bytes (used by byte-level throughput stats).
    pub flit_bytes: usize,
    /// Dedicated credits (buffer slots) per VC.
    pub credits_per_vc: usize,
    /// Shared credit pool per input port (elastic policy only).
    pub shared_credits: usize,
    /// Credit policy.
    pub policy: CreditPolicy,
}

impl Default for ErConfig {
    fn default() -> Self {
        ErConfig {
            ports: 4,
            vcs: 2,
            flit_bytes: 32,
            credits_per_vc: 4,
            shared_credits: 8,
            policy: CreditPolicy::Elastic,
        }
    }
}

impl ErConfig {
    /// Sets the number of ports.
    pub fn with_ports(mut self, ports: usize) -> Self {
        self.ports = ports;
        self
    }

    /// Sets the number of virtual channels per link.
    pub fn with_vcs(mut self, vcs: usize) -> Self {
        self.vcs = vcs;
        self
    }

    /// Sets the dedicated credits per VC.
    pub fn with_credits_per_vc(mut self, credits: usize) -> Self {
        self.credits_per_vc = credits;
        self
    }

    /// Sets the shared credit pool per input port.
    pub fn with_shared_credits(mut self, credits: usize) -> Self {
        self.shared_credits = credits;
        self
    }

    /// Sets the credit policy.
    pub fn with_policy(mut self, policy: CreditPolicy) -> Self {
        self.policy = policy;
        self
    }
}

/// One flit moving through the router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Flit {
    /// Output port requested at this router.
    pub out_port: usize,
    /// Virtual channel.
    pub vc: usize,
    /// Marks the last flit of a message.
    pub tail: bool,
    /// Opaque message identifier (for reassembly / test assertions).
    pub msg_id: u64,
    /// Flit sequence number within the message.
    pub flit_seq: u32,
}

/// Why an injection was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectError {
    /// No dedicated or shared credit available for this VC.
    NoCredit,
    /// Port or VC index out of range.
    BadPort,
}

impl core::fmt::Display for InjectError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            InjectError::NoCredit => f.write_str("no credit available"),
            InjectError::BadPort => f.write_str("port or vc out of range"),
        }
    }
}

impl std::error::Error for InjectError {}

#[derive(Debug, Clone)]
struct BufferedFlit {
    flit: Flit,
    from_shared: bool,
}

#[derive(Debug)]
struct InputPort {
    vc_queues: Vec<VecDeque<BufferedFlit>>,
    dedicated_used: Vec<usize>,
    shared_used: usize,
}

/// Router performance counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ErStats {
    /// Flits accepted into input buffers.
    pub flits_injected: u64,
    /// Flits delivered out of the crossbar.
    pub flits_routed: u64,
    /// Injections refused for lack of credits.
    pub credit_stalls: u64,
    /// Cycles executed.
    pub cycles: u64,
    /// High-water mark of total buffered flits.
    pub peak_occupancy: usize,
}

/// The Elastic Router model.
///
/// # Examples
///
/// ```
/// use shell::{ElasticRouter, ErConfig, Flit};
///
/// let mut er = ElasticRouter::new(ErConfig::default());
/// er.inject(0, Flit { out_port: 2, vc: 0, tail: true, msg_id: 1, flit_seq: 0 })?;
/// let out = er.step(|_, _| true);
/// assert_eq!(out[0].0, 2);
/// # Ok::<(), shell::InjectError>(())
/// ```
pub struct ElasticRouter {
    cfg: ErConfig,
    inputs: Vec<InputPort>,
    /// Round-robin pointer per output over (input, vc) pairs.
    rr: Vec<usize>,
    stats: ErStats,
    occupancy: usize,
}

impl ElasticRouter {
    /// Creates a router.
    ///
    /// # Panics
    ///
    /// Panics if `ports` or `vcs` is zero.
    pub fn new(cfg: ErConfig) -> Self {
        assert!(
            cfg.ports > 0 && cfg.vcs > 0,
            "ports and vcs must be nonzero"
        );
        let inputs = (0..cfg.ports)
            .map(|_| InputPort {
                vc_queues: (0..cfg.vcs).map(|_| VecDeque::new()).collect(),
                dedicated_used: vec![0; cfg.vcs],
                shared_used: 0,
            })
            .collect();
        ElasticRouter {
            rr: vec![0; cfg.ports],
            inputs,
            cfg,
            stats: ErStats::default(),
            occupancy: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ErConfig {
        &self.cfg
    }

    /// Performance counters, by reference. The registry view via
    /// [`telemetry::MetricSource`] remains the primary read path; this
    /// accessor serves event-granularity oracles that compare counters
    /// between operations.
    pub fn stats_view(&self) -> &ErStats {
        &self.stats
    }

    /// Whether `port`/`vc` currently has a credit for one more flit.
    pub fn can_accept(&self, port: usize, vc: usize) -> bool {
        if port >= self.cfg.ports || vc >= self.cfg.vcs {
            return false;
        }
        let p = &self.inputs[port];
        if p.dedicated_used[vc] < self.cfg.credits_per_vc {
            return true;
        }
        self.cfg.policy == CreditPolicy::Elastic && p.shared_used < self.cfg.shared_credits
    }

    /// Total flits currently buffered.
    pub fn occupancy(&self) -> usize {
        self.occupancy
    }

    /// Places a flit into the input buffer of `port`.
    ///
    /// # Errors
    ///
    /// [`InjectError::NoCredit`] if the VC has no dedicated credit and (under
    /// the elastic policy) the shared pool is exhausted;
    /// [`InjectError::BadPort`] for out-of-range indices.
    pub fn inject(&mut self, port: usize, flit: Flit) -> Result<(), InjectError> {
        if port >= self.cfg.ports || flit.vc >= self.cfg.vcs || flit.out_port >= self.cfg.ports {
            return Err(InjectError::BadPort);
        }
        let vc = flit.vc;
        let p = &mut self.inputs[port];
        let from_shared = if p.dedicated_used[vc] < self.cfg.credits_per_vc {
            p.dedicated_used[vc] += 1;
            false
        } else if self.cfg.policy == CreditPolicy::Elastic
            && p.shared_used < self.cfg.shared_credits
        {
            p.shared_used += 1;
            true
        } else {
            self.stats.credit_stalls += 1;
            return Err(InjectError::NoCredit);
        };
        p.vc_queues[vc].push_back(BufferedFlit { flit, from_shared });
        self.occupancy += 1;
        self.stats.peak_occupancy = self.stats.peak_occupancy.max(self.occupancy);
        self.stats.flits_injected += 1;
        Ok(())
    }

    /// Executes one cycle of switch allocation. At most one flit leaves per
    /// output port per cycle; `downstream_ready(out_port, vc)` gates grants
    /// so a stalled consumer backpressures into the input buffers. Returns
    /// the flits that left, tagged with their output port.
    pub fn step(
        &mut self,
        mut downstream_ready: impl FnMut(usize, usize) -> bool,
    ) -> Vec<(usize, Flit)> {
        self.stats.cycles += 1;
        let ports = self.cfg.ports;
        let vcs = self.cfg.vcs;
        let lanes = ports * vcs;
        let mut granted_input_lane = vec![false; lanes];
        let mut out = Vec::new();

        for output in 0..ports {
            let start = self.rr[output];
            let mut chosen = None;
            for k in 0..lanes {
                let lane = (start + k) % lanes;
                if granted_input_lane[lane] {
                    continue;
                }
                let (input, vc) = (lane / vcs, lane % vcs);
                let head = self.inputs[input].vc_queues[vc].front();
                if let Some(b) = head {
                    if b.flit.out_port == output && downstream_ready(output, vc) {
                        chosen = Some((input, vc, lane));
                        break;
                    }
                }
            }
            if let Some((input, vc, lane)) = chosen {
                granted_input_lane[lane] = true;
                self.rr[output] = (lane + 1) % lanes;
                let b = self.inputs[input].vc_queues[vc]
                    .pop_front()
                    .expect("head checked");
                if b.from_shared {
                    self.inputs[input].shared_used -= 1;
                } else {
                    self.inputs[input].dedicated_used[vc] -= 1;
                }
                self.occupancy -= 1;
                self.stats.flits_routed += 1;
                out.push((output, b.flit));
            }
        }
        out
    }

    /// Runs cycles until the router drains or `max_cycles` elapse; returns
    /// all output flits in order. Convenience for tests.
    pub fn drain(&mut self, max_cycles: usize) -> Vec<(usize, Flit)> {
        let mut all = Vec::new();
        for _ in 0..max_cycles {
            if self.occupancy == 0 {
                break;
            }
            all.extend(self.step(|_, _| true));
        }
        all
    }
}

impl MetricSource for ElasticRouter {
    fn metrics(&self, m: &mut MetricVisitor<'_>) {
        m.counter("flits_injected", self.stats.flits_injected);
        m.counter("flits_routed", self.stats.flits_routed);
        m.counter("credit_stalls", self.stats.credit_stalls);
        m.counter("cycles", self.stats.cycles);
        m.gauge("occupancy", self.occupancy as f64);
        m.gauge("peak_occupancy", self.stats.peak_occupancy as f64);
    }
}

impl core::fmt::Debug for ElasticRouter {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ElasticRouter")
            .field("ports", &self.cfg.ports)
            .field("vcs", &self.cfg.vcs)
            .field("occupancy", &self.occupancy)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flit(out_port: usize, vc: usize, msg_id: u64, seq: u32, tail: bool) -> Flit {
        Flit {
            out_port,
            vc,
            tail,
            msg_id,
            flit_seq: seq,
        }
    }

    #[test]
    fn routes_single_flit() {
        let mut er = ElasticRouter::new(ErConfig::default());
        er.inject(0, flit(2, 0, 1, 0, true)).unwrap();
        let out = er.drain(10);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 2);
        assert_eq!(out[0].1.msg_id, 1);
    }

    #[test]
    fn u_turn_supported() {
        let mut er = ElasticRouter::new(ErConfig::default());
        er.inject(1, flit(1, 0, 7, 0, true)).unwrap();
        let out = er.drain(10);
        assert_eq!(out, vec![(1, flit(1, 0, 7, 0, true))]);
    }

    #[test]
    fn one_flit_per_output_per_cycle() {
        let mut er = ElasticRouter::new(ErConfig::default());
        // Two inputs both target output 3.
        er.inject(0, flit(3, 0, 1, 0, true)).unwrap();
        er.inject(1, flit(3, 0, 2, 0, true)).unwrap();
        let first = er.step(|_, _| true);
        assert_eq!(first.len(), 1);
        let second = er.step(|_, _| true);
        assert_eq!(second.len(), 1);
        assert_ne!(first[0].1.msg_id, second[0].1.msg_id);
    }

    #[test]
    fn distinct_outputs_move_in_parallel() {
        let mut er = ElasticRouter::new(ErConfig::default());
        er.inject(0, flit(1, 0, 1, 0, true)).unwrap();
        er.inject(2, flit(3, 0, 2, 0, true)).unwrap();
        let out = er.step(|_, _| true);
        assert_eq!(out.len(), 2, "crossbar moves both: {out:?}");
    }

    #[test]
    fn round_robin_is_fair_under_contention() {
        let mut er = ElasticRouter::new(ErConfig {
            credits_per_vc: 64,
            shared_credits: 0,
            ..ErConfig::default()
        });
        // Saturate output 0 from inputs 1, 2, 3.
        for seq in 0..16 {
            for input in 1..4usize {
                er.inject(input, flit(0, 0, input as u64, seq, false))
                    .unwrap();
            }
        }
        let out = er.drain(1000);
        let mut counts = [0usize; 4];
        for (_, f) in &out {
            counts[f.msg_id as usize] += 1;
        }
        assert_eq!(counts[1], 16);
        assert_eq!(counts[2], 16);
        assert_eq!(counts[3], 16);
        // Interleaving: the first three grants come from three different inputs.
        let first3: std::collections::HashSet<u64> =
            out.iter().take(3).map(|(_, f)| f.msg_id).collect();
        assert_eq!(first3.len(), 3, "round robin interleaves inputs");
    }

    #[test]
    fn static_policy_exhausts_per_vc_credits() {
        let mut er = ElasticRouter::new(ErConfig {
            credits_per_vc: 2,
            shared_credits: 8,
            policy: CreditPolicy::Static,
            ..ErConfig::default()
        });
        er.inject(0, flit(1, 0, 1, 0, false)).unwrap();
        er.inject(0, flit(1, 0, 1, 1, false)).unwrap();
        assert_eq!(
            er.inject(0, flit(1, 0, 1, 2, false)).unwrap_err(),
            InjectError::NoCredit,
            "static policy ignores the shared pool"
        );
        // The other VC still has its own credits.
        assert!(er.can_accept(0, 1));
    }

    #[test]
    fn elastic_policy_borrows_from_shared_pool() {
        let mut er = ElasticRouter::new(ErConfig {
            credits_per_vc: 2,
            shared_credits: 3,
            policy: CreditPolicy::Elastic,
            ..ErConfig::default()
        });
        for seq in 0..5 {
            er.inject(0, flit(1, 0, 1, seq, false)).unwrap();
        }
        assert_eq!(
            er.inject(0, flit(1, 0, 1, 5, false)).unwrap_err(),
            InjectError::NoCredit
        );
        assert_eq!(er.stats_view().credit_stalls, 1);
    }

    #[test]
    fn shared_pool_is_shared_across_vcs() {
        let mut er = ElasticRouter::new(ErConfig {
            credits_per_vc: 1,
            shared_credits: 2,
            policy: CreditPolicy::Elastic,
            ..ErConfig::default()
        });
        // VC0 uses its dedicated credit + both shared credits.
        er.inject(0, flit(1, 0, 1, 0, false)).unwrap();
        er.inject(0, flit(1, 0, 1, 1, false)).unwrap();
        er.inject(0, flit(1, 0, 1, 2, false)).unwrap();
        // VC1 still has its dedicated credit but no shared left.
        er.inject(0, flit(1, 1, 2, 0, false)).unwrap();
        assert!(!er.can_accept(0, 1));
    }

    #[test]
    fn credits_are_returned_on_departure() {
        let mut er = ElasticRouter::new(ErConfig {
            credits_per_vc: 1,
            shared_credits: 0,
            policy: CreditPolicy::Elastic,
            ..ErConfig::default()
        });
        er.inject(0, flit(1, 0, 1, 0, true)).unwrap();
        assert!(!er.can_accept(0, 0));
        er.step(|_, _| true);
        assert!(er.can_accept(0, 0));
    }

    #[test]
    fn downstream_backpressure_stalls_grants() {
        let mut er = ElasticRouter::new(ErConfig::default());
        er.inject(0, flit(1, 0, 1, 0, true)).unwrap();
        let out = er.step(|_, _| false);
        assert!(out.is_empty());
        assert_eq!(er.occupancy(), 1);
        let out = er.step(|_, _| true);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn two_routers_compose_into_a_ring() {
        // ER0 port 3 <-> ER1 port 3; route a message from ER0 port 0 to
        // ER1 port 1 by injecting it at ER0 with out_port 3, then
        // re-injecting at ER1 with out_port 1.
        let mut er0 = ElasticRouter::new(ErConfig::default());
        let mut er1 = ElasticRouter::new(ErConfig::default());
        er0.inject(0, flit(3, 0, 42, 0, true)).unwrap();
        let hop1 = er0.drain(10);
        assert_eq!(hop1.len(), 1);
        let mut f = hop1[0].1.clone();
        assert_eq!(hop1[0].0, 3);
        f.out_port = 1; // next-hop route
        er1.inject(3, f).unwrap();
        let hop2 = er1.drain(10);
        assert_eq!(hop2.len(), 1);
        assert_eq!(hop2[0].0, 1);
        assert_eq!(hop2[0].1.msg_id, 42);
    }

    #[test]
    fn bad_indices_rejected() {
        let mut er = ElasticRouter::new(ErConfig::default());
        assert_eq!(
            er.inject(9, flit(0, 0, 1, 0, true)).unwrap_err(),
            InjectError::BadPort
        );
        assert_eq!(
            er.inject(0, flit(9, 0, 1, 0, true)).unwrap_err(),
            InjectError::BadPort
        );
        assert_eq!(
            er.inject(0, flit(0, 9, 1, 0, true)).unwrap_err(),
            InjectError::BadPort
        );
    }

    #[test]
    fn stats_track_traffic() {
        let mut er = ElasticRouter::new(ErConfig::default());
        for seq in 0..4 {
            er.inject(0, flit(1, 0, 1, seq, seq == 3)).unwrap();
        }
        er.drain(100);
        let s = er.stats_view();
        assert_eq!(s.flits_injected, 4);
        assert_eq!(s.flits_routed, 4);
        assert!(s.peak_occupancy >= 4);
    }
}
