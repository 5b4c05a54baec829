//! Executable reference model for the LTL retransmission protocol (one
//! direction of one connection), in both transport modes.
//!
//! Go-back-N is modelled as selective repeat with a one-frame receive
//! window: a frame past the receiver's gap is dropped, so the reassembly
//! buffer stays empty and a cumulative ACK is a SACK with an empty
//! bitmap. Fed the observable protocol trace, the model tracks the full
//! set of in-flight sequence numbers (a selective-repeat window may
//! legitimately contain SACK-punched holes), the receiver's out-of-order
//! reassembly buffer, and the FIFO of submitted messages. The
//! differential harness compares this state against the real
//! [`shell::ltl::LtlEngine`]'s exact sequence-list introspection after
//! every event.
//!
//! The SACK contract is checked *exactly*: every SACK the receiver emits
//! must carry `expected - 1` as its cumulative ack and a bitmap that is
//! precisely the contents of the reassembly buffer (bit `i` ⇔ sequence
//! `cum + 2 + i` buffered). The protocol itself self-heals around a
//! forgotten bitmap bit — the sender just retransmits — which is exactly
//! why the check must be exact: a lossy-bitmap bug is invisible to any
//! oracle that only watches deliveries.
//!
//! The model is lossy-channel-agnostic: drops only *count* (a
//! connection-failure declaration is legal only on a connection that
//! actually lost frames); retransmission policy, pacing and timer details
//! are left to the implementation.

use crate::{seq_le, seq_lt};
use shell::ltl::{LtlMode, RECV_WINDOW};
use std::collections::{BTreeSet, VecDeque};

/// One submitted message the receiver has not yet delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingMsg {
    /// Sequence number of its first frame.
    first_seq: u32,
    /// Number of frames.
    frames: u32,
    /// Application-level counter carried in the payload head.
    counter: u64,
}

/// Reference LTL state for one direction (one send connection and its
/// peer receive connection).
#[derive(Debug, Clone)]
pub struct LtlRefModel {
    /// Transport mode: the receive window and which acknowledgment kind
    /// is legal.
    mode: LtlMode,
    /// Next sequence number the sender will assign.
    next_seq: u32,
    /// All sequence numbers below this are cumulatively acknowledged.
    floor: u32,
    /// Sequence numbers transmitted at least once and not yet released by
    /// the cumulative floor (the engine's unacked store is exactly this
    /// set minus [`Self::sacked`]).
    tx: BTreeSet<u32>,
    /// Sequence numbers at or above the floor retired individually by a
    /// SACK bitmap bit.
    sacked: BTreeSet<u32>,
    /// Receiver's next in-order expected sequence number.
    expected: u32,
    /// Receiver's out-of-order reassembly buffer.
    buffered: BTreeSet<u32>,
    /// Submitted messages not yet fully delivered, in order.
    pending: VecDeque<PendingMsg>,
    /// Messages delivered in order so far.
    delivered: u64,
    /// Frames lost by the channel on this direction's data path or its
    /// reverse control path.
    drops: u64,
    /// The sender declared the connection failed.
    failed: bool,
}

impl LtlRefModel {
    /// A fresh `mode` connection: both sides at sequence 0, with the
    /// receiver buffering at most `RECV_WINDOW - 1` frames ahead in
    /// selective repeat and none in go-back-N.
    pub fn new(mode: LtlMode) -> LtlRefModel {
        LtlRefModel {
            mode,
            next_seq: 0,
            floor: 0,
            tx: BTreeSet::new(),
            sacked: BTreeSet::new(),
            expected: 0,
            buffered: BTreeSet::new(),
            pending: VecDeque::new(),
            delivered: 0,
            drops: 0,
            failed: false,
        }
    }

    /// Whether the sender has declared the connection failed.
    pub fn failed(&self) -> bool {
        self.failed
    }

    /// Messages delivered in order so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Which `last_frag` flag the frame at `seq` must carry, per the
    /// pending-message layout. `None` if no pending message covers it.
    fn frame_last_flag(&self, seq: u32) -> Option<bool> {
        for m in &self.pending {
            let last = m.first_seq.wrapping_add(m.frames - 1);
            if seq_le(m.first_seq, seq) && seq_le(seq, last) {
                return Some(seq == last);
            }
        }
        None
    }

    /// Accepts the in-order frame at `expected`; returns the counter of
    /// the message it completes, if any.
    fn accept(&mut self, seq: u32) -> Result<Option<u64>, String> {
        let front = self
            .pending
            .front()
            .copied()
            .ok_or_else(|| format!("in-order data seq {seq} with no message pending"))?;
        let msg_last = front.first_seq.wrapping_add(front.frames - 1);
        self.expected = self.expected.wrapping_add(1);
        if seq == msg_last {
            self.pending.pop_front();
            self.delivered += 1;
            return Ok(Some(front.counter));
        }
        Ok(None)
    }

    /// The exact in-flight sequence list a correct sender must hold, in
    /// window (serial) order.
    fn expected_unacked(&self) -> Vec<u32> {
        let mut seqs: Vec<u32> = self
            .tx
            .iter()
            .copied()
            .filter(|s| !self.sacked.contains(s))
            .collect();
        seqs.sort_by_key(|s| s.wrapping_sub(self.floor));
        seqs
    }

    /// The bitmap an acknowledgment of kind `sack` carries: a go-back-N
    /// peer sends plain cumulative ACKs (`None`, an empty bitmap), a
    /// selective-repeat one SACKs. The other kind is a violation.
    fn ack_bits(&self, cum: u32, sack: Option<u64>, role: &str) -> Result<u64, String> {
        match (self.mode, sack) {
            (LtlMode::GoBackN, None) => Ok(0),
            (LtlMode::SelectiveRepeat, Some(bits)) => Ok(bits),
            (LtlMode::GoBackN, Some(_)) => Err(format!("sack (cum {cum}) at a go-back-n {role}")),
            (LtlMode::SelectiveRepeat, None) => Err(format!(
                "plain ack (seq {cum}) at a selective-repeat {role}"
            )),
        }
    }

    /// Records a channel drop affecting this direction.
    pub fn on_drop(&mut self) {
        self.drops += 1;
    }

    /// The application submitted a message segmented into `frames` frames
    /// starting at `first_seq`, carrying `counter` in its payload head.
    pub fn on_submit(&mut self, first_seq: u32, frames: u32, counter: u64) -> Result<(), String> {
        if first_seq != self.next_seq {
            return Err(format!(
                "message submitted at seq {first_seq}, model expected {}",
                self.next_seq
            ));
        }
        if frames == 0 {
            return Err("zero-frame message".into());
        }
        self.pending.push_back(PendingMsg {
            first_seq,
            frames,
            counter,
        });
        self.next_seq = self.next_seq.wrapping_add(frames);
        Ok(())
    }

    /// The sender put a data frame with sequence `seq` on the wire
    /// (first transmission or retransmission).
    pub fn on_data_tx(&mut self, seq: u32) -> Result<(), String> {
        if !(seq_le(self.floor, seq) && seq_lt(seq, self.next_seq)) {
            return Err(format!(
                "data seq {seq} outside window [{}, {})",
                self.floor, self.next_seq
            ));
        }
        if self.sacked.contains(&seq) {
            // A selectively acknowledged frame is retired; retransmitting
            // it wastes the exact bandwidth selective repeat exists to
            // save, and means the sender lost track of its sack state.
            return Err(format!("retransmission of individually sacked seq {seq}"));
        }
        self.tx.insert(seq);
        Ok(())
    }

    /// A data frame with sequence `seq` (and `last_frag` marker) reached
    /// the receiver. Returns the counters of every message this frame
    /// completes, which the receiver must now deliver — filling a gap can
    /// release a run of buffered frames and with them several messages
    /// at once.
    pub fn on_data_rx(&mut self, seq: u32, last_frag: bool) -> Result<Vec<u64>, String> {
        if seq_lt(seq, self.expected) || self.buffered.contains(&seq) {
            // Duplicate of something delivered or already buffered: the
            // receiver re-advertises its state, nothing changes.
            return Ok(Vec::new());
        }
        let window = match self.mode {
            LtlMode::GoBackN => 1,
            LtlMode::SelectiveRepeat => RECV_WINDOW,
        };
        if seq.wrapping_sub(self.expected) >= window {
            // Beyond the reassembly window (any gap frame in go-back-N):
            // the receiver drops it.
            return Ok(Vec::new());
        }
        match self.frame_last_flag(seq) {
            None => {
                return Err(format!("data seq {seq} belongs to no pending message"));
            }
            Some(want) if want != last_frag => {
                return Err(format!(
                    "frame seq {seq} has last_frag={last_frag}, model expects {want}"
                ));
            }
            Some(_) => {}
        }
        if seq != self.expected {
            self.buffered.insert(seq);
            return Ok(Vec::new());
        }
        let mut completed = Vec::new();
        completed.extend(self.accept(seq)?);
        while self.buffered.remove(&self.expected) {
            let next = self.expected;
            completed.extend(self.accept(next)?);
        }
        Ok(completed)
    }

    /// The receiver emitted an acknowledgment with cumulative ack `cum`
    /// and, for a SACK, bitmap `sack`. Both are checked exactly against
    /// the receiver state.
    pub fn on_ack_tx(&self, cum: u32, sack: Option<u64>) -> Result<(), String> {
        let bits = self.ack_bits(cum, sack, "receiver")?;
        let want = self.expected.wrapping_sub(1);
        if cum != want {
            return Err(format!("ack cum {cum}, receiver's floor is {want}"));
        }
        // Bit i ⇔ sequence cum + 2 + i sits in the reassembly buffer.
        // cum + 1 is the receiver's first gap and can never be sacked, so
        // the 64-bit map covers the whole window exactly.
        for i in 0..64u32 {
            let s = cum.wrapping_add(2).wrapping_add(i);
            let advertised = bits & (1u64 << i) != 0;
            let held = self.buffered.contains(&s);
            if advertised != held {
                return Err(format!(
                    "sack bitmap bit {i} (seq {s}) = {advertised}, reassembly buffer says {held}"
                ));
            }
        }
        Ok(())
    }

    /// An acknowledgment with cumulative ack `cum` and, for a SACK,
    /// bitmap `sack` reached the sender: the floor advances past `cum`
    /// and every bitmap sequence is retired individually.
    pub fn on_ack_rx(&mut self, cum: u32, sack: Option<u64>) -> Result<(), String> {
        let bits = self.ack_bits(cum, sack, "sender")?;
        if !seq_lt(cum, self.next_seq) {
            return Err(format!(
                "ack cum {cum} which was never assigned (next_seq {})",
                self.next_seq
            ));
        }
        let floor = cum.wrapping_add(1);
        if seq_lt(self.floor, floor) {
            self.floor = floor;
            let f = self.floor;
            self.tx.retain(|&s| seq_le(f, s));
            self.sacked.retain(|&s| seq_le(f, s));
        }
        for i in 0..64u32 {
            if bits & (1u64 << i) == 0 {
                continue;
            }
            let s = cum.wrapping_add(2).wrapping_add(i);
            if !seq_lt(s, self.next_seq) {
                return Err(format!(
                    "sack bit for seq {s} which was never assigned (next_seq {})",
                    self.next_seq
                ));
            }
            if seq_lt(s, self.floor) {
                continue; // stale information, already released
            }
            if !self.tx.contains(&s) {
                return Err(format!("sack bit for seq {s} which was never transmitted"));
            }
            self.sacked.insert(s);
        }
        Ok(())
    }

    /// The receiver emitted a NACK requesting retransmission of `seq`.
    pub fn on_nack_tx(&self, seq: u32) -> Result<(), String> {
        if seq != self.expected {
            return Err(format!(
                "nack requests seq {seq}, receiver expects {}",
                self.expected
            ));
        }
        Ok(())
    }

    /// The sender declared the connection failed (retries exhausted).
    pub fn on_conn_failed(&mut self) -> Result<(), String> {
        if self.drops == 0 {
            return Err("connection declared failed on a loss-free channel".into());
        }
        self.failed = true;
        Ok(())
    }

    /// The receiver-side application got a completed message carrying
    /// `counter`; must match what [`Self::on_data_rx`] just completed.
    pub fn on_deliver(&mut self, counter: u64, expected_counter: u64) -> Result<(), String> {
        if counter != expected_counter {
            return Err(format!(
                "delivered message counter {counter}, model completed {expected_counter}"
            ));
        }
        Ok(())
    }

    /// Differential check of the real sender's next sequence number and
    /// exact in-flight sequence list after an event.
    pub fn check_sender(&self, next_seq: u32, unacked: &[u32]) -> Result<(), String> {
        if self.failed {
            // Past failure the engine clears its queues; nothing to pin.
            return Ok(());
        }
        if next_seq != self.next_seq {
            return Err(format!(
                "sender next_seq {next_seq} != model {}",
                self.next_seq
            ));
        }
        let want = self.expected_unacked();
        if unacked != want.as_slice() {
            return Err(format!(
                "sender in-flight seqs {unacked:?} != model tx-minus-sacked {want:?}"
            ));
        }
        Ok(())
    }

    /// Differential check of the real receiver's expected sequence number
    /// and exact reassembly buffer after an event.
    pub fn check_receiver(&self, expected_seq: u32, buffered: &[u32]) -> Result<(), String> {
        if expected_seq != self.expected {
            return Err(format!(
                "receiver expected_seq {expected_seq} != model {}",
                self.expected
            ));
        }
        let mut want: Vec<u32> = self.buffered.iter().copied().collect();
        want.sort_by_key(|s| s.wrapping_sub(self.expected));
        if buffered != want.as_slice() {
            return Err(format!(
                "receiver reassembly buffer {buffered:?} != model {want:?}"
            ));
        }
        Ok(())
    }

    /// End-of-run completeness: every submitted message was delivered,
    /// unless the connection legally failed.
    pub fn check_complete(&self) -> Result<(), String> {
        if !self.failed && !self.pending.is_empty() {
            return Err(format!(
                "{} submitted message(s) never delivered on an un-failed connection",
                self.pending.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sr() -> LtlRefModel {
        LtlRefModel::new(LtlMode::SelectiveRepeat)
    }

    fn gbn() -> LtlRefModel {
        LtlRefModel::new(LtlMode::GoBackN)
    }

    #[test]
    fn clean_exchange_walks_through() {
        let mut m = sr();
        m.on_submit(0, 2, 7).unwrap();
        m.on_data_tx(0).unwrap();
        assert_eq!(m.on_data_rx(0, false).unwrap(), vec![]);
        m.on_ack_tx(0, Some(0)).unwrap();
        m.on_ack_rx(0, Some(0)).unwrap();
        m.on_data_tx(1).unwrap();
        assert_eq!(m.on_data_rx(1, true).unwrap(), vec![7]);
        m.on_ack_tx(1, Some(0)).unwrap();
        m.on_ack_rx(1, Some(0)).unwrap();
        assert_eq!(m.delivered(), 1);
        m.check_complete().unwrap();
    }

    #[test]
    fn gap_fill_releases_buffered_run() {
        let mut m = sr();
        m.on_submit(0, 1, 10).unwrap();
        m.on_submit(1, 1, 11).unwrap();
        m.on_submit(2, 1, 12).unwrap();
        for s in 0..3 {
            m.on_data_tx(s).unwrap();
        }
        // Seqs 1 and 2 arrive over the gap at 0: buffered.
        assert_eq!(m.on_data_rx(1, true).unwrap(), vec![]);
        assert_eq!(m.on_data_rx(2, true).unwrap(), vec![]);
        // The matching sack advertises both (bits 0 and 1 above cum=MAX).
        m.on_ack_tx(u32::MAX, Some(0b11)).unwrap();
        // Filling the hole completes all three messages in order.
        assert_eq!(m.on_data_rx(0, true).unwrap(), vec![10, 11, 12]);
        m.on_ack_tx(2, Some(0)).unwrap();
    }

    #[test]
    fn inexact_sack_bitmap_is_a_violation() {
        let mut m = sr();
        m.on_submit(0, 3, 1).unwrap();
        for s in 0..3 {
            m.on_data_tx(s).unwrap();
        }
        m.on_data_rx(1, false).unwrap();
        m.on_data_rx(2, true).unwrap();
        // Buffer holds {1, 2}: only the exact bitmap passes.
        m.on_ack_tx(u32::MAX, Some(0b11)).unwrap();
        assert!(m.on_ack_tx(u32::MAX, Some(0b01)).is_err(), "omitted bit");
        assert!(m.on_ack_tx(u32::MAX, Some(0b111)).is_err(), "phantom bit");
        assert!(m.on_ack_tx(0, Some(0b11)).is_err(), "wrong cumulative ack");
    }

    #[test]
    fn sacked_frames_leave_the_inflight_set_and_stay_retired() {
        let mut m = sr();
        m.on_submit(0, 3, 1).unwrap();
        for s in 0..3 {
            m.on_data_tx(s).unwrap();
        }
        // Receiver holds {1, 2}; seq 0 is the hole.
        m.on_ack_rx(u32::MAX, Some(0b11)).unwrap();
        assert_eq!(m.expected_unacked(), vec![0]);
        // Retransmitting the retired frames is itself a violation.
        assert!(m.on_data_tx(1).is_err());
        m.on_data_tx(0).unwrap();
        // The cumulative ack for everything clears the window.
        m.on_ack_rx(2, Some(0)).unwrap();
        assert_eq!(m.expected_unacked(), Vec::<u32>::new());
    }

    #[test]
    fn sack_for_untransmitted_seq_is_a_violation() {
        let mut m = sr();
        m.on_submit(0, 4, 1).unwrap();
        m.on_data_tx(0).unwrap();
        // Bit 0 above cum=0 names seq 2, which never hit the wire.
        assert!(m.on_ack_rx(0, Some(0b1)).is_err());
        // And a bit naming a never-assigned seq is equally illegal.
        assert!(m.on_ack_rx(0, Some(1u64 << 40)).is_err());
    }

    #[test]
    fn frames_beyond_the_window_do_not_change_state() {
        let mut m = sr();
        m.on_submit(0, RECV_WINDOW + 1, 1).unwrap();
        for s in 0..=RECV_WINDOW {
            m.on_data_tx(s).unwrap();
        }
        for s in 1..=RECV_WINDOW {
            assert_eq!(m.on_data_rx(s, s == RECV_WINDOW).unwrap(), vec![]);
        }
        // Offset RECV_WINDOW is dropped, not buffered: bits 0..62 name
        // seqs 1..63, and bit 63 (seq 64) stays clear.
        m.on_ack_tx(u32::MAX, Some(u64::MAX >> 1)).unwrap();
        assert!(m.on_ack_tx(u32::MAX, Some(u64::MAX)).is_err());
    }

    #[test]
    fn duplicate_data_is_ignored() {
        let mut m = sr();
        m.on_submit(0, 1, 1).unwrap();
        m.on_data_tx(0).unwrap();
        assert_eq!(m.on_data_rx(0, true).unwrap(), vec![1]);
        assert_eq!(m.on_data_rx(0, true).unwrap(), vec![]);
        assert_eq!(m.delivered(), 1);
    }

    #[test]
    fn failure_requires_loss() {
        let mut m = sr();
        assert!(m.on_conn_failed().is_err());
        m.on_drop();
        m.on_conn_failed().unwrap();
        assert!(m.failed());
    }

    #[test]
    fn incomplete_run_is_flagged() {
        let mut m = sr();
        m.on_submit(0, 1, 1).unwrap();
        assert!(m.check_complete().is_err());
    }

    #[test]
    fn gbn_clean_exchange_walks_through() {
        let mut m = gbn();
        m.on_submit(0, 2, 7).unwrap();
        m.on_data_tx(0).unwrap();
        assert_eq!(m.on_data_rx(0, false).unwrap(), vec![]);
        m.on_ack_tx(0, None).unwrap();
        m.on_ack_rx(0, None).unwrap();
        m.on_data_tx(1).unwrap();
        assert_eq!(m.on_data_rx(1, true).unwrap(), vec![7]);
        m.on_ack_tx(1, None).unwrap();
        m.on_ack_rx(1, None).unwrap();
        assert_eq!(m.delivered(), 1);
        m.check_complete().unwrap();
    }

    #[test]
    fn gbn_duplicate_data_is_ignored() {
        let mut m = gbn();
        m.on_submit(0, 1, 1).unwrap();
        assert_eq!(m.on_data_rx(0, true).unwrap(), vec![1]);
        // Retransmitted duplicate: discarded, no double delivery.
        assert_eq!(m.on_data_rx(0, true).unwrap(), vec![]);
        assert_eq!(m.delivered(), 1);
    }

    #[test]
    fn gbn_gap_frames_are_dropped() {
        let mut m = gbn();
        m.on_submit(0, 2, 1).unwrap();
        // Seq 1 over the gap at 0 falls outside the one-frame window.
        assert_eq!(m.on_data_rx(1, true).unwrap(), vec![]);
        m.check_receiver(0, &[]).unwrap();
        assert!(m.check_receiver(0, &[1]).is_err());
        m.on_ack_tx(u32::MAX, None).unwrap();
    }

    #[test]
    fn gbn_out_of_window_tx_is_a_violation() {
        let mut m = gbn();
        m.on_submit(0, 1, 1).unwrap();
        assert!(m.on_data_tx(5).is_err());
        m.on_data_rx(0, true).unwrap();
        m.on_ack_rx(0, None).unwrap();
        // Below the ack floor is equally illegal to transmit.
        assert!(m.on_data_tx(0).is_err());
    }

    #[test]
    fn gbn_submit_gap_is_a_violation() {
        let mut m = gbn();
        m.on_submit(0, 2, 1).unwrap();
        assert!(m.on_submit(5, 1, 2).is_err());
    }

    #[test]
    fn gbn_failure_requires_loss() {
        let mut m = gbn();
        assert!(m.on_conn_failed().is_err());
        m.on_drop();
        m.on_conn_failed().unwrap();
        assert!(m.failed());
    }

    #[test]
    fn gbn_incomplete_run_is_flagged() {
        let mut m = gbn();
        m.on_submit(0, 1, 1).unwrap();
        assert!(m.check_complete().is_err());
    }

    #[test]
    fn gbn_wrong_ack_value_is_a_violation() {
        let mut m = gbn();
        m.on_submit(0, 1, 1).unwrap();
        m.on_data_rx(0, true).unwrap();
        assert!(m.on_ack_tx(5, None).is_err());
        m.on_ack_tx(0, None).unwrap();
    }

    #[test]
    fn gbn_sender_missing_its_window_base_is_a_violation() {
        // The shape of a lost retransmission: the engine forgot the
        // oldest in-flight frame while a later one is still unacked.
        let mut m = gbn();
        m.on_submit(0, 2, 1).unwrap();
        m.on_data_tx(0).unwrap();
        m.on_data_tx(1).unwrap();
        m.check_sender(2, &[0, 1]).unwrap();
        let err = m.check_sender(2, &[1]).unwrap_err();
        assert_eq!(
            err,
            "sender in-flight seqs [1] != model tx-minus-sacked [0, 1]"
        );
    }

    #[test]
    fn gbn_model_rejects_a_sack() {
        let mut m = gbn();
        m.on_submit(0, 1, 1).unwrap();
        m.on_data_tx(0).unwrap();
        m.on_data_rx(0, true).unwrap();
        assert!(m.on_ack_tx(0, Some(0)).is_err(), "sent");
        assert!(m.on_ack_rx(0, Some(0)).is_err(), "received");
        // Rejected before it moved the floor: seq 0 is still in flight.
        m.check_sender(1, &[0]).unwrap();
    }

    #[test]
    fn sr_model_rejects_a_plain_ack() {
        let mut m = sr();
        m.on_submit(0, 1, 1).unwrap();
        m.on_data_tx(0).unwrap();
        m.on_data_rx(0, true).unwrap();
        assert!(m.on_ack_tx(0, None).is_err(), "sent");
        assert!(m.on_ack_rx(0, None).is_err(), "received");
        m.check_sender(1, &[0]).unwrap();
    }
}
