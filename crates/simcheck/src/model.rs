//! Executable reference model for the LTL go-back-N retransmission
//! protocol (one direction of one connection).
//!
//! The model is fed the *observable* protocol trace — submissions,
//! frames put on the wire, frames arriving, deliveries, drops — and
//! tracks the little state a correct go-back-N endpoint pair may hold:
//! the sender's next sequence number and cumulative-ack floor, the
//! receiver's expected sequence number, and the FIFO of submitted
//! messages. After every engine event the fuzz harness compares this
//! state against the real [`shell::ltl::LtlEngine`]'s introspection views;
//! any disagreement is a protocol bug (in one of the two).
//!
//! The model is deliberately lossy-channel-agnostic: drops only *count*
//! (a connection-failure declaration is legal only on a connection that
//! actually lost frames); retransmission policy, pacing and timer
//! details are left to the implementation. That keeps the model obviously
//! correct while still pinning down everything a peer can observe.

use crate::session::TransportRef;
use crate::{seq_le, seq_lt};
use shell::ltl::{RecvConnView, SendConnView};
use std::collections::VecDeque;

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

/// Reference go-back-N state for one direction (one send connection and
/// its peer receive connection).
#[derive(Debug, Clone)]
pub struct GbnRefModel {
    /// Next sequence number the sender will assign.
    next_seq: u32,
    /// All sequence numbers below this are cumulatively acknowledged.
    acked_below: u32,
    /// Receiver's next in-order expected sequence number.
    expected: u32,
    /// Submitted messages not yet fully delivered, in order.
    pending: VecDeque<PendingMsg>,
    /// Messages delivered in order so far.
    delivered: u64,
    /// Frames (data or control) lost by the channel on this direction's
    /// data path or its reverse control path.
    drops: u64,
    /// The sender declared the connection failed.
    failed: bool,
}

impl Default for GbnRefModel {
    fn default() -> Self {
        Self::new()
    }
}

impl GbnRefModel {
    /// A fresh connection: both sides at sequence 0.
    pub fn new() -> GbnRefModel {
        GbnRefModel {
            next_seq: 0,
            acked_below: 0,
            expected: 0,
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

    /// Channel drops charged to this direction so far.
    pub fn drops(&self) -> u64 {
        self.drops
    }
}

impl TransportRef for GbnRefModel {
    /// Messages delivered in order so far.
    fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Records a channel drop affecting this direction.
    fn on_drop(&mut self) {
        self.drops += 1;
    }

    /// The application submitted a message segmented into `frames` frames
    /// starting at `first_seq`, carrying `counter` in its payload head.
    fn on_submit(&mut self, first_seq: u32, frames: u32, counter: u64) -> Result<(), String> {
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
    fn on_data_tx(&mut self, seq: u32) -> Result<(), String> {
        // Anything at or above the cumulative-ack floor and below the
        // next unassigned sequence may legally (re)appear on the wire.
        if !(seq_le(self.acked_below, seq) && seq_lt(seq, self.next_seq)) {
            return Err(format!(
                "data seq {seq} outside window [{}, {})",
                self.acked_below, self.next_seq
            ));
        }
        Ok(())
    }

    /// A data frame with sequence `seq` (and `last_frag` marker) reached
    /// the receiver. Returns the counter of the front pending message
    /// when the frame completes it, which the receiver must now deliver.
    fn on_data_rx(&mut self, seq: u32, last_frag: bool) -> Result<Vec<u64>, String> {
        if seq != self.expected {
            // Duplicate or out-of-order: a go-back-N receiver discards it
            // (re-acking / nacking as it sees fit). No state change.
            return Ok(Vec::new());
        }
        let front = self
            .pending
            .front()
            .copied()
            .ok_or_else(|| format!("in-order data seq {seq} with no message pending"))?;
        let msg_last = front.first_seq.wrapping_add(front.frames - 1);
        if last_frag != (seq == msg_last) {
            return Err(format!(
                "frame seq {seq} has last_frag={last_frag}, model expects last at {msg_last}"
            ));
        }
        self.expected = self.expected.wrapping_add(1);
        if seq == msg_last {
            self.pending.pop_front();
            self.delivered += 1;
            return Ok(vec![front.counter]);
        }
        Ok(Vec::new())
    }

    /// The receiver emitted a cumulative ACK for `seq`.
    fn on_ack_tx(&self, seq: u32) -> Result<(), String> {
        // A cumulative ack always names the highest in-order sequence
        // received, i.e. expected - 1 (also on duplicate re-acks).
        let want = self.expected.wrapping_sub(1);
        if seq != want {
            return Err(format!("ack for seq {seq}, receiver's floor is {want}"));
        }
        Ok(())
    }

    /// A cumulative ACK for `seq` reached the sender.
    fn on_ack_rx(&mut self, seq: u32) -> Result<(), String> {
        if !seq_lt(seq, self.next_seq) {
            return Err(format!(
                "ack for seq {seq} which was never assigned (next_seq {})",
                self.next_seq
            ));
        }
        let floor = seq.wrapping_add(1);
        if seq_lt(self.acked_below, floor) {
            self.acked_below = floor;
        }
        Ok(())
    }

    /// The receiver emitted a NACK requesting retransmission from `seq`.
    fn on_nack_tx(&self, seq: u32) -> Result<(), String> {
        if seq != self.expected {
            return Err(format!(
                "nack requests seq {seq}, receiver expects {}",
                self.expected
            ));
        }
        Ok(())
    }

    /// The sender declared the connection failed (retries exhausted).
    fn on_conn_failed(&mut self) -> Result<(), String> {
        if self.drops == 0 {
            return Err("connection declared failed on a loss-free channel".into());
        }
        self.failed = true;
        Ok(())
    }

    /// The receiver-side application got a completed message carrying
    /// `counter`; must match what [`Self::on_data_rx`] just completed.
    fn on_deliver(&mut self, counter: u64, expected_counter: u64) -> Result<(), String> {
        if counter != expected_counter {
            return Err(format!(
                "delivered message counter {counter}, model completed {expected_counter}"
            ));
        }
        Ok(())
    }

    /// Differential check of the real sender's view after an event.
    fn check_sender(&self, view: &SendConnView, _unacked: &[u32]) -> Result<(), String> {
        if self.failed {
            // Past failure the engine clears its queues; nothing to pin.
            return Ok(());
        }
        if view.next_seq != self.next_seq {
            return Err(format!(
                "sender next_seq {} != model {}",
                view.next_seq, self.next_seq
            ));
        }
        if view.unacked_len > 0 {
            let lowest = view
                .unacked_lowest
                .ok_or("non-empty unacked without lowest")?;
            let highest = view
                .unacked_highest
                .ok_or("non-empty unacked without highest")?;
            if lowest != self.acked_below {
                return Err(format!(
                    "sender window base {lowest} != model cumulative ack floor {}",
                    self.acked_below
                ));
            }
            let span = highest.wrapping_sub(lowest) as usize + 1;
            if span != view.unacked_len {
                return Err(format!(
                    "unacked queue not seq-contiguous: [{lowest}, {highest}] vs len {}",
                    view.unacked_len
                ));
            }
        } else if view.next_seq != self.acked_below {
            // Empty retransmission queue means everything assigned has
            // been cumulatively acked.
            return Err(format!(
                "sender idle with next_seq {} but model floor {}",
                view.next_seq, self.acked_below
            ));
        }
        Ok(())
    }

    /// Differential check of the real receiver's view after an event.
    fn check_receiver(&self, view: &RecvConnView, _buffered: &[u32]) -> Result<(), String> {
        if view.expected_seq != self.expected {
            return Err(format!(
                "receiver expected_seq {} != model {}",
                view.expected_seq, self.expected
            ));
        }
        Ok(())
    }

    /// End-of-run completeness: every submitted message was delivered,
    /// unless the connection legally failed.
    fn check_complete(&self) -> Result<(), String> {
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

    #[test]
    fn clean_exchange_walks_through() {
        let mut m = GbnRefModel::new();
        m.on_submit(0, 2, 7).unwrap();
        m.on_data_tx(0).unwrap();
        assert_eq!(m.on_data_rx(0, false).unwrap(), vec![]);
        m.on_ack_tx(0).unwrap();
        m.on_ack_rx(0).unwrap();
        m.on_data_tx(1).unwrap();
        assert_eq!(m.on_data_rx(1, true).unwrap(), vec![7]);
        m.on_ack_tx(1).unwrap();
        m.on_ack_rx(1).unwrap();
        assert_eq!(m.delivered(), 1);
        m.check_complete().unwrap();
    }

    #[test]
    fn duplicate_data_is_ignored() {
        let mut m = GbnRefModel::new();
        m.on_submit(0, 1, 1).unwrap();
        assert_eq!(m.on_data_rx(0, true).unwrap(), vec![1]);
        // Retransmitted duplicate: discarded, no double delivery.
        assert_eq!(m.on_data_rx(0, true).unwrap(), vec![]);
        assert_eq!(m.delivered(), 1);
    }

    #[test]
    fn out_of_window_tx_is_a_violation() {
        let mut m = GbnRefModel::new();
        m.on_submit(0, 1, 1).unwrap();
        assert!(m.on_data_tx(5).is_err());
        m.on_data_rx(0, true).unwrap();
        m.on_ack_rx(0).unwrap();
        // Below the ack floor is equally illegal to transmit.
        assert!(m.on_data_tx(0).is_err());
    }

    #[test]
    fn submit_gap_is_a_violation() {
        let mut m = GbnRefModel::new();
        m.on_submit(0, 2, 1).unwrap();
        assert!(m.on_submit(5, 1, 2).is_err());
    }

    #[test]
    fn failure_requires_loss() {
        let mut m = GbnRefModel::new();
        assert!(m.on_conn_failed().is_err());
        m.on_drop();
        m.on_conn_failed().unwrap();
        assert!(m.failed());
    }

    #[test]
    fn incomplete_run_is_flagged() {
        let mut m = GbnRefModel::new();
        m.on_submit(0, 1, 1).unwrap();
        assert!(m.check_complete().is_err());
    }

    #[test]
    fn wrong_ack_value_is_a_violation() {
        let mut m = GbnRefModel::new();
        m.on_submit(0, 1, 1).unwrap();
        m.on_data_rx(0, true).unwrap();
        assert!(m.on_ack_tx(5).is_err());
        m.on_ack_tx(0).unwrap();
    }
}
