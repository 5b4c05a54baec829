//! LTL wire format.
//!
//! LTL frames ride inside UDP datagrams ([`dcnet::LTL_UDP_PORT`]) so they
//! route across the ordinary datacenter network. The 20-byte header carries
//! connection ids (indices into the statically allocated send/receive
//! connection tables), a sequence number for the reliable, ordered
//! delivery machinery, and message reassembly metadata.

use bytes::Bytes;

/// LTL header length in bytes.
pub const LTL_HEADER_BYTES: usize = 20;
const MAGIC: u16 = 0x4C54; // "LT"
const VERSION: u8 = 1;

/// Frame type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Payload-bearing frame; `seq` is its sequence number.
    Data,
    /// Cumulative acknowledgement; `seq` is the highest in-order sequence
    /// received.
    Ack,
    /// Negative acknowledgement requesting timely retransmission from
    /// `seq` (sent when reordering is detected).
    Nack,
    /// DC-QCN congestion notification packet.
    Cnp,
    /// Selective acknowledgement (Transport v2): `seq` is the cumulative
    /// ack and the 8-byte payload is a big-endian bitmap where bit `i`
    /// reports sequence `seq + 2 + i` as individually received
    /// (`seq + 1` is by definition the first missing sequence).
    Sack,
}

impl FrameKind {
    fn to_byte(self) -> u8 {
        match self {
            FrameKind::Data => 0,
            FrameKind::Ack => 1,
            FrameKind::Nack => 2,
            FrameKind::Cnp => 3,
            FrameKind::Sack => 4,
        }
    }

    fn from_byte(b: u8) -> Option<FrameKind> {
        Some(match b {
            0 => FrameKind::Data,
            1 => FrameKind::Ack,
            2 => FrameKind::Nack,
            3 => FrameKind::Cnp,
            4 => FrameKind::Sack,
            _ => return None,
        })
    }
}

/// One LTL frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LtlFrame {
    /// Frame type.
    pub kind: FrameKind,
    /// Sender's send-connection id (so the receiver's ACK can address the
    /// right entry in the sender's table).
    pub src_conn: u16,
    /// Receiver's receive-connection id.
    pub dst_conn: u16,
    /// Sequence number (data) or cumulative ack / requested seq (control).
    pub seq: u32,
    /// Message id for multi-frame messages.
    pub msg_id: u32,
    /// Set on the final frame of a message.
    pub last_frag: bool,
    /// Elastic Router virtual channel the payload is destined for.
    pub vc: u8,
    /// Payload (empty for control frames).
    pub payload: Bytes,
}

impl LtlFrame {
    /// Creates a control frame (ACK/NACK/CNP) with no payload.
    pub fn control(kind: FrameKind, src_conn: u16, dst_conn: u16, seq: u32) -> LtlFrame {
        LtlFrame {
            kind,
            src_conn,
            dst_conn,
            seq,
            msg_id: 0,
            last_frag: false,
            vc: 0,
            payload: Bytes::new(),
        }
    }

    /// Creates a selective acknowledgement: `cum` is the cumulative ack
    /// and `bits` the out-of-order bitmap (bit `i` ⇒ `cum + 2 + i`
    /// received). The bitmap rides as the 8-byte payload, so the header
    /// codec is unchanged and decode stays zero-copy.
    pub fn sack(src_conn: u16, dst_conn: u16, cum: u32, bits: u64) -> LtlFrame {
        LtlFrame {
            kind: FrameKind::Sack,
            src_conn,
            dst_conn,
            seq: cum,
            msg_id: 0,
            last_frag: false,
            vc: 0,
            payload: Bytes::copy_from_slice(&bits.to_be_bytes()),
        }
    }

    /// The out-of-order bitmap of a [`FrameKind::Sack`] frame, if this is
    /// one with a well-formed 8-byte payload.
    pub fn sack_bits(&self) -> Option<u64> {
        if self.kind != FrameKind::Sack || self.payload.len() != 8 {
            return None;
        }
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.payload);
        Some(u64::from_be_bytes(b))
    }

    /// Serializes the frame (header + payload).
    ///
    /// The header is assembled once on the stack. A payload-free frame
    /// (ACK / NACK / CNP) is that array copied into a [`Bytes`], which
    /// stores 20 bytes inline: no heap. A payload-bearing frame is one
    /// exact-capacity buffer, filled once and moved — not copied — into
    /// the returned [`Bytes`].
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds the header's 16-bit length field.
    pub fn encode(&self) -> Bytes {
        self.encode_reusing(None)
    }

    /// [`LtlFrame::encode`], writing into `spare` in place when
    /// [`Bytes::try_refill`] accepts it — no clone or view of it is alive
    /// and the frame does not fit inline — instead of allocating a fresh
    /// buffer. A refused spare is dropped.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds the header's 16-bit length field.
    pub fn encode_reusing(&self, spare: Option<Bytes>) -> Bytes {
        let len = u16::try_from(self.payload.len()).unwrap_or_else(|_| {
            panic!(
                "LtlFrame.payload is {} bytes, the header's length field carries at most {}",
                self.payload.len(),
                u16::MAX
            )
        });
        let mut header = [0u8; LTL_HEADER_BYTES];
        header[0..2].copy_from_slice(&MAGIC.to_be_bytes());
        header[2] = VERSION;
        header[3] = self.kind.to_byte();
        header[4..6].copy_from_slice(&self.src_conn.to_be_bytes());
        header[6..8].copy_from_slice(&self.dst_conn.to_be_bytes());
        header[8..12].copy_from_slice(&self.seq.to_be_bytes());
        header[12..16].copy_from_slice(&self.msg_id.to_be_bytes());
        header[16] = self.last_frag as u8;
        header[17] = self.vc;
        header[18..20].copy_from_slice(&len.to_be_bytes());
        if self.payload.is_empty() {
            return Bytes::copy_from_slice(&header);
        }
        if let Some(mut wire) = spare {
            if wire.try_refill(&[&header, &self.payload]) {
                return wire;
            }
        }
        let mut wire = Vec::with_capacity(LTL_HEADER_BYTES + self.payload.len());
        wire.extend_from_slice(&header);
        wire.extend_from_slice(&self.payload);
        Bytes::from(wire)
    }

    /// Parses a frame produced by [`LtlFrame::encode`].
    ///
    /// The returned frame's payload is a zero-copy [`Bytes::slice`] view
    /// into `bytes`' shared storage — decoding a received frame never
    /// copies payload bytes.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError`] for short buffers, bad magic/version, unknown
    /// frame kinds, or length mismatches.
    pub fn decode(wire: &Bytes) -> Result<LtlFrame, FrameError> {
        let bytes: &[u8] = wire;
        if bytes.len() < LTL_HEADER_BYTES {
            return Err(FrameError::Truncated);
        }
        if u16::from_be_bytes([bytes[0], bytes[1]]) != MAGIC {
            return Err(FrameError::BadMagic);
        }
        if bytes[2] != VERSION {
            return Err(FrameError::BadVersion);
        }
        let kind = FrameKind::from_byte(bytes[3]).ok_or(FrameError::BadKind)?;
        let len = u16::from_be_bytes([bytes[18], bytes[19]]) as usize;
        if bytes.len() < LTL_HEADER_BYTES + len {
            return Err(FrameError::Truncated);
        }
        Ok(LtlFrame {
            kind,
            src_conn: u16::from_be_bytes([bytes[4], bytes[5]]),
            dst_conn: u16::from_be_bytes([bytes[6], bytes[7]]),
            seq: u32::from_be_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]),
            msg_id: u32::from_be_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]),
            last_frag: bytes[16] & 1 != 0,
            vc: bytes[17],
            payload: wire.slice(LTL_HEADER_BYTES..LTL_HEADER_BYTES + len),
        })
    }
}

/// Why an LTL frame failed to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Buffer shorter than the header or the declared payload.
    Truncated,
    /// Magic bytes mismatch (not an LTL frame).
    BadMagic,
    /// Unknown protocol version.
    BadVersion,
    /// Unknown frame kind.
    BadKind,
}

impl core::fmt::Display for FrameError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            FrameError::Truncated => "ltl frame truncated",
            FrameError::BadMagic => "not an ltl frame",
            FrameError::BadVersion => "unsupported ltl version",
            FrameError::BadKind => "unknown ltl frame kind",
        };
        f.write_str(s)
    }
}

impl std::error::Error for FrameError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_frame_roundtrip() {
        let f = LtlFrame {
            kind: FrameKind::Data,
            src_conn: 7,
            dst_conn: 9,
            seq: 0xDEADBEEF,
            msg_id: 1234,
            last_frag: true,
            vc: 2,
            payload: Bytes::from_static(b"remote acceleration"),
        };
        let enc = f.encode();
        assert_eq!(enc.len(), LTL_HEADER_BYTES + 19);
        assert_eq!(LtlFrame::decode(&enc).unwrap(), f);
    }

    #[test]
    fn control_frame_roundtrip() {
        for kind in [FrameKind::Ack, FrameKind::Nack, FrameKind::Cnp] {
            let f = LtlFrame::control(kind, 1, 2, 42);
            let dec = LtlFrame::decode(&f.encode()).unwrap();
            assert_eq!(dec, f);
            assert!(dec.payload.is_empty());
        }
    }

    #[test]
    fn sack_frame_roundtrip_preserves_bitmap() {
        let f = LtlFrame::sack(3, 4, 41, 0b1011);
        assert_eq!(f.sack_bits(), Some(0b1011));
        let dec = LtlFrame::decode(&f.encode()).unwrap();
        assert_eq!(dec, f);
        assert_eq!(dec.kind, FrameKind::Sack);
        assert_eq!(dec.seq, 41);
        assert_eq!(dec.sack_bits(), Some(0b1011));
        // Non-sack frames and malformed payloads yield no bitmap.
        assert_eq!(LtlFrame::control(FrameKind::Ack, 0, 0, 0).sack_bits(), None);
        let mut short = f.clone();
        short.payload = Bytes::from_static(b"abc");
        assert_eq!(short.sack_bits(), None);
    }

    #[test]
    fn rejects_bad_magic() {
        let f = LtlFrame::control(FrameKind::Ack, 0, 0, 0);
        let mut bytes = f.encode().to_vec();
        bytes[0] = 0;
        assert_eq!(
            LtlFrame::decode(&Bytes::from(bytes)).unwrap_err(),
            FrameError::BadMagic
        );
    }

    #[test]
    fn rejects_bad_version_and_kind() {
        let f = LtlFrame::control(FrameKind::Ack, 0, 0, 0);
        let mut v = f.encode().to_vec();
        v[2] = 99;
        assert_eq!(
            LtlFrame::decode(&Bytes::from(v)).unwrap_err(),
            FrameError::BadVersion
        );
        let mut k = f.encode().to_vec();
        k[3] = 99;
        assert_eq!(
            LtlFrame::decode(&Bytes::from(k)).unwrap_err(),
            FrameError::BadKind
        );
    }

    #[test]
    fn rejects_truncation() {
        let f = LtlFrame {
            kind: FrameKind::Data,
            src_conn: 0,
            dst_conn: 0,
            seq: 0,
            msg_id: 0,
            last_frag: false,
            vc: 0,
            payload: Bytes::from_static(b"abcdef"),
        };
        let enc = f.encode();
        assert_eq!(
            LtlFrame::decode(&enc.slice(..10)).unwrap_err(),
            FrameError::Truncated
        );
        assert_eq!(
            LtlFrame::decode(&enc.slice(..enc.len() - 1)).unwrap_err(),
            FrameError::Truncated
        );
    }

    #[test]
    fn decode_payload_shares_the_wire_buffer() {
        let f = LtlFrame {
            kind: FrameKind::Data,
            src_conn: 1,
            dst_conn: 2,
            seq: 3,
            msg_id: 4,
            last_frag: true,
            vc: 0,
            payload: Bytes::from_static(b"zero copy"),
        };
        let enc = f.encode();
        let dec = LtlFrame::decode(&enc).unwrap();
        assert_eq!(
            dec.payload.as_slice().as_ptr(),
            enc[LTL_HEADER_BYTES..].as_ptr(),
            "decode must slice the shared frame, not copy it"
        );
    }

    /// The field-by-field writer [`LtlFrame::encode`] replaced, kept as
    /// the reference its wire image is checked against.
    fn put_wire(f: &LtlFrame) -> Vec<u8> {
        use bytes::BufMut;
        let mut out = Vec::new();
        out.put_u16(MAGIC);
        out.put_u8(VERSION);
        out.put_u8(f.kind.to_byte());
        out.put_u16(f.src_conn);
        out.put_u16(f.dst_conn);
        out.put_u32(f.seq);
        out.put_u32(f.msg_id);
        out.put_u8(if f.last_frag { 1 } else { 0 });
        out.put_u8(f.vc);
        out.put_u16(f.payload.len() as u16);
        out.put_slice(&f.payload);
        out
    }

    #[test]
    fn fresh_and_reused_encodes_match_the_field_writer() {
        let kinds = [
            FrameKind::Data,
            FrameKind::Ack,
            FrameKind::Nack,
            FrameKind::Cnp,
            FrameKind::Sack,
        ];
        let mtu = dcnet::MTU_PAYLOAD - LTL_HEADER_BYTES;
        let mut seq = 0xFFFF_FFF0u32;
        for kind in kinds {
            for len in [0, 1, 2, 3, 8, 22, 23, 64, mtu] {
                for last_frag in [false, true] {
                    seq = seq.wrapping_add(7);
                    let f = LtlFrame {
                        kind,
                        src_conn: 0x1234,
                        dst_conn: 0xFEDC,
                        seq,
                        msg_id: seq.rotate_left(9),
                        last_frag,
                        vc: 3,
                        payload: Bytes::from((0..len).map(|i| i as u8).collect::<Vec<u8>>()),
                    };
                    let what = format!("{kind:?} len {len} last {last_frag}");
                    let expected = put_wire(&f);
                    let fresh = f.encode();
                    assert_eq!(fresh, expected, "fresh, {what}");
                    assert_eq!(LtlFrame::decode(&fresh).unwrap(), f);
                    // Spares smaller and larger than the frame, with stale
                    // contents and a view that does not start at 0.
                    for spare_len in [LTL_HEADER_BYTES + 4, expected.len() + 100] {
                        let spare = Bytes::from(vec![0xEE; spare_len + 1]).slice(1..);
                        let reused = f.encode_reusing(Some(spare));
                        assert_eq!(reused, expected, "spare of {spare_len}, {what}");
                        assert_eq!(LtlFrame::decode(&reused).unwrap(), f);
                    }
                }
            }
        }
    }

    #[test]
    fn a_spare_is_refilled_only_when_no_one_else_holds_it() {
        let f = data_frame_of(64);
        let spare = Bytes::from(vec![0xEE; 200]);
        let storage = spare.as_slice().as_ptr();
        let reused = f.encode_reusing(Some(spare));
        assert_eq!(reused.as_slice().as_ptr(), storage, "refilled in place");

        let view = reused.slice(LTL_HEADER_BYTES..);
        let fresh = f.encode_reusing(Some(reused));
        assert_ne!(
            fresh.as_slice().as_ptr(),
            storage,
            "a live view forces a fresh buffer"
        );
        assert_eq!(fresh, put_wire(&f));
        assert_eq!(view, vec![0x5A; 64], "the view's bytes are unchanged");
    }

    fn data_frame_of(len: usize) -> LtlFrame {
        LtlFrame {
            kind: FrameKind::Data,
            src_conn: 1,
            dst_conn: 2,
            seq: 3,
            msg_id: 4,
            last_frag: true,
            vc: 0,
            payload: Bytes::from(vec![0x5A; len]),
        }
    }

    #[test]
    fn largest_payload_round_trips() {
        let f = data_frame_of(u16::MAX as usize);
        let wire = f.encode();
        assert_eq!(&wire[18..20], &[0xFF, 0xFF]);
        assert_eq!(LtlFrame::decode(&wire).unwrap(), f);
    }

    /// Checked in every profile: a bare cast used to encode length 0 here
    /// (and 4,464 for 70,000 bytes), which decodes as a truncated frame
    /// with no error.
    #[test]
    #[should_panic(
        expected = "LtlFrame.payload is 65536 bytes, the header's length field carries at most 65535"
    )]
    fn payload_beyond_the_length_field_is_refused() {
        data_frame_of(u16::MAX as usize + 1).encode();
    }
}
