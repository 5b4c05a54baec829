//! Packets and their wire format.
//!
//! Simulation components pass [`Packet`] structs around (headers as typed
//! fields, payload as reference-counted [`Bytes`]), while
//! [`Packet::encode_wire`] / [`Packet::decode_wire`] produce and parse the
//! real Ethernet/IPv4/UDP byte layout. Switches never touch the payload;
//! roles that operate on bytes (e.g. the crypto bump-in-the-wire role)
//! work on the `Bytes` directly.

use core::cell::Cell;

use bytes::{BufMut, Bytes, BytesMut};
use dcsim::{fnv1a, FNV1A_OFFSET};

use crate::addr::{MacAddr, NodeAddr};

/// Ethernet + IPv4 + UDP header bytes on the wire.
pub const HEADER_BYTES: u32 = 14 + 20 + 8;
/// Non-header per-frame wire overhead: preamble/SFD (8), FCS (4),
/// inter-frame gap (12).
pub const FRAME_OVERHEAD_BYTES: u32 = 24;
/// Standard Ethernet MTU payload budget used for segmentation.
pub const MTU_PAYLOAD: usize = 1458; // 1500 - 20 (IP) - 8 (UDP) - 14 (Eth) keeps frames <= 1500B on wire

/// Largest payload [`Packet::encode_wire`] can describe: what is left of
/// the 16-bit IPv4 total length after the IP and UDP headers.
const MAX_WIRE_PAYLOAD: usize = u16::MAX as usize - 20 - 8;

/// One of eight 802.1p traffic classes. The Shell maps LTL onto a lossless
/// class provisioned like RDMA/FCoE traffic; ordinary host TCP traffic rides
/// the default lossy class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TrafficClass(u8);

impl TrafficClass {
    /// Default lossy best-effort class.
    pub const BEST_EFFORT: TrafficClass = TrafficClass(0);
    /// The lossless class the Shell provisions for LTL traffic.
    pub const LTL: TrafficClass = TrafficClass(3);
    /// Number of classes supported by switches.
    pub const COUNT: usize = 8;

    /// Creates a class.
    ///
    /// # Panics
    ///
    /// Panics if `value >= 8`.
    pub fn new(value: u8) -> Self {
        assert!(value < 8, "traffic class must be 0..8");
        TrafficClass(value)
    }

    /// The class index, `0..8`. Higher is scheduled first.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Explicit congestion notification codepoint carried in the IP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Ecn {
    /// Transport is not ECN capable; congested switches drop instead of mark.
    #[default]
    NotCapable,
    /// ECN-capable transport (LTL always sets this).
    Capable,
    /// Congestion experienced: set by a switch, triggers DC-QCN CNPs.
    CongestionExperienced,
}

impl Ecn {
    fn to_bits(self) -> u8 {
        match self {
            Ecn::NotCapable => 0b00,
            Ecn::Capable => 0b10,
            Ecn::CongestionExperienced => 0b11,
        }
    }

    fn from_bits(bits: u8) -> Self {
        match bits & 0b11 {
            0b00 => Ecn::NotCapable,
            0b11 => Ecn::CongestionExperienced,
            _ => Ecn::Capable,
        }
    }
}

/// UDP destination port LTL frames are encapsulated on.
pub const LTL_UDP_PORT: u16 = 51000;

/// A simulated network packet (one Ethernet frame).
#[derive(Debug, Clone)]
pub struct Packet {
    /// Source host slot.
    pub src: NodeAddr,
    /// Destination host slot.
    pub dst: NodeAddr,
    /// UDP source port.
    pub src_port: u16,
    /// UDP destination port ([`LTL_UDP_PORT`] for LTL frames).
    pub dst_port: u16,
    /// 802.1p traffic class.
    pub class: TrafficClass,
    /// ECN codepoint; switches may upgrade `Capable` to
    /// `CongestionExperienced`.
    pub ecn: Ecn,
    /// IP time-to-live.
    pub ttl: u8,
    /// Simulation-only marker set by fault injection: the frame's FCS is
    /// bad and the receiving MAC must discard it. Never carried on the
    /// wire format ([`Packet::encode_wire`] ignores it).
    pub corrupt: bool,
    /// Application payload carried after the UDP header.
    pub payload: Bytes,
    // Memoized flow hash (0 = not yet computed), filled in lazily by
    // [`Packet::flow_hash`] so switches hash the 5-tuple once per packet
    // instead of once per hop. The 5-tuple must not be mutated after the
    // first `flow_hash` call; build a new packet for a new flow.
    flow: Cell<u64>,
}

impl Packet {
    /// Creates a packet with default TTL (64) on the given class.
    pub fn new(
        src: NodeAddr,
        dst: NodeAddr,
        src_port: u16,
        dst_port: u16,
        class: TrafficClass,
        payload: Bytes,
    ) -> Self {
        Packet {
            src,
            dst,
            src_port,
            dst_port,
            class,
            ecn: if class == TrafficClass::LTL {
                Ecn::Capable
            } else {
                Ecn::NotCapable
            },
            ttl: 64,
            corrupt: false,
            payload,
            flow: Cell::new(0),
        }
    }

    /// Bytes this frame occupies on the wire, including headers, FCS,
    /// preamble and inter-frame gap — the quantity that determines
    /// serialization delay on a link.
    pub fn wire_bytes(&self) -> u32 {
        HEADER_BYTES + FRAME_OVERHEAD_BYTES + self.payload.len() as u32
    }

    /// Flow identifier used for ECMP hashing: a stable hash of the 5-tuple.
    ///
    /// The hash is memoized inside the packet on first call, so routing a
    /// packet across many hops hashes once. The 5-tuple fields are treated
    /// as immutable from the first call on; code that needs a different
    /// flow builds a fresh packet via [`Packet::new`].
    pub fn flow_hash(&self) -> u64 {
        let cached = self.flow.get();
        if cached != 0 {
            return cached;
        }
        // FNV-1a over the 5-tuple, each field as 8 little-endian bytes;
        // stable across runs.
        let h = [
            self.src.as_u32() as u64,
            self.dst.as_u32() as u64,
            ((self.src_port as u64) << 16) | self.dst_port as u64,
        ]
        .iter()
        .fold(FNV1A_OFFSET, |h, v| fnv1a(h, &v.to_le_bytes()));
        // A real hash of 0 (probability 2^-64) just skips the memo.
        self.flow.set(h);
        h
    }

    /// Serializes the frame into real Ethernet/IPv4/UDP bytes.
    /// The IPv4 checksum is computed; UDP checksum is left zero (legal for
    /// IPv4) as in many datacenter stacks.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds 65,507 bytes: the IPv4 total-length
    /// and UDP length fields are 16 bits wide.
    pub fn encode_wire(&self) -> Bytes {
        assert!(
            self.payload.len() <= MAX_WIRE_PAYLOAD,
            "Packet.payload is {} bytes, the IPv4 total-length field carries at most {}",
            self.payload.len(),
            MAX_WIRE_PAYLOAD
        );
        let udp_len = 8 + self.payload.len() as u16; // checked above
        let mut buf = BytesMut::with_capacity(HEADER_BYTES as usize + self.payload.len());
        // Ethernet
        buf.put_slice(&MacAddr::for_node(self.dst, 0).0);
        buf.put_slice(&MacAddr::for_node(self.src, 0).0);
        buf.put_u16(0x0800); // IPv4
                             // IPv4
        let total_len = 20 + udp_len;
        let ihl_ver = 0x45u8;
        let dscp_ecn = (self.class.0 << 5) | self.ecn.to_bits();
        let ip_start = buf.len();
        buf.put_u8(ihl_ver);
        buf.put_u8(dscp_ecn);
        buf.put_u16(total_len);
        buf.put_u16(0); // identification
        buf.put_u16(0x4000); // don't fragment
        buf.put_u8(self.ttl);
        buf.put_u8(17); // UDP
        buf.put_u16(0); // checksum placeholder
        buf.put_u32(self.src.as_u32());
        buf.put_u32(self.dst.as_u32());
        let csum = ipv4_checksum(&buf[ip_start..ip_start + 20]);
        buf[ip_start + 10] = (csum >> 8) as u8;
        buf[ip_start + 11] = csum as u8;
        // UDP
        buf.put_u16(self.src_port);
        buf.put_u16(self.dst_port);
        buf.put_u16(udp_len);
        buf.put_u16(0); // checksum optional over IPv4
        buf.put_slice(&self.payload);
        buf.freeze()
    }

    /// Parses a frame produced by [`Packet::encode_wire`].
    ///
    /// The returned packet's payload is a zero-copy [`Bytes::slice`] view
    /// into `frame`'s shared storage — decoding never copies payload bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the frame is truncated, is not IPv4/UDP,
    /// or carries a corrupt IPv4 header checksum.
    pub fn decode_wire(wire: &Bytes) -> Result<Packet, DecodeError> {
        let frame: &[u8] = wire;
        if frame.len() < HEADER_BYTES as usize {
            return Err(DecodeError::Truncated);
        }
        let ethertype = u16::from_be_bytes([frame[12], frame[13]]);
        if ethertype != 0x0800 {
            return Err(DecodeError::NotIpv4);
        }
        let ip = &frame[14..34];
        if ip[0] != 0x45 {
            return Err(DecodeError::NotIpv4);
        }
        if ipv4_checksum_verify(ip) != 0 {
            return Err(DecodeError::BadChecksum);
        }
        if ip[9] != 17 {
            return Err(DecodeError::NotUdp);
        }
        let dscp_ecn = ip[1];
        let total_len = u16::from_be_bytes([ip[2], ip[3]]) as usize;
        if total_len + 14 > frame.len() || total_len < 28 {
            return Err(DecodeError::Truncated);
        }
        let src = NodeAddr::from_u32(u32::from_be_bytes([ip[12], ip[13], ip[14], ip[15]]));
        let dst = NodeAddr::from_u32(u32::from_be_bytes([ip[16], ip[17], ip[18], ip[19]]));
        let udp = &frame[34..42];
        let src_port = u16::from_be_bytes([udp[0], udp[1]]);
        let dst_port = u16::from_be_bytes([udp[2], udp[3]]);
        let udp_len = u16::from_be_bytes([udp[4], udp[5]]) as usize;
        if udp_len < 8 || udp_len - 8 > frame.len() - 42 {
            return Err(DecodeError::Truncated);
        }
        let payload_len = udp_len - 8;
        let payload = wire.slice(42..42 + payload_len);
        Ok(Packet {
            src,
            dst,
            src_port,
            dst_port,
            class: TrafficClass::new(dscp_ecn >> 5),
            ecn: Ecn::from_bits(dscp_ecn),
            ttl: ip[8],
            corrupt: false,
            payload,
            flow: Cell::new(0),
        })
    }
}

/// Why a wire frame failed to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Frame shorter than its headers claim.
    Truncated,
    /// EtherType or IP version is not IPv4.
    NotIpv4,
    /// IP protocol is not UDP.
    NotUdp,
    /// IPv4 header checksum mismatch.
    BadChecksum,
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            DecodeError::Truncated => "frame truncated",
            DecodeError::NotIpv4 => "not an IPv4 frame",
            DecodeError::NotUdp => "not a UDP datagram",
            DecodeError::BadChecksum => "invalid IPv4 header checksum",
        };
        f.write_str(s)
    }
}

impl std::error::Error for DecodeError {}

fn ipv4_checksum(header: &[u8]) -> u16 {
    !ones_complement_sum(header)
}

fn ipv4_checksum_verify(header: &[u8]) -> u16 {
    !ones_complement_sum(header)
}

fn ones_complement_sum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u16::from_be_bytes([c[0], c[1]]) as u32;
    }
    if let [last] = chunks.remainder() {
        sum += (*last as u32) << 8;
    }
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    sum as u16
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_packet(payload: &[u8]) -> Packet {
        Packet::new(
            NodeAddr::new(1, 2, 3),
            NodeAddr::new(4, 5, 6),
            4242,
            LTL_UDP_PORT,
            TrafficClass::LTL,
            Bytes::copy_from_slice(payload),
        )
    }

    #[test]
    fn encode_decode_roundtrip() {
        let p = sample_packet(b"hello ltl");
        let wire = p.encode_wire();
        let q = Packet::decode_wire(&wire).unwrap();
        assert_eq!(q.src, p.src);
        assert_eq!(q.dst, p.dst);
        assert_eq!(q.src_port, p.src_port);
        assert_eq!(q.dst_port, p.dst_port);
        assert_eq!(q.class, p.class);
        assert_eq!(q.ecn, Ecn::Capable);
        assert_eq!(q.payload, p.payload);
    }

    #[test]
    fn largest_wire_payload_round_trips() {
        assert_eq!(MAX_WIRE_PAYLOAD, 65_507);
        let p = sample_packet(&vec![0xA5; MAX_WIRE_PAYLOAD]);
        let wire = p.encode_wire();
        assert_eq!(wire.len(), HEADER_BYTES as usize + MAX_WIRE_PAYLOAD);
        assert_eq!(&wire[16..18], &[0xFF, 0xFF], "IPv4 total length");
        assert_eq!(Packet::decode_wire(&wire).unwrap().payload, p.payload);
    }

    /// Checked in every profile: release builds used to wrap the length
    /// fields and emit a frame that decodes truncated.
    #[test]
    #[should_panic(
        expected = "Packet.payload is 65508 bytes, the IPv4 total-length field carries at most 65507"
    )]
    fn wire_payload_beyond_the_length_fields_is_refused() {
        sample_packet(&vec![0xA5; MAX_WIRE_PAYLOAD + 1]).encode_wire();
    }

    #[test]
    fn wire_bytes_counts_overhead() {
        let p = sample_packet(&[0u8; 100]);
        assert_eq!(p.wire_bytes(), 100 + HEADER_BYTES + FRAME_OVERHEAD_BYTES);
    }

    #[test]
    fn corrupted_checksum_is_rejected() {
        let p = sample_packet(b"x");
        let wire = p.encode_wire();
        let mut bad = wire.to_vec();
        bad[20] ^= 0xFF; // inside IP header
        assert_eq!(
            Packet::decode_wire(&Bytes::from(bad)).unwrap_err(),
            DecodeError::BadChecksum
        );
    }

    #[test]
    fn truncated_frame_is_rejected() {
        let p = sample_packet(b"abc");
        let wire = p.encode_wire();
        assert_eq!(
            Packet::decode_wire(&wire.slice(..20)).unwrap_err(),
            DecodeError::Truncated
        );
    }

    #[test]
    fn non_ipv4_rejected() {
        let p = sample_packet(b"abc");
        let mut wire = p.encode_wire().to_vec();
        wire[12] = 0x86; // IPv6 ethertype
        wire[13] = 0xDD;
        assert_eq!(
            Packet::decode_wire(&Bytes::from(wire)).unwrap_err(),
            DecodeError::NotIpv4
        );
    }

    #[test]
    fn flow_hash_is_stable_and_direction_sensitive() {
        let a = sample_packet(b"1");
        let b = sample_packet(b"2");
        assert_eq!(a.flow_hash(), b.flow_hash(), "payload must not affect flow");
        let mut rev = sample_packet(b"1");
        core::mem::swap(&mut rev.src, &mut rev.dst);
        assert_ne!(a.flow_hash(), rev.flow_hash());
    }

    #[test]
    fn flow_hash_memo_survives_clone_and_repeat_calls() {
        let p = sample_packet(b"memo");
        let first = p.flow_hash();
        assert_eq!(p.flow_hash(), first, "memoized value must be stable");
        let hop = p.clone();
        assert_eq!(hop.flow_hash(), first, "clones carry the memo");
        // A decoded packet starts with a cold memo and recomputes the
        // same hash from its parsed 5-tuple.
        let decoded = Packet::decode_wire(&p.encode_wire()).unwrap();
        assert_eq!(decoded.flow_hash(), first);
    }

    #[test]
    fn decode_payload_is_zero_copy_view_of_the_frame() {
        let p = sample_packet(b"shared storage");
        let wire = p.encode_wire();
        let q = Packet::decode_wire(&wire).unwrap();
        assert_eq!(q.payload, p.payload);
        // The payload must point into the wire buffer itself, not a copy.
        let wire_payload = &wire[HEADER_BYTES as usize..];
        assert_eq!(
            q.payload.as_slice().as_ptr(),
            wire_payload.as_ptr(),
            "decode must slice the shared frame, not copy it"
        );
    }

    #[test]
    fn ecn_default_by_class() {
        assert_eq!(sample_packet(b"").ecn, Ecn::Capable);
        let p = Packet::new(
            NodeAddr::new(0, 0, 0),
            NodeAddr::new(0, 0, 1),
            1,
            2,
            TrafficClass::BEST_EFFORT,
            Bytes::new(),
        );
        assert_eq!(p.ecn, Ecn::NotCapable);
    }

    #[test]
    fn ce_mark_survives_roundtrip() {
        let mut p = sample_packet(b"ce");
        p.ecn = Ecn::CongestionExperienced;
        let q = Packet::decode_wire(&p.encode_wire()).unwrap();
        assert_eq!(q.ecn, Ecn::CongestionExperienced);
    }

    #[test]
    #[should_panic(expected = "traffic class")]
    fn class_out_of_range_panics() {
        let _ = TrafficClass::new(8);
    }
}
