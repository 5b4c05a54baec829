//! The DNN accelerator role with real inference.
//!
//! [`MlpRole`] is what the pool example and tests deploy on an FPGA slot:
//! it combines the timing behaviour of
//! [`AcceleratorRole`](crate::remote::AcceleratorRole) (pipeline slots,
//! service time, LTL replies) with the actual computation — each request's
//! payload is decoded into an input vector, run through the [`Mlp`], and
//! the predicted class travels back in the reply.

use bytes::{BufMut, Bytes, BytesMut};
use dcnet::Msg;
use dcsim::{Component, ComponentId, Context, SimDuration, SimRng, SimTime};
use host::CorePool;
use shell::ltl::{RecvConnId, SendConnId};
use shell::LtlDeliver;

use super::mlp::Mlp;
use crate::remote::{decode_reply, ParkedReplies};

/// Builds an inference request: 8-byte id followed by `f32` features.
pub fn encode_inference_request(id: u64, features: &[f32]) -> Bytes {
    let mut b = BytesMut::with_capacity(8 + features.len() * 4);
    b.put_u64(id);
    for &f in features {
        b.put_f32(f);
    }
    b.freeze()
}

/// Parses an inference reply: `(id, argmax class, probability)`.
pub fn decode_inference_reply(payload: &Bytes) -> Option<(u64, u16, f32)> {
    if payload.len() < 8 + 2 + 4 {
        return None;
    }
    let id = u64::from_be_bytes(payload[..8].try_into().ok()?);
    let class = u16::from_be_bytes(payload[8..10].try_into().ok()?);
    let prob = f32::from_be_bytes(payload[10..14].try_into().ok()?);
    Some((id, class, prob))
}

fn decode_features(payload: &Bytes, width: usize) -> Option<Vec<f32>> {
    let body = payload.get(8..)?;
    if body.len() < width * 4 {
        return None;
    }
    Some(
        body.chunks_exact(4)
            .take(width)
            .map(|c| f32::from_be_bytes(c.try_into().expect("chunk is 4 bytes")))
            .collect(),
    )
}

/// A DNN-serving role: real MLP inference with pipelined service timing.
pub struct MlpRole {
    shell: ComponentId,
    model: Mlp,
    service: SimDuration,
    sigma: f64,
    slots: CorePool,
    reply_routes: std::collections::HashMap<RecvConnId, SendConnId>,
    served: u64,
    malformed: u64,
    replies: ParkedReplies,
}

impl MlpRole {
    /// Creates a role serving `model` behind `shell`.
    pub fn new(
        shell: ComponentId,
        model: Mlp,
        service: SimDuration,
        sigma: f64,
        slots: usize,
    ) -> MlpRole {
        MlpRole {
            shell,
            model,
            service,
            sigma,
            slots: CorePool::new(slots),
            reply_routes: Default::default(),
            served: 0,
            malformed: 0,
            replies: ParkedReplies::default(),
        }
    }

    /// Registers the reply connection for requests arriving on `recv`.
    pub fn add_reply_route(&mut self, recv: RecvConnId, send: SendConnId) {
        self.reply_routes.insert(recv, send);
    }

    /// Inferences served.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Requests rejected as malformed.
    pub fn malformed(&self) -> u64 {
        self.malformed
    }

    fn sample_service(&self, rng: &mut SimRng) -> SimDuration {
        let mu = self.service.as_secs_f64().ln() - self.sigma * self.sigma / 2.0;
        SimDuration::from_secs_f64(rng.lognormal(mu, self.sigma))
    }
}

impl Component<Msg> for MlpRole {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        let Ok(del) = msg.downcast::<LtlDeliver>() else {
            return;
        };
        let Some(&reply_conn) = self.reply_routes.get(&del.conn) else {
            return;
        };
        let (Some(id), Some(features)) = (
            decode_reply(&del.payload),
            decode_features(&del.payload, self.model.input_width()),
        ) else {
            self.malformed += 1;
            return;
        };
        // Real computation: run the MLP now, ship the result when the
        // pipeline slot completes.
        let probs = self.model.infer(&features);
        let (class, prob) = probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite probabilities"))
            .map(|(i, &p)| (i as u16, p))
            .expect("non-empty output");
        // 14 bytes: built on the stack, stored inline in its `Bytes`.
        let mut reply = [0u8; 14];
        reply[..8].copy_from_slice(&id.to_be_bytes());
        reply[8..10].copy_from_slice(&class.to_be_bytes());
        reply[10..].copy_from_slice(&prob.to_be_bytes());
        let reply = Bytes::copy_from_slice(&reply);

        let service = self.sample_service(ctx.rng());
        let now: SimTime = ctx.now();
        let (_, done) = self.slots.assign(now, service);
        self.served += 1;
        self.replies
            .park(done.saturating_since(now), reply_conn, ctx, |_| reply);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, Msg>) {
        self.replies.send(token, self.shell, ctx);
    }
}

impl core::fmt::Debug for MlpRole {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MlpRole")
            .field("served", &self.served)
            .field("malformed", &self.malformed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inference_request_roundtrip() {
        let features: Vec<f32> = (0..16).map(|i| i as f32 * 0.5).collect();
        let req = encode_inference_request(42, &features);
        assert_eq!(decode_reply(&req), Some(42));
        assert_eq!(decode_features(&req, 16).unwrap(), features);
    }

    #[test]
    fn reply_roundtrip() {
        let mut b = BytesMut::new();
        b.put_u64(7);
        b.put_u16(3);
        b.put_f32(0.75);
        let (id, class, prob) = decode_inference_reply(&b.freeze()).unwrap();
        assert_eq!((id, class), (7, 3));
        assert!((prob - 0.75).abs() < 1e-6);
    }

    #[test]
    fn short_payloads_rejected() {
        assert!(decode_inference_reply(&Bytes::from_static(b"short")).is_none());
        assert!(decode_features(&Bytes::from_static(b"12345678"), 4).is_none());
    }
}
