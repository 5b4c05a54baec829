//! The LTL consumer shared by the transport integration tests; included
//! on its own (`#[path = "common/collector.rs"] mod collector;`) by the
//! tests that need it.

use bytes::Bytes;
use dcnet::Msg;
use dcsim::{Component, Context};
use shell::LtlDeliver;

/// Records the payload of every LTL delivery, in arrival order.
#[derive(Debug, Default)]
pub struct Collector {
    pub payloads: Vec<Bytes>,
}

impl Component<Msg> for Collector {
    fn on_message(&mut self, msg: Msg, _ctx: &mut Context<'_, Msg>) {
        if let Ok(d) = msg.downcast::<LtlDeliver>() {
            self.payloads.push(d.payload);
        }
    }
}
