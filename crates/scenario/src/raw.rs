//! A raw, externally steered network endpoint — the attacker's vantage
//! point — and the request/response client every harness drives it with.
//!
//! The attack engine works like the paper's authors did with Postman and
//! raw sockets: craft bytes, send them, read what comes back. A
//! [`RawEndpoint`] holds an outbox that external code fills between
//! simulation runs and an inbox of everything received; a [`RawClient`]
//! turns that into "send a request, wait, read the matching reply".

use std::collections::VecDeque;

use bytes::Bytes;
use rb_netsim::{Actor, Ctx, Dest, NodeId, Tick, TimerKey};
use rb_wire::envelope::{CorrId, Envelope};
use rb_wire::messages::{Message, Response};

use crate::World;

const TIMER_DRAIN: TimerKey = 1;

/// An actor with no protocol of its own: it transmits whatever was queued
/// and records whatever arrives.
#[derive(Debug, Default)]
pub struct RawEndpoint {
    outbox: VecDeque<(Dest, Bytes)>,
    /// Everything received: `(sender, payload)`, each payload sharing the
    /// buffer the network delivered.
    pub inbox: Vec<(NodeId, Bytes)>,
}

impl RawEndpoint {
    /// An empty endpoint.
    pub fn new() -> Self {
        RawEndpoint::default()
    }

    /// Queues a frame for transmission on the next tick. An encoded
    /// frame goes out as the [`Bytes`] the codec froze, without a copy.
    pub fn queue(&mut self, dest: Dest, payload: impl Into<Bytes>) {
        self.outbox.push_back((dest, payload.into()));
    }

    /// Drains and returns the inbox.
    pub fn take_inbox(&mut self) -> Vec<(NodeId, Bytes)> {
        std::mem::take(&mut self.inbox)
    }

    /// Arms the 1-tick drain. With nothing queued its firings are no-ops
    /// until something wakes the node — `actor_mut` handing it out to
    /// [`RawEndpoint::queue`], or a packet — so it idles for free; frames
    /// queued before the world first ran go out on the next tick.
    fn arm(&self, ctx: &mut Ctx<'_>) {
        let until = if self.outbox.is_empty() {
            Tick(u64::MAX)
        } else {
            ctx.now()
        };
        ctx.set_idle_timer(1, TIMER_DRAIN, until);
    }
}

impl Actor for RawEndpoint {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.arm(ctx);
    }

    fn on_packet_bytes(&mut self, _ctx: &mut Ctx<'_>, from: NodeId, payload: &Bytes) {
        self.inbox.push((from, payload.clone()));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, key: TimerKey) {
        if key == TIMER_DRAIN {
            while let Some((dest, payload)) = self.outbox.pop_front() {
                ctx.send(dest, payload);
            }
            self.arm(ctx);
        }
    }
}

/// A request/response client over one [`RawEndpoint`] node of a
/// [`World`]: by default the WAN attacker's, or a home console's
/// ([`World::add_home_console`]) via [`RawClient::at`].
///
/// Requests go to the cloud under the client's next correlation id,
/// encoded in the world's codec. A drain decodes the inbox and hands back
/// everything it found, so no push or late reply is dropped unseen.
#[derive(Debug, Clone, Default)]
pub struct RawClient {
    /// The endpoint's node; `None` is the world's attacker.
    node: Option<NodeId>,
    corr: u64,
}

/// What one [`RawClient::drain`] found in the endpoint's inbox.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Replies {
    /// The first reply carrying the awaited correlation id.
    pub reply: Option<Response>,
    /// Unsolicited pushes (correlation id 0), in arrival order.
    pub pushes: Vec<Response>,
    /// Every other reply — stale, or for an earlier unawaited
    /// [`RawClient::send`] — in arrival order.
    pub others: Vec<(CorrId, Response)>,
}

impl RawClient {
    /// A client on the raw endpoint at `node`.
    pub fn at(node: NodeId) -> Self {
        RawClient {
            node: Some(node),
            corr: 0,
        }
    }

    /// The endpoint this client drives (e.g. to queue a raw LAN frame).
    pub fn endpoint<'w>(&self, world: &'w mut World) -> &'w mut RawEndpoint {
        match self.node {
            None => world.attacker_mut(),
            Some(node) => world
                .sim
                .actor_mut::<RawEndpoint>(node)
                .unwrap_or_else(|| unreachable!("raw clients drive RawEndpoint nodes")),
        }
    }

    /// Queues `msg` for the cloud under the next correlation id without
    /// waiting; the reply is picked up by a later drain.
    pub fn send(&mut self, world: &mut World, msg: Message) -> CorrId {
        self.corr += 1;
        let corr = CorrId(self.corr);
        let (cloud, codec) = (world.cloud, world.codec());
        let frame = Envelope::Request { corr, msg }.encode_with(codec);
        self.endpoint(world).queue(Dest::Unicast(cloud), frame);
        corr
    }

    /// Drains and decodes the inbox, picking out the reply to `want`.
    /// Frames that are not responses are skipped.
    pub fn drain(&self, world: &mut World, want: Option<CorrId>) -> Replies {
        let codec = world.codec();
        let mut out = Replies::default();
        for (_, bytes) in self.endpoint(world).take_inbox() {
            if let Ok(Envelope::Response { corr, rsp }) = Envelope::decode_with(codec, &bytes) {
                if corr == CorrId(0) {
                    out.pushes.push(rsp);
                } else if Some(corr) == want && out.reply.is_none() {
                    out.reply = Some(rsp);
                } else {
                    out.others.push((corr, rsp));
                }
            }
        }
        out
    }

    /// Sends `msg`, runs the world for `wait` ticks, and drains awaiting
    /// its reply.
    pub fn request(&mut self, world: &mut World, msg: Message, wait: u64) -> Replies {
        let corr = self.send(world, msg);
        world.run_for(wait);
        self.drain(world, Some(corr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{attacker_login, WorldBuilder};
    use rb_core::vendors;
    use rb_netsim::{LinkQuality, NodeConfig, Simulation, TraceEvent};

    #[test]
    fn queued_frames_are_sent_and_replies_collected() {
        let mut sim = Simulation::with_quality(1, LinkQuality::perfect(), LinkQuality::perfect());
        struct Echo;
        impl Actor for Echo {
            fn on_packet(&mut self, ctx: &mut Ctx<'_>, from: NodeId, payload: &[u8]) {
                ctx.send(Dest::Unicast(from), payload.to_vec());
            }
        }
        let echo = sim.add_node(NodeConfig::wan_only("echo"), Box::new(Echo));
        let raw = sim.add_node(NodeConfig::wan_only("raw"), Box::new(RawEndpoint::new()));
        sim.actor_mut::<RawEndpoint>(raw)
            .unwrap()
            .queue(Dest::Unicast(echo), vec![1, 2, 3]);
        sim.run_until(Tick(100));
        let endpoint = sim.actor_mut::<RawEndpoint>(raw).unwrap();
        let inbox = endpoint.take_inbox();
        assert_eq!(inbox, vec![(echo, Bytes::from(vec![1, 2, 3]))]);
        assert!(endpoint.inbox.is_empty(), "take_inbox drains");
    }

    #[test]
    fn frame_queued_before_the_first_run_goes_out_at_tick_one() {
        let mut sim = Simulation::with_quality(2, LinkQuality::perfect(), LinkQuality::perfect());
        sim.enable_trace();
        let sink = sim.add_node(NodeConfig::wan_only("sink"), Box::new(RawEndpoint::new()));
        let raw = sim.add_node(NodeConfig::wan_only("raw"), Box::new(RawEndpoint::new()));
        // Queued before `on_start` has run: the first arm must see it.
        sim.actor_mut::<RawEndpoint>(raw)
            .unwrap()
            .queue(Dest::Unicast(sink), vec![7]);
        sim.run_until(Tick(1_000));
        let sent: Vec<Tick> = sim
            .trace()
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::Sent { .. }))
            .map(|e| e.at)
            .collect();
        assert_eq!(sent, vec![Tick(1)]);
        // Then both endpoints idle: nothing real stays queued.
        assert!(sim.is_idle());
        // A frame queued between runs goes out on the next tick.
        sim.actor_mut::<RawEndpoint>(raw)
            .unwrap()
            .queue(Dest::Unicast(sink), vec![8]);
        sim.run_until(Tick(1_010));
        let inbox = sim.actor_mut::<RawEndpoint>(sink).unwrap().take_inbox();
        assert_eq!(
            inbox,
            vec![(raw, Bytes::from(vec![7])), (raw, Bytes::from(vec![8]))]
        );
        assert!(sim
            .trace()
            .iter()
            .any(|e| e.at == Tick(1_001) && matches!(e.event, TraceEvent::Sent { .. })));
    }

    #[test]
    fn client_returns_the_reply_with_the_matching_corr() {
        let mut world = WorldBuilder::new(vendors::tp_link(), 3).build();
        let mut client = RawClient::default();
        let replies = client.request(&mut world, attacker_login(), 2_000);
        assert!(
            matches!(replies.reply, Some(Response::LoginOk { .. })),
            "{replies:?}"
        );
        assert!(replies.pushes.is_empty() && replies.others.is_empty());
    }

    #[test]
    fn client_hands_back_pushes_and_stale_replies() {
        let mut world = WorldBuilder::new(vendors::tp_link(), 3).build();
        let mut client = RawClient::default();
        // An unawaited request whose reply turns stale, plus a push.
        let stale = client.send(&mut world, attacker_login());
        world.run_for(2_000);
        let push = Envelope::Response {
            corr: CorrId(0),
            rsp: Response::Unbound,
        };
        let frame = push.encode_with(world.codec());
        let cloud = world.cloud;
        client.endpoint(&mut world).inbox.push((cloud, frame));
        let replies = client.request(&mut world, attacker_login(), 2_000);
        assert!(matches!(replies.reply, Some(Response::LoginOk { .. })));
        assert_eq!(replies.pushes, vec![Response::Unbound]);
        assert_eq!(replies.others.len(), 1);
        assert_eq!(replies.others[0].0, stale);
        assert!(matches!(replies.others[0].1, Response::LoginOk { .. }));
    }

    #[test]
    fn home_console_speaks_the_world_codec() {
        let mut world = WorldBuilder::new(vendors::tp_link(), 3)
            .with_codec(rb_wire::codec::CodecKind::Compact)
            .victim_paused()
            .build();
        let node = world.add_home_console(0);
        let login = Message::Login {
            user_id: world.homes[0].user_id.clone(),
            user_pw: world.homes[0].user_pw.clone(),
        };
        let replies = RawClient::at(node).request(&mut world, login, 2_000);
        assert!(
            matches!(replies.reply, Some(Response::LoginOk { .. })),
            "{replies:?}"
        );
    }
}
