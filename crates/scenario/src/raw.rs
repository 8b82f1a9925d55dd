//! A raw, externally steered network endpoint — the attacker's vantage
//! point.
//!
//! The attack engine works like the paper's authors did with Postman and
//! raw sockets: craft bytes, send them, read what comes back. A
//! [`RawEndpoint`] holds an outbox that external code fills between
//! simulation runs and an inbox of everything received.

use std::collections::VecDeque;

use rb_netsim::{Actor, Ctx, Dest, NodeId, Tick, TimerKey};

const TIMER_DRAIN: TimerKey = 1;

/// An actor with no protocol of its own: it transmits whatever was queued
/// and records whatever arrives.
#[derive(Debug, Default)]
pub struct RawEndpoint {
    outbox: VecDeque<(Dest, Vec<u8>)>,
    /// Everything received: `(sender, payload)`.
    pub inbox: Vec<(NodeId, Vec<u8>)>,
}

impl RawEndpoint {
    /// An empty endpoint.
    pub fn new() -> Self {
        RawEndpoint::default()
    }

    /// Queues a frame for transmission on the next tick.
    pub fn queue(&mut self, dest: Dest, payload: Vec<u8>) {
        self.outbox.push_back((dest, payload));
    }

    /// Drains and returns the inbox.
    pub fn take_inbox(&mut self) -> Vec<(NodeId, Vec<u8>)> {
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

    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, from: NodeId, payload: &[u8]) {
        self.inbox.push((from, payload.to_vec()));
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

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(inbox, vec![(echo, vec![1, 2, 3])]);
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
        assert_eq!(inbox, vec![(raw, vec![7]), (raw, vec![8])]);
        assert!(sim
            .trace()
            .iter()
            .any(|e| e.at == Tick(1_001) && matches!(e.event, TraceEvent::Sent { .. })));
    }
}
