//! Golden `Display` strings and JSON round-trips for every `TraceEvent`
//! variant, so exporter formats cannot drift silently. The chaos golden
//! trace, the telemetry goldens, the forensic timeline, and every
//! experiment that greps rendered traces all depend on these exact shapes.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use rb_netsim::{NodeId, Tick, TraceCtx, TraceEntry, TraceEvent};

fn ctx(trace_id: u64, span_id: u64, parent_span_id: u64) -> TraceCtx {
    TraceCtx {
        trace_id,
        span_id,
        parent_span_id,
    }
}

/// One exemplar of every variant (including the PR-2 `Fault` and the PR-4
/// `Mark`), with its pinned `Display` rendering and canonical JSON
/// encoding.
fn exemplars() -> Vec<(TraceEntry, &'static str, &'static str)> {
    vec![
        (
            TraceEntry {
                at: Tick(3),
                event: TraceEvent::Sent {
                    from: NodeId(1),
                    to: NodeId(2),
                    bytes: 10,
                    ctx: ctx(1, 4, 0),
                },
            },
            "t3 n1 -> n2 sent 10B [1:4]",
            r#"{"at":3,"kind":"sent","from":1,"to":2,"bytes":10,"trace":1,"span":4,"parent":0}"#,
        ),
        (
            TraceEntry {
                at: Tick(4),
                event: TraceEvent::Delivered {
                    from: NodeId(1),
                    to: NodeId(2),
                    bytes: 128,
                    ctx: ctx(1, 4, 0),
                },
            },
            "t4 n1 -> n2 delivered 128B [1:4]",
            r#"{"at":4,"kind":"delivered","from":1,"to":2,"bytes":128,"trace":1,"span":4,"parent":0}"#,
        ),
        (
            TraceEntry {
                at: Tick(9),
                event: TraceEvent::Dropped {
                    from: NodeId(0),
                    to: NodeId(7),
                    bytes: 33,
                    ctx: ctx(2, 6, 4),
                },
            },
            "t9 n0 -> n7 DROPPED 33B [2:6<4]",
            r#"{"at":9,"kind":"dropped","from":0,"to":7,"bytes":33,"trace":2,"span":6,"parent":4}"#,
        ),
        (
            TraceEntry {
                at: Tick(12),
                event: TraceEvent::Unroutable {
                    from: NodeId(9),
                    to: NodeId(1),
                    bytes: 21,
                    ctx: ctx(3, 7, 0),
                },
            },
            "t12 n9 -> n1 UNROUTABLE 21B [3:7]",
            r#"{"at":12,"kind":"unroutable","from":9,"to":1,"bytes":21,"trace":3,"span":7,"parent":0}"#,
        ),
        (
            TraceEntry {
                at: Tick(50),
                event: TraceEvent::Power {
                    node: NodeId(3),
                    powered: false,
                },
            },
            "t50 n3 power=off",
            r#"{"at":50,"kind":"power","node":3,"powered":false}"#,
        ),
        (
            TraceEntry {
                at: Tick(51),
                event: TraceEvent::Power {
                    node: NodeId(3),
                    powered: true,
                },
            },
            "t51 n3 power=on",
            r#"{"at":51,"kind":"power","node":3,"powered":true}"#,
        ),
        (
            TraceEntry {
                at: Tick(60),
                event: TraceEvent::Note {
                    node: NodeId(2),
                    text: "button pressed".to_string(),
                },
            },
            "t60 n2 note: button pressed",
            r#"{"at":60,"kind":"note","node":2,"text":"button pressed"}"#,
        ),
        (
            TraceEntry {
                at: Tick(61),
                event: TraceEvent::Mark {
                    node: NodeId(0),
                    text: "shadow dev=d1 from=control to=online".to_string(),
                    ctx: ctx(5, 11, 9),
                },
            },
            "t61 n0 mark: shadow dev=d1 from=control to=online [5:11<9]",
            r#"{"at":61,"kind":"mark","node":0,"text":"shadow dev=d1 from=control to=online","trace":5,"span":11,"parent":9}"#,
        ),
        (
            TraceEntry {
                at: Tick(75),
                event: TraceEvent::Fault {
                    text: "wan-partition n4 on".to_string(),
                },
            },
            "t75 FAULT wan-partition n4 on",
            r#"{"at":75,"kind":"fault","text":"wan-partition n4 on"}"#,
        ),
    ]
}

#[test]
fn display_goldens_cover_every_variant() {
    for (entry, display, _) in exemplars() {
        assert_eq!(entry.to_string(), display);
    }
}

#[test]
fn json_encodings_are_pinned() {
    for (entry, _, json) in exemplars() {
        assert_eq!(entry.to_json(), json);
    }
}

#[test]
fn json_round_trips_every_variant() {
    for (entry, _, _) in exemplars() {
        let decoded = TraceEntry::from_json(&entry.to_json()).unwrap();
        assert_eq!(decoded, entry);
    }
}

#[test]
fn json_round_trips_hostile_text() {
    // Note/Fault/Mark payloads are free-form: quotes, backslashes,
    // newlines, control bytes, and non-ASCII must all survive the codec.
    for text in ["say \"hi\"", "a\\b", "line1\nline2\ttab", "π → ∞", "\u{1}"] {
        let entry = TraceEntry {
            at: Tick(1),
            event: TraceEvent::Fault {
                text: text.to_string(),
            },
        };
        assert_eq!(TraceEntry::from_json(&entry.to_json()).unwrap(), entry);
        let entry = TraceEntry {
            at: Tick(2),
            event: TraceEvent::Note {
                node: NodeId(5),
                text: text.to_string(),
            },
        };
        assert_eq!(TraceEntry::from_json(&entry.to_json()).unwrap(), entry);
        let entry = TraceEntry {
            at: Tick(3),
            event: TraceEvent::Mark {
                node: NodeId(5),
                text: text.to_string(),
                ctx: ctx(9, 12, 0),
            },
        };
        assert_eq!(TraceEntry::from_json(&entry.to_json()).unwrap(), entry);
    }
}

#[test]
fn parser_accepts_reordered_fields_and_whitespace() {
    let entry = TraceEntry::from_json(
        " { \"kind\" : \"sent\" , \"to\" : 2 , \"span\" : 5 , \"from\" : 1 , \"bytes\" : 7 , \"trace\" : 2 , \"at\" : 3 , \"parent\" : 1 } ",
    )
    .unwrap();
    assert_eq!(
        entry,
        TraceEntry {
            at: Tick(3),
            event: TraceEvent::Sent {
                from: NodeId(1),
                to: NodeId(2),
                bytes: 7,
                ctx: ctx(2, 5, 1),
            },
        }
    );
}

#[test]
fn parser_defaults_absent_context_and_drop_bytes_to_zero() {
    // Pre-PR-4 encodings carried no trace context and no bytes on
    // Dropped/Unroutable: they must still decode (absent fields take
    // their defaults), landing at ctx zero / 0 bytes.
    let entry =
        TraceEntry::from_json(r#"{"at":3,"kind":"sent","from":1,"to":2,"bytes":10}"#).unwrap();
    assert_eq!(
        entry.event,
        TraceEvent::Sent {
            from: NodeId(1),
            to: NodeId(2),
            bytes: 10,
            ctx: TraceCtx::default(),
        }
    );
    let entry = TraceEntry::from_json(r#"{"at":9,"kind":"dropped","from":0,"to":7}"#).unwrap();
    assert_eq!(
        entry.event,
        TraceEvent::Dropped {
            from: NodeId(0),
            to: NodeId(7),
            bytes: 0,
            ctx: TraceCtx::default(),
        }
    );
    let entry = TraceEntry::from_json(r#"{"at":9,"kind":"unroutable","from":4,"to":5}"#).unwrap();
    assert_eq!(
        entry.event,
        TraceEvent::Unroutable {
            from: NodeId(4),
            to: NodeId(5),
            bytes: 0,
            ctx: TraceCtx::default(),
        }
    );
}

#[test]
fn parser_rejects_malformed_input() {
    for bad in [
        "",
        "{}",
        r#"{"at":1}"#,
        r#"{"at":1,"kind":"sent","from":1,"to":2}"#,
        r#"{"at":1,"kind":"warp","from":1,"to":2}"#,
        r#"{"at":1,"kind":"fault","text":"x"} trailing"#,
        r#"{"at":1,"kind":"fault","text":"x","mystery":2}"#,
        r#"{"at":1,"kind":"mark","node":1}"#,
        r#"{"at":9999999999999,"kind":"power","node":4294967296,"powered":true}"#,
        r#"{"at":1,"kind":"note","node":1,"text":"bad \q escape"}"#,
    ] {
        assert!(
            TraceEntry::from_json(bad).is_err(),
            "accepted malformed input: {bad}"
        );
    }
}

#[test]
fn live_sim_trace_round_trips_through_json() {
    // An end-to-end check over a real traced run: every entry the engine
    // emits survives encode/decode unchanged.
    use rb_netsim::{Actor, Ctx, Dest, NodeConfig, Simulation};

    struct Chatter {
        peer: Option<NodeId>,
    }
    impl Actor for Chatter {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            if let Some(peer) = self.peer {
                ctx.send(Dest::Unicast(peer), vec![0xAB; 16]);
            }
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, _payload: &[u8]) {
            ctx.mark("got one");
        }
    }

    let mut sim = Simulation::new(11);
    sim.enable_trace();
    let a = sim.add_node(NodeConfig::wan_only("a"), Box::new(Chatter { peer: None }));
    let _b = sim.add_node(
        NodeConfig::wan_only("b"),
        Box::new(Chatter { peer: Some(a) }),
    );
    sim.note(a, "hello \"world\"");
    sim.run_for(1_000);
    sim.set_power(a, false);
    sim.run_for(10);
    assert!(!sim.trace().is_empty());
    for entry in sim.trace() {
        let decoded = TraceEntry::from_json(&entry.to_json()).unwrap();
        assert_eq!(&decoded, entry);
    }
    // The mark emitted while handling the delivered packet carries that
    // packet's exact context.
    let delivered = sim
        .trace()
        .iter()
        .find_map(|e| match &e.event {
            TraceEvent::Delivered { ctx, .. } => Some(*ctx),
            _ => None,
        })
        .unwrap();
    assert!(sim.trace().iter().any(
        |e| matches!(&e.event, TraceEvent::Mark { ctx, text, .. } if *ctx == delivered && text == "got one")
    ));
}

#[test]
fn causal_propagation_builds_request_reply_trees() {
    // A request/response pair: the reply's span must be a child of the
    // request's span within the same trace; the request is a root.
    use rb_netsim::{Actor, Ctx, Dest, NodeConfig, Simulation};

    struct Echo;
    impl Actor for Echo {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, from: NodeId, payload: &[u8]) {
            ctx.send(Dest::Unicast(from), payload.to_vec());
        }
    }
    struct Caller {
        peer: NodeId,
    }
    impl Actor for Caller {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(5, 1);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _key: u64) {
            ctx.send(Dest::Unicast(self.peer), vec![1, 2, 3]);
        }
    }

    let mut sim = Simulation::new(7);
    sim.enable_trace();
    let echo = sim.add_node(NodeConfig::wan_only("echo"), Box::new(Echo));
    let _caller = sim.add_node(
        NodeConfig::wan_only("caller"),
        Box::new(Caller { peer: echo }),
    );
    sim.run_for(1_000);

    let sents: Vec<TraceCtx> = sim
        .trace()
        .iter()
        .filter_map(|e| match &e.event {
            TraceEvent::Sent { ctx, .. } => Some(*ctx),
            _ => None,
        })
        .collect();
    assert_eq!(sents.len(), 2, "request + reply");
    let (request, reply) = (sents[0], sents[1]);
    assert!(request.is_root(), "timer-driven send roots a fresh trace");
    assert_eq!(reply.trace_id, request.trace_id, "same causal tree");
    assert_eq!(
        reply.parent_span_id, request.span_id,
        "reply is a child of the request"
    );
    assert_ne!(reply.span_id, request.span_id);
}
