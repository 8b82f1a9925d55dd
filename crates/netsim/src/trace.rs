//! Execution tracing for experiments and figures.

use std::fmt;

use crate::time::Tick;
use crate::topology::NodeId;

/// The causal context a packet (or mark) carries through the simulation.
///
/// Every packet injected into the engine gets one: `trace_id` names the
/// causal tree the packet belongs to, `span_id` uniquely names this packet
/// within the run, and `parent_span_id` points at the span whose handling
/// caused the send (`0` for a root — a send from `on_start`/`on_timer`,
/// i.e. a fresh user action, heartbeat, or forged frame). Sends made while
/// handling a delivered packet inherit that packet's trace and become its
/// children, so one user action — or one forged message — reconstructs as
/// one causal tree spanning app → cloud → device and back.
///
/// Ids are allocated by deterministic counters in the simulator and never
/// draw randomness, so identical seeds produce identical trees.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct TraceCtx {
    /// The causal tree this event belongs to (1-based; 0 = untraced).
    pub trace_id: u64,
    /// This event's own span (1-based, unique per run; 0 = untraced).
    pub span_id: u64,
    /// The span whose handling caused this event (0 = root).
    pub parent_span_id: u64,
}

impl TraceCtx {
    /// Whether this span is a causal root (nothing in the simulation
    /// caused it: a timer tick, a start-of-world send, or an injected
    /// frame).
    pub fn is_root(&self) -> bool {
        self.parent_span_id == 0
    }
}

impl fmt::Display for TraceCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.parent_span_id == 0 {
            write!(f, "{}:{}", self.trace_id, self.span_id)
        } else {
            write!(
                f,
                "{}:{}<{}",
                self.trace_id, self.span_id, self.parent_span_id
            )
        }
    }
}

/// What happened at one traced instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A packet left a node.
    Sent {
        /// Sender.
        from: NodeId,
        /// Receiver (individual delivery; broadcasts appear once per
        /// recipient).
        to: NodeId,
        /// Payload size in bytes.
        bytes: usize,
        /// Causal context of the packet.
        ctx: TraceCtx,
    },
    /// A packet arrived at a node.
    Delivered {
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// Payload size in bytes.
        bytes: usize,
        /// Causal context of the packet (same span as its `Sent`).
        ctx: TraceCtx,
    },
    /// A packet was lost in transit.
    Dropped {
        /// Sender.
        from: NodeId,
        /// Intended receiver.
        to: NodeId,
        /// Payload size in bytes (lost on the wire).
        bytes: usize,
        /// Causal context of the packet.
        ctx: TraceCtx,
    },
    /// A packet could not be routed (no connectivity between the nodes).
    Unroutable {
        /// Sender.
        from: NodeId,
        /// Intended receiver.
        to: NodeId,
        /// Payload size in bytes (never left the sender).
        bytes: usize,
        /// Causal context of the packet.
        ctx: TraceCtx,
    },
    /// A node's power state changed.
    Power {
        /// The node.
        node: NodeId,
        /// New state.
        powered: bool,
    },
    /// A free-form annotation emitted by an actor or the harness.
    Note {
        /// Node the note concerns.
        node: NodeId,
        /// Text of the note.
        text: String,
    },
    /// A structured, causally-attributed annotation emitted by an actor
    /// via `Ctx::mark` — the forensic breadcrumbs (rpc outcomes, shadow
    /// transitions, pushes) that `rb-forensics` reconstructs attacks from.
    Mark {
        /// Node that emitted the mark.
        node: NodeId,
        /// Text of the mark (`rpc …`, `shadow …`, `push …`).
        text: String,
        /// Causal context: the delivered packet whose handling emitted the
        /// mark, or a fresh root for timer-driven marks (e.g. expiry).
        ctx: TraceCtx,
    },
    /// An injected fault took effect (see `rb_netsim::Fault`).
    Fault {
        /// Human-readable description of the fault.
        text: String,
    },
}

/// A timestamped trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// When it happened.
    pub at: Tick,
    /// What happened.
    pub event: TraceEvent,
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.event {
            TraceEvent::Sent {
                from,
                to,
                bytes,
                ctx,
            } => {
                write!(f, "{} {from} -> {to} sent {bytes}B [{ctx}]", self.at)
            }
            TraceEvent::Delivered {
                from,
                to,
                bytes,
                ctx,
            } => {
                write!(f, "{} {from} -> {to} delivered {bytes}B [{ctx}]", self.at)
            }
            TraceEvent::Dropped {
                from,
                to,
                bytes,
                ctx,
            } => {
                write!(f, "{} {from} -> {to} DROPPED {bytes}B [{ctx}]", self.at)
            }
            TraceEvent::Unroutable {
                from,
                to,
                bytes,
                ctx,
            } => {
                write!(f, "{} {from} -> {to} UNROUTABLE {bytes}B [{ctx}]", self.at)
            }
            TraceEvent::Power { node, powered } => {
                write!(
                    f,
                    "{} {node} power={}",
                    self.at,
                    if *powered { "on" } else { "off" }
                )
            }
            TraceEvent::Note { node, text } => write!(f, "{} {node} note: {text}", self.at),
            TraceEvent::Mark { node, text, ctx } => {
                write!(f, "{} {node} mark: {text} [{ctx}]", self.at)
            }
            TraceEvent::Fault { text } => write!(f, "{} FAULT {text}", self.at),
        }
    }
}

/// Error from [`TraceEntry::from_json`].
///
/// Carries a human-readable description of the first malformed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace parse error: {}", self.message)
    }
}

impl std::error::Error for TraceParseError {}

fn parse_err(message: impl Into<String>) -> TraceParseError {
    TraceParseError {
        message: message.into(),
    }
}

/// One parsed JSON scalar (the codec only ever needs these three shapes).
enum Scalar {
    Num(u64),
    Bool(bool),
    Str(String),
}

/// Minimal cursor over the canonical encoding [`TraceEntry::to_json`]
/// produces (one flat object of string/number/bool fields). Field order
/// is not significant; unknown fields are rejected.
struct Cursor<'a> {
    rest: &'a str,
}

impl<'a> Cursor<'a> {
    fn skip_ws(&mut self) {
        self.rest = self.rest.trim_start();
    }

    fn eat(&mut self, token: char) -> Result<(), TraceParseError> {
        self.skip_ws();
        match self.rest.strip_prefix(token) {
            Some(rest) => {
                self.rest = rest;
                Ok(())
            }
            None => Err(parse_err(format!(
                "expected '{token}' at \"{}\"",
                self.rest.chars().take(12).collect::<String>()
            ))),
        }
    }

    /// Parses a quoted JSON string (cursor must sit at the opening quote).
    fn parse_string(&mut self) -> Result<String, TraceParseError> {
        self.eat('"')?;
        let mut escaped = false;
        for (idx, c) in self.rest.char_indices() {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                let raw = &self.rest[..idx];
                self.rest = &self.rest[idx + 1..];
                return rb_telemetry::json::unescape(raw)
                    .ok_or_else(|| parse_err(format!("bad string escape in \"{raw}\"")));
            }
        }
        Err(parse_err("unterminated string"))
    }

    fn parse_scalar(&mut self) -> Result<Scalar, TraceParseError> {
        self.skip_ws();
        match self.rest.chars().next() {
            Some('"') => self.parse_string().map(Scalar::Str),
            Some('t') | Some('f') => {
                if let Some(rest) = self.rest.strip_prefix("true") {
                    self.rest = rest;
                    Ok(Scalar::Bool(true))
                } else if let Some(rest) = self.rest.strip_prefix("false") {
                    self.rest = rest;
                    Ok(Scalar::Bool(false))
                } else {
                    Err(parse_err("expected boolean"))
                }
            }
            Some(c) if c.is_ascii_digit() => {
                let digits = self
                    .rest
                    .find(|c: char| !c.is_ascii_digit())
                    .unwrap_or(self.rest.len());
                let (num, rest) = self.rest.split_at(digits);
                self.rest = rest;
                num.parse::<u64>()
                    .map(Scalar::Num)
                    .map_err(|e| parse_err(format!("bad number {num}: {e}")))
            }
            _ => Err(parse_err(format!(
                "expected value at \"{}\"",
                self.rest.chars().take(12).collect::<String>()
            ))),
        }
    }
}

impl TraceEntry {
    /// Canonical single-line JSON encoding, e.g.
    /// `{"at":3,"kind":"sent","from":1,"to":2,"bytes":10}`. The inverse of
    /// [`TraceEntry::from_json`]; used by exporters so goldens stay
    /// byte-stable. (The repo has no serialization dependency, so this
    /// codec is written by hand.)
    pub fn to_json(&self) -> String {
        let at = self.at.as_u64();
        let ctx_fields = |ctx: &TraceCtx| {
            format!(
                "\"trace\":{},\"span\":{},\"parent\":{}",
                ctx.trace_id, ctx.span_id, ctx.parent_span_id
            )
        };
        match &self.event {
            TraceEvent::Sent {
                from,
                to,
                bytes,
                ctx,
            } => format!(
                "{{\"at\":{at},\"kind\":\"sent\",\"from\":{},\"to\":{},\"bytes\":{bytes},{}}}",
                from.0,
                to.0,
                ctx_fields(ctx)
            ),
            TraceEvent::Delivered {
                from,
                to,
                bytes,
                ctx,
            } => format!(
                "{{\"at\":{at},\"kind\":\"delivered\",\"from\":{},\"to\":{},\"bytes\":{bytes},{}}}",
                from.0,
                to.0,
                ctx_fields(ctx)
            ),
            TraceEvent::Dropped {
                from,
                to,
                bytes,
                ctx,
            } => format!(
                "{{\"at\":{at},\"kind\":\"dropped\",\"from\":{},\"to\":{},\"bytes\":{bytes},{}}}",
                from.0,
                to.0,
                ctx_fields(ctx)
            ),
            TraceEvent::Unroutable {
                from,
                to,
                bytes,
                ctx,
            } => format!(
                "{{\"at\":{at},\"kind\":\"unroutable\",\"from\":{},\"to\":{},\"bytes\":{bytes},{}}}",
                from.0,
                to.0,
                ctx_fields(ctx)
            ),
            TraceEvent::Power { node, powered } => format!(
                "{{\"at\":{at},\"kind\":\"power\",\"node\":{},\"powered\":{powered}}}",
                node.0
            ),
            TraceEvent::Note { node, text } => format!(
                "{{\"at\":{at},\"kind\":\"note\",\"node\":{},\"text\":\"{}\"}}",
                node.0,
                rb_telemetry::json::escape(text)
            ),
            TraceEvent::Mark { node, text, ctx } => format!(
                "{{\"at\":{at},\"kind\":\"mark\",\"node\":{},\"text\":\"{}\",{}}}",
                node.0,
                rb_telemetry::json::escape(text),
                ctx_fields(ctx)
            ),
            TraceEvent::Fault { text } => format!(
                "{{\"at\":{at},\"kind\":\"fault\",\"text\":\"{}\"}}",
                rb_telemetry::json::escape(text)
            ),
        }
    }

    /// Parses the encoding produced by [`TraceEntry::to_json`]. Fields may
    /// appear in any order; missing, repeated-with-conflict, or unknown
    /// fields are errors.
    pub fn from_json(input: &str) -> Result<TraceEntry, TraceParseError> {
        let mut cur = Cursor { rest: input };
        cur.eat('{')?;
        let (mut at, mut kind, mut from, mut to) = (None, None, None, None);
        let (mut bytes, mut node, mut powered, mut text) = (None, None, None, None);
        let (mut trace, mut span, mut parent) = (None, None, None);
        loop {
            let key = cur.parse_string()?;
            cur.eat(':')?;
            let value = cur.parse_scalar()?;
            match (key.as_str(), value) {
                ("at", Scalar::Num(n)) => at = Some(n),
                ("kind", Scalar::Str(s)) => kind = Some(s),
                ("from", Scalar::Num(n)) => from = Some(n),
                ("to", Scalar::Num(n)) => to = Some(n),
                ("bytes", Scalar::Num(n)) => bytes = Some(n),
                ("node", Scalar::Num(n)) => node = Some(n),
                ("powered", Scalar::Bool(b)) => powered = Some(b),
                ("text", Scalar::Str(s)) => text = Some(s),
                ("trace", Scalar::Num(n)) => trace = Some(n),
                ("span", Scalar::Num(n)) => span = Some(n),
                ("parent", Scalar::Num(n)) => parent = Some(n),
                (other, _) => {
                    return Err(parse_err(format!("unexpected field \"{other}\"")));
                }
            }
            cur.skip_ws();
            if cur.rest.starts_with(',') {
                cur.eat(',')?;
            } else {
                break;
            }
        }
        cur.eat('}')?;
        cur.skip_ws();
        if !cur.rest.is_empty() {
            return Err(parse_err("trailing data after entry"));
        }
        let at = Tick(at.ok_or_else(|| parse_err("missing \"at\""))?);
        let node_id = |n: Option<u64>, field: &str| {
            let n = n.ok_or_else(|| parse_err(format!("missing \"{field}\"")))?;
            u32::try_from(n)
                .map(NodeId)
                .map_err(|_| parse_err(format!("\"{field}\" out of range")))
        };
        let byte_count = |n: Option<u64>| {
            let n = n.ok_or_else(|| parse_err("missing \"bytes\""))?;
            usize::try_from(n).map_err(|_| parse_err("\"bytes\" out of range"))
        };
        // Pre-causal-tracing encodings carried no context (and no bytes on
        // drops); absent fields decode to zero so archived traces still load.
        let ctx = TraceCtx {
            trace_id: trace.unwrap_or(0),
            span_id: span.unwrap_or(0),
            parent_span_id: parent.unwrap_or(0),
        };
        let lost_bytes = match bytes {
            Some(n) => usize::try_from(n).map_err(|_| parse_err("\"bytes\" out of range"))?,
            None => 0,
        };
        let event = match kind.as_deref() {
            Some("sent") => TraceEvent::Sent {
                from: node_id(from, "from")?,
                to: node_id(to, "to")?,
                bytes: byte_count(bytes)?,
                ctx,
            },
            Some("delivered") => TraceEvent::Delivered {
                from: node_id(from, "from")?,
                to: node_id(to, "to")?,
                bytes: byte_count(bytes)?,
                ctx,
            },
            Some("dropped") => TraceEvent::Dropped {
                from: node_id(from, "from")?,
                to: node_id(to, "to")?,
                bytes: lost_bytes,
                ctx,
            },
            Some("unroutable") => TraceEvent::Unroutable {
                from: node_id(from, "from")?,
                to: node_id(to, "to")?,
                bytes: lost_bytes,
                ctx,
            },
            Some("power") => TraceEvent::Power {
                node: node_id(node, "node")?,
                powered: powered.ok_or_else(|| parse_err("missing \"powered\""))?,
            },
            Some("note") => TraceEvent::Note {
                node: node_id(node, "node")?,
                text: text.ok_or_else(|| parse_err("missing \"text\""))?,
            },
            Some("mark") => TraceEvent::Mark {
                node: node_id(node, "node")?,
                text: text.ok_or_else(|| parse_err("missing \"text\""))?,
                ctx,
            },
            Some("fault") => TraceEvent::Fault {
                text: text.ok_or_else(|| parse_err("missing \"text\""))?,
            },
            Some(other) => return Err(parse_err(format!("unknown kind \"{other}\""))),
            None => return Err(parse_err("missing \"kind\"")),
        };
        Ok(TraceEntry { at, event })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = TraceEntry {
            at: Tick(3),
            event: TraceEvent::Sent {
                from: NodeId(1),
                to: NodeId(2),
                bytes: 10,
                ctx: TraceCtx {
                    trace_id: 1,
                    span_id: 4,
                    parent_span_id: 2,
                },
            },
        };
        assert_eq!(e.to_string(), "t3 n1 -> n2 sent 10B [1:4<2]");
        let e = TraceEntry {
            at: Tick(4),
            event: TraceEvent::Unroutable {
                from: NodeId(9),
                to: NodeId(1),
                bytes: 7,
                ctx: TraceCtx::default(),
            },
        };
        assert!(e.to_string().contains("UNROUTABLE 7B"));
        let e = TraceEntry {
            at: Tick(5),
            event: TraceEvent::Power {
                node: NodeId(1),
                powered: false,
            },
        };
        assert!(e.to_string().ends_with("power=off"));
    }

    #[test]
    fn ctx_display_marks_roots() {
        let root = TraceCtx {
            trace_id: 3,
            span_id: 9,
            parent_span_id: 0,
        };
        assert_eq!(root.to_string(), "3:9");
        assert!(root.is_root());
        let child = TraceCtx {
            trace_id: 3,
            span_id: 10,
            parent_span_id: 9,
        };
        assert_eq!(child.to_string(), "3:10<9");
        assert!(!child.is_root());
    }
}
