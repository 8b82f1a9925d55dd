//! Append-only audit log of cloud decisions.

use rb_netsim::{NodeId, Tick};
use rb_wire::messages::{DenyReason, Response};
use std::fmt;

/// What the cloud answered, as the audit log keeps it: the reply's kind,
/// or the reason for a denial. `Copy`, so recording a decision allocates
/// nothing; [`fmt::Display`] prints exactly what the reply's own
/// `Display` prints (`Bound`, `Denied(rate limited)`, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditOutcome {
    /// A non-denial reply, by kind (`Response::kind_str`).
    Reply(&'static str),
    /// A denial and its reason.
    Denied(DenyReason),
}

impl AuditOutcome {
    /// The outcome recorded for `reply`.
    pub fn of(reply: &Response) -> Self {
        match reply {
            Response::Denied { reason } => AuditOutcome::Denied(*reason),
            other => AuditOutcome::Reply(other.kind_str()),
        }
    }

    /// Whether the request was denied.
    pub fn is_denied(self) -> bool {
        matches!(self, AuditOutcome::Denied(_))
    }
}

impl fmt::Display for AuditOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditOutcome::Reply(kind) => f.write_str(kind),
            AuditOutcome::Denied(reason) => write!(f, "Denied({reason})"),
        }
    }
}

/// One audited decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditEntry {
    /// When.
    pub at: Tick,
    /// Requesting node.
    pub from: NodeId,
    /// Request kind (`Message::kind_str`).
    pub request: &'static str,
    /// Response kind, with the deny reason spelled out for denials.
    pub outcome: AuditOutcome,
}

impl fmt::Display for AuditEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} -> {}",
            self.at, self.from, self.request, self.outcome
        )
    }
}

/// Bounded audit log (drops oldest entries beyond the cap).
#[derive(Debug)]
pub struct AuditLog {
    entries: std::collections::VecDeque<AuditEntry>,
    cap: usize,
}

impl AuditLog {
    /// A log bounded at `cap` entries.
    pub fn new(cap: usize) -> Self {
        AuditLog {
            entries: std::collections::VecDeque::new(),
            cap,
        }
    }

    /// Appends an entry, evicting the oldest when full.
    pub fn push(&mut self, entry: AuditEntry) {
        if self.entries.len() == self.cap {
            self.entries.pop_front();
        }
        self.entries.push_back(entry);
    }

    /// All retained entries, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &AuditEntry> {
        self.entries.iter()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Count of denials among retained entries.
    pub fn denials(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.outcome.is_denied())
            .count()
    }
}

impl Default for AuditLog {
    fn default() -> Self {
        AuditLog::new(65_536)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(at: u64, reply: &Response) -> AuditEntry {
        AuditEntry {
            at: Tick(at),
            from: NodeId(1),
            request: "Bind",
            outcome: AuditOutcome::of(reply),
        }
    }

    #[test]
    fn push_and_iterate() {
        let mut log = AuditLog::new(10);
        assert!(log.is_empty());
        log.push(entry(1, &Response::Bound { session: None }));
        log.push(entry(
            2,
            &Response::Denied {
                reason: DenyReason::AlreadyBound,
            },
        ));
        assert_eq!(log.len(), 2);
        assert_eq!(log.denials(), 1);
        let first = log.entries().next().unwrap();
        assert_eq!(first.at, Tick(1));
        assert_eq!(first.to_string(), "t1 n1 Bind -> Bound");
    }

    #[test]
    fn cap_evicts_oldest() {
        let mut log = AuditLog::new(3);
        for i in 0..5 {
            log.push(entry(i, &Response::Unbound));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.entries().next().unwrap().at, Tick(2));
    }

    #[test]
    fn outcome_prints_what_the_reply_prints() {
        let mut replies = vec![
            Response::Bound { session: None },
            Response::Unbound,
            Response::BindingRevoked,
            Response::ShadowState {
                online: true,
                bound: false,
            },
        ];
        replies.extend(
            [
                DenyReason::RateLimited,
                DenyReason::UnknownDevice,
                DenyReason::AlreadyBound,
            ]
            .map(|reason| Response::Denied { reason }),
        );
        for reply in replies {
            let outcome = AuditOutcome::of(&reply);
            assert_eq!(outcome.to_string(), reply.to_string());
            assert_eq!(
                outcome.is_denied(),
                matches!(reply, Response::Denied { .. })
            );
        }
    }
}
