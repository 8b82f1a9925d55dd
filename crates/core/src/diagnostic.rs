//! The typed diagnostic model, shared by every verdict-producing engine.
//!
//! A [`Diagnostic`] is one finding of one rule on one design: a stable
//! rule ID, a severity, a *span* naming the exact design field (or model
//! property) that triggered it, a message, the taxonomy attacks the
//! finding enables on this particular design, and (where the
//! lessons-learned catalogue has one) a concrete fix-it. A [`LintReport`]
//! is the sorted, deterministic collection of findings for one design.
//!
//! The model lives in `rb-core` so all three semantic engines emit through
//! one surface: the linter (`rb-lint`, rules `RB001`–`RB012`), the
//! checker⇔analyzer cross-check ([`crate::spec::cross_check`], `RB013`),
//! and the exhaustive model checker (`rb-mc`, `RB014`–`RB017`). `rb-lint`
//! re-exports this module unchanged, and its SARIF/JSON/human emitters
//! render any of them.

use crate::attacks::AttackId;
use crate::recommend::RecommendationId;
use std::fmt;

/// Stable rule identifiers. The numbering is append-only: rules are
/// never renumbered, so reports and suppressions stay meaningful across
/// versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// Unbind accepted without verifying the requester is the bound user.
    RB001,
    /// Device authenticated by its static ID.
    RB002,
    /// Binding requests replace an existing binding.
    RB003,
    /// Device-ID space is remotely enumerable.
    RB004,
    /// No post-binding session token while hijacked bindings relay control.
    RB005,
    /// Bare `Unbind:DevId` accepted.
    RB006,
    /// User account credentials delivered to the device.
    RB007,
    /// Binding message forgeable by a remote attacker.
    RB008,
    /// A fresh registration revokes the binding.
    RB009,
    /// Online-unbound setup window with a forgeable bind.
    RB010,
    /// Concurrent status sessions accepted for one device ID.
    RB011,
    /// Device-authentication scheme or firmware is opaque to review.
    RB012,
    /// The bounded checker and the static analyzer disagree on a property.
    RB013,
    /// Model checker: a reachable state gives the attacker the binding.
    RB014,
    /// Model checker: a reachable state relays attacker commands to the
    /// real device.
    RB015,
    /// Model checker: an adversarial action destroys a user binding.
    RB016,
    /// Model checker: a reachable state from which the honest user can
    /// never rebind (permanent denial of service).
    RB017,
}

impl RuleId {
    /// Every rule, in report order.
    pub const ALL: [RuleId; 17] = [
        RuleId::RB001,
        RuleId::RB002,
        RuleId::RB003,
        RuleId::RB004,
        RuleId::RB005,
        RuleId::RB006,
        RuleId::RB007,
        RuleId::RB008,
        RuleId::RB009,
        RuleId::RB010,
        RuleId::RB011,
        RuleId::RB012,
        RuleId::RB013,
        RuleId::RB014,
        RuleId::RB015,
        RuleId::RB016,
        RuleId::RB017,
    ];

    /// The syntactic lint rules (the subset `rb-lint`'s registry fires);
    /// the rest belong to the cross-check and the model checker.
    pub const LINT: [RuleId; 12] = [
        RuleId::RB001,
        RuleId::RB002,
        RuleId::RB003,
        RuleId::RB004,
        RuleId::RB005,
        RuleId::RB006,
        RuleId::RB007,
        RuleId::RB008,
        RuleId::RB009,
        RuleId::RB010,
        RuleId::RB011,
        RuleId::RB012,
    ];

    /// The short kebab-case rule name (used in SARIF and human output).
    pub fn name(self) -> &'static str {
        match self {
            RuleId::RB001 => "unbind-without-ownership-check",
            RuleId::RB002 => "static-device-id-auth",
            RuleId::RB003 => "bind-replaces-when-bound",
            RuleId::RB004 => "enumerable-id-space",
            RuleId::RB005 => "missing-post-binding-session",
            RuleId::RB006 => "devid-only-unbind",
            RuleId::RB007 => "user-credentials-on-device",
            RuleId::RB008 => "forgeable-bind-message",
            RuleId::RB009 => "register-resets-binding",
            RuleId::RB010 => "online-first-bind-window",
            RuleId::RB011 => "concurrent-device-sessions",
            RuleId::RB012 => "opaque-attack-surface",
            RuleId::RB013 => "checker-analyzer-disagreement",
            RuleId::RB014 => "mc-attacker-binding",
            RuleId::RB015 => "mc-attacker-control",
            RuleId::RB016 => "mc-user-disconnect",
            RuleId::RB017 => "mc-rebind-livelock",
        }
    }

    /// One-line description of the pattern (or property) the rule detects
    /// — rule metadata for SARIF `rules` entries and registries.
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::RB001 => {
                "unbinding is accepted without checking the requester owns the binding"
            }
            RuleId::RB002 => "the static device ID doubles as the device credential",
            RuleId::RB003 => {
                "binding requests replace an existing binding instead of being rejected"
            }
            RuleId::RB004 => "the device-ID space is small enough to enumerate remotely",
            RuleId::RB005 => "no post-binding session token while stolen bindings relay control",
            RuleId::RB006 => "bare Unbind:DevId is an accepted message",
            RuleId::RB007 => "user account credentials are delivered to the device",
            RuleId::RB008 => "the binding message is forgeable by a remote attacker",
            RuleId::RB009 => "a fresh registration revokes the binding",
            RuleId::RB010 => "the setup flow leaves an online-unbound window with a forgeable bind",
            RuleId::RB011 => "concurrent status sessions are accepted for one device ID",
            RuleId::RB012 => "part of the attack surface is opaque to review",
            RuleId::RB013 => "the bounded checker and the static analyzer disagree on a property",
            RuleId::RB014 => "a reachable protocol state gives the attacker the binding",
            RuleId::RB015 => "a reachable protocol state relays attacker commands to the device",
            RuleId::RB016 => "an adversarial action can destroy an established user binding",
            RuleId::RB017 => "a reachable protocol state permanently locks the user out",
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Debug already prints the stable "RB0xx" form.
        write!(f, "{self:?}")
    }
}

/// Finding severity, ordered most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The finding enables at least one feasible attack on this design.
    Error,
    /// A dangerous pattern that no feasible attack currently exploits
    /// (defense-in-depth finding).
    Warning,
    /// Informational: something the analysis could not see through.
    Note,
}

impl Severity {
    /// The lowercase label (`error` / `warning` / `note`), which is also
    /// the SARIF `level` value.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A concrete remediation drawn from the lessons-learned catalogue
/// ([`crate::recommend`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixIt {
    /// The catalogue entry this fix corresponds to.
    pub recommendation: RecommendationId,
    /// The vendor-specific advice text.
    pub advice: String,
    /// Attacks the fix eliminates on this design (from the catalogue,
    /// which re-runs the analyzer on the patched design).
    pub eliminates: Vec<AttackId>,
}

/// One finding of one rule on one design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule that fired.
    pub rule: RuleId,
    /// Severity on *this* design ([`Severity::Error`] iff the finding is
    /// tied to a feasible attack here).
    pub severity: Severity,
    /// The design field (or model property) that triggered the rule, as a
    /// dotted path (e.g. `checks.verify_unbind_is_bound_user`,
    /// `spec.attacker_bound`).
    pub span: String,
    /// Human-readable description of the finding.
    pub message: String,
    /// Attacks of the taxonomy that are feasible on this design and that
    /// this finding contributes to.
    pub related_attacks: Vec<AttackId>,
    /// A concrete fix, when the lessons-learned catalogue has one.
    pub fix: Option<FixIt>,
}

impl fmt::Display for Diagnostic {
    /// Prints the bare message — the historical string form of findings
    /// that predate the structured model (`spec::cross_check` callers).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// All findings for one design, sorted by `(rule, span)` — the report is a
/// pure function of the design, byte-for-byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintReport {
    /// The linted vendor's name.
    pub vendor: String,
    /// Sorted findings.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Builds a report, enforcing the deterministic ordering.
    pub fn new(vendor: String, mut diagnostics: Vec<Diagnostic>) -> Self {
        diagnostics.sort_by(|a, b| a.rule.cmp(&b.rule).then_with(|| a.span.cmp(&b.span)));
        LintReport {
            vendor,
            diagnostics,
        }
    }

    /// Whether the report has no findings at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of findings at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// The findings that fired a given rule.
    pub fn by_rule(&self, rule: RuleId) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.rule == rule).collect()
    }

    /// Whether some finding lists `attack` among its related attacks — the
    /// property the soundness harness checks for every feasible attack.
    pub fn flags_attack(&self, attack: AttackId) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.related_attacks.contains(&attack))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_display_stably() {
        assert_eq!(RuleId::RB001.to_string(), "RB001");
        assert_eq!(RuleId::RB012.to_string(), "RB012");
        assert_eq!(RuleId::RB017.to_string(), "RB017");
        assert_eq!(RuleId::RB005.name(), "missing-post-binding-session");
        assert_eq!(RuleId::RB014.name(), "mc-attacker-binding");
    }

    #[test]
    fn lint_subset_prefixes_the_full_list() {
        assert_eq!(&RuleId::ALL[..RuleId::LINT.len()], &RuleId::LINT[..]);
        for rule in RuleId::ALL {
            assert!(!rule.summary().is_empty());
            assert!(!rule.name().is_empty());
        }
    }

    #[test]
    fn severity_orders_most_severe_first() {
        assert!(Severity::Error < Severity::Warning);
        assert!(Severity::Warning < Severity::Note);
        assert_eq!(Severity::Warning.label(), "warning");
    }

    #[test]
    fn diagnostic_displays_as_its_message() {
        let d = Diagnostic {
            rule: RuleId::RB013,
            severity: Severity::Error,
            span: "spec.attacker_bound".to_owned(),
            message: "X: ATTACKER-BOUND reachable=true but bind_forgeable=false".to_owned(),
            related_attacks: vec![],
            fix: None,
        };
        assert_eq!(
            d.to_string(),
            "X: ATTACKER-BOUND reachable=true but bind_forgeable=false"
        );
    }

    #[test]
    fn report_sorts_by_rule_then_span() {
        let mk = |rule, span: &str| Diagnostic {
            rule,
            severity: Severity::Warning,
            span: span.to_owned(),
            message: String::new(),
            related_attacks: vec![],
            fix: None,
        };
        let report = LintReport::new(
            "t".into(),
            vec![
                mk(RuleId::RB006, "b"),
                mk(RuleId::RB002, "z"),
                mk(RuleId::RB006, "a"),
            ],
        );
        let order: Vec<(RuleId, &str)> = report
            .diagnostics
            .iter()
            .map(|d| (d.rule, d.span.as_str()))
            .collect();
        assert_eq!(
            order,
            vec![
                (RuleId::RB002, "z"),
                (RuleId::RB006, "a"),
                (RuleId::RB006, "b")
            ]
        );
    }
}
