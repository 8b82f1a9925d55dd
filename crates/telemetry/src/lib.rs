//! # rb-telemetry — deterministic observability for the binding stack
//!
//! A zero-`std::time` metrics and tracing layer: every timestamp is a raw
//! simulation tick (`u64`) supplied by the caller, every export walks
//! `BTreeMap`s in key order, and nothing here draws randomness — so two
//! runs of the same `(vendor, seed, chaos profile)` produce *byte-identical*
//! JSON and Prometheus exports. That property is what lets CI diff a
//! pinned golden export and what makes the benches trustworthy.
//!
//! The crate is dependency-free on purpose: `rb-netsim` (the lowest layer
//! of the runtime stack) links against it, so it cannot use `rb-netsim`'s
//! `Tick` newtype without a cycle. Callers pass `Tick::as_u64()`.
//!
//! ## Pieces
//!
//! * [`Registry`] — counters, gauges, fixed-bucket [`Histogram`]s, spans,
//!   and the binding-lifecycle tracker.
//! * [`Telemetry`] — a cheap `Clone + Send + Sync` handle
//!   (`Arc<Mutex<Registry>>`) threaded through the sim, the cloud, both
//!   agents, and the attack executors.
//! * [`span!`] — ergonomic span opening:
//!   `span!(tele, now, "bind", device = id, user = uid)`.
//! * Exporters — [`Registry::to_json`], [`Registry::to_prometheus`],
//!   [`Registry::render_human`].
//!
//! ## Metric naming
//!
//! Prometheus-style: `snake_case` family names, `_total` suffix on
//! counters, `_ticks` on histograms of simulated time, and label sets
//! baked into the key string (`cloud_alerts_total{kind="bare-unbind"}`).
//! Keys sort lexicographically, which fixes the export order.

mod histogram;
mod registry;

pub use histogram::{Histogram, TICK_BUCKETS};
pub use registry::{Registry, SpanId, SpanRecord, StreamEvent};

use std::sync::{Arc, Mutex, PoisonError};

/// Escaping helpers for the hand-rolled JSON writers (the repo has no
/// serialization dependency, so every exporter writes strings by hand).
pub mod json {
    /// Escapes `s` for inclusion inside a JSON string literal.
    pub fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out
    }
}

/// Shared handle onto a [`Registry`].
///
/// Cloning is cheap (one `Arc`); the handle is `Send + Sync` so bench
/// binaries can move worlds across scoped threads. Locking recovers from
/// poison (a panicking test thread must not wedge every other holder).
///
/// A handle built with [`Telemetry::disabled`] records nothing: every
/// write helper returns before touching the lock, so instrumented hot
/// paths (the sim event loop, the cloud dispatcher) cost one branch per
/// event instead of a mutex round-trip plus a map lookup. Fleet sweeps
/// that only need the deterministic cell census run with recording off.
#[derive(Clone, Debug)]
pub struct Telemetry {
    inner: Arc<Mutex<Registry>>,
    enabled: bool,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry {
            inner: Arc::default(),
            enabled: true,
        }
    }
}

impl Telemetry {
    /// A fresh handle over an empty registry.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// A handle that drops every write: recording becomes a single branch,
    /// and exports stay empty. Clones inherit the off switch, so threading
    /// a disabled handle through a world silences every layer at once.
    pub fn disabled() -> Self {
        Telemetry {
            inner: Arc::default(),
            enabled: false,
        }
    }

    /// Whether this handle records at all. Hot paths that format metric
    /// keys before recording should check this first and skip the work.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` with the registry locked. Runs even on a disabled handle
    /// (reads and snapshots must always work); recording call sites should
    /// guard with [`Telemetry::is_enabled`] instead.
    pub fn with<R>(&self, f: impl FnOnce(&mut Registry) -> R) -> R {
        let mut guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut guard)
    }

    /// Increments counter `name` by one.
    pub fn incr(&self, name: &str) {
        self.counter_add(name, 1);
    }

    /// Adds `delta` to counter `name`.
    pub fn counter_add(&self, name: &str, delta: u64) {
        if self.enabled {
            self.with(|r| r.counter_add(name, delta));
        }
    }

    /// Reads counter `name` (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.with(|r| r.counter(name))
    }

    /// Sums counter family `prefix` under the lock, without a snapshot
    /// (see [`Registry::counter_family`]).
    pub fn counter_family(&self, prefix: &str) -> u64 {
        self.with(|r| r.counter_family(prefix))
    }

    /// Sets gauge `name` to `value`.
    pub fn gauge_set(&self, name: &str, value: i64) {
        if self.enabled {
            self.with(|r| r.gauge_set(name, value));
        }
    }

    /// Records `value` into histogram `name`.
    pub fn observe(&self, name: &str, value: u64) {
        if self.enabled {
            self.with(|r| r.observe(name, value));
        }
    }

    /// Opens a span; see [`Registry::start_span`]. On a disabled handle
    /// no span is stored and the returned id is dead.
    pub fn start_span(&self, name: &str, attrs: &[(&str, String)], now: u64) -> SpanId {
        if self.enabled {
            self.with(|r| r.start_span(name, attrs, now))
        } else {
            SpanId::default()
        }
    }

    /// Opens a span with an explicit parent (`None` = root), bypassing
    /// stack inference; see [`Registry::start_span_with_parent`]. On a
    /// disabled handle no span is stored and the returned id is dead.
    pub fn start_span_with_parent(
        &self,
        name: &str,
        attrs: &[(&str, String)],
        now: u64,
        parent: Option<SpanId>,
    ) -> SpanId {
        if self.enabled {
            self.with(|r| r.start_span_with_parent(name, attrs, now, parent))
        } else {
            SpanId::default()
        }
    }

    /// Closes a span; see [`Registry::end_span`].
    pub fn end_span(&self, id: SpanId, now: u64) {
        if self.enabled {
            self.with(|r| r.end_span(id, now));
        }
    }

    /// Records one occurrence of tick-rate series `name` at tick `at`;
    /// see [`Registry::rate_event`].
    pub fn rate_event(&self, name: &str, at: u64) {
        if self.enabled {
            self.with(|r| r.rate_event(name, at));
        }
    }

    /// The sliding-window rate of series `name` over the `window_ticks`
    /// window ending at the series' latest event; see [`Registry::rate`].
    /// Reads work on disabled handles too (they just see zero).
    pub fn rate(&self, name: &str, window_ticks: u64) -> u64 {
        self.with(|r| r.rate(name, window_ticks))
    }

    /// The sliding-window rate of series `name` as of an explicit tick;
    /// see [`Registry::rate_at`].
    pub fn rate_at(&self, name: &str, window_ticks: u64, now: u64) -> u64 {
        self.with(|r| r.rate_at(name, window_ticks, now))
    }

    /// Publishes an event onto the streaming bus; see [`Registry::publish`].
    pub fn publish(&self, at: u64, topic: &str, body: &str) {
        if self.enabled {
            self.with(|r| r.publish(at, topic, body));
        }
    }

    /// Copies out the events published after `cursor` plus the cursor to
    /// resume from; see [`Registry::events_since`]. This is the polling
    /// half of the subscriber API: online consumers (the cloud monitor
    /// CLI, live dashboards) call it between simulation slices.
    pub fn events_since(&self, cursor: usize) -> (usize, Vec<StreamEvent>) {
        self.with(|r| {
            let (next, events) = r.events_since(cursor);
            (next, events.to_vec())
        })
    }

    /// A deep copy of the registry at this instant — the unit benches and
    /// experiments diff and aggregate.
    pub fn snapshot(&self) -> Registry {
        self.with(|r| r.clone())
    }

    /// Canonical JSON export of the current state.
    pub fn to_json(&self) -> String {
        self.with(|r| r.to_json())
    }

    /// Prometheus text export of the current state.
    pub fn to_prometheus(&self) -> String {
        self.with(|r| r.to_prometheus())
    }

    /// Human-readable table of the current state.
    pub fn render_human(&self) -> String {
        self.with(|r| r.render_human())
    }
}

/// Opens a span on a [`Telemetry`] handle with key/value attributes:
///
/// ```
/// use rb_telemetry::{span, Telemetry};
/// let tele = Telemetry::new();
/// let id = span!(tele, 10, "bind", device = "mac:02aa", user = "alice");
/// tele.end_span(id, 25);
/// assert_eq!(tele.snapshot().spans().len(), 1);
/// ```
///
/// Attribute values go through `ToString`, names through `stringify!`.
#[macro_export]
macro_rules! span {
    ($tele:expr, $now:expr, $name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $tele.start_span(
            $name,
            &[$((stringify!($key), ::std::string::ToString::to_string(&$value))),*],
            $now,
        )
    };
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn counters_accumulate_and_export_sorted() {
        let t = Telemetry::new();
        t.incr("b_total");
        t.counter_add("a_total", 4);
        t.incr("b_total");
        assert_eq!(t.counter("a_total"), 4);
        assert_eq!(t.counter("b_total"), 2);
        assert_eq!(t.counter("missing"), 0);
        let json = t.to_json();
        let a = json.find("a_total").unwrap();
        let b = json.find("b_total").unwrap();
        assert!(a < b, "counters must export in key order");
    }

    #[test]
    fn span_macro_records_attrs_and_duration() {
        let t = Telemetry::new();
        let id = span!(t, 100, "bind", device = "d1", user = "u1");
        t.end_span(id, 140);
        let snap = t.snapshot();
        let span = &snap.spans()[0];
        assert_eq!(span.name, "bind");
        assert_eq!(span.start, 100);
        assert_eq!(span.end, Some(140));
        assert_eq!(
            span.attrs,
            vec![
                ("device".to_string(), "d1".to_string()),
                ("user".to_string(), "u1".to_string())
            ]
        );
        // Closing a span feeds its duration histogram.
        let hist = snap.histogram("span_ticks{name=\"bind\"}").unwrap();
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.sum(), 40);
    }

    #[test]
    fn nested_spans_record_parents() {
        let t = Telemetry::new();
        let outer = span!(t, 0, "setup");
        let inner = span!(t, 5, "bind");
        t.end_span(inner, 9);
        t.end_span(outer, 20);
        let snap = t.snapshot();
        assert_eq!(snap.spans()[0].parent, None);
        assert_eq!(snap.spans()[1].parent, Some(snap.spans()[0].id));
    }

    #[test]
    fn explicit_parents_override_stack_inference() {
        let t = Telemetry::new();
        // Two interleaved "homes": stack inference would nest the second
        // setup under the first; explicit parents keep both roots.
        let home0 = t.start_span_with_parent("setup", &[], 0, None);
        let home1 = t.start_span_with_parent("setup", &[], 2, None);
        let bind = t.start_span_with_parent("bind", &[], 5, Some(home1));
        t.end_span(bind, 7);
        t.end_span(home1, 8);
        t.end_span(home0, 9);
        let snap = t.snapshot();
        assert_eq!(snap.spans()[0].parent, None);
        assert_eq!(snap.spans()[1].parent, None);
        assert_eq!(snap.spans()[2].parent, Some(home1.0));
        // Explicit-parent spans feed the same duration histograms.
        let hist = snap.histogram("span_ticks{name=\"setup\"}").unwrap();
        assert_eq!((hist.count(), hist.sum()), (2, 6 + 9));
        // …and the stack-inference path is unperturbed for later spans.
        let outer = span!(t, 10, "outer");
        let inner = span!(t, 11, "inner");
        let snap = t.snapshot();
        assert_eq!(snap.spans()[4].parent, Some(outer.0));
        t.end_span(inner, 12);
        t.end_span(outer, 13);
    }

    #[test]
    fn identical_sequences_export_identically() {
        let run = || {
            let t = Telemetry::new();
            t.incr("x_total");
            t.gauge_set("g", -3);
            t.observe("h_ticks", 7);
            t.observe("h_ticks", 9_999);
            let s = span!(t, 1, "a", k = 2);
            t.end_span(s, 4);
            (t.to_json(), t.to_prometheus(), t.render_human())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn rate_and_stream_respect_the_enabled_switch() {
        let on = Telemetry::new();
        on.rate_event("binds", 10);
        on.rate_event("binds", 20);
        on.publish(20, "alert", "x");
        assert_eq!(on.rate("binds", 15), 2);
        assert_eq!(on.rate_at("binds", 5, 20), 1);
        let (cursor, events) = on.events_since(0);
        assert_eq!((cursor, events.len()), (1, 1));

        let off = Telemetry::disabled();
        off.rate_event("binds", 10);
        off.publish(10, "alert", "x");
        assert_eq!(off.rate("binds", 100), 0);
        assert_eq!(off.events_since(0), (0, vec![]));
    }

    #[test]
    fn json_escape_writes_json_string_escapes() {
        assert_eq!(json::escape("plain ✓"), "plain ✓");
        assert_eq!(json::escape("a\"b\\c"), r#"a\"b\\c"#);
        assert_eq!(json::escape("d\ne\rf\tg"), r"d\ne\rf\tg");
        assert_eq!(json::escape("\u{1}\u{1f}"), r"\u0001\u001f");
    }

    #[test]
    fn poisoned_lock_recovers() {
        let t = Telemetry::new();
        let t2 = t.clone();
        let _ = std::thread::spawn(move || {
            t2.with(|_| panic!("poison the registry lock"));
        })
        .join();
        t.incr("after_poison_total");
        assert_eq!(t.counter("after_poison_total"), 1);
    }
}
