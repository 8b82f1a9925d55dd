//! Benchmark-owned spans: name, start, end and parent, recorded around the
//! benchmark's own calls into each layer. Nothing inside the program is
//! instrumented; the spans only bracket public calls.
//!
//! Calls made hundreds of thousands of times (a 2-tick `run_for`, one
//! probe's encode) are folded into one aggregate row per (name, parent)
//! holding the call count and the summed duration, so the table stays
//! small while every call is still timed.

use std::collections::HashMap;
use std::time::Instant;

/// One span row. For an aggregate row `count > 1` and `total_ns` is the
/// sum over its calls; `start_ns`/`end_ns` bracket the first and last.
#[derive(Debug, Clone)]
struct Span {
    /// Span name, `layer.call`.
    name: &'static str,
    /// Index of the enclosing span in the same table.
    parent: Option<usize>,
    /// Nanoseconds from the table's epoch to the (first) start.
    start_ns: u64,
    /// Nanoseconds from the epoch to the (last) end.
    end_ns: u64,
    /// Calls folded into this row.
    count: u64,
    /// Summed duration of those calls.
    total_ns: u64,
}

/// A span table for one thread. Disabled tables record nothing and cost a
/// branch per call.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    thread: usize,
    epoch: Instant,
    rows: Vec<Span>,
    stack: Vec<(usize, Instant)>,
    folded: HashMap<(&'static str, Option<usize>), usize>,
}

impl Spans {
    /// A table for worker `thread`, timed from `epoch`.
    pub fn new(enabled: bool, thread: usize, epoch: Instant) -> Self {
        Spans {
            enabled,
            thread,
            epoch,
            rows: Vec::new(),
            stack: Vec::new(),
            folded: HashMap::new(),
        }
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let now = Instant::now();
        let row = Span {
            name,
            parent: self.stack.last().map(|(i, _)| *i),
            start_ns: self.since_epoch(now),
            end_ns: 0,
            count: 1,
            total_ns: 0,
        };
        self.rows.push(row);
        self.stack.push((self.rows.len() - 1, now));
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        if let Some((i, started)) = self.stack.pop() {
            let now = Instant::now();
            self.rows[i].end_ns = self.since_epoch(now);
            self.rows[i].total_ns = u64::try_from((now - started).as_nanos()).unwrap_or(u64::MAX);
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let r = f();
        self.close();
        r
    }

    /// Runs `f` and folds its duration into the aggregate row `name` under
    /// the innermost open span.
    pub fn fold<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let started = Instant::now();
        let r = f();
        let ended = Instant::now();
        let parent = self.stack.last().map(|(i, _)| *i);
        let dur = u64::try_from((ended - started).as_nanos()).unwrap_or(u64::MAX);
        let (start_ns, end_ns) = (self.since_epoch(started), self.since_epoch(ended));
        match self.folded.get(&(name, parent)) {
            Some(&i) => {
                let row = &mut self.rows[i];
                row.count += 1;
                row.total_ns += dur;
                row.end_ns = end_ns;
            }
            None => {
                self.rows.push(Span {
                    name,
                    parent,
                    start_ns,
                    end_ns,
                    count: 1,
                    total_ns: dur,
                });
                self.folded.insert((name, parent), self.rows.len() - 1);
            }
        }
        r
    }

    /// Summed duration of every row named `name`.
    pub fn total(&self, name: &str) -> u64 {
        self.rows
            .iter()
            .filter(|r| r.name == name)
            .map(|r| r.total_ns)
            .sum()
    }

    /// Summed self time of every row named `name`: its duration minus the
    /// part its child rows cover.
    pub fn self_total(&self, name: &str) -> u64 {
        let mut child = vec![0u64; self.rows.len()];
        for r in &self.rows {
            if let Some(p) = r.parent {
                child[p] += r.total_ns;
            }
        }
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, r)| r.name == name)
            .map(|(i, r)| r.total_ns.saturating_sub(child[i]))
            .sum()
    }

    /// Nanoseconds from the first top-level span's start to the last one's
    /// end: how long this thread had work.
    pub fn active_ns(&self) -> u64 {
        let top = self.rows.iter().filter(|r| r.parent.is_none());
        let start = top.clone().map(|r| r.start_ns).min().unwrap_or(0);
        let end = top.map(|r| r.end_ns).max().unwrap_or(0);
        end.saturating_sub(start)
    }

    /// The rows as JSON objects tagged with the thread.
    pub fn to_json_rows(&self) -> Vec<String> {
        self.rows
            .iter()
            .enumerate()
            .map(|(i, r)| {
                format!(
                    "{{\"thread\":{},\"id\":{i},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\
                     \"end_ns\":{},\"count\":{},\"total_ns\":{}}}",
                    self.thread,
                    r.name,
                    r.parent.map_or("null".to_string(), |p| p.to_string()),
                    r.start_ns,
                    r.end_ns,
                    r.count,
                    r.total_ns
                )
            })
            .collect()
    }
}
