//! The repository benchmark: three workloads that load different layers of
//! the simulator, measured end to end with no instruments attached, plus a
//! separate traced run that splits wall time across the layers.
//!
//! Each workload is a pure function of its seed. One process runs one
//! iteration of one workload in one [`Mode`] and prints one JSON record;
//! `run.py` drives the iterations, aggregates medians and prints the
//! result line. See `README.md` in this directory for the rationale and
//! the metric map.

pub mod cli;
pub mod dos;
pub mod fleet;
pub mod ledger;
pub mod replay;
pub mod shared;
pub mod spans;

use rb_prof::{AllocScope, AllocStats, PhaseProfile, Profiler};
use rb_telemetry::Telemetry;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use replay::ReplayOut;
pub use spans::Spans;

/// Which instruments a process attaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No instruments: disabled telemetry and profiler. The end-to-end
    /// metrics come from these runs.
    Plain,
    /// One census pass: telemetry recording on, profiler off. Gives the
    /// work counts and the telemetry overhead.
    Telemetry,
    /// Three passes of the same workload — census, allocation count,
    /// wall-clock profile with benchmark spans — folded into the
    /// per-layer ledger. Allocations are counted only in the
    /// `perfbench_traced` binary, which installs the counting allocator.
    Traced,
}

impl Mode {
    /// Parses `plain`, `telemetry` or `traced`.
    pub fn parse(s: &str) -> Option<Mode> {
        match s {
            "plain" => Some(Mode::Plain),
            "telemetry" => Some(Mode::Telemetry),
            "traced" => Some(Mode::Traced),
            _ => None,
        }
    }

    /// The name `parse` accepts.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Plain => "plain",
            Mode::Telemetry => "telemetry",
            Mode::Traced => "traced",
        }
    }
}

/// The instruments of one pass over a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Nothing attached.
    Plain,
    /// Telemetry on.
    Census,
    /// Wall-clock profiler and benchmark spans on.
    Profiled,
}

impl Pass {
    /// The telemetry handle this pass threads through a world.
    pub fn telemetry(self) -> Telemetry {
        match self {
            Pass::Census => Telemetry::new(),
            Pass::Plain | Pass::Profiled => Telemetry::disabled(),
        }
    }

    /// The profiler handle this pass threads through a world.
    pub fn profiler(self) -> Profiler {
        match self {
            Pass::Profiled => Profiler::new().with_wall_clock(),
            Pass::Plain | Pass::Census => Profiler::disabled(),
        }
    }

    /// Whether this pass records benchmark spans.
    pub fn spans(self) -> bool {
        self == Pass::Profiled
    }
}

/// One pass's record plus what the ledger needs from it.
#[derive(Debug)]
pub struct PassOut {
    /// The pass's record (checks, digest, timings).
    pub rec: Record,
    /// The registry the pass recorded into (census pass).
    pub telemetry: Telemetry,
    /// The merged wall-clock phase profile (profiled pass).
    pub profile: PhaseProfile,
    /// Span tables, one per thread (profiled pass).
    pub tables: Vec<Spans>,
    /// Allocation traffic of the workload (zeros without the counting
    /// allocator).
    pub allocs: AllocStats,
    /// Wall nanoseconds of the workload, set-up included.
    pub wall_ns: u64,
    /// Worker nanoseconds with no cell left to claim (pool idle time).
    pub idle_ns: u64,
    /// Simulation nodes per world (null-actor heap depth).
    pub nodes: usize,
    /// Worlds the pass built.
    pub worlds: usize,
    /// `Monitor::render_state().len()` at the end, summed over worlds.
    pub monitor_state_bytes: u64,
    /// Median simulated reply latency of the attacker's probes.
    pub reply_ticks_p50: u64,
}

impl PassOut {
    /// An output around `rec` with empty traces.
    pub fn new(rec: Record, telemetry: Telemetry) -> Self {
        PassOut {
            rec,
            telemetry,
            profile: PhaseProfile::default(),
            tables: Vec::new(),
            allocs: AllocStats::default(),
            wall_ns: 0,
            idle_ns: 0,
            nodes: 0,
            worlds: 1,
            monitor_state_bytes: 0,
            reply_ticks_p50: 0,
        }
    }
}

/// Workload size: the benchmark size, or a tiny one for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` measures.
    Full,
    /// Seconds-long sizes for the self-test.
    Tiny,
}

/// One output check: name, verdict, detail.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Observed values.
    pub detail: String,
}

/// What one process measured: raw numbers, checks and the output digest.
/// `run.py` turns records into metrics.
#[derive(Debug, Clone, Default)]
pub struct Record {
    /// Workload name.
    pub workload: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// Instrument mode.
    pub mode: &'static str,
    /// Worker threads the workload ran on.
    pub threads: usize,
    /// Homes attempted.
    pub homes: u64,
    /// Homes that reached `Control`.
    pub homes_ok: u64,
    /// Probes sent (`dos_enum` only).
    pub probes_sent: u64,
    /// Probes answered (`dos_enum` only).
    pub probes_answered: u64,
    /// Host seconds of set-up (median of the repetitions made).
    pub setup_s: f64,
    /// Host seconds of the pass, set-up included.
    pub wall_s: f64,
    /// Host seconds of the phase that brings homes to `Control`.
    pub homes_s: f64,
    /// Host seconds of the steady window (the enumeration on `dos_enum`,
    /// summed cell time on `fleet`).
    pub steady_s: f64,
    /// Wall nanoseconds per cell (grid cell or fixed simulated slice).
    pub cell_ns: Vec<u64>,
    /// Simulated ticks per cell, parallel to `cell_ns`.
    pub cell_ticks: Vec<u64>,
    /// Wall nanoseconds per slice of the setup flow that brings homes to
    /// `Control` (empty for `fleet`, whose setup runs inside cells).
    pub setup_ns: Vec<u64>,
    /// Peak resident set (`VmHWM`) at the end of the run.
    pub peak_rss_bytes: u64,
    /// Resident-set growth over the measured window (enumeration on
    /// `dos_enum`).
    pub rss_growth_bytes: u64,
    /// Hex FNV-1a digest of the deterministic outputs.
    pub digest: String,
    /// Pin verdict: `match`, `unpinned` or `mismatch`.
    pub pin: &'static str,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Work counts read from telemetry (instrumented modes only).
    pub counts: BTreeMap<String, f64>,
    /// Per-layer metrics (traced mode only).
    pub layers: BTreeMap<String, f64>,
    /// The traced run's span table as JSON rows (not part of `to_json`).
    pub span_rows: Vec<String>,
}

impl Record {
    /// Adds a check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    /// Whether every check (and the pin) passed.
    pub fn correct(&self) -> bool {
        self.pin != "mismatch" && self.checks.iter().all(|c| c.ok)
    }

    /// Pins the digest: compares it with the committed value for this
    /// workload, size and seed and records a check.
    pub fn pin_digest(&mut self, size: Size, digest: u64) {
        self.digest = format!("{digest:016x}");
        self.pin = pin_verdict(PINS, self.workload, size, self.seed, &self.digest);
        let pin = self.pin;
        self.check(
            "digest_pin",
            pin != "mismatch",
            format!("{} {pin}", self.digest),
        );
    }

    /// The record as one JSON line.
    pub fn to_json(&self) -> String {
        let mut o = String::from("{");
        let _ = write!(
            o,
            "\"workload\":\"{}\",\"seed\":{},\"mode\":\"{}\",\"nproc\":{},\"threads\":{},\
             \"profile\":\"{}\",\"correct\":{},\"homes\":{},\"homes_ok\":{},\
             \"probes_sent\":{},\"probes_answered\":{},",
            self.workload,
            self.seed,
            self.mode,
            nproc(),
            self.threads,
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            self.correct(),
            self.homes,
            self.homes_ok,
            self.probes_sent,
            self.probes_answered,
        );
        let _ = write!(
            o,
            "\"setup_s\":{},\"homes_s\":{},\"steady_s\":{},\"wall_s\":{},\
             \"peak_rss_bytes\":{},\"rss_growth_bytes\":{},\"digest\":\"{}\",\"pin\":\"{}\",",
            num(self.setup_s),
            num(self.homes_s),
            num(self.steady_s),
            num(self.wall_s),
            self.peak_rss_bytes,
            self.rss_growth_bytes,
            self.digest,
            self.pin,
        );
        let list = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
        let _ = write!(
            o,
            "\"cell_ns\":[{}],\"cell_ticks\":[{}],\"setup_ns\":[{}],\"checks\":[",
            list(&self.cell_ns),
            list(&self.cell_ticks),
            list(&self.setup_ns)
        );
        for (i, c) in self.checks.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            let _ = write!(
                o,
                "{{\"name\":\"{}\",\"ok\":{},\"detail\":\"{}\"}}",
                escape(&c.name),
                c.ok,
                escape(&c.detail)
            );
        }
        let _ = write!(
            o,
            "],\"counts\":{},\"layers\":{}}}",
            map_json(&self.counts),
            map_json(&self.layers)
        );
        o
    }
}

fn map_json(m: &BTreeMap<String, f64>) -> String {
    let body: Vec<String> = m
        .iter()
        .map(|(k, v)| format!("\"{}\":{}", escape(k), num(*v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// A JSON number (non-finite values become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn escape(s: &str) -> String {
    rb_telemetry::json::escape(s)
}

/// The committed digests: `workload size seed digest` per line.
pub const PINS: &str = include_str!("../pins.txt");

/// Compares `digest` with the pinned value for `(workload, size, seed)` in
/// `pins`: `match`, `mismatch`, or `unpinned` when no pin exists.
pub fn pin_verdict(
    pins: &str,
    workload: &str,
    size: Size,
    seed: u64,
    digest: &str,
) -> &'static str {
    let size = match size {
        Size::Full => "full",
        Size::Tiny => "tiny",
    };
    for line in pins.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if let [w, s, n, d] = f[..] {
            if w == workload && s == size && n.parse() == Ok(seed) {
                return if d == digest { "match" } else { "mismatch" };
            }
        }
    }
    "unpinned"
}

/// 64-bit FNV-1a over `bytes`, continuing from `state`.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The FNV-1a offset basis.
pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

/// Wall nanoseconds since `t`.
pub fn nanos_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// `(VmRSS, VmHWM)` of this process in bytes, read from the OS.
pub fn rss() -> (u64, u64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|kb| kb.parse::<u64>().ok())
            .map_or(0, |kb| kb * 1024)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Median of `v` (sorted in place); 0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Sums every telemetry counter whose name starts with `prefix`.
pub fn counter_sum(t: &Telemetry, prefix: &str) -> u64 {
    t.with(|r| {
        r.counters()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    })
}

/// The per-kind request mix from `cloud_requests_total{kind="…"}`.
pub fn request_mix(t: &Telemetry) -> BTreeMap<String, u64> {
    t.with(|r| {
        r.counters()
            .filter_map(|(k, v)| {
                let kind = k
                    .strip_prefix("cloud_requests_total{kind=\"")?
                    .strip_suffix("\"}")?;
                Some((kind.to_string(), v))
            })
            .collect()
    })
}

/// Records the telemetry work census every workload reports.
pub fn record_counts(rec: &mut Record, t: &Telemetry) {
    let mut put = |k: &str, v: u64| {
        rec.counts.insert(k.to_string(), v as f64);
    };
    put("events", counter_sum(t, "sim_events_total"));
    put("delivered", counter_sum(t, "sim_packets_delivered_total"));
    put("sent", counter_sum(t, "sim_packets_sent_total"));
    put("dropped", counter_sum(t, "sim_packets_dropped_total"));
    put("requests", counter_sum(t, "cloud_requests_total"));
    put("denials", counter_sum(t, "cloud_denials_total"));
    put("alerts", counter_sum(t, "cloud_alerts_total"));
    put("app_retries", counter_sum(t, "app_retries_total"));
    put(
        "device_bind_retries",
        counter_sum(t, "device_bind_retries_total"),
    );
    put("heartbeats", counter_sum(t, "device_heartbeats_total"));
    put("pushes", counter_sum(t, "app_telemetry_pushes_total"));
}

fn pass(workload: &str, seed: u64, pass: Pass, size: Size) -> Option<PassOut> {
    let mut out = match workload {
        "fleet" => fleet::pass(seed, pass, size),
        "shared_cloud" => shared::pass(seed, pass, size),
        "dos_enum" => dos::pass(seed, pass, size),
        _ => return None,
    };
    out.rec.wall_s = out.wall_ns as f64 / 1e9;
    Some(out)
}

/// Runs `workload` in `mode` and returns its record; `None` for an
/// unknown workload name.
pub fn run(workload: &str, seed: u64, mode: Mode, size: Size) -> Option<Record> {
    let mut rec = match mode {
        Mode::Plain => pass(workload, seed, Pass::Plain, size)?.rec,
        Mode::Telemetry => {
            let out = pass(workload, seed, Pass::Census, size)?;
            let mut rec = out.rec.clone();
            record_counts(&mut rec, &out.telemetry);
            let mix = request_mix(&out.telemetry);
            price(&mut rec, replay(workload, seed, size, &mix), &out);
            rec
        }
        Mode::Traced => traced(workload, seed, size)?,
    };
    rec.mode = mode.name();
    rec.peak_rss_bytes = rss().1;
    Some(rec)
}

/// The three traced passes folded into one record with the ledger.
fn traced(workload: &str, seed: u64, size: Size) -> Option<Record> {
    let census = pass(workload, seed, Pass::Census, size)?;
    let counted = AllocScope::start();
    let alloc = pass(workload, seed, Pass::Plain, size)?;
    let allocs = counted.finish();
    let prof = pass(workload, seed, Pass::Profiled, size)?;
    let mut rec = prof.rec.clone();
    record_counts(&mut rec, &census.telemetry);
    rec.counts
        .insert("census_wall_ns".into(), census.wall_ns as f64);
    rec.counts
        .insert("plain_wall_ns".into(), alloc.wall_ns as f64);
    rec.counts
        .insert("profiled_wall_ns".into(), prof.wall_ns as f64);
    for other in [&census.rec, &alloc.rec] {
        rec.checks
            .extend(other.checks.iter().filter(|c| !c.ok).cloned());
    }
    let same = census.rec.digest == rec.digest && alloc.rec.digest == rec.digest;
    rec.check(
        "passes_agree",
        same,
        format!(
            "census={} plain={} profiled={}",
            census.rec.digest, alloc.rec.digest, rec.digest
        ),
    );
    let mix = request_mix(&census.telemetry);
    ledger::fill(&mut rec, &prof, allocs, replay(workload, seed, size, &mix));
    rec.span_rows = prof.tables.iter().flat_map(Spans::to_json_rows).collect();
    Some(rec)
}

/// The standalone cloud and codec replays of `workload`, priced with the
/// run's request mix.
fn replay(workload: &str, seed: u64, size: Size, mix: &BTreeMap<String, u64>) -> ReplayOut {
    match workload {
        "fleet" => fleet::replay(seed, size, mix),
        "shared_cloud" => shared::replay(seed, size, mix),
        _ => dos::replay(seed, size),
    }
}

/// Adds the per-layer costs a census run measures outside the world: the
/// codec, `handle_message` and the event loop's own cost per event, plus
/// `codec_ns`, the run's frames priced at the codec's cost.
fn price(rec: &mut Record, replay: ReplayOut, out: &PassOut) {
    let c = |k: &str| rec.counts.get(k).copied().unwrap_or(0.0);
    let events = c("events");
    let starts = (out.nodes * out.worlds) as f64;
    let timers = events - c("delivered") - c("dropped") - starts;
    let share = if events > 0.0 { timers / events } else { 1.0 };
    let queue =
        replay::queue_ns_per_event(out.nodes, share, events.min(400_000.0) as u64, rec.seed);
    let msgs = 2.0 * c("requests") + c("pushes");
    let codec_ns = msgs * (replay.encode_ns_per_msg + replay.decode_ns_per_msg);
    rec.counts.insert("codec_ns".into(), codec_ns);
    for (k, v) in [
        ("wire.decode_ns_per_msg", replay.decode_ns_per_msg),
        ("wire.encode_ns_per_msg", replay.encode_ns_per_msg),
        ("wire.bytes_per_msg", replay.bytes_per_msg),
        ("cloud.handle_ns_per_req", replay.handle_ns_per_req),
        ("netsim.queue_ns_per_event", queue),
    ] {
        rec.layers.insert(k.to_string(), v);
    }
}

/// Writes a traced run's span rows as one JSON document.
pub fn write_trace(path: &std::path::Path, rows: &[String]) -> std::io::Result<()> {
    let out = format!("{{\"spans\":[{}]}}\n", rows.join(","));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}
