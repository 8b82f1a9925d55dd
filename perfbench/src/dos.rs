//! `dos_enum`: the §V-C binding DoS. An attacker enumerates a ≈400k-ID
//! window of a sequential-ID OZWI series, one `Bind` probe every 2
//! simulated ticks whether or not replies came back (open loop in sim
//! time), against a cloud under `DefensePolicy::hardened()` while 64
//! victims are still boxed. Afterwards the victims resume and must all
//! bind.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use bytes::Bytes;
use rb_attack::Adversary;
use rb_cloud::DefensePolicy;
use rb_core::design::VendorDesign;
use rb_core::shadow::ShadowState;
use rb_core::vendors;
use rb_netsim::{Dest, SimRng};
use rb_scenario::WorldBuilder;
use rb_wire::codec::CodecKind;
use rb_wire::envelope::{CorrId, Envelope};
use rb_wire::ids::IdScheme;
use rb_wire::messages::{BindPayload, DenyReason, Message, Response};

use crate::replay::ReplayOut;
use crate::{fnv1a, nanos_since, rss, Pass, PassOut, Record, Size, Spans, FNV_START};

/// Simulated ticks between two probes.
const GAP: u64 = 2;
/// Vendor prefix of the enumerated series.
const VENDOR: u16 = 0x0102;
/// Simulated-time budget for the victims' setup after the attack.
const VICTIM_BUDGET: u64 = 300_000;
/// Simulated-time budget for the last replies after the final probe.
const TAIL_BUDGET: u64 = 10_000;

struct Params {
    victims: usize,
    window: u64,
    /// Probes per timed slice (one "cell" of this workload).
    slice: u64,
}

fn params(size: Size) -> Params {
    match size {
        Size::Full => Params {
            victims: 64,
            window: 200_000,
            slice: 2_000,
        },
        Size::Tiny => Params {
            victims: 4,
            window: 1_000,
            slice: 100,
        },
    }
}

/// Replies tallied while draining the attacker inbox.
#[derive(Default)]
struct Replies {
    /// One bit per probe: answered yet.
    answered: Vec<u64>,
    count: u64,
    duplicates: u64,
    strays: u64,
    kinds: HashMap<(&'static str, Option<DenyReason>), u64>,
    /// Simulated reply latency histogram (ticks → probes).
    latency: BTreeMap<u64, u64>,
}

impl Replies {
    fn new(probes: u64) -> Self {
        Replies {
            answered: vec![0; probes.div_ceil(64) as usize],
            ..Replies::default()
        }
    }

    /// Records one reply to probe `corr` (1-based) seen at `now`.
    fn record(&mut self, corr: u64, rsp: &Response, now: u64, first_due: u64) {
        let Some(i) = corr
            .checked_sub(1)
            .filter(|&i| i / 64 < self.answered.len() as u64)
        else {
            self.strays += 1;
            return;
        };
        let (word, bit) = ((i / 64) as usize, 1u64 << (i % 64));
        if self.answered[word] & bit != 0 {
            self.duplicates += 1;
            return;
        }
        self.answered[word] |= bit;
        self.count += 1;
        let reason = match rsp {
            Response::Denied { reason } => Some(*reason),
            _ => None,
        };
        *self.kinds.entry((rsp.kind_str(), reason)).or_default() += 1;
        *self.latency.entry(now - (first_due + GAP * i)).or_default() += 1;
    }

    /// Reply counts by kind (`Denied:<reason>` for denials), sorted.
    fn kinds(&self) -> BTreeMap<String, u64> {
        self.kinds
            .iter()
            .map(|((kind, reason), n)| match reason {
                Some(r) => (format!("{kind}:{r:?}"), *n),
                None => (kind.to_string(), *n),
            })
            .collect()
    }

    fn latency_p50(&self) -> u64 {
        let mut seen = 0;
        for (ticks, n) in &self.latency {
            seen += n;
            if 2 * seen >= self.count {
                return *ticks;
            }
        }
        0
    }
}

/// The victims' design and the enumerated window for `seed`: the seed
/// places the series in the serial space and the victims inside the
/// window.
fn inputs(seed: u64, p: &Params) -> (VendorDesign, IdScheme) {
    let mut rng = SimRng::new(seed ^ 0x000d_05e7);
    let base = rng.range_u64(1_000, 1 << 32);
    let offset = rng.range_u64(0, p.window - p.victims as u64);
    let mut design = vendors::ozwi();
    design.id_scheme = IdScheme::SequentialSerial {
        vendor: VENDOR,
        start: base + offset,
    };
    let window = IdScheme::SequentialSerial {
        vendor: VENDOR,
        start: base,
    };
    (design, window)
}

/// Runs one pass.
pub fn pass(seed: u64, pass: Pass, size: Size) -> PassOut {
    let p = params(size);
    let (design, window) = inputs(seed, &p);
    let telemetry = pass.telemetry();
    let profiler = pass.profiler();
    let mut spans = Spans::new(pass.spans(), 0, Instant::now());
    let mut rec = Record {
        workload: "dos_enum",
        seed,
        threads: 1,
        homes: p.victims as u64,
        probes_sent: p.window,
        ..Record::default()
    };

    let started = Instant::now();
    spans.open("bench.workload");
    let mut world = spans.time("scenario.build", || {
        WorldBuilder::new(design.clone(), seed)
            .homes(p.victims)
            .victim_paused()
            .defense(DefensePolicy::hardened())
            .with_telemetry(telemetry.clone())
            .with_profiler(profiler.clone())
            .build()
    });
    let user_token = spans.time("attack.login", || Adversary::new().login(&mut world));
    rec.setup_s = nanos_since(started) as f64 / 1e9;

    // The enumeration. Replies are drained and dropped as they arrive:
    // nothing is stashed, so memory growth is the cloud's own.
    let codec = world.codec();
    let cloud = world.cloud;
    let mut replies = Replies::new(p.window);
    let first_due = world.now().as_u64();
    let rss0 = rss().0;
    let measured = Instant::now();
    spans.open("attack.enumerate");
    let drain = |world: &mut rb_scenario::World, spans: &mut Spans, replies: &mut Replies| {
        let now = world.now().as_u64();
        for (_, frame) in world.attacker_mut().take_inbox() {
            let frame = Bytes::from(frame);
            match spans.fold("wire.decode", || Envelope::decode_with(codec, &frame)) {
                Ok(Envelope::Response { corr, rsp }) => {
                    replies.record(corr.0, &rsp, now, first_due)
                }
                _ => replies.strays += 1,
            }
        }
    };
    let mut slice = Instant::now();
    for j in 0..p.window {
        let msg = Message::Bind(BindPayload::AclApp {
            dev_id: window.id_at(j),
            user_token,
        });
        let frame = spans.fold("wire.encode", || {
            Envelope::Request {
                corr: CorrId(j + 1),
                msg,
            }
            .encode_with(codec)
        });
        world
            .attacker_mut()
            .queue(Dest::Unicast(cloud), frame.to_vec());
        spans.fold("netsim.run_for", || world.run_for(GAP));
        drain(&mut world, &mut spans, &mut replies);
        if (j + 1) % p.slice == 0 {
            rec.cell_ns.push(nanos_since(slice));
            rec.cell_ticks.push(p.slice * GAP);
            slice = Instant::now();
        }
    }
    let tail_end = world.now().as_u64() + TAIL_BUDGET;
    while replies.count < p.window && world.now().as_u64() < tail_end {
        spans.fold("netsim.run_for", || world.run_for(GAP));
        drain(&mut world, &mut spans, &mut replies);
    }
    spans.close();
    rec.steady_s = nanos_since(measured) as f64 / 1e9;
    rec.rss_growth_bytes = rss().0.saturating_sub(rss0);
    rec.probes_answered = replies.count;

    // The victims unbox their devices and must all bind.
    let t = Instant::now();
    let setup_start = world.now().as_u64();
    spans.open("scenario.victims");
    world.resume_victims();
    let setup = crate::shared::drive_setup(&mut world, &mut spans, VICTIM_BUDGET, 10);
    let converged = setup.converged;
    rec.setup_ns = setup.scan_ns;
    let first_bound = setup.first;
    spans.close();
    rec.homes_s = nanos_since(t) as f64 / 1e9;
    spans.close();
    let wall_ns = nanos_since(started);

    let bound = (0..p.victims)
        .filter(|&i| world.app(i).is_bound() && world.shadow_state(i) == ShadowState::Control)
        .count();
    rec.homes_ok = bound as u64;
    rec.check(
        "probes_answered",
        replies.count == p.window && replies.duplicates == 0 && replies.strays == 0,
        format!(
            "answered={}/{} duplicates={} strays={}",
            replies.count, p.window, replies.duplicates, replies.strays
        ),
    );
    rec.check(
        "victims_bound",
        converged && bound == p.victims,
        format!("bound={bound}/{} converged={converged}", p.victims),
    );
    let monitor = world.cloud().monitor().render_state();
    let mut digest = fnv1a(FNV_START, monitor.as_bytes());
    for (kind, n) in &replies.kinds() {
        digest = fnv1a(digest, format!("{kind}={n};").as_bytes());
    }
    for (home, tick) in world.homes.iter().zip(&first_bound) {
        digest = fnv1a(digest, home.dev_id.to_string().as_bytes());
        digest = fnv1a(digest, &tick.saturating_sub(setup_start).to_le_bytes());
    }
    digest = fnv1a(digest, &(world.now().as_u64() - setup_start).to_le_bytes());
    rec.pin_digest(size, digest);
    rec.counts.insert(
        "setup_sim_ticks".into(),
        (world.now().as_u64() - setup_start) as f64,
    );

    let mut out = PassOut::new(rec, telemetry);
    out.profile = profiler.snapshot();
    out.tables = vec![spans];
    out.wall_ns = wall_ns;
    out.nodes = world.sim.node_count();
    out.monitor_state_bytes = monitor.len() as u64;
    out.reply_ticks_p50 = replies.latency_p50();
    out
}

/// Prices the probes on a standalone hardened cloud; the codec is timed on
/// the same probes and the cloud's replies to them.
pub fn replay(seed: u64, size: Size) -> ReplayOut {
    let p = params(size);
    let (design, window) = inputs(seed, &p);
    crate::replay::replay_probes(
        &design,
        CodecKind::default(),
        p.victims,
        &window,
        p.window.min(50_000),
        GAP,
        seed,
    )
}
