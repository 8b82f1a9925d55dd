//! Idle timers are an optimisation, not a behaviour: a world whose actors
//! arm [`Ctx::set_idle_timer`] must produce the byte-identical trace (and
//! RNG stream) of the same actors re-arming [`Ctx::set_timer`] chains that
//! do nothing before `until`.
//!
//! Each case builds the same seeded world twice — once per timer mode —
//! and drives both with one script of `run_until` slices, `step()` runs,
//! `actor_mut` pokes and power cycles, then compares the rendered traces.

#![allow(clippy::unwrap_used)]

use rb_netsim::{Actor, Ctx, Dest, LanId, NodeConfig, NodeId, SimRng, Simulation, Tick, TimerKey};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// `set_idle_timer(period, key, until)`.
    Idle,
    /// `set_timer(period, key)`, re-armed by every no-op firing.
    Chain,
}

#[derive(Debug, Clone)]
struct Poll {
    period: u64,
    /// Firings before this tick are no-ops unless `pending`.
    quiet_until: Tick,
    /// Set by packets and pokes: the next firing has work to do.
    pending: bool,
}

/// A periodic actor whose firings are no-ops while it is quiet. Every
/// firing with work draws from the simulation RNG, sends to random peers,
/// marks, and picks its next quiet span — sometimes "forever".
struct Poller {
    mode: Mode,
    peers: u32,
    polls: Vec<Poll>,
}

impl Poller {
    fn arm(&self, ctx: &mut Ctx<'_>, key: usize) {
        let p = &self.polls[key];
        match self.mode {
            Mode::Chain => ctx.set_timer(p.period, key as TimerKey),
            Mode::Idle => {
                let until = if p.pending { ctx.now() } else { p.quiet_until };
                ctx.set_idle_timer(p.period, key as TimerKey, until);
            }
        }
    }
}

impl Actor for Poller {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.mark("start");
        for key in 0..self.polls.len() {
            self.arm(ctx, key);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, key: TimerKey) {
        let k = key as usize;
        let now = ctx.now();
        if !self.polls[k].pending && now < self.polls[k].quiet_until {
            // The no-op the idle timer stands for.
            self.arm(ctx, k);
            return;
        }
        ctx.mark(format!("fire {key}"));
        for _ in 0..ctx.rng().range_u64(0, 2) {
            let to = NodeId(ctx.rng().range_u64(0, u64::from(self.peers) - 1) as u32);
            ctx.send(Dest::Unicast(to), vec![key as u8; 3]);
        }
        let quiet = if ctx.rng().chance(1, 8) {
            Tick(u64::MAX)
        } else {
            now.saturating_add(ctx.rng().range_u64(0, 300))
        };
        let p = &mut self.polls[k];
        p.quiet_until = quiet;
        p.pending = false;
        self.arm(ctx, k);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, from: NodeId, payload: &[u8]) {
        ctx.mark(format!("got {} from {from}", payload.len()));
        if ctx.rng().chance(1, 3) {
            let k = ctx.rng().range_u64(0, self.polls.len() as u64 - 1) as usize;
            self.polls[k].pending = true;
        }
        if ctx.rng().chance(1, 4) {
            ctx.send(Dest::Unicast(from), vec![9]);
        }
    }

    fn on_power(&mut self, ctx: &mut Ctx<'_>, powered: bool) {
        ctx.mark(format!("power {powered}"));
        // A chain whose firing was dropped while off is gone, so a reboot
        // re-arms. Arming on power-off too leaves timers that must die at
        // their first firing unless power returns before it.
        for key in 0..self.polls.len() {
            self.arm(ctx, key);
        }
    }
}

/// Draws from the world RNG into the trace, so the final RNG state is compared.
struct RngProbe;

impl Actor for RngProbe {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let v = ctx.rng().next_u64();
        ctx.mark(format!("rng {v:016x}"));
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// `run_until(now + d)`.
    RunFor(u64),
    /// `run_until(t)` with an absolute `t` (a no-op if `t` is past).
    RunUntil(u64),
    /// Up to `n` `step()` calls, then (reference: only) `run_until` to the
    /// stepped world's clock plus `d`.
    Steps(u32, u64),
    /// `actor_mut`: give poll `key` of `node` work.
    Poke(u32, usize),
    /// `set_power(node, on)`.
    Power(u32, bool),
}

#[derive(Debug, Clone)]
struct Script {
    seed: u64,
    /// Per node: each poll's `(period, first quiet_until)`.
    nodes: Vec<Vec<(u64, u64)>>,
    /// Pokes applied before the first run (work queued before `on_start`).
    early: Vec<(u32, usize)>,
    ops: Vec<Op>,
}

fn build(script: &Script, mode: Mode) -> Simulation {
    let mut sim = Simulation::new(script.seed);
    sim.enable_trace();
    let peers = script.nodes.len() as u32;
    for (i, polls) in script.nodes.iter().enumerate() {
        // Half the nodes share a LAN (and sit behind NAT), half are
        // WAN-only, so some sends are unroutable.
        let config = if i % 2 == 0 {
            NodeConfig::dual(format!("n{i}"), LanId(0))
        } else {
            NodeConfig::wan_only(format!("n{i}"))
        };
        let polls = polls
            .iter()
            .map(|&(period, until)| Poll {
                period,
                quiet_until: Tick(until),
                pending: false,
            })
            .collect();
        sim.add_node(config, Box::new(Poller { mode, peers, polls }));
    }
    sim
}

fn poke(sim: &mut Simulation, node: u32, key: usize) {
    let p = sim.actor_mut::<Poller>(NodeId(node)).unwrap();
    let key = key % p.polls.len();
    p.polls[key].pending = true;
}

fn finish(sim: &mut Simulation) -> Vec<String> {
    sim.run_for(500);
    sim.add_node(NodeConfig::wan_only("probe"), Box::new(RngProbe));
    let now = sim.now();
    sim.run_until(now);
    sim.trace().iter().map(|e| e.to_string()).collect()
}

/// Runs `script` on the chain world and the idle world in lockstep and
/// returns both rendered traces.
fn run(script: &Script) -> (Vec<String>, Vec<String>) {
    let mut chain = build(script, Mode::Chain);
    let mut idle = build(script, Mode::Idle);
    for sim in [&mut chain, &mut idle] {
        for &(node, key) in &script.early {
            poke(sim, node, key);
        }
    }
    for op in &script.ops {
        match *op {
            Op::RunFor(d) => {
                chain.run_for(d);
                idle.run_for(d);
            }
            Op::RunUntil(t) => {
                chain.run_until(Tick(t));
                idle.run_until(Tick(t));
            }
            Op::Steps(n, d) => {
                // One idle-world step may pass any number of no-op
                // firings, so the chain world does not step alongside: it
                // catches up by running to the same point.
                for _ in 0..n {
                    if !idle.step() {
                        break;
                    }
                }
                let until = idle.now().saturating_add(d);
                chain.run_until(until);
                idle.run_until(until);
            }
            Op::Poke(node, key) => {
                poke(&mut chain, node, key);
                poke(&mut idle, node, key);
            }
            Op::Power(node, on) => {
                chain.set_power(NodeId(node), on);
                idle.set_power(NodeId(node), on);
            }
        }
        assert_eq!(chain.now(), idle.now(), "clocks diverged at {op:?}");
    }
    (finish(&mut chain), finish(&mut idle))
}

fn assert_equivalent(script: &Script) {
    let (chain, idle) = run(script);
    assert!(
        chain.iter().any(|l| l.contains("rng ")),
        "probe missing: {script:?}"
    );
    if chain != idle {
        let at = chain
            .iter()
            .zip(&idle)
            .position(|(a, b)| a != b)
            .unwrap_or(chain.len().min(idle.len()));
        panic!(
            "traces diverge at line {at} of {}/{}:\n  chain: {:?}\n  idle:  {:?}\nscript: {script:?}",
            chain.len(),
            idle.len(),
            chain.get(at),
            idle.get(at)
        );
    }
}

/// A random script: 2–6 nodes with one or two polls of period 1 or 20.
fn random_script(seed: u64) -> Script {
    let mut r = SimRng::new(seed ^ 0x1d1e_71e5);
    let n = r.range_u64(2, 6) as u32;
    let nodes = (0..n)
        .map(|_| {
            (0..r.range_u64(1, 2))
                .map(|_| {
                    let period = if r.chance(1, 2) { 1 } else { 20 };
                    (period, r.range_u64(0, 400))
                })
                .collect()
        })
        .collect();
    let early = (0..r.range_u64(0, 1))
        .map(|_| {
            (
                r.range_u64(0, u64::from(n) - 1) as u32,
                r.range_u64(0, 1) as usize,
            )
        })
        .collect();
    let mut ops = Vec::new();
    for _ in 0..r.range_u64(10, 40) {
        let node = r.range_u64(0, u64::from(n) - 1) as u32;
        ops.push(match r.range_u64(0, 9) {
            0..=3 => Op::RunFor(r.range_u64(0, 120)),
            4 => Op::RunUntil(r.range_u64(0, 2_000)),
            5 | 6 => Op::Steps(r.range_u64(1, 12) as u32, r.range_u64(0, 30)),
            7 | 8 => Op::Poke(node, r.range_u64(0, 1) as usize),
            _ => Op::Power(node, r.chance(1, 2)),
        });
    }
    Script {
        seed,
        nodes,
        early,
        ops,
    }
}

#[test]
fn random_worlds_match_their_chain_twins() {
    for seed in 0..400 {
        assert_equivalent(&random_script(seed));
    }
}

#[test]
fn frame_queued_before_start() {
    // Work handed to the actor before `on_start` runs: its first arm must
    // see it, so the first firing has work.
    assert_equivalent(&Script {
        seed: 1,
        nodes: vec![vec![(1, u64::MAX)], vec![(20, 50)]],
        early: vec![(0, 0)],
        ops: vec![Op::RunFor(10), Op::Poke(0, 0), Op::RunFor(10)],
    });
}

#[test]
fn power_off_while_idle() {
    for off_for in [0, 5, 19, 20, 21, 400] {
        assert_equivalent(&Script {
            seed: 2,
            nodes: vec![vec![(20, 300)], vec![(1, 250), (20, u64::MAX)]],
            early: vec![],
            ops: vec![
                Op::RunFor(33),
                Op::Power(0, false),
                Op::Power(1, false),
                Op::RunFor(off_for),
                Op::Power(1, true),
                Op::RunFor(7),
                Op::Power(0, true),
                Op::RunFor(600),
            ],
        });
    }
}

#[test]
fn steps_past_a_dead_timer_leave_the_others_in_place() {
    // n2 arms idle timers while powered off; with nothing else queued, a
    // step must not move n0's idle timer past the clock on their account
    // (they die instead of waking), or the poke finds it too late.
    assert_equivalent(&Script {
        seed: 5000,
        nodes: vec![vec![(1, 20)], vec![(3, 107)], vec![(7, 63), (3, 302)]],
        early: vec![],
        ops: vec![
            Op::RunFor(118),
            Op::Power(2, false),
            Op::Steps(10, 2),
            Op::Poke(0, 0),
        ],
    });
}

#[test]
fn until_exactly_on_a_slice_boundary() {
    for until in [100, 101, 119, 120, 121] {
        for end in [until - 1, until, until + 1] {
            assert_equivalent(&Script {
                seed: 3,
                nodes: vec![vec![(20, until)], vec![(1, until)]],
                early: vec![],
                ops: vec![Op::RunUntil(end), Op::Poke(1, 0), Op::RunUntil(end + 20)],
            });
        }
    }
}

#[test]
fn until_inside_an_empty_heap_run() {
    // One quiet actor, nothing else queued: the run must still stop at the
    // wake-up instead of skipping to the horizon.
    for until in [1, 2, 57, 60, 999] {
        assert_equivalent(&Script {
            seed: 4,
            nodes: vec![vec![(20, until)]],
            early: vec![],
            ops: vec![Op::RunUntil(1_000), Op::Steps(3, 0), Op::RunFor(100)],
        });
    }
}

#[test]
fn two_idle_timers_armed_in_one_instant() {
    // Two nodes and one node with two polls, all armed at tick 0 with
    // periods 1 and 20, waking at the same ticks.
    for until in [40, 41, 60] {
        assert_equivalent(&Script {
            seed: 5,
            nodes: vec![
                vec![(1, until), (20, until)],
                vec![(20, until)],
                vec![(1, until)],
            ],
            early: vec![],
            ops: vec![Op::RunFor(7), Op::Steps(5, 3), Op::RunUntil(until + 40)],
        });
    }
}
