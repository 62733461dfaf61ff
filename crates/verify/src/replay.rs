//! Differential replay of a routed [`DesignPoint`] on the shell netlist.
//!
//! The oracle rebuilds, cycle by cycle, the physical transport every
//! episode claims: chip pins carry a fresh pseudo-random word *every*
//! cycle (so any off-by-one in the claimed timing reads a different word),
//! the core under test injects a pseudo-random response word at its
//! outputs, and each routed itinerary's RCG edges are pulsed at the exact
//! cycles the schedule reserves them for. Three invariants are asserted:
//!
//! (a) every justified vector arrives bit-exact at the CUT's input ports
//!     at the claimed arrival cycle (`obs_*` outputs);
//! (b) every response arrives bit-exact at the claimed chip output at the
//!     claimed capture cycle (`po_*` outputs);
//! (c) episodes packed concurrently by [`parallelize`] have pairwise
//!     disjoint resources and, replayed jointly, never disturb each
//!     other's transit values.
//!
//! The replay frame is departure-aligned: all of vector `v`'s routes
//! launch at slot start `v · per_vector`, and a route hop's interval
//! `[start, start+latency)` maps to absolute cycles `launch + start …`.
//! The arrival-aligned tester program of [`socet_core::tester`] is
//! cross-checked structurally (its `transit` must equal the itinerary
//! arrival and [`validate_program`] must pass).
//!
//! A design point has one drive program per episode plus the joint
//! parallel one. All of them are built first and then simulated together
//! on `socet-gate`'s compiled [`PackedSim`] kernel, one program per bit
//! lane (DESIGN.md §8).

use crate::shell::{InputRole, Shell};
use crate::VerifyError;
use socet_baselines::flatten_soc;
use socet_core::{
    parallelize, tester_program, validate_program, CoreEpisode, CoreTestData, DesignPoint,
    RouteHop, RouteItinerary,
};
use socet_gate::PackedSim;
use socet_obs::{self as obs, names, Counter};
use socet_rtl::{ChipPinId, CoreInstanceId, PortId, Soc, SocEndpoint};
use socet_transparency::RcgNode;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::ops::Range;

/// Deliberate mis-scheduling hook: shifts the *claimed* arrival cycle of
/// one input route by `delta` cycles, leaving the physical drive program
/// untouched. A correct oracle must catch any non-zero `delta`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Skew {
    /// Episode index (into `plan.episodes`).
    pub episode: usize,
    /// Input-route index within the episode.
    pub route: usize,
    /// Claimed-arrival shift in cycles.
    pub delta: i64,
}

/// Oracle configuration.
#[derive(Debug, Clone)]
pub struct VerifyOptions {
    /// Seed of every pseudo-random drive stream; the report is a pure
    /// function of `(soc, plan, options)`.
    pub seed: u64,
    /// Cap on replayed vectors per episode (`None` = replay all).
    pub max_vectors: Option<u64>,
    /// Also verify the parallel packing (invariant c).
    pub check_parallel: bool,
    /// Mis-scheduling injection hook for oracle self-tests.
    pub skew: Option<Skew>,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            seed: 0x50CE7,
            max_vectors: None,
            check_parallel: true,
            skew: None,
        }
    }
}

/// One invariant violation found during replay.
#[derive(Debug, Clone)]
pub struct Violation {
    /// `"serial"`, `"parallel"` or `"tester"`.
    pub phase: &'static str,
    /// Episode index into `plan.episodes`.
    pub episode: usize,
    /// Absolute replay cycle (0 for structural findings).
    pub cycle: u64,
    /// Human-readable description.
    pub detail: String,
}

/// Per-episode replay accounting.
#[derive(Debug, Clone)]
pub struct EpisodeSummary {
    /// Core-under-test instance name.
    pub core: String,
    /// Scheduled vector count.
    pub vectors_total: u64,
    /// Vectors actually replayed (capped by
    /// [`VerifyOptions::max_vectors`]).
    pub vectors_replayed: u64,
    /// Routed input itineraries.
    pub input_routes: usize,
    /// Routed output itineraries.
    pub output_routes: usize,
    /// Ports served by system-level test muxes (no physical transport to
    /// replay).
    pub system_mux_routes: usize,
    /// Bit-exact checks performed.
    pub checks: u64,
    /// Individual bits compared.
    pub bits_checked: u64,
    /// Bits the chip-level wiring does not transport (width-mismatched or
    /// overridden nets) — excluded from checking, reported honestly.
    pub bits_untracked: u64,
    /// Route instances whose held data was overwritten by another route of
    /// the *same* episode between reservation windows (the freeze-model
    /// gap, see DESIGN.md §8); their checks are skipped.
    pub hold_gaps: u64,
}

/// Parallel-phase accounting.
#[derive(Debug, Clone)]
pub struct ParallelSummary {
    /// Episode windows packed.
    pub windows: usize,
    /// Parallel makespan in cycles.
    pub makespan: u64,
    /// Serial TAT for comparison.
    pub serial_tat: u64,
    /// Checks performed during the joint replay.
    pub checks: u64,
}

/// The oracle's verdict: deterministic in `(soc, plan, options)` — same
/// seed, byte-identical [`VerifyReport::render`].
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// SOC name.
    pub soc: String,
    /// The verified version choice.
    pub choice: Vec<usize>,
    /// Shell netlist size.
    pub shell_gates: usize,
    /// Shell flip-flop count.
    pub shell_ffs: usize,
    /// Functional flattening (structural cross-check) size.
    pub flat_gates: usize,
    /// Functional flattening flip-flop count.
    pub flat_ffs: usize,
    /// Per-episode accounting, in plan order.
    pub episodes: Vec<EpisodeSummary>,
    /// Parallel-phase accounting when enabled.
    pub parallel: Option<ParallelSummary>,
    /// Every violation found, in detection order.
    pub violations: Vec<Violation>,
}

impl VerifyReport {
    /// Whether the plan replayed clean.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the deterministic text report.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "replay oracle: {} @ choice {:?}", self.soc, self.choice);
        let _ = writeln!(
            s,
            "  shell {} gates / {} ffs; functional flattening {} gates / {} ffs",
            self.shell_gates, self.shell_ffs, self.flat_gates, self.flat_ffs
        );
        for (i, ep) in self.episodes.iter().enumerate() {
            let _ = writeln!(
                s,
                "  episode {i} ({}): {}/{} vectors, {} in + {} out routes ({} system-mux), \
                 {} checks, {} bits ({} untracked), {} hold-gaps",
                ep.core,
                ep.vectors_replayed,
                ep.vectors_total,
                ep.input_routes,
                ep.output_routes,
                ep.system_mux_routes,
                ep.checks,
                ep.bits_checked,
                ep.bits_untracked,
                ep.hold_gaps
            );
        }
        if let Some(p) = &self.parallel {
            let _ = writeln!(
                s,
                "  parallel: {} windows, makespan {} (serial {}), {} checks",
                p.windows, p.makespan, p.serial_tat, p.checks
            );
        }
        for v in self.violations.iter().take(20) {
            let _ = writeln!(
                s,
                "  VIOLATION [{}] episode {} cycle {}: {}",
                v.phase, v.episode, v.cycle, v.detail
            );
        }
        if self.violations.len() > 20 {
            let _ = writeln!(s, "  ... {} more violations", self.violations.len() - 20);
        }
        let _ = writeln!(s, "  verdict: {}", if self.ok() { "PASS" } else { "FAIL" });
        s
    }
}

// ---------------------------------------------------------------------------
// Pseudo-random drive streams.

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn noise_bit(seed: u64, tag: u64, key: u64, cycle: u64, bit: u16) -> bool {
    mix(seed ^ mix(tag ^ mix(key ^ mix(cycle ^ u64::from(bit))))) & 1 == 1
}

/// A noise stream: `(tag, key)` of [`noise_bit`]. Chip pins and injected
/// CUT responses draw from disjoint tags.
type Stream = (u64, u64);

fn pin_stream(pin: usize) -> Stream {
    (1, pin as u64)
}

fn inj_stream(core: usize, port: usize) -> Stream {
    (2, ((core as u64) << 32) | port as u64)
}

// ---------------------------------------------------------------------------
// Provenance entries and route templates.

/// Where a transported destination bit comes from: the source-stream bit
/// and the launch-relative cycle of its first register latch (`None` =
/// purely combinational all the way, sampled at the arrival cycle).
type Entry = (u16, Option<u64>);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    Input,
    Output,
}

/// Everything about one route that is vector-independent; instantiated per
/// vector by shifting relative cycles by the launch cycle.
struct RouteTemplate {
    dir: Dir,
    route_idx: usize,
    arrival: u64,
    claimed: u64,
    src: Stream,
    /// Destination bit → (source bit, first-latch rel cycle).
    map: Vec<Option<Entry>>,
    /// Destination bit → shell output index.
    out_idx: Vec<Option<usize>>,
    /// Single-cycle activation pulses: (rel cycle, shell input index).
    acts: Vec<(u64, usize)>,
    /// Register loads: (core idx, reg idx, rel cycle, edge idx).
    loads: Vec<(usize, usize, u64, usize)>,
    /// Registers the route holds data in: (core idx, reg idx, first-load
    /// rel cycle), sorted.
    holds: Vec<(usize, usize, u64)>,
    /// Output-port opens: (core idx, port idx, rel cycle, lo, hi, edge).
    opens: Vec<(usize, usize, u64, u16, u16, usize)>,
}

/// One bit-exact check of the program bits `bits`, each packed as
/// `shell output index << 1 | expected value`.
struct Check {
    cycle: u64,
    vector: u64,
    episode: usize,
    route_idx: usize,
    dir: Dir,
    bits: Range<usize>,
}

/// Conflict-detection journals of one program. Every route instance is an
/// *owner*, numbered by the index of its check.
#[derive(Default)]
struct Journal {
    /// (core, reg, cycle, edge, owner).
    loads: Vec<(usize, usize, u64, usize, usize)>,
    /// (core, reg, start, end, owner) — value held over `(start, end)`
    /// exclusive of both ends.
    holds: Vec<(usize, usize, u64, u64, usize)>,
    /// (core, port, cycle, lo, hi, edge, owner).
    opens: Vec<(usize, usize, u64, u16, u16, usize, usize)>,
}

/// One replay run's drive program while it is being assembled.
#[derive(Default)]
struct Program {
    /// (cycle, input idx, +1/-1).
    events: Vec<(u64, usize, i32)>,
    /// Indexed by owner.
    checks: Vec<Check>,
    bits: Vec<u32>,
    journal: Journal,
}

impl Program {
    fn window(&mut self, from: u64, to: u64, input: usize) {
        self.events.push((from, input, 1));
        self.events.push((to, input, -1));
    }

    fn pulse(&mut self, cycle: u64, input: usize) {
        self.window(cycle, cycle + 1, input);
    }
}

/// A sealed program, ready to simulate: events sorted, clobbered checks
/// dropped, the rest sorted by cycle, journals gone.
struct Replay {
    events: Vec<(u64, usize, i32)>,
    checks: Vec<Check>,
    bits: Vec<u32>,
    /// Last check cycle + 1: no later cycle can affect a check.
    horizon: u64,
    phase: &'static str,
    /// Clobber findings at sealing, then check failures in cycle order.
    violations: Vec<Violation>,
}

#[derive(Default)]
struct EpisodeStats {
    checks: u64,
    bits_checked: u64,
    bits_untracked: u64,
}

// ---------------------------------------------------------------------------
// Template construction.

fn endpoint_matches(
    src: &SocEndpoint,
    want_pin: Option<ChipPinId>,
    want_core: Option<(CoreInstanceId, PortId)>,
) -> bool {
    match (src, want_pin, want_core) {
        (SocEndpoint::Pin { pin, .. }, Some(w), _) => *pin == w,
        (SocEndpoint::CorePort { core, port, .. }, _, Some((wc, wp))) => *core == wc && *port == wp,
        _ => false,
    }
}

/// Maps provenance entries across the chip nets into `(dst_core, dst_port)`
/// (or a PO pin when `dst_pin` is given), honouring the shell's
/// last-net-wins driver rule: a later net covering the same destination
/// bits overrides — with `None` when it comes from a different source.
fn net_image(
    soc: &Soc,
    src_pin: Option<ChipPinId>,
    src_core: Option<(CoreInstanceId, PortId)>,
    dst_pin: Option<ChipPinId>,
    dst_core: Option<(CoreInstanceId, PortId)>,
    width: u16,
    map: &[Option<Entry>],
) -> Vec<Option<Entry>> {
    let mut out: Vec<Option<Entry>> = vec![None; usize::from(width)];
    for net in soc.nets() {
        let (dr, matches_dst) = match (&net.dst, dst_pin, dst_core) {
            (SocEndpoint::Pin { pin, range }, Some(w), _) => (*range, *pin == w),
            (SocEndpoint::CorePort { core, port, range }, _, Some((wc, wp))) => {
                (*range, *core == wc && *port == wp)
            }
            _ => continue,
        };
        if !matches_dst {
            continue;
        }
        let from_ours = endpoint_matches(&net.src, src_pin, src_core);
        let sr = net.src.range();
        for bit in dr.bits() {
            if usize::from(bit) >= out.len() {
                continue;
            }
            let sbit = sr.lsb() + (bit - dr.lsb());
            out[usize::from(bit)] = if from_ours {
                map.get(usize::from(sbit)).copied().flatten()
            } else {
                None
            };
        }
    }
    out
}

/// Builds the vector-independent template of one route.
fn route_template(
    shell: &Shell,
    soc: &Soc,
    ep: &CoreEpisode,
    dir: Dir,
    route_idx: usize,
    it: &RouteItinerary,
    claimed: u64,
) -> Result<RouteTemplate, VerifyError> {
    let pin = it
        .pin
        .ok_or_else(|| VerifyError::Model("route_template on a system-mux route".into()))?;
    let arrival = u64::from(it.arrival);
    // Sample cycles: the first-latch moment of every register-bearing hop
    // plus the final consumption at the arrival cycle.
    let mut samples: Vec<u64> = it
        .hops
        .iter()
        .filter(|h| h.latency >= 1)
        .map(|h| u64::from(h.start))
        .collect();
    samples.push(arrival);
    samples.sort_unstable();
    samples.dedup();

    let mut acts = Vec::new();
    let mut loads = Vec::new();
    let mut opens = Vec::new();

    // Initial provenance: identity over the source word.
    let (mut map, src): (Vec<Option<Entry>>, Stream) = match dir {
        Dir::Input => {
            let w = soc.pin(pin).width();
            (
                (0..w).map(|b| Some((b, None))).collect(),
                pin_stream(pin.index()),
            )
        }
        Dir::Output => {
            let w = soc.core(ep.core).core().port(it.port).width();
            (
                (0..w).map(|b| Some((b, None))).collect(),
                inj_stream(ep.core.index(), it.port.index()),
            )
        }
    };

    // Walk the itinerary: net hop, transparency hop, net hop, ...
    let mut cur_pin: Option<ChipPinId> = match dir {
        Dir::Input => Some(pin),
        Dir::Output => None,
    };
    let mut cur_core: Option<(CoreInstanceId, PortId)> = match dir {
        Dir::Input => None,
        Dir::Output => Some((ep.core, it.port)),
    };
    for hop in &it.hops {
        let in_width = soc.core(hop.core).core().port(hop.input).width();
        map = net_image(
            soc,
            cur_pin,
            cur_core,
            None,
            Some((hop.core, hop.input)),
            in_width,
            &map,
        );
        map = hop_image(
            shell, soc, hop, &samples, &map, &mut acts, &mut loads, &mut opens,
        )?;
        cur_pin = None;
        cur_core = Some((hop.core, hop.output));
    }
    let (map, out_idx) = match dir {
        Dir::Input => {
            let w = soc.core(ep.core).core().port(it.port).width();
            let map = net_image(
                soc,
                cur_pin,
                cur_core,
                None,
                Some((ep.core, it.port)),
                w,
                &map,
            );
            let idx = (0..w)
                .map(|b| shell.obs_index.get(&(ep.core, it.port, b)).copied())
                .collect();
            (map, idx)
        }
        Dir::Output => {
            let w = soc.pin(pin).width();
            let map = net_image(soc, None, cur_core, Some(pin), None, w, &map);
            let idx = (0..w)
                .map(|b| shell.po_index.get(&(pin, b)).copied())
                .collect();
            (map, idx)
        }
    };
    let mut holds: Vec<(usize, usize, u64)> = loads.iter().map(|l| (l.0, l.1, l.2)).collect();
    holds.sort_unstable();
    holds.dedup_by_key(|h| (h.0, h.1));
    Ok(RouteTemplate {
        dir,
        route_idx,
        arrival,
        claimed,
        src,
        map,
        out_idx,
        acts,
        loads,
        holds,
        opens,
    })
}

/// Applies one transparency hop to the provenance map and records its
/// activation schedule (register loads as single-cycle pulses, output-port
/// opens at every sample cycle the data might be read through).
#[allow(clippy::too_many_arguments)]
fn hop_image(
    shell: &Shell,
    soc: &Soc,
    hop: &RouteHop,
    samples: &[u64],
    incoming: &[Option<Entry>],
    acts: &mut Vec<(u64, usize)>,
    loads: &mut Vec<(usize, usize, u64, usize)>,
    opens: &mut Vec<(usize, usize, u64, u16, u16, usize)>,
) -> Result<Vec<Option<Entry>>, VerifyError> {
    let ci = hop.core.index();
    let fab = shell
        .fabrics
        .get(&ci)
        .ok_or_else(|| VerifyError::Model(format!("no fabric for transit core {}", hop.core)))?;
    if hop.path >= fab.paths.len() {
        return Err(VerifyError::Model(format!(
            "hop path {} out of range for core {}",
            hop.path, hop.core
        )));
    }
    let core = soc.core(hop.core).core();
    let times = &fab.path_times[hop.path];
    let cone = fab.cone(hop.path, hop.output);
    let start = u64::from(hop.start);

    let width_of = |n: RcgNode| -> u16 {
        match n {
            RcgNode::In(p) | RcgNode::Out(p) => core.port(p).width(),
            RcgNode::Reg(r) => core.register(r).width(),
        }
    };
    let mut maps: HashMap<RcgNode, Vec<Option<Entry>>> = HashMap::new();
    maps.insert(RcgNode::In(hop.input), incoming.to_vec());

    // Register-writing cone edges in (latch cycle, edge index) order.
    let mut reg_edges: Vec<(u64, usize)> = Vec::new();
    let mut out_edges: Vec<usize> = Vec::new();
    for &e in &cone {
        let edge = fab.rcg.edges()[e];
        let Some(&tf) = times.get(&edge.from) else {
            continue; // unreachable-from-inputs side branch: untracked
        };
        match edge.to {
            RcgNode::Reg(_) => reg_edges.push((start + u64::from(tf), e)),
            RcgNode::Out(p) if p == hop.output => out_edges.push(e),
            _ => {}
        }
    }
    reg_edges.sort_unstable();

    for (rel, e) in &reg_edges {
        let edge = fab.rcg.edges()[*e];
        let RcgNode::Reg(r) = edge.to else { continue };
        let from_map = maps
            .get(&edge.from)
            .cloned()
            .unwrap_or_else(|| vec![None; usize::from(width_of(edge.from))]);
        let to_map = maps
            .entry(edge.to)
            .or_insert_with(|| vec![None; usize::from(width_of(edge.to))]);
        for bit in edge.to_range.bits() {
            if usize::from(bit) >= to_map.len() {
                continue;
            }
            let sbit = edge.from_range.lsb() + (bit - edge.to_range.lsb());
            let mut v = from_map.get(usize::from(sbit)).copied().flatten();
            if let Some(en) = &mut v {
                en.1 = Some(en.1.unwrap_or(*rel));
            }
            to_map[usize::from(bit)] = v;
        }
        let input_idx = shell.act_index[&(hop.core, *e)];
        acts.push((*rel, input_idx));
        loads.push((ci, r.index(), *rel, *e));
    }

    // Output map in edge-index order: with several edges simultaneously
    // open, the outermost (highest-index) mux leg wins — mirror that.
    let out_w = usize::from(core.port(hop.output).width());
    let mut out: Vec<Option<Entry>> = vec![None; out_w];
    for &e in &out_edges {
        let edge = fab.rcg.edges()[e];
        let tf = u64::from(*times.get(&edge.from).unwrap_or(&0));
        let from_map = maps
            .get(&edge.from)
            .cloned()
            .unwrap_or_else(|| vec![None; usize::from(width_of(edge.from))]);
        for bit in edge.to_range.bits() {
            if usize::from(bit) >= out.len() {
                continue;
            }
            let sbit = edge.from_range.lsb() + (bit - edge.to_range.lsb());
            out[usize::from(bit)] = from_map.get(usize::from(sbit)).copied().flatten();
        }
        // Open the edge at every sample cycle at which its source is ready.
        let input_idx = shell.act_index[&(hop.core, e)];
        for &s in samples {
            if s >= start + tf {
                acts.push((s, input_idx));
                opens.push((
                    ci,
                    hop.output.index(),
                    s,
                    edge.to_range.lsb(),
                    edge.to_range.msb(),
                    e,
                ));
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Per-episode program assembly.

#[allow(clippy::too_many_arguments)]
fn add_episode(
    prog: &mut Program,
    shell: &Shell,
    soc: &Soc,
    plan_idx: usize,
    ep: &CoreEpisode,
    offset: u64,
    opts: &VerifyOptions,
    stats: &mut EpisodeStats,
) -> Result<(), VerifyError> {
    let per = u64::from(ep.per_vector_cycles);
    let vectors = opts
        .max_vectors
        .map_or(ep.hscan_vectors, |m| ep.hscan_vectors.min(m));
    // CUT in test mode for its whole window.
    let tm = shell.tm_index[&ep.core];
    prog.window(offset, offset + ep.test_time().max(1), tm);

    let mut templates: Vec<RouteTemplate> = Vec::new();
    for (idx, it) in ep.input_routes.iter().enumerate() {
        if it.is_system_mux() {
            continue;
        }
        let mut claimed = u64::from(it.arrival);
        if let Some(sk) = opts.skew {
            if sk.episode == plan_idx && sk.route == idx {
                claimed = claimed.saturating_add_signed(sk.delta);
            }
        }
        templates.push(route_template(
            shell,
            soc,
            ep,
            Dir::Input,
            idx,
            it,
            claimed,
        )?);
    }
    for (idx, it) in ep.output_routes.iter().enumerate() {
        if it.is_system_mux() {
            continue;
        }
        templates.push(route_template(
            shell,
            soc,
            ep,
            Dir::Output,
            idx,
            it,
            u64::from(it.arrival),
        )?);
    }

    for v in 0..vectors {
        let launch = offset + v * per;
        for t in &templates {
            let owner = prog.checks.len();
            for &(rel, input) in &t.acts {
                prog.pulse(launch + rel, input);
            }
            let j = &mut prog.journal;
            for &(c, r, rel, e) in &t.loads {
                j.loads.push((c, r, launch + rel, e, owner));
            }
            // Held from its first load until the route's last sample.
            for &(c, r, first) in &t.holds {
                j.holds
                    .push((c, r, launch + first, launch + t.arrival, owner));
            }
            for &(c, p, rel, lo, hi, e) in &t.opens {
                j.opens.push((c, p, launch + rel, lo, hi, e, owner));
            }
            let start = prog.bits.len();
            for (bit, entry) in t.map.iter().enumerate() {
                match (entry, t.out_idx[bit]) {
                    (Some((sbit, fl)), Some(out)) => {
                        let cycle = launch + fl.unwrap_or(t.arrival);
                        let want = noise_bit(opts.seed, t.src.0, t.src.1, cycle, *sbit);
                        let packed = u32::try_from(out << 1 | usize::from(want));
                        prog.bits
                            .push(packed.expect("shell outputs are u32-indexed"));
                    }
                    _ => stats.bits_untracked += 1,
                }
            }
            let bits = start..prog.bits.len();
            stats.bits_checked += bits.len() as u64;
            stats.checks += 1;
            prog.checks.push(Check {
                cycle: launch + t.claimed,
                vector: v,
                episode: plan_idx,
                route_idx: t.route_idx,
                dir: t.dir,
                bits,
            });
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Conflict analysis.

/// What overwrote an owner's transported data before its consumption:
/// `(clobbering episode, core, cycle)`.
type Clobber = (usize, usize, u64);

/// The first clobber of every owner, indexed by owner. Each journal is
/// sorted, then scanned in a fixed order — holds in journal order, then
/// same-cycle load groups, then open groups, by ascending key — so the
/// first clobber, and with it the blamed episode, never depends on hashing.
fn clobbers(j: &mut Journal, checks: &[Check]) -> Vec<Option<Clobber>> {
    let episode = |owner: usize| checks[owner].episode;
    let mut out: Vec<Option<Clobber>> = vec![None; checks.len()];
    let mut blame = |owner: usize, by: Clobber| {
        out[owner].get_or_insert(by);
    };
    // Register holds vs foreign loads strictly inside the hold.
    j.loads.sort_unstable();
    for &(c, r, start, end, owner) in &j.holds {
        let from = j
            .loads
            .partition_point(|l| (l.0, l.1, l.2) <= (c, r, start));
        if let Some(l) = j.loads[from..]
            .iter()
            .take_while(|l| (l.0, l.1) == (c, r) && l.2 < end)
            .find(|l| l.4 != owner)
        {
            blame(owner, (episode(l.4), c, l.2));
        }
    }
    // Simultaneous loads of the same register through different edges: the
    // higher-index mux leg wins, the lower ones are shadowed. Within a group
    // the loads are sorted by edge, then owner (journal order), so the
    // winner is the first load on the highest edge.
    for group in j.loads.chunk_by(|a, b| (a.0, a.1, a.2) == (b.0, b.1, b.2)) {
        let max_edge = group[group.len() - 1].3;
        let first_max = group.partition_point(|l| l.3 < max_edge);
        let winner = episode(group[first_max].4);
        for l in &group[..first_max] {
            blame(l.4, (winner, l.0, l.2));
        }
    }
    // Output-port opens: different edges, same port, same cycle, bit
    // overlap — the lower-index edge's reader is shadowed. The stable sort
    // keeps journal order within a key.
    j.opens.sort_by_key(|o| (o.0, o.1, o.2));
    for group in j.opens.chunk_by(|a, b| (a.0, a.1, a.2) == (b.0, b.1, b.2)) {
        for (i, &(c, _, cycle, lo1, hi1, e1, o1)) in group.iter().enumerate() {
            for &(_, _, _, lo2, hi2, e2, o2) in &group[i + 1..] {
                if o1 == o2 || e1 == e2 || lo1 > hi2 || lo2 > hi1 {
                    continue;
                }
                let (shadowed, winner) = if e1 < e2 { (o1, o2) } else { (o2, o1) };
                blame(shadowed, (episode(winner), c, cycle));
            }
        }
    }
    out
}

impl Program {
    /// Runs the clobber analysis, drops the journals and the checks it
    /// skips, and sorts what is left for simulation. A clobber across
    /// episodes is a reservation conflict (invariant c); within an episode
    /// it is the freeze-model gap — counted in `hold_gaps`, check skipped.
    fn seal(mut self, soc: &Soc, phase: &'static str, hold_gaps: &mut [u64]) -> Replay {
        let clobbered = clobbers(&mut self.journal, &self.checks);
        drop(self.journal);
        let mut violations = Vec::new();
        let mut reported: HashSet<(usize, usize)> = HashSet::new();
        for (owner, clobber) in clobbered.iter().enumerate() {
            let Some((by_ep, core, cycle)) = *clobber else {
                continue;
            };
            let own_ep = self.checks[owner].episode;
            if own_ep == by_ep {
                hold_gaps[own_ep] += 1;
            } else if reported.insert((own_ep.min(by_ep), own_ep.max(by_ep))) {
                violations.push(Violation {
                    phase,
                    episode: own_ep,
                    cycle,
                    detail: format!(
                        "reservation conflict: episode {by_ep} overwrote transit data of \
                         episode {own_ep} in core {} (invariant c)",
                        soc.core(CoreInstanceId::from_index(core)).name()
                    ),
                });
            }
        }
        let mut checks: Vec<Check> = self
            .checks
            .into_iter()
            .zip(&clobbered)
            .filter_map(|(c, clobber)| clobber.is_none().then_some(c))
            .collect();
        checks.sort_by_key(|c| c.cycle);
        self.events.sort_unstable();
        Replay {
            horizon: checks.last().map_or(0, |c| c.cycle + 1),
            events: self.events,
            checks,
            bits: self.bits,
            phase,
            violations,
        }
    }
}

// ---------------------------------------------------------------------------
// Packed simulation.

/// Lanes of one packed pass: replay *k* of a chunk drives bit *k*.
const LANES: usize = 64;

/// Simulates every replay on the shell, [`LANES`] at a time, appending
/// check failures to each replay's violations. Pin and injection noise is
/// computed once per cycle and broadcast; test-mode and activation inputs
/// are per-lane masks updated on events. Returns the cycles simulated.
fn simulate(shell: &Shell, replays: &mut [Replay], seed: u64) -> u64 {
    let sim = PackedSim::new(&shell.netlist);
    // (input index, stream, bit) of every noise-driven input.
    let noise: Vec<(usize, Stream, u16)> = (shell.input_roles.iter().enumerate())
        .filter_map(|(i, role)| match *role {
            InputRole::Pin { pin, bit } => Some((i, pin_stream(pin.index()), bit)),
            InputRole::Inject { core, port, bit } => {
                Some((i, inj_stream(core.index(), port.index()), bit))
            }
            InputRole::TestMode { .. } | InputRole::Act { .. } => None,
        })
        .collect();
    let inputs = shell.input_roles.len();
    let mut values = Vec::new();
    let mut cycles = 0;
    for chunk in replays.chunks_mut(LANES) {
        let horizon = chunk.iter().map(|r| r.horizon).max().unwrap_or(0);
        let mut pi = vec![0u64; inputs];
        let mut state = vec![0u64; shell.netlist.flip_flop_count()];
        let mut counts = vec![0i32; chunk.len() * inputs];
        // Per lane: next event, next check.
        let mut cursor = vec![(0usize, 0usize); chunk.len()];
        for t in 0..horizon {
            for (lane, r) in chunk.iter().enumerate() {
                let ev = &mut cursor[lane].0;
                while let Some(&(_, input, d)) = r.events.get(*ev).filter(|e| e.0 == t) {
                    let n = &mut counts[lane * inputs + input];
                    *n += d;
                    pi[input] = pi[input] & !(1 << lane) | u64::from(*n > 0) << lane;
                    *ev += 1;
                }
            }
            for &(i, (tag, key), bit) in &noise {
                pi[i] = 0u64.wrapping_sub(u64::from(noise_bit(seed, tag, key, t, bit)));
            }
            sim.eval_into(&pi, &state, None, &mut values);
            for (lane, r) in chunk.iter_mut().enumerate() {
                let ck = &mut cursor[lane].1;
                while let Some(c) = r.checks.get(*ck).filter(|c| c.cycle == t) {
                    *ck += 1;
                    let bits = &r.bits[c.bits.clone()];
                    let bad = bits
                        .iter()
                        .filter(|&&b| {
                            let got = sim.output(&values, (b >> 1) as usize) >> lane & 1;
                            got != u64::from(b & 1)
                        })
                        .count();
                    if bad > 0 {
                        let what = match c.dir {
                            Dir::Input => "justified vector missed CUT input (invariant a)",
                            Dir::Output => "response missed chip output (invariant b)",
                        };
                        let detail = format!(
                            "{what}: route {} vector {}: {bad}/{} bits differ",
                            c.route_idx,
                            c.vector,
                            c.bits.len()
                        );
                        r.violations.push(Violation {
                            phase: r.phase,
                            episode: c.episode,
                            cycle: t,
                            detail,
                        });
                    }
                }
            }
            sim.next_state_into(&values, &mut state);
        }
        cycles += horizon;
    }
    cycles
}

// ---------------------------------------------------------------------------
// Entry point.

/// Replays every episode of `plan` on the gate-level shell of `soc` and
/// checks the three invariants. See the module docs.
pub fn verify_design_point(
    soc: &Soc,
    data: &[Option<CoreTestData>],
    plan: &DesignPoint,
    opts: &VerifyOptions,
) -> Result<VerifyReport, VerifyError> {
    let _verify = obs::span(names::VERIFY);
    let build = obs::span(names::VERIFY_BUILD);
    let shell = Shell::build(soc, data, plan)?;
    let flat = flatten_soc(soc).map_err(VerifyError::Netlist)?;
    let mut violations = Vec::new();
    let mut summaries = Vec::new();
    let mut hold_gaps = vec![0u64; plan.episodes.len()];

    // Structural cross-checks against the tester-program expansion.
    for (i, ep) in plan.episodes.iter().enumerate() {
        let program = tester_program(soc, ep);
        if let Some(msg) = validate_program(ep, &program) {
            violations.push(Violation {
                phase: "tester",
                episode: i,
                cycle: 0,
                detail: format!("tester program invalid: {msg}"),
            });
        }
        let arrivals: HashMap<PortId, u32> = ep.input_arrivals.iter().copied().collect();
        for d in program.drives.iter().take(arrivals.len()) {
            if arrivals.get(&d.target_input) != Some(&d.transit) {
                violations.push(Violation {
                    phase: "tester",
                    episode: i,
                    cycle: d.cycle,
                    detail: format!(
                        "drive transit {} disagrees with itinerary arrival for {}",
                        d.transit, d.target_input
                    ),
                });
            }
        }
        if ep.input_routes.len() != ep.input_arrivals.len()
            || ep.output_routes.len() != ep.output_arrivals.len()
        {
            violations.push(Violation {
                phase: "tester",
                episode: i,
                cycle: 0,
                detail: "itinerary list out of step with arrival list".into(),
            });
        }
        for (r, (p, a)) in ep.input_routes.iter().zip(&ep.input_arrivals) {
            if r.port != *p || r.arrival != *a {
                violations.push(Violation {
                    phase: "tester",
                    episode: i,
                    cycle: 0,
                    detail: format!("input itinerary for {p} disagrees with arrival {a}"),
                });
            }
        }
    }

    // Serial phase: every episode replayed in isolation, one program each.
    let mut replays = Vec::new();
    for (i, ep) in plan.episodes.iter().enumerate() {
        let mut stats = EpisodeStats::default();
        let mut prog = Program::default();
        add_episode(&mut prog, &shell, soc, i, ep, 0, opts, &mut stats)?;
        replays.push(prog.seal(soc, "serial", &mut hold_gaps));
        let sys_mux = ep
            .input_routes
            .iter()
            .chain(&ep.output_routes)
            .filter(|r| r.is_system_mux())
            .count();
        summaries.push(EpisodeSummary {
            core: soc.core(ep.core).name().to_owned(),
            vectors_total: ep.hscan_vectors,
            vectors_replayed: opts
                .max_vectors
                .map_or(ep.hscan_vectors, |m| ep.hscan_vectors.min(m)),
            input_routes: ep.input_routes.len(),
            output_routes: ep.output_routes.len(),
            system_mux_routes: sys_mux,
            checks: stats.checks,
            bits_checked: stats.bits_checked,
            bits_untracked: stats.bits_untracked,
            hold_gaps: 0, // filled below from the shared counter
        });
    }

    // Parallel phase: the packed windows replayed jointly (invariant c).
    let parallel = if opts.check_parallel && !plan.episodes.is_empty() {
        let par = parallelize(soc, plan);
        // Explicit pairwise resource disjointness of overlapping windows.
        let mut structural = Vec::new();
        type WindowResources = (u64, u64, HashSet<(u8, usize)>);
        let resources: Vec<WindowResources> = par
            .windows
            .iter()
            .map(|(core, s, e)| {
                let ep = plan
                    .episodes
                    .iter()
                    .find(|ep| ep.core == *core)
                    .expect("window core has an episode");
                let mut set: HashSet<(u8, usize)> = HashSet::new();
                set.insert((0, ep.core.index()));
                for c in &ep.transit_cores {
                    set.insert((0, c.index()));
                }
                for p in &ep.pins {
                    set.insert((1, p.index()));
                }
                (*s, *e, set)
            })
            .collect();
        for (i, (s1, e1, r1)) in resources.iter().enumerate() {
            for (s2, e2, r2) in resources.iter().skip(i + 1) {
                if s1 < e2 && s2 < e1 && r1.intersection(r2).next().is_some() {
                    structural.push(Violation {
                        phase: "parallel",
                        episode: i,
                        cycle: *s1.max(s2),
                        detail: "overlapping windows share a resource (invariant c)".into(),
                    });
                }
            }
        }
        let mut prog = Program::default();
        let mut stats = EpisodeStats::default();
        for (core, start, _end) in &par.windows {
            let (i, ep) = plan
                .episodes
                .iter()
                .enumerate()
                .find(|(_, ep)| ep.core == *core)
                .expect("window core has an episode");
            add_episode(&mut prog, &shell, soc, i, ep, *start, opts, &mut stats)?;
        }
        let mut replay = prog.seal(soc, "parallel", &mut hold_gaps);
        replay.violations.splice(0..0, structural);
        let checks = replay.checks.len() as u64;
        replays.push(replay);
        Some(ParallelSummary {
            windows: par.windows.len(),
            makespan: par.makespan,
            serial_tat: par.serial_tat,
            checks,
        })
    } else {
        None
    };
    drop(build);

    {
        let _simulate = obs::span(names::VERIFY_SIMULATE);
        obs::add(
            Counter::VerifyCycles,
            simulate(&shell, &mut replays, opts.seed),
        );
    }
    for r in replays {
        obs::add(Counter::VerifyChecks, r.checks.len() as u64);
        obs::add(
            Counter::VerifyBits,
            r.checks.iter().map(|c| c.bits.len() as u64).sum(),
        );
        violations.extend(r.violations);
    }

    for (i, s) in summaries.iter_mut().enumerate() {
        s.hold_gaps = hold_gaps[i];
    }
    obs::add(
        Counter::VerifyBitsUntracked,
        summaries.iter().map(|s| s.bits_untracked).sum(),
    );
    obs::add(Counter::VerifyHoldGaps, hold_gaps.iter().sum());
    Ok(VerifyReport {
        soc: soc.name().to_owned(),
        choice: plan.choice.clone(),
        shell_gates: shell.netlist.gates().len(),
        shell_ffs: shell.netlist.flip_flop_count(),
        flat_gates: flat.gates().len(),
        flat_ffs: flat.flip_flop_count(),
        episodes: summaries,
        parallel,
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use socet_cells::DftCosts;
    use socet_core::{plan_inputs, try_schedule};

    fn check(episode: usize) -> Check {
        Check {
            cycle: 9,
            vector: 0,
            episode,
            route_idx: 0,
            dir: Dir::Input,
            bits: 0..0,
        }
    }

    #[test]
    fn clobber_attribution_is_deterministic() {
        // Owner 0 (episode 0) loads registers 0 and 1 of core 0 at cycle 5
        // through edge 0; in the same cycle owner 1 (episode 1) loads
        // register 0 and owner 2 (episode 2) register 1 through the
        // winning edge 1. Both shadow owner 0: the lower key blames
        // episode 1, every time.
        let checks = [check(0), check(1), check(2)];
        let mut seen = HashSet::new();
        for _ in 0..50 {
            let mut journal = Journal {
                loads: vec![
                    (0, 1, 5, 0, 0),
                    (0, 1, 5, 1, 2),
                    (0, 0, 5, 0, 0),
                    (0, 0, 5, 1, 1),
                ],
                ..Journal::default()
            };
            seen.insert(clobbers(&mut journal, &checks)[0]);
        }
        assert_eq!(seen.into_iter().collect::<Vec<_>>(), [Some((1, 0, 5))]);
    }

    #[test]
    fn shadowed_open_blames_the_winning_episode() {
        // Owner 0 (episode 0) reads port 0 of core 0 through edge 1 at
        // cycle 5; owner 1 (episode 1) reads overlapping bits through edge
        // 0 in the same cycle. The higher edge wins: episode 0 shadowed
        // owner 1, a cross-episode conflict, not a hold gap of episode 1.
        let checks = [check(0), check(1)];
        let mut journal = Journal {
            opens: vec![(0, 0, 5, 0, 3, 1, 0), (0, 0, 5, 2, 7, 0, 1)],
            ..Journal::default()
        };
        assert_eq!(clobbers(&mut journal, &checks), [None, Some((0, 0, 5))]);
    }

    /// The barcode system at the paper design point, 3 vectors per core.
    fn system1() -> (Soc, Vec<Option<CoreTestData>>, DesignPoint) {
        let soc = socet_socs::barcode_system();
        let costs = DftCosts::default();
        let data = plan_inputs(&soc, &costs, 3).expect("paper cores have versions");
        let plan = try_schedule(&soc, &data, &vec![0; soc.cores().len()], &costs)
            .expect("paper design point schedules");
        (soc, data, plan)
    }

    fn findings(r: &Replay) -> Vec<String> {
        r.violations
            .iter()
            .map(|v| format!("{} {} {} {}", v.phase, v.episode, v.cycle, v.detail))
            .collect()
    }

    #[test]
    fn chunked_replay_matches_single_program_replay() {
        let (soc, data, plan) = system1();
        let shell = Shell::build(&soc, &data, &plan).expect("shell builds");
        let seed = VerifyOptions::default().seed;
        // 70 programs — a full chunk of 64 lanes and a partial one — each
        // one episode at its own offset; every sixth replays CPU route 0
        // with its claim skewed by ±1 so that some lanes fail.
        let build = |k: usize| {
            let i = k % plan.episodes.len();
            let opts = VerifyOptions {
                max_vectors: Some(2),
                skew: (k % 6 == 1).then_some(Skew {
                    episode: i,
                    route: 0,
                    delta: if k % 12 == 1 { 1 } else { -1 },
                }),
                ..VerifyOptions::default()
            };
            let mut stats = EpisodeStats::default();
            let mut prog = Program::default();
            add_episode(
                &mut prog,
                &shell,
                &soc,
                i,
                &plan.episodes[i],
                k as u64,
                &opts,
                &mut stats,
            )
            .expect("program builds");
            prog.seal(&soc, "serial", &mut vec![0; plan.episodes.len()])
        };
        let mut packed: Vec<Replay> = (0..70).map(build).collect();
        let cycles = simulate(&shell, &mut packed, seed);
        let horizon = |rs: &[Replay]| rs.iter().map(|r| r.horizon).max().unwrap_or(0);
        assert_eq!(cycles, horizon(&packed[..64]) + horizon(&packed[64..]));
        let mut failing = Vec::new();
        for (k, replay) in packed.iter().enumerate() {
            let mut alone = [build(k)];
            simulate(&shell, &mut alone, seed);
            assert_eq!(findings(replay), findings(&alone[0]), "program {k}");
            if !replay.violations.is_empty() {
                failing.push(k);
            }
        }
        assert_eq!(failing, (1..70).step_by(6).collect::<Vec<_>>());
    }
}
