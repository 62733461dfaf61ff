//! The replay netlist: a gate-level model of the DFT-inserted chip as the
//! scheduler sees it — register banks, the RCG edge fabric each core's
//! selected transparency version uses, test-mode output muxes, and the
//! chip-level interconnect.
//!
//! The functional clouds inside each core are irrelevant to test-data
//! transport (transparency bypasses them by construction), so the shell
//! models exactly the machinery the schedule claims to use:
//!
//! * every register touched by a used RCG edge becomes a DFF bank whose D
//!   input is a priority mux chain over the edges writing it, gated by
//!   per-edge *activation* inputs; with every activation low the register
//!   holds — the paper's freezable core clock;
//! * every core output port is a mux chain over the edges driving it
//!   (default 0), then a final test-mode mux that substitutes the injected
//!   CUT response when the core is under test;
//! * chip nets wire pins and ports together with the same last-net-wins
//!   rule `socet_baselines::flatten` uses, so the shell and the functional
//!   flattening agree on interconnect semantics.
//!
//! Every logic-core input-port bit is exported as an `obs_*` output (the
//! oracle's window for invariant (a)) and every chip PO bit as a `po_*`
//! output (invariant (b)).

use crate::VerifyError;
use socet_core::{CoreTestData, DesignPoint};
use socet_gate::{GateNetlist, GateNetlistBuilder, SignalId};
use socet_rtl::{ChipPinId, CoreInstanceId, PortId, RegisterId, Soc};
use socet_transparency::{level_support, Rcg, RcgNode, TransparencyPath};
use std::collections::HashMap;

/// What one primary input of the shell netlist means. The vector of roles
/// is index-aligned with [`GateNetlist::inputs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputRole {
    /// Bit `bit` of chip input pin `pin`.
    Pin {
        /// The chip pin.
        pin: ChipPinId,
        /// The bit.
        bit: u16,
    },
    /// Test-mode flag of a logic core: high substitutes the injected
    /// response on every output port.
    TestMode {
        /// The core.
        core: CoreInstanceId,
    },
    /// Bit `bit` of the response word injected at output `port` of `core`
    /// while it is under test.
    Inject {
        /// The core.
        core: CoreInstanceId,
        /// The output port.
        port: PortId,
        /// The bit.
        bit: u16,
    },
    /// Activation of RCG edge `edge` (index into the core's support RCG) of
    /// `core`: high lets the edge load its destination this cycle.
    Act {
        /// The core.
        core: CoreInstanceId,
        /// The RCG edge index.
        edge: usize,
    },
}

/// The per-core transparency fabric the shell instantiated: the support RCG
/// of the selected version (whose `EdgeId`s the version's paths index), the
/// paths themselves, and the used-edge set.
pub struct CoreFabric {
    /// The core instance.
    pub core: CoreInstanceId,
    /// The support RCG of the selected level.
    pub rcg: Rcg,
    /// The selected version's transparency paths (identical to the plan's).
    pub paths: Vec<TransparencyPath>,
    /// Deduplicated RCG edge indices used by any path, ascending.
    pub used_edges: Vec<usize>,
    /// Relaxed node times per path: cycles after the hop start at which the
    /// node's value is available (inputs at 0, registers at ≥ 1).
    pub path_times: Vec<HashMap<RcgNode, u32>>,
}

impl CoreFabric {
    /// The edges of path `path` that (transitively) feed `Out(output)` —
    /// the cone the oracle activates, leaving the path's other terminals
    /// quiet so concurrent routes are not disturbed. Ascending edge order.
    pub fn cone(&self, path: usize, output: PortId) -> Vec<usize> {
        let edges = &self.paths[path].edges;
        let mut nodes: Vec<RcgNode> = vec![RcgNode::Out(output)];
        let mut member = vec![false; edges.len()];
        let mut changed = true;
        while changed {
            changed = false;
            for (k, id) in edges.iter().enumerate() {
                if member[k] {
                    continue;
                }
                let e = self.rcg.edge(*id);
                if nodes.contains(&e.to) {
                    member[k] = true;
                    changed = true;
                    if !nodes.contains(&e.from) {
                        nodes.push(e.from);
                    }
                }
            }
        }
        edges
            .iter()
            .enumerate()
            .filter(|(k, _)| member[*k])
            .map(|(_, id)| id.index())
            .collect()
    }
}

/// The assembled replay netlist plus every index the oracle needs to drive
/// and observe it.
pub struct Shell {
    /// The gate netlist (one per SOC + version choice, shared by all
    /// episodes).
    pub netlist: GateNetlist,
    /// Roles of the netlist's primary inputs, index-aligned.
    pub input_roles: Vec<InputRole>,
    /// `(core, edge index) → input position` for activation inputs.
    pub act_index: HashMap<(CoreInstanceId, usize), usize>,
    /// `core → input position` for test-mode inputs.
    pub tm_index: HashMap<CoreInstanceId, usize>,
    /// `(core, input port, bit) → output position` of the `obs_*` outputs.
    pub obs_index: HashMap<(CoreInstanceId, PortId, u16), usize>,
    /// `(pin, bit) → output position` of the `po_*` outputs.
    pub po_index: HashMap<(ChipPinId, u16), usize>,
    /// Per logic core (indexed by `CoreInstanceId::index`), its fabric.
    pub fabrics: HashMap<usize, CoreFabric>,
    /// Registers instantiated, as `(core, register, width)`.
    pub registers: Vec<(CoreInstanceId, RegisterId, u16)>,
}

impl Shell {
    /// Builds the shell of `soc` under `plan.choice`.
    pub fn build(
        soc: &Soc,
        data: &[Option<CoreTestData>],
        plan: &DesignPoint,
    ) -> Result<Shell, VerifyError> {
        let mut b = GateNetlistBuilder::new(&format!("{}_replay_shell", soc.name()));
        let mut roles = Vec::new();
        let mut act_index = HashMap::new();
        let mut tm_index = HashMap::new();

        // 1. Chip input pins.
        let mut pin_sig: HashMap<(usize, u16), SignalId> = HashMap::new();
        for pin in soc.primary_inputs() {
            for bit in 0..soc.pin(pin).width() {
                let s = b.input(&format!("pi_{}_{}", pin.index(), bit));
                pin_sig.insert((pin.index(), bit), s);
                roles.push(InputRole::Pin { pin, bit });
            }
        }

        // 2. Per-core test-mode flags.
        let mut tm_sig: HashMap<usize, SignalId> = HashMap::new();
        for cid in soc.logic_cores() {
            let s = b.input(&format!("tm_c{}", cid.index()));
            tm_index.insert(cid, roles.len());
            roles.push(InputRole::TestMode { core: cid });
            tm_sig.insert(cid.index(), s);
        }

        // 3. Injected CUT responses, one word per output port.
        let mut inj_sig: HashMap<(usize, usize, u16), SignalId> = HashMap::new();
        for cid in soc.logic_cores() {
            let core = soc.core(cid).core();
            for port in core.output_ports() {
                for bit in 0..core.port(port).width() {
                    let s = b.input(&format!("inj_c{}_p{}_{}", cid.index(), port.index(), bit));
                    inj_sig.insert((cid.index(), port.index(), bit), s);
                    roles.push(InputRole::Inject {
                        core: cid,
                        port,
                        bit,
                    });
                }
            }
        }

        // 4. Resolve each core's selected version into its support RCG and
        //    declare one activation input per used edge.
        let mut fabrics: HashMap<usize, CoreFabric> = HashMap::new();
        let mut act_sig: HashMap<(usize, usize), SignalId> = HashMap::new();
        for cid in soc.logic_cores() {
            let td = data
                .get(cid.index())
                .and_then(|d| d.as_ref())
                .ok_or_else(|| VerifyError::Model(format!("core {cid} has no test data")))?;
            let choice = *plan.choice.get(cid.index()).unwrap_or(&0);
            let version = td.versions.get(choice).ok_or_else(|| {
                VerifyError::Model(format!("core {cid}: choice {choice} out of range"))
            })?;
            let core = soc.core(cid).core();
            let (rcg, paths) =
                level_support(core, &td.hscan, version.level()).map_err(VerifyError::Search)?;
            if paths != version.paths() {
                return Err(VerifyError::Model(format!(
                    "core {cid}: level_support paths diverge from the version ladder"
                )));
            }
            let mut used: Vec<usize> = paths
                .iter()
                .flat_map(|p| p.edges.iter().map(|e| e.index()))
                .collect();
            used.sort_unstable();
            used.dedup();
            for &e in &used {
                let s = b.input(&format!("act_c{}_e{}", cid.index(), e));
                act_index.insert((cid, e), roles.len());
                roles.push(InputRole::Act { core: cid, edge: e });
                act_sig.insert((cid.index(), e), s);
            }
            let path_times = paths.iter().map(|p| relax_times(&rcg, p)).collect();
            fabrics.insert(
                cid.index(),
                CoreFabric {
                    core: cid,
                    rcg,
                    paths,
                    used_edges: used,
                    path_times,
                },
            );
        }

        // 5. Placeholder inputs for every logic-core input-port bit; rewired
        //    to their net drivers once all core outputs exist (chip nets may
        //    connect cores in any order).
        let mut ph_sig: HashMap<(usize, usize, u16), SignalId> = HashMap::new();
        for cid in soc.logic_cores() {
            let core = soc.core(cid).core();
            for port in core.input_ports() {
                for bit in 0..core.port(port).width() {
                    let s = b.input(&format!("ph_c{}_p{}_{}", cid.index(), port.index(), bit));
                    ph_sig.insert((cid.index(), port.index(), bit), s);
                }
            }
        }

        // 6. Register banks: deferred DFFs first (D chains may read other
        //    registers of the same core), then the hold/load mux chains.
        let mut reg_q: HashMap<(usize, usize, u16), SignalId> = HashMap::new();
        let mut registers = Vec::new();
        for cid in soc.logic_cores() {
            let fab = &fabrics[&cid.index()];
            let core = soc.core(cid).core();
            let mut regs: Vec<RegisterId> = fab
                .used_edges
                .iter()
                .flat_map(|&e| {
                    let edge = &fab.rcg.edges()[e];
                    [edge.from, edge.to]
                })
                .filter_map(|n| match n {
                    RcgNode::Reg(r) => Some(r),
                    _ => None,
                })
                .collect();
            regs.sort_unstable();
            regs.dedup();
            for r in regs {
                let w = core.register(r).width();
                for bit in 0..w {
                    let q = b.dff_deferred();
                    reg_q.insert((cid.index(), r.index(), bit), q);
                }
                registers.push((cid, r, w));
            }
        }

        // A local closure cannot borrow the builder mutably twice, so edge
        // sources are resolved through the maps directly.
        type BitMap = HashMap<(usize, usize, u16), SignalId>;
        let src_of =
            |maps: (&BitMap, &BitMap), cidx: usize, node: RcgNode, bit: u16| -> Option<SignalId> {
                let (ph, regq) = maps;
                match node {
                    RcgNode::In(p) => ph.get(&(cidx, p.index(), bit)).copied(),
                    RcgNode::Reg(r) => regq.get(&(cidx, r.index(), bit)).copied(),
                    RcgNode::Out(_) => None,
                }
            };

        // 7. D chains: default hold, each used edge into the register adds a
        //    priority mux (later edge index = outer mux = wins on ties).
        for (cid, r, w) in &registers {
            let fab = &fabrics[&cid.index()];
            for bit in 0..*w {
                let q = reg_q[&(cid.index(), r.index(), bit)];
                let mut d = q;
                for &e in &fab.used_edges {
                    let edge = fab.rcg.edges()[e];
                    if edge.to != RcgNode::Reg(*r) || !edge.to_range.contains_bit(bit) {
                        continue;
                    }
                    let sbit = edge.from_range.lsb() + (bit - edge.to_range.lsb());
                    let Some(src) = src_of((&ph_sig, &reg_q), cid.index(), edge.from, sbit) else {
                        continue;
                    };
                    let act = act_sig[&(cid.index(), e)];
                    d = b.mux(act, d, src);
                }
                b.set_dff_input(q, d);
            }
        }

        // 8. Core output ports: fabric mux chain (default 0) then the
        //    test-mode injection mux. Memory-core outputs are constant 0.
        let mut core_out: HashMap<(usize, usize, u16), SignalId> = HashMap::new();
        for (ci, inst) in soc.cores().iter().enumerate() {
            let core = inst.core();
            for port in core.output_ports() {
                for bit in 0..core.port(port).width() {
                    let sig = if inst.is_memory() {
                        b.const0()
                    } else {
                        let fab = &fabrics[&ci];
                        let mut v = b.const0();
                        for &e in &fab.used_edges {
                            let edge = fab.rcg.edges()[e];
                            if edge.to != RcgNode::Out(port) || !edge.to_range.contains_bit(bit) {
                                continue;
                            }
                            let sbit = edge.from_range.lsb() + (bit - edge.to_range.lsb());
                            let Some(src) = src_of((&ph_sig, &reg_q), ci, edge.from, sbit) else {
                                continue;
                            };
                            let act = act_sig[&(ci, e)];
                            v = b.mux(act, v, src);
                        }
                        let inj = inj_sig[&(ci, port.index(), bit)];
                        b.mux(tm_sig[&ci], v, inj)
                    };
                    core_out.insert((ci, port.index(), bit), sig);
                }
            }
        }

        // 9. Chip nets: resolve core-input placeholders and PO pins with
        //    the same last-net-wins rule flatten_soc applies.
        let resolve = |b: &mut GateNetlistBuilder,
                       core_out: &HashMap<(usize, usize, u16), SignalId>,
                       pin_sig: &HashMap<(usize, u16), SignalId>,
                       src: &socet_rtl::SocEndpoint,
                       sbit: u16|
         -> Option<SignalId> {
            match *src {
                socet_rtl::SocEndpoint::Pin { pin, .. } => {
                    pin_sig.get(&(pin.index(), sbit)).copied()
                }
                socet_rtl::SocEndpoint::CorePort { core, port, .. } => {
                    core_out.get(&(core.index(), port.index(), sbit)).copied()
                }
            }
            .or_else(|| Some(b.const0()))
        };
        let mut obs_index = HashMap::new();
        let mut obs_outs: Vec<(String, SignalId)> = Vec::new();
        for cid in soc.logic_cores() {
            let core = soc.core(cid).core();
            for port in core.input_ports() {
                for bit in 0..core.port(port).width() {
                    let mut driver = b.const0();
                    for net in soc.nets() {
                        let socet_rtl::SocEndpoint::CorePort {
                            core: dc,
                            port: dp,
                            range: dr,
                        } = net.dst
                        else {
                            continue;
                        };
                        if dc != cid || dp != port || !dr.contains_bit(bit) {
                            continue;
                        }
                        let sbit = net.src.range().lsb() + (bit - dr.lsb());
                        if let Some(s) = resolve(&mut b, &core_out, &pin_sig, &net.src, sbit) {
                            driver = s;
                        }
                    }
                    let ph = ph_sig[&(cid.index(), port.index(), bit)];
                    b.rewire_input(ph, driver);
                    obs_index.insert((cid, port, bit), obs_outs.len());
                    obs_outs.push((
                        format!("obs_c{}_p{}_{}", cid.index(), port.index(), bit),
                        driver,
                    ));
                }
            }
        }
        let mut po_index = HashMap::new();
        let mut po_outs: Vec<(String, SignalId)> = Vec::new();
        for pin in soc.primary_outputs() {
            for bit in 0..soc.pin(pin).width() {
                let mut driver = b.const0();
                for net in soc.nets() {
                    let socet_rtl::SocEndpoint::Pin {
                        pin: dpin,
                        range: dr,
                    } = net.dst
                    else {
                        continue;
                    };
                    if dpin != pin || !dr.contains_bit(bit) {
                        continue;
                    }
                    let sbit = net.src.range().lsb() + (bit - dr.lsb());
                    if let Some(s) = resolve(&mut b, &core_out, &pin_sig, &net.src, sbit) {
                        driver = s;
                    }
                }
                po_index.insert((pin, bit), obs_outs.len() + po_outs.len());
                po_outs.push((format!("po_{}_{}", pin.index(), bit), driver));
            }
        }
        for (name, s) in obs_outs.into_iter().chain(po_outs) {
            b.output(&name, s);
        }

        // Memory-core input ports have no placeholders; nets into them
        // simply dangle, matching flatten_soc.
        let netlist = b.build().map_err(VerifyError::Netlist)?;
        if netlist.inputs().len() != roles.len() {
            return Err(VerifyError::Model(format!(
                "shell input accounting is off: {} inputs vs {} roles",
                netlist.inputs().len(),
                roles.len()
            )));
        }
        Ok(Shell {
            netlist,
            input_roles: roles,
            act_index,
            tm_index,
            obs_index,
            po_index,
            fabrics,
            registers,
        })
    }
}

/// Relaxed availability times of a path's nodes: inputs at 0, every edge
/// `u → v` imposes `time(v) ≥ time(u) + latency(edge)`. The fixpoint is the
/// cycle (relative to the hop start) at which each node carries the word.
fn relax_times(rcg: &Rcg, path: &TransparencyPath) -> HashMap<RcgNode, u32> {
    let mut t: HashMap<RcgNode, u32> = HashMap::new();
    for p in &path.inputs {
        t.insert(RcgNode::In(*p), 0);
    }
    // |edges| passes suffice: each pass settles at least one edge.
    for _ in 0..path.edges.len() {
        let mut changed = false;
        for id in &path.edges {
            let e = rcg.edge(*id);
            let Some(&from) = t.get(&e.from) else {
                continue;
            };
            let cand = from + e.latency();
            let cur = t.get(&e.to).copied();
            if cur.is_none_or(|c| cand > c) {
                t.insert(e.to, cand);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    t
}
