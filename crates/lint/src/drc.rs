//! The analyzers: netlist design-rule checks X001–X008 / W101–W102, the
//! AIG invariant wrapper (X009) and the cut-arena audit (X010).
//!
//! Every check is written to be total over *corrupted* netlists — the
//! whole point is to diagnose structures the ordinary constructors refuse
//! to build, so nothing here may index past a table or panic.

use std::collections::{HashMap, HashSet};

use xsfq_aig::cuts::CutArena;
use xsfq_aig::{Aig, AigDefect};
use xsfq_cells::CellKind;
use xsfq_netlist::{input_pins, output_pins, Driver, NetId, Netlist};

use crate::diag::{Code, Diag, Site};

/// Which invariant set applies: logical netlists may still have multi-sink
/// nets (splitter insertion comes later); physical netlists may not.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum NetlistProfile {
    /// Pre-splitter-insertion: X004/W102 do not apply.
    Logical,
    /// Post-splitter-insertion: every net drives at most one sink.
    Physical,
}

/// Run every applicable design-rule check over a netlist.
pub fn lint_netlist(n: &Netlist, profile: NetlistProfile) -> Vec<Diag> {
    let mut out = Vec::new();
    check_connectivity(n, &mut out);
    check_pin_counts(n, &mut out);
    check_cycles(n, &mut out);
    if profile == NetlistProfile::Physical {
        check_fanout(n, &mut out);
    }
    check_dual_rail(n, &mut out);
    check_ranks(n, &mut out);
    check_style(n, &mut out);
    check_ports(n, &mut out);
    check_dead_cells(n, &mut out);
    if profile == NetlistProfile::Physical {
        check_splitter_balance(n, &mut out);
    }
    out
}

/// Validate an AIG: structural invariants ([`Aig::validate`], X009) plus
/// port-name collisions (X008) — the checks `xsfq-serve` runs at admission.
pub fn lint_aig(aig: &Aig) -> Vec<Diag> {
    let mut out = lint_aig_defects(&aig.validate());
    let mut seen_in: HashMap<&str, usize> = HashMap::new();
    for i in 0..aig.num_inputs() {
        let name = aig.input_name(i);
        if seen_in.insert(name, i).is_some() {
            out.push(Diag::new(
                Code::X008,
                Site::Port(name.to_string()),
                format!("duplicate input port name `{name}`"),
            ));
        }
    }
    let mut seen_out: HashSet<&str> = HashSet::new();
    for o in aig.outputs() {
        if !seen_out.insert(&o.name) {
            out.push(Diag::new(
                Code::X008,
                Site::Port(o.name.clone()),
                format!("duplicate output port name `{}`", o.name),
            ));
        } else if seen_in.contains_key(o.name.as_str()) {
            out.push(Diag::new(
                Code::X008,
                Site::Port(o.name.clone()),
                format!("output port `{}` shadows an input port", o.name),
            ));
        }
    }
    out
}

/// One X009 finding per structural defect [`Aig::validate`] reported.
pub fn lint_aig_defects(defects: &[AigDefect]) -> Vec<Diag> {
    let diag = |d: &AigDefect| {
        let site = d.node.map(Site::Node).unwrap_or(Site::Design);
        Diag::new(Code::X009, site, d.detail.clone())
    };
    defects.iter().map(diag).collect()
}

/// Audit the CSR cut arena (X010). See `CutArena::check_integrity`.
pub fn lint_cut_arena(arena: &CutArena) -> Vec<Diag> {
    match arena.check_integrity() {
        Ok(()) => Vec::new(),
        Err(msg) => vec![Diag::new(Code::X010, Site::Design, msg)],
    }
}

// ---------------------------------------------------------------------------
// X001 — connectivity
// ---------------------------------------------------------------------------

fn check_connectivity(n: &Netlist, out: &mut Vec<Diag>) {
    for (cell, pin) in n.unconnected_pins() {
        let kind = n.cell(cell).kind;
        out.push(Diag::new(
            Code::X001,
            Site::Cell(cell.index()),
            format!(
                "cell {} ({kind}) input pin {pin} is unconnected",
                cell.index()
            ),
        ));
    }
    for port in n.outputs() {
        if port.net.index() >= n.num_nets() {
            out.push(Diag::new(
                Code::X001,
                Site::Port(port.name.clone()),
                format!(
                    "output port `{}` is attached to a nonexistent net",
                    port.name
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// X002 — pin arity
// ---------------------------------------------------------------------------

fn check_pin_counts(n: &Netlist, out: &mut Vec<Diag>) {
    for (ci, cell) in n.cells().iter().enumerate() {
        let want_in = input_pins(cell.kind);
        let want_out = output_pins(cell.kind);
        if cell.inputs.len() != want_in {
            out.push(Diag::new(
                Code::X002,
                Site::Cell(ci),
                format!(
                    "cell {ci} ({}) has {} input pins, its kind takes {want_in}",
                    cell.kind,
                    cell.inputs.len()
                ),
            ));
        }
        if cell.outputs.len() != want_out {
            out.push(Diag::new(
                Code::X002,
                Site::Cell(ci),
                format!(
                    "cell {ci} ({}) has {} output pins, its kind drives {want_out}",
                    cell.kind,
                    cell.outputs.len()
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// X003 — combinational cycles
// ---------------------------------------------------------------------------

/// Kahn-style resolution mirroring `NetlistStats::path_analysis`: nets
/// driven by inputs or clocked cells start known; a clock-free cell
/// resolves when all its (connected) inputs are known. Clock-free cells
/// left unresolved sit on a cycle with no storage element in it.
fn check_cycles(n: &Netlist, out: &mut Vec<Diag>) {
    let num_nets = n.num_nets();
    let cells = n.cells();
    let mut pending: Vec<usize> = cells
        .iter()
        .map(|c| {
            if c.kind.is_clocked() {
                0
            } else {
                c.inputs.iter().filter(|x| x.index() < num_nets).count()
            }
        })
        .collect();
    let mut listeners: Vec<Vec<u32>> = vec![Vec::new(); num_nets];
    let mut cell_queue: Vec<usize> = Vec::new();
    for (ci, c) in cells.iter().enumerate() {
        if c.kind.is_clocked() {
            continue;
        }
        for &x in c.inputs.iter() {
            if x.index() < num_nets {
                listeners[x.index()].push(ci as u32);
            }
        }
        if pending[ci] == 0 {
            cell_queue.push(ci);
        }
    }
    let mut net_queue: Vec<usize> = (0..num_nets)
        .filter(|&ni| match n.driver(NetId::from_index(ni)) {
            Driver::Input(_) => true,
            Driver::Cell { cell, .. } => {
                cell.index() < cells.len() && cells[cell.index()].kind.is_clocked()
            }
        })
        .collect();
    let mut known = vec![false; num_nets];
    for &ni in &net_queue {
        known[ni] = true;
    }
    loop {
        while let Some(ci) = cell_queue.pop() {
            for &o in cells[ci].outputs.iter() {
                if o.index() < num_nets && !known[o.index()] {
                    known[o.index()] = true;
                    net_queue.push(o.index());
                }
            }
        }
        let Some(ni) = net_queue.pop() else { break };
        for &ci in &listeners[ni] {
            let ci = ci as usize;
            pending[ci] -= 1;
            if pending[ci] == 0 {
                cell_queue.push(ci);
            }
        }
    }
    for (ci, c) in cells.iter().enumerate() {
        if !c.kind.is_clocked() && pending[ci] > 0 {
            out.push(Diag::new(
                Code::X003,
                Site::Cell(ci),
                format!(
                    "cell {ci} ({}) sits on a combinational cycle with no storage element",
                    c.kind
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// X004 — single-sink nets (physical profile)
// ---------------------------------------------------------------------------

/// Bounds-checked sink tally — `Netlist::fanout_counts` assumes every pin
/// is connected, which a corrupted netlist may violate.
fn sink_counts(n: &Netlist) -> Vec<u32> {
    let mut counts = vec![0u32; n.num_nets()];
    for cell in n.cells() {
        for &x in cell.inputs.iter() {
            if let Some(c) = counts.get_mut(x.index()) {
                *c += 1;
            }
        }
    }
    for port in n.outputs() {
        if let Some(c) = counts.get_mut(port.net.index()) {
            *c += 1;
        }
    }
    counts
}

fn check_fanout(n: &Netlist, out: &mut Vec<Diag>) {
    for (ni, &count) in sink_counts(n).iter().enumerate() {
        if count > 1 {
            out.push(Diag::new(
                Code::X004,
                Site::Net(ni),
                format!(
                    "net {ni} drives {count} sinks in a physical netlist — \
                     SFQ pulses cannot fan out without a splitter"
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// X005 — dual-rail output pairing
// ---------------------------------------------------------------------------

/// Applies only when the output interface *is* dual-rail — i.e. every
/// output carries a `_p`/`_n` rail suffix, as the dual-rail mapper emits.
/// Single-rail polarity modes leave names unsuffixed and are exempt.
fn check_dual_rail(n: &Netlist, out: &mut Vec<Diag>) {
    let names: Vec<&str> = n.outputs().iter().map(|p| p.name.as_str()).collect();
    if names.is_empty() || !names.iter().all(|s| s.ends_with("_p") || s.ends_with("_n")) {
        return;
    }
    let set: HashSet<&str> = names.iter().copied().collect();
    for name in names {
        let (stem, suffix) = name.split_at(name.len() - 2);
        let twin_suffix = if suffix == "_p" { "_n" } else { "_p" };
        let twin = format!("{stem}{twin_suffix}");
        if !set.contains(twin.as_str()) {
            out.push(Diag::new(
                Code::X005,
                Site::Port(name.to_string()),
                format!("dual-rail output `{name}` is missing its `{twin}` rail"),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// X006 — rank legality
// ---------------------------------------------------------------------------

/// Forward rank propagation: a net's rank is the number of DROC boundaries
/// on its path from the inputs. Cells on feedback paths (through storage,
/// e.g. mapped latches) never resolve and are skipped — their legality is
/// covered by the sequential mapper's own construction.
fn check_ranks(n: &Netlist, out: &mut Vec<Diag>) {
    let num_nets = n.num_nets();
    let cells = n.cells();
    let mut rank = vec![0u32; num_nets];
    let mut pending: Vec<usize> = cells
        .iter()
        .map(|c| c.inputs.iter().filter(|x| x.index() < num_nets).count())
        .collect();
    let mut listeners: Vec<Vec<u32>> = vec![Vec::new(); num_nets];
    let mut cell_queue: Vec<usize> = Vec::new();
    for (ci, c) in cells.iter().enumerate() {
        for &x in c.inputs.iter() {
            if x.index() < num_nets {
                listeners[x.index()].push(ci as u32);
            }
        }
        if pending[ci] == 0 {
            cell_queue.push(ci);
        }
    }
    let mut net_queue: Vec<usize> = (0..num_nets)
        .filter(|&ni| matches!(n.driver(NetId::from_index(ni)), Driver::Input(_)))
        .collect();
    // `in_rank[ci] = Some(r)` once every connected input of cell `ci`
    // resolved with maximum rank `r`.
    let mut in_rank: Vec<Option<u32>> = vec![None; cells.len()];
    loop {
        while let Some(ci) = cell_queue.pop() {
            let c = &cells[ci];
            let r = c
                .inputs
                .iter()
                .filter(|x| x.index() < num_nets)
                .map(|x| rank[x.index()])
                .max()
                .unwrap_or(0);
            in_rank[ci] = Some(r);
            let out_rank = r + u32::from(matches!(c.kind, CellKind::Droc { .. }));
            for &o in c.outputs.iter() {
                if o.index() < num_nets {
                    rank[o.index()] = out_rank;
                    net_queue.push(o.index());
                }
            }
        }
        let Some(ni) = net_queue.pop() else { break };
        for &ci in &listeners[ni] {
            let ci = ci as usize;
            if pending[ci] > 0 {
                pending[ci] -= 1;
                if pending[ci] == 0 {
                    cell_queue.push(ci);
                }
            }
        }
    }

    let trigger: HashSet<usize> = n.trigger_clocked().iter().map(|c| c.index()).collect();
    for &ci in &trigger {
        if ci >= cells.len() {
            continue;
        }
        if cells[ci].kind != (CellKind::Droc { preload: true }) {
            out.push(Diag::new(
                Code::X006,
                Site::Cell(ci),
                format!(
                    "cell {ci} ({}) is trigger-clocked but only preloaded DROCs \
                     take the trigger net (§3.2)",
                    cells[ci].kind
                ),
            ));
        }
    }
    for (ci, c) in cells.iter().enumerate() {
        if let CellKind::Droc { preload } = c.kind {
            if preload && !trigger.contains(&ci) {
                out.push(Diag::new(
                    Code::X006,
                    Site::Cell(ci),
                    format!(
                        "cell {ci} (DROC_P) is preloaded but never trigger-clocked — \
                         its initial token would never be emitted"
                    ),
                ));
            }
            if let Some(r) = in_rank[ci] {
                let boundary = r + 1;
                let want_preload = boundary % 2 == 1;
                if preload != want_preload {
                    out.push(Diag::new(
                        Code::X006,
                        Site::Cell(ci),
                        format!(
                            "cell {ci} ({}) sits on rank boundary {boundary}, which must \
                             {} preloaded (§3.2 alternating initialization)",
                            c.kind,
                            if want_preload { "be" } else { "not be" }
                        ),
                    ));
                }
            }
        }
        // Rank-monotone paths: an LA/FA joining rails from different ranks
        // merges pulses from different waves of the computation.
        if c.kind.is_xsfq_logic() && in_rank[ci].is_some() {
            let ranks: Vec<u32> = c
                .inputs
                .iter()
                .filter(|x| x.index() < num_nets)
                .map(|x| rank[x.index()])
                .collect();
            if let (Some(&lo), Some(&hi)) = (ranks.iter().min(), ranks.iter().max()) {
                if lo != hi {
                    out.push(Diag::new(
                        Code::X006,
                        Site::Cell(ci),
                        format!(
                            "cell {ci} ({}) joins rails from ranks {lo} and {hi}",
                            c.kind
                        ),
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// X007 — style mixing
// ---------------------------------------------------------------------------

fn is_rsfq_logic(kind: CellKind) -> bool {
    kind.is_rsfq() && !matches!(kind, CellKind::RsfqSplitter | CellKind::RsfqMerger)
}

fn is_xsfq_core(kind: CellKind) -> bool {
    matches!(
        kind,
        CellKind::La | CellKind::Fa | CellKind::Droc { .. } | CellKind::DcToSfq
    )
}

fn check_style(n: &Netlist, out: &mut Vec<Diag>) {
    let cells = n.cells();
    let rsfq = cells.iter().filter(|c| is_rsfq_logic(c.kind)).count();
    let xsfq = cells.iter().filter(|c| is_xsfq_core(c.kind)).count();
    if rsfq > 0 && xsfq > 0 {
        out.push(Diag::new(
            Code::X007,
            Site::Design,
            format!(
                "netlist mixes {xsfq} clock-free xSFQ cells with {rsfq} clocked RSFQ \
                 cells — the families run different timing disciplines"
            ),
        ));
    }
    // Splitter boundaries: a splitter's flavor must match the pulse train
    // it splits, i.e. the family of its driver cell.
    for (ci, c) in cells.iter().enumerate() {
        let flavor_mismatch = match c.kind {
            CellKind::Splitter => driver_is_rsfq(n, c.inputs.first().copied()) == Some(true),
            CellKind::RsfqSplitter => driver_is_rsfq(n, c.inputs.first().copied()) == Some(false),
            _ => continue,
        };
        if flavor_mismatch {
            out.push(Diag::new(
                Code::X007,
                Site::Cell(ci),
                format!(
                    "cell {ci} ({}) splits a pulse train from the other logic family",
                    c.kind
                ),
            ));
        }
    }
}

/// Whether the driver of `net` is an RSFQ-family cell; `None` when the net
/// is missing, input-driven, or the driver index is corrupt.
fn driver_is_rsfq(n: &Netlist, net: Option<NetId>) -> Option<bool> {
    let net = net?;
    if net.index() >= n.num_nets() {
        return None;
    }
    match n.driver(net) {
        Driver::Input(_) => None,
        Driver::Cell { cell, .. } => {
            let cells = n.cells();
            cells.get(cell.index()).map(|c| c.kind.is_rsfq())
        }
    }
}

// ---------------------------------------------------------------------------
// X008 — port-name collisions
// ---------------------------------------------------------------------------

fn check_ports(n: &Netlist, out: &mut Vec<Diag>) {
    let mut inputs: HashSet<&str> = HashSet::new();
    for p in n.inputs() {
        if !inputs.insert(&p.name) {
            out.push(Diag::new(
                Code::X008,
                Site::Port(p.name.clone()),
                format!("duplicate input port name `{}`", p.name),
            ));
        }
    }
    let mut outputs: HashSet<&str> = HashSet::new();
    for p in n.outputs() {
        if !outputs.insert(&p.name) {
            out.push(Diag::new(
                Code::X008,
                Site::Port(p.name.clone()),
                format!("duplicate output port name `{}`", p.name),
            ));
        } else if inputs.contains(p.name.as_str()) {
            out.push(Diag::new(
                Code::X008,
                Site::Port(p.name.clone()),
                format!("output port `{}` shadows an input port", p.name),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// W101 — dead cells
// ---------------------------------------------------------------------------

fn check_dead_cells(n: &Netlist, out: &mut Vec<Diag>) {
    let counts = sink_counts(n);
    for (ci, c) in n.cells().iter().enumerate() {
        if c.outputs.is_empty() {
            continue; // arity problem — X002's finding, not a dead cell
        }
        let dead = c
            .outputs
            .iter()
            .all(|o| counts.get(o.index()).is_none_or(|&f| f == 0));
        if dead {
            out.push(Diag::new(
                Code::W101,
                Site::Cell(ci),
                format!("cell {ci} ({}) drives nothing — dead hardware", c.kind),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// W102 — splitter-tree balance
// ---------------------------------------------------------------------------

fn is_splitter(kind: CellKind) -> bool {
    matches!(kind, CellKind::Splitter | CellKind::RsfqSplitter)
}

/// For every splitter tree (rooted at a splitter whose driver is not a
/// splitter), compare the depths at which leaves hang. `insert_splitters`
/// builds balanced trees; a depth spread beyond one means someone chained
/// splitters and lengthened the critical path for no reason (§4.2.1).
fn check_splitter_balance(n: &Netlist, out: &mut Vec<Diag>) {
    let num_nets = n.num_nets();
    let cells = n.cells();
    // net → consuming splitter cells; port/leaf consumption via counts.
    let mut split_sinks: Vec<Vec<u32>> = vec![Vec::new(); num_nets];
    let mut leaf_sinks = vec![0u32; num_nets];
    for (ci, c) in cells.iter().enumerate() {
        for &x in c.inputs.iter() {
            if x.index() >= num_nets {
                continue;
            }
            if is_splitter(c.kind) {
                split_sinks[x.index()].push(ci as u32);
            } else {
                leaf_sinks[x.index()] += 1;
            }
        }
    }
    for p in n.outputs() {
        if let Some(c) = leaf_sinks.get_mut(p.net.index()) {
            *c += 1;
        }
    }
    for (ci, c) in cells.iter().enumerate() {
        if !is_splitter(c.kind) || driver_is_splitter(n, c.inputs.first().copied()) {
            continue;
        }
        // `ci` roots a tree: walk it, collecting leaf depths.
        let (mut min_leaf, mut max_leaf) = (usize::MAX, 0usize);
        let mut visited: HashSet<usize> = HashSet::new();
        let mut stack: Vec<(usize, usize)> = vec![(ci, 1)];
        while let Some((si, depth)) = stack.pop() {
            if !visited.insert(si) {
                continue; // corrupt: splitter cycle — X003 reports it
            }
            for &o in cells[si].outputs.iter() {
                let Some(&leaves) = leaf_sinks.get(o.index()) else {
                    continue;
                };
                let children = &split_sinks[o.index()];
                if leaves > 0 || children.is_empty() {
                    // A non-splitter sink (or a dangling rail) hangs here.
                    min_leaf = min_leaf.min(depth);
                    max_leaf = max_leaf.max(depth);
                }
                for &child in children {
                    stack.push((child as usize, depth + 1));
                }
            }
        }
        if min_leaf != usize::MAX && max_leaf - min_leaf > 1 {
            out.push(Diag::new(
                Code::W102,
                Site::Cell(ci),
                format!(
                    "splitter tree rooted at cell {ci} has leaves at depths \
                     {min_leaf}–{max_leaf} — a balanced tree would be shallower"
                ),
            ));
        }
    }
}

fn driver_is_splitter(n: &Netlist, net: Option<NetId>) -> bool {
    let Some(net) = net else { return false };
    if net.index() >= n.num_nets() {
        return false;
    }
    match n.driver(net) {
        Driver::Input(_) => false,
        Driver::Cell { cell, .. } => n
            .cells()
            .get(cell.index())
            .is_some_and(|c| is_splitter(c.kind)),
    }
}
