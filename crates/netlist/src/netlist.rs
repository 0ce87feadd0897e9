//! The technology-level netlist.
//!
//! A [`Netlist`] is a directed graph of standard cells ([`CellKind`]) and
//! single-driver nets. SFQ pulses cannot branch, so a *physical* netlist
//! must have at most one sink per net; [`Netlist::insert_splitters`]
//! materializes balanced splitter trees to get there, which is where the
//! paper's Equation 1 (`N_splt = N_gate + N_out − N_inp`) comes from.

use std::fmt;
use std::sync::OnceLock;

use xsfq_cells::{CellKind, CellLibrary};

use crate::stats::NetlistStats;

/// Identifier of a net (single-driver wire).
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// Dense index of the net.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuild from a dense index (must reference an existing net).
    pub fn from_index(index: usize) -> Self {
        NetId(index as u32)
    }
}

/// Identifier of a cell instance.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct CellId(pub(crate) u32);

impl CellId {
    /// Dense index of the cell.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuild from a dense index (must reference an existing cell).
    pub fn from_index(index: usize) -> Self {
        CellId(index as u32)
    }
}

/// What drives a net.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Driver {
    /// Primary input port (index into [`Netlist::inputs`]).
    Input(u32),
    /// Output pin `pin` of cell `cell`.
    Cell {
        /// Driving cell.
        cell: CellId,
        /// Output pin index (0 for single-output cells; DROC: 0 = Qp,
        /// 1 = Qn; splitter: 0/1).
        pin: u8,
    },
}

/// Inline pin list: every cell kind has at most [`PinVec::CAPACITY`] input
/// or output pins, so pin nets live inside the `Cell` — building a netlist
/// performs **zero heap allocations per cell**. Dereferences to `[NetId]`,
/// so it reads like the `Vec<NetId>` it replaced.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PinVec {
    pins: [NetId; PinVec::CAPACITY],
    len: u8,
}

impl PinVec {
    /// Maximum pins per cell side (splitters/DROCs have 2 outputs, logic
    /// cells 2 inputs).
    pub const CAPACITY: usize = 2;

    /// Empty pin list.
    #[inline]
    pub fn new() -> Self {
        PinVec {
            pins: [NetId(u32::MAX); Self::CAPACITY],
            len: 0,
        }
    }

    /// Pin list from a slice.
    ///
    /// # Panics
    ///
    /// Panics if `pins` exceeds [`PinVec::CAPACITY`].
    pub fn from_slice(pins: &[NetId]) -> Self {
        assert!(pins.len() <= Self::CAPACITY, "too many pins for a cell");
        let mut v = Self::new();
        for &p in pins {
            v.push(p);
        }
        v
    }

    /// Append a pin.
    ///
    /// # Panics
    ///
    /// Panics if the list is full.
    #[inline]
    pub fn push(&mut self, net: NetId) {
        assert!((self.len as usize) < Self::CAPACITY, "cell pin list full");
        self.pins[self.len as usize] = net;
        self.len += 1;
    }
}

impl Default for PinVec {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for PinVec {
    type Target = [NetId];
    #[inline]
    fn deref(&self) -> &[NetId] {
        &self.pins[..self.len as usize]
    }
}

impl std::ops::DerefMut for PinVec {
    #[inline]
    fn deref_mut(&mut self) -> &mut [NetId] {
        &mut self.pins[..self.len as usize]
    }
}

impl IntoIterator for PinVec {
    type Item = NetId;
    type IntoIter = std::iter::Take<std::array::IntoIter<NetId, { PinVec::CAPACITY }>>;
    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.pins.into_iter().take(self.len as usize)
    }
}

impl<'a> IntoIterator for &'a PinVec {
    type Item = &'a NetId;
    type IntoIter = std::slice::Iter<'a, NetId>;
    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// A cell instance.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Cell {
    /// Cell kind (decides pin counts, JJ cost and delay).
    pub kind: CellKind,
    /// Input nets, in pin order.
    pub inputs: PinVec,
    /// Output nets, in pin order.
    pub outputs: PinVec,
}

/// Number of output pins a cell kind drives.
pub fn output_pins(kind: CellKind) -> usize {
    match kind {
        CellKind::Splitter | CellKind::RsfqSplitter => 2,
        CellKind::Droc { .. } => 2, // Qp, Qn
        _ => 1,
    }
}

/// Number of input pins a cell kind consumes (clock pins are implicit).
pub fn input_pins(kind: CellKind) -> usize {
    match kind {
        CellKind::La
        | CellKind::Fa
        | CellKind::Merger
        | CellKind::RsfqAnd
        | CellKind::RsfqOr
        | CellKind::RsfqXor
        | CellKind::RsfqMerger => 2,
        CellKind::DcToSfq => 0,
        _ => 1, // JTL, splitter, DROC (data), DFF, NOT
    }
}

/// A named port.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Port {
    /// Port name.
    pub name: String,
    /// Attached net.
    pub net: NetId,
}

/// Technology netlist over a [`CellLibrary`].
///
/// ```
/// use xsfq_cells::{CellKind, CellLibrary};
/// use xsfq_netlist::Netlist;
///
/// let mut n = Netlist::new("demo", CellLibrary::xsfq_abutted());
/// let a = n.add_input("a");
/// let b = n.add_input("b");
/// let q = n.add_cell(CellKind::La, &[a, b])[0];
/// n.add_output("q", q);
/// assert_eq!(n.stats().jj_total, 4);
/// ```
#[derive(Clone, Debug)]
pub struct Netlist {
    name: String,
    library: CellLibrary,
    cells: Vec<Cell>,
    drivers: Vec<Driver>,
    inputs: Vec<Port>,
    outputs: Vec<Port>,
    /// Cells whose (implicit) clock pin is tied to the one-shot trigger
    /// instead of the regular clock (paper §3.2 initialization strategy).
    trigger_clocked: Vec<CellId>,
    /// Memoized [`Netlist::stats`] report; every mutation marks it dirty
    /// (clears it), so report-heavy flows recompute at most once per edit.
    /// `OnceLock` (not `RefCell`) keeps `Netlist: Send + Sync` — mutation
    /// already requires `&mut self`, and the fill-once-on-read is
    /// thread-safe.
    stats_cache: OnceLock<NetlistStats>,
}

impl Netlist {
    /// New empty netlist.
    pub fn new(name: impl Into<String>, library: CellLibrary) -> Self {
        Netlist {
            name: name.into(),
            library,
            cells: Vec::new(),
            drivers: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            trigger_clocked: Vec::new(),
            stats_cache: OnceLock::new(),
        }
    }

    /// Invalidate the cached stats report. Every `&mut self` entry point
    /// that changes cells, nets or ports must call this.
    fn mark_stats_dirty(&mut self) {
        self.stats_cache.take();
    }

    pub(crate) fn cached_stats(&self) -> Option<NetlistStats> {
        self.stats_cache.get().cloned()
    }

    pub(crate) fn store_stats(&self, stats: NetlistStats) {
        // A concurrent reader may have filled it first; both computed the
        // same value, so losing the race is fine.
        let _ = self.stats_cache.set(stats);
    }

    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The library this netlist is mapped to.
    pub fn library(&self) -> &CellLibrary {
        &self.library
    }

    /// Cell instances.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// A specific cell.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.drivers.len()
    }

    /// Driver of a net.
    pub fn driver(&self, net: NetId) -> Driver {
        self.drivers[net.index()]
    }

    /// Primary input ports.
    pub fn inputs(&self) -> &[Port] {
        &self.inputs
    }

    /// Primary output ports.
    pub fn outputs(&self) -> &[Port] {
        &self.outputs
    }

    /// Cells clocked by the one-shot trigger (first-rank preloaded DROCs).
    pub fn trigger_clocked(&self) -> &[CellId] {
        &self.trigger_clocked
    }

    /// Mark a cell as trigger-clocked.
    ///
    /// # Panics
    ///
    /// Panics if the cell is not a clocked cell.
    pub fn set_trigger_clocked(&mut self, cell: CellId) {
        assert!(
            self.cells[cell.index()].kind.is_clocked(),
            "only clocked cells can be trigger-clocked"
        );
        self.trigger_clocked.push(cell);
    }

    /// Add a primary input; returns its net.
    pub fn add_input(&mut self, name: impl Into<String>) -> NetId {
        self.mark_stats_dirty();
        let net = NetId(self.drivers.len() as u32);
        self.drivers.push(Driver::Input(self.inputs.len() as u32));
        self.inputs.push(Port {
            name: name.into(),
            net,
        });
        net
    }

    /// Instantiate a cell; returns its freshly allocated output nets.
    ///
    /// # Panics
    ///
    /// Panics if the input count does not match the cell kind.
    pub fn add_cell(&mut self, kind: CellKind, inputs: &[NetId]) -> PinVec {
        self.mark_stats_dirty();
        assert_eq!(
            inputs.len(),
            input_pins(kind),
            "{kind} takes {} inputs",
            input_pins(kind)
        );
        let cell = CellId(self.cells.len() as u32);
        let mut outs = PinVec::new();
        for pin in 0..output_pins(kind) {
            let net = NetId(self.drivers.len() as u32);
            self.drivers.push(Driver::Cell {
                cell,
                pin: pin as u8,
            });
            outs.push(net);
        }
        self.cells.push(Cell {
            kind,
            inputs: PinVec::from_slice(inputs),
            outputs: outs,
        });
        outs
    }

    /// Declare a primary output.
    pub fn add_output(&mut self, name: impl Into<String>, net: NetId) {
        self.mark_stats_dirty();
        self.outputs.push(Port {
            name: name.into(),
            net,
        });
    }

    /// Instantiate a cell whose inputs are wired later with
    /// [`Netlist::connect_input`] — needed for feedback loops through
    /// storage cells. Returns the cell id and its output nets.
    pub fn add_cell_deferred(&mut self, kind: CellKind) -> (CellId, PinVec) {
        self.mark_stats_dirty();
        let cell = CellId(self.cells.len() as u32);
        let mut outs = PinVec::new();
        for pin in 0..output_pins(kind) {
            let net = NetId(self.drivers.len() as u32);
            self.drivers.push(Driver::Cell {
                cell,
                pin: pin as u8,
            });
            outs.push(net);
        }
        let mut unconnected = PinVec::new();
        for _ in 0..input_pins(kind) {
            unconnected.push(NetId(u32::MAX));
        }
        self.cells.push(Cell {
            kind,
            inputs: unconnected,
            outputs: outs,
        });
        (cell, outs)
    }

    /// Connect input pin `pin` of a deferred cell to `net`.
    ///
    /// # Panics
    ///
    /// Panics if the pin index is out of range or the net does not exist.
    pub fn connect_input(&mut self, cell: CellId, pin: usize, net: NetId) {
        self.mark_stats_dirty();
        assert!(net.index() < self.drivers.len(), "net must exist");
        self.cells[cell.index()].inputs[pin] = net;
    }

    /// Every unconnected cell input pin as `(cell, pin)`, in cell order.
    ///
    /// A pin is unconnected when it still holds the deferred-wiring
    /// sentinel of [`Netlist::add_cell_deferred`] (or any net index past
    /// the driver table). This is the single source of truth for
    /// connectivity: both [`Netlist::assert_connected`] and the `X001`
    /// lint in `xsfq-lint` are wrappers over it, so the panicking API and
    /// the diagnostic API can never disagree.
    pub fn unconnected_pins(&self) -> Vec<(CellId, usize)> {
        let mut out = Vec::new();
        for (i, cell) in self.cells.iter().enumerate() {
            for (pin, &n) in cell.inputs.iter().enumerate() {
                if n.index() >= self.drivers.len() {
                    out.push((CellId(i as u32), pin));
                }
            }
        }
        out
    }

    /// Check that every cell input is connected.
    ///
    /// # Panics
    ///
    /// Panics with the offending cell if any input pin is unconnected.
    pub fn assert_connected(&self) {
        if let Some(&(cell, pin)) = self.unconnected_pins().first() {
            panic!(
                "cell {} ({}) input pin {pin} is unconnected",
                cell.index(),
                self.cells[cell.index()].kind
            );
        }
    }

    /// Raw mutable access to a cell, bypassing every pin-count and
    /// connectivity invariant the ordinary mutators enforce.
    ///
    /// This exists solely so the lint test suite can build deliberately
    /// corrupted netlists (pin-count mismatches, dangling nets) and assert
    /// the checker's diagnostics; it is not part of the supported API.
    #[doc(hidden)]
    pub fn corrupt_cell_for_tests(&mut self, id: CellId) -> &mut Cell {
        self.mark_stats_dirty();
        &mut self.cells[id.index()]
    }

    /// Number of sinks per net (cell input pins plus output ports).
    pub fn fanout_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.drivers.len()];
        for cell in &self.cells {
            for &n in &cell.inputs {
                counts[n.index()] += 1;
            }
        }
        for port in &self.outputs {
            counts[port.net.index()] += 1;
        }
        counts
    }

    /// Count cells of a given kind.
    pub fn count_kind(&self, kind: CellKind) -> usize {
        self.cells.iter().filter(|c| c.kind == kind).count()
    }

    /// Materialize balanced splitter trees so every net drives at most one
    /// sink. Uses the library's xSFQ or RSFQ splitter depending on what the
    /// driving side is (RSFQ cells get RSFQ splitters).
    ///
    /// Returns the physical netlist; cell/net ids are renumbered.
    pub fn insert_splitters(&self) -> Netlist {
        let mut out = Netlist::new(self.name.clone(), self.library.clone());
        // First pass: copy inputs and cells with placeholder nets, recording
        // the new id of every old net.
        let mut net_map: Vec<NetId> = vec![NetId(u32::MAX); self.drivers.len()];
        for port in &self.inputs {
            net_map[port.net.index()] = out.add_input(port.name.clone());
        }
        // Copy cells in topological order (cells are created in topo order,
        // except feedback through clocked cells, whose data inputs may lag).
        // Two-phase copy: create all cells first with dummy inputs, then fix.
        let mut cell_map: Vec<CellId> = Vec::with_capacity(self.cells.len());
        for cell in &self.cells {
            let dummy_inputs = [NetId(0); PinVec::CAPACITY];
            // Temporarily use net 0 (fixed below); net 0 always exists when
            // there is at least one input; otherwise create cells lazily.
            let new_outs = out.add_cell(cell.kind, &dummy_inputs[..cell.inputs.len()]);
            let new_cell = match out.drivers[new_outs[0].index()] {
                Driver::Cell { cell, .. } => cell,
                Driver::Input(_) => unreachable!(),
            };
            cell_map.push(new_cell);
            for (old, new) in cell.outputs.iter().zip(&new_outs) {
                net_map[old.index()] = *new;
            }
        }
        for &tc in &self.trigger_clocked {
            out.trigger_clocked.push(cell_map[tc.index()]);
        }

        // Build the sink lists of every old net (dense: net ids index the
        // driver table directly, and iteration order is deterministic —
        // the former hash map randomized splitter-tree numbering run to
        // run).
        #[derive(Clone, Copy)]
        enum Sink {
            CellPin { cell: usize, pin: usize },
            Output(usize),
        }
        let mut sinks: Vec<Vec<Sink>> = vec![Vec::new(); self.drivers.len()];
        for (ci, cell) in self.cells.iter().enumerate() {
            for (pi, &n) in cell.inputs.iter().enumerate() {
                sinks[n.index()].push(Sink::CellPin { cell: ci, pin: pi });
            }
        }
        for (oi, port) in self.outputs.iter().enumerate() {
            sinks[port.net.index()].push(Sink::Output(oi));
        }

        // Input-driven nets take the flavor of the rest of the design;
        // computed once instead of rescanning the cell list per net.
        let any_rsfq = self.cells.iter().any(|c| c.kind.is_rsfq());

        // For each old net, create a splitter tree delivering one leaf net
        // per sink, then wire the sinks.
        let mut output_nets: Vec<Option<NetId>> = vec![None; self.outputs.len()];
        for (old_net, net_sinks) in sinks.iter().enumerate() {
            if net_sinks.is_empty() {
                continue;
            }
            let src = net_map[old_net];
            let splitter_kind = self.splitter_kind_for(NetId(old_net as u32), any_rsfq);
            let leaves = out.grow_splitter_tree(src, net_sinks.len(), splitter_kind);
            for (leaf, sink) in leaves.into_iter().zip(net_sinks) {
                match *sink {
                    Sink::CellPin { cell, pin } => {
                        let target = cell_map[cell];
                        out.cells[target.index()].inputs[pin] = leaf;
                    }
                    Sink::Output(oi) => output_nets[oi] = Some(leaf),
                }
            }
        }
        for (oi, port) in self.outputs.iter().enumerate() {
            let net = output_nets[oi].unwrap_or(net_map[port.net.index()]);
            out.add_output(port.name.clone(), net);
        }
        debug_assert!(
            out.fanout_counts().iter().all(|&f| f <= 1),
            "splitter insertion must leave no multi-fanout nets"
        );
        out
    }

    fn splitter_kind_for(&self, net: NetId, any_rsfq: bool) -> CellKind {
        match self.drivers[net.index()] {
            Driver::Cell { cell, .. } => {
                if self.cells[cell.index()].kind.is_rsfq() {
                    CellKind::RsfqSplitter
                } else {
                    CellKind::Splitter
                }
            }
            // Input-driven nets match the flavor of the rest of the design;
            // xSFQ is the default for mixed or empty designs.
            Driver::Input(_) if any_rsfq => CellKind::RsfqSplitter,
            Driver::Input(_) => CellKind::Splitter,
        }
    }

    /// Grow a balanced splitter tree from `src` until it has `leaves` leaf
    /// nets; returns them. Zero or one sink needs no splitters.
    fn grow_splitter_tree(&mut self, src: NetId, leaves: usize, kind: CellKind) -> Vec<NetId> {
        let mut frontier = std::collections::VecDeque::with_capacity(leaves.max(1));
        frontier.push_back(src);
        while frontier.len() < leaves {
            // Split the shallowest frontier net (front of the queue).
            let net = frontier.pop_front().expect("frontier non-empty");
            let outs = self.add_cell(kind, &[net]);
            frontier.extend(outs);
        }
        frontier.into()
    }
}

/// Structural equality: same name, library, cells (kinds + pin wiring),
/// drivers, ports and trigger marks. The memoized stats report is ignored —
/// it is a pure function of the compared state. This is the relation the
/// bit-identity tests compare mapped netlists under.
impl PartialEq for Netlist {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.library == other.library
            && self.cells == other.cells
            && self.drivers == other.drivers
            && self.inputs == other.inputs
            && self.outputs == other.outputs
            && self.trigger_clocked == other.trigger_clocked
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "netlist '{}': {} cells, {} nets, {} inputs, {} outputs",
            self.name,
            self.cells.len(),
            self.num_nets(),
            self.inputs.len(),
            self.outputs.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib() -> CellLibrary {
        CellLibrary::xsfq_abutted()
    }

    #[test]
    fn build_and_query() {
        let mut n = Netlist::new("t", lib());
        let a = n.add_input("a");
        let b = n.add_input("b");
        let q = n.add_cell(CellKind::La, &[a, b])[0];
        n.add_output("q", q);
        assert_eq!(n.cells().len(), 1);
        assert_eq!(n.num_nets(), 3);
        assert_eq!(n.fanout_counts(), vec![1, 1, 1]);
    }

    #[test]
    fn fanout_counting_and_eq1() {
        let mut n = Netlist::new("t", lib());
        let a = n.add_input("a");
        let b = n.add_input("b");
        // a feeds two LA cells and an output: fanout 3 → 2 splitters.
        let x = n.add_cell(CellKind::La, &[a, b])[0];
        let y = n.add_cell(CellKind::La, &[a, x])[0];
        n.add_output("y", y);
        n.add_output("a_copy", a);
        assert_eq!(n.fanout_counts()[a.index()], 3);
        // Equation 1: gates + outs − inps = 2 + 2 − 2 = 2.
        let eq1 = n.cells().len() + n.outputs().len() - n.inputs().len();
        assert_eq!(n.insert_splitters().count_kind(CellKind::Splitter), eq1);
    }

    #[test]
    fn splitter_insertion_physicalizes() {
        let mut n = Netlist::new("t", lib());
        let a = n.add_input("a");
        let sinks = 5;
        for i in 0..sinks {
            let q = n.add_cell(CellKind::Jtl, &[a]);
            n.add_output(format!("o{i}"), q[0]);
        }
        let phys = n.insert_splitters();
        assert!(phys.fanout_counts().iter().all(|&f| f <= 1));
        assert_eq!(phys.count_kind(CellKind::Splitter), sinks - 1);
        assert_eq!(phys.count_kind(CellKind::Jtl), sinks);
    }

    #[test]
    fn splitter_tree_is_balanced() {
        let mut n = Netlist::new("t", lib());
        let a = n.add_input("a");
        for i in 0..8 {
            let q = n.add_cell(CellKind::Jtl, &[a]);
            n.add_output(format!("o{i}"), q[0]);
        }
        let phys = n.insert_splitters();
        // 8 leaves need 7 splitters in 3 levels; depth check via stats is in
        // stats.rs tests — here just the count.
        assert_eq!(phys.count_kind(CellKind::Splitter), 7);
    }

    #[test]
    fn rsfq_nets_get_rsfq_splitters() {
        let mut n = Netlist::new("t", CellLibrary::rsfq());
        let a = n.add_input("a");
        let b = n.add_input("b");
        let x = n.add_cell(CellKind::RsfqAnd, &[a, b])[0];
        let y = n.add_cell(CellKind::RsfqNot, &[x])[0];
        let z = n.add_cell(CellKind::RsfqDff, &[x])[0];
        n.add_output("y", y);
        n.add_output("z", z);
        let phys = n.insert_splitters();
        assert_eq!(phys.count_kind(CellKind::RsfqSplitter), 1);
        assert_eq!(phys.count_kind(CellKind::Splitter), 0);
    }

    #[test]
    fn droc_has_complementary_outputs() {
        let mut n = Netlist::new("t", lib());
        let d = n.add_input("d");
        let outs = n.add_cell(CellKind::Droc { preload: true }, &[d]);
        assert_eq!(outs.len(), 2);
        n.add_output("qp", outs[0]);
        n.add_output("qn", outs[1]);
        let c = match n.driver(outs[1]) {
            Driver::Cell { cell, pin } => {
                assert_eq!(pin, 1);
                cell
            }
            _ => panic!("driven by cell"),
        };
        n.set_trigger_clocked(c);
        assert_eq!(n.trigger_clocked().len(), 1);
    }

    #[test]
    fn trigger_marking_survives_splitter_insertion() {
        let mut n = Netlist::new("t", lib());
        let d = n.add_input("d");
        let outs = n.add_cell(CellKind::Droc { preload: true }, &[d]);
        let Driver::Cell { cell, .. } = n.driver(outs[0]) else {
            panic!()
        };
        n.set_trigger_clocked(cell);
        n.add_output("qp", outs[0]);
        n.add_output("qp2", outs[0]);
        let phys = n.insert_splitters();
        assert_eq!(phys.trigger_clocked().len(), 1);
        let tc = phys.trigger_clocked()[0];
        assert!(matches!(
            phys.cell(tc).kind,
            CellKind::Droc { preload: true }
        ));
    }
}
