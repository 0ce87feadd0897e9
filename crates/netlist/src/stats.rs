//! Netlist reports: cell breakdown, JJ accounting, logical depth, critical
//! delay and clock-tree overhead — everything the paper's evaluation tables
//! are made of.

use std::collections::HashMap;
use std::fmt;

use xsfq_cells::CellKind;

use crate::netlist::{Driver, Netlist};

/// Summary report of a netlist.
#[derive(Clone, Debug, Default)]
pub struct NetlistStats {
    /// Instance count per cell kind.
    pub counts: Vec<(CellKind, usize)>,
    /// Number of LA + FA cells (the paper's "#LA/FA" column).
    pub la_fa: usize,
    /// Number of splitters (both families).
    pub splitters: usize,
    /// Number of DROC cells without preloading hardware.
    pub drocs_plain: usize,
    /// Number of DROC cells with preloading hardware.
    pub drocs_preload: usize,
    /// Total Josephson junction count of the instantiated cells.
    pub jj_total: u64,
    /// JJs in logic cells (LA/FA or clocked RSFQ gates).
    pub jj_logic: u64,
    /// JJs in splitters.
    pub jj_splitters: u64,
    /// JJs in storage cells (DROC / DFF), including preload hardware.
    pub jj_storage: u64,
    /// Number of clocked cells (drives clock-tree size).
    pub clocked_cells: usize,
    /// Logic depth counting LA/FA/RSFQ gates only.
    pub depth_logic: usize,
    /// Logic depth counting splitters as well (paper Table 5 "with
    /// splitters" variant).
    pub depth_with_splitters: usize,
    /// Critical combinational path delay (ps), storage-to-storage.
    pub critical_delay_ps: f64,
}

impl NetlistStats {
    /// JJ cost of the clock splitter tree: a binary tree reaching all
    /// clocked cells needs `n − 1` splitters. Clock-free designs cost 0.
    pub fn clock_tree_jj(&self, splitter_jj: u64) -> u64 {
        (self.clocked_cells as u64).saturating_sub(1) * splitter_jj
    }

    /// Total including the clock tree.
    pub fn jj_with_clock_tree(&self, splitter_jj: u64) -> u64 {
        self.jj_total + self.clock_tree_jj(splitter_jj)
    }

    /// Circuit clock frequency estimate in GHz (1 / critical delay). The
    /// architectural frequency of an xSFQ design is half of this, because a
    /// logical cycle spans an excite and a relax phase (§4.2.2).
    pub fn circuit_clock_ghz(&self) -> f64 {
        if self.critical_delay_ps <= 0.0 {
            f64::INFINITY
        } else {
            1000.0 / self.critical_delay_ps
        }
    }
}

impl fmt::Display for NetlistStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "JJ total {}  (logic {}, splitters {}, storage {})",
            self.jj_total, self.jj_logic, self.jj_splitters, self.jj_storage
        )?;
        writeln!(
            f,
            "LA/FA {}  splitters {}  DROC {}/{}  clocked {}",
            self.la_fa, self.splitters, self.drocs_plain, self.drocs_preload, self.clocked_cells
        )?;
        write!(
            f,
            "depth {} ({} with splitters)  critical {:.1} ps",
            self.depth_logic, self.depth_with_splitters, self.critical_delay_ps
        )
    }
}

impl Netlist {
    /// Compute the summary report. Works on both logical (multi-fanout) and
    /// physical (splitter-inserted) netlists; depth/delay are exact on the
    /// physical form.
    ///
    /// The report is cached on the netlist behind a dirty flag: repeated
    /// calls without an intervening mutation return a clone of the cached
    /// value instead of re-running the path analysis (report-heavy flows
    /// query the same netlist many times).
    pub fn stats(&self) -> NetlistStats {
        if let Some(cached) = self.cached_stats() {
            return cached;
        }
        let stats = self.compute_stats();
        self.store_stats(stats.clone());
        stats
    }

    fn compute_stats(&self) -> NetlistStats {
        let mut counts: HashMap<CellKind, usize> = HashMap::new();
        let mut s = NetlistStats::default();
        let lib = self.library();
        for cell in self.cells() {
            *counts.entry(cell.kind).or_default() += 1;
            let jj = lib.jj(cell.kind) as u64;
            s.jj_total += jj;
            match cell.kind {
                CellKind::La | CellKind::Fa => {
                    s.la_fa += 1;
                    s.jj_logic += jj;
                }
                CellKind::RsfqAnd | CellKind::RsfqOr | CellKind::RsfqXor | CellKind::RsfqNot => {
                    s.jj_logic += jj;
                }
                CellKind::Splitter | CellKind::RsfqSplitter => {
                    s.splitters += 1;
                    s.jj_splitters += jj;
                }
                CellKind::Droc { preload } => {
                    if preload {
                        s.drocs_preload += 1;
                    } else {
                        s.drocs_plain += 1;
                    }
                    s.jj_storage += jj;
                }
                CellKind::RsfqDff => {
                    s.jj_storage += jj;
                }
                _ => {}
            }
            if cell.kind.is_clocked() {
                s.clocked_cells += 1;
            }
        }
        let mut counts: Vec<(CellKind, usize)> = counts.into_iter().collect();
        counts.sort_by_key(|(k, _)| k.name());
        s.counts = counts;

        let (depth_logic, depth_split, delay) = self.path_analysis();
        s.depth_logic = depth_logic;
        s.depth_with_splitters = depth_split;
        s.critical_delay_ps = delay;
        s
    }

    /// Longest-path analysis from sources (primary inputs + storage cell
    /// outputs) to sinks (primary outputs + storage cell data inputs).
    /// Returns (logic depth, depth incl. splitters, delay in ps).
    fn path_analysis(&self) -> (usize, usize, f64) {
        let lib = self.library();
        let num_nets = self.num_nets();
        let mut depth_logic = vec![0usize; num_nets];
        let mut depth_split = vec![0usize; num_nets];
        let mut delay = vec![0f64; num_nets];
        // Kahn-style traversal over combinational cells only.
        let mut pending: Vec<usize> = self
            .cells()
            .iter()
            .map(|c| {
                if c.kind.is_clocked() {
                    0
                } else {
                    c.inputs.len()
                }
            })
            .collect();
        // Net is "known" when its driver is an input, a clocked cell, or a
        // resolved combinational cell.
        let mut known = vec![false; num_nets];
        let mut queue: Vec<usize> = Vec::new();
        for (ni, d) in (0..num_nets).map(|i| (i, self.driver(crate::NetId(i as u32)))) {
            match d {
                Driver::Input(_) => known[ni] = true,
                Driver::Cell { cell, .. } => {
                    if self.cell(cell).kind.is_clocked() {
                        known[ni] = true;
                    }
                }
            }
        }
        // Dependents: cell indices listening on each net.
        let mut listeners: Vec<Vec<usize>> = vec![Vec::new(); num_nets];
        for (ci, cell) in self.cells().iter().enumerate() {
            if cell.kind.is_clocked() {
                continue;
            }
            for &n in &cell.inputs {
                listeners[n.index()].push(ci);
            }
            if cell.inputs.is_empty() {
                queue.push(ci);
            }
        }
        let initial: Vec<usize> = known
            .iter()
            .take(num_nets)
            .enumerate()
            .filter(|(_, &k)| k)
            .map(|(ni, _)| ni)
            .collect();
        let mut net_queue = initial;
        let mut max_sink = (0usize, 0usize, 0f64);
        while let Some(ni) = net_queue.pop() {
            for &ci in &listeners[ni] {
                pending[ci] -= 1;
                if pending[ci] == 0 {
                    queue.push(ci);
                }
            }
            while let Some(ci) = queue.pop() {
                let cell = &self.cells()[ci];
                let in_dl = cell
                    .inputs
                    .iter()
                    .map(|n| depth_logic[n.index()])
                    .max()
                    .unwrap_or(0);
                let in_ds = cell
                    .inputs
                    .iter()
                    .map(|n| depth_split[n.index()])
                    .max()
                    .unwrap_or(0);
                let in_dt = cell
                    .inputs
                    .iter()
                    .map(|n| delay[n.index()])
                    .fold(0.0f64, f64::max);
                let is_logic = matches!(
                    cell.kind,
                    CellKind::La
                        | CellKind::Fa
                        | CellKind::RsfqAnd
                        | CellKind::RsfqOr
                        | CellKind::RsfqXor
                        | CellKind::RsfqNot
                );
                let is_split = matches!(cell.kind, CellKind::Splitter | CellKind::RsfqSplitter);
                let dl = in_dl + is_logic as usize;
                let ds = in_ds + (is_logic || is_split) as usize;
                let dt = in_dt + lib.delay(cell.kind);
                for &o in &cell.outputs {
                    depth_logic[o.index()] = dl;
                    depth_split[o.index()] = ds;
                    delay[o.index()] = dt;
                    known[o.index()] = true;
                    net_queue.push(o.index());
                }
            }
        }
        // Sinks: primary outputs and clocked-cell data inputs.
        for port in self.outputs() {
            let i = port.net.index();
            max_sink.0 = max_sink.0.max(depth_logic[i]);
            max_sink.1 = max_sink.1.max(depth_split[i]);
            max_sink.2 = max_sink.2.max(delay[i]);
        }
        for cell in self.cells() {
            if !cell.kind.is_clocked() {
                continue;
            }
            for &n in &cell.inputs {
                let i = n.index();
                max_sink.0 = max_sink.0.max(depth_logic[i]);
                max_sink.1 = max_sink.1.max(depth_split[i]);
                max_sink.2 = max_sink.2.max(delay[i]);
            }
        }
        max_sink
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Netlist;
    use xsfq_cells::CellLibrary;

    #[test]
    fn jj_breakdown() {
        let mut n = Netlist::new("t", CellLibrary::xsfq_abutted());
        let a = n.add_input("a");
        let b = n.add_input("b");
        let x = n.add_cell(CellKind::La, &[a, b])[0];
        let y = n.add_cell(CellKind::Fa, &[a, b])[0];
        let s = n.add_cell(CellKind::Splitter, &[x]);
        n.add_output("s0", s[0]);
        n.add_output("s1", s[1]);
        n.add_output("y", y);
        let st = n.stats();
        assert_eq!(st.la_fa, 2);
        assert_eq!(st.splitters, 1);
        assert_eq!(st.jj_total, 4 + 4 + 3);
        assert_eq!(st.jj_logic, 8);
        assert_eq!(st.jj_splitters, 3);
        assert_eq!(st.clocked_cells, 0);
        assert_eq!(st.clock_tree_jj(3), 0, "clock-free designs need no tree");
    }

    #[test]
    fn depth_counts_gates_not_splitters() {
        let mut n = Netlist::new("t", CellLibrary::xsfq_abutted());
        let a = n.add_input("a");
        let b = n.add_input("b");
        let x = n.add_cell(CellKind::La, &[a, b])[0];
        let sp = n.add_cell(CellKind::Splitter, &[x]);
        let y = n.add_cell(CellKind::Fa, &[sp[0], sp[1]])[0];
        n.add_output("y", y);
        let st = n.stats();
        assert_eq!(st.depth_logic, 2);
        assert_eq!(st.depth_with_splitters, 3);
        // Delay = LA + splitter + FA.
        let expect = 7.2 + 5.1 + 9.5;
        assert!((st.critical_delay_ps - expect).abs() < 1e-9);
    }

    #[test]
    fn storage_breaks_paths() {
        let mut n = Netlist::new("t", CellLibrary::xsfq_abutted());
        let a = n.add_input("a");
        let b = n.add_input("b");
        let x = n.add_cell(CellKind::La, &[a, b])[0];
        let q = n.add_cell(CellKind::Droc { preload: false }, &[x]);
        let y = n.add_cell(CellKind::Fa, &[q[0], q[1]])[0];
        n.add_output("y", y);
        let st = n.stats();
        // Two stages of depth 1 each; critical path is max stage.
        assert_eq!(st.depth_logic, 1);
        assert_eq!(st.clocked_cells, 1);
        assert_eq!(st.jj_storage, 13);
    }

    #[test]
    fn feedback_through_storage_is_handled() {
        // q -> FA -> q (a 1-bit feedback loop).
        let mut n = Netlist::new("t", CellLibrary::xsfq_abutted());
        let a = n.add_input("a");
        let (droc, qs) = n.add_cell_deferred(CellKind::Droc { preload: true });
        let f = n.add_cell(CellKind::Fa, &[a, qs[0]])[0];
        n.connect_input(droc, 0, f);
        n.assert_connected();
        n.add_output("q", qs[0]);
        let st = n.stats();
        assert_eq!(st.depth_logic, 1);
        assert_eq!(st.drocs_preload, 1);
        assert_eq!(st.jj_total, 22 + 4);
    }

    #[test]
    fn stats_cache_invalidates_on_mutation() {
        let mut n = Netlist::new("t", CellLibrary::xsfq_abutted());
        let a = n.add_input("a");
        let b = n.add_input("b");
        let x = n.add_cell(CellKind::La, &[a, b])[0];
        n.add_output("x", x);
        let before = n.stats();
        assert_eq!(before.la_fa, 1);
        // Cached: a second query matches without recomputation.
        assert_eq!(n.stats().jj_total, before.jj_total);
        // Mutation must drop the cache and show the new cell.
        let y = n.add_cell(CellKind::Fa, &[a, b])[0];
        n.add_output("y", y);
        let after = n.stats();
        assert_eq!(after.la_fa, 2);
        assert!(after.jj_total > before.jj_total);
    }

    #[test]
    fn clock_tree_scales_with_clocked_cells() {
        let mut n = Netlist::new("t", CellLibrary::rsfq());
        let a = n.add_input("a");
        let b = n.add_input("b");
        let mut x = a;
        for _ in 0..5 {
            x = n.add_cell(CellKind::RsfqAnd, &[x, b])[0];
        }
        n.add_output("o", x);
        let st = n.stats();
        assert_eq!(st.clocked_cells, 5);
        assert_eq!(st.clock_tree_jj(3), 12); // (5-1) * 3
        assert_eq!(st.jj_with_clock_tree(3), st.jj_total + 12);
    }
}
