//! Cell kinds for superconducting netlists.

use std::fmt;

/// Every standard cell used by the flow — the clock-free xSFQ family
/// (paper §2) plus the clocked RSFQ family used by the PBMap/qSeq baselines.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum CellKind {
    // --- clock-free xSFQ cells (paper Table 2) ---
    /// Josephson transmission line segment (interconnect repeater).
    Jtl,
    /// Last-Arrival cell: Muller C element used as dual-rail AND (4 JJ).
    La,
    /// First-Arrival cell: inverse C element used as dual-rail OR (4 JJ).
    Fa,
    /// 1→2 pulse splitter (fanout).
    Splitter,
    /// 2→1 pulse merger (confluence buffer).
    Merger,
    /// DC-to-SFQ converter (used to preload DROC cells, §2.2).
    DcToSfq,
    /// Destructive read-out cell with complementary outputs (Qp/Qn). The
    /// `preload` variant carries the DC-to-SFQ + merger preloading hardware
    /// (+9 JJ) that emits a logical 1 in the first cycle (§2.2, Figure 3).
    Droc {
        /// Whether the preloading hardware is attached.
        preload: bool,
    },
    // --- clocked RSFQ cells (baseline flows, §4.2) ---
    /// Clocked two-input AND gate.
    RsfqAnd,
    /// Clocked two-input OR gate.
    RsfqOr,
    /// Clocked two-input XOR gate.
    RsfqXor,
    /// Clocked inverter.
    RsfqNot,
    /// Destructive read-out cell (D flip-flop / path-balancing buffer).
    RsfqDff,
    /// RSFQ pulse splitter (also used for clock distribution).
    RsfqSplitter,
    /// RSFQ confluence buffer.
    RsfqMerger,
}

impl CellKind {
    /// True for cells that require a clock input (RSFQ logic and storage,
    /// plus the synchronous DROC). The count of clocked cells drives the
    /// clock-tree overhead comparison in §4.2.1.
    pub fn is_clocked(self) -> bool {
        matches!(
            self,
            CellKind::Droc { .. }
                | CellKind::RsfqAnd
                | CellKind::RsfqOr
                | CellKind::RsfqXor
                | CellKind::RsfqNot
                | CellKind::RsfqDff
        )
    }

    /// True for the clock-free xSFQ logic cells (LA/FA).
    pub fn is_xsfq_logic(self) -> bool {
        matches!(self, CellKind::La | CellKind::Fa)
    }

    /// True for every clocked-RSFQ-family cell (logic, storage and
    /// interconnect) — the cells that take RSFQ-flavored splitters.
    pub fn is_rsfq(self) -> bool {
        matches!(
            self,
            CellKind::RsfqAnd
                | CellKind::RsfqOr
                | CellKind::RsfqXor
                | CellKind::RsfqNot
                | CellKind::RsfqDff
                | CellKind::RsfqSplitter
                | CellKind::RsfqMerger
        )
    }

    /// Library cell name (matches the Liberty output).
    pub fn name(self) -> &'static str {
        match self {
            CellKind::Jtl => "JTL",
            CellKind::La => "LA",
            CellKind::Fa => "FA",
            CellKind::Splitter => "SPLIT",
            CellKind::Merger => "MERGE",
            CellKind::DcToSfq => "DC2SFQ",
            CellKind::Droc { preload: false } => "DROC",
            CellKind::Droc { preload: true } => "DROC_P",
            CellKind::RsfqAnd => "RSFQ_AND2",
            CellKind::RsfqOr => "RSFQ_OR2",
            CellKind::RsfqXor => "RSFQ_XOR2",
            CellKind::RsfqNot => "RSFQ_NOT",
            CellKind::RsfqDff => "RSFQ_DFF",
            CellKind::RsfqSplitter => "RSFQ_SPLIT",
            CellKind::RsfqMerger => "RSFQ_MERGE",
        }
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocked_classification() {
        assert!(!CellKind::La.is_clocked());
        assert!(!CellKind::Fa.is_clocked());
        assert!(!CellKind::Splitter.is_clocked());
        assert!(CellKind::Droc { preload: false }.is_clocked());
        assert!(CellKind::RsfqAnd.is_clocked());
        assert!(CellKind::RsfqDff.is_clocked());
        assert!(!CellKind::RsfqSplitter.is_clocked());
    }

    #[test]
    fn names_are_unique() {
        let all = [
            CellKind::Jtl,
            CellKind::La,
            CellKind::Fa,
            CellKind::Splitter,
            CellKind::Merger,
            CellKind::DcToSfq,
            CellKind::Droc { preload: false },
            CellKind::Droc { preload: true },
            CellKind::RsfqAnd,
            CellKind::RsfqOr,
            CellKind::RsfqXor,
            CellKind::RsfqNot,
            CellKind::RsfqDff,
            CellKind::RsfqSplitter,
            CellKind::RsfqMerger,
        ];
        let mut names: Vec<&str> = all.iter().map(|c| c.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }
}
