//! # xsfq-baselines — clocked RSFQ comparison flows
//!
//! The paper compares against PBMap (Pasandi & Pedram, TASC'19) for
//! combinational circuits and qSeq (DAC'21) for sequential ones. Neither
//! tool is redistributable, so this crate implements their *cost
//! structure*: technology mapping to clocked RSFQ cells, full path
//! balancing with DRO/DFF insertion, and an exactly-sized clock splitter
//! tree — the three overheads clock-free xSFQ eliminates. One entry point,
//! [`pbmap`], serves both: the mapping is the same, and a design's latches
//! become qSeq's state DFFs.
//!
//! ```
//! use xsfq_aig::{Aig, build};
//! use xsfq_baselines::pbmap;
//!
//! let mut g = Aig::new("fa");
//! let a = g.input("a");
//! let b = g.input("b");
//! let c = g.input("cin");
//! let (s, co) = build::full_adder(&mut g, a, b, c);
//! g.output("s", s);
//! g.output("cout", co);
//!
//! let baseline = pbmap(&g);
//! assert!(baseline.jj_with_clock_tree() > baseline.jj_total());
//! ```

#![warn(missing_docs)]

mod rsfq_map;

pub use rsfq_map::{map_rsfq, RsfqDesign};

use xsfq_aig::opt::{self, Effort};
use xsfq_aig::Aig;

/// PBMap-style combinational and qSeq-style sequential baseline: AIG
/// optimization (same script as the xSFQ flow, so the comparison isolates
/// architecture) followed by clocked RSFQ mapping with full path balancing.
/// Latches become RSFQ DFF cells whose data paths are balanced to the
/// global logic depth.
pub fn pbmap(aig: &Aig) -> RsfqDesign {
    pbmap_with_effort(aig, Effort::Standard)
}

/// [`pbmap`] with an explicit optimization effort.
pub fn pbmap_with_effort(aig: &Aig, effort: Effort) -> RsfqDesign {
    let optimized = opt::optimize(aig, effort);
    map_rsfq(&optimized)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsfq_aig::build;
    use xsfq_aig::Lit;

    #[test]
    fn pbmap_on_adder_produces_balanced_clocked_netlist() {
        let mut g = Aig::new("add4");
        let a = g.input_word("a", 4);
        let b = g.input_word("b", 4);
        let (s, c) = build::ripple_add(&mut g, &a, &b, Lit::FALSE);
        g.output_word("s", &s);
        g.output("c", c);
        let d = pbmap(&g);
        assert!(d.gates > 0);
        assert!(d.balancing_dffs > 0, "ripple carry needs balancing DROs");
        assert_eq!(d.state_dffs, 0);
        let stats = d.netlist.stats();
        assert!(stats.clocked_cells > 0);
        assert!(d.jj_with_clock_tree() > d.jj_total());
    }

    #[test]
    fn qseq_counts_state_dffs() {
        let mut g = Aig::new("cnt");
        let q = g.latch("q", false);
        let en = g.input("en");
        let nx = g.xor(q, en);
        g.set_latch_next(q, nx);
        g.output("o", q);
        let d = pbmap(&g);
        assert_eq!(d.state_dffs, 1);
    }
}
