//! # xsfq-core — clock-free alternating-logic synthesis
//!
//! The paper's primary contribution, reimplemented as a library:
//!
//! * [`polarity`] — backward bubble pushing and the domino-logic output
//!   phase assignment heuristic (§3.1.4–3.1.5) that collapse LA-FA pairs to
//!   single cells,
//! * [`map`] — dual-rail technology mapping onto the xSFQ cell library,
//!   sequential DROC pairs with the preload + trigger initialization
//!   strategy (§3.2), and pipeline DROC ranks (§4.2.2),
//! * [`pipeline`] — min-width rank placement (the ABC-retiming substitute),
//! * [`verify`] — reconstruction + SAT proof that mapping preserved the
//!   function,
//! * [`flow`] — the one-call driver producing the reports behind the
//!   paper's Tables 3–6.
//!
//! ```
//! use xsfq_aig::{Aig, build};
//! use xsfq_core::SynthesisFlow;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut aig = Aig::new("fa");
//! let a = aig.input("a");
//! let b = aig.input("b");
//! let cin = aig.input("cin");
//! let (s, c) = build::full_adder(&mut aig, a, b, cin);
//! aig.output("sum", s);
//! aig.output("cout", c);
//!
//! let result = SynthesisFlow::new().verify(true).run(&aig)?;
//! assert_eq!(result.report.jj_total, 58); // paper Figure 5ii
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod flow;
pub mod map;
pub mod pipeline;
pub mod polarity;
pub mod verify;

pub use flow::{
    FlowError, FlowOptions, FlowReport, FlowResult, FlowStage, JobError, JobErrorKind, StageStat,
    SynthesisFlow,
};
pub use map::{map_with_assignment, map_with_assignment_pool, map_xsfq, MapOptions, MappedDesign};
pub use polarity::{
    assign_polarities, assign_polarities_with_pool, OutputPolarity, PolarityAssignment,
    PolarityMode, RailRequirements,
};
pub use xsfq_lint::CheckLevel;
pub use xsfq_timing::{BalanceMode, TimingOptions, TimingSummary};
