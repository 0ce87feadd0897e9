//! # xsfq-sat — SAT solving and equivalence checking
//!
//! A self-contained incremental CDCL SAT solver ([`Solver`]), combinational
//! equivalence checking of AND-Inverter graphs ([`cec`]), and the
//! simulation-guided SAT-sweeping engine ([`sweep`]) that powers both the
//! default CEC path and [`fraig_pass`], the sweep a pass script runs as
//! `f` / `fraig`. In the paper's toolchain this role is played by ABC's
//! `cec`/`fraig`; here it verifies every optimization and
//! technology-mapping step of the xSFQ flow.
//!
//! ```
//! use xsfq_aig::{Aig, build, opt, Lit};
//! use xsfq_sat::cec;
//!
//! let mut adder = Aig::new("adder");
//! let a = adder.input_word("a", 3);
//! let b = adder.input_word("b", 3);
//! let (s, c) = build::ripple_add(&mut adder, &a, &b, Lit::FALSE);
//! adder.output_word("s", &s);
//! adder.output("c", c);
//!
//! let optimized = opt::optimize(&adder, opt::Effort::Standard);
//! assert!(cec::equivalent(&adder, &optimized));
//! ```

#![warn(missing_docs)]

pub mod cec;
mod pass;
mod solver;
pub mod sweep;

pub use cec::{check_equivalence, equivalent, EquivResult};
pub use pass::fraig_pass;
pub use solver::{Lit, SatResult, Solver, Var};
pub use sweep::{fraig_with_stats, SweepStats};
