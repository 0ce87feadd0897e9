//! # xsfq — clock-free alternating-logic superconducting circuit synthesis
//!
//! This is the facade crate of the `xsfq-synth` workspace, a from-scratch Rust
//! reproduction of *"Synthesis of Resource-Efficient Superconducting Circuits
//! with Clock-Free Alternating Logic"* (Volk, Papanikolaou, Zervakis,
//! Tzimpragos — DAC 2024).
//!
//! It re-exports every sub-crate under a stable module name so applications
//! can depend on a single crate:
//!
//! ```
//! use xsfq::aig::Aig;
//! use xsfq::core::SynthesisFlow;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Build a full adder, optimize it, and map it to clock-free xSFQ cells.
//! let mut aig = Aig::new("full_adder");
//! let a = aig.input("a");
//! let b = aig.input("b");
//! let cin = aig.input("cin");
//! let (sum, cout) = xsfq::aig::build::full_adder(&mut aig, a, b, cin);
//! aig.output("sum", sum);
//! aig.output("cout", cout);
//!
//! let result = SynthesisFlow::new().run(&aig)?;
//! assert!(result.netlist().stats().jj_total > 0);
//! # Ok(())
//! # }
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`aig`] | AND-Inverter graphs and optimization passes (ABC substitute), incl. the `pass` script engine |
//! | [`exec`] | design fan-out on scoped threads, cancel token |
//! | [`sat`] | CDCL SAT solver + combinational equivalence checking |
//! | [`cells`] | xSFQ / RSFQ standard-cell libraries (paper Table 2) |
//! | [`netlist`] | technology netlists, splitter insertion, JJ accounting |
//! | [`core`] | the paper's synthesis flow: dual-rail mapping, polarity optimization, sequential init, retiming |
//! | [`pulse`] | event-driven pulse-level simulator (PyLSE substitute) |
//! | [`spice`] | analog RCSJ Josephson-junction transient simulator (HSPICE substitute) |
//! | [`benchmarks`] | ISCAS85 / EPFL / ISCAS89 functional equivalents |
//! | [`baselines`] | clocked RSFQ baselines (PBMap-like, qSeq-like) |
//! | [`serve`] | crash-tolerant synthesis daemon: TCP + watched-dir jobs, journal, result cache |
//! | [`lint`] | static design-rule checker: netlist DRC, AIG/arena validators and a post-balancing skew check (codes X001–X011, W101–W102), diagnostics |
//! | [`timing`] | static timing analysis and slack-matching JTL insertion for mapped netlists |
//!
//! The workspace's `xsfq-model` crate, a bounded concurrency model checker
//! for the cancel token and the daemon's queue, is test-only and not
//! re-exported.

pub use xsfq_aig as aig;
pub use xsfq_baselines as baselines;
pub use xsfq_benchmarks as benchmarks;
pub use xsfq_cells as cells;
pub use xsfq_core as core;
pub use xsfq_exec as exec;
pub use xsfq_lint as lint;
pub use xsfq_netlist as netlist;
pub use xsfq_pulse as pulse;
pub use xsfq_sat as sat;
pub use xsfq_serve as serve;
pub use xsfq_spice as spice;
pub use xsfq_timing as timing;
