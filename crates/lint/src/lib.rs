//! # xsfq-lint — static design-rule checking for clock-free superconducting circuits
//!
//! The paper's resource-efficiency argument (§2, §4.2) rests on structural
//! discipline: dual-rail signals with both polarities materialized,
//! alternating-polarity LA/FA logic, DROC storage placed on rank
//! boundaries, and physical nets fanned out through splitter trees so every
//! pulse source drives exactly one sink. This crate turns those rules —
//! previously enforced by scattered `panic!`s and `debug_assert`s — into a
//! diagnostic engine: every check emits a [`Diag`] with a stable code, a
//! severity, a message and a [`Site`], renderable as text or JSON.
//!
//! Entry points: [`lint_netlist`] (technology netlists), [`lint_aig`]
//! (AND-inverter graphs, wrapping [`xsfq_aig::Aig::validate`]),
//! [`lint_cut_arena`] (the CSR cut storage of the rewrite passes),
//! [`lint_timing`] (residual arrival-skew audit of balanced netlists, on
//! the `xsfq_timing` engine), and the `xsfq-lint` CLI binary (BLIF/AIGER
//! in, diagnostics out, nonzero exit on errors). The flow runs these via
//! the `CheckLevel` knob on `xsfq_core::FlowOptions`; the `xsfq-serve`
//! daemon lints submissions at admission time.
//!
//! ## Lint-code catalog
//!
//! Errors (`X0xx`) describe structures the flow cannot implement in
//! hardware; warnings (`W1xx`) describe legal but wasteful structures.
//!
//! | code | meaning | motivation | example fix |
//! |---|---|---|---|
//! | `X001` | unconnected cell input pin (deferred wiring never completed) or output port on a nonexistent net | every xSFQ input must see a pulse or its absence — a floating C-element input deadlocks the cell (§2.1) | call `Netlist::connect_input` for every pin opened by `add_cell_deferred` |
//! | `X002` | cell pin count differs from `input_pins`/`output_pins` for its kind | the cell library (Table 2) defines fixed-arity cells; a 1-input LA is not a cell that exists | construct cells through `Netlist::add_cell`, which enforces arity |
//! | `X003` | combinational cycle through clock-free cells | a pulse loop with no storage element re-triggers forever; only DROC/DFF boundaries may close cycles (§2.2) | break the loop with a DROC pair (sequential mapping does this for latches) |
//! | `X004` | net with more than one sink in a physicalized netlist | SFQ pulses cannot fan out passively — every multi-sink net needs a splitter tree (Equation 1, §4.2) | run `Netlist::insert_splitters` after mapping |
//! | `X005` | dual-rail output rails unpaired (a `_p` port without its `_n` twin) | the alternating protocol encodes one bit as a pulse on exactly one of two rails; a missing rail makes the value unobservable (§2.1) | emit both polarities for every dual-rail output (`PolarityMode::DualRail` mapping does) |
//! | `X006` | rank legality: trigger-clocked cell that is not a preloaded DROC, preloaded DROC never triggered, DROC preload flag disagreeing with its rank parity, or an LA/FA joining rails from different ranks | §3.2's preloading scheme initializes odd rank boundaries via the trigger net; mixing ranks at a gate merges pulses from different waves | place storage through the rank-aware mapper (`MapOptions::rank_levels`) |
//! | `X007` | RSFQ/xSFQ style mixing: both families' logic in one netlist, or a splitter whose flavor disagrees with its driver | the families run different timing disciplines (clocked vs clock-free, §4.2); a splitter must match the family of the pulse train it splits | map the whole design with one library; let `insert_splitters` pick splitter flavors |
//! | `X008` | port-name collision: duplicate input names, duplicate output names, or an output shadowing an input | dual-rail emission appends `_p`/`_n` to port names, so colliding base names produce colliding Verilog ports | rename the offending ports at the source |
//! | `X009` | AIG structural invariant violation (see [`xsfq_aig::Aig::validate`]) | every pass assumes topological fanin order and strash canonicity; a violation turns later passes into silent miscompiles | rebuild the graph through `Aig::and` instead of mutating nodes |
//! | `X010` | cut-arena CSR integrity violation (see `CutArena::check_integrity`) | mapping reads cut lists by node range; a corrupt range reads another node's cuts | re-enumerate cuts; report the pass that corrupted the arena |
//! | `X011` | residual dual-rail arrival skew beyond tolerance at a join cell or output rail pair (post-balancing timing check, [`lint_timing`]) | alternating logic only works when paired pulse arrivals stay aligned (§2.1); skew past the tolerance lets a pulse race its partner wave at a C-element | run the flow's Timing stage with full balancing (`xsfq_timing::balance_netlist`), or widen `TimingOptions::tolerance_ps` |
//! | `W101` | dead cell: no output net reaches a sink | dead hardware still costs JJs and bias current | sweep dead logic before mapping (`Aig::compact`) |
//! | `W102` | unbalanced splitter tree (leaf depths differ by more than one) | splitter depth adds to the critical path (§4.2.1); a chain where a tree fits wastes clock period | rebuild the tree with `Netlist::insert_splitters` |

#![warn(missing_docs)]

mod diag;
mod drc;
mod timing;

pub use diag::{has_errors, render_json, render_text, CheckLevel, Code, Diag, Severity, Site};
pub use drc::{lint_aig, lint_aig_defects, lint_cut_arena, lint_netlist, NetlistProfile};
pub use timing::lint_timing;
