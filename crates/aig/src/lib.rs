//! # xsfq-aig — AND-Inverter graphs for the xSFQ synthesis flow
//!
//! This crate is the tech-independent logic substrate of the workspace: a
//! structurally hashed [`Aig`] with word-level construction helpers
//! ([`build`]), bit-parallel and sequential simulation ([`sim`]),
//! cut computation ([`cuts`]), truth-table manipulation ([`tt`], [`isop`],
//! [`synth`]) and the optimization passes ([`opt`]) the paper applies
//! off-the-shelf (§3.1.3: *"xSFQ netlists exhibit seamless compatibility
//! with ABC's internal AIG representation"*). Recipes are values: [`pass`]
//! parses ABC-style scripts (`Script::parse("b; rw; rf; b; rwz; rw")`) with
//! `fast`/`standard`/`high` presets, compiles them to its closed set of
//! passes, and runs them with per-pass telemetry — [`opt::Effort`] is a
//! facade over those presets.
//!
//! ```
//! use xsfq_aig::{Aig, build, opt, sim};
//!
//! // Build a 4-bit adder, optimize it, and check equivalence.
//! let mut aig = Aig::new("adder4");
//! let a = aig.input_word("a", 4);
//! let b = aig.input_word("b", 4);
//! let (sum, carry) = build::ripple_add(&mut aig, &a, &b, xsfq_aig::Lit::FALSE);
//! aig.output_word("sum", &sum);
//! aig.output("carry", carry);
//!
//! let optimized = opt::optimize(&aig, opt::Effort::Standard);
//! assert!(optimized.num_ands() <= aig.num_ands());
//! assert!(sim::random_equiv(&aig, &optimized, 16, 42));
//! ```
//!
//! # Hot-path data-structure invariants
//!
//! The three synthesis inner loops are allocation-free by construction;
//! property tests (`tests/properties.rs`) pin them to naive reference
//! implementations and `tests/alloc_free.rs` enforces the allocation
//! guarantees with a counting global allocator.
//!
//! * **Structural hashing** — [`Aig::and`] deduplicates through an
//!   open-addressing (linear-probe, insert-only) table whose slots hold
//!   only node indices; keys are read back from the node arena and hashed
//!   with one 64-bit multiply whose top bits pick the slot. The table
//!   doubles before it passes load ½, so a lookup probes about 1.3 slots.
//!   Pass outputs are presized: `balance` and the resynthesis passes
//!   reserve their input's AND count and [`Aig::compact`] its live count,
//!   so they do not rehash as they fill. [`Aig::num_ands`] is a maintained
//!   counter, O(1). A [`DryRun`] probes the same table read-only to count
//!   what a build would add.
//! * **Cuts** — [`cuts::Cut`] stores up to [`cuts::MAX_CUT_SIZE`] leaves
//!   inline (sorted by id) plus a 64-bit signature with bit `id % 64` set
//!   per leaf. The signature has the subset property
//!   `A ⊆ B ⇒ sig(A) & !sig(B) == 0`, so dominance checks and oversize
//!   merges are rejected with one AND / popcount before any leaf scan.
//!   Enumerated cuts also carry their root's function as one `u64` word,
//!   composed from the fanin cuts' words, which rewriting reads instead of
//!   walking the cone.
//!   Cone evaluation (refactor) reuses a flat, generation-stamped
//!   [`cuts::CutScratch`] instead of per-cone hash maps.
//! * **Truth tables** — [`tt::TruthTable`] stores ≤6-variable tables in a
//!   single inline `u64` (the representation is an invariant tied to the
//!   variable count, never a heuristic), and every operator has an in-place
//!   variant (`invert`, `and_with`, `cofactor0_in_place`, …) used by the
//!   rewriting loops.
//! * **Sequential resynthesis** — every pass evaluates and commits one node
//!   at a time, in node-index order, on the calling thread, reusing the
//!   scratch arenas of one [`pass::PassCtx`] across passes and designs.
//!   Designs, not passes, are the unit of parallelism: the flow's
//!   `run_many` fans whole designs out over `xsfq-exec`, one context per
//!   thread.

#![warn(missing_docs)]

mod aig;
mod lit;

pub mod aiger;
pub mod build;
#[cfg(feature = "chaos")]
pub mod chaos;
pub mod cuts;
pub mod digest;
pub mod hash;
pub mod io;
pub mod isop;
pub mod opt;
pub mod pass;
pub mod sim;
pub mod synth;
pub mod tt;

pub use aig::{Aig, AigDefect, AigStats, Build, DryRun, Latch, NodeKind, Output};
pub use lit::{Lit, NodeId};
