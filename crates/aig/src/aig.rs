//! The AND-Inverter graph container.
//!
//! # Structural-hash table
//!
//! New AND nodes are deduplicated through [`StrashTable`], an open-addressing
//! (linear-probe) hash-cons table over the node arena: slots store only node
//! indices, the key `(a, b)` is read back from the arena on probe, and the
//! hash is one 64-bit multiply — no SipHash, no per-entry heap boxes. Nodes
//! are only ever added, so the table has no removal and no tombstones.
//!
//! The table is at most half full: an insert that would take it past load
//! ½ doubles it first. A pair's first slot is the top `log2(capacity)`
//! bits of the product (Fibonacci hashing); the product's low bits depend
//! only on the key's low bits and cluster. Linear probing at load ≤ ½
//! stays short: over the standard script on the suite designs a lookup
//! takes about 1.3 probes, hit or miss.
//!
//! A pass that knows its output's size presizes it with `Aig::reserve`:
//! `balance` and the resynthesis passes (`rewrite`, `rewrite_zero`,
//! `refactor`) reserve their input's AND count, and [`Aig::compact`] its
//! live count. Such an output rehashes only once it holds more ANDs than
//! it reserved. Every lookup returns the same node whatever the table's
//! capacity or history, so presizing changes no graph.
//!
//! # Builders
//!
//! [`Build`] is the one definition of every gate's AND structure: its
//! implementors supply `and`, and `or`, `xor`, `mux`, `and_many`,
//! `or_many` and `xor_many` exist only as its provided methods. [`Aig`]
//! implements it by creating nodes; [`DryRun`] implements it over a
//! borrowed graph by counting the nodes a build would create, without
//! touching the graph.

use std::fmt;

use crate::{Lit, NodeId};

/// Open-addressing hash-cons table mapping `(a, b)` fanin pairs to AND node
/// indices. Capacity is a power of two, at least 16 and at least twice the
/// entry count; `EMPTY` slots hold `u32::MAX`.
#[derive(Clone, Debug, Default)]
struct StrashTable {
    slots: Vec<u32>,
    len: usize,
    /// `64 - log2(slots.len())`: a pair's home slot is the top bits of its
    /// hash (unused while `slots` is empty).
    shift: u32,
}

const EMPTY: u32 = u32::MAX;

#[inline]
fn strash_hash(a: u32, b: u32) -> u64 {
    // Fibonacci hashing: one multiply of the packed pair by 2^64 / φ.
    // Every key bit reaches the product's top bits, which pick the slot
    // (`StrashTable::home`). Its low bits see only the low bits of `b`: a
    // table that masked them (after `x ^ x >> 29`) and filled to 7/8 took
    // 4.9 probes per hit and 6.4 per miss at mean load 0.64, where linear
    // probing under a uniform hash takes 1.9 and 4.3.
    ((a as u64) << 32 | b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl StrashTable {
    /// The first slot probed for `(a, b)`.
    #[inline]
    fn home(&self, a: Lit, b: Lit) -> usize {
        (strash_hash(a.raw(), b.raw()) >> self.shift) as usize
    }

    /// Probe for the AND of `(a, b)`; `nodes` is the arena the slots index.
    #[inline]
    fn lookup(&self, a: Lit, b: Lit, nodes: &[NodeKind]) -> Option<u32> {
        self.find(a, b, nodes).ok()
    }

    /// Probe for the AND of `(a, b)`: `Ok` with its node, or `Err` with the
    /// empty slot that ends its probe sequence, where [`StrashTable::insert`]
    /// puts the pair unless the table grows first (a table without slots
    /// answers `Err(0)` and always grows).
    #[inline]
    fn find(&self, a: Lit, b: Lit, nodes: &[NodeKind]) -> Result<u32, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut pos = self.home(a, b);
        loop {
            let slot = self.slots[pos];
            if slot == EMPTY {
                return Err(pos);
            }
            if let NodeKind::And { a: sa, b: sb } = nodes[slot as usize] {
                if sa == a && sb == b {
                    return Ok(slot);
                }
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Insert node `idx`, which must not be present yet: `vacant` is the
    /// slot [`StrashTable::find`] returned for it on this table.
    #[inline]
    fn insert(&mut self, idx: u32, vacant: usize, nodes: &[NodeKind]) {
        if 2 * (self.len + 1) > self.slots.len() {
            self.reserve(1, nodes);
            self.place(idx, nodes);
        } else {
            self.slots[vacant] = idx;
        }
        self.len += 1;
    }

    /// Make room for `additional` more entries at load ≤ ½, rehashing
    /// into a larger table now if needed, so those inserts never rehash.
    fn reserve(&mut self, additional: usize, nodes: &[NodeKind]) {
        let need = 2 * (self.len + additional);
        if need <= self.slots.len() {
            return;
        }
        let cap = need.next_power_of_two().max(16);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; cap]);
        self.shift = 64 - cap.trailing_zeros();
        for slot in old.into_iter().filter(|&s| s != EMPTY) {
            self.place(slot, nodes);
        }
    }

    /// Write `idx` into the first empty slot of its probe sequence.
    fn place(&mut self, idx: u32, nodes: &[NodeKind]) {
        let NodeKind::And { a, b } = nodes[idx as usize] else {
            unreachable!("only AND nodes are hashed");
        };
        let mask = self.slots.len() - 1;
        let mut pos = self.home(a, b);
        while self.slots[pos] != EMPTY {
            pos = (pos + 1) & mask;
        }
        self.slots[pos] = idx;
    }
}

/// A graph's structure without its names and ports: the node table, the
/// structural hash and the combinational-input ids. It outlives the graph
/// it was copied from, so a later graph's nodes can be matched against it
/// (the cut arena keeps one; see [`crate::cuts`]).
#[derive(Debug, Default)]
pub(crate) struct Structure {
    nodes: Vec<NodeKind>,
    strash: StrashTable,
    inputs: Vec<NodeId>,
    latches: Vec<NodeId>,
}

impl Structure {
    /// Overwrite with `aig`'s structure, reusing the buffers.
    pub(crate) fn copy_from(&mut self, aig: &Aig) {
        self.nodes.clone_from(&aig.nodes);
        self.strash.slots.clone_from(&aig.strash.slots);
        self.strash.len = aig.strash.len;
        self.strash.shift = aig.strash.shift;
        self.inputs.clone_from(&aig.inputs);
        self.latches.clear();
        self.latches.extend(aig.latches.iter().map(|l| l.output));
    }

    pub(crate) fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The AND node whose stored fanins are exactly `(a, b)`, in that order.
    #[inline]
    pub(crate) fn and_of(&self, a: Lit, b: Lit) -> Option<NodeId> {
        self.strash.lookup(a, b, &self.nodes).map(NodeId)
    }

    /// The combinational input of the same kind and ordinal as `kind`'s.
    pub(crate) fn ci_like(&self, kind: NodeKind) -> Option<NodeId> {
        match kind {
            NodeKind::Input { index } => self.inputs.get(index as usize).copied(),
            NodeKind::Latch { index } => self.latches.get(index as usize).copied(),
            NodeKind::Const0 | NodeKind::And { .. } => None,
        }
    }
}

/// A graph builder. Implementors supply [`Build::and`]; every other gate
/// is a provided method built from it, so each gate's structure is defined
/// here and nowhere else, and a [`DryRun`] builds exactly what an [`Aig`]
/// would.
pub trait Build {
    /// AND of two literals, with [`Aig::and`]'s folding and hashing rules.
    fn and(&mut self, a: Lit, b: Lit) -> Lit;

    /// OR of two literals (`!(!a & !b)`).
    fn or(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(!a, !b)
    }

    /// XOR of two literals, built from three ANDs (or fewer with constants).
    ///
    /// Uses the `(a|b) & !(a&b)` structure, whose `a&b` product is shared
    /// with carry logic — this is what makes [`crate::build::full_adder`]
    /// come out at the 7-node minimum of the paper's Figure 4.
    fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        // Canonicalize to positive-polarity inputs so `xor(a, !b)` produces
        // the same internal nodes as `!xor(a, b)` — maximizing sharing.
        let flip = a.is_complement() ^ b.is_complement();
        let (a, b) = (a.positive(), b.positive());
        let both = self.and(a, b);
        let neither = self.and(!a, !b);
        let x = self.and(!both, !neither);
        x.complement_if(flip)
    }

    /// 2:1 multiplexer: `sel ? t : e`.
    fn mux(&mut self, sel: Lit, t: Lit, e: Lit) -> Lit {
        let pt = self.and(sel, t);
        let pe = self.and(!sel, e);
        self.or(pt, pe)
    }

    /// Conjunction of many literals, built as a balanced tree.
    fn and_many(&mut self, lits: &[Lit]) -> Lit {
        reduce_balanced(self, lits, Lit::TRUE, Self::and)
    }

    /// Disjunction of many literals, built as a balanced tree.
    fn or_many(&mut self, lits: &[Lit]) -> Lit {
        reduce_balanced(self, lits, Lit::FALSE, Self::or)
    }

    /// XOR of many literals, built as a balanced tree.
    fn xor_many(&mut self, lits: &[Lit]) -> Lit {
        reduce_balanced(self, lits, Lit::FALSE, Self::xor)
    }
}

fn reduce_balanced<B: Build + ?Sized>(
    builder: &mut B,
    lits: &[Lit],
    empty: Lit,
    op: impl Fn(&mut B, Lit, Lit) -> Lit + Copy,
) -> Lit {
    match lits.len() {
        0 => empty,
        1 => lits[0],
        n => {
            let (lo, hi) = lits.split_at(n / 2);
            let l = reduce_balanced(builder, lo, empty, op);
            let r = reduce_balanced(builder, hi, empty, op);
            op(builder, l, r)
        }
    }
}

/// `a & b` by the constant, unit, idempotence and complement rules, or the
/// fanin pair in canonical (`a.raw() <= b.raw()`) order when it needs a
/// node.
#[inline]
fn fold_and(a: Lit, b: Lit) -> Result<Lit, (Lit, Lit)> {
    if a == Lit::FALSE || b == Lit::FALSE || a == !b {
        return Ok(Lit::FALSE);
    }
    if a == Lit::TRUE {
        return Ok(b);
    }
    if b == Lit::TRUE || a == b {
        return Ok(a);
    }
    Err(if a.raw() <= b.raw() { (a, b) } else { (b, a) })
}

/// A [`Build`] that costs a build without performing it: it answers every
/// call with the literal building into `base` would return and counts the
/// AND nodes that build would add ([`DryRun::added`]). A pair is looked up
/// read-only in `base`'s structural hash, then in the short list of
/// would-be nodes, which are numbered from `base.num_nodes()` in creation
/// order.
///
/// The would-be nodes live in a caller-owned buffer, so costing many
/// candidates against one graph reuses one allocation.
#[derive(Debug)]
pub struct DryRun<'g> {
    base: &'g Aig,
    pending: &'g mut Vec<(Lit, Lit)>,
}

impl<'g> DryRun<'g> {
    /// An empty overlay on `base`; `buffer` is cleared and holds the
    /// would-be nodes.
    pub fn new(base: &'g Aig, buffer: &'g mut Vec<(Lit, Lit)>) -> Self {
        buffer.clear();
        DryRun {
            base,
            pending: buffer,
        }
    }

    /// AND nodes the calls so far would have added to the base graph.
    pub fn added(&self) -> usize {
        self.pending.len()
    }
}

impl Build for DryRun<'_> {
    fn and(&mut self, a: Lit, b: Lit) -> Lit {
        let (a, b) = match fold_and(a, b) {
            Ok(lit) => return lit,
            Err(pair) => pair,
        };
        let first = self.base.nodes.len();
        // A pair that names a would-be node cannot be in the base graph.
        if b.node().index() < first {
            if let Some(idx) = self.base.strash.lookup(a, b, &self.base.nodes) {
                return Lit(idx << 1);
            }
        }
        let pos = match self.pending.iter().position(|&p| p == (a, b)) {
            Some(pos) => pos,
            None => {
                self.pending.push((a, b));
                self.pending.len() - 1
            }
        };
        NodeId::from_index(first + pos).lit()
    }
}

/// Kind of a node in the graph.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum NodeKind {
    /// The constant-false node (always node 0).
    Const0,
    /// Primary input.
    Input {
        /// Position in [`Aig::inputs`].
        index: u32,
    },
    /// Latch (register) output.
    Latch {
        /// Position in [`Aig::latches`].
        index: u32,
    },
    /// Two-input AND of the given edge literals.
    And {
        /// First fanin edge.
        a: Lit,
        /// Second fanin edge.
        b: Lit,
    },
}

impl NodeKind {
    /// True for AND nodes.
    #[inline]
    pub fn is_and(&self) -> bool {
        matches!(self, NodeKind::And { .. })
    }

    /// True for latch outputs.
    #[inline]
    fn is_latch(&self) -> bool {
        matches!(self, NodeKind::Latch { .. })
    }
}

/// A named primary output driving literal.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Output {
    /// Port name.
    pub name: String,
    /// Driving edge.
    pub lit: Lit,
}

/// A latch (synchronous storage element) in a sequential AIG.
///
/// In the xSFQ flow every latch eventually becomes a pair of DROC cells; the
/// `init` value participates in the paper's preloading strategy (§3.2).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Latch {
    /// Node whose value is the latch's current state.
    pub output: NodeId,
    /// Next-state function (may reference any node, including later ones).
    pub next: Lit,
    /// Power-on value.
    pub init: bool,
    /// Latch name.
    pub name: String,
}

/// Summary statistics of an AIG.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct AigStats {
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Number of latches.
    pub latches: usize,
    /// Number of two-input AND nodes.
    pub ands: usize,
    /// Logic depth in AND levels (combinational inputs are level 0).
    pub depth: usize,
}

impl fmt::Display for AigStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "i/o = {}/{}  latches = {}  ands = {}  depth = {}",
            self.inputs, self.outputs, self.latches, self.ands, self.depth
        )
    }
}

/// One violation found by [`Aig::validate`]: the offending node (when the
/// defect is attributable to one) and a human-readable description.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AigDefect {
    /// Index of the offending node, if the defect anchors to one.
    pub node: Option<usize>,
    /// What is wrong.
    pub detail: String,
}

impl fmt::Display for AigDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.node {
            Some(n) => write!(f, "node {n}: {}", self.detail),
            None => f.write_str(&self.detail),
        }
    }
}

/// An AND-Inverter graph: the tech-independent logic representation used by
/// the whole flow (ABC's internal representation, per paper §3.1.3).
///
/// Nodes are stored in topological order (AND fanins always precede the node)
/// and new ANDs are structurally hashed, so building `a & b` twice returns
/// the same literal:
///
/// ```
/// use xsfq_aig::Aig;
/// let mut aig = Aig::new("example");
/// let a = aig.input("a");
/// let b = aig.input("b");
/// let x = aig.and(a, b);
/// let y = aig.and(b, a);
/// assert_eq!(x, y);
/// assert_eq!(aig.num_ands(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Aig {
    name: String,
    nodes: Vec<NodeKind>,
    inputs: Vec<NodeId>,
    input_names: Vec<String>,
    latches: Vec<Latch>,
    outputs: Vec<Output>,
    strash: StrashTable,
    and_count: usize,
}

impl Aig {
    /// Create an empty AIG containing only the constant node.
    pub fn new(name: impl Into<String>) -> Self {
        Aig {
            name: name.into(),
            nodes: vec![NodeKind::Const0],
            inputs: Vec::new(),
            input_names: Vec::new(),
            latches: Vec::new(),
            outputs: Vec::new(),
            strash: StrashTable::default(),
            and_count: 0,
        }
    }

    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total number of nodes including the constant, inputs and latches.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of two-input AND nodes (O(1): a maintained counter, not a
    /// node-table scan).
    #[inline]
    pub fn num_ands(&self) -> usize {
        self.and_count
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of latches.
    pub fn num_latches(&self) -> usize {
        self.latches.len()
    }

    /// Kind of the given node.
    #[inline]
    pub fn node(&self, id: NodeId) -> NodeKind {
        self.nodes[id.index()]
    }

    /// All node kinds in topological (id) order.
    pub fn nodes(&self) -> &[NodeKind] {
        &self.nodes
    }

    /// Ids of the primary inputs, in declaration order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Name of primary input `index`.
    pub fn input_name(&self, index: usize) -> &str {
        &self.input_names[index]
    }

    /// Primary outputs in declaration order.
    pub fn outputs(&self) -> &[Output] {
        &self.outputs
    }

    /// Latches in declaration order.
    pub fn latches(&self) -> &[Latch] {
        &self.latches
    }

    /// Iterate over the ids of all AND nodes in topological order.
    pub fn and_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.is_and())
            .map(|(i, _)| NodeId::from_index(i))
    }

    /// Add a primary input and return its (positive) literal.
    pub fn input(&mut self, name: impl Into<String>) -> Lit {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(NodeKind::Input {
            index: self.inputs.len() as u32,
        });
        self.inputs.push(id);
        self.input_names.push(name.into());
        id.lit()
    }

    /// Add `count` inputs named `prefix[0..count]`, returning their literals.
    pub fn input_word(&mut self, prefix: &str, count: usize) -> Vec<Lit> {
        (0..count)
            .map(|i| self.input(format!("{prefix}[{i}]")))
            .collect()
    }

    /// Add a latch with the given power-on value; its next-state function
    /// must be set later with [`Aig::set_latch_next`]. Returns the literal of
    /// the latch's current-state output.
    pub fn latch(&mut self, name: impl Into<String>, init: bool) -> Lit {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(NodeKind::Latch {
            index: self.latches.len() as u32,
        });
        self.latches.push(Latch {
            output: id,
            next: Lit::FALSE,
            init,
            name: name.into(),
        });
        id.lit()
    }

    /// Set the next-state function of the latch whose output node is
    /// `latch_output`.
    ///
    /// # Panics
    ///
    /// Panics if `latch_output` is not a latch node.
    pub fn set_latch_next(&mut self, latch_output: Lit, next: Lit) {
        let id = latch_output.node();
        let NodeKind::Latch { index } = self.nodes[id.index()] else {
            panic!("{id:?} is not a latch output");
        };
        // A complemented latch reference means the complement of the state;
        // store the next function complemented instead so the latch output
        // stays positive.
        let next = next.complement_if(latch_output.is_complement());
        self.latches[index as usize].next = next;
    }

    /// Declare a named primary output.
    pub fn output(&mut self, name: impl Into<String>, lit: Lit) {
        self.outputs.push(Output {
            name: name.into(),
            lit,
        });
    }

    /// Declare outputs `prefix[i]` for each literal in `word`.
    pub fn output_word(&mut self, prefix: &str, word: &[Lit]) {
        for (i, &lit) in word.iter().enumerate() {
            self.output(format!("{prefix}[{i}]"), lit);
        }
    }

    /// The two fanin literals of an AND node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an AND node.
    #[inline]
    pub fn and_fanins(&self, id: NodeId) -> (Lit, Lit) {
        match self.nodes[id.index()] {
            NodeKind::And { a, b } => (a, b),
            other => panic!("{id:?} is not an AND node (kind {other:?})"),
        }
    }

    /// Create (or look up) the AND of two literals.
    ///
    /// Performs constant folding, unit/idempotence/complement simplification
    /// and structural hashing, so the graph never contains two identical AND
    /// nodes.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        let (a, b) = match fold_and(a, b) {
            Ok(lit) => return lit,
            Err(pair) => pair,
        };
        let vacant = match self.strash.find(a, b, &self.nodes) {
            Ok(idx) => return Lit(idx << 1),
            Err(vacant) => vacant,
        };
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(NodeKind::And { a, b });
        self.strash.insert(id.0, vacant, &self.nodes);
        self.and_count += 1;
        id.lit()
    }

    /// Make room for `ands` more AND nodes: the node table and the
    /// structural hash grow once now, so building that many new ANDs
    /// neither reallocates the one nor rehashes the other. A pass calls it
    /// when it knows the size of the graph it is about to build.
    pub(crate) fn reserve(&mut self, ands: usize) {
        self.nodes.reserve(ands);
        self.strash.reserve(ands, &self.nodes);
    }

    /// OR of two literals; see [`Build::or`].
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        Build::or(self, a, b)
    }

    /// NAND of two literals.
    pub fn nand(&mut self, a: Lit, b: Lit) -> Lit {
        !Build::and(self, a, b)
    }

    /// NOR of two literals.
    pub fn nor(&mut self, a: Lit, b: Lit) -> Lit {
        Build::and(self, !a, !b)
    }

    /// XOR of two literals; see [`Build::xor`].
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        Build::xor(self, a, b)
    }

    /// XNOR of two literals.
    pub fn xnor(&mut self, a: Lit, b: Lit) -> Lit {
        !Build::xor(self, a, b)
    }

    /// 2:1 multiplexer: `sel ? t : e`; see [`Build::mux`].
    pub fn mux(&mut self, sel: Lit, t: Lit, e: Lit) -> Lit {
        Build::mux(self, sel, t, e)
    }

    /// Conjunction of many literals, built as a balanced tree.
    pub fn and_many(&mut self, lits: &[Lit]) -> Lit {
        Build::and_many(self, lits)
    }

    /// Disjunction of many literals, built as a balanced tree.
    pub fn or_many(&mut self, lits: &[Lit]) -> Lit {
        Build::or_many(self, lits)
    }

    /// XOR of many literals, built as a balanced tree.
    pub fn xor_many(&mut self, lits: &[Lit]) -> Lit {
        Build::xor_many(self, lits)
    }

    /// Per-node logic level (`0` for constants/CIs, `1 + max(fanins)` for
    /// ANDs). Latch boundaries reset levels: next-state cones are measured
    /// from the combinational inputs.
    pub fn levels(&self) -> Vec<u32> {
        let mut level = vec![0u32; self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            if let NodeKind::And { a, b } = n {
                level[i] = 1 + level[a.node().index()].max(level[b.node().index()]);
            }
        }
        level
    }

    /// Maximum logic level over all outputs and latch next-state functions.
    pub fn depth(&self) -> usize {
        let levels = self.levels();
        self.combinational_roots()
            .map(|l| levels[l.node().index()] as usize)
            .max()
            .unwrap_or(0)
    }

    /// All combinational root literals: primary outputs plus latch
    /// next-state functions.
    pub fn combinational_roots(&self) -> impl Iterator<Item = Lit> + '_ {
        self.outputs
            .iter()
            .map(|o| o.lit)
            .chain(self.latches.iter().map(|l| l.next))
    }

    /// Number of fanout references per node (AND fanins plus, when
    /// `include_roots`, output and latch next references).
    pub fn fanout_counts(&self, include_roots: bool) -> Vec<u32> {
        let mut counts = vec![0u32; self.nodes.len()];
        for n in &self.nodes {
            if let NodeKind::And { a, b } = n {
                counts[a.node().index()] += 1;
                counts[b.node().index()] += 1;
            }
        }
        if include_roots {
            for root in self.combinational_roots() {
                counts[root.node().index()] += 1;
            }
        }
        counts
    }

    /// Summary statistics.
    pub fn stats(&self) -> AigStats {
        AigStats {
            inputs: self.num_inputs(),
            outputs: self.num_outputs(),
            latches: self.num_latches(),
            ands: self.num_ands(),
            depth: self.depth(),
        }
    }

    /// Audit every structural invariant the rest of the flow assumes and
    /// return the violations (empty = well-formed).
    ///
    /// Checked invariants:
    /// - node 0 is the unique `Const0`;
    /// - AND fanins reference strictly earlier nodes (topological order,
    ///   which also proves acyclicity) and are stored in canonical
    ///   `a.raw() < b.raw()` order with no constant or duplicated fanin
    ///   (the trivial cases [`Aig::and`] folds away);
    /// - the structural hash table holds exactly one entry per AND node
    ///   (no duplicate or orphaned strash entries): every AND re-looks-up
    ///   to itself, the table has exactly as many occupied slots as there
    ///   are AND nodes, every occupied slot names an AND node, and the
    ///   table is at most half full; the maintained [`Aig::num_ands`]
    ///   counter matches the node table;
    /// - `Input`/`Latch` nodes and the `inputs`/`latches`/`input_names`
    ///   side tables form a consistent bijection;
    /// - output and latch next-state literals point inside the node table
    ///   (no dangling literals).
    ///
    /// Level consistency is implied: [`Aig::levels`] derives levels from
    /// the fanin order validated here, so a graph that passes cannot carry
    /// a stale incremental level.
    pub fn validate(&self) -> Vec<AigDefect> {
        let mut out = Vec::new();
        let mut defect = |node: Option<usize>, detail: String| {
            out.push(AigDefect { node, detail });
        };
        if self.nodes.first() != Some(&NodeKind::Const0) {
            defect(Some(0), "node 0 is not Const0".into());
        }
        if self.input_names.len() != self.inputs.len() {
            defect(
                None,
                format!(
                    "{} input names for {} inputs",
                    self.input_names.len(),
                    self.inputs.len()
                ),
            );
        }
        // Audit the slots before probing: a probe reads the node each slot
        // it passes names, and a miss ends only at an empty slot.
        let slots = &self.strash.slots;
        let (mut occupied, mut probe_safe) = (0usize, true);
        for (pos, &slot) in slots.iter().enumerate().filter(|&(_, &s)| s != EMPTY) {
            occupied += 1;
            match self.nodes.get(slot as usize) {
                Some(n) if n.is_and() => {}
                n => {
                    probe_safe &= n.is_some();
                    defect(
                        None,
                        format!("strash slot {pos} names node {slot}, which is not an AND"),
                    );
                }
            }
        }
        if 2 * occupied > slots.len() {
            defect(
                None,
                format!("strash holds {occupied} entries in {} slots", slots.len()),
            );
            probe_safe &= occupied < slots.len();
        }
        let mut ands = 0usize;
        let mut latch_nodes = 0usize;
        for (i, n) in self.nodes.iter().enumerate() {
            match *n {
                NodeKind::Const0 => {
                    if i != 0 {
                        defect(Some(i), "stray Const0 past node 0".into());
                    }
                }
                NodeKind::Input { index } => {
                    let idx = index as usize;
                    if self.inputs.get(idx).map(|id| id.index()) != Some(i) {
                        defect(
                            Some(i),
                            format!("input table slot {idx} does not point back"),
                        );
                    }
                }
                NodeKind::Latch { index } => {
                    latch_nodes += 1;
                    let idx = index as usize;
                    if self.latches.get(idx).map(|l| l.output.index()) != Some(i) {
                        defect(
                            Some(i),
                            format!("latch table slot {idx} does not point back"),
                        );
                    }
                }
                NodeKind::And { a, b } => {
                    ands += 1;
                    if a.node().index() >= i || b.node().index() >= i {
                        defect(Some(i), "fanin references a node at or past itself".into());
                        continue;
                    }
                    if a.raw() >= b.raw() {
                        defect(Some(i), "fanins out of canonical order".into());
                    }
                    if a.is_const() || b.is_const() {
                        defect(Some(i), "unfolded constant fanin".into());
                    }
                    if probe_safe && self.strash.lookup(a, b, &self.nodes) != Some(i as u32) {
                        defect(Some(i), "strash re-lookup does not return this node".into());
                    }
                }
            }
        }
        if ands != self.and_count {
            defect(
                None,
                format!("and_count {} but {ands} AND nodes", self.and_count),
            );
        }
        if occupied != ands || self.strash.len != occupied {
            defect(
                None,
                format!(
                    "strash has {occupied} occupied slots (counted {}) for {ands} AND nodes",
                    self.strash.len
                ),
            );
        }
        if latch_nodes != self.latches.len() {
            defect(
                None,
                format!(
                    "{} latch entries but {latch_nodes} Latch nodes",
                    self.latches.len()
                ),
            );
        }
        for (i, o) in self.outputs.iter().enumerate() {
            if o.lit.node().index() >= self.nodes.len() {
                defect(None, format!("output {i} (`{}`) literal dangles", o.name));
            }
        }
        for (i, l) in self.latches.iter().enumerate() {
            if l.next.node().index() >= self.nodes.len() {
                defect(
                    None,
                    format!("latch {i} (`{}`) next-state literal dangles", l.name),
                );
            }
            if l.output.index() >= self.nodes.len() {
                defect(
                    None,
                    format!("latch {i} (`{}`) output node dangles", l.name),
                );
            } else if !self.nodes[l.output.index()].is_latch() {
                defect(
                    Some(l.output.index()),
                    format!("latch {i} (`{}`) output is not a Latch node", l.name),
                );
            }
        }
        out
    }

    /// Rebuild the graph keeping only nodes reachable from the outputs and
    /// latch next-state functions. The PI/PO/latch interface is preserved
    /// (all declared inputs and latches survive even if dangling).
    ///
    /// Returns the compacted graph; node ids are renumbered.
    pub fn compact(&self) -> Aig {
        let mut out = Aig::new(self.name.clone());
        let mut map: Vec<Option<Lit>> = vec![None; self.nodes.len()];
        map[0] = Some(Lit::FALSE);
        for (i, &id) in self.inputs.iter().enumerate() {
            let l = out.input(self.input_names[i].clone());
            map[id.index()] = Some(l);
        }
        for latch in &self.latches {
            let l = out.latch(latch.name.clone(), latch.init);
            map[latch.output.index()] = Some(l);
        }
        // Mark reachable AND nodes.
        let mut live = vec![false; self.nodes.len()];
        let mut live_ands = 0;
        let mut stack: Vec<NodeId> = self.combinational_roots().map(|l| l.node()).collect();
        while let Some(id) = stack.pop() {
            if live[id.index()] {
                continue;
            }
            live[id.index()] = true;
            if let NodeKind::And { a, b } = self.nodes[id.index()] {
                live_ands += 1;
                stack.push(a.node());
                stack.push(b.node());
            }
        }
        out.reserve(live_ands);
        // Rebuild live ANDs in topological (id) order.
        for (i, n) in self.nodes.iter().enumerate() {
            if let NodeKind::And { a, b } = n {
                if live[i] {
                    let fa = map[a.node().index()]
                        .expect("fanin built")
                        .complement_if(a.is_complement());
                    let fb = map[b.node().index()]
                        .expect("fanin built")
                        .complement_if(b.is_complement());
                    map[i] = Some(out.and(fa, fb));
                }
            }
        }
        let resolve = |map: &[Option<Lit>], l: Lit| -> Lit {
            map[l.node().index()]
                .expect("root points at live node")
                .complement_if(l.is_complement())
        };
        for o in &self.outputs {
            let lit = resolve(&map, o.lit);
            out.output(o.name.clone(), lit);
        }
        for (i, latch) in self.latches.iter().enumerate() {
            let next = resolve(&map, latch.next);
            let output = out.latches[i].output.lit();
            out.set_latch_next(output, next);
        }
        out
    }
}

impl fmt::Display for Aig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "aig '{}': {}", self.name, self.stats())
    }
}

impl Build for Aig {
    fn and(&mut self, a: Lit, b: Lit) -> Lit {
        Aig::and(self, a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_simplifications() {
        let mut g = Aig::new("t");
        let a = g.input("a");
        let b = g.input("b");
        assert_eq!(g.and(a, Lit::FALSE), Lit::FALSE);
        assert_eq!(g.and(Lit::TRUE, b), b);
        assert_eq!(g.and(a, a), a);
        assert_eq!(g.and(a, !a), Lit::FALSE);
        assert_eq!(g.num_ands(), 0);
    }

    #[test]
    fn strash_dedup() {
        let mut g = Aig::new("t");
        let a = g.input("a");
        let b = g.input("b");
        let x = g.and(a, b);
        assert_eq!(g.and(b, a), x);
        assert_eq!(g.or(!a, !b), !x); // !(a & b) shares the node
        assert_eq!(g.num_ands(), 1);
    }

    #[test]
    fn xor_uses_three_nodes() {
        let mut g = Aig::new("t");
        let a = g.input("a");
        let b = g.input("b");
        let _ = g.xor(a, b);
        assert_eq!(g.num_ands(), 3);
    }

    #[test]
    fn mux_constant_folds() {
        let mut g = Aig::new("t");
        let s = g.input("s");
        let t = g.input("t");
        let m = g.mux(s, t, Lit::FALSE);
        // sel ? t : 0 == sel & t
        assert_eq!(m, g.and(s, t));
    }

    #[test]
    fn depth_and_levels() {
        let mut g = Aig::new("t");
        let a = g.input("a");
        let b = g.input("b");
        let c = g.input("c");
        let ab = g.and(a, b);
        let abc = g.and(ab, c);
        g.output("o", abc);
        assert_eq!(g.depth(), 2);
        let lv = g.levels();
        assert_eq!(lv[ab.node().index()], 1);
        assert_eq!(lv[abc.node().index()], 2);
    }

    #[test]
    fn latch_roundtrip() {
        let mut g = Aig::new("t");
        let d = g.input("d");
        let q = g.latch("q", true);
        let nq = g.and(d, q);
        g.set_latch_next(q, nq);
        g.output("o", q);
        assert_eq!(g.num_latches(), 1);
        assert!(g.latches()[0].init);
        assert_eq!(g.latches()[0].next, nq);
    }

    #[test]
    fn compact_drops_dangling() {
        let mut g = Aig::new("t");
        let a = g.input("a");
        let b = g.input("b");
        let keep = g.and(a, b);
        let _dead = g.and(a, !b);
        g.output("o", !keep);
        let c = g.compact();
        assert_eq!(c.num_ands(), 1);
        assert_eq!(c.num_inputs(), 2);
        assert_eq!(c.outputs()[0].name, "o");
        assert!(c.outputs()[0].lit.is_complement());
    }

    #[test]
    fn compact_preserves_latch_interface() {
        let mut g = Aig::new("t");
        let d = g.input("d");
        let q = g.latch("q", false);
        let n = g.xor(d, q);
        g.set_latch_next(q, n);
        g.output("o", q);
        let c = g.compact();
        assert_eq!(c.num_latches(), 1);
        assert_eq!(c.num_ands(), 3);
    }

    fn small_graph() -> Aig {
        let mut g = Aig::new("v");
        let a = g.input("a");
        let b = g.input("b");
        let c = g.input("c");
        let x = g.and(a, b);
        let y = g.and(x, c);
        g.output("o", y);
        g
    }

    #[test]
    fn validate_passes_well_formed_graphs() {
        assert!(small_graph().validate().is_empty());
        let mut g = Aig::new("seq");
        let d = g.input("d");
        let q = g.latch("q", true);
        let n = g.xor(d, q);
        g.set_latch_next(q, n);
        g.output("o", q);
        assert!(g.validate().is_empty());
    }

    #[test]
    fn validate_catches_fanin_disorder() {
        let mut g = small_graph();
        // Corrupt the last AND: swap its fanins out of canonical order.
        let idx = g.nodes.len() - 1;
        let NodeKind::And { a, b } = g.nodes[idx] else {
            panic!("expected an AND");
        };
        g.nodes[idx] = NodeKind::And { a: b, b: a };
        let defects = g.validate();
        assert!(
            defects
                .iter()
                .any(|d| d.node == Some(idx) && d.detail.contains("canonical order")),
            "{defects:?}"
        );
    }

    #[test]
    fn validate_catches_strash_divergence() {
        let mut g = small_graph();
        // Rewire an AND fanin behind the strash table's back: the
        // re-lookup check must notice the table no longer agrees.
        let idx = g.nodes.len() - 1;
        let NodeKind::And { a, .. } = g.nodes[idx] else {
            panic!("expected an AND");
        };
        g.nodes[idx] = NodeKind::And { a: !a, b: a };
        let defects = g.validate();
        assert!(
            defects.iter().any(|d| d.detail.contains("strash")),
            "{defects:?}"
        );
    }

    #[test]
    fn validate_catches_a_corrupt_strash_slot() {
        // Write one empty slot behind the table's back, once doubling an
        // AND's entry and once naming an input. Every AND still re-looks-up
        // to itself, so only the slot audit can see either.
        let g = small_graph();
        let empty = g.strash.slots.iter().position(|&s| s == EMPTY).unwrap();
        let last = (g.nodes.len() - 1) as u32;
        for (stale, detail) in [(last, "3 occupied slots"), (1, "not an AND")] {
            let mut bad = g.clone();
            bad.strash.slots[empty] = stale;
            let defects = bad.validate();
            assert!(
                defects.iter().any(|d| d.detail.contains(detail)),
                "{defects:?}"
            );
            assert!(
                !defects.iter().any(|d| d.detail.contains("re-lookup")),
                "{defects:?}"
            );
        }
    }

    #[test]
    fn validate_catches_dangling_output_and_bad_count() {
        let mut g = small_graph();
        g.outputs[0].lit = Lit::new(NodeId(999), false);
        g.and_count = 7;
        let defects = g.validate();
        assert!(
            defects.iter().any(|d| d.detail.contains("dangles")),
            "{defects:?}"
        );
        assert!(
            defects.iter().any(|d| d.detail.contains("and_count")),
            "{defects:?}"
        );
    }

    /// Every pair of two distinct `inputs`, each a fresh AND.
    fn fresh_pairs(inputs: &[Lit]) -> impl Iterator<Item = (Lit, Lit)> + '_ {
        (0..inputs.len())
            .flat_map(move |i| (i + 1..inputs.len()).map(move |j| (inputs[i], inputs[j])))
    }

    #[test]
    fn strash_reserve_holds_its_inserts_and_load_stays_at_most_half() {
        // After `reserve(n)`, `n` fresh ANDs go into the same slot buffer,
        // from an empty or a part-full table, at and around powers of two.
        let mut g = Aig::new("reserve");
        let xs: Vec<Lit> = (0..64).map(|i| g.input(format!("x{i}"))).collect();
        let mut pairs = fresh_pairs(&xs);
        for n in [0, 1, 7, 8, 9, 100, 255, 256, 257, 600] {
            g.reserve(n);
            let buffer = (g.strash.slots.as_ptr(), g.strash.slots.len());
            for _ in 0..n {
                let (a, b) = pairs.next().unwrap();
                g.and(a, b);
            }
            let after = (g.strash.slots.as_ptr(), g.strash.slots.len());
            assert_eq!(after, buffer, "reserve({n}), then {n} inserts rehashed");
        }
        assert!(g.validate().is_empty());

        // Inserts grow the table on their own, and a reserve past its free
        // room rehashes it; after each insert the load is at most ½, the
        // capacity a power of two of at least 16, and `shift` 64 minus the
        // capacity's log2.
        let mut g = Aig::new("grow");
        let xs: Vec<Lit> = (0..64).map(|i| g.input(format!("x{i}"))).collect();
        let mut capacities = Vec::new();
        for (k, (a, b)) in fresh_pairs(&xs).enumerate() {
            if k % 500 == 499 {
                g.reserve(k / 3);
            }
            g.and(a, b);
            let t = &g.strash;
            assert!(
                2 * t.len <= t.slots.len(),
                "{} entries in {}",
                t.len,
                t.slots.len()
            );
            assert!(t.slots.len().is_power_of_two() && t.slots.len() >= 16);
            assert_eq!(t.shift, 64 - t.slots.len().trailing_zeros());
            if capacities.last() != Some(&t.slots.len()) {
                capacities.push(t.slots.len());
            }
        }
        assert!(capacities.len() >= 8, "{capacities:?}");
        assert!(g.validate().is_empty());
    }

    mod layout {
        use super::*;
        use crate::synth::Synthesizer;
        use crate::tt::TruthTable;
        use proptest::prelude::*;

        /// The DAG of `recipe` (op, operand, operand) over `inputs` inputs.
        /// `reserve` is reserved before the first AND; after each recipe
        /// step named in `rehash_at`, a reserve of more than the table's
        /// free room forces a rehash there.
        fn build(
            recipe: &[(u8, usize, usize)],
            inputs: usize,
            reserve: Option<usize>,
            rehash_at: &[usize],
        ) -> Aig {
            let mut g = Aig::new("layout");
            let mut pool: Vec<Lit> = (0..inputs).map(|i| g.input(format!("x{i}"))).collect();
            if let Some(n) = reserve {
                g.reserve(n);
            }
            for (step, &(op, i, j)) in recipe.iter().enumerate() {
                let (a, b) = (pool[i % pool.len()], pool[j % pool.len()]);
                pool.push(match op % 5 {
                    0 => g.and(a, b),
                    1 => g.or(a, b),
                    2 => g.xor(a, b),
                    3 => g.mux(a, b, !a),
                    _ => g.and(!a, b),
                });
                if rehash_at.contains(&step) {
                    g.reserve(g.strash.slots.len() / 2 + 1);
                }
            }
            g.output("o", *pool.last().unwrap());
            g
        }

        /// Each table's recorded build over leaves drawn from `g`, costed
        /// on a dry run: the literal it returns and the ANDs it would add.
        fn dry_costs(
            g: &Aig,
            synth: &mut Synthesizer,
            tables: &[TruthTable],
            draws: &[(u16, bool)],
        ) -> Vec<(Lit, usize)> {
            let mut buffer = Vec::new();
            tables
                .iter()
                .map(|t| {
                    let leaves: Vec<Lit> = draws[..t.num_vars()]
                        .iter()
                        .map(|&(pick, c)| {
                            NodeId::from_index(pick as usize % g.num_nodes())
                                .lit()
                                .complement_if(c)
                        })
                        .collect();
                    let mut dry = DryRun::new(g, &mut buffer);
                    let lit = synth.build(&mut dry, t, &leaves);
                    (lit, dry.added())
                })
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The structural hash's layout is invisible: the same DAG built
            /// into a fresh graph (which grows as it fills), into graphs
            /// reserved at 0, n/4 and 16n ANDs, and with rehashes forced at
            /// arbitrary steps gives the same nodes and outputs, validates
            /// clean, and dry-runs every recorded build to the same literal
            /// and AND count.
            #[test]
            fn strash_layout_is_invisible(
                recipe in prop::collection::vec((any::<u8>(), 0usize..512, 0usize..512), 20..150),
                inputs in 2usize..12,
                rehash_at in prop::collection::vec(0usize..150, 1..5),
                words in prop::collection::vec((2usize..=8, any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 1..6),
                draws in prop::collection::vec((any::<u16>(), any::<bool>()), 8),
            ) {
                let fresh = build(&recipe, inputs, None, &[]);
                let n = fresh.num_ands();
                let tables: Vec<TruthTable> = words
                    .iter()
                    .map(|&(vars, w0, w1, w2, w3)| {
                        TruthTable::from_words(vars, &[w0, w1, w2, w3][..1 << vars.saturating_sub(6)])
                    })
                    .collect();
                let mut synth = Synthesizer::new();
                let want = dry_costs(&fresh, &mut synth, &tables, &draws);
                prop_assert!(fresh.validate().is_empty(), "{:?}", fresh.validate());
                for g in [
                    build(&recipe, inputs, Some(0), &[]),
                    build(&recipe, inputs, Some(n / 4), &[]),
                    build(&recipe, inputs, Some(16 * n), &[]),
                    build(&recipe, inputs, None, &rehash_at),
                ] {
                    prop_assert_eq!(g.nodes(), fresh.nodes());
                    prop_assert_eq!(g.outputs(), fresh.outputs());
                    prop_assert!(g.validate().is_empty(), "{:?}", g.validate());
                    prop_assert_eq!(dry_costs(&g, &mut synth, &tables, &draws), want.clone());
                }
            }
        }
    }
}
