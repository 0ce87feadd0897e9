//! Cut computation: k-feasible cut enumeration, reconvergence-driven cuts,
//! cone extraction and cut-function evaluation.
//!
//! Cuts are the windows through which the rewriting passes look at the
//! graph; the paper's point (§3.1.3) is that xSFQ needs exactly this stock
//! machinery and nothing more.
//!
//! # Data-structure invariants
//!
//! [`Cut`] stores its leaves **inline** as a `[NodeId; MAX_CUT_SIZE]` plus a
//! length — merging and dominance filtering never touch the heap. Each cut
//! also carries a 64-bit **leaf signature**: bit `id % 64` is set for every
//! leaf `id`. The signature is a Bloom-style summary with the subset
//! property `A ⊆ B ⇒ sig(A) & !sig(B) == 0`, so [`Cut::dominates`] and
//! [`Cut::merge`] reject most non-subset / oversize pairs with a single AND
//! (resp. popcount) before looking at any leaf. Leaves are kept sorted by
//! id, making the exact subset/merge scans linear.
//!
//! [`CutScratch`] holds the per-cone working state (generation-stamped node
//! slots, one flat buffer of truth-table words, DFS stacks) so the
//! resynthesis loops reuse it instead of building a
//! `HashMap<NodeId, TruthTable>` per cone; the cone walk allocates only the
//! table it returns, and that only over more than 6 leaves.
//!
//! # Cut functions
//!
//! Every enumerated cut carries its root's function over its leaves as one
//! `u64` word (so enumeration takes k ≤ 6), and the rewrite passes read the
//! word instead of walking the cone. Once the antichain accepts a merged
//! cut, its word is built from its two fanin cuts' words: each is stretched
//! to the merged leaves by variable swaps (at most one per leaf),
//! complemented per edge, and the two are ANDed.
//!
//! The words are exactly what [`cut_function`], the cone walk, returns.
//! Composition can only differ when a leaf of the merged cut lies inside a
//! fanin cut's cone: the walk stops at that leaf, while the fanin's word
//! looks through it to the leaves below. So each cut also carries a
//! signature of its cone. A cut whose signatures cannot rule this out gets
//! no composed word; if it survives the `max_cuts` truncation, its function
//! comes from the cone walk. On the benchmark suite that is about 1% of the
//! kept cuts. Cuts no enumeration produced (refactor's reconvergence cuts)
//! use the cone walk directly.
//!
//! # CSR cut arena
//!
//! [`enumerate_cuts`] returns a [`CutArena`]: **one** flat `Vec<Cut>` plus a
//! per-node `(start, end)` offset range — the compressed-sparse-row layout —
//! instead of a `Vec<Vec<Cut>>` (one heap list per node). Enumeration is
//! one sweep in node-id order: fanins have smaller ids than the nodes they
//! feed, so each node's list is built from finished fanin lists and
//! appended straight to the flat buffer. The arena, its ranges and its
//! antichain scratch are all recycled across enumerations via
//! [`enumerate_cuts_into`], which is how a whole pass script (and each of
//! `run_many`'s workers, across its designs) gets away with a handful of
//! allocations for all its cut storage.
//!
//! # Reuse across enumerations
//!
//! Between two rewrite passes most cones are unchanged up to renumbering,
//! so [`enumerate_cuts_into`] takes a node's list from the arena's previous
//! enumeration whenever it can prove that list is the one a fresh
//! enumeration would produce, and enumerates the node afresh otherwise.
//! The rule:
//!
//! * **Which nodes match.** The previous enumeration must have used the
//!   same `k` and `max_cuts`. A node is *reused* when each fanin is reused
//!   or is a combinational input (CIs match the previous graph's CIs of the
//!   same kind by ordinal; the constant matches the constant), and the
//!   previous graph holds an AND whose fanins are exactly the fanins'
//!   counterparts, with the same complement bits, in the same stored order.
//!   Order matters because merge order decides antichain order and
//!   truncation, so a match whose fanin order flipped is not reused.
//! * **The leaf check.** Each cut of the matched list has its leaves mapped
//!   to new ids. If any mapped cut is not strictly increasing, the node is
//!   not reused. Otherwise each function word keeps its variable order.
//! * **Derived fields.** The leaf signature is recomputed from the new ids.
//!   The cone signature is set to all ones, which is conservative: `may_hide`
//!   then only sends more fresh parents to the exact cone walk. The trivial
//!   cut is the new root's.
//!
//! Why this is exact, by induction over node ids: a reused node's fanin
//! lists are the mapped previous lists, in the same order. Merging,
//! dominance and the signature prefilters depend only on which leaves two
//! cuts share, so the fresh antichain holds the mapped cuts as sets, in the
//! previous order, and the stable length sort and truncation keep the same
//! ones. Every word is the cone walk's table of its leaves in ascending
//! order, the matched cone has the same structure, and the leaf check
//! leaves that order unchanged, so the words agree too. Results therefore
//! never depend on which design or pass filled the arena: `run_many` and
//! the daemon's shards stay bit-identical to solo runs.
//!
//! The previous lists are carried compactly (flat leaves, lengths and
//! words, not a second `Vec<Cut>`), with a copy of the previous graph's
//! node table and structural hash to find matches.
//! [`CutArena::reused_nodes`] counts the nodes the last enumeration took.

use crate::aig::Structure;
use crate::tt::{TruthTable, VAR_MASKS};
use crate::{Aig, Lit, NodeId, NodeKind};

/// Maximum number of leaves a [`Cut`] can hold inline. Covers every user in
/// the workspace (`rewrite` enumerates with k = 4, `refactor`'s
/// reconvergence cuts clamp to k ≤ 12).
pub const MAX_CUT_SIZE: usize = 12;

/// A cut: a set of leaf nodes (sorted by id) that together cover every path
/// from the combinational inputs to the cut's root.
///
/// Stored inline (no heap allocation); see the module docs for the
/// signature scheme and for the root's function, which enumerated cuts
/// carry ([`Cut::function`]).
#[derive(Copy, Clone, Debug)]
pub struct Cut {
    leaves: [NodeId; MAX_CUT_SIZE],
    len: u8,
    sig: u64,
    /// Whether `func` holds the root's function (see [`Cut::function`]).
    has_func: bool,
    /// The root's function over the leaves, variable `i` = leaf `i`, as a
    /// 6-variable table that does not depend on variables `len..6`.
    func: u64,
    /// Enumeration's signature of the root's cone above the leaves (bit
    /// `id % 32` per node, root included): a superset summary, like `sig`,
    /// kept to 32 bits so that the cut stays 72 bytes.
    cone: u32,
}

#[inline]
fn leaf_sig(node: NodeId) -> u64 {
    1u64 << (node.index() % 64)
}

#[inline]
fn cone_sig(node: NodeId) -> u32 {
    1u32 << (node.index() % 32)
}

impl Cut {
    /// The trivial cut `{node}`; its function is the leaf itself.
    fn trivial(node: NodeId) -> Self {
        let mut leaves = [NodeId::CONST0; MAX_CUT_SIZE];
        leaves[0] = node;
        Cut {
            leaves,
            len: 1,
            sig: leaf_sig(node),
            has_func: true,
            func: VAR_MASKS[0],
            cone: 0,
        }
    }

    /// Build a cut from sorted, deduplicated leaves.
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is unsorted, has duplicates, or exceeds
    /// [`MAX_CUT_SIZE`].
    pub fn from_leaves(leaves: &[NodeId]) -> Self {
        assert!(leaves.len() <= MAX_CUT_SIZE, "cut exceeds MAX_CUT_SIZE");
        assert!(
            leaves.windows(2).all(|w| w[0] < w[1]),
            "cut leaves must be sorted and unique"
        );
        let mut array = [NodeId::CONST0; MAX_CUT_SIZE];
        let mut sig = 0u64;
        for (slot, &leaf) in array.iter_mut().zip(leaves) {
            *slot = leaf;
            sig |= leaf_sig(leaf);
        }
        Cut {
            leaves: array,
            len: leaves.len() as u8,
            sig,
            has_func: false,
            func: 0,
            cone: 0,
        }
    }

    /// Leaf nodes, sorted by id.
    #[inline]
    pub fn leaves(&self) -> &[NodeId] {
        &self.leaves[..self.len as usize]
    }

    /// Number of leaves.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if the cut has no leaves (never produced by enumeration).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The 64-bit leaf signature (bit `id % 64` set per leaf).
    #[inline]
    fn signature(&self) -> u64 {
        self.sig
    }

    /// The root's function over the leaves (variable `i` is leaf `i`), for
    /// the cuts enumeration returns and trivial cuts. `None` for a cut built
    /// by [`Cut::from_leaves`] or [`Cut::merge`], which know no root.
    #[inline]
    pub fn function(&self) -> Option<TruthTable> {
        self.has_func
            .then(|| TruthTable::from_word(self.len(), self.func))
    }

    /// Merge two cuts; `None` if the union exceeds `k` leaves. The union
    /// carries no function.
    ///
    /// Allocation-free: the union is built inline. The signature popcount
    /// prunes oversize unions before any leaf comparison (the signature
    /// undercounts, so the check never rejects a feasible merge).
    pub fn merge(&self, other: &Cut, k: usize) -> Option<Cut> {
        self.merge_placed(other, k).map(|(cut, _, _)| cut)
    }

    /// [`Cut::merge`], also saying where the leaves landed: bit `p` of the
    /// first (second) mask is set when leaf `p` of the union is a leaf of
    /// `self` (`other`).
    fn merge_placed(&self, other: &Cut, k: usize) -> Option<(Cut, u16, u16)> {
        debug_assert!(k <= MAX_CUT_SIZE, "k exceeds MAX_CUT_SIZE");
        let sig = self.sig | other.sig;
        if sig.count_ones() as usize > k {
            return None;
        }
        let mut leaves = [NodeId::CONST0; MAX_CUT_SIZE];
        let (mut in_a, mut in_b) = (0u16, 0u16);
        let mut len = 0usize;
        let (a, b) = (self.leaves(), other.leaves());
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            let bit = 1u16 << len;
            let next = if j == b.len() || (i < a.len() && a[i] < b[j]) {
                i += 1;
                in_a |= bit;
                a[i - 1]
            } else if i < a.len() && a[i] == b[j] {
                i += 1;
                j += 1;
                in_a |= bit;
                in_b |= bit;
                a[i - 1]
            } else {
                j += 1;
                in_b |= bit;
                b[j - 1]
            };
            if len == k {
                return None;
            }
            leaves[len] = next;
            len += 1;
        }
        let cut = Cut {
            leaves,
            len: len as u8,
            sig,
            has_func: false,
            func: 0,
            cone: 0,
        };
        Some((cut, in_a, in_b))
    }

    /// True if `self`'s leaves are a subset of `other`'s (i.e. `self`
    /// dominates `other`). One AND over the signatures rejects most
    /// non-subsets before the leaf scan.
    pub fn dominates(&self, other: &Cut) -> bool {
        if self.len > other.len || self.sig & !other.sig != 0 {
            return false;
        }
        let (a, b) = (self.leaves(), other.leaves());
        let mut j = 0;
        for &l in a {
            while j < b.len() && b[j] < l {
                j += 1;
            }
            if j == b.len() || b[j] != l {
                return false;
            }
        }
        true
    }

    /// Set the function of `self`, a cut of AND node `root = a & b` merged
    /// from fanin cuts `cut_a` and `cut_b` (placed as
    /// [`Cut::merge_placed`] reports): `(fa ^ ca) & (fb ^ cb)`, each fanin
    /// word stretched to the union. That composition is the cone walk's
    /// answer unless a leaf of the union lies inside a fanin cut's cone,
    /// where the walk stops and the fanin word looks through it. The cone
    /// signatures rule this out for almost every cut; a cut they cannot
    /// clear is left without a function, for the caller to walk.
    fn compose(&mut self, root: NodeId, (a, cut_a, in_a): Fanin, (b, cut_b, in_b): Fanin) {
        debug_assert!(
            cut_a.has_func && cut_b.has_func,
            "fanin cuts carry functions"
        );
        self.cone = cone_sig(root) | cut_a.cone | cut_b.cone;
        if cut_a.may_hide(a.node(), self, in_a) || cut_b.may_hide(b.node(), self, in_b) {
            return;
        }
        let flip = |c: bool| if c { !0 } else { 0 };
        let fa = stretch(cut_a.func, in_a) ^ flip(a.is_complement());
        let fb = stretch(cut_b.func, in_b) ^ flip(b.is_complement());
        self.has_func = true;
        self.func = fa & fb;
    }

    /// Whether a leaf of `union` outside `self` (a position not in
    /// `placed`) may lie inside the cone of `self` as a cut of `fanin`.
    /// Such a leaf is an AND node above `self`'s lowest leaf, at most
    /// `fanin`, whose bit is in the cone signature, so this errs only
    /// towards `true`.
    fn may_hide(&self, fanin: NodeId, union: &Cut, placed: u16) -> bool {
        let mut others = !placed & ((1u16 << union.len) - 1);
        while others != 0 && self.cone != 0 {
            let x = union.leaves[others.trailing_zeros() as usize];
            if self.cone & cone_sig(x) != 0 && x > self.leaves[0] && x <= fanin {
                return true;
            }
            others &= others - 1;
        }
        false
    }
}

/// A fanin edge of an AND node, one of its cuts, and where that cut's
/// leaves sit in a merged cut.
type Fanin<'c> = (Lit, &'c Cut, u16);

/// `word`, a function of as many variables as `placed` has bits,
/// re-expressed over a superset whose positions `placed` hold them in
/// order. Each variable, highest first, trades places with the variable at
/// its target position, which `word` does not depend on: past the old
/// variables, or vacated by a higher one.
#[inline]
fn stretch(mut word: u64, mut placed: u16) -> u64 {
    let mut var = placed.count_ones() as usize;
    while placed != 0 {
        let pos = 15 - placed.leading_zeros() as usize;
        placed &= !(1u16 << pos);
        var -= 1;
        if pos != var {
            word = swap_vars(word, var, pos);
        }
    }
    word
}

/// Swap variables `i < j` of a 6-variable table word.
#[inline]
fn swap_vars(word: u64, i: usize, j: usize) -> u64 {
    let (lo, hi) = (VAR_MASKS[i], VAR_MASKS[j]);
    let shift = (1u32 << j) - (1u32 << i);
    word & !(lo ^ hi) | (word & lo & !hi) << shift | (word & hi & !lo) >> shift
}

impl PartialEq for Cut {
    fn eq(&self, other: &Self) -> bool {
        self.leaves() == other.leaves()
    }
}

impl Eq for Cut {}

impl std::hash::Hash for Cut {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.leaves().hash(state);
    }
}

/// Insert `merged` into the antichain `list` (at the end) unless an
/// existing cut dominates it; drops existing cuts it dominates. Returns
/// whether it was inserted. Single pass — the antichain invariant
/// guarantees the two cases cannot both occur.
fn antichain_insert(list: &mut Vec<Cut>, merged: Cut) -> bool {
    let mut keep = 0;
    let mut read = 0;
    while read < list.len() {
        let c = list[read];
        if c.dominates(&merged) {
            // Nothing can have been dropped before this point: a cut
            // strictly dominated by `merged` would also be strictly
            // dominated by `c`, violating the antichain invariant.
            debug_assert_eq!(keep, read);
            return false;
        }
        if !merged.dominates(&c) {
            list[keep] = c;
            keep += 1;
        }
        read += 1;
    }
    list.truncate(keep);
    list.push(merged);
    true
}

/// CSR cut storage: every node's cut list is a contiguous slice of one flat
/// `Vec<Cut>`, addressed through a per-node offset range (see the module
/// docs). Produced by [`enumerate_cuts`]; recycle it across enumerations
/// with [`enumerate_cuts_into`], which also carries lists over from one
/// enumeration to the next.
#[derive(Default, Debug)]
pub struct CutArena {
    /// All cut lists back to back, in node-id order.
    cuts: Vec<Cut>,
    /// `ranges[node] = (start, end)` into `cuts`.
    ranges: Vec<(u32, u32)>,
    /// The antichain a node's list is built in before it is appended.
    list: Vec<Cut>,
    /// Cone-walk scratch for the rare cut whose function the merge cannot
    /// compose.
    scratch: CutScratch,
    /// The previous enumeration's lists and graph.
    carried: Carried,
    /// AND nodes whose list the last enumeration took from `carried`.
    reused: usize,
}

/// Marks a node with no counterpart in the other graph.
const UNMATCHED: u32 = u32::MAX;

/// The previous enumeration, kept compact for the next one to take lists
/// from (see the module docs): each AND node's non-trivial cuts as flat
/// leaves, lengths and function words, and the graph they were enumerated
/// on.
#[derive(Default, Debug)]
struct Carried {
    /// `(k, max_cuts)` of the enumeration the arena's lists come from;
    /// `None` before the first.
    params: Option<(usize, usize)>,
    /// The graph the arena's lists were enumerated on.
    graph: Structure,
    /// Per node of `graph`, its first cut and first leaf; one entry more
    /// closes the last node.
    starts: Vec<(u32, u32)>,
    lens: Vec<u8>,
    funcs: Vec<u64>,
    leaves: Vec<NodeId>,
    /// Per node of `graph`: the node of the graph being enumerated that
    /// matched it, or [`UNMATCHED`].
    to_new: Vec<u32>,
    /// Per node of the graph being enumerated: the node of `graph` whose
    /// list it took (a CI: the CI it matched), or [`UNMATCHED`].
    to_old: Vec<u32>,
}

impl CutArena {
    /// Empty arena (buffers grow on first enumeration).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes the arena holds lists for.
    pub fn num_nodes(&self) -> usize {
        self.ranges.len()
    }

    /// The cut list of a node.
    #[inline]
    pub fn node(&self, i: usize) -> &[Cut] {
        let (start, end) = self.ranges[i];
        &self.cuts[start as usize..end as usize]
    }

    /// Total cuts stored across all nodes.
    pub fn total_cuts(&self) -> usize {
        self.cuts.len()
    }

    /// AND nodes whose cut list the last enumeration took from the one
    /// before it instead of merging fanin lists (see the module docs).
    pub fn reused_nodes(&self) -> usize {
        self.reused
    }

    /// Per-node cut lists, in node-id order.
    pub fn iter(&self) -> impl Iterator<Item = &[Cut]> + '_ {
        (0..self.ranges.len()).map(move |i| self.node(i))
    }

    /// Audit the CSR storage invariants: every node range lies inside the
    /// flat cut buffer, cut sizes respect [`MAX_CUT_SIZE`], leaves are
    /// strictly sorted and point at nodes the arena knows about, and each
    /// stored signature matches the one recomputed from its leaves.
    ///
    /// Returns the first violation as a description, `Ok(())` on a clean
    /// arena (including the empty one).
    pub fn check_integrity(&self) -> Result<(), String> {
        for (i, &(start, end)) in self.ranges.iter().enumerate() {
            if start > end || end as usize > self.cuts.len() {
                return Err(format!(
                    "node {i}: range {start}..{end} escapes the cut buffer (len {})",
                    self.cuts.len()
                ));
            }
            for (ci, cut) in self.cuts[start as usize..end as usize].iter().enumerate() {
                if cut.len() > MAX_CUT_SIZE {
                    return Err(format!("node {i} cut {ci}: {} leaves", cut.len()));
                }
                let leaves = cut.leaves();
                let mut sig = 0u64;
                for (li, &leaf) in leaves.iter().enumerate() {
                    if leaf.index() >= self.ranges.len() {
                        return Err(format!(
                            "node {i} cut {ci}: leaf {} out of bounds",
                            leaf.index()
                        ));
                    }
                    if li > 0 && leaves[li - 1] >= leaf {
                        return Err(format!("node {i} cut {ci}: leaves not strictly sorted"));
                    }
                    sig |= leaf_sig(leaf);
                }
                if cut.signature() != sig {
                    return Err(format!(
                        "node {i} cut {ci}: stored signature {:#x} != recomputed {sig:#x}",
                        cut.signature()
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Enumerate up to `max_cuts` k-feasible cuts per node (the trivial cut is
/// always included and not counted against the budget). Every cut carries
/// its root's function ([`Cut::function`]).
///
/// Returns a [`CutArena`] with one cut list per node id.
///
/// # Panics
///
/// Panics if `k` exceeds 6: a cut's function must fit one word.
pub fn enumerate_cuts(aig: &Aig, k: usize, max_cuts: usize) -> CutArena {
    let mut arena = CutArena::new();
    enumerate_cuts_into(aig, k, max_cuts, &mut arena);
    arena
}

/// [`enumerate_cuts`] into a caller-owned (reusable) [`CutArena`].
///
/// One sweep in node-id order: constants and combinational inputs get
/// their trivial cut, and each AND node takes its list from the arena's
/// previous enumeration when it provably equals the fresh one (see the
/// module docs), or else merges it from its fanins' finished lists; either
/// way the list is appended to the flat buffer (the
/// `cut_enumeration_matches_reference` proptest pins the lists, and
/// `carried_cut_lists_equal_fresh_ones` the carried ones).
pub fn enumerate_cuts_into(aig: &Aig, k: usize, max_cuts: usize, arena: &mut CutArena) {
    assert!(k <= 6, "cut functions fit one word: k must be at most 6");
    let carry = arena.carry((k, max_cuts));
    arena.cuts.clear();
    arena.ranges.clear();
    arena.reused = 0;
    for (i, &kind) in aig.nodes().iter().enumerate() {
        let start = arena.cuts.len() as u32;
        let old = match kind {
            NodeKind::And { a, b } => {
                let old = carry.then(|| arena.push_carried(i, a, b)).flatten();
                if old.is_none() {
                    arena.push_and_cuts(aig, i, k, max_cuts);
                }
                old
            }
            NodeKind::Const0 => {
                arena.cuts.push(Cut::trivial(NodeId::CONST0));
                Some(NodeId::CONST0)
            }
            NodeKind::Input { .. } | NodeKind::Latch { .. } => {
                arena.cuts.push(Cut::trivial(NodeId::from_index(i)));
                arena.carried.graph.ci_like(kind)
            }
        };
        let carried = &mut arena.carried;
        match old {
            Some(old) if carry && carried.to_new[old.index()] == UNMATCHED => {
                carried.to_new[old.index()] = i as u32;
                carried.to_old.push(old.0);
            }
            _ => carried.to_old.push(UNMATCHED),
        }
        arena.ranges.push((start, arena.cuts.len() as u32));
    }
    arena.carried.graph.copy_from(aig);
    arena.carried.params = Some((k, max_cuts));
}

impl CutArena {
    /// Move the lists of the last enumeration into the compact carried
    /// form and reset the node matching. Returns whether the enumeration
    /// about to run with `params` may take lists from them: only one with
    /// the same `k` and `max_cuts`.
    fn carry(&mut self, params: (usize, usize)) -> bool {
        let Carried {
            params: last,
            graph,
            starts,
            lens,
            funcs,
            leaves,
            to_new,
            to_old,
        } = &mut self.carried;
        starts.clear();
        lens.clear();
        funcs.clear();
        leaves.clear();
        to_new.clear();
        to_old.clear();
        // Taken, so an enumeration that unwinds half-way carries nothing.
        if last.take() != Some(params) {
            return false;
        }
        debug_assert_eq!(self.ranges.len(), graph.num_nodes());
        // Every list ends with its trivial cut, which is not carried.
        for &(start, end) in &self.ranges {
            starts.push((lens.len() as u32, leaves.len() as u32));
            for cut in &self.cuts[start as usize..end as usize - 1] {
                lens.push(cut.len);
                funcs.push(cut.func);
                leaves.extend_from_slice(cut.leaves());
            }
        }
        starts.push((lens.len() as u32, leaves.len() as u32));
        to_new.resize(graph.num_nodes(), UNMATCHED);
        true
    }

    /// Append the list of AND node `i = a & b` taken from the carried
    /// enumeration, if the module docs' matching rule allows it, and
    /// return the node it was taken from; `None` (and nothing appended)
    /// otherwise.
    fn push_carried(&mut self, i: usize, a: Lit, b: Lit) -> Option<NodeId> {
        let carried = &self.carried;
        let counterpart = |f: Lit| {
            let old = carried.to_old[f.node().index()];
            (old != UNMATCHED).then(|| Lit::new(NodeId(old), f.is_complement()))
        };
        let old = carried.graph.and_of(counterpart(a)?, counterpart(b)?)?;
        if carried.to_new[old.index()] != UNMATCHED {
            return None;
        }
        let start = self.cuts.len();
        let (first_cut, first_leaf) = carried.starts[old.index()];
        let end_cut = carried.starts[old.index() + 1].0 as usize;
        let mut leaf_at = first_leaf as usize;
        for c in first_cut as usize..end_cut {
            let len = carried.lens[c] as usize;
            let mut cut = Cut {
                leaves: [NodeId::CONST0; MAX_CUT_SIZE],
                len: len as u8,
                sig: 0,
                has_func: true,
                func: carried.funcs[c],
                cone: !0,
            };
            for (slot, &leaf) in carried.leaves[leaf_at..leaf_at + len].iter().enumerate() {
                let new = carried.to_new[leaf.index()];
                if new == UNMATCHED || (slot > 0 && new <= cut.leaves[slot - 1].0) {
                    self.cuts.truncate(start);
                    return None;
                }
                cut.leaves[slot] = NodeId(new);
                cut.sig |= leaf_sig(NodeId(new));
            }
            leaf_at += len;
            self.cuts.push(cut);
        }
        self.cuts.push(Cut::trivial(NodeId::from_index(i)));
        self.reused += 1;
        Some(old)
    }

    /// Append the cut list of AND node `i`, merged from its fanins'
    /// finished lists (the trivial cut last).
    fn push_and_cuts(&mut self, aig: &Aig, i: usize, k: usize, max_cuts: usize) {
        let NodeKind::And { a, b } = aig.nodes()[i] else {
            unreachable!("only AND nodes merge fanin cuts");
        };
        let CutArena {
            cuts,
            ranges,
            list,
            scratch,
            ..
        } = self;
        let slice = |node: NodeId| -> &[Cut] {
            let (s, e) = ranges[node.index()];
            &cuts[s as usize..e as usize]
        };
        let root = NodeId::from_index(i);
        list.clear();
        for cut_a in slice(a.node()) {
            for cut_b in slice(b.node()) {
                let Some((merged, in_a, in_b)) = cut_a.merge_placed(cut_b, k) else {
                    continue;
                };
                // Only a cut the antichain takes gets its function.
                if antichain_insert(list, merged) {
                    let cut = list.last_mut().expect("the cut was just inserted");
                    cut.compose(root, (a, cut_a, in_a), (b, cut_b, in_b));
                }
            }
        }
        list.sort_by_key(Cut::len);
        list.truncate(max_cuts);
        for cut in list.iter_mut().filter(|c| !c.has_func) {
            let table = cut_function_with(aig, root, cut.leaves(), scratch);
            cut.func = replicate(table.as_word(), cut.len());
            cut.has_func = true;
        }
        list.push(Cut::trivial(root));
        cuts.extend_from_slice(list);
    }
}

/// A table word over `vars` variables (tail bits zero) as a 6-variable
/// word that does not depend on variables `vars..6`.
fn replicate(mut word: u64, vars: usize) -> u64 {
    for v in vars..6 {
        word |= word << (1u32 << v);
    }
    word
}

/// Reusable per-cone working state for [`reconvergence_cut_with`],
/// [`cut_function_with`] and [`mffc_size_with`].
///
/// All node-indexed state is generation-stamped, so reuse across cones is a
/// stamp bump, not a clear. The resynthesis passes keep one scratch for the
/// whole graph walk; the convenience wrappers create a throwaway one.
#[derive(Default, Debug)]
pub struct CutScratch {
    stamp: u32,
    /// Per-node (stamp, payload) slots. Payload meaning is caller-specific:
    /// truth-table index for `cut_function_with`, remaining fanout count for
    /// `mffc_size_with`, visited/leaf marker for `reconvergence_cut_with`.
    slots: Vec<(u32, u32)>,
    /// `cut_function_with`'s tables, back to back, one word (≤ 6 leaves)
    /// or `2^(leaves-6)` words each.
    words: Vec<u64>,
    stack: Vec<(NodeId, bool)>,
    nodes: Vec<NodeId>,
}

impl CutScratch {
    /// Fresh scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a new cone: bump the stamp and size the slot table.
    fn begin(&mut self, num_nodes: usize) {
        if self.slots.len() < num_nodes {
            self.slots.resize(num_nodes, (0, 0));
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Wrapped: invalidate everything once.
            self.slots.fill((0, 0));
            self.stamp = 1;
        }
        self.words.clear();
        self.stack.clear();
        self.nodes.clear();
    }

    #[inline]
    fn get(&self, id: NodeId) -> Option<u32> {
        let (s, v) = self.slots[id.index()];
        (s == self.stamp).then_some(v)
    }

    #[inline]
    fn set(&mut self, id: NodeId, value: u32) {
        self.slots[id.index()] = (self.stamp, value);
    }
}

/// Compute a reconvergence-driven cut of at most `k` leaves for `root`
/// (ABC's `abc_NodeFindCut` strategy): greedily expand the leaf whose
/// expansion adds the fewest new leaves. `scratch` is the caller's (slot
/// payload: 1 = visited interior, 0 = current leaf).
pub fn reconvergence_cut_with(aig: &Aig, root: NodeId, k: usize, scratch: &mut CutScratch) -> Cut {
    assert!(k <= MAX_CUT_SIZE, "k exceeds MAX_CUT_SIZE");
    scratch.begin(aig.num_nodes());
    // `scratch.nodes` holds the current leaf set (≤ k + 1 entries).
    scratch.set(root, 1);
    match aig.node(root) {
        NodeKind::And { a, b } => {
            for f in [a.node(), b.node()] {
                if scratch.get(f).is_none() {
                    scratch.set(f, 0);
                    scratch.nodes.push(f);
                }
            }
        }
        _ => {
            scratch.set(root, 0);
            scratch.nodes.push(root);
        }
    }
    loop {
        // Cost of expanding a leaf = new leaves introduced - 1.
        let mut best: Option<(i32, usize)> = None;
        for (pos, &leaf) in scratch.nodes.iter().enumerate() {
            let NodeKind::And { a, b } = aig.node(leaf) else {
                continue;
            };
            let mut added = 0;
            for f in [a.node(), b.node()] {
                if scratch.get(f).is_none() {
                    added += 1;
                }
            }
            let cost = added - 1;
            if scratch.nodes.len() + added as usize - 1 > k {
                continue;
            }
            if best.is_none_or(|(c, _)| cost < c) {
                best = Some((cost, pos));
            }
        }
        let Some((_, pos)) = best else { break };
        let leaf = scratch.nodes.swap_remove(pos);
        scratch.set(leaf, 1);
        let NodeKind::And { a, b } = aig.node(leaf) else {
            unreachable!()
        };
        for f in [a.node(), b.node()] {
            if scratch.get(f).is_none() {
                scratch.set(f, 0);
                scratch.nodes.push(f);
            }
        }
        if scratch.nodes.len() >= k {
            break;
        }
    }
    scratch.nodes.sort();
    Cut::from_leaves(&scratch.nodes)
}

/// Fill `scratch.nodes` with the cone interior in topological order
/// (post-order DFS over stamped slots; payload 1 = visited).
fn collect_cone(aig: &Aig, root: NodeId, leaves: &[NodeId], scratch: &mut CutScratch) {
    scratch.begin(aig.num_nodes());
    for &leaf in leaves {
        scratch.set(leaf, 1);
    }
    scratch.stack.push((root, false));
    while let Some((id, expanded)) = scratch.stack.pop() {
        if expanded {
            scratch.nodes.push(id);
            continue;
        }
        if scratch.get(id).is_some() {
            continue;
        }
        scratch.set(id, 1);
        scratch.stack.push((id, true));
        if let NodeKind::And { a, b } = aig.node(id) {
            scratch.stack.push((a.node(), false));
            scratch.stack.push((b.node(), false));
        }
    }
}

/// Truth table of `root` as a function of the cut leaves.
///
/// # Panics
///
/// Panics if some path from `root` reaches a combinational input that is not
/// a cut leaf (i.e. `leaves` is not a valid cut for `root`).
pub fn cut_function(aig: &Aig, root: NodeId, leaves: &[NodeId]) -> TruthTable {
    cut_function_with(aig, root, leaves, &mut CutScratch::new())
}

/// [`cut_function`] with caller-provided scratch: every cone node's table
/// lives in one flat reusable word buffer indexed through the stamped
/// slots, so the walk allocates nothing but the returned table (and that
/// only over more than 6 leaves).
pub fn cut_function_with(
    aig: &Aig,
    root: NodeId,
    leaves: &[NodeId],
    scratch: &mut CutScratch,
) -> TruthTable {
    let vars = leaves.len();
    if let Some(pos) = leaves.iter().position(|&l| l == root) {
        return TruthTable::variable(vars, pos);
    }
    if root == NodeId::CONST0 {
        return TruthTable::zeros(vars);
    }
    collect_cone(aig, root, leaves, scratch);
    debug_assert!(
        scratch.get(root).is_some(),
        "root must be inside its own cone"
    );
    // Stamp was consumed by collect_cone; re-stamp leaf slots to table
    // indices without disturbing the collected topological order.
    scratch.stamp = scratch.stamp.wrapping_add(1);
    if scratch.stamp == 0 {
        scratch.slots.fill((0, 0));
        scratch.stamp = 1;
    }
    // Table `t` is `words[t * width..(t + 1) * width]`.
    let width = if vars > 6 { 1usize << (vars - 6) } else { 1 };
    for (i, &leaf) in leaves.iter().enumerate() {
        scratch
            .words
            .extend((0..width).map(|w| TruthTable::variable_word(i, w)));
        scratch.set(leaf, i as u32);
    }
    if scratch.get(NodeId::CONST0).is_none() {
        scratch.words.resize((vars + 1) * width, 0);
        scratch.set(NodeId::CONST0, vars as u32);
    }
    let flip = |l: Lit| if l.is_complement() { !0 } else { 0 };
    for idx in 0..scratch.nodes.len() {
        let id = scratch.nodes[idx];
        let NodeKind::And { a, b } = aig.node(id) else {
            panic!("cone reached non-AND node {id:?} that is not a cut leaf");
        };
        let ta = scratch.get(a.node()).expect("fanin table computed") as usize * width;
        let tb = scratch.get(b.node()).expect("fanin table computed") as usize * width;
        let (fa, fb) = (flip(a), flip(b));
        let table = scratch.words.len() / width;
        for w in 0..width {
            let word = (scratch.words[ta + w] ^ fa) & (scratch.words[tb + w] ^ fb);
            scratch.words.push(word);
        }
        if id == root {
            return TruthTable::from_words(vars, &scratch.words[table * width..]);
        }
        scratch.set(id, table as u32);
    }
    unreachable!("the root is the last node of its cone")
}

/// Size of the maximum fanout-free cone of `root` with respect to the cut:
/// the number of cone nodes (including the root) that would become dangling
/// if `root` were replaced by a new implementation over the cut leaves.
///
/// `fanouts` must come from [`Aig::fanout_counts`] with roots included.
/// `scratch` is the caller's (slot payload: remaining fanout count, offset
/// by 1 so a leaf marker of 0 stays distinct).
pub fn mffc_size_with(
    aig: &Aig,
    root: NodeId,
    leaves: &[NodeId],
    fanouts: &[u32],
    scratch: &mut CutScratch,
) -> usize {
    scratch.begin(aig.num_nodes());
    for &leaf in leaves {
        scratch.set(leaf, 0);
    }
    let mut size = 0usize;
    // Deref the root unconditionally (it is being replaced).
    scratch.stack.push((root, false));
    while let Some((id, _)) = scratch.stack.pop() {
        if scratch.get(id) == Some(0) {
            continue; // Cut leaf.
        }
        let NodeKind::And { a, b } = aig.node(id) else {
            continue;
        };
        size += 1;
        for f in [a.node(), b.node()] {
            if scratch.get(f) == Some(0) || !aig.node(f).is_and() {
                continue;
            }
            // Payload is remaining-references + 1 (so 0 stays the leaf
            // marker); each cone edge dereferences once.
            let remaining = match scratch.get(f) {
                Some(r) => {
                    debug_assert!(r >= 2, "node dereferenced past zero");
                    r - 1
                }
                None => fanouts[f.index()],
            };
            scratch.set(f, remaining);
            if remaining == 1 {
                scratch.stack.push((f, false));
            }
        }
    }
    size
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build;
    use crate::Lit;

    fn full_adder_aig() -> (Aig, Lit, Lit) {
        let mut g = Aig::new("fa");
        let a = g.input("a");
        let b = g.input("b");
        let c = g.input("cin");
        let (s, co) = build::full_adder(&mut g, a, b, c);
        g.output("s", s);
        g.output("cout", co);
        (g, s, co)
    }

    #[test]
    fn merge_respects_k() {
        let a = Cut::trivial(NodeId::from_index(1));
        let b = Cut::trivial(NodeId::from_index(2));
        let ab = a.merge(&b, 2).unwrap();
        assert_eq!(ab.len(), 2);
        let c = Cut::trivial(NodeId::from_index(3));
        assert!(ab.merge(&c, 2).is_none());
        assert!(ab.merge(&c, 3).is_some());
    }

    #[test]
    fn integrity_check_accepts_real_enumerations_and_catches_corruption() {
        let (g, _, _) = full_adder_aig();
        let mut arena = enumerate_cuts(&g, 4, 8);
        arena.check_integrity().unwrap();
        // Corrupt a stored signature: the audit must localize it.
        if let Some(cut) = arena.cuts.iter_mut().find(|c| !c.is_empty()) {
            cut.sig ^= 0xdead_beef;
        }
        assert!(arena.check_integrity().unwrap_err().contains("signature"));
        // Corrupt a range: escapes the buffer.
        let mut arena = enumerate_cuts(&g, 4, 8);
        let last = arena.ranges.len() - 1;
        arena.ranges[last].1 = u32::MAX;
        assert!(arena.check_integrity().unwrap_err().contains("escapes"));
    }

    #[test]
    fn dominance() {
        let small = Cut::from_leaves(&[NodeId::from_index(1), NodeId::from_index(3)]);
        let big = Cut::from_leaves(&[
            NodeId::from_index(1),
            NodeId::from_index(2),
            NodeId::from_index(3),
        ]);
        assert!(small.dominates(&big));
        assert!(!big.dominates(&small));
    }

    #[test]
    fn signature_is_subset_summary() {
        // Ids 64 apart collide in the signature — dominance must still be
        // exact (the signature may only produce false "maybe"s).
        let a = Cut::from_leaves(&[NodeId::from_index(1), NodeId::from_index(65)]);
        let b = Cut::from_leaves(&[NodeId::from_index(1), NodeId::from_index(129)]);
        assert_eq!(a.signature(), b.signature());
        assert!(!a.dominates(&b));
        assert!(!b.dominates(&a));
        let sup = Cut::from_leaves(&[
            NodeId::from_index(1),
            NodeId::from_index(65),
            NodeId::from_index(70),
        ]);
        assert!(a.dominates(&sup));
        assert_eq!(a.signature() & !sup.signature(), 0);
    }

    #[test]
    fn antichain_insert_keeps_minimal_cuts() {
        let mut list = vec![Cut::from_leaves(&[
            NodeId::from_index(1),
            NodeId::from_index(2),
            NodeId::from_index(3),
        ])];
        // A subset drops the superset.
        antichain_insert(
            &mut list,
            Cut::from_leaves(&[NodeId::from_index(1), NodeId::from_index(2)]),
        );
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].len(), 2);
        // A superset of an existing cut is rejected.
        antichain_insert(
            &mut list,
            Cut::from_leaves(&[
                NodeId::from_index(1),
                NodeId::from_index(2),
                NodeId::from_index(9),
            ]),
        );
        assert_eq!(list.len(), 1);
        // An incomparable cut is added.
        antichain_insert(
            &mut list,
            Cut::from_leaves(&[NodeId::from_index(7), NodeId::from_index(8)]),
        );
        assert_eq!(list.len(), 2);
        // Re-inserting an existing cut is a no-op (equality dominates).
        antichain_insert(
            &mut list,
            Cut::from_leaves(&[NodeId::from_index(7), NodeId::from_index(8)]),
        );
        assert_eq!(list.len(), 2);
    }

    #[test]
    fn enumerate_full_adder() {
        let (g, s, co) = full_adder_aig();
        let cuts = enumerate_cuts(&g, 4, 8);
        assert_eq!(cuts.num_nodes(), g.num_nodes());
        // The sum output node must have a cut consisting of the three PIs.
        let pi_cut: Vec<NodeId> = g.inputs().to_vec();
        let s_cuts = cuts.node(s.node().index());
        assert!(
            s_cuts.iter().any(|c| c.leaves() == pi_cut.as_slice()),
            "sum node should have the PI cut, got {s_cuts:?}"
        );
        let co_cuts = cuts.node(co.node().index());
        assert!(co_cuts.iter().any(|c| c.leaves() == pi_cut.as_slice()));
    }

    #[test]
    fn cut_arena_reuse_is_invisible() {
        // One warm arena across different graphs must hold exactly what a
        // fresh enumeration holds.
        let (fa, _, _) = full_adder_aig();
        let mut chain = Aig::new("chain");
        let xs = chain.input_word("x", 6);
        let mut acc = xs[0];
        for &x in &xs[1..] {
            acc = chain.and(acc, x);
        }
        chain.output("o", acc);

        let mut warm = CutArena::new();
        for g in [&fa, &chain, &fa] {
            enumerate_cuts_into(g, 4, 8, &mut warm);
            let fresh = enumerate_cuts(g, 4, 8);
            assert_eq!(warm.num_nodes(), fresh.num_nodes());
            for i in 0..fresh.num_nodes() {
                assert_eq!(warm.node(i), fresh.node(i), "node {i}");
            }
        }
    }

    #[test]
    fn enumerating_a_graph_again_reuses_every_and() {
        let mut g = Aig::new("add8");
        let a = g.input_word("a", 8);
        let b = g.input_word("b", 8);
        let (sum, carry) = build::ripple_add(&mut g, &a, &b, Lit::FALSE);
        g.output_word("s", &sum);
        g.output("c", carry);
        let fresh = enumerate_cuts(&g, 4, 8);
        let mut arena = CutArena::new();
        enumerate_cuts_into(&g, 4, 8, &mut arena);
        assert_eq!(arena.reused_nodes(), 0, "nothing to carry yet");
        enumerate_cuts_into(&g, 4, 8, &mut arena);
        assert_eq!(arena.reused_nodes(), g.num_ands());
        for i in 0..g.num_nodes() {
            let (carried, cold) = (arena.node(i), fresh.node(i));
            assert_eq!(carried, cold, "node {i}");
            let words = |list: &[Cut]| list.iter().map(|c| c.func).collect::<Vec<_>>();
            assert_eq!(words(carried), words(cold), "node {i}");
        }
        // Lists carry only between enumerations with the same k and budget.
        enumerate_cuts_into(&g, 4, 6, &mut arena);
        assert_eq!(arena.reused_nodes(), 0);
    }

    #[test]
    fn cut_function_matches_semantics() {
        let (g, s, co) = full_adder_aig();
        let pis: Vec<NodeId> = g.inputs().to_vec();
        let ts = cut_function(&g, s.node(), &pis);
        let tc = cut_function(&g, co.node(), &pis);
        for p in 0..8usize {
            let ones = (p & 1) + (p >> 1 & 1) + (p >> 2 & 1);
            // s output literal may be complemented relative to its node.
            let node_s = ts.bit(p);
            let expect_s = (ones & 1) == 1;
            assert_eq!(node_s ^ s.is_complement(), expect_s, "sum pattern {p}");
            let node_c = tc.bit(p);
            let expect_c = ones >= 2;
            assert_eq!(node_c ^ co.is_complement(), expect_c, "cout pattern {p}");
        }
    }

    #[test]
    fn cut_function_scratch_reuse_is_clean() {
        let (g, s, co) = full_adder_aig();
        let pis: Vec<NodeId> = g.inputs().to_vec();
        let mut scratch = CutScratch::new();
        let fresh_s = cut_function(&g, s.node(), &pis);
        let fresh_c = cut_function(&g, co.node(), &pis);
        for _ in 0..3 {
            assert_eq!(cut_function_with(&g, s.node(), &pis, &mut scratch), fresh_s);
            assert_eq!(
                cut_function_with(&g, co.node(), &pis, &mut scratch),
                fresh_c
            );
        }
    }

    #[test]
    fn reconvergence_cut_covers_root() {
        let (g, s, _) = full_adder_aig();
        let cut = reconvergence_cut_with(&g, s.node(), 4, &mut CutScratch::new());
        assert!(cut.len() <= 4);
        // Evaluating the cut function must succeed (i.e. it is a real cut).
        let _ = cut_function(&g, s.node(), cut.leaves());
    }

    #[test]
    fn mffc_of_exclusive_cone() {
        // x = a&b feeding only y = x&c: replacing y frees both.
        let mut g = Aig::new("t");
        let a = g.input("a");
        let b = g.input("b");
        let c = g.input("c");
        let x = g.and(a, b);
        let y = g.and(x, c);
        g.output("o", y);
        let fanouts = g.fanout_counts(true);
        let leaves: Vec<NodeId> = g.inputs().to_vec();
        let mut scratch = CutScratch::new();
        assert_eq!(
            mffc_size_with(&g, y.node(), &leaves, &fanouts, &mut scratch),
            2
        );

        // If x is also an output, it survives the replacement.
        let mut g2 = Aig::new("t2");
        let a = g2.input("a");
        let b = g2.input("b");
        let c = g2.input("c");
        let x = g2.and(a, b);
        let y = g2.and(x, c);
        g2.output("o", y);
        g2.output("x", x);
        let fanouts = g2.fanout_counts(true);
        let leaves: Vec<NodeId> = g2.inputs().to_vec();
        assert_eq!(
            mffc_size_with(&g2, y.node(), &leaves, &fanouts, &mut scratch),
            1
        );
    }
}
