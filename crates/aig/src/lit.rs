//! Node identifiers and edge literals.
//!
//! An AIG edge is a [`Lit`]: a node index plus a complement flag packed into
//! one `u32`, following the AIGER convention (`lit = 2 * node + complement`).

use std::fmt;
use std::ops::Not;

/// Identifier of a node in an [`Aig`](crate::Aig).
///
/// Node `0` is always the constant-false node. Identifiers are dense and
/// topologically ordered: the fanins of an AND node always have smaller ids
/// (latch next-state literals are the only backward references, and those are
/// stored on the latch, not in the node table).
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The constant-false node, present in every AIG.
    pub const CONST0: NodeId = NodeId(0);

    /// Index of this node in the node table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct a node id from a raw table index.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        NodeId(index as u32)
    }

    /// Positive-polarity literal pointing at this node.
    #[inline]
    pub fn lit(self) -> Lit {
        Lit::new(self, false)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// An edge in the AIG: a node reference with an optional complement
/// ("inverter bubble").
///
/// `Lit` is `Copy` and packs into 4 bytes. The complement is the least
/// significant bit, so `Lit::FALSE` (constant node, no complement) is `0` and
/// `Lit::TRUE` is `1`, exactly as in the AIGER format.
///
/// ```
/// use xsfq_aig::{Aig, Lit};
/// let mut aig = Aig::new("t");
/// let a = aig.input("a");
/// assert_eq!(!(!a), a);
/// assert_ne!(!a, a);
/// assert_eq!(!Lit::FALSE, Lit::TRUE);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(pub(crate) u32);

impl Lit {
    /// Constant false (the positive literal of node 0).
    pub const FALSE: Lit = Lit(0);
    /// Constant true (the complemented literal of node 0).
    pub const TRUE: Lit = Lit(1);

    /// Build a literal from a node and a complement flag.
    #[inline]
    pub fn new(node: NodeId, complement: bool) -> Self {
        Lit(node.0 << 1 | complement as u32)
    }

    /// The node this literal points at.
    #[inline]
    pub fn node(self) -> NodeId {
        NodeId(self.0 >> 1)
    }

    /// Whether the edge carries an inverter bubble.
    #[inline]
    pub fn is_complement(self) -> bool {
        self.0 & 1 != 0
    }

    /// True if this is `Lit::FALSE` or `Lit::TRUE`.
    #[inline]
    pub fn is_const(self) -> bool {
        self.0 <= 1
    }

    /// Literal with the same node and positive polarity.
    #[inline]
    pub fn positive(self) -> Lit {
        Lit(self.0 & !1)
    }

    /// XOR the complement flag with `flip` (useful when pushing bubbles).
    #[inline]
    pub fn complement_if(self, flip: bool) -> Lit {
        Lit(self.0 ^ flip as u32)
    }

    /// Raw AIGER-style encoding (`2 * node + complement`).
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Rebuild from a raw AIGER-style encoding.
    #[inline]
    pub fn from_raw(raw: u32) -> Self {
        Lit(raw)
    }
}

impl Not for Lit {
    type Output = Lit;
    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_complement() {
            write!(f, "!n{}", self.0 >> 1)
        } else {
            write!(f, "n{}", self.0 >> 1)
        }
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<NodeId> for Lit {
    fn from(node: NodeId) -> Lit {
        Lit::new(node, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants() {
        assert_eq!(Lit::FALSE.node(), NodeId::CONST0);
        assert_eq!(Lit::TRUE.node(), NodeId::CONST0);
        assert!(!Lit::FALSE.is_complement());
        assert!(Lit::TRUE.is_complement());
        assert_eq!(!Lit::FALSE, Lit::TRUE);
        assert!(Lit::FALSE.is_const() && Lit::TRUE.is_const());
    }

    #[test]
    fn packing_roundtrip() {
        for idx in [0usize, 1, 2, 1000, 1 << 20] {
            let node = NodeId::from_index(idx);
            for c in [false, true] {
                let l = Lit::new(node, c);
                assert_eq!(l.node(), node);
                assert_eq!(l.is_complement(), c);
                assert_eq!(Lit::from_raw(l.raw()), l);
            }
        }
    }

    #[test]
    fn polarity_helpers() {
        let n = NodeId::from_index(5);
        let l = Lit::new(n, true);
        assert_eq!(l.positive(), Lit::new(n, false));
        assert_eq!(l.complement_if(true), Lit::new(n, false));
        assert_eq!(l.complement_if(false), l);
        assert_eq!(NodeId::from_index(5).lit(), Lit::new(n, false));
    }
}
