//! Canonical structural digests — the content address of a design.
//!
//! A serving layer wants to answer "have I synthesized this design
//! before?" without trusting the submitter's node numbering: two BLIF
//! files written by different tools for the same circuit differ in
//! internal signal names and node order even when the graphs are
//! structurally identical. [`canonical_digest`] renumbers the graph into
//! a canonical form — inputs in declaration order, latches in declaration
//! order, AND nodes in the post-order of a deterministic DFS from the
//! combinational roots — and hashes that form into a 128-bit [`Digest`].
//! Internal names and arena node ids do not participate; the *interface*
//! (design name, port and latch names, latch init values, output
//! polarities) does, because a cached synthesis result is returned
//! verbatim, netlist port names included.
//!
//! Two AIGs get equal digests iff they have the same canonical form:
//! same interface and the same AND structure reachable from it.
//! Unreachable (dangling) AND nodes are ignored, so a design and its
//! [`Aig::compact`] hash identically.
//!
//! The hash is a seeded 128-bit SplitMix construction — fast and
//! well-distributed, **not** cryptographic. Collisions are astronomically
//! unlikely by accident but constructible on purpose; a result cache keyed
//! by it trusts its clients, which is the serving daemon's trust model
//! (the cache is per-deployment, not a public content store).

use std::fmt;

use crate::{Aig, Lit, NodeId, NodeKind};

/// A 128-bit canonical content digest of an [`Aig`]. Displays as 32 hex
/// digits.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct Digest(pub [u8; 16]);

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// The SplitMix64 finalizer: a cheap, well-distributed 64-bit permutation.
#[inline]
fn sm64(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Two independently seeded SplitMix64 lanes folded into 128 bits.
struct Mix {
    a: u64,
    b: u64,
}

impl Mix {
    fn new() -> Mix {
        Mix {
            a: 0x9e37_79b9_7f4a_7c15,
            b: 0x5851_f42d_4c95_7f2d,
        }
    }

    #[inline]
    fn word(&mut self, w: u64) {
        self.a = sm64(self.a ^ w);
        self.b = sm64(self.b ^ w.rotate_left(32));
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.word(u64::from_le_bytes(w));
        }
    }

    fn finish(self) -> Digest {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.a.to_le_bytes());
        out[8..].copy_from_slice(&self.b.to_le_bytes());
        Digest(out)
    }
}

/// Bottom-up, id-free structural hash per node. Used only to order DFS
/// child visits: strash stores an AND's fanins sorted by arena id, which
/// reflects build order, not structure. Arena order is topological (fanins
/// are created before the nodes that use them), so one forward sweep
/// suffices.
fn subtree_hashes(aig: &Aig) -> Vec<u64> {
    let mut h = vec![0u64; aig.num_nodes()];
    for idx in 0..aig.num_nodes() {
        let id = NodeId::from_index(idx);
        h[idx] = match aig.node(id) {
            NodeKind::Const0 => sm64(1),
            NodeKind::Input { index } => sm64(sm64(2) ^ index as u64),
            NodeKind::Latch { index } => sm64(sm64(3) ^ index as u64),
            NodeKind::And { a, b } => {
                let ea = sm64(h[a.node().index()] ^ a.is_complement() as u64);
                let eb = sm64(h[b.node().index()] ^ b.is_complement() as u64);
                sm64(sm64(sm64(4) ^ ea.min(eb)) ^ ea.max(eb))
            }
        };
    }
    h
}

/// Canonical node numbering: constant 0, then inputs `1..=I` in input
/// order, latches `I+1..=I+L` in latch order, then reachable AND nodes in
/// deterministic DFS post-order from the combinational roots, visiting the
/// structurally-smaller fanin (by [`subtree_hashes`]) first.
fn canonical_ids(aig: &Aig) -> (Vec<u64>, Vec<NodeId>) {
    let sub = subtree_hashes(aig);
    const UNSEEN: u64 = u64::MAX;
    let mut canon: Vec<u64> = vec![UNSEEN; aig.num_nodes()];
    canon[NodeId::CONST0.index()] = 0;
    for (i, &id) in aig.inputs().iter().enumerate() {
        canon[id.index()] = 1 + i as u64;
    }
    let ci_base = 1 + aig.num_inputs() as u64;
    for (i, latch) in aig.latches().iter().enumerate() {
        canon[latch.output.index()] = ci_base + i as u64;
    }
    let mut next = ci_base + aig.num_latches() as u64;
    let mut order: Vec<NodeId> = Vec::new();
    let mut stack: Vec<(NodeId, bool)> = Vec::new();
    // Roots: output literals in output order, then latch next-state
    // functions in latch order — the same order every structurally
    // identical graph presents them in.
    let roots = aig
        .outputs()
        .iter()
        .map(|o| o.lit)
        .chain(aig.latches().iter().map(|l| l.next));
    for root in roots {
        stack.push((root.node(), false));
        while let Some((id, expanded)) = stack.pop() {
            if canon[id.index()] != UNSEEN {
                continue;
            }
            let NodeKind::And { a, b } = aig.node(id) else {
                // CIs and the constant are pre-numbered above; anything
                // else reaching here would be a malformed graph.
                continue;
            };
            if expanded {
                canon[id.index()] = next;
                next += 1;
                order.push(id);
            } else {
                stack.push((id, true));
                // Visit the structurally-smaller fanin first (a stack pops
                // in reverse push order). Equal keys mean structurally
                // identical subtrees — strash would have shared them — so
                // the tie-break cannot matter.
                let ka = sm64(sub[a.node().index()] ^ a.is_complement() as u64);
                let kb = sm64(sub[b.node().index()] ^ b.is_complement() as u64);
                let (first, second) = if ka <= kb { (a, b) } else { (b, a) };
                stack.push((second.node(), false));
                stack.push((first.node(), false));
            }
        }
    }
    (canon, order)
}

/// Canonical edge encoding: `2 * canonical node id + complement bit`.
#[inline]
fn encode(canon: &[u64], lit: Lit) -> u64 {
    canon[lit.node().index()] * 2 + lit.is_complement() as u64
}

/// The canonical structural digest of a design. See the [module
/// docs](self) for what participates in the hash and what does not.
pub fn canonical_digest(aig: &Aig) -> Digest {
    let (canon, order) = canonical_ids(aig);
    let mut mix = Mix::new();
    mix.bytes(b"xsfq-aig-digest/1");
    mix.bytes(aig.name().as_bytes());
    mix.word(aig.num_inputs() as u64);
    mix.word(aig.num_latches() as u64);
    mix.word(aig.num_outputs() as u64);
    mix.word(order.len() as u64);
    for i in 0..aig.num_inputs() {
        mix.bytes(aig.input_name(i).as_bytes());
    }
    for id in order {
        let NodeKind::And { a, b } = aig.node(id) else {
            unreachable!("canonical order only holds AND nodes");
        };
        // Strash keeps fanins ordered by arena id, which is not canonical;
        // sort by canonical encoding so fanin order never leaks through.
        let (x, y) = (encode(&canon, a), encode(&canon, b));
        mix.word(x.min(y));
        mix.word(x.max(y));
    }
    for latch in aig.latches() {
        mix.bytes(latch.name.as_bytes());
        mix.word(latch.init as u64);
        mix.word(encode(&canon, latch.next));
    }
    for output in aig.outputs() {
        mix.bytes(output.name.as_bytes());
        mix.word(encode(&canon, output.lit));
    }
    mix.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build;

    fn adder(name: &str) -> Aig {
        let mut g = Aig::new(name);
        let a = g.input_word("a", 4);
        let b = g.input_word("b", 4);
        let (sum, carry) = build::ripple_add(&mut g, &a, &b, Lit::FALSE);
        g.output_word("sum", &sum);
        g.output("carry", carry);
        g
    }

    #[test]
    fn digest_is_stable_and_hex_round_trips() {
        let d1 = canonical_digest(&adder("add4"));
        let d2 = canonical_digest(&adder("add4"));
        assert_eq!(d1, d2);
        let hex = d1.to_string();
        assert_eq!(hex.len(), 32);
        let parsed = u128::from_str_radix(&hex, 16).unwrap();
        assert_eq!(parsed.to_be_bytes(), d1.0);
    }

    #[test]
    fn digest_ignores_node_order_but_not_structure() {
        // Same function, built in a different node order: the strash
        // arena ids differ, the canonical form must not.
        let mut fwd = Aig::new("t");
        let a = fwd.input("a");
        let b = fwd.input("b");
        let c = fwd.input("c");
        let ab = fwd.and(a, b);
        let bc = fwd.and(b, c);
        let o = fwd.and(ab, bc);
        fwd.output("o", o);

        let mut rev = Aig::new("t");
        let a = rev.input("a");
        let b = rev.input("b");
        let c = rev.input("c");
        let bc = rev.and(b, c); // built first: different arena ids
        let ab = rev.and(a, b);
        let o = rev.and(ab, bc);
        rev.output("o", o);

        assert_eq!(canonical_digest(&fwd), canonical_digest(&rev));

        // A structural change (complemented edge) must change the digest.
        let mut neg = Aig::new("t");
        let a = neg.input("a");
        let b = neg.input("b");
        let c = neg.input("c");
        let ab = neg.and(a, b);
        let bc = neg.and(b, c);
        let o = neg.and(ab, !bc);
        neg.output("o", o);
        assert_ne!(canonical_digest(&fwd), canonical_digest(&neg));
    }

    #[test]
    fn digest_covers_the_interface() {
        let base = canonical_digest(&adder("add4"));
        // Design name participates (the report carries it).
        assert_ne!(base, canonical_digest(&adder("other")));
        // Output port names participate (the netlist carries them).
        let mut g = Aig::new("add4");
        let a = g.input_word("a", 4);
        let b = g.input_word("b", 4);
        let (sum, carry) = build::ripple_add(&mut g, &a, &b, Lit::FALSE);
        g.output_word("result", &sum);
        g.output("carry", carry);
        assert_ne!(base, canonical_digest(&g));
    }

    #[test]
    fn digest_ignores_unreachable_nodes() {
        let mut g = adder("add4");
        let reachable_only = canonical_digest(&g.compact());
        let x = g.inputs()[0];
        let y = g.inputs()[1];
        let dead = g.and(Lit::new(x, true), Lit::new(y, true));
        let _ = dead; // never connected to an output
        assert_eq!(canonical_digest(&g), reachable_only);
    }

    #[test]
    fn digest_distinguishes_latch_inits() {
        let seq = |init: bool| {
            let mut g = Aig::new("seq");
            let q = g.latch("q", init);
            g.set_latch_next(q, !q);
            g.output("o", q);
            canonical_digest(&g)
        };
        assert_ne!(seq(false), seq(true));
    }
}
