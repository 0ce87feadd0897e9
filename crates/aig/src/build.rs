//! Word-level circuit builders.
//!
//! These helpers construct common datapath and control structures directly in
//! an [`Aig`]. They replace the RTL elaboration step (Yosys in the paper) for
//! programmatically-defined designs, and are the backbone of the
//! `xsfq-benchmarks` suite equivalents.

use crate::{Aig, Lit};

/// Half adder: returns `(sum, carry)`.
fn half_adder(aig: &mut Aig, a: Lit, b: Lit) -> (Lit, Lit) {
    (aig.xor(a, b), aig.and(a, b))
}

/// Full adder: returns `(sum, carry)`.
///
/// Built so that structural hashing shares the `a & b` and `(a ^ b) & cin`
/// products between sum and carry, yielding the 7-node minimal AIG the paper
/// reports in Figure 4.
pub fn full_adder(aig: &mut Aig, a: Lit, b: Lit, cin: Lit) -> (Lit, Lit) {
    let axb = aig.xor(a, b);
    let sum = aig.xor(axb, cin);
    let t1 = aig.and(a, b);
    let t2 = aig.and(axb, cin);
    let cout = aig.or(t1, t2);
    (sum, cout)
}

/// Ripple-carry addition of two equal-width words; returns `(sum, carry_out)`.
///
/// # Panics
///
/// Panics if the words have different widths.
pub fn ripple_add(aig: &mut Aig, a: &[Lit], b: &[Lit], mut carry: Lit) -> (Vec<Lit>, Lit) {
    assert_eq!(a.len(), b.len(), "ripple_add requires equal widths");
    let mut sum = Vec::with_capacity(a.len());
    for (&x, &y) in a.iter().zip(b) {
        let (s, c) = full_adder(aig, x, y, carry);
        sum.push(s);
        carry = c;
    }
    (sum, carry)
}

/// Two's-complement subtraction `a - b`; returns `(difference, borrow_free)`.
/// The second element is the carry-out (`1` means no borrow, i.e. `a >= b`
/// for unsigned operands).
pub fn ripple_sub(aig: &mut Aig, a: &[Lit], b: &[Lit]) -> (Vec<Lit>, Lit) {
    let nb: Vec<Lit> = b.iter().map(|&l| !l).collect();
    ripple_add(aig, a, &nb, Lit::TRUE)
}

/// Increment a word by one; returns `(result, carry_out)`.
pub fn increment(aig: &mut Aig, a: &[Lit]) -> (Vec<Lit>, Lit) {
    let mut carry = Lit::TRUE;
    let mut out = Vec::with_capacity(a.len());
    for &x in a {
        out.push(aig.xor(x, carry));
        carry = aig.and(x, carry);
    }
    (out, carry)
}

/// Bitwise 2:1 multiplexer between equal-width words.
///
/// # Panics
///
/// Panics if the words have different widths.
pub fn mux_word(aig: &mut Aig, sel: Lit, t: &[Lit], e: &[Lit]) -> Vec<Lit> {
    assert_eq!(t.len(), e.len(), "mux_word requires equal widths");
    t.iter()
        .zip(e)
        .map(|(&ti, &ei)| aig.mux(sel, ti, ei))
        .collect()
}

/// Equality comparator over words.
pub fn equals(aig: &mut Aig, a: &[Lit], b: &[Lit]) -> Lit {
    assert_eq!(a.len(), b.len(), "equals requires equal widths");
    let bits: Vec<Lit> = a.iter().zip(b).map(|(&x, &y)| aig.xnor(x, y)).collect();
    aig.and_many(&bits)
}

/// Unsigned magnitude comparator: returns `a < b`.
pub fn less_than(aig: &mut Aig, a: &[Lit], b: &[Lit]) -> Lit {
    assert_eq!(a.len(), b.len(), "less_than requires equal widths");
    // Borrow chain of a - b: subtract and look at the final borrow.
    let (_, no_borrow) = ripple_sub(aig, a, b);
    !no_borrow
}

/// Unsigned array multiplier (the structure of ISCAS85 c6288); returns the
/// `a.len() + b.len()`-bit product.
///
/// Built as the classic carry-save array: one AND plane plus a grid of
/// half/full adders, finished with a ripple row.
pub fn array_multiplier(aig: &mut Aig, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
    let n = a.len();
    let m = b.len();
    if n == 0 || m == 0 {
        return Vec::new();
    }
    // Partial-product rows.
    let mut rows: Vec<Vec<Lit>> = Vec::with_capacity(m);
    for &bj in b.iter() {
        rows.push(a.iter().map(|&ai| aig.and(ai, bj)).collect());
    }
    // Carry-save reduction, row by row (Braun array).
    let mut product = Vec::with_capacity(n + m);
    let mut acc: Vec<Lit> = rows[0].clone();
    for (j, row) in rows.iter().enumerate().skip(1) {
        product.push(acc[0]);
        let mut next = Vec::with_capacity(n);
        let mut carry = Lit::FALSE;
        for (i, &ri) in row.iter().enumerate().take(n) {
            let above = acc.get(i + 1).copied().unwrap_or(Lit::FALSE);
            let (s, c) = full_adder(aig, ri, above, carry);
            next.push(s);
            carry = c;
        }
        next.push(carry);
        acc = next;
        if j == m - 1 {
            // Flush the final accumulator into the product.
            product.extend(acc.iter().copied().take(n + m - product.len()));
        }
    }
    if m == 1 {
        product.extend(acc.iter().copied());
    }
    product.truncate(n + m);
    while product.len() < n + m {
        product.push(Lit::FALSE);
    }
    product
}

/// Binary decoder: `n` select bits to `2^n` one-hot outputs, with an
/// optional enable.
pub fn decoder(aig: &mut Aig, sel: &[Lit], enable: Option<Lit>) -> Vec<Lit> {
    let n = sel.len();
    let mut outs = Vec::with_capacity(1 << n);
    for code in 0..(1usize << n) {
        let bits: Vec<Lit> = sel
            .iter()
            .enumerate()
            .map(|(i, &s)| s.complement_if(code >> i & 1 == 0))
            .collect();
        let mut term = aig.and_many(&bits);
        if let Some(en) = enable {
            term = aig.and(term, en);
        }
        outs.push(term);
    }
    outs
}

/// Priority encoder over `req` (bit 0 has highest priority). Returns
/// `(grant_onehot, valid)`.
pub fn priority_encoder(aig: &mut Aig, req: &[Lit]) -> (Vec<Lit>, Lit) {
    let mut grants = Vec::with_capacity(req.len());
    let mut none_before = Lit::TRUE;
    for &r in req {
        grants.push(aig.and(r, none_before));
        none_before = aig.and(none_before, !r);
    }
    (grants, !none_before)
}

/// Binary encoder: one-hot word to `ceil(log2(n))`-bit index (assumes the
/// input really is one-hot; otherwise bits OR together).
pub fn onehot_to_binary(aig: &mut Aig, onehot: &[Lit]) -> Vec<Lit> {
    let width = usize::BITS as usize - (onehot.len().max(1) - 1).leading_zeros() as usize;
    let mut out = Vec::with_capacity(width);
    for bit in 0..width {
        let terms: Vec<Lit> = onehot
            .iter()
            .enumerate()
            .filter(|(i, _)| i >> bit & 1 == 1)
            .map(|(_, &l)| l)
            .collect();
        out.push(aig.or_many(&terms));
    }
    out
}

/// Population count: returns `ceil(log2(n+1))` sum bits.
///
/// Built as a tree of carry-save adders — the structure behind the EPFL
/// `voter` equivalent.
fn popcount(aig: &mut Aig, bits: &[Lit]) -> Vec<Lit> {
    if bits.is_empty() {
        return vec![Lit::FALSE];
    }
    // Reduce groups of three equal-weight bits into (sum, carry) pairs until
    // every weight has at most one bit: a Wallace-style counter tree.
    let mut weights: Vec<Vec<Lit>> = vec![bits.to_vec()];
    loop {
        let mut changed = false;
        let mut next: Vec<Vec<Lit>> = vec![Vec::new(); weights.len() + 1];
        for (w, bucket) in weights.iter().enumerate() {
            let mut i = 0;
            while bucket.len() - i >= 3 {
                let (s, c) = full_adder(aig, bucket[i], bucket[i + 1], bucket[i + 2]);
                next[w].push(s);
                next[w + 1].push(c);
                i += 3;
                changed = true;
            }
            if bucket.len() - i == 2 {
                let (s, c) = half_adder(aig, bucket[i], bucket[i + 1]);
                next[w].push(s);
                next[w + 1].push(c);
                changed = true;
            } else if bucket.len() - i == 1 {
                next[w].push(bucket[i]);
            }
        }
        while next.last().is_some_and(|b| b.is_empty()) {
            next.pop();
        }
        weights = next;
        if !changed {
            break;
        }
    }
    weights
        .into_iter()
        .map(|bucket| bucket.first().copied().unwrap_or(Lit::FALSE))
        .collect()
}

/// Majority of an odd number of bits (`popcount > n/2`).
pub fn majority(aig: &mut Aig, bits: &[Lit]) -> Lit {
    assert!(bits.len() % 2 == 1, "majority requires an odd bit count");
    if bits.len() == 1 {
        return bits[0];
    }
    if bits.len() == 3 {
        let ab = aig.and(bits[0], bits[1]);
        let ac = aig.and(bits[0], bits[2]);
        let bc = aig.and(bits[1], bits[2]);
        let t = aig.or(ab, ac);
        return aig.or(t, bc);
    }
    let count = popcount(aig, bits);
    let threshold = bits.len() / 2; // strict majority: count >= threshold+1
    let width = count.len();
    let konst: Vec<Lit> = (0..width)
        .map(|i| {
            if threshold >> i & 1 == 1 {
                Lit::TRUE
            } else {
                Lit::FALSE
            }
        })
        .collect();
    // count > threshold  <=>  threshold < count
    less_than(aig, &konst, &count)
}

/// Leading-zero detector for a word (MSB at the highest index). Returns the
/// zero count as a binary word plus an `all_zero` flag. Core of the EPFL
/// `int2float` equivalent.
pub fn leading_zeros(aig: &mut Aig, word: &[Lit]) -> (Vec<Lit>, Lit) {
    // Scan from MSB: one-hot position of the first 1.
    let rev: Vec<Lit> = word.iter().rev().copied().collect();
    let (onehot, any) = priority_encoder(aig, &rev);
    let idx = onehot_to_binary(aig, &onehot);
    (idx, !any)
}

/// Logical left barrel shifter by a binary amount.
pub fn barrel_shift_left(aig: &mut Aig, word: &[Lit], amount: &[Lit]) -> Vec<Lit> {
    let mut cur: Vec<Lit> = word.to_vec();
    for (stage, &sel) in amount.iter().enumerate() {
        let shift = 1usize << stage;
        let shifted: Vec<Lit> = (0..cur.len())
            .map(|i| {
                if i >= shift {
                    cur[i - shift]
                } else {
                    Lit::FALSE
                }
            })
            .collect();
        cur = mux_word(aig, sel, &shifted, &cur);
    }
    cur
}

/// Constant word literal of the given width.
pub fn constant(value: u64, width: usize) -> Vec<Lit> {
    (0..width)
        .map(|i| {
            if value >> i & 1 == 1 {
                Lit::TRUE
            } else {
                Lit::FALSE
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim;

    fn eval(aig: &Aig, inputs: &[bool]) -> Vec<bool> {
        sim::eval_outputs(aig, inputs)
    }

    #[test]
    fn full_adder_is_seven_nodes() {
        let mut g = Aig::new("fa");
        let a = g.input("a");
        let b = g.input("b");
        let c = g.input("cin");
        let (s, co) = full_adder(&mut g, a, b, c);
        g.output("s", s);
        g.output("cout", co);
        // Paper Figure 4: the minimal full-adder AIG has 7 nodes.
        assert_eq!(g.num_ands(), 7);
    }

    #[test]
    fn ripple_add_matches_arithmetic() {
        let mut g = Aig::new("add");
        let a = g.input_word("a", 8);
        let b = g.input_word("b", 8);
        let (s, c) = ripple_add(&mut g, &a, &b, Lit::FALSE);
        g.output_word("s", &s);
        g.output("c", c);
        for (x, y) in [(3u64, 5u64), (255, 1), (200, 100), (0, 0), (127, 128)] {
            let mut inputs = Vec::new();
            for i in 0..8 {
                inputs.push(x >> i & 1 == 1);
            }
            for i in 0..8 {
                inputs.push(y >> i & 1 == 1);
            }
            let out = eval(&g, &inputs);
            let mut got = 0u64;
            for (i, &bit) in out.iter().enumerate().take(8) {
                got |= (bit as u64) << i;
            }
            got |= (out[8] as u64) << 8;
            assert_eq!(got, x + y, "{x} + {y}");
        }
    }

    #[test]
    fn multiplier_matches_arithmetic() {
        let mut g = Aig::new("mul");
        let a = g.input_word("a", 4);
        let b = g.input_word("b", 4);
        let p = array_multiplier(&mut g, &a, &b);
        assert_eq!(p.len(), 8);
        g.output_word("p", &p);
        for x in 0..16u64 {
            for y in 0..16u64 {
                let mut inputs = Vec::new();
                for i in 0..4 {
                    inputs.push(x >> i & 1 == 1);
                }
                for i in 0..4 {
                    inputs.push(y >> i & 1 == 1);
                }
                let out = eval(&g, &inputs);
                let mut got = 0u64;
                for (i, &bit) in out.iter().enumerate() {
                    got |= (bit as u64) << i;
                }
                assert_eq!(got, x * y, "{x} * {y}");
            }
        }
    }

    #[test]
    fn popcount_and_majority() {
        let mut g = Aig::new("pc");
        let bits = g.input_word("x", 7);
        let cnt = popcount(&mut g, &bits);
        let maj = majority(&mut g, &bits);
        g.output_word("c", &cnt);
        g.output("m", maj);
        for pattern in 0..128u32 {
            let inputs: Vec<bool> = (0..7).map(|i| pattern >> i & 1 == 1).collect();
            let out = eval(&g, &inputs);
            let mut got = 0u32;
            for (i, &bit) in out.iter().enumerate().take(cnt.len()) {
                got |= (bit as u32) << i;
            }
            assert_eq!(got, pattern.count_ones(), "popcount {pattern:b}");
            assert_eq!(
                out[cnt.len()],
                pattern.count_ones() >= 4,
                "majority {pattern:b}"
            );
        }
    }

    #[test]
    fn decoder_is_onehot() {
        let mut g = Aig::new("dec");
        let sel = g.input_word("s", 3);
        let outs = decoder(&mut g, &sel, None);
        g.output_word("o", &outs);
        for code in 0..8usize {
            let inputs: Vec<bool> = (0..3).map(|i| code >> i & 1 == 1).collect();
            let out = eval(&g, &inputs);
            for (i, &bit) in out.iter().enumerate() {
                assert_eq!(bit, i == code);
            }
        }
    }

    #[test]
    fn priority_encoder_grants_first() {
        let mut g = Aig::new("pri");
        let req = g.input_word("r", 5);
        let (grant, valid) = priority_encoder(&mut g, &req);
        g.output_word("g", &grant);
        g.output("v", valid);
        let out = eval(&g, &[false, true, true, false, true]);
        assert_eq!(&out[..5], &[false, true, false, false, false]);
        assert!(out[5]);
        let out = eval(&g, &[false; 5]);
        assert!(!out[5]);
    }

    #[test]
    fn barrel_shifters() {
        let mut g = Aig::new("shl");
        let w = g.input_word("w", 8);
        let amt = g.input_word("k", 3);
        let l = barrel_shift_left(&mut g, &w, &amt);
        g.output_word("l", &l);
        for value in [0b1011_0110u64, 0xff, 0x01, 0x80] {
            for k in 0..8u64 {
                let mut inputs = Vec::new();
                for i in 0..8 {
                    inputs.push(value >> i & 1 == 1);
                }
                for i in 0..3 {
                    inputs.push(k >> i & 1 == 1);
                }
                let out = eval(&g, &inputs);
                let mut left = 0u64;
                for (i, &bit) in out.iter().enumerate() {
                    left |= (bit as u64) << i;
                }
                assert_eq!(left, value << k & 0xff, "shl {value:#x} by {k}");
            }
        }
    }

    #[test]
    fn leading_zero_detector() {
        let mut g = Aig::new("lzd");
        let w = g.input_word("w", 8);
        let (lz, all_zero) = leading_zeros(&mut g, &w);
        g.output_word("z", &lz);
        g.output("az", all_zero);
        for value in [0u64, 1, 0x80, 0x40, 0x0f, 0xff] {
            let inputs: Vec<bool> = (0..8).map(|i| value >> i & 1 == 1).collect();
            let out = eval(&g, &inputs);
            let mut got = 0u64;
            for (i, &bit) in out.iter().enumerate().take(lz.len()) {
                got |= (bit as u64) << i;
            }
            if value == 0 {
                assert!(out[lz.len()], "all_zero flag for 0");
            } else {
                assert_eq!(
                    got,
                    (value as u8).leading_zeros() as u64,
                    "lz of {value:#x}"
                );
                assert!(!out[lz.len()]);
            }
        }
    }
}
