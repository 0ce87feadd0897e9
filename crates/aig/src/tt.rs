//! Truth-table manipulation for cut functions.
//!
//! [`TruthTable`] supports the operations the optimizer needs: cofactoring,
//! variable support and ISOP extraction (in [`crate::isop`]).
//!
//! # Small-table representation
//!
//! Tables over **up to 6 variables fit in one inline `u64`** — no heap
//! allocation at all. Only tables over 7+ variables (`2^(vars-6)` words)
//! spill to a heap vector. The representation is an invariant, not a
//! heuristic: `vars <= 6` always uses `Repr::Small` and `vars > 6` always
//! uses `Repr::Big`, so equality/hashing never have to normalize.
//!
//! Because the rewriting loops (`opt`, `synth`, `isop`) run almost entirely
//! on ≤6-variable cut functions, every operator also has an **in-place
//! variant** (`invert`, `and_with`, `cofactor0_in_place`, …) so the hot
//! paths neither allocate nor copy: a ≤6-variable cofactor is a couple of
//! shifts on a register-resident word.

use std::fmt;
use std::hash::{Hash, Hasher};

/// Internal storage: one inline word for ≤6 variables, heap words above.
#[derive(Clone, Debug)]
enum Repr {
    /// `vars <= 6`: the whole table in one word, tail bits zero.
    Small(u64),
    /// `vars > 6`: `2^(vars-6)` words.
    Big(Vec<u64>),
}

/// A complete truth table over `vars` variables (`2^vars` bits, LSB = the
/// all-zero input pattern, variable `i` toggles with period `2^i`).
#[derive(Clone, Debug)]
pub struct TruthTable {
    vars: usize,
    repr: Repr,
}

/// Bit masks of the six "packed" variables within one 64-bit word.
pub const VAR_MASKS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

impl TruthTable {
    /// Constant-false table over `vars` variables.
    pub fn zeros(vars: usize) -> Self {
        let repr = if vars <= 6 {
            Repr::Small(0)
        } else {
            Repr::Big(vec![0; 1usize << (vars - 6)])
        };
        TruthTable { vars, repr }
    }

    /// Constant-true table over `vars` variables.
    pub fn ones(vars: usize) -> Self {
        let repr = if vars <= 6 {
            Repr::Small(Self::tail_mask(vars))
        } else {
            Repr::Big(vec![!0; 1usize << (vars - 6)])
        };
        TruthTable { vars, repr }
    }

    /// Projection table of variable `var` over `vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `var >= vars`.
    pub fn variable(vars: usize, var: usize) -> Self {
        assert!(var < vars, "variable index out of range");
        let mut t = Self::zeros(vars);
        match &mut t.repr {
            Repr::Small(w) => *w = VAR_MASKS[var] & Self::tail_mask(vars),
            Repr::Big(words) => {
                for (i, w) in words.iter_mut().enumerate() {
                    *w = Self::variable_word(var, i);
                }
            }
        }
        t
    }

    /// Build from the low `2^vars` bits of a single word (`vars <= 6`).
    pub fn from_word(vars: usize, word: u64) -> Self {
        assert!(vars <= 6, "from_word limited to 6 variables");
        TruthTable {
            vars,
            repr: Repr::Small(word & Self::tail_mask(vars)),
        }
    }

    /// Build from `2^(vars-6)` words (one word for `vars <= 6`, whose bits
    /// past `2^vars` are dropped). Allocates only for `vars > 6`.
    pub(crate) fn from_words(vars: usize, words: &[u64]) -> Self {
        if vars <= 6 {
            return Self::from_word(vars, words[0]);
        }
        debug_assert_eq!(words.len(), 1usize << (vars - 6));
        TruthTable {
            vars,
            repr: Repr::Big(words.to_vec()),
        }
    }

    /// Word `word` of the projection table of variable `var` (any number
    /// of variables above `var`).
    pub(crate) fn variable_word(var: usize, word: usize) -> u64 {
        if var < 6 {
            VAR_MASKS[var]
        } else if word >> (var - 6) & 1 == 1 {
            !0
        } else {
            0
        }
    }

    /// The table as a single word (`vars <= 6` only).
    pub fn as_word(&self) -> u64 {
        match self.repr {
            Repr::Small(w) => w,
            Repr::Big(_) => panic!("as_word limited to 6 variables"),
        }
    }

    /// True when the table is stored inline (always the case for ≤6 vars).
    #[inline]
    pub fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Small(_))
    }

    /// Number of variables.
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.vars
    }

    /// Raw words (the inline word is returned as a one-element slice).
    #[inline]
    pub fn words(&self) -> &[u64] {
        match &self.repr {
            Repr::Small(w) => std::slice::from_ref(w),
            Repr::Big(v) => v,
        }
    }

    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.repr {
            Repr::Small(w) => std::slice::from_mut(w),
            Repr::Big(v) => v,
        }
    }

    fn tail_mask(vars: usize) -> u64 {
        if vars >= 6 {
            !0
        } else {
            (1u64 << (1usize << vars)) - 1
        }
    }

    /// Bit `index` of the table.
    #[inline]
    pub fn bit(&self, index: usize) -> bool {
        self.words()[index / 64] >> (index % 64) & 1 == 1
    }

    /// Set bit `index`.
    pub fn set_bit(&mut self, index: usize, value: bool) {
        let w = &mut self.words_mut()[index / 64];
        if value {
            *w |= 1u64 << (index % 64);
        } else {
            *w &= !(1u64 << (index % 64));
        }
    }

    /// Number of ON-set minterms.
    pub fn count_ones(&self) -> usize {
        match &self.repr {
            Repr::Small(w) => w.count_ones() as usize,
            Repr::Big(v) => v.iter().map(|w| w.count_ones() as usize).sum(),
        }
    }

    /// True if the table is constant false.
    #[inline]
    pub fn is_zero(&self) -> bool {
        match &self.repr {
            Repr::Small(w) => *w == 0,
            Repr::Big(v) => v.iter().all(|&w| w == 0),
        }
    }

    /// True if the table is constant true (allocation-free).
    #[inline]
    pub fn is_ones(&self) -> bool {
        match &self.repr {
            Repr::Small(w) => *w == Self::tail_mask(self.vars),
            Repr::Big(v) => v.iter().all(|&w| w == !0),
        }
    }

    /// Complement in place.
    #[inline]
    pub fn invert(&mut self) {
        match &mut self.repr {
            Repr::Small(w) => *w = !*w & Self::tail_mask(self.vars),
            Repr::Big(v) => {
                for w in v.iter_mut() {
                    *w = !*w;
                }
            }
        }
    }

    /// Complement.
    #[must_use]
    pub fn not(&self) -> Self {
        let mut out = self.clone();
        out.invert();
        out
    }

    /// In-place conjunction with `other`.
    ///
    /// # Panics
    ///
    /// Panics if variable counts differ (same for the other binary ops).
    #[inline]
    pub fn and_with(&mut self, other: &Self) {
        assert_eq!(self.vars, other.vars);
        match (&mut self.repr, &other.repr) {
            (Repr::Small(a), Repr::Small(b)) => *a &= *b,
            (Repr::Big(a), Repr::Big(b)) => {
                for (w, o) in a.iter_mut().zip(b) {
                    *w &= o;
                }
            }
            _ => unreachable!("equal vars implies equal repr"),
        }
    }

    /// In-place disjunction with `other`.
    #[inline]
    pub fn or_with(&mut self, other: &Self) {
        assert_eq!(self.vars, other.vars);
        match (&mut self.repr, &other.repr) {
            (Repr::Small(a), Repr::Small(b)) => *a |= *b,
            (Repr::Big(a), Repr::Big(b)) => {
                for (w, o) in a.iter_mut().zip(b) {
                    *w |= o;
                }
            }
            _ => unreachable!("equal vars implies equal repr"),
        }
    }

    /// In-place exclusive or with `other`.
    #[inline]
    fn xor_with(&mut self, other: &Self) {
        assert_eq!(self.vars, other.vars);
        match (&mut self.repr, &other.repr) {
            (Repr::Small(a), Repr::Small(b)) => *a ^= *b,
            (Repr::Big(a), Repr::Big(b)) => {
                for (w, o) in a.iter_mut().zip(b) {
                    *w ^= o;
                }
            }
            _ => unreachable!("equal vars implies equal repr"),
        }
    }

    /// Conjunction.
    #[must_use]
    pub fn and(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.and_with(other);
        out
    }

    /// Disjunction.
    #[must_use]
    pub fn or(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.or_with(other);
        out
    }

    /// Exclusive or.
    #[must_use]
    pub fn xor(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.xor_with(other);
        out
    }

    /// In-place negative cofactor with respect to variable `var` (the half
    /// where `var = 0`, replicated).
    pub fn cofactor0_in_place(&mut self, var: usize) {
        if var < 6 {
            let shift = 1u32 << var;
            let mask = !VAR_MASKS[var];
            for w in self.words_mut() {
                let lo = *w & mask;
                *w = lo | lo << shift;
            }
        } else {
            let Repr::Big(words) = &mut self.repr else {
                unreachable!("var >= 6 implies a multi-word table");
            };
            let period = 1usize << (var - 6);
            for i in 0..words.len() {
                if i / period % 2 == 1 {
                    words[i] = words[i - period];
                }
            }
        }
    }

    /// In-place positive cofactor with respect to variable `var`.
    pub fn cofactor1_in_place(&mut self, var: usize) {
        if var < 6 {
            let shift = 1u32 << var;
            let mask = VAR_MASKS[var];
            for w in self.words_mut() {
                let hi = *w & mask;
                *w = hi | hi >> shift;
            }
        } else {
            let Repr::Big(words) = &mut self.repr else {
                unreachable!("var >= 6 implies a multi-word table");
            };
            let period = 1usize << (var - 6);
            for i in 0..words.len() {
                if (i / period).is_multiple_of(2) {
                    words[i] = words[i + period];
                }
            }
        }
    }

    /// Negative cofactor with respect to variable `var`.
    #[must_use]
    pub fn cofactor0(&self, var: usize) -> Self {
        let mut out = self.clone();
        out.cofactor0_in_place(var);
        out
    }

    /// Positive cofactor with respect to variable `var`.
    #[must_use]
    pub fn cofactor1(&self, var: usize) -> Self {
        let mut out = self.clone();
        out.cofactor1_in_place(var);
        out
    }

    /// True if `self`'s ON-set is contained in `other`'s (`self & !other ==
    /// 0`), without materializing either intermediate.
    pub fn is_subset_of(&self, other: &Self) -> bool {
        if self.vars != other.vars {
            return false;
        }
        match (&self.repr, &other.repr) {
            (Repr::Small(a), Repr::Small(b)) => *a & !*b == 0,
            (Repr::Big(a), Repr::Big(b)) => a.iter().zip(b).all(|(&x, &y)| x & !y == 0),
            _ => false,
        }
    }

    /// True if `self == other.not()`, without materializing the complement.
    pub fn is_complement_of(&self, other: &Self) -> bool {
        if self.vars != other.vars {
            return false;
        }
        match (&self.repr, &other.repr) {
            (Repr::Small(a), Repr::Small(b)) => *a == !*b & Self::tail_mask(self.vars),
            (Repr::Big(a), Repr::Big(b)) => a.iter().zip(b).all(|(&x, &y)| x == !y),
            _ => false,
        }
    }

    /// True if the function depends on variable `var` (allocation-free: the
    /// two cofactors are compared without materializing either).
    pub fn depends_on(&self, var: usize) -> bool {
        if var < 6 {
            let shift = 1u32 << var;
            let mask = !VAR_MASKS[var];
            self.words().iter().any(|&w| (w >> shift ^ w) & mask != 0)
        } else {
            let Repr::Big(words) = &self.repr else {
                return false;
            };
            let period = 1usize << (var - 6);
            (0..words.len())
                .filter(|i| (i / period).is_multiple_of(2))
                .any(|i| words[i] != words[i + period])
        }
    }

    /// Indices of variables the function actually depends on.
    pub fn support(&self) -> Vec<usize> {
        (0..self.vars).filter(|&v| self.depends_on(v)).collect()
    }

    /// Bitmask of variables the function depends on (`vars <= 32`).
    pub fn support_mask(&self) -> u32 {
        let mut mask = 0u32;
        for v in 0..self.vars {
            if self.depends_on(v) {
                mask |= 1 << v;
            }
        }
        mask
    }
}

impl PartialEq for TruthTable {
    fn eq(&self, other: &Self) -> bool {
        self.vars == other.vars
            && match (&self.repr, &other.repr) {
                (Repr::Small(a), Repr::Small(b)) => a == b,
                (Repr::Big(a), Repr::Big(b)) => a == b,
                _ => false,
            }
    }
}

impl Eq for TruthTable {}

impl Hash for TruthTable {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.vars.hash(state);
        match &self.repr {
            Repr::Small(w) => w.hash(state),
            Repr::Big(v) => v.hash(state),
        }
    }
}

impl fmt::Display for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tt{}[", self.vars)?;
        for w in self.words().iter().rev() {
            write!(f, "{w:016x}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variable_projection() {
        let t = TruthTable::variable(3, 1);
        // var 1 toggles with period 2.
        for p in 0..8usize {
            assert_eq!(t.bit(p), p >> 1 & 1 == 1);
        }
    }

    #[test]
    fn cofactors() {
        // f = a & b over 2 vars: table 1000 = 0x8
        let f = TruthTable::from_word(2, 0x8);
        assert!(f.cofactor0(0).is_zero());
        let c1 = f.cofactor1(0);
        // f|a=1 = b
        assert_eq!(c1, TruthTable::variable(2, 1));
        assert_eq!(f.support(), vec![0, 1]);
        assert_eq!(f.support_mask(), 0b11);
    }

    #[test]
    fn large_variable_and_cofactor() {
        let t = TruthTable::variable(8, 7);
        assert!(t.depends_on(7));
        assert!(!t.depends_on(3));
        assert!(t.cofactor1(7).is_ones());
        assert!(t.cofactor0(7).is_zero());
    }

    #[test]
    fn small_tables_are_inline() {
        for vars in 0..=6 {
            assert!(TruthTable::zeros(vars).is_inline());
            assert!(TruthTable::ones(vars).is_inline());
            let mut t = TruthTable::zeros(vars);
            t.set_bit(0, true);
            t.invert();
            if vars >= 2 {
                t.and_with(&TruthTable::variable(vars, 1));
                t.cofactor0_in_place(0);
            }
            assert!(t.is_inline(), "{vars}-var table must stay inline");
        }
        assert!(!TruthTable::zeros(7).is_inline());
    }

    #[test]
    fn in_place_ops_match_cloning_ops() {
        // Exercise both the inline (5-var) and heap (8-var) paths.
        for vars in [5usize, 8] {
            let a = TruthTable::variable(vars, 1);
            let b = TruthTable::variable(vars, vars - 1);
            let mut x = a.clone();
            x.and_with(&b);
            assert_eq!(x, a.and(&b));
            let mut x = a.clone();
            x.or_with(&b);
            assert_eq!(x, a.or(&b));
            let mut x = a.clone();
            x.xor_with(&b);
            assert_eq!(x, a.xor(&b));
            let mut x = a.xor(&b);
            x.invert();
            assert_eq!(x, a.xor(&b).not());
            for v in [0, vars - 1] {
                let f = a.xor(&b).or(&TruthTable::variable(vars, v));
                let mut c0 = f.clone();
                c0.cofactor0_in_place(v);
                assert_eq!(c0, f.cofactor0(v));
                let mut c1 = f.clone();
                c1.cofactor1_in_place(v);
                assert_eq!(c1, f.cofactor1(v));
                assert_eq!(f.depends_on(v), f.cofactor0(v) != f.cofactor1(v));
            }
        }
    }
}
