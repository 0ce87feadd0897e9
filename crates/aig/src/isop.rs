//! Irredundant sum-of-products extraction (Minato–Morreale ISOP).
//!
//! Used by the refactoring pass to derive a compact two-level cover of a cut
//! function before algebraic factoring rebuilds it as an AIG (the paper's
//! §3.1.3 relies on exactly this ABC machinery being applicable unchanged).

use crate::tt::TruthTable;

/// A product term over cut variables: bit `i` of `pos`/`neg` selects the
/// positive/negative literal of variable `i`. A cube with both bits set for
/// the same variable is contradictory (never produced here).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Cube {
    /// Positive literals bitset.
    pub pos: u32,
    /// Negative literals bitset.
    pub neg: u32,
}

impl Cube {
    /// The universal cube (no literals, covers everything).
    pub const UNIVERSE: Cube = Cube { pos: 0, neg: 0 };

    /// Add the positive literal of `var`.
    #[must_use]
    fn with_pos(self, var: usize) -> Cube {
        Cube {
            pos: self.pos | 1 << var,
            neg: self.neg,
        }
    }

    /// Add the negative literal of `var`.
    #[must_use]
    fn with_neg(self, var: usize) -> Cube {
        Cube {
            pos: self.pos,
            neg: self.neg | 1 << var,
        }
    }

    /// Truth table of this cube over `vars` variables.
    fn table(self, vars: usize) -> TruthTable {
        let mut t = TruthTable::ones(vars);
        for v in 0..vars {
            if self.pos >> v & 1 == 1 {
                t.and_with(&TruthTable::variable(vars, v));
            }
            if self.neg >> v & 1 == 1 {
                let mut nv = TruthTable::variable(vars, v);
                nv.invert();
                t.and_with(&nv);
            }
        }
        t
    }
}

/// Compute an irredundant SOP cover `c` with `lower ⊆ c ⊆ upper`.
///
/// For a completely specified function pass `lower == upper == f`.
/// Returns the cube list; the cover of the cubes is guaranteed to lie within
/// the interval (checked in debug builds).
///
/// # Panics
///
/// Panics if `lower ⊄ upper` (the interval is infeasible).
pub fn isop(lower: &TruthTable, upper: &TruthTable) -> Vec<Cube> {
    assert!(
        lower.is_subset_of(upper),
        "isop: lower bound not contained in upper bound"
    );
    let vars = lower.num_vars();
    let (cover, _table) = isop_rec(lower, upper, vars, 0);
    debug_assert!({
        let mut c = TruthTable::zeros(vars);
        for cube in &cover {
            c.or_with(&cube.table(vars));
        }
        lower.is_subset_of(&c) && c.is_subset_of(upper)
    });
    cover
}

fn isop_rec(
    lower: &TruthTable,
    upper: &TruthTable,
    vars: usize,
    first_var: usize,
) -> (Vec<Cube>, TruthTable) {
    if lower.is_zero() {
        return (Vec::new(), TruthTable::zeros(vars));
    }
    if upper.is_ones() {
        return (vec![Cube::UNIVERSE], TruthTable::ones(vars));
    }
    // Find a variable both bounds can be split on.
    let mut var = first_var;
    while var < vars && !lower.depends_on(var) && !upper.depends_on(var) {
        var += 1;
    }
    assert!(var < vars, "isop: non-constant interval with empty support");

    let l0 = lower.cofactor0(var);
    let l1 = lower.cofactor1(var);
    let u0 = upper.cofactor0(var);
    let u1 = upper.cofactor1(var);

    // Cubes that must contain the negative literal of `var`.
    let mut bound = u1.not();
    bound.and_with(&l0);
    let (c0, t0) = isop_rec(&bound, &u0, vars, var + 1);
    // Cubes that must contain the positive literal of `var`.
    let mut bound = u0.not();
    bound.and_with(&l1);
    let (c1, t1) = isop_rec(&bound, &u1, vars, var + 1);
    // Remaining minterms, coverable without mentioning `var`.
    let mut lnew = t0.not();
    lnew.and_with(&l0);
    let mut lnew1 = t1.not();
    lnew1.and_with(&l1);
    lnew.or_with(&lnew1);
    let mut unew = u0;
    unew.and_with(&u1);
    let (c2, t2) = isop_rec(&lnew, &unew, vars, var + 1);

    let v = TruthTable::variable(vars, var);
    let mut table = v.not();
    table.and_with(&t0);
    let mut pos = v;
    pos.and_with(&t1);
    table.or_with(&pos);
    table.or_with(&t2);
    let mut cover = Vec::with_capacity(c0.len() + c1.len() + c2.len());
    cover.extend(c0.into_iter().map(|c| c.with_neg(var)));
    cover.extend(c1.into_iter().map(|c| c.with_pos(var)));
    cover.extend(c2);
    (cover, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cover_table(cover: &[Cube], vars: usize) -> TruthTable {
        let mut t = TruthTable::zeros(vars);
        for c in cover {
            t = t.or(&c.table(vars));
        }
        t
    }

    #[test]
    fn isop_exact_function() {
        // maj3 = ab + ac + bc
        let a = TruthTable::variable(3, 0);
        let b = TruthTable::variable(3, 1);
        let c = TruthTable::variable(3, 2);
        let f = a.and(&b).or(&a.and(&c)).or(&b.and(&c));
        let cover = isop(&f, &f);
        assert_eq!(cover_table(&cover, 3), f);
        assert_eq!(cover.len(), 3, "maj3 has a 3-cube irredundant cover");
    }

    #[test]
    fn isop_xor() {
        let a = TruthTable::variable(2, 0);
        let b = TruthTable::variable(2, 1);
        let f = a.xor(&b);
        let cover = isop(&f, &f);
        assert_eq!(cover_table(&cover, 2), f);
        assert_eq!(cover.len(), 2);
        assert!(cover.iter().all(|c| (c.pos | c.neg).count_ones() == 2));
    }

    #[test]
    fn isop_constants() {
        let zero = TruthTable::zeros(3);
        let one = TruthTable::ones(3);
        assert!(isop(&zero, &zero).is_empty());
        let cover = isop(&one, &one);
        assert_eq!(cover, vec![Cube::UNIVERSE]);
    }

    #[test]
    fn isop_with_dont_cares() {
        // lower = ab, upper = a (don't care when a=1, b=0): cover can be just `a`.
        let a = TruthTable::variable(2, 0);
        let b = TruthTable::variable(2, 1);
        let lower = a.and(&b);
        let cover = isop(&lower, &a);
        assert_eq!(cover.len(), 1);
        assert_eq!(cover[0], Cube::UNIVERSE.with_pos(0));
    }

    #[test]
    fn isop_larger_function() {
        // 7-variable threshold function; checks the multi-word path.
        let vars = 7;
        let mut f = TruthTable::zeros(vars);
        for p in 0..(1usize << vars) {
            if (p as u32).count_ones() >= 4 {
                f.set_bit(p, true);
            }
        }
        let cover = isop(&f, &f);
        assert_eq!(cover_table(&cover, vars), f);
        // Every cube of a monotone function's ISOP is positive.
        assert!(cover.iter().all(|c| c.neg == 0));
    }
}
