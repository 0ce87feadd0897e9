//! Property tests pinning the refactored hot-path data structures to naive
//! reference implementations:
//!
//! * inline signature-filtered cut enumeration vs. a `Vec`-based
//!   reimplementation of the original algorithm (exact list equality),
//! * inline-`u64` truth tables vs. an explicit `Vec<bool>` bit model across
//!   all operators, straddling the 6 ↔ 7-variable representation boundary,
//!   and
//! * the resynthesis engine's isolation cost vs. the support lower bound the
//!   evaluate prefilter relies on, and a memo-warm [`Synthesizer`] vs. a
//!   fresh one (same cost, same nodes), and
//! * the rewrite passes' costing vs. the cone walk and a real build: every
//!   enumerated cut's stored function vs. [`cut_function`], and a
//!   [`DryRun`] build vs. building into a clone of its base graph, and
//! * cut lists carried from one enumeration to the next vs. a cold
//!   enumeration (leaves and function words).

use proptest::prelude::*;

use xsfq_aig::cuts::{cut_function, enumerate_cuts, enumerate_cuts_into, Cut, CutArena};
use xsfq_aig::opt;
use xsfq_aig::synth::Synthesizer;
use xsfq_aig::tt::TruthTable;
use xsfq_aig::{Aig, DryRun, Lit, NodeId, NodeKind};

// ---------------------------------------------------------------- cut refs

/// Reference cut: a plain sorted vector of leaf indices.
type RefCut = Vec<usize>;

fn ref_merge(a: &RefCut, b: &RefCut, k: usize) -> Option<RefCut> {
    let mut out: RefCut = a.iter().chain(b).copied().collect();
    out.sort_unstable();
    out.dedup();
    (out.len() <= k).then_some(out)
}

fn ref_dominates(a: &RefCut, b: &RefCut) -> bool {
    a.len() <= b.len() && a.iter().all(|l| b.contains(l))
}

/// The original (pre-refactor) enumeration algorithm, verbatim: quadratic
/// `any` + `retain` dominance filtering over heap cuts.
fn ref_enumerate(aig: &Aig, k: usize, max_cuts: usize) -> Vec<Vec<RefCut>> {
    let mut cuts: Vec<Vec<RefCut>> = vec![Vec::new(); aig.num_nodes()];
    for (i, kind) in aig.nodes().iter().enumerate() {
        match *kind {
            NodeKind::And { a, b } => {
                let mut list: Vec<RefCut> = Vec::new();
                let (ca, cb) = (
                    cuts[a.node().index()].clone(),
                    cuts[b.node().index()].clone(),
                );
                for cut_a in &ca {
                    for cut_b in &cb {
                        let Some(merged) = ref_merge(cut_a, cut_b, k) else {
                            continue;
                        };
                        if list.iter().any(|c| ref_dominates(c, &merged)) {
                            continue;
                        }
                        list.retain(|c| !ref_dominates(&merged, c));
                        list.push(merged);
                    }
                }
                list.sort_by_key(RefCut::len);
                list.truncate(max_cuts);
                list.push(vec![i]);
                cuts[i] = list;
            }
            _ => cuts[i] = vec![vec![i]],
        }
    }
    cuts
}

/// Random DAG from a recipe of (op, operand, operand) triples.
fn circuit_from_recipe(recipe: &[(u8, usize, usize)], inputs: usize) -> Aig {
    let mut g = Aig::new("rand");
    let mut pool: Vec<Lit> = (0..inputs).map(|i| g.input(format!("x{i}"))).collect();
    for &(op, i, j) in recipe {
        let a = pool[i % pool.len()];
        let b = pool[j % pool.len()];
        let lit = match op % 6 {
            0 => g.and(a, b),
            1 => g.or(a, b),
            2 => g.xor(a, b),
            3 => g.nand(a, b),
            4 => g.mux(a, b, !a),
            _ => g.xnor(a, b),
        };
        pool.push(lit);
    }
    let o = *pool.last().unwrap();
    g.output("o", o);
    g
}

/// `g` rebuilt with its ANDs created in another topological order, drawn
/// from `seed`: the same structure under new node ids.
fn reordered(g: &Aig, seed: u64) -> Aig {
    let mut out = Aig::new("reordered");
    let mut map: Vec<Option<Lit>> = vec![None; g.num_nodes()];
    map[0] = Some(Lit::FALSE);
    for (i, &id) in g.inputs().iter().enumerate() {
        map[id.index()] = Some(out.input(g.input_name(i)));
    }
    // Shuffle the ANDs, then sweep the shuffled list, building each AND
    // whose fanins exist, until every AND is built.
    let mut pending: Vec<usize> = g.and_ids().map(NodeId::index).collect();
    let mut state = seed | 1;
    for i in (1..pending.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        pending.swap(i, (state % (i as u64 + 1)) as usize);
    }
    let lit = |map: &[Option<Lit>], l: Lit| {
        map[l.node().index()].map(|m| m.complement_if(l.is_complement()))
    };
    while !pending.is_empty() {
        pending.retain(|&i| {
            let NodeKind::And { a, b } = g.nodes()[i] else {
                unreachable!("only ANDs are pending");
            };
            match (lit(&map, a), lit(&map, b)) {
                (Some(fa), Some(fb)) => {
                    map[i] = Some(out.and(fa, fb));
                    false
                }
                _ => true,
            }
        });
    }
    for o in g.outputs() {
        let driver = lit(&map, o.lit).expect("every node is built");
        out.output(o.name.clone(), driver);
    }
    out
}

// ----------------------------------------------------------------- tt refs

/// Explicit bit-model of a truth table.
fn ref_bits(t: &TruthTable) -> Vec<bool> {
    (0..1usize << t.num_vars()).map(|p| t.bit(p)).collect()
}

fn table_from_bits(vars: usize, bits: &[bool]) -> TruthTable {
    let mut t = TruthTable::zeros(vars);
    for (p, &b) in bits.iter().enumerate() {
        t.set_bit(p, b);
    }
    t
}

/// Build a `vars`-variable table from a stream of seed words.
fn table_from_words(vars: usize, words: &[u64]) -> TruthTable {
    let mut t = TruthTable::zeros(vars);
    for p in 0..1usize << vars {
        let w = words[(p / 64) % words.len()];
        t.set_bit(p, w >> (p % 64) & 1 == 1);
    }
    t
}

/// How a synthesis test table is drawn: variable count, seed words (16
/// per table), extra AND-ed tables, a variable-drop mask, and a formula
/// recipe.
type TableSeed = (usize, Vec<u64>, usize, u32, Vec<(u8, usize)>);

/// Draws for [`synth_table`]: 2..=10 variables, so inline (≤6) and
/// multi-word tables both occur.
fn table_seed() -> impl Strategy<Value = TableSeed> {
    (
        2usize..=10,
        prop::collection::vec(any::<u64>(), 48),
        0usize..3,
        any::<u32>(),
        prop::collection::vec((any::<u8>(), 0usize..64), 0..24),
    )
}

/// A table for the synthesis properties. An even-length recipe gives the
/// AND of `1 + density` random tables (sparser ON-sets have more cofactor
/// rules). An odd-length one gives a formula: starting from variable 0,
/// each step ANDs, ORs, XORs or AND-NOTs the running function with an
/// earlier one, so AND/OR chains whose cost is exactly the support bound
/// occur. Either way the table is then made independent of each variable
/// whose two-bit field in `drop` is zero (a quarter of them), so every
/// support size from 0 to `vars` occurs.
fn synth_table((vars, words, density, drop, recipe): &TableSeed) -> TruthTable {
    let vars = *vars;
    let mut t = if recipe.len() % 2 == 0 {
        let mut t = table_from_words(vars, &words[..16]);
        for chunk in words[16..].chunks(16).take(*density) {
            t.and_with(&table_from_words(vars, chunk));
        }
        t
    } else {
        let mut pool: Vec<TruthTable> = (0..vars).map(|v| TruthTable::variable(vars, v)).collect();
        let mut f = pool[0].clone();
        for &(op, i) in recipe {
            let x = &pool[i % pool.len()];
            f = match op % 4 {
                0 => f.and(x),
                1 => f.or(x),
                2 => f.xor(x),
                _ => f.and(&x.not()),
            };
            pool.push(f.clone());
        }
        f
    };
    for v in (0..vars).filter(|v| drop >> (2 * v) & 3 == 0) {
        t.cofactor0_in_place(v);
    }
    t
}

/// The leaf literals of a `vars`-variable build over `g`: each draw picks
/// the constant, a repeat of an earlier leaf or a node of `g`, complemented
/// or not.
fn leaf_lits(g: &Aig, draws: &[(u16, bool)], vars: usize) -> Vec<Lit> {
    let mut leaves: Vec<Lit> = Vec::with_capacity(vars);
    for &(pick, complement) in &draws[..vars] {
        let pick = pick as usize;
        let lit = match pick % 8 {
            0 => Lit::FALSE,
            1 if !leaves.is_empty() => leaves[pick / 8 % leaves.len()],
            _ => NodeId::from_index(pick / 8 % g.num_nodes()).lit(),
        };
        leaves.push(lit.complement_if(complement));
    }
    leaves
}

/// `t` built by `synth` into a graph of its own: the nodes it creates.
fn build_alone(synth: &mut Synthesizer, t: &TruthTable) -> Aig {
    let mut g = Aig::new("alone");
    let leaves: Vec<Lit> = (0..t.num_vars())
        .map(|i| g.input(format!("x{i}")))
        .collect();
    let out = synth.build(&mut g, t, &leaves);
    g.output("f", out);
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The inline signature-filtered enumeration produces exactly the same
    /// per-node cut lists as the naive reference, for every node, in order.
    #[test]
    fn cut_enumeration_matches_reference(
        recipe in prop::collection::vec((any::<u8>(), 0usize..64, 0usize..64), 4..40),
        inputs in 2usize..6,
        k in 2usize..6,
        max_cuts in 2usize..10,
    ) {
        let g = circuit_from_recipe(&recipe, inputs);
        let fast = enumerate_cuts(&g, k, max_cuts);
        let slow = ref_enumerate(&g, k, max_cuts);
        prop_assert_eq!(fast.num_nodes(), slow.len());
        for (node, (f, s)) in fast.iter().zip(&slow).enumerate() {
            prop_assert_eq!(f.len(), s.len(), "cut count differs at node {}", node);
            for (fc, sc) in f.iter().zip(s) {
                let fl: Vec<usize> = fc.leaves().iter().map(|l| l.index()).collect();
                prop_assert_eq!(&fl, sc, "cut leaves differ at node {}", node);
            }
        }
    }

    /// Pairwise merge/dominance agree with the reference on arbitrary leaf
    /// sets (ids spread past 64 so signatures collide).
    #[test]
    fn merge_and_dominance_match_reference(
        a in prop::collection::vec(0usize..200, 1..7),
        b in prop::collection::vec(0usize..200, 1..7),
        k in 2usize..9,
    ) {
        let mut a = a; a.sort_unstable(); a.dedup();
        let mut b = b; b.sort_unstable(); b.dedup();
        let ca = Cut::from_leaves(&a.iter().map(|&i| NodeId::from_index(i)).collect::<Vec<_>>());
        let cb = Cut::from_leaves(&b.iter().map(|&i| NodeId::from_index(i)).collect::<Vec<_>>());
        prop_assert_eq!(ca.dominates(&cb), ref_dominates(&a, &b));
        prop_assert_eq!(cb.dominates(&ca), ref_dominates(&b, &a));
        match (ca.merge(&cb, k), ref_merge(&a, &b, k)) {
            (Some(m), Some(r)) => {
                let ml: Vec<usize> = m.leaves().iter().map(|l| l.index()).collect();
                prop_assert_eq!(ml, r);
            }
            (None, None) => {}
            (fast, slow) => prop_assert!(
                false,
                "merge disagreement: fast={:?} slow={:?}",
                fast.is_some(),
                slow.is_some()
            ),
        }
    }

    /// All truth-table operators agree with the explicit bit model across
    /// the inline ↔ heap boundary (5..=8 variables).
    #[test]
    fn tt_ops_match_bit_model_across_boundary(
        words in prop::collection::vec(any::<u64>(), 4),
        other_words in prop::collection::vec(any::<u64>(), 4),
        vars in 5usize..9,
    ) {
        let t = table_from_words(vars, &words);
        let u = table_from_words(vars, &other_words);
        prop_assert_eq!(t.is_inline(), vars <= 6, "repr invariant");
        let bits_t = ref_bits(&t);
        let bits_u = ref_bits(&u);
        let n = 1usize << vars;

        let not = t.not();
        let and = t.and(&u);
        let or = t.or(&u);
        let xor = t.xor(&u);
        for p in 0..n {
            prop_assert_eq!(not.bit(p), !bits_t[p]);
            prop_assert_eq!(and.bit(p), bits_t[p] && bits_u[p]);
            prop_assert_eq!(or.bit(p), bits_t[p] || bits_u[p]);
            prop_assert_eq!(xor.bit(p), bits_t[p] ^ bits_u[p]);
        }
        prop_assert_eq!(t.count_ones(), bits_t.iter().filter(|&&b| b).count());
        prop_assert!(!t.is_zero() || bits_t.iter().all(|&b| !b));

        for var in 0..vars {
            let c0 = t.cofactor0(var);
            let c1 = t.cofactor1(var);
            let mut dep = false;
            for p in 0..n {
                let p0 = p & !(1 << var);
                let p1 = p | 1 << var;
                prop_assert_eq!(c0.bit(p), bits_t[p0], "cofactor0 var {} bit {}", var, p);
                prop_assert_eq!(c1.bit(p), bits_t[p1], "cofactor1 var {} bit {}", var, p);
                dep |= bits_t[p0] != bits_t[p1];
            }
            prop_assert_eq!(t.depends_on(var), dep);
            // In-place variants agree with the cloning ones.
            let mut ip = t.clone();
            ip.cofactor0_in_place(var);
            prop_assert_eq!(&ip, &c0);
            let mut ip = t.clone();
            ip.cofactor1_in_place(var);
            prop_assert_eq!(&ip, &c1);
        }
        prop_assert!(t.is_complement_of(&t.not()));
        prop_assert_eq!(t.is_subset_of(&u), bits_t.iter().zip(&bits_u).all(|(&x, &y)| !x || y));
    }

    /// Round-trip through the bit model at the boundary is lossless.
    #[test]
    fn tt_bit_roundtrip(words in prop::collection::vec(any::<u64>(), 2), vars in 5usize..9) {
        let t = table_from_words(vars, &words);
        let back = table_from_bits(vars, &ref_bits(&t));
        prop_assert_eq!(t, back);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The bound the evaluate prefilter applies before costing a cut: a
    /// table over `s` support variables costs at least `s - 1` ANDs, over
    /// inline (≤6) and multi-word (7..=10 variable) tables alike.
    #[test]
    fn synthesis_cost_is_at_least_support_minus_one(seed in table_seed()) {
        let t = synth_table(&seed);
        let support = t.support_mask().count_ones() as usize;
        let cost = Synthesizer::new().cost(&t);
        prop_assert!(cost + 1 >= support, "cost {} < support {} - 1 for {}", cost, support, t);
    }

    /// The plan memo changes speed, never answers: a synthesizer that has
    /// already costed and built other tables — unrelated ones, and `t`'s own
    /// cofactors and complement — returns the same cost for `t` as a fresh
    /// one and builds the same nodes as a brand-new one.
    #[test]
    fn warm_synthesizer_costs_and_builds_like_a_fresh_one(
        seed in table_seed(),
        others in prop::collection::vec(table_seed(), 1..4),
    ) {
        let t = synth_table(&seed);
        let vars = t.num_vars();
        let mut warm_up: Vec<TruthTable> = others.iter().map(synth_table).collect();
        warm_up.extend([t.cofactor0(0), t.cofactor1(vars - 1), t.not()]);
        let mut warm = Synthesizer::new();
        for (i, o) in warm_up.iter().enumerate() {
            // Cost some tables before building them; build the others cold.
            if i % 2 == 0 {
                warm.cost(o);
            }
            build_alone(&mut warm, o);
        }
        prop_assert_eq!(warm.cost(&t), Synthesizer::new().cost(&t));
        let w = build_alone(&mut warm, &t);
        let fresh = build_alone(&mut Synthesizer::new(), &t);
        prop_assert_eq!(w.nodes(), fresh.nodes(), "warm build created different nodes");
        prop_assert_eq!(w.outputs(), fresh.outputs());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every cut enumeration returns carries its root's function: the
    /// stored word equals the cone walk's table, for k = 2..=6. This covers
    /// the five- and six-leaf stretches and the one-word boundary, which the
    /// rewrite passes (k = 4) never reach.
    #[test]
    fn cut_words_match_cone_walk(
        recipe in prop::collection::vec((any::<u8>(), 0usize..64, 0usize..64), 4..60),
        inputs in 2usize..8,
        k in 2usize..=6,
        max_cuts in 1usize..10,
    ) {
        let g = circuit_from_recipe(&recipe, inputs);
        for (node, list) in enumerate_cuts(&g, k, max_cuts).iter().enumerate() {
            for cut in list {
                let walked = cut_function(&g, NodeId::from_index(node), cut.leaves());
                prop_assert_eq!(cut.function(), Some(walked), "node {} cut {:?}", node, cut.leaves());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// A warm arena takes a node's cut list from its previous enumeration
    /// only when that list is the one a cold enumeration makes: every
    /// node's list, leaves and function words alike, equals
    /// [`enumerate_cuts`] on a cold arena. The previous graph is the target
    /// itself (every AND is then taken), the target after one `b`, `rw`,
    /// `rwz` or `rf` pass (renumbered cones, some of them changed), an
    /// unrelated random DAG over as many inputs, or the target with its
    /// ANDs created in another order, where renumbering flips leaf and
    /// fanin order.
    #[test]
    fn carried_cut_lists_equal_fresh_ones(
        recipe in prop::collection::vec((any::<u8>(), 0usize..64, 0usize..64), 4..60),
        unrelated in prop::collection::vec((any::<u8>(), 0usize..64, 0usize..64), 4..60),
        inputs in 2usize..8,
        previous in 0u8..7,
        seed in any::<u64>(),
        k in 2usize..=6,
        max_cuts in 1usize..10,
    ) {
        let target = circuit_from_recipe(&recipe, inputs);
        let before = match previous {
            0 => target.clone(),
            1 => opt::balance(&target),
            2 => opt::rewrite(&target),
            3 => opt::rewrite_zero(&target),
            4 => opt::refactor_with_cut_size(&target, 8),
            5 => circuit_from_recipe(&unrelated, inputs),
            _ => reordered(&target, seed),
        };
        let mut warm = CutArena::new();
        enumerate_cuts_into(&before, k, max_cuts, &mut warm);
        enumerate_cuts_into(&target, k, max_cuts, &mut warm);
        if previous == 0 {
            prop_assert_eq!(warm.reused_nodes(), target.num_ands());
        }
        let cold = enumerate_cuts(&target, k, max_cuts);
        prop_assert_eq!(warm.num_nodes(), cold.num_nodes());
        for (node, (w, c)) in warm.iter().zip(cold.iter()).enumerate() {
            prop_assert_eq!(w.len(), c.len(), "cut count differs at node {}", node);
            for (wc, cc) in w.iter().zip(c) {
                prop_assert_eq!(wc.leaves(), cc.leaves(), "cut leaves differ at node {}", node);
                prop_assert_eq!(wc.function(), cc.function(), "node {} cut {:?}", node, cc.leaves());
            }
        }
        prop_assert!(warm.check_integrity().is_ok());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Costing a build on a [`DryRun`] is exact. For a table over leaves
    /// drawn from a base graph (repeats, complements and constants
    /// included), the dry run returns the literal a real build into a clone
    /// returns, counts exactly the ANDs the clone gains, and leaves the base
    /// graph as it was. The table is built twice: the second build adds
    /// nothing to the clone, and nothing to the overlay either, since every
    /// pair it makes is then in the base graph or among the would-be nodes.
    #[test]
    fn dry_run_matches_a_real_build(
        recipe in prop::collection::vec((any::<u8>(), 0usize..64, 0usize..64), 4..40),
        inputs in 2usize..6,
        seed in table_seed(),
        draws in prop::collection::vec((any::<u16>(), any::<bool>()), 10),
    ) {
        let base = circuit_from_recipe(&recipe, inputs);
        let before = base.clone();
        let t = synth_table(&seed);
        let leaves = leaf_lits(&base, &draws, t.num_vars());
        let mut synth = Synthesizer::new();
        let mut real = base.clone();
        let mut buffer = Vec::new();
        let mut dry = DryRun::new(&base, &mut buffer);
        for round in 0..2 {
            let (ands, added) = (real.num_ands(), dry.added());
            let want = synth.build(&mut real, &t, &leaves);
            let got = synth.build(&mut dry, &t, &leaves);
            prop_assert_eq!(got, want, "literal, build {}", round);
            prop_assert_eq!(dry.added() - added, real.num_ands() - ands, "ANDs added, build {}", round);
        }
        prop_assert_eq!(base.nodes(), before.nodes());
        prop_assert!(base.validate().is_empty());
    }
}

/// A graph where rewrite's own enumeration (k = 4, 8 cuts) keeps a cut with
/// a leaf inside the cone of a fanin's cut: the cone walk stops at that
/// leaf, so composing the fanin words would give another table. Such cuts
/// must carry the walked function.
#[test]
fn cut_words_match_cone_walk_where_a_leaf_hides_in_a_fanin_cone() {
    let recipe = [
        (2, 2, 1),
        (2, 0, 0),
        (3, 0, 0),
        (1, 0, 3),
        (4, 2, 3),
        (4, 0, 0),
        (1, 3, 6),
        (1, 0, 0),
        (2, 3, 9),
        (5, 0, 0),
        (5, 0, 0),
        (3, 1, 3),
        (5, 0, 0),
        (0, 11, 14),
        (5, 7, 16),
    ];
    let g = circuit_from_recipe(&recipe, 3);
    let reaches = |from: NodeId, to: NodeId| {
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if let NodeKind::And { a, b } = g.node(n) {
                stack.extend([a.node(), b.node()]);
            }
        }
        false
    };
    let mut nested = 0;
    for (node, list) in enumerate_cuts(&g, 4, 8).iter().enumerate() {
        for cut in list {
            let leaves = cut.leaves();
            if leaves
                .iter()
                .any(|&x| leaves.iter().any(|&y| x != y && reaches(x, y)))
            {
                nested += 1;
            }
            let walked = cut_function(&g, NodeId::from_index(node), leaves);
            assert_eq!(cut.function(), Some(walked), "node {node} cut {leaves:?}");
        }
    }
    assert!(
        nested > 0,
        "the graph must keep a cut with one leaf above another"
    );
}
