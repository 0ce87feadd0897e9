//! Pipeline rank placement (paper §4.2.2, Table 5).
//!
//! Every architectural pipeline stage needs *two* DROC ranks because of
//! xSFQ's alternating encoding (excite + relax phases per logical cycle).
//! Rather than leaving both DROCs of a pair adjacent — which wastes a
//! synchronous stage with no logic in it — the ranks are spread through the
//! combinational fabric, which is what the paper achieves with ABC's
//! retiming. Placement searches a window around the equal-depth positions
//! for the cut with the fewest crossing signals (fewest DROCs).

use xsfq_aig::{Aig, NodeKind};

/// Choose the rank levels for `arch_stages` architectural pipeline stages.
///
/// Returns `2 × stages` cut levels in **strictly increasing** order, where
/// `stages = min(arch_stages, ⌈depth / 2⌉)` — a fabric of depth `d` can
/// host at most `⌈d / 2⌉` architectural stages, because the `2·stages − 1`
/// interior ranks need distinct levels in `1..=depth`. Requesting more
/// stages than the fabric can hold saturates (rather than emitting the
/// duplicate or out-of-range ranks that would silently corrupt the stage
/// balance). The final rank sits past every node (`depth + 1`), registering
/// the primary outputs; the interior ranks divide the logic into
/// equal-delay segments, nudged within `window` levels to minimize the
/// number of crossing signals, and always satisfy `1 ≤ rank ≤ depth`.
///
/// Returns an empty vector for `arch_stages == 0` or a depth-0 (wire-only)
/// design.
pub fn choose_rank_levels(aig: &Aig, arch_stages: usize, window: u32) -> Vec<u32> {
    let depth = aig.depth() as u32;
    // Saturate the stage count to what the fabric can hold: the 2s − 1
    // interior cuts need distinct levels in 1..=depth, so 2s − 1 ≤ depth.
    let arch_stages = arch_stages.min((depth as usize).div_ceil(2));
    if arch_stages == 0 {
        return Vec::new();
    }
    let ranks = 2 * arch_stages as u32;
    let mut levels = Vec::with_capacity(ranks as usize);
    let widths = crossing_widths(aig);
    // Cap the search window to a quarter of a segment so the min-width
    // search cannot destroy the stage balance the cuts exist for — but
    // never below one level: `depth / ranks / 4` rounds to 0 whenever
    // `depth < 4 × ranks`, which used to silently disable the search on
    // every shallow fabric even though a ±1 nudge cannot hurt the balance
    // (the monotonicity repair below keeps all invariants regardless).
    let window = window.min((depth / ranks / 4).max(1));
    for i in 1..ranks {
        let ideal = (depth * i).div_ceil(ranks).max(1);
        let lo = ideal.saturating_sub(window).max(1);
        let hi = (ideal + window).min(depth);
        let mut best = ideal;
        let mut best_width = usize::MAX;
        for cut in lo..=hi {
            let w = widths.get(cut as usize).copied().unwrap_or(usize::MAX);
            if w < best_width {
                best_width = w;
                best = cut;
            }
        }
        // Keep cuts strictly increasing.
        if let Some(&prev) = levels.last() {
            if best <= prev {
                best = prev + 1;
            }
        }
        levels.push(best);
    }
    // The monotonicity bump can overshoot `depth` on shallow fabrics;
    // saturation guarantees a feasible assignment exists, so repair from
    // the top down (each cut capped one below its successor). This keeps
    // strict monotonicity and clamps every interior cut into 1..=depth.
    let n = levels.len();
    levels[n - 1] = levels[n - 1].min(depth);
    for j in (0..n - 1).rev() {
        levels[j] = levels[j].min(levels[j + 1] - 1);
    }
    debug_assert!(levels[0] >= 1 && levels[n - 1] <= depth);
    debug_assert!(levels.windows(2).all(|w| w[0] < w[1]));
    levels.push(depth + 1); // output rank
    levels
}

/// Number of signals crossing a cut placed just below each level:
/// `widths[l]` counts nodes with `level < l` that feed a consumer with
/// `level ≥ l` (primary outputs count as consumers at `depth + 1`).
///
/// Implemented as a difference array — `+1` where a node's live range
/// starts, `−1` just past where it ends, one prefix-sum pass — so the cost
/// is O(nodes + depth). The old per-level increment loop was
/// O(depth × nodes): every long-lived signal (an input consumed near the
/// outputs, say) paid its whole live range, a real blowup on deep EPFL
/// designs like `div` and `hyp`. The `crossing_widths_matches_reference`
/// proptest pins this against the naive loop.
fn crossing_widths(aig: &Aig) -> Vec<usize> {
    let levels = aig.levels();
    let depth = aig.depth() as u32;
    // For each node: the maximum consumer level.
    let mut max_consumer = vec![0u32; aig.num_nodes()];
    for (i, kind) in aig.nodes().iter().enumerate() {
        if let NodeKind::And { a, b } = kind {
            let lvl = levels[i];
            for f in [a.node().index(), b.node().index()] {
                max_consumer[f] = max_consumer[f].max(lvl);
            }
        }
    }
    for root in aig.combinational_roots() {
        max_consumer[root.node().index()] = depth + 1;
    }
    // A node with level `lv` and maximum consumer level `hi` crosses every
    // cut `l` with `lv < l ≤ hi`: mark `+1` at `lv + 1`, `−1` past `hi`.
    let mut delta = vec![0isize; depth as usize + 3];
    for i in 0..aig.num_nodes() {
        if max_consumer[i] == 0 {
            continue; // dangling
        }
        let lo = levels[i] + 1;
        let hi = max_consumer[i].min(depth + 1);
        if lo > hi {
            continue;
        }
        delta[lo as usize] += 1;
        delta[hi as usize + 1] -= 1;
    }
    let mut widths = vec![0usize; depth as usize + 2];
    let mut running = 0isize;
    for (l, w) in widths.iter_mut().enumerate() {
        running += delta[l];
        debug_assert!(running >= 0, "live ranges cannot go negative");
        *w = running as usize;
    }
    widths
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsfq_aig::build;
    use xsfq_aig::Lit;

    fn adder(width: usize) -> Aig {
        let mut g = Aig::new("adder");
        let a = g.input_word("a", width);
        let b = g.input_word("b", width);
        let (s, c) = build::ripple_add(&mut g, &a, &b, Lit::FALSE);
        g.output_word("s", &s);
        g.output("c", c);
        g
    }

    #[test]
    fn zero_stages_means_no_ranks() {
        let g = adder(4);
        assert!(choose_rank_levels(&g, 0, 2).is_empty());
    }

    #[test]
    fn levels_are_strictly_increasing_and_end_past_depth() {
        let g = adder(8);
        for stages in 1..=3 {
            let ranks = choose_rank_levels(&g, stages, 3);
            assert_eq!(ranks.len(), 2 * stages);
            for w in ranks.windows(2) {
                assert!(w[0] < w[1], "ranks must increase: {ranks:?}");
            }
            assert_eq!(
                *ranks.last().unwrap(),
                g.depth() as u32 + 1,
                "final rank registers the outputs"
            );
        }
    }

    /// Regression: with `depth < 2 × arch_stages` the old monotonicity bump
    /// (`best = prev + 1`) produced duplicate and out-of-range ranks — e.g.
    /// a depth-2 adder at 2 stages emitted `[1, 2, 3, 3]`, colliding with
    /// the output rank and silently corrupting the stage balance. The stage
    /// count must saturate and every invariant must hold on shallow fabrics.
    #[test]
    fn shallow_fabric_saturates_stages_and_keeps_invariants() {
        for width in 1..=4 {
            let g = adder(width);
            let depth = g.depth() as u32;
            for stages in 1..=4usize {
                for window in 0..=3 {
                    let ranks = choose_rank_levels(&g, stages, window);
                    let effective = stages.min((depth as usize).div_ceil(2));
                    assert_eq!(
                        ranks.len(),
                        2 * effective,
                        "width {width} stages {stages}: {ranks:?}"
                    );
                    for w in ranks.windows(2) {
                        assert!(w[0] < w[1], "must strictly increase: {ranks:?}");
                    }
                    let (&last, interior) = ranks.split_last().unwrap();
                    assert_eq!(last, depth + 1, "final rank registers outputs");
                    for &r in interior {
                        assert!((1..=depth).contains(&r), "interior in range: {ranks:?}");
                    }
                }
            }
        }
        // A wire-only design has no fabric to cut: no ranks at all.
        let mut g = Aig::new("wire");
        let a = g.input("a");
        g.output("o", a);
        assert!(choose_rank_levels(&g, 2, 3).is_empty());
    }

    #[test]
    fn crossing_width_of_chain_is_one_plus_inputs() {
        // AND chain: at any interior cut, exactly the accumulator and the
        // not-yet-consumed inputs cross.
        let mut g = Aig::new("chain");
        let xs = g.input_word("x", 4);
        let mut acc = xs[0];
        for &x in &xs[1..] {
            acc = g.and(acc, x);
        }
        g.output("o", acc);
        let w = crossing_widths(&g);
        // Cut below level 1: acc(x0 input) + x1..x3 inputs... = x0,x1 used
        // at level 1, later inputs used later.
        // At cut 2: node level1 + x2, x3.
        assert_eq!(w[2], 3);
        // At the output boundary only the final node crosses.
        assert_eq!(w[g.depth() + 1], 1);
    }

    /// The old per-level increment loop, kept as the reference the
    /// difference-array rewrite is pinned against.
    fn crossing_widths_reference(aig: &Aig) -> Vec<usize> {
        let levels = aig.levels();
        let depth = aig.depth() as u32;
        let mut max_consumer = vec![0u32; aig.num_nodes()];
        for (i, kind) in aig.nodes().iter().enumerate() {
            if let NodeKind::And { a, b } = kind {
                let lvl = levels[i];
                for f in [a.node().index(), b.node().index()] {
                    max_consumer[f] = max_consumer[f].max(lvl);
                }
            }
        }
        for root in aig.combinational_roots() {
            max_consumer[root.node().index()] = depth + 1;
        }
        let mut widths = vec![0usize; depth as usize + 2];
        for i in 0..aig.num_nodes() {
            if max_consumer[i] == 0 {
                continue;
            }
            let lo = levels[i] + 1;
            let hi = max_consumer[i];
            for l in lo..=hi.min(depth + 1) {
                widths[l as usize] += 1;
            }
        }
        widths
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;
        use xsfq_aig::Lit;

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

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The O(nodes + depth) difference-array sweep equals the old
            /// O(depth × nodes) loop on random AIGs, level for level.
            #[test]
            fn crossing_widths_matches_reference(
                recipe in prop::collection::vec((any::<u8>(), 0usize..64, 0usize..64), 1..120),
                inputs in 2usize..8,
            ) {
                let g = circuit_from_recipe(&recipe, inputs);
                prop_assert_eq!(crossing_widths(&g), crossing_widths_reference(&g));
            }
        }
    }

    /// Regression: the window cap `depth / ranks / 4` rounds to 0 whenever
    /// `depth < 4 × ranks`, silently disabling the min-width search on
    /// shallow fabrics even though a ±1 nudge cannot break stage balance.
    /// On this depth-3 fabric (1 stage ⇒ 2 ranks, old cap `3/2/4 = 0`) the
    /// interior rank's ideal position crosses 5 signals while one level up
    /// crosses 4 — the floored window must take the narrower cut.
    #[test]
    fn shallow_fabric_window_engages() {
        // x = a & b fans out to four level-2 ANDs; two of those feed a
        // level-3 AND, the others are outputs.
        let mut g = Aig::new("shallow");
        let a = g.input("a");
        let b = g.input("b");
        let ins = g.input_word("i", 4);
        let x = g.and(a, b);
        let cs: Vec<Lit> = ins.iter().map(|&i| g.and(x, i)).collect();
        let d = g.and(cs[0], cs[1]);
        g.output("d", d);
        g.output("c2", cs[2]);
        g.output("c3", cs[3]);
        assert_eq!(g.depth(), 3);
        let w = crossing_widths(&g);
        assert!(
            w[3] < w[2],
            "fixture must have a narrower cut one level up: {w:?}"
        );
        let ranks = choose_rank_levels(&g, 1, 3);
        assert_eq!(ranks[0], 3, "the ±1 nudge must engage on shallow fabrics");
        // All placement invariants hold.
        assert_eq!(*ranks.last().unwrap(), g.depth() as u32 + 1);
        assert!(ranks.windows(2).all(|p| p[0] < p[1]));
        // An explicit zero window still means "no nudge".
        let fixed = choose_rank_levels(&g, 1, 0);
        assert_eq!(fixed[0], 2, "window 0 keeps the equal-depth position");
    }

    #[test]
    fn window_picks_narrow_cut() {
        // Funnel: wide at level 1, narrow at level 2+.
        let mut g = Aig::new("funnel");
        let xs = g.input_word("x", 8);
        let pairs: Vec<_> = xs.chunks(2).map(|p| g.and(p[0], p[1])).collect();
        let quads: Vec<_> = pairs.chunks(2).map(|p| g.and(p[0], p[1])).collect();
        let top = g.and(quads[0], quads[1]);
        g.output("o", top);
        // depth 3; crossing widths: cut1: 4, cut2: 2, cut3: 1.
        let w = crossing_widths(&g);
        assert!(w[2] < w[1]);
        assert!(w[3] < w[2]);
        // The interior rank's ideal is ceil(3*1/2) = 2; the requested ±1
        // window reaches the even narrower cut at 3. (Before the window
        // floor fix, `depth / ranks / 4 = 0` silently pinned it to 2.)
        let ranks = choose_rank_levels(&g, 1, 1);
        assert_eq!(ranks[0], 3);
        // With no window the ideal equal-depth position stands.
        let fixed = choose_rank_levels(&g, 1, 0);
        assert_eq!(fixed[0], 2);
    }
}
