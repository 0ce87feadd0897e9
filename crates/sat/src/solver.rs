//! A CDCL SAT solver (MiniSat-style) with two-literal watching, 1UIP conflict
//! analysis, VSIDS branching, phase saving, Luby restarts and learnt-clause
//! reduction.
//!
//! The solver is *incremental*: clauses (and learnt clauses) are retained
//! across [`Solver::solve_limited`] calls, new clauses may be added between
//! solves, and each query's assumptions and conflict budget are its own —
//! which is what lets the SAT-sweeping engine ([`crate::sweep`]) fire
//! thousands of small equivalence queries at one shared encoding. The
//! one-shot [`Solver::solve`] is a wrapper over the incremental core.
//!
//! The solver is the decision procedure behind combinational equivalence
//! checking ([`crate::cec`]): every optimization and mapping pass in the
//! workspace is verified against it in the test suites.

use std::fmt;

/// A boolean variable.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Var(u32);

impl Var {
    /// Index of the variable (dense, starting at 0).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Positive literal of this variable.
    pub fn positive(self) -> Lit {
        Lit(self.0 << 1)
    }

    /// Negative literal of this variable.
    pub fn negative(self) -> Lit {
        Lit(self.0 << 1 | 1)
    }

    /// Literal of this variable with the given sign.
    pub fn lit(self, negative: bool) -> Lit {
        Lit(self.0 << 1 | negative as u32)
    }
}

/// A literal: a variable or its negation.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// The variable underlying this literal.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// True if the literal is negated.
    fn is_negative(self) -> bool {
        self.0 & 1 == 1
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}",
            if self.is_negative() { "-" } else { "" },
            self.0 >> 1
        )
    }
}

/// Outcome of a [`Solver::solve`] call.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SatResult {
    /// A satisfying assignment was found (query it with [`Solver::value`]).
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
}

const CLAUSE_NONE: u32 = u32::MAX;

#[derive(Debug)]
struct Clause {
    lits: Vec<Lit>,
    learnt: bool,
    activity: f64,
}

/// CDCL SAT solver.
///
/// ```
/// use xsfq_sat::{Solver, SatResult};
/// let mut s = Solver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause(&[a.positive(), b.positive()]);
/// s.add_clause(&[a.negative()]);
/// assert_eq!(s.solve(), SatResult::Sat);
/// assert_eq!(s.value(b), Some(true));
/// ```
#[derive(Debug, Default)]
pub struct Solver {
    clauses: Vec<Clause>,
    watches: Vec<Vec<u32>>, // indexed by literal; clause watches !lit
    assigns: Vec<i8>,       // per var: 0 unknown, 1 true, -1 false
    level: Vec<u32>,
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    phase: Vec<bool>,
    order: Vec<Var>, // lazily sorted decision candidates
    seen: Vec<bool>,
    ok: bool,
    num_learnts: usize,
    /// Learnt-clause count that triggers a reduction; `None` uses the
    /// MiniSat-style default `4000 + 4 × num_vars`. Unit tests set a tiny
    /// limit to force reductions mid-solve.
    reduce_limit: Option<usize>,
    /// Statistics: number of conflicts encountered.
    pub conflicts: u64,
    /// Statistics: number of decisions taken.
    pub decisions: u64,
    /// Statistics: number of literal propagations.
    pub propagations: u64,
    /// Statistics: number of learnt-clause reductions performed.
    pub reductions: u64,
}

impl Solver {
    /// New empty solver.
    pub fn new() -> Self {
        Solver {
            var_inc: 1.0,
            cla_inc: 1.0,
            ok: true,
            ..Default::default()
        }
    }

    /// Number of variables allocated.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Allocate a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(0);
        self.level.push(0);
        self.reason.push(CLAUSE_NONE);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.push(v);
        v
    }

    fn lit_value(&self, l: Lit) -> i8 {
        let v = self.assigns[l.var().index()];
        if l.is_negative() {
            -v
        } else {
            v
        }
    }

    /// Model value of `var` after a [`SatResult::Sat`] answer; `None` if the
    /// variable was irrelevant (never assigned).
    pub fn value(&self, var: Var) -> Option<bool> {
        match self.assigns[var.index()] {
            1 => Some(true),
            -1 => Some(false),
            _ => None,
        }
    }

    /// Add a clause. Returns `false` if the solver is already in an
    /// unsatisfiable state (conflicting unit clauses).
    ///
    /// May be called between solves: any outstanding assignments from a
    /// previous [`SatResult::Sat`] answer are undone first (the model becomes
    /// invalid, as in MiniSat's incremental interface).
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.cancel_until(0);
        if !self.ok {
            return false;
        }
        // Simplify: remove duplicates/false literals, detect tautologies.
        let mut simplified: Vec<Lit> = Vec::with_capacity(lits.len());
        let mut sorted = lits.to_vec();
        sorted.sort();
        sorted.dedup();
        for &l in &sorted {
            if sorted.binary_search(&!l).is_ok() {
                return true; // tautology: l and !l both present
            }
            match self.lit_value(l) {
                1 => return true, // already satisfied at level 0
                -1 => {}          // drop false literal
                _ => simplified.push(l),
            }
        }
        match simplified.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(simplified[0], CLAUSE_NONE);
                self.ok = self.propagate() == CLAUSE_NONE;
                self.ok
            }
            _ => {
                self.attach_clause(simplified, false);
                true
            }
        }
    }

    fn attach_clause(&mut self, lits: Vec<Lit>, learnt: bool) -> u32 {
        let idx = self.clauses.len() as u32;
        self.watches[(!lits[0]).index()].push(idx);
        self.watches[(!lits[1]).index()].push(idx);
        if learnt {
            self.num_learnts += 1;
        }
        self.clauses.push(Clause {
            lits,
            learnt,
            activity: 0.0,
        });
        idx
    }

    fn unchecked_enqueue(&mut self, l: Lit, reason: u32) {
        debug_assert_eq!(self.lit_value(l), 0);
        let v = l.var().index();
        self.assigns[v] = if l.is_negative() { -1 } else { 1 };
        self.level[v] = self.trail_lim.len() as u32;
        self.reason[v] = reason;
        self.phase[v] = !l.is_negative();
        self.trail.push(l);
    }

    /// Propagate all enqueued assignments. Returns the conflicting clause
    /// index or `CLAUSE_NONE`.
    fn propagate(&mut self) -> u32 {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.propagations += 1;
            let mut watch_list = std::mem::take(&mut self.watches[p.index()]);
            let mut i = 0;
            while i < watch_list.len() {
                let ci = watch_list[i];
                // Make sure the false literal (!p) is at position 1.
                let (first, need_new_watch) = {
                    let c = &mut self.clauses[ci as usize];
                    if c.lits[0] == !p {
                        c.lits.swap(0, 1);
                    }
                    debug_assert_eq!(c.lits[1], !p);
                    (c.lits[0], true)
                };
                let _ = need_new_watch;
                if self.lit_value(first) == 1 {
                    i += 1;
                    continue; // clause satisfied; keep watching
                }
                // Look for a new literal to watch.
                let mut found = None;
                {
                    let c = &self.clauses[ci as usize];
                    for (k, &l) in c.lits.iter().enumerate().skip(2) {
                        if self.lit_value(l) != -1 {
                            found = Some((k, l));
                            break;
                        }
                    }
                }
                if let Some((k, l)) = found {
                    self.clauses[ci as usize].lits.swap(1, k);
                    self.watches[(!l).index()].push(ci);
                    watch_list.swap_remove(i);
                    continue; // do not advance i: swapped element takes this slot
                }
                // No new watch: clause is unit or conflicting.
                if self.lit_value(first) == -1 {
                    // Conflict: restore remaining watches and bail out.
                    self.watches[p.index()].extend_from_slice(&watch_list[..]);
                    self.qhead = self.trail.len();
                    return ci;
                }
                self.unchecked_enqueue(first, ci);
                i += 1;
            }
            // Retain processed watches (minus relocated ones).
            let existing = std::mem::replace(&mut self.watches[p.index()], watch_list);
            self.watches[p.index()].extend(existing);
        }
        CLAUSE_NONE
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
    }

    fn bump_clause(&mut self, ci: u32) {
        let c = &mut self.clauses[ci as usize];
        c.activity += self.cla_inc;
        if c.activity > 1e20 {
            for cl in &mut self.clauses {
                cl.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// First-UIP conflict analysis. Returns (learnt clause, backjump level).
    fn analyze(&mut self, mut conflict: u32) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // placeholder for the asserting literal
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let current_level = self.trail_lim.len() as u32;

        loop {
            debug_assert_ne!(conflict, CLAUSE_NONE);
            self.bump_clause(conflict);
            let start = usize::from(p.is_some());
            let lits: Vec<Lit> = self.clauses[conflict as usize].lits[start..].to_vec();
            for q in lits {
                let v = q.var();
                if self.seen[v.index()] || self.level[v.index()] == 0 {
                    continue;
                }
                self.seen[v.index()] = true;
                self.bump_var(v);
                if self.level[v.index()] == current_level {
                    counter += 1;
                } else {
                    learnt.push(q);
                }
            }
            // Select the next trail literal at the current level.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let lit = self.trail[index];
            self.seen[lit.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !lit;
                break;
            }
            p = Some(lit);
            conflict = self.reason[lit.var().index()];
        }

        // Clear the seen flags for the learnt literals.
        for &l in &learnt {
            self.seen[l.var().index()] = false;
        }
        // Backjump level = max level among the non-asserting literals.
        let backjump = learnt[1..]
            .iter()
            .map(|l| self.level[l.var().index()])
            .max()
            .unwrap_or(0);
        // Put a literal of the backjump level at position 1 (watch invariant).
        if learnt.len() > 1 {
            let pos = learnt[1..]
                .iter()
                .position(|l| self.level[l.var().index()] == backjump)
                .expect("literal at backjump level")
                + 1;
            learnt.swap(1, pos);
        }
        (learnt, backjump)
    }

    fn cancel_until(&mut self, level: u32) {
        while self.trail_lim.len() as u32 > level {
            let lim = self.trail_lim.pop().expect("non-root level");
            while self.trail.len() > lim {
                let l = self.trail.pop().expect("trail entry");
                let v = l.var();
                self.assigns[v.index()] = 0;
                self.reason[v.index()] = CLAUSE_NONE;
                self.order.push(v);
            }
        }
        self.qhead = self.trail.len();
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        // Lazy VSIDS: sort pending candidates by activity on demand.
        loop {
            if self.order.is_empty() {
                // Refill with all unassigned vars (restarts may have lost some).
                for i in 0..self.assigns.len() {
                    if self.assigns[i] == 0 {
                        self.order.push(Var(i as u32));
                    }
                }
                if self.order.is_empty() {
                    return None;
                }
            }
            // Pick the max-activity candidate.
            let mut best = 0usize;
            for (i, v) in self.order.iter().enumerate() {
                if self.activity[v.index()] > self.activity[self.order[best].index()] {
                    best = i;
                }
            }
            let v = self.order.swap_remove(best);
            if self.assigns[v.index()] == 0 {
                return Some(v);
            }
        }
    }

    /// Remove the less active half of the (long) learnt clauses.
    ///
    /// The clause arena is compacted in place (no clause is cloned) and the
    /// watch lists are **patched through the `remap` table** instead of
    /// being rebuilt from scratch: every surviving watcher entry keeps its
    /// list position with its index rewritten, removed clauses' entries are
    /// dropped. This preserves the watch invariant (each clause is watched
    /// by `!lits[0]` and `!lits[1]`, which propagation maintains at
    /// positions 0/1) without touching the untouched majority of lists.
    fn reduce_learnts(&mut self) {
        let mut acts: Vec<f64> = self
            .clauses
            .iter()
            .filter(|c| c.learnt && c.lits.len() > 2)
            .map(|c| c.activity)
            .collect();
        if acts.len() < 2 {
            return;
        }
        acts.sort_by(|a, b| a.partial_cmp(b).expect("finite activities"));
        let threshold = acts[acts.len() / 2];
        let mut locked: Vec<u32> = self
            .trail
            .iter()
            .map(|l| self.reason[l.var().index()])
            .filter(|&r| r != CLAUSE_NONE)
            .collect();
        locked.sort_unstable();
        // Compact kept clauses to the front (a swap moves each already
        // rejected clause into a slot that has been examined before), and
        // record old → new indices in `remap`.
        let mut remap = vec![CLAUSE_NONE; self.clauses.len()];
        let mut write = 0usize;
        // Index loop: the body swaps within `self.clauses`, which an
        // iterator borrow would forbid.
        #[allow(clippy::needless_range_loop)]
        for i in 0..self.clauses.len() {
            let keep = {
                let c = &self.clauses[i];
                !c.learnt
                    || c.lits.len() <= 2
                    || c.activity >= threshold
                    || locked.binary_search(&(i as u32)).is_ok()
            };
            if keep {
                remap[i] = write as u32;
                if write != i {
                    self.clauses.swap(write, i);
                }
                write += 1;
            }
        }
        self.clauses.truncate(write);
        self.num_learnts = self.clauses.iter().filter(|c| c.learnt).count();
        self.reductions += 1;
        for w in &mut self.watches {
            w.retain_mut(|ci| match remap[*ci as usize] {
                CLAUSE_NONE => false,
                new => {
                    *ci = new;
                    true
                }
            });
        }
        for r in &mut self.reason {
            if *r != CLAUSE_NONE {
                *r = remap[*r as usize];
                debug_assert_ne!(*r, CLAUSE_NONE, "locked reason clause was removed");
            }
        }
    }

    /// Solve the formula.
    pub fn solve(&mut self) -> SatResult {
        self.solve_with_assumptions(&[])
    }

    /// Solve under the given assumption literals (forced at decision levels
    /// before any free decisions).
    fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SatResult {
        self.solve_limited(assumptions, u64::MAX)
            .expect("unbounded solve always decides")
    }

    /// Solve under assumptions with a conflict budget. Returns `None` when
    /// the budget is exhausted before a verdict (the query is *unknown*;
    /// clauses learnt so far are retained, so retrying is cheaper).
    ///
    /// This is the workhorse of SAT sweeping: candidate equivalences get a
    /// small budget, and the rare hard pairs are deferred instead of
    /// blocking the sweep.
    pub fn solve_limited(&mut self, assumptions: &[Lit], max_conflicts: u64) -> Option<SatResult> {
        if !self.ok {
            return Some(SatResult::Unsat);
        }
        self.cancel_until(0);
        let mut restarts = 0u32;
        let mut remaining = max_conflicts;
        loop {
            if remaining == 0 {
                self.cancel_until(0);
                return None;
            }
            let budget = (luby(restarts) * 256).min(remaining);
            match self.search(assumptions, budget) {
                Some(result) => {
                    if result == SatResult::Unsat {
                        self.cancel_until(0);
                    }
                    return Some(result);
                }
                None => {
                    remaining -= budget;
                    restarts += 1;
                    self.cancel_until(0);
                }
            }
        }
    }

    /// Run CDCL until `budget` conflicts; `None` means restart.
    fn search(&mut self, assumptions: &[Lit], budget: u64) -> Option<SatResult> {
        let mut conflicts_here = 0u64;
        loop {
            let conflict = self.propagate();
            if conflict != CLAUSE_NONE {
                self.conflicts += 1;
                conflicts_here += 1;
                if self.trail_lim.is_empty() {
                    self.ok = false;
                    return Some(SatResult::Unsat);
                }
                let (learnt, backjump) = self.analyze(conflict);
                // Never backjump into the assumption prefix unless forced.
                self.cancel_until(backjump);
                if learnt.len() == 1 {
                    self.cancel_until(0);
                    if self.lit_value(learnt[0]) == -1 {
                        self.ok = false;
                        return Some(SatResult::Unsat);
                    }
                    if self.lit_value(learnt[0]) == 0 {
                        self.unchecked_enqueue(learnt[0], CLAUSE_NONE);
                    }
                } else {
                    let ci = self.attach_clause(learnt.clone(), true);
                    self.unchecked_enqueue(learnt[0], ci);
                }
                self.var_inc /= 0.95;
                self.cla_inc /= 0.999;
                if conflicts_here >= budget {
                    return None; // restart
                }
                let limit = self
                    .reduce_limit
                    .unwrap_or_else(|| 4000 + self.num_vars() * 4);
                if self.num_learnts > limit {
                    self.reduce_learnts();
                }
                continue;
            }
            // Assumption handling: force the next unassigned assumption.
            let mut decided = false;
            for &a in assumptions {
                match self.lit_value(a) {
                    -1 => return Some(SatResult::Unsat),
                    0 => {
                        self.trail_lim.push(self.trail.len());
                        self.unchecked_enqueue(a, CLAUSE_NONE);
                        decided = true;
                        break;
                    }
                    _ => {}
                }
            }
            if decided {
                continue;
            }
            // Free decision.
            match self.pick_branch_var() {
                None => return Some(SatResult::Sat),
                Some(v) => {
                    self.decisions += 1;
                    self.trail_lim.push(self.trail.len());
                    let lit = v.lit(!self.phase[v.index()]);
                    self.unchecked_enqueue(lit, CLAUSE_NONE);
                }
            }
        }
    }
}

/// The Luby restart sequence (1,1,2,1,1,2,4,…), MiniSat's formulation.
fn luby(x: u32) -> u64 {
    let mut x = x as u64;
    let mut size: u64 = 1;
    let mut seq: u32 = 0;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_sat_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        assert!(s.add_clause(&[a.positive()]));
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(a), Some(true));

        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[a.positive()]);
        assert!(!s.add_clause(&[a.negative()]));
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn three_sat_instance() {
        // (a|b|c)(!a|b)(!b|c)(!c|!a): satisfiable.
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        s.add_clause(&[a.positive(), b.positive(), c.positive()]);
        s.add_clause(&[a.negative(), b.positive()]);
        s.add_clause(&[b.negative(), c.positive()]);
        s.add_clause(&[c.negative(), a.negative()]);
        assert_eq!(s.solve(), SatResult::Sat);
        // Verify the model satisfies every clause.
        let va = s.value(a).unwrap();
        let vb = s.value(b).unwrap();
        let vc = s.value(c).unwrap();
        assert!(va || vb || vc);
        assert!(!va || vb);
        assert!(!vb || vc);
        assert!(!vc || !va);
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // 3 pigeons, 2 holes: classic small UNSAT instance.
        let mut s = Solver::new();
        let mut p = [[Var(0); 2]; 3];
        for pi in p.iter_mut() {
            for h in pi.iter_mut() {
                *h = s.new_var();
            }
        }
        for pi in &p {
            s.add_clause(&[pi[0].positive(), pi[1].positive()]);
        }
        // `h` indexes the second dimension, so a range loop is clearest.
        #[allow(clippy::needless_range_loop)]
        for h in 0..2 {
            for i in 0..3 {
                for j in (i + 1)..3 {
                    s.add_clause(&[p[i][h].negative(), p[j][h].negative()]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn assumptions() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.negative(), b.positive()]); // a -> b
        assert_eq!(s.solve_with_assumptions(&[a.positive()]), SatResult::Sat);
        assert_eq!(s.value(b), Some(true));
        assert_eq!(
            s.solve_with_assumptions(&[a.positive(), b.negative()]),
            SatResult::Unsat
        );
        // Solver stays usable after an assumption-UNSAT.
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn random_instances_agree_with_brute_force() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(123);
        for round in 0..60 {
            let nvars = 6;
            let nclauses = rng.gen_range(4..24);
            let mut clauses: Vec<Vec<(usize, bool)>> = Vec::new();
            for _ in 0..nclauses {
                let len = rng.gen_range(1..=3);
                let mut cl = Vec::new();
                for _ in 0..len {
                    cl.push((rng.gen_range(0..nvars), rng.gen()));
                }
                clauses.push(cl);
            }
            // Brute force.
            let mut brute_sat = false;
            'outer: for m in 0..(1u32 << nvars) {
                for cl in &clauses {
                    if !cl.iter().any(|&(v, neg)| (m >> v & 1 == 1) != neg) {
                        continue 'outer;
                    }
                }
                brute_sat = true;
                break;
            }
            // Solver.
            let mut s = Solver::new();
            let vars: Vec<Var> = (0..nvars).map(|_| s.new_var()).collect();
            for cl in &clauses {
                let lits: Vec<Lit> = cl.iter().map(|&(v, neg)| vars[v].lit(neg)).collect();
                s.add_clause(&lits);
            }
            let got = s.solve() == SatResult::Sat;
            assert_eq!(got, brute_sat, "round {round}: clauses {clauses:?}");
        }
    }

    #[test]
    fn incremental_clause_adds_between_solves() {
        // Narrow the same formula across solves; clauses added after a Sat
        // answer must take effect without rebuilding the solver.
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.positive(), b.positive()]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.add_clause(&[a.negative()]));
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(b), Some(true));
        assert!(!s.add_clause(&[b.negative()]));
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn solve_limited_exhausts_budget_and_stays_usable() {
        // A pigeonhole instance needing many conflicts: with a tiny budget
        // the query is unknown, and the solver stays usable for an
        // unbounded retry that benefits from the retained learnt clauses.
        let mut s = Solver::new();
        let mut p = [[Var(0); 3]; 4];
        for pi in p.iter_mut() {
            for h in pi.iter_mut() {
                *h = s.new_var();
            }
        }
        for pi in &p {
            s.add_clause(&[pi[0].positive(), pi[1].positive(), pi[2].positive()]);
        }
        #[allow(clippy::needless_range_loop)]
        for h in 0..3 {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    s.add_clause(&[p[i][h].negative(), p[j][h].negative()]);
                }
            }
        }
        assert_eq!(s.solve_limited(&[], 1), None, "1 conflict cannot refute");
        assert_eq!(s.solve_limited(&[], u64::MAX), Some(SatResult::Unsat));
    }

    /// Build the pigeonhole instance `pigeons → holes` (UNSAT when
    /// `pigeons > holes`, and needs many conflicts to refute).
    fn pigeonhole(s: &mut Solver, pigeons: usize, holes: usize) {
        let p: Vec<Vec<Var>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| s.new_var()).collect())
            .collect();
        for pi in &p {
            let all: Vec<Lit> = pi.iter().map(|v| v.positive()).collect();
            s.add_clause(&all);
        }
        // `h` indexes the second dimension, so a range loop is clearest.
        #[allow(clippy::needless_range_loop)]
        for h in 0..holes {
            for i in 0..pigeons {
                for j in (i + 1)..pigeons {
                    s.add_clause(&[p[i][h].negative(), p[j][h].negative()]);
                }
            }
        }
    }

    /// In-place watch-list patching: a reduction in the middle of a
    /// `solve_limited` run must not change any verdict. A tiny reduce
    /// limit forces reductions constantly; the pigeonhole refutation and a
    /// seeded batch of random instances must agree with brute force, and
    /// the solver must stay usable incrementally afterwards.
    #[test]
    fn reduce_learnts_mid_solve_keeps_verdicts() {
        // Deterministic hard case: PHP(6, 5) needs far more conflicts than
        // the limit, so reductions definitely fire mid-solve.
        let mut s = Solver::new();
        s.reduce_limit = Some(10);
        pigeonhole(&mut s, 6, 5);
        assert_eq!(s.solve_limited(&[], u64::MAX), Some(SatResult::Unsat));
        assert!(s.reductions > 0, "tiny limit must force reductions");

        // Random instances: verdicts must match brute force with reductions
        // firing along the way.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let mut total_reductions = 0u64;
        for round in 0..40 {
            let nvars = 9;
            let nclauses = rng.gen_range(20..45);
            let clauses: Vec<Vec<(usize, bool)>> = (0..nclauses)
                .map(|_| {
                    (0..rng.gen_range(2..=3))
                        .map(|_| (rng.gen_range(0..nvars), rng.gen()))
                        .collect()
                })
                .collect();
            let mut brute_sat = false;
            'outer: for m in 0..(1u32 << nvars) {
                for cl in &clauses {
                    if !cl.iter().any(|&(v, neg)| (m >> v & 1 == 1) != neg) {
                        continue 'outer;
                    }
                }
                brute_sat = true;
                break;
            }
            let mut s = Solver::new();
            s.reduce_limit = Some(6);
            let vars: Vec<Var> = (0..nvars).map(|_| s.new_var()).collect();
            for cl in &clauses {
                let lits: Vec<Lit> = cl.iter().map(|&(v, neg)| vars[v].lit(neg)).collect();
                s.add_clause(&lits);
            }
            let got = s.solve_limited(&[], u64::MAX);
            assert_eq!(
                got,
                Some(if brute_sat {
                    SatResult::Sat
                } else {
                    SatResult::Unsat
                }),
                "round {round}"
            );
            // Incremental use after reductions must stay sound: force the
            // first variable both ways under assumptions.
            if brute_sat {
                let a = s.solve_with_assumptions(&[vars[0].positive()]);
                let b = s.solve_with_assumptions(&[vars[0].negative()]);
                assert!(
                    a == SatResult::Sat || b == SatResult::Sat,
                    "round {round}: some phase of v0 must extend a model"
                );
            }
            total_reductions += s.reductions;
        }
        // Reductions are not guaranteed on every small instance; the
        // PHP(6,5) case above already pins a mid-solve reduction, so here
        // it is enough that the batch's verdicts all agreed (asserted per
        // round) regardless of how often reductions fired.
        let _ = total_reductions;
    }

    #[test]
    fn luby_sequence() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(luby(i as u32), e, "luby({i})");
        }
    }
}
