//! Verifies the hot-path allocation guarantees with a counting global
//! allocator: `Cut::merge` + dominance filtering never allocate,
//! ≤6-variable `TruthTable` operators never allocate, costing an
//! already-recorded table on a `DryRun` that reuses its buffer never
//! allocates, and refactor's 8-leaf cone walk on a warm scratch allocates
//! only the table it returns.
//!
//! Single `#[test]` on purpose: the counter is process-global, so a second
//! concurrently running test would perturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: pure pass-through to the `System` allocator plus a relaxed
// counter bump — every GlobalAlloc contract obligation is discharged by
// `System` itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // Ordering: Relaxed — a pure event counter; the test reads it on
        // the same thread that allocates, so no edge is needed.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout contract as our own caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come straight from our caller, which got
        // `ptr` from `System.alloc` via the pass-through above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Ordering: Relaxed — same single-thread counter as in alloc.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as in `dealloc` — arguments are forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn alloc_count<R>(f: impl FnOnce() -> R) -> (usize, R) {
    // Ordering: Relaxed — reads its own thread's bumps; the test harness
    // may allocate on other threads concurrently, which is exactly why
    // counts are compared as before/after deltas on this thread's work.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, result)
}

#[test]
fn hot_paths_do_not_allocate() {
    use xsfq_aig::cuts::Cut;
    use xsfq_aig::tt::TruthTable;
    use xsfq_aig::NodeId;

    // --- Cut merge + dominance, k ≤ 6 ---
    let ids: Vec<NodeId> = (1..=9).map(NodeId::from_index).collect();
    let a = Cut::from_leaves(&ids[0..3]);
    let b = Cut::from_leaves(&ids[2..6]);
    let c = Cut::from_leaves(&ids[4..9]);
    let (n, merged) = alloc_count(|| {
        let mut acc = 0usize;
        for _ in 0..100 {
            let m = a.merge(&b, 6);
            acc += m.map_or(0, |m| m.len());
            acc += a.dominates(&b) as usize;
            acc += b.dominates(&c) as usize;
            if let Some(m) = b.merge(&c, 6) {
                acc += m.dominates(&c) as usize;
            }
        }
        acc
    });
    assert!(merged > 0, "merges must actually run");
    assert_eq!(n, 0, "Cut::merge/dominates allocated {n} times");

    // --- TruthTable operators over ≤6 variables ---
    let t = TruthTable::from_word(6, 0x0123_4567_89AB_CDEF);
    let u = TruthTable::from_word(6, 0xFEDC_BA98_7654_3210);
    assert!(t.is_inline() && u.is_inline());
    let (n, checksum) = alloc_count(|| {
        let mut acc = 0usize;
        for var in 0..6 {
            let v = TruthTable::variable(6, var);
            let mut x = t.and(&u).or(&v).xor(&t.not());
            x.invert();
            x.and_with(&u);
            x.cofactor0_in_place(var);
            acc += x.count_ones();
            acc += t.cofactor1(var).count_ones();
            acc += t.depends_on(var) as usize;
            acc += t.is_subset_of(&u) as usize;
            acc += t.is_complement_of(&u) as usize;
            acc += x.is_zero() as usize + x.is_ones() as usize;
        }
        acc
    });
    assert!(checksum > 0, "table ops must actually run");
    assert_eq!(n, 0, "small-table TruthTable ops allocated {n} times");

    // --- Dry-run costing of recorded tables ---
    use xsfq_aig::synth::Synthesizer;
    use xsfq_aig::{Aig, DryRun};
    let mut g = Aig::new("base");
    let xs: Vec<_> = (0..4).map(|i| g.input(format!("x{i}"))).collect();
    let shared = g.and(xs[0], xs[1]);
    let leaves = [shared, xs[1], !xs[2], xs[3]];
    let tables = [
        TruthTable::from_word(4, 0xE8E8),
        TruthTable::from_word(4, 0x6996),
        TruthTable::from_word(4, 0xCA3F),
        TruthTable::from_word(4, 0x8001),
    ];
    let mut synth = Synthesizer::new();
    let mut buffer = Vec::new();
    for t in &tables {
        synth.build(&mut DryRun::new(&g, &mut buffer), t, &leaves);
    }
    let (n, added) = alloc_count(|| {
        let mut acc = 0usize;
        for i in 0..100 {
            let mut dry = DryRun::new(&g, &mut buffer);
            synth.build(&mut dry, &tables[i % tables.len()], &leaves);
            acc += dry.added();
        }
        acc
    });
    assert!(added > 0, "dry runs must actually cost something");
    assert_eq!(
        n, 0,
        "dry-run costing of recorded tables allocated {n} times"
    );

    // --- Cone walk over an 8-leaf cut (refactor's k) ---
    use xsfq_aig::cuts::{cut_function_with, CutScratch};
    let mut g = Aig::new("wide");
    let xs: Vec<_> = (0..8).map(|i| g.input(format!("x{i}"))).collect();
    let lo = g.xor_many(&xs[..4]);
    let hi = g.or_many(&xs[4..]);
    let root = g.mux(xs[7], lo, !hi);
    let leaves = g.inputs().to_vec();
    let mut scratch = CutScratch::new();
    let cold = cut_function_with(&g, root.node(), &leaves, &mut scratch);
    let (n, warm) = alloc_count(|| cut_function_with(&g, root.node(), &leaves, &mut scratch));
    assert_eq!(warm, cold);
    assert!(!warm.is_inline(), "an 8-leaf table spills to the heap");
    assert!(
        n <= 1,
        "an 8-leaf cone walk on a warm scratch allocated {n} times"
    );
}
