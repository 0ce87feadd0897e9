//! Golden-diagnostic fixtures: one deliberately corrupted netlist per lint
//! code, each asserting the exact code and site the checker reports — the
//! contract that keeps the codes stable across refactors.

use xsfq_aig::Aig;
use xsfq_cells::{CellKind, CellLibrary};
use xsfq_lint::{lint_aig, lint_netlist, lint_timing, Code, Diag, NetlistProfile, Severity, Site};
use xsfq_netlist::{CellId, Netlist, PinVec};

fn codes(diags: &[Diag]) -> Vec<(Code, Site)> {
    diags.iter().map(|d| (d.code, d.site.clone())).collect()
}

#[test]
fn x001_unconnected_deferred_pin() {
    let mut n = Netlist::new("x001", CellLibrary::xsfq_abutted());
    let a = n.add_input("a");
    let (cell, outs) = n.add_cell_deferred(CellKind::La);
    n.connect_input(cell, 0, a);
    n.add_output("y", outs[0]);
    let diags = lint_netlist(&n, NetlistProfile::Logical);
    assert_eq!(
        codes(&diags),
        vec![(Code::X001, Site::Cell(0))],
        "{diags:?}"
    );
    assert_eq!(diags[0].severity, Severity::Error);
}

#[test]
fn x002_pin_count_mismatch() {
    let mut n = Netlist::new("x002", CellLibrary::xsfq_abutted());
    let a = n.add_input("a");
    let b = n.add_input("b");
    let q = n.add_cell(CellKind::La, &[a, b]);
    n.add_output("y", q[0]);
    // The ordinary constructors enforce arity, so corrupt the cell through
    // the test backdoor: an LA with a single input pin.
    n.corrupt_cell_for_tests(CellId::from_index(0)).inputs = PinVec::from_slice(&[a]);
    let diags = lint_netlist(&n, NetlistProfile::Logical);
    assert_eq!(
        codes(&diags),
        vec![(Code::X002, Site::Cell(0))],
        "{diags:?}"
    );
}

#[test]
fn x003_combinational_cycle() {
    let mut n = Netlist::new("x003", CellLibrary::xsfq_abutted());
    let a = n.add_input("a");
    let b = n.add_input("b");
    let (la1, la1_out) = n.add_cell_deferred(CellKind::La);
    let la2_out = n.add_cell(CellKind::La, &[la1_out[0], a]);
    n.connect_input(la1, 0, la2_out[0]);
    n.connect_input(la1, 1, b);
    n.add_output("y", la2_out[0]);
    let mut got = codes(&lint_netlist(&n, NetlistProfile::Logical));
    got.sort_by_key(|(_, s)| match s {
        Site::Cell(i) => *i,
        _ => usize::MAX,
    });
    assert_eq!(
        got,
        vec![(Code::X003, Site::Cell(0)), (Code::X003, Site::Cell(1))]
    );
}

#[test]
fn x004_multi_sink_net_in_physical_netlist() {
    let mut n = Netlist::new("x004", CellLibrary::xsfq_abutted());
    let a = n.add_input("a");
    let b = n.add_input("b");
    let q = n.add_cell(CellKind::La, &[a, b]);
    n.add_output("y", q[0]);
    n.add_output("z", q[0]);
    // Fine as a logical netlist — splitters come later …
    assert!(lint_netlist(&n, NetlistProfile::Logical).is_empty());
    // … but illegal once claimed physical.
    let diags = lint_netlist(&n, NetlistProfile::Physical);
    assert_eq!(
        codes(&diags),
        vec![(Code::X004, Site::Net(q[0].index()))],
        "{diags:?}"
    );
}

#[test]
fn x005_unpaired_dual_rail_output() {
    let mut n = Netlist::new("x005", CellLibrary::xsfq_abutted());
    let a = n.add_input("a");
    let b = n.add_input("b");
    let c = n.add_input("c");
    n.add_output("x_p", a);
    n.add_output("x_n", b);
    n.add_output("y_p", c);
    let diags = lint_netlist(&n, NetlistProfile::Logical);
    assert_eq!(
        codes(&diags),
        vec![(Code::X005, Site::Port("y_p".into()))],
        "{diags:?}"
    );
}

#[test]
fn x006_preloaded_droc_never_triggered() {
    let mut n = Netlist::new("x006", CellLibrary::xsfq_abutted());
    let a = n.add_input("a");
    let q = n.add_cell(CellKind::Droc { preload: true }, &[a]);
    n.add_output("qp", q[0]);
    n.add_output("qn", q[1]);
    let diags = lint_netlist(&n, NetlistProfile::Logical);
    assert_eq!(
        codes(&diags),
        vec![(Code::X006, Site::Cell(0))],
        "{diags:?}"
    );
    assert!(
        diags[0].message.contains("never trigger-clocked"),
        "{diags:?}"
    );
}

#[test]
fn x006_droc_on_wrong_rank_parity() {
    // A plain DROC straight off the inputs sits on rank boundary 1, which
    // §3.2 requires to be preloaded.
    let mut n = Netlist::new("x006b", CellLibrary::xsfq_abutted());
    let a = n.add_input("a");
    let q = n.add_cell(CellKind::Droc { preload: false }, &[a]);
    n.add_output("qp", q[0]);
    n.add_output("qn", q[1]);
    let diags = lint_netlist(&n, NetlistProfile::Logical);
    assert_eq!(
        codes(&diags),
        vec![(Code::X006, Site::Cell(0))],
        "{diags:?}"
    );
    assert!(diags[0].message.contains("rank boundary 1"), "{diags:?}");
}

#[test]
fn x007_splitter_flavor_mismatch() {
    let mut n = Netlist::new("x007", CellLibrary::xsfq_abutted());
    let a = n.add_input("a");
    let b = n.add_input("b");
    let q = n.add_cell(CellKind::La, &[a, b]);
    let s = n.add_cell(CellKind::RsfqSplitter, &[q[0]]);
    n.add_output("y", s[0]);
    n.add_output("z", s[1]);
    let diags = lint_netlist(&n, NetlistProfile::Logical);
    assert_eq!(
        codes(&diags),
        vec![(Code::X007, Site::Cell(1))],
        "{diags:?}"
    );
}

#[test]
fn x007_family_mixing() {
    let mut n = Netlist::new("x007b", CellLibrary::rsfq());
    let a = n.add_input("a");
    let b = n.add_input("b");
    let q = n.add_cell(CellKind::RsfqAnd, &[a, b]);
    let r = n.add_cell(CellKind::La, &[q[0], a]);
    n.add_output("y", r[0]);
    let diags = lint_netlist(&n, NetlistProfile::Logical);
    assert_eq!(codes(&diags), vec![(Code::X007, Site::Design)], "{diags:?}");
}

#[test]
fn x008_duplicate_and_shadowing_ports() {
    let mut n = Netlist::new("x008", CellLibrary::xsfq_abutted());
    let a = n.add_input("a");
    n.add_input("a");
    n.add_output("y", a);
    let diags = lint_netlist(&n, NetlistProfile::Logical);
    assert_eq!(codes(&diags), vec![(Code::X008, Site::Port("a".into()))]);

    let mut n = Netlist::new("x008b", CellLibrary::xsfq_abutted());
    let a = n.add_input("a");
    n.add_output("a", a);
    let diags = lint_netlist(&n, NetlistProfile::Logical);
    assert_eq!(codes(&diags), vec![(Code::X008, Site::Port("a".into()))]);
    assert!(diags[0].message.contains("shadows"), "{diags:?}");
}

#[test]
fn w101_dead_cell() {
    let mut n = Netlist::new("w101", CellLibrary::xsfq_abutted());
    let a = n.add_input("a");
    let b = n.add_input("b");
    n.add_cell(CellKind::La, &[a, b]);
    n.add_output("y", a);
    let diags = lint_netlist(&n, NetlistProfile::Logical);
    assert_eq!(
        codes(&diags),
        vec![(Code::W101, Site::Cell(0))],
        "{diags:?}"
    );
    assert_eq!(diags[0].severity, Severity::Warning);
}

#[test]
fn w102_chained_splitter_tree() {
    let mut n = Netlist::new("w102", CellLibrary::xsfq_abutted());
    let a = n.add_input("a");
    let s1 = n.add_cell(CellKind::Splitter, &[a]);
    let s2 = n.add_cell(CellKind::Splitter, &[s1[0]]);
    let s3 = n.add_cell(CellKind::Splitter, &[s2[0]]);
    n.add_output("o1", s1[1]);
    n.add_output("o2", s2[1]);
    n.add_output("o3", s3[0]);
    n.add_output("o4", s3[1]);
    let diags = lint_netlist(&n, NetlistProfile::Physical);
    assert_eq!(
        codes(&diags),
        vec![(Code::W102, Site::Cell(0))],
        "{diags:?}"
    );
}

#[test]
fn clean_netlists_stay_clean() {
    // Hand-built well-formed netlist, logical and physical.
    let mut n = Netlist::new("clean", CellLibrary::xsfq_abutted());
    let a = n.add_input("a");
    let b = n.add_input("b");
    let q = n.add_cell(CellKind::La, &[a, b]);
    n.add_output("y", q[0]);
    assert!(lint_netlist(&n, NetlistProfile::Logical).is_empty());
    assert!(lint_netlist(&n, NetlistProfile::Physical).is_empty());
    // Splitter insertion keeps it clean under the physical profile.
    let mut fan = Netlist::new("fan", CellLibrary::xsfq_abutted());
    let a = fan.add_input("a");
    let b = fan.add_input("b");
    let q = fan.add_cell(CellKind::La, &[a, b]);
    for i in 0..5 {
        fan.add_output(format!("y{i}"), q[0]);
    }
    let phys = fan.insert_splitters();
    assert!(lint_netlist(&phys, NetlistProfile::Physical).is_empty());
}

#[test]
fn aig_port_collisions_and_validation() {
    let mut g = Aig::new("dup");
    let a = g.input("a");
    let b = g.input("b");
    let x = g.and(a, b);
    g.output("y", x);
    g.output("y", a);
    let diags = lint_aig(&g);
    assert_eq!(codes(&diags), vec![(Code::X008, Site::Port("y".into()))]);

    let mut g = Aig::new("shadow");
    let a = g.input("a");
    g.output("a", a);
    let diags = lint_aig(&g);
    assert_eq!(codes(&diags), vec![(Code::X008, Site::Port("a".into()))]);
    assert!(diags[0].message.contains("shadows"), "{diags:?}");

    let mut g = Aig::new("ok");
    let a = g.input("a");
    let b = g.input("b");
    let x = g.and(a, b);
    g.output("y", x);
    assert!(lint_aig(&g).is_empty());
    assert!(g.validate().is_empty());
}

#[test]
fn x011_residual_arrival_skew() {
    // Join skew: an LA chain where one input of cell 1 lags by a full LA
    // delay (7.2 ps > the 4.6 ps JTL tolerance).
    let mut n = Netlist::new("x011", CellLibrary::xsfq_abutted());
    let a = n.add_input("a");
    let b = n.add_input("b");
    let c = n.add_input("c");
    let la1 = n.add_cell(CellKind::La, &[a, b]);
    let la2 = n.add_cell(CellKind::La, &[la1[0], c]);
    n.add_output("y", la2[0]);
    let tol = n.library().delay(CellKind::Jtl);
    let diags = lint_timing(&n, tol);
    assert_eq!(
        codes(&diags),
        vec![(Code::X011, Site::Cell(1))],
        "{diags:?}"
    );
    assert_eq!(diags[0].severity, Severity::Error);

    // Dual-rail output skew: `y_p` goes straight out, `y_n` through two
    // JTLs (9.2 ps apart > 4.6 ps tolerance) — flagged at the `_p` port.
    let mut n = Netlist::new("x011-rails", CellLibrary::xsfq_abutted());
    let a = n.add_input("a");
    let b = n.add_input("b");
    let sp = n.add_cell(CellKind::Splitter, &[a]);
    let j1 = n.add_cell(CellKind::Jtl, &[sp[1]]);
    let j2 = n.add_cell(CellKind::Jtl, &[j1[0]]);
    n.add_output("y_p", sp[0]);
    n.add_output("y_n", j2[0]);
    n.add_output("z", b);
    let diags = lint_timing(&n, tol);
    assert_eq!(
        codes(&diags),
        vec![(Code::X011, Site::Port("y_p".into()))],
        "{diags:?}"
    );

    // Balancing clears both findings.
    use xsfq_timing::{balance_netlist, TimingOptions};
    let mut n = Netlist::new("x011-fixed", CellLibrary::xsfq_abutted());
    let a = n.add_input("a");
    let b = n.add_input("b");
    let c = n.add_input("c");
    let la1 = n.add_cell(CellKind::La, &[a, b]);
    let la2 = n.add_cell(CellKind::La, &[la1[0], c]);
    n.add_output("y", la2[0]);
    let balanced = balance_netlist(&n, &TimingOptions::default())
        .netlist
        .expect("skewed join gets a pad");
    assert!(lint_timing(&balanced, tol).is_empty());
}
