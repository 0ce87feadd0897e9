//! Paper tables golden: the rendered text of Tables 3–6 must match these
//! pinned copies byte for byte. That covers every row, the Table 4 and
//! Table 6 geomean savings and Table 5's three pipelining rows.
//!
//! `suite_golden` pins each design's optimized AIG and `jj_total`. The
//! tables print what the paper reports on top of that: LA/FA cells,
//! duplication, DROCs, the RSFQ baseline's JJ count, savings, depth and
//! clock rate. Run in CI as a named step under the default pool and
//! `XSFQ_THREADS=1`; the text is the same under both.
//!
//! **A known defect, pinned as it prints.** Table 6's s382, s400 and s444
//! rows are identical: `iscas89::traffic` ignores its seed, so the three
//! designs are one circuit. Making them distinct is a declared output
//! change that re-blesses this file and `suite_golden` together.
//!
//! **Blessing.** On a mismatch the test prints the complete replacement
//! constant, which is pasted over the old one in the same commit that
//! changes the output.

const TABLE3: &str = concat!(
    "Table 3 — duplication penalty, EPFL control circuits\n",
    "  arbiter             33%\n",
    "  cavlc               60%\n",
    "  ctrl                10%\n",
    "  dec                  0%\n",
    "  i2c                  2%\n",
    "  int2float           54%\n",
    "  mem_ctrl            17%\n",
    "  priority             0%\n",
    "  router              42%\n",
    "  voter               99%\n",
    "  voter(monotone)      0%\n",
);

const TABLE4: &str = concat!(
    "Table 4 — ISCAS85 & EPFL combinational circuits vs PBMap-style RSFQ\n",
    "Circuit        RSFQ #JJ   #LA/FA   Dupl     #DROC      #JJ   JJ savings\n",
    "c880               7376      442    89%    0/0        2983   2.5/3.4  x\n",
    "c1908              2445      348    75%    0/0        2355   1.0/1.4  x\n",
    "c499               4625      643    74%    0/0        4366   1.1/1.4  x\n",
    "c3540             10064      511    72%    0/0        3463   2.9/4.0  x\n",
    "c5315             16213     1039    85%    0/0        7111   2.3/3.1  x\n",
    "c7552             39505      719    51%    0/0        4739   8.3/12.1 x\n",
    "int2float          5075      240    54%    0/0        1638   3.1/4.2  x\n",
    "dec                5474      304     0%    0/0        2848   1.9/2.3  x\n",
    "priority         116486      494     0%    0/0        2717  42.9/63.4 x\n",
    "sin              184658     7302    99%    0/0       51081   3.6/5.1  x\n",
    "cavlc              2176       88    60%    0/0         589   3.7/5.2  x\n",
    "geomean savings: 3.3x / 4.5x (without/with clock splitting)\n",
);

const TABLE5: &str = concat!(
    "Table 5 — post-synthesis results for c6288 (pipelining)\n",
    "Stages        #JJ   #LA/FA   Dupl       #DROC        Depth    Clock (GHz)\n",
    "  0/0       28807     4129    96%     0/0        117/235      0.6/0.3   \n",
    "  1/2       30910     3977    89%    32/142       61/124      1.2/0.6   \n",
    "  2/4       34465     3812    81%   174/288       31/64       2.3/1.2   \n",
);

const TABLE6: &str = concat!(
    "Table 6 — ISCAS89 sequential circuits vs qSeq-style RSFQ\n",
    "Circuit        RSFQ #JJ   #LA/FA   Dupl     #DROC      #JJ   JJ savings\n",
    "s27                 293       14    75%    3/3         181   1.6/2.2  x\n",
    "s298               1968       82    12%   14/14       1048   1.9/2.5  x\n",
    "s344               2749      121     7%   15/15       1326   2.1/2.7  x\n",
    "s349               2474      107     8%   15/15       1240   2.0/2.7  x\n",
    "s382               2388       97    23%   21/21       1386   1.7/2.3  x\n",
    "s386                735       39     0%    6/6         458   1.6/2.1  x\n",
    "s400               2388       97    23%   21/21       1386   1.7/2.3  x\n",
    "s420.1             4496      123    18%   16/16       1384   3.2/4.5  x\n",
    "s444               2388       97    23%   21/21       1386   1.7/2.3  x\n",
    "s510                698       34     0%    6/6         420   1.7/2.1  x\n",
    "s526               2554      119     9%   21/21       1546   1.7/2.2  x\n",
    "s641               4424      189     6%   19/19       1876   2.4/3.1  x\n",
    "s713               4244      188     6%   19/19       1872   2.3/3.0  x\n",
    "s820               4249      146     8%    5/5        1151   3.7/4.9  x\n",
    "s832               4100      147     7%    5/5        1155   3.5/4.7  x\n",
    "s838.1            13414      251    18%   32/32       2804   4.8/6.8  x\n",
    "geomean savings: 2.2x / 3.0x (without/with clock splitting)\n",
);

/// Panic with the drifted lines and the replacement constant, in its
/// source layout, unless `got` is exactly `want`.
fn assert_pinned(name: &str, got: &str, want: &str) {
    if got == want {
        return;
    }
    let want_lines: Vec<&str> = want.lines().collect();
    let drifted: Vec<&str> = got
        .lines()
        .enumerate()
        .filter(|&(i, line)| want_lines.get(i) != Some(&line))
        .map(|(_, line)| line)
        .collect();
    let mut constant = format!("const {name}: &str = concat!(\n");
    for line in got.split_inclusive('\n') {
        constant.push_str(&format!("    {line:?},\n"));
    }
    constant.push_str(");\n");
    panic!(
        "{name} mismatch (drifted lines {drifted:#?}); \
         if the change is meant to alter results, replace the constant with:\n\n{constant}"
    );
}

#[test]
fn table3_is_pinned() {
    assert_pinned("TABLE3", &xsfq_bench::table3_text(), TABLE3);
}

#[test]
fn table4_is_pinned() {
    assert_pinned("TABLE4", &xsfq_bench::table4_text(), TABLE4);
}

#[test]
fn table5_is_pinned() {
    assert_pinned("TABLE5", &xsfq_bench::table5_text(), TABLE5);
}

#[test]
fn table6_is_pinned() {
    assert_pinned("TABLE6", &xsfq_bench::table6_text(), TABLE6);
}
