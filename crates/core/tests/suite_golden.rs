//! Suite golden: the `standard` flow over all 35 registered ISCAS85, EPFL
//! and ISCAS89 benchmarks must reproduce these exact per-design numbers —
//! the optimized AIG's AND count, depth and canonical digest, and the
//! report's JJ total.
//!
//! `script_golden` compares two paths through the same pass functions, so
//! it cannot see a pass whose output drifts. This table is the absolute
//! reference: any change to what a pass, the polarity search or the mapper
//! computes on a real design fails here. Run in CI as a named step under
//! the default pool and `XSFQ_THREADS=1`.
//!
//! **Blessing.** A change that is meant to alter results must say so: on a
//! mismatch the test prints the complete replacement table, which is pasted
//! over [`GOLDEN`] (and [`JJ_SUM`]) in the same commit that changes the
//! output.

use xsfq_aig::digest::canonical_digest;
use xsfq_core::SynthesisFlow;

/// `(design, optimized ANDs, optimized depth, canonical digest, jj_total)`
/// per design, in `xsfq_benchmarks::all()` order.
#[rustfmt::skip]
const GOLDEN: &[(&str, usize, usize, &str, u64)] = &[
    ("c432", 145, 20, "b15dd8e3eeda64a179a6cea33d6aea9d", 1569),
    ("c499", 370, 17, "9560c1fcc7631367103c25aa96477a13", 4366),
    ("c880", 234, 28, "6c5b0f53f5655c81bb33a6a79bbff3e7", 2983),
    ("c1908", 199, 15, "2908c6977417eb9d0ad203f744d686e5", 2355),
    ("c3540", 297, 31, "c08c4881dbecf4cb1af15da122d40df5", 3463),
    ("c5315", 561, 36, "966dd6d41b82b3ef7cc8478a9afb2b50", 7111),
    ("c6288", 2103, 117, "bdfe324292f575de278e506be8bd11a5", 28807),
    ("c7552", 477, 66, "468d0d0db0e806138fdcc8ad9d1d3f5b", 4739),
    ("arbiter", 365, 22, "3f5828b9d839b2907a7d11c607a92f0d", 2840),
    ("cavlc", 55, 14, "2194c61db87a49b651664d355599fcc8", 589),
    ("ctrl", 58, 4, "bd9dfd204f0d0dd62dcfded983ff1327", 484),
    ("dec", 304, 3, "7e57ecb3b2e73bdf877be3ed59a73e79", 2848),
    ("i2c", 82, 8, "ba53c6885d680443e41eff980a74bb81", 510),
    ("int2float", 156, 30, "7e5a082d446ba00b78ac8f2d2a87c6d7", 1638),
    ("mem_ctrl", 122, 17, "40005fe0724bd272d9a1fbc273929ad2", 710),
    ("priority", 494, 133, "924289153ca6abb976cedeab2964c75c", 2717),
    ("router", 73, 9, "d983ef6d0606f3e7594edf7e9b656ef9", 620),
    ("voter", 7470, 60, "3dcd7b8526f3f88cffe2ea43fd2836d5", 98269),
    ("sin", 3667, 290, "3f3748235ca6a8058dca0b11445aac56", 51081),
    ("s27", 8, 5, "a426b3444e2ed6e995952a965326cb4a", 181),
    ("s298", 73, 6, "9cc3c4fc57164f76c45055111f2e9303", 1048),
    ("s344", 113, 6, "0d4bfc1b298bf4be998203b52f2d9ba3", 1326),
    ("s349", 99, 6, "b82f77ec781ae1bae44c1f6eee02997f", 1240),
    ("s382", 79, 7, "eb0bca2da16c353d220ce8946eef7327", 1386),
    ("s386", 39, 4, "ffb0574647dcfc75fae40262f0eca8f0", 458),
    ("s400", 79, 7, "1cb10f163a853cd023aa789f886a71c9", 1386),
    ("s420.1", 104, 22, "b558c027f7a972faec87edf1f951a44a", 1384),
    ("s444", 79, 7, "70834e512479c169078898e7139e0612", 1386),
    ("s510", 34, 4, "91842436621b782f39b0a55be49b7143", 420),
    ("s526", 109, 6, "af2c32f822a7b475665b7b1812819bfb", 1546),
    ("s641", 179, 6, "958dfb4fe3b90e8dacf34c4c18478bf9", 1876),
    ("s713", 178, 6, "b35d45395f8482bd8eb11c396fb5eb88", 1872),
    ("s820", 135, 9, "97221bd8b4487d34a6436898f90688f8", 1151),
    ("s832", 138, 7, "9aca4b60b78a13e2215f3911cf66b103", 1155),
    ("s838.1", 212, 42, "a97a4faeb248d21d5b23414f5fede760", 2804),
];

/// Sum of the `jj_total` column.
const JJ_SUM: u64 = 238318;

type Row = (String, usize, usize, String, u64);

/// The replacement for [`GOLDEN`] and [`JJ_SUM`], in their source layout.
fn render(rows: &[Row]) -> String {
    let mut out =
        String::from("#[rustfmt::skip]\nconst GOLDEN: &[(&str, usize, usize, &str, u64)] = &[\n");
    for (name, ands, depth, digest, jj) in rows {
        out.push_str(&format!(
            "    ({name:?}, {ands}, {depth}, \"{digest}\", {jj}),\n"
        ));
    }
    let sum: u64 = rows.iter().map(|r| r.4).sum();
    out.push_str(&format!(
        "];\n\n/// Sum of the `jj_total` column.\nconst JJ_SUM: u64 = {sum};\n"
    ));
    out
}

#[test]
fn standard_flow_reproduces_the_suite_golden_rows() {
    let benches = xsfq_benchmarks::all();
    let designs: Vec<_> = benches.iter().map(|b| (b.build)()).collect();
    let results = SynthesisFlow::new()
        .script_str("standard")
        .expect("the standard preset parses")
        .run_many(&designs)
        .expect("every suite design synthesizes");
    let got: Vec<Row> = benches
        .iter()
        .zip(&results)
        .map(|(b, r)| {
            (
                b.name.to_string(),
                r.optimized.num_ands(),
                r.optimized.depth(),
                canonical_digest(&r.optimized).to_string(),
                r.report.jj_total,
            )
        })
        .collect();
    let want: Vec<Row> = GOLDEN
        .iter()
        .map(|&(name, ands, depth, digest, jj)| {
            (name.to_string(), ands, depth, digest.to_string(), jj)
        })
        .collect();
    let sum: u64 = got.iter().map(|r| r.4).sum();
    if got != want || sum != JJ_SUM {
        let drifted: Vec<&str> = got
            .iter()
            .enumerate()
            .filter(|&(i, row)| want.get(i) != Some(row))
            .map(|(_, row)| row.0.as_str())
            .collect();
        panic!(
            "suite golden mismatch (rows {drifted:?}, jj_total sum {sum} vs {JJ_SUM}); \
             if the change is meant to alter results, replace the table with:\n\n{}",
            render(&got)
        );
    }
}
