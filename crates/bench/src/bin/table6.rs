//! Regenerates the paper's Table 6 (ISCAS89 vs the qSeq-style baseline).
//! Run with `--release`.

fn main() {
    print!("{}", xsfq_bench::table6_text());
}
