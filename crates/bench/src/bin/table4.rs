//! Regenerates the paper's Table 4 (ISCAS85 + EPFL vs the PBMap-style
//! baseline). Run with `--release`.

fn main() {
    print!("{}", xsfq_bench::table4_text());
}
