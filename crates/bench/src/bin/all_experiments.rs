//! Regenerates every table and figure in one run. Run with `--release`.

fn main() {
    println!("{}", xsfq_bench::table1());
    println!("{}", xsfq_bench::table2());
    println!("{}", xsfq_bench::fig2());
    println!("{}", xsfq_bench::fig3());
    println!("{}", xsfq_bench::fig4_5());
    println!("{}", xsfq_bench::table3_text());
    println!("{}", xsfq_bench::table4_text());
    println!("{}", xsfq_bench::table5_text());
    println!("{}", xsfq_bench::table6_text());
    println!("{}", xsfq_bench::fig7());
    println!("{}", xsfq_bench::ablation_polarity());
    println!("{}", xsfq_bench::ablation_opt());
}
