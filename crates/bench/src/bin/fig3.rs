//! Figure 3 — total training time for {P1C3, P3C3, P5C5} × {T2, T4, T8}
//! at α = 0.95 over a fixed epoch budget.
//!
//! Expected shape (paper): with one parameter server (P1C3), time drops
//! from T2 to T4 but *rises* again at T8 — three clients at T8 outrun a
//! single assimilator. P3C3T8 recovers (about 3 hours faster than P1C3T8
//! over 40 epochs). With P5C5 the imbalance grows with Tn, so time rises
//! monotonically from T2.
//!
//! Timing is independent of the learned values, so this runner uses the
//! driver's `timing_only` mode and reproduces the full 40-epoch clock in
//! milliseconds.
//!
//! Run: `cargo run -p vc-bench --bin fig3 --release`

fn main() {
    let fig = vc_bench::fig3();
    print!("{}", fig.table);
    vc_bench::write_results("fig3.csv", &fig.csv);
    print!("{}", fig.checks);
}
