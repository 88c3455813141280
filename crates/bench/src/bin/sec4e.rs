//! §IV-E — impact of preemptible instances.
//!
//! Reproduces:
//! 1. the cost table: $1.67/h vs $0.50/h for the P5C5T2 fleet (70 %
//!    saving), $13.4 vs $4 over the 8-hour run;
//! 2. the binomial timeout model `E[extra] = n·p·t_o` (50 min at p = 0.05,
//!    200 min at p = 0.20), validated three ways: closed form, Monte-Carlo
//!    over the wave process, and the full discrete-event fleet simulation
//!    with per-subtask Bernoulli preemptions;
//! 3. the cost-with-delay comparison: preemptible stays far cheaper even
//!    after paying for the stretched runtime.
//!
//! Run: `cargo run -p vc-bench --bin sec4e --release`
//! (`-q … > results/sec4e.txt` regenerates the committed artefact).

fn main() {
    print!("{}", vc_bench::sec4e());
}
