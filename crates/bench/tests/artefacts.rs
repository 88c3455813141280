//! The three `timing_only` paper artefacts are what the code prints, byte
//! for byte: EXPERIMENTS.md quotes `results/{fig3.csv, sec4d.txt,
//! sec4e.txt}`, so a change that moves the simulated clock has to
//! regenerate them (see `results/README.md`) in the same commit.

fn committed(name: &str) -> String {
    let path = format!("{}/../../results/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn fig3_csv_is_what_the_runner_writes() {
    assert_eq!(vc_bench::fig3().csv, committed("fig3.csv"));
}

#[test]
fn sec4d_txt_is_what_the_runner_prints() {
    assert_eq!(vc_bench::sec4d(), committed("sec4d.txt"));
}

#[test]
fn sec4e_txt_is_what_the_runner_prints() {
    assert_eq!(vc_bench::sec4e(), committed("sec4e.txt"));
}
