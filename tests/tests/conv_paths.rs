//! DST golden check for the conv dispatch: a chaos training trajectory
//! over `small_cnn`, pinned before the direct 3×3 kernels existed, must not
//! move by a single bit.
//!
//! The scenario overrides the DST default mlp with `small_cnn` (the
//! paper's model family), so every local training step routes through the
//! dispatch in `vc_nn::conv`. The golden bits below were captured with the
//! im2col path forced — i.e. the trajectory of the codebase *before* the
//! direct path existed. `Conv2d` now picks the direct kernels for every
//! 3×3 stride-1 layer on geometry alone, so matching these constants is
//! the end-to-end proof that the direct kernels reproduce the lowering
//! (the kernel-level proof against the im2col oracle is
//! `crates/tensor/tests/conv_direct_props.rs`).

use vc_runtime::{run_scenario, Scenario};
use vc_telemetry::fnv1a;

/// A kill-storm scenario over the small CNN: 4 volunteers, 2 trusted
/// nodes, 2 epochs, 30 % of the fleet killed once mid-run.
fn cnn_storm(seed: u64) -> Scenario {
    let mut sc = Scenario::new(seed)
        .cn(4)
        .tn(2)
        .epochs(2)
        .kill_fraction(0.3, 1);
    sc.cfg.job.model = vc_nn::spec::small_cnn(&sc.cfg.job.data.img, sc.cfg.job.data.classes);
    sc.cfg.job.val_eval_n = 60;
    sc
}

/// (per-epoch `mean_val_acc` bits, final val bits, final test bits,
/// FNV-1a of the report JSON) captured at seed 0 with the im2col path
/// forced. The report hash was recaptured once fresh-run workers drew the
/// seeded model instead of fetching it (`ps_ops` and `bytes_transferred`
/// moved; the accuracy bits did not).
const GOLDEN_EPOCHS: [u32; 2] = [1045639988, 1052490684];
const GOLDEN_VAL: u32 = 1052770304;
const GOLDEN_TEST: u32 = 1054727646;
const GOLDEN_REPORT: u64 = 0xacc26c8f714c1982;

#[test]
fn conv_dispatch_reproduces_the_pinned_im2col_trajectory() {
    let out = run_scenario(&cnn_storm(0)).expect("cnn storm scenario runs");
    let epochs: Vec<u32> = out
        .report
        .epochs
        .iter()
        .map(|e| e.mean_val_acc.to_bits())
        .collect();
    assert_eq!(epochs, GOLDEN_EPOCHS, "per-epoch accuracy bits moved");
    assert_eq!(
        out.report.final_val_acc.to_bits(),
        GOLDEN_VAL,
        "final val accuracy bits moved"
    );
    assert_eq!(
        out.report.final_test_acc.to_bits(),
        GOLDEN_TEST,
        "final test accuracy bits moved"
    );
    assert_eq!(
        fnv1a(out.report_json().as_bytes()),
        GOLDEN_REPORT,
        "report JSON hash moved"
    );
}
