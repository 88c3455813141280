//! The full set: what `benchmark/run.sh` runs when no `--workload` is
//! given.
//!
//! Every run is a child process of this one (the same binary with
//! `--workload`), so peak RSS and CPU time are per run. Untraced runs are
//! interleaved across workloads — A B C D A B C D A B C D — so drift on a
//! shared box hits all four alike; then one traced run per workload, then
//! the probe pass once (its numbers do not depend on the workload). The
//! end-to-end value of a metric is the median of its runs; turnaround and
//! epoch percentiles pool the samples of all runs.

use crate::json::{as_f64, compact, get, obj, parse_file, pretty, s};
use crate::run::{efficiency, with_tail, Metric};
use crate::stats::{iqr_share, median};
use crate::workloads::Workload;
use crate::{host, metrics_json, print_metrics, Args};
use serde::Content;
use std::path::Path;
use std::process::Command;

/// Untraced runs per workload in the full set.
const RUNS: usize = 3;
/// Seconds each run measures unless `--seconds` says otherwise: four
/// workloads × (3 + 1) runs, each after its warm-up repetition, plus the
/// probe pass stay near six minutes.
const RUN_SECONDS: f64 = 12.0;

/// One child run's detail file, parsed.
struct Detail(Content);

impl Detail {
    fn metrics(&self, section: &str) -> Vec<Metric> {
        let Some(map) = get(&self.0, section).and_then(|c| c.as_map()) else {
            return Vec::new();
        };
        map.iter()
            .filter_map(|(name, m)| {
                Some(Metric {
                    name: name.clone(),
                    value: as_f64(get(m, "value")?)?,
                    unit: get(m, "unit")?.as_str()?.to_string(),
                    n: as_f64(get(m, "n")?)? as usize,
                })
            })
            .collect()
    }

    fn samples(&self, name: &str) -> Vec<f64> {
        get(&self.0, "samples")
            .and_then(|c| get(c, name))
            .and_then(|c| c.as_seq())
            .map(|v| v.iter().filter_map(as_f64).collect())
            .unwrap_or_default()
    }

    fn problems(&self) -> Vec<String> {
        get(&self.0, "problems")
            .and_then(|c| c.as_seq())
            .map(|v| {
                v.iter()
                    .filter_map(|p| p.as_str().map(String::from))
                    .collect()
            })
            .unwrap_or_default()
    }

    fn count(&self, key: &str) -> u64 {
        get(&self.0, key).and_then(as_f64).unwrap_or(0.0) as u64
    }
}

/// Runs one child and reads back its detail file.
fn child(args: &Args, name: &str, seed: u64, seconds: f64, trace: bool) -> Result<Detail, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    std::fs::create_dir_all(&args.results_dir).map_err(|e| e.to_string())?;
    let detail = args.results_dir.join(format!("detail_{name}.tmp"));
    let mut cmd = Command::new(exe);
    cmd.arg("--workload")
        .arg(name)
        .arg("--seed")
        .arg(seed.to_string())
        .arg("--seconds")
        .arg(seconds.to_string())
        .arg("--trace")
        .arg(if trace { "1" } else { "0" })
        .arg("--skip-probes")
        .arg("--results-dir")
        .arg(&args.results_dir)
        .arg("--detail")
        .arg(&detail);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child; nothing outlives this call.
    let out = cmd.output().map_err(|e| format!("launching {name}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{name} run failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let doc = parse_file(&detail);
    std::fs::remove_file(&detail).ok();
    doc.map(Detail)
}

/// One workload's untraced runs folded into one list per section of the
/// detail file (`metrics`: the bounded end-to-end metrics, `extra`: the
/// timings and context beside them). A `_p50` is recomputed, with its tail
/// percentile, from the pooled samples of all runs; everything else is the
/// median of the runs' values.
fn aggregate(runs: &[Detail]) -> (Vec<Metric>, Vec<Metric>) {
    let section = |name: &str| {
        let lists: Vec<Vec<Metric>> = runs.iter().map(|d| d.metrics(name)).collect();
        let mut out = Vec::new();
        for first in &lists[0] {
            if let Some(base) = first.name.strip_suffix("_p50") {
                let pooled: Vec<f64> = runs.iter().flat_map(|d| d.samples(base)).collect();
                let mut tail = Vec::new();
                with_tail(base, &pooled, &mut out, &mut tail);
                out.append(&mut tail);
            } else if !is_tail(&first.name) {
                let values: Vec<f64> =
                    lists.iter().filter_map(|l| find(l, &first.name)).collect();
                out.push(Metric {
                    value: median(&values),
                    n: values.len(),
                    ..first.clone()
                });
            }
        }
        out
    };
    (section("metrics"), section("extra"))
}

/// True for the tail percentile `with_tail` prints beside a `_p50`.
fn is_tail(name: &str) -> bool {
    ["_p90", "_p95", "_p99", "_p99.9"]
        .iter()
        .any(|t| name.ends_with(t))
}

/// What the set measured for one workload.
struct WorkloadResult {
    workload: Workload,
    /// The bounded end-to-end metrics over the untraced runs.
    e2e: Vec<Metric>,
    /// The unbounded timings, their tail percentiles, accuracy and the
    /// like, printed beside them.
    context: Vec<Metric>,
    /// Per-layer metrics of the traced run (empty until it has run).
    layer: Vec<Metric>,
}

struct SetResult {
    per_workload: Vec<WorkloadResult>,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
}

/// The interleaved untraced runs of every workload.
fn untraced_set(args: &Args, seconds: f64) -> Result<SetResult, String> {
    let runs_per = if args.smoke { 1 } else { RUNS };
    let mut details: Vec<Vec<Detail>> = Workload::ALL.iter().map(|_| Vec::new()).collect();
    for round in 0..runs_per {
        for (i, w) in Workload::ALL.iter().enumerate() {
            eprintln!("run {}/{runs_per} {}", round + 1, w.name());
            details[i].push(child(args, w.name(), args.seed, seconds, false)?);
        }
    }
    let mut set = SetResult {
        per_workload: Vec::new(),
        problems: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    for (w, runs) in Workload::ALL.into_iter().zip(&details) {
        for d in runs {
            set.attempted += d.count("attempted");
            set.failed += d.count("failed");
            set.problems.extend(
                d.problems()
                    .into_iter()
                    .map(|p| format!("{}: {p}", w.name())),
            );
        }
        let (e2e, context) = aggregate(runs);
        set.per_workload.push(WorkloadResult {
            workload: w,
            e2e,
            context,
            layer: Vec::new(),
        });
    }
    Ok(set)
}

fn find(metrics: &[Metric], name: &str) -> Option<f64> {
    metrics.iter().find(|m| m.name == name).map(|m| m.value)
}

/// The written-down design intent of each workload, checked against what
/// was measured. A miss is reported, not fatal: the README records what
/// was found instead.
fn intent_checks(per_workload: &[WorkloadResult]) -> Vec<String> {
    let get = |w: Workload, name: &str| {
        per_workload
            .iter()
            .find(|r| r.workload == w)
            .and_then(|r| find(&r.e2e, name).or_else(|| find(&r.layer, name)))
    };
    let mut lines = Vec::new();
    let mut check = |what: String, value: Option<f64>, ok: &dyn Fn(f64) -> bool| {
        lines.push(match value {
            Some(v) => format!(
                "intent {what}: {v:.4} {}",
                if ok(v) { "ok" } else { "MISSED" }
            ),
            None => format!("intent {what}: not measured"),
        });
    };
    check(
        "resnet_compute train share of in-flight stage time >= 0.90".into(),
        get(Workload::ResnetCompute, "runtime.train_share"),
        &|v| v >= 0.90,
    );
    check(
        "mlp_transfer fetch+validate+assimilate share >= 0.45".into(),
        get(Workload::MlpTransfer, "runtime.ps_share"),
        &|v| v >= 0.45,
    );
    let ratio = match (
        get(Workload::MlpTransferInt8, "wire_bytes_per_wu"),
        get(Workload::MlpTransfer, "wire_bytes_per_wu"),
    ) {
        (Some(a), Some(b)) => Some(a / b),
        _ => None,
    };
    check(
        "mlp_transfer_int8 wire bytes / mlp_transfer <= 1/3".into(),
        ratio,
        &|v| v <= 1.0 / 3.0,
    );
    check(
        "churn_quorum assignments per workunit >= 1.9".into(),
        get(Workload::ChurnQuorum, "runtime.assignments_per_wu"),
        &|v| v >= 1.9,
    );
    lines
}

fn full_set(args: &Args, seconds: f64) -> Result<bool, String> {
    let set = untraced_set(args, seconds)?;
    let mut problems = set.problems;
    let (mut attempted, mut failed) = (set.attempted, set.failed);

    eprintln!("probe pass");
    let probes = child(args, "probes", args.seed, seconds, false)?;
    problems.extend(
        probes
            .problems()
            .into_iter()
            .map(|p| format!("probes: {p}")),
    );
    let probe_metrics = probes.metrics("metrics");

    let mut per_workload = set.per_workload;
    for r in &mut per_workload {
        let w = r.workload;
        eprintln!("traced run {}", w.name());
        let traced = child(args, w.name(), args.seed, seconds, true)?;
        attempted += traced.count("attempted");
        failed += traced.count("failed");
        problems.extend(
            traced
                .problems()
                .into_iter()
                .map(|p| format!("{} traced: {p}", w.name())),
        );
        r.layer = traced.metrics("metrics");
        let replica = find(&probe_metrics, w.replica_metric());
        if let (Some(replica_s), Some(rate)) = (replica, find(&r.context, "wu_per_s")) {
            let cn = w.config(args.seed, args.smoke, false).job.cn;
            r.layer.push(Metric::new(
                "runtime.efficiency",
                efficiency(replica_s, rate, cn),
                "ratio",
                RUNS,
            ));
        }
    }

    for r in &per_workload {
        for list in [&r.e2e, &r.context, &r.layer] {
            print_metrics(r.workload.name(), list);
        }
    }
    print_metrics("probes", &probe_metrics);
    // Toy sizes say nothing about where a real run spends its time.
    let intent = if args.smoke {
        Vec::new()
    } else {
        intent_checks(&per_workload)
    };
    for line in &intent {
        println!("{line}");
    }
    for p in &problems {
        println!("PROBLEM {p}");
    }
    let facts = host::facts(args.seed);
    println!("host {}", compact(&facts));

    let correct = problems.is_empty() && failed == 0;
    let doc = obj([
        ("host", facts),
        ("smoke", Content::Bool(args.smoke)),
        ("run_seconds", Content::F64(seconds)),
        ("correct", Content::Bool(correct)),
        ("attempted", Content::U64(attempted)),
        ("failed", Content::U64(failed)),
        (
            "problems",
            Content::Seq(problems.iter().map(|p| s(p.clone())).collect()),
        ),
        (
            "intent",
            Content::Seq(intent.iter().map(|p| s(p.clone())).collect()),
        ),
        (
            "workloads",
            obj(per_workload.iter().map(|r| {
                (
                    r.workload.name(),
                    obj([
                        ("end_to_end", metrics_json(&r.e2e)),
                        ("context", metrics_json(&r.context)),
                        ("per_layer", metrics_json(&r.layer)),
                    ]),
                )
            })),
        ),
        ("probes", metrics_json(&probe_metrics)),
    ]);
    let path = args.results_dir.join("latest.json");
    std::fs::write(&path, pretty(&doc)).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(correct)
}

/// `(name, better, bound)` of every end-to-end metric in `BENCHMARK.json`.
fn bounds(manifest: &Path) -> Result<Vec<(String, bool, f64)>, String> {
    let doc = parse_file(manifest)?;
    let list = get(&doc, "end_to_end")
        .and_then(|c| c.as_seq())
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = get(m, "name").and_then(|c| c.as_str());
            let better = get(m, "better").and_then(|c| c.as_str());
            let bound = get(m, "bound").and_then(as_f64);
            match (name, better, bound) {
                (Some(n), Some(b), Some(x)) => Ok((n.to_string(), b == "higher", x)),
                _ => Err("malformed end_to_end entry in BENCHMARK.json".to_string()),
            }
        })
        .collect()
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better).
fn worsening(first: f64, second: f64, higher_is_better: bool) -> f64 {
    let change = (second - first) / first.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

/// Two full untraced sets of the same code; every end-to-end metric of
/// every workload must agree within its bound, in either direction.
fn repeat_check(args: &Args, seconds: f64) -> Result<bool, String> {
    let bounds = bounds(&args.manifest)?;
    let first = untraced_set(args, seconds)?;
    let second = untraced_set(args, seconds)?;
    let mut ok = first.problems.is_empty() && second.problems.is_empty();
    for p in first.problems.iter().chain(&second.problems) {
        println!("PROBLEM {p}");
    }
    for (a, b) in first.per_workload.iter().zip(&second.per_workload) {
        let w = a.workload;
        for (name, higher, bound) in &bounds {
            let (Some(x), Some(y)) = (find(&a.e2e, name), find(&b.e2e, name)) else {
                println!("{} {name} missing", w.name());
                ok = false;
                continue;
            };
            let diff = worsening(x, y, *higher).abs();
            let verdict = if diff <= *bound { "ok" } else { "EXCEEDED" };
            if diff > *bound {
                ok = false;
            }
            println!(
                "{} {name} first={x} second={y} diff={diff:.4} bound={bound} {verdict}",
                w.name()
            );
        }
    }
    println!("host {}", compact(&host::facts(args.seed)));
    Ok(ok)
}

/// Seeds `--spread-check` runs each workload on.
const SPREAD_SEEDS: u64 = 10;

/// What the driver does before it accepts the benchmark: one untraced run
/// per workload on each of ten seeds, then per metric the distance between
/// the first and third quartile of the ten values as a share of their
/// median, against the metric's bound (`setup_s` is printed but exempt).
fn spread_check(args: &Args, seconds: f64) -> Result<bool, String> {
    let bounds = bounds(&args.manifest)?;
    let mut values: Vec<Vec<Vec<f64>>> = Workload::ALL
        .iter()
        .map(|_| bounds.iter().map(|_| Vec::new()).collect())
        .collect();
    let mut ok = true;
    for seed in args.seed..args.seed + SPREAD_SEEDS {
        for (i, w) in Workload::ALL.iter().enumerate() {
            eprintln!("seed {seed} {}", w.name());
            let d = child(args, w.name(), seed, seconds, false)?;
            for p in d.problems() {
                println!("PROBLEM seed {seed} {}: {p}", w.name());
                ok = false;
            }
            let metrics = d.metrics("metrics");
            for (j, (name, ..)) in bounds.iter().enumerate() {
                values[i][j].push(find(&metrics, name).ok_or(format!("{name} not reported"))?);
            }
        }
    }
    for (i, w) in Workload::ALL.iter().enumerate() {
        for (j, (name, _, bound)) in bounds.iter().enumerate() {
            let spread = iqr_share(&values[i][j]);
            let exempt = name == "setup_s";
            let verdict = match (spread <= *bound, exempt) {
                (true, _) => "ok",
                (false, true) => "exempt",
                (false, false) => "EXCEEDED",
            };
            if spread > *bound && !exempt {
                ok = false;
            }
            println!(
                "{} {name} median={} spread={spread:.4} bound={bound} {verdict}",
                w.name(),
                median(&values[i][j])
            );
        }
    }
    println!("host {}", compact(&host::facts(args.seed)));
    Ok(ok)
}

/// `run_seconds` of `BENCHMARK.json`: what the driver passes as `--seconds`.
fn driver_seconds(manifest: &Path) -> Result<f64, String> {
    get(&parse_file(manifest)?, "run_seconds")
        .and_then(as_f64)
        .ok_or_else(|| "BENCHMARK.json has no run_seconds".to_string())
}

pub fn run(args: &Args) -> Result<bool, String> {
    if args.repeat_check || args.spread_check {
        // The checks mirror the driver, so they measure what it measures.
        let seconds = match args.seconds {
            Some(s) => s,
            None => driver_seconds(&args.manifest)?,
        };
        return if args.repeat_check {
            repeat_check(args, seconds)
        } else {
            spread_check(args, seconds)
        };
    }
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 0.0 } else { RUN_SECONDS });
    full_set(args, seconds)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detail(wu_per_s: f64, turnaround: &[f64]) -> Detail {
        let m = |v: f64, unit: &str| {
            obj([
                ("value", Content::F64(v)),
                ("unit", s(unit)),
                ("n", Content::U64(3)),
            ])
        };
        Detail(obj([
            (
                "metrics",
                obj([
                    ("wu_per_s", m(wu_per_s, "1/s")),
                    ("wu_turnaround_s_p50", m(median(turnaround), "s")),
                ]),
            ),
            ("extra", obj([("final_val_acc", m(0.5, "frac"))])),
            (
                "samples",
                obj([(
                    "wu_turnaround_s",
                    Content::Seq(turnaround.iter().map(|&x| Content::F64(x)).collect()),
                )]),
            ),
        ]))
    }

    #[test]
    fn aggregate_takes_median_of_runs_and_pools_turnaround_samples() {
        let runs = [
            detail(10.0, &[1.0, 1.0, 1.0]),
            detail(30.0, &[2.0]),
            detail(20.0, &[9.0]),
        ];
        let (metrics, extra) = aggregate(&runs);
        assert_eq!(find(&metrics, "wu_per_s"), Some(20.0));
        // Median of per-run medians would be 2.0; the pooled median of
        // [1, 1, 1, 2, 9] is 1.0.
        assert_eq!(find(&metrics, "wu_turnaround_s_p50"), Some(1.0));
        assert_eq!(metrics[1].n, 5, "sample count is the pooled count");
        assert_eq!(find(&extra, "final_val_acc"), Some(0.5));
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((worsening(10.0, 9.0, true) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 11.0, true) + 0.1).abs() < 1e-12);
        assert!((worsening(2.0, 2.2, false) - 0.1).abs() < 1e-9);
    }
}
