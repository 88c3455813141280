//! `vc-benchmark`: the repo's contract benchmark (see `../README.md`).
//!
//! Two entry points, both reached through `benchmark/run.sh`:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` — one run
//!   of one workload, the shape the benchmark driver calls. Prints every
//!   metric as `workload name value unit n=<samples>`, the host facts,
//!   and as its last line one JSON object with `correct`, `attempted`,
//!   `failed` and `metrics`.
//! * no `--workload` — the full set: interleaved untraced runs, one traced
//!   run per workload, the probe pass once, `results/latest.json`
//!   (`suite.rs`).

mod alloc;
mod e2e;
mod host;
mod json;
mod probes;
mod run;
mod stats;
mod suite;
mod trace;
mod workloads;

use run::{Metric, RunOutput};
use serde::Content;
use std::path::PathBuf;
use workloads::Workload;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Parsed command line.
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub smoke: bool,
    pub repeat_check: bool,
    pub spread_check: bool,
    pub skip_probes: bool,
    /// Where trace files, `latest.json` and run details go.
    pub results_dir: PathBuf,
    /// The repo's `BENCHMARK.json` (bounds for `--repeat-check`).
    pub manifest: PathBuf,
    /// Write the run's full detail (metrics, samples, problems) here.
    pub detail: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 7,
        seconds: None,
        trace: false,
        smoke: false,
        repeat_check: false,
        spread_check: false,
        skip_probes: false,
        results_dir: PathBuf::from("benchmark/results"),
        manifest: PathBuf::from("BENCHMARK.json"),
        detail: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds {s} is not a duration"));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--smoke" => a.smoke = true,
            "--repeat-check" => a.repeat_check = true,
            "--spread-check" => a.spread_check = true,
            "--skip-probes" => a.skip_probes = true,
            "--results-dir" => a.results_dir = PathBuf::from(value("a directory")?),
            "--manifest" => a.manifest = PathBuf::from(value("a file")?),
            "--detail" => a.detail = Some(PathBuf::from(value("a file")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn metric_json(m: &Metric) -> Content {
    json::obj([
        ("value", Content::F64(m.value)),
        ("unit", json::s(m.unit.clone())),
        ("n", Content::U64(m.n as u64)),
    ])
}

/// A metric list as a JSON object keyed by name.
pub fn metrics_json(metrics: &[Metric]) -> Content {
    json::obj(metrics.iter().map(|m| (m.name.clone(), metric_json(m))))
}

pub fn print_metrics(label: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{label} {} {} {} n={}", m.name, m.value, m.unit, m.n);
    }
}

/// The run's full detail, for the suite to aggregate.
fn detail_json(label: &str, args: &Args, out: &RunOutput) -> Content {
    json::obj([
        ("workload", json::s(label)),
        ("host", host::facts(args.seed)),
        ("attempted", Content::U64(out.attempted)),
        ("failed", Content::U64(out.failed)),
        (
            "problems",
            Content::Seq(out.problems.iter().map(|p| json::s(p.clone())).collect()),
        ),
        ("metrics", metrics_json(&out.metrics)),
        ("extra", metrics_json(&out.extra)),
        (
            "samples",
            json::obj(out.samples.iter().map(|(k, v)| {
                (
                    k.clone(),
                    Content::Seq(v.iter().map(|&x| Content::F64(x)).collect()),
                )
            })),
        ),
    ])
}

/// Names in `BENCHMARK.json`'s `section` that the run did not report, and
/// names it reported that the file does not list. A missing or unreadable
/// file is not this check's business.
fn manifest_drift(args: &Args, section: &str, reported: &[Metric]) -> Vec<String> {
    let Ok(doc) = json::parse_file(&args.manifest) else {
        return Vec::new();
    };
    let listed: Vec<&str> = json::get(&doc, section)
        .and_then(|c| c.as_seq())
        .map(|v| {
            v.iter()
                .filter_map(|m| json::get(m, "name")?.as_str())
                .collect()
        })
        .unwrap_or_default();
    let mut drift = Vec::new();
    for name in &listed {
        if !reported.iter().any(|m| m.name == *name) {
            drift.push(format!(
                "BENCHMARK.json {section} lists {name}, not reported"
            ));
        }
    }
    for m in reported {
        if !listed.contains(&m.name.as_str()) {
            drift.push(format!(
                "{} reported, not in BENCHMARK.json {section}",
                m.name
            ));
        }
    }
    drift
}

/// One run, reported the way the driver reads it.
fn single_run(args: &Args, name: &str) -> Result<(), String> {
    let seconds = args.seconds.unwrap_or(25.0);
    let mut out = if name == "probes" {
        run::run_probes(args.seed, seconds, args.smoke)
    } else {
        let w = Workload::parse(name).ok_or_else(|| {
            let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload {name}; known: {}", known.join(", "))
        })?;
        if args.trace {
            run::run_traced(w, args.seed, seconds, args.smoke, !args.skip_probes)?
        } else {
            run::run_untraced(w, args.seed, seconds, args.smoke)?
        }
    };
    for m in out.metrics.iter().chain(&out.extra) {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite", m.name));
        }
    }

    // The driver reads exactly the names `BENCHMARK.json` lists; a full
    // contract run (not the suite's partial ones) must report all of them.
    if name != "probes" && !args.skip_probes && !args.smoke {
        let section = if args.trace {
            "per_layer"
        } else {
            "end_to_end"
        };
        let drift = manifest_drift(args, section, &out.metrics);
        out.problems.extend(drift);
    }

    if let Some(trace) = &out.trace_json {
        std::fs::create_dir_all(&args.results_dir).map_err(|e| e.to_string())?;
        let path = args.results_dir.join(format!("trace_{name}.json"));
        std::fs::write(&path, trace).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("{name} trace written to {}", path.display());
    }
    if let Some(path) = &args.detail {
        std::fs::write(path, json::pretty(&detail_json(name, args, &out)))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    print_metrics(name, &out.metrics);
    print_metrics(name, &out.extra);
    for p in &out.problems {
        println!("{name} PROBLEM {p}");
    }
    println!("host {}", json::compact(&host::facts(args.seed)));
    let correct = out.problems.is_empty() && out.failed == 0;
    let line = json::obj([
        ("correct", Content::Bool(correct)),
        ("attempted", Content::U64(out.attempted.max(1))),
        ("failed", Content::U64(out.failed)),
        (
            "metrics",
            json::obj(out.metrics.iter().map(|m| {
                (
                    m.name.clone(),
                    json::obj([
                        ("value", Content::F64(m.value)),
                        ("unit", json::s(m.unit.clone())),
                    ]),
                )
            })),
        ),
    ]);
    println!("{}", json::compact(&line));
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vc-benchmark: {e}");
            std::process::exit(2);
        }
    };
    let ok = match &args.workload {
        // An incorrect run still reported: the caller reads `correct`.
        Some(name) => single_run(&args, name).map(|()| true),
        None => suite::run(&args),
    };
    match ok {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("vc-benchmark: {e}");
            std::process::exit(1);
        }
    }
}
