//! The harness arithmetic: medians, the tail-percentile chooser, workunit
//! turnaround from event pairs, and the stage-budget closure. Pure
//! functions over plain numbers, unit-tested below.

use std::collections::BTreeMap;

/// Median of `values` (mean of the two middle samples for even counts).
/// Panics on an empty slice: a metric with no samples is a harness bug,
/// not a number.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Median of `f` over `items`.
pub fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// The `q`-quantile (nearest rank on the sorted samples).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((v.len() as f64 - 1.0) * q).round() as usize;
    v[idx.min(v.len() - 1)]
}

/// The highest of p90/p95/p99/p99.9 that still has at least ten samples
/// beyond it, as `(label, q)`; `None` below 100 samples, where even p90
/// would rest on fewer than ten.
pub fn tail_percentile(n: usize) -> Option<(&'static str, f64)> {
    [
        ("p99.9", 0.999),
        ("p99", 0.99),
        ("p95", 0.95),
        ("p90", 0.90),
    ]
    .into_iter()
    .find(|&(_, q)| (n as f64) * (1.0 - q) >= 10.0 - 1e-9)
}

/// One flight-recorder event reduced to what turnaround pairing needs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WuMark {
    pub wu: u64,
    pub t_s: f64,
    pub assimilated: bool,
}

/// Seconds from a workunit's *first* `wu_assigned` to its `assimilated`,
/// one sample per workunit that has both (replicas and reassignments of
/// the same workunit share the first hand-off). Returned in workunit-id
/// order so pooled samples are reproducible.
pub fn turnarounds(marks: &[WuMark]) -> Vec<f64> {
    let mut first_assign: BTreeMap<u64, f64> = BTreeMap::new();
    let mut done: BTreeMap<u64, f64> = BTreeMap::new();
    for m in marks {
        if m.assimilated {
            done.entry(m.wu).or_insert(m.t_s);
        } else {
            let e = first_assign.entry(m.wu).or_insert(m.t_s);
            if m.t_s < *e {
                *e = m.t_s;
            }
        }
    }
    done.iter()
        .filter_map(|(wu, &t1)| first_assign.get(wu).map(|&t0| (t1 - t0).max(0.0)))
        .collect()
}

/// Gaps between consecutive epoch-end stamps, the first measured from the
/// start of the epoch loop (0).
pub fn epoch_gaps(end_wall_s: &[f64]) -> Vec<f64> {
    let mut prev = 0.0;
    end_wall_s
        .iter()
        .map(|&t| {
            let gap = t - prev;
            prev = t;
            gap
        })
        .collect()
}

/// The six stage durations of one workunit's winning chain plus the span
/// it must close against: creation to assimilated.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Chain {
    pub stages: [f64; 6],
    pub life_s: f64,
}

impl Chain {
    /// Σ stages / life: 1.0 when the stage spans account for the whole
    /// life of the workunit.
    pub fn closure(&self) -> f64 {
        self.stages.iter().sum::<f64>() / self.life_s
    }

    /// Life not covered by any stage span.
    pub fn unaccounted_s(&self) -> f64 {
        self.life_s - self.stages.iter().sum::<f64>()
    }
}

/// The band a closing budget must land in.
pub const CLOSURE_RANGE: (f64, f64) = (0.85, 1.10);

pub fn closure_in_range(c: f64) -> bool {
    (CLOSURE_RANGE.0..=CLOSURE_RANGE.1).contains(&c)
}

/// Interquartile spread as a share of the median, the way the driver
/// computes it (`statistics.quantiles(values, n=4)`, exclusive method).
pub fn iqr_share(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "spread needs two samples");
    let at = |p: f64| {
        // Exclusive method: position p·(n+1), clamped to the sample range.
        let pos = (p * (n as f64 + 1.0)).clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        let hi = (lo + 1).min(n);
        v[lo - 1] + frac * (v[hi - 1] - v[lo - 1])
    };
    (at(0.75) - at(0.25)) / median(&v).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(("p90", 0.90)));
        assert_eq!(tail_percentile(199), Some(("p90", 0.90)));
        assert_eq!(tail_percentile(200), Some(("p95", 0.95)));
        assert_eq!(tail_percentile(999), Some(("p95", 0.95)));
        assert_eq!(tail_percentile(1000), Some(("p99", 0.99)));
        assert_eq!(tail_percentile(10_000), Some(("p99.9", 0.999)));
    }

    #[test]
    fn turnaround_pairs_first_assignment_with_assimilation() {
        let a = |wu, t_s| WuMark {
            wu,
            t_s,
            assimilated: false,
        };
        let d = |wu, t_s| WuMark {
            wu,
            t_s,
            assimilated: true,
        };
        // wu 0: two replicas, the first hand-off counts. wu 1: reassigned
        // after a timeout. wu 2: never assimilated — no sample. wu 3:
        // assimilated with no recorded hand-off (dropped event) — no sample.
        let marks = [
            a(0, 1.0),
            a(1, 1.5),
            a(0, 1.2),
            d(0, 2.0),
            a(2, 2.1),
            a(1, 3.0),
            d(1, 4.5),
            d(3, 5.0),
        ];
        assert_eq!(turnarounds(&marks), vec![1.0, 3.0]);
    }

    #[test]
    fn epoch_gaps_start_from_zero() {
        assert_eq!(epoch_gaps(&[1.0, 2.5, 3.0]), vec![1.0, 1.5, 0.5]);
        assert!(epoch_gaps(&[]).is_empty());
    }

    #[test]
    fn closure_is_stage_sum_over_life() {
        let c = Chain {
            stages: [0.5, 0.1, 1.0, 0.0, 0.0, 0.2],
            life_s: 2.0,
        };
        assert!((c.closure() - 0.9).abs() < 1e-12);
        assert!((c.unaccounted_s() - 0.2).abs() < 1e-12);
        assert!(closure_in_range(0.9));
        assert!(closure_in_range(0.85) && closure_in_range(1.10));
        assert!(!closure_in_range(0.84) && !closure_in_range(1.11));
    }

    #[test]
    fn iqr_share_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 12, 11, 15, 13], n=4) == [10.5, 12.0, 14.0]
        assert!((iqr_share(&[10.0, 12.0, 11.0, 15.0, 13.0]) - 3.5 / 12.0).abs() < 1e-12);
    }
}
