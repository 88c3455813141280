//! The metrics registry: counters, gauges and fixed-bucket histograms.
//!
//! Everything here is lock-cheap on the hot path: counters and histogram
//! buckets are atomics, the registry's lock is only taken to *look up* a
//! metric handle (callers cache the returned [`Arc`]), and snapshots copy
//! the atomics without stopping writers. Exposition comes in two formats:
//! Prometheus text ([`Registry::render_prometheus`]) and a serde-friendly
//! [`RegistrySnapshot`] for JSON artifacts.

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotone event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value (stored as `f64` bits).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram: `bounds[i]` is bucket `i`'s inclusive upper
/// edge, plus one implicit `+Inf` overflow bucket. Observation is two
/// relaxed atomic adds (bucket + count) and one CAS loop (the `f64` sum).
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl Histogram {
    /// A histogram over the given (strictly increasing, finite) upper
    /// bounds.
    pub fn new(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "a histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite and strictly increasing"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
        }
    }

    /// Default bounds for latency-in-seconds histograms: 1 µs to 10 s.
    pub fn latency_bounds() -> Vec<f64> {
        vec![
            1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2,
            2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
        ]
    }

    /// Default bounds for version-count histograms (e.g. staleness measured
    /// in `server_version − read_version`).
    pub fn version_bounds() -> Vec<f64> {
        vec![
            0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0, 128.0,
        ]
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let idx = self.bounds.partition_point(|b| *b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Copies the current state (writers keep going; the copy is
    /// per-atomic consistent, not a global freeze).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
        }
    }
}

/// A point-in-time copy of a [`Histogram`], with percentile estimation and
/// merging (for aggregating across runs or shards).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Inclusive upper bucket edges (the `+Inf` bucket is implicit).
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts; `counts.len() == bounds.len() + 1`.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// An empty snapshot over `bounds`.
    pub fn empty(bounds: Vec<f64>) -> Self {
        let counts = vec![0; bounds.len() + 1];
        HistogramSnapshot {
            bounds,
            counts,
            count: 0,
            sum: 0.0,
        }
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) by linear interpolation
    /// inside the covering bucket, the standard Prometheus
    /// `histogram_quantile` scheme. Observations in the `+Inf` overflow
    /// bucket report the last finite bound. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank && c > 0 {
                if i >= self.bounds.len() {
                    return *self.bounds.last().expect("bounds are never empty");
                }
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let hi = self.bounds[i];
                let below = cum - c;
                return lo + (hi - lo) * ((rank - below) as f64 / c as f64);
            }
        }
        *self.bounds.last().expect("bounds are never empty")
    }
}

impl Default for HistogramSnapshot {
    /// An empty snapshot with no finite buckets (only the `+Inf` overflow),
    /// matching [`HistogramSnapshot::empty`]'s invariants.
    fn default() -> Self {
        HistogramSnapshot::empty(Vec::new())
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: Vec<(String, Arc<Counter>)>,
    gauges: Vec<(String, Arc<Gauge>)>,
    histograms: Vec<(String, Arc<Histogram>)>,
}

/// A named collection of metrics. Lookup takes the registry lock once;
/// callers on hot paths cache the returned handles.
#[derive(Default)]
pub struct Registry {
    inner: RwLock<RegistryInner>,
}

fn get_or_insert<T>(
    list: &mut Vec<(String, Arc<T>)>,
    name: &str,
    make: impl FnOnce() -> T,
) -> Arc<T> {
    if let Some((_, m)) = list.iter().find(|(n, _)| n == name) {
        return m.clone();
    }
    let m = Arc::new(make());
    list.push((name.to_string(), m.clone()));
    m
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some((_, c)) = self.inner.read().counters.iter().find(|(n, _)| n == name) {
            return c.clone();
        }
        get_or_insert(&mut self.inner.write().counters, name, Counter::default)
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some((_, g)) = self.inner.read().gauges.iter().find(|(n, _)| n == name) {
            return g.clone();
        }
        get_or_insert(&mut self.inner.write().gauges, name, Gauge::default)
    }

    /// The histogram named `name` with [`Histogram::latency_bounds`],
    /// created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, Histogram::latency_bounds)
    }

    /// The histogram named `name`, created on first use with the bounds
    /// `make_bounds` produces (an existing histogram keeps its bounds).
    pub fn histogram_with(
        &self,
        name: &str,
        make_bounds: impl FnOnce() -> Vec<f64>,
    ) -> Arc<Histogram> {
        if let Some((_, h)) = self.inner.read().histograms.iter().find(|(n, _)| n == name) {
            return h.clone();
        }
        get_or_insert(&mut self.inner.write().histograms, name, || {
            Histogram::new(make_bounds())
        })
    }

    /// A point-in-time copy of every metric, sorted by name (so two
    /// snapshots of identical state serialize identically).
    pub fn snapshot(&self) -> RegistrySnapshot {
        let g = self.inner.read();
        let mut counters: Vec<CounterSample> = g
            .counters
            .iter()
            .map(|(n, c)| CounterSample {
                name: n.clone(),
                value: c.get(),
            })
            .collect();
        let mut gauges: Vec<GaugeSample> = g
            .gauges
            .iter()
            .map(|(n, v)| GaugeSample {
                name: n.clone(),
                value: v.get(),
            })
            .collect();
        let mut histograms: Vec<HistogramSample> = g
            .histograms
            .iter()
            .map(|(n, h)| HistogramSample {
                name: n.clone(),
                histogram: h.snapshot(),
            })
            .collect();
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        gauges.sort_by(|a, b| a.name.cmp(&b.name));
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        RegistrySnapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// Prometheus text exposition of every metric, sorted by name, with
    /// `# HELP` / `# TYPE` metadata and names sanitized to the exposition
    /// charset `[a-zA-Z_:][a-zA-Z0-9_:]*`.
    pub fn render_prometheus(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::new();
        let help_line = |out: &mut String, raw: &str, name: &str| {
            let text = escape_help(&format!("vc-dl metric {raw}"));
            out.push_str(&format!("# HELP {name} {text}\n"));
        };
        for c in &snap.counters {
            let name = sanitize(&c.name);
            help_line(&mut out, &c.name, &name);
            out.push_str(&format!("# TYPE {name} counter\n{name} {}\n", c.value));
        }
        for g in &snap.gauges {
            let name = sanitize(&g.name);
            help_line(&mut out, &g.name, &name);
            out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", g.value));
        }
        for h in &snap.histograms {
            let name = sanitize(&h.name);
            help_line(&mut out, &h.name, &name);
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cum = 0u64;
            for (i, c) in h.histogram.counts.iter().enumerate() {
                cum += c;
                let le = match h.histogram.bounds.get(i) {
                    Some(b) => format!("{b}"),
                    None => "+Inf".to_string(),
                };
                out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cum}\n"));
            }
            out.push_str(&format!("{name}_sum {}\n", h.histogram.sum));
            out.push_str(&format!("{name}_count {}\n", h.histogram.count));
        }
        out
    }
}

/// Maps an arbitrary metric name into the Prometheus exposition charset
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`: every disallowed character becomes `_`,
/// and a leading digit (or an empty name) gains a `_` prefix.
fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.is_empty() || out.as_bytes()[0].is_ascii_digit() {
        out.insert(0, '_');
    }
    out
}

/// Escapes help text per the Prometheus text format: `\` and newlines.
fn escape_help(text: &str) -> String {
    text.replace('\\', "\\\\").replace('\n', "\\n")
}

/// One counter in a [`RegistrySnapshot`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Metric name.
    pub name: String,
    /// Counter value at snapshot time.
    pub value: u64,
}

/// One gauge in a [`RegistrySnapshot`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GaugeSample {
    /// Metric name.
    pub name: String,
    /// Gauge value at snapshot time.
    pub value: f64,
}

/// One histogram in a [`RegistrySnapshot`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistogramSample {
    /// Metric name.
    pub name: String,
    /// The histogram state.
    pub histogram: HistogramSnapshot,
}

/// A serializable copy of a whole [`Registry`], name-sorted.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    /// All counters.
    pub counters: Vec<CounterSample>,
    /// All gauges.
    pub gauges: Vec<GaugeSample>,
    /// All histograms.
    pub histograms: Vec<HistogramSample>,
}

impl RegistrySnapshot {
    /// Looks up a counter's value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|h| h.name == name)
            .map(|h| &h.histogram)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("ops");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("ops").get(), 5, "same name, same counter");
        let g = reg.gauge("depth");
        g.set(2.5);
        assert_eq!(reg.gauge("depth").get(), 2.5);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper_edges() {
        let h = Histogram::new(vec![1.0, 2.0, 5.0]);
        // Exactly on an edge lands in that bucket (le semantics)…
        h.observe(1.0);
        h.observe(2.0);
        // …just above an edge spills into the next…
        h.observe(1.0000001);
        // …and past the last edge lands in +Inf.
        h.observe(100.0);
        h.observe(0.0);
        let s = h.snapshot();
        assert_eq!(s.counts, vec![2, 2, 0, 1]);
        assert_eq!(s.count, 5);
        assert!((s.sum - 104.0000001).abs() < 1e-6);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let h = Histogram::new(vec![1.0, 2.0, 4.0]);
        // 10 observations uniform in the (1, 2] bucket.
        for _ in 0..10 {
            h.observe(1.5);
        }
        let s = h.snapshot();
        // Median rank 5 of 10 → 50% through the (1, 2] bucket → 1.5.
        assert!((s.quantile(0.5) - 1.5).abs() < 1e-9);
        assert!(
            (s.quantile(1.0) - 2.0).abs() < 1e-9,
            "p100 is the bucket edge"
        );
        assert!((s.quantile(0.1) - 1.1).abs() < 1e-9);
        assert_eq!(HistogramSnapshot::empty(vec![1.0]).quantile(0.5), 0.0);
    }

    #[test]
    fn quantile_of_overflow_bucket_reports_last_bound() {
        let h = Histogram::new(vec![1.0]);
        h.observe(50.0);
        assert_eq!(h.snapshot().quantile(0.99), 1.0);
    }

    #[test]
    fn exposition_format_golden() {
        let reg = Registry::new();
        reg.counter("vc_ops_total").add(3);
        reg.gauge("queue\ndepth").set(1.5);
        let h = reg.histogram_with("lat_s", || vec![0.5, 1.0]);
        h.observe(0.25);
        h.observe(0.75);
        h.observe(2.0);
        // Counters render before gauges before histograms; every series
        // gets a generic # HELP (newline-escaped) and # TYPE; bucket
        // counts are cumulative with an explicit +Inf edge plus
        // _sum/_count; names are sanitized to the Prometheus charset.
        let expected = "\
# HELP vc_ops_total vc-dl metric vc_ops_total
# TYPE vc_ops_total counter
vc_ops_total 3
# HELP queue_depth vc-dl metric queue\\ndepth
# TYPE queue_depth gauge
queue_depth 1.5
# HELP lat_s vc-dl metric lat_s
# TYPE lat_s histogram
lat_s_bucket{le=\"0.5\"} 1
lat_s_bucket{le=\"1\"} 2
lat_s_bucket{le=\"+Inf\"} 3
lat_s_sum 3
lat_s_count 3
";
        assert_eq!(reg.render_prometheus(), expected);
    }

    #[test]
    fn exposition_sanitizes_hostile_names() {
        assert_eq!(sanitize("ok_name:x"), "ok_name:x");
        assert_eq!(sanitize("has space-and.dots"), "has_space_and_dots");
        assert_eq!(sanitize("9starts_with_digit"), "_9starts_with_digit");
        assert_eq!(sanitize(""), "_");
        let reg = Registry::new();
        reg.counter("2xx responses").add(1);
        let text = reg.render_prometheus();
        assert!(text.contains("_2xx_responses 1"), "{text}");
        assert!(text.contains("# TYPE _2xx_responses counter"), "{text}");
    }

    #[test]
    fn registry_snapshot_is_sorted_and_queryable() {
        let reg = Registry::new();
        reg.counter("b").inc();
        reg.counter("a").add(2);
        reg.histogram_with("h", || vec![1.0]).observe(0.5);
        let s = reg.snapshot();
        assert_eq!(s.counters[0].name, "a");
        assert_eq!(s.counters[1].name, "b");
        assert_eq!(s.counter("a"), Some(2));
        assert_eq!(s.histogram("h").unwrap().count, 1);
        assert_eq!(s.counter("missing"), None);
        // JSON roundtrip through the vendored serde.
        let json = serde_json::to_string(&s).unwrap();
        let back: RegistrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
