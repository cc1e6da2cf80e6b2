//! Always-on metrics: counters, gauges, and fixed-bucket histograms.
//!
//! Names are registered once in a process-wide registry that hands out
//! stable slot indices; values live in plain thread-local vectors indexed
//! by slot, so recording is lock-free and non-atomic. Each simulated rank
//! (thread) therefore accumulates an independent set, which
//! [`snapshot`] captures for per-rank reporting and cross-rank merging.

use crate::sink::{ThreadSink, SINK};
use std::collections::HashMap;
use std::sync::{Arc, LazyLock, Mutex};

/// Process-wide name → slot registry. Ordered vectors drive snapshot
/// iteration; the hash maps make registration O(1) instead of a linear
/// scan under the mutex (registration happens on hot paths that have not
/// hoisted their handles into a `OnceLock` yet).
#[derive(Default)]
pub(crate) struct Registry {
    pub(crate) counters: Vec<&'static str>,
    pub(crate) gauges: Vec<&'static str>,
    pub(crate) hists: Vec<(&'static str, Arc<[f64]>)>,
    counter_idx: HashMap<&'static str, usize>,
    gauge_idx: HashMap<&'static str, usize>,
    hist_idx: HashMap<&'static str, usize>,
}

pub(crate) static REGISTRY: LazyLock<Mutex<Registry>> =
    LazyLock::new(|| Mutex::new(Registry::default()));

/// Handle to a named monotonically increasing counter.
#[derive(Clone, Copy, Debug)]
pub struct Counter {
    slot: usize,
}

/// Handle to a named gauge (a settable/accumulable `f64`).
#[derive(Clone, Copy, Debug)]
pub struct Gauge {
    slot: usize,
}

/// Handle to a named fixed-bucket histogram.
#[derive(Clone, Debug)]
pub struct Histogram {
    slot: usize,
    bounds: Arc<[f64]>,
}

/// Get (registering on first use) the counter named `name`. Handles with
/// the same name share the slot, so counts accumulate regardless of where
/// the handle was created.
pub fn counter(name: &'static str) -> Counter {
    let mut r = REGISTRY.lock().unwrap();
    let slot = match r.counter_idx.get(name) {
        Some(&i) => i,
        None => {
            let i = r.counters.len();
            r.counters.push(name);
            r.counter_idx.insert(name, i);
            i
        }
    };
    Counter { slot }
}

/// Get (registering on first use) the gauge named `name`.
pub fn gauge(name: &'static str) -> Gauge {
    let mut r = REGISTRY.lock().unwrap();
    let slot = match r.gauge_idx.get(name) {
        Some(&i) => i,
        None => {
            let i = r.gauges.len();
            r.gauges.push(name);
            r.gauge_idx.insert(name, i);
            i
        }
    };
    Gauge { slot }
}

/// Get (registering on first use) the histogram named `name`. The bucket
/// layout is fixed by the first registration; later calls with different
/// `buckets` reuse the original layout.
pub fn histogram(name: &'static str, buckets: Buckets) -> Histogram {
    let mut r = REGISTRY.lock().unwrap();
    match r.hist_idx.get(name) {
        Some(&i) => Histogram {
            slot: i,
            bounds: Arc::clone(&r.hists[i].1),
        },
        None => {
            let i = r.hists.len();
            let bounds: Arc<[f64]> = buckets.bounds.into();
            r.hists.push((name, Arc::clone(&bounds)));
            r.hist_idx.insert(name, i);
            Histogram { slot: i, bounds }
        }
    }
}

impl Counter {
    /// Add `n` to the current thread's value.
    pub fn add(self, n: u64) {
        SINK.with(|s| {
            let mut s = s.borrow_mut();
            if s.counters.len() <= self.slot {
                s.counters.resize(self.slot + 1, 0);
            }
            s.counters[self.slot] += n;
        });
    }

    /// Increment by one.
    pub fn incr(self) {
        self.add(1);
    }

    /// Current thread's value.
    pub fn get(self) -> u64 {
        SINK.with(|s| s.borrow().counters.get(self.slot).copied().unwrap_or(0))
    }
}

impl Gauge {
    /// Set the current thread's value.
    pub fn set(self, v: f64) {
        self.update(|_| v);
    }

    /// Add to the current thread's value (for accumulated quantities such
    /// as seconds inside communication calls).
    pub fn add(self, v: f64) {
        self.update(|old| old + v);
    }

    /// Current thread's value.
    pub fn get(self) -> f64 {
        SINK.with(|s| s.borrow().gauges.get(self.slot).copied().unwrap_or(0.0))
    }

    /// Apply `f` to the current thread's value (e.g. a running maximum).
    pub fn update(self, f: impl FnOnce(f64) -> f64) {
        SINK.with(|s| {
            let mut s = s.borrow_mut();
            if s.gauges.len() <= self.slot {
                s.gauges.resize(self.slot + 1, 0.0);
            }
            s.gauges[self.slot] = f(s.gauges[self.slot]);
        });
    }
}

impl Histogram {
    /// Record one observation on the current thread.
    pub fn record(&self, v: f64) {
        SINK.with(|s| self.record_in(&mut s.borrow_mut(), v));
    }

    pub(crate) fn record_in(&self, s: &mut ThreadSink, v: f64) {
        let idx = bucket_index(&self.bounds, v);
        if s.hists.len() <= self.slot {
            s.hists.resize_with(self.slot + 1, HistData::default);
        }
        let h = &mut s.hists[self.slot];
        if h.counts.is_empty() {
            h.counts = vec![0; self.bounds.len() + 1];
        }
        h.counts[idx] += 1;
        if h.count == 0 {
            h.min = v;
            h.max = v;
        } else {
            h.min = h.min.min(v);
            h.max = h.max.max(v);
        }
        h.count += 1;
        h.sum += v;
    }

    /// The bucket upper bounds (the last bucket, not listed, is
    /// unbounded).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }
}

/// Bucket layout for a histogram: a strictly increasing list of inclusive
/// upper bounds. An observation `v` lands in the first bucket with
/// `v <= bound`; values above every bound land in an implicit overflow
/// bucket.
#[derive(Clone, Debug, PartialEq)]
pub struct Buckets {
    bounds: Vec<f64>,
}

impl Buckets {
    /// Explicit upper bounds (must be finite and strictly increasing).
    pub fn explicit(bounds: &[f64]) -> Self {
        assert!(
            !bounds.is_empty(),
            "Buckets::explicit: need at least one bound"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "Buckets::explicit: bounds must be finite and strictly increasing"
        );
        Self {
            bounds: bounds.to_vec(),
        }
    }

    /// `count` bounds starting at `first`, each `factor` times the last:
    /// `first, first·factor, first·factor², …`.
    pub fn exponential(first: f64, factor: f64, count: usize) -> Self {
        assert!(
            first > 0.0 && factor > 1.0 && count > 0,
            "Buckets::exponential: bad layout"
        );
        let mut bounds = Vec::with_capacity(count);
        let mut b = first;
        for _ in 0..count {
            bounds.push(b);
            b *= factor;
        }
        Self { bounds }
    }

    /// Default layout for microsecond latencies: powers of four from
    /// 1 µs to ~4.2 s.
    pub fn latency_us() -> Self {
        Self::exponential(1.0, 4.0, 12)
    }

    /// Default layout for byte volumes: powers of four from 64 B to
    /// ~268 MB.
    pub fn bytes() -> Self {
        Self::exponential(64.0, 4.0, 12)
    }

    /// The configured upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Index of the bucket that `v` lands in (`bounds().len()` is the
    /// overflow bucket).
    pub fn bucket_index(&self, v: f64) -> usize {
        bucket_index(&self.bounds, v)
    }
}

fn bucket_index(bounds: &[f64], v: f64) -> usize {
    bounds.iter().position(|&b| v <= b).unwrap_or(bounds.len())
}

/// Per-thread histogram storage (crate-internal).
#[derive(Clone, Debug, Default)]
pub(crate) struct HistData {
    pub counts: Vec<u64>,
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
}

impl HistData {
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.count = 0;
        self.sum = 0.0;
        self.min = 0.0;
        self.max = 0.0;
    }
}

/// Frozen histogram state inside a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct HistSnapshot {
    /// Bucket upper bounds (the final bucket, unbounded, is not listed).
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts; `bounds.len() + 1` entries, the
    /// last being the overflow bucket.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
}

impl HistSnapshot {
    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Interpolated estimate of the `q`-quantile: finds the bucket
    /// holding the `q`-th observation and interpolates linearly within
    /// it, clamping to the observed `[min, max]` so estimates never
    /// stray outside the data (a raw bucket upper bound would be
    /// infinite for the overflow bucket). Returns 0 when empty.
    pub fn quantile_est(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            let next = cum + c as f64;
            if next >= target && c > 0 {
                // Bucket i spans (bounds[i-1], bounds[i]]; the implicit
                // edges are the observed min and max.
                let lo = if i == 0 {
                    self.min
                } else {
                    self.bounds[i - 1].max(self.min)
                };
                let hi = self
                    .bounds
                    .get(i)
                    .copied()
                    .unwrap_or(self.max)
                    .min(self.max);
                let hi = hi.max(lo);
                let frac = ((target - cum) / c as f64).clamp(0.0, 1.0);
                return lo + (hi - lo) * frac;
            }
            cum = next;
        }
        self.max
    }

    /// Convenience: interpolated `[p50, p95, p99]` estimates.
    pub fn percentiles(&self) -> [f64; 3] {
        [
            self.quantile_est(0.50),
            self.quantile_est(0.95),
            self.quantile_est(0.99),
        ]
    }

    /// Accumulate `other` (same bucket layout) into `self`.
    pub fn merge(&mut self, other: &HistSnapshot) {
        assert_eq!(
            self.bounds, other.bounds,
            "HistSnapshot::merge: bucket layouts differ"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        if other.count > 0 {
            if self.count == 0 {
                self.min = other.min;
                self.max = other.max;
            } else {
                self.min = self.min.min(other.min);
                self.max = self.max.max(other.max);
            }
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// One metric's frozen value.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram state.
    Histogram(HistSnapshot),
}

/// Every registered metric's value on one thread (one rank), captured by
/// [`snapshot`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs, sorted by name.
    pub metrics: Vec<(String, MetricValue)>,
}

/// Capture the current thread's value of every registered metric.
pub fn snapshot() -> MetricsSnapshot {
    SINK.with(|s| {
        let s = s.borrow();
        snapshot_from(&s.counters, &s.gauges, &s.hists)
    })
}

/// Build a [`MetricsSnapshot`] from raw slot-indexed value vectors
/// (a thread sink, or a published copy of one), resolving names through
/// the registry.
pub(crate) fn snapshot_from(
    counters: &[u64],
    gauges: &[f64],
    hists: &[HistData],
) -> MetricsSnapshot {
    let r = REGISTRY.lock().unwrap();
    let mut metrics: Vec<(String, MetricValue)> = Vec::new();
    for (i, name) in r.counters.iter().enumerate() {
        let v = counters.get(i).copied().unwrap_or(0);
        metrics.push((name.to_string(), MetricValue::Counter(v)));
    }
    for (i, name) in r.gauges.iter().enumerate() {
        let v = gauges.get(i).copied().unwrap_or(0.0);
        metrics.push((name.to_string(), MetricValue::Gauge(v)));
    }
    for (i, (name, bounds)) in r.hists.iter().enumerate() {
        let h = hists.get(i).cloned().unwrap_or_default();
        let counts = if h.counts.is_empty() {
            vec![0; bounds.len() + 1]
        } else {
            h.counts
        };
        metrics.push((
            name.to_string(),
            MetricValue::Histogram(HistSnapshot {
                bounds: bounds.to_vec(),
                counts,
                count: h.count,
                sum: h.sum,
                min: h.min,
                max: h.max,
            }),
        ));
    }
    metrics.sort_by(|a, b| a.0.cmp(&b.0));
    MetricsSnapshot { metrics }
}

impl MetricsSnapshot {
    /// Look up a metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Convenience: counter value by name (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Convenience: gauge value by name (0 if absent).
    pub fn gauge(&self, name: &str) -> f64 {
        match self.get(name) {
            Some(MetricValue::Gauge(v)) => *v,
            _ => 0.0,
        }
    }

    /// Accumulate `other` into `self`: counters and histograms add;
    /// gauges keep the maximum (they are point-in-time values). Metrics
    /// absent from `self` are copied in.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, val) in &other.metrics {
            match self.metrics.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => match (mine, val) {
                    (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                    (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a = a.max(*b),
                    (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
                    _ => {}
                },
                None => self.metrics.push((name.clone(), val.clone())),
            }
        }
        self.metrics.sort_by(|a, b| a.0.cmp(&b.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_inclusive_upper_bounds() {
        let b = Buckets::explicit(&[1.0, 10.0, 100.0]);
        // Exactly on a bound lands in that bucket.
        assert_eq!(b.bucket_index(0.0), 0);
        assert_eq!(b.bucket_index(1.0), 0);
        assert_eq!(b.bucket_index(1.0000001), 1);
        assert_eq!(b.bucket_index(10.0), 1);
        assert_eq!(b.bucket_index(100.0), 2);
        // Above every bound: overflow bucket.
        assert_eq!(b.bucket_index(100.1), 3);
        assert_eq!(b.bucket_index(f64::INFINITY), 3);
    }

    #[test]
    fn exponential_buckets_have_geometric_bounds() {
        let b = Buckets::exponential(1.0, 4.0, 5);
        assert_eq!(b.bounds(), &[1.0, 4.0, 16.0, 64.0, 256.0]);
        assert_eq!(Buckets::latency_us().bounds().len(), 12);
    }

    #[test]
    fn histogram_records_into_correct_buckets() {
        let h = histogram("test.hist.buckets", Buckets::explicit(&[2.0, 4.0]));
        crate::reset_thread_metrics();
        for v in [1.0, 2.0, 3.0, 5.0, 100.0] {
            h.record(v);
        }
        let snap = snapshot();
        let Some(MetricValue::Histogram(hs)) = snap.get("test.hist.buckets") else {
            panic!("histogram missing from snapshot");
        };
        assert_eq!(hs.counts, vec![2, 1, 2]);
        assert_eq!(hs.count, 5);
        assert_eq!(hs.min, 1.0);
        assert_eq!(hs.max, 100.0);
        assert!((hs.sum - 111.0).abs() < 1e-12);
        assert!((hs.mean() - 22.2).abs() < 1e-12);
    }

    #[test]
    fn interpolated_quantiles_stay_within_observed_range() {
        let h = histogram("test.hist.quantile_est", Buckets::explicit(&[2.0, 4.0]));
        crate::reset_thread_metrics();
        for v in [1.0, 2.0, 3.0, 5.0, 100.0] {
            h.record(v);
        }
        let snap = snapshot();
        let Some(MetricValue::Histogram(hs)) = snap.get("test.hist.quantile_est") else {
            panic!("histogram missing from snapshot");
        };
        let [p50, p95, p99] = hs.percentiles();
        // Estimates are finite, ordered, and inside [min, max], even for
        // the overflow bucket.
        assert!(p50 >= hs.min && p99 <= hs.max);
        assert!(p50 <= p95 && p95 <= p99);
        assert!(p99.is_finite());
        // p50 falls in the (2, 4] bucket, interpolated.
        assert!(p50 > 2.0 && p50 <= 4.0, "p50 = {p50}");
        // Degenerate cases.
        assert_eq!(
            HistSnapshot {
                bounds: vec![1.0],
                counts: vec![0, 0],
                count: 0,
                sum: 0.0,
                min: 0.0,
                max: 0.0,
            }
            .quantile_est(0.5),
            0.0
        );
        // Single observation: every quantile is that observation.
        let single = HistSnapshot {
            bounds: vec![10.0],
            counts: vec![1, 0],
            count: 1,
            sum: 7.0,
            min: 7.0,
            max: 7.0,
        };
        assert_eq!(single.quantile_est(0.0), 7.0);
        assert_eq!(single.quantile_est(0.5), 7.0);
        assert_eq!(single.quantile_est(1.0), 7.0);
    }

    #[test]
    fn same_name_handles_share_a_slot() {
        // Registration is idempotent: a second handle for the same name
        // must resolve to the same slot (now via the hash-map index), so
        // counts recorded through either handle accumulate together.
        let c1 = counter("test.shared.counter");
        let c2 = counter("test.shared.counter");
        assert_eq!(c1.slot, c2.slot);
        let g1 = gauge("test.shared.gauge");
        let g2 = gauge("test.shared.gauge");
        assert_eq!(g1.slot, g2.slot);
        let h1 = histogram("test.shared.hist", Buckets::explicit(&[1.0, 2.0]));
        let h2 = histogram("test.shared.hist", Buckets::explicit(&[9.0])); // layout ignored
        assert_eq!(h1.slot, h2.slot);
        assert_eq!(h1.bounds(), h2.bounds(), "first registration wins");

        crate::reset_thread_metrics();
        c1.add(2);
        c2.add(3);
        assert_eq!(c1.get(), 5);
        g1.set(1.0);
        g2.add(0.5);
        assert_eq!(g1.get(), 1.5);
        h1.record(0.5);
        h2.record(1.5);
        let snap = snapshot();
        let Some(MetricValue::Histogram(hs)) = snap.get("test.shared.hist") else {
            panic!("histogram missing from snapshot");
        };
        assert_eq!(hs.count, 2);
        assert_eq!(hs.counts, vec![1, 1, 0]);
        // Distinct names must not collide.
        assert_ne!(counter("test.shared.counter2").slot, c1.slot);
    }

    #[test]
    fn counters_and_gauges_accumulate_per_thread() {
        let c = counter("test.counter.local");
        let g = gauge("test.gauge.local");
        crate::reset_thread_metrics();
        c.add(2);
        c.incr();
        g.set(1.5);
        g.add(0.25);
        assert_eq!(c.get(), 3);
        assert_eq!(g.get(), 1.75);
        // Another thread sees zero: storage is thread-local.
        let other = std::thread::spawn(move || (c.get(), g.get()))
            .join()
            .unwrap();
        assert_eq!(other, (0, 0.0));
    }

    #[test]
    fn merge_sums_counters_and_histograms_and_maxes_gauges() {
        let mut a = MetricsSnapshot {
            metrics: vec![
                ("c".into(), MetricValue::Counter(2)),
                ("g".into(), MetricValue::Gauge(1.0)),
                (
                    "h".into(),
                    MetricValue::Histogram(HistSnapshot {
                        bounds: vec![1.0],
                        counts: vec![1, 0],
                        count: 1,
                        sum: 0.5,
                        min: 0.5,
                        max: 0.5,
                    }),
                ),
            ],
        };
        let b = MetricsSnapshot {
            metrics: vec![
                ("c".into(), MetricValue::Counter(3)),
                ("g".into(), MetricValue::Gauge(0.5)),
                (
                    "h".into(),
                    MetricValue::Histogram(HistSnapshot {
                        bounds: vec![1.0],
                        counts: vec![0, 2],
                        count: 2,
                        sum: 6.0,
                        min: 2.0,
                        max: 4.0,
                    }),
                ),
                ("only_b".into(), MetricValue::Counter(7)),
            ],
        };
        a.merge(&b);
        assert_eq!(a.counter("c"), 5);
        assert_eq!(a.gauge("g"), 1.0);
        assert_eq!(a.counter("only_b"), 7);
        let Some(MetricValue::Histogram(h)) = a.get("h") else {
            panic!()
        };
        assert_eq!(h.counts, vec![1, 2]);
        assert_eq!((h.count, h.min, h.max), (3, 0.5, 4.0));
    }
}
