//! The run-metrics registry: named counters, maxima and histograms.

use std::collections::BTreeMap;

use crate::json::Json;

/// A log₂-bucketed histogram of `u64` observations.
///
/// Bucket `k` counts observations `v` with `floor(log2(v+1)) == k`
/// (bucket 0 holds the value 0). Exact `count`, `sum`, `min` and `max`
/// are kept alongside, so means and extremes are not bucketed.
///
/// The buckets are a fixed 64-slot array so `observe` is a pair of
/// integer ops with no allocation or tree walk — cheap enough for
/// per-mark call sites inside the implication engine's hot loop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; 64],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; 64],
        }
    }
}

impl Histogram {
    fn bucket_of(v: u64) -> u8 {
        (64 - v.saturating_add(1).leading_zeros() - 1) as u8
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        self.observe_n(v, 1);
    }

    /// Records `n` observations of `v` at once: the same histogram as
    /// `n` calls of [`observe`](Self::observe). `n == 0` changes nothing.
    #[inline]
    pub fn observe_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.buckets[Self::bucket_of(v) as usize] += n;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`q` in `[0, 1]`), by linear interpolation
    /// inside the log₂ bucket holding the target rank.
    ///
    /// Bucket `k` spans values `[2^k - 1, 2^(k+1) - 2]`, so the estimate
    /// is exact for buckets 0 and 1 and off by at most half a bucket
    /// width otherwise; the result is always clamped to `[min, max]`,
    /// which are tracked exactly.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut seen = 0u64;
        for (k, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = seen + c;
            if next as f64 >= target {
                let lo = (1u64 << k) - 1;
                let hi = if k >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (k + 1)) - 2
                };
                let frac = if c == 0 {
                    0.0
                } else {
                    ((target - seen as f64) / c as f64).clamp(0.0, 1.0)
                };
                let est = lo as f64 + frac * (hi - lo) as f64;
                return (est.round() as u64).clamp(self.min, self.max);
            }
            seen = next;
        }
        self.max
    }

    /// Estimated median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// Estimated 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// Estimated 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (b, &c) in other.buckets.iter().enumerate() {
            self.buckets[b] += c;
        }
    }

    /// JSON form (stable field names; part of the RunReport schema).
    pub fn to_json(&self) -> Json {
        let mut j = Json::object();
        j.set("count", self.count)
            .set("sum", self.sum)
            .set("min", self.min)
            .set("max", self.max)
            .set("mean", self.mean())
            .set("p50", self.p50())
            .set("p95", self.p95())
            .set("p99", self.p99());
        let mut buckets = Json::object();
        for (b, &c) in self.buckets.iter().enumerate() {
            if c > 0 {
                buckets.set(format!("{b}"), c);
            }
        }
        j.set("log2_buckets", buckets);
        j
    }

    /// Inverse of [`to_json`](Self::to_json). The derived fields
    /// (`mean`, `p50`, `p95`, `p99`) are recomputed, not read, so
    /// doctored values cannot desynchronize them from the buckets.
    pub fn from_json(j: &Json) -> Option<Histogram> {
        let mut h = Histogram {
            count: j.get("count")?.as_u64()?,
            sum: j.get("sum")?.as_u64()?,
            min: j.get("min")?.as_u64()?,
            max: j.get("max")?.as_u64()?,
            buckets: [0; 64],
        };
        for (k, v) in j.get("log2_buckets")?.as_obj()? {
            let bucket: u8 = k.parse().ok()?;
            if bucket >= 64 {
                return None;
            }
            h.buckets[bucket as usize] = v.as_u64()?;
        }
        Some(h)
    }
}

/// A registry of named metrics for one run.
///
/// Three kinds, chosen by the *recording call*, not by prior declaration:
/// monotonically-added **counters** ([`incr`](Self::incr)), running
/// **maxima** ([`set_max`](Self::set_max)) and **histograms**
/// ([`observe`](Self::observe)). Names are dotted paths by convention,
/// e.g. `core.marks_created` or `sim.gate_evaluations`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunMetrics {
    counters: BTreeMap<String, u64>,
    maxima: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl RunMetrics {
    /// An empty registry.
    pub fn new() -> Self {
        RunMetrics::default()
    }

    /// Adds `by` to counter `name` (creating it at 0).
    pub fn incr(&mut self, name: &str, by: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += by,
            None => {
                self.counters.insert(name.to_string(), by);
            }
        }
    }

    /// Raises maximum `name` to at least `v`.
    pub fn set_max(&mut self, name: &str, v: u64) {
        match self.maxima.get_mut(name) {
            Some(m) => *m = (*m).max(v),
            None => {
                self.maxima.insert(name.to_string(), v);
            }
        }
    }

    /// Records `v` into histogram `name`.
    pub fn observe(&mut self, name: &str, v: u64) {
        self.observe_n(name, v, 1);
    }

    /// Records `n` observations of `v` into histogram `name` with one
    /// lookup; the same as `n` calls of [`observe`](Self::observe).
    pub fn observe_n(&mut self, name: &str, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        match self.histograms.get_mut(name) {
            Some(h) => h.observe_n(v, n),
            None => {
                let mut h = Histogram::default();
                h.observe_n(v, n);
                self.histograms.insert(name.to_string(), h);
            }
        }
    }

    /// The value of counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The value of maximum `name` (0 when absent).
    pub fn maximum(&self, name: &str) -> u64 {
        self.maxima.get(name).copied().unwrap_or(0)
    }

    /// The histogram `name`, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterates maxima in name order.
    pub fn maxima(&self) -> impl Iterator<Item = (&str, u64)> {
        self.maxima.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterates histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of distinct metrics of all kinds.
    pub fn len(&self) -> usize {
        self.counters.len() + self.maxima.len() + self.histograms.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Folds another registry into this one: counters add, maxima take
    /// the max, histograms merge. Used to combine per-thread registries.
    pub fn merge(&mut self, other: &RunMetrics) {
        for (k, &v) in &other.counters {
            self.incr(k, v);
        }
        for (k, &v) in &other.maxima {
            self.set_max(k, v);
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(k.clone(), h.clone());
                }
            }
        }
    }

    /// JSON form (stable field names; part of the RunReport schema).
    pub fn to_json(&self) -> Json {
        let mut counters = Json::object();
        for (k, &v) in &self.counters {
            counters.set(k.clone(), v);
        }
        let mut maxima = Json::object();
        for (k, &v) in &self.maxima {
            maxima.set(k.clone(), v);
        }
        let mut histograms = Json::object();
        for (k, h) in &self.histograms {
            histograms.set(k.clone(), h.to_json());
        }
        let mut j = Json::object();
        j.set("counters", counters)
            .set("maxima", maxima)
            .set("histograms", histograms);
        j
    }

    /// Inverse of [`to_json`](Self::to_json).
    pub fn from_json(j: &Json) -> Option<RunMetrics> {
        let mut m = RunMetrics::new();
        for (k, v) in j.get("counters")?.as_obj()? {
            m.counters.insert(k.clone(), v.as_u64()?);
        }
        for (k, v) in j.get("maxima")?.as_obj()? {
            m.maxima.insert(k.clone(), v.as_u64()?);
        }
        for (k, v) in j.get("histograms")?.as_obj()? {
            m.histograms.insert(k.clone(), Histogram::from_json(v)?);
        }
        Some(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_and_maxima_race_upward() {
        let mut m = RunMetrics::new();
        m.incr("a", 2);
        m.incr("a", 3);
        m.set_max("b", 7);
        m.set_max("b", 4);
        assert_eq!(m.counter("a"), 5);
        assert_eq!(m.maximum("b"), 7);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn histogram_statistics() {
        let mut h = Histogram::default();
        for v in [0, 1, 1, 2, 8, 100] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 112);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 112.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(7), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 63);
    }

    #[test]
    fn quantiles_are_ordered_and_clamped() {
        let mut h = Histogram::default();
        assert_eq!(h.p50(), 0);
        for v in 1..=100u64 {
            h.observe(v);
        }
        let (p50, p95, p99) = (h.p50(), h.p95(), h.p99());
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert!((1..=100).contains(&p50));
        assert!(p99 <= h.max());
        // A single observation: every quantile is that value.
        let mut one = Histogram::default();
        one.observe(42);
        assert_eq!(one.quantile(0.0), 42);
        assert_eq!(one.p50(), 42);
        assert_eq!(one.quantile(1.0), 42);
        // Small exact buckets (0 and 1) are exact.
        let mut z = Histogram::default();
        for _ in 0..10 {
            z.observe(0);
        }
        assert_eq!(z.p99(), 0);
    }

    #[test]
    fn quantile_tracks_the_bulk_of_a_skewed_distribution() {
        let mut h = Histogram::default();
        for _ in 0..99 {
            h.observe(10);
        }
        h.observe(100_000);
        // p50 must stay near the bulk, p99+ may reach the outlier bucket.
        assert!(h.p50() <= 14, "p50 = {}", h.p50());
        assert!(h.quantile(1.0) == 100_000);
    }

    #[test]
    fn merge_combines_all_kinds() {
        let mut a = RunMetrics::new();
        a.incr("c", 1);
        a.set_max("m", 5);
        a.observe("h", 10);
        let mut b = RunMetrics::new();
        b.incr("c", 2);
        b.set_max("m", 3);
        b.observe("h", 20);
        b.observe("h2", 1);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.maximum("m"), 5);
        assert_eq!(a.histogram("h").unwrap().count(), 2);
        assert_eq!(a.histogram("h2").unwrap().count(), 1);
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn json_round_trip() {
        let mut m = RunMetrics::new();
        m.incr("core.marks", 42);
        m.set_max("core.frames", 9);
        for v in [1, 2, 3, 1000] {
            m.observe("core.blame", v);
        }
        let j = m.to_json();
        let back = RunMetrics::from_json(&j).unwrap();
        assert_eq!(back, m);
        // And through actual text.
        let text = j.to_pretty();
        let re = RunMetrics::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(re, m);
    }
}
