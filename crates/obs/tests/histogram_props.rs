//! Property tests for `Histogram::merge`: the merge must behave like a
//! commutative, associative fold that agrees with single-shot recording
//! across *any* split of the observation stream. These mirror the
//! journal resume-cut suite in `fires-jobs` — a campaign's metrics are
//! merged from per-thread, per-resume fragments in whatever order the
//! scheduler produced them, and the result must not depend on that
//! order.

use fires_obs::Histogram;
use proptest::collection::vec;
use proptest::prelude::*;

fn observe_all(values: &[u64]) -> Histogram {
    let mut h = Histogram::default();
    for &v in values {
        h.observe(v);
    }
    h
}

/// Values spanning all bucket magnitudes, including the overflow edge.
fn value_strategy() -> BoxedStrategy<u64> {
    prop_oneof![
        0u64..16,
        16u64..4096,
        4096u64..1_000_000,
        (u64::MAX - 8)..u64::MAX,
    ]
    .boxed()
}

/// Values that survive a JSON round trip exactly: the JSON layer stores
/// numbers as `f64`, so sums must stay below 2^53.
fn json_exact_strategy() -> BoxedStrategy<u64> {
    prop_oneof![0u64..16, 16u64..4096, 4096u64..1_000_000_000].boxed()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Splitting the stream anywhere and merging the halves equals
    /// recording the whole stream into one histogram.
    #[test]
    fn merge_agrees_with_single_shot_across_any_split(
        values in vec(value_strategy(), 0..40),
        cut_seed in 0usize..1000,
    ) {
        let whole = observe_all(&values);
        let cut = if values.is_empty() { 0 } else { cut_seed % (values.len() + 1) };
        let mut left = observe_all(&values[..cut]);
        let right = observe_all(&values[cut..]);
        left.merge(&right);
        prop_assert_eq!(&left, &whole);
    }

    /// a ∪ b == b ∪ a.
    #[test]
    fn merge_is_commutative(
        a in vec(value_strategy(), 0..25),
        b in vec(value_strategy(), 0..25),
    ) {
        let (ha, hb) = (observe_all(&a), observe_all(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(ab, ba);
    }

    /// (a ∪ b) ∪ c == a ∪ (b ∪ c).
    #[test]
    fn merge_is_associative(
        a in vec(value_strategy(), 0..15),
        b in vec(value_strategy(), 0..15),
        c in vec(value_strategy(), 0..15),
    ) {
        let (ha, hb, hc) = (observe_all(&a), observe_all(&b), observe_all(&c));
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// Many-way splits (the realistic campaign shape: one fragment per
    /// worker per resume) still agree with single-shot recording, and
    /// the JSON round trip preserves the merged result exactly.
    #[test]
    fn multiway_merge_and_round_trip(
        values in vec(json_exact_strategy(), 1..60),
        parts in 1usize..8,
    ) {
        let whole = observe_all(&values);
        let mut merged = Histogram::default();
        for chunk in values.chunks(values.len().div_ceil(parts)) {
            merged.merge(&observe_all(chunk));
        }
        prop_assert_eq!(&merged, &whole);
        let back = Histogram::from_json(&merged.to_json()).unwrap();
        prop_assert_eq!(back, whole);
    }

    /// Merging histograms that each went through a JSON
    /// serialize/parse/deserialize cycle stays associative and agrees
    /// with merging the in-memory originals — the path a server takes
    /// when it re-merges fragments recovered from journals on disk.
    #[test]
    fn merge_after_json_round_trip_is_associative(
        a in vec(json_exact_strategy(), 0..15),
        b in vec(json_exact_strategy(), 0..15),
        c in vec(json_exact_strategy(), 0..15),
    ) {
        let reload = |h: &Histogram| {
            let text = h.to_json().to_pretty();
            Histogram::from_json(&fires_obs::Json::parse(&text).unwrap()).unwrap()
        };
        let (ha, hb, hc) = (observe_all(&a), observe_all(&b), observe_all(&c));
        let (ra, rb, rc) = (reload(&ha), reload(&hb), reload(&hc));
        // (a ∪ b) ∪ c through the round trip...
        let mut left = ra.clone();
        left.merge(&rb);
        left.merge(&rc);
        // ...equals a ∪ (b ∪ c) through the round trip...
        let mut bc = rb.clone();
        bc.merge(&rc);
        let mut right = ra;
        right.merge(&bc);
        prop_assert_eq!(&left, &right);
        // ...and both equal the merge of the in-memory originals.
        let mut direct = ha;
        direct.merge(&hb);
        direct.merge(&hc);
        prop_assert_eq!(left, direct);
    }

    /// Every reported quantile is unchanged by a JSON round trip: the
    /// derived fields are recomputed from the buckets on read, so the
    /// estimate must land on the same value.
    #[test]
    fn quantiles_are_stable_across_json_round_trip(
        values in vec(json_exact_strategy(), 1..50),
    ) {
        let h = observe_all(&values);
        let text = h.to_json().to_pretty();
        let back = Histogram::from_json(&fires_obs::Json::parse(&text).unwrap()).unwrap();
        for q in [0.0, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0] {
            prop_assert_eq!(back.quantile(q), h.quantile(q), "q={}", q);
        }
        prop_assert_eq!(back.p50(), h.p50());
        prop_assert_eq!(back.p95(), h.p95());
        prop_assert_eq!(back.p99(), h.p99());
    }

    /// `observe_n(v, n)` is `n` calls of `observe(v)`, for a single
    /// histogram and through the registry, and stays so through a JSON
    /// round trip (the bulk path records per-stem blame-set sizes).
    #[test]
    fn observe_n_equals_repeated_observe(
        seed in vec(value_strategy(), 0..10),
        batches in vec((value_strategy(), 0u64..40), 0..12),
        exact in vec((json_exact_strategy(), 0u64..40), 0..12),
    ) {
        let mut bulk = observe_all(&seed);
        let mut one_by_one = bulk.clone();
        for &(v, n) in &batches {
            bulk.observe_n(v, n);
            for _ in 0..n {
                one_by_one.observe(v);
            }
        }
        prop_assert_eq!(&bulk, &one_by_one);

        let mut bulk = Histogram::default();
        let mut one_by_one = Histogram::default();
        let mut registry = fires_obs::RunMetrics::new();
        for &(v, n) in &exact {
            bulk.observe_n(v, n);
            registry.observe_n("h", v, n);
            for _ in 0..n {
                one_by_one.observe(v);
            }
        }
        let text = bulk.to_json().to_pretty();
        let back = Histogram::from_json(&fires_obs::Json::parse(&text).unwrap()).unwrap();
        prop_assert_eq!(&back, &one_by_one);
        let reloaded = fires_obs::RunMetrics::from_json(
            &fires_obs::Json::parse(&registry.to_json().to_pretty()).unwrap(),
        )
        .unwrap();
        prop_assert_eq!(reloaded.histogram("h"), (one_by_one.count() > 0).then_some(&one_by_one));
    }

    /// Quantiles stay bracketed by the exact extremes for any stream.
    #[test]
    fn quantiles_stay_in_range(values in vec(value_strategy(), 1..50)) {
        let h = observe_all(&values);
        for q in [0.0, 0.25, 0.5, 0.95, 0.99, 1.0] {
            let est = h.quantile(q);
            prop_assert!(est >= h.min() && est <= h.max(), "q={} est={}", q, est);
        }
        prop_assert!(h.p50() <= h.p95() && h.p95() <= h.p99());
    }
}
