use fires_benchmark::stats::{fnv1a64, median, percentile, tail_percentile, MIN_BEYOND};

fn one_to(n: usize) -> Vec<f64> {
    // Shuffled on purpose: the helpers must sort.
    let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
    v.reverse();
    v.swap(0, n / 2);
    v
}

#[test]
fn nearest_rank_percentiles() {
    let v = one_to(10);
    assert_eq!(percentile(&v, 50.0), Some(5.0));
    assert_eq!(percentile(&v, 90.0), Some(9.0));
    assert_eq!(percentile(&v, 91.0), Some(10.0));
    assert_eq!(percentile(&v, 100.0), Some(10.0));
    assert_eq!(percentile(&v, 1.0), Some(1.0));
    assert_eq!(median(&[7.5]), Some(7.5));
    assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), Some(2.0));
    assert_eq!(median(&[]), None);
}

#[test]
fn tail_needs_ten_samples_beyond_it() {
    // p90 of n samples has rank ceil(0.9 n): n = 100 leaves exactly 10
    // beyond it, n = 99 leaves 9.
    assert_eq!(tail_percentile(&one_to(100), 90.0, MIN_BEYOND), Some(90.0));
    assert_eq!(tail_percentile(&one_to(99), 90.0, MIN_BEYOND), None);
    // p95 needs 200 samples, p50 needs 20.
    assert_eq!(tail_percentile(&one_to(200), 95.0, MIN_BEYOND), Some(190.0));
    assert_eq!(tail_percentile(&one_to(199), 95.0, MIN_BEYOND), None);
    assert_eq!(tail_percentile(&one_to(20), 50.0, MIN_BEYOND), Some(10.0));
    assert_eq!(tail_percentile(&one_to(19), 50.0, MIN_BEYOND), None);
    assert_eq!(tail_percentile(&[], 50.0, 0), None);
    // With no margin asked for, it is the plain percentile.
    assert_eq!(tail_percentile(&one_to(4), 95.0, 0), Some(4.0));
}

#[test]
fn fnv1a64_reference_values() {
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
}
