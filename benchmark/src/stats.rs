//! Small statistics helpers: nearest-rank percentiles and the FNV-1a
//! digest the correctness gate compares reports by.

/// How many samples a tail percentile must leave beyond it before the
/// benchmark reports it.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` of `samples`; `None` when `samples` is
/// empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The median (nearest-rank 50th percentile).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Nearest-rank percentile `p`, refused (`None`) unless at least
/// `min_beyond` samples lie beyond its rank: a tail read from fewer
/// samples is one outlier, not a percentile.
pub fn tail_percentile(samples: &[f64], p: f64, min_beyond: usize) -> Option<f64> {
    let n = samples.len();
    if n == 0 || n - rank(n, p) < min_beyond {
        return None;
    }
    percentile(samples, p)
}

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
