//! Library half of `fires-benchmark`: the statistics and span helpers the
//! binary uses, exposed so `tests/` can check them directly.

pub mod stats;
pub mod trace;
