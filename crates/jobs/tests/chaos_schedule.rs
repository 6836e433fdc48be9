//! Golden fault schedules. For the two seeds CI runs chaos under (`7`
//! for the service soak, `3405691582` for the campaign job), the first
//! 64 decisions of each of the eight injection sites are folded into one
//! constant per seed. A change to the fault plan that moves a single
//! decision, delay or stall at any site fails here.
//!
//! A site's decision `n` is `site_roll(seed, tag, key) % 1000 < rate`,
//! with the site's ASCII tag. Runner sites are keyed `(task, stem,
//! attempt)` and sampled at `(0, n, 0)` and `(1, n, 2)`; service sites
//! are keyed by their event index, `(n, 0, 0)`. Unit delays come from
//! the plan itself, so the secondary roll that sizes a delay is pinned
//! too.

use std::time::Duration;

use fires_jobs::{site_roll, ChaosPlan};

/// Per-mille rate every site is sampled at.
const RATE: u16 = 300;
/// Delay bound of the sampled unit delays, in milliseconds.
const MAX_DELAY_MS: u16 = 25;
/// Duration of a sampled stall, in milliseconds.
const STALL_MS: u64 = 40;

const UNIT_PANIC: &[u8; 4] = b"pani";
const JOURNAL_IO: &[u8; 4] = b"jour";
const ACCEPT: &[u8; 4] = b"acpt";
const READ: &[u8; 4] = b"read";
const WRITE: &[u8; 4] = b"writ";
const STALL: &[u8; 4] = b"stal";
const DISK: &[u8; 4] = b"disk";

/// FNV-1a, folding one `u64` at a time.
struct Fold(u64);

impl Fold {
    fn add(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn hits(seed: u64, tag: &[u8; 4], a: u64, b: u64, c: u64) -> bool {
    let site = u64::from(u32::from_be_bytes(*tag));
    site_roll(seed, site, a, b, c) % 1000 < u64::from(RATE)
}

fn delay_ms(delay: Option<Duration>) -> u64 {
    delay.map_or(u64::MAX, |d| d.as_millis() as u64)
}

fn schedule(seed: u64) -> u64 {
    let plan = ChaosPlan::new(seed).with_delays(RATE, MAX_DELAY_MS);
    let mut fold = Fold(0xcbf2_9ce4_8422_2325);
    for n in 0..64u64 {
        for (task, attempt) in [(0u64, 0u64), (1, 2)] {
            for tag in [UNIT_PANIC, JOURNAL_IO] {
                fold.add(u64::from(hits(seed, tag, task, n, attempt)));
            }
            let delay = plan.unit_delay(task as usize, n as usize, attempt as u32);
            fold.add(delay_ms(delay));
        }
        for tag in [ACCEPT, READ, WRITE, DISK] {
            fold.add(u64::from(hits(seed, tag, n, 0, 0)));
        }
        fold.add(if hits(seed, STALL, n, 0, 0) {
            STALL_MS
        } else {
            0
        });
    }
    fold.0
}

#[test]
fn serve_chaos_seed_schedule_is_pinned() {
    assert_eq!(schedule(7), 0x3a8d74b12cc4b561);
}

#[test]
fn campaign_chaos_seed_schedule_is_pinned() {
    assert_eq!(schedule(3_405_691_582), 0x13815047d8c466f6);
}

#[test]
fn the_schedules_inject_at_every_site() {
    // Guards the goldens against a degenerate fold: at 300‰ over 128
    // keys, every site fires at least once for either seed.
    for seed in [7, 3_405_691_582] {
        let plan = ChaosPlan::new(seed).with_delays(RATE, MAX_DELAY_MS);
        assert!((0..64).any(|n| plan.unit_delay(0, n, 0).is_some()));
        for tag in [UNIT_PANIC, JOURNAL_IO] {
            assert!((0..64).any(|n| hits(seed, tag, 0, n, 0)));
        }
        for tag in [ACCEPT, READ, WRITE, STALL, DISK] {
            assert!((0..64).any(|n| hits(seed, tag, n, 0, 0)));
        }
    }
}
