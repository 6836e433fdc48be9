//! Deterministic, seed-driven fault injection for robustness tests.
//!
//! A [`ChaosPlan`] is the one fault plan of the workspace. It decides —
//! as a pure function of its seed, the injection [`Site`] and a
//! three-word key — whether a fault fires there. Runner sites (unit
//! panics, journal IO errors, unit delays) are keyed by `(task, stem,
//! attempt)`. Service sites (`fires serve`'s accept, read, write, stall
//! and disk faults) are keyed `(n, 0, 0)` by a per-site event index the
//! daemon counts. So:
//!
//! * the same plan injects the *same* faults on every run (tests are
//!   reproducible, failures are replayable from the seed alone), and
//!   each site draws an independent stream from that seed;
//! * a **retried** attempt rolls fresh, so a unit that panicked on
//!   attempt 0 can succeed on attempt 1 — which is exactly what the
//!   chaos convergence suite exploits: with enough retries, a faulty
//!   run's terminal records are identical to a fault-free run's, and the
//!   canonical report is byte-identical.
//!
//! Injected faults are injected *before* the real work of their site (a
//! chaos journal error fires before any byte reaches the file), so a
//! retry starts from clean state. Service-site faults are *absorbed*:
//! the daemon counts a `serve.degraded.*` metric and keeps serving.

use std::time::Duration;

use fires_core::splitmix64;

/// An injection site. Each mixes its ASCII tag into its rolls, so the
/// sites draw independent streams from one seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Site {
    /// A unit attempt panics.
    UnitPanic,
    /// One journal append attempt fails with an injected IO error.
    JournalIo,
    /// A unit attempt sleeps before running, below `max_delay_ms`.
    UnitDelay,
    /// An accepted connection is dropped on the floor.
    Accept,
    /// A request read is abandoned as if the socket died.
    Read,
    /// A response write fails mid-stream.
    Write,
    /// A client connection stalls for `stall_ms` before its request is
    /// handled (a slow client, not an error).
    Stall,
    /// A cache insert or heartbeat write fails as if the disk were full
    /// (ENOSPC); the job falls back to journal-only serving.
    Disk,
}

impl Site {
    fn tag(self) -> u64 {
        let ascii = match self {
            Site::UnitPanic => b"pani",
            Site::JournalIo => b"jour",
            Site::UnitDelay => b"dela",
            Site::Accept => b"acpt",
            Site::Read => b"read",
            Site::Write => b"writ",
            Site::Stall => b"stal",
            Site::Disk => b"disk",
        };
        u64::from(u32::from_be_bytes(*ascii))
    }
}

/// A deterministic fault-injection plan. `Copy`, so it rides inside
/// [`RunnerConfig`](crate::RunnerConfig) without breaking `Copy` there.
///
/// Rates are per-mille (0–1000), one per [`Site`]: `250` injects the
/// fault on roughly a quarter of the decisions for that site.
/// `wakeup_ms` is not a rate: when nonzero, every daemon worker wakeup
/// is delayed by that many milliseconds, widening the window in which a
/// drain or kill can catch a job mid-flight.
///
/// # Example
///
/// ```
/// use fires_jobs::{ChaosPlan, Site};
///
/// let plan = ChaosPlan::new(7).with_unit_panics(250).with_journal_errors(150);
/// // Decisions are pure functions of (plan, site, key):
/// assert_eq!(
///     plan.hits(Site::UnitPanic, 0, 3, 0),
///     ChaosPlan::new(7).with_unit_panics(250).hits(Site::UnitPanic, 0, 3, 0),
/// );
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Seed of every decision this plan makes.
    pub seed: u64,
    /// Per-mille rate of each site, indexed by `Site as usize`.
    permille: [u16; 8],
    /// Upper bound (exclusive) of an injected unit delay, in
    /// milliseconds.
    pub max_delay_ms: u16,
    /// Duration of an injected stall, in milliseconds.
    pub stall_ms: u16,
    /// Fixed delay imposed on every daemon worker wakeup, in
    /// milliseconds.
    pub wakeup_ms: u16,
}

impl ChaosPlan {
    /// A quiet plan: decisions are seeded but every rate is zero.
    pub fn new(seed: u64) -> Self {
        ChaosPlan {
            seed,
            permille: [0; 8],
            max_delay_ms: 0,
            stall_ms: 0,
            wakeup_ms: 0,
        }
    }

    /// Sets the rate (per-mille) of one site.
    pub fn with_rate(mut self, site: Site, permille: u16) -> Self {
        self.permille[site as usize] = permille;
        self
    }

    /// Sets the unit-panic rate (per-mille).
    pub fn with_unit_panics(self, permille: u16) -> Self {
        self.with_rate(Site::UnitPanic, permille)
    }

    /// Sets the journal-append IO-error rate (per-mille).
    pub fn with_journal_errors(self, permille: u16) -> Self {
        self.with_rate(Site::JournalIo, permille)
    }

    /// Sets the unit-delay rate (per-mille) and the delay bound.
    pub fn with_delays(self, permille: u16, max_delay_ms: u16) -> Self {
        ChaosPlan {
            max_delay_ms,
            ..self.with_rate(Site::UnitDelay, permille)
        }
    }

    /// `true` when every rate is zero and worker wakeups are not delayed.
    pub fn is_quiet(&self) -> bool {
        self.permille.iter().all(|&p| p == 0) && self.wakeup_ms == 0
    }

    /// Does the fault at `site` fire for key `(a, b, c)`? Runner sites
    /// pass `(task, stem, attempt)`, service sites `(n, 0, 0)` for their
    /// `n`-th event.
    pub fn hits(&self, site: Site, a: u64, b: u64, c: u64) -> bool {
        let permille = u64::from(self.permille[site as usize]);
        permille > 0 && site_roll(self.seed, site.tag(), a, b, c) % 1000 < permille
    }

    /// Delay to impose on this unit attempt before it runs, if any. A
    /// second roll, under a tag of its own, sizes the delay.
    pub fn unit_delay(&self, task: usize, stem: usize, attempt: u32) -> Option<Duration> {
        let key = (task as u64, stem as u64, u64::from(attempt));
        if self.max_delay_ms == 0 || !self.hits(Site::UnitDelay, key.0, key.1, key.2) {
            return None;
        }
        let roll = site_roll(self.seed, Site::UnitDelay.tag() ^ 1, key.0, key.1, key.2);
        Some(Duration::from_millis(roll % u64::from(self.max_delay_ms)))
    }

    /// Stall to impose before handling connection event `n`, if any.
    pub fn stall(&self, n: u64) -> Option<Duration> {
        (self.stall_ms > 0 && self.hits(Site::Stall, n, 0, 0))
            .then(|| Duration::from_millis(u64::from(self.stall_ms)))
    }

    /// Delay to impose on every daemon worker wakeup, if any.
    pub fn wakeup_delay(&self) -> Option<Duration> {
        (self.wakeup_ms > 0).then(|| Duration::from_millis(u64::from(self.wakeup_ms)))
    }
}

/// One deterministic chaos decision: a well-mixed `u64` drawn from
/// `(seed, site, a, b, c)` and nothing else — the primitive under every
/// [`ChaosPlan`] roll, so schedules are replayable from the seed alone.
pub fn site_roll(seed: u64, site: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut x = seed ^ site.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = splitmix64(x);
    x ^= a.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = splitmix64(x);
    x ^= b.wrapping_mul(0x94d0_49bb_1331_11eb);
    x = splitmix64(x);
    x ^= c;
    splitmix64(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SITES: [Site; 8] = [
        Site::UnitPanic,
        Site::JournalIo,
        Site::UnitDelay,
        Site::Accept,
        Site::Read,
        Site::Write,
        Site::Stall,
        Site::Disk,
    ];

    /// A plan with every site at `permille`, and nonzero durations.
    fn loud(seed: u64, permille: u16) -> ChaosPlan {
        let mut plan = ChaosPlan::new(seed).with_delays(permille, 5);
        for site in SITES {
            plan = plan.with_rate(site, permille);
        }
        ChaosPlan {
            stall_ms: 5,
            ..plan
        }
    }

    #[test]
    fn decisions_are_deterministic() {
        let a = loud(42, 300);
        let b = loud(42, 300);
        for site in SITES {
            for n in 0..256 {
                assert_eq!(a.hits(site, 1, n, 2), b.hits(site, 1, n, 2));
            }
        }
        for stem in 0..64 {
            assert_eq!(a.unit_delay(3, stem, 1), b.unit_delay(3, stem, 1));
        }
    }

    #[test]
    fn decisions_are_deterministic_and_replayable() {
        // A copied plan replays the service sites' `(n, 0, 0)` schedule
        // event for event.
        let a = loud(7, 300);
        let b = a;
        for site in SITES {
            for n in 0..256 {
                assert_eq!(a.hits(site, n, 0, 0), b.hits(site, n, 0, 0));
            }
        }
        for n in 0..256 {
            assert_eq!(a.stall(n), b.stall(n));
        }
    }

    #[test]
    fn rates_are_roughly_honoured() {
        for site in SITES {
            let plan = ChaosPlan::new(1).with_rate(site, 250);
            let hits = (0..4000).filter(|&n| plan.hits(site, n, 0, 0)).count();
            // 250‰ of 4000 = 1000; allow a generous band.
            assert!(
                (700..1300).contains(&hits),
                "{site:?} hit rate way off: {hits}/4000"
            );
        }
    }

    #[test]
    fn quiet_plan_injects_nothing() {
        let plan = ChaosPlan::new(9);
        assert!(plan.is_quiet());
        for site in SITES {
            assert!((0..100).all(|n| !plan.hits(site, 0, n, 0)));
            assert!(!plan.with_rate(site, 1).is_quiet());
        }
        for n in 0..100 {
            assert_eq!(plan.unit_delay(0, n, 0), None);
            assert_eq!(plan.stall(n as u64), None);
        }
        assert_eq!(plan.wakeup_delay(), None);
        let wakeups = ChaosPlan {
            wakeup_ms: 1,
            ..plan
        };
        assert!(!wakeups.is_quiet());
        assert_eq!(wakeups.wakeup_delay(), Some(Duration::from_millis(1)));
    }

    #[test]
    fn retried_attempts_roll_fresh() {
        // With a 50% rate some unit must differ between attempt 0 and 1 —
        // the property the retry policy relies on.
        let plan = ChaosPlan::new(3).with_unit_panics(500);
        let differs = (0..64).any(|stem| {
            plan.hits(Site::UnitPanic, 0, stem, 0) != plan.hits(Site::UnitPanic, 0, stem, 1)
        });
        assert!(differs);
    }

    #[test]
    fn sites_draw_independent_streams() {
        let plan = loud(5, 500);
        for (i, &x) in SITES.iter().enumerate() {
            for &y in &SITES[i + 1..] {
                let differs = (0..64).any(|n| plan.hits(x, n, 0, 0) != plan.hits(y, n, 0, 0));
                assert!(differs, "{x:?} and {y:?} share a stream");
            }
        }
    }

    /// Each site's ASCII tag, in `SITES` order.
    const TAGS: [&[u8; 4]; 8] = [
        b"pani", b"jour", b"dela", b"acpt", b"read", b"writ", b"stal", b"disk",
    ];

    #[test]
    fn rolls_match_the_shared_primitive() {
        // The plan is a thin policy over `site_roll` with each site's
        // ASCII tag — pin the mapping for the service key shape so a
        // refactor can't silently re-seed the soak's fault schedule.
        let plan = loud(99, 500);
        for (site, tag) in SITES.into_iter().zip(TAGS) {
            let tag = u64::from(u32::from_be_bytes(*tag));
            for n in 0..32 {
                assert_eq!(
                    plan.hits(site, n, 0, 0),
                    site_roll(99, tag, n, 0, 0) % 1000 < 500
                );
            }
        }
    }

    #[test]
    fn site_roll_matches_plan_rolls() {
        // The same pin for the runner key shape `(task, stem, attempt)`,
        // which the fault schedules CI has pinned by seed depend on.
        let plan = loud(99, 500);
        for (site, tag) in SITES.into_iter().zip(TAGS) {
            let tag = u64::from(u32::from_be_bytes(*tag));
            for n in 0..32 {
                assert_eq!(
                    plan.hits(site, 1, n, 2),
                    site_roll(99, tag, 1, n, 2) % 1000 < 500
                );
            }
        }
    }

    #[test]
    fn delays_are_bounded() {
        let plan = ChaosPlan {
            stall_ms: 40,
            ..ChaosPlan::new(11)
                .with_delays(1000, 7)
                .with_rate(Site::Stall, 1000)
        };
        for stem in 0..100 {
            let d = plan.unit_delay(0, stem, 0).expect("rate is 1000‰");
            assert!(d < Duration::from_millis(7));
            assert_eq!(plan.stall(stem as u64), Some(Duration::from_millis(40)));
        }
    }
}
