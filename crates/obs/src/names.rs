//! Canonical metric names for the service layer and for the engine's
//! validation counters.
//!
//! `fires serve` reports its counters through [`RunMetrics`] and CI greps
//! them out of status/exit reports; a typo'd name on either side fails
//! silently (the grep just finds nothing). Centralising the names here
//! makes the server, the tests and the soak script agree by
//! construction — the constants are the contract.
//!
//! Naming scheme:
//!
//! * `core.validation_*` — Definition-6 validation in `fires-core`'s
//!   fault-set assembly, recorded only when validation runs;
//! * `serve.*` — ordinary service counters (admission, cache, workers);
//! * `serve.degraded.*` — a fault path *fired and was absorbed*: the
//!   daemon kept serving, in a reduced mode, instead of failing. A chaos
//!   soak asserts these are nonzero (the faults really happened) while
//!   the final report stays byte-identical (they didn't matter).
//! * `serve.rejected.<tenant>` — typed admission rejections, by tenant
//!   ([`REJECTED_PREFIX`]).
//!
//! [`RunMetrics`]: crate::RunMetrics

/// Fault-set entries (a mark, or an unobservability indicator for one
/// stuck value) that Definition-6 validation accepted.
pub const VALIDATION_ACCEPTS: &str = "core.validation_accepts";
/// Fault-set entries that Definition-6 validation rejected.
pub const VALIDATION_REJECTS: &str = "core.validation_rejects";
/// Validity checks rejected only because the process had used up its
/// invalidity-sweep cap; each one is a candidate dropped conservatively.
pub const VALIDATION_SWEEP_CAP_HITS: &str = "core.validation_sweep_cap_hits";

/// Submit requests received (before any admission decision).
pub const SUBMISSIONS: &str = "serve.submissions";
/// Submits answered byte-identically from the in-memory result cache.
pub const CACHE_HITS: &str = "serve.cache_hits";
/// Submits that missed the in-memory cache.
pub const CACHE_MISSES: &str = "serve.cache_misses";
/// Submits attached to an already queued/running job (single-flight).
pub const DEDUPED: &str = "serve.deduped";
/// Engines built (once per job, however many clients attached).
pub const ENGINE_BUILDS: &str = "serve.engine_builds";
/// Jobs that ran to completion.
pub const COMPLETED: &str = "serve.completed";
/// Jobs that ended in a failure phase.
pub const FAILED: &str = "serve.failed";
/// Reports re-merged from the durable journal tier after LRU eviction.
pub const REMERGES: &str = "serve.remerges";
/// Complete journals re-indexed by the startup recovery scan.
pub const RECOVERED: &str = "serve.recovered";
/// Incomplete journals re-queued by the startup recovery scan.
pub const RESUMED: &str = "serve.resumed";
/// Journals the recovery scan could not index (see [`QUARANTINED`]).
pub const SCAN_ERRORS: &str = "serve.scan_errors";
/// Unreadable journals renamed `<key>.jsonl.quarantined` by the scan.
pub const QUARANTINED: &str = "serve.quarantined";
/// Prefix of per-tenant admission rejections (`serve.rejected.<tenant>`).
pub const REJECTED_PREFIX: &str = "serve.rejected.";
/// Submits rejected with the typed `draining` response during drain.
pub const REJECTED_DRAINING: &str = "serve.rejected.draining";
/// Set to 1 when the daemon exited through the graceful-drain path.
pub const DRAINED: &str = "serve.drained";
/// Drains that hit `--drain-timeout-secs` before workers checkpointed.
pub const DRAIN_TIMEOUTS: &str = "serve.drain_timeouts";
/// Watchdog heartbeats journaled to `<state-dir>/heartbeat.json`.
pub const HEARTBEATS: &str = "serve.heartbeats";
/// Request lines rejected for exceeding the protocol line bound.
pub const OVERSIZED_REQUESTS: &str = "serve.oversized_requests";
/// Prometheus snapshot files written under `<state-dir>/metrics/`.
pub const METRIC_SNAPSHOTS: &str = "serve.metric_snapshots";
/// Flight-recorder dumps written (crash triggers plus `debug-dump`).
pub const FLIGHT_DUMPS: &str = "serve.flight_dumps";
/// Per-request Chrome trace files written under `<state-dir>/traces/`.
pub const TRACES_WRITTEN: &str = "serve.traces_written";
/// Queue depth at scrape time (exposition-only gauge; not in reports).
pub const QUEUE_DEPTH: &str = "serve.queue_depth";
/// Daemon uptime at scrape time (exposition-only gauge; not in reports).
pub const UPTIME_SECONDS: &str = "serve.uptime_seconds";

/// Labeled counter: submissions by `tenant`.
pub const TENANT_SUBMISSIONS: &str = "serve.tenant.submissions";
/// Labeled counter: completed jobs by `tenant`.
pub const TENANT_COMPLETED: &str = "serve.tenant.completed";
/// Labeled histogram: wall-clock per job (`tenant`, `job`), ms.
pub const JOB_WALL_MS: &str = "serve.job.wall_ms";
/// Labeled histogram: queue wait per job (`tenant`, `job`), ms.
pub const JOB_QUEUE_WAIT_MS: &str = "serve.job.queue_wait_ms";

/// Result-cache inserts that did not stick (injected ENOSPC or an entry
/// over the whole byte budget); the job serves journal-only from then on.
pub const DEGRADED_CACHE_INSERT_FAILURES: &str = "serve.degraded.cache_insert_failures";
/// Subscribers disconnected for missing their write deadline.
pub const DEGRADED_SLOW_SUBSCRIBERS: &str = "serve.degraded.slow_subscribers";
/// Progress frames coalesced away by a full subscriber queue.
pub const DEGRADED_DROPPED_PROGRESS: &str = "serve.degraded.dropped_progress";
/// Accepted connections dropped by injected accept faults.
pub const DEGRADED_ACCEPT_FAULTS: &str = "serve.degraded.accept_faults";
/// Requests abandoned by injected read faults.
pub const DEGRADED_READ_FAULTS: &str = "serve.degraded.read_faults";
/// Responses abandoned by injected write faults.
pub const DEGRADED_WRITE_FAULTS: &str = "serve.degraded.write_faults";
/// Injected client stalls imposed before handling a request.
pub const DEGRADED_STALLS: &str = "serve.degraded.stalls";
/// Injected disk faults absorbed (cache insert or heartbeat skipped).
pub const DEGRADED_DISK_FAULTS: &str = "serve.degraded.disk_faults";

#[cfg(test)]
mod tests {
    #[test]
    fn names_are_well_formed() {
        let all = [
            super::SUBMISSIONS,
            super::CACHE_HITS,
            super::CACHE_MISSES,
            super::DEDUPED,
            super::ENGINE_BUILDS,
            super::COMPLETED,
            super::FAILED,
            super::REMERGES,
            super::RECOVERED,
            super::RESUMED,
            super::SCAN_ERRORS,
            super::QUARANTINED,
            super::REJECTED_DRAINING,
            super::DRAINED,
            super::DRAIN_TIMEOUTS,
            super::HEARTBEATS,
            super::OVERSIZED_REQUESTS,
            super::METRIC_SNAPSHOTS,
            super::FLIGHT_DUMPS,
            super::TRACES_WRITTEN,
            super::QUEUE_DEPTH,
            super::UPTIME_SECONDS,
            super::TENANT_SUBMISSIONS,
            super::TENANT_COMPLETED,
            super::JOB_WALL_MS,
            super::JOB_QUEUE_WAIT_MS,
            super::DEGRADED_CACHE_INSERT_FAILURES,
            super::DEGRADED_SLOW_SUBSCRIBERS,
            super::DEGRADED_DROPPED_PROGRESS,
            super::DEGRADED_ACCEPT_FAULTS,
            super::DEGRADED_READ_FAULTS,
            super::DEGRADED_WRITE_FAULTS,
            super::DEGRADED_STALLS,
            super::DEGRADED_DISK_FAULTS,
        ];
        let core = [
            super::VALIDATION_ACCEPTS,
            super::VALIDATION_REJECTS,
            super::VALIDATION_SWEEP_CAP_HITS,
        ];
        let unique: std::collections::BTreeSet<_> = all.iter().chain(&core).collect();
        assert_eq!(
            unique.len(),
            all.len() + core.len(),
            "duplicate metric name"
        );
        for name in all.into_iter().chain(core) {
            let prefix = if name.starts_with("core.") {
                "core.validation_"
            } else {
                "serve."
            };
            assert!(name.starts_with(prefix), "{name}");
            assert!(!name.ends_with('.'), "{name}");
            assert!(
                name.bytes().all(|b| b.is_ascii_lowercase()
                    || b.is_ascii_digit()
                    || b == b'.'
                    || b == b'_'),
                "{name}"
            );
        }
        assert!(super::REJECTED_DRAINING.starts_with(super::REJECTED_PREFIX));
    }
}
