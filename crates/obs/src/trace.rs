//! A lightweight `tracing`-style facade.
//!
//! The real `tracing` ecosystem is unavailable offline, so this module
//! provides the two primitives the FIRES pipeline needs — spans with
//! wall-clock duration and point events, both carrying typed key/value
//! fields — behind a global [`Subscriber`]. With no subscriber installed
//! the instrumentation macros cost one relaxed atomic load and construct
//! nothing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Locks `m`, recovering the guard if a panicking instrumented thread
/// poisoned it. A subscriber must keep collecting after a worker panic
/// (the jobs runner isolates panics and retries the unit); the buffer it
/// protects is append-only, so there is no torn invariant to fear.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// One field value attached to a span or event.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Text.
    Str(String),
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
        }
    }
}

macro_rules! impl_from_uint {
    ($($t:ty),*) => {$(
        impl From<$t> for FieldValue {
            fn from(v: $t) -> Self { FieldValue::U64(v as u64) }
        }
    )*};
}

macro_rules! impl_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for FieldValue {
            fn from(v: $t) -> Self { FieldValue::I64(v as i64) }
        }
    )*};
}

impl_from_uint!(u8, u16, u32, u64, usize);
impl_from_int!(i8, i16, i32, i64, isize);

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// Receiver of spans and events.
pub trait Subscriber: Send + Sync {
    /// A span named `name` opened with the given fields.
    fn on_span_enter(&self, name: &'static str, fields: &[(&'static str, FieldValue)]);
    /// The innermost open span named `name` closed after `elapsed`.
    fn on_span_exit(&self, name: &'static str, elapsed: Duration);
    /// A point event.
    fn on_event(&self, name: &'static str, fields: &[(&'static str, FieldValue)]);
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SUBSCRIBER: OnceLock<Box<dyn Subscriber>> = OnceLock::new();

/// Installs the process-global subscriber. Returns `Err` (with the
/// rejected subscriber) if one is already installed.
pub fn set_subscriber(s: Box<dyn Subscriber>) -> Result<(), Box<dyn Subscriber>> {
    match SUBSCRIBER.set(s) {
        Ok(()) => {
            ENABLED.store(true, Ordering::Release);
            Ok(())
        }
        Err(rejected) => Err(rejected),
    }
}

/// Whether a subscriber is installed. This is the fast path the macros
/// check before building any fields.
#[inline(always)]
pub fn tracing_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The installed subscriber, if any.
pub fn subscriber() -> Option<&'static dyn Subscriber> {
    if tracing_enabled() {
        SUBSCRIBER.get().map(|b| b.as_ref())
    } else {
        None
    }
}

/// RAII guard closing a span on drop.
pub struct SpanGuard {
    name: &'static str,
    started: Instant,
}

impl SpanGuard {
    /// Opens a span (used by [`obs_span!`](crate::obs_span)).
    pub fn enter(name: &'static str, fields: &[(&'static str, FieldValue)]) -> Option<SpanGuard> {
        let sub = subscriber()?;
        sub.on_span_enter(name, fields);
        Some(SpanGuard {
            name,
            started: Instant::now(),
        })
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(sub) = subscriber() {
            sub.on_span_exit(self.name, self.started.elapsed());
        }
    }
}

/// Emits an event (used by [`obs_event!`](crate::obs_event)).
pub fn emit_event(name: &'static str, fields: &[(&'static str, FieldValue)]) {
    if let Some(sub) = subscriber() {
        sub.on_event(name, fields);
    }
}

/// Opens a span: `obs_span!("name", key = value, ...)`. Returns an
/// `Option<SpanGuard>`; bind it (`let _span = ...`) so the span closes at
/// scope exit. Field expressions are not evaluated when tracing is off.
#[macro_export]
macro_rules! obs_span {
    ($name:literal $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::tracing_enabled() {
            $crate::SpanGuard::enter(
                $name,
                &[$((stringify!($key), $crate::FieldValue::from($value))),*],
            )
        } else {
            None
        }
    };
}

/// Emits a point event: `obs_event!("name", key = value, ...)`. Field
/// expressions are not evaluated when tracing is off.
#[macro_export]
macro_rules! obs_event {
    ($name:literal $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::tracing_enabled() {
            $crate::emit_event(
                $name,
                &[$((stringify!($key), $crate::FieldValue::from($value))),*],
            );
        }
    };
}

/// One record captured by [`CollectingSubscriber`].
#[derive(Clone, Debug, PartialEq)]
pub enum TraceRecord {
    /// Span opened.
    SpanEnter {
        /// Span name.
        name: &'static str,
        /// Fields at open.
        fields: Vec<(&'static str, FieldValue)>,
    },
    /// Span closed.
    SpanExit {
        /// Span name.
        name: &'static str,
        /// Wall-clock duration.
        elapsed: Duration,
    },
    /// Point event.
    Event {
        /// Event name.
        name: &'static str,
        /// Event fields.
        fields: Vec<(&'static str, FieldValue)>,
    },
}

/// Subscriber buffering every record in memory (for tests and tools).
#[derive(Default)]
pub struct CollectingSubscriber {
    records: Mutex<Vec<TraceRecord>>,
}

impl CollectingSubscriber {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of everything recorded so far.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        lock_unpoisoned(&self.records).clone()
    }
}

impl Subscriber for CollectingSubscriber {
    fn on_span_enter(&self, name: &'static str, fields: &[(&'static str, FieldValue)]) {
        lock_unpoisoned(&self.records).push(TraceRecord::SpanEnter {
            name,
            fields: fields.to_vec(),
        });
    }

    fn on_span_exit(&self, name: &'static str, elapsed: Duration) {
        lock_unpoisoned(&self.records).push(TraceRecord::SpanExit { name, elapsed });
    }

    fn on_event(&self, name: &'static str, fields: &[(&'static str, FieldValue)]) {
        lock_unpoisoned(&self.records).push(TraceRecord::Event {
            name,
            fields: fields.to_vec(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The subscriber slot is process-global and tests share one process,
    // so every check that needs an installed subscriber lives in this one
    // test; the "disabled" checks run first, before installation.
    #[test]
    fn facade_lifecycle() {
        // Disabled: macros construct nothing and return None/().
        assert!(!tracing_enabled());
        let guard = crate::obs_span!("quiet", x = 1u64);
        assert!(guard.is_none());
        crate::obs_event!("quiet_event", y = 2u64);

        // Install a collector; macros start recording.
        let collector = Box::leak(Box::new(CollectingSubscriber::new()));
        // Safety valve: installing twice must fail, not panic.
        struct Null;
        impl Subscriber for Null {
            fn on_span_enter(&self, _: &'static str, _: &[(&'static str, FieldValue)]) {}
            fn on_span_exit(&self, _: &'static str, _: Duration) {}
            fn on_event(&self, _: &'static str, _: &[(&'static str, FieldValue)]) {}
        }
        assert!(set_subscriber(Box::new(ForwardTo(collector))).is_ok());
        assert!(set_subscriber(Box::new(Null)).is_err());
        assert!(tracing_enabled());

        {
            let _span = crate::obs_span!("stem", id = 7u64);
            crate::obs_event!("frame", frame = 3i64, marks = 12u64);
        }
        let records = collector.snapshot();
        assert_eq!(records.len(), 3);
        assert!(matches!(
            &records[0],
            TraceRecord::SpanEnter { name: "stem", fields }
                if fields == &vec![("id", FieldValue::U64(7))]
        ));
        assert!(matches!(
            &records[1],
            TraceRecord::Event { name: "frame", fields }
                if fields.len() == 2 && fields[0] == ("frame", FieldValue::I64(3))
        ));
        assert!(matches!(
            &records[2],
            TraceRecord::SpanExit { name: "stem", .. }
        ));
    }

    #[test]
    fn poisoned_collector_keeps_collecting() {
        let collector = std::sync::Arc::new(CollectingSubscriber::new());
        // Poison the internal mutex: panic while holding the guard.
        let poisoner = std::sync::Arc::clone(&collector);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.records.lock().unwrap();
            panic!("instrumented thread dies mid-record");
        })
        .join();
        assert!(collector.records.is_poisoned());
        // The subscriber must shrug and keep recording.
        collector.on_event("after_panic", &[("k", FieldValue::U64(1))]);
        let records = collector.snapshot();
        assert_eq!(records.len(), 1);
        assert!(matches!(
            &records[0],
            TraceRecord::Event {
                name: "after_panic",
                ..
            }
        ));
    }

    /// Forwards to a leaked collector so the test can inspect it after
    /// handing ownership to the global slot.
    struct ForwardTo(&'static CollectingSubscriber);

    impl Subscriber for ForwardTo {
        fn on_span_enter(&self, name: &'static str, fields: &[(&'static str, FieldValue)]) {
            self.0.on_span_enter(name, fields)
        }
        fn on_span_exit(&self, name: &'static str, elapsed: Duration) {
            self.0.on_span_exit(name, elapsed)
        }
        fn on_event(&self, name: &'static str, fields: &[(&'static str, FieldValue)]) {
            self.0.on_event(name, fields)
        }
    }
}
