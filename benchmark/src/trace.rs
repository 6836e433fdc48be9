//! In-memory spans recorded by the benchmark around its calls into each
//! layer, with self time and a Chrome trace export.
//!
//! Spans are recorded only when tracing is on; with it off every method is
//! a branch and the wrapped call, so the untraced run measures the program
//! alone.

use std::time::Instant;

use fires_obs::Json;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `jobs.run_with_tasks`.
    pub name: &'static str,
    /// Start, in ns.
    pub start: u64,
    /// End, in ns (`>= start`).
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation the span belongs to (campaign or submission index).
    pub op: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Records spans when enabled and not paused.
pub struct Tracer {
    enabled: bool,
    paused: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span, returned by [`Tracer::begin`].
#[must_use = "close the span with Tracer::end"]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            paused: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether this is a traced run.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Stops (`true`) or resumes (`false`) recording; the traced run
    /// pauses for every other operation to measure tracing overhead.
    pub fn pause(&mut self, paused: bool) {
        self.paused = paused;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; children opened before [`end`](Self::end) nest in it.
    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled || self.paused {
            return Open(None);
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    /// Closes a span opened by [`begin`](Self::begin).
    pub fn end(&mut self, open: Open) {
        if let Some(i) = open.0 {
            let end = self.now();
            debug_assert_eq!(self.open.last(), Some(&i), "spans close in LIFO order");
            self.open.pop();
            self.spans[i].end = end;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, op);
        let out = f();
        self.end(open);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// The spans as a Chrome trace (`chrome://tracing`, Perfetto): one
/// complete (`X`) event per span, with its operation id and parent index
/// in `args`.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let events: Vec<Json> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut args = Json::object();
            args.set("span", i as u64).set("op", s.op);
            if let Some(p) = s.parent {
                args.set("parent", p as u64);
            }
            let mut e = Json::object();
            e.set("name", s.name)
                .set("ph", "X")
                .set("ts", s.start as f64 / 1e3)
                .set("dur", s.duration() as f64 / 1e3)
                .set("pid", 1u64)
                .set("tid", 1u64)
                .set("args", args);
            e
        })
        .collect();
    let mut j = Json::object();
    j.set("traceEvents", Json::Arr(events))
        .set("displayTimeUnit", "ms");
    j
}
