//! Chrome Trace Event Format export.
//!
//! The daemon's event log (`fires-serve`, DESIGN.md §15) derives each
//! request's spans and instants as [`TimedRecord`]s, and
//! [`trace_events_named`] turns them into a `trace.json` document
//! loadable in `chrome://tracing` or Perfetto.
//!
//! Event mapping (see the Trace Event Format spec):
//!
//! * span enter → `"ph": "B"` (duration begin) with `args` = fields;
//! * span exit  → `"ph": "E"` (duration end);
//! * point event → `"ph": "i"` (instant, thread-scoped) with `args`;
//! * one `"ph": "M"` metadata event per lane names the track.
//!
//! Timestamps (`ts`) are microseconds, as the format requires. All
//! events share `pid` 1 — the exporter describes one process.

use std::time::Duration;

use crate::json::Json;

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

/// One span or event, before it is stamped with a time and a lane.
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

/// One record stamped with a timestamp and a lane.
#[derive(Clone, Debug, PartialEq)]
pub struct TimedRecord {
    /// Microseconds since the trace's origin.
    pub ts_us: u64,
    /// Lane id; each lane renders as its own track.
    pub lane: u64,
    /// The underlying record.
    pub record: TraceRecord,
}

fn field_to_json(v: &FieldValue) -> Json {
    match v {
        FieldValue::U64(n) => Json::Num(*n as f64),
        FieldValue::I64(n) => Json::Num(*n as f64),
        FieldValue::F64(n) => Json::Num(*n),
        FieldValue::Str(s) => Json::Str(s.clone()),
    }
}

fn args_json(fields: &[(&'static str, FieldValue)]) -> Json {
    let mut args = Json::object();
    for (k, v) in fields {
        args.set(*k, field_to_json(v));
    }
    args
}

fn base_event(ph: &str, name: &str, ts_us: u64, lane: u64) -> Json {
    let mut e = Json::object();
    e.set("name", name)
        .set("cat", "fires")
        .set("ph", ph)
        .set("ts", ts_us as f64)
        .set("pid", 1u64)
        .set("tid", lane);
    e
}

/// Pure converter: a timed record stream → the Chrome Trace Event
/// Format document (`{"traceEvents": [...], "displayTimeUnit": "ms"}`).
///
/// Emits one `thread_name` metadata event per lane so the tracks are
/// labelled. `lane_names` maps lane ids to track labels; lanes not
/// listed keep the `lane-{n}` default. The serve layer uses this to label a
/// request lane with its trace id (`request 7b1f…`), so the rendered
/// track answers "whose submit is this" without opening the args.
pub fn trace_events_named(records: &[TimedRecord], lane_names: &[(u64, &str)]) -> Json {
    let mut events = Vec::new();
    let mut lanes: Vec<u64> = records.iter().map(|r| r.lane).collect();
    lanes.sort_unstable();
    lanes.dedup();
    for lane in lanes {
        let mut meta = Json::object();
        let mut args = Json::object();
        let label = lane_names
            .iter()
            .find(|(l, _)| *l == lane)
            .map(|(_, n)| (*n).to_string())
            .unwrap_or_else(|| format!("lane-{lane}"));
        args.set("name", label);
        meta.set("name", "thread_name")
            .set("ph", "M")
            .set("pid", 1u64)
            .set("tid", lane)
            .set("args", args);
        events.push(meta);
    }
    for r in records {
        let e = match &r.record {
            TraceRecord::SpanEnter { name, fields } => {
                let mut e = base_event("B", name, r.ts_us, r.lane);
                e.set("args", args_json(fields));
                e
            }
            TraceRecord::SpanExit { name, .. } => base_event("E", name, r.ts_us, r.lane),
            TraceRecord::Event { name, fields } => {
                let mut e = base_event("i", name, r.ts_us, r.lane);
                e.set("s", "t").set("args", args_json(fields));
                e
            }
        };
        events.push(e);
    }
    let mut doc = Json::object();
    doc.set("traceEvents", Json::Arr(events))
        .set("displayTimeUnit", "ms");
    doc
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;

    fn spans_balanced(events: &[Json]) -> bool {
        // Per lane, B/E must nest like parentheses.
        let mut depth: HashMap<u64, i64> = HashMap::new();
        for e in events {
            let lane = e.get("tid").and_then(Json::as_u64).unwrap();
            match e.get("ph").and_then(Json::as_str).unwrap() {
                "B" => *depth.entry(lane).or_insert(0) += 1,
                "E" => {
                    let d = depth.entry(lane).or_insert(0);
                    *d -= 1;
                    if *d < 0 {
                        return false;
                    }
                }
                _ => {}
            }
        }
        depth.values().all(|&d| d == 0)
    }

    #[test]
    fn structural_validity_of_exported_trace() {
        let at = |ts_us, record| TimedRecord {
            ts_us,
            lane: 0,
            record,
        };
        let records = vec![
            at(
                1,
                TraceRecord::SpanEnter {
                    name: "stem",
                    fields: vec![("id", FieldValue::U64(7))],
                },
            ),
            at(
                3,
                TraceRecord::Event {
                    name: "frame",
                    fields: vec![("frame", FieldValue::I64(-1))],
                },
            ),
            at(
                6,
                TraceRecord::SpanExit {
                    name: "stem",
                    elapsed: Duration::from_micros(5),
                },
            ),
        ];

        let doc = trace_events_named(&records, &[]);
        // Must survive an actual serialize/parse cycle.
        let doc = Json::parse(&doc.to_pretty()).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        // 1 metadata + 3 records.
        assert_eq!(events.len(), 4);
        for e in events {
            // Required Trace Event Format fields on every entry.
            assert!(e.get("name").and_then(Json::as_str).is_some());
            assert!(e.get("ph").and_then(Json::as_str).is_some());
            assert!(e.get("pid").and_then(Json::as_u64).is_some());
            assert!(e.get("tid").and_then(Json::as_u64).is_some());
            if e.get("ph").and_then(Json::as_str) != Some("M") {
                assert!(e.get("ts").and_then(Json::as_f64).is_some());
            }
        }
        assert!(spans_balanced(events));
        // The B event carries its fields; the instant event is scoped.
        let b = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("B"))
            .unwrap();
        assert_eq!(
            b.get("args")
                .and_then(|a| a.get("id"))
                .and_then(Json::as_u64),
            Some(7)
        );
        let i = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("i"))
            .unwrap();
        assert_eq!(i.get("s").and_then(Json::as_str), Some("t"));
    }

    #[test]
    fn timed_records_round_trip_through_converter() {
        let records = vec![
            TimedRecord {
                ts_us: 10,
                lane: 0,
                record: TraceRecord::SpanEnter {
                    name: "campaign",
                    fields: vec![("units", FieldValue::U64(3))],
                },
            },
            TimedRecord {
                ts_us: 90,
                lane: 1,
                record: TraceRecord::Event {
                    name: "unit_done",
                    fields: vec![("stem", FieldValue::Str("G7".into()))],
                },
            },
            TimedRecord {
                ts_us: 120,
                lane: 0,
                record: TraceRecord::SpanExit {
                    name: "campaign",
                    elapsed: Duration::from_micros(110),
                },
            },
        ];
        let doc = trace_events_named(&records, &[]);
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        // 2 lanes → 2 metadata events, then the 3 records in order.
        assert_eq!(events.len(), 5);
        assert_eq!(events[2].get("ts").and_then(Json::as_f64), Some(10.0));
        assert_eq!(events[3].get("tid").and_then(Json::as_u64), Some(1));
        assert_eq!(
            events[3]
                .get("args")
                .and_then(|a| a.get("stem"))
                .and_then(Json::as_str),
            Some("G7")
        );
        assert_eq!(
            doc.get("displayTimeUnit").and_then(Json::as_str),
            Some("ms")
        );
    }

    #[test]
    fn named_lanes_override_the_default_label() {
        let records = vec![
            TimedRecord {
                ts_us: 1,
                lane: 0,
                record: TraceRecord::Event {
                    name: "submit",
                    fields: vec![],
                },
            },
            TimedRecord {
                ts_us: 2,
                lane: 1,
                record: TraceRecord::Event {
                    name: "unit",
                    fields: vec![],
                },
            },
        ];
        let doc = trace_events_named(&records, &[(0, "request 7b1f")]);
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let label = |i: usize| {
            events[i]
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str)
                .unwrap()
                .to_string()
        };
        // Lane 0 takes the supplied name; lane 1 keeps the default.
        assert_eq!(label(0), "request 7b1f");
        assert_eq!(label(1), "lane-1");
    }
}
