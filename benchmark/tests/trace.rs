use fires_benchmark::trace::{chrome_trace, self_times, Span, Tracer};

fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start,
        end,
        parent,
        op: 0,
    }
}

#[test]
fn self_time_subtracts_nested_children_once() {
    // op [0, 100) holds a [10, 40) which holds b [15, 25); c [60, 90).
    let spans = [
        span("op", 0, 100, None),
        span("a", 10, 40, Some(0)),
        span("b", 15, 25, Some(1)),
        span("c", 60, 90, Some(0)),
    ];
    // Grandchildren count against their parent, not the root.
    assert_eq!(self_times(&spans), vec![40, 20, 10, 30]);
}

#[test]
fn self_time_with_back_to_back_and_overlapping_children() {
    let back_to_back = [
        span("op", 0, 30, None),
        span("a", 0, 10, Some(0)),
        span("b", 10, 20, Some(0)),
        span("c", 20, 30, Some(0)),
    ];
    assert_eq!(self_times(&back_to_back)[0], 0);
    let overlapping = [
        span("op", 0, 100, None),
        span("a", 10, 50, Some(0)),
        span("b", 30, 70, Some(0)),
        span("c", 40, 45, Some(0)),
    ];
    assert_eq!(self_times(&overlapping)[0], 40);
}

#[test]
fn tracer_nests_spans_and_pauses() {
    let mut t = Tracer::new(true);
    let root = t.begin("op", 7);
    let x = t.span("leaf", 7, || 41 + 1);
    t.pause(true);
    t.span("hidden", 7, || ());
    t.pause(false);
    t.end(root);
    assert_eq!(x, 42);
    let spans = t.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!((spans[0].name, spans[0].parent), ("op", None));
    assert_eq!(
        (spans[1].name, spans[1].parent, spans[1].op),
        ("leaf", Some(0), 7)
    );
    assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);

    let events = chrome_trace(spans);
    let events = events.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
    assert_eq!(events.len(), 2);
    assert_eq!(events[1].get("ph").and_then(|p| p.as_str()), Some("X"));

    let mut off = Tracer::new(false);
    off.span("leaf", 0, || ());
    assert!(off.spans().is_empty());
}
