//! The unit codec as it was before the typed one, kept as the oracle of
//! its properties: a unit is built into a generic [`Json`] tree and
//! printed, and a line is parsed into a tree and walked.
//! `unit_to_json` and `unit_from_json` are copied unchanged.
//!
//! The properties check that [`UnitRecord::encode`] writes exactly the
//! bytes the tree printer writes, and that [`decode_line`] agrees with
//! `Json::parse` and the tree readers on every line: on the same record,
//! or on an error of the same class (not complete JSON, which `read`
//! drops as a torn tail in last place, or a malformed record, an error
//! wherever it sits). Lines are the encoded records themselves, the same
//! records with their keys shuffled, whitespace added and a key repeated,
//! every prefix of them, and single-byte edits of them.

use fires_obs::ALL_RULES;
use proptest::prelude::*;
use proptest::string::generate_from_pattern;

use super::*;

fn unit_to_json(u: &UnitRecord) -> Json {
    let faults = u
        .faults
        .iter()
        .map(|&(line, stuck, c, frame)| {
            Json::Arr(vec![
                Json::Num(line as f64),
                Json::Num(if stuck { 1.0 } else { 0.0 }),
                Json::Num(c as f64),
                Json::Num(frame as f64),
            ])
        })
        .collect();
    let phases = u
        .phases
        .iter()
        .map(|(name, secs)| Json::Arr(vec![Json::Str(name.clone()), Json::Num(*secs)]))
        .collect();
    let mut j = Json::object();
    j.set("kind", "unit")
        .set("task", u.task as u64)
        .set("stem", u.stem as u64)
        .set("status", u.status.as_str())
        .set("faults", Json::Arr(faults))
        .set("marks", u.marks)
        .set("frames", u.frames)
        .set("retries", u.retries)
        .set("seconds", u.seconds)
        .set("phases", Json::Arr(phases))
        .set("metrics", u.metrics.to_json());
    if let Some(reason) = u.reason {
        j.set("reason", reason.as_str());
    }
    if let Some(profile) = &u.profile {
        j.set("profile", profile.to_json());
    }
    j
}

fn unit_from_json(j: &Json) -> Result<UnitRecord, JobError> {
    let int = |name: &str| {
        j.get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| JobError::journal(format!("unit record field {name:?} missing")))
    };
    let status = j
        .get("status")
        .and_then(Json::as_str)
        .and_then(UnitStatus::parse)
        .ok_or_else(|| JobError::journal("unit record has no valid status"))?;
    let faults = j
        .get("faults")
        .and_then(Json::as_arr)
        .ok_or_else(|| JobError::journal("unit record has no fault array"))?
        .iter()
        .map(|f| {
            let f = f
                .as_arr()
                .filter(|f| f.len() == 4)
                .ok_or_else(|| JobError::journal("fault entry is not a 4-element array"))?;
            let num = |i: usize| {
                f[i].as_f64()
                    .ok_or_else(|| JobError::journal("fault entry is not numeric"))
            };
            Ok((
                num(0)? as u32,
                num(1)? != 0.0,
                num(2)? as u32,
                num(3)? as i32,
            ))
        })
        .collect::<Result<Vec<_>, JobError>>()?;
    // Observability extras: tolerated when absent (they carry no result
    // data), rejected when present but malformed.
    let phases = match j.get("phases") {
        None => Vec::new(),
        Some(p) => {
            p.as_arr()
                .ok_or_else(|| JobError::journal("unit phases is not an array"))?
                .iter()
                .map(|e| {
                    let e = e.as_arr().filter(|e| e.len() == 2).ok_or_else(|| {
                        JobError::journal("phase entry is not a [name, secs] pair")
                    })?;
                    let name = e[0]
                        .as_str()
                        .ok_or_else(|| JobError::journal("phase name is not a string"))?;
                    let secs = e[1]
                        .as_f64()
                        .ok_or_else(|| JobError::journal("phase seconds is not numeric"))?;
                    Ok((name.to_string(), secs))
                })
                .collect::<Result<Vec<_>, JobError>>()?
        }
    };
    let metrics = match j.get("metrics") {
        None => RunMetrics::default(),
        Some(m) => RunMetrics::from_json(m)
            .ok_or_else(|| JobError::journal("unit metrics are malformed"))?,
    };
    let profile = match j.get("profile") {
        None => None,
        Some(p) => Some(
            RuleProfile::from_json(p)
                .ok_or_else(|| JobError::journal("unit profile is malformed"))?,
        ),
    };
    let reason = match j.get("reason") {
        None => None,
        Some(r) => Some(
            r.as_str()
                .and_then(ExhaustionReason::parse)
                .ok_or_else(|| JobError::journal("unit reason is not a known budget limit"))?,
        ),
    };
    if (status == UnitStatus::Exhausted) != reason.is_some() {
        return Err(JobError::journal(
            "unit reason must be present exactly for exhausted units",
        ));
    }
    Ok(UnitRecord {
        task: int("task")? as usize,
        stem: int("stem")? as usize,
        status,
        faults,
        marks: int("marks")?,
        frames: int("frames")?,
        retries: j.get("retries").and_then(Json::as_u64).unwrap_or(0),
        reason,
        seconds: j.get("seconds").and_then(Json::as_f64).unwrap_or(0.0),
        phases,
        metrics,
        profile,
    })
}

/// How the parse-then-walk reader classified one line.
fn reference_line(line: &str) -> Result<Record, Option<JobError>> {
    let j = Json::parse(line).map_err(|_| None)?;
    match j.get("kind").and_then(Json::as_str) {
        Some("unit") => unit_from_json(&j).map(Record::Unit),
        Some("event") => event_from_json(&j).map(Record::Event),
        Some("progress") => progress_from_json(&j).map(Record::Progress),
        _ => Err(kind_error()),
    }
    .map_err(Some)
}

fn assert_agrees(line: &str) -> Result<(), TestCaseError> {
    match (decode_line(line), reference_line(line)) {
        (Ok(typed), Ok(reference)) => prop_assert_eq!(typed, reference),
        (Err(LineError::Incomplete(_)), Err(None)) => {}
        (Err(LineError::Malformed(typed)), Err(Some(reference))) => {
            prop_assert_eq!(typed.to_string(), reference.to_string());
        }
        (typed, reference) => {
            prop_assert!(false, "{line:?}: typed {typed:?}, reference {reference:?}");
        }
    }
    Ok(())
}

/// Mostly small values, and now and then one around 2^53, where `f64`
/// stops being exact (a unit above it does not read back).
fn count(r: &mut TestRunner) -> u64 {
    match r.below(10) {
        0 => (1 << 53) - 1,
        1 => 1 << 53,
        2 => (1 << 53) + 1,
        3 => r.next_u64(),
        _ => r.below(1000),
    }
}

/// Integral and fractional seconds, and now and then a value JSON cannot
/// hold.
fn seconds(r: &mut TestRunner) -> f64 {
    match r.below(10) {
        0..=2 => r.below(100) as f64,
        3..=5 => r.below(1_000_000) as f64 / 7919.0,
        6 => f64::from_bits(r.next_u64()),
        7 => 1e300,
        8 => -0.0,
        _ => [f64::NAN, f64::INFINITY][r.index(2)],
    }
}

/// A name with characters the printer escapes or passes through.
fn name(r: &mut TestRunner) -> String {
    generate_from_pattern("[a-z_.é✓\"\\\\\u{1}\t]{1,8}", r)
}

fn metrics(r: &mut TestRunner) -> RunMetrics {
    let mut m = RunMetrics::default();
    for _ in 0..r.below(4) {
        let (name, v) = (name(r), r.below(1 << 40));
        match r.below(3) {
            0 => m.incr(&name, v),
            1 => m.set_max(&name, v),
            _ => m.observe(&name, v),
        }
    }
    m
}

fn profile(r: &mut TestRunner) -> Option<RuleProfile> {
    if r.chance(0.5) {
        return None;
    }
    let mut p = RuleProfile::new();
    for _ in 0..r.below(4) {
        let rule = ALL_RULES[r.index(ALL_RULES.len())];
        p.record_many(rule, 1 + r.below(1000));
    }
    let hit = r.chance(0.5);
    if hit {
        p.note_unattributed();
    }
    p.record_dist_cache(hit);
    p.record_frame_offset(r.below(40));
    p.record_blame_size(r.below(40));
    Some(p)
}

/// A unit record, most of them well-formed; the rest (a `reason` that
/// does not match the status, a count above 2^53, a non-finite phase
/// time) the reader must reject the same way.
fn unit(r: &mut TestRunner) -> UnitRecord {
    let status = [
        UnitStatus::Ok,
        UnitStatus::Panic,
        UnitStatus::Timeout,
        UnitStatus::Exhausted,
    ][r.index(4)];
    // Mostly the reason its status calls for.
    let reason = if (status == UnitStatus::Exhausted) == r.chance(0.9) {
        Some(
            [
                ExhaustionReason::Steps,
                ExhaustionReason::QueuedWork,
                ExhaustionReason::IndicatorMemory,
                ExhaustionReason::WallClock,
            ][r.index(4)],
        )
    } else {
        None
    };
    UnitRecord {
        task: count(r) as usize,
        stem: count(r) as usize,
        status,
        faults: (0..r.below(6))
            .map(|_| {
                let n = r.next_u64();
                let entry = (
                    n as u32,
                    n >> 32 & 1 == 1,
                    (n >> 33) as u32,
                    r.next_u64() as i32,
                );
                match r.below(2) {
                    0 => (entry.0 % 100, entry.1, entry.2 % 9, entry.3 % 9),
                    _ => entry,
                }
            })
            .collect(),
        marks: count(r),
        frames: count(r),
        retries: count(r),
        reason,
        seconds: seconds(r),
        phases: (0..r.below(3)).map(|_| (name(r), seconds(r))).collect(),
        metrics: metrics(r),
        profile: profile(r),
    }
}

/// A unit line most of the time, and now and then an event or progress
/// line, so every record kind meets the same edits.
fn line(r: &mut TestRunner) -> String {
    match r.below(8) {
        0 => event_to_json(&EventRecord {
            seq: count(r),
            task: 0,
            stem: r.index(9),
            attempt: 1,
            what: "unit-retry".into(),
            detail: name(r),
        })
        .to_compact(),
        1 => progress_to_json(&ProgressRecord {
            done: count(r),
            pending: 1,
            ok: 3,
            panicked: 0,
            timed_out: 0,
            exhausted: 0,
            retried: 0,
            elapsed_seconds: seconds(r),
            units_per_second: seconds(r),
            workers: 2,
            busy: 1,
        })
        .to_compact(),
        _ => unit(r).encode().as_str().to_string(),
    }
}

/// Renders `j` with `ws` between all tokens and the top-level keys in the
/// order `order` picks (an index into the keys still unplaced).
fn render_loose(j: &Json, ws: &str, order: &[usize], out: &mut String) {
    match j {
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(ws);
                render_loose(item, ws, &[], out);
                out.push_str(ws);
            }
            out.push(']');
        }
        Json::Obj(map) => {
            let mut keys: Vec<&String> = map.keys().collect();
            let mut placed = Vec::new();
            for &pick in order {
                if !keys.is_empty() {
                    placed.push(keys.remove(pick % keys.len()));
                }
            }
            placed.extend(keys);
            out.push('{');
            for (i, key) in placed.into_iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(ws);
                json::write_string(key, out);
                out.push_str(ws);
                out.push(':');
                out.push_str(ws);
                render_loose(&map[key], ws, &[], out);
                out.push_str(ws);
            }
            out.push('}');
        }
        scalar => scalar.write_compact(out),
    }
}

/// Values a repeated key may carry before its last, real occurrence.
const DECOYS: [&str; 6] = ["[[1]]", "\"bogus\"", "null", "{}", "-1", "[[1,2,3,4]]"];

/// Bytes a single-byte edit puts in or over a line.
const EDIT_BYTES: &[u8] = b"\"\\,:[]{}-.0159eE+ xntf";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn encode_writes_the_tree_printers_bytes(u in BoxedStrategy::from_fn(unit)) {
        let line = u.encode();
        prop_assert_eq!(line.as_str(), unit_to_json(&u).to_compact());
    }

    #[test]
    fn decode_agrees_with_the_tree_reader(
        line in BoxedStrategy::from_fn(line),
        ws in "[ \t]{0,2}",
        order in proptest::collection::vec(0usize..16, 0..16),
        decoy in (0usize..16, 0..DECOYS.len() + 1),
    ) {
        assert_agrees(&line)?;
        let tree = Json::parse(&line).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let mut loose = String::new();
        render_loose(&tree, &ws, &order, &mut loose);
        assert_agrees(&loose)?;
        if let (Some(&value), Some(map)) = (DECOYS.get(decoy.1), tree.as_obj()) {
            // An earlier occurrence of a key loses to the last one.
            let key = map.keys().nth(decoy.0 % map.len()).cloned().unwrap_or_default();
            let mut repeated = String::from("{");
            json::write_string(&key, &mut repeated);
            repeated.push(':');
            repeated.push_str(value);
            repeated.push(',');
            repeated.push_str(&loose[1..]);
            assert_agrees(&repeated)?;
            prop_assert_eq!(
                decode_line(&repeated).ok(),
                decode_line(&loose).ok(),
                "the last occurrence of {:?} must win",
                key
            );
        }
    }

    #[test]
    fn every_prefix_is_classified_alike(line in BoxedStrategy::from_fn(line)) {
        for end in (0..line.len()).filter(|&end| line.is_char_boundary(end)) {
            assert_agrees(&line[..end])?;
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn single_byte_edits_are_classified_alike(
        line in BoxedStrategy::from_fn(line),
        at in 0usize..1 << 16,
        byte in 0..EDIT_BYTES.len(),
        edit in 0u8..3,
        in_faults in any::<bool>(),
    ) {
        // Half the edits land in the fault list, a small share of a line's
        // bytes but the part decoded without a tree.
        let faults = match line.find("],\"frames\"") {
            Some(end) if in_faults && line.starts_with("{\"faults\":[[") => 11..end,
            _ => 0..line.len() + 1,
        };
        let mut bytes = line.into_bytes();
        let at = faults.start + at % faults.len();
        let byte = EDIT_BYTES[byte];
        match edit {
            0 if at < bytes.len() => bytes[at] = byte,
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, byte),
        }
        if let Ok(edited) = String::from_utf8(bytes) {
            assert_agrees(&edited)?;
        }
    }
}

#[test]
fn most_generated_lines_decode() {
    let mut runner = TestRunner::for_case("most-generated-lines-decode", 0);
    let ok = (0..400)
        .filter(|_| decode_line(&line(&mut runner)).is_ok())
        .count();
    assert!(ok >= 200, "only {ok} of 400 lines decode");
}

#[test]
fn a_short_fault_entry_is_malformed_only_in_a_complete_line() {
    let mut runner = TestRunner::for_case("short-fault-entry", 0);
    let mut u = unit(&mut runner);
    u.status = UnitStatus::Ok;
    u.reason = None;
    u.faults = vec![(7, true, 2, -1)];
    let line = u.encode().as_str().replace("[[7,1,2,-1]]", "[[7,1,2]]");
    let cut = line.find("]]").unwrap_or(line.len());
    for line in [&line[..cut + 1], &line[..], "[1]"] {
        assert_agrees(line).unwrap();
    }
    assert!(matches!(
        decode_line(&line[..cut + 1]),
        Err(LineError::Incomplete(_))
    ));
    match decode_line(&line) {
        Err(LineError::Malformed(e)) => assert!(e.to_string().contains("4-element"), "{e}"),
        other => panic!("a complete line with a short entry decoded as {other:?}"),
    }
    // Complete JSON that is not an object has no kind: malformed.
    assert!(matches!(decode_line("[1]"), Err(LineError::Malformed(_))));
}
