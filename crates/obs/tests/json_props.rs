//! Property tests for `Json::parse`'s string decoding: every string the
//! printers emit reads back unchanged, the parser agrees with a
//! char-by-char reference decoder on arbitrary (often malformed) string
//! literals, and decoding stays linear in the input length — a cache-hit
//! reply carries a whole multi-megabyte report as one JSON string.

use std::time::{Duration, Instant};

use fires_obs::{json, Json};
use proptest::prelude::*;

/// Arbitrary text: ASCII, 2-byte (`é`, `߷`), 3-byte (`中`, `✓`) and 4-byte
/// (`😀`, `𝄞`) scalars, every character the printer escapes (`"`, `\`,
/// `\n`, `\r`, `\t` and the `\u00XX` controls), and `"` / `\` pressed
/// against multi-byte neighbours.
const TEXT: &str = "([a-zA-Z0-9 /é߷中✓😀𝄞\"\\\\\u{0}\u{1}\u{8}\u{c}\u{1f}\u{7f}\n\r\t]\
                    |é\"|\"é|\\\\😀|😀\\\\|中\\\\\"|\"𝄞\\\\){0,40}";

/// Raw string-literal bodies mixing plain text, valid escapes and the
/// hazards a decoder can trip on: lone `"` and `\`, short or non-hex
/// `\u` escapes, multi-byte scalars where hex digits belong.
const BODY: &str = "([a-z é中😀]\
                    |\\\\[\"\\\\/bfnrt]\
                    |\\\\u[0-9a-fA-F]{4}\
                    |[\"\\\\u0-9a-fA-F+é中😀\u{1}\n]){0,24}";

/// The decoder the parser must agree with: one scalar at a time, the
/// same escapes, then only whitespace after the closing quote.
fn reference_decode(doc: &str) -> Option<String> {
    let mut it = doc.chars();
    if it.next()? != '"' {
        return None;
    }
    let mut out = String::new();
    loop {
        match it.next()? {
            '"' => break,
            '\\' => match it.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                '/' => out.push('/'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'b' => out.push('\u{8}'),
                'f' => out.push('\u{c}'),
                'u' => {
                    let hex: String = it.by_ref().take(4).collect();
                    if hex.len() != 4 {
                        return None;
                    }
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
    it.all(|c| matches!(c, ' ' | '\t' | '\n' | '\r'))
        .then_some(out)
}

/// A string literal that escapes only `"` and `\`, leaving control
/// characters raw.
fn raw_literal(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        if matches!(c, '"' | '\\') {
            out.push('\\');
        }
        out.push(c);
    }
    out.push('"');
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    /// A string value survives both printers and the parser.
    #[test]
    fn strings_round_trip_through_both_printers(s in TEXT) {
        let v = Json::Str(s);
        prop_assert_eq!(Json::parse(&v.to_compact()).unwrap(), v.clone());
        prop_assert_eq!(Json::parse(&v.to_pretty()).unwrap(), v);
    }

    /// Strings round-trip as object keys and inside containers, where a
    /// string's closing quote is followed by more structure.
    #[test]
    fn strings_round_trip_as_keys_and_array_items(a in TEXT, b in TEXT) {
        let mut v = Json::object();
        v.set(a.clone(), vec![b.clone(), a]).set("k", b);
        prop_assert_eq!(Json::parse(&v.to_compact()).unwrap(), v.clone());
        prop_assert_eq!(Json::parse(&v.to_pretty()).unwrap(), v);
    }

    /// Raw control characters and multi-byte scalars inside a literal
    /// decode exactly like their escaped forms.
    #[test]
    fn raw_control_characters_decode_like_their_escapes(s in TEXT) {
        prop_assert_eq!(Json::parse(&raw_literal(&s)).unwrap(), Json::Str(s));
    }

    /// On arbitrary literal bodies, closed or not, the parser accepts
    /// exactly what the reference accepts and decodes the same string.
    #[test]
    fn parser_agrees_with_the_reference_decoder(body in BODY) {
        for doc in [format!("\"{body}"), format!("\"{body}\""), format!("\"{body}\" ")] {
            prop_assert_eq!(
                Json::parse(&doc).ok(),
                reference_decode(&doc).map(Json::Str),
                "doc={:?}",
                doc
            );
        }
    }

    /// Every proper prefix of a string document is rejected, including
    /// cuts that leave a multi-byte scalar as the last character.
    #[test]
    fn truncated_string_documents_are_rejected(s in TEXT) {
        let doc = Json::Str(s).to_compact();
        for (cut, _) in doc.char_indices().skip(1) {
            prop_assert!(Json::parse(&doc[..cut]).is_err(), "accepted {:?}", &doc[..cut]);
        }
    }
}

/// The number rendering from before `write_number` wrote into its
/// buffer: a temporary `String` per number.
fn reference_number(n: f64) -> String {
    if !n.is_finite() {
        "null".to_string()
    } else if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, .. ProptestConfig::default() })]

    /// `write_number` and `write_int` print what the reference prints,
    /// for any bit pattern (NaN and the infinities included) and for
    /// integers on both sides of 2^53.
    #[test]
    fn numbers_render_as_before(bits in any::<u64>(), int in any::<i64>(), shift in 0u32..64) {
        let small = int >> shift;
        for n in [f64::from_bits(bits), int as f64, small as f64] {
            let mut out = String::new();
            json::write_number(n, &mut out);
            prop_assert_eq!(out, reference_number(n));
        }
        let mut out = String::new();
        json::write_int(small, &mut out);
        prop_assert_eq!(out, small.to_string());
    }

    /// Number literals, with or without the short-integer shape the
    /// parser reads without `str::parse`, read as `str::parse` reads them
    /// and are refused where it refuses them.
    #[test]
    fn numbers_parse_as_str_parse_does(text in "-?[0-9]{0,18}([.eE][-+]?[0-9]{0,3})?") {
        prop_assert_eq!(
            Json::parse(&text).ok().and_then(|j| j.as_f64()).map(f64::to_bits),
            text.parse::<f64>().ok().map(f64::to_bits),
            "text={:?}",
            text
        );
    }
}

/// A reply-shaped line (`{"type":"hit","job":..,"report":..}`) whose
/// report string is a pretty-printed document over 2 MB decodes in one
/// linear pass. A decoder that rescans the rest of the input per
/// character takes tens of seconds here.
#[test]
fn multi_megabyte_reply_decodes_in_linear_time() {
    let rows: Vec<Json> = (0..30_000u64)
        .map(|i| {
            let mut row = Json::object();
            row.set("stem", format!("g{i} → ff✓"))
                .set("faults", vec!["sa0 \"é\"", "sa1\t中😀"])
                .set("c", i % 7);
            row
        })
        .collect();
    let report = Json::Arr(rows).to_pretty();
    assert!(
        report.len() >= 2 << 20,
        "report is only {} bytes",
        report.len()
    );
    let mut reply = Json::object();
    reply
        .set("type", "hit")
        .set("job", "0123456789abcdef")
        .set("report", report);
    let line = reply.to_compact();

    let start = Instant::now();
    let parsed = Json::parse(&line).unwrap();
    let elapsed = start.elapsed();
    assert_eq!(parsed, reply);
    assert!(
        elapsed < Duration::from_secs(1),
        "decoding {} bytes took {elapsed:?}",
        line.len()
    );
}
