//! Adversarial-input property suites for the three JSON readers of
//! recorded runs: [`parse_events`], [`parse_events_lenient`] and
//! [`parse_probe_cache_stats`]. Arbitrary bytes, a valid rendering with
//! one token swapped for a hostile one, a rendering cut at every byte,
//! and deep nesting must all give `Ok` or a typed [`ReplayError`] —
//! never a panic or a stack-overflow abort. Whatever a reader accepts
//! must re-render to a fixed point.

use ccq::{
    parse_events, parse_events_lenient, parse_probe_cache_stats, render_probe_cache_stats,
    DescentEvent, EventSink, ExpertKind, JsonlSink, Phase, ProbeCacheStats, ProbeRecord,
    ReplayError, StepRecord,
};
use ccq_quant::BitWidth;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Fragments a corrupted or hand-edited log might hold in place of one
/// JSON token.
const JUNK: &[&str] = &[
    "",
    "-",
    "-0",
    "0.5",
    "-5.7",
    "1e309",
    "-1e309",
    "1e-400",
    "NaN",
    "inf",
    "null",
    "true",
    "false",
    "\"\"",
    "\"x\"",
    "\"fp\"",
    "\"0b\"",
    "\"33b\"",
    "\"18446744073709551616b\"",
    "\"\\u\"",
    "\"\\ud800\"",
    "\"\\q\"",
    "\"unterminated",
    "[]",
    "{}",
    "[1,",
    "{\"k\":",
    "[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[",
    "\u{e9}",
    "\u{0}",
    "\\",
    ",",
    ":",
    "}",
    "]",
];

/// One event of every kind, with the awkward values the writer must
/// carry: NaN, an escaped non-ASCII label, a pruned rung, no quarantine
/// slot.
fn sample_events() -> Vec<DescentEvent> {
    vec![
        DescentEvent::PhaseStarted {
            phase: Phase::Compete,
            step: 1,
        },
        DescentEvent::Baseline {
            accuracy: 0.953_125,
            lr: 0.02,
        },
        DescentEvent::InitQuantize {
            accuracy: 0.9,
            lr: 0.02,
        },
        DescentEvent::ProbeRound {
            step: 1,
            round: 0,
            probes: vec![
                ProbeRecord {
                    round: 0,
                    layer: 2,
                    kind: ExpertKind::Layer,
                    val_loss: f32::NAN,
                },
                ProbeRecord {
                    round: 0,
                    layer: 3,
                    kind: ExpertKind::Activations,
                    val_loss: 1.25,
                },
            ],
            pi: vec![1.0, 0.587_342_1],
        },
        DescentEvent::QuantizeDecision {
            step: 1,
            epoch: 3,
            layer: 2,
            kind: ExpertKind::Weights,
            label: "fc,2 \"odd\"\n\u{e9}".into(),
            from_bits: BitWidth::of(8),
            to_bits: BitWidth::of(4),
            probabilities: vec![0.25, 0.75],
            valley_accuracy: 0.701_2,
            lr: 0.02,
            searcher: "zero-bit".into(),
        },
        DescentEvent::RecoveryEpoch {
            step: 1,
            epoch: 0,
            train_loss: 0.5,
            val_accuracy: 0.8,
            lr: 0.01,
        },
        DescentEvent::GuardRollback {
            step: 1,
            attempt: 1,
            discarded_trace_points: 3,
            quarantined_slot: Some(4),
        },
        DescentEvent::GuardRollback {
            step: 2,
            attempt: 2,
            discarded_trace_points: 0,
            quarantined_slot: None,
        },
        DescentEvent::StepCompleted {
            record: StepRecord {
                step: 1,
                layer: 2,
                kind: ExpertKind::Layer,
                label: "conv1".into(),
                from_bits: BitWidth::FP32,
                to_bits: BitWidth::ZERO,
                accuracy_before: 0.9,
                accuracy_after_quant: 0.7,
                accuracy_after_recovery: 0.85,
                recovery_epochs: 2,
                compression: 5.33,
                lambda: 0.3,
            },
        },
        DescentEvent::Autosave {
            next_step: 2,
            path: PathBuf::from("spool/run.ccqruns"),
        },
        DescentEvent::Finished {
            baseline_accuracy: 0.95,
            final_accuracy: 0.92,
            final_compression: 7.84,
            bit_pattern: "8b-4b-0b".into(),
        },
    ]
}

/// The JSONL a [`JsonlSink`] writes for `events`.
fn render(events: &[DescentEvent]) -> String {
    let mut sink = JsonlSink::new(Vec::new());
    for ev in events {
        sink.on_event(ev);
    }
    String::from_utf8(sink.into_inner()).expect("the sink writes UTF-8")
}

fn sample_stats() -> ProbeCacheStats {
    ProbeCacheStats {
        hits: 34,
        misses: 2,
        segments_run: 100,
        segments_total: 180,
        depth_hist: BTreeMap::from([(0, 2), (3, 20), (7, 14)]),
    }
}

/// A hostile replacement token: a log-uniform integer anywhere in
/// `0..=u64::MAX`, negated, made fractional or given an exponent, or a
/// junk fragment.
fn token() -> impl Strategy<Value = String> {
    (0u8..5, 0u32..=64, 0u64..=u64::MAX, 0usize..JUNK.len()).prop_map(|(form, bits, raw, junk)| {
        let n = raw.checked_shr(64 - bits).unwrap_or(0);
        match form {
            0 => n.to_string(),
            1 => format!("-{n}"),
            2 => format!("{n}.5"),
            3 => format!("{n}e{}", bits as i32 - 32),
            _ => JUNK[junk].to_string(),
        }
    })
}

/// Byte spans of every scalar token of a rendered JSON text: string
/// literals (object keys included) and bare numbers and literals.
fn scalar_spans(text: &str) -> Vec<(usize, usize)> {
    const STRUCTURE: &[u8] = b"{}[],: \n";
    let b = text.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let start = i;
        if b[i] == b'"' {
            i += 1;
            while i < b.len() && b[i] != b'"' {
                i += if b[i] == b'\\' { 2 } else { 1 };
            }
            i = (i + 1).min(b.len());
            spans.push((start, i));
        } else if STRUCTURE.contains(&b[i]) {
            i += 1;
        } else {
            while i < b.len() && !STRUCTURE.contains(&b[i]) {
                i += 1;
            }
            spans.push((start, i));
        }
    }
    spans
}

/// `text` with the byte span `(start, end)` replaced by `tok`.
fn splice(text: &str, (start, end): (usize, usize), tok: &str) -> String {
    format!("{}{tok}{}", &text[..start], &text[end..])
}

/// 1-based number of the last non-blank line (0 when there is none).
fn last_record_line(text: &str) -> usize {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, _)| i + 1)
        .last()
        .unwrap_or(0)
}

/// Both event readers on `text`: typed errors on real lines only,
/// agreement between the strict and lenient readers, and accepted
/// streams re-render to a fixed point.
fn check_events(text: &str) -> Result<(), TestCaseError> {
    let last = last_record_line(text);
    let strict = parse_events(text);
    let lenient = parse_events_lenient(text);
    match &strict {
        Ok(events) => {
            let once = render(events);
            let twice = parse_events(&once).map(|e| render(&e));
            prop_assert!(
                matches!(&twice, Ok(t) if *t == once),
                "accepted stream does not re-render to a fixed point: {text:?} -> {twice:?}"
            );
            prop_assert!(
                matches!(&lenient, Ok(p) if p.truncated_tail.is_none() && render(&p.events) == once),
                "lenient reader disagrees with the strict one on {text:?}: {lenient:?}"
            );
        }
        Err(ReplayError { line, .. }) => {
            prop_assert!(
                (1..=last).contains(line),
                "error line {line} outside 1..={last} for {text:?}"
            );
            match &lenient {
                Ok(p) => {
                    let tail = p.truncated_tail.as_ref().map(|t| t.line);
                    prop_assert!(
                        tail == Some(*line) && *line == last,
                        "lenient reader forgave line {line} (tail {tail:?}, last {last}) in {text:?}"
                    );
                }
                Err(e) => prop_assert!(
                    e.line == *line && *line < last,
                    "lenient error {e:?} vs strict line {line} (last {last}) in {text:?}"
                ),
            }
        }
    }
    Ok(())
}

/// The probe-cache reader on `text`: a typed, non-line-bound error, or
/// stats whose rendering parses back to themselves.
fn check_stats(text: &str) -> Result<(), TestCaseError> {
    match parse_probe_cache_stats(text) {
        Ok(stats) => {
            let back = parse_probe_cache_stats(&render_probe_cache_stats(&stats));
            prop_assert!(
                back.as_ref() == Ok(&stats),
                "accepted sidecar does not round-trip: {text:?} -> {back:?}"
            );
        }
        Err(e) => prop_assert!(e.line == 0, "line-bound sidecar error {e:?}"),
    }
    Ok(())
}

/// Runs a check outside a proptest body, panicking on its failure.
fn must(check: Result<(), TestCaseError>) {
    if let Err(e) = check {
        panic!("{e:?}");
    }
}

#[test]
fn canonical_renders_are_accepted() {
    let events = sample_events();
    let jsonl = render(&events);
    assert_eq!(render(&parse_events(&jsonl).expect("stream parses")), jsonl);
    let stats = sample_stats();
    let sidecar = render_probe_cache_stats(&stats);
    assert_eq!(parse_probe_cache_stats(&sidecar), Ok(stats));
}

/// A valid stream cut at every byte, as a killed writer leaves it: the
/// lenient reader keeps exactly the complete records and reports at
/// most a torn tail; the strict reader fails only on that tail. The
/// sidecar cut anywhere short of its closing brace is an error.
#[test]
fn truncation_at_every_byte_keeps_the_complete_prefix() {
    let events = sample_events();
    let jsonl = render(&events);
    let bytes = jsonl.as_bytes();
    for cut in 0..=bytes.len() {
        let text = String::from_utf8_lossy(&bytes[..cut]).into_owned();
        must(check_events(&text));
        let complete = bytes[..cut].iter().filter(|&&b| b == b'\n').count();
        let torn = !text.ends_with('\n') && !text.is_empty();
        // A cut just before a newline leaves a whole record in the tail.
        let whole_tail = torn && cut < bytes.len() && bytes[cut] == b'\n';
        let parse = parse_events_lenient(&text)
            .unwrap_or_else(|e| panic!("cut {cut}: lenient reader failed: {e}"));
        let kept = complete + usize::from(whole_tail);
        assert_eq!(
            render(&parse.events),
            render(&events[..kept]),
            "cut {cut}: complete prefix"
        );
        assert_eq!(
            parse.truncated_tail.is_some(),
            torn && !whole_tail,
            "cut {cut}: torn tail"
        );
    }

    let sidecar = render_probe_cache_stats(&sample_stats());
    let body = sidecar.trim_end().len();
    for cut in 0..=sidecar.len() {
        let text = &sidecar[..cut];
        must(check_stats(text));
        assert_eq!(
            parse_probe_cache_stats(text).is_ok(),
            cut >= body,
            "sidecar cut {cut}"
        );
    }
}

/// Nesting far past anything the writer emits, as a whole line, in
/// place of a value of a valid record, and inside the sidecar.
#[test]
fn deep_nesting_is_a_typed_error() {
    let jsonl = render(&sample_events());
    let sidecar = render_probe_cache_stats(&sample_stats());
    for opener in ["[", "{\"k\":", "[{\"k\":"] {
        let deep = opener.repeat(100_000);
        must(check_events(&deep));
        must(check_stats(&deep));
        assert!(parse_events(&deep).is_err());
        assert!(parse_probe_cache_stats(&deep).is_err());
        let in_stream = format!("{deep}\n{jsonl}");
        assert_eq!(parse_events(&in_stream).map_err(|e| e.line), Err(1));
        assert!(parse_events_lenient(&in_stream).is_err());
        let as_value = jsonl.replacen("0.953125", &deep, 1);
        assert_ne!(as_value, jsonl);
        assert_eq!(parse_events(&as_value).map_err(|e| e.line), Err(2));
        let in_hist = sidecar.replacen("20", &deep, 1);
        assert!(parse_probe_cache_stats(&in_hist).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, bare, after a valid stream, and behind the
    /// opening of a record.
    #[test]
    fn arbitrary_bytes_parse_to_typed_errors(body in proptest::collection::vec(0u8..=255, 0..512)) {
        let body = String::from_utf8_lossy(&body).into_owned();
        let jsonl = render(&sample_events()[..2]);
        for text in [
            body.clone(),
            format!("{jsonl}{body}"),
            format!("{{\"event\":{body}"),
            format!("{{\"hits\": {body}"),
        ] {
            check_events(&text)?;
            check_stats(&text)?;
        }
    }

    /// A valid stream with one token of one record, or one token of the
    /// sidecar, replaced by a hostile one; each case tries the token on
    /// every scalar of the chosen record in turn.
    #[test]
    fn one_hostile_value_parses_to_typed_errors(record in 0usize..11, tok in token()) {
        let events = sample_events();
        let jsonl = render(&events);
        let start: usize = jsonl.lines().take(record).map(|l| l.len() + 1).sum();
        let end = start + jsonl.lines().nth(record).expect("record line").len();
        for span in scalar_spans(&jsonl) {
            if span.0 >= start && span.1 <= end {
                check_events(&splice(&jsonl, span, &tok))?;
            }
        }
        let sidecar = render_probe_cache_stats(&sample_stats());
        for span in scalar_spans(&sidecar) {
            check_stats(&splice(&sidecar, span, &tok))?;
        }
    }

    /// Random-depth nesting built from every kind of opener, optionally
    /// closed again, in place of a whole record and of the sidecar.
    #[test]
    fn nesting_of_any_depth_parses_to_typed_errors(depth in 0usize..4096, kinds in 0u8..3, close in proptest::bool::ANY) {
        let (open, shut) = [("[", "]"), ("{\"k\":", "}"), ("[{\"k\":", "}]")][kinds as usize];
        let mut text = open.repeat(depth);
        text.push('1');
        if close {
            text.push_str(&shut.repeat(depth));
        }
        check_events(&text)?;
        check_stats(&text)?;
        check_events(&format!("{}{text}\n", render(&sample_events()[..1])))?;
    }
}
