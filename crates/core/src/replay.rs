//! Replay a recorded descent: parse a [`JsonlSink`](crate::JsonlSink)
//! trace back into [`DescentEvent`]s and render run summaries from it.
//!
//! The JSONL format is CCQ's own (hand-rolled, one object per line, see
//! [`crate::event::event_json`]); the parser here is its exact inverse:
//! floats were written in shortest round-trip form, so
//! `parse_events(jsonl)` reproduces the original event stream
//! bit-for-bit (non-finite floats were serialized as `null` and come
//! back as NaN). That makes offline analysis equivalent to live
//! observation: feeding a replayed stream into a
//! [`MetricsSink`](crate::MetricsSink) with the same
//! [`ManualClock`](crate::ManualClock) produces a byte-identical
//! exposition — the golden-trace suite enforces exactly this.
//!
//! [`render_run_summary`] is the human-readable view the `ccq-report`
//! binary prints: headline numbers plus a per-step schedule table, all
//! fixed-precision so the bytes are stable.

use crate::event::{DescentEvent, StepRecord};
use crate::{ExpertKind, Phase, ProbeRecord};
use ccq_quant::BitWidth;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fmt::{self};
use std::path::PathBuf;

/// A failure parsing or decoding a recorded trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayError {
    /// 1-based line of the offending JSONL record (0 = not line-bound).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "trace line {}: {}", self.line, self.message)
        } else {
            write!(f, "trace: {}", self.message)
        }
    }
}

impl std::error::Error for ReplayError {}

/// Parses a full JSONL event log (one JSON object per non-empty line)
/// back into the event stream that produced it.
///
/// # Errors
///
/// Returns a [`ReplayError`] naming the first malformed line: invalid
/// JSON, an unknown `event` kind, or a missing/mistyped field.
pub fn parse_events(jsonl: &str) -> Result<Vec<DescentEvent>, ReplayError> {
    let mut events = Vec::new();
    for (i, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(parse_event_line(line).map_err(|message| ReplayError {
            line: i + 1,
            message,
        })?);
    }
    Ok(events)
}

/// Parses one JSONL line into its [`DescentEvent`].
///
/// # Errors
///
/// Returns the parse/decode failure message (not line-bound — the caller
/// knows the line number).
pub fn parse_event_line(line: &str) -> Result<DescentEvent, String> {
    let (value, rest) = Json::parse(line)?;
    if !rest.trim().is_empty() {
        return Err("trailing bytes after JSON object".into());
    }
    decode_event(&value)
}

/// A malformed final line a lenient parse tolerated — the signature a
/// live-tailed or crashed-writer log leaves behind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TruncatedTail {
    /// 1-based line number of the malformed tail.
    pub line: usize,
    /// Bytes in the malformed tail.
    pub bytes: usize,
    /// Why the tail failed to parse.
    pub message: String,
}

/// The outcome of [`parse_events_lenient`]: every event from a complete
/// line, plus the truncated tail when one was dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct LenientParse {
    /// Events decoded from complete lines.
    pub events: Vec<DescentEvent>,
    /// The dropped final line, when the log ended mid-record.
    pub truncated_tail: Option<TruncatedTail>,
}

/// [`parse_events`] tolerating a truncated *final* line: a writer killed
/// mid-append (or a reader racing it) tears only the last record, so a
/// malformed final line is reported as a [`TruncatedTail`] rather than an
/// error while the complete prefix still decodes.
///
/// # Errors
///
/// Returns a [`ReplayError`] for a malformed line anywhere *before* the
/// final one — that is corruption, not truncation.
pub fn parse_events_lenient(jsonl: &str) -> Result<LenientParse, ReplayError> {
    let lines: Vec<(usize, &str)> = jsonl
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .collect();
    let mut events = Vec::with_capacity(lines.len());
    let last = lines.len();
    for (k, &(i, line)) in lines.iter().enumerate() {
        match parse_event_line(line) {
            Ok(ev) => events.push(ev),
            Err(message) if k + 1 == last => {
                return Ok(LenientParse {
                    events,
                    truncated_tail: Some(TruncatedTail {
                        line: i + 1,
                        bytes: line.len(),
                        message,
                    }),
                })
            }
            Err(message) => {
                return Err(ReplayError {
                    line: i + 1,
                    message,
                })
            }
        }
    }
    Ok(LenientParse {
        events,
        truncated_tail: None,
    })
}

/// Renders a run's [`crate::ProbeCacheStats`] as one JSON object — the
/// sidecar `ccq-report --probe-cache` reads back. Keys are emitted in a
/// fixed order and the depth histogram is a `skipped → count` object
/// with ascending keys, so identical stats render byte-identically.
pub fn render_probe_cache_stats(stats: &crate::ProbeCacheStats) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"hits\": {}, \"misses\": {}, \"segments_run\": {}, \"segments_total\": {}, \"depth_hist\": {{",
        stats.hits, stats.misses, stats.segments_run, stats.segments_total
    );
    for (i, (skipped, count)) in stats.depth_hist.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "\"{skipped}\": {count}");
    }
    s.push_str("}}\n");
    s
}

/// Parses a probe-cache sidecar written by
/// [`render_probe_cache_stats`] back into the stats, bit-for-bit.
///
/// # Errors
///
/// Returns a [`ReplayError`] (never line-bound — the sidecar is one
/// object) on malformed JSON or a missing/mistyped field.
pub fn parse_probe_cache_stats(json: &str) -> Result<crate::ProbeCacheStats, ReplayError> {
    let at = |message: String| ReplayError { line: 0, message };
    let (v, rest) = Json::parse(json).map_err(at)?;
    if !rest.trim().is_empty() {
        return Err(at("trailing bytes after JSON object".into()));
    }
    let count = |c: &Json, what: &str| -> Result<u64, ReplayError> {
        match c {
            Json::Num(x) if *x >= 0.0 && x.fract().abs() < f64::EPSILON => Ok(*x as u64),
            _ => Err(at(format!("{what} is not a non-negative integer"))),
        }
    };
    let u64_field = |key: &str| count(v.field(key).map_err(at)?, &format!("field \"{key}\""));
    let mut stats = crate::ProbeCacheStats {
        hits: u64_field("hits")?,
        misses: u64_field("misses")?,
        segments_run: u64_field("segments_run")?,
        segments_total: u64_field("segments_total")?,
        depth_hist: BTreeMap::new(),
    };
    let Json::Object(hist) = v.field("depth_hist").map_err(at)? else {
        return Err(at("field \"depth_hist\" is not an object".into()));
    };
    for (key, c) in hist {
        let skipped: usize = key
            .parse()
            .map_err(|_| at(format!("depth_hist key \"{key}\" is not an integer")))?;
        let c = count(c, &format!("depth_hist[\"{key}\"]"))?;
        stats.depth_hist.insert(skipped, c);
    }
    Ok(stats)
}

/// Decodes one parsed JSON object into a [`DescentEvent`].
fn decode_event(v: &Json) -> Result<DescentEvent, String> {
    let kind = v.str_field("event")?;
    match kind {
        "phase_started" => Ok(DescentEvent::PhaseStarted {
            phase: parse_phase(v.str_field("phase")?)?,
            step: v.usize_field("step")?,
        }),
        "baseline" => Ok(DescentEvent::Baseline {
            accuracy: v.f32_field("accuracy")?,
            lr: v.f32_field("lr")?,
        }),
        "init_quantize" => Ok(DescentEvent::InitQuantize {
            accuracy: v.f32_field("accuracy")?,
            lr: v.f32_field("lr")?,
        }),
        "probe_round" => {
            let probes = v
                .array_field("probes")?
                .iter()
                .map(|p| {
                    Ok(ProbeRecord {
                        round: p.usize_field("round")?,
                        layer: p.usize_field("layer")?,
                        kind: parse_kind(p.str_field("kind")?)?,
                        val_loss: p.f32_field("val_loss")?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(DescentEvent::ProbeRound {
                step: v.usize_field("step")?,
                round: v.usize_field("round")?,
                probes,
                pi: v.f32_array_field("pi")?,
            })
        }
        "quantize" => Ok(DescentEvent::QuantizeDecision {
            step: v.usize_field("step")?,
            epoch: v.usize_field("epoch")?,
            layer: v.usize_field("layer")?,
            kind: parse_kind(v.str_field("kind")?)?,
            label: v.str_field("label")?.to_string(),
            from_bits: parse_bits(v.str_field("from_bits")?)?,
            to_bits: parse_bits(v.str_field("to_bits")?)?,
            probabilities: v.f32_array_field("probabilities")?,
            valley_accuracy: v.f32_field("valley_accuracy")?,
            lr: v.f32_field("lr")?,
            // Streams written before the searcher abstraction carry no
            // searcher field; only Hedge existed then.
            searcher: match v.field("searcher") {
                Ok(Json::Str(s)) => s.clone(),
                _ => "hedge".to_string(),
            },
        }),
        "recovery_epoch" => Ok(DescentEvent::RecoveryEpoch {
            step: v.usize_field("step")?,
            epoch: v.usize_field("epoch")?,
            train_loss: v.f32_field("train_loss")?,
            val_accuracy: v.f32_field("val_accuracy")?,
            lr: v.f32_field("lr")?,
        }),
        "guard_rollback" => {
            let slot = match v.field("quarantined_slot")? {
                Json::Null => None,
                other => Some(as_usize(other, "quarantined_slot")?),
            };
            Ok(DescentEvent::GuardRollback {
                step: v.usize_field("step")?,
                attempt: v.usize_field("attempt")?,
                discarded_trace_points: v.usize_field("discarded_trace_points")?,
                quarantined_slot: slot,
            })
        }
        "step" => Ok(DescentEvent::StepCompleted {
            record: StepRecord {
                step: v.usize_field("step")?,
                layer: v.usize_field("layer")?,
                kind: parse_kind(v.str_field("kind")?)?,
                label: v.str_field("label")?.to_string(),
                from_bits: parse_bits(v.str_field("from_bits")?)?,
                to_bits: parse_bits(v.str_field("to_bits")?)?,
                accuracy_before: v.f32_field("accuracy_before")?,
                accuracy_after_quant: v.f32_field("accuracy_after_quant")?,
                accuracy_after_recovery: v.f32_field("accuracy_after_recovery")?,
                recovery_epochs: v.usize_field("recovery_epochs")?,
                compression: v.f64_field("compression")?,
                lambda: v.f32_field("lambda")?,
            },
        }),
        "autosave" => Ok(DescentEvent::Autosave {
            next_step: v.usize_field("next_step")?,
            path: PathBuf::from(v.str_field("path")?),
        }),
        "finished" => Ok(DescentEvent::Finished {
            baseline_accuracy: v.f32_field("baseline_accuracy")?,
            final_accuracy: v.f32_field("final_accuracy")?,
            final_compression: v.f64_field("final_compression")?,
            bit_pattern: v.str_field("bit_pattern")?.to_string(),
        }),
        other => Err(format!("unknown event kind \"{other}\"")),
    }
}

fn parse_phase(s: &str) -> Result<Phase, String> {
    match s {
        "init_quantize" => Ok(Phase::InitQuantize),
        "compete" => Ok(Phase::Compete),
        "quantize" => Ok(Phase::Quantize),
        "recover" => Ok(Phase::Recover),
        "checkpoint" => Ok(Phase::Checkpoint),
        "done" => Ok(Phase::Done),
        other => Err(format!("unknown phase \"{other}\"")),
    }
}

fn parse_kind(s: &str) -> Result<ExpertKind, String> {
    match s {
        "layer" => Ok(ExpertKind::Layer),
        "weights" => Ok(ExpertKind::Weights),
        "acts" => Ok(ExpertKind::Activations),
        other => Err(format!("unknown expert kind \"{other}\"")),
    }
}

/// Inverse of [`BitWidth`]'s `Display`: `"fp"` or `"<n>b"` — including
/// the zero-bit searcher's `"0b"` pruning rung.
fn parse_bits(s: &str) -> Result<BitWidth, String> {
    if s == "fp" {
        return Ok(BitWidth::FP32);
    }
    let digits = s.strip_suffix('b').ok_or_else(|| bad_bits(s))?;
    let n: u32 = digits.parse().map_err(|_| bad_bits(s))?;
    BitWidth::new_allowing_zero(n).map_err(|_| bad_bits(s))
}

fn bad_bits(s: &str) -> String {
    format!("invalid bit width \"{s}\" (expected \"fp\" or \"<0..=32>b\")")
}

fn as_usize(v: &Json, field: &str) -> Result<usize, String> {
    match v {
        Json::Num(x) if *x >= 0.0 && x.fract().abs() < f64::EPSILON => Ok(*x as usize),
        _ => Err(format!("field \"{field}\" is not a non-negative integer")),
    }
}

/// Renders a replayed event stream as the human-readable run summary
/// the `ccq-report` binary prints: headline accuracy/compression
/// numbers, event counts, and the per-step schedule table. Output is
/// fixed-precision and byte-stable for a fixed stream.
pub fn render_run_summary(events: &[DescentEvent]) -> String {
    let mut baseline: Option<f32> = None;
    let mut init_acc: Option<f32> = None;
    let mut finished: Option<(f32, f64, String)> = None;
    let mut steps: Vec<&StepRecord> = Vec::new();
    let mut probe_rounds = 0usize;
    let mut probes = 0usize;
    let mut recovery_epochs = 0usize;
    let mut rollbacks = 0usize;
    let mut autosaves = 0usize;
    for ev in events {
        match ev {
            DescentEvent::Baseline { accuracy, .. } => baseline = Some(*accuracy),
            DescentEvent::InitQuantize { accuracy, .. } => init_acc = Some(*accuracy),
            DescentEvent::ProbeRound { probes: p, .. } => {
                probe_rounds += 1;
                probes += p.len();
            }
            DescentEvent::RecoveryEpoch { .. } => recovery_epochs += 1,
            DescentEvent::GuardRollback { .. } => rollbacks += 1,
            DescentEvent::StepCompleted { record } => steps.push(record),
            DescentEvent::Autosave { .. } => autosaves += 1,
            DescentEvent::Finished {
                final_accuracy,
                final_compression,
                bit_pattern,
                ..
            } => finished = Some((*final_accuracy, *final_compression, bit_pattern.clone())),
            DescentEvent::PhaseStarted { .. } | DescentEvent::QuantizeDecision { .. } => {}
        }
    }

    let mut out = String::new();
    out.push_str("CCQ run summary\n===============\n");
    let pct = |v: f32| format!("{:.2}%", 100.0 * v);
    match baseline {
        Some(b) => {
            let _ = writeln!(out, "baseline accuracy     {}", pct(b));
        }
        None => out.push_str("baseline accuracy     (not recorded)\n"),
    }
    if let Some(a) = init_acc {
        let _ = writeln!(out, "after ladder-top init {}", pct(a));
    }
    match &finished {
        Some((acc, comp, pattern)) => {
            let _ = writeln!(out, "final accuracy        {}", pct(*acc));
            if let Some(b) = baseline {
                let _ = writeln!(out, "degradation           {:.2} pts", 100.0 * (b - acc));
            }
            let _ = writeln!(out, "final compression     {comp:.2}x");
            let _ = writeln!(out, "bit pattern           {pattern}");
        }
        None => out.push_str("final accuracy        (run did not finish)\n"),
    }
    let _ = writeln!(out, "quantize steps        {}", steps.len());
    let _ = writeln!(
        out,
        "probe rounds          {probe_rounds} ({probes} probes)"
    );
    let _ = writeln!(out, "recovery epochs       {recovery_epochs}");
    let _ = writeln!(out, "guard rollbacks       {rollbacks}");
    let _ = writeln!(out, "autosaves             {autosaves}");

    if !steps.is_empty() {
        out.push('\n');
        let _ = writeln!(
            out,
            "{:>4}  {:>5}  {:<8}  {:<14}  {:>4} {:>4}  {:>8}  {:>10}  {:>6}  {:>11}",
            "step",
            "layer",
            "kind",
            "label",
            "from",
            "to",
            "valley%",
            "recovered%",
            "epochs",
            "compression"
        );
        for r in steps {
            let kind = match r.kind {
                ExpertKind::Layer => "layer",
                ExpertKind::Weights => "weights",
                ExpertKind::Activations => "acts",
            };
            let _ = writeln!(
                out,
                "{:>4}  {:>5}  {:<8}  {:<14}  {:>4} {:>4}  {:>8.2}  {:>10.2}  {:>6}  {:>10.2}x",
                r.step,
                r.layer,
                kind,
                r.label,
                r.from_bits.to_string(),
                r.to_bits.to_string(),
                100.0 * r.accuracy_after_quant,
                100.0 * r.accuracy_after_recovery,
                r.recovery_epochs,
                r.compression
            );
        }
    }
    out
}

/// Renders a per-searcher decision summary from a replayed event
/// stream: how many quantize decisions each searcher made, with the
/// destination-rung distribution of those decisions. Deterministic
/// ordering (searchers and rungs sorted lexically); the empty string
/// when the stream carries no quantize decisions.
pub fn render_searcher_summary(events: &[DescentEvent]) -> String {
    let mut by_searcher: BTreeMap<&str, BTreeMap<String, usize>> = BTreeMap::new();
    for ev in events {
        if let DescentEvent::QuantizeDecision {
            searcher, to_bits, ..
        } = ev
        {
            *by_searcher
                .entry(searcher.as_str())
                .or_default()
                .entry(to_bits.to_string())
                .or_insert(0) += 1;
        }
    }
    if by_searcher.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    out.push_str("searcher decisions\n==================\n");
    for (name, rungs) in &by_searcher {
        let total: usize = rungs.values().sum();
        let dist = rungs
            .iter()
            .map(|(to, n)| format!("{to}:{n}"))
            .collect::<Vec<_>>()
            .join(" ");
        let _ = writeln!(out, "{name:<10} {total:>4} decisions  ({dist})");
    }
    out
}

// ---------------------------------------------------------------------
// A minimal JSON reader, the exact inverse of `event::event_json`.
// ---------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Array(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

/// Deepest array/object nesting [`Json::parse`] accepts. `event_json`
/// emits at most 3 levels (a probe object inside the `probes` array of
/// an event object); the cap turns a hostile `[[[[…` line into a typed
/// error instead of a stack overflow.
const MAX_DEPTH: usize = 32;

impl Json {
    /// Parses one JSON value off the front of `s`, returning the rest.
    fn parse(s: &str) -> Result<(Json, &str), String> {
        Self::parse_nested(s, 0)
    }

    /// [`Json::parse`] for a value inside `depth` enclosing containers.
    fn parse_nested(s: &str, depth: usize) -> Result<(Json, &str), String> {
        let s = s.trim_start();
        if s.starts_with(['[', '{']) && depth >= MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        let first = s.chars().next().ok_or("unexpected end of input")?;
        match first {
            'n' => s
                .strip_prefix("null")
                .map(|r| (Json::Null, r))
                .ok_or_else(|| "bad literal".into()),
            't' => s
                .strip_prefix("true")
                .map(|r| (Json::Bool(true), r))
                .ok_or_else(|| "bad literal".into()),
            'f' => s
                .strip_prefix("false")
                .map(|r| (Json::Bool(false), r))
                .ok_or_else(|| "bad literal".into()),
            '"' => Self::parse_string(s),
            '[' => {
                let mut rest = trim_expect(s, '[')?;
                let mut items = Vec::new();
                if let Some(r) = rest.trim_start().strip_prefix(']') {
                    return Ok((Json::Array(items), r));
                }
                loop {
                    let (v, r) = Self::parse_nested(rest, depth + 1)?;
                    items.push(v);
                    let r = r.trim_start();
                    if let Some(r) = r.strip_prefix(',') {
                        rest = r;
                    } else if let Some(r) = r.strip_prefix(']') {
                        return Ok((Json::Array(items), r));
                    } else {
                        return Err("expected ',' or ']' in array".into());
                    }
                }
            }
            '{' => {
                let mut rest = trim_expect(s, '{')?;
                let mut map = BTreeMap::new();
                if let Some(r) = rest.trim_start().strip_prefix('}') {
                    return Ok((Json::Object(map), r));
                }
                loop {
                    let (key, r) = Self::parse_string(rest.trim_start())?;
                    let Json::Str(key) = key else {
                        return Err("object key must be a string".into());
                    };
                    let r = r
                        .trim_start()
                        .strip_prefix(':')
                        .ok_or("expected ':' after object key")?;
                    let (v, r) = Self::parse_nested(r, depth + 1)?;
                    map.insert(key, v);
                    let r = r.trim_start();
                    if let Some(r) = r.strip_prefix(',') {
                        rest = r;
                    } else if let Some(r) = r.strip_prefix('}') {
                        return Ok((Json::Object(map), r));
                    } else {
                        return Err("expected ',' or '}' in object".into());
                    }
                }
            }
            c if c == '-' || c.is_ascii_digit() => {
                let end = s
                    .char_indices()
                    .find(|(_, c)| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
                    .map(|(i, _)| i)
                    .unwrap_or(s.len());
                let (num, rest) = s.split_at(end);
                let x: f64 = num.parse().map_err(|_| format!("bad number \"{num}\""))?;
                Ok((Json::Num(x), rest))
            }
            c => Err(format!("unexpected character '{c}'")),
        }
    }

    fn parse_string(s: &str) -> Result<(Json, &str), String> {
        let body = s.strip_prefix('"').ok_or("expected string")?;
        let mut out = String::new();
        let mut chars = body.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => return Ok((Json::Str(out), &body[i + 1..])),
                '\\' => match chars.next().map(|(_, e)| e) {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = chars
                                .next()
                                .and_then(|(_, h)| h.to_digit(16))
                                .ok_or("bad \\u escape")?;
                            code = code * 16 + d;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err("bad escape sequence".into()),
                },
                c => out.push(c),
            }
        }
        Err("unterminated string".into())
    }

    fn field(&self, key: &str) -> Result<&Json, String> {
        match self {
            Json::Object(m) => m.get(key).ok_or_else(|| format!("missing field \"{key}\"")),
            _ => Err(format!("expected object with field \"{key}\"")),
        }
    }

    fn str_field(&self, key: &str) -> Result<&str, String> {
        match self.field(key)? {
            Json::Str(s) => Ok(s),
            _ => Err(format!("field \"{key}\" is not a string")),
        }
    }

    fn usize_field(&self, key: &str) -> Result<usize, String> {
        as_usize(self.field(key)?, key)
    }

    /// Float field; a JSON `null` (the serialization of a non-finite
    /// float) decodes to NaN.
    fn f64_field(&self, key: &str) -> Result<f64, String> {
        match self.field(key)? {
            Json::Num(x) => Ok(*x),
            Json::Null => Ok(f64::NAN),
            _ => Err(format!("field \"{key}\" is not a number")),
        }
    }

    fn f32_field(&self, key: &str) -> Result<f32, String> {
        self.f64_field(key).map(|x| x as f32)
    }

    fn array_field(&self, key: &str) -> Result<&[Json], String> {
        match self.field(key)? {
            Json::Array(v) => Ok(v),
            _ => Err(format!("field \"{key}\" is not an array")),
        }
    }

    fn f32_array_field(&self, key: &str) -> Result<Vec<f32>, String> {
        self.array_field(key)?
            .iter()
            .map(|v| match v {
                Json::Num(x) => Ok(*x as f32),
                Json::Null => Ok(f32::NAN),
                _ => Err(format!("field \"{key}\" holds a non-number")),
            })
            .collect()
    }
}

fn trim_expect(s: &str, c: char) -> Result<&str, String> {
    s.strip_prefix(c).ok_or_else(|| format!("expected '{c}'"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::event_json;

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
            DescentEvent::ProbeRound {
                step: 1,
                round: 0,
                probes: vec![ProbeRecord {
                    round: 0,
                    layer: 2,
                    kind: ExpertKind::Layer,
                    val_loss: f32::NAN,
                }],
                pi: vec![1.0, 0.587_342_1],
            },
            DescentEvent::QuantizeDecision {
                step: 1,
                epoch: 3,
                layer: 2,
                kind: ExpertKind::Layer,
                label: "fc,2 \"odd\"\n".into(),
                from_bits: BitWidth::of(8),
                to_bits: BitWidth::of(4),
                probabilities: vec![0.25, 0.75],
                valley_accuracy: 0.701_2,
                lr: 0.02,
                searcher: "hedge".into(),
            },
            DescentEvent::GuardRollback {
                step: 1,
                attempt: 1,
                discarded_trace_points: 3,
                quarantined_slot: Some(4),
            },
            DescentEvent::Finished {
                baseline_accuracy: 0.95,
                final_accuracy: 0.92,
                final_compression: 7.84,
                bit_pattern: "8b-4b".into(),
            },
        ]
    }

    #[test]
    fn parse_is_the_exact_inverse_of_event_json() {
        let events = sample_events();
        let jsonl: String = events
            .iter()
            .map(|e| {
                let mut l = event_json(e);
                l.push('\n');
                l
            })
            .collect();
        let parsed = parse_events(&jsonl).expect("round trip");
        assert_eq!(parsed.len(), events.len());
        for (a, b) in events.iter().zip(&parsed) {
            // NaN != NaN, so compare through the serialized form.
            assert_eq!(event_json(a), event_json(b));
        }
    }

    #[test]
    fn parse_reports_the_failing_line() {
        let err = parse_events("{\"event\":\"baseline\",\"accuracy\":1,\"lr\":1}\nnot json\n")
            .expect_err("bad line");
        assert_eq!(err.line, 2);
    }

    #[test]
    fn unknown_event_kinds_are_rejected() {
        let err = parse_events("{\"event\":\"warp_drive\"}\n").expect_err("unknown kind");
        assert!(err.message.contains("warp_drive"));
    }

    #[test]
    fn lenient_parse_drops_only_a_torn_final_line() {
        // Compare streams by their canonical JSON (NaN-carrying events
        // are not reflexively equal under PartialEq).
        let canon = |evs: &[DescentEvent]| evs.iter().map(event_json).collect::<Vec<_>>();
        let events = sample_events();
        let jsonl: String = events.iter().map(|e| event_json(e) + "\n").collect();

        // A clean log parses with no tail.
        let clean = parse_events_lenient(&jsonl).expect("clean log");
        assert_eq!(canon(&clean.events), canon(&events));
        assert!(clean.truncated_tail.is_none());

        // Tear the final line mid-record: the prefix survives, the tail
        // is reported, and the strict parser rejects the same bytes.
        let torn = &jsonl[..jsonl.len() - 7];
        let parsed = parse_events_lenient(torn).expect("torn tail tolerated");
        assert_eq!(canon(&parsed.events), canon(&events[..events.len() - 1]));
        let tail = parsed.truncated_tail.expect("tail reported");
        assert_eq!(tail.line, events.len());
        assert!(tail.bytes > 0);
        assert!(parse_events(torn).is_err(), "strict parser must reject");

        // A malformed line *before* the end is corruption, not
        // truncation: both parsers reject it at the same line.
        let mut lines: Vec<&str> = jsonl.lines().collect();
        lines[1] = "{\"event\": \"basel";
        let corrupt = lines.join("\n");
        let err = parse_events_lenient(&corrupt).expect_err("mid-log corruption");
        assert_eq!(err.line, 2);
        assert_eq!(parse_events(&corrupt).expect_err("strict").line, 2);
    }

    #[test]
    fn summary_counts_match_the_stream() {
        let s = render_run_summary(&sample_events());
        assert!(s.contains("baseline accuracy     95.31%"));
        assert!(s.contains("probe rounds          1 (1 probes)"));
        assert!(s.contains("guard rollbacks       1"));
        assert!(s.contains("final compression     7.84x"));
    }

    #[test]
    fn bit_widths_round_trip_fp_and_sized() {
        assert_eq!(parse_bits("fp").expect("fp"), BitWidth::FP32);
        assert_eq!(parse_bits("4b").expect("4b"), BitWidth::of(4));
        // The zero-bit searcher's pruning rung is a legal stored width.
        assert_eq!(parse_bits("0b").expect("0b"), BitWidth::ZERO);
        assert!(parse_bits("33b").is_err());
        assert!(parse_bits("4").is_err());
    }

    #[test]
    fn legacy_quantize_lines_without_searcher_parse_as_hedge() {
        let line = "{\"event\":\"quantize\",\"step\":1,\"epoch\":3,\"layer\":2,\
                    \"kind\":\"layer\",\"label\":\"fc2\",\"from_bits\":\"8b\",\
                    \"to_bits\":\"4b\",\"valley_accuracy\":0.7,\"lr\":0.02,\
                    \"probabilities\":[0.25,0.75]}";
        let ev = parse_event_line(line).expect("legacy line");
        let DescentEvent::QuantizeDecision { searcher, .. } = ev else {
            panic!("expected a quantize decision");
        };
        assert_eq!(searcher, "hedge");
    }

    #[test]
    fn searcher_summary_groups_decisions_deterministically() {
        let mut events = sample_events();
        if let DescentEvent::QuantizeDecision { searcher, .. } = &mut events[3] {
            *searcher = "releq".into();
        }
        events.push(events[3].clone());
        if let DescentEvent::QuantizeDecision {
            searcher, to_bits, ..
        } = &mut events[6]
        {
            *searcher = "zero-bit".into();
            *to_bits = BitWidth::ZERO;
        }
        let s = render_searcher_summary(&events);
        assert!(s.starts_with("searcher decisions\n"), "{s}");
        assert!(s.contains("releq"), "{s}");
        assert!(s.contains("zero-bit"), "{s}");
        assert!(s.contains("0b:1"), "{s}");
        assert_eq!(s, render_searcher_summary(&events), "byte-stable");
        assert_eq!(render_searcher_summary(&[]), "");
    }

    #[test]
    fn probe_cache_stats_round_trip_through_the_sidecar() {
        let mut stats = crate::ProbeCacheStats {
            hits: 34,
            misses: 2,
            segments_run: 100,
            segments_total: 180,
            depth_hist: BTreeMap::new(),
        };
        stats.depth_hist.insert(0, 2);
        stats.depth_hist.insert(3, 20);
        stats.depth_hist.insert(7, 14);
        let json = render_probe_cache_stats(&stats);
        let back = parse_probe_cache_stats(&json).expect("round trip");
        assert_eq!(back, stats);
        // Render is deterministic (byte-stable for goldens and diffs).
        assert_eq!(json, render_probe_cache_stats(&back));
        // Malformed sidecars are rejected, not misread.
        assert!(parse_probe_cache_stats("{\"hits\": -1}").is_err());
        // Histogram counts go through the same non-negative-integer
        // check as the top-level counts.
        for bad in ["-5.7", "-1", "0.5", "null", "\"3\""] {
            let hostile = json.replace("\"3\": 20", &format!("\"3\": {bad}"));
            assert_ne!(hostile, json);
            let err = parse_probe_cache_stats(&hostile).expect_err(bad);
            assert!(err.message.contains("depth_hist[\"3\"]"), "{err}");
        }
        assert!(parse_probe_cache_stats("{}").is_err());
        assert!(parse_probe_cache_stats(&format!("{json} trailing")).is_err());
    }

    #[test]
    fn deep_nesting_is_a_typed_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        let err = parse_events(&deep).expect_err("deep nesting");
        assert_eq!(err.line, 1);
        assert!(err.message.contains("nesting"), "{err}");
        assert!(parse_events_lenient(&format!("{deep}\n{{}}\n")).is_err());
        assert!(parse_probe_cache_stats(&"{\"a\": ".repeat(100_000)).is_err());
        // Nesting as deep as the emitter writes still parses.
        let line = event_json(&sample_events()[2]);
        assert_eq!(parse_events(&line).expect("probe round").len(), 1);
    }
}
