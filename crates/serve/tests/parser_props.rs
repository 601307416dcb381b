//! Adversarial-input property suites for the two text parsers the daemon
//! reads from disk: the `ccq-job v1` spec and the `ccq-job-status v1`
//! sidecar. Arbitrary bytes, a valid render with one value swapped for a
//! hostile one, and a valid render cut short must all parse to `Ok` or a
//! typed [`ServeError::Spec`], never a panic. Whatever a parser accepts
//! must re-render to a fixed point.

use ccq::{GuardPolicy, RecoveryMode};
use ccq_serve::{JobPhase, JobSpec, JobStatus, ServeError};
use proptest::prelude::*;

/// Fragments a hand-edited or corrupted file might hold in a value.
const JUNK: &[&str] = &[
    "",
    " ",
    "x",
    ":",
    ",",
    "=",
    "#",
    "-1",
    "+7",
    "0x10",
    "1.5",
    "1e309",
    "nan",
    "-inf",
    "18446744073709551616",
    "mlp:",
    "blobs:1x2",
    "manual:",
    "adaptive:1:2:3",
    "rollback::",
    "default",
    "none",
    "true",
    "\u{e9}",
    "\u{0}",
];

/// A hostile replacement value: a log-uniform integer anywhere in
/// `0..=u64::MAX` (small valid counts and overflowing products alike),
/// or a junk fragment.
fn token() -> impl Strategy<Value = String> {
    (
        proptest::bool::ANY,
        0u32..=64,
        0u64..=u64::MAX,
        0usize..JUNK.len(),
    )
        .prop_map(|(int, bits, raw, junk)| {
            if int {
                raw.checked_shr(64 - bits).unwrap_or(0).to_string()
            } else {
                JUNK[junk].to_string()
            }
        })
}

/// A spec render per variant; odd variants take the other recovery,
/// guard, λ and target branches of the format.
fn spec_text(variant: u64) -> String {
    let mut spec = JobSpec::demo("job-7", variant);
    if variant % 2 == 1 {
        spec.recovery = RecoveryMode::Adaptive {
            tolerance: 0.5,
            max_epochs: 4,
        };
        spec.guard = GuardPolicy::RollbackRetry {
            max_retries: 2,
            lr_factor: 0.5,
        };
        spec.lambda = None;
        spec.target_compression = Some(5.33);
    }
    spec.render()
}

/// A status render per variant, covering every phase, with and without
/// an error line.
fn status_text(variant: u64) -> String {
    let phases = [
        JobPhase::Pending,
        JobPhase::Running,
        JobPhase::Done,
        JobPhase::Failed,
        JobPhase::Quarantined,
    ];
    JobStatus {
        phase: phases[variant as usize % phases.len()],
        attempt: variant as usize,
        resumed: variant % 2 == 1,
        error: (!variant.is_multiple_of(3)).then(|| format!("attempt {variant} failed: x = y")),
    }
    .render()
}

/// `text` with one `key = value` line (picked by `line`, modulo their
/// count) rewritten: `tok` replaces either the whole value or one of its
/// `x`/`,`/`:`-separated fields (picked by `field`).
fn splice(text: &str, line: usize, field: usize, tok: &str) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let kv: Vec<usize> = (0..lines.len())
        .filter(|&i| lines[i].contains(" = "))
        .collect();
    let at = kv[line % kv.len()];
    let (key, value) = lines[at].split_once(" = ").expect("kv line");
    const SEPS: [char; 3] = ['x', ',', ':'];
    let pieces: Vec<&str> = value.split_inclusive(SEPS).collect();
    let pick = field % (pieces.len() + 1);
    let value = if pick == pieces.len() {
        tok.to_string()
    } else {
        let mut v = String::new();
        for (i, p) in pieces.iter().enumerate() {
            if i == pick {
                v.push_str(tok);
                v.extend(p.chars().last().filter(|c| SEPS.contains(c)));
            } else {
                v.push_str(p);
            }
        }
        v
    };
    let mut out = String::new();
    for (i, l) in lines.iter().enumerate() {
        if i == at {
            out.push_str(&format!("{key} = {value}"));
        } else {
            out.push_str(l);
        }
        out.push('\n');
    }
    out
}

/// The first `cut` bytes of `text` (modulo its length + 1), decoded
/// lossily as the daemon's `read_to_string` caller would see them.
fn truncate(text: &str, cut: usize) -> String {
    let bytes = text.as_bytes();
    String::from_utf8_lossy(&bytes[..cut % (bytes.len() + 1)]).into_owned()
}

fn check_spec(text: &str) -> Result<(), TestCaseError> {
    match JobSpec::parse(text) {
        Ok(spec) => {
            let once = spec.render();
            let twice = JobSpec::parse(&once).map(|s| s.render());
            prop_assert!(
                matches!(&twice, Ok(t) if *t == once),
                "accepted spec does not re-render to a fixed point: {text:?} -> {twice:?}"
            );
        }
        Err(ServeError::Spec(_)) => {}
        Err(e) => prop_assert!(false, "untyped spec error {e:?} for {text:?}"),
    }
    Ok(())
}

fn check_status(text: &str) -> Result<(), TestCaseError> {
    match JobStatus::parse(text) {
        Ok(status) => {
            let once = status.render();
            let twice = JobStatus::parse(&once).map(|s| s.render());
            prop_assert!(
                matches!(&twice, Ok(t) if *t == once),
                "accepted status does not re-render to a fixed point: {text:?} -> {twice:?}"
            );
        }
        Err(ServeError::Spec(_)) => {}
        Err(e) => prop_assert!(false, "untyped status error {e:?} for {text:?}"),
    }
    Ok(())
}

#[test]
fn canonical_renders_are_accepted() {
    for variant in 0..6 {
        JobSpec::parse(&spec_text(variant)).expect("spec render parses");
        JobStatus::parse(&status_text(variant)).expect("status render parses");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, bare and behind each parser's valid header.
    #[test]
    fn arbitrary_bytes_parse_to_typed_errors(body in proptest::collection::vec(0u8..=255, 0..512)) {
        let body = String::from_utf8_lossy(&body).into_owned();
        for text in [
            body.clone(),
            format!("ccq-job v1\n{body}"),
            format!("ccq-job-status v1\n{body}"),
        ] {
            check_spec(&text)?;
            check_status(&text)?;
        }
    }

    /// A valid render with one value, or one field of a compound value,
    /// replaced by a log-uniform integer or junk text; each case tries
    /// the replacement on every line in turn.
    #[test]
    fn one_hostile_value_parses_to_typed_errors(
        variant in 0u64..6,
        field in 0usize..8,
        tok in token(),
    ) {
        let spec = spec_text(variant);
        for line in 0..spec.lines().count() {
            check_spec(&splice(&spec, line, field, &tok))?;
        }
        let status = status_text(variant);
        for line in 0..status.lines().count() {
            check_status(&splice(&status, line, field, &tok))?;
        }
    }

    /// A valid render cut at a random byte, as a torn write leaves it.
    #[test]
    fn truncated_renders_parse_to_typed_errors(variant in 0u64..6, cut in 0usize..1024) {
        check_spec(&truncate(&spec_text(variant), cut))?;
        check_status(&truncate(&status_text(variant), cut))?;
    }
}
