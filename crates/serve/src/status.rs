//! Per-job status sidecar: a tiny text record (`ccq-job-status v1`)
//! persisted atomically next to the `.job` file on every supervisor
//! transition, so `ccq-serve status` and post-mortems can tell *why* a
//! job sits where it sits — attempt count, last error, and whether the
//! current run resumed from an autosave.

use crate::error::{io_err, Result, ServeError};
use ccq_nn::durable::{write_atomic, Rotate};
use std::fmt;
use std::fs;
use std::path::Path;

const HEADER: &str = "ccq-job-status v1";

/// Lifecycle phase recorded in the status file. Mirrors the spool
/// directory the job sits in (the directory is authoritative; the
/// status file adds attempt/error detail).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Waiting for a worker.
    Pending,
    /// Being executed (or orphaned mid-execution by a crash).
    Running,
    /// Finished successfully.
    Done,
    /// Permanent, non-retryable failure.
    Failed,
    /// Diverged or exhausted retries.
    Quarantined,
}

impl JobPhase {
    fn name(self) -> &'static str {
        match self {
            JobPhase::Pending => "pending",
            JobPhase::Running => "running",
            JobPhase::Done => "done",
            JobPhase::Failed => "failed",
            JobPhase::Quarantined => "quarantined",
        }
    }

    fn parse(s: &str) -> Result<JobPhase> {
        Ok(match s {
            "pending" => JobPhase::Pending,
            "running" => JobPhase::Running,
            "done" => JobPhase::Done,
            "failed" => JobPhase::Failed,
            "quarantined" => JobPhase::Quarantined,
            other => return Err(ServeError::Spec(format!("unknown job phase {other:?}"))),
        })
    }
}

impl fmt::Display for JobPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The persisted status record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatus {
    /// Current lifecycle phase.
    pub phase: JobPhase,
    /// 1-based attempt counter; incremented on every (re)start of the
    /// job's engine, including restart-recovery resumes.
    pub attempt: usize,
    /// Whether the latest attempt resumed from an autosaved `RunState`
    /// (as opposed to starting from pre-trained init weights).
    pub resumed: bool,
    /// Last error message, flattened to one line; present for
    /// failed/quarantined jobs and for retries in flight.
    pub error: Option<String>,
}

impl JobStatus {
    /// Fresh status for a newly enqueued job.
    pub fn pending() -> JobStatus {
        JobStatus {
            phase: JobPhase::Pending,
            attempt: 0,
            resumed: false,
            error: None,
        }
    }

    /// Renders the canonical text form.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{HEADER}\nphase = {}\nattempt = {}\nresumed = {}\n",
            self.phase, self.attempt, self.resumed
        );
        if let Some(e) = &self.error {
            // One record per line; newlines inside errors would corrupt
            // the format.
            let flat: String = e
                .chars()
                .map(|c| if c == '\n' || c == '\r' { ' ' } else { c })
                .collect();
            out.push_str(&format!("error = {flat}\n"));
        }
        out
    }

    /// Parses a status file rendered by [`JobStatus::render`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Spec`] on a bad header, unknown key, or
    /// malformed value.
    pub fn parse(text: &str) -> Result<JobStatus> {
        let mut lines = text.lines();
        match lines.next() {
            Some(h) if h.trim() == HEADER => {}
            other => {
                return Err(ServeError::Spec(format!(
                    "expected header \"{HEADER}\", found {other:?}"
                )))
            }
        }
        let mut status = JobStatus::pending();
        let mut saw_phase = false;
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let Some((k, v)) = line.split_once('=') else {
                return Err(ServeError::Spec(format!(
                    "status line {line:?}: expected \"key = value\""
                )));
            };
            let (k, v) = (k.trim(), v.trim());
            match k {
                "phase" => {
                    status.phase = JobPhase::parse(v)?;
                    saw_phase = true;
                }
                "attempt" => {
                    status.attempt = v.parse().map_err(|_| {
                        ServeError::Spec(format!("status attempt {v:?} is not an integer"))
                    })?;
                }
                "resumed" => {
                    status.resumed = match v {
                        "true" => true,
                        "false" => false,
                        _ => {
                            return Err(ServeError::Spec(format!(
                                "status resumed {v:?} is not a bool"
                            )))
                        }
                    };
                }
                "error" => status.error = Some(v.to_string()),
                other => return Err(ServeError::Spec(format!("unknown status key {other:?}"))),
            }
        }
        if !saw_phase {
            return Err(ServeError::Spec("status is missing \"phase\"".into()));
        }
        Ok(status)
    }

    /// Persists atomically (tmp + fsync + rename + dir fsync).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] on a write failure.
    pub fn save(&self, path: &Path) -> Result<()> {
        Ok(write_atomic(
            path,
            self.render().as_bytes(),
            Rotate::Replace,
        )?)
    }

    /// Loads a status file; a missing file reads as [`JobStatus::pending`]
    /// (jobs enqueued before their first claim have no sidecar yet).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] on an unreadable file or
    /// [`ServeError::Spec`] on a malformed one.
    pub fn load_or_default(path: &Path) -> Result<JobStatus> {
        match fs::read_to_string(path) {
            Ok(text) => JobStatus::parse(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(JobStatus::pending()),
            Err(e) => Err(io_err("read", path, e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_round_trips_with_and_without_error() {
        let plain = JobStatus {
            phase: JobPhase::Running,
            attempt: 2,
            resumed: true,
            error: None,
        };
        assert_eq!(JobStatus::parse(&plain.render()).expect("parse"), plain);
        let with_err = JobStatus {
            phase: JobPhase::Quarantined,
            attempt: 3,
            resumed: false,
            error: Some("loss diverged at step 4".into()),
        };
        assert_eq!(
            JobStatus::parse(&with_err.render()).expect("parse"),
            with_err
        );
    }

    #[test]
    fn multiline_errors_are_flattened() {
        let s = JobStatus {
            phase: JobPhase::Failed,
            attempt: 1,
            resumed: false,
            error: Some("line one\nline two".into()),
        };
        let back = JobStatus::parse(&s.render()).expect("parse");
        assert_eq!(back.error.as_deref(), Some("line one line two"));
    }

    #[test]
    fn parse_rejects_malformed_status() {
        assert!(JobStatus::parse("nope\n").is_err());
        assert!(
            JobStatus::parse("ccq-job-status v1\nattempt = 1\n").is_err(),
            "missing phase"
        );
        assert!(JobStatus::parse("ccq-job-status v1\nphase = limbo\n").is_err());
        assert!(JobStatus::parse("ccq-job-status v1\nphase = done\nwho = me\n").is_err());
        assert!(JobStatus::parse("ccq-job-status v1\nphase = done\nresumed = maybe\n").is_err());
    }

    #[test]
    fn save_and_load_round_trip_and_missing_file_defaults() {
        let dir = std::env::temp_dir().join(format!("ccq_status_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let p = dir.join("j.status");
        assert_eq!(
            JobStatus::load_or_default(&p).expect("default"),
            JobStatus::pending()
        );
        let s = JobStatus {
            phase: JobPhase::Done,
            attempt: 1,
            resumed: true,
            error: None,
        };
        s.save(&p).expect("save");
        assert_eq!(JobStatus::load_or_default(&p).expect("load"), s);
        std::fs::remove_dir_all(&dir).ok();
    }
}
