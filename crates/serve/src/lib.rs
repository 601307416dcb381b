//! `ccq-serve`: a crash-safe quantization job daemon.
//!
//! Jobs are text [`JobSpec`] files in a spool directory
//! (`pending/ → running/ → done|failed|quarantined/`), drained by a
//! [supervised worker pool](daemon) that runs each job as a CCQ
//! [`ccq::DescentEngine`] with autosave armed, streaming every
//! [`ccq::DescentEvent`] to a durable per-job JSONL log.
//!
//! The robustness contract, end to end:
//!
//! - **Atomic state.** Every spool mutation — spec, status, run state,
//!   report, packed artifact — goes through the one durable writer,
//!   [`ccq_nn::durable::write_atomic`] (tmp + fsync + rename +
//!   parent-dir fsync); state
//!   transitions are renames with the `.job` file moved last, so the
//!   spool is never torn.
//! - **Supervised execution.** Typed errors are classified by the
//!   [`supervisor`]: transient I/O retries with deterministic
//!   exponential backoff, divergence and exhausted budgets escalate to
//!   `quarantined/`, malformed specs fail permanently.
//! - **Graceful shutdown.** An in-process flag or the spool's `stop`
//!   sentinel drains workers at the next autosave boundary, parking
//!   jobs in `running/`.
//! - **Byte-identical restart.** After *any* crash — `SIGKILL`
//!   mid-step, torn event log, lost state generation — the next daemon
//!   rescans `running/`, picks the newest autosave the durable log can
//!   vouch for, and resumes bit-for-bit: final run state, event log,
//!   and report match an uninterrupted run byte for byte (the
//!   [`worker`] module docs spell out why).
//!
//! The `ccq-serve` binary wraps this as `init` / `enqueue` / `run` /
//! `status` / `stop` subcommands; see `DESIGN.md` §14 for the
//! architecture discussion.

pub mod daemon;
pub mod error;
pub mod spec;
pub mod spool;
pub mod status;
pub mod supervisor;
pub mod worker;

pub use daemon::{run_daemon, DaemonConfig, DaemonReport};
pub use error::{Result, ServeError};
pub use spec::JobSpec;
pub use spool::{Dir, Spool};
pub use status::{JobPhase, JobStatus};
pub use supervisor::{classify, Decision, ErrorClass, RetryPolicy, Supervisor};
pub use worker::{
    execute_job, execute_job_with_control, scan_recovery_points, AttemptOutcome, AttemptResult,
    RecoveryPoint, StitchSink,
};
