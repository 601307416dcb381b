//! Error type for the serving layer.

use ccq::CcqError;
use ccq_nn::durable::DurableError;
use std::fmt;

/// Errors surfaced by the job daemon and its spool/spec layers.
#[derive(Debug)]
pub enum ServeError {
    /// A filesystem operation on the spool failed.
    Io(String),
    /// A job spec or status file failed to parse.
    Spec(String),
    /// A queue-level invariant was violated (duplicate job id, unknown
    /// job, malformed spool layout).
    Queue(String),
    /// The underlying CCQ run failed; carries the typed error so the
    /// supervisor can classify it.
    Run(CcqError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(msg) => write!(f, "spool I/O error: {msg}"),
            ServeError::Spec(msg) => write!(f, "job spec error: {msg}"),
            ServeError::Queue(msg) => write!(f, "queue error: {msg}"),
            ServeError::Run(e) => write!(f, "run error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Run(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CcqError> for ServeError {
    fn from(e: CcqError) -> Self {
        ServeError::Run(e)
    }
}

impl From<DurableError> for ServeError {
    fn from(e: DurableError) -> Self {
        ServeError::Io(e.to_string())
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ServeError>;

/// Wraps an `std::io::Error` with the path it struck.
pub fn io_err(what: &str, path: &std::path::Path, e: std::io::Error) -> ServeError {
    ServeError::Io(format!("{what} {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync_and_chains() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServeError>();
        use std::error::Error;
        let e = ServeError::Run(CcqError::EmptyValidationSet);
        assert!(e.source().is_some());
        assert!(e.to_string().contains("validation"));
    }
}
