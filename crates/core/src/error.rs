//! Typed statement errors.
//!
//! The engine used to report the only failure it knew — an unknown column —
//! as `None`. A cluster tier cannot live on that: a coordinator retrying a
//! shard must distinguish "this query can never succeed" (unknown column)
//! from "this attempt ran out of time" (deadline), and a worker must be able
//! to fail a statement without panicking across the FFI-ish boundary a
//! transport is. Every statement-level failure is therefore a value of
//! [`EngineError`].

use std::fmt;

/// Why a statement failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The requested column does not exist in the engine's table. Retrying
    /// cannot help; a coordinator should fail the query immediately.
    UnknownColumn(String),
    /// The statement's deadline expired before its results were complete.
    /// The statement detached cleanly (private tasks are dropped via their
    /// cancellation token, shared-sweep attachments are purged at the next
    /// chunk boundary); the engine remains fully usable.
    DeadlineExceeded,
    /// A task working for the statement panicked — a private scan task, or
    /// the sweeper of a shared part it was attached to — so its answer is
    /// incomplete. The statement's remaining work is cancelled and a
    /// panicked sweep leaves the registry; the engine remains fully usable.
    TaskPanicked,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownColumn(name) => write!(f, "unknown column {name:?}"),
            EngineError::DeadlineExceeded => write!(f, "statement deadline exceeded"),
            EngineError::TaskPanicked => write!(f, "a statement task panicked"),
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_their_cause() {
        assert_eq!(EngineError::UnknownColumn("v".into()).to_string(), "unknown column \"v\"");
        assert_eq!(EngineError::DeadlineExceeded.to_string(), "statement deadline exceeded");
        assert_eq!(EngineError::TaskPanicked.to_string(), "a statement task panicked");
    }
}
