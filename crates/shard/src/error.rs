//! Typed errors for the sharded sweep runner.

use btr_wire::WireError;
use std::fmt;
use std::io;

/// Everything that can go wrong coordinating or executing a sharded sweep.
#[derive(Debug)]
pub enum ShardError {
    /// An I/O operation on the output directory failed.
    Io {
        /// What was being done when the operation failed.
        context: String,
        /// The underlying error.
        source: io::Error,
    },
    /// A wire payload (manifest, partial) failed to decode.
    Wire(WireError),
    /// The sweep specification is not executable.
    InvalidSpec {
        /// Why the specification was rejected.
        reason: String,
    },
    /// The on-disk manifest is missing, torn, or inconsistent.
    BadManifest {
        /// Why the manifest was rejected.
        reason: String,
    },
    /// A worker was asked for a unit id outside the manifest's plan.
    UnknownUnit {
        /// The requested unit.
        unit_id: u32,
        /// Units in the plan.
        total: usize,
    },
    /// A work unit failed (crashes, stragglers, invalid partials) more times
    /// than the retry budget allows.
    RetryBudgetExhausted {
        /// The exhausted unit.
        unit_id: u32,
        /// Attempts consumed, including the final failure.
        attempts: u32,
    },
    /// The coordinator stopped early after reaching its commit quota (used
    /// to simulate coordinator preemption); resume from the manifest to
    /// finish the sweep.
    Interrupted {
        /// Units with a valid checkpoint so far.
        completed: usize,
        /// Total units in the sweep.
        total: usize,
    },
    /// A worker process could not be spawned.
    WorkerSpawn {
        /// The unit whose worker failed to start.
        unit_id: u32,
        /// The underlying error.
        source: io::Error,
    },
}

impl ShardError {
    /// Wraps an I/O error with what was being attempted.
    pub fn io(context: impl Into<String>, source: io::Error) -> Self {
        ShardError::Io {
            context: context.into(),
            source,
        }
    }

    /// Builds an [`ShardError::InvalidSpec`].
    pub fn invalid_spec(reason: impl Into<String>) -> Self {
        ShardError::InvalidSpec {
            reason: reason.into(),
        }
    }

    /// Builds a [`ShardError::BadManifest`].
    pub fn bad_manifest(reason: impl Into<String>) -> Self {
        ShardError::BadManifest {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Io { context, source } => write!(f, "{context}: {source}"),
            ShardError::Wire(e) => write!(f, "wire decode failed: {e}"),
            ShardError::InvalidSpec { reason } => write!(f, "invalid sweep spec: {reason}"),
            ShardError::BadManifest { reason } => write!(f, "bad manifest: {reason}"),
            ShardError::UnknownUnit { unit_id, total } => {
                write!(f, "unit {unit_id} is outside the sweep's {total} units")
            }
            ShardError::RetryBudgetExhausted { unit_id, attempts } => write!(
                f,
                "unit {unit_id} failed {attempts} times, exhausting its retry budget"
            ),
            ShardError::Interrupted { completed, total } => write!(
                f,
                "interrupted after {completed}/{total} units committed (resume to finish)"
            ),
            ShardError::WorkerSpawn { unit_id, source } => {
                write!(f, "could not spawn worker for unit {unit_id}: {source}")
            }
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardError::Io { source, .. } | ShardError::WorkerSpawn { source, .. } => Some(source),
            ShardError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for ShardError {
    fn from(e: WireError) -> Self {
        ShardError::Wire(e)
    }
}

/// Shorthand result type for shard operations.
pub type Result<T> = std::result::Result<T, ShardError>;
