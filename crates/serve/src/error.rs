//! The daemon's request-failure taxonomy.
//!
//! Every failure a request can suffer maps to exactly one HTTP status, and
//! every status the server emits is produced through [`ServeError`] — the
//! smoke suite and the e2e tests rely on malformed or hostile input always
//! surfacing as a typed 4xx/5xx response, never as a panic or a silently
//! dropped connection.

use btr_trace::TraceError;
use btr_wire::WireError;
use std::fmt;
use std::io;

/// A request-scoped failure, carrying the HTTP status it renders as.
#[derive(Debug)]
pub enum ServeError {
    /// The request line, headers or parameters could not be understood (400).
    BadRequest(String),
    /// No route matches the request path (404).
    NotFound(String),
    /// The path exists but not under this method (405).
    MethodNotAllowed(String),
    /// The client did not finish sending within the request timeout (408).
    Timeout,
    /// An upload arrived without a `Content-Length` header (411).
    LengthRequired,
    /// The declared upload size exceeds the per-connection budget (413).
    PayloadTooLarge {
        /// Declared body size in bytes.
        declared: u64,
        /// The configured ceiling it exceeded.
        limit: u64,
    },
    /// The trace body was syntactically or semantically undecodable (422).
    UnprocessableTrace(String),
    /// The upload exhausted a per-connection resource budget other than raw
    /// bytes — e.g. distinct static branches, which size the interning
    /// tables (413).
    BudgetExceeded {
        /// The budgeted resource, e.g. `"static branches"`.
        what: &'static str,
        /// The configured ceiling.
        limit: u64,
    },
    /// The request head exceeded the header-size cap (431).
    HeaderTooLarge {
        /// The configured cap in bytes.
        limit: usize,
    },
    /// The admission gate is full; the client should retry later (503).
    Busy {
        /// Analyses in flight when the request was rejected.
        active: usize,
    },
    /// A connection-level I/O failure; no response may be deliverable (500).
    Io(io::Error),
}

impl ServeError {
    /// The HTTP status code this error renders as.
    pub fn status(&self) -> u16 {
        match self {
            ServeError::BadRequest(_) => 400,
            ServeError::NotFound(_) => 404,
            ServeError::MethodNotAllowed(_) => 405,
            ServeError::Timeout => 408,
            ServeError::LengthRequired => 411,
            ServeError::PayloadTooLarge { .. } => 413,
            ServeError::BudgetExceeded { .. } => 413,
            ServeError::UnprocessableTrace(_) => 422,
            ServeError::HeaderTooLarge { .. } => 431,
            ServeError::Busy { .. } => 503,
            ServeError::Io(_) => 500,
        }
    }

    /// A short machine-readable code for the JSON error body.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::BadRequest(_) => "bad-request",
            ServeError::NotFound(_) => "not-found",
            ServeError::MethodNotAllowed(_) => "method-not-allowed",
            ServeError::Timeout => "timeout",
            ServeError::LengthRequired => "length-required",
            ServeError::PayloadTooLarge { .. } => "payload-too-large",
            ServeError::BudgetExceeded { .. } => "budget-exceeded",
            ServeError::UnprocessableTrace(_) => "unprocessable-trace",
            ServeError::HeaderTooLarge { .. } => "header-too-large",
            ServeError::Busy { .. } => "busy",
            ServeError::Io(_) => "io",
        }
    }

    /// Classifies a trace-decode failure: client-caused malformations become
    /// 422s, a static-branch budget breach a 413, transport failures go
    /// through [`ServeError::from_io`].
    fn from_trace(e: TraceError) -> ServeError {
        match e {
            TraceError::Io(io) => ServeError::from_io(io),
            TraceError::StaticBranchBudget { limit } => ServeError::BudgetExceeded {
                what: "static branches",
                limit,
            },
            other => ServeError::UnprocessableTrace(other.to_string()),
        }
    }

    /// Classifies an I/O failure seen while reading the request: a socket
    /// read timeout (408) and a body ending before its declared length (400)
    /// are the client's fault, anything else is transport.
    pub fn from_io(e: io::Error) -> ServeError {
        match e.kind() {
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => ServeError::Timeout,
            io::ErrorKind::UnexpectedEof => ServeError::BadRequest(e.to_string()),
            _ => ServeError::Io(e),
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::BadRequest(reason) => write!(f, "bad request: {reason}"),
            ServeError::NotFound(path) => write!(f, "no route for {path}"),
            ServeError::MethodNotAllowed(method) => {
                write!(f, "method {method} not allowed here")
            }
            ServeError::Timeout => f.write_str("request timed out"),
            ServeError::LengthRequired => f.write_str("uploads require Content-Length"),
            ServeError::PayloadTooLarge { declared, limit } => {
                write!(f, "declared body of {declared} bytes exceeds limit {limit}")
            }
            ServeError::UnprocessableTrace(reason) => {
                write!(f, "trace body undecodable: {reason}")
            }
            ServeError::BudgetExceeded { what, limit } => {
                write!(f, "upload exceeds the {what} budget of {limit}")
            }
            ServeError::HeaderTooLarge { limit } => {
                write!(f, "request head exceeds {limit} bytes")
            }
            ServeError::Busy { active } => {
                write!(f, "server busy ({active} analyses in flight); retry later")
            }
            ServeError::Io(e) => write!(f, "i/o failure: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::from_io(e)
    }
}

impl From<TraceError> for ServeError {
    fn from(e: TraceError) -> Self {
        ServeError::from_trace(e)
    }
}

impl From<WireError> for ServeError {
    fn from(e: WireError) -> Self {
        ServeError::BadRequest(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_maps_to_a_distinct_meaningful_status() {
        let cases: Vec<(ServeError, u16)> = vec![
            (ServeError::BadRequest("x".into()), 400),
            (ServeError::NotFound("/nope".into()), 404),
            (ServeError::MethodNotAllowed("PUT".into()), 405),
            (ServeError::Timeout, 408),
            (
                ServeError::PayloadTooLarge {
                    declared: 2,
                    limit: 1,
                },
                413,
            ),
            (ServeError::LengthRequired, 411),
            (ServeError::UnprocessableTrace("bad magic".into()), 422),
            (ServeError::HeaderTooLarge { limit: 64 }, 431),
            (ServeError::Busy { active: 4 }, 503),
            (ServeError::Io(io::Error::other("down")), 500),
        ];
        for (err, status) in cases {
            assert_eq!(err.status(), status, "{err}");
            assert!(!err.code().is_empty());
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn trace_and_io_failures_classify_by_cause() {
        let timeout = io::Error::new(io::ErrorKind::TimedOut, "slow");
        assert_eq!(ServeError::from_io(timeout).status(), 408);
        let refused = io::Error::new(io::ErrorKind::ConnectionReset, "gone");
        assert_eq!(ServeError::from_io(refused).status(), 500);
        let short = io::Error::new(io::ErrorKind::UnexpectedEof, "body short");
        assert_eq!(ServeError::from_io(short).status(), 400);
        let budget = TraceError::StaticBranchBudget { limit: 16 };
        let budget = ServeError::from_trace(budget);
        assert_eq!((budget.status(), budget.code()), (413, "budget-exceeded"));
        let truncated = TraceError::UnexpectedEof {
            context: "record".into(),
        };
        assert_eq!(ServeError::from_trace(truncated).status(), 422);
        let wrapped = TraceError::Io(io::Error::new(io::ErrorKind::TimedOut, "slow"));
        assert_eq!(ServeError::from_trace(wrapped).status(), 408);
    }
}
