//! # btr-serve
//!
//! `btrd`, the trace-classification daemon: the serving layer that turns the
//! BTR analysis stack into a network service, plus the `btrd-load` driver
//! that exercises it.
//!
//! The daemon speaks a dependency-free slice of HTTP/1.1 over
//! `std::net::TcpListener`. Uploaded traces (`BTRT` binary or text) are
//! decoded once, chunk by chunk — an upload's bytes are never buffered
//! whole — into the classification profile, the fused multi-history sweep
//! engine and the §5.4 hybrid advisor, and responses render as JSON or
//! `BTRW` through the [`btr_wire::Wire`] data model, negotiated per request
//! by `Accept`.
//!
//! Production posture:
//!
//! * **Content-addressed caching** ([`cache`]) — responses are keyed by
//!   (body digest × canonical parameters) and replayed for identical
//!   uploads; clients that present `X-Btr-Digest` skip the upload entirely.
//! * **Memory budgets** ([`analysis`]) — every request streams: it holds
//!   one decode chunk plus capped interning, statistics and per-slot
//!   tables, whatever the upload's length.
//! * **Admission control** ([`server`]) — over-capacity requests get an
//!   immediate 503, stalled peers are torn down by socket timeouts.
//! * **Telemetry** ([`metrics`]) — `/metrics` serves the counters through
//!   the same JSON writer as every other artifact.
//!
//! Endpoints: `GET /healthz`, `GET /metrics`, `POST /classify`,
//! `POST /sweep`. See the repository README's *Serving* section for wire
//! examples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod cache;
pub mod client;
pub mod digest;
pub mod error;
pub mod flight;
pub mod http;
pub mod metrics;
pub mod server;

pub use error::ServeError;
pub use server::{Server, ServerConfig, ServerHandle};
