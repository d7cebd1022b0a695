//! The `btrd` accept loop: routing, admission control, caching, teardown.
//!
//! One OS thread per connection, one request per connection
//! (`Connection: close`), socket read/write timeouts for clean teardown of
//! stalled peers, and two independent brakes on resource use:
//!
//! * **Admission control** — at most `max_concurrent` analyses in flight;
//!   excess requests get an immediate 503 with `Retry-After`, never a hang.
//! * **Per-connection memory budget** — uploads stream through the chunked
//!   decoder under a byte cap (`max_upload_bytes`, enforced before reading),
//!   a chunk bound (`chunk_records`) and a distinct-branch cap
//!   (`max_static_branches`). Every request, `/classify` and `/sweep` alike,
//!   holds one chunk plus bounded tables regardless of upload size.
//!
//! Successful analyses are cached content-addressed — see [`crate::cache`] —
//! and replayed for clients that present the upload's digest.

use crate::analysis::{self, Budgets};
use crate::cache::{CacheKey, ResponseCache};
use crate::digest::DigestReader;
use crate::error::ServeError;
use crate::flight::{FlightOutcome, FlightTable};
use crate::http::{LimitedReader, Request, Response};
use crate::metrics::{Metrics, MetricsSnapshot};
use btr_core::distribution::Metric;
use btr_sim::config::PredictorFamily;
use btr_wire::{json, MapBuilder, Value, Wire};
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use stealpool::WorkStealingPool;

/// Everything tunable about a `btrd` instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Worker threads for per-request post-processing fan-out, and the
    /// width of each `/sweep`'s engine: its history slots split into this
    /// many groups (at most one per slot), replayed by the request's thread
    /// and `analysis_threads - 1` scoped helpers. With `max_concurrent`
    /// admitted requests, at most `max_concurrent × (analysis_threads - 1)`
    /// helpers are live; 1 runs every sweep on the request's thread alone.
    pub analysis_threads: usize,
    /// Analyses admitted concurrently; excess requests are 503ed.
    pub max_concurrent: usize,
    /// Ceiling on a single upload's declared byte size.
    pub max_upload_bytes: u64,
    /// Records per decoded chunk (the per-connection streaming buffer).
    pub chunk_records: usize,
    /// Ceiling on distinct static conditional branches per upload.
    pub max_static_branches: usize,
    /// Socket read/write timeout; `Duration::ZERO` disables timeouts.
    pub request_timeout: Duration,
    /// Entries in the content-addressed response cache (0 disables).
    pub cache_entries: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            analysis_threads: 2,
            max_concurrent: 4,
            max_upload_bytes: 256 << 20,
            chunk_records: 16 * 1024,
            max_static_branches: 1 << 20,
            request_timeout: Duration::from_secs(10),
            cache_entries: 64,
        }
    }
}

/// State shared by the accept loop, every connection thread and any handles.
#[derive(Debug)]
struct Shared {
    config: ServerConfig,
    metrics: Metrics,
    cache: ResponseCache,
    flights: FlightTable,
    pool: WorkStealingPool,
    active: AtomicUsize,
    connections: AtomicUsize,
    shutdown: AtomicBool,
    addr: SocketAddr,
}

/// A bound-but-not-yet-running server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// A cloneable handle for shutting a running server down and reading its
/// telemetry from another thread.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A point-in-time copy of the serving counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Asks the accept loop to exit, poking it with one throwaway
    /// connection so a blocked `accept` wakes up.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // The poke is best-effort: if the listener is already gone the loop
        // has exited and there is nothing to wake.
        let _ = TcpStream::connect(self.shared.addr);
    }
}

impl Server {
    /// Binds the listener without starting to serve.
    ///
    /// # Errors
    ///
    /// Fails with [`io::ErrorKind::InvalidInput`] if `analysis_threads`,
    /// `max_concurrent` or `chunk_records` is zero, and otherwise if the
    /// address cannot be bound.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        if config.analysis_threads == 0 || config.max_concurrent == 0 || config.chunk_records == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "thread, concurrency and chunk bounds must be nonzero",
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let pool = WorkStealingPool::new(config.analysis_threads);
        let cache = ResponseCache::new(config.cache_entries);
        let shared = Arc::new(Shared {
            config,
            metrics: Metrics::new(),
            cache,
            flights: FlightTable::new(),
            pool,
            active: AtomicUsize::new(0),
            connections: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            addr,
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A handle for shutdown and telemetry.
    fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Binds and serves on a background thread, returning the handle and the
    /// join handle. The server exits when [`ServerHandle::shutdown`] is
    /// called.
    ///
    /// # Errors
    ///
    /// Fails if binding or thread spawning fails.
    pub fn spawn(
        config: ServerConfig,
    ) -> io::Result<(ServerHandle, std::thread::JoinHandle<io::Result<()>>)> {
        let server = Server::bind(config)?;
        let handle = server.handle();
        let join = std::thread::Builder::new()
            .name("btrd-accept".into())
            .spawn(move || server.run())?;
        Ok((handle, join))
    }

    /// Runs the accept loop until [`ServerHandle::shutdown`].
    ///
    /// # Errors
    ///
    /// Returns the first fatal listener error; per-connection failures are
    /// absorbed.
    pub fn run(self) -> io::Result<()> {
        // Beyond this many live connection threads, new connections are
        // turned away with an unconditional 503 before any parsing: the
        // admission gate bounds *analyses*, this bounds *threads*.
        let max_connections = self.shared.config.max_concurrent * 4 + 4;
        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(conn) => conn,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if self.shared.shutdown.load(Ordering::SeqCst) {
                return Ok(());
            }
            let shared = Arc::clone(&self.shared);
            if shared.connections.load(Ordering::SeqCst) >= max_connections {
                overloaded_close(stream, &shared);
                continue;
            }
            shared.connections.fetch_add(1, Ordering::SeqCst);
            let spawned = std::thread::Builder::new()
                .name("btrd-conn".into())
                .spawn(move || {
                    // Released on unwind too: a panicking connection thread
                    // must not leak its slot.
                    let _slot = DecrementOnDrop(&shared.connections);
                    handle_connection(stream, &shared);
                });
            if let Err(_e) = spawned {
                // Thread exhaustion: undo the count; the stream drops closed.
                self.shared.connections.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
}

/// Rejects a connection that arrived past the thread cap: one raw 503,
/// no parsing, no thread.
fn overloaded_close(mut stream: TcpStream, shared: &Shared) {
    let timer = shared.metrics.begin_request();
    let err = ServeError::Busy {
        active: shared.active.load(Ordering::SeqCst),
    };
    let resp = error_response(&err);
    shared.metrics.finish_request(timer, resp.status);
    let _ = resp.write_to(&mut stream);
}

/// Serves one connection: parse, route, respond, close.
fn handle_connection(stream: TcpStream, shared: &Shared) {
    let timeout = shared.config.request_timeout;
    if !timeout.is_zero() {
        let _ = stream.set_read_timeout(Some(timeout));
        let _ = stream.set_write_timeout(Some(timeout));
    }
    let timer = shared.metrics.begin_request();
    let mut reader = BufReader::new(stream);
    let reply = match Request::parse(&mut reader) {
        Ok(request) => match route(&request, &mut reader, shared) {
            Ok(reply) => reply,
            Err(e) => Reply::Fresh(error_response(&e)),
        },
        Err(e) => Reply::Fresh(error_response(&e)),
    };
    // Counted before the write, so `/metrics` never lags a reply.
    shared.metrics.finish_request(timer, reply.status());
    let _ = reply.write_to(reader.get_mut());
    let _ = reader.get_mut().shutdown(std::net::Shutdown::Both);
}

/// One reply: rendered for this request, or a cached response shared with
/// the cache and stamped with its `X-Btr-Cache` marker as it is written.
enum Reply {
    Fresh(Response),
    Cached(Arc<Response>, &'static str),
}

impl Reply {
    fn status(&self) -> u16 {
        match self {
            Reply::Fresh(response) => response.status,
            Reply::Cached(response, _) => response.status,
        }
    }

    fn write_to(&self, w: &mut TcpStream) -> io::Result<()> {
        match self {
            Reply::Fresh(response) => response.write_to(w),
            Reply::Cached(response, marker) => {
                response.write_with_header(w, Some(("X-Btr-Cache", marker)))
            }
        }
    }
}

/// Renders a [`ServeError`] as its JSON error document.
fn error_response(err: &ServeError) -> Response {
    let body = json::to_string(&analysis::error_body(err))
        .unwrap_or_else(|_| format!("{{\"error\":\"{}\"}}", err.code()));
    let mut resp = Response::json(err.status(), body);
    if matches!(err, ServeError::Busy { .. }) {
        resp = resp.with_header("Retry-After", "1");
    }
    resp
}

/// Dispatches a parsed request to its endpoint.
fn route(
    request: &Request,
    body: &mut BufReader<TcpStream>,
    shared: &Shared,
) -> Result<Reply, ServeError> {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Ok(Reply::Fresh(encode(
            MapBuilder::new().field("ok", true).build(),
            wants_btrw(request),
            200,
        ))),
        ("GET", "/metrics") => Ok(Reply::Fresh(encode(
            shared.metrics.snapshot().to_value(),
            wants_btrw(request),
            200,
        ))),
        ("POST", "/classify") | ("POST", "/sweep") => analyze(request, body, shared),
        (_, "/healthz" | "/metrics" | "/classify" | "/sweep") => {
            Err(ServeError::MethodNotAllowed(request.method.clone()))
        }
        (_, path) => Err(ServeError::NotFound(path.to_string())),
    }
}

/// Whether the client asked for `BTRW` instead of JSON.
fn wants_btrw(request: &Request) -> bool {
    request
        .header("accept")
        .is_some_and(|accept| accept.contains("application/x-btrw"))
}

/// Encodes a response document per the negotiated format.
fn encode(value: Value, btrw: bool, status: u16) -> Response {
    if btrw {
        Response::btrw(status, value.to_btrw())
    } else {
        match value.to_json() {
            Ok(body) => Response::json(status, body),
            // Unreachable for the documents we build (no non-finite floats
            // survive `Value::opt_f64`), but never panic on a response path.
            Err(e) => error_response(&ServeError::Io(io::Error::other(e.to_string()))),
        }
    }
}

/// The parsed parameters of a `/sweep` request.
struct SweepParams {
    family: PredictorFamily,
    metric: Metric,
    histories: Vec<u32>,
}

/// The shared upload path behind `/classify` ([`analysis::run_classify`])
/// and `/sweep` ([`analysis::run_sweep`]): cache probe, admission, one
/// streamed decoding pass, body drain, cache fill.
fn analyze(
    request: &Request,
    body: &mut BufReader<TcpStream>,
    shared: &Shared,
) -> Result<Reply, ServeError> {
    let btrw = wants_btrw(request);
    let format = analysis::BodyFormat::from_content_type(request.header("content-type"))?;
    let scheme = analysis::parse_scheme(request.query_param("scheme"))?;
    let sweep = match request.path.as_str() {
        "/classify" => None,
        _ => {
            let family = analysis::parse_family(request.query_param("family"))?;
            Some(SweepParams {
                family,
                metric: analysis::parse_metric(request.query_param("metric"))?,
                histories: analysis::parse_histories(request.query_param("histories"), family)?,
            })
        }
    };
    // The canonical parameter string doubles as the cache-key params: it
    // pins everything that shapes the response bytes, including encoding.
    let accept = if btrw { "btrw" } else { "json" };
    let params = match &sweep {
        None => format!(
            "/classify?scheme={}&accept={accept}",
            analysis::scheme_param(scheme),
        ),
        Some(sweep) => format!(
            "/sweep?family={}&histories={}&metric={}&scheme={}&accept={accept}",
            sweep.family.label().to_ascii_lowercase(),
            sweep
                .histories
                .iter()
                .map(u32::to_string)
                .collect::<Vec<String>>()
                .join(","),
            sweep.metric.label().to_ascii_lowercase(),
            analysis::scheme_param(scheme),
        ),
    };

    // Digest fast path: a client that already knows its upload's digest is
    // answered from the cache without the body ever being read. Safe because
    // entries are only inserted under server-computed digests.
    let mut flight = None;
    if let Some(client_digest) = request.header("x-btr-digest") {
        let key = CacheKey {
            digest: client_digest.to_ascii_lowercase(),
            params: params.clone(),
        };
        if let Some(cached) = shared.cache.get(&key) {
            shared.metrics.cache_hit();
            return Ok(Reply::Cached(cached, "hit"));
        }
        // Single-flight: concurrent uploads of the same digest+params
        // coalesce onto one computation. Followers block here — before
        // admission, so they never consume an analysis slot — and are
        // answered from the leader's cache fill.
        match shared.flights.join(&key, &shared.cache) {
            FlightOutcome::Served(cached) => {
                shared.metrics.cache_hit();
                shared.metrics.coalesced_hit();
                return Ok(Reply::Cached(cached, "coalesced"));
            }
            FlightOutcome::Leader(guard) => flight = Some(guard),
        }
    }
    // Held until this request lands (cache filled or error returned), so
    // followers wait instead of duplicating the analysis.
    let _flight = flight;

    // Admission control: never queue, never hang — reject over capacity.
    let active = shared.active.fetch_add(1, Ordering::SeqCst);
    let _slot = DecrementOnDrop(&shared.active);
    if active >= shared.config.max_concurrent {
        return Err(ServeError::Busy { active });
    }
    let _gauge = shared.metrics.analysis_guard();

    let declared = request.content_length()?;
    if declared > shared.config.max_upload_bytes {
        return Err(ServeError::PayloadTooLarge {
            declared,
            limit: shared.config.max_upload_bytes,
        });
    }
    let budgets = Budgets {
        chunk_records: shared.config.chunk_records,
        max_static_branches: shared.config.max_static_branches,
    };
    let mut upload = DigestReader::new(LimitedReader::new(body, declared));
    let outcome = match &sweep {
        None => analysis::run_classify(&mut upload, format, scheme, budgets),
        Some(sweep) => analysis::run_sweep(
            &mut upload,
            format,
            scheme,
            sweep.metric,
            sweep.family,
            &sweep.histories,
            budgets,
            &shared.pool,
        ),
    };
    // Drain the unconsumed tail once, whatever the decode did, so the digest
    // covers the whole body. A body that stalls (408) or ends short (400)
    // fails here, ahead of the decode outcome: never a cached success.
    let drained = io::copy(&mut upload, &mut io::sink());
    shared.metrics.add_bytes_streamed(upload.bytes_read());
    drained?;
    let digest = upload.digest().hex();
    let outcome = outcome?;
    if sweep.is_some() {
        shared.metrics.batched_lane();
    }
    shared.metrics.add_records_decoded(outcome.records);
    shared.metrics.cache_miss();

    // The cached copy carries the digest but not the hit/store marker; each
    // reply stamps its own `X-Btr-Cache`.
    let base = encode(outcome.value, btrw, 200).with_header("X-Btr-Digest", digest.clone());
    shared.cache.insert(CacheKey { digest, params }, &base);
    Ok(Reply::Fresh(base.with_header("X-Btr-Cache", "store")))
}

/// Decrements an atomic counter when dropped (error paths included).
struct DecrementOnDrop<'a>(&'a AtomicUsize);

impl Drop for DecrementOnDrop<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_internally_consistent() {
        let config = ServerConfig::default();
        assert!(config.max_concurrent >= 1);
        assert!(config.chunk_records >= 1);
        assert!(config.max_upload_bytes > 0);
        assert!(!config.request_timeout.is_zero());
    }

    #[test]
    fn bind_rejects_every_zero_bound() {
        let zeroed: [fn(&mut ServerConfig); 3] = [
            |c| c.analysis_threads = 0,
            |c| c.max_concurrent = 0,
            |c| c.chunk_records = 0,
        ];
        for zero in zeroed {
            let mut config = ServerConfig::default();
            zero(&mut config);
            let err = Server::bind(config.clone()).expect_err("zero bound must be rejected");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{config:?}");
        }
    }

    #[test]
    fn bind_on_an_ephemeral_port_reports_the_real_address() {
        let server = Server::bind(ServerConfig::default()).expect("ephemeral bind succeeds");
        let addr = server.local_addr();
        assert_ne!(addr.port(), 0);
        assert_eq!(server.handle().addr(), addr);
    }
}
