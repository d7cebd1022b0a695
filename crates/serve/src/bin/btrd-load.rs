//! `btrd-load` — the smoke client for `btrd`.
//!
//! ```text
//! btrd-load --addr HOST:PORT [--upload-limit BYTES] [--records N]
//!           [--timeout-ms N]
//! ```
//!
//! Drives the full acceptance scenario suite against a running daemon —
//! success paths, cache replay, both wire codecs, every typed failure class,
//! and a concurrent burst — and exits nonzero on the first divergence.
//! Throughput and latency under `/classify` load are measured by the
//! end-to-end benchmark (`e2ebench`), which also checks every reply against
//! an in-process oracle.

use btr_serve::client::{send, ClientRequest, ClientResponse};
use btr_trace::io::binary;
use btr_trace::{BranchAddr, BranchKind, BranchRecord, Outcome, Trace, TraceMetadata};
use btr_wire::{Value, Wire};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

/// Requests in the smoke suite's concurrent burst.
const BURST: usize = 4;

fn main() {
    let mut options = Options::default();
    if let Err(reason) = options.apply_args(std::env::args().skip(1)) {
        eprintln!("btrd-load: {reason}");
        eprintln!(
            "usage: btrd-load --addr HOST:PORT [--upload-limit BYTES] [--records N] \
             [--timeout-ms N]"
        );
        std::process::exit(2);
    }
    if let Err(reason) = run_smoke(&options) {
        eprintln!("btrd-load: FAIL: {reason}");
        std::process::exit(1);
    }
}

/// Parsed command line.
struct Options {
    addr: String,
    upload_limit: u64,
    records: usize,
    timeout: Duration,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            addr: String::new(),
            upload_limit: 0,
            records: 20_000,
            timeout: Duration::from_secs(30),
        }
    }
}

impl Options {
    fn apply_args(&mut self, mut args: impl Iterator<Item = String>) -> Result<(), String> {
        while let Some(flag) = args.next() {
            let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--addr" => self.addr = value("--addr")?,
                "--upload-limit" => self.upload_limit = parse(&flag, &value("--upload-limit")?)?,
                "--records" => self.records = parse(&flag, &value("--records")?)?,
                "--timeout-ms" => {
                    self.timeout = Duration::from_millis(parse(&flag, &value("--timeout-ms")?)?);
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        if self.addr.is_empty() {
            return Err("--addr HOST:PORT is required".into());
        }
        if self.records == 0 {
            return Err("--records must be nonzero".into());
        }
        Ok(())
    }
}

fn parse<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{flag} wants an unsigned integer, got {raw:?}"))
}

// ---------------------------------------------------------------------------
// Deterministic upload material
// ---------------------------------------------------------------------------

/// A deterministic synthetic trace: a few hundred static branches cycling
/// through distinct taken/transition behaviours so every classification
/// class is populated, encoded once and replayed byte-identically.
fn synthetic_trace(records: usize) -> Trace {
    let mut out = Vec::with_capacity(records);
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..records {
        // xorshift keeps the stream deterministic without wall-clock or RNG.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let site = (i % 211) as u64;
        let addr = BranchAddr::new(0x40_0000 + site * 16);
        let record = match site % 5 {
            // Strongly-biased taken, mostly-not-taken, alternating,
            // transition-heavy and noisy sites, in rotation.
            0 => BranchRecord::conditional(addr, Outcome::from_bool(true)),
            1 => BranchRecord::conditional(addr, Outcome::from_bool(i % 17 == 0)),
            2 => BranchRecord::conditional(addr, Outcome::from_bool(i % 2 == 0)),
            3 => BranchRecord::conditional(addr, Outcome::from_bool((i / 3) % 2 == 0)),
            _ if site % 23 == 4 => {
                BranchRecord::new(addr, BranchKind::Call, Outcome::from_bool(true))
                    .with_target(BranchAddr::new(0x50_0000 + site))
            }
            _ => BranchRecord::conditional(addr, Outcome::from_bool(state.is_multiple_of(3))),
        };
        out.push(record);
    }
    let meta = TraceMetadata::named("btrd-load")
        .with_input_set("synthetic")
        .with_seed(0xB7D);
    Trace::from_records(meta, out)
}

/// The trace as BTRT bytes.
fn btrt_bytes(records: usize) -> Result<Vec<u8>, String> {
    let trace = synthetic_trace(records);
    let mut bytes = Vec::new();
    binary::write_trace(&mut bytes, &trace).map_err(|e| format!("encoding BTRT: {e}"))?;
    Ok(bytes)
}

// ---------------------------------------------------------------------------
// Smoke suite
// ---------------------------------------------------------------------------

/// One scenario: a name plus a check that explains its own failure.
fn check(name: &str, outcome: Result<(), String>) -> Result<(), String> {
    match outcome {
        Ok(()) => {
            println!("smoke: PASS {name}");
            Ok(())
        }
        Err(reason) => Err(format!("{name}: {reason}")),
    }
}

/// Asserts a status, quoting the body on divergence.
fn expect_status(resp: &ClientResponse, want: u16) -> Result<(), String> {
    if resp.status == want {
        Ok(())
    } else {
        Err(format!(
            "expected status {want}, got {} with body {}",
            resp.status,
            resp.text()
        ))
    }
}

/// Parses a JSON body into a `Value`.
fn json_body(resp: &ClientResponse) -> Result<Value, String> {
    Value::from_json(&resp.text()).map_err(|e| format!("body is not valid JSON: {e}"))
}

/// A JSON error body must carry the expected kebab-case error code.
fn expect_error_code(resp: &ClientResponse, code: &str) -> Result<(), String> {
    let value = json_body(resp)?;
    match value.get("error").and_then(Value::as_str) {
        Ok(got) if got == code => Ok(()),
        other => Err(format!("expected error code {code:?}, got {other:?}")),
    }
}

fn run_smoke(options: &Options) -> Result<(), String> {
    let addr = options.addr.as_str();
    let timeout = options.timeout;
    let body = btrt_bytes(options.records)?;
    let http = |req: &ClientRequest| -> Result<ClientResponse, String> {
        send(addr, req, timeout).map_err(|e| format!("request failed: {e}"))
    };

    check("healthz answers 200", {
        http(&ClientRequest::get("/healthz")).and_then(|resp| {
            expect_status(&resp, 200)?;
            let value = json_body(&resp)?;
            match value.get("ok").and_then(Value::as_bool) {
                Ok(true) => Ok(()),
                other => Err(format!("expected ok=true, got {other:?}")),
            }
        })
    })?;

    let mut digest = String::new();
    check("classify streams BTRT and answers JSON", {
        http(&ClientRequest::post("/classify", body.clone())).and_then(|resp| {
            expect_status(&resp, 200)?;
            if resp.header("x-btr-cache") != Some("store") {
                return Err(format!("first upload must store: {:?}", resp.headers));
            }
            digest = resp
                .header("x-btr-digest")
                .ok_or("missing X-Btr-Digest header")?
                .to_string();
            let value = json_body(&resp)?;
            for field in ["metadata", "joint", "analysis", "advisor"] {
                if value.get(field).is_err() {
                    return Err(format!("classify document missing {field:?}"));
                }
            }
            match value.get("records").and_then(Value::as_u64) {
                Ok(n) if n == options.records as u64 => Ok(()),
                other => Err(format!(
                    "expected records={}, got {other:?}",
                    options.records
                )),
            }
        })
    })?;

    check("replaying the digest hits the cache without an upload", {
        let req = ClientRequest::post("/classify", Vec::new())
            .with_header("X-Btr-Digest", digest.clone());
        http(&req).and_then(|resp| {
            expect_status(&resp, 200)?;
            if resp.header("x-btr-cache") != Some("hit") {
                return Err(format!("digest replay must hit: {:?}", resp.headers));
            }
            Ok(())
        })
    })?;

    check(
        "re-uploading identical bytes is content-addressed identically",
        {
            http(&ClientRequest::post("/classify", body.clone())).and_then(|resp| {
                expect_status(&resp, 200)?;
                if resp.header("x-btr-digest") != Some(digest.as_str()) {
                    return Err(format!(
                        "identical upload must share the digest {digest}: {:?}",
                        resp.headers
                    ));
                }
                Ok(())
            })
        },
    )?;

    check("sweep answers the history curve as JSON", {
        let req = ClientRequest::post("/sweep?family=pas&histories=0,2,4", body.clone());
        http(&req).and_then(|resp| {
            expect_status(&resp, 200)?;
            let value = json_body(&resp)?;
            match value.get("histories").and_then(Value::as_list) {
                Ok(h) if h.len() == 3 => {}
                other => return Err(format!("expected 3 histories, got {other:?}")),
            }
            if value.get("class_history").is_err() {
                return Err("sweep document missing class_history".into());
            }
            Ok(())
        })
    })?;

    check("sweep negotiates BTRW via Accept", {
        let req = ClientRequest::post("/sweep?family=gas&histories=0,1", body.clone())
            .with_header("Accept", "application/x-btrw");
        http(&req).and_then(|resp| {
            expect_status(&resp, 200)?;
            let value =
                Value::from_btrw(&resp.body).map_err(|e| format!("body is not valid BTRW: {e}"))?;
            match value.get("family").and_then(Value::as_str) {
                Ok("GAs") => Ok(()),
                other => Err(format!("expected family GAs, got {other:?}")),
            }
        })
    })?;

    check("text uploads classify too", {
        let text = "# btrd-load text upload\nC 400000 T\nC 400010 N\nC 400000 N\n".repeat(64);
        let req = ClientRequest::post("/classify", text.into_bytes())
            .with_header("Content-Type", "text/plain");
        http(&req).and_then(|resp| expect_status(&resp, 200))
    })?;

    if options.upload_limit > 0 {
        check("oversized declared uploads are refused with 413", {
            // The well-formed client always derives Content-Length from the
            // body, so drive the head by hand for this one.
            raw_request(
                addr,
                &format!(
                    "POST /classify HTTP/1.1\r\nHost: btrd\r\nContent-Length: {}\r\n\
                     Connection: close\r\n\r\n",
                    options.upload_limit + 1
                ),
                timeout,
            )
            .and_then(|resp| {
                expect_status(&resp, 413)?;
                expect_error_code(&resp, "payload-too-large")
            })
        })?;
    }

    check("truncated BTRT surfaces a typed 422, not a hang", {
        let mut cut = body.clone();
        cut.truncate(cut.len() - 3);
        http(&ClientRequest::post("/classify", cut)).and_then(|resp| {
            expect_status(&resp, 422)?;
            expect_error_code(&resp, "unprocessable-trace")
        })
    })?;

    check("garbage bytes surface a typed 422", {
        http(&ClientRequest::post(
            "/classify",
            b"not a trace at all".to_vec(),
        ))
        .and_then(|resp| {
            expect_status(&resp, 422)?;
            expect_error_code(&resp, "unprocessable-trace")
        })
    })?;

    check("bad query parameters are a 400", {
        let req = ClientRequest::post("/sweep?family=zas", body.clone());
        http(&req).and_then(|resp| {
            expect_status(&resp, 400)?;
            expect_error_code(&resp, "bad-request")
        })
    })?;

    check("a malformed request head is a 400", {
        raw_request(addr, "TOTAL JUNK\r\n\r\n", timeout).and_then(|resp| expect_status(&resp, 400))
    })?;

    check("unknown paths are 404, wrong methods 405", {
        http(&ClientRequest::get("/no-such-endpoint")).and_then(|resp| {
            expect_status(&resp, 404)?;
            http(&ClientRequest::get("/classify")).and_then(|resp| expect_status(&resp, 405))
        })
    })?;

    check(
        "a concurrent burst answers every request (200 or clean 503)",
        {
            let failures: Vec<String> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..BURST)
                    .map(|i| {
                        let body = &body;
                        scope.spawn(move || -> Result<(), String> {
                            // Distinct histories defeat the cache so the burst
                            // actually exercises concurrent analyses.
                            let target = format!("/sweep?family=pas&histories=0,{}", 1 + i % 8);
                            let resp =
                                send(addr, &ClientRequest::post(&target, body.clone()), timeout)
                                    .map_err(|e| format!("burst request failed: {e}"))?;
                            match resp.status {
                                200 => Ok(()),
                                503 => expect_error_code(&resp, "busy"),
                                other => Err(format!("burst got unexpected status {other}")),
                            }
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .filter_map(|h| match h.join() {
                        Ok(Ok(())) => None,
                        Ok(Err(reason)) => Some(reason),
                        Err(_) => Some("burst worker panicked".into()),
                    })
                    .collect()
            });
            if failures.is_empty() {
                Ok(())
            } else {
                Err(failures.join("; "))
            }
        },
    )?;

    check("metrics decode as a wire document and saw this suite", {
        http(&ClientRequest::get("/metrics")).and_then(|resp| {
            expect_status(&resp, 200)?;
            let snapshot = btr_serve::metrics::MetricsSnapshot::from_json(&resp.text())
                .map_err(|e| format!("metrics did not decode: {e}"))?;
            if snapshot.requests == 0 {
                return Err("metrics report zero requests after a full suite".into());
            }
            if snapshot.cache_hits == 0 {
                return Err("the digest replay must register a cache hit".into());
            }
            if snapshot.responses_4xx == 0 {
                return Err("the failure scenarios must show up as 4xx".into());
            }
            Ok(())
        })
    })?;

    println!("smoke: all scenarios passed");
    Ok(())
}

/// Writes a raw request head (no body) and reads whatever comes back — for
/// scenarios the well-formed client cannot produce.
fn raw_request(addr: &str, head: &str, timeout: Duration) -> Result<ClientResponse, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    if !timeout.is_zero() {
        stream
            .set_read_timeout(Some(timeout))
            .and_then(|()| stream.set_write_timeout(Some(timeout)))
            .map_err(|e| format!("socket timeout: {e}"))?;
    }
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("clone stream: {e}"))?;
    let write_result = writer
        .write_all(head.as_bytes())
        .and_then(|()| writer.flush());
    let mut reader = std::io::BufReader::new(stream);
    let parsed = read_raw_response(&mut reader);
    match (parsed, write_result) {
        (Ok(resp), _) => Ok(resp),
        (Err(e), _) => Err(format!("read response: {e}")),
    }
}

/// Status-line-and-body parse for `raw_request` (reuses the client's rules).
fn read_raw_response<R: std::io::BufRead>(r: &mut R) -> std::io::Result<ClientResponse> {
    let mut all = Vec::new();
    r.read_to_end(&mut all)?;
    btr_serve::client::parse_response(&all)
}
