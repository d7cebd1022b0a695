//! A dependency-free slice of HTTP/1.1 — exactly what `btrd` needs.
//!
//! One request per connection (`Connection: close` on every response), a
//! bounded request head, streaming bodies gated by `Content-Length`, and
//! nothing else: no chunked transfer coding, no keep-alive, no pipelining.
//! The parser reads through any `BufRead` so the body bytes that follow the
//! head stay in the same buffered stream and can be handed to the trace
//! decoder without copying or rewinding.

use crate::error::ServeError;
use std::io::{BufRead, Read, Write};

/// Cap on the request head (request line + headers, CRLFs included): enough
/// for any legitimate client, small enough that a hostile one cannot balloon
/// per-connection memory before admission control even runs.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed request head. The body, if any, stays in the stream the head was
/// parsed from and is streamed by the handler under its declared length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request method, uppercased as received (`GET`, `POST`, …).
    pub method: String,
    /// The path component of the request target, without the query string.
    pub path: String,
    /// The raw query string (no leading `?`); empty when absent.
    pub query: String,
    /// Header `(name, value)` pairs; names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
}

impl Request {
    /// Parses one request head from `r`, leaving the stream positioned at
    /// the first body byte.
    ///
    /// # Errors
    ///
    /// Fails with [`ServeError::HeaderTooLarge`] when the head exceeds
    /// 16 KiB, [`ServeError::BadRequest`] on malformed syntax or
    /// on framing `btrd` does not speak (any `Transfer-Encoding`, or more
    /// than one `Content-Length`), and [`ServeError::Timeout`] /
    /// [`ServeError::Io`] on transport failures.
    pub fn parse<R: BufRead>(r: &mut R) -> Result<Request, ServeError> {
        let mut budget = MAX_HEAD_BYTES;
        let request_line = read_crlf_line(r, &mut budget)?;
        if request_line.is_empty() {
            return Err(ServeError::BadRequest("empty request line".into()));
        }
        let mut parts = request_line.split(' ');
        let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(t), Some(v)) if parts.next().is_none() && !m.is_empty() => (m, t, v),
            _ => {
                return Err(ServeError::BadRequest(format!(
                    "malformed request line {request_line:?}"
                )))
            }
        };
        if !method.bytes().all(|b| b.is_ascii_uppercase()) {
            return Err(ServeError::BadRequest(format!(
                "malformed method {method:?}"
            )));
        }
        if version != "HTTP/1.1" && version != "HTTP/1.0" {
            return Err(ServeError::BadRequest(format!(
                "unsupported protocol version {version:?}"
            )));
        }
        if !target.starts_with('/') {
            return Err(ServeError::BadRequest(format!(
                "request target {target:?} is not an absolute path"
            )));
        }
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p.to_string(), q.to_string()),
            None => (target.to_string(), String::new()),
        };
        let mut headers = Vec::new();
        loop {
            let line = read_crlf_line(r, &mut budget)?;
            if line.is_empty() {
                break;
            }
            let (name, value) = line.split_once(':').ok_or_else(|| {
                ServeError::BadRequest(format!("header line {line:?} has no colon"))
            })?;
            if name.is_empty() || name.contains(' ') {
                return Err(ServeError::BadRequest(format!(
                    "malformed header name {name:?}"
                )));
            }
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }
        // A body is framed by one Content-Length and nothing else (RFC 9112
        // §6.3): a transfer coding this parser does not decode, or a second
        // length that may disagree with the first, leaves the body's end
        // ambiguous.
        if headers.iter().any(|(n, _)| n == "transfer-encoding") {
            return Err(ServeError::BadRequest(
                "Transfer-Encoding is not supported; frame the body with Content-Length".into(),
            ));
        }
        if headers
            .iter()
            .filter(|(n, _)| n == "content-length")
            .count()
            > 1
        {
            return Err(ServeError::BadRequest(
                "more than one Content-Length header".into(),
            ));
        }
        Ok(Request {
            method: method.to_string(),
            path,
            query,
            headers,
        })
    }

    /// The first value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The declared body length.
    ///
    /// # Errors
    ///
    /// [`ServeError::LengthRequired`] when absent, [`ServeError::BadRequest`]
    /// when not a decimal `1*DIGIT` that fits a `u64`.
    pub fn content_length(&self) -> Result<u64, ServeError> {
        let raw = self
            .header("content-length")
            .ok_or(ServeError::LengthRequired)?;
        match raw.parse::<u64>() {
            // `parse` alone would also take a leading `+`.
            Ok(n) if raw.bytes().all(|b| b.is_ascii_digit()) => Ok(n),
            _ => Err(ServeError::BadRequest(format!(
                "unparseable Content-Length {raw:?}"
            ))),
        }
    }

    /// The value of one `key=value` pair in the query string, if present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .split('&')
            .filter_map(|pair| pair.split_once('='))
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }
}

/// Reads one CRLF- (or bare-LF-) terminated line, charging the shared head
/// budget. The terminator is consumed and stripped.
fn read_crlf_line<R: BufRead>(r: &mut R, budget: &mut usize) -> Result<String, ServeError> {
    let mut line = Vec::new();
    // `read_until` already retries `ErrorKind::Interrupted` internally.
    let n = r
        .take(*budget as u64 + 1)
        .read_until(b'\n', &mut line)
        .map_err(ServeError::from_io)?;
    if n > *budget {
        return Err(ServeError::HeaderTooLarge {
            limit: MAX_HEAD_BYTES,
        });
    }
    *budget -= n;
    if line.last() != Some(&b'\n') {
        return Err(ServeError::BadRequest(
            "request head ended before the blank line".into(),
        ));
    }
    line.pop();
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line)
        .map_err(|_| ServeError::BadRequest("request head is not valid UTF-8".into()))
}

/// A response ready to serialize: status, extra headers, typed body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` of the body.
    pub content_type: String,
    /// Additional `(name, value)` headers (e.g. `X-Btr-Digest`).
    pub headers: Vec<(String, String)>,
    /// The full response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json".into(),
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A `BTRW` binary response with the given status.
    pub fn btrw(status: u16, body: Vec<u8>) -> Response {
        Response {
            status,
            content_type: "application/x-btrw".into(),
            headers: Vec::new(),
            body,
        }
    }

    /// Appends a header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Serializes the response, always closing the connection afterwards.
    ///
    /// # Errors
    ///
    /// Fails only if the underlying writer fails.
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        self.write_with_header(w, None)
    }

    /// [`Response::write_to`] with `extra` written after the stored headers,
    /// so a cached response shared by many replies is stamped per reply
    /// without being copied.
    pub(crate) fn write_with_header<W: Write>(
        &self,
        w: &mut W,
        extra: Option<(&str, &str)>,
    ) -> std::io::Result<()> {
        write!(
            w,
            "HTTP/1.1 {} {}\r\nConnection: close\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
            self.status,
            status_text(self.status),
            self.content_type,
            self.body.len()
        )?;
        let stored = self.headers.iter().map(|(n, v)| (n.as_str(), v.as_str()));
        for (name, value) in stored.chain(extra) {
            write!(w, "{name}: {value}\r\n")?;
        }
        w.write_all(b"\r\n")?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

/// The canonical reason phrase for the statuses `btrd` emits.
fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Content",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Exposes exactly `limit` bytes of `inner`, then reports EOF: the streaming
/// decoders behind an upload can never read past the declared body. A body
/// that ends sooner is an [`std::io::ErrorKind::UnexpectedEof`] error, never
/// a clean EOF, and a failed read (e.g. a timeout) sticks, so later reads
/// fail at once instead of waiting on the socket again.
#[derive(Debug)]
pub struct LimitedReader<R> {
    inner: R,
    remaining: u64,
    failed: Option<std::io::ErrorKind>,
}

impl<R: Read> LimitedReader<R> {
    /// Caps `inner` at `limit` bytes.
    pub fn new(inner: R, limit: u64) -> Self {
        LimitedReader {
            inner,
            remaining: limit,
            failed: None,
        }
    }

    /// Bytes of the declared body not yet consumed.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }
}

impl<R: Read> Read for LimitedReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if let Some(kind) = self.failed {
            return Err(kind.into());
        }
        if self.remaining == 0 || buf.is_empty() {
            return Ok(0);
        }
        let want = buf
            .len()
            .min(self.remaining.min(usize::MAX as u64) as usize);
        match self.inner.read(&mut buf[..want]) {
            Ok(0) => Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!(
                    "body ended {} bytes short of its Content-Length",
                    self.remaining
                ),
            )),
            Ok(n) => {
                self.remaining -= n as u64;
                Ok(n)
            }
            Err(e) => {
                if e.kind() != std::io::ErrorKind::Interrupted {
                    self.failed = Some(e.kind());
                }
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(text: &str) -> Result<Request, ServeError> {
        Request::parse(&mut BufReader::new(text.as_bytes()))
    }

    #[test]
    fn parses_a_post_with_query_headers_and_leaves_the_body_in_the_stream() {
        let raw = "POST /classify?scheme=paper11&metric=taken HTTP/1.1\r\n\
                   Host: localhost\r\n\
                   Content-Length: 4\r\n\
                   X-Btr-Digest: abcd\r\n\
                   \r\nBODY";
        let mut stream = BufReader::new(raw.as_bytes());
        let req = Request::parse(&mut stream).expect("well-formed head parses");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/classify");
        assert_eq!(req.query_param("scheme"), Some("paper11"));
        assert_eq!(req.query_param("metric"), Some("taken"));
        assert_eq!(req.query_param("absent"), None);
        assert_eq!(req.header("x-btr-digest"), Some("abcd"));
        assert_eq!(req.content_length().expect("length declared"), 4);
        let mut body = String::new();
        stream
            .read_to_string(&mut body)
            .expect("body bytes remain in the stream");
        assert_eq!(body, "BODY");
    }

    #[test]
    fn malformed_heads_are_typed_400s() {
        for raw in [
            "\r\n",
            "GARBAGE\r\n\r\n",
            "GET /x HTTP/2.9\r\n\r\n",
            "GET noslash HTTP/1.1\r\n\r\n",
            "get /x HTTP/1.1\r\n\r\n",
            "GET /x HTTP/1.1 extra\r\n\r\n",
            "GET /x HTTP/1.1\r\nNoColonHere\r\n\r\n",
            "GET /x HTTP/1.1\r\nBad Name: v\r\n\r\n",
            "GET /x HTTP/1.1\r\nTruncated",
            "POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 400\r\n\r\n",
            "POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\n",
            "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            "POST /x HTTP/1.1\r\nContent-Length: 4\r\nTransfer-Encoding: identity\r\n\r\n",
        ] {
            let err = parse(raw).expect_err("malformed head must not parse");
            assert_eq!(err.status(), 400, "{raw:?} -> {err}");
        }
    }

    #[test]
    fn oversized_heads_are_431_not_unbounded_buffering() {
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        while raw.len() <= MAX_HEAD_BYTES {
            raw.push_str("X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        raw.push_str("\r\n");
        let err = parse(&raw).expect_err("oversized head must not parse");
        assert_eq!(err.status(), 431);
    }

    #[test]
    fn missing_and_malformed_content_length_are_distinguished() {
        let req = parse("POST /classify HTTP/1.1\r\n\r\n").expect("head parses");
        assert_eq!(req.content_length().expect_err("no length").status(), 411);
        for raw in ["ten", "+5", "-0", "0x10", "4 4", "18446744073709551616"] {
            let req = parse(&format!(
                "POST /classify HTTP/1.1\r\nContent-Length: {raw}\r\n\r\n"
            ))
            .expect("head parses");
            let err = req.content_length().expect_err("bad length");
            assert_eq!(err.status(), 400, "{raw:?} -> {err}");
        }
    }

    #[test]
    fn responses_serialize_with_close_and_exact_length() {
        let resp = Response::json(200, "{\"ok\":true}".into()).with_header("X-Btr-Digest", "ff");
        let mut out = Vec::new();
        resp.write_to(&mut out)
            .expect("writing to a Vec cannot fail");
        let text = String::from_utf8(out).expect("response head is ASCII");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("X-Btr-Digest: ff\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }

    #[test]
    fn limited_reader_stops_at_the_declared_length() {
        let mut r = LimitedReader::new("0123456789".as_bytes(), 4);
        let mut all = Vec::new();
        r.read_to_end(&mut all).expect("bounded read succeeds");
        assert_eq!(all, b"0123");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn limited_reader_fails_a_body_shorter_than_declared() {
        let mut r = LimitedReader::new("0123".as_bytes(), 10);
        let mut all = Vec::new();
        let err = r.read_to_end(&mut all).expect_err("short body must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        assert!(err.to_string().contains("6 bytes short"), "{err}");
        assert_eq!(all, b"0123");
        let again = r.read(&mut [0u8; 4]).expect_err("still short");
        assert_eq!(again.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn limited_reader_failures_stick() {
        struct Stalled;
        impl Read for Stalled {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::ErrorKind::TimedOut.into())
            }
        }
        let mut r = LimitedReader::new(Stalled, 10);
        for _ in 0..2 {
            let err = r.read(&mut [0u8; 4]).expect_err("stalled body fails");
            assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
        }
        assert_eq!(r.remaining(), 10);
    }
}
