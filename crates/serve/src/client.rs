//! A minimal blocking HTTP/1.1 client, sized to `btrd`'s dialect.
//!
//! One request per connection, `Connection: close`, bodies read to EOF under
//! `Content-Length` when present. Shared by the benches, the e2e tests and
//! the end-to-end benchmark so every consumer speaks to the daemon through
//! the same code path.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A response as the client saw it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Header `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// The first value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// A request to send: method, target, optional headers and body.
#[derive(Debug, Clone, Default)]
pub struct ClientRequest {
    /// Request method (`GET`, `POST`, …).
    pub method: String,
    /// Request target, path plus optional query (`/sweep?family=gas`).
    pub target: String,
    /// Extra headers beyond `Host`, `Content-Length` and `Connection`.
    pub headers: Vec<(String, String)>,
    /// Body bytes (empty for body-less methods).
    pub body: Vec<u8>,
}

impl ClientRequest {
    /// A body-less GET.
    pub fn get(target: &str) -> Self {
        ClientRequest {
            method: "GET".into(),
            target: target.into(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// A POST carrying `body`.
    pub fn post(target: &str, body: Vec<u8>) -> Self {
        ClientRequest {
            method: "POST".into(),
            target: target.into(),
            headers: Vec::new(),
            body,
        }
    }

    /// Appends a header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }
}

/// Sends one request and reads the full response. `timeout` bounds connect,
/// read and write individually; `Duration::ZERO` disables it.
///
/// # Errors
///
/// Fails on connection or protocol errors; non-2xx statuses are *not*
/// errors (the caller inspects `status`).
pub fn send(addr: &str, request: &ClientRequest, timeout: Duration) -> io::Result<ClientResponse> {
    let stream = if timeout.is_zero() {
        TcpStream::connect(addr)?
    } else {
        let parsed: std::net::SocketAddr = addr
            .parse()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, format!("{addr}: {e}")))?;
        TcpStream::connect_timeout(&parsed, timeout)?
    };
    if !timeout.is_zero() {
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
    }
    let mut writer = stream.try_clone()?;
    // The server may legally answer before the body is fully written (e.g.
    // an immediate 503 or 413): a failed send must not mask that response.
    let head = format!(
        "{} {} HTTP/1.1\r\nHost: btrd\r\nContent-Length: {}\r\n{}Connection: close\r\n\r\n",
        request.method,
        request.target,
        request.body.len(),
        request
            .headers
            .iter()
            .map(|(n, v)| format!("{n}: {v}\r\n"))
            .collect::<String>(),
    );
    let send_result = writer
        .write_all(head.as_bytes())
        .and_then(|()| writer.write_all(&request.body))
        .and_then(|()| writer.flush());
    let response = read_response(&mut BufReader::new(stream));
    match (response, send_result) {
        (Ok(resp), _) => Ok(resp),
        (Err(read_err), Err(_write_err)) => Err(read_err),
        (Err(read_err), Ok(())) => Err(read_err),
    }
}

/// Parses a fully-buffered response — for callers that drove the socket by
/// hand (e.g. malformed-request probes) but still want the client's rules.
///
/// # Errors
///
/// Fails when the bytes are not a parseable HTTP/1.1 response.
pub fn parse_response(bytes: &[u8]) -> io::Result<ClientResponse> {
    read_response(&mut BufReader::new(bytes))
}

/// Parses a response: status line, headers, body per `Content-Length`.
fn read_response<R: BufRead>(r: &mut R) -> io::Result<ClientResponse> {
    let mut status_line = String::new();
    r.read_line(&mut status_line)?;
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed status line {status_line:?}"),
            )
        })?;
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        r.read_line(&mut line)?;
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    let declared = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse::<u64>().ok());
    let mut body = Vec::new();
    match declared {
        Some(n) => {
            body.resize(usize::try_from(n).unwrap_or(usize::MAX), 0);
            r.read_exact(&mut body)?;
        }
        None => {
            r.read_to_end(&mut body)?;
        }
    }
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_parse_status_headers_and_exact_length_bodies() {
        let raw = b"HTTP/1.1 422 Unprocessable Content\r\n\
                    Content-Type: application/json\r\n\
                    X-Btr-Digest: 00ff\r\n\
                    Content-Length: 9\r\n\r\n{\"e\":\"x\"}"
            .to_vec();
        let resp =
            read_response(&mut BufReader::new(raw.as_slice())).expect("well-formed response");
        assert_eq!(resp.status, 422);
        assert_eq!(resp.header("x-btr-digest"), Some("00ff"));
        assert_eq!(resp.text(), "{\"e\":\"x\"}");
    }

    #[test]
    fn garbage_status_lines_are_io_errors_not_panics() {
        let raw = b"NOT HTTP AT ALL\r\n\r\n".to_vec();
        assert!(read_response(&mut BufReader::new(raw.as_slice())).is_err());
        let raw = b"\r\n".to_vec();
        assert!(read_response(&mut BufReader::new(raw.as_slice())).is_err());
    }
}
