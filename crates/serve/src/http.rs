//! A deliberately minimal HTTP/1.1 layer over `std::net`.
//!
//! The service speaks a small, fixed dialect — JSON request bodies, JSON
//! responses, `Connection: close` — so a full framework would buy nothing
//! but dependencies. This module follows the vendored-rayon precedent:
//! implement exactly the subset the callers need, and keep the contract
//! (request line + headers + `Content-Length` body; one response per
//! connection) explicit.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Parsed request line and body of one HTTP/1.1 exchange.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-case method (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// Request path without query string (`/jobs/7`).
    pub path: String,
    /// Raw request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The request body parsed as JSON, or a human-readable refusal.
    pub fn json(&self) -> Result<serde::Value, String> {
        if self.body.is_empty() {
            return Ok(serde::Value::Null);
        }
        let text = std::str::from_utf8(&self.body).map_err(|_| "body is not UTF-8".to_string())?;
        serde_json::from_str(text).map_err(|e| format!("body is not JSON: {e}"))
    }
}

/// Header section cap: a request line plus a handful of headers. Anything
/// larger is not a client of this API.
const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Body cap. The largest legitimate body is a full sweep spec with fault
/// plans — kilobytes, not megabytes.
const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// Reads one request off the stream. Returns a human-readable refusal for
/// malformed or oversized requests (the caller answers 400).
///
/// The request line and headers are read through a limit one byte past
/// `MAX_HEADER_BYTES`, so a line that never ends is refused as soon as
/// it crosses the cap instead of growing a buffer until the read timeout.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, String> {
    const TOO_LARGE: &str = "header section too large";
    let mut reader = BufReader::new(stream);
    let mut head = (&mut reader).take(MAX_HEADER_BYTES as u64 + 1);
    let mut line = String::new();
    head.read_line(&mut line)
        .map_err(|e| format!("reading request line: {e}"))?;
    let mut header_bytes = line.len();
    if header_bytes > MAX_HEADER_BYTES {
        return Err(TOO_LARGE.to_string());
    }
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| "empty request line".to_string())?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| "request line has no target".to_string())?;
    // Query strings are accepted and ignored: the API is path-shaped.
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        head.read_line(&mut header)
            .map_err(|e| format!("reading headers: {e}"))?;
        header_bytes += header.len();
        if header_bytes > MAX_HEADER_BYTES {
            return Err(TOO_LARGE.to_string());
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad Content-Length `{}`", value.trim()))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(format!(
            "body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte cap"
        ));
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("reading {content_length}-byte body: {e}"))?;
    Ok(Request { method, path, body })
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Writes one JSON response and flushes. Errors are swallowed: the peer
/// hanging up mid-response is its problem, not the server's. Head and body
/// go out in one write: a second small write would wait for the peer to
/// acknowledge the first (Nagle's algorithm), a round trip on every reply.
pub fn respond(stream: &mut TcpStream, status: u16, body: &serde::Value) {
    let mut json = serde_json::to_string_pretty(body).expect("a value tree always serializes");
    json.push('\n');
    let response = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{json}",
        reason(status),
        json.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

/// The uniform error body: `{"error": "..."}` plus optional extra fields.
pub fn error_body(message: impl Into<String>) -> serde::Value {
    serde_json::json!({ "error": message.into() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn roundtrip(raw: &str) -> Result<Request, String> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_string();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(raw.as_bytes()).unwrap();
            s.flush().unwrap();
            // Half-close so a read_request waiting for more body bytes
            // sees EOF instead of blocking forever.
            s.shutdown(std::net::Shutdown::Write).unwrap();
            s
        });
        let (mut stream, _) = listener.accept().unwrap();
        let request = read_request(&mut stream);
        let _ = writer.join().unwrap();
        request
    }

    #[test]
    fn parses_method_path_and_body() {
        let r =
            roundtrip("POST /runs?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 7\r\n\r\n{\"a\":1}")
                .unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/runs");
        assert_eq!(r.json().unwrap().get("a").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn get_without_body_is_null_json() {
        let r = roundtrip("GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert!(matches!(r.json().unwrap(), serde::Value::Null));
    }

    #[test]
    fn bad_content_length_is_refused() {
        let e = roundtrip("POST /runs HTTP/1.1\r\nContent-Length: nope\r\n\r\n").unwrap_err();
        assert!(e.contains("Content-Length"), "{e}");
    }

    #[test]
    fn header_section_is_capped() {
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_HEADER_BYTES));
        assert_eq!(
            roundtrip(&long_line).unwrap_err(),
            "header section too large"
        );
        let long_header = format!(
            "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(MAX_HEADER_BYTES)
        );
        assert_eq!(
            roundtrip(&long_header).unwrap_err(),
            "header section too large"
        );
        // Exactly at the cap is still a request.
        let line = "GET /healthz HTTP/1.1\r\n";
        let pad = MAX_HEADER_BYTES - line.len() - "X-Pad: \r\n\r\n".len();
        let at_cap = format!("{line}X-Pad: {}\r\n\r\n", "a".repeat(pad));
        assert_eq!(at_cap.len(), MAX_HEADER_BYTES);
        assert_eq!(roundtrip(&at_cap).unwrap().path, "/healthz");
    }

    #[test]
    fn truncated_body_is_refused() {
        let e = roundtrip("POST /runs HTTP/1.1\r\nContent-Length: 50\r\n\r\n{}").unwrap_err();
        assert!(e.contains("50-byte body"), "{e}");
    }
}
