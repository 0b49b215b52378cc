//! A minimal, deterministic HTTP/1.1 surface.
//!
//! The reactor exchanges real request/response bytes — the parser here
//! is what stands between the simulated TCP stream and the typed query
//! layer, and the serializer is what the response digests witness.
//! Scope is deliberately small: `GET` only, path + query string, headers
//! parsed but uninterpreted (the service is stateless), no percent
//! decoding (the query vocabulary is plain ASCII), bodies ignored —
//! whatever follows the head's blank line is never read, not even to
//! validate it. Serialization is byte-deterministic: fixed header order,
//! fixed float formatting upstream, `\r\n` line endings, and one writer
//! (`write_head`) defines the status line and headers for every reply.

use std::io::Write as _;

/// Why a request failed to parse — reported as a 400 body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpError {
    /// The request line was not `METHOD TARGET HTTP/1.x`.
    BadRequestLine,
    /// The method was not `GET`.
    UnsupportedMethod,
    /// A header line had no `:` separator.
    BadHeader,
    /// The head never terminated with an empty line.
    Truncated,
    /// The bytes were not ASCII-clean where the grammar requires it.
    NotAscii,
}

impl HttpError {
    /// Stable label used in 400 bodies and counters.
    pub fn label(self) -> &'static str {
        match self {
            HttpError::BadRequestLine => "bad request line",
            HttpError::UnsupportedMethod => "unsupported method",
            HttpError::BadHeader => "bad header",
            HttpError::Truncated => "truncated head",
            HttpError::NotAscii => "non-ascii head",
        }
    }
}

/// A parsed request head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Path portion of the target, e.g. `/whatif`.
    pub path: String,
    /// Decoded `key=value` pairs from the query string, in order.
    pub query: Vec<(String, String)>,
}

impl HttpRequest {
    /// First value for `key`, if present.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Parse a request head from raw bytes. Only the head — everything up
/// to the first blank line — is validated; the bytes after it are the
/// body and are ignored.
pub fn parse_request(bytes: &[u8]) -> Result<HttpRequest, HttpError> {
    let end = bytes
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or(HttpError::Truncated)?;
    let head = std::str::from_utf8(&bytes[..end]).map_err(|_| HttpError::NotAscii)?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or(HttpError::BadRequestLine)?;
    let mut parts = request_line.split(' ');
    let method = parts.next().ok_or(HttpError::BadRequestLine)?;
    let target = parts.next().ok_or(HttpError::BadRequestLine)?;
    let version = parts.next().ok_or(HttpError::BadRequestLine)?;
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequestLine);
    }
    if method != "GET" {
        return Err(HttpError::UnsupportedMethod);
    }
    for line in lines {
        if !line.is_empty() && !line.contains(':') {
            return Err(HttpError::BadHeader);
        }
    }
    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = query_str
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (kv.to_string(), String::new()),
        })
        .collect();
    Ok(HttpRequest {
        path: path.to_string(),
        query,
    })
}

/// `Content-Type` of a what-if answer and of `/healthz`.
pub(crate) const JSON: &str = "application/json";
/// `Content-Type` of a Cinema frame.
pub(crate) const PNG: &str = "image/png";

/// Append the status line, the headers in their fixed order and the
/// blank line of a response whose body is `body_len` bytes long. The one
/// definition of the wire format: [`HttpResponse::to_bytes`] and the
/// reactor's reply path both write their heads here.
pub(crate) fn write_head(
    out: &mut Vec<u8>,
    status: u16,
    content_type: &str,
    retry_after_s: Option<u32>,
    body_len: usize,
) {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        503 => "Service Unavailable",
        _ => "Unknown",
    };
    // Writing into a `Vec` cannot fail.
    let _ = write!(
        out,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {body_len}\r\n"
    );
    if let Some(s) = retry_after_s {
        let _ = write!(out, "Retry-After: {s}\r\n");
    }
    out.extend_from_slice(b"\r\n");
}

/// A response ready to serialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code (200, 400, 404, 503).
    pub status: u16,
    /// Content type header value.
    pub content_type: &'static str,
    /// `Retry-After` seconds, emitted only on 503.
    pub retry_after_s: Option<u32>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// 200 with a JSON body.
    pub fn ok_json(body: String) -> Self {
        HttpResponse {
            status: 200,
            content_type: JSON,
            retry_after_s: None,
            body: body.into_bytes(),
        }
    }

    /// 200 with a PNG body.
    pub fn ok_png(body: Vec<u8>) -> Self {
        HttpResponse {
            status: 200,
            content_type: PNG,
            retry_after_s: None,
            body,
        }
    }

    /// 400 with the parse/validation error as the body.
    pub fn bad_request(why: &str) -> Self {
        HttpResponse {
            status: 400,
            content_type: "text/plain",
            retry_after_s: None,
            body: format!("bad request: {why}\n").into_bytes(),
        }
    }

    /// 404 with a plain-text body.
    pub fn not_found(what: &str) -> Self {
        HttpResponse {
            status: 404,
            content_type: "text/plain",
            retry_after_s: None,
            body: format!("not found: {what}\n").into_bytes(),
        }
    }

    /// Typed 503: the backpressure response, carrying the shed reason
    /// and a deterministic `Retry-After`.
    pub(crate) fn unavailable(reason: &str, retry_after_s: u32) -> Self {
        HttpResponse {
            status: 503,
            content_type: "text/plain",
            retry_after_s: Some(retry_after_s),
            body: format!("overloaded: {reason}\n").into_bytes(),
        }
    }

    /// Serialize deterministically (fixed header order).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(96 + self.body.len());
        write_head(
            &mut out,
            self.status,
            self.content_type,
            self.retry_after_s,
            self.body.len(),
        );
        out.extend_from_slice(&self.body);
        out
    }
}

/// Build the raw bytes of a GET request — the load generator's emitter.
pub fn format_get(target: &str) -> Vec<u8> {
    format!("GET {target} HTTP/1.1\r\nHost: ivis-serve\r\n\r\n").into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_path_and_query() {
        let raw = format_get("/whatif?spec=100yr&kind=insitu&rate_hours=24&points=33");
        let req = parse_request(&raw).unwrap();
        assert_eq!(req.path, "/whatif");
        assert_eq!(req.param("spec"), Some("100yr"));
        assert_eq!(req.param("rate_hours"), Some("24"));
        assert_eq!(req.param("missing"), None);
    }

    #[test]
    fn rejects_malformed_heads() {
        assert_eq!(
            parse_request(b"BORK\r\n\r\n"),
            Err(HttpError::BadRequestLine)
        );
        assert_eq!(
            parse_request(b"POST /x HTTP/1.1\r\n\r\n"),
            Err(HttpError::UnsupportedMethod)
        );
        assert_eq!(
            parse_request(b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(HttpError::BadHeader)
        );
        assert_eq!(
            parse_request(b"GET /x HTTP/1.1\r\n"),
            Err(HttpError::Truncated)
        );
        assert_eq!(
            parse_request(b"GET /x FTP/1.1\r\n\r\n"),
            Err(HttpError::BadRequestLine)
        );
    }

    #[test]
    fn bytes_after_the_head_are_not_validated() {
        // A well-formed GET followed by a binary body: the module ignores
        // bodies, so what they hold cannot fail the parse.
        let mut raw = format_get("/frame?timestep=16");
        raw.extend_from_slice(&[0xff, 0xfe, 0x00, 0x80]);
        let req = parse_request(&raw).unwrap();
        assert_eq!(req.path, "/frame");
        assert_eq!(req.param("timestep"), Some("16"));
        // The same bytes inside the head still fail it, and a buffer
        // with no blank line has no head to judge.
        assert_eq!(
            parse_request(b"GET /\xff HTTP/1.1\r\n\r\n"),
            Err(HttpError::NotAscii)
        );
        assert_eq!(
            parse_request(b"GET /\xff HTTP/1.1\r\n"),
            Err(HttpError::Truncated)
        );
    }

    /// Any byte half the time, a byte the grammar gives meaning to the
    /// other half, so mutations land on structure as well as on noise.
    fn noise_byte(n: usize) -> u8 {
        const STRUCTURAL: &[u8] = b" \r\n:?&=/.GETHP1a";
        match n {
            0..=255 => n as u8,
            _ => STRUCTURAL[n % STRUCTURAL.len()],
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary bytes — raw, and spliced into a valid request so the
        /// deeper branches are reached — parse or fail typed; they never
        /// panic, and what parses holds only what the head spelled.
        #[test]
        fn parse_request_never_panics(
            noise in prop::collection::vec((0usize..512).prop_map(noise_byte), 0..96),
            at in 0usize..64,
        ) {
            let _ = parse_request(&noise);
            let mut spliced = format_get("/whatif?spec=100yr&rate_hours=24&points=33");
            let at = at.min(spliced.len());
            spliced.splice(at..at, noise.iter().copied());
            if let Ok(req) = parse_request(&spliced) {
                let head = String::from_utf8_lossy(&spliced);
                prop_assert!(head.contains(&req.path));
                for (k, v) in &req.query {
                    prop_assert!(head.contains(k.as_str()) && head.contains(v.as_str()));
                }
            }
        }
    }

    #[test]
    fn responses_serialize_deterministically() {
        let a = HttpResponse::ok_json("{\"x\":1}".to_string()).to_bytes();
        let b = HttpResponse::ok_json("{\"x\":1}".to_string()).to_bytes();
        assert_eq!(a, b);
        let text = String::from_utf8(a).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 7\r\n"));
        assert!(text.ends_with("{\"x\":1}"));
    }

    #[test]
    fn unavailable_carries_retry_after() {
        let text =
            String::from_utf8(HttpResponse::unavailable("queue full", 2).to_bytes()).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 2\r\n"));
        assert!(text.contains("overloaded: queue full"));
    }
}
