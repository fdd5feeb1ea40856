//! A deliberately small HTTP/1.1 layer over `std::io` — message parsing and
//! response writing, nothing else. The server speaks plain HTTP/1.1 with
//! `Content-Length` bodies and keep-alive; chunked transfer encoding is
//! rejected with `501`. Built on std only: the container this repository
//! grows in has no network access, so no HTTP crate can be pulled in.
//!
//! Both parsers are incremental, over an in-memory byte buffer that the
//! caller grows as bytes arrive; they answer "need more bytes" instead of
//! blocking, so one slow peer costs a buffer, not a thread:
//!
//! * [`parse_request_buffer`] — requests, for the event loop;
//! * [`parse_response_buffer`] — responses, for the balancer's forwarders,
//!   the load generator and the test clients.

use sevuldet::Json;
use std::io::Write;

/// Upper bound on the request head (request line + headers). Exceeding it
/// answers `431 Request Header Fields Too Large`.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body. Exceeding it answers `413`.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;
/// Upper bound on a response head read by [`parse_response_buffer`].
pub const MAX_RESPONSE_HEAD_BYTES: usize = 64 * 1024;
/// Upper bound on a response body read by [`parse_response_buffer`].
pub const MAX_RESPONSE_BODY_BYTES: usize = 16 * 1024 * 1024;

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// Path component only (no query parsing; the API takes JSON bodies).
    pub path: String,
    /// Raw header pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup (names are stored lower-cased).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to keep the connection open (HTTP/1.1
    /// default) or to close it.
    pub fn keep_alive(&self) -> bool {
        !self
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// An HTTP response: what a handler answers with (written by the event
/// loop), and what [`parse_response_buffer`] reads back off the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: String,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// Extra headers written after the framing ones (e.g. the shard a
    /// proxied request ran on). The parser leaves this empty.
    pub extra: Vec<(String, String)>,
    /// The parsed response carried `Connection: close`. The event loop
    /// ignores it on responses it writes: it decides closing per connection.
    pub close: bool,
}

impl Response {
    /// A response with no extra headers that keeps the connection open.
    pub fn new(status: u16, content_type: &str, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: content_type.to_string(),
            body: body.into(),
            extra: Vec::new(),
            close: false,
        }
    }

    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response::new(status, "application/json", body)
    }

    /// A JSON `{"error": msg}` response.
    pub fn error(status: u16, msg: &str) -> Response {
        Response::json(
            status,
            Json::obj(vec![("error", Json::str(msg))]).to_string(),
        )
    }
}

/// A protocol-level failure with the status code to answer it with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpError {
    /// Response status to send (400/413/431/501 for requests; 502 for a
    /// response [`parse_response_buffer`] will not frame).
    pub status: u16,
    /// Human-readable detail.
    pub msg: String,
}

impl HttpError {
    fn new(status: u16, msg: impl Into<String>) -> HttpError {
        HttpError {
            status,
            msg: msg.into(),
        }
    }
}

/// Splits `GET /path HTTP/1.1` into method and path, enforcing the version.
fn parse_request_line(request_line: &str) -> Result<(String, String), HttpError> {
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m.to_string(), p.to_string(), v),
        _ => return Err(HttpError::new(400, "malformed request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::new(400, "unsupported HTTP version"));
    }
    Ok((method, path))
}

/// Splits `Name: value` into a lower-cased name and trimmed value.
fn parse_header_line(text: &str) -> Result<(String, String), HttpError> {
    let (name, value) = text
        .split_once(':')
        .ok_or_else(|| HttpError::new(400, "malformed header"))?;
    Ok((name.trim().to_ascii_lowercase(), value.trim().to_string()))
}

/// Validates message framing and returns the declared body length.
///
/// RFC 7230 §3.3.2: multiple message-framing headers with differing values
/// are a request-smuggling vector — `Request::header` returns the first
/// match, so a proxy that honors the *last* would read a different body
/// boundary. Reject conflicts outright; identical repeats collapse.
///
/// # Errors
///
/// `400` for conflicting duplicates or an unparseable `Content-Length`,
/// `501` for chunked transfer encoding, `413` for an oversized body.
pub fn body_length(req: &Request) -> Result<usize, HttpError> {
    reject_conflicting_duplicates(req, "content-length")?;
    reject_conflicting_duplicates(req, "transfer-encoding")?;
    if req
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpError::new(501, "chunked transfer encoding unsupported"));
    }
    let len = match req.header("content-length") {
        None => 0,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpError::new(400, "bad content-length"))?,
    };
    if len > MAX_BODY_BYTES {
        return Err(HttpError::new(413, "request body too large"));
    }
    Ok(len)
}

/// Outcome of one incremental parse attempt over a growing byte buffer.
#[derive(Debug)]
pub enum ParseStatus {
    /// The buffer does not yet hold a complete request; read more bytes and
    /// call again with the grown buffer.
    NeedMore,
    /// One complete request, and how many buffer bytes it consumed (the
    /// caller drains them; any remainder is the start of a pipelined next
    /// request).
    Complete {
        /// The parsed request.
        req: Request,
        /// Bytes of `buf` this request occupied.
        consumed: usize,
    },
}

/// Attempts to parse one complete request from the front of `buf`. Never
/// blocks: an incomplete head or body answers [`ParseStatus::NeedMore`],
/// and timeouts are the caller's (it owns the clock).
///
/// # Errors
///
/// `431` when the head outgrows [`MAX_HEAD_BYTES`] (even before its end is
/// seen, so a slowloris client dribbling header bytes is cut off at the
/// cap), `413` for an oversized declared body, `400`/`501` for malformed or
/// unsupported framing (see [`body_length`]).
pub fn parse_request_buffer(buf: &[u8]) -> Result<ParseStatus, HttpError> {
    let Some(body_start) = find_head_end(buf) else {
        // No blank line yet. A head that can no longer fit the cap is dead
        // regardless of what else arrives.
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::new(431, "request head too large"));
        }
        return Ok(ParseStatus::NeedMore);
    };
    if body_start > MAX_HEAD_BYTES {
        return Err(HttpError::new(431, "request head too large"));
    }
    let head = std::str::from_utf8(&buf[..body_start])
        .map_err(|_| HttpError::new(400, "non-UTF-8 request head"))?;
    let mut lines = head.lines().map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::new(400, "malformed request line"))?;
    let (method, path) = parse_request_line(request_line)?;
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            break; // the blank line ending the head
        }
        headers.push(parse_header_line(line)?);
    }
    let req = Request {
        method,
        path,
        headers,
        body: Vec::new(),
    };
    let len = body_length(&req)?;
    if buf.len() < body_start + len {
        return Ok(ParseStatus::NeedMore);
    }
    let body = buf[body_start..body_start + len].to_vec();
    Ok(ParseStatus::Complete {
        req: Request { body, ..req },
        consumed: body_start + len,
    })
}

/// Attempts to parse one complete response from the front of `buf` — the
/// incremental mirror of [`parse_request_buffer`]. `Ok(None)` means "read
/// more bytes"; `Some((response, consumed))` hands back the status, the
/// content type (`application/json` when absent), the `close` flag and the
/// body, plus how many bytes of `buf` the response occupied. It allocates
/// only the body and the content type.
///
/// # Errors
///
/// A `502` [`HttpError`] for a head past [`MAX_RESPONSE_HEAD_BYTES`] (even
/// before its end is seen), a body past [`MAX_RESPONSE_BODY_BYTES`], a
/// malformed status or header line, an unparseable or conflicting
/// `Content-Length`, or a transfer encoding other than `identity`.
pub fn parse_response_buffer(buf: &[u8]) -> Result<Option<(Response, usize)>, HttpError> {
    let bad = |msg: &str| HttpError::new(502, msg);
    let Some(body_start) = find_head_end(buf) else {
        if buf.len() > MAX_RESPONSE_HEAD_BYTES {
            return Err(bad("response head too large"));
        }
        return Ok(None);
    };
    if body_start > MAX_RESPONSE_HEAD_BYTES {
        return Err(bad("response head too large"));
    }
    let head =
        std::str::from_utf8(&buf[..body_start]).map_err(|_| bad("non-UTF-8 response head"))?;
    let mut lines = head.lines().map(|l| l.strip_suffix('\r').unwrap_or(l));
    let mut status_line = lines.next().unwrap_or_default().split_whitespace();
    let status = match (status_line.next(), status_line.next()) {
        (Some(version), Some(code)) if version.starts_with("HTTP/1.") => code.parse().ok(),
        _ => None,
    }
    .ok_or_else(|| bad("malformed status line"))?;
    let mut content_type = None;
    let mut content_length: Option<usize> = None;
    let mut close = false;
    for line in lines.take_while(|l| !l.is_empty()) {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad("malformed header"))?;
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-type") {
            content_type = Some(value);
        } else if name.eq_ignore_ascii_case("content-length") {
            let len = value.parse().map_err(|_| bad("bad content-length"))?;
            if content_length.is_some_and(|prev| prev != len) {
                return Err(bad("conflicting duplicate content-length"));
            }
            content_length = Some(len);
        } else if name.eq_ignore_ascii_case("transfer-encoding")
            && !value.eq_ignore_ascii_case("identity")
        {
            return Err(bad("chunked transfer encoding unsupported"));
        } else if name.eq_ignore_ascii_case("connection") {
            close |= value.eq_ignore_ascii_case("close");
        }
    }
    let len = content_length.unwrap_or(0);
    if len > MAX_RESPONSE_BODY_BYTES {
        return Err(bad("response body too large"));
    }
    let end = body_start + len;
    if buf.len() < end {
        return Ok(None);
    }
    let response = Response {
        status,
        content_type: content_type.unwrap_or("application/json").to_string(),
        body: buf[body_start..end].to_vec(),
        extra: Vec::new(),
        close,
    };
    Ok(Some((response, end)))
}

/// Index just past the head-terminating blank line (`\r\n\r\n`, with a
/// bare-`\n` fallback), or `None` while the head is still incomplete.
pub(crate) fn find_head_end(buf: &[u8]) -> Option<usize> {
    let crlf = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4);
    let lf = buf.windows(2).position(|w| w == b"\n\n").map(|i| i + 2);
    match (crlf, lf) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// Rejects a request that repeats the message-framing header `name` with
/// conflicting values (case-insensitive compare, since `Transfer-Encoding`
/// tokens are case-insensitive). Identical duplicates are tolerated.
fn reject_conflicting_duplicates(req: &Request, name: &str) -> Result<(), HttpError> {
    let mut values = req
        .headers
        .iter()
        .filter(|(k, _)| k == name)
        .map(|(_, v)| v);
    let Some(first) = values.next() else {
        return Ok(());
    };
    if values.any(|v| !v.eq_ignore_ascii_case(first)) {
        return Err(HttpError::new(400, format!("conflicting duplicate {name}")));
    }
    Ok(())
}

/// The reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Writes a complete response with extra response headers (e.g.
/// `X-Trace-Id`) after the framing ones; `close` adds `Connection: close`.
/// Header names and values must already be valid HTTP header text.
///
/// # Errors
///
/// Propagates socket write failures (the caller drops the connection).
pub fn write_response_with_headers(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
    extra: &[(&str, &str)],
    close: bool,
) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        reason(status),
        body.len()
    );
    for (name, value) in extra {
        let _ = write!(head, "{name}: {value}\r\n");
    }
    if close {
        head.push_str("Connection: close\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        match parse_request_buffer(raw.as_bytes())? {
            ParseStatus::Complete { req, .. } => Ok(req),
            ParseStatus::NeedMore => panic!("incomplete request {raw:?}"),
        }
    }

    #[test]
    fn parses_post_with_body() {
        let req =
            parse("POST /scan HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/scan");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.body, b"hello");
        assert!(req.keep_alive());
    }

    #[test]
    fn connection_close_is_honored() {
        let req = parse("GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!req.keep_alive());
        assert!(req.body.is_empty());
    }

    #[test]
    fn malformed_requests_get_400s() {
        assert_eq!(parse("GARBAGE\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(parse("GET / SPDY/3\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(
            parse("POST / HTTP/1.1\r\nContent-Length: zebra\r\n\r\n")
                .unwrap_err()
                .status,
            400
        );
        assert_eq!(
            parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
                .unwrap_err()
                .status,
            501
        );
    }

    #[test]
    fn conflicting_framing_duplicates_get_400() {
        // Smuggling shape: a first-match parser reads 5 body bytes, a
        // last-match proxy would read 9999 — must die with 400.
        let raw = "POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 9999\r\n\r\nhello";
        let err = parse(raw).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.msg.contains("content-length"));
        let raw = "POST / HTTP/1.1\r\nTransfer-Encoding: identity\r\n\
                   Transfer-Encoding: chunked\r\n\r\n";
        let err = parse(raw).unwrap_err();
        assert_eq!(err.status, 400, "conflict beats the 501 chunked answer");
        assert!(err.msg.contains("transfer-encoding"));
    }

    #[test]
    fn identical_framing_duplicates_are_tolerated() {
        let raw = "POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello";
        assert_eq!(parse(raw).unwrap().body, b"hello");
    }

    #[test]
    fn oversized_heads_get_431_and_bodies_413() {
        let long_header = format!(
            "GET / HTTP/1.1\r\nX-Big: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES + 1)
        );
        assert_eq!(parse(&long_header).unwrap_err().status, 431);
        // The head cap bites even before the head terminator arrives.
        let dribble = &long_header[..long_header.len() - 4];
        assert_eq!(
            parse_request_buffer(dribble.as_bytes()).unwrap_err().status,
            431
        );
        // Declared-oversized bodies die before any body byte arrives.
        let big_body = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(parse(&big_body).unwrap_err().status, 413);
    }

    /// Every byte-wise prefix answers `NeedMore`; the whole buffer parses
    /// and reports the pipelined remainder as unconsumed.
    #[test]
    fn buffer_parser_is_incremental() {
        let raw = b"POST /scan HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhelloPOST";
        let complete_len = raw.len() - 4; // the trailing "POST" is pipelined
        for cut in 0..complete_len {
            match parse_request_buffer(&raw[..cut]) {
                Ok(ParseStatus::NeedMore) => {}
                other => panic!("prefix of {cut} bytes parsed as {other:?}"),
            }
        }
        let Ok(ParseStatus::Complete { req, consumed }) = parse_request_buffer(raw) else {
            panic!("complete request did not parse");
        };
        assert_eq!(consumed, complete_len);
        assert_eq!(req.body, b"hello");
        // Bare-LF heads are tolerated.
        let req = parse("GET /healthz HTTP/1.1\nHost: y\n\n").unwrap();
        assert_eq!(req.path, "/healthz");
    }

    #[test]
    fn responses_round_trip_through_the_writer_and_parser() {
        let mut out = Vec::new();
        write_response_with_headers(
            &mut out,
            429,
            "application/json",
            b"{\"error\":\"full\"}",
            &[("X-Trace-Id", "ab-1")],
            true,
        )
        .unwrap();
        let text = String::from_utf8(out.clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Content-Length: 16\r\n"));
        assert!(text.contains("X-Trace-Id: ab-1\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"error\":\"full\"}"));
        for cut in 0..out.len() {
            assert_eq!(parse_response_buffer(&out[..cut]), Ok(None), "prefix {cut}");
        }
        let mut expected = Response::error(429, "full");
        expected.close = true;
        assert_eq!(parse_response_buffer(&out), Ok(Some((expected, out.len()))));
    }

    #[test]
    fn response_parser_defaults_and_rejections() {
        let (resp, used) = parse_response_buffer(b"HTTP/1.1 204 No Content\r\n\r\nHTTP/1.1")
            .unwrap()
            .expect("complete");
        assert_eq!((resp.status, used), (204, 27));
        assert_eq!(resp.content_type, "application/json");
        assert!(resp.body.is_empty() && !resp.close);
        for bad in [
            &b"junk\r\n\r\n"[..],
            b"HTTP/1.1 abc OK\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nab",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n",
        ] {
            let err = parse_response_buffer(bad).unwrap_err();
            assert_eq!(err.status, 502, "{:?}", String::from_utf8_lossy(bad));
        }
    }
}
