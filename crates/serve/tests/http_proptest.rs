//! Property tests for the incremental HTTP parsers: [`parse_request_buffer`]
//! behind the event loop, and [`parse_response_buffer`] behind the
//! balancer's forwarders, the load generator and the test clients. The
//! balancer's failover and hedging machinery replays requests and relays
//! responses byte-for-byte, so both must behave identically however the
//! bytes are sliced by the network:
//!
//! * feeding a valid message one prefix at a time — every byte boundary —
//!   answers "need more" until the exact final byte, then parses to the
//!   same message as one-shot parsing;
//! * arbitrary byte soup (raw, or grafted onto a plausible request or
//!   status line) never panics on any prefix — only "need more", a
//!   complete message, or a typed error;
//! * heads and bodies past the caps are errors, not buffering.

use proptest::prelude::*;
use sevuldet_serve::http::{
    parse_request_buffer, parse_response_buffer, write_response_with_headers, ParseStatus, Request,
    Response, MAX_BODY_BYTES, MAX_HEAD_BYTES, MAX_RESPONSE_BODY_BYTES, MAX_RESPONSE_HEAD_BYTES,
};

/// Lowercase identifier fragments for methods-adjacent tokens, paths, and
/// header values: valid enough to parse, varied enough to shift every
/// offset in the head.
fn ident() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u8..26, 1..10)
        .prop_map(|v| v.iter().map(|b| (b'a' + b) as char).collect())
}

/// A syntactically valid request and its wire bytes.
fn wire_request() -> impl Strategy<Value = Vec<u8>> {
    (
        prop_oneof![Just("GET"), Just("POST"), Just("PUT")],
        ident(),
        proptest::collection::vec(any::<u8>(), 0..64),
        (ident(), ident()),
        any::<bool>(),
    )
        .prop_map(|(method, path, body, (hname, hval), keep_alive)| {
            let mut text = format!("{method} /{path} HTTP/1.1\r\nHost: t\r\nX-{hname}: {hval}\r\n");
            if !keep_alive {
                text.push_str("Connection: close\r\n");
            }
            text.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
            let mut wire = text.into_bytes();
            wire.extend_from_slice(&body);
            wire
        })
}

/// A response the server could write, and its wire bytes (framed by the
/// server's own writer, with an extra header the parser must skip).
fn wire_response() -> impl Strategy<Value = (Response, Vec<u8>)> {
    (
        prop_oneof![Just(200u16), Just(404), Just(429), Just(503)],
        prop_oneof![Just("application/json"), Just("text/plain; version=0.0.4")],
        proptest::collection::vec(any::<u8>(), 0..64),
        (ident(), ident()),
        any::<bool>(),
    )
        .prop_map(|(status, content_type, body, (hname, hval), close)| {
            let mut wire = Vec::new();
            let extra = [(format!("X-{hname}"), hval)];
            let extra: Vec<(&str, &str)> = extra
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            write_response_with_headers(&mut wire, status, content_type, &body, &extra, close)
                .expect("writing to a Vec cannot fail");
            let resp = Response {
                close,
                ..Response::new(status, content_type, body)
            };
            (resp, wire)
        })
}

fn complete(buf: &[u8]) -> Option<(Request, usize)> {
    match parse_request_buffer(buf) {
        Ok(ParseStatus::Complete { req, consumed }) => Some((req, consumed)),
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every prefix of a valid request is `NeedMore`; the full buffer (and
    /// the full buffer with pipelined trailing bytes) parses to the same
    /// request as one-shot parsing, consuming exactly the request's bytes.
    #[test]
    fn every_byte_boundary_split_agrees_with_one_shot(
        wire in wire_request(),
        trailer in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        let (reference, consumed) = complete(&wire)
            .expect("generated request must parse one-shot");
        prop_assert_eq!(consumed, wire.len());

        for i in 0..wire.len() {
            match parse_request_buffer(&wire[..i]) {
                Ok(ParseStatus::NeedMore) => {}
                Ok(ParseStatus::Complete { .. }) => {
                    return Err(TestCaseError::new(format!(
                        "prefix of {i}/{} bytes claimed completeness",
                        wire.len()
                    )));
                }
                Err(e) => {
                    return Err(TestCaseError::new(format!(
                        "prefix of {i}/{} bytes errored: {} {}",
                        wire.len(),
                        e.status,
                        e.msg
                    )));
                }
            }
        }

        // A pipelined remainder after the request must not change what is
        // parsed or how much is consumed.
        let mut piped = wire.clone();
        piped.extend_from_slice(&trailer);
        let (req, consumed) = complete(&piped).expect("pipelined parse");
        prop_assert_eq!(consumed, wire.len());
        prop_assert_eq!(&req.method, &reference.method);
        prop_assert_eq!(&req.path, &reference.path);
        prop_assert_eq!(&req.headers, &reference.headers);
        prop_assert_eq!(&req.body, &reference.body);
    }

    /// The response parser's mirror: every prefix of a written response
    /// is "need more"; the whole buffer, with or without a trailing next
    /// response, parses back to exactly what was written.
    #[test]
    fn every_byte_boundary_split_agrees_for_responses(
        (expected, wire) in wire_response(),
        trailer in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        for i in 0..wire.len() {
            let step = parse_response_buffer(&wire[..i]);
            prop_assert!(step == Ok(None), "prefix of {}/{} bytes: {:?}", i, wire.len(), step);
        }
        let mut piped = wire.clone();
        piped.extend_from_slice(&trailer);
        prop_assert_eq!(parse_response_buffer(&piped), Ok(Some((expected, wire.len()))));
    }

    /// Byte soup — raw, or grafted onto a well-formed request or status
    /// line so the parsers get deep into header parsing — never panics on
    /// any prefix, in either parser.
    #[test]
    fn byte_soup_never_panics(
        soup in proptest::collection::vec(any::<u8>(), 1..300),
        graft in 0u8..3,
    ) {
        let mut buf = match graft {
            0 => Vec::new(),
            1 => b"POST /scan HTTP/1.1\r\n".to_vec(),
            _ => b"HTTP/1.1 200 OK\r\n".to_vec(),
        };
        buf.extend_from_slice(&soup);
        for i in 0..=buf.len() {
            // Any outcome is fine; panicking is not.
            let _ = parse_request_buffer(&buf[..i]);
            let _ = parse_response_buffer(&buf[..i]);
        }
    }

    /// A head past its cap is an error whether or not its end has arrived,
    /// and so is a declared body past its cap, before any body byte.
    #[test]
    fn over_cap_heads_and_bodies_are_errors(
        over in 1usize..4096,
        terminated in any::<bool>(),
    ) {
        let pad = |cap: usize| {
            let mut head = format!("X-Pad: {}\r\n", "a".repeat(cap + over));
            if terminated {
                head.push_str("\r\n");
            }
            head
        };
        let req = format!("GET / HTTP/1.1\r\n{}", pad(MAX_HEAD_BYTES));
        prop_assert_eq!(parse_request_buffer(req.as_bytes()).err().map(|e| e.status), Some(431));
        let resp = format!("HTTP/1.1 200 OK\r\n{}", pad(MAX_RESPONSE_HEAD_BYTES));
        prop_assert_eq!(parse_response_buffer(resp.as_bytes()).err().map(|e| e.status), Some(502));

        let req = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + over);
        prop_assert_eq!(parse_request_buffer(req.as_bytes()).err().map(|e| e.status), Some(413));
        let resp = format!("HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n", MAX_RESPONSE_BODY_BYTES + over);
        prop_assert_eq!(parse_response_buffer(resp.as_bytes()).err().map(|e| e.status), Some(502));
    }
}
