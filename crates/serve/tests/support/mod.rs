//! The serve suites' shared test client and fixtures: one HTTP/1.1 client
//! that frames every answer with `http::parse_response_buffer`, the scan
//! bodies and `/metrics` lookups the suites share, and the seeded tiny
//! detectors every test server runs. Each suite pulls it in with
//! `mod support;` and uses its own subset.
#![allow(dead_code)]

use sevuldet::{save_detector, Detector, GadgetSpec, Json, ModelKind, TrainConfig};
use sevuldet_dataset::{sard, SardConfig};
use sevuldet_serve::http::{parse_response_buffer, Response};
use sevuldet_serve::registry::ModelRegistry;
use sevuldet_serve::server::{start, ServeConfig, ServerHandle};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// A source whose gadgets the detector scores (several findings).
pub const LEAKY: &str = r#"void process(char *dest, char *data) {
    int n = atoi(data);
    if (n < 16) {
        puts("small");
    }
    strncpy(dest, data, n);
}"#;

/// A source with no special tokens: scanned, zero findings.
pub const CLEAN: &str = "int three() { return 3; }";

/// Trains a tiny detector of architecture `kind` on a seeded corpus.
pub fn train(kind: ModelKind, seed: u64) -> Detector {
    let samples = sard::generate(&SardConfig {
        per_category: 5,
        seed,
        ..SardConfig::default()
    });
    let corpus = GadgetSpec::path_sensitive().extract(&samples);
    let cfg = TrainConfig {
        embed_dim: 10,
        w2v_epochs: 1,
        epochs: 2,
        cnn_channels: 8,
        seed,
        ..TrainConfig::quick()
    };
    Detector::train(&corpus, kind, &cfg)
}

/// The tiny CNN detector the single-model suites serve.
pub fn detector(seed: u64) -> Detector {
    train(ModelKind::SevulDet, seed)
}

/// The saved model file text of `train(kind, seed)`, trained once per test
/// binary.
pub fn model_text_of(kind: ModelKind, seed: u64) -> &'static str {
    static CACHE: Mutex<Option<HashMap<(ModelKind, u64), &'static str>>> = Mutex::new(None);
    let mut cache = CACHE.lock().unwrap_or_else(|e| e.into_inner());
    cache
        .get_or_insert_with(HashMap::new)
        .entry((kind, seed))
        .or_insert_with(|| save_detector(&mut train(kind, seed)).leak())
}

/// The saved text of [`detector`]`(seed)`.
pub fn model_text(seed: u64) -> &'static str {
    model_text_of(ModelKind::SevulDet, seed)
}

/// A fresh directory for one test, unique within this run.
pub fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "svd-test-{}-{}-{tag}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Writes [`model_text`]`(seed)` to `model.svd` in a fresh temp directory.
pub fn write_model(tag: &str, seed: u64) -> PathBuf {
    let path = temp_dir(tag).join("model.svd");
    std::fs::write(&path, model_text(seed)).expect("write model");
    path
}

/// The default server config on a free local port.
pub fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    }
}

/// Starts a server on a fresh copy of the seed-42 model, returning the
/// model path too (tests rewrite it to exercise reloads).
pub fn serve(tag: &str, cfg: ServeConfig) -> (ServerHandle, PathBuf) {
    let path = write_model(tag, 42);
    let registry = ModelRegistry::open(&path).expect("model loads");
    (start(cfg, registry).expect("server binds"), path)
}

/// A free local address: bound, then released for a server (or a
/// deliberately absent one) to take. Std listeners set `SO_REUSEADDR`, so
/// respawning on a port with lingering `TIME_WAIT` sockets also works.
pub fn reserve_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("reserve port");
    listener.local_addr().expect("bound address").to_string()
}

/// A raw client socket with a read timeout, for tests that write their
/// own bytes.
pub fn connect(addr: SocketAddr, timeout_s: u64) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(timeout_s)))
        .expect("set read timeout");
    stream
}

/// Reads one response off `stream`. Bytes past it stay in `buf` for the
/// next call, so keep-alive and pipelined reads share one buffer per
/// connection. `None` when the stream ends or fails first, or the bytes
/// cannot be framed.
pub fn read_response(stream: &mut impl Read, buf: &mut Vec<u8>) -> Option<Response> {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if let Some((resp, used)) = parse_response_buffer(buf).ok()? {
            buf.drain(..used);
            return Some(resp);
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
}

/// `(status, body)` of a response, the body as text.
pub fn status_body(resp: &Response) -> (u16, String) {
    let body = String::from_utf8(resp.body.clone()).expect("UTF-8 body");
    (resp.status, body)
}

/// One request over a fresh `Connection: close` socket: `(status, body,
/// raw response text)` — the raw text keeps every header inspectable.
/// `None` when the connection fails, or the answer is not exactly one
/// framed response.
pub fn try_request(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    body: &str,
    extra_headers: &str,
) -> Option<(u16, String, String)> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .ok()?;
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n{extra_headers}Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).ok()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).ok()?;
    let (resp, used) = parse_response_buffer(&raw).ok()??;
    if used != raw.len() {
        return None;
    }
    let (status, body) = status_body(&resp);
    Some((status, body, String::from_utf8(raw).ok()?))
}

/// [`try_request`] for requests that must be answered: panics otherwise.
pub fn request_raw(
    addr: impl ToSocketAddrs + std::fmt::Debug,
    method: &str,
    path: &str,
    body: &str,
    extra_headers: &str,
) -> (u16, String, String) {
    let what = format!("{method} {path} to {addr:?}");
    try_request(addr, method, path, body, extra_headers)
        .unwrap_or_else(|| panic!("no framed response for {what}"))
}

/// [`request_raw`] reduced to `(status, body)`.
pub fn request(
    addr: impl ToSocketAddrs + std::fmt::Debug,
    method: &str,
    path: &str,
    body: &str,
    extra_headers: &str,
) -> (u16, String) {
    let (status, body, _) = request_raw(addr, method, path, body, extra_headers);
    (status, body)
}

/// A `/scan` request body.
pub fn scan_body(source: &str, name: &str) -> String {
    Json::obj(vec![
        ("source", Json::str(source)),
        ("name", Json::str(name)),
    ])
    .to_string()
}

/// The `i`-th of a family of distinct parseable sources (each hashes to
/// its own ring point), as a scan body named `f{i}.c`.
pub fn fleet_scan_body(i: usize) -> String {
    let source = format!(
        "void process_{i}(char *dest, char *data) {{\n    int n = atoi(data);\n    strncpy(dest, data, n + {i});\n}}"
    );
    scan_body(&source, &format!("f{i}.c"))
}

/// The value of the sample `series` (name plus any `{labels}`, exactly as
/// exposed) in a Prometheus exposition; panics when it is absent.
pub fn metric_value(metrics: &str, series: &str) -> f64 {
    metrics
        .lines()
        .find_map(|l| {
            let (key, value) = l.rsplit_once(' ')?;
            (key == series).then(|| value.parse().ok())?
        })
        .unwrap_or_else(|| panic!("metric `{series}` missing in:\n{metrics}"))
}

/// The `X-Sevuldet-Shard` header of a raw response: which shard answered.
pub fn shard_header(raw: &str) -> Option<String> {
    raw.lines()
        .find_map(|l| l.strip_prefix("X-Sevuldet-Shard: "))
        .map(|v| v.trim().to_string())
}
