//! End-to-end throughput of `sevuldet serve`: a burst of concurrent
//! `POST /scan` requests against a live server, over fresh connections
//! (one TCP handshake per request — the worst case) and over keep-alive
//! connections (the fleet-realistic case the event loop is built for).
//! Each iteration fires 16 clients; fresh-connection clients send one
//! request each, keep-alive clients send four on one connection. ms/iter
//! divided into the request count gives requests/second. Serving is
//! Linux-only, so elsewhere this bench is empty.

#[cfg(target_os = "linux")]
criterion::criterion_main!(linux::benches);

#[cfg(not(target_os = "linux"))]
fn main() {}

#[cfg(target_os = "linux")]
mod linux {
    use criterion::{criterion_group, Criterion};
    use sevuldet::{save_detector, Detector, GadgetSpec, Json, ModelKind, TrainConfig};
    use sevuldet_dataset::{sard, SardConfig};
    use sevuldet_serve::http::parse_response_buffer;
    use sevuldet_serve::registry::ModelRegistry;
    use sevuldet_serve::server::{start, ServeConfig, ServerHandle};
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::path::{Path, PathBuf};

    const BURST: usize = 16;
    const KEEPALIVE_REQS: usize = 4;

    const SOURCE: &str = r#"void process(char *dest, char *data) {
    int n = atoi(data);
    if (n < 16) {
        puts("small");
    }
    strncpy(dest, data, n);
}"#;

    /// Trains a tiny detector and persists it for the server to load.
    fn model_path() -> PathBuf {
        let samples = sard::generate(&SardConfig {
            per_category: 5,
            ..SardConfig::default()
        });
        let corpus = GadgetSpec::path_sensitive().extract(&samples);
        let cfg = TrainConfig {
            embed_dim: 10,
            w2v_epochs: 1,
            epochs: 2,
            cnn_channels: 8,
            seed: 42,
            ..TrainConfig::quick()
        };
        let mut det = Detector::train(&corpus, ModelKind::SevulDet, &cfg);
        let dir = std::env::temp_dir().join(format!("svd-bench-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("model.svd");
        std::fs::write(&path, save_detector(&mut det)).expect("write model");
        path
    }

    fn spawn_server(path: &Path) -> ServerHandle {
        let registry = ModelRegistry::open(path).expect("model loads");
        start(
            ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 2,
                max_batch: 16,
                queue_cap: 64,
                ..ServeConfig::default()
            },
            registry,
        )
        .expect("server binds")
    }

    /// `n` sequential requests on one connection (`Connection: close` on
    /// the last); panics on anything but 200s.
    fn scan(addr: SocketAddr, body: &str, n: usize) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut buf = Vec::new();
        let mut chunk = [0u8; 16 * 1024];
        for i in 0..n {
            let close = if i + 1 == n {
                "Connection: close\r\n"
            } else {
                ""
            };
            let req = format!(
                "POST /scan HTTP/1.1\r\nHost: bench\r\n{close}Content-Length: {}\r\n\r\n{body}",
                body.len()
            );
            stream.write_all(req.as_bytes()).expect("send");
            let resp = loop {
                if let Some((resp, used)) = parse_response_buffer(&buf).expect("framed response") {
                    buf.drain(..used);
                    break resp;
                }
                let got = stream.read(&mut chunk).expect("read response");
                assert!(got > 0, "server closed mid-response");
                buf.extend_from_slice(&chunk[..got]);
            };
            assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        }
    }

    fn bench_serve(c: &mut Criterion) {
        let path = model_path();
        let body = Json::obj(vec![
            ("source", Json::str(SOURCE)),
            ("name", Json::str("bench.c")),
        ])
        .to_string();
        let handle = spawn_server(&path);
        let addr = handle.addr();
        // Fresh connection per request: pays a TCP handshake every time.
        // Keep-alive: one connection, several requests — the
        // fleet-realistic shape (and 4x the requests per iteration).
        for (group, reqs_per_conn) in [
            ("serve_burst16_fresh", 1),
            ("serve_burst16_keepalive4", KEEPALIVE_REQS),
        ] {
            let mut group = c.benchmark_group(group);
            group.bench_function("eventloop", |b| {
                b.iter(|| {
                    let clients: Vec<_> = (0..BURST)
                        .map(|_| {
                            let body = body.clone();
                            std::thread::spawn(move || scan(addr, &body, reqs_per_conn))
                        })
                        .collect();
                    for t in clients {
                        t.join().expect("client thread");
                    }
                })
            });
            group.finish();
        }
        handle.shutdown();
    }

    criterion_group!(
        name = benches;
        config = Criterion::default().sample_size(10);
        targets = bench_serve
    );
}
