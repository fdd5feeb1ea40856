//! Fault-injection suite for the serve path: panic isolation inside batch
//! workers, reload rejection of bad candidate models, and health reporting.
//!
//! The invariants pinned down here:
//! * a poison request (one whose forward pass panics) is answered 500 while
//!   every other request in the same batch still gets its report —
//!   byte-identical to solo scoring — and the worker keeps serving;
//! * `POST /reload` rejects a missing, truncated, bit-flipped, or
//!   wrong-architecture candidate with 422 and a typed reason, the old
//!   model keeps serving unchanged, and `/metrics` counts the rejection;
//! * `/healthz` reports readiness, and flips to 503 once draining begins.
//!
//! Poison inputs are simulated with the `worker_forward` failpoint
//! (`panic@NAME` fires only when the batch contains a request with that
//! name), so no real model-crashing input is needed.

#![cfg(target_os = "linux")]

mod support;

use sevuldet::integrity;
use sevuldet::{faults, score_source, Json};
use sevuldet_serve::server::ServeConfig;
use std::io::Write;
use std::time::Duration;
use support::{
    connect, detector, metric_value, model_text, read_response, request, scan_body, serve,
    status_body, test_config, LEAKY,
};

#[test]
fn poison_request_is_isolated_from_its_batch() {
    // One slow worker so a burst of requests coalesces into a single batch.
    let (handle, _path) = serve(
        "poison",
        ServeConfig {
            workers: 1,
            max_batch: 8,
            queue_cap: 16,
            batch_delay: Duration::from_millis(300),
            ..test_config()
        },
    );
    let addr = handle.addr();

    // The failpoint panics the forward pass of any batch whose request
    // names include the poison marker — the bisection then corners it.
    faults::arm("worker_forward=panic@POISON-REQUEST");

    let reference = score_source(&detector(42), LEAKY, 1).expect("scans");

    // Occupy the worker with a throwaway request, then fire the poison and
    // three clean requests while it sleeps: all four land in one batch.
    let warmup =
        std::thread::spawn(move || request(addr, "POST", "/scan", &scan_body(LEAKY, "warmup"), ""));
    std::thread::sleep(Duration::from_millis(100));
    let burst: Vec<_> = (0..4)
        .map(|i| {
            let name = if i == 0 {
                "POISON-REQUEST".to_string()
            } else {
                format!("clean-{i}")
            };
            std::thread::spawn(move || {
                let reply = request(addr, "POST", "/scan", &scan_body(LEAKY, &name), "");
                (name, reply)
            })
        })
        .collect();
    assert_eq!(warmup.join().unwrap().0, 200);
    let mut poison_status = 0;
    for t in burst {
        let (name, (status, body)) = t.join().expect("client thread");
        if name == "POISON-REQUEST" {
            poison_status = status;
            assert!(body.contains("isolated"), "{body}");
        } else {
            assert_eq!(status, 200, "clean batch-mate failed: {body}");
            assert_eq!(
                body,
                reference.to_json(&name).to_string(),
                "batch-mate result differs from solo scoring"
            );
        }
    }
    assert_eq!(poison_status, 500, "poison request must be answered 500");

    // The worker survived the panic and keeps serving.
    faults::disarm("worker_forward");
    let (status, body) = request(addr, "POST", "/scan", &scan_body(LEAKY, "after"), "");
    assert_eq!(status, 200, "{body}");

    let (_, metrics) = request(addr, "GET", "/metrics", "", "");
    let panics = metric_value(&metrics, "sevuldet_worker_panics_total");
    // Bisecting the poison out of a multi-request batch catches more than
    // one panic (full batch, then halves); >= 2 proves isolation actually
    // split a batch rather than the poison arriving alone.
    assert!(panics >= 2.0, "expected bisection panics, saw {panics}");
    handle.shutdown();
}

#[test]
fn reload_rejects_bad_candidates_and_keeps_serving() {
    let (handle, path) = serve("badreload", test_config());
    let addr = handle.addr();
    let baseline = request(addr, "POST", "/scan", &scan_body(LEAKY, "x.c"), "");
    assert_eq!(baseline.0, 200);
    let good = model_text(42).to_string();
    let mut rejections = 0.0;

    // Missing file: I/O error.
    std::fs::remove_file(&path).unwrap();
    let (status, body) = request(addr, "POST", "/reload", "", "");
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("reading model file"), "{body}");
    rejections += 1.0;

    // Truncated file: the footer is gone.
    std::fs::write(&path, &good[..good.len() / 2]).unwrap();
    let (status, body) = request(addr, "POST", "/reload", "", "");
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("footer missing"), "{body}");
    rejections += 1.0;

    // Bit flip mid-payload: the checksum catches it.
    let mut bytes = good.clone().into_bytes();
    let i = bytes.len() / 2;
    bytes[i] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    let (status, body) = request(addr, "POST", "/reload", "", "");
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("checksum mismatch"), "{body}");
    rejections += 1.0;

    // Wrong-architecture parameters: rewrite the config line to claim a
    // different embedding width, then re-seal so the CRC passes and the
    // structural shape check is what fires.
    let payload = integrity::unseal(&good).expect("sealed model");
    let tampered: String = payload
        .lines()
        .map(|l| {
            if let Some(rest) = l.strip_prefix("config ") {
                let mut fields: Vec<String> = rest.split_whitespace().map(String::from).collect();
                fields[0] = "999".to_string(); // embed_dim the params cannot fit
                format!("config {}\n", fields.join(" "))
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    std::fs::write(&path, integrity::seal(tampered)).unwrap();
    let (status, body) = request(addr, "POST", "/reload", "", "");
    assert_eq!(
        status, 422,
        "wrong-architecture candidate must be rejected: {body}"
    );
    rejections += 1.0;

    // Through all four failures the old model kept serving, byte-identical.
    let after = request(addr, "POST", "/scan", &scan_body(LEAKY, "x.c"), "");
    assert_eq!((after.0, &after.1), (200, &baseline.1));
    let (_, metrics) = request(addr, "GET", "/metrics", "", "");
    assert_eq!(
        metric_value(&metrics, "sevuldet_reload_failures_total"),
        rejections
    );
    assert_eq!(metric_value(&metrics, "sevuldet_model_version"), 1.0);
    assert_eq!(metric_value(&metrics, "sevuldet_model_reloads_total"), 0.0);

    // Restoring a good file reloads cleanly: rejection is not sticky.
    std::fs::write(&path, &good).unwrap();
    let (status, body) = request(addr, "POST", "/reload", "", "");
    assert_eq!(status, 200, "{body}");
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("version").unwrap().as_f64(), Some(2.0));
    handle.shutdown();
}

#[test]
fn healthz_reports_readiness_and_flips_to_draining() {
    let (handle, _path) = serve("healthz", test_config());
    let addr = handle.addr();
    let (status, body) = request(addr, "GET", "/healthz", "", "");
    assert_eq!(status, 200);
    let doc = Json::parse(&body).expect("healthz is JSON");
    assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(doc.get("model_version").unwrap().as_f64(), Some(1.0));

    // A keep-alive connection opened before shutdown observes the draining
    // state: the listener is closed but existing connections still get
    // routed, and /healthz answers 503 so load balancers stop sending work.
    let mut stream = connect(addr, 30);
    // First request (and its framed response) proves the connection is
    // registered with the event loop before shutdown begins.
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n")
        .expect("send pre-shutdown request");
    let mut buf = Vec::new();
    let first = read_response(&mut stream, &mut buf).expect("pre-shutdown response");
    assert_eq!(first.status, 200);
    handle.shutdown();
    stream
        .write_all(
            b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: 0\r\n\r\n",
        )
        .expect("send on pre-shutdown connection");
    let last = read_response(&mut stream, &mut buf).expect("draining response");
    let (status, body) = status_body(&last);
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("draining"), "{body}");
}
