//! TCP-level integration suite for `sevuldet serve`: every test drives a
//! real server over real sockets with a real (tiny) trained model.
//!
//! The acceptance criteria pinned down here:
//! * every route and error class answers byte-identical bodies, and scans
//!   match the library `score_source` path (which is also what the CLI
//!   prints with `--json`), under concurrency and pipelining;
//! * `/metrics` keeps its exact structure (families, series, label keys,
//!   order) on the server and the balancer, and exposes request counts,
//!   latency histograms, batch sizes, and queue depth;
//! * `POST /reload` swaps models without dropping in-flight requests;
//! * a full queue answers 429 instead of blocking; expired deadlines 504;
//! * graceful shutdown drains queued jobs before the workers exit;
//! * slow-client hardening (408/431/413), `Connection: close`, an EAGAIN
//!   torture run over tiny kernel socket buffers, over-capacity shedding,
//!   and a thousand idle connections held open at once.
#![cfg(target_os = "linux")]

mod support;

use sevuldet::{score_source, Json};
use sevuldet_serve::balancer::{start as start_balancer, BalancerConfig};
use sevuldet_serve::http::parse_response_buffer;
use sevuldet_serve::server::ServeConfig;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;
use support::{
    connect, detector, metric_value, model_text, read_response, request, request_raw, scan_body,
    serve, status_body, test_config, try_request, CLEAN, LEAKY,
};

/// The server's report for `scan_body(LEAKY, "leaky.c")` under the seed-42
/// model.
const LEAKY_REPORT: &str = r#"{"name":"leaky.c","status":"scanned","gadgets":6,"flagged":0,"invalid":0,"threshold":0.5,"findings":[{"line":2,"category":"FC","name":"atoi","score":0.49528481004086267,"flagged":false,"status":"scored"},{"line":2,"category":"PU","name":"data","score":0.49528481004086267,"flagged":false,"status":"scored"},{"line":4,"category":"FC","name":"puts","score":0.4946762536043965,"flagged":false,"status":"scored"},{"line":6,"category":"FC","name":"strncpy","score":0.49528481004086267,"flagged":false,"status":"scored"},{"line":6,"category":"PU","name":"data","score":0.49528481004086267,"flagged":false,"status":"scored"},{"line":6,"category":"PU","name":"dest","score":0.49528481004086267,"flagged":false,"status":"scored"}]}"#;

/// Every route and error class answers exactly the bytes pinned here, and
/// a scan answers what the library path the CLI prints with `--json`
/// produces.
#[test]
fn routes_answer_their_pinned_bytes() {
    let (handle, _path) = serve("bytes", test_config());
    let cases: [(&str, &str, String, u16, &str); 12] = [
        (
            "POST",
            "/scan",
            scan_body(LEAKY, "leaky.c"),
            200,
            LEAKY_REPORT,
        ),
        (
            "POST",
            "/scan",
            scan_body(CLEAN, "clean.c"),
            200,
            r#"{"name":"clean.c","status":"scanned","gadgets":0,"flagged":0,"invalid":0,"threshold":0.5,"findings":[]}"#,
        ),
        (
            "POST",
            "/scan",
            scan_body("int main( {{{ oops", "bad.c"),
            422,
            r#"{"name":"bad.c","status":"error","error":"parse error: parse error at 1:11: expected a type, found `{`"}"#,
        ),
        (
            "POST",
            "/scan",
            "{not json".to_string(),
            400,
            r#"{"error":"invalid JSON: expected `\"` at byte 1"}"#,
        ),
        (
            "POST",
            "/scan",
            "{\"nosource\": 1}".to_string(),
            400,
            r#"{"error":"missing string field `source`"}"#,
        ),
        (
            "GET",
            "/healthz",
            String::new(),
            200,
            r#"{"status":"ok","model_version":1}"#,
        ),
        (
            "GET",
            "/nowhere",
            String::new(),
            404,
            r#"{"error":"not found"}"#,
        ),
        (
            "GET",
            "/scan",
            String::new(),
            405,
            r#"{"error":"method not allowed"}"#,
        ),
        (
            "PUT",
            "/metrics",
            String::new(),
            405,
            r#"{"error":"method not allowed"}"#,
        ),
        // The reload bumps the served model to version 2.
        (
            "POST",
            "/reload",
            String::new(),
            200,
            r#"{"reloaded":true,"version":2}"#,
        ),
        (
            "GET",
            "/healthz",
            String::new(),
            200,
            r#"{"status":"ok","model_version":2}"#,
        ),
        (
            "POST",
            "/scan",
            scan_body(LEAKY, "leaky.c"),
            200,
            LEAKY_REPORT,
        ),
    ];
    for (method, path, body, status, expected) in cases {
        assert_eq!(
            request(handle.addr(), method, path, &body, ""),
            (status, expected.to_string()),
            "{method} {path} changed its answer"
        );
    }

    // And a scan matches the library path the CLI prints with `--json`.
    let expected = score_source(&detector(42), LEAKY, 1)
        .expect("scans")
        .to_json("leaky.c")
        .to_string();
    let (status, body) = request(
        handle.addr(),
        "POST",
        "/scan",
        &scan_body(LEAKY, "leaky.c"),
        "",
    );
    assert_eq!(
        (status, body),
        (200, expected),
        "the server changed the scan report"
    );
    handle.shutdown();
}

/// The `/metrics` structure — every `# HELP`/`# TYPE` line, then each
/// series name with its label keys (values and label values stripped,
/// repeats folded) in exposition order.
fn metrics_structure(text: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for line in text.lines() {
        let entry = if line.starts_with('#') {
            line.to_string()
        } else {
            let series = line.rsplit_once(' ').expect("sample value").0;
            match series.split_once('{') {
                None => series.to_string(),
                Some((name, labels)) => {
                    let keys: Vec<&str> = labels
                        .trim_end_matches('}')
                        .split(',')
                        .map(|kv| kv.split_once('=').expect("label pair").0)
                        .collect();
                    format!("{name}{{{}}}", keys.join(","))
                }
            }
        };
        if !out.contains(&entry) {
            out.push(entry);
        }
    }
    out
}

const SERVER_METRICS: &str = "\
# HELP sevuldet_requests_total HTTP requests received, by endpoint.
# TYPE sevuldet_requests_total counter
sevuldet_requests_total{endpoint}
sevuldet_requests_total{model}
# HELP sevuldet_responses_total HTTP responses sent, by status code.
# TYPE sevuldet_responses_total counter
sevuldet_responses_total{code}
# HELP sevuldet_rejected_total Scan requests rejected before scoring, by reason.
# TYPE sevuldet_rejected_total counter
sevuldet_rejected_total{reason}
# HELP sevuldet_model_reloads_total Successful model hot-reloads.
# TYPE sevuldet_model_reloads_total counter
sevuldet_model_reloads_total
# HELP sevuldet_reload_failures_total Model reloads rejected (old model kept serving).
# TYPE sevuldet_reload_failures_total counter
sevuldet_reload_failures_total
# HELP sevuldet_worker_panics_total Forward passes that panicked in a batch worker and were isolated.
# TYPE sevuldet_worker_panics_total counter
sevuldet_worker_panics_total
# HELP sevuldet_checkpoints_written_total Training checkpoints written by this process.
# TYPE sevuldet_checkpoints_written_total counter
sevuldet_checkpoints_written_total
# HELP sevuldet_model_version Monotonic version of the currently served model.
# TYPE sevuldet_model_version gauge
sevuldet_model_version
sevuldet_model_version{model}
# HELP sevuldet_precision_tier Serving precision tier (info gauge, always 1).
# TYPE sevuldet_precision_tier gauge
sevuldet_precision_tier{tier}
# HELP sevuldet_queue_depth Scan jobs currently queued.
# TYPE sevuldet_queue_depth gauge
sevuldet_queue_depth
# HELP sevuldet_open_connections Currently open client connections.
# TYPE sevuldet_open_connections gauge
sevuldet_open_connections
# HELP sevuldet_connections_accepted_total Client connections accepted.
# TYPE sevuldet_connections_accepted_total counter
sevuldet_connections_accepted_total
# HELP sevuldet_connections_closed_total Client connections closed, by reason.
# TYPE sevuldet_connections_closed_total counter
sevuldet_connections_closed_total{reason}
# HELP sevuldet_workspace_acquires_total Kernel workspace buffer acquisitions, by pool outcome (process-wide).
# TYPE sevuldet_workspace_acquires_total counter
sevuldet_workspace_acquires_total{result}
# HELP sevuldet_query_cache_hits_total Incremental-query cache hits, by tier (process-wide).
# TYPE sevuldet_query_cache_hits_total counter
sevuldet_query_cache_hits_total{tier}
# HELP sevuldet_query_cache_misses_total Incremental-query cache misses (full recomputes, process-wide).
# TYPE sevuldet_query_cache_misses_total counter
sevuldet_query_cache_misses_total
# HELP sevuldet_query_cache_evictions_total Cache entries evicted for size pressure (process-wide).
# TYPE sevuldet_query_cache_evictions_total counter
sevuldet_query_cache_evictions_total
# HELP sevuldet_cache_size_bytes Persistent artifact store size on disk.
# TYPE sevuldet_cache_size_bytes gauge
sevuldet_cache_size_bytes
# HELP sevuldet_scan_latency_seconds Enqueue-to-scored latency of scan requests.
# TYPE sevuldet_scan_latency_seconds histogram
sevuldet_scan_latency_seconds_bucket{le}
sevuldet_scan_latency_seconds_sum
sevuldet_scan_latency_seconds_count
# HELP sevuldet_forward_duration_seconds Model-forward time of non-empty scan batches.
# TYPE sevuldet_forward_duration_seconds histogram
sevuldet_forward_duration_seconds_bucket{le}
sevuldet_forward_duration_seconds_sum
sevuldet_forward_duration_seconds_count
# HELP sevuldet_batch_size Requests coalesced per forward batch.
# TYPE sevuldet_batch_size histogram
sevuldet_batch_size_bucket{le}
sevuldet_batch_size_sum
sevuldet_batch_size_count
# HELP sevuldet_model_forward_duration_seconds Model-forward time per registry model.
# TYPE sevuldet_model_forward_duration_seconds histogram
sevuldet_model_forward_duration_seconds_bucket{model,le}
sevuldet_model_forward_duration_seconds_sum{model}
sevuldet_model_forward_duration_seconds_count{model}
# HELP sevuldet_stage_duration_seconds Pipeline stage durations by trace span name.
# TYPE sevuldet_stage_duration_seconds histogram
sevuldet_stage_duration_seconds_bucket{stage,le}
sevuldet_stage_duration_seconds_sum{stage}
sevuldet_stage_duration_seconds_count{stage}
# HELP sevuldet_shard_info Fleet identity of this shard process.
# TYPE sevuldet_shard_info gauge
sevuldet_shard_info{shard}
";

const BALANCER_METRICS: &str = "\
# HELP sevuldet_balancer_routed_total Requests routed to each shard, by routing mode.
# TYPE sevuldet_balancer_routed_total counter
sevuldet_balancer_routed_total{shard,mode}
# HELP sevuldet_balancer_ejections_total Breaker ejections per shard (probe or passive).
# TYPE sevuldet_balancer_ejections_total counter
sevuldet_balancer_ejections_total{shard}
# HELP sevuldet_balancer_shard_healthy Whether each shard is currently in rotation.
# TYPE sevuldet_balancer_shard_healthy gauge
sevuldet_balancer_shard_healthy{shard}
# HELP sevuldet_balancer_breaker_state Circuit breaker per shard (0 closed, 1 open, 2 half-open).
# TYPE sevuldet_balancer_breaker_state gauge
sevuldet_balancer_breaker_state{shard}
# HELP sevuldet_balancer_retries_total Extra forward attempts (stale reconnects + failovers).
# TYPE sevuldet_balancer_retries_total counter
sevuldet_balancer_retries_total
# HELP sevuldet_balancer_failovers_total Attempts re-routed to a different shard.
# TYPE sevuldet_balancer_failovers_total counter
sevuldet_balancer_failovers_total
# HELP sevuldet_balancer_hedges_total Hedged second attempts, by outcome.
# TYPE sevuldet_balancer_hedges_total counter
sevuldet_balancer_hedges_total{outcome}
# HELP sevuldet_balancer_shed_total Requests shed locally by the brownout.
# TYPE sevuldet_balancer_shed_total counter
sevuldet_balancer_shed_total
# HELP sevuldet_balancer_deadline_local_total 504s answered locally on an exhausted deadline budget.
# TYPE sevuldet_balancer_deadline_local_total counter
sevuldet_balancer_deadline_local_total
# HELP sevuldet_balancer_inflight Forwards accepted but not yet answered.
# TYPE sevuldet_balancer_inflight gauge
sevuldet_balancer_inflight
# HELP sevuldet_balancer_responses_total Client-facing responses by status class.
# TYPE sevuldet_balancer_responses_total counter
sevuldet_balancer_responses_total{class}
# HELP sevuldet_open_connections Currently open client connections.
# TYPE sevuldet_open_connections gauge
sevuldet_open_connections
# HELP sevuldet_connections_accepted_total Client connections accepted.
# TYPE sevuldet_connections_accepted_total counter
sevuldet_connections_accepted_total
# HELP sevuldet_connections_closed_total Client connections closed, by reason.
# TYPE sevuldet_connections_closed_total counter
sevuldet_connections_closed_total{reason}
";

/// A shard server's and a balancer's `/metrics` keep every family, series
/// and label set, in the same order, as pinned above.
#[test]
fn metrics_structure_is_pinned() {
    let (shard, _path) = serve(
        "mshape",
        ServeConfig {
            shard: Some((0, 1)),
            ..test_config()
        },
    );
    let balancer = start_balancer(BalancerConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: vec![shard.addr().to_string()],
        ..BalancerConfig::default()
    })
    .expect("balancer binds");
    for (addr, pinned) in [
        (shard.addr(), SERVER_METRICS),
        (balancer.addr(), BALANCER_METRICS),
    ] {
        let (status, _) = request(addr, "POST", "/scan", &scan_body(LEAKY, "x.c"), "");
        assert_eq!(status, 200);
        let (status, text) = request(addr, "GET", "/metrics", "", "");
        assert_eq!(status, 200);
        assert_eq!(
            metrics_structure(&text),
            pinned.lines().collect::<Vec<_>>(),
            "/metrics structure changed on {addr}:\n{text}"
        );
    }
    balancer.shutdown();
    shard.shutdown();
}

#[test]
fn concurrent_scans_match_cli_scoring_byte_for_byte() {
    let (handle, _path) = serve(
        "concurrent",
        ServeConfig {
            workers: 2,
            max_batch: 4,
            ..test_config()
        },
    );
    let addr = handle.addr();

    // The reference: the same library call the CLI's `scan --json` makes.
    let det = detector(42);
    let expected_leaky = score_source(&det, LEAKY, 1)
        .expect("scans")
        .to_json("leaky.c")
        .to_string();
    let expected_clean = score_source(&det, CLEAN, 1)
        .expect("scans")
        .to_json("clean.c")
        .to_string();

    let workers: Vec<_> = (0..8)
        .map(|i| {
            let (expected, source, name) = if i % 2 == 0 {
                (expected_leaky.clone(), LEAKY, "leaky.c")
            } else {
                (expected_clean.clone(), CLEAN, "clean.c")
            };
            std::thread::spawn(move || {
                for _ in 0..3 {
                    let (status, body) =
                        request(addr, "POST", "/scan", &scan_body(source, name), "");
                    assert_eq!(status, 200, "body: {body}");
                    assert_eq!(body, expected, "batched serving changed a result");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }

    // The clean source came back `scanned` with zero findings — the
    // structured "no findings" shape, not an error.
    let parsed = Json::parse(&expected_clean).unwrap();
    assert_eq!(parsed.get("status").unwrap().as_str(), Some("scanned"));
    assert_eq!(parsed.get("gadgets").unwrap().as_f64(), Some(0.0));

    handle.shutdown();
}

#[test]
fn metrics_expose_requests_latency_batches_and_queue() {
    let (handle, _path) = serve("metrics", test_config());
    let addr = handle.addr();
    for _ in 0..3 {
        let (status, _) = request(addr, "POST", "/scan", &scan_body(LEAKY, "x.c"), "");
        assert_eq!(status, 200);
    }
    let (status, _) = request(addr, "GET", "/healthz", "", "");
    assert_eq!(status, 200);
    let (status, text) = request(addr, "GET", "/metrics", "", "");
    assert_eq!(status, 200);
    for needle in [
        "sevuldet_requests_total{endpoint=\"scan\"} 3",
        "sevuldet_requests_total{endpoint=\"healthz\"} 1",
        "sevuldet_responses_total{code=\"200\"}",
        "sevuldet_scan_latency_seconds_bucket{le=\"+Inf\"} 3",
        "sevuldet_scan_latency_seconds_count 3",
        "sevuldet_batch_size_bucket",
        "sevuldet_batch_size_count",
        "sevuldet_queue_depth 0",
        "sevuldet_model_reloads_total 0",
        "sevuldet_model_version 1",
        "sevuldet_rejected_total{reason=\"queue_full\"} 0",
        // Per-stage duration histograms, fed by the trace observer even
        // though span *recording* stays off in serve.
        "sevuldet_stage_duration_seconds_bucket{stage=\"serve.forward\",le=\"+Inf\"}",
        "sevuldet_stage_duration_seconds_count{stage=\"serve.queue_wait\"}",
        "sevuldet_stage_duration_seconds_count{stage=\"serve.batch_assembly\"}",
    ] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }
    handle.shutdown();
}

#[test]
fn every_response_carries_a_unique_trace_id() {
    let (handle, _path) = serve("traceid", test_config());
    let addr = handle.addr();

    let trace_id = |raw: &str| -> String {
        raw.lines()
            .find_map(|l| l.strip_prefix("X-Trace-Id: "))
            .unwrap_or_else(|| panic!("no X-Trace-Id header in:\n{raw}"))
            .trim()
            .to_string()
    };

    let a = trace_id(&request_raw(addr, "POST", "/scan", &scan_body(LEAKY, "x.c"), "").2);
    let b = trace_id(&request_raw(addr, "GET", "/healthz", "", "").2);
    // Even protocol errors are tagged.
    let c = trace_id(&request_raw(addr, "PATCH", "/scan", "", "").2);

    for id in [&a, &b, &c] {
        // Shape: `xxxxxxxx-xxxxxx` (process fingerprint + sequence).
        let (fp, seq) = id.split_once('-').expect("fingerprint-seq shape");
        assert!(fp.chars().all(|c| c.is_ascii_hexdigit()), "bad id {id}");
        assert!(seq.chars().all(|c| c.is_ascii_hexdigit()), "bad id {id}");
    }
    assert_ne!(a, b);
    assert_ne!(b, c);
    assert_ne!(a, c);

    handle.shutdown();
}

#[test]
fn reload_swaps_model_without_dropping_requests() {
    let (handle, path) = serve("reload", test_config());
    let addr = handle.addr();

    let before = request(addr, "POST", "/scan", &scan_body(LEAKY, "x.c"), "");
    assert_eq!(before.0, 200);

    // Swap the file for a model trained with a different seed and keep
    // scanning from other threads while the reload happens.
    std::fs::write(&path, model_text(7)).expect("swap model file");
    let in_flight: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                for _ in 0..5 {
                    let (status, body) =
                        request(addr, "POST", "/scan", &scan_body(LEAKY, "x.c"), "");
                    assert_eq!(status, 200, "in-flight scan dropped during reload: {body}");
                }
            })
        })
        .collect();
    let (status, body) = request(addr, "POST", "/reload", "", "");
    assert_eq!(status, 200, "{body}");
    let doc = Json::parse(&body).unwrap();
    assert_eq!(doc.get("reloaded").unwrap().as_bool(), Some(true));
    assert_eq!(doc.get("version").unwrap().as_f64(), Some(2.0));
    for t in in_flight {
        t.join()
            .expect("no in-flight request may fail during reload");
    }

    // Post-reload scans score with the new model.
    let expected_new = score_source(&detector(7), LEAKY, 1)
        .expect("scans")
        .to_json("x.c")
        .to_string();
    let after = request(addr, "POST", "/scan", &scan_body(LEAKY, "x.c"), "");
    assert_eq!(after.0, 200);
    assert_eq!(after.1, expected_new, "reload did not take effect");
    assert_ne!(after.1, before.1, "seed-7 model should score differently");

    let (_, metrics) = request(addr, "GET", "/metrics", "", "");
    assert!(metrics.contains("sevuldet_model_reloads_total 1"));
    assert!(metrics.contains("sevuldet_model_version 2"));
    handle.shutdown();
}

#[test]
fn full_queue_answers_429_not_blocking() {
    let (handle, _path) = serve(
        "backpressure",
        ServeConfig {
            workers: 1,
            max_batch: 1,
            queue_cap: 1,
            batch_delay: Duration::from_millis(400),
            ..test_config()
        },
    );
    let addr = handle.addr();

    // Establish every connection first, then fire all requests at once.
    // The submissions land within one 400ms batch window, so the single
    // slow worker can absorb at most one job plus the one queue slot — the
    // rest must bounce with 429 immediately rather than block.
    let body = scan_body(CLEAN, "c");
    let req = format!(
        "POST /scan HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut streams: Vec<TcpStream> = (0..8).map(|_| connect(addr, 60)).collect();
    std::thread::sleep(Duration::from_millis(200)); // all accepted
    for s in &mut streams {
        s.write_all(req.as_bytes()).expect("send");
    }
    let (mut saw_200, mut saw_429) = (0, 0);
    for mut s in streams {
        let resp = read_response(&mut s, &mut Vec::new()).expect("response");
        let (status, body) = status_body(&resp);
        match status {
            200 => saw_200 += 1,
            429 => {
                assert!(body.contains("queue full"), "{body}");
                saw_429 += 1;
            }
            other => panic!("unexpected status {other}: {body}"),
        }
    }
    assert!(saw_200 > 0, "the accepted request still completes");
    assert!(saw_429 > 0, "a full queue must reject with 429");
    let (_, metrics) = request(addr, "GET", "/metrics", "", "");
    assert!(metrics.contains("sevuldet_rejected_total{reason=\"queue_full\"}"));
    handle.shutdown();
}

#[test]
fn expired_deadline_answers_504() {
    let (handle, _path) = serve(
        "deadline",
        ServeConfig {
            workers: 1,
            max_batch: 1,
            queue_cap: 8,
            batch_delay: Duration::from_millis(300),
            ..test_config()
        },
    );
    let addr = handle.addr();
    // First request is popped immediately (passes its deadline check) and
    // holds the worker for ~300ms; the second's 100ms deadline expires
    // while it waits in the queue.
    let first =
        std::thread::spawn(move || request(addr, "POST", "/scan", &scan_body(CLEAN, "a"), "").0);
    std::thread::sleep(Duration::from_millis(100));
    let (status, body) = request(
        addr,
        "POST",
        "/scan",
        &scan_body(CLEAN, "b"),
        "X-Deadline-Ms: 100\r\n",
    );
    assert_eq!(status, 504, "{body}");
    assert!(body.contains("deadline"), "{body}");
    assert_eq!(first.join().unwrap(), 200);
    let (_, metrics) = request(addr, "GET", "/metrics", "", "");
    assert!(metrics.contains("sevuldet_rejected_total{reason=\"deadline\"} 1"));
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_queued_jobs() {
    let (handle, _path) = serve(
        "drain",
        ServeConfig {
            workers: 1,
            max_batch: 1,
            queue_cap: 8,
            batch_delay: Duration::from_millis(200),
            ..test_config()
        },
    );
    let addr = handle.addr();
    let clients: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || request(addr, "POST", "/scan", &scan_body(LEAKY, "x.c"), ""))
        })
        .collect();
    // Let the requests reach the queue, then drain.
    std::thread::sleep(Duration::from_millis(100));
    handle.shutdown();
    for c in clients {
        let (status, body) = c.join().expect("client");
        assert_eq!(status, 200, "queued job dropped during drain: {body}");
    }
}

/// A client that sends half a request head and stalls gets `408` once the
/// header deadline lapses — the slowloris defence.
#[test]
fn slowloris_partial_head_answers_408() {
    let (handle, _path) = serve(
        "slowloris",
        ServeConfig {
            header_deadline: Duration::from_millis(300),
            ..test_config()
        },
    );
    let addr = handle.addr();
    let mut stream = connect(addr, 10);
    stream.write_all(b"POST /scan HTT").expect("partial head");
    let resp = read_response(&mut stream, &mut Vec::new()).expect("408 answer");
    let (status, body) = status_body(&resp);
    assert_eq!(status, 408, "{body}");
    assert!(body.contains("timeout reading request head"), "{body}");

    let (_, metrics) = request(addr, "GET", "/metrics", "", "");
    let series = "sevuldet_connections_closed_total{reason=\"header_timeout\"}";
    assert_eq!(metric_value(&metrics, series), 1.0);
    handle.shutdown();
}

/// Once the head is complete, the deadline bounds each pause between body
/// reads, not the whole body: a body that keeps arriving for longer than
/// the deadline is answered.
#[test]
fn slow_body_after_complete_head_is_not_cut_off() {
    let (handle, _path) = serve(
        "slowbody",
        ServeConfig {
            header_deadline: Duration::from_millis(500),
            ..test_config()
        },
    );
    let body = scan_body(CLEAN, "slow.c");
    let head = format!(
        "POST /scan HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    let mut stream = connect(handle.addr(), 10);
    stream.write_all(head.as_bytes()).expect("head");
    // Eight pieces 120 ms apart: ~1 s in all, each pause well inside 500 ms.
    for piece in body.as_bytes().chunks(body.len().div_ceil(8)) {
        std::thread::sleep(Duration::from_millis(120));
        stream.write_all(piece).expect("body piece");
    }
    let resp = read_response(&mut stream, &mut Vec::new()).expect("answer");
    let (status, body) = status_body(&resp);
    assert_eq!(status, 200, "{body}");
    handle.shutdown();
}

/// A body that stops arriving after a complete head gets `408` once the
/// deadline passes without a read, so a stalled upload cannot hold its
/// connection and buffer forever.
#[test]
fn stalled_body_answers_408() {
    let (handle, _path) = serve(
        "stalledbody",
        ServeConfig {
            header_deadline: Duration::from_millis(300),
            ..test_config()
        },
    );
    let body = scan_body(CLEAN, "stalled.c");
    let req = format!(
        "POST /scan HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut stream = connect(handle.addr(), 10);
    stream
        .write_all(&req.as_bytes()[..req.len() - 1])
        .expect("all but the last byte");
    let resp = read_response(&mut stream, &mut Vec::new()).expect("408 answer");
    let (status, body) = status_body(&resp);
    assert_eq!(status, 408, "{body}");
    assert!(body.contains("timeout reading request body"), "{body}");
    handle.shutdown();
}

/// Writes `head` (a send error is acceptable: the server may answer and
/// reset before the whole head is written) and returns the answer status.
fn status_of_oversized(addr: std::net::SocketAddr, head: &str) -> u16 {
    let mut stream = connect(addr, 10);
    let _ = stream.write_all(head.as_bytes());
    read_response(&mut stream, &mut Vec::new())
        .expect("answered before the close")
        .status
}

/// A request head larger than the cap answers `431` without waiting for
/// its end; a declared body beyond the cap answers `413` before the upload
/// finishes.
#[test]
fn oversized_head_answers_431_and_body_413() {
    let (handle, _path) = serve("oversized", test_config());
    let huge_head = format!(
        "GET /healthz HTTP/1.1\r\nX-Padding: {}\r\n",
        "a".repeat(20 * 1024)
    );
    assert_eq!(status_of_oversized(handle.addr(), &huge_head), 431);
    let huge_body = format!(
        "POST /scan HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
        8 * 1024 * 1024
    );
    assert_eq!(status_of_oversized(handle.addr(), &huge_body), 413);
    handle.shutdown();
}

/// Several requests written back-to-back in a single TCP segment are
/// answered in order on the same connection — the pipelining regression
/// test for the event loop's buffer management.
#[test]
fn pipelined_requests_answer_in_order() {
    let (handle, _path) = serve("pipeline", test_config());
    let det = detector(42);
    let expected_a = score_source(&det, LEAKY, 1)
        .expect("scans")
        .to_json("a.c")
        .to_string();
    let expected_b = score_source(&det, CLEAN, 1)
        .expect("scans")
        .to_json("b.c")
        .to_string();

    let mut stream = connect(handle.addr(), 60);
    let mut burst = Vec::new();
    for (source, name) in [(LEAKY, "a.c"), (CLEAN, "b.c")] {
        let body = scan_body(source, name);
        burst.extend_from_slice(
            format!(
                "POST /scan HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        );
    }
    burst.extend_from_slice(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    stream.write_all(&burst).expect("pipelined burst");

    let mut buf = Vec::new();
    let mut next = || status_body(&read_response(&mut stream, &mut buf).expect("response"));
    assert_eq!(next(), (200, expected_a), "first pipelined response");
    assert_eq!(next(), (200, expected_b), "second pipelined response");
    let (s3, b3) = next();
    assert_eq!(s3, 200, "{b3}");
    assert!(b3.contains("\"status\":\"ok\""), "{b3}");
    handle.shutdown();
}

/// `Connection: close` is honoured mid-pipeline: the socket closes after
/// the first response even with a second request already buffered.
#[test]
fn connection_close_is_honoured() {
    let (handle, _path) = serve("connclose", test_config());
    let mut stream = connect(handle.addr(), 30);
    stream
        .write_all(
            b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n\
              GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
        )
        .expect("send");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read to close");
    let (resp, used) = parse_response_buffer(&raw)
        .expect("framed")
        .expect("one full response");
    assert_eq!(resp.status, 200);
    assert!(resp.close, "the answer must announce the close");
    assert_eq!(
        used,
        raw.len(),
        "server answered past Connection: close:\n{}",
        String::from_utf8_lossy(&raw)
    );
    handle.shutdown();
}

/// EAGAIN torture: kernel socket buffers shrunk to ~1KiB force the loop
/// through partial reads on large uploads and partial writes (EPOLLOUT
/// resumption) on large responses, three requests on one keep-alive
/// connection. The `name` field round-trips into the report, making the
/// response itself large.
#[test]
fn eagain_torture_with_tiny_socket_buffers() {
    let (handle, _path) = serve(
        "eagain",
        ServeConfig {
            sock_buf_bytes: Some(1024),
            ..test_config()
        },
    );
    let big_name = "n".repeat(64 * 1024);
    let body = scan_body(CLEAN, &big_name);
    let req = format!(
        "POST /scan HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );

    let mut stream = connect(handle.addr(), 60);
    let mut buf = Vec::new();
    for round in 0..3 {
        // Dribble the upload in small chunks so the server keeps hitting
        // EAGAIN between reads.
        for chunk in req.as_bytes().chunks(1500) {
            stream.write_all(chunk).expect("chunk");
            std::thread::sleep(Duration::from_micros(200));
        }
        let resp = read_response(&mut stream, &mut buf).expect("response");
        let (status, resp) = status_body(&resp);
        assert_eq!(status, 200, "round {round}: {resp}");
        assert!(
            resp.contains(&big_name),
            "round {round}: large response truncated ({} bytes)",
            resp.len()
        );
    }
    handle.shutdown();
}

/// Accepts beyond `max_connections` are shed at accept time and counted;
/// established connections keep working.
#[test]
fn over_capacity_accepts_are_shed_and_counted() {
    let (handle, _path) = serve(
        "overcap",
        ServeConfig {
            max_connections: 2,
            ..test_config()
        },
    );
    let addr = handle.addr();
    let streams: Vec<TcpStream> = (0..5).map(|_| connect(addr, 10)).collect();
    std::thread::sleep(Duration::from_millis(200)); // loop accepted/shed all

    let mut ok = 0;
    let mut shed = 0;
    for mut s in streams {
        let sent = s
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            .is_ok();
        if sent && read_response(&mut s, &mut Vec::new()).is_some_and(|r| r.status == 200) {
            ok += 1;
        } else {
            shed += 1;
        }
    }
    assert!(ok >= 1, "held connections must keep working");
    assert!(shed >= 1, "excess connections must be shed");

    // The held slots are free again, so a fresh metrics request succeeds
    // (retry while the loop notices the closures).
    let metrics = (0..50)
        .find_map(|_| {
            std::thread::sleep(Duration::from_millis(50));
            match try_request(addr, "GET", "/metrics", "", "") {
                Some((200, metrics, _)) => Some(metrics),
                _ => None,
            }
        })
        .expect("metrics after slots freed");
    let series = "sevuldet_connections_closed_total{reason=\"over_capacity\"}";
    assert!(
        metric_value(&metrics, series) >= 1.0,
        "shed connections must be counted:\n{metrics}"
    );
    handle.shutdown();
}

/// A thousand idle keep-alive connections held open at once: the server
/// stays live, the gauge reflects them, and every one still answers.
#[test]
fn a_thousand_idle_connections_stay_serviceable() {
    let (handle, _path) = serve("idle1k", test_config());
    let addr = handle.addr();
    const N: usize = 1000;
    let mut conns: Vec<TcpStream> = Vec::with_capacity(N);
    for i in 0..N {
        conns.push(connect(addr, 60));
        if i % 128 == 0 {
            std::thread::sleep(Duration::from_millis(2)); // pace the storm
        }
    }
    // Give the loop a beat to drain the accept queue, then confirm the
    // gauge sees them (the +1 is our metrics connection itself).
    let open = (0..100)
        .map(|_| {
            std::thread::sleep(Duration::from_millis(50));
            let (status, text) = request(addr, "GET", "/metrics", "", "");
            assert_eq!(status, 200);
            metric_value(&text, "sevuldet_open_connections")
        })
        .find(|&open| open >= N as f64)
        .expect("gauge never reached 1000 open connections");
    assert!(open >= N as f64);

    // Every held connection is still serviceable — exercise a sample.
    let body = scan_body(CLEAN, "idle.c");
    let req = format!(
        "POST /scan HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    for i in (0..N).step_by(100) {
        conns[i]
            .write_all(req.as_bytes())
            .expect("send on idle conn");
        let resp = read_response(&mut conns[i], &mut Vec::new()).expect("response");
        let (status, resp) = status_body(&resp);
        assert_eq!(status, 200, "idle conn #{i}: {resp}");
    }
    drop(conns);
    handle.shutdown();
}
