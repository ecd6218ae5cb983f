//! End-to-end tests over a real socket: a [`Server`] bound to an ephemeral
//! port, driven by a hand-rolled HTTP client. These pin the service
//! contract the CLI smoke job and external clients rely on — most
//! importantly that a duplicate `POST /runs` is answered from the store
//! without the executor simulating anything.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mcm_core::{Experiment, RunOptions};
use mcm_load::HdOperatingPoint;
use mcm_serve::{ServeConfig, Server};
use mcm_sweep::PointRecord;

/// One parsed HTTP response: status code and JSON body.
struct Reply {
    status: u16,
    body: serde::Value,
}

/// Sends one request and reads the full response (the server closes the
/// connection after answering, so read-to-end terminates).
fn call(addr: std::net::SocketAddr, method: &str, path: &str, body: Option<&str>) -> Reply {
    let mut stream = TcpStream::connect(addr).expect("server accepts connections");
    let body = body.unwrap_or("");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).unwrap();
    stream.flush().unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("response is UTF-8");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed status line in {raw:?}"));
    let json_text = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or_default();
    let body = if json_text.trim().is_empty() {
        serde::Value::Null
    } else {
        serde_json::from_str(json_text.trim())
            .unwrap_or_else(|e| panic!("response body is not JSON ({e:?}): {json_text}"))
    };
    Reply { status, body }
}

/// A running server on an ephemeral port with a throwaway store.
struct Harness {
    addr: std::net::SocketAddr,
    store_dir: std::path::PathBuf,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Harness {
    fn start(name: &str, max_jobs: usize) -> Harness {
        let store_dir =
            std::env::temp_dir().join(format!("mcm-serve-e2e-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&store_dir);
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            store_dir: store_dir.clone(),
            max_jobs,
            threads: Some(1),
        };
        let server = Arc::new(Server::bind(config).expect("ephemeral bind succeeds"));
        let addr = server.local_addr();
        let runner = Arc::clone(&server);
        let thread = std::thread::spawn(move || {
            runner.run().expect("server loop exits cleanly");
        });
        Harness {
            addr,
            store_dir,
            thread: Some(thread),
        }
    }

    fn call(&self, method: &str, path: &str, body: Option<&str>) -> Reply {
        call(self.addr, method, path, body)
    }

    /// Polls a job until it reaches a terminal state.
    fn wait_terminal(&self, job: u64) -> serde::Value {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let reply = self.call("GET", &format!("/jobs/{job}"), None);
            assert_eq!(reply.status, 200, "{:?}", reply.body);
            let status = reply
                .body
                .get("status")
                .and_then(|v| v.as_str())
                .unwrap_or_default()
                .to_string();
            if matches!(status.as_str(), "done" | "cancelled" | "failed") {
                return reply.body;
            }
            assert!(
                Instant::now() < deadline,
                "job {job} still `{status}` after 60s"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    fn simulated_points(&self) -> u64 {
        let health = self.call("GET", "/healthz", None);
        assert_eq!(health.status, 200);
        health
            .body
            .get("simulated_points")
            .and_then(|v| v.as_u64())
            .expect("healthz reports simulated_points")
    }

    fn shutdown(mut self) {
        let reply = self.call("POST", "/shutdown", None);
        assert_eq!(reply.status, 200);
        self.thread
            .take()
            .expect("server thread still running")
            .join()
            .expect("server thread exits without panicking");
        let _ = std::fs::remove_dir_all(&self.store_dir);
    }
}

/// A fast healthy run body: the paper headline coordinates, op-limited to
/// the repo's established quick-test budget.
const SMALL_RUN: &str =
    r#"{"format": "1080p30", "channels": 4, "clock_mhz": 400, "op_limit": 2000}"#;

#[test]
fn health_routing_and_refusals() {
    let h = Harness::start("routing", 1);

    let health = h.call("GET", "/healthz", None);
    assert_eq!(health.status, 200);
    assert_eq!(
        health.body.get("status").and_then(|v| v.as_str()),
        Some("ok")
    );

    assert_eq!(h.call("GET", "/nope", None).status, 404);
    assert_eq!(h.call("PUT", "/runs", None).status, 405);
    assert_eq!(h.call("GET", "/jobs/zero", None).status, 400);
    assert_eq!(h.call("GET", "/jobs/999", None).status, 404);

    let bad = h.call("POST", "/runs", Some("{not json"));
    assert_eq!(bad.status, 400);
    assert!(bad.body.get("error").is_some());

    // A full experiment is validated as the shorthand is, before queueing.
    let mut zero_ops = Experiment::paper(HdOperatingPoint::Hd1080p30, 4, 400);
    zero_ops.op_limit = Some(0);
    let zero_ops = format!(
        r#"{{"experiment": {}}}"#,
        serde_json::to_string(&zero_ops).unwrap()
    );
    // Unknown keys and values of the wrong JSON type are refusals that
    // name the key, not silent defaults.
    for (path, body, key) in [
        ("/runs", r#"{"run": {"verfy": true}}"#, "verfy"),
        ("/runs", r#"{"run": {"frames": 4294967297}}"#, "run.frames"),
        (
            "/runs",
            r#"{"run": {"execution": "memoized"}}"#,
            "execution",
        ),
        ("/runs", r#"{"execution": "memoized"}"#, "execution"),
        ("/runs", r#"{"op_limt": 2000}"#, "op_limt"),
        ("/runs", r#"{"channels": "2"}"#, "channels"),
        ("/runs", r#"{"clock_mhz": "266"}"#, "clock_mhz"),
        ("/runs", r#"{"format": 1080}"#, "format"),
        ("/runs", r#"{"op_limit": -1}"#, "op_limit"),
        ("/runs", r#"{"op_limit": 0}"#, "op_limit"),
        ("/runs", r#"{"run": {"op_limit": 0}}"#, "run.op_limit"),
        ("/runs", zero_ops.as_str(), "experiment"),
        ("/runs", r#"{"experiment": {"memory": 4}}"#, "experiment"),
        ("/runs", r#"{"label": 7}"#, "label"),
        (
            "/sweeps",
            r#"{"spec": {"channels": [4]}, "verfy": true}"#,
            "verfy",
        ),
        (
            "/sweeps",
            r#"{"spec": {"channels": [4]}, "execution": {}}"#,
            "execution",
        ),
        (
            "/sweeps",
            r#"{"spec": {"channels": [4]}, "verify": "yes"}"#,
            "verify",
        ),
        (
            "/sweeps",
            r#"{"spec": {"channels": [4]}, "threads": 1.5}"#,
            "threads",
        ),
        (
            "/sweeps",
            r#"{"channels": [4], "execution": {}}"#,
            "execution",
        ),
        (
            "/sweeps",
            r#"{"spec": {"channels": [4]}, "observe": true}"#,
            "observe",
        ),
    ] {
        let reply = h.call("POST", path, Some(body));
        assert_eq!(reply.status, 400, "{path} {body}: {:?}", reply.body);
        let error = reply.body.get("error").and_then(|v| v.as_str());
        assert!(
            error.is_some_and(|e| e.contains(&format!("`{key}`"))),
            "{path} {body}: {error:?}"
        );
    }
    let not_an_object = h.call("POST", "/runs", Some("[4]"));
    assert_eq!(not_an_object.status, 400, "{:?}", not_an_object.body);
    assert_eq!(h.simulated_points(), 0, "a refused body queues nothing");

    h.shutdown();
}

/// A body of 100 000 `[` (100 KB, under the body cap) is refused with a
/// 400 naming the nesting cap, and the server answers the next client: the
/// parser used to recurse once per level and overflow the stack of the
/// thread that reads requests, aborting the process.
#[test]
fn deeply_nested_json_is_refused() {
    let h = Harness::start("nested", 1);
    let reply = h.call("POST", "/runs", Some(&"[".repeat(100_000)));
    assert_eq!(reply.status, 400, "{:?}", reply.body);
    // The parse error reads as its message, not as the error's `Debug`.
    assert_eq!(
        reply.body.get("error").and_then(|v| v.as_str()),
        Some("body is not JSON: nesting deeper than 128 levels at byte 128")
    );
    assert_eq!(h.call("GET", "/healthz", None).status, 200);
    assert_eq!(h.simulated_points(), 0, "a refused body queues nothing");
    h.shutdown();
}

/// A body of 200 000 distinct keys (about 2.3 MB, under the body cap) is
/// refused with a 400 well inside 5 s, and the server answers the next
/// client: objects used to be built with a scan of every earlier key per
/// key, so such a body took about a minute to parse.
#[test]
fn wide_objects_are_refused_in_linear_time() {
    let h = Harness::start("wide", 1);
    let keys: Vec<String> = (0..200_000).map(|i| format!("\"k{i}\":0")).collect();
    let body = format!("{{{}}}", keys.join(","));
    let start = std::time::Instant::now();
    let reply = h.call("POST", "/runs", Some(&body));
    let took = start.elapsed();
    assert_eq!(reply.status, 400, "{:?}", reply.body);
    assert!(took.as_secs_f64() < 5.0, "200 000 keys took {took:?}");
    assert_eq!(h.call("GET", "/healthz", None).status, 200);
    assert_eq!(h.simulated_points(), 0, "a refused body queues nothing");
    h.shutdown();
}

/// A 64 KiB request line with no newline, on a connection the client keeps
/// open: the server refuses it as soon as the 16 KiB header cap is crossed
/// instead of waiting out its 10 s read timeout, and serves the next
/// client afterwards.
#[test]
fn endless_request_line_is_refused_at_the_header_cap() {
    let h = Harness::start("endless-line", 1);
    let mut stream = TcpStream::connect(h.addr).expect("server accepts connections");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let started = Instant::now();
    // The server may reset the connection once it has answered and closed
    // with part of the line unread, cutting this write short.
    let _ = stream.write_all(&vec![b'A'; 64 * 1024]);
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    while let Ok(n) = stream.read(&mut buf) {
        if n == 0 {
            break;
        }
        raw.extend_from_slice(&buf[..n]);
    }
    let elapsed = started.elapsed();
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 400 "), "{text:?}");
    assert!(text.contains("header section too large"), "{text:?}");
    assert!(
        elapsed < Duration::from_secs(5),
        "answered after {elapsed:?}, not well before the 10 s read timeout"
    );
    assert_eq!(h.call("GET", "/healthz", None).status, 200);
    drop(stream);
    h.shutdown();
}

#[test]
fn infeasible_submissions_carry_a_witness() {
    let h = Harness::start("infeasible", 1);

    // UHD on one channel cannot meet the frame budget; the analyzer's
    // report rides along as the machine-readable witness.
    let reply = h.call(
        "POST",
        "/runs",
        Some(r#"{"format": "2160p30", "channels": 1, "clock_mhz": 400}"#),
    );
    assert_eq!(reply.status, 422, "{:?}", reply.body);
    let reason = reply
        .body
        .get("error")
        .and_then(|v| v.as_str())
        .expect("422 carries an error string");
    assert!(reason.starts_with("MCM4"), "{reason}");
    assert!(reply.body.get("witness").is_some());

    // Nothing was queued and nothing simulated.
    assert_eq!(h.simulated_points(), 0);
    h.shutdown();
}

#[test]
fn duplicate_run_is_answered_from_the_store() {
    let h = Harness::start("dedup", 1);

    // First submission: queued, simulated, completed.
    let first = h.call("POST", "/runs", Some(SMALL_RUN));
    assert_eq!(first.status, 202, "{:?}", first.body);
    assert_eq!(
        first.body.get("cached").and_then(|v| v.as_bool()),
        Some(false)
    );
    let job = first.body.get("job").and_then(|v| v.as_u64()).unwrap();

    let done = h.wait_terminal(job);
    assert_eq!(done.get("status").and_then(|v| v.as_str()), Some("done"));
    let result = done.get("result").expect("finished run carries a result");
    assert!(result.get("record").is_some(), "{result:?}");
    let simulated_once = h.simulated_points();
    assert_eq!(simulated_once, 1);

    // The acceptance pin: an identical submission returns the stored
    // result instantly — 200 (not 202), cached, and the executor's
    // simulation counter does not move.
    let second = h.call("POST", "/runs", Some(SMALL_RUN));
    assert_eq!(second.status, 200, "{:?}", second.body);
    assert_eq!(
        second.body.get("cached").and_then(|v| v.as_bool()),
        Some(true)
    );
    assert_eq!(
        second.body.get("status").and_then(|v| v.as_str()),
        Some("done")
    );
    assert!(second.body.get("result").is_some());
    assert_eq!(h.simulated_points(), simulated_once);

    // A *different* experiment is not a store hit.
    let other = h.call(
        "POST",
        "/runs",
        Some(r#"{"format": "1080p30", "channels": 2, "clock_mhz": 400, "op_limit": 2000}"#),
    );
    assert_eq!(other.status, 202, "{:?}", other.body);
    let other_job = other.body.get("job").and_then(|v| v.as_u64()).unwrap();
    h.wait_terminal(other_job);
    assert_eq!(h.simulated_points(), simulated_once + 1);

    // Both jobs are listed, results elided from the listing.
    let listing = h.call("GET", "/jobs", None);
    assert_eq!(listing.status, 200);
    let jobs = match listing.body.get("jobs") {
        Some(serde::Value::Array(a)) => a.clone(),
        other => panic!("expected jobs array, got {other:?}"),
    };
    assert!(jobs.len() >= 3, "store-hit job is listed too: {jobs:?}");
    for j in &jobs {
        assert!(j.get("result").is_none(), "listing elides results: {j:?}");
    }

    h.shutdown();
}

/// A served answer is the in-process answer: the record of a finished
/// `POST /runs` job is, byte for byte, the serialized [`PointRecord`] of
/// the same experiment run in process with default options, and the job
/// document carries nothing but the record and its provenance.
#[test]
fn served_runs_equal_in_process_runs() {
    let h = Harness::start("bits", 1);
    let reply = h.call(
        "POST",
        "/runs",
        Some(r#"{"format": "720p30", "channels": 2, "clock_mhz": 533, "op_limit": 3475}"#),
    );
    assert_eq!(reply.status, 202, "{:?}", reply.body);
    let job = reply.body.get("job").and_then(|v| v.as_u64()).unwrap();
    let done = h.wait_terminal(job);
    assert_eq!(done.get("status").and_then(|v| v.as_str()), Some("done"));
    let result = done.get("result").expect("finished run carries a result");
    let serde::Value::Object(fields) = result else {
        panic!("result is an object: {result:?}");
    };
    assert_eq!(
        fields.keys().map(String::as_str).collect::<Vec<_>>(),
        [
            "label",
            "cached",
            "prelinted",
            "resumed",
            "key",
            "record",
            "error",
            "elapsed_ms"
        ]
    );
    let served = serde_json::to_string(result.get("record").unwrap()).unwrap();

    let mut exp = Experiment::paper(HdOperatingPoint::Hd720p30, 2, 533);
    exp.op_limit = Some(3_475);
    let frame = exp
        .run_with(&RunOptions::default())
        .and_then(|o| o.try_into_frame());
    let record = PointRecord::from_result(frame).unwrap();
    assert_eq!(served, serde_json::to_string(&record).unwrap());
    h.shutdown();
}

#[test]
fn cancelling_a_sweep_leaves_the_store_consistent() {
    // One executor slot: the first sweep occupies it, so the second is
    // deterministically still queued when the cancel lands.
    let h = Harness::start("cancel", 1);

    let occupant = h.call(
        "POST",
        "/sweeps",
        Some(r#"{"spec": {"channels": [4], "op_limit": 2000}}"#),
    );
    assert_eq!(occupant.status, 202, "{:?}", occupant.body);
    let occupant_job = occupant.body.get("job").and_then(|v| v.as_u64()).unwrap();

    let victim = h.call(
        "POST",
        "/sweeps",
        Some(r#"{"spec": {"channels": [1, 2, 4, 8], "op_limit": 2000}}"#),
    );
    assert_eq!(victim.status, 202, "{:?}", victim.body);
    assert_eq!(victim.body.get("total").and_then(|v| v.as_u64()), Some(4));
    let victim_job = victim.body.get("job").and_then(|v| v.as_u64()).unwrap();

    let cancel = h.call("DELETE", &format!("/jobs/{victim_job}"), None);
    assert_eq!(cancel.status, 200, "{:?}", cancel.body);
    let doc = h.wait_terminal(victim_job);
    let status = doc.get("status").and_then(|v| v.as_str()).unwrap();
    // The sweep may have slipped into the freed slot before the cancel
    // landed; either way it must reach a clean terminal state.
    assert!(
        matches!(status, "cancelled" | "done"),
        "unexpected terminal state {status}"
    );
    // The stats document counts cancelled points apart from failures.
    let result = doc
        .get("result")
        .expect("a cancelled sweep carries a result");
    let count = |key: &str| result.get("stats").and_then(|s| s.get(key)?.as_u64());
    let points = result.get("points").and_then(|p| p.as_array()).unwrap();
    let unrun = points
        .iter()
        .filter(|p| {
            p.get("error")
                .and_then(|e| e.as_str())
                .is_some_and(|e| e.contains("cancelled"))
        })
        .count() as u64;
    assert_eq!(count("cancelled"), Some(unrun), "{result:?}");
    assert_eq!(count("failed"), Some(0), "{result:?}");
    assert_eq!(count("total"), Some(4), "{result:?}");

    // Cancelling a finished job reports `cancelled: false`, not an error.
    h.wait_terminal(occupant_job);
    let late = h.call("DELETE", &format!("/jobs/{occupant_job}"), None);
    assert_eq!(late.status, 200);
    assert_eq!(
        late.body.get("cancelled").and_then(|v| v.as_bool()),
        Some(false)
    );

    // The store survived: health is clean and the cancelled spec can be
    // resubmitted and run to completion.
    let retry = h.call(
        "POST",
        "/sweeps",
        Some(r#"{"spec": {"channels": [1, 2, 4, 8], "op_limit": 2000}}"#),
    );
    assert_eq!(retry.status, 202, "{:?}", retry.body);
    let retry_job = retry.body.get("job").and_then(|v| v.as_u64()).unwrap();
    let done = h.wait_terminal(retry_job);
    assert_eq!(done.get("status").and_then(|v| v.as_str()), Some("done"));
    let result = done.get("result").expect("finished sweep carries a result");
    let Some(serde::Value::Object(stats)) = result.get("stats") else {
        panic!("no stats document: {result:?}");
    };
    let keys: Vec<&str> = stats.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "total",
            "simulated",
            "cached",
            "prelinted",
            "infeasible",
            "failed",
            "cancelled"
        ]
    );

    h.shutdown();
}
