//! [`ServeExecutor`] over real sockets (ISSUE 10 satellite): ephemeral
//! `mcm serve` workers on `127.0.0.1:0`, driven through the same
//! [`run_sweep_on`] entry point every local sweep uses. Three contracts
//! are pinned:
//!
//! 1. **Parity** — a sweep through remote workers exports byte-identically
//!    to the same sweep on a [`RayonExecutor`], fault axis included.
//! 2. **Dedup** — resubmitting the same sweep is answered from the
//!    workers' shared store (`simulated_points` does not move), and a
//!    client-side checkpoint log turns a third run into pure `resumed`
//!    provenance without touching the wire for those points.
//! 3. **Failover** — shutting a worker down mid-sweep re-queues its
//!    points onto a survivor sharing the store, and the sweep still
//!    finishes byte-identical to a local run.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use mcm_load::HdOperatingPoint;
use mcm_serve::{ServeConfig, ServeExecutor, Server};
use mcm_sweep::{run_sweep_on, CheckpointLog, RayonExecutor, SweepOptions, SweepSpec};

/// One worker: a [`Server`] on an ephemeral port, its accept loop on a
/// background thread.
struct Worker {
    addr: SocketAddr,
    thread: Option<std::thread::JoinHandle<()>>,
}

fn spawn_worker(store_dir: &Path) -> Worker {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        store_dir: store_dir.to_path_buf(),
        max_jobs: 2,
        threads: Some(1),
    };
    let server = Arc::new(Server::bind(config).expect("ephemeral bind succeeds"));
    let addr = server.local_addr();
    let thread = std::thread::spawn(move || {
        server.run().expect("server loop exits cleanly");
    });
    Worker {
        addr,
        thread: Some(thread),
    }
}

impl Worker {
    fn addr_string(&self) -> String {
        self.addr.to_string()
    }

    /// `GET /healthz` → `simulated_points`: how many points this worker's
    /// executor actually simulated (the dedup counter).
    fn simulated_points(&self) -> u64 {
        let raw = raw_call(self.addr, "GET /healthz HTTP/1.1\r\n\r\n");
        let body = raw.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
        let doc: serde::Value = serde_json::from_str(body.trim()).expect("healthz is JSON");
        doc.get("simulated_points")
            .and_then(|v| v.as_u64())
            .expect("healthz reports simulated_points")
    }

    /// `POST /shutdown` and join the accept loop: from here on the worker
    /// refuses connections, exactly like a crashed process.
    fn stop(mut self) {
        let raw = raw_call(
            self.addr,
            "POST /shutdown HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
        );
        assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
        self.thread
            .take()
            .expect("worker thread still running")
            .join()
            .expect("worker thread exits without panicking");
    }
}

fn raw_call(addr: SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("worker accepts connections");
    stream.write_all(request.as_bytes()).unwrap();
    stream.flush().unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("response is UTF-8");
    raw
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mcm-serve-exec-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The parity grid: two formats × two channel counts × a fault axis —
/// four healthy and four degraded points, all op-limited for test speed.
/// (The fault plan must fit every cell: losing a channel of one leaves
/// nothing to record with, and such points fail with a *typed* local
/// error whose rendering necessarily differs from its wire round-trip.)
fn spec() -> SweepSpec {
    SweepSpec {
        points: vec![HdOperatingPoint::Hd720p30, HdOperatingPoint::Hd1080p30],
        channels: vec![2, 4],
        faults: vec![None, Some(mcm_fault::FaultPlan::channel_loss(5, 0))],
        op_limit: Some(2_000),
        ..SweepSpec::default()
    }
}

#[test]
fn remote_sweeps_export_byte_identically_to_local_ones() {
    let store = tmp_dir("parity");
    let worker = spawn_worker(&store);
    let remote_exec =
        ServeExecutor::connect(&[worker.addr_string()]).expect("healthy worker connects");

    let local = run_sweep_on(&RayonExecutor::default(), &spec(), &SweepOptions::default()).unwrap();
    let remote = run_sweep_on(&remote_exec, &spec(), &SweepOptions::default()).unwrap();

    // Same provenance (every point freshly simulated, worker-side)...
    assert_eq!(remote.stats.total, local.stats.total);
    assert_eq!(remote.stats.simulated, local.stats.simulated);
    assert_eq!(remote.stats.failed, 0);
    // ...and the exports are the same bytes, fault axis included.
    assert_eq!(remote.to_json(), local.to_json());
    assert_eq!(remote.to_csv(), local.to_csv());

    worker.stop();
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn duplicate_submissions_hit_the_shared_store_and_checkpoints_resume_locally() {
    let store = tmp_dir("dedup");
    let worker = spawn_worker(&store);
    let exec = ServeExecutor::connect(&[worker.addr_string()]).expect("healthy worker connects");

    let first = run_sweep_on(&exec, &spec(), &SweepOptions::default()).unwrap();
    let total = first.stats.total;
    assert_eq!(first.stats.simulated, total);
    let baseline = worker.simulated_points();
    assert_eq!(baseline as usize, total);

    // Same sweep again: answered from the worker's store — the simulation
    // counter must not move, and the client sees cache provenance.
    let second = run_sweep_on(&exec, &spec(), &SweepOptions::default()).unwrap();
    assert_eq!(second.stats.cached, total);
    assert_eq!(worker.simulated_points(), baseline);
    assert_eq!(second.to_json(), first.to_json());

    // With a checkpoint log the client records completed points...
    let log_path =
        std::env::temp_dir().join(format!("mcm-serve-exec-log-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&log_path);
    let log = CheckpointLog::attach(&log_path, &spec(), false).unwrap();
    let third = run_sweep_on(
        &exec,
        &spec(),
        &SweepOptions::default().with_checkpoint(log.clone()),
    )
    .unwrap();
    assert_eq!(third.stats.cached, total);
    assert_eq!(log.len(), total, "store hits are checkpointed too");

    // ...and answers them itself on the next run: pure `resumed`
    // provenance, nothing on the wire, counter still parked.
    let fourth = run_sweep_on(
        &exec,
        &spec(),
        &SweepOptions::default().with_checkpoint(log),
    )
    .unwrap();
    assert_eq!(fourth.stats.resumed, total);
    assert_eq!(fourth.stats.simulated + fourth.stats.cached, 0);
    assert_eq!(worker.simulated_points(), baseline);
    assert_eq!(fourth.to_json(), first.to_json());

    worker.stop();
    let _ = std::fs::remove_file(&log_path);
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn a_dead_workers_points_requeue_onto_a_survivor() {
    let store = tmp_dir("failover");
    let survivor = spawn_worker(&store);
    let casualty = spawn_worker(&store);
    let exec = Arc::new(
        ServeExecutor::connect(&[survivor.addr_string(), casualty.addr_string()])
            .expect("both workers connect"),
    );

    // Long enough per point that the kill lands mid-sweep; the test stays
    // correct either way (a finished batch on a dead worker re-queues too,
    // and the shared store answers it without re-simulating).
    let heavy = SweepSpec {
        points: vec![HdOperatingPoint::Hd720p30],
        channels: vec![1, 2, 4, 8],
        clocks_mhz: vec![200, 400],
        op_limit: Some(30_000),
        ..SweepSpec::default()
    };

    let sweep_exec = Arc::clone(&exec);
    let heavy_spec = heavy.clone();
    let sweep = std::thread::spawn(move || {
        run_sweep_on(&*sweep_exec, &heavy_spec, &SweepOptions::default())
    });
    std::thread::sleep(std::time::Duration::from_millis(100));
    casualty.stop();

    let remote = sweep.join().expect("sweep thread survives").unwrap();
    assert_eq!(remote.stats.total, 8);
    assert_eq!(
        remote.stats.failed, 0,
        "no point may be lost to the dead worker"
    );
    for p in &remote.points {
        assert!(p.outcome.is_ok(), "{}: {:?}", p.label, p.outcome);
    }

    // Byte-identity with an uninterrupted local run of the same grid.
    let local = run_sweep_on(&RayonExecutor::default(), &heavy, &SweepOptions::default()).unwrap();
    assert_eq!(remote.to_json(), local.to_json());
    assert_eq!(remote.to_csv(), local.to_csv());

    survivor.stop();
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn connecting_to_a_dead_address_is_a_typed_remote_error() {
    // Bind-then-drop guarantees a port nobody is listening on.
    let port = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().port()
    };
    let err = ServeExecutor::connect(&[format!("127.0.0.1:{port}")]).unwrap_err();
    let text = err.to_string();
    assert!(text.contains("remote worker"), "{text}");
    assert!(text.contains(&port.to_string()), "{text}");

    let err = ServeExecutor::connect(&[]).unwrap_err();
    assert!(err.to_string().contains("no worker addresses"), "{}", err);
}
