//! The `serve` workload: `mcm serve --jobs 1 --threads 1` on loopback,
//! driven by one client connection at a time.
//!
//! The client sends a seeded sequence of `POST /runs` (a closed loop):
//! about a quarter are first sightings of an op-limited configuration
//! (store misses: the server simulates, writes the store record and the
//! job document, and the client polls `GET /jobs/:id` until the record
//! arrives), the rest repeat a configuration already answered (store hits,
//! which also write a job document). After the timed loop every distinct
//! answer is compared with an in-process run of the same configuration.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use mcm_core::{Experiment, RunOptions};
use mcm_load::HdOperatingPoint;
use mcm_sweep::PointRecord;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{median, ms_since, peak_rss_mib, quantile, Clock, Report, Samples};
use crate::Ctx;

/// One request in this many is, on average, a first sighting.
const FIRST_ONE_IN: usize = 4;
/// Pause between two polls of one job. It is fixed and short against a
/// miss (15–20 ms on a 2-vCPU Xeon VM), so a miss's latency is resolved to
/// about one poll round trip instead of to a growing back-off step.
const POLL_PAUSE: Duration = Duration::from_micros(100);
/// Op limits of the pool: 500, 525, …, 3 475. The pool holds more
/// configurations than a run can send first sightings of.
const OP_LIMITS: std::ops::Range<u64> = 0..120;
fn op_limit(k: u64) -> u64 {
    500 + 25 * k
}
/// Operations of the warm-up configuration (not a pool op limit).
const WARMUP_OPS: u64 = 250;
/// The server's peak RSS is read after this many answers: the job table
/// keeps every job, so the peak at the end of a run would grow with how
/// many requests the host let it answer.
const RSS_AFTER: usize = 1_000;

static OPEN: AtomicU32 = AtomicU32::new(0);
static MAX_OPEN: AtomicU32 = AtomicU32::new(0);

/// One configuration: paper coordinates plus an op limit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Config {
    pub point: HdOperatingPoint,
    pub channels: u32,
    pub clock_mhz: u64,
    pub op_limit: u64,
}

impl Config {
    fn format(&self) -> &'static str {
        match self.point {
            HdOperatingPoint::Hd720p30 => "720p30",
            HdOperatingPoint::Hd720p60 => "720p60",
            HdOperatingPoint::Hd1080p30 => "1080p30",
            HdOperatingPoint::Hd1080p60 => "1080p60",
            HdOperatingPoint::Uhd2160p30 => "2160p30",
        }
    }

    pub fn experiment(&self) -> Experiment {
        let mut e = Experiment::paper(self.point, self.channels, self.clock_mhz);
        e.op_limit = Some(self.op_limit);
        e
    }

    fn body(&self) -> String {
        format!(
            "{{\"format\": \"{}\", \"channels\": {}, \"clock_mhz\": {}, \"op_limit\": {}}}",
            self.format(),
            self.channels,
            self.clock_mhz,
            self.op_limit
        )
    }
}

/// The fixed pool — every statically feasible paper cell × every op
/// limit, in seeded order — and the seeded request order.
#[derive(Debug)]
pub struct Sequence {
    pool: Vec<Config>,
    next_new: usize,
    rng: StdRng,
}

impl Sequence {
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pool = Vec::new();
        for point in HdOperatingPoint::ALL {
            for channels in [1u32, 2, 4, 8] {
                for clock_mhz in [200u64, 266, 333, 400, 533] {
                    let cell = Config {
                        point,
                        channels,
                        clock_mhz,
                        op_limit: op_limit(0),
                    };
                    // The server refuses infeasible cells with `422`.
                    if mcm_analyze::verdict(&cell.experiment()).feasible {
                        pool.extend(OP_LIMITS.map(|k| Config {
                            op_limit: op_limit(k),
                            ..cell
                        }));
                    }
                }
            }
        }
        for i in (1..pool.len()).rev() {
            pool.swap(i, rng.gen_range(0..=i));
        }
        Sequence {
            pool,
            next_new: 0,
            rng,
        }
    }

    /// The next request's configuration, and whether it is a first
    /// sighting.
    pub fn next(&mut self) -> (bool, Config) {
        let first = self.next_new == 0
            || (self.rng.gen_range(0..FIRST_ONE_IN) == 0 && self.next_new < self.pool.len());
        if first {
            self.next_new += 1;
            return (true, self.pool[self.next_new - 1]);
        }
        (false, self.pool[self.rng.gen_range(0..self.next_new)])
    }

    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }
}

/// One HTTP/1.1 exchange on a fresh connection: status and JSON body.
pub fn http(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, serde::Value), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let open = OPEN.fetch_add(1, Ordering::SeqCst) + 1;
    MAX_OPEN.fetch_max(open, Ordering::SeqCst);
    let result = (|| {
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        stream
            .write_all(request.as_bytes())
            .map_err(|e| format!("{method} {path}: {e}"))?;
        let mut raw = Vec::new();
        stream
            .read_to_end(&mut raw)
            .map_err(|e| format!("{method} {path}: {e}"))?;
        let text = String::from_utf8(raw).map_err(|_| format!("{method} {path}: not UTF-8"))?;
        let (head, body) = text
            .split_once("\r\n\r\n")
            .ok_or_else(|| format!("{method} {path}: no header end"))?;
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("{method} {path}: bad status line"))?;
        let value = serde_json::from_str(body.trim())
            .map_err(|e| format!("{method} {path}: body is not JSON: {e:?}"))?;
        Ok((status, value))
    })();
    OPEN.fetch_sub(1, Ordering::SeqCst);
    result
}

/// Most client connections this process held open at once.
pub fn max_connections() -> u32 {
    MAX_OPEN.load(Ordering::SeqCst)
}

/// A running `mcm serve` child with its own fresh store.
#[derive(Debug)]
pub struct Server {
    child: Child,
    pub addr: String,
    store: PathBuf,
}

impl Server {
    pub fn start(mcm: &Path, store: PathBuf) -> Result<Server, String> {
        let _ = std::fs::remove_dir_all(&store);
        let mut child = Command::new(mcm)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--jobs",
                "1",
                "--threads",
                "1",
            ])
            .arg("--store")
            .arg(&store)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {} serve: {e}", mcm.display()))?;
        // The first stdout line announces the bound address.
        let mut out = child.stdout.take().ok_or("serve: no stdout")?;
        let mut line = Vec::new();
        let mut byte = [0u8; 1];
        while out.read(&mut byte).map_err(|e| e.to_string())? == 1 && byte[0] != b'\n' {
            line.push(byte[0]);
        }
        let line = String::from_utf8_lossy(&line).to_string();
        let server = Server {
            addr: line
                .split_once("http://")
                .map(|(_, a)| a.trim().to_string())
                .unwrap_or_default(),
            child,
            store,
        };
        if server.addr.is_empty() {
            return Err(format!("serve did not announce an address: `{line}`"));
        }
        let t0 = Instant::now();
        loop {
            match http(&server.addr, "GET", "/healthz", "") {
                Ok((200, _)) => return Ok(server),
                _ if t0.elapsed() > Duration::from_secs(10) => {
                    return Err("serve: /healthz never answered".into())
                }
                _ => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the server to stop, waits for it (killing it after 5 s) and
    /// removes its store.
    pub fn stop(mut self) {
        let _ = http(&self.addr, "POST", "/shutdown", "");
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(5) {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = std::fs::remove_dir_all(&self.store);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Servers not stopped cleanly (set-up-only processes, error paths)
        // are killed; either way the child is waited for.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// What one request produced, as the client saw it.
#[derive(Debug)]
pub struct Answer {
    /// The result record.
    pub record: serde::Value,
    /// Answered from the store, not simulated.
    pub hit: bool,
    /// Round trips of the `GET /jobs/:id` polls.
    pub poll_ms: Vec<f64>,
}

/// Sends one `POST /runs` and, for a queued job, polls until its record
/// arrives.
pub fn request(addr: &str, config: &Config) -> Result<Answer, String> {
    let (status, doc) = http(addr, "POST", "/runs", &config.body())?;
    let record_of = |doc: &serde::Value| {
        doc.get("result")
            .and_then(|r| r.get("record"))
            .filter(|r| !r.is_null())
            .cloned()
            .ok_or_else(|| format!("{config:?}: result has no record: {doc:?}"))
    };
    match status {
        200 => Ok(Answer {
            record: record_of(&doc)?,
            hit: true,
            poll_ms: Vec::new(),
        }),
        202 => {
            let id = doc
                .get("job")
                .and_then(|j| j.as_u64())
                .ok_or("202 without a job id")?;
            let mut poll_ms = Vec::new();
            loop {
                let t0 = Instant::now();
                let (status, doc) = http(addr, "GET", &format!("/jobs/{id}"), "")?;
                poll_ms.push(ms_since(t0));
                if status != 200 {
                    return Err(format!("GET /jobs/{id}: status {status}"));
                }
                match doc.get("status").and_then(|s| s.as_str()) {
                    Some("done") => {
                        return Ok(Answer {
                            record: record_of(&doc)?,
                            hit: false,
                            poll_ms,
                        })
                    }
                    Some("queued" | "running") => std::thread::sleep(POLL_PAUSE),
                    other => return Err(format!("job {id} ended as {other:?}")),
                }
            }
        }
        other => Err(format!("POST /runs {config:?}: status {other}: {doc:?}")),
    }
}

/// The in-process reference answer of a configuration, rendered the way
/// the server renders it. The server observes every run it simulates, so
/// the reference attaches a recorder too: the observed path accumulates
/// energy per burst and may differ from the unobserved one in the last
/// digits of `core_mw`.
fn reference(config: &Config) -> Result<String, String> {
    let options =
        RunOptions::default().with_recorder(std::sync::Arc::new(mcm_obs::StatsRecorder::new()));
    let result = config
        .experiment()
        .run_with(&options)
        .and_then(|o| o.try_into_frame());
    let record = PointRecord::from_result(result).map_err(|e| e.to_string())?;
    let text = serde_json::to_string(&record).map_err(|e| format!("{e:?}"))?;
    canonical(&serde_json::from_str(&text).map_err(|e| format!("{e:?}"))?)
}

fn canonical(v: &serde::Value) -> Result<String, String> {
    serde_json::to_string(v).map_err(|e| format!("{e:?}"))
}

/// Checks every distinct answer against [`reference`] on two threads.
fn verify(answers: &[(Config, String)]) -> Vec<String> {
    let check = |part: &[(Config, String)]| -> Vec<String> {
        part.iter()
            .filter_map(|(config, text)| match reference(config) {
                Ok(expected) if expected == *text => None,
                Ok(expected) => Some(format!(
                    "{config:?}: server answered {text}, in-process {expected}"
                )),
                Err(e) => Some(format!("{config:?}: reference run failed: {e}")),
            })
            .collect()
    };
    let (front, back) = answers.split_at(answers.len() / 2);
    std::thread::scope(|s| {
        let other = s.spawn(|| check(back));
        let mut problems = check(front);
        problems.extend(
            other
                .join()
                .unwrap_or_else(|_| vec!["verifier panicked".into()]),
        );
        problems
    })
}

/// Starts the server on a fresh store and sends one warm-up miss and hit
/// on a configuration outside the pool.
pub fn setup(ctx: &Ctx) -> Result<(Server, Sequence), String> {
    let seq = Sequence::new(ctx.seed);
    let server = Server::start(&ctx.mcm, ctx.work_dir.join("store"))?;
    let warmup = Config {
        point: HdOperatingPoint::Hd720p30,
        channels: 4,
        clock_mhz: 400,
        op_limit: WARMUP_OPS,
    };
    for _ in 0..2 {
        request(&server.addr, &warmup)?;
    }
    Ok((server, seq))
}

pub fn run(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let (server, mut seq) = setup(ctx)?;
    let setup_s = ctx.setup_done();

    let mut clock = Clock::new();
    let mut hits = Samples::default();
    let mut misses = Samples::default();
    let mut polls = Samples::default();
    // The first answer per configuration, in first-sighting order.
    let mut first: Vec<(Config, String)> = Vec::new();
    let mut server_rss = None;
    let loop_start = Instant::now();
    let deadline = ctx.deadline();
    // Past the deadline, keep going only until every timed kind has a
    // sample (bounded, in case the server keeps failing).
    while Instant::now() < deadline
        || ((hits.ms.is_empty() || polls.ms.is_empty()) && rep.attempted < 1_000)
    {
        let (is_first, config) = seq.next();
        let samples = if is_first { &mut misses } else { &mut hits };
        let answer = clock.time(samples, || request(&server.addr, &config));
        let check = answer.and_then(|answer| {
            for ms in answer.poll_ms {
                clock.record(&mut polls, ms);
            }
            if answer.hit == is_first {
                return Err(format!(
                    "{config:?}: first sighting {is_first} answered with hit = {}",
                    answer.hit
                ));
            }
            let text = canonical(&answer.record)?;
            match first.iter().find(|(c, _)| *c == config) {
                Some((_, seen)) if *seen != text => {
                    Err(format!("{config:?}: answer differs from the first one"))
                }
                Some(_) => Ok(()),
                None => {
                    first.push((config, text));
                    Ok(())
                }
            }
        });
        rep.op(check);
        if rep.attempted as usize == RSS_AFTER {
            server_rss = peak_rss_mib(&server.pid().to_string());
        }
    }
    let loop_s = loop_start.elapsed().as_secs_f64();
    let server_rss = server_rss
        .or_else(|| peak_rss_mib(&server.pid().to_string()))
        .unwrap_or(0.0);
    server.stop();
    if !rep.trace {
        ctx.record_setup(rep, setup_s)?;
    }

    // Untimed, with the server down: every distinct answer in-process.
    for problem in verify(&first) {
        rep.fail(problem);
    }
    rep.max_connections = max_connections();

    let answered_ms = [hits.ms.as_slice(), misses.ms.as_slice()].concat();
    let answered = answered_ms.len() as f64;
    rep.info("serve_ms_p50", "ms", median(&answered_ms), &answered_ms);
    rep.info(
        "serve_ms_p90",
        "ms",
        quantile(&answered_ms, 0.9),
        &answered_ms,
    );
    rep.info("serve_results_per_s", "results/s", answered / loop_s, &[]);
    rep.info("serve_hit_ms", "ms", median(&hits.ms), &hits.ms);
    rep.info("serve_miss_ms", "ms", median(&misses.ms), &misses.ms);
    rep.info("serve_poll_ms", "ms", median(&polls.ms), &polls.ms);
    rep.info("serve_distinct_configs", "count", first.len() as f64, &[]);
    rep.info("serve_pool_configs", "count", seq.pool_len() as f64, &[]);
    if rep.trace {
        rep.metric("serve.hit_ms", "ms", median(&hits.ms), &hits.ms);
        rep.metric("serve.miss_ms", "ms", median(&misses.ms), &misses.ms);
        rep.metric("serve.poll_ms", "ms", median(&polls.ms), &polls.ms);
        rep.metric(
            "serve.store_hit_ratio",
            "ratio",
            hits.ms.len() as f64 / answered,
            &[],
        );
        rep.metric(
            "serve.polls_per_result",
            "count",
            polls.ms.len() as f64 / misses.ms.len() as f64,
            &[],
        );
        return Ok(());
    }
    let own_rss = peak_rss_mib("self").unwrap_or(0.0);
    rep.metric("peak_rss_mib", "MiB", server_rss + own_rss, &[]);
    rep.metric("op_ref", "ref", median(&misses.rel), &misses.rel);
    rep.metric("aux_ref", "ref", median(&polls.rel), &polls.rel);
    Ok(())
}
