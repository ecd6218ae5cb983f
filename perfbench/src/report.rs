//! Samples, statistics and the run report: human lines, the full JSON
//! report file, and the one-line result the last line of stdout carries.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `v`; 0 when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median absolute deviation from the median.
pub fn mad(v: &[f64]) -> f64 {
    let m = median(v);
    let dev: Vec<f64> = v.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// Milliseconds elapsed since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// How old a reference measurement may get before it is taken again.
const REFERENCE_REFRESH: std::time::Duration = std::time::Duration::from_millis(200);

/// Wall-clock times of one kind of operation, each also divided by the
/// reference kernel's time measured just before it.
#[derive(Debug, Default)]
pub struct Samples {
    pub ms: Vec<f64>,
    pub rel: Vec<f64>,
}

/// Times operations against a fixed reference kernel run alongside them.
///
/// On a shared virtual machine, other tenants slow everything down by up
/// to 2.2× for minutes at a time, on every vCPU alike, so wall times from
/// runs minutes apart differ by more than any change worth detecting. A
/// kernel shaped like the simulator's hot path slows down with the
/// simulator, and the ratio of an operation's time to the kernel's time
/// measured just before it cancels most of the host's slowdown. The
/// kernel is the benchmark's own code, so the ratio moves only when the
/// simulator does.
#[derive(Debug)]
pub struct Clock {
    /// Open row and ready time per bank slot (1 MiB).
    banks: Vec<(u64, u64)>,
    /// Issued requests, overwritten in a ring (8 MiB).
    issued: Vec<[u64; 2]>,
    reference_ms: f64,
    measured: Option<Instant>,
}

impl Clock {
    pub fn new() -> Self {
        Clock {
            banks: vec![(u64::MAX, 0); 1 << 16],
            issued: vec![[0, 0]; 1 << 19],
            reference_ms: 0.0,
            measured: None,
        }
    }

    /// The reference kernel: per synthetic request, decode a bank slot and
    /// row from address bits, compare with the slot's open row, advance its
    /// ready time, and append the request to the ring. Its memory traffic
    /// — small state lookups plus a stream of request records — is the
    /// simulator's, so cache and memory-bandwidth contention from other
    /// tenants slow both alike.
    fn kernel(&mut self) -> u64 {
        let (mut addr, mut t, mut x) = (0u64, 0u64, 0x2545_f491_4f6c_dd1du64);
        let (bank_mask, ring_mask) = (self.banks.len() - 1, self.issued.len() - 1);
        for i in 0..1_500_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            addr = if x & 15 == 0 {
                x & 0x3fff_ffff
            } else {
                addr + 64
            };
            let (open, ready) = &mut self.banks[((addr >> 10) ^ (addr >> 21)) as usize & bank_mask];
            t = t.max(*ready) + 1;
            if *open == addr >> 13 {
                *ready = t + 2;
            } else {
                *open = addr >> 13;
                *ready = t + 9 + (i & 3);
            }
            self.issued[i as usize & ring_mask] = [addr, t];
        }
        t
    }

    /// Times `op`, recording its wall time and its time relative to a
    /// reference measurement at most [`REFERENCE_REFRESH`] old.
    pub fn time<T>(&mut self, samples: &mut Samples, op: impl FnOnce() -> T) -> T {
        if self
            .measured
            .is_none_or(|at| at.elapsed() > REFERENCE_REFRESH)
        {
            let t0 = Instant::now();
            std::hint::black_box(self.kernel());
            self.reference_ms = ms_since(t0);
            self.measured = Some(Instant::now());
        }
        let t0 = Instant::now();
        let out = op();
        self.record(samples, ms_since(t0));
        out
    }

    /// Records a time measured within the last timed operation, relative
    /// to the same reference.
    pub fn record(&self, samples: &mut Samples, ms: f64) {
        samples.ms.push(ms);
        samples.rel.push(ms / self.reference_ms);
    }
}

/// One reported metric with the samples it was derived from.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub samples: Vec<f64>,
}

/// Everything one invocation measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Operations attempted (frames, passes, sessions, requests, rounds).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// The first failure messages, for the human report.
    pub problems: Vec<String>,
    /// Metrics the result line carries, in output order.
    pub metrics: Vec<Metric>,
    /// Figures printed but not gated: wall times, throughputs, accuracy.
    pub info: Vec<Metric>,
    /// Simulation threads the generator drives at most.
    pub threads: u32,
    /// Most client connections held open at once.
    pub max_connections: u32,
}

impl Report {
    pub fn new(workload: &str, seed: u64, seconds: u64, trace: bool) -> Self {
        Report {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            threads: 1,
            ..Report::default()
        }
    }

    /// Counts one operation, failed when `check` is an error.
    pub fn op(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = check {
            self.fail(e);
        }
    }

    /// Counts a failure against the operations already attempted.
    pub fn fail(&mut self, message: impl Into<String>) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(message.into());
        }
    }

    /// Adds a result-line metric.
    pub fn metric(&mut self, name: &str, unit: &str, value: f64, samples: &[f64]) {
        self.metrics.push(Metric {
            name: name.into(),
            unit: unit.into(),
            value,
            samples: samples.to_vec(),
        });
    }

    /// Adds a human-only figure.
    pub fn info(&mut self, name: &str, unit: &str, value: f64, samples: &[f64]) {
        self.info.push(Metric {
            name: name.into(),
            unit: unit.into(),
            value,
            samples: samples.to_vec(),
        });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn line(m: &Metric) -> String {
        let mut s = format!("  {:<28} {:>14.4} {:<8}", m.name, m.value, m.unit);
        if m.samples.len() > 1 {
            let min = m.samples.iter().copied().fold(f64::INFINITY, f64::min);
            let _ = write!(
                s,
                " min {:.4}  median {:.4}  MAD {:.4}  n={}",
                min,
                median(&m.samples),
                mad(&m.samples),
                m.samples.len()
            );
        }
        s
    }

    /// The human-readable report.
    pub fn render_text(&self, host: &Host) -> String {
        let mut out = format!(
            "perfbench workload={} seed={} seconds={} trace={}\n",
            self.workload, self.seed, self.seconds, self.trace as u8
        );
        let _ = writeln!(
            out,
            "host: nproc={} cpu=\"{}\" rustc=\"{}\"",
            host.nproc, host.cpu, host.rustc
        );
        let _ = writeln!(
            out,
            "operations: {} attempted, {} failed; generator threads {}, client connections {}",
            self.attempted, self.failed, self.threads, self.max_connections
        );
        for p in &self.problems {
            let _ = writeln!(out, "  FAILED: {p}");
        }
        if !self.info.is_empty() {
            out.push_str("figures:\n");
            for m in &self.info {
                out.push_str(&Self::line(m));
                out.push('\n');
            }
        }
        out.push_str(if self.trace {
            "per-layer:\n"
        } else {
            "end-to-end:\n"
        });
        for m in &self.metrics {
            out.push_str(&Self::line(m));
            out.push('\n');
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The full report: fingerprint, counts, and min/median/MAD plus raw
    /// samples of every metric and figure.
    pub fn write_json(&self, host: &Host, path: &Path) -> std::io::Result<()> {
        let stats = |ms: &[Metric]| -> serde::Value {
            let mut map = serde::Map::new();
            for m in ms {
                let min = m.samples.iter().copied().fold(f64::INFINITY, f64::min);
                map.insert(
                    m.name.clone(),
                    serde_json::json!({
                        "value": m.value,
                        "unit": m.unit,
                        "min": if m.samples.is_empty() { m.value } else { min },
                        "median": if m.samples.is_empty() { m.value } else { median(&m.samples) },
                        "mad": mad(&m.samples),
                        "n": m.samples.len(),
                        "samples": m.samples
                    }),
                );
            }
            serde::Value::Object(map)
        };
        let doc = serde_json::json!({
            "schema": "perfbench/v1",
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "host": {
                "nproc": host.nproc,
                "cpu": host.cpu,
                "rustc": host.rustc
            },
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "threads": self.threads,
            "max_connections": self.max_connections,
            "metrics": stats(&self.metrics),
            "figures": stats(&self.info)
        });
        let text = serde_json::to_string_pretty(&doc)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{e:?}")))?;
        std::fs::write(path, text + "\n")
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The host fingerprint every report carries: results are comparable as a
/// gate only between reports with equal fingerprints.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub cpu: String,
    pub rustc: String,
}

impl Host {
    pub fn detect() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let rustc = std::process::Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            rustc,
        }
    }
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one),
/// MiB.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
