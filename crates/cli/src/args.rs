//! Argument parsing for the `mcm` binary.

use core::fmt;

use mcm_core::{ChunkPolicy, Pacing};
use mcm_ctrl::{PagePolicy, PowerDownPolicy};
use mcm_dram::AddressMapping;
use mcm_load::{HdOperatingPoint, Workload};

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Print usage.
    Help,
    /// Regenerate Table I.
    Table1,
    /// Regenerate Table II.
    Table2,
    /// Regenerate Fig. 3.
    Fig3,
    /// Regenerate Fig. 4.
    Fig4,
    /// Regenerate Fig. 5.
    Fig5,
    /// Regenerate the XDR comparison.
    Xdr,
    /// Regenerate everything in paper order.
    Repro {
        /// Append the raw grid data as JSON after the text report.
        json: bool,
        /// Also write the plotting CSVs into this directory.
        csv_dir: Option<String>,
    },
    /// Run one ad-hoc experiment.
    Run(RunOptions),
    /// Report the maximum sustainable frame rate for a configuration.
    Headroom(RunOptions),
    /// Run a multi-frame steady-state session.
    Steady {
        /// The configuration.
        options: RunOptions,
        /// Number of consecutive frames.
        frames: u32,
    },
    /// Print a per-stage memory-time profile for a configuration.
    Profile(RunOptions),
    /// Render the first cycles of channel 0's command schedule.
    Timeline {
        /// The configuration.
        options: RunOptions,
        /// Cycle window width.
        cycles: u64,
    },
    /// Print the resolved device datasheet.
    Datasheet {
        /// Device preset name.
        device: String,
        /// Interface clock, MHz.
        clock_mhz: u64,
    },
    /// Print the experiment configuration as editable JSON.
    ConfigDump(RunOptions),
    /// Run an experiment described by a JSON config file.
    ConfigRun {
        /// Path to the JSON experiment file.
        path: String,
    },
    /// Dump one frame's operation stream to a trace file.
    TraceDump {
        /// The configuration (format, chunking).
        options: RunOptions,
        /// Output path (`-` = stdout).
        out: String,
    },
    /// Replay a trace file against a memory configuration.
    TraceRun {
        /// The memory configuration.
        options: RunOptions,
        /// Input path.
        input: String,
    },
    /// Conformance-check a configuration: config lints, cross-channel
    /// invariants and a bounded trace audit.
    Check(RunOptions),
    /// Statically lint a configuration without simulating: config-structure
    /// rules (`MCM1xx`) plus the feasibility analysis (`MCM4xx`).
    Lint(RunOptions),
    /// Sweep a grid of configurations on the parallel engine.
    Sweep(SweepArgs),
    /// Run one instrumented experiment and print its observability report.
    Report(ReportArgs),
    /// Generate, describe or save a deterministic fault plan.
    Fault(FaultArgs),
    /// Run the long-lived HTTP/JSON service.
    Serve(ServeArgs),
}

/// The one output-format selector shared by every command: `--json`,
/// `--csv` and `--trace` mean the same thing everywhere, and commands
/// without a given format refuse the flag at parse time instead of
/// silently ignoring it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Human-readable text (the default everywhere).
    #[default]
    Text,
    /// Machine-readable JSON.
    Json,
    /// CSV rows.
    Csv,
    /// Chrome `trace_event` JSON for Perfetto / `chrome://tracing`.
    Trace,
}

impl fmt::Display for OutputFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OutputFormat::Text => "text",
            OutputFormat::Json => "--json",
            OutputFormat::Csv => "--csv",
            OutputFormat::Trace => "--trace",
        })
    }
}

/// The machine formats `mcm sweep` can export.
const SWEEP_FORMATS: [OutputFormat; 2] = [OutputFormat::Json, OutputFormat::Csv];

/// Refuses formats a command has no renderer for, with the supported
/// alternatives spelled out.
fn ensure_output(
    cmd: &str,
    output: OutputFormat,
    supported: &[OutputFormat],
) -> Result<(), CliError> {
    if output == OutputFormat::Text || supported.contains(&output) {
        return Ok(());
    }
    let flags: Vec<String> = supported.iter().map(|f| f.to_string()).collect();
    Err(CliError(if flags.is_empty() {
        format!("'mcm {cmd}' has text output only ({output} is not supported)")
    } else {
        format!(
            "'mcm {cmd}' does not support {output} (supported: {})",
            flags.join(", ")
        )
    }))
}

/// Options of `mcm serve`: the long-lived HTTP/JSON service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeArgs {
    /// Bind address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Persistent result-store directory.
    pub store: String,
    /// Concurrent job slots.
    pub jobs: usize,
    /// Worker threads per job (None = RAYON_NUM_THREADS / all cores).
    pub threads: Option<usize>,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            addr: "127.0.0.1:7700".to_string(),
            store: "mcm-store".to_string(),
            jobs: 2,
            threads: None,
        }
    }
}

/// Options of `mcm fault`: build a deterministic [`mcm_fault::FaultPlan`]
/// and describe it, print it as JSON, or write it to a file for
/// `mcm run --faults <plan.json>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultArgs {
    /// Seed for the deterministic plan generator.
    pub seed: u64,
    /// Channel count the plan must be valid for.
    pub channels: u32,
    /// Explicit channels to lose. Empty = the seeded mixed scenario.
    pub lose: Vec<u32>,
    /// Where to write the plan JSON (None = describe on stdout).
    pub out: Option<String>,
    /// Output format (`--json` prints the plan instead of the description).
    pub output: OutputFormat,
}

impl Default for FaultArgs {
    fn default() -> Self {
        FaultArgs {
            seed: 7,
            channels: 4,
            lose: Vec::new(),
            out: None,
            output: OutputFormat::Text,
        }
    }
}

/// Options of `mcm report`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportArgs {
    /// The configuration to instrument (accepts every `mcm run` flag).
    pub options: RunOptions,
    /// Timeline bucket width, microseconds.
    pub timeline_bucket_us: u64,
    /// Also print the raw latency-histogram buckets (text output only).
    pub histogram: bool,
    /// Export format.
    pub output: OutputFormat,
}

impl Default for ReportArgs {
    fn default() -> Self {
        ReportArgs {
            options: RunOptions::default(),
            timeline_bucket_us: 1,
            histogram: false,
            output: OutputFormat::Text,
        }
    }
}

/// Options of `mcm sweep`. The default grid is the paper's Fig. 4/5 grid:
/// all five HD operating points across 1, 2, 4 and 8 channels at 400 MHz.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepArgs {
    /// Operating points to sweep.
    pub points: Vec<HdOperatingPoint>,
    /// Channel counts to sweep.
    pub channels: Vec<u32>,
    /// Interface clocks to sweep, MHz.
    pub clocks: Vec<u64>,
    /// Worker threads (None = rayon default / RAYON_NUM_THREADS).
    pub threads: Option<usize>,
    /// Result cache directory (None = no cache).
    pub cache: Option<String>,
    /// Workload models to sweep (`mcm run --workload` names).
    pub workloads: Vec<Workload>,
    /// Cap on simulated operations per point.
    pub op_limit: Option<u64>,
    /// Export format.
    pub output: OutputFormat,
    /// Print per-point progress to stderr.
    pub progress: bool,
    /// Statically prune infeasible points before simulating
    /// (`SweepOptions::prelint`).
    pub prelint: bool,
    /// Run only shard `index` of `of` (`--shard i/n`, 0-based). Shard
    /// result files are JSON-only and recombine with `--merge`.
    pub shard: Option<(usize, usize)>,
    /// Checkpoint log to create or extend (`--checkpoint <log>`): every
    /// completed point is recorded for crash-safe resume.
    pub checkpoint: Option<String>,
    /// Checkpoint log to resume from (`--resume <log>`); unlike
    /// `--checkpoint` the log must already exist.
    pub resume: Option<String>,
    /// Shard result files to merge (`--merge <files...>`) instead of
    /// sweeping; the output is byte-identical to the unsharded run.
    pub merge: Vec<String>,
    /// Where points execute (`--executor local|serve:<addr>[,<addr>...]`).
    pub executor: ExecutorArg,
}

/// Where `mcm sweep` executes its points.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ExecutorArg {
    /// In-process, on the rayon pool.
    #[default]
    Local,
    /// On remote `mcm serve` workers over HTTP/JSON, round-robin with
    /// retry and dead-worker re-queueing.
    Serve(Vec<String>),
}

impl Default for SweepArgs {
    fn default() -> Self {
        SweepArgs {
            points: HdOperatingPoint::ALL.to_vec(),
            channels: vec![1, 2, 4, 8],
            clocks: vec![400],
            workloads: vec![Workload::TableI],
            threads: None,
            cache: None,
            op_limit: None,
            output: OutputFormat::Text,
            progress: false,
            prelint: false,
            shard: None,
            checkpoint: None,
            resume: None,
            merge: Vec::new(),
            executor: ExecutorArg::Local,
        }
    }
}

/// Options of `mcm run` / `mcm headroom`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOptions {
    /// Operating point.
    pub point: HdOperatingPoint,
    /// Channel count.
    pub channels: u32,
    /// Interface clock, MHz.
    pub clock_mhz: u64,
    /// Address multiplexing.
    pub mapping: AddressMapping,
    /// Row-buffer policy.
    pub page: PagePolicy,
    /// CKE policy.
    pub power_down: PowerDownPolicy,
    /// Interleave granule, bytes.
    pub granule: u64,
    /// Master transaction sizing.
    pub chunk: ChunkPolicy,
    /// Arrival pacing.
    pub pacing: Pacing,
    /// Workload model driving the traffic (`--workload <name>`).
    pub workload: Workload,
    /// Output format (`--json` where the command supports it).
    pub output: OutputFormat,
    /// Viewfinder-only mode (no encoding/storage traffic).
    pub viewfinder: bool,
    /// Run the conformance checks alongside the simulation.
    pub verify: bool,
    /// Path to a fault-plan JSON file to inject (None = healthy).
    pub faults: Option<String>,
    /// Cap on simulated operations (None = the whole frame).
    pub op_limit: Option<u64>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            point: HdOperatingPoint::Hd1080p30,
            channels: 4,
            clock_mhz: 400,
            mapping: AddressMapping::Rbc,
            page: PagePolicy::Open,
            power_down: PowerDownPolicy::immediate(),
            granule: 16,
            chunk: ChunkPolicy::PerChannel(64),
            pacing: Pacing::Greedy,
            workload: Workload::TableI,
            output: OutputFormat::Text,
            viewfinder: false,
            verify: false,
            faults: None,
            op_limit: None,
        }
    }
}

/// A CLI parsing error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn parse_power_down(s: &str) -> Result<PowerDownPolicy, CliError> {
    if s == "immediate" {
        return Ok(PowerDownPolicy::immediate());
    }
    if s == "never" {
        return Ok(PowerDownPolicy::Never);
    }
    if let Some(n) = s.strip_prefix("idle:") {
        let n: u64 = n
            .parse()
            .map_err(|_| CliError(format!("bad idle threshold in '{s}'")))?;
        return Ok(PowerDownPolicy::AfterIdleCycles(n));
    }
    if let Some(n) = s.strip_prefix("sr:") {
        let n: u64 = n
            .parse()
            .map_err(|_| CliError(format!("bad self-refresh threshold in '{s}'")))?;
        return Ok(PowerDownPolicy::PowerDownThenSelfRefresh {
            pd_after: 1,
            sr_after: n,
        });
    }
    Err(CliError(format!(
        "unknown power-down policy '{s}' (expected immediate, never, idle:N or sr:N)"
    )))
}

fn parse_chunk(s: &str) -> Result<ChunkPolicy, CliError> {
    if let Some(n) = s.strip_prefix("perch:") {
        let n: u32 = n
            .parse()
            .map_err(|_| CliError(format!("bad per-channel chunk in '{s}'")))?;
        return Ok(ChunkPolicy::PerChannel(n));
    }
    if let Some(n) = s.strip_prefix("fixed:") {
        let n: u32 = n
            .parse()
            .map_err(|_| CliError(format!("bad fixed chunk in '{s}'")))?;
        return Ok(ChunkPolicy::Fixed(n));
    }
    Err(CliError(format!(
        "unknown chunk policy '{s}' (expected perch:N or fixed:N)"
    )))
}

fn parse_workload(s: &str) -> Result<Workload, CliError> {
    Workload::parse(s).map_err(|e| CliError(format!("bad workload '{s}': {e}")))
}

fn parse_run_options<'a>(mut args: impl Iterator<Item = &'a str>) -> Result<RunOptions, CliError> {
    let mut opts = RunOptions::default();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| CliError(format!("flag '{flag}' needs a value")))
        };
        match flag {
            "--format" => {
                opts.point =
                    HdOperatingPoint::parse(value()?).map_err(|e| CliError(e.to_string()))?
            }
            "--channels" => {
                opts.channels = value()?
                    .parse()
                    .map_err(|_| CliError("bad --channels value".into()))?
            }
            "--clock" => {
                opts.clock_mhz = value()?
                    .parse()
                    .map_err(|_| CliError("bad --clock value".into()))?
            }
            "--mapping" => {
                opts.mapping = match value()? {
                    "rbc" => AddressMapping::Rbc,
                    "brc" => AddressMapping::Brc,
                    other => return Err(CliError(format!("unknown mapping '{other}'"))),
                }
            }
            "--page" => {
                opts.page = match value()? {
                    "open" => PagePolicy::Open,
                    "closed" => PagePolicy::Closed,
                    other => return Err(CliError(format!("unknown page policy '{other}'"))),
                }
            }
            "--power-down" => opts.power_down = parse_power_down(value()?)?,
            "--granule" => {
                opts.granule = value()?
                    .parse()
                    .map_err(|_| CliError("bad --granule value".into()))?
            }
            "--chunk" => opts.chunk = parse_chunk(value()?)?,
            "--paced" => opts.pacing = Pacing::Paced,
            "--workload" => opts.workload = parse_workload(value()?)?,
            "--json" => opts.output = OutputFormat::Json,
            "--csv" => opts.output = OutputFormat::Csv,
            "--trace" => opts.output = OutputFormat::Trace,
            "--viewfinder" => opts.viewfinder = true,
            "--verify" => opts.verify = true,
            "--faults" => opts.faults = Some(value()?.to_string()),
            "--op-limit" => {
                opts.op_limit = Some(
                    value()?
                        .parse()
                        .map_err(|_| CliError("bad --op-limit value".into()))?,
                )
            }
            other => return Err(CliError(format!("unknown flag '{other}'"))),
        }
    }
    Ok(opts)
}

/// `cmd`, for a command that takes no flags: refuses the first one given.
fn no_flags<'a>(
    mut rest: impl Iterator<Item = &'a str>,
    cmd: Command,
) -> Result<Command, CliError> {
    match rest.next() {
        Some(flag) => Err(CliError(format!("unknown flag '{flag}'"))),
        None => Ok(cmd),
    }
}

/// Parses an argument list (without the program name).
pub fn parse_args<'a>(args: impl IntoIterator<Item = &'a str>) -> Result<Command, CliError> {
    let mut it = args.into_iter();
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };
    match cmd {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "table1" => no_flags(it, Command::Table1),
        "table2" => no_flags(it, Command::Table2),
        "fig3" => no_flags(it, Command::Fig3),
        "fig4" => no_flags(it, Command::Fig4),
        "fig5" => no_flags(it, Command::Fig5),
        "xdr" => no_flags(it, Command::Xdr),
        "repro" => {
            let (mut json, mut csv_dir) = (false, None);
            while let Some(flag) = it.next() {
                match flag {
                    "--json" => json = true,
                    "--csv" => {
                        let dir = it
                            .next()
                            .ok_or_else(|| CliError("flag '--csv' needs a value".into()))?;
                        csv_dir = Some(dir.to_string());
                    }
                    other => return Err(CliError(format!("unknown flag '{other}'"))),
                }
            }
            Ok(Command::Repro { json, csv_dir })
        }
        "run" => {
            let o = parse_run_options(it)?;
            ensure_output("run", o.output, &[OutputFormat::Json])?;
            Ok(Command::Run(o))
        }
        "check" => {
            let o = parse_run_options(it)?;
            ensure_output("check", o.output, &[OutputFormat::Json])?;
            Ok(Command::Check(o))
        }
        "lint" => {
            let o = parse_run_options(it)?;
            ensure_output("lint", o.output, &[OutputFormat::Json])?;
            Ok(Command::Lint(o))
        }
        "headroom" => {
            let o = parse_run_options(it)?;
            ensure_output("headroom", o.output, &[])?;
            Ok(Command::Headroom(o))
        }
        "profile" => {
            let o = parse_run_options(it)?;
            ensure_output("profile", o.output, &[])?;
            Ok(Command::Profile(o))
        }
        "config-dump" => {
            let o = parse_run_options(it)?;
            ensure_output("config-dump", o.output, &[])?;
            Ok(Command::ConfigDump(o))
        }
        "datasheet" => {
            let mut device = "mobile".to_string();
            let mut clock = 400u64;
            let rest: Vec<&str> = it.collect();
            let mut i = 0;
            while i < rest.len() {
                match rest[i] {
                    "--device" => {
                        device = rest
                            .get(i + 1)
                            .ok_or_else(|| CliError("--device needs a value".into()))?
                            .to_string();
                        i += 2;
                    }
                    "--clock" => {
                        clock = rest
                            .get(i + 1)
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| CliError("bad --clock value".into()))?;
                        i += 2;
                    }
                    other => return Err(CliError(format!("unknown flag '{other}'"))),
                }
            }
            Ok(Command::Datasheet {
                device,
                clock_mhz: clock,
            })
        }
        "timeline" => {
            let rest: Vec<&str> = it.collect();
            let mut cycles = 120u64;
            let mut filtered = Vec::new();
            let mut i = 0;
            while i < rest.len() {
                if rest[i] == "--cycles" {
                    let v = rest
                        .get(i + 1)
                        .ok_or_else(|| CliError("--cycles needs a value".into()))?;
                    cycles = v
                        .parse()
                        .map_err(|_| CliError(format!("bad --cycles value '{v}'")))?;
                    i += 2;
                } else {
                    filtered.push(rest[i]);
                    i += 1;
                }
            }
            let options = parse_run_options(filtered.into_iter())?;
            ensure_output("timeline", options.output, &[])?;
            Ok(Command::Timeline { options, cycles })
        }
        "config-run" => {
            let path = it
                .next()
                .ok_or_else(|| CliError("config-run requires a path".into()))?;
            Ok(Command::ConfigRun {
                path: path.to_string(),
            })
        }
        "trace-dump" | "trace-run" => {
            let rest: Vec<&str> = it.collect();
            let mut path: Option<String> = None;
            let mut filtered = Vec::new();
            let mut i = 0;
            let flag = if cmd == "trace-dump" { "--out" } else { "--in" };
            while i < rest.len() {
                if rest[i] == flag {
                    let v = rest
                        .get(i + 1)
                        .ok_or_else(|| CliError(format!("{flag} needs a value")))?;
                    path = Some((*v).to_string());
                    i += 2;
                } else {
                    filtered.push(rest[i]);
                    i += 1;
                }
            }
            let path = path.ok_or_else(|| CliError(format!("{cmd} requires {flag} <path>")))?;
            let options = parse_run_options(filtered.into_iter())?;
            ensure_output(cmd, options.output, &[])?;
            Ok(if cmd == "trace-dump" {
                Command::TraceDump { options, out: path }
            } else {
                Command::TraceRun {
                    options,
                    input: path,
                }
            })
        }
        "sweep" => {
            let mut a = SweepArgs::default();
            let mut it = it.peekable();
            while let Some(flag) = it.next() {
                let mut value = || {
                    it.next()
                        .ok_or_else(|| CliError(format!("flag '{flag}' needs a value")))
                };
                match flag {
                    "--formats" => {
                        a.points = value()?
                            .split(',')
                            .map(|v| {
                                HdOperatingPoint::parse(v).map_err(|e| CliError(e.to_string()))
                            })
                            .collect::<Result<_, _>>()?
                    }
                    "--channels" => {
                        a.channels = value()?
                            .split(',')
                            .map(|v| {
                                v.parse()
                                    .map_err(|_| CliError(format!("bad channel count '{v}'")))
                            })
                            .collect::<Result<_, _>>()?
                    }
                    "--clocks" => {
                        a.clocks = value()?
                            .split(',')
                            .map(|v| v.parse().map_err(|_| CliError(format!("bad clock '{v}'"))))
                            .collect::<Result<_, _>>()?
                    }
                    "--workloads" => {
                        a.workloads = value()?
                            .split(',')
                            .map(parse_workload)
                            .collect::<Result<_, _>>()?
                    }
                    "--threads" => {
                        a.threads = Some(
                            value()?
                                .parse()
                                .map_err(|_| CliError("bad --threads value".into()))?,
                        )
                    }
                    "--cache" => a.cache = Some(value()?.to_string()),
                    "--op-limit" => {
                        a.op_limit = Some(
                            value()?
                                .parse()
                                .map_err(|_| CliError("bad --op-limit value".into()))?,
                        )
                    }
                    "--json" => a.output = OutputFormat::Json,
                    "--csv" => a.output = OutputFormat::Csv,
                    "--trace" => {
                        ensure_output("sweep", OutputFormat::Trace, &SWEEP_FORMATS)?;
                    }
                    "--progress" => a.progress = true,
                    "--prelint" => a.prelint = true,
                    "--shard" => {
                        let v = value()?;
                        let parsed = v
                            .split_once('/')
                            .and_then(|(i, n)| Some((i.parse().ok()?, n.parse().ok()?)));
                        a.shard = Some(parsed.ok_or_else(|| {
                            CliError(format!("bad --shard value '{v}' (expected i/n, e.g. 0/4)"))
                        })?);
                    }
                    "--checkpoint" => a.checkpoint = Some(value()?.to_string()),
                    "--resume" => a.resume = Some(value()?.to_string()),
                    "--merge" => {
                        // Greedy: every following non-flag token is a
                        // shard file (commas inside a token also split).
                        while let Some(next) = it.peek() {
                            if next.starts_with("--") {
                                break;
                            }
                            let token = it.next().expect("peeked token exists");
                            a.merge.extend(token.split(',').map(str::to_string));
                        }
                        if a.merge.is_empty() {
                            return Err(CliError(
                                "flag '--merge' needs at least one shard file".into(),
                            ));
                        }
                    }
                    "--executor" => {
                        let v = value()?;
                        a.executor = if v == "local" {
                            ExecutorArg::Local
                        } else if let Some(addrs) = v.strip_prefix("serve:") {
                            let addrs: Vec<String> = addrs
                                .split(',')
                                .filter(|s| !s.is_empty())
                                .map(str::to_string)
                                .collect();
                            if addrs.is_empty() {
                                return Err(CliError(
                                    "--executor serve: needs at least one address".into(),
                                ));
                            }
                            ExecutorArg::Serve(addrs)
                        } else {
                            return Err(CliError(format!(
                                "bad --executor value '{v}' (expected local or serve:<addr>[,<addr>...])"
                            )));
                        };
                    }
                    other => return Err(CliError(format!("unknown flag '{other}'"))),
                }
            }
            if a.checkpoint.is_some() && a.resume.is_some() {
                return Err(CliError(
                    "--checkpoint and --resume are exclusive (resume extends the same log)".into(),
                ));
            }
            Ok(Command::Sweep(a))
        }
        "fault" => {
            let mut a = FaultArgs::default();
            let mut it = it;
            while let Some(flag) = it.next() {
                let mut value = || {
                    it.next()
                        .ok_or_else(|| CliError(format!("flag '{flag}' needs a value")))
                };
                match flag {
                    "--seed" => {
                        let v = value()?;
                        // Seeds are often quoted in hex in fault reports.
                        a.seed = if let Some(hex) = v.strip_prefix("0x") {
                            u64::from_str_radix(hex, 16)
                        } else {
                            v.parse()
                        }
                        .map_err(|_| CliError(format!("bad --seed value '{v}'")))?
                    }
                    "--channels" => {
                        a.channels = value()?
                            .parse()
                            .map_err(|_| CliError("bad --channels value".into()))?
                    }
                    "--lose" => {
                        a.lose = value()?
                            .split(',')
                            .map(|v| {
                                v.parse()
                                    .map_err(|_| CliError(format!("bad channel number '{v}'")))
                            })
                            .collect::<Result<_, _>>()?
                    }
                    "--out" => a.out = Some(value()?.to_string()),
                    "--json" => a.output = OutputFormat::Json,
                    "--csv" | "--trace" => {
                        let format = if flag == "--csv" {
                            OutputFormat::Csv
                        } else {
                            OutputFormat::Trace
                        };
                        ensure_output("fault", format, &[OutputFormat::Json])?;
                    }
                    other => return Err(CliError(format!("unknown flag '{other}'"))),
                }
            }
            Ok(Command::Fault(a))
        }
        "serve" => {
            let mut a = ServeArgs::default();
            let mut it = it;
            while let Some(flag) = it.next() {
                let mut value = || {
                    it.next()
                        .ok_or_else(|| CliError(format!("flag '{flag}' needs a value")))
                };
                match flag {
                    "--addr" => a.addr = value()?.to_string(),
                    "--store" => a.store = value()?.to_string(),
                    "--jobs" => {
                        a.jobs = value()?
                            .parse()
                            .map_err(|_| CliError("bad --jobs value".into()))?;
                        if a.jobs == 0 {
                            return Err(CliError("--jobs must be at least 1".into()));
                        }
                    }
                    "--threads" => {
                        a.threads = Some(
                            value()?
                                .parse()
                                .map_err(|_| CliError("bad --threads value".into()))?,
                        )
                    }
                    other => return Err(CliError(format!("unknown flag '{other}'"))),
                }
            }
            Ok(Command::Serve(a))
        }
        "report" => {
            // Extract the report-specific flags, pass the rest to the
            // run-option parser.
            let rest: Vec<&str> = it.collect();
            let mut a = ReportArgs::default();
            let mut filtered = Vec::new();
            let mut i = 0;
            let value = |rest: &[&'a str], i: usize, flag: &str| -> Result<&'a str, CliError> {
                rest.get(i + 1)
                    .copied()
                    .ok_or_else(|| CliError(format!("{flag} needs a value")))
            };
            while i < rest.len() {
                match rest[i] {
                    "--timeline-bucket" => {
                        let v = value(&rest, i, "--timeline-bucket")?;
                        a.timeline_bucket_us = v.parse().map_err(|_| {
                            CliError(format!("bad --timeline-bucket value '{v}' (microseconds)"))
                        })?;
                        if a.timeline_bucket_us == 0 {
                            return Err(CliError("--timeline-bucket must be at least 1 µs".into()));
                        }
                        i += 2;
                    }
                    "--histogram" => {
                        a.histogram = true;
                        i += 1;
                    }
                    other => {
                        filtered.push(other);
                        i += 1;
                    }
                }
            }
            // --json/--csv/--trace are run options now; report renders
            // all of them.
            a.options = parse_run_options(filtered.into_iter())?;
            a.output = a.options.output;
            Ok(Command::Report(a))
        }
        "steady" => {
            // Extract --frames N, pass the rest to the run-option parser.
            let rest: Vec<&str> = it.collect();
            let mut frames = 30u32;
            let mut filtered = Vec::new();
            let mut i = 0;
            while i < rest.len() {
                if rest[i] == "--frames" {
                    let v = rest
                        .get(i + 1)
                        .ok_or_else(|| CliError("--frames needs a value".into()))?;
                    frames = v
                        .parse()
                        .map_err(|_| CliError(format!("bad --frames value '{v}'")))?;
                    i += 2;
                } else {
                    filtered.push(rest[i]);
                    i += 1;
                }
            }
            let options = parse_run_options(filtered.into_iter())?;
            ensure_output("steady", options.output, &[])?;
            Ok(Command::Steady { options, frames })
        }
        other => Err(CliError(format!(
            "unknown command '{other}' (try 'mcm help')"
        ))),
    }
}

/// Usage text.
pub const USAGE: &str = "\
mcm — multi-channel memories for video recording (DATE 2009 reproduction)

USAGE:
    mcm <COMMAND> [OPTIONS]

COMMANDS:
    repro       regenerate every paper table and figure
                [--json]       append the raw grid data as JSON
                [--csv <dir>]  also write table1.csv, fig3.csv, fig45.csv to <dir>
    table1      Table I  — per-stage memory bandwidth requirements
    table2      Table II — memory mapping over channels
    fig3        Fig. 3   — access time vs clock (720p30)
    fig4        Fig. 4   — access time vs format (400 MHz)
    fig5        Fig. 5   — power vs format (400 MHz)
    xdr         the XDR comparison
    run         run one experiment (see OPTIONS)
    report      run one instrumented experiment and print counters,
                latency percentiles and timelines (see REPORT OPTIONS)
    sweep       sweep a grid in parallel (see SWEEP OPTIONS)
    check       conformance-check a configuration (MCMxxx rules; --json for machines)
    lint        statically lint a configuration without simulating
                (MCM1xx + MCM4xx rules; --json for machines)
    fault       build a deterministic fault plan for --faults
                (see FAULT OPTIONS)
    serve       long-lived HTTP/JSON service: POST /runs, POST /sweeps,
                GET /jobs/:id, persistent result store (see SERVE OPTIONS)
    headroom    maximum sustainable fps for a configuration
    steady      multi-frame session (add --frames N, default 30)
    profile     per-stage memory-time profile
    timeline    ASCII command waveform of channel 0 (--cycles N)
    datasheet   resolved device parameters (--device mobile|ddr2|future|large, --clock MHz)
    config-dump print an experiment as editable JSON
    config-run  run an experiment from a JSON file
    trace-dump  write one frame's ops to a trace file (--out <path>)
    trace-run   replay a trace file (--in <path>)
    help        this text

OPTIONS (run / headroom):
    --format <720p30|720p60|1080p30|1080p60|2160p30>   [1080p30]
    --channels <N>                                     [4]
    --clock <MHz>                                      [400]
    --mapping <rbc|brc>                                [rbc]
    --page <open|closed>                               [open]
    --power-down <immediate|never|idle:N|sr:N>         [immediate]
    --granule <bytes>                                  [16]
    --chunk <perch:N|fixed:N>                          [perch:64]
    --paced                                            [greedy]
    --workload <h264-record|hevc-record|vvc-record|stochastic:SEED[:BURST]|multi-tenant:N>
                select the workload model (docs/WORKLOADS.md)  [h264-record]
    --viewfinder                                       [recording]
    --verify    run the MCMxxx conformance checks too   [off]
    --faults <plan.json>  inject a fault plan (see 'mcm fault')  [healthy]
    --op-limit <N>        cap simulated ops            [full frame]
    --json                                             [text]

FAULT OPTIONS:
    --seed <N|0xHEX>    plan generator seed            [7]
    --channels <N>      channel count to plan against  [4]
    --lose <list>       lose exactly these channels (comma list)
                        instead of the seeded mixed scenario
    --out <path>        write the plan JSON here       [stdout]
    --json              print the plan as JSON         [description]

REPORT OPTIONS (accepts every run option, plus):
    --timeline-bucket <us>  bandwidth/energy bucket width  [1]
    --histogram             raw latency-histogram buckets  [percentiles only]
    --op-limit <N>          cap simulated ops              [full frame]
    --json                  full report as JSON            [text]
    --csv                   per-channel counter rows       [text]
    --trace                 Chrome trace_event JSON for Perfetto /
                            chrome://tracing               [text]

SERVE OPTIONS:
    --addr <host:port>  bind address (port 0 = ephemeral)  [127.0.0.1:7700]
    --store <dir>       persistent result store            [mcm-store]
    --jobs <N>          concurrent job slots               [2]
    --threads <N>       worker threads per job             [RAYON_NUM_THREADS]

SWEEP OPTIONS (defaults: the paper grid — five formats x 1,2,4,8 channels):
    --formats <comma list of formats>                  [all five]
    --channels <comma list of channel counts>          [1,2,4,8]
    --clocks <comma list of MHz>                       [400]
    --workloads <comma list of workload names>         [h264-record]
    --threads <N>     worker threads                   [RAYON_NUM_THREADS]
    --cache <dir>     content-hash result cache        [off]
    --op-limit <N>    cap simulated ops per point      [full frame]
    --progress        per-point progress on stderr     [off]
    --prelint         statically prune infeasible points before
                      simulating (MCM4xx analysis)     [off]
    --shard <i/n>     run only shard i of n (0-based, deterministic
                      split of the expanded grid; --json only)  [whole grid]
    --merge <files...> merge shard result files into the unsharded
                      output, byte-identical (--json/--csv)     [-]
    --checkpoint <log> record completed points in a crash-safe
                      JSONL log for later --resume     [off]
    --resume <log>    resume from an existing checkpoint log:
                      finished points are not re-simulated  [off]
    --executor <local|serve:addr[,addr...]>
                      where points execute: in-process, or on
                      remote 'mcm serve' workers with retry and
                      dead-worker re-queueing          [local]
    --json | --csv    deterministic machine output     [text table]
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_invocation_is_help() {
        assert_eq!(parse_args([]).unwrap(), Command::Help);
        assert_eq!(parse_args(["help"]).unwrap(), Command::Help);
        assert_eq!(parse_args(["--help"]).unwrap(), Command::Help);
        let err = parse_args(["bench"]).unwrap_err();
        assert_eq!(err.0, "unknown command 'bench' (try 'mcm help')");
    }

    #[test]
    fn threads_sizes_only_the_sweep_and_serve_pools() {
        for args in [
            &["run", "--threads", "4"][..],
            &["steady", "--threads", "4"][..],
        ] {
            let err = parse_args(args.iter().copied()).unwrap_err();
            assert_eq!(err.0, "unknown flag '--threads'", "{args:?}");
        }
        match parse_args(["sweep", "--threads", "3"]).unwrap() {
            Command::Sweep(a) => assert_eq!(a.threads, Some(3)),
            other => panic!("unexpected command {other:?}"),
        }
    }

    #[test]
    fn no_command_takes_an_execution_policy() {
        for cmd in [
            "run",
            "check",
            "lint",
            "headroom",
            "profile",
            "config-dump",
            "timeline",
            "report",
            "steady",
            "trace-dump",
            "trace-run",
            "sweep",
        ] {
            let mut args = vec![cmd, "--execution", "memoized"];
            if cmd == "trace-dump" {
                args.extend(["--out", "ops.trace"]);
            } else if cmd == "trace-run" {
                args.extend(["--in", "ops.trace"]);
            }
            let err = parse_args(args).unwrap_err();
            assert_eq!(err.0, "unknown flag '--execution'", "{cmd}");
        }
    }

    #[test]
    fn figure_commands() {
        assert_eq!(parse_args(["fig3"]).unwrap(), Command::Fig3);
        assert_eq!(parse_args(["table1"]).unwrap(), Command::Table1);
        assert_eq!(
            parse_args(["repro"]).unwrap(),
            Command::Repro {
                json: false,
                csv_dir: None
            }
        );
        assert_eq!(
            parse_args(["repro", "--csv", "out", "--json"]).unwrap(),
            Command::Repro {
                json: true,
                csv_dir: Some("out".into())
            }
        );
        // Figure commands take no flags, and refuse the ones they would
        // otherwise ignore.
        for args in [
            &["table1", "--bogus"][..],
            &["table2", "--json"][..],
            &["fig3", "--channels", "2"][..],
            &["fig4", "--csv"][..],
            &["fig5", "--trace"][..],
            &["xdr", "--csv"][..],
            &["repro", "--trace"][..],
        ] {
            let err = parse_args(args.iter().copied()).unwrap_err();
            assert_eq!(err.0, format!("unknown flag '{}'", args[1]), "{args:?}");
        }
        let err = parse_args(["repro", "--csv"]).unwrap_err();
        assert_eq!(err.0, "flag '--csv' needs a value");
    }

    #[test]
    fn run_defaults() {
        let Command::Run(o) = parse_args(["run"]).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(o, RunOptions::default());
    }

    #[test]
    fn run_with_everything() {
        let Command::Run(o) = parse_args([
            "run",
            "--format",
            "720p60",
            "--channels",
            "2",
            "--clock",
            "333",
            "--mapping",
            "brc",
            "--page",
            "closed",
            "--power-down",
            "sr:4096",
            "--granule",
            "64",
            "--chunk",
            "fixed:256",
            "--paced",
            "--json",
        ])
        .unwrap() else {
            panic!("expected run");
        };
        assert_eq!(o.point, HdOperatingPoint::Hd720p60);
        assert_eq!(o.channels, 2);
        assert_eq!(o.clock_mhz, 333);
        assert_eq!(o.mapping, AddressMapping::Brc);
        assert_eq!(o.page, PagePolicy::Closed);
        assert_eq!(
            o.power_down,
            PowerDownPolicy::PowerDownThenSelfRefresh {
                pd_after: 1,
                sr_after: 4096
            }
        );
        assert_eq!(o.granule, 64);
        assert_eq!(o.chunk, ChunkPolicy::Fixed(256));
        assert_eq!(o.pacing, Pacing::Paced);
        assert_eq!(o.output, OutputFormat::Json);
    }

    #[test]
    fn power_down_forms() {
        assert_eq!(
            parse_power_down("immediate").unwrap(),
            PowerDownPolicy::immediate()
        );
        assert_eq!(parse_power_down("never").unwrap(), PowerDownPolicy::Never);
        assert_eq!(
            parse_power_down("idle:64").unwrap(),
            PowerDownPolicy::AfterIdleCycles(64)
        );
        assert!(parse_power_down("idle:x").is_err());
        assert!(parse_power_down("deep").is_err());
    }

    #[test]
    fn errors_are_friendly() {
        let e = parse_args(["frobnicate"]).unwrap_err();
        assert!(e.to_string().contains("frobnicate"));
        let e = parse_args(["run", "--format", "480p"]).unwrap_err();
        assert!(e.to_string().contains("480p"));
        let e = parse_args(["run", "--channels"]).unwrap_err();
        assert!(e.to_string().contains("needs a value"));
        let e = parse_args(["run", "--bogus", "1"]).unwrap_err();
        assert!(e.to_string().contains("--bogus"));
    }

    #[test]
    fn check_and_verify_parse() {
        let Command::Check(o) = parse_args(["check", "--channels", "8", "--json"]).unwrap() else {
            panic!("expected check");
        };
        assert_eq!(o.channels, 8);
        assert_eq!(o.output, OutputFormat::Json);
        let Command::Run(o) = parse_args(["run", "--verify"]).unwrap() else {
            panic!("expected run");
        };
        assert!(o.verify);
    }

    #[test]
    fn lint_parses_like_run() {
        let Command::Lint(o) =
            parse_args(["lint", "--format", "2160p30", "--channels", "2"]).unwrap()
        else {
            panic!("expected lint");
        };
        assert_eq!(o.point, HdOperatingPoint::Uhd2160p30);
        assert_eq!(o.channels, 2);
        let Command::Lint(o) = parse_args(["lint", "--json"]).unwrap() else {
            panic!("expected lint");
        };
        assert_eq!(o.output, OutputFormat::Json);
    }

    #[test]
    fn sweep_defaults_are_the_paper_grid() {
        let Command::Sweep(a) = parse_args(["sweep"]).unwrap() else {
            panic!("expected sweep");
        };
        assert_eq!(a, SweepArgs::default());
        assert_eq!(a.points.len(), 5);
        assert_eq!(a.channels, vec![1, 2, 4, 8]);
        assert_eq!(a.clocks, vec![400]);
    }

    #[test]
    fn sweep_parses_lists_and_knobs() {
        let Command::Sweep(a) = parse_args([
            "sweep",
            "--formats",
            "720p30,1080p60",
            "--channels",
            "2,8",
            "--clocks",
            "200,400",
            "--threads",
            "4",
            "--cache",
            "/tmp/c",
            "--op-limit",
            "5000",
            "--csv",
            "--progress",
            "--prelint",
        ])
        .unwrap() else {
            panic!("expected sweep");
        };
        assert_eq!(
            a.points,
            vec![HdOperatingPoint::Hd720p30, HdOperatingPoint::Hd1080p60]
        );
        assert_eq!(a.channels, vec![2, 8]);
        assert_eq!(a.clocks, vec![200, 400]);
        assert_eq!(a.threads, Some(4));
        assert_eq!(a.cache.as_deref(), Some("/tmp/c"));
        assert_eq!(a.op_limit, Some(5000));
        assert_eq!(a.output, OutputFormat::Csv);
        assert!(a.progress);
        assert!(a.prelint);
        assert!(parse_args(["sweep", "--formats", "480i"]).is_err());
        assert!(parse_args(["sweep", "--channels", "two"]).is_err());
    }

    #[test]
    fn sweep_distribution_flags_parse_and_refuse_nonsense() {
        let Command::Sweep(a) = parse_args([
            "sweep",
            "--shard",
            "2/8",
            "--checkpoint",
            "log.jsonl",
            "--executor",
            "serve:127.0.0.1:7700,127.0.0.1:7701",
            "--json",
        ])
        .unwrap() else {
            panic!("expected sweep");
        };
        assert_eq!(a.shard, Some((2, 8)));
        assert_eq!(a.checkpoint.as_deref(), Some("log.jsonl"));
        assert_eq!(
            a.executor,
            ExecutorArg::Serve(vec![
                "127.0.0.1:7700".to_string(),
                "127.0.0.1:7701".to_string()
            ])
        );

        // `--merge` is greedy up to the next flag, and splits commas.
        let Command::Sweep(a) =
            parse_args(["sweep", "--merge", "a.json", "b.json,c.json", "--csv"]).unwrap()
        else {
            panic!("expected sweep");
        };
        assert_eq!(a.merge, vec!["a.json", "b.json", "c.json"]);
        assert_eq!(a.output, OutputFormat::Csv);

        let Command::Sweep(a) = parse_args(["sweep", "--resume", "log.jsonl"]).unwrap() else {
            panic!("expected sweep");
        };
        assert_eq!(a.resume.as_deref(), Some("log.jsonl"));
        assert_eq!(a.executor, ExecutorArg::Local);

        assert!(parse_args(["sweep", "--shard", "3"]).is_err());
        assert!(parse_args(["sweep", "--shard", "a/b"]).is_err());
        assert!(parse_args(["sweep", "--merge"]).is_err());
        assert!(parse_args(["sweep", "--merge", "--json"]).is_err());
        assert!(parse_args(["sweep", "--executor", "carrier-pigeon"]).is_err());
        assert!(parse_args(["sweep", "--executor", "serve:"]).is_err());
        // One log, two spellings: creating and resuming are exclusive.
        assert!(parse_args(["sweep", "--checkpoint", "a", "--resume", "a"]).is_err());
    }

    #[test]
    fn report_defaults_and_knobs() {
        let Command::Report(a) = parse_args(["report"]).unwrap() else {
            panic!("expected report");
        };
        assert_eq!(a, ReportArgs::default());
        assert_eq!(a.output, OutputFormat::Text);
        assert_eq!(a.timeline_bucket_us, 1);

        let Command::Report(a) = parse_args([
            "report",
            "--format",
            "720p30",
            "--channels",
            "2",
            "--timeline-bucket",
            "50",
            "--histogram",
            "--op-limit",
            "4000",
            "--trace",
        ])
        .unwrap() else {
            panic!("expected report");
        };
        assert_eq!(a.options.point, HdOperatingPoint::Hd720p30);
        assert_eq!(a.options.channels, 2);
        assert_eq!(a.timeline_bucket_us, 50);
        assert!(a.histogram);
        assert_eq!(a.options.op_limit, Some(4000));
        assert_eq!(a.output, OutputFormat::Trace);
    }

    #[test]
    fn report_output_selection_and_errors() {
        let Command::Report(a) = parse_args(["report", "--json"]).unwrap() else {
            panic!("expected report");
        };
        assert_eq!(a.output, OutputFormat::Json);
        let Command::Report(a) = parse_args(["report", "--csv"]).unwrap() else {
            panic!("expected report");
        };
        assert_eq!(a.output, OutputFormat::Csv);

        assert!(parse_args(["report", "--timeline-bucket"]).is_err());
        assert!(parse_args(["report", "--timeline-bucket", "0"]).is_err());
        assert!(parse_args(["report", "--op-limit", "many"]).is_err());
        assert!(parse_args(["report", "--bogus"]).is_err());
    }

    #[test]
    fn fault_defaults_and_knobs() {
        let Command::Fault(a) = parse_args(["fault"]).unwrap() else {
            panic!("expected fault");
        };
        assert_eq!(a, FaultArgs::default());
        assert_eq!(a.seed, 7);
        assert_eq!(a.channels, 4);
        assert!(a.lose.is_empty());

        let Command::Fault(a) = parse_args([
            "fault",
            "--seed",
            "0xfeed",
            "--channels",
            "8",
            "--lose",
            "0,3",
            "--out",
            "/tmp/plan.json",
            "--json",
        ])
        .unwrap() else {
            panic!("expected fault");
        };
        assert_eq!(a.seed, 0xfeed);
        assert_eq!(a.channels, 8);
        assert_eq!(a.lose, vec![0, 3]);
        assert_eq!(a.out.as_deref(), Some("/tmp/plan.json"));
        assert_eq!(a.output, OutputFormat::Json);

        assert!(parse_args(["fault", "--seed", "many"]).is_err());
        assert!(parse_args(["fault", "--lose", "zero"]).is_err());
        assert!(parse_args(["fault", "--bogus"]).is_err());
    }

    #[test]
    fn run_accepts_a_workload_and_sweep_a_workload_list() {
        let Command::Run(o) = parse_args(["run", "--workload", "hevc-record"]).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(o.workload.name(), "hevc-record");
        let Command::Run(o) = parse_args(["run", "--workload", "stochastic:9:75"]).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(o.workload.name(), "stochastic:9:75");
        // The default stays the paper's Table I chain.
        let Command::Run(o) = parse_args(["run"]).unwrap() else {
            panic!("expected run");
        };
        assert!(o.workload.is_default());

        let Command::Sweep(a) =
            parse_args(["sweep", "--workloads", "h264-record,multi-tenant:2"]).unwrap()
        else {
            panic!("expected sweep");
        };
        assert_eq!(a.workloads.len(), 2);
        assert_eq!(a.workloads[1].name(), "multi-tenant:2");

        let e = parse_args(["run", "--workload", "mpeg2"]).unwrap_err();
        assert!(e.to_string().contains("mpeg2"), "{e}");
        assert!(parse_args(["sweep", "--workloads", "h264-record,"]).is_err());
    }

    #[test]
    fn run_accepts_faults_and_op_limit() {
        let Command::Run(o) =
            parse_args(["run", "--faults", "plan.json", "--op-limit", "5000"]).unwrap()
        else {
            panic!("expected run");
        };
        assert_eq!(o.faults.as_deref(), Some("plan.json"));
        assert_eq!(o.op_limit, Some(5000));
        assert!(parse_args(["run", "--op-limit", "many"]).is_err());
        assert!(parse_args(["run", "--faults"]).is_err());
    }

    #[test]
    fn headroom_parses_like_run() {
        let Command::Headroom(o) =
            parse_args(["headroom", "--format", "2160p30", "--channels", "8"]).unwrap()
        else {
            panic!("expected headroom");
        };
        assert_eq!(o.point, HdOperatingPoint::Uhd2160p30);
        assert_eq!(o.channels, 8);
    }

    #[test]
    fn output_formats_are_uniform_flags() {
        // One selector, same spelling everywhere.
        let Command::Run(o) = parse_args(["run", "--json"]).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(o.output, OutputFormat::Json);
        let Command::Report(a) = parse_args(["report", "--csv"]).unwrap() else {
            panic!("expected report");
        };
        assert_eq!(a.output, OutputFormat::Csv);
        let Command::Sweep(a) = parse_args(["sweep", "--csv"]).unwrap() else {
            panic!("expected sweep");
        };
        assert_eq!(a.output, OutputFormat::Csv);
        let Command::Fault(a) = parse_args(["fault", "--json"]).unwrap() else {
            panic!("expected fault");
        };
        assert_eq!(a.output, OutputFormat::Json);
    }

    #[test]
    fn unsupported_formats_are_refused_per_command() {
        // run/check/lint render text or JSON only.
        for cmd in ["run", "check", "lint"] {
            let e = parse_args([cmd, "--csv"]).unwrap_err().to_string();
            assert!(e.contains("does not support --csv"), "{cmd}: {e}");
            let e = parse_args([cmd, "--trace"]).unwrap_err().to_string();
            assert!(e.contains("does not support --trace"), "{cmd}: {e}");
        }
        // Text-only commands refuse every machine format loudly.
        for cmd in ["headroom", "profile", "config-dump", "steady"] {
            for format in ["--json", "--csv", "--trace"] {
                let e = parse_args([cmd, format]).unwrap_err().to_string();
                assert!(e.contains("text output only"), "{cmd} {format}: {e}");
            }
        }
        // sweep exports JSON and CSV but has no trace renderer.
        let e = parse_args(["sweep", "--trace"]).unwrap_err().to_string();
        assert!(e.contains("does not support --trace"), "{e}");
        assert!(e.contains("--json, --csv"), "{e}");
        // fault prints text or JSON.
        let e = parse_args(["fault", "--csv"]).unwrap_err().to_string();
        assert!(e.contains("does not support --csv"), "{e}");
    }

    #[test]
    fn serve_defaults_and_knobs() {
        let Command::Serve(a) = parse_args(["serve"]).unwrap() else {
            panic!("expected serve");
        };
        assert_eq!(a, ServeArgs::default());
        assert_eq!(a.addr, "127.0.0.1:7700");
        assert_eq!(a.store, "mcm-store");
        assert_eq!(a.jobs, 2);
        assert_eq!(a.threads, None);

        let Command::Serve(a) = parse_args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--store",
            "/tmp/history",
            "--jobs",
            "4",
            "--threads",
            "2",
        ])
        .unwrap() else {
            panic!("expected serve");
        };
        assert_eq!(a.addr, "127.0.0.1:0");
        assert_eq!(a.store, "/tmp/history");
        assert_eq!(a.jobs, 4);
        assert_eq!(a.threads, Some(2));

        assert!(parse_args(["serve", "--jobs", "0"]).is_err());
        assert!(parse_args(["serve", "--jobs", "many"]).is_err());
        assert!(parse_args(["serve", "--bogus"]).is_err());
    }
}
