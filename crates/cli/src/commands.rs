//! Command execution for the `mcm` binary.

use mcm_channel::MemorySubsystem;
use mcm_core::feed::transaction;
use mcm_core::{analysis, figures, CoreError, Experiment, Pacing};
use mcm_load::UseCase;
use mcm_sweep::RayonExecutor;

use crate::args::{
    CliError, Command, ExecutorArg, FaultArgs, OutputFormat, ReportArgs, RunOptions, ServeArgs,
    SweepArgs, USAGE,
};

/// The experiment the run options describe. Channel count, clock and op
/// budget are validated first, as typed errors; the other flags are
/// applied after, so `mcm lint` and `mcm check` can still report what is
/// wrong with them.
fn build_experiment(o: &RunOptions) -> Result<Experiment, CliError> {
    let mut builder = Experiment::builder()
        .point(o.point)
        .channels(o.channels)
        .clock_mhz(o.clock_mhz);
    if let Some(n) = o.op_limit {
        builder = builder.op_limit(n);
    }
    let mut exp = builder.build().map_err(|e| CliError(e.to_string()))?;
    if o.viewfinder {
        exp.use_case = UseCase::viewfinder(o.point);
    }
    exp.memory.controller.mapping = o.mapping;
    exp.memory.controller.page_policy = o.page;
    exp.memory.controller.power_down = o.power_down;
    exp.memory.granule_bytes = o.granule;
    exp.chunk = o.chunk;
    exp.pacing = o.pacing;
    exp.workload = o.workload;
    Ok(exp)
}

/// A failed simulation, as the CLI reports it.
fn sim_err(e: impl Into<CoreError>) -> CliError {
    CliError(format!("simulation failed: {}", e.into()))
}

/// Loads and validates the `--faults <plan.json>` file, when given.
fn load_fault_plan(o: &RunOptions) -> Result<Option<mcm_fault::FaultPlan>, CliError> {
    let Some(path) = &o.faults else {
        return Ok(None);
    };
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError(format!("cannot read fault plan '{path}': {e}")))?;
    let plan: mcm_fault::FaultPlan = serde_json::from_str(&text)
        .map_err(|e| CliError(format!("bad fault plan '{path}': {e}")))?;
    plan.validate(o.channels).map_err(|e| {
        CliError(format!(
            "fault plan '{path}' does not fit {} channel(s): {e}",
            o.channels
        ))
    })?;
    Ok(Some(plan))
}

/// Run flags that some commands do not apply.
#[derive(Debug, Clone, Copy)]
enum RunFlag {
    Faults,
    Paced,
    Verify,
}

use RunFlag::{Faults, Paced, Verify};

/// Refuses every flag in `unapplied` that `o` sets: a command rejects a run
/// flag it does not apply loudly instead of printing the same answer with
/// and without it.
fn reject_unapplied(o: &RunOptions, what: &str, unapplied: &[RunFlag]) -> Result<(), CliError> {
    for flag in unapplied {
        let (given, name, hint) = match flag {
            Faults => (
                o.faults.is_some(),
                "--faults",
                " (use 'mcm run' or 'mcm check')",
            ),
            Paced => (o.pacing == Pacing::Paced, "--paced", ""),
            Verify => (o.verify, "--verify", ""),
        };
        if given {
            return Err(CliError(format!(
                "{name} is not supported by 'mcm {what}'{hint}"
            )));
        }
    }
    Ok(())
}

/// Cap on simulated operations when a trace-keeping verified run has no
/// explicit op limit: full frames are millions of commands and the trace
/// must stay in memory for the audit.
const VERIFY_OP_LIMIT: u64 = 50_000;

fn run_one(o: &RunOptions) -> Result<String, CliError> {
    let mut exp = build_experiment(o)?;
    let faults = load_fault_plan(o)?;
    // Refuse statically-broken healthy configs before burning simulation
    // time: the analyzer's error findings are sound for healthy runs, but
    // a fault plan's degradation policy may shed load and rescue the point.
    if faults.is_none() {
        let verdict = mcm_analyze::verdict(&exp);
        if let Some(reason) = verdict.reason() {
            return Err(CliError(format!(
                "statically infeasible, refusing to simulate: {reason}\n\
                 (see 'mcm lint' for the full analysis)"
            )));
        }
    }
    let run = mcm_core::RunOptions {
        verify: o.verify,
        faults,
        ..mcm_core::RunOptions::default()
    };
    let (r, findings) = if o.verify {
        // Keep the command traces bounded; the access time is extrapolated
        // from the simulated prefix either way.
        if exp.op_limit.is_none() {
            exp.op_limit = Some(VERIFY_OP_LIMIT);
        }
        let (r, findings) = exp
            .run_with(&run)
            .map_err(sim_err)?
            .into_verified()
            .expect("verified outcome");
        (r, Some(findings))
    } else {
        let r = exp
            .run_with(&run)
            .map_err(sim_err)?
            .into_frame()
            .expect("single-frame outcome");
        (r, None)
    };
    if o.output == OutputFormat::Json {
        let p99 = r
            .report
            .channels
            .iter()
            .filter_map(|c| c.latency_p99)
            .max()
            .map(|t| t.as_ns_f64());
        let mut j = serde_json::json!({
            "format": o.point.to_string(),
            "channels": o.channels,
            "clock_mhz": o.clock_mhz,
            "access_time_ms": r.access_time.as_ms_f64(),
            "frame_budget_ms": r.frame_budget.as_ms_f64(),
            "verdict": r.verdict.to_string(),
            "core_power_mw": r.power.core_mw,
            "interface_power_mw": r.power.interface_mw,
            "total_power_mw": r.power.total_mw(),
            "efficiency": r.efficiency(),
            "peak_bandwidth_gbps": r.peak_bandwidth_bytes_per_s / 1e9,
            "achieved_bandwidth_gbps": r.achieved_bandwidth_bytes_per_s() / 1e9,
            "latency_p99_ns": p99,
            "bytes_per_frame": r.planned_bytes,
        });
        if !o.workload.is_default() {
            if let serde_json::Value::Object(m) = &mut j {
                m.insert(
                    "workload".to_string(),
                    serde_json::Value::String(o.workload.name()),
                );
            }
        }
        if let Some(findings) = &findings {
            if let serde_json::Value::Object(m) = &mut j {
                m.insert("verify".to_string(), findings.to_json());
            }
        }
        if let Some(d) = &r.degrade {
            if let serde_json::Value::Object(m) = &mut j {
                m.insert(
                    "degrade".to_string(),
                    serde_json::to_value(d).expect("degrade summary serializes"),
                );
            }
        }
        Ok(j.to_string())
    } else {
        let mut out = String::new();
        out += &format!(
            "{} on {} ch x 32-bit mobile DDR @ {} MHz ({}, {}, {})\n",
            o.point, o.channels, o.clock_mhz, o.mapping, o.page, o.power_down
        );
        if o.workload.is_default() {
            let row = UseCase::hd(o.point).table_row();
            out += &format!(
                "  load:        {:.2} GB/s ({:.0} Mb/frame)\n",
                row.gbytes_per_second(),
                row.bits_per_frame() as f64 / 1e6
            );
        } else {
            // Non-default workloads report the model's own sustained
            // demand instead of the pinned Table I figure.
            let model = exp.model();
            out += &format!(
                "  workload:    {} ({:.2} GB/s sustained)\n",
                model.name(),
                model.bits_per_second() as f64 / 8e9
            );
        }
        out += &format!(
            "  access time: {:.2} ms of {:.2} ms budget [{}]\n",
            r.access_time.as_ms_f64(),
            r.frame_budget.as_ms_f64(),
            r.verdict
        );
        out += &format!(
            "  bandwidth:   {:.1} / {:.1} GB/s ({:.0}% efficiency)\n",
            r.achieved_bandwidth_bytes_per_s() / 1e9,
            r.peak_bandwidth_bytes_per_s / 1e9,
            r.efficiency() * 100.0
        );
        out += &format!("  power:       {}\n", r.power);
        if let Some(d) = &r.degrade {
            out += &format!(
                "  degraded:    lost channel(s) {:?}, {} of {} surviving\n",
                d.lost_channels, d.surviving_channels, o.channels
            );
            out += &format!(
                "  effective:   {:.1} of {} fps{}\n",
                d.effective_fps,
                d.nominal_fps,
                if d.holds_frame_rate() {
                    ""
                } else {
                    " (below real time)"
                }
            );
            if d.shed_bytes > 0 {
                let stages: Vec<&str> = d.shed.iter().map(|s| s.stage.as_str()).collect();
                out += &format!(
                    "  shed:        {:.1} MB over {} stage(s): {}\n",
                    d.shed_bytes as f64 / 1e6,
                    d.shed.len(),
                    stages.join(", ")
                );
            }
            if d.flaky_hits + d.retries + d.remaps > 0 {
                out += &format!(
                    "  recovery:    {} flaky hit(s), {} retried, {} remapped\n",
                    d.flaky_hits, d.retries, d.remaps
                );
            }
        }
        if let Some(findings) = &findings {
            out += "verify:\n";
            for line in findings.render_human().lines() {
                out += &format!("  {line}\n");
            }
        }
        Ok(out)
    }
}

fn run_headroom(o: &RunOptions) -> Result<String, CliError> {
    let exp = build_experiment(o)?;
    let fps = analysis::max_sustainable_fps(&exp).map_err(sim_err)?;
    Ok(match fps {
        Some(f) => format!(
            "{} x {} ch @ {} MHz sustains up to {f} fps (real time with 15% margin)\n",
            o.point.format(),
            o.channels,
            o.clock_mhz
        ),
        None => format!(
            "{} x {} ch @ {} MHz cannot sustain real-time recording\n",
            o.point.format(),
            o.channels,
            o.clock_mhz
        ),
    })
}

/// Executes a parsed command, returning the text to print.
pub fn execute(cmd: &Command) -> Result<String, CliError> {
    match cmd {
        Command::Help => Ok(USAGE.to_string()),
        Command::Table1 => Ok(figures::render_table1(&figures::table1_data())
            + "\nPaper anchors: 720p30 ≈ 1.9 GB/s; 1080p30 ≈ 4.3 GB/s (≈2.2x 720p30); \
               1080p60 ≈ 8.6 GB/s.\n"),
        Command::Table2 => Ok([2u32, 4, 8]
            .iter()
            .map(|&c| figures::render_table2(c) + "\n")
            .collect()),
        Command::Fig3 => {
            let d = figures::fig3_data_with(&RayonExecutor::default()).map_err(sim_err)?;
            Ok(figures::render_fig3_report(&d))
        }
        Command::Fig4 => {
            let d = figures::format_grid_data_with(&RayonExecutor::default()).map_err(sim_err)?;
            Ok(figures::render_fig4(&d))
        }
        Command::Fig5 => {
            let d = figures::format_grid_data_with(&RayonExecutor::default()).map_err(sim_err)?;
            Ok(figures::render_fig5_report(&d)
                + "\nPaper anchors: 720p 150 mW (1ch) -> 205 mW (8ch); 1080p30 4ch 345 mW; \
                   2160p 8ch 1280 mW.\n")
        }
        Command::Xdr => {
            let d = figures::xdr_data_with(&RayonExecutor::default()).map_err(sim_err)?;
            Ok(figures::render_xdr(&d)
                + "\nPaper: \"similar bandwidth (25.0 GB/s) but power consumption \
                   from 4% to 25% of the XDR value\".\n")
        }
        Command::Repro { json, csv_dir } => {
            let runner = RayonExecutor::default();
            let t1 = figures::table1_data();
            let f3 = figures::fig3_data_with(&runner).map_err(sim_err)?;
            let grid = figures::format_grid_data_with(&runner).map_err(sim_err)?;
            let xdr = figures::xdr_data_with(&runner).map_err(sim_err)?;
            let mut out = figures::render_repro(&t1, &f3, &grid, &xdr);
            if let Some(dir) = csv_dir {
                std::fs::create_dir_all(dir)
                    .map_err(|e| CliError(format!("cannot create '{dir}': {e}")))?;
                for (name, csv) in figures::repro_csv(&t1, &f3, &grid) {
                    let path = format!("{dir}/{name}");
                    std::fs::write(&path, csv)
                        .map_err(|e| CliError(format!("cannot write '{path}': {e}")))?;
                    eprintln!("wrote {path}");
                }
            }
            if *json {
                let data = serde_json::json!({
                    "table1": t1,
                    "fig3": f3,
                    "format_grid": grid,
                    "xdr": xdr,
                });
                out += &format!("\n--- JSON ---\n{data}\n");
            }
            Ok(out)
        }
        Command::Run(o) => run_one(o),
        Command::Headroom(o) => {
            reject_unapplied(o, "headroom", &[Faults, Verify])?;
            run_headroom(o)
        }
        Command::Steady { options, frames } => {
            reject_unapplied(options, "steady", &[Faults, Paced])?;
            run_steady(options, *frames)
        }
        Command::Profile(o) => {
            reject_unapplied(o, "profile", &[Faults, Paced, Verify])?;
            let exp = build_experiment(o)?;
            let p = mcm_core::profile::run_profiled(&exp).map_err(sim_err)?;
            let mut out = p.render();
            if let Some(b) = p.bottleneck() {
                out += &format!(
                    "\n  bottleneck: {} ({:.1}% of the frame)\n\n",
                    b.stage,
                    100.0 * b.time.as_ps() as f64 / p.total.as_ps() as f64
                );
            }
            Ok(out)
        }
        Command::Timeline { options, cycles } => {
            reject_unapplied(options, "timeline", &[Faults, Paced, Verify])?;
            timeline(options, *cycles)
        }
        Command::Datasheet { device, clock_mhz } => {
            let cfg = match device.as_str() {
                "mobile" => mcm_dram::ClusterConfig::next_gen_mobile_ddr(*clock_mhz),
                "ddr2" => mcm_dram::ClusterConfig::standard_ddr2(*clock_mhz),
                "future" => mcm_dram::ClusterConfig::future_lpddr2(*clock_mhz),
                "large" => mcm_dram::ClusterConfig::large_capacity_mobile_ddr(*clock_mhz),
                other => {
                    return Err(CliError(format!(
                        "unknown device '{other}' (expected mobile, ddr2, future or large)"
                    )))
                }
            };
            mcm_dram::datasheet::render_datasheet(&cfg)
                .map_err(|e| CliError(format!("datasheet: {e}")))
        }
        Command::ConfigDump(o) => {
            reject_unapplied(o, "config-dump", &[Faults, Verify])?;
            let exp = build_experiment(o)?;
            serde_json::to_string_pretty(&exp)
                .map(|mut s| {
                    s.push('\n');
                    s
                })
                .map_err(|e| CliError(format!("serialization failed: {e}")))
        }
        Command::ConfigRun { path } => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError(format!("cannot read '{path}': {e}")))?;
            let exp: Experiment = serde_json::from_str(&text)
                .map_err(|e| CliError(format!("bad experiment config: {e}")))?;
            let r = exp
                .run_with(&mcm_core::RunOptions::default())
                .map_err(sim_err)?
                .into_frame()
                .expect("single-frame outcome");
            Ok(format!(
                "access time {:.2} ms of {:.2} ms [{}], {}\n",
                r.access_time.as_ms_f64(),
                r.frame_budget.as_ms_f64(),
                r.verdict,
                r.power
            ))
        }
        Command::TraceDump { options, out } => {
            reject_unapplied(options, "trace-dump", &[Faults, Paced, Verify])?;
            trace_dump(options, out)
        }
        Command::TraceRun { options, input } => {
            reject_unapplied(options, "trace-run", &[Faults, Paced, Verify])?;
            trace_run(options, input)
        }
        Command::Check(o) => run_check(o),
        Command::Lint(o) => run_lint(o),
        Command::Sweep(a) => run_sweep_cmd(a),
        Command::Report(a) => {
            reject_unapplied(&a.options, "report", &[Faults, Verify])?;
            run_report(a)
        }
        Command::Fault(a) => run_fault(a),
        Command::Serve(a) => run_serve(a),
    }
}

/// `mcm serve`: bind the HTTP/JSON service and handle requests until a
/// `POST /shutdown` arrives. The bound address is printed up front (and
/// flushed) so scripts using an ephemeral port can discover it.
fn run_serve(a: &ServeArgs) -> Result<String, CliError> {
    use std::io::Write;

    let config = mcm_serve::ServeConfig {
        addr: a.addr.clone(),
        store_dir: std::path::PathBuf::from(&a.store),
        max_jobs: a.jobs,
        threads: a.threads,
    };
    let server = mcm_serve::Server::bind(config).map_err(|e| CliError(format!("serve: {e}")))?;
    println!("mcm serve listening on http://{}", server.local_addr());
    let _ = std::io::stdout().flush();
    server.run().map_err(|e| CliError(format!("serve: {e}")))?;
    Ok("mcm serve: shut down cleanly\n".to_string())
}

/// `mcm fault`: build a deterministic fault plan — the seeded mixed
/// scenario, or an explicit channel-loss list with `--lose` — validate it
/// against the channel count, then describe it, print it as JSON or write
/// it to a file for `mcm run --faults <plan.json>`.
fn run_fault(a: &FaultArgs) -> Result<String, CliError> {
    use mcm_fault::{DegradePolicy, FaultPlan, FaultSpec};

    let plan = if a.lose.is_empty() {
        FaultPlan::seeded(a.seed, a.channels)
            .map_err(|e| CliError(format!("cannot build plan: {e}")))?
    } else {
        FaultPlan {
            seed: a.seed,
            faults: a
                .lose
                .iter()
                .map(|&channel| FaultSpec::ChannelLoss { channel })
                .collect(),
            policy: DegradePolicy::default(),
        }
    };
    plan.validate(a.channels).map_err(|e| {
        CliError(format!(
            "plan is invalid for {} channel(s): {e}",
            a.channels
        ))
    })?;
    let json = serde_json::to_string_pretty(&plan)
        .map(|mut s| {
            s.push('\n');
            s
        })
        .map_err(|e| CliError(format!("plan serialization failed: {e}")))?;
    if let Some(path) = &a.out {
        std::fs::write(path, &json).map_err(|e| CliError(format!("cannot write '{path}': {e}")))?;
        return Ok(format!(
            "wrote fault plan (seed {:#x}, {} fault(s)) to {path}\n",
            plan.seed,
            plan.faults.len()
        ));
    }
    Ok(if a.output == OutputFormat::Json {
        json
    } else {
        plan.describe()
    })
}

/// `mcm report`: run one experiment with a [`mcm_obs::StatsRecorder`]
/// attached and print what it saw — per-channel command counters, latency
/// and queue-depth percentiles, bandwidth/energy timelines, kernel stats
/// and spans — as text, JSON, CSV or Chrome `trace_event` JSON.
fn run_report(a: &ReportArgs) -> Result<String, CliError> {
    use mcm_obs::{ObsConfig, StatsRecorder};

    let exp = build_experiment(&a.options)?;
    let config = ObsConfig {
        timeline_bucket_ps: a.timeline_bucket_us * 1_000_000,
        ..ObsConfig::default()
    };
    let rec = std::sync::Arc::new(StatsRecorder::with_config(config));
    let run = mcm_core::RunOptions::default().with_recorder(rec.clone());
    exp.run_with(&run).map_err(sim_err)?;

    let report = rec.report();
    Ok(match a.output {
        OutputFormat::Json => report.to_json() + "\n",
        OutputFormat::Csv => report.to_csv(),
        OutputFormat::Trace => report.to_chrome_trace() + "\n",
        OutputFormat::Text => {
            let o = &a.options;
            let mut out = format!(
                "observed {} on {} ch x 32-bit mobile DDR @ {} MHz ({}, {}, {})\n\n",
                o.point, o.channels, o.clock_mhz, o.mapping, o.page, o.power_down
            );
            out += &report.render_text();
            if a.histogram {
                for ch in &report.channels {
                    out += &render_latency_buckets(ch.channel, &rec.latency_buckets(ch.channel));
                }
            }
            out
        }
    })
}

/// The raw latency distribution behind the percentile summary: one row per
/// non-empty log bucket with a `#` bar scaled to the fullest bucket.
fn render_latency_buckets(channel: u32, buckets: &[(u64, u64, u64)]) -> String {
    if buckets.is_empty() {
        return String::new();
    }
    let peak = buckets.iter().map(|&(_, _, n)| n).max().unwrap_or(1);
    let mut out = format!("\nlatency histogram, channel {channel} (ns):\n");
    for &(lo, hi, n) in buckets {
        let bar = "#".repeat(((n * 40).div_ceil(peak)) as usize);
        out += &format!(
            "  [{:>9.1}, {:>9.1}]  {:>8}  {bar}\n",
            lo as f64 / 1e3,
            hi as f64 / 1e3,
            n
        );
    }
    out
}

/// `mcm sweep`: expand the requested grid, execute it on the parallel
/// engine (optionally against a content-hash result cache) and render a
/// table, JSON or CSV.
fn run_sweep_cmd(a: &SweepArgs) -> Result<String, CliError> {
    if !a.merge.is_empty() {
        return run_sweep_merge(a);
    }
    let spec = mcm_sweep::SweepSpec {
        points: a.points.clone(),
        channels: a.channels.clone(),
        clocks_mhz: a.clocks.clone(),
        workloads: a.workloads.clone(),
        op_limit: a.op_limit,
        ..mcm_sweep::SweepSpec::default()
    };
    let mut options = mcm_sweep::SweepOptions {
        threads: a.threads,
        cache_dir: a.cache.as_ref().map(std::path::PathBuf::from),
        progress: a.progress,
        prelint: a.prelint,
        ..mcm_sweep::SweepOptions::default()
    };
    // `--checkpoint` creates-or-extends, `--resume` insists the log is
    // already there; both bind the log to the *full* spec, so a sharded
    // run shares one log with its siblings.
    let log = match (&a.checkpoint, &a.resume) {
        (Some(path), None) => Some((path, false)),
        (None, Some(path)) => Some((path, true)),
        _ => None,
    };
    if let Some((path, must_exist)) = log {
        let log = mcm_sweep::CheckpointLog::attach(path, &spec, must_exist)
            .map_err(|e| CliError(e.to_string()))?;
        options = options.with_checkpoint(log);
    }
    let executor = sweep_executor(a)?;
    if let Some((index, of)) = a.shard {
        if a.output != OutputFormat::Json {
            return Err(CliError(
                "--shard writes a JSON shard document: add --json (merge with --merge)".into(),
            ));
        }
        let shard = mcm_sweep::run_sweep_shard_on(&*executor, &spec, index, of, &options)
            .map_err(|e| CliError(e.to_string()))?;
        return Ok(shard.to_json() + "\n");
    }
    let result = mcm_sweep::run_sweep_on(&*executor, &spec, &options)
        .map_err(|e| CliError(e.to_string()))?;
    match a.output {
        OutputFormat::Json => Ok(result.to_json() + "\n"),
        OutputFormat::Csv => Ok(result.to_csv()),
        // The parser refuses --trace for sweep; Text is the fallback.
        OutputFormat::Text | OutputFormat::Trace => {
            let mut out = format!(
                "{:<28} {:>4} {:>6} {:>10} {:>10} {:>9} {:>10}\n",
                "point", "ch", "MHz", "access ms", "budget ms", "verdict", "power mW"
            );
            for p in &result.points {
                let coord = format!("{:<28} {:>4} {:>6}", p.label, p.channels, p.clock_mhz);
                match &p.outcome {
                    Ok(r) if r.feasible => {
                        out += &format!(
                            "{coord} {:>10.2} {:>10.2} {:>9} {:>10.1}\n",
                            r.access_ms.unwrap_or(0.0),
                            r.budget_ms.unwrap_or(0.0),
                            r.verdict.as_deref().unwrap_or("-"),
                            r.total_mw().unwrap_or(0.0),
                        );
                    }
                    Ok(r) => {
                        out += &format!(
                            "{coord} {:>10} {:>10} {:>9} {:>10}   ({})\n",
                            "-",
                            "-",
                            "infeas",
                            "-",
                            r.infeasible_reason.as_deref().unwrap_or("does not fit"),
                        );
                    }
                    Err(e) => {
                        out += &format!("{coord}   FAILED: {e}\n");
                    }
                }
            }
            out += &format!("\n{}\n", result.stats);
            Ok(out)
        }
    }
}

/// `mcm sweep --merge <files...>`: recombine shard result files into the
/// output the unsharded run would have produced, byte for byte.
fn run_sweep_merge(a: &SweepArgs) -> Result<String, CliError> {
    if a.shard.is_some() {
        return Err(CliError(
            "--merge and --shard are exclusive: merge recombines finished shard files".into(),
        ));
    }
    let docs = a
        .merge
        .iter()
        .map(|path| {
            std::fs::read_to_string(path)
                .map(|text| (path.clone(), text))
                .map_err(|e| CliError(format!("cannot read shard file '{path}': {e}")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let merged = mcm_sweep::merge_shards(&docs).map_err(|e| CliError(e.to_string()))?;
    match a.output {
        OutputFormat::Json => Ok(merged.to_json() + "\n"),
        OutputFormat::Csv => Ok(merged.to_csv()),
        OutputFormat::Text | OutputFormat::Trace => Err(CliError(
            "mcm sweep --merge writes machine output: add --json or --csv".into(),
        )),
    }
}

/// The executor `--executor` selects: the in-process rayon pool, or a
/// [`ServeExecutor`](mcm_serve::ServeExecutor) over remote workers.
fn sweep_executor(a: &SweepArgs) -> Result<Box<dyn mcm_sweep::Executor>, CliError> {
    match &a.executor {
        ExecutorArg::Local => Ok(Box::new(mcm_sweep::RayonExecutor::default())),
        ExecutorArg::Serve(addrs) => Ok(Box::new(
            mcm_serve::ServeExecutor::connect(addrs).map_err(|e| CliError(e.to_string()))?,
        )),
    }
}

/// `mcm check`: config lints, cross-channel invariants and a bounded
/// simulated trace audit. Error findings make the command itself fail,
/// so scripts get a non-zero exit; the full report is in the error text.
fn run_check(o: &RunOptions) -> Result<String, CliError> {
    let mut findings = check_findings(o)?;
    findings.sort_by_severity();
    let out = if o.output == OutputFormat::Json {
        let mut j = serde_json::json!({
            "format": o.point.to_string(),
            "channels": o.channels,
            "clock_mhz": o.clock_mhz,
            "rules_checked": mcm_verify::rule_catalogue().len(),
        });
        if let serde_json::Value::Object(m) = &mut j {
            m.insert("check".to_string(), findings.to_json());
        }
        let mut s = j.to_string();
        s.push('\n');
        s
    } else {
        let mut s = format!(
            "mcm check: {} on {} ch @ {} MHz ({}, {}, {}; {} rules)\n",
            o.point,
            o.channels,
            o.clock_mhz,
            o.mapping,
            o.page,
            o.power_down,
            mcm_verify::rule_catalogue().len()
        );
        s += &findings.render_human();
        s
    };
    if findings.has_errors() {
        Err(CliError(out))
    } else {
        Ok(out)
    }
}

/// `mcm lint`: the purely static passes — configuration-structure lints
/// (`MCM1xx`) plus the feasibility analysis (`MCM4xx`) — with no
/// simulation at all. Error findings make the command fail so scripts get
/// a non-zero exit; every finding carries its machine-readable witness in
/// the JSON output.
fn run_lint(o: &RunOptions) -> Result<String, CliError> {
    reject_unapplied(o, "lint", &[Faults, Paced, Verify])?;
    let exp = build_experiment(o)?;
    let mut findings = mcm_verify::lint_all(&exp.use_case, &exp.memory, &exp.interface);
    findings.merge(mcm_analyze::analyze_experiment(&exp));
    findings.sort_by_severity();
    let rules_checked = mcm_verify::config::CONFIG_RULES.len() + mcm_analyze::ANALYZE_RULES.len();
    let out = if o.output == OutputFormat::Json {
        let mut j = serde_json::json!({
            "format": o.point.to_string(),
            "channels": o.channels,
            "clock_mhz": o.clock_mhz,
            "rules_checked": rules_checked,
        });
        if let serde_json::Value::Object(m) = &mut j {
            m.insert("lint".to_string(), findings.to_json());
        }
        let mut s = j.to_string();
        s.push('\n');
        s
    } else {
        let mut s = format!(
            "mcm lint: {} on {} ch @ {} MHz ({}, {}, {}; {} rules)\n",
            o.point, o.channels, o.clock_mhz, o.mapping, o.page, o.power_down, rules_checked
        );
        s += &findings.render_human();
        s
    };
    if findings.has_errors() {
        Err(CliError(out))
    } else {
        Ok(out)
    }
}

/// The report behind `mcm check`, in pass order: configuration lints,
/// cross-channel invariants, then (when the config is viable) a bounded
/// simulation with the trace audit, traffic-balance checks and — under
/// `--faults` — the MCM3xx degraded-mode rules.
fn check_findings(o: &RunOptions) -> Result<mcm_verify::Report, CliError> {
    use mcm_dram::AddressMapping;
    use mcm_verify::{check_address_roundtrip, check_interleave, Diagnostic, Severity};

    let plan = load_fault_plan(o)?;
    let mut exp = build_experiment(o)?;
    exp.op_limit = Some(exp.op_limit.unwrap_or(VERIFY_OP_LIMIT).min(VERIFY_OP_LIMIT));
    let geometry = exp.memory.controller.cluster.geometry;

    let mut findings = mcm_verify::Report::new();
    match mcm_channel::InterleaveMap::new(o.channels, exp.memory.granule_bytes) {
        Ok(map) => findings.merge(check_interleave(&map, 64)),
        Err(e) => findings.push(Diagnostic::new(
            "MCM201",
            Severity::Error,
            format!("interleave construction failed: {e}"),
        )),
    }
    findings.merge(check_address_roundtrip(
        &geometry,
        &[AddressMapping::Rbc, AddressMapping::Brc],
        64,
    ));

    let lints = mcm_verify::lint_all(&exp.use_case, &exp.memory, &exp.interface);
    let analysis = mcm_analyze::analyze_experiment(&exp);
    if lints.has_errors() || analysis.has_errors() {
        // The simulation would only fail or mislead; report what the
        // lints and the static analysis found and say why no trace was
        // audited.
        findings.merge(lints);
        findings.merge(analysis);
        findings.push(Diagnostic::new(
            "MCM101",
            Severity::Note,
            "trace audit skipped: the configuration errors above must be fixed first",
        ));
    } else {
        // Static warnings (near-roofline demand, tight footprints) are
        // findings too; the audit below cannot rediscover them.
        findings.merge(analysis);
        // run_verified repeats the lints, so any warnings they produced
        // are still reported exactly once.
        let run = mcm_core::RunOptions {
            verify: true,
            faults: plan,
            ..mcm_core::RunOptions::default()
        };
        let verified = exp
            .run_with(&run)
            .map(|o| o.into_verified().expect("verified outcome"));
        match verified {
            Ok((_, sim_findings)) => findings.merge(sim_findings),
            Err(e) => findings.push(Diagnostic::new(
                "MCM101",
                Severity::Error,
                format!("verification run failed on a lint-clean configuration: {e}"),
            )),
        }
    }
    Ok(findings)
}

/// `mcm timeline`: channel 0's command schedule over the first `cycles`
/// cycles of the frame, from the same subsystem and frame feed as `mcm run`.
fn timeline(o: &RunOptions, cycles: u64) -> Result<String, CliError> {
    const WIDTH: u64 = 200;
    let exp = build_experiment(o)?;
    let mut memory = MemorySubsystem::new(&exp.memory).map_err(sim_err)?;
    memory.enable_trace();
    let traffic = exp
        .feed(memory.capacity_bytes())
        .traffic(exp.model().as_ref(), 0, &[])
        .map_err(sim_err)?;
    // At most WIDTH cycles are drawn; a transaction submitted once channel
    // 0 is busy 64 cycles past them issues no command inside them.
    let horizon = cycles.min(WIDTH) + 64;
    for op in traffic {
        if memory.controller(0).map_err(sim_err)?.busy_until() > horizon {
            break;
        }
        memory.submit(transaction(&op, 0)).map_err(sim_err)?;
    }
    let channel0 = memory.controller(0).map_err(sim_err)?;
    let trace = channel0.device().trace().expect("trace enabled");
    let mut out = format!(
        "channel 0 command schedule, cycles 0..{cycles} ({} on {} ch @ {} MHz)\n\n",
        o.point, o.channels, o.clock_mhz
    );
    out += &mcm_dram::timeline::render_timeline(
        trace,
        channel0.device().geometry().banks,
        0,
        cycles,
        WIDTH as usize,
    );
    out += "\nA activate, r read, w write, P precharge, F refresh, D/U power-down\nenter/exit, S/X self-refresh enter/exit, '-' row open.\n";
    Ok(out)
}

fn trace_dump(o: &RunOptions, out: &str) -> Result<String, CliError> {
    use std::io::Write;

    let exp = build_experiment(o)?;
    let traffic = exp
        .feed(exp.memory.capacity_bytes())
        .traffic(exp.model().as_ref(), 0, &[])
        .map_err(|e| CliError(format!("traffic failed: {e}")))?;
    let io_err = |e: std::io::Error| CliError(format!("cannot write '{out}': {e}"));
    if out == "-" {
        // Stdout carries the trace alone, so it replays as written; a
        // reader that closes it early (`… | head`) took all it wanted.
        let mut w = std::io::BufWriter::new(std::io::stdout().lock());
        return match mcm_load::write_trace(traffic, &mut w).and_then(|_| w.flush()) {
            Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => Err(io_err(e)),
            _ => Ok(String::new()),
        };
    }
    let file = std::fs::File::create(out).map_err(io_err)?;
    let mut w = std::io::BufWriter::new(file);
    let n = mcm_load::write_trace(traffic, &mut w).map_err(io_err)?;
    w.flush().map_err(io_err)?;
    Ok(format!("wrote {n} operations to {out}\n"))
}

fn trace_run(o: &RunOptions, input: &str) -> Result<String, CliError> {
    let exp = build_experiment(o)?;
    let file =
        std::fs::File::open(input).map_err(|e| CliError(format!("cannot read '{input}': {e}")))?;
    // The cap stops the reader too: lines past the op budget are never read.
    let ops = exp
        .feed(exp.memory.capacity_bytes())
        .cap(mcm_load::read_trace(std::io::BufReader::new(file)));
    let r =
        mcm_core::tracerun::run_trace(&exp.memory, ops, &exp.interface).map_err(|e| match e {
            CoreError::Load(e) => CliError(format!("bad trace: {e}")),
            e => CliError(format!("replay failed: {e}")),
        })?;
    Ok(format!(
        "replayed {} ops ({:.1} MB) on {} ch @ {} MHz:\n  drain time {:.3} ms, {:.2} GB/s, {}\n",
        r.ops,
        r.bytes as f64 / 1e6,
        o.channels,
        o.clock_mhz,
        r.access_time.as_ms_f64(),
        r.bandwidth_bytes_per_s / 1e9,
        r.power
    ))
}

fn run_steady(o: &RunOptions, frames: u32) -> Result<String, CliError> {
    if frames < 2 {
        return Err(sim_err(CoreError::BadParam {
            reason: format!(
                "a steady session needs at least 2 frames (got {frames}); use 'mcm run' for one"
            ),
        }));
    }
    let exp = build_experiment(o)?;
    let r = exp
        .run_with(&mcm_core::RunOptions::steady(frames).with_verify(o.verify))
        .map_err(sim_err)?
        .into_steady()
        .expect("a multi-frame run has a steady outcome");
    let mut out = format!(
        "{} x {} ch @ {} MHz, {frames} consecutive frames\n",
        o.point, o.channels, o.clock_mhz
    );
    if let Some(steady) = r.steady_access_time() {
        out += &format!("  steady access time: {steady}\n");
    }
    let worst = r.frames.iter().map(|f| f.access_time).max().unwrap();
    out += &format!("  worst frame:        {worst}\n");
    out += &format!("  all real-time:      {}\n", r.all_real_time());
    out += &format!("  sustained power:    {}\n", r.power);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_args;

    #[test]
    fn help_contains_all_commands() {
        let out = execute(&Command::Help).unwrap();
        for c in ["repro", "fig3", "run", "headroom", "--power-down"] {
            assert!(out.contains(c), "usage text missing {c}");
        }
    }

    #[test]
    fn table_commands_render_without_simulation() {
        let out = execute(&Command::Table1).unwrap();
        assert!(out.contains("Video encoder"));
        assert!(out.ends_with("1080p60 ≈ 8.6 GB/s.\n"), "{out}");
        let out = execute(&Command::Table2).unwrap();
        assert!(out.contains("BC0"));
    }

    #[test]
    fn run_command_produces_text_and_json() {
        // Small/fast configuration.
        let cmd = parse_args([
            "run",
            "--format",
            "720p30",
            "--channels",
            "8",
            "--clock",
            "533",
        ])
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("access time"));

        let cmd = parse_args([
            "run",
            "--format",
            "720p30",
            "--channels",
            "8",
            "--clock",
            "533",
            "--json",
        ])
        .unwrap();
        let out = execute(&cmd).unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).expect("valid JSON");
        assert_eq!(v["channels"], 8);
        assert!(v["access_time_ms"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn infeasible_run_is_refused_statically() {
        // 2160p30 on one channel cannot even hold its frame buffers; the
        // analyzer refuses the run with a witnessed MCM4xx diagnostic
        // instead of letting the engine discover the overflow.
        let cmd = parse_args(["run", "--format", "2160p30", "--channels", "1"]).unwrap();
        let err = execute(&cmd).unwrap_err().to_string();
        assert!(err.contains("statically infeasible"), "{err}");
        assert!(err.contains("MCM4"), "{err}");
        assert!(err.contains("mcm lint"), "{err}");
    }

    #[test]
    fn faulted_runs_bypass_the_static_refusal() {
        // A fault plan brings a degradation policy that may shed load, so
        // the static verdict must not block the simulation. 2160p30 on 4
        // channels is above the roofline; with a channel loss the degraded
        // engine still produces a (shed, slower) result.
        let dir = std::env::temp_dir().join(format!("mcm-cli-fault-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let plan_path = dir.join("plan.json");
        let plan = mcm_fault::FaultPlan::channel_loss(5, 0);
        std::fs::write(&plan_path, serde_json::to_string(&plan).unwrap()).unwrap();
        let plan_str = plan_path.to_str().unwrap();
        let cmd = parse_args([
            "run",
            "--format",
            "2160p30",
            "--channels",
            "4",
            "--faults",
            plan_str,
            "--op-limit",
            "2000",
        ])
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("degraded"), "{out}");
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[cfg(test)]
mod check_cli_tests {
    use super::*;
    use crate::args::parse_args;

    fn options(args: &[&str]) -> RunOptions {
        let mut full = vec!["check"];
        full.extend_from_slice(args);
        let Command::Check(o) = parse_args(full).unwrap() else {
            panic!("expected check");
        };
        o
    }

    #[test]
    fn default_config_checks_clean() {
        let cmd = parse_args(["check"]).unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("check clean: 0 findings"), "{out}");
    }

    #[test]
    fn json_output_is_parseable_and_clean() {
        let cmd = parse_args(["check", "--json"]).unwrap();
        let out = execute(&cmd).unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).expect("valid JSON");
        assert_eq!(v["check"]["summary"]["clean"], true, "{out}");
        assert!(v["rules_checked"].as_u64().unwrap() >= 23);
    }

    #[test]
    fn infeasible_config_fails_with_mcm102() {
        let cmd = parse_args([
            "check",
            "--format",
            "2160p30",
            "--channels",
            "1",
            "--clock",
            "200",
        ])
        .unwrap();
        let err = execute(&cmd).unwrap_err();
        assert!(err.to_string().contains("MCM102"), "{err}");
        assert!(err.to_string().contains("trace audit skipped"), "{err}");
    }

    #[test]
    fn policy_findings_reach_the_report() {
        let findings = check_findings(&options(&["--power-down", "sr:0"])).unwrap();
        // sr_after 0 < pd_after 1: the escalation can never fire.
        assert!(
            findings.ids().contains(&"MCM105"),
            "{}",
            findings.render_human()
        );
        assert!(findings.has_errors());
    }

    #[test]
    fn verified_run_flag_reports_clean() {
        let cmd = parse_args([
            "run",
            "--format",
            "720p30",
            "--channels",
            "8",
            "--clock",
            "533",
            "--verify",
            "--json",
        ])
        .unwrap();
        let out = execute(&cmd).unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).expect("valid JSON");
        assert_eq!(v["verify"]["summary"]["clean"], true, "{out}");
    }
}

#[cfg(test)]
mod sweep_cli_tests {
    use super::*;
    use crate::args::parse_args;

    #[test]
    fn sweep_text_table_and_stats() {
        let cmd = parse_args([
            "sweep",
            "--formats",
            "720p30",
            "--channels",
            "1,4",
            "--op-limit",
            "2000",
            "--threads",
            "2",
        ])
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("1280x720@30/1ch/400MHz"), "{out}");
        assert!(out.contains("2 points: 2 simulated"), "{out}");
    }

    #[test]
    fn sweep_json_is_parseable_and_csv_has_rows() {
        let cmd = parse_args([
            "sweep",
            "--formats",
            "720p30",
            "--channels",
            "2",
            "--op-limit",
            "2000",
            "--json",
        ])
        .unwrap();
        let out = execute(&cmd).unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).expect("valid JSON");
        assert_eq!(v[0]["channels"], 2);
        assert!(v[0]["record"]["access_ms"].as_f64().unwrap() > 0.0);

        let cmd = parse_args([
            "sweep",
            "--formats",
            "720p30",
            "--channels",
            "2",
            "--op-limit",
            "2000",
            "--csv",
        ])
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert_eq!(out.lines().count(), 2);
        assert!(out.lines().next().unwrap().starts_with("label,"));
    }

    #[test]
    fn sweep_cache_flag_round_trips() {
        let dir = std::env::temp_dir().join("mcm_cli_sweep_cache_test");
        let _ = std::fs::remove_dir_all(&dir);
        let args = [
            "sweep",
            "--formats",
            "720p30",
            "--channels",
            "1,2",
            "--op-limit",
            "2000",
            "--cache",
        ];
        let run = || {
            let mut full: Vec<&str> = args.to_vec();
            let d = dir.to_str().unwrap();
            full.push(d);
            execute(&parse_args(full).unwrap()).unwrap()
        };
        let cold = run();
        assert!(cold.contains("2 simulated, 0 cached"), "{cold}");
        let warm = run();
        assert!(warm.contains("0 simulated, 2 cached"), "{warm}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_shards_merge_and_checkpoints_resume_byte_identically() {
        let dir = std::env::temp_dir().join(format!("mcm_cli_shard_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let grid = [
            "--formats",
            "720p30,1080p30",
            "--channels",
            "1,2",
            "--op-limit",
            "2000",
        ];
        let sweep = |extra: &[&str]| {
            let mut full: Vec<&str> = vec!["sweep"];
            full.extend_from_slice(&grid);
            full.extend_from_slice(extra);
            execute(&parse_args(full).unwrap())
        };

        let whole = sweep(&["--json"]).unwrap();

        // Two shards merge back to the exact bytes of the whole run,
        // regardless of the order the files are given in.
        let s0 = sweep(&["--json", "--shard", "0/2"]).unwrap();
        let s1 = sweep(&["--json", "--shard", "1/2"]).unwrap();
        let p0 = dir.join("s0.json");
        let p1 = dir.join("s1.json");
        std::fs::write(&p0, &s0).unwrap();
        std::fs::write(&p1, &s1).unwrap();
        let merged = execute(
            &parse_args([
                "sweep",
                "--merge",
                p1.to_str().unwrap(),
                p0.to_str().unwrap(),
                "--json",
            ])
            .unwrap(),
        )
        .unwrap();
        assert_eq!(merged, whole, "merge must reproduce the unsharded run");

        // A checkpointed run resumes byte-identically under the same
        // flags; a lone shard file refuses to merge.
        let log = dir.join("log.jsonl");
        let log_s = log.to_str().unwrap();
        let first = sweep(&["--json", "--checkpoint", log_s]).unwrap();
        assert_eq!(first, whole);
        let resumed = sweep(&["--json", "--resume", log_s]).unwrap();
        assert_eq!(resumed, whole);
        let lone =
            execute(&parse_args(["sweep", "--merge", p0.to_str().unwrap(), "--json"]).unwrap())
                .unwrap_err();
        assert!(
            lone.to_string().contains("expected 2 shard file(s)"),
            "{lone}"
        );

        // Shard documents are JSON-only; text output has no shard form.
        let refusal = sweep(&["--shard", "0/2"]).unwrap_err();
        assert!(refusal.to_string().contains("--json"), "{refusal}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_workloads_axis_expands_and_labels_points() {
        let cmd = parse_args([
            "sweep",
            "--formats",
            "720p30",
            "--channels",
            "2",
            "--workloads",
            "h264-record,stochastic:7",
            "--op-limit",
            "2000",
            "--json",
        ])
        .unwrap();
        let out = execute(&cmd).unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).expect("valid JSON");
        let labels: Vec<&str> = v
            .as_array()
            .unwrap()
            .iter()
            .map(|p| p["label"].as_str().unwrap())
            .collect();
        assert_eq!(labels.len(), 2, "{out}");
        assert!(
            labels.iter().any(|l| l.ends_with("/stochastic:7")),
            "{labels:?}"
        );
        assert!(
            labels.iter().any(|l| l.ends_with("/h264-record")),
            "{labels:?}"
        );
    }
}

#[cfg(test)]
mod workload_cli_tests {
    use super::*;
    use crate::args::parse_args;

    #[test]
    fn run_with_a_workload_reports_the_model_demand() {
        let cmd = parse_args(["run", "--workload", "hevc-record", "--op-limit", "4000"]).unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("workload:    hevc-record"), "{out}");
        assert!(!out.contains("  load:"), "{out}");
    }

    #[test]
    fn run_json_carries_the_workload_name_only_when_selected() {
        let run = |extra: &[&str]| {
            let mut args = vec!["run", "--op-limit", "4000", "--json"];
            args.extend_from_slice(extra);
            execute(&parse_args(args).unwrap()).unwrap()
        };
        let v: serde_json::Value = serde_json::from_str(&run(&[])).unwrap();
        assert!(v.get("workload").is_none(), "default run stays pinned");
        let out = run(&["--workload", "stochastic:9:75"]);
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["workload"], serde_json::json!("stochastic:9:75"), "{out}");
    }

    #[test]
    fn infeasible_workloads_are_refused_statically() {
        // Eight tenants on the paper's 4-channel point are far beyond the
        // roofline; the run must be refused before simulating, exactly as
        // an infeasible format/channel combination would be.
        let cmd = parse_args(["run", "--workload", "multi-tenant:8"]).unwrap();
        let err = execute(&cmd).unwrap_err().to_string();
        assert!(err.contains("statically infeasible"), "{err}");
        assert!(err.contains("MCM4"), "{err}");
    }

    #[test]
    fn check_and_lint_price_in_the_workload() {
        let cmd = parse_args(["lint", "--workload", "multi-tenant:8", "--json"]).unwrap();
        let err = execute(&cmd).unwrap_err().to_string();
        let v: serde_json::Value = serde_json::from_str(&err).expect("lint --json emits JSON");
        let ids: Vec<&str> = v["lint"]["findings"]
            .as_array()
            .unwrap()
            .iter()
            .map(|f| f["id"].as_str().unwrap())
            .collect();
        assert!(ids.contains(&"MCM405"), "{ids:?}");

        let cmd = parse_args(["check", "--workload", "hevc-record", "--op-limit", "4000"]).unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("check clean: 0 findings"), "{out}");
    }

    #[test]
    fn trace_dump_follows_the_workload_model() {
        let run = |workload: Option<&str>| {
            let dir = std::env::temp_dir().join(format!(
                "mcm_cli_wl_trace_{}_{}",
                std::process::id(),
                workload.unwrap_or("default").replace(':', "_")
            ));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("trace.txt");
            let path_s = path.to_str().unwrap().to_string();
            let mut args = vec!["trace-dump", "--format", "720p30", "--out", &path_s];
            if let Some(w) = workload {
                args.push("--workload");
                args.push(w);
            }
            let out = execute(&parse_args(args).unwrap()).unwrap();
            assert!(out.contains("wrote"), "{out}");
            let text = std::fs::read_to_string(&path).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            text
        };
        let table_i = run(None);
        let multi = run(Some("multi-tenant:2"));
        // Two tenants write disjoint copies of the frame pipeline, so the
        // multi-tenant trace is strictly longer than the single-tenant one.
        assert!(multi.lines().count() > table_i.lines().count());
    }
}

#[cfg(test)]
mod report_cli_tests {
    use super::*;
    use crate::args::parse_args;

    const FAST: &[&str] = &[
        "report",
        "--format",
        "720p30",
        "--channels",
        "2",
        "--op-limit",
        "2000",
    ];

    fn run(extra: &[&str]) -> String {
        let mut args: Vec<&str> = FAST.to_vec();
        args.extend_from_slice(extra);
        execute(&parse_args(args).unwrap()).unwrap()
    }

    #[test]
    fn text_report_shows_counters_and_percentiles() {
        let out = run(&[]);
        assert!(out.contains("observed 1280x720@30"), "{out}");
        assert!(out.contains("on 2 ch"), "{out}");
        assert!(out.contains("channel 0"), "{out}");
        assert!(out.contains("channel 1"), "{out}");
        assert!(out.contains("p99"), "{out}");
        // The direct-call path never touches the event kernel.
        assert!(!out.contains("kernel:"), "{out}");
        assert!(out.contains("gauge power.total_mw"), "{out}");
    }

    #[test]
    fn histogram_flag_adds_bucket_rows() {
        let plain = run(&[]);
        assert!(!plain.contains("latency histogram"), "{plain}");
        let out = run(&["--histogram"]);
        assert!(out.contains("latency histogram, channel 0 (ns):"), "{out}");
        assert!(out.contains('#'), "{out}");
    }

    #[test]
    fn json_report_is_parseable_with_channels() {
        let out = run(&["--json"]);
        let v: serde_json::Value = serde_json::from_str(&out).expect("valid JSON");
        let channels = v["channels"].as_array().unwrap();
        assert_eq!(channels.len(), 2);
        // The 2000-op prefix is all capture writes, so reads may be zero.
        assert!(channels[0]["counters"]["bytes_written"].as_u64().unwrap() > 0);
        assert!(channels[0]["counters"]["requests"].as_u64().unwrap() > 0);
    }

    #[test]
    fn csv_report_has_one_row_per_channel() {
        let out = run(&["--csv"]);
        let mut lines = out.lines();
        assert!(lines.next().unwrap().starts_with("channel,"));
        assert_eq!(lines.count(), 2);
    }

    #[test]
    fn trace_report_is_chrome_trace_json() {
        let out = run(&["--trace"]);
        let v: serde_json::Value = serde_json::from_str(&out).expect("valid JSON");
        let events = v["traceEvents"].as_array().unwrap();
        assert!(!events.is_empty());
        assert!(events.iter().any(|e| e["ph"] == "X"));
    }

    #[test]
    fn timeline_bucket_flag_coarsens_the_timeline() {
        let fine = run(&["--json"]);
        let coarse = run(&["--timeline-bucket", "1000", "--json"]);
        let bucket = |s: &str| {
            serde_json::from_str::<serde_json::Value>(s).unwrap()["timeline_bucket_ps"]
                .as_u64()
                .unwrap()
        };
        assert_eq!(bucket(&fine), 1_000_000);
        assert_eq!(bucket(&coarse), 1_000_000_000);
    }
}

#[cfg(test)]
mod steady_and_viewfinder_tests {
    use super::*;
    use crate::args::parse_args;

    #[test]
    fn steady_command_runs() {
        let cmd = parse_args([
            "steady",
            "--format",
            "720p30",
            "--channels",
            "8",
            "--clock",
            "533",
            "--frames",
            "3",
        ])
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("3 consecutive frames"));
        assert!(out.contains("steady access time"));

        // Sessions are unverified and at least two frames long: both are
        // refusals, not a silently different run.
        for (args, why) in [
            (&["steady", "--verify"][..], "verified steady-state runs"),
            (&["steady", "--frames", "1"][..], "at least 2 frames"),
        ] {
            let err = execute(&parse_args(args.iter().copied()).unwrap()).unwrap_err();
            assert!(err.to_string().contains(why), "{args:?}: {err}");
        }
    }

    #[test]
    fn viewfinder_flag_cuts_the_load() {
        let json = |extra: &[&str]| {
            let mut args = vec![
                "run",
                "--format",
                "720p30",
                "--channels",
                "8",
                "--clock",
                "533",
                "--json",
            ];
            args.extend_from_slice(extra);
            let out = execute(&parse_args(args).unwrap()).unwrap();
            serde_json::from_str::<serde_json::Value>(&out).unwrap()
        };
        let rec = json(&[]);
        let vf = json(&["--viewfinder"]);
        let rec_bytes = rec["bytes_per_frame"].as_u64().unwrap();
        let vf_bytes = vf["bytes_per_frame"].as_u64().unwrap();
        assert!(
            vf_bytes * 2 < rec_bytes,
            "viewfinder {vf_bytes} vs recording {rec_bytes}"
        );
    }
}

#[cfg(test)]
mod trace_cli_tests {
    use super::*;
    use crate::args::parse_args;

    #[test]
    fn dump_then_replay_roundtrips() {
        let dir = std::env::temp_dir().join("mcm_cli_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("frame.trace");
        let path_s = path.to_str().unwrap();

        let cmd = parse_args([
            "trace-dump",
            "--format",
            "720p30",
            "--channels",
            "2",
            "--chunk",
            "fixed:4096",
            "--out",
            path_s,
        ])
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("wrote"));

        let cmd = parse_args([
            "trace-run",
            "--channels",
            "2",
            "--clock",
            "533",
            "--in",
            path_s,
        ])
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("replayed"), "{out}");
        assert!(out.contains("GB/s"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_trace_paths_error_cleanly() {
        let err = parse_args(["trace-dump", "--format", "720p30"]).unwrap_err();
        assert!(err.to_string().contains("--out"));
        let cmd = parse_args(["trace-run", "--in", "/nonexistent/file"]).unwrap();
        let err = execute(&cmd).unwrap_err();
        assert!(err.to_string().contains("cannot read"));
    }

    #[test]
    fn op_limit_caps_the_dump_and_the_replay() {
        let dir = std::env::temp_dir().join(format!("mcm_cli_op_limit_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ten.trace");
        let path_s = path.to_str().unwrap();
        let cmd = parse_args([
            "trace-dump",
            "--format",
            "720p30",
            "--channels",
            "1",
            "--op-limit",
            "10",
            "--out",
            path_s,
        ])
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert_eq!(out, format!("wrote 10 operations to {path_s}\n"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().filter(|l| !l.starts_with('#')).count(), 10);

        let cmd = parse_args(["trace-run", "--op-limit", "5", "--in", path_s]).unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.starts_with("replayed 5 ops"), "{out}");

        // The replay reads only its five ops: a malformed line 8 is never
        // reached, while a longer replay stops there with its line number.
        let mut lines: Vec<&str> = text.lines().collect();
        lines[7] = "X 0x0 64";
        std::fs::write(&path, lines.join("\n")).unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.starts_with("replayed 5 ops"), "{out}");
        let cmd = parse_args(["trace-run", "--op-limit", "9", "--in", path_s]).unwrap();
        let err = execute(&cmd).unwrap_err().to_string();
        assert!(
            err.starts_with("bad trace: ")
                && err.contains("trace line 8: direction must be R or W"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(test)]
mod frame_feed_cli_tests {
    //! Every run-option subcommand builds its experiment and its frame the
    //! same way `mcm run` does.
    use super::*;
    use crate::args::parse_args;

    /// Each subcommand that takes the run options, with the arguments it
    /// needs besides them.
    const RUN_OPTION_COMMANDS: &[&[&str]] = &[
        &["run"],
        &["check"],
        &["lint"],
        &["report"],
        &["steady"],
        &["profile"],
        &["headroom"],
        &["timeline"],
        &["config-dump"],
        &["trace-dump", "--out", "-"],
        &["trace-run", "--in", "t.trace"],
    ];

    #[test]
    fn bad_channel_counts_and_clocks_are_typed_errors() {
        for (flag, value, reason) in [
            (
                "--channels",
                "3",
                "channels 3 must be a non-zero power of two",
            ),
            ("--clock", "0", "clock frequency must be non-zero MHz"),
        ] {
            for command in RUN_OPTION_COMMANDS {
                let mut args = command.to_vec();
                args.extend([flag, value]);
                let err = execute(&parse_args(args.iter().copied()).unwrap()).unwrap_err();
                assert_eq!(
                    err.to_string(),
                    format!("bad experiment parameter: {reason}"),
                    "{args:?}"
                );
            }
        }
    }

    #[test]
    fn a_zero_op_limit_is_refused_everywhere() {
        let refusal = "bad experiment parameter: op limit must be at least one operation";
        let refused = |command: &[&str]| {
            let mut args = command.to_vec();
            args.extend(["--op-limit", "0"]);
            execute(&parse_args(args.iter().copied()).unwrap())
                .unwrap_err()
                .to_string()
        };
        // Every run-option subcommand refuses it with `mcm run`'s message.
        for command in RUN_OPTION_COMMANDS {
            assert_eq!(refused(command), refusal, "{command:?}");
        }
        // A sweep's message starts with the point it refused.
        let sweep = refused(&["sweep", "--formats", "720p30", "--channels", "4"]);
        assert!(sweep.contains(refusal), "{sweep}");
    }

    #[test]
    fn timeline_honours_the_op_limit() {
        let timeline = |extra: &[&str]| {
            let mut args = vec!["timeline", "--format", "720p30", "--channels", "2"];
            args.extend_from_slice(extra);
            execute(&parse_args(args).unwrap()).unwrap()
        };
        let full = timeline(&[]);
        let one = timeline(&["--op-limit", "1"]);
        // The first 128-byte write gives channel 0 its 64 bytes: four
        // bursts, where the whole frame fills the window.
        let bursts = |s: &str| {
            s.lines()
                .filter(|l| l.starts_with("bank"))
                .map(|l| l.matches(['r', 'w']).count())
                .sum::<usize>()
        };
        assert_eq!(bursts(&one), 4, "{one}");
        assert!(bursts(&full) > 4, "{full}");
    }

    #[test]
    fn timeline_refuses_what_run_refuses() {
        for command in ["run", "timeline"] {
            let args = [command, "--format", "720p30", "--granule", "8"];
            let err = execute(&parse_args(args).unwrap()).unwrap_err();
            assert!(
                err.to_string()
                    .contains("granule 8 B must be a multiple of the 16 B DRAM burst"),
                "{command}: {err}"
            );
        }
    }
}

#[cfg(test)]
mod snapshot_tests {
    //! Golden-stdout shape checks on the fixed 1080p30 x 4 ch default
    //! config: every user-visible line and JSON key is pinned, so an
    //! accidental output-format change fails here instead of breaking
    //! scripts downstream.
    use super::*;
    use crate::args::parse_args;

    /// The fixed config: 1080p30 x 4 ch @ 400 MHz is the parser default;
    /// the op cap keeps each simulation fast.
    const CFG: &[&str] = &["--op-limit", "4000"];

    fn run(cmd: &str, extra: &[&str]) -> String {
        let mut args = vec![cmd];
        args.extend_from_slice(CFG);
        args.extend_from_slice(extra);
        execute(&parse_args(args).unwrap()).unwrap()
    }

    #[test]
    fn run_text_lines_are_pinned() {
        let out = run("run", &[]);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines[0],
            "1920x1088@30 (L4) on 4 ch x 32-bit mobile DDR @ 400 MHz \
             (RBC, open-page, power-down after first idle cycle)",
            "{out}"
        );
        let labels: Vec<&str> = lines[1..]
            .iter()
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        assert_eq!(labels, ["load:", "access", "bandwidth:", "power:"], "{out}");

        // `mcm profile`: the stage table, then the bottleneck line.
        let out = run("profile", &[]);
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("  stage "), "{out}");
        let last = lines[lines.len() - 2];
        assert!(last.starts_with("  bottleneck: "), "{out}");
        assert!(last.ends_with("% of the frame)"), "{out}");
        assert!(out.ends_with(")\n\n"), "{out}");
    }

    #[test]
    fn run_json_keys_are_pinned() {
        let out = run("run", &["--json"]);
        let v: serde_json::Value = serde_json::from_str(&out).expect("valid JSON");
        let serde_json::Value::Object(m) = &v else {
            panic!("expected object: {out}");
        };
        let mut keys: Vec<&str> = m.keys().map(String::as_str).collect();
        keys.sort_unstable();
        assert_eq!(
            keys,
            [
                "access_time_ms",
                "achieved_bandwidth_gbps",
                "bytes_per_frame",
                "channels",
                "clock_mhz",
                "core_power_mw",
                "efficiency",
                "format",
                "frame_budget_ms",
                "interface_power_mw",
                "latency_p99_ns",
                "peak_bandwidth_gbps",
                "total_power_mw",
                "verdict",
            ],
            "{out}"
        );
        assert_eq!(v["format"], serde_json::json!("1920x1088@30 (L4)"), "{out}");
    }

    #[test]
    fn check_text_header_is_pinned() {
        let out = run("check", &[]);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines[0],
            format!(
                "mcm check: 1920x1088@30 (L4) on 4 ch @ 400 MHz \
                 (RBC, open-page, power-down after first idle cycle; {} rules)",
                mcm_verify::rule_catalogue().len()
            ),
            "{out}"
        );
        assert_eq!(lines[1], "check clean: 0 findings", "{out}");
    }

    #[test]
    fn lint_text_lines_are_pinned() {
        let out = run("lint", &[]);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines[0],
            "mcm lint: 1920x1088@30 (L4) on 4 ch @ 400 MHz \
             (RBC, open-page, power-down after first idle cycle; 11 rules)",
            "{out}"
        );
        assert_eq!(lines[1], "check clean: 0 findings", "{out}");
    }

    #[test]
    fn lint_json_keys_are_pinned() {
        let out = run("lint", &["--json"]);
        let v: serde_json::Value = serde_json::from_str(&out).expect("valid JSON");
        let serde_json::Value::Object(m) = &v else {
            panic!("expected object: {out}");
        };
        let mut keys: Vec<&str> = m.keys().map(String::as_str).collect();
        keys.sort_unstable();
        assert_eq!(
            keys,
            ["channels", "clock_mhz", "format", "lint", "rules_checked"],
            "{out}"
        );
        assert_eq!(v["rules_checked"], serde_json::json!(11), "{out}");
        assert_eq!(
            v["lint"]["summary"]["clean"],
            serde_json::json!(true),
            "{out}"
        );
    }

    #[test]
    fn lint_rejects_infeasible_config_with_a_witness() {
        let cmd = parse_args(["lint", "--format", "2160p30", "--channels", "1", "--json"]).unwrap();
        let err = execute(&cmd).unwrap_err().to_string();
        let v: serde_json::Value = serde_json::from_str(&err).expect("lint --json emits JSON");
        let findings = v["lint"]["findings"].as_array().unwrap();
        let ids: Vec<&str> = findings.iter().map(|f| f["id"].as_str().unwrap()).collect();
        assert!(ids.contains(&"MCM405") && ids.contains(&"MCM406"), "{err}");
        // Every analyzer finding carries a machine-readable witness: the
        // violated inequality plus the concrete numbers behind it.
        for f in findings
            .iter()
            .filter(|f| f["id"].as_str().unwrap().starts_with("MCM4"))
        {
            let ctx = f["context"].as_str().expect("MCM4xx context present");
            let w: serde_json::Value = serde_json::from_str(ctx).expect("witness is JSON");
            assert!(w["inequality"].as_str().is_some(), "{err}");
            assert!(w["values"].as_object().is_some(), "{err}");
        }
    }

    #[test]
    fn report_json_keys_are_pinned() {
        let out = run("report", &["--json"]);
        let v: serde_json::Value = serde_json::from_str(&out).expect("valid JSON");
        let serde_json::Value::Object(m) = &v else {
            panic!("expected object: {out}");
        };
        let mut keys: Vec<&str> = m.keys().map(String::as_str).collect();
        keys.sort_unstable();
        assert_eq!(
            keys,
            [
                "channels",
                "dropped_spans",
                "gauges",
                "kernel",
                "spans",
                "tenants",
                "timeline_bucket_ps",
            ],
            "{out}"
        );
        assert_eq!(v["channels"].as_array().unwrap().len(), 4, "{out}");
    }

    #[test]
    fn fault_description_is_pinned() {
        let cmd = parse_args(["fault", "--seed", "7", "--channels", "4"]).unwrap();
        let out = execute(&cmd).unwrap();
        let first = out.lines().next().unwrap();
        assert_eq!(
            first,
            "fault plan (seed 0x7): 5 fault(s), policy retries=3 backoff=64ck shed-target=70%",
            "{out}"
        );
        // Same seed, same description, run to run.
        assert_eq!(out, execute(&cmd).unwrap());
    }
}

#[cfg(test)]
mod fault_cli_tests {
    use super::*;
    use crate::args::parse_args;

    /// Writes a channel-loss plan via `mcm fault --out` and returns its path.
    fn plan_file(dir: &std::path::Path, lose: &str) -> String {
        std::fs::create_dir_all(dir).unwrap();
        let path = dir.join(format!("plan_{}.json", lose.replace(',', "_")));
        let path_s = path.to_str().unwrap().to_string();
        let cmd = parse_args(["fault", "--seed", "7", "--lose", lose, "--out", &path_s]).unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("wrote fault plan"), "{out}");
        path_s
    }

    #[test]
    fn fault_describe_and_json_round_trip() {
        let cmd = parse_args(["fault", "--seed", "9", "--channels", "4"]).unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("fault plan (seed 0x9)"), "{out}");

        let cmd = parse_args(["fault", "--seed", "9", "--channels", "4", "--json"]).unwrap();
        let json = execute(&cmd).unwrap();
        let plan: mcm_fault::FaultPlan = serde_json::from_str(&json).expect("valid plan JSON");
        assert_eq!(plan, mcm_fault::FaultPlan::seeded(9, 4).unwrap());
    }

    #[test]
    fn fault_rejects_plans_that_lose_everything() {
        let cmd = parse_args(["fault", "--channels", "2", "--lose", "0,1"]).unwrap();
        let err = execute(&cmd).unwrap_err();
        assert!(err.to_string().contains("invalid"), "{err}");
    }

    #[test]
    fn run_with_faults_reports_degradation_and_is_deterministic() {
        let dir = std::env::temp_dir().join("mcm_cli_fault_run_test");
        let plan = plan_file(&dir, "1");
        // The fixed 1080p30 x 4ch default config, capped for test speed.
        let args = ["run", "--faults", plan.as_str(), "--op-limit", "4000"];

        let cmd = parse_args(args).unwrap();
        let text = execute(&cmd).unwrap();
        assert!(
            text.contains("degraded:    lost channel(s) [1], 3 of 4 surviving"),
            "{text}"
        );
        assert!(text.contains("effective:"), "{text}");

        let mut json_args = args.to_vec();
        json_args.push("--json");
        let cmd = parse_args(json_args.clone()).unwrap();
        let out1 = execute(&cmd).unwrap();
        let out2 = execute(&parse_args(json_args).unwrap()).unwrap();
        assert_eq!(out1, out2, "same plan, same output");
        let v: serde_json::Value = serde_json::from_str(&out1).expect("valid JSON");
        assert_eq!(v["degrade"]["lost_channels"][0].as_u64(), Some(1), "{out1}");
        assert_eq!(v["degrade"]["surviving_channels"].as_u64(), Some(3));
        assert_eq!(v["degrade"]["nominal_fps"].as_u64(), Some(30));
        assert!(v["degrade"]["effective_fps"].as_f64().unwrap() > 0.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_with_faults_runs_the_degrade_rules_clean() {
        let dir = std::env::temp_dir().join("mcm_cli_fault_check_test");
        let plan = plan_file(&dir, "0");
        let cmd = parse_args(["check", "--faults", plan.as_str(), "--op-limit", "4000"]).unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("check clean: 0 findings"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_plans_are_rejected_where_unsupported() {
        let dir = std::env::temp_dir().join("mcm_cli_fault_reject_test");
        let plan = plan_file(&dir, "1");
        for sub in ["steady", "headroom", "profile", "report", "config-dump"] {
            let cmd = parse_args([sub, "--faults", plan.as_str()]).unwrap();
            let err = execute(&cmd).unwrap_err();
            assert!(
                err.to_string().contains("--faults is not supported"),
                "{sub}: {err}"
            );
        }
        // Every other run flag a command does not apply is refused too,
        // before any simulation starts.
        for (args, flag) in [
            (&["steady", "--paced"][..], "--paced"),
            (&["profile", "--paced"], "--paced"),
            (&["timeline", "--paced"], "--paced"),
            (&["trace-dump", "--out", "-", "--paced"], "--paced"),
            (&["trace-run", "--in", "t.trace", "--paced"], "--paced"),
            (&["lint", "--paced"], "--paced"),
            (&["headroom", "--verify"], "--verify"),
            (&["profile", "--verify"], "--verify"),
            (&["timeline", "--verify"], "--verify"),
            (&["trace-dump", "--out", "-", "--verify"], "--verify"),
            (&["trace-run", "--in", "t.trace", "--verify"], "--verify"),
            (&["config-dump", "--verify"], "--verify"),
            (&["report", "--verify"], "--verify"),
            (&["lint", "--verify"], "--verify"),
        ] {
            let err = execute(&parse_args(args.iter().copied()).unwrap()).unwrap_err();
            let sub = args[0];
            assert_eq!(
                err.to_string(),
                format!("{flag} is not supported by 'mcm {sub}'"),
                "{args:?}"
            );
        }
        let cmd = parse_args(["run", "--faults", "/nonexistent/plan.json"]).unwrap();
        let err = execute(&cmd).unwrap_err();
        assert!(err.to_string().contains("cannot read fault plan"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(test)]
mod config_cli_tests {
    use super::*;
    use crate::args::parse_args;

    #[test]
    fn config_dump_then_run_roundtrips() {
        let cmd = parse_args([
            "config-dump",
            "--format",
            "720p30",
            "--channels",
            "8",
            "--clock",
            "533",
        ])
        .unwrap();
        let json = execute(&cmd).unwrap();
        assert!(json.contains("\"width\": 1280"), "{json}");

        let dir = std::env::temp_dir().join("mcm_cli_config_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("exp.json");
        // Truncate the run so the test stays fast.
        let mut exp: Experiment = serde_json::from_str(&json).unwrap();
        exp.op_limit = Some(2_000);
        std::fs::write(&path, serde_json::to_string(&exp).unwrap()).unwrap();

        let cmd = parse_args(["config-run", path.to_str().unwrap()]).unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("access time"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_config_file_errors_cleanly() {
        let err = execute(&Command::ConfigRun {
            path: "/nonexistent.json".into(),
        })
        .unwrap_err();
        assert!(err.to_string().contains("cannot read"));
        let dir = std::env::temp_dir();
        let path = dir.join("mcm_bad_config.json");
        std::fs::write(&path, "{not json").unwrap();
        let err = execute(&Command::ConfigRun {
            path: path.to_str().unwrap().into(),
        })
        .unwrap_err();
        assert!(err.to_string().contains("bad experiment config"));
        std::fs::remove_file(&path).ok();
    }
}
