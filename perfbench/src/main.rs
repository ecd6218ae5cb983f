//! `perfbench`: the simulator benchmark (see `perfbench/README.md`).
//!
//! One invocation runs one workload for a fixed wall-clock budget:
//!
//! ```text
//! perfbench --workload <frame|sweep|tenants|serve> --seed <n> --seconds <s>
//!           --trace <0|1> --mcm <path to the mcm binary> --pins <pins.json>
//!           --out-dir <dir> [--write-pins] [--setup-only]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no instrumentation;
//! `--trace 1` is the separate traced run that captures the workload's
//! intermediate streams once and times every layer on its own captured
//! input. The last stdout line is the one-line JSON result.
//!
//! `--setup-only` sets the workload up, prints the seconds from process
//! start to the first operation, and exits; a run starts such processes
//! after its measured window to take more `setup_s` samples.

mod frame;
mod ledger;
mod pins;
mod report;
mod serve;
mod sweep;
mod tenants;
mod threads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{Host, Report};

/// Set-ups per run: the run's own, then fresh processes after the measured
/// window. `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// What every workload needs from the command line.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    /// When the process entered `main`: set-up is timed from here.
    pub started: Instant,
    pub mcm: PathBuf,
    pub pins: pins::Pins,
    /// Scratch space for caches and stores, removed afterwards.
    pub work_dir: PathBuf,
    /// The command line, to start the set-up-only processes with.
    argv: Vec<String>,
}

impl Ctx {
    /// A deadline `seconds` from now.
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs(self.seconds)
    }

    /// Seconds since process start; called just before the first timed
    /// operation, the run's set-up time.
    pub fn setup_done(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Records `setup_s`: the median of this run's set-up time `own` and
    /// of `SETUP_REPS - 1` fresh processes that each set the workload up
    /// the same way, from their own start, and exit before the first
    /// operation. They run after the measured window, one at a time.
    pub fn record_setup(&self, rep: &mut Report, own: f64) -> Result<(), String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut times = vec![own];
        for _ in 1..SETUP_REPS {
            let out = std::process::Command::new(&exe)
                .args(&self.argv)
                .arg("--setup-only")
                .stdin(std::process::Stdio::null())
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start a set-up process: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            let seconds = text
                .lines()
                .last()
                .and_then(|l| l.trim().parse::<f64>().ok())
                .filter(|_| out.status.success())
                .ok_or_else(|| format!("set-up process failed ({}): {text}", out.status))?;
            times.push(seconds);
        }
        rep.metric("setup_s", "s", report::median(&times), &times);
        Ok(())
    }
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    mcm: PathBuf,
    pins: PathBuf,
    out_dir: PathBuf,
    write_pins: bool,
    setup_only: bool,
    argv: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        mcm: PathBuf::from("mcm"),
        pins: PathBuf::from("perfbench/pins.json"),
        out_dir: PathBuf::from(".bench_build/perfbench"),
        write_pins: false,
        setup_only: false,
        argv: argv.clone(),
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--write-pins" => {
                args.write_pins = true;
                continue;
            }
            "--setup-only" => {
                args.setup_only = true;
                continue;
            }
            _ => {}
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got {v}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = number(&value)?,
            "--seconds" => args.seconds = number(&value)?.max(1),
            "--trace" => args.trace = number(&value)? != 0,
            "--mcm" => args.mcm = PathBuf::from(value),
            "--pins" => args.pins = PathBuf::from(value),
            "--out-dir" => args.out_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !["frame", "sweep", "tenants", "serve"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be frame, sweep, tenants or serve (got `{}`)",
            args.workload
        ));
    }
    Ok(args)
}

/// `--setup-only`: sets the workload up as a run would, prints the seconds
/// from process start to the point the first operation would start, and
/// tears the set-up down.
fn setup_only(ctx: &Ctx, workload: &str) -> Result<(), String> {
    let state: Box<dyn std::any::Any> = match workload {
        "frame" => Box::new(frame::setup()?),
        "sweep" => Box::new(sweep::setup()?),
        "tenants" => Box::new(tenants::setup()?),
        _ => Box::new(serve::setup(ctx)?),
    };
    let seconds = ctx.setup_done();
    drop(state);
    println!("{seconds:?}");
    Ok(())
}

fn run(args: &Args, started: Instant) -> Result<Option<Report>, String> {
    let work_dir = args
        .out_dir
        .join(format!("work-{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("cannot create {}: {e}", work_dir.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        started,
        mcm: args.mcm.clone(),
        pins: pins::Pins::load(&args.pins, args.write_pins)?,
        work_dir,
        argv: args.argv.clone(),
    };
    if args.setup_only {
        let outcome = setup_only(&ctx, &args.workload);
        let _ = std::fs::remove_dir_all(&ctx.work_dir);
        return outcome.map(|()| None);
    }
    let mut rep = Report::new(&args.workload, args.seed, args.seconds, args.trace);
    let watcher = threads::Watcher::start();
    let outcome = match (args.workload.as_str(), args.trace) {
        ("frame", false) => frame::run(&ctx, &mut rep),
        ("sweep", false) => sweep::run(&ctx, &mut rep),
        ("tenants", false) => tenants::run(&ctx, &mut rep),
        ("serve", false) => serve::run(&ctx, &mut rep),
        ("frame", true) => ledger::frame(&ctx, &mut rep),
        ("sweep", true) => ledger::sweep(&ctx, &mut rep),
        ("tenants", true) => ledger::tenants(&ctx, &mut rep),
        (_, _) => serve::run(&ctx, &mut rep),
    };
    rep.threads = watcher.finish();
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    outcome?;
    ctx.pins.save()?;
    if args.trace {
        ledger::complete(&mut rep);
    }
    Ok(Some(rep))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let rep = match run(&args, started) {
        Ok(Some(rep)) => rep,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let host = Host::detect();
    let path = args.out_dir.join(format!(
        "report-{}-seed{}-trace{}.json",
        args.workload, args.seed, args.trace as u8
    ));
    if let Err(e) = rep.write_json(&host, &path) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    print!("{}", rep.render_text(&host));
    println!("report: {}", path.display());
    println!("{}", rep.result_line());
    ExitCode::SUCCESS
}
