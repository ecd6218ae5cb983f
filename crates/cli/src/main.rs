//! The `mcm` binary: see `mcm help`.

use std::io::{ErrorKind, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match mcm_cli::parse_args(args.iter().map(String::as_str)) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("mcm: {e}");
            return ExitCode::FAILURE;
        }
    };
    match mcm_cli::execute(&cmd) {
        Ok(out) => {
            let mut stdout = std::io::stdout().lock();
            match stdout
                .write_all(out.as_bytes())
                .and_then(|()| stdout.flush())
            {
                // A reader that closed early (`mcm … | head`) took all it
                // wanted: that is a normal end, not a failure.
                Ok(()) => ExitCode::SUCCESS,
                Err(e) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("mcm: cannot write output: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("mcm: {e}");
            ExitCode::FAILURE
        }
    }
}
