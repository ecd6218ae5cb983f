//! `mcm … | head` must end quietly: a reader that closes stdout early is a
//! normal end of the output, not a panic. The child is the real binary,
//! writing into a real pipe whose read end this test closes. A trace
//! dumped to stdout is the trace alone, so it replays as written.

use std::io::Read;
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_mcm");

#[test]
fn closing_stdout_early_is_a_clean_exit() {
    // The JSON report is megabytes long, far past what a pipe buffers, so
    // the child is still writing when the read end closes.
    let mut child = Command::new(BIN)
        .args(["report", "--op-limit", "2000", "--json"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("mcm binary spawns");
    let mut stdout = child.stdout.take().expect("piped stdout");
    let mut head = [0u8; 100];
    stdout.read_exact(&mut head).expect("the report starts");
    assert!(head.starts_with(b"{"), "{}", String::from_utf8_lossy(&head));
    drop(stdout); // `head -c 100` exits here

    let out = child.wait_with_output().expect("child exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
}

#[test]
fn a_trace_dumped_to_stdout_replays() {
    let dump = Command::new(BIN)
        .args(["trace-dump", "--format", "720p30", "--channels", "1"])
        .args(["--op-limit", "10", "--out", "-"])
        .output()
        .expect("mcm binary runs");
    assert!(dump.status.success(), "{dump:?}");
    assert!(dump.stderr.is_empty(), "{dump:?}");
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("stdout_dump.trace");
    std::fs::write(&path, &dump.stdout).expect("trace written");

    let replay = Command::new(BIN)
        .args(["trace-run", "--in"])
        .arg(&path)
        .output()
        .expect("mcm binary runs");
    let stdout = String::from_utf8_lossy(&replay.stdout);
    assert!(replay.status.success(), "{replay:?}");
    assert!(stdout.starts_with("replayed 10 ops"), "{stdout}");
}

#[test]
fn closing_a_trace_dump_early_is_a_clean_exit() {
    // A full 1080p30 frame is millions of lines: the child is still
    // writing when the read end closes.
    let mut child = Command::new(BIN)
        .args(["trace-dump", "--format", "1080p30", "--out", "-"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("mcm binary spawns");
    let mut stdout = child.stdout.take().expect("piped stdout");
    let mut head = [0u8; 100];
    stdout.read_exact(&mut head).expect("the trace starts");
    assert!(
        head.starts_with(b"#mcm-trace"),
        "{}",
        String::from_utf8_lossy(&head)
    );
    drop(stdout);

    let out = child.wait_with_output().expect("child exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.stderr.is_empty(), "{stderr}");
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
}
