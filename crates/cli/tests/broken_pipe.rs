//! `mcm … | head` must end quietly: a reader that closes stdout early is a
//! normal end of the output, not a panic. The child is the real binary,
//! writing into a real pipe whose read end this test closes.

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
