//! Measures how many of this process's threads work at once.
//!
//! A watcher thread reads every thread's scheduler state from
//! `/proc/self/task/<tid>/stat` every [`INTERVAL`]. A thread counts as busy
//! when it is running or runnable (`R`) in two samples in a row, which
//! leaves out the instant a thread wakes or exits; the watcher leaves
//! itself out. The peak count is the number of threads the generator
//! drives: a thread blocked on a result (the caller of a parallel sweep
//! pass, a client waiting on the server) is asleep and does not count.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

const INTERVAL: Duration = Duration::from_millis(5);

/// Threads of this process but `skip` that are running or runnable.
fn runnable(skip: &str) -> HashSet<String> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return HashSet::new();
    };
    dir.flatten()
        .filter_map(|entry| {
            let tid = entry.file_name().to_string_lossy().to_string();
            let stat = std::fs::read_to_string(entry.path().join("stat")).ok()?;
            // `tid (comm) state …`; the name may itself hold parentheses.
            let state = stat.rsplit_once(')')?.1.split_whitespace().next()?;
            (tid != skip && state == "R").then_some(tid)
        })
        .collect()
}

/// A running watcher; [`Watcher::finish`] stops it and returns the peak.
#[derive(Debug)]
pub struct Watcher {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<u32>,
}

impl Watcher {
    pub fn start() -> Watcher {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            // `/proc/thread-self` links to `<pid>/task/<tid>`.
            let own = std::fs::read_link("/proc/thread-self")
                .ok()
                .and_then(|p| p.file_name().map(|n| n.to_string_lossy().to_string()))
                .unwrap_or_default();
            let mut before = runnable(&own);
            let mut peak = 0u32;
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(INTERVAL);
                let now = runnable(&own);
                peak = peak.max(now.intersection(&before).count() as u32);
                before = now;
            }
            peak
        });
        Watcher { stop, handle }
    }

    /// Stops the watcher: the most threads seen busy at once.
    pub fn finish(self) -> u32 {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().unwrap_or(0)
    }
}
