//! Pinned simulated statistics: the outputs every timed operation must
//! reproduce exactly.
//!
//! Pins are flat `key → text` pairs in `pins.json` (floats in Rust's
//! shortest round-trip form, so equality is bit equality). A run either
//! checks what it computes against the file, or — with `--write-pins` —
//! records it and merges it into the file.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use mcm_core::FrameResult;

/// Per-channel DRAM command counts as `act,rd,wr,pre,ref,pd,sr`.
pub fn commands(stats: &mcm_dram::ClusterStats) -> String {
    format!(
        "{},{},{},{},{},{},{}",
        stats.activates,
        stats.reads,
        stats.writes,
        stats.precharges,
        stats.refreshes,
        stats.power_downs,
        stats.self_refreshes
    )
}

/// Total DRAM commands of one channel.
pub fn command_total(stats: &mcm_dram::ClusterStats) -> u64 {
    stats.activates
        + stats.reads
        + stats.writes
        + stats.precharges
        + stats.refreshes
        + stats.power_downs
        + stats.self_refreshes
}

/// The pinned statistics of one simulated frame: per-channel command
/// counts, access time, core energy and the real-time verdict.
pub fn frame_entries(prefix: &str, r: &FrameResult) -> Vec<(String, String)> {
    let mut out = vec![
        (
            format!("{prefix}.access_ps"),
            r.access_time.as_ps().to_string(),
        ),
        (
            format!("{prefix}.core_energy_pj"),
            format!("{:?}", r.report.core_energy_pj),
        ),
        (format!("{prefix}.verdict"), r.verdict.to_string()),
    ];
    for (ch, c) in r.report.channels.iter().enumerate() {
        out.push((format!("{prefix}.ch{ch}"), commands(&c.device)));
    }
    out
}

#[derive(Debug)]
pub struct Pins {
    path: PathBuf,
    expected: BTreeMap<String, String>,
    write: bool,
    recorded: RefCell<BTreeMap<String, String>>,
}

impl Pins {
    /// Loads `path`; with `write`, a missing file starts empty and every
    /// [`Pins::check`] records instead of comparing.
    pub fn load(path: &Path, write: bool) -> Result<Pins, String> {
        let expected = match std::fs::read_to_string(path) {
            Ok(text) => {
                let value: serde::Value = serde_json::from_str(&text)
                    .map_err(|e| format!("{}: not JSON: {e:?}", path.display()))?;
                let map = value
                    .as_object()
                    .ok_or_else(|| format!("{}: expected an object", path.display()))?;
                let mut expected = BTreeMap::new();
                for (k, v) in map.iter() {
                    let v = v
                        .as_str()
                        .ok_or_else(|| format!("{}: `{k}` is not a string", path.display()))?;
                    expected.insert(k.clone(), v.to_string());
                }
                expected
            }
            Err(_) if write => BTreeMap::new(),
            Err(e) => return Err(format!("cannot read pins {}: {e}", path.display())),
        };
        Ok(Pins {
            path: path.to_path_buf(),
            expected,
            write,
            recorded: RefCell::new(BTreeMap::new()),
        })
    }

    /// Compares computed entries against the pins (or records them).
    pub fn check(&self, entries: &[(String, String)]) -> Result<(), String> {
        if self.write {
            let mut recorded = self.recorded.borrow_mut();
            for (k, v) in entries {
                recorded.insert(k.clone(), v.clone());
            }
            return Ok(());
        }
        for (k, v) in entries {
            match self.expected.get(k) {
                Some(e) if e == v => {}
                Some(e) => return Err(format!("pinned {k} is {e}, run gave {v}")),
                None => return Err(format!("{k} is not pinned")),
            }
        }
        Ok(())
    }

    /// Merges recorded entries into the pins file (write mode only).
    pub fn save(&self) -> Result<(), String> {
        if !self.write {
            return Ok(());
        }
        let mut all = self.expected.clone();
        all.extend(self.recorded.borrow().clone());
        let mut map = serde::Map::new();
        for (k, v) in all {
            map.insert(k, serde::Value::String(v));
        }
        let text = serde_json::to_string_pretty(&serde::Value::Object(map))
            .map_err(|e| format!("{e:?}"))?;
        std::fs::write(&self.path, text + "\n")
            .map_err(|e| format!("cannot write {}: {e}", self.path.display()))
    }
}
