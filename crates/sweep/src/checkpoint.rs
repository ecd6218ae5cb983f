//! Crash-safe checkpoint logs for resumable sweeps.
//!
//! A [`CheckpointLog`] records every completed point of one sweep as a
//! JSONL line (`{key, label, record}`) under a sealed header that binds
//! the log to its sweep: the [`spec_hash`](crate::spec_hash) of the grid,
//! the [`KEY_SCHEMA_VERSION`](crate::KEY_SCHEMA_VERSION) and the point
//! count. A log offered to a different sweep is refused with a typed
//! [`SweepError::Checkpoint`] instead of silently resuming the wrong grid.
//!
//! Every append rewrites the log to a sibling temp file and atomically
//! renames it over the original, so the file on disk is a complete,
//! parseable document at every instant — a SIGKILL mid-append loses at
//! most the point being written, never the log. Trailing garbage from a
//! torn write of an older implementation is ignored on open (the damaged
//! point re-simulates).

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use crate::error::SweepError;
use crate::key::{spec_hash, KEY_SCHEMA_VERSION};
use crate::spec::SweepSpec;
use mcm_core::PointRecord;

/// The sealed first line of a checkpoint log: which sweep this log belongs
/// to. Every field must match on open, or the log is refused. Keys the
/// reader does not know, such as the `"execution": {}` that older logs
/// carry, are ignored.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Header {
    spec_hash: u64,
    key_schema: u32,
    total: usize,
}

impl Header {
    fn to_json(&self) -> String {
        serde_json::to_string(&serde_json::json!({
            "mcm_checkpoint": 1,
            "spec_hash": format!("{:016x}", self.spec_hash),
            "key_schema": self.key_schema,
            "total": self.total
        }))
        .expect("a value tree always serializes")
    }

    pub(crate) fn from_json(line: &str) -> Result<Header, String> {
        let v: serde::Value =
            serde_json::from_str(line).map_err(|e| format!("header is not JSON: {e}"))?;
        if v.get("mcm_checkpoint").and_then(|m| m.as_u64()) != Some(1) {
            return Err("not a checkpoint log (missing `mcm_checkpoint` marker)".to_string());
        }
        let spec_hash = v
            .get("spec_hash")
            .and_then(|h| h.as_str())
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or("header has no `spec_hash`")?;
        let key_schema = v
            .get("key_schema")
            .and_then(|k| k.as_u64())
            .ok_or("header has no `key_schema`")?;
        let key_schema = u32::try_from(key_schema)
            .map_err(|_| format!("header `key_schema` = {key_schema} is out of range"))?;
        let total = v
            .get("total")
            .and_then(|t| t.as_u64())
            .ok_or("header has no `total`")? as usize;
        Ok(Header {
            spec_hash,
            key_schema,
            total,
        })
    }
}

/// One completed point in the log.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Entry {
    key: String,
    label: String,
    record: PointRecord,
}

struct Inner {
    path: PathBuf,
    header: Header,
    entries: Mutex<BTreeMap<u64, Entry>>,
}

/// An append-only log of completed sweep points, shareable across worker
/// threads (clones share one file). See the `checkpoint` module docs for
/// the format and crash-safety contract.
#[derive(Clone)]
pub struct CheckpointLog {
    inner: Arc<Inner>,
}

impl fmt::Debug for CheckpointLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckpointLog")
            .field("path", &self.inner.path)
            .field("total", &self.inner.header.total)
            .field("completed", &self.len())
            .finish()
    }
}

impl CheckpointLog {
    /// Opens (or creates) the log at `path` for a sweep of `spec`. An
    /// existing file must carry a matching header — same spec hash, same
    /// [`KEY_SCHEMA_VERSION`], same point count — or the call is a typed
    /// [`SweepError::Checkpoint`]. With
    /// `must_exist` (the `--resume` contract), a missing file is an error
    /// instead of a fresh log.
    pub fn attach(
        path: impl Into<PathBuf>,
        spec: &SweepSpec,
        must_exist: bool,
    ) -> Result<CheckpointLog, SweepError> {
        let path = path.into();
        let header = Header {
            spec_hash: spec_hash(spec),
            key_schema: KEY_SCHEMA_VERSION,
            total: spec.len(),
        };
        let refuse = |message: String| SweepError::Checkpoint {
            path: path.display().to_string(),
            message,
        };
        match fs::read_to_string(&path) {
            Ok(text) => {
                let mut lines = text.lines();
                let head = Header::from_json(lines.next().unwrap_or_default()).map_err(&refuse)?;
                if head != header {
                    return Err(refuse(format!(
                        "log belongs to a different sweep \
                         (log: spec {:016x}, schema {}, {} points; \
                         this sweep: spec {:016x}, schema {}, {} points)",
                        head.spec_hash,
                        head.key_schema,
                        head.total,
                        header.spec_hash,
                        header.key_schema,
                        header.total
                    )));
                }
                let mut entries = BTreeMap::new();
                for line in lines {
                    // A torn trailing line (pre-atomic-rename crash relic)
                    // is skipped: that point simply re-simulates.
                    if let Ok(entry) = serde_json::from_str::<Entry>(line) {
                        if let Ok(key) = u64::from_str_radix(&entry.key, 16) {
                            entries.insert(key, entry);
                        }
                    }
                }
                Ok(CheckpointLog {
                    inner: Arc::new(Inner {
                        path,
                        header,
                        entries: Mutex::new(entries),
                    }),
                })
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                if must_exist {
                    return Err(refuse("no such log to resume from".to_string()));
                }
                let log = CheckpointLog {
                    inner: Arc::new(Inner {
                        path,
                        header,
                        entries: Mutex::new(BTreeMap::new()),
                    }),
                };
                log.persist()?;
                Ok(log)
            }
            Err(e) => Err(refuse(e.to_string())),
        }
    }

    /// The log file's path.
    pub fn path(&self) -> &Path {
        &self.inner.path
    }

    /// Completed points in the log.
    pub fn len(&self) -> usize {
        self.inner
            .entries
            .lock()
            .expect("checkpoint lock poisoned")
            .len()
    }

    /// Whether no point has completed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The completed record under `key`, if this sweep already finished it
    /// in a previous run.
    pub fn lookup(&self, key: u64) -> Option<PointRecord> {
        self.inner
            .entries
            .lock()
            .expect("checkpoint lock poisoned")
            .get(&key)
            .map(|e| e.record.clone())
    }

    /// Appends a completed point and atomically persists the log. Write
    /// failures are returned but are safe to ignore: a lost append only
    /// means that point re-simulates on resume.
    pub fn record(&self, key: u64, label: &str, record: &PointRecord) -> Result<(), SweepError> {
        {
            let mut entries = self.inner.entries.lock().expect("checkpoint lock poisoned");
            entries.insert(
                key,
                Entry {
                    key: format!("{key:016x}"),
                    label: label.to_string(),
                    record: record.clone(),
                },
            );
        }
        self.persist()
    }

    /// Serializes header + entries to a sibling temp file and renames it
    /// over the log — the on-disk file is always a complete document.
    fn persist(&self) -> Result<(), SweepError> {
        let refuse = |message: String| SweepError::Checkpoint {
            path: self.inner.path.display().to_string(),
            message,
        };
        let mut text = self.inner.header.to_json();
        text.push('\n');
        // Held through the rename: points finishing on different workers
        // share one temp file, and an unserialized writer could rename a
        // document that lacks another's entry over the log.
        let entries = self.inner.entries.lock().expect("checkpoint lock poisoned");
        for entry in entries.values() {
            serde::write_json(&mut text, entry, false);
            text.push('\n');
        }
        let tmp = self.inner.path.with_extension("tmp");
        fs::write(&tmp, text).map_err(|e| refuse(format!("writing temp file: {e}")))?;
        fs::rename(&tmp, &self.inner.path)
            .map_err(|e| refuse(format!("renaming temp file into place: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_load::HdOperatingPoint;

    fn tmp_log(name: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "mcm-checkpoint-test-{name}-{}.jsonl",
            std::process::id()
        ));
        let _ = fs::remove_file(&path);
        path
    }

    fn spec() -> SweepSpec {
        SweepSpec {
            points: vec![HdOperatingPoint::Hd720p30],
            channels: vec![1, 2],
            op_limit: Some(1_000),
            ..SweepSpec::default()
        }
    }

    fn record() -> PointRecord {
        PointRecord::infeasible("test".to_string())
    }

    #[test]
    fn create_record_reopen_round_trips() {
        let path = tmp_log("roundtrip");
        let log = CheckpointLog::attach(&path, &spec(), false).unwrap();
        assert!(log.is_empty());
        log.record(0xabc, "720p30/1ch", &record()).unwrap();
        log.record(0xdef, "720p30/2ch", &record()).unwrap();
        assert_eq!(log.len(), 2);
        // Reopen: both points are known, the file survives process death.
        let back = CheckpointLog::attach(&path, &spec(), true).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.lookup(0xabc), Some(record()));
        assert_eq!(back.lookup(0x123), None);

        // A log whose header still carries `"execution": {}` resumes too:
        // this first line is verbatim what such a log holds for `spec()`.
        let old_header = r#"{"mcm_checkpoint":1,"spec_hash":"4715a7375cbfaa42","key_schema":1,"execution":{},"total":2}"#;
        let text = fs::read_to_string(&path).unwrap();
        let (_, points) = text.split_once('\n').unwrap();
        fs::write(&path, format!("{old_header}\n{points}")).unwrap();
        let old = CheckpointLog::attach(&path, &spec(), true).unwrap();
        assert_eq!(old.len(), 2);
        assert_eq!(old.lookup(0xabc), Some(record()));
        assert_eq!(old.lookup(0xdef), Some(record()));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn mismatched_sweeps_are_refused() {
        let path = tmp_log("mismatch");
        CheckpointLog::attach(&path, &spec(), false).unwrap();
        // A different grid must not resume from this log.
        let other = SweepSpec {
            channels: vec![1, 2, 4],
            ..spec()
        };
        assert!(matches!(
            CheckpointLog::attach(&path, &other, false).unwrap_err(),
            SweepError::Checkpoint { .. }
        ));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn resume_requires_an_existing_log() {
        let path = tmp_log("missing");
        let e = CheckpointLog::attach(&path, &spec(), true).unwrap_err();
        assert!(matches!(e, SweepError::Checkpoint { .. }));
        assert!(e.to_string().contains("no such log"));
    }

    #[test]
    fn torn_trailing_lines_are_skipped_not_fatal() {
        let path = tmp_log("torn");
        let log = CheckpointLog::attach(&path, &spec(), false).unwrap();
        log.record(0x1, "a", &record()).unwrap();
        // Simulate a torn write from a crash mid-append.
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str("{\"key\": \"0000000000000002\", \"label\": \"b\", \"rec");
        fs::write(&path, text).unwrap();
        let back = CheckpointLog::attach(&path, &spec(), true).unwrap();
        assert_eq!(back.len(), 1, "the torn point re-simulates");
        assert!(back.lookup(0x1).is_some());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn out_of_range_key_schemas_are_refused_not_truncated() {
        let path = tmp_log("schema");
        CheckpointLog::attach(&path, &spec(), false).unwrap();
        // 2^32 + 1 would read as schema 1, this build's, if narrowed with `as`.
        let text = fs::read_to_string(&path).unwrap();
        let forged = text.replacen("\"key_schema\":1", "\"key_schema\":4294967297", 1);
        assert_ne!(forged, text, "header layout changed: {text}");
        fs::write(&path, forged).unwrap();
        let e = CheckpointLog::attach(&path, &spec(), true).unwrap_err();
        assert!(matches!(e, SweepError::Checkpoint { .. }));
        assert!(e.to_string().contains("`key_schema`"), "{e}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn garbage_files_are_refused() {
        let path = tmp_log("garbage");
        fs::write(&path, "not a checkpoint\n").unwrap();
        let e = CheckpointLog::attach(&path, &spec(), false).unwrap_err();
        assert!(matches!(e, SweepError::Checkpoint { .. }));
        // The parse error reads as its message, not as the error's `Debug`.
        let message = e.to_string();
        assert!(
            message.ends_with("header is not JSON: unexpected character `n` at byte 0"),
            "{message}"
        );
        assert!(!message.contains("Error {"), "{message}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn log_lines_write_the_same_text_streamed_and_as_a_tree() {
        let entry = Entry {
            key: format!("{:016x}", 0xabcu64),
            label: "720p30/\"1ch\"".to_string(),
            record: record(),
        };
        let tree = serde_json::to_value(&entry).unwrap();
        assert_eq!(
            serde_json::to_string(&entry).unwrap(),
            serde_json::to_string(&tree).unwrap()
        );
        assert_eq!(
            serde_json::to_string_pretty(&entry).unwrap(),
            serde_json::to_string_pretty(&tree).unwrap()
        );
    }
}
