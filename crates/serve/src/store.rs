//! The persistent, content-addressed result store.
//!
//! The store is the sweep engine's [`ResultCache`] promoted to a queryable
//! service history: records live under the **same** directory, named by
//! the **same** [`content_key`](mcm_sweep::content_key), so everything a
//! sweep caches the server can answer and vice versa. On top of the raw
//! records the store keeps:
//!
//! * `index.jsonl` — one append-only line per distinct key (label + how it
//!   first entered the store), making the keyed history enumerable without
//!   re-deriving experiments;
//! * `jobs/<id>.json` — the full result document of every finished job
//!   (per-point records and provenance), written when the job finishes
//!   and surviving restarts.
//!
//! Corrupt index lines and job files degrade to absence, mirroring the
//! cache's corrupt-entry-is-a-miss discipline.

use std::collections::BTreeSet;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use mcm_sweep::{PointRecord, ResultCache, SweepError};

/// One line of `index.jsonl`: a key and where it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexEntry {
    /// The shared content key (also the record's file name).
    pub key: u64,
    /// Human-readable coordinates of the submission that stored it.
    pub label: String,
    /// How the key entered the store: `run` or `sweep`.
    pub kind: String,
}

/// The on-disk store: keyed records (via [`ResultCache`]), the key index,
/// and persisted job results.
#[derive(Debug)]
pub struct ResultStore {
    cache: ResultCache,
    index_path: PathBuf,
    jobs_dir: PathBuf,
    index: Mutex<Vec<IndexEntry>>,
    seen: Mutex<BTreeSet<u64>>,
}

impl ResultStore {
    /// Opens (creating if needed) a store rooted at `dir`. The record
    /// directory doubles as a sweep cache directory — that is the point.
    pub fn open(dir: impl Into<PathBuf>) -> Result<ResultStore, SweepError> {
        let dir = dir.into();
        let cache = ResultCache::new(dir.clone())?;
        let jobs_dir = dir.join("jobs");
        fs::create_dir_all(&jobs_dir).map_err(|e| SweepError::Cache {
            path: jobs_dir.display().to_string(),
            message: e.to_string(),
        })?;
        let index_path = dir.join("index.jsonl");
        let mut index = Vec::new();
        let mut seen = BTreeSet::new();
        if let Ok(text) = fs::read_to_string(&index_path) {
            for line in text.lines() {
                // Corrupt lines are skipped, not fatal: the index is an
                // accelerator over the records, never the records.
                let Ok(v) = serde_json::from_str::<serde::Value>(line) else {
                    continue;
                };
                let key = v
                    .get("key")
                    .and_then(|k| k.as_str())
                    .and_then(|k| u64::from_str_radix(k, 16).ok());
                let label = v.get("label").and_then(|l| l.as_str());
                let kind = v.get("kind").and_then(|k| k.as_str());
                if let (Some(key), Some(label), Some(kind)) = (key, label, kind) {
                    if seen.insert(key) {
                        index.push(IndexEntry {
                            key,
                            label: label.to_string(),
                            kind: kind.to_string(),
                        });
                    }
                }
            }
        }
        Ok(ResultStore {
            cache,
            index_path,
            jobs_dir,
            index: Mutex::new(index),
            seen: Mutex::new(seen),
        })
    }

    /// The record directory (hand this to the executor as its cache dir).
    pub fn dir(&self) -> &Path {
        self.cache.dir()
    }

    /// Looks a content key up in the keyed records.
    pub fn get(&self, key: u64) -> Option<PointRecord> {
        self.cache.load(key)
    }

    /// Stores a record under its key (normally the executor's cache
    /// write-back does this; tests and imports use it directly).
    pub fn put(&self, key: u64, record: &PointRecord) -> Result<(), SweepError> {
        self.cache.store(key, record)
    }

    /// Number of keyed records on disk.
    pub fn entries(&self) -> usize {
        self.cache.entry_count()
    }

    /// Records that a key entered the store. First write per key appends
    /// one `index.jsonl` line; repeats are no-ops. Index write failures
    /// degrade to an in-memory-only index entry.
    pub fn index(&self, key: u64, label: &str, kind: &str) {
        let mut seen = self.seen.lock().expect("store lock poisoned");
        if !seen.insert(key) {
            return;
        }
        let entry = IndexEntry {
            key,
            label: label.to_string(),
            kind: kind.to_string(),
        };
        let line = serde_json::json!({
            "key": format!("{key:016x}"),
            "label": entry.label,
            "kind": entry.kind
        });
        if let Ok(mut f) = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.index_path)
        {
            let _ = writeln!(
                f,
                "{}",
                serde_json::to_string(&line).expect("a value tree always serializes")
            );
        }
        self.index.lock().expect("store lock poisoned").push(entry);
    }

    /// The indexed history, oldest first.
    pub fn indexed(&self) -> Vec<IndexEntry> {
        self.index.lock().expect("store lock poisoned").clone()
    }

    /// Persists one finished job's result document under `jobs/<id>.json`.
    pub fn put_job(&self, id: u64, result: &serde::Value) {
        let path = self.jobs_dir.join(format!("{id}.json"));
        if let Ok(json) = serde_json::to_string_pretty(result) {
            let _ = fs::write(path, json);
        }
    }

    /// Loads a persisted job result (jobs survive server restarts).
    pub fn get_job(&self, id: u64) -> Option<serde::Value> {
        let text = fs::read_to_string(self.jobs_dir.join(format!("{id}.json"))).ok()?;
        serde_json::from_str(&text).ok()
    }

    /// The largest persisted job id, so a restarted server never reuses
    /// ids that clients may still hold.
    pub fn last_job_id(&self) -> u64 {
        fs::read_dir(&self.jobs_dir)
            .map(|rd| {
                rd.filter_map(|e| e.ok()?.path().file_stem()?.to_str()?.parse::<u64>().ok())
                    .max()
                    .unwrap_or(0)
            })
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mcm-serve-store-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn record() -> PointRecord {
        PointRecord {
            feasible: true,
            infeasible_reason: None,
            access_ms: Some(12.5),
            budget_ms: Some(33.3),
            verdict: Some("meets".into()),
            core_mw: Some(100.0),
            interface_mw: Some(50.0),
            efficiency: Some(0.8),
            energy_per_bit_pj: Some(1.5),
            latency_p99_ns: None,
            planned_bytes: 1024,
            simulated_bytes: 1024,
            peak_gbytes_per_s: 3.2,
        }
    }

    #[test]
    fn records_and_jobs_round_trip() {
        let dir = tmp_dir("roundtrip");
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.entries(), 0);
        store.put(0xabc, &record()).unwrap();
        assert_eq!(store.get(0xabc), Some(record()));
        assert_eq!(store.entries(), 1);
        let doc = serde_json::json!({ "status": "done", "points": [1, 2, 3] });
        store.put_job(7, &doc);
        assert_eq!(store.get_job(7), Some(doc));
        assert_eq!(store.get_job(8), None);
        assert_eq!(store.last_job_id(), 7);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn index_dedups_and_survives_reopen() {
        let dir = tmp_dir("index");
        {
            let store = ResultStore::open(&dir).unwrap();
            store.index(1, "a", "run");
            store.index(2, "b", "sweep");
            store.index(1, "a-again", "run");
            assert_eq!(store.indexed().len(), 2);
        }
        let store = ResultStore::open(&dir).unwrap();
        let idx = store.indexed();
        assert_eq!(idx.len(), 2);
        assert_eq!(idx[0].label, "a");
        assert_eq!(idx[1].kind, "sweep");
        // New keys keep appending after a reload.
        store.index(3, "c", "run");
        assert_eq!(ResultStore::open(&dir).unwrap().indexed().len(), 3);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn corrupt_index_lines_are_skipped() {
        let dir = tmp_dir("corrupt");
        let store = ResultStore::open(&dir).unwrap();
        store.index(1, "good", "run");
        fs::write(
            dir.join("index.jsonl"),
            "{not json\n{\"key\":\"0001\",\"label\":\"ok\",\"kind\":\"run\"}\n{\"key\":\"zz\"}\n",
        )
        .unwrap();
        let reopened = ResultStore::open(&dir).unwrap();
        assert_eq!(reopened.indexed().len(), 1);
        assert_eq!(reopened.indexed()[0].label, "ok");
        let _ = fs::remove_dir_all(dir);
    }
}
