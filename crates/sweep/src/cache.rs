//! Content-addressed result cache.
//!
//! Every sweep point is keyed by a fingerprint of its **content**: the
//! canonical JSON of the full [`Experiment`] plus the [`RunOptions`] it ran
//! under, plus a cache schema version. Re-running a figure or sweep after
//! editing a spec therefore only simulates the points whose configuration
//! actually changed; everything else is a disk hit.
//!
//! The cache stores one JSON file per fingerprint under its directory.
//! Unreadable or corrupt entries are treated as misses and rewritten, so a
//! damaged cache degrades to extra simulation, never to a failed sweep.

use std::fs;
use std::path::{Path, PathBuf};

use mcm_core::{Experiment, PointRecord, RunOptions};

use crate::error::SweepError;
use crate::key::content_key;

/// A directory of fingerprint-keyed [`PointRecord`]s.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Opens (creating if needed) a cache directory.
    pub fn new(dir: impl Into<PathBuf>) -> Result<ResultCache, SweepError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| SweepError::Cache {
            path: dir.display().to_string(),
            message: e.to_string(),
        })?;
        Ok(ResultCache { dir })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Content fingerprint of one sweep point: the shared
    /// [`content_key`](crate::content_key) over the experiment and its run
    /// options. Two points share a fingerprint iff their full
    /// configurations are identical.
    pub fn fingerprint(exp: &Experiment, run: &RunOptions) -> u64 {
        let Ok(key) = content_key(exp, run);
        key
    }

    fn entry_path(&self, fingerprint: u64) -> PathBuf {
        self.dir.join(format!("{fingerprint:016x}.json"))
    }

    /// Looks a fingerprint up. Missing, unreadable or corrupt entries are
    /// all misses — the caller re-simulates and overwrites.
    pub fn load(&self, fingerprint: u64) -> Option<PointRecord> {
        let text = fs::read_to_string(self.entry_path(fingerprint)).ok()?;
        serde_json::from_str(&text).ok()
    }

    /// Stores a record under its fingerprint.
    pub fn store(&self, fingerprint: u64, record: &PointRecord) -> Result<(), SweepError> {
        let path = self.entry_path(fingerprint);
        let json = serde_json::to_string_pretty(record).expect("a record always serializes");
        fs::write(&path, json).map_err(|e| SweepError::Cache {
            path: path.display().to_string(),
            message: e.to_string(),
        })
    }

    /// Number of entries on disk (test and stats aid).
    pub fn entry_count(&self) -> usize {
        fs::read_dir(&self.dir)
            .map(|rd| {
                rd.filter(|e| {
                    e.as_ref()
                        .map(|e| e.path().extension().is_some_and(|x| x == "json"))
                        .unwrap_or(false)
                })
                .count()
            })
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_load::HdOperatingPoint;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mcm-sweep-cache-test-{name}"));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fingerprint_is_stable_and_config_sensitive() {
        let a = Experiment::paper(HdOperatingPoint::Hd720p30, 4, 400);
        let b = Experiment::paper(HdOperatingPoint::Hd720p30, 8, 400);
        let run = RunOptions::default();
        let fa = ResultCache::fingerprint(&a, &run);
        assert_eq!(fa, ResultCache::fingerprint(&a, &run));
        assert_ne!(fa, ResultCache::fingerprint(&b, &run));
        // Run options are part of the key.
        assert_ne!(fa, ResultCache::fingerprint(&a, &RunOptions::verified()));
    }

    #[test]
    fn store_then_load_round_trips() {
        let cache = ResultCache::new(tmp_dir("roundtrip")).unwrap();
        let mut exp = Experiment::paper(HdOperatingPoint::Hd720p30, 2, 400);
        exp.op_limit = Some(2_000);
        let record = PointRecord::from_result(
            exp.run_with(&RunOptions::default())
                .map(|o| o.into_frame().expect("single-frame outcome")),
        )
        .unwrap();
        let fp = ResultCache::fingerprint(&exp, &RunOptions::default());
        assert!(cache.load(fp).is_none());
        cache.store(fp, &record).unwrap();
        assert_eq!(cache.load(fp), Some(record));
        assert_eq!(cache.entry_count(), 1);
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_entries_are_misses() {
        let cache = ResultCache::new(tmp_dir("corrupt")).unwrap();
        fs::write(cache.dir().join(format!("{:016x}.json", 7u64)), "{not json").unwrap();
        assert!(cache.load(7).is_none());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn infeasible_points_distill_without_error() {
        // 2160p30 cannot fit one 512 Mib channel.
        let exp = Experiment::paper(HdOperatingPoint::Uhd2160p30, 1, 400);
        let record = PointRecord::from_result(
            exp.run_with(&RunOptions::default())
                .map(|o| o.into_frame().expect("single-frame outcome")),
        )
        .unwrap();
        assert!(!record.feasible);
        assert_eq!(record.total_mw(), None);
        assert!(record.infeasible_reason.unwrap().contains("MiB"));
    }
}
