//! Shared content-hash key computation.
//!
//! Both the sweep disk cache ([`ResultCache`](crate::ResultCache)) and the
//! `mcm serve` result store address results by the same key: FNV-1a over
//! the canonical JSON of the full [`Experiment`] plus the [`RunOptions`] it
//! ran under, chained with a schema version. Keeping the computation in one
//! place means the two keyspaces cannot drift — a record written by a sweep
//! is found by the server and vice versa.
//!
//! The JSON is hashed as it is written: the compact text writer streams
//! into the hash, so no text or value tree is held.

use std::convert::Infallible;

use mcm_core::{Experiment, RunOptions};
use serde::Serialize;

/// Bump when the keyed record layout or semantics change: old entries then
/// miss instead of deserializing into the wrong shape.
pub const KEY_SCHEMA_VERSION: u32 = 1;

const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Content key of one simulation: FNV-1a over the canonical JSON of the
/// experiment, its run options and [`KEY_SCHEMA_VERSION`]. Two submissions
/// share a key iff their full configurations are identical.
///
/// Keying cannot fail. The error type is uninhabited, and the `Result` is
/// kept so callers written against a fallible key (the benchmark's layer
/// ledger among them) compile unchanged.
///
/// ```
/// use mcm_core::{Experiment, RunOptions};
/// use mcm_load::HdOperatingPoint;
///
/// let exp = Experiment::paper(HdOperatingPoint::Hd720p30, 4, 400);
/// let run = RunOptions::default();
/// let Ok(a) = mcm_sweep::content_key(&exp, &run);
/// let Ok(b) = mcm_sweep::content_key(&exp, &run);
/// assert_eq!(a, b);
/// ```
pub fn content_key(exp: &Experiment, run: &RunOptions) -> Result<u64, Infallible> {
    Ok(hash_json(&(exp, run)))
}

/// Identity hash of a whole [`SweepSpec`](crate::SweepSpec): the same FNV-1a
/// chain [`content_key`] uses, over the spec's canonical JSON. Shard
/// documents and checkpoint logs carry it so results from *different* grids
/// can never be merged or resumed into each other by accident.
pub fn spec_hash(spec: &crate::SweepSpec) -> u64 {
    hash_json(spec)
}

/// FNV-1a over the compact JSON of `value`, chained with
/// [`KEY_SCHEMA_VERSION`].
fn hash_json<T: Serialize + ?Sized>(value: &T) -> u64 {
    let mut hash = Fnv1a(FNV_OFFSET_BASIS);
    serde::write_json(&mut hash, value, false);
    hash.bytes(&KEY_SCHEMA_VERSION.to_le_bytes());
    hash.0
}

/// A running FNV-1a hash that JSON text is written into.
struct Fnv1a(u64);

impl Fnv1a {
    fn bytes(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.0 ^= u64::from(*byte);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

impl serde::Output for Fnv1a {
    fn push_str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_load::HdOperatingPoint;

    #[test]
    fn key_matches_cache_fingerprint() {
        // The sweep cache and the server store must share one keyspace.
        let exp = Experiment::paper(HdOperatingPoint::Hd1080p60, 8, 400);
        for run in [RunOptions::default(), RunOptions::verified()] {
            assert_eq!(
                content_key(&exp, &run).unwrap(),
                crate::ResultCache::fingerprint(&exp, &run)
            );
        }
    }

    #[test]
    fn spec_hash_is_stable_and_spec_sensitive() {
        use crate::SweepSpec;
        let a = SweepSpec::paper_grid();
        let b = SweepSpec {
            channels: vec![1, 2, 4],
            ..SweepSpec::paper_grid()
        };
        assert_eq!(spec_hash(&a), spec_hash(&a));
        assert_ne!(spec_hash(&a), spec_hash(&b));
    }

    /// Literal keys for the headline configuration under each kind of run.
    /// Cache entries, store documents and checkpoint records are addressed
    /// by these values, so a change to how `RunOptions` or `Experiment`
    /// serializes shows up here instead of as silently cold caches.
    #[test]
    fn content_keys_are_pinned() {
        let exp = Experiment::paper(HdOperatingPoint::Hd1080p30, 4, 400);
        let runs = [
            RunOptions::default(),
            RunOptions::verified(),
            RunOptions::steady(4),
            RunOptions::default().with_op_limit(2_000),
            RunOptions::default().with_faults(mcm_fault::FaultPlan::channel_loss(5, 0)),
        ];
        let got: Vec<u64> = runs
            .iter()
            .map(|run| content_key(&exp, run).unwrap())
            .collect();
        assert_eq!(
            got,
            [
                0xfc48_1b28_fcee_be7e,
                0x7695_4229_b5e0_c39d,
                0x97cc_2092_7088_27bd,
                0xa9b5_6c8d_0399_9d39,
                0xb758_1392_0660_76be,
            ]
        );
    }

    #[test]
    fn key_is_config_sensitive() {
        let a = Experiment::paper(HdOperatingPoint::Hd720p30, 4, 400);
        let b = Experiment::paper(HdOperatingPoint::Hd720p30, 4, 200);
        let run = RunOptions::default();
        assert_ne!(
            content_key(&a, &run).unwrap(),
            content_key(&b, &run).unwrap()
        );
    }
}
