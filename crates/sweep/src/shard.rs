//! Deterministic sweep sharding and byte-identical merging.
//!
//! [`SweepSpec::shard`] partitions the expanded grid by global point index
//! (point `g` belongs to shard `g % of`), so the shards are disjoint,
//! exhaustive and order-preserving by construction — pinned for all grids
//! and all `of ≤ 16` in `tests/sharding.rs`. [`run_sweep_shard_on`]
//! executes one shard and renders a *shard document*: the shard's
//! deterministic export rows under a provenance header binding shard
//! coordinates, grid size, [`spec_hash`] and
//! [`KEY_SCHEMA_VERSION`](crate::KEY_SCHEMA_VERSION). [`merge_shards`]
//! validates a complete, consistent set of documents and reassembles the
//! global row order arithmetically (shard `i`'s `k`-th row has global index
//! `i + k·of`), then renders through the *same* JSON/CSV renderers the
//! unsharded path uses — merge output is byte-identical to a single-process
//! run by construction, not by luck.

use serde::{Deserialize, Serialize};

use crate::engine::{rows_to_csv, rows_to_json, ExportRow, SweepOptions, SweepResult};
use crate::error::SweepError;
use crate::exec::Executor;
use crate::key::{spec_hash, KEY_SCHEMA_VERSION};
use crate::spec::SweepSpec;

/// One executed shard of a sweep: the per-point outcomes (shard-local
/// order) plus the provenance that lets [`merge_shards`] stitch shards
/// back together safely.
#[derive(Debug, Clone)]
pub struct ShardSweep {
    /// The executed shard — per-point outcomes and stats, exactly as an
    /// unsharded [`SweepResult`] but covering only this shard's points.
    pub result: SweepResult,
    /// This shard's index, `0 ≤ index < of`.
    pub index: usize,
    /// Total shard count the grid was split into.
    pub of: usize,
    /// Points in the *whole* grid (all shards together).
    pub total: usize,
    /// Identity hash of the sweep spec (see [`spec_hash`]).
    pub spec_hash: u64,
}

impl ShardSweep {
    /// Renders the shard document: a `"shard"` provenance header plus this
    /// shard's deterministic export rows. Feed a complete set of these to
    /// [`merge_shards`] (or `mcm sweep --merge`).
    pub fn to_json(&self) -> String {
        #[derive(Serialize)]
        struct Header {
            index: usize,
            of: usize,
            total: usize,
            spec_hash: String,
            key_schema: u32,
        }
        #[derive(Serialize)]
        struct Document {
            shard: Header,
            rows: Vec<ExportRow>,
        }
        let doc = Document {
            shard: Header {
                index: self.index,
                of: self.of,
                total: self.total,
                spec_hash: format!("{:016x}", self.spec_hash),
                key_schema: KEY_SCHEMA_VERSION,
            },
            rows: self.result.export_rows(),
        };
        serde_json::to_string_pretty(&doc).expect("shard documents are serializable")
    }
}

/// Expands `spec`, keeps only shard `index` of `of` (see
/// [`SweepSpec::shard`]), and executes those points under `options` on
/// `executor` — the sharded flavour of
/// [`run_sweep_on`](crate::run_sweep_on), surfaced as
/// `mcm sweep --shard i/n`.
pub fn run_sweep_shard_on(
    executor: &dyn Executor,
    spec: &SweepSpec,
    index: usize,
    of: usize,
    options: &SweepOptions,
) -> Result<ShardSweep, SweepError> {
    let points = spec.shard(index, of)?;
    let result = crate::engine::run_points_on(executor, points, options)?;
    Ok(ShardSweep {
        result,
        index,
        of,
        total: spec.len(),
        spec_hash: spec_hash(spec),
    })
}

/// A parsed shard document (one `--shard i/n` output file).
#[derive(Debug, Clone)]
struct ShardDoc {
    index: usize,
    of: usize,
    total: usize,
    spec_hash: u64,
    key_schema: u32,
    rows: Vec<ExportRow>,
}

impl ShardDoc {
    fn parse(name: &str, text: &str) -> Result<ShardDoc, SweepError> {
        let refuse = |reason: String| SweepError::Shard {
            reason: format!("{name}: {reason}"),
        };
        let v: serde::Value =
            serde_json::from_str(text).map_err(|e| refuse(format!("not a JSON document: {e}")))?;
        let shard = v.get("shard").ok_or_else(|| {
            refuse(
                "not a shard document (no `shard` header; \
                 was this written with --shard?)"
                    .to_string(),
            )
        })?;
        let field = |name: &'static str| {
            shard
                .get(name)
                .and_then(|f| f.as_u64())
                .ok_or_else(|| refuse(format!("shard header has no `{name}`")))
        };
        let spec_hash = shard
            .get("spec_hash")
            .and_then(|h| h.as_str())
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| refuse("shard header has no `spec_hash`".to_string()))?;
        let rows = v
            .get("rows")
            .ok_or_else(|| refuse("shard document has no `rows`".to_string()))?;
        let rows: Vec<ExportRow> =
            Deserialize::from_value(rows).map_err(|e| refuse(format!("unreadable rows: {e}")))?;
        let key_schema = field("key_schema")?;
        Ok(ShardDoc {
            index: field("index")? as usize,
            of: field("of")? as usize,
            total: field("total")? as usize,
            spec_hash,
            key_schema: u32::try_from(key_schema).map_err(|_| {
                refuse(format!(
                    "shard header `key_schema` = {key_schema} is out of range"
                ))
            })?,
            rows,
        })
    }

    /// Points a grid of `total` assigns to shard `index` of `of`.
    fn expected_rows(&self) -> usize {
        (self.total / self.of) + usize::from(self.index < self.total % self.of)
    }
}

/// A merged sweep: the full grid's deterministic export rows, reassembled
/// from shard documents. Renders through the same renderers as an
/// unsharded [`SweepResult`], so [`MergedSweep::to_json`] and
/// [`MergedSweep::to_csv`] are byte-identical to the single-process run's.
#[derive(Debug, Clone)]
pub struct MergedSweep {
    rows: Vec<ExportRow>,
}

impl MergedSweep {
    /// Points in the merged grid.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the merged grid is empty (it never is: merge validates
    /// exhaustiveness first).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Deterministic JSON export — byte-identical to
    /// [`SweepResult::to_json`] of the unsharded run.
    pub fn to_json(&self) -> String {
        rows_to_json(&self.rows)
    }

    /// Deterministic CSV export — byte-identical to
    /// [`SweepResult::to_csv`] of the unsharded run.
    pub fn to_csv(&self) -> String {
        rows_to_csv(&self.rows)
    }
}

/// Recombines shard documents into the full grid. `docs` pairs a display
/// name (used in error messages — typically the file path) with the
/// document text. Refuses, with a typed [`SweepError::Shard`], any set
/// that is inconsistent (different sweeps, different shard counts or key
/// schemas), incomplete (missing shards, short rows), or overlapping
/// (duplicate shards).
pub fn merge_shards(docs: &[(String, String)]) -> Result<MergedSweep, SweepError> {
    let refuse = |reason: String| SweepError::Shard { reason };
    if docs.is_empty() {
        return Err(refuse("no shard files to merge".to_string()));
    }
    let parsed: Vec<ShardDoc> = docs
        .iter()
        .map(|(name, text)| ShardDoc::parse(name, text))
        .collect::<Result<_, _>>()?;
    let first = &parsed[0];
    if first.of == 0 {
        return Err(refuse(format!(
            "{}: shard header claims 0 shards",
            docs[0].0
        )));
    }
    for (doc, (name, _)) in parsed.iter().zip(docs).skip(1) {
        if (doc.of, doc.total, doc.spec_hash, doc.key_schema)
            != (first.of, first.total, first.spec_hash, first.key_schema)
        {
            return Err(refuse(format!(
                "{name} belongs to a different run than {} \
                 (of {} vs {}, total {} vs {}, spec {:016x} vs {:016x}, \
                 key schema {} vs {})",
                docs[0].0,
                doc.of,
                first.of,
                doc.total,
                first.total,
                doc.spec_hash,
                first.spec_hash,
                doc.key_schema,
                first.key_schema
            )));
        }
    }
    if parsed.len() != first.of {
        return Err(refuse(format!(
            "expected {} shard file(s), got {}",
            first.of,
            parsed.len()
        )));
    }
    let mut slots: Vec<Option<ExportRow>> = vec![None; first.total];
    let mut seen = vec![false; first.of];
    for (doc, (name, _)) in parsed.iter().zip(docs) {
        if doc.index >= doc.of {
            return Err(refuse(format!(
                "{name}: shard index {} is out of range for {} shard(s)",
                doc.index, doc.of
            )));
        }
        if seen[doc.index] {
            return Err(refuse(format!(
                "{name}: shard {}/{} appears twice",
                doc.index, doc.of
            )));
        }
        seen[doc.index] = true;
        if doc.rows.len() != doc.expected_rows() {
            return Err(refuse(format!(
                "{name}: shard {}/{} of a {}-point grid must carry {} row(s), has {}",
                doc.index,
                doc.of,
                doc.total,
                doc.expected_rows(),
                doc.rows.len()
            )));
        }
        // Shard i's k-th row sits at global index i + k·of: the inverse of
        // the `g % of == i` partition, no stored indices needed.
        for (k, row) in doc.rows.iter().enumerate() {
            slots[doc.index + k * doc.of] = Some(row.clone());
        }
    }
    let rows: Vec<ExportRow> = slots
        .into_iter()
        .collect::<Option<_>>()
        .ok_or_else(|| refuse("shards leave holes in the grid".to_string()))?;
    Ok(MergedSweep { rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::RayonExecutor;
    use mcm_load::HdOperatingPoint;

    fn spec() -> SweepSpec {
        SweepSpec {
            points: vec![HdOperatingPoint::Hd720p30, HdOperatingPoint::Hd1080p30],
            channels: vec![1, 2, 4],
            op_limit: Some(2_000),
            ..SweepSpec::default()
        }
    }

    fn shard_docs(of: usize) -> Vec<(String, String)> {
        let exec = RayonExecutor::default();
        (0..of)
            .map(|i| {
                let shard =
                    run_sweep_shard_on(&exec, &spec(), i, of, &SweepOptions::default()).unwrap();
                (format!("shard-{i}.json"), shard.to_json())
            })
            .collect()
    }

    #[test]
    fn merge_is_byte_identical_to_the_unsharded_run() {
        let whole = crate::engine::run_sweep_on(
            &RayonExecutor::default(),
            &spec(),
            &SweepOptions::default(),
        )
        .unwrap();
        for of in [1, 2, 3] {
            let merged = merge_shards(&shard_docs(of)).unwrap();
            assert_eq!(merged.to_json(), whole.to_json(), "{of} shards, JSON");
            assert_eq!(merged.to_csv(), whole.to_csv(), "{of} shards, CSV");
            assert_eq!(merged.len(), spec().len());
        }
        // Order of the merge inputs must not matter.
        let mut docs = shard_docs(3);
        docs.reverse();
        assert_eq!(merge_shards(&docs).unwrap().to_json(), whole.to_json());
    }

    #[test]
    fn incomplete_or_duplicate_shard_sets_are_refused() {
        let docs = shard_docs(3);
        // Missing shard.
        let e = merge_shards(&docs[..2]).unwrap_err();
        assert!(
            e.to_string().contains("expected 3 shard file(s), got 2"),
            "{e}"
        );
        // Duplicate shard.
        let dup = vec![docs[0].clone(), docs[1].clone(), docs[1].clone()];
        let e = merge_shards(&dup).unwrap_err();
        assert!(e.to_string().contains("appears twice"), "{e}");
        // Nothing at all.
        assert!(merge_shards(&[]).is_err());
    }

    #[test]
    fn shards_of_different_runs_are_refused() {
        let mut docs = shard_docs(2);
        // Re-shard a *different* grid and try to sneak its shard 1 in.
        let other = SweepSpec {
            channels: vec![1, 2],
            ..spec()
        };
        let foreign = run_sweep_shard_on(
            &RayonExecutor::default(),
            &other,
            1,
            2,
            &SweepOptions::default(),
        )
        .unwrap();
        docs[1] = ("foreign.json".to_string(), foreign.to_json());
        let e = merge_shards(&docs).unwrap_err();
        assert!(e.to_string().contains("different run"), "{e}");
    }

    #[test]
    fn non_shard_documents_are_refused_with_a_hint() {
        let whole = crate::engine::run_sweep_on(
            &RayonExecutor::default(),
            &spec(),
            &SweepOptions::default(),
        )
        .unwrap();
        // A plain sweep export has rows but no shard header.
        let e = merge_shards(&[("plain.json".to_string(), whole.to_json())]).unwrap_err();
        assert!(e.to_string().contains("--shard"), "{e}");
        let e = merge_shards(&[("junk.json".to_string(), "nonsense".to_string())]).unwrap_err();
        assert!(matches!(e, SweepError::Shard { .. }));
        // Parse errors read as their message, not as the error's `Debug`.
        assert_eq!(
            e.to_string(),
            "bad shard: junk.json: not a JSON document: unexpected character `n` at byte 0"
        );
        let docs = shard_docs(2);
        let mut v: serde::Value = serde_json::from_str(&docs[0].1).unwrap();
        if let serde::Value::Object(doc) = &mut v {
            doc.insert("rows", serde::to_value(&7u64));
        }
        let bad_rows = (docs[0].0.clone(), serde_json::to_string(&v).unwrap());
        let e = merge_shards(&[bad_rows, docs[1].clone()]).unwrap_err();
        assert!(
            e.to_string().contains("unreadable rows: expected array"),
            "{e}"
        );
        assert!(!e.to_string().contains("Error {"), "{e}");
    }

    #[test]
    fn out_of_range_key_schemas_are_refused_not_truncated() {
        let docs = shard_docs(2);
        // 2^32 + 1 would read as schema 1, this build's, if narrowed with `as`.
        let mut v: serde::Value = serde_json::from_str(&docs[1].1).unwrap();
        if let serde::Value::Object(doc) = &mut v {
            let Some(serde::Value::Object(mut shard)) = doc.remove("shard") else {
                panic!("shard doc has no header");
            };
            shard.insert("key_schema", serde::to_value(&4_294_967_297u64));
            doc.insert("shard", serde::Value::Object(shard));
        }
        let forged = (docs[1].0.clone(), serde_json::to_string(&v).unwrap());
        let e = merge_shards(&[docs[0].clone(), forged]).unwrap_err();
        assert!(e.to_string().contains("`key_schema`"), "{e}");
    }

    #[test]
    fn short_shards_are_refused() {
        let docs = shard_docs(2);
        // Drop one row from shard 0's document.
        let mut v: serde::Value = serde_json::from_str(&docs[0].1).unwrap();
        if let serde::Value::Object(obj) = &mut v {
            let mut rows = match obj.remove("rows") {
                Some(serde::Value::Array(rows)) => rows,
                other => panic!("shard doc rows missing: {other:?}"),
            };
            rows.pop();
            obj.insert("rows", serde::Value::Array(rows));
        }
        let short = serde_json::to_string(&v).unwrap();
        let e = merge_shards(&[(docs[0].0.clone(), short), docs[1].clone()]).unwrap_err();
        assert!(e.to_string().contains("must carry"), "{e}");
    }
}
