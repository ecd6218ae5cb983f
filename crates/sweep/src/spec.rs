//! Declarative sweep specifications.
//!
//! A [`SweepSpec`] names one value list per experiment axis and expands to
//! the cartesian product via [`ExperimentBuilder`](mcm_core::ExperimentBuilder),
//! so every expanded point is validated the same way a hand-built
//! experiment is. Expansion order is deterministic and documented (see
//! [`SweepSpec::expand`]): results keyed by position are stable across
//! machines and thread counts.

use mcm_core::{ChunkPolicy, Experiment, Pacing};
use mcm_ctrl::{PagePolicy, PowerDownPolicy};
use mcm_dram::AddressMapping;
use mcm_fault::FaultPlan;
use mcm_load::{HdOperatingPoint, Workload};
use serde::{Deserialize, Serialize};

use crate::error::SweepError;

/// A cartesian grid over the experiment configuration space.
///
/// Every axis defaults to the single paper value, so a spec only names the
/// axes it actually sweeps:
///
/// ```
/// use mcm_load::HdOperatingPoint;
/// use mcm_sweep::SweepSpec;
///
/// let spec = SweepSpec {
///     points: vec![HdOperatingPoint::Hd720p30, HdOperatingPoint::Hd1080p30],
///     channels: vec![2, 4],
///     op_limit: Some(5_000),
///     ..SweepSpec::default()
/// };
/// assert_eq!(spec.expand().unwrap().len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// HD operating points (outermost loop).
    pub points: Vec<HdOperatingPoint>,
    /// Channel counts.
    pub channels: Vec<u32>,
    /// Interface clocks, MHz.
    pub clocks_mhz: Vec<u64>,
    /// Address mappings.
    pub mappings: Vec<AddressMapping>,
    /// Row-buffer policies.
    pub page_policies: Vec<PagePolicy>,
    /// CKE policies.
    pub power_down: Vec<PowerDownPolicy>,
    /// Master-transaction sizings.
    pub chunks: Vec<ChunkPolicy>,
    /// Arrival pacing.
    pub pacings: Vec<Pacing>,
    /// Workload models applied per point. The default single-`TableI`
    /// axis keeps paper sweeps (and their cache fingerprints) unchanged;
    /// naming e.g. `["h264-record", "vvc-record"]` compares codecs on
    /// otherwise identical hardware points.
    pub workloads: Vec<Workload>,
    /// Fault plans injected per point (innermost loop): `None` runs
    /// healthy, `Some(plan)` runs degraded. The default single-`None` axis
    /// keeps healthy sweeps (and their cache fingerprints) unchanged.
    pub faults: Vec<Option<FaultPlan>>,
    /// Optional cap on simulated operations, applied to every point
    /// (quick tests and smoke runs).
    pub op_limit: Option<u64>,
}

impl Default for SweepSpec {
    /// The paper's headline configuration on every axis, one value each.
    fn default() -> Self {
        SweepSpec {
            points: vec![HdOperatingPoint::Hd1080p30],
            channels: vec![4],
            clocks_mhz: vec![400],
            mappings: vec![AddressMapping::Rbc],
            page_policies: vec![PagePolicy::Open],
            power_down: vec![PowerDownPolicy::AfterIdleCycles(1)],
            chunks: vec![ChunkPolicy::PerChannel(64)],
            pacings: vec![Pacing::Greedy],
            workloads: vec![Workload::TableI],
            faults: vec![None],
            op_limit: None,
        }
    }
}

impl Serialize for SweepSpec {
    fn serialize<S: serde::Serializer>(&self, s: &mut S) {
        s.begin_object();
        s.field("points", &self.points);
        s.field("channels", &self.channels);
        s.field("clocks_mhz", &self.clocks_mhz);
        s.field("mappings", &self.mappings);
        s.field("page_policies", &self.page_policies);
        s.field("power_down", &self.power_down);
        s.field("chunks", &self.chunks);
        s.field("pacings", &self.pacings);
        // Always written (unlike `Experiment`'s elided default): spec JSON
        // is a user-facing document, and the axis must be discoverable.
        s.field("workloads", &self.workloads);
        s.field("faults", &self.faults);
        s.field("op_limit", &self.op_limit);
        s.end_object();
    }
}

impl Deserialize for SweepSpec {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::custom("expected object for SweepSpec"))?;
        let field = |name: &str| {
            obj.get(name)
                .ok_or_else(|| serde::Error::missing_field(name))
        };
        Ok(SweepSpec {
            points: Deserialize::from_value(field("points")?)?,
            channels: Deserialize::from_value(field("channels")?)?,
            clocks_mhz: Deserialize::from_value(field("clocks_mhz")?)?,
            mappings: Deserialize::from_value(field("mappings")?)?,
            page_policies: Deserialize::from_value(field("page_policies")?)?,
            power_down: Deserialize::from_value(field("power_down")?)?,
            chunks: Deserialize::from_value(field("chunks")?)?,
            pacings: Deserialize::from_value(field("pacings")?)?,
            // Optional for specs written before the workload axis existed.
            workloads: match obj.get("workloads") {
                Some(v) => Deserialize::from_value(v)?,
                None => vec![Workload::TableI],
            },
            faults: Deserialize::from_value(field("faults")?)?,
            op_limit: Deserialize::from_value(field("op_limit")?)?,
        })
    }
}

/// One expanded grid point: a validated experiment plus its coordinates.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Human-readable coordinates, e.g. `720p@30/4ch/400MHz`. Axes the
    /// spec does not sweep (single-value axes beyond the first three) are
    /// omitted from the label.
    pub label: String,
    /// Operating point of this cell.
    pub point: HdOperatingPoint,
    /// Channel count of this cell.
    pub channels: u32,
    /// Interface clock of this cell, MHz.
    pub clock_mhz: u64,
    /// Workload model of this cell.
    pub workload: Workload,
    /// Fault plan of this cell (`None` runs healthy).
    pub faults: Option<FaultPlan>,
    /// The validated experiment.
    pub experiment: Experiment,
}

impl SweepSpec {
    /// The paper's Fig. 4/Fig. 5 grid: all five HD operating points across
    /// 1, 2, 4 and 8 channels at 400 MHz.
    pub fn paper_grid() -> Self {
        SweepSpec {
            points: HdOperatingPoint::ALL.to_vec(),
            channels: vec![1, 2, 4, 8],
            ..SweepSpec::default()
        }
    }

    /// Number of points the spec expands to.
    pub fn len(&self) -> usize {
        self.points.len()
            * self.channels.len()
            * self.clocks_mhz.len()
            * self.mappings.len()
            * self.page_policies.len()
            * self.power_down.len()
            * self.chunks.len()
            * self.pacings.len()
            * self.workloads.len()
            * self.faults.len()
    }

    /// Whether any axis is empty (the spec expands to nothing).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the cartesian product into validated experiments.
    ///
    /// Loop order, outermost first: points → channels → clocks → mappings
    /// → page policies → power-down policies → chunks → pacings →
    /// workloads → fault plans. The returned order is the result order of
    /// every sweep run, independent of thread count.
    ///
    /// Any axis left empty yields [`SweepError::EmptySpec`]; a combination
    /// that fails experiment validation yields [`SweepError::Point`] naming
    /// the offending coordinates.
    pub fn expand(&self) -> Result<Vec<SweepPoint>, SweepError> {
        for (axis, empty) in [
            ("points", self.points.is_empty()),
            ("channels", self.channels.is_empty()),
            ("clocks_mhz", self.clocks_mhz.is_empty()),
            ("mappings", self.mappings.is_empty()),
            ("page_policies", self.page_policies.is_empty()),
            ("power_down", self.power_down.is_empty()),
            ("chunks", self.chunks.is_empty()),
            ("pacings", self.pacings.is_empty()),
            ("workloads", self.workloads.is_empty()),
            ("faults", self.faults.is_empty()),
        ] {
            if empty {
                return Err(SweepError::EmptySpec { axis });
            }
        }
        let mut out = Vec::with_capacity(self.len());
        for &point in &self.points {
            for &channels in &self.channels {
                for &clock_mhz in &self.clocks_mhz {
                    for &mapping in &self.mappings {
                        for &page in &self.page_policies {
                            for &pd in &self.power_down {
                                for &chunk in &self.chunks {
                                    for &pacing in &self.pacings {
                                        for &workload in &self.workloads {
                                            for plan in &self.faults {
                                                let label = self.label(
                                                    point,
                                                    channels,
                                                    clock_mhz,
                                                    mapping,
                                                    page,
                                                    pd,
                                                    chunk,
                                                    pacing,
                                                    workload,
                                                    plan.as_ref(),
                                                );
                                                let mut builder = Experiment::builder()
                                                    .point(point)
                                                    .channels(channels)
                                                    .clock_mhz(clock_mhz)
                                                    .mapping(mapping)
                                                    .page_policy(page)
                                                    .power_down(pd)
                                                    .chunk(chunk)
                                                    .pacing(pacing)
                                                    .workload(workload);
                                                if let Some(ops) = self.op_limit {
                                                    builder = builder.op_limit(ops);
                                                }
                                                let experiment =
                                                    builder.build().map_err(|source| {
                                                        SweepError::Point {
                                                            label: label.clone(),
                                                            source,
                                                        }
                                                    })?;
                                                out.push(SweepPoint {
                                                    label,
                                                    point,
                                                    channels,
                                                    clock_mhz,
                                                    workload,
                                                    faults: plan.clone(),
                                                    experiment,
                                                });
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// Deterministic shard `index` of `of`: the expanded points whose
    /// global expansion index `g` satisfies `g % of == index`, in expansion
    /// order. The `of` shards are disjoint, their union is exactly
    /// [`SweepSpec::expand`], and the `k`-th point of shard `index` sits at
    /// global index `index + k * of` — which is how
    /// [`merge_shards`](crate::merge_shards) reassembles the grid without
    /// storing explicit indices.
    ///
    /// `shard(0, 1)` is `expand()`. An `index >= of` or `of == 0` is a
    /// typed [`SweepError::Shard`].
    pub fn shard(&self, index: usize, of: usize) -> Result<Vec<SweepPoint>, SweepError> {
        if of == 0 {
            return Err(SweepError::Shard {
                reason: "cannot split a sweep into 0 shards".to_string(),
            });
        }
        if index >= of {
            return Err(SweepError::Shard {
                reason: format!("shard index {index} is out of range for {of} shard(s)"),
            });
        }
        Ok(self
            .expand()?
            .into_iter()
            .enumerate()
            .filter(|(g, _)| g % of == index)
            .map(|(_, p)| p)
            .collect())
    }

    #[allow(clippy::too_many_arguments)]
    fn label(
        &self,
        point: HdOperatingPoint,
        channels: u32,
        clock_mhz: u64,
        mapping: AddressMapping,
        page: PagePolicy,
        pd: PowerDownPolicy,
        chunk: ChunkPolicy,
        pacing: Pacing,
        workload: Workload,
        plan: Option<&FaultPlan>,
    ) -> String {
        let mut label = format!(
            "{}@{}/{}ch/{}MHz",
            point.format(),
            point.fps(),
            channels,
            clock_mhz
        );
        // Secondary axes only show up in labels when actually swept.
        if self.mappings.len() > 1 {
            label.push_str(&format!("/{mapping}"));
        }
        if self.page_policies.len() > 1 {
            label.push_str(&format!("/{page}"));
        }
        if self.power_down.len() > 1 {
            label.push_str(&format!("/{pd}"));
        }
        if self.chunks.len() > 1 {
            label.push_str(&match chunk {
                ChunkPolicy::Fixed(n) => format!("/fixed{n}B"),
                ChunkPolicy::PerChannel(n) => format!("/{n}B-per-ch"),
            });
        }
        if self.pacings.len() > 1 {
            label.push_str(match pacing {
                Pacing::Greedy => "/greedy",
                Pacing::Paced => "/paced",
            });
        }
        if self.workloads.len() > 1 {
            label.push_str(&format!("/{}", workload.name()));
        }
        if self.faults.len() > 1 {
            label.push_str(&match plan {
                Some(p) => format!("/faults#{:#x}+{}", p.seed, p.faults.len()),
                None => "/healthy".to_string(),
            });
        }
        label
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_is_five_by_four() {
        let spec = SweepSpec::paper_grid();
        assert_eq!(spec.len(), 20);
        let points = spec.expand().unwrap();
        assert_eq!(points.len(), 20);
        // Outermost loop is the operating point: first four share 720p30.
        assert!(points[..4]
            .iter()
            .all(|p| p.point == HdOperatingPoint::Hd720p30));
        assert_eq!(
            points
                .iter()
                .map(|p| p.channels)
                .take(4)
                .collect::<Vec<_>>(),
            vec![1, 2, 4, 8]
        );
        // Labels are unique coordinates.
        let mut labels: Vec<&str> = points.iter().map(|p| p.label.as_str()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 20);
    }

    #[test]
    fn empty_axis_is_a_typed_error() {
        let spec = SweepSpec {
            channels: vec![],
            ..SweepSpec::default()
        };
        assert!(spec.is_empty());
        assert_eq!(
            spec.expand().unwrap_err(),
            SweepError::EmptySpec { axis: "channels" }
        );
    }

    #[test]
    fn invalid_combination_names_the_point() {
        let spec = SweepSpec {
            channels: vec![3],
            ..SweepSpec::default()
        };
        match spec.expand().unwrap_err() {
            SweepError::Point { label, .. } => assert!(label.contains("3ch"), "{label}"),
            other => panic!("expected Point error, got {other}"),
        }
    }

    #[test]
    fn secondary_axes_appear_in_labels_only_when_swept() {
        let plain = SweepSpec::default().expand().unwrap();
        assert!(!plain[0].label.contains("page"));
        let swept = SweepSpec {
            page_policies: vec![PagePolicy::Open, PagePolicy::Closed],
            ..SweepSpec::default()
        };
        let labels: Vec<String> = swept
            .expand()
            .unwrap()
            .into_iter()
            .map(|p| p.label)
            .collect();
        assert_eq!(labels.len(), 2);
        assert_ne!(labels[0], labels[1]);
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = SweepSpec::paper_grid();
        let json = serde_json::to_string(&spec).unwrap();
        let back: SweepSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn fault_axis_expands_innermost_and_labels_only_when_swept() {
        let spec = SweepSpec {
            channels: vec![2, 4],
            faults: vec![None, Some(FaultPlan::channel_loss(9, 0))],
            op_limit: Some(1_000),
            ..SweepSpec::default()
        };
        assert_eq!(spec.len(), 4);
        let points = spec.expand().unwrap();
        // Innermost loop: healthy/faulted alternate within a channel count.
        assert!(points[0].faults.is_none());
        assert!(points[1].faults.is_some());
        assert_eq!(points[0].channels, points[1].channels);
        assert!(points[0].label.ends_with("/healthy"), "{}", points[0].label);
        assert!(
            points[1].label.contains("/faults#0x9"),
            "{}",
            points[1].label
        );
        // A single-None axis leaves labels untouched.
        let plain = SweepSpec::default().expand().unwrap();
        assert!(!plain[0].label.contains("healthy"));
        assert!(plain[0].faults.is_none());
    }

    #[test]
    fn fault_axis_round_trips_through_json() {
        let spec = SweepSpec {
            faults: vec![None, Some(FaultPlan::channel_loss(3, 1))],
            ..SweepSpec::default()
        };
        let json = serde_json::to_string(&spec).unwrap();
        let back: SweepSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn workload_axis_expands_and_labels_only_when_swept() {
        let spec = SweepSpec {
            workloads: vec![
                Workload::TableI,
                Workload::parse("vvc-record").unwrap(),
                Workload::parse("stochastic:7").unwrap(),
            ],
            op_limit: Some(1_000),
            ..SweepSpec::default()
        };
        assert_eq!(spec.len(), 3);
        let points = spec.expand().unwrap();
        assert_eq!(points[0].workload, Workload::TableI);
        assert!(
            points[0].label.ends_with("/h264-record"),
            "{}",
            points[0].label
        );
        assert!(
            points[1].label.ends_with("/vvc-record"),
            "{}",
            points[1].label
        );
        assert!(
            points[2].label.ends_with("/stochastic:7"),
            "{}",
            points[2].label
        );
        // The expanded experiment carries the workload into the engine.
        assert_eq!(points[1].experiment.workload, points[1].workload);
        // A single-TableI axis leaves labels and experiments untouched.
        let plain = SweepSpec::default().expand().unwrap();
        assert!(!plain[0].label.contains("h264"));
        assert!(plain[0].experiment.workload.is_default());
    }

    #[test]
    fn workload_axis_round_trips_and_is_optional_in_json() {
        let spec = SweepSpec {
            workloads: vec![Workload::TableI, Workload::MultiTenant(3)],
            ..SweepSpec::default()
        };
        let json = serde_json::to_string(&spec).unwrap();
        let back: SweepSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
        // Specs written before the axis existed still parse, defaulting to
        // the paper's Table I chain; the axis is always written out.
        let default_json = serde_json::to_string(&SweepSpec::default()).unwrap();
        assert!(default_json.contains("\"workloads\""), "{default_json}");
        let v: serde_json::Value = serde_json::from_str(&default_json).unwrap();
        let mut stripped = serde_json::Map::new();
        for (k, val) in v.as_object().unwrap().iter() {
            if k != "workloads" {
                stripped.insert(k.clone(), val.clone());
            }
        }
        let legacy = SweepSpec::from_value(&serde_json::Value::Object(stripped)).unwrap();
        assert_eq!(legacy, SweepSpec::default());
    }

    #[test]
    fn shards_partition_the_expansion() {
        let spec = SweepSpec::paper_grid();
        let full: Vec<String> = spec
            .expand()
            .unwrap()
            .into_iter()
            .map(|p| p.label)
            .collect();
        for of in [1usize, 2, 3, 7, 20, 23] {
            let mut merged: Vec<(usize, String)> = Vec::new();
            for index in 0..of {
                for (k, p) in spec.shard(index, of).unwrap().into_iter().enumerate() {
                    merged.push((index + k * of, p.label));
                }
            }
            merged.sort_by_key(|(g, _)| *g);
            assert_eq!(
                merged.iter().map(|(_, l)| l.clone()).collect::<Vec<_>>(),
                full,
                "{of} shards must reassemble the grid"
            );
        }
        // More shards than points: the extras are empty, nothing is lost.
        assert!(spec.shard(22, 23).unwrap().is_empty());
    }

    #[test]
    fn bad_shard_selectors_are_typed_errors() {
        let spec = SweepSpec::default();
        assert!(matches!(
            spec.shard(0, 0).unwrap_err(),
            SweepError::Shard { .. }
        ));
        assert!(matches!(
            spec.shard(2, 2).unwrap_err(),
            SweepError::Shard { .. }
        ));
    }

    #[test]
    fn op_limit_reaches_every_experiment() {
        let spec = SweepSpec {
            op_limit: Some(1_234),
            ..SweepSpec::default()
        };
        let points = spec.expand().unwrap();
        assert!(points.iter().all(|p| p.experiment.op_limit == Some(1_234)));
    }
}
