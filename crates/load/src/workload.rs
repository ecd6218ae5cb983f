//! Named workload selectors.
//!
//! A [`Workload`] is a small, serializable *description* of which
//! [`LoadModel`](crate::LoadModel) drives an experiment. It is what travels
//! through configuration files, sweep specs, HTTP bodies and cache keys; the
//! model itself (a `Box<dyn LoadModel>`) is instantiated from it on demand
//! with [`Workload::model`].
//!
//! Workloads have canonical names so the CLI, the service and the sweep axis
//! all speak the same vocabulary:
//!
//! | name | model |
//! |---|---|
//! | `h264-record` | the paper's Table I H.264 recording chain (the default) |
//! | `hevc-record` | Table I rescaled to an HEVC encoder |
//! | `vvc-record` | Table I rescaled to a VVC encoder |
//! | `stochastic:<seed>[:<burstiness>]` | Markov-modulated per-frame traffic |
//! | `multi-tenant:<n>` | `n` concurrent use cases sharing the channels |
//!
//! Serialization uses the canonical name string, so a `Workload` embedded in
//! an experiment or sweep spec round-trips byte-identically and keeps the
//! sweep result cache keys stable. See `docs/WORKLOADS.md` for the modeling
//! math behind each entry.

use core::fmt;

use serde::{Deserialize, Serialize};

use crate::error::LoadError;
use crate::model::{CodecModel, LoadModel, MultiTenantModel, StochasticModel, TableIModel};
use crate::usecase::UseCase;

/// A modern-codec traffic profile calibrated against the H.264 baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodecProfile {
    /// HEVC/H.265: larger motion-search window, roughly half the bitrate of
    /// H.264 at equal quality.
    Hevc,
    /// VVC/H.266: the VTM encoder performs ≈1.7× the memory accesses of the
    /// HEVC HM encoder (arXiv:2005.13331) at roughly a quarter of the H.264
    /// bitrate.
    Vvc,
}

impl CodecProfile {
    /// Encoder reference-read scale relative to H.264, as a rational
    /// `(numerator, denominator)`. See `docs/WORKLOADS.md` for the
    /// calibration.
    pub fn encoder_read_scale(self) -> (u64, u64) {
        match self {
            CodecProfile::Hevc => (3, 2),
            CodecProfile::Vvc => (51, 20),
        }
    }

    /// Output-bitrate scale relative to H.264 at equal quality.
    pub fn bitrate_scale(self) -> (u64, u64) {
        match self {
            CodecProfile::Hevc => (1, 2),
            CodecProfile::Vvc => (1, 4),
        }
    }

    /// Canonical workload name for this profile.
    pub fn workload_name(self) -> &'static str {
        match self {
            CodecProfile::Hevc => "hevc-record",
            CodecProfile::Vvc => "vvc-record",
        }
    }
}

/// Parameters of the seed-deterministic stochastic traffic generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StochasticParams {
    /// Seed for the per-frame Markov chain. Identical seeds produce
    /// bit-identical operation streams regardless of thread count.
    pub seed: u64,
    /// Burstiness, 0–100. Zero collapses the chain to the nominal Table I
    /// load; 100 maximizes both the burst probability and the burst
    /// amplitude (2× the nominal coding traffic).
    pub burstiness_pct: u32,
}

/// Default burstiness when `stochastic:<seed>` omits the third field.
pub const DEFAULT_BURSTINESS_PCT: u32 = 50;

impl Default for StochasticParams {
    fn default() -> Self {
        StochasticParams {
            seed: 1,
            burstiness_pct: DEFAULT_BURSTINESS_PCT,
        }
    }
}

/// The workload an experiment simulates. See the `workload` module docs for the
/// catalogue and `docs/WORKLOADS.md` for the math.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Workload {
    /// The paper's Table I H.264 recording chain (`h264-record`).
    #[default]
    TableI,
    /// Table I with the coding stages rescaled to a modern codec.
    Codec(CodecProfile),
    /// Markov-modulated per-frame traffic (`stochastic:<seed>[:<b>]`).
    Stochastic(StochasticParams),
    /// `n` concurrent use cases contending for the same channels
    /// (`multi-tenant:<n>`).
    MultiTenant(u32),
}

/// Most tenants the multi-tenant workload accepts; past this the layouts
/// cannot fit any evaluated capacity and the parse error is clearer than a
/// layout overflow.
pub const MAX_TENANTS: u32 = 16;

impl Workload {
    /// Whether this is the default Table I workload. Serialized experiment
    /// forms omit the workload field in that case so that pre-existing cache
    /// keys and stored documents remain valid.
    pub fn is_default(&self) -> bool {
        *self == Workload::TableI
    }

    /// Canonical name (`h264-record`, `stochastic:7`, …); parseable back via
    /// [`Workload::parse`].
    pub fn name(&self) -> String {
        match self {
            Workload::TableI => "h264-record".to_string(),
            Workload::Codec(p) => p.workload_name().to_string(),
            Workload::Stochastic(p) => {
                if p.burstiness_pct == DEFAULT_BURSTINESS_PCT {
                    format!("stochastic:{}", p.seed)
                } else {
                    format!("stochastic:{}:{}", p.seed, p.burstiness_pct)
                }
            }
            Workload::MultiTenant(n) => format!("multi-tenant:{n}"),
        }
    }

    /// Parses a canonical workload name.
    ///
    /// # Examples
    ///
    /// ```
    /// use mcm_load::Workload;
    ///
    /// assert_eq!(Workload::parse("h264-record").unwrap(), Workload::TableI);
    /// let w = Workload::parse("stochastic:42:80").unwrap();
    /// assert_eq!(w.name(), "stochastic:42:80");
    /// assert!(Workload::parse("mpeg2").is_err());
    /// ```
    pub fn parse(s: &str) -> Result<Workload, LoadError> {
        let bad = |reason: String| LoadError::BadParam { reason };
        match s {
            "h264-record" => return Ok(Workload::TableI),
            "hevc-record" => return Ok(Workload::Codec(CodecProfile::Hevc)),
            "vvc-record" => return Ok(Workload::Codec(CodecProfile::Vvc)),
            _ => {}
        }
        if let Some(rest) = s.strip_prefix("stochastic:") {
            let mut parts = rest.splitn(2, ':');
            let seed_str = parts.next().unwrap_or("");
            let seed: u64 = seed_str
                .parse()
                .map_err(|_| bad(format!("stochastic seed `{seed_str}` is not a u64")))?;
            let burstiness_pct = match parts.next() {
                None => DEFAULT_BURSTINESS_PCT,
                Some(b) => b
                    .parse()
                    .map_err(|_| bad(format!("burstiness `{b}` is not an integer")))?,
            };
            if burstiness_pct > 100 {
                return Err(bad(format!("burstiness {burstiness_pct} must be 0..=100")));
            }
            return Ok(Workload::Stochastic(StochasticParams {
                seed,
                burstiness_pct,
            }));
        }
        if let Some(rest) = s.strip_prefix("multi-tenant:") {
            let n: u32 = rest
                .parse()
                .map_err(|_| bad(format!("tenant count `{rest}` is not an integer")))?;
            if n == 0 || n > MAX_TENANTS {
                return Err(bad(format!("tenant count {n} must be 1..={MAX_TENANTS}")));
            }
            return Ok(Workload::MultiTenant(n));
        }
        Err(bad(format!(
            "unknown workload `{s}`; expected h264-record, hevc-record, \
             vvc-record, stochastic:<seed>[:<burstiness>] or multi-tenant:<n>"
        )))
    }

    /// Instantiates the [`LoadModel`] this workload describes, for a base
    /// use case (the operating point, fps, bitrates, mode, …).
    pub fn model(&self, base: &UseCase) -> Box<dyn LoadModel> {
        match self {
            Workload::TableI => Box::new(TableIModel::new(*base)),
            Workload::Codec(p) => Box::new(CodecModel::new(*base, *p)),
            Workload::Stochastic(p) => Box::new(StochasticModel::new(*base, *p)),
            Workload::MultiTenant(n) => Box::new(MultiTenantModel::new(*base, *n)),
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

impl Serialize for Workload {
    fn serialize<S: serde::Serializer>(&self, s: &mut S) {
        s.str(&self.name());
    }
}

impl Deserialize for Workload {
    fn deserialize<'de, D: serde::Deserializer<'de>>(src: &mut D) -> Result<Self, serde::Error> {
        match src.token()? {
            serde::Token::Str(s) => Workload::parse(&s).map_err(serde::Error::custom),
            _ => Err(serde::Error::custom("workload must be a string")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_names_round_trip() {
        let cases = [
            Workload::TableI,
            Workload::Codec(CodecProfile::Hevc),
            Workload::Codec(CodecProfile::Vvc),
            Workload::Stochastic(StochasticParams {
                seed: 7,
                burstiness_pct: DEFAULT_BURSTINESS_PCT,
            }),
            Workload::Stochastic(StochasticParams {
                seed: 0xDEAD,
                burstiness_pct: 85,
            }),
            Workload::MultiTenant(3),
        ];
        for w in cases {
            assert_eq!(Workload::parse(&w.name()).unwrap(), w, "{w}");
            // Serde round-trip through the string form.
            let v = serde::to_value(&w);
            assert_eq!(v, serde::Value::String(w.name()));
            assert_eq!(Workload::from_value(&v).unwrap(), w);
        }
    }

    #[test]
    fn default_burstiness_is_elided_from_the_name() {
        assert_eq!(
            Workload::parse("stochastic:9").unwrap().name(),
            "stochastic:9"
        );
        assert_eq!(
            Workload::parse("stochastic:9:50").unwrap().name(),
            "stochastic:9"
        );
    }

    #[test]
    fn bad_names_are_rejected_with_reasons() {
        for s in [
            "mpeg2",
            "stochastic:",
            "stochastic:x",
            "stochastic:1:101",
            "multi-tenant:0",
            "multi-tenant:99",
            "multi-tenant:two",
        ] {
            let err = Workload::parse(s).unwrap_err();
            assert!(matches!(err, LoadError::BadParam { .. }), "{s}");
        }
    }

    #[test]
    fn default_is_table_i() {
        assert!(Workload::default().is_default());
        assert!(!Workload::MultiTenant(2).is_default());
    }
}
