//! The execution policy: *how* a run executes, as opposed to *what* it
//! computes.
//!
//! [`ExecutionPolicy`] rides on [`RunOptions::execution`](crate::RunOptions)
//! and is accepted everywhere a run can be launched
//! (`RunOptions::with_execution`, `SweepOptions`, the serve JSON body's
//! `"execution"` key, and `--execution` on `mcm run`/`mcm bench`/
//! `mcm sweep`). Its one setting is [`ExecutionPolicy::memoize_steady`], a
//! documented analytic approximation for multi-frame runs.
//!
//! The default policy serializes to an empty object, so the enclosing
//! `RunOptions` drops the `"execution"` key and existing sweep-cache
//! fingerprints and result-store documents stay warm.

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

/// How a run executes: the steady-state memoization fast path, off by
/// default.
///
/// # Examples
///
/// ```
/// use mcm_core::ExecutionPolicy;
///
/// let policy: ExecutionPolicy = "memoized".parse().unwrap();
/// assert!(policy.memoize_steady);
/// assert_eq!(policy.to_string(), "memoized");
/// assert_eq!("serial".parse::<ExecutionPolicy>().unwrap(), ExecutionPolicy::default());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ExecutionPolicy {
    /// Price identical steady-state frames once instead of re-simulating
    /// them (multi-frame runs without a recorder only). An analytic
    /// approximation: access times of repeated frames reuse their first
    /// occurrence, so refresh-debt drift across skipped frames is ignored.
    pub memoize_steady: bool,
}

impl ExecutionPolicy {
    /// Enables or disables steady-state memoization (builder style).
    pub fn with_memoize_steady(mut self, memoize: bool) -> Self {
        self.memoize_steady = memoize;
        self
    }
}

impl fmt::Display for ExecutionPolicy {
    /// Renders the policy in the token form [`ExecutionPolicy::from_str`]
    /// parses: `"memoized"`, or `"serial"` for the default.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.memoize_steady {
            "memoized"
        } else {
            "serial"
        })
    }
}

impl FromStr for ExecutionPolicy {
    type Err = String;

    /// Parses the CLI/serve spelling: comma-separated tokens among
    /// `serial` and `memoized`, in any order.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut policy = ExecutionPolicy::default();
        for token in s.split(',') {
            match token.trim() {
                "" | "serial" | "default" => {}
                "memoized" => policy.memoize_steady = true,
                other => {
                    return Err(format!(
                        "unknown execution token {other:?} (expected serial or memoized)"
                    ))
                }
            }
        }
        Ok(policy)
    }
}

// Hand-rolled serde: `memoize_steady` is written only when set, so
// `ExecutionPolicy::default()` serializes as `{}` and the enclosing
// `RunOptions` can drop the key entirely. A JSON string in the `FromStr`
// spelling is accepted on input (the serve body takes either form), and
// object keys other than `memoize_steady` are ignored.
impl Serialize for ExecutionPolicy {
    fn to_value(&self) -> serde::Value {
        let mut m = serde::Map::new();
        if self.memoize_steady {
            m.insert("memoize_steady".to_string(), true.to_value());
        }
        serde::Value::Object(m)
    }
}

impl Deserialize for ExecutionPolicy {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        if let Some(s) = v.as_str() {
            return s.parse().map_err(serde::Error::custom);
        }
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::custom("expected object or string for ExecutionPolicy"))?;
        let mut policy = ExecutionPolicy::default();
        if let Some(m) = obj.get("memoize_steady") {
            policy.memoize_steady = Deserialize::from_value(m)?;
        }
        Ok(policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unmemoized() {
        assert!(!ExecutionPolicy::default().memoize_steady);
        assert_eq!(ExecutionPolicy::default().to_string(), "serial");
    }

    #[test]
    fn default_serializes_to_empty_object() {
        let v = ExecutionPolicy::default().to_value();
        assert_eq!(serde_json::to_string(&v).unwrap(), "{}");
        let memo = ExecutionPolicy::default()
            .with_memoize_steady(true)
            .to_value();
        assert_eq!(
            serde_json::to_string(&memo).unwrap(),
            "{\"memoize_steady\":true}"
        );
    }

    #[test]
    fn round_trips_through_serde() {
        for p in [
            ExecutionPolicy::default(),
            ExecutionPolicy::default().with_memoize_steady(true),
        ] {
            let v = p.to_value();
            let back = ExecutionPolicy::from_value(&v).unwrap();
            assert_eq!(p, back, "{v:?}");
        }
    }

    #[test]
    fn round_trips_through_display_and_parse() {
        for spec in ["serial", "memoized"] {
            let p: ExecutionPolicy = spec.parse().unwrap();
            assert_eq!(p.to_string(), spec, "canonical form of {spec:?}");
            let again: ExecutionPolicy = p.to_string().parse().unwrap();
            assert_eq!(p, again);
        }
    }

    #[test]
    fn parse_accepts_any_token_order_and_whitespace() {
        let a: ExecutionPolicy = "memoized, serial".parse().unwrap();
        let b: ExecutionPolicy = "serial,memoized".parse().unwrap();
        assert_eq!(a, b);
        assert!(a.memoize_steady);
    }

    #[test]
    fn parse_rejects_unknown_tokens() {
        for bad in [
            "warp-speed",
            "per-channel",
            "per-channel:2",
            "calendar",
            "binary-heap",
            "memoized,binary-heap",
        ] {
            let err = bad.parse::<ExecutionPolicy>().unwrap_err();
            assert!(err.contains("unknown execution token"), "{bad}: {err}");
        }
    }

    #[test]
    fn deserializes_from_a_string_value() {
        let v = serde::Value::String("memoized".to_string());
        let p = ExecutionPolicy::from_value(&v).unwrap();
        assert_eq!(p, ExecutionPolicy::default().with_memoize_steady(true));
        let bad = serde::Value::String("per-channel:3".to_string());
        assert!(ExecutionPolicy::from_value(&bad).is_err());
    }

    #[test]
    fn object_form_ignores_keys_it_does_not_read() {
        let v = serde_json::from_str(
            "{\"engine\": \"binary-heap\", \"parallelism\": \"per-channel\", \"threads\": 2}",
        )
        .unwrap();
        assert_eq!(
            ExecutionPolicy::from_value(&v).unwrap(),
            ExecutionPolicy::default()
        );
    }

    #[test]
    fn rejects_non_policy_values() {
        for bad in ["[1, 2]", "7", "{\"memoize_steady\": \"yes\"}"] {
            let v = serde_json::from_str(bad).unwrap();
            assert!(ExecutionPolicy::from_value(&v).is_err(), "{bad}");
        }
    }
}
