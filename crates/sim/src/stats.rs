//! The fixed-bucket latency histogram the memory controller keeps for
//! every request (the source of its p99 latency).

use crate::time::SimTime;

/// A latency histogram with logarithmic (power-of-two nanosecond) buckets.
///
/// Bucket `i` covers latencies in `[2^i, 2^(i+1))` nanoseconds, with bucket 0
/// additionally covering everything below 1 ns.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ps: u128,
    max: SimTime,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Number of logarithmic buckets (covers up to ~2^40 ns ≈ 18 minutes).
    pub const BUCKETS: usize = 40;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; Self::BUCKETS],
            count: 0,
            sum_ps: 0,
            max: SimTime::ZERO,
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: SimTime) {
        let ns = latency.as_ps() / 1_000;
        let idx = if ns == 0 {
            0
        } else {
            (63 - ns.leading_zeros() as usize).min(Self::BUCKETS - 1)
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_ps += latency.as_ps() as u128;
        self.max = self.max.max(latency);
    }

    /// Number of samples.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency, or `None` before any sample.
    pub fn mean(&self) -> Option<SimTime> {
        (self.count > 0).then(|| SimTime::from_ps((self.sum_ps / self.count as u128) as u64))
    }

    /// Maximum recorded latency.
    #[inline]
    pub fn max(&self) -> SimTime {
        self.max
    }

    /// Approximate latency at quantile `q` in `[0, 1]`, resolved to bucket
    /// upper bounds. Returns `None` before any sample.
    pub fn quantile(&self, q: f64) -> Option<SimTime> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Some(SimTime::from_ns(1u64 << (i + 1)));
            }
        }
        Some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_mean_and_quantiles() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.mean(), None);
        for ns in [10u64, 20, 30, 40] {
            h.record(SimTime::from_ns(ns));
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.mean(), Some(SimTime::from_ns(25)));
        assert_eq!(h.max(), SimTime::from_ns(40));
        // All samples are below 64 ns, so p100 resolves to a <=64 ns bucket.
        assert!(h.quantile(1.0).unwrap() <= SimTime::from_ns(64));
        assert!(h.quantile(0.0).is_some());
        assert_eq!(h.quantile(1.5), None);
    }

    #[test]
    fn histogram_sub_ns_goes_to_first_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(SimTime::from_ps(500));
        assert_eq!(h.count(), 1);
        assert!(h.quantile(1.0).unwrap() >= SimTime::from_ps(500));
    }
}
