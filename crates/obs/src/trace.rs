//! Span capture and Chrome `trace_event` export.
//!
//! The exported JSON follows the *Trace Event Format* object form
//! (`{"traceEvents": [...]}`) with complete (`"ph": "X"`) events for spans,
//! metadata (`"ph": "M"`) events naming one track per channel, and counter
//! (`"ph": "C"`) events for the bandwidth timeline. The output loads in
//! Perfetto and `chrome://tracing` unchanged; timestamps are microseconds,
//! converted from the simulator's picosecond clock.

use serde::{Deserialize, Serialize};
use serde_json::{json, Value};

use crate::timeline::Timeline;

/// One named interval of simulated time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanEvent {
    /// Span label, e.g. `"txn"` or `"frame"`.
    pub name: String,
    /// Channel the span belongs to; `None` for subsystem-wide spans.
    pub channel: Option<u32>,
    /// Start, picoseconds.
    pub start_ps: u64,
    /// End, picoseconds (`end_ps ≥ start_ps`).
    pub end_ps: u64,
}

/// Track id used for spans with no channel (`channel: None`).
pub const MASTER_TID: u64 = 0;

fn tid_of(channel: Option<u32>) -> u64 {
    match channel {
        None => MASTER_TID,
        Some(ch) => ch as u64 + 1,
    }
}

fn ps_to_us(ps: u64) -> f64 {
    ps as f64 / 1e6
}

/// Builds the Chrome `trace_event` JSON value for a set of spans plus
/// per-channel bandwidth timelines. `channels` pairs each channel id with
/// its timeline; pass an empty slice to export spans only.
pub fn chrome_trace(spans: &[SpanEvent], channels: &[(u32, &Timeline)]) -> Value {
    let mut events: Vec<Value> = Vec::new();

    // Track names first: one "process", master track 0, channels 1..N.
    events.push(json!({
        "ph": "M", "name": "process_name", "pid": 0, "tid": 0,
        "args": {"name": "mcm memory subsystem"}
    }));
    events.push(json!({
        "ph": "M", "name": "thread_name", "pid": 0, "tid": MASTER_TID,
        "args": {"name": "master"}
    }));
    for &(ch, _) in channels {
        events.push(json!({
            "ph": "M", "name": "thread_name", "pid": 0, "tid": tid_of(Some(ch)),
            "args": {"name": format!("channel {ch}")}
        }));
    }

    for span in spans {
        events.push(json!({
            "ph": "X",
            "name": span.name,
            "cat": "sim",
            "pid": 0,
            "tid": tid_of(span.channel),
            "ts": ps_to_us(span.start_ps),
            "dur": ps_to_us(span.end_ps.max(span.start_ps) - span.start_ps),
        }));
    }

    for &(ch, timeline) in channels {
        let width = timeline.bucket_ps();
        for (i, bucket) in timeline.buckets().iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let ts = ps_to_us(width.saturating_mul(i as u64));
            events.push(json!({
                "ph": "C",
                "name": format!("ch{ch} bytes"),
                "pid": 0,
                "tid": tid_of(Some(ch)),
                "ts": ts,
                "args": {"read": bucket.read_bytes, "write": bucket.write_bytes},
            }));
            if bucket.energy_pj != 0.0 {
                events.push(json!({
                    "ph": "C",
                    "name": format!("ch{ch} energy_pj"),
                    "pid": 0,
                    "tid": tid_of(Some(ch)),
                    "ts": ts,
                    "args": {"pj": bucket.energy_pj},
                }));
            }
        }
    }

    json!({
        "traceEvents": events,
        "displayTimeUnit": "ns",
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_become_complete_events() {
        let spans = vec![
            SpanEvent {
                name: "txn".into(),
                channel: Some(0),
                start_ps: 1_000_000,
                end_ps: 3_000_000,
            },
            SpanEvent {
                name: "frame".into(),
                channel: None,
                start_ps: 0,
                end_ps: 10_000_000,
            },
        ];
        let trace = chrome_trace(&spans, &[]);
        let events = trace["traceEvents"].as_array().unwrap();
        let xs: Vec<&Value> = events.iter().filter(|e| e["ph"] == "X").collect();
        assert_eq!(xs.len(), 2);
        assert_eq!(xs[0]["ts"], 1.0);
        assert_eq!(xs[0]["dur"], 2.0);
        assert_eq!(xs[0]["tid"], 1);
        assert_eq!(xs[1]["tid"], MASTER_TID);
    }

    #[test]
    fn timelines_become_counter_events() {
        let mut t = Timeline::new(1_000_000);
        t.add_bytes(0, false, 64);
        t.add_bytes(2_000_000, true, 32);
        let trace = chrome_trace(&[], &[(1, &t)]);
        let events = trace["traceEvents"].as_array().unwrap();
        let cs: Vec<&Value> = events.iter().filter(|e| e["ph"] == "C").collect();
        assert_eq!(cs.len(), 2);
        assert_eq!(cs[0]["args"]["read"], 64);
        assert_eq!(cs[1]["args"]["write"], 32);
        assert_eq!(cs[1]["ts"], 2.0);
    }

    #[test]
    fn every_event_has_the_required_fields() {
        let spans = vec![SpanEvent {
            name: "txn".into(),
            channel: Some(2),
            start_ps: 5,
            end_ps: 10,
        }];
        let mut t = Timeline::new(100);
        t.add_energy(0, 1.0);
        let trace = chrome_trace(&spans, &[(2, &t)]);
        for event in trace["traceEvents"].as_array().unwrap() {
            assert!(event["ph"].as_str().is_some());
            assert!(event["pid"].as_u64().is_some());
            assert!(event["tid"].as_u64().is_some());
        }
    }
}
