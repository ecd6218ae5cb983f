//! Cross-engine parity: the optimized hot path must be a pure speedup.
//!
//! Three seams changed for throughput and each must be invisible in the
//! results: the kernel's calendar event queue vs the reference binary
//! heap, the controller's batched same-row command runs vs per-command
//! issue (forced onto the slow path by attaching a recorder), and the
//! event-driven master's dense in-flight tracking. These tests pin
//! bit-identical outcomes over the paper's whole operating grid and over
//! proptest-drawn random configurations.

use mcm_core::eventsim::{run_event_driven_configured, EventDrivenResult};
use mcm_core::{ChunkPolicy, Experiment, Pacing, RunOptions};
use mcm_ctrl::{PagePolicy, PowerDownPolicy, WritePolicy};
use mcm_dram::AddressMapping;
use mcm_load::{HdOperatingPoint, StochasticParams, Workload};
use mcm_sim::QueueKind;
use proptest::prelude::*;

const LEVELS: [HdOperatingPoint; 5] = [
    HdOperatingPoint::Hd720p30,
    HdOperatingPoint::Hd720p60,
    HdOperatingPoint::Hd1080p30,
    HdOperatingPoint::Hd1080p60,
    HdOperatingPoint::Uhd2160p30,
];
const CHANNELS: [u32; 4] = [1, 2, 4, 8];
/// The paper's interface clocks, MHz.
const CLOCKS_MHZ: [u64; 5] = [200, 266, 333, 400, 533];

fn quick(point: HdOperatingPoint, channels: u32) -> Experiment {
    let mut e = Experiment::paper(point, channels, 400);
    e.op_limit = Some(3_000);
    e
}

fn event_driven(
    e: &Experiment,
    window: u32,
    queue: QueueKind,
) -> Result<EventDrivenResult, String> {
    run_event_driven_configured(e, window, queue, None).map_err(|err| err.to_string())
}

/// Same experiment, both queue implementations: identical access time,
/// transaction count, and fired-event count — or the identical error on
/// infeasible grid cells (2160p does not fit few channels).
#[test]
fn calendar_queue_matches_binary_heap_across_the_grid() {
    for point in LEVELS {
        for channels in CHANNELS {
            let e = quick(point, channels);
            let cal = event_driven(&e, 8, QueueKind::Calendar);
            let heap = event_driven(&e, 8, QueueKind::BinaryHeap);
            match (cal, heap) {
                (Ok(c), Ok(h)) => {
                    assert_eq!(c.access_time, h.access_time, "{point:?} x {channels}ch");
                    assert_eq!(c.transactions, h.transactions, "{point:?} x {channels}ch");
                    assert_eq!(c.events, h.events, "{point:?} x {channels}ch");
                }
                (Err(c), Err(h)) => {
                    assert_eq!(
                        c, h,
                        "engines must fail identically at {point:?} x {channels}ch"
                    )
                }
                (c, h) => panic!("engines diverged at {point:?} x {channels}ch: {c:?} vs {h:?}"),
            }
        }
    }
}

/// Narrow windows serialize the master and exercise queue tie-breaking
/// hardest (completion and next-issue events collide on one timestamp).
#[test]
fn window_extremes_agree_between_queues() {
    for window in [1, 2, u32::MAX] {
        let e = quick(HdOperatingPoint::Hd1080p30, 4);
        let cal = event_driven(&e, window, QueueKind::Calendar).unwrap();
        let heap = event_driven(&e, window, QueueKind::BinaryHeap).unwrap();
        assert_eq!(cal.access_time, heap.access_time, "window {window}");
        assert_eq!(cal.events, heap.events, "window {window}");
    }
}

/// Runs `e` unobserved and again with a `StatsRecorder` attached, which
/// forces the controller and device onto the unbatched per-command path,
/// and asserts that the two agree on everything a run reports: the frame,
/// byte for byte and picosecond for picosecond; the energy, bit for bit;
/// and each channel's controller and device statistics and latency
/// record. Infeasible configurations must fail identically.
fn assert_observed_equals_unobserved(e: &Experiment, cell: &str) {
    let fast = e.run_with(&RunOptions::default());
    let slow = e.run_with(
        &RunOptions::default().with_recorder(std::sync::Arc::new(mcm_obs::StatsRecorder::new())),
    );
    match (fast, slow) {
        (Ok(f), Ok(s)) => {
            let f = f.into_frame().unwrap();
            let s = s.into_frame().unwrap();
            assert_eq!(f.access_time, s.access_time, "{cell}");
            assert_eq!(f.verdict, s.verdict, "{cell}");
            assert_eq!(f.simulated_bytes, s.simulated_bytes, "{cell}");
            assert_eq!(
                f.report.core_energy_pj.to_bits(),
                s.report.core_energy_pj.to_bits(),
                "{cell}"
            );
            assert_eq!(
                f.power.core_mw.to_bits(),
                s.power.core_mw.to_bits(),
                "{cell}"
            );
            assert_eq!(f.report.channels.len(), s.report.channels.len(), "{cell}");
            for (ch, (cf, cs)) in f.report.channels.iter().zip(&s.report.channels).enumerate() {
                let cell = format!("{cell}, channel {ch}");
                assert_eq!(cf.ctrl, cs.ctrl, "{cell}");
                assert_eq!(cf.device, cs.device, "{cell}");
                assert_eq!(cf.busy_until, cs.busy_until, "{cell}");
                assert_eq!(cf.latency_mean, cs.latency_mean, "{cell}");
                assert_eq!(cf.latency_max, cs.latency_max, "{cell}");
                assert_eq!(cf.latency_p99, cs.latency_p99, "{cell}");
                for (what, a, b) in [
                    ("total", cf.total_energy_pj, cs.total_energy_pj),
                    (
                        "background",
                        cf.background_energy_pj,
                        cs.background_energy_pj,
                    ),
                    ("event", cf.event_energy_pj, cs.event_energy_pj),
                ] {
                    assert_eq!(a.to_bits(), b.to_bits(), "{cell}: {what} energy");
                }
            }
        }
        (Err(f), Err(s)) => assert_eq!(f.to_string(), s.to_string(), "{cell}"),
        (f, s) => panic!("paths diverged at {cell}: {f:?} vs {s:?}"),
    }
}

/// The batched fast path against per-command issue over the paper's
/// whole operating grid: observing a run never changes its result. Table
/// I frames almost never switch rows; four tenants sharing the channels
/// open most page runs with a precharge and an activate.
#[test]
fn batched_admission_matches_per_command_issue() {
    for channels in CHANNELS {
        for clock_mhz in CLOCKS_MHZ {
            for point in LEVELS {
                let mut e = Experiment::paper(point, channels, clock_mhz);
                e.op_limit = Some(3_000);
                assert_observed_equals_unobserved(
                    &e,
                    &format!("{point:?} x {channels}ch @ {clock_mhz} MHz"),
                );
            }
            let mut e = Experiment::paper(HdOperatingPoint::Hd1080p30, channels, clock_mhz);
            e.workload = Workload::MultiTenant(4);
            e.op_limit = Some(3_000);
            assert_observed_equals_unobserved(
                &e,
                &format!("multi-tenant:4 x {channels}ch @ {clock_mhz} MHz"),
            );
        }
    }
}

/// A 2 000-operation 1080p30 frame at `clock_mhz` × `channels`: the bits of
/// its core energy and core power, and each channel's device command
/// counts as `[activates, reads, writes, precharges, refreshes,
/// power-downs, self-refreshes]`.
fn frame_fingerprint(clock_mhz: u64, channels: u32) -> (u64, u64, Vec<[u64; 7]>) {
    let mut e = Experiment::paper(HdOperatingPoint::Hd1080p30, channels, clock_mhz);
    e.op_limit = Some(2_000);
    let f = e
        .run_with(&RunOptions::default())
        .unwrap()
        .into_frame()
        .unwrap();
    let stats = f
        .report
        .channels
        .iter()
        .map(|c| {
            let d = c.device;
            [
                d.activates,
                d.reads,
                d.writes,
                d.precharges,
                d.refreshes,
                d.power_downs,
                d.self_refreshes,
            ]
        })
        .collect();
    (
        f.report.core_energy_pj.to_bits(),
        f.power.core_mw.to_bits(),
        stats,
    )
}

/// A 3-frame steady session of 2 000-operation 1080p30 frames on 4
/// channels at 266 MHz: the bits of its core power, its bytes and each
/// frame's access time in picoseconds. A session result carries no
/// per-channel device counts.
fn session_fingerprint() -> (u64, u64, Vec<u64>) {
    let mut e = Experiment::paper(HdOperatingPoint::Hd1080p30, 4, 266);
    e.op_limit = Some(2_000);
    let s = e
        .run_with(&RunOptions::steady(3))
        .unwrap()
        .into_steady()
        .unwrap();
    (
        s.power.core_mw.to_bits(),
        s.bytes,
        s.frames.iter().map(|f| f.access_time.as_ps()).collect(),
    )
}

/// `(clock MHz, channels, core_energy_pj bits, core_mw bits, per-channel
/// counts)` of [`frame_fingerprint`], one entry per paper clock × 1 and 8
/// channels.
type FramePin = (u64, u32, u64, u64, &'static [[u64; 7]]);

/// Recorded by running [`frame_fingerprint`] and [`session_fingerprint`]
/// on the commit before the idle tail's power-down/refresh periods were
/// batched and `ClockDomain` gained its u64 path for clocks whose period is
/// not a whole picosecond. The 266, 333 and 533 MHz rows cover that path;
/// perfbench's pins cover only 400 MHz frames and the sweep export hash.
const FRAME_PINS: [FramePin; 10] = [
    (
        200,
        1,
        0x4191020e67cccd5f,
        0x40a19f9a5baff854,
        &[[65, 0, 8000, 65, 4265, 4256, 0]],
    ),
    (
        200,
        8,
        0x41c1020e67cccd5f,
        0x40a19f9a5baff854,
        &[[65, 0, 8000, 65, 4265, 4256, 0]; 8],
    ),
    (
        266,
        1,
        0x419181337ac713a6,
        0x40a2235932fb2056,
        &[[63, 0, 8000, 63, 4264, 4257, 0]],
    ),
    (
        266,
        8,
        0x41c181337ac713a7,
        0x40a2235932fb2057,
        &[[63, 0, 8000, 63, 4264, 4257, 0]; 8],
    ),
    (
        333,
        1,
        0x4191f26726a8481f,
        0x40a298a58392aad5,
        &[[63, 0, 8000, 63, 4265, 4260, 0]],
    ),
    (
        333,
        8,
        0x41c1f26726a8481f,
        0x40a298a58392aad5,
        &[[63, 0, 8000, 63, 4265, 4260, 0]; 8],
    ),
    (
        400,
        1,
        0x41926349c2e665ac,
        0x40a30d9dba3a0be4,
        &[[63, 0, 8000, 63, 4266, 4262, 0]],
    ),
    (
        400,
        8,
        0x41c26349c2e665ac,
        0x40a30d9dba3a0be4,
        &[[63, 0, 8000, 63, 4266, 4262, 0]; 8],
    ),
    (
        533,
        1,
        0x419351e49d48c64f,
        0x40a404dad6308f93,
        &[[63, 0, 8000, 63, 4265, 4262, 0]],
    ),
    (
        533,
        8,
        0x41c351e49d48c64f,
        0x40a404dad6308f93,
        &[[63, 0, 8000, 63, 4265, 4262, 0]; 8],
    ),
];

/// The same recording for [`session_fingerprint`]: core power bits, bytes
/// and per-frame access times.
const SESSION_PIN: (u64, u64, [u64; 3]) = (
    0x40219f5cb738b893,
    1_536_000,
    [61_763_158, 61_770_677, 61_770_677],
);

/// Op-limited frames spend most of their horizon in the power-down/refresh
/// idle tail; their energy, power and command counts must not move by a
/// single bit at any paper clock.
#[test]
fn idle_tail_results_match_the_recorded_bits() {
    for (clock, channels, energy, mw, stats) in FRAME_PINS {
        let (e, p, s) = frame_fingerprint(clock, channels);
        assert_eq!(
            (e, p),
            (energy, mw),
            "{clock} MHz x{channels}: core energy/power bits {e:#018x}/{p:#018x}"
        );
        assert_eq!(s, stats, "{clock} MHz x{channels}: device command counts");
    }
    let (mw, bytes, frames) = session_fingerprint();
    assert_eq!(
        (mw, bytes, frames.as_slice()),
        (SESSION_PIN.0, SESSION_PIN.1, SESSION_PIN.2.as_slice()),
        "steady session: core power bits {mw:#018x}"
    );
}

proptest! {
    /// Random valid configurations never diverge between the two queue
    /// implementations (and infeasible draws fail identically).
    #[test]
    fn random_configs_never_diverge(
        level in 0usize..5,
        channels_log2 in 0u32..4,
        clock_idx in 0usize..4,
        granule_log2 in 4u64..8,
        closed_page in any::<bool>(),
        paced in any::<bool>(),
        chunk_per_channel in any::<bool>(),
        window in 1u32..12,
        op_limit in 200u64..1_500,
    ) {
        let clocks = [200u64, 266, 333, 400];
        let mut builder = Experiment::builder()
            .point(LEVELS[level])
            .channels(1 << channels_log2)
            .clock_mhz(clocks[clock_idx])
            .granule_bytes(1 << granule_log2)
            .chunk(if chunk_per_channel {
                ChunkPolicy::PerChannel(64)
            } else {
                ChunkPolicy::Fixed(128)
            })
            .op_limit(op_limit);
        if closed_page {
            builder = builder.page_policy(PagePolicy::Closed);
        }
        if paced {
            builder = builder.pacing(Pacing::Paced);
        }
        let e = match builder.build() {
            Ok(e) => e,
            // Infeasible draws (layout overflow) are build-time errors and
            // carry no engine to compare.
            Err(_) => return Ok(()),
        };
        let cal = event_driven(&e, window, QueueKind::Calendar);
        let heap = event_driven(&e, window, QueueKind::BinaryHeap);
        prop_assert_eq!(cal.is_ok(), heap.is_ok());
        if let (Ok(c), Ok(h)) = (cal, heap) {
            prop_assert_eq!(c.access_time, h.access_time);
            prop_assert_eq!(c.transactions, h.transactions);
            prop_assert_eq!(c.events, h.events);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// [`batched_admission_matches_per_command_issue`] beyond the paper's
    /// defaults: random mappings, page and power-down policies, chunk
    /// sizes (some crossing pages), pacing, write buffering, workloads and
    /// clocks.
    #[test]
    fn random_configs_observed_equal_unobserved(
        level in 0usize..5,
        channels_log2 in 0u32..4,
        clock_idx in 0usize..5,
        brc in any::<bool>(),
        closed_page in any::<bool>(),
        power_down in 0usize..3,
        fixed_chunk in prop_oneof![Just(0u32), 64u32..=4_096],
        paced in any::<bool>(),
        write_batch in prop_oneof![Just(0u32), 8u32..=32],
        workload in 0usize..5,
        op_limit in 200u64..1_500,
    ) {
        let workloads = [
            Workload::TableI,
            Workload::MultiTenant(2),
            Workload::MultiTenant(3),
            Workload::MultiTenant(4),
            Workload::Stochastic(StochasticParams::default()),
        ];
        let power_downs = [
            PowerDownPolicy::Never,
            PowerDownPolicy::immediate(),
            PowerDownPolicy::PowerDownThenSelfRefresh {
                pd_after: 1,
                sr_after: 2_000,
            },
        ];
        let builder = Experiment::builder()
            .point(LEVELS[level])
            .channels(1 << channels_log2)
            .clock_mhz(CLOCKS_MHZ[clock_idx])
            .mapping(if brc { AddressMapping::Brc } else { AddressMapping::Rbc })
            .page_policy(if closed_page { PagePolicy::Closed } else { PagePolicy::Open })
            .power_down(power_downs[power_down])
            .chunk(if fixed_chunk == 0 {
                ChunkPolicy::PerChannel(64)
            } else {
                ChunkPolicy::Fixed(fixed_chunk)
            })
            .pacing(if paced { Pacing::Paced } else { Pacing::Greedy })
            .workload(workloads[workload])
            .op_limit(op_limit);
        let mut e = match builder.build() {
            Ok(e) => e,
            // Infeasible draws (layout overflow) are build-time errors.
            Err(_) => return Ok(()),
        };
        if write_batch > 0 {
            e.memory.controller.write_policy = WritePolicy::Batched(write_batch);
        }
        assert_observed_equals_unobserved(&e, &format!("{e:?}"));
    }
}
