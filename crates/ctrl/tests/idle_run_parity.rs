//! The idle tail's batched power-down/refresh runs against per-command
//! issue.
//!
//! Under a plain power-down policy with refresh on, the controller hands
//! whole power-down/refresh periods to `BankCluster::idle_refresh_run`.
//! Attaching a recorder — here a `NullRecorder`, which keeps nothing —
//! keeps a controller on the per-command loop. Two controllers fed the same
//! requests must then agree on every command and its cycle, every counter,
//! `busy_until` and every energy, bit for bit.

use std::sync::Arc;

use mcm_ctrl::{AccessOp, ChannelRequest, Controller, ControllerConfig, PowerDownPolicy};
use mcm_dram::TraceValidator;
use mcm_obs::{ChannelObs, NullRecorder};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct ReqSpec {
    write: bool,
    addr: u64,
    len: u32,
    /// Idle gap before the request, in thousandths of tREFI.
    gap_milli_refi: u64,
}

fn arb_request() -> impl Strategy<Value = ReqSpec> {
    (any::<bool>(), 0u64..1 << 22, 1u32..=512, 0u64..=40_000).prop_map(
        |(write, addr, len, gap_milli_refi)| ReqSpec {
            write,
            addr,
            len,
            gap_milli_refi,
        },
    )
}

/// The five paper clocks, or any clock from 100 to 800 MHz.
fn arb_clock() -> impl Strategy<Value = u64> {
    prop_oneof![
        prop_oneof![Just(200u64), Just(266), Just(333), Just(400), Just(533)],
        100u64..=800,
    ]
}

fn assert_same_bits(a: f64, b: f64, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        a.to_bits(),
        b.to_bits(),
        "{}: batched {} vs per-command {}",
        what,
        a,
        b
    );
    Ok(())
}

/// A horizon past the last request, in thousandths of tREFI: up to 40
/// tREFI, or up to 6 000 tREFI, longer than a 33 ms frame's idle tail at
/// every paper clock (4 224 tREFI), so whole runs of repeating periods are
/// fast-forwarded.
fn arb_horizon_milli_refi() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..=40_000, 0u64..=6_000_000]
}

/// Feeds `reqs` to a controller that batches its idle runs and to one kept
/// on the per-command loop by a recorder, finishes both `horizon` past the
/// last request and compares counters, `busy_until` and the three energies
/// bit for bit; with `traced`, both keep a device command trace, which
/// must be equal and legal.
fn check_parity(
    clock: u64,
    pd_after: u64,
    pressure: u64,
    reqs: &[ReqSpec],
    horizon_milli_refi: u64,
    traced: bool,
) -> Result<(), TestCaseError> {
    let mut cfg = ControllerConfig::paper_default(clock);
    cfg.cluster.timing.min_clock_mhz = 100;
    cfg.cluster.timing.max_clock_mhz = 800;
    cfg.power_down = PowerDownPolicy::AfterIdleCycles(pd_after);
    let build = || {
        let mut c = Controller::new(&cfg).unwrap();
        c.set_refresh_pressure(pressure);
        if traced {
            c.enable_trace();
        }
        c
    };
    let mut batched = build();
    let mut per_command = build();
    per_command.set_obs(ChannelObs::new(Arc::new(NullRecorder), 0));

    let t_refi = batched.refresh_interval();
    let mut arrival = 0u64;
    for r in reqs {
        arrival += r.gap_milli_refi * t_refi / 1_000;
        let req = ChannelRequest {
            op: if r.write {
                AccessOp::Write
            } else {
                AccessOp::Read
            },
            addr: r.addr,
            len: r.len,
            arrival,
        };
        prop_assert_eq!(
            batched.access(req).unwrap(),
            per_command.access(req).unwrap()
        );
    }
    let end = arrival + horizon_milli_refi * t_refi / 1_000;
    let b = batched.finish(end).unwrap();
    let p = per_command.finish(end).unwrap();

    prop_assert_eq!(b.device, p.device);
    prop_assert_eq!(b.ctrl, p.ctrl);
    prop_assert_eq!(b.busy_until, p.busy_until);
    assert_same_bits(b.total_energy_pj, p.total_energy_pj, "total energy")?;
    assert_same_bits(
        b.background_energy_pj,
        p.background_energy_pj,
        "background energy",
    )?;
    assert_same_bits(b.event_energy_pj, p.event_energy_pj, "event energy")?;
    if traced {
        let trace = batched.device().trace().unwrap();
        prop_assert_eq!(trace, per_command.device().trace().unwrap());
        let validator =
            TraceValidator::new(*batched.device().timing(), *batched.device().geometry());
        let violations = validator.check(trace);
        prop_assert!(
            violations.is_empty(),
            "batched trace has illegal commands: {:?}",
            &violations[..violations.len().min(3)]
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn batched_idle_runs_match_per_command_issue(
        clock in arb_clock(),
        pd_after in 1u64..=64,
        pressure in 1u64..=4,
        reqs in prop::collection::vec(arb_request(), 1..6),
        horizon_milli_refi in arb_horizon_milli_refi(),
    ) {
        check_parity(clock, pd_after, pressure, &reqs, horizon_milli_refi, true)?;
    }

    /// The same with neither device keeping a trace: the untraced branch
    /// of the batched runs.
    #[test]
    fn untraced_batched_idle_runs_match_per_command_issue(
        clock in arb_clock(),
        pd_after in 1u64..=64,
        pressure in 1u64..=4,
        reqs in prop::collection::vec(arb_request(), 1..6),
        horizon_milli_refi in arb_horizon_milli_refi(),
    ) {
        check_parity(clock, pd_after, pressure, &reqs, horizon_milli_refi, false)?;
    }
}
