//! The discrete-event simulation engine.
//!
//! This is the reproduction's substitute for the commercial SystemC ESL
//! environment the paper used: components exchange timestamped messages
//! through a deterministic event queue; models are untimed at the transaction
//! level and annotate their own timing, exactly as the paper describes its
//! TLMs ("untimed transaction level models associated with separate timing
//! and power information").
//!
//! The engine is generic over the application's message type `M`, so each
//! simulation defines one message enum and any number of [`Component`]
//! implementations.

use core::fmt;
use std::sync::Arc;

use mcm_obs::Recorder;

use crate::queue::{EventQueue, QueuedEvent};
use crate::time::SimTime;
use crate::QueueKind;

/// Identifies a component registered with a [`Simulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(pub(crate) usize);

impl ComponentId {
    /// The raw index of this component in registration order.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "component#{}", self.0)
    }
}

/// A simulation model: reacts to delivered messages and schedules new ones.
///
/// Components never hold references to each other; all interaction flows
/// through timestamped messages, which keeps the simulation deterministic
/// and the borrow checker satisfied.
pub trait Component<M> {
    /// Handles a message delivered at `ctx.now()`.
    fn handle(&mut self, msg: M, ctx: &mut Ctx<'_, M>);

    /// Short human-readable name used in traces and error messages.
    fn name(&self) -> &str {
        "component"
    }
}

/// Scheduling context handed to a component while it handles a message.
///
/// Messages scheduled through the context are committed to the event queue
/// when the handler returns.
pub struct Ctx<'a, M> {
    // (not Debug: holds a live outbox borrow; summarized manually below)
    now: SimTime,
    self_id: ComponentId,
    outbox: &'a mut Vec<(SimTime, ComponentId, M)>,
    stop: &'a mut bool,
}

impl<'a, M> fmt::Debug for Ctx<'a, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ctx")
            .field("now", &self.now)
            .field("self_id", &self.self_id)
            .field("pending_sends", &self.outbox.len())
            .finish()
    }
}

impl<'a, M> Ctx<'a, M> {
    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the component currently executing.
    #[inline]
    pub fn self_id(&self) -> ComponentId {
        self.self_id
    }

    /// Schedules `msg` for delivery to `to` after `delay`.
    pub fn send_after(&mut self, delay: SimTime, to: ComponentId, msg: M) {
        self.outbox.push((self.now + delay, to, msg));
    }

    /// Schedules `msg` for delivery to `to` at the current time (after all
    /// other events already queued for this time).
    pub fn send_now(&mut self, to: ComponentId, msg: M) {
        self.outbox.push((self.now, to, msg));
    }

    /// Schedules a message to this component itself after `delay`.
    pub fn wake_after(&mut self, delay: SimTime, msg: M) {
        let id = self.self_id;
        self.send_after(delay, id, msg);
    }

    /// Requests that the simulation stop once the current handler returns.
    pub fn request_stop(&mut self) {
        *self.stop = true;
    }
}

/// Errors reported by [`Simulation::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A message was addressed to a component id that was never registered.
    UnknownComponent {
        /// The offending destination.
        id: ComponentId,
        /// Number of registered components.
        registered: usize,
    },
    /// The configured event budget was exhausted (runaway-simulation guard).
    EventBudgetExhausted {
        /// The budget that was exceeded.
        budget: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownComponent { id, registered } => write!(
                f,
                "message addressed to {id}, but only {registered} components are registered"
            ),
            SimError::EventBudgetExhausted { budget } => {
                write!(f, "event budget of {budget} events exhausted")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// A deterministic discrete-event simulation over message type `M`.
///
/// # Examples
///
/// A two-component ping/pong that stops after three exchanges:
///
/// ```
/// use mcm_sim::{Component, Ctx, Simulation, SimTime};
///
/// struct Ping { peer: Option<mcm_sim::ComponentId>, count: u32 }
///
/// impl Component<u32> for Ping {
///     fn handle(&mut self, msg: u32, ctx: &mut Ctx<'_, u32>) {
///         self.count += 1;
///         if self.count >= 3 {
///             ctx.request_stop();
///         } else if let Some(peer) = self.peer {
///             ctx.send_after(SimTime::from_ns(10), peer, msg + 1);
///         }
///     }
/// }
///
/// let mut sim = Simulation::new();
/// let a = sim.add_component(Ping { peer: None, count: 0 });
/// let b = sim.add_component(Ping { peer: Some(a), count: 0 });
/// sim.component_mut::<Ping>(a).unwrap().peer = Some(b);
/// sim.schedule(SimTime::ZERO, a, 0);
/// sim.run().unwrap();
/// assert!(sim.now() >= SimTime::ZERO);
/// ```
pub struct Simulation<M> {
    now: SimTime,
    queue: EventQueue<M>,
    components: Vec<Box<dyn ComponentObj<M>>>,
    next_seq: u64,
    events_fired: u64,
    event_budget: Option<u64>,
    outbox: Vec<(SimTime, ComponentId, M)>,
    recorder: Option<Arc<dyn Recorder>>,
}

impl<M> fmt::Debug for Simulation<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("components", &self.components.len())
            .field("pending_events", &self.queue.len())
            .field("events_fired", &self.events_fired)
            .finish()
    }
}

impl<M> Default for Simulation<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> Simulation<M> {
    /// Creates an empty simulation at time zero with no event budget, using
    /// the default [`QueueKind::Calendar`] event queue.
    pub fn new() -> Self {
        Self::with_queue(QueueKind::default())
    }

    /// Creates an empty simulation backed by the given event-queue
    /// implementation. Both kinds deliver events in identical order; see
    /// [`QueueKind`].
    pub fn with_queue(kind: QueueKind) -> Self {
        Simulation {
            now: SimTime::ZERO,
            queue: EventQueue::new(kind),
            components: Vec::new(),
            next_seq: 0,
            events_fired: 0,
            event_budget: None,
            outbox: Vec::new(),
            recorder: None,
        }
    }

    /// The event-queue implementation this simulation runs on.
    pub fn queue_kind(&self) -> QueueKind {
        self.queue.kind()
    }

    /// Attaches a recorder; every fired event reports the remaining queue
    /// depth through [`Recorder::record_sim_event`]. Without one, the
    /// kernel's hot path pays a single branch.
    pub fn set_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        self.recorder = Some(recorder);
    }

    /// Limits the total number of events the simulation may fire; exceeding
    /// it makes [`Simulation::run`] return [`SimError::EventBudgetExhausted`].
    /// Useful as a runaway guard in tests.
    pub fn set_event_budget(&mut self, budget: u64) {
        self.event_budget = Some(budget);
    }

    /// Registers a component and returns its id.
    pub fn add_component<C: Component<M> + 'static>(&mut self, c: C) -> ComponentId {
        let id = ComponentId(self.components.len());
        self.components.push(Box::new(c));
        id
    }

    /// Mutable access to a registered component, downcast to its concrete
    /// type. Returns `None` if the id is unknown or the type does not match.
    ///
    /// Intended for wiring before the run and for extracting results after
    /// it; during the run components interact through messages only.
    pub fn component_mut<C: Component<M> + 'static>(&mut self, id: ComponentId) -> Option<&mut C> {
        self.components
            .get_mut(id.0)
            .and_then(|b| b.as_any_mut().downcast_mut::<C>())
    }

    /// Current simulation time (the timestamp of the last fired event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events fired so far.
    #[inline]
    pub fn events_fired(&self) -> u64 {
        self.events_fired
    }

    /// Number of events currently pending.
    #[inline]
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Schedules an initial message from outside any component.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current simulation time.
    pub fn schedule(&mut self, at: SimTime, to: ComponentId, msg: M) {
        assert!(
            at >= self.now,
            "event scheduled in the past: now={}, at={}",
            self.now,
            at
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(QueuedEvent { at, seq, to, msg });
    }

    /// Fires a single event. Returns `Ok(false)` when the queue is empty.
    pub fn step(&mut self) -> Result<bool, SimError> {
        let Some(ev) = self.queue.pop() else {
            return Ok(false);
        };
        self.fire(ev)?;
        Ok(true)
    }

    /// Delivers one already-dequeued event.
    fn fire(&mut self, ev: QueuedEvent<M>) -> Result<(), SimError> {
        debug_assert!(ev.at >= self.now, "event queue went backwards");
        self.now = ev.at;
        self.events_fired += 1;
        if let Some(recorder) = &self.recorder {
            recorder.record_sim_event(self.queue.len() as u64, ev.at.as_ps());
        }
        if let Some(budget) = self.event_budget {
            if self.events_fired > budget {
                return Err(SimError::EventBudgetExhausted { budget });
            }
        }
        let n = self.components.len();
        let Some(component) = self.components.get_mut(ev.to.0) else {
            return Err(SimError::UnknownComponent {
                id: ev.to,
                registered: n,
            });
        };
        let mut stop = false;
        let mut ctx = Ctx {
            now: self.now,
            self_id: ev.to,
            outbox: &mut self.outbox,
            stop: &mut stop,
        };
        component.handle(ev.msg, &mut ctx);
        for (at, to, msg) in self.outbox.drain(..) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.queue.push(QueuedEvent { at, seq, to, msg });
        }
        if stop {
            self.queue.clear();
        }
        Ok(())
    }

    /// Runs until the event queue drains, a component requests a stop, or an
    /// error occurs. Returns the final simulation time.
    pub fn run(&mut self) -> Result<SimTime, SimError> {
        while self.step()? {}
        Ok(self.now)
    }

    /// Runs until `deadline` (inclusive); events after it remain queued.
    pub fn run_until(&mut self, deadline: SimTime) -> Result<SimTime, SimError> {
        while let Some(ev) = self.queue.pop_at_or_before(deadline) {
            self.fire(ev)?;
        }
        Ok(self.now)
    }
}

/// Internal object-safe combination of [`Component`] and `Any` access,
/// enabling [`Simulation::component_mut`]. Implemented automatically for
/// every `'static` component.
trait ComponentObj<M>: Component<M> {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

impl<M, T: Component<M> + 'static> ComponentObj<M> for T {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Msg {
        Tick(u32),
    }

    struct Counter {
        fired_at: Vec<(SimTime, u32)>,
        reschedule: bool,
    }

    impl Component<Msg> for Counter {
        fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
            let Msg::Tick(n) = msg;
            self.fired_at.push((ctx.now(), n));
            if self.reschedule && n < 5 {
                ctx.wake_after(SimTime::from_ns(1), Msg::Tick(n + 1));
            }
        }
        fn name(&self) -> &str {
            "counter"
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Simulation::new();
        let c = sim.add_component(Counter {
            fired_at: vec![],
            reschedule: false,
        });
        sim.schedule(SimTime::from_ns(30), c, Msg::Tick(3));
        sim.schedule(SimTime::from_ns(10), c, Msg::Tick(1));
        sim.schedule(SimTime::from_ns(20), c, Msg::Tick(2));
        sim.run().unwrap();
        let counter: &mut Counter = sim.component_mut(c).unwrap();
        let order: Vec<u32> = counter.fired_at.iter().map(|&(_, n)| n).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_ns(30));
    }

    #[test]
    fn simultaneous_events_fire_in_schedule_order() {
        let mut sim = Simulation::new();
        let c = sim.add_component(Counter {
            fired_at: vec![],
            reschedule: false,
        });
        let t = SimTime::from_ns(5);
        for n in 0..10 {
            sim.schedule(t, c, Msg::Tick(n));
        }
        sim.run().unwrap();
        let counter: &mut Counter = sim.component_mut(c).unwrap();
        let order: Vec<u32> = counter.fired_at.iter().map(|&(_, n)| n).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn rescheduling_advances_time() {
        let mut sim = Simulation::new();
        let c = sim.add_component(Counter {
            fired_at: vec![],
            reschedule: true,
        });
        sim.schedule(SimTime::ZERO, c, Msg::Tick(0));
        let end = sim.run().unwrap();
        assert_eq!(end, SimTime::from_ns(5));
        assert_eq!(sim.events_fired(), 6);
    }

    #[test]
    fn unknown_component_is_an_error() {
        let mut sim: Simulation<Msg> = Simulation::new();
        let bogus = ComponentId(42);
        sim.schedule(SimTime::ZERO, bogus, Msg::Tick(0));
        let err = sim.run().unwrap_err();
        assert!(matches!(err, SimError::UnknownComponent { .. }));
        assert!(err.to_string().contains("component#42"));
    }

    #[test]
    fn event_budget_guards_runaways() {
        let mut sim = Simulation::new();
        let c = sim.add_component(Counter {
            fired_at: vec![],
            reschedule: true,
        });
        sim.set_event_budget(3);
        sim.schedule(SimTime::ZERO, c, Msg::Tick(0));
        let err = sim.run().unwrap_err();
        assert_eq!(err, SimError::EventBudgetExhausted { budget: 3 });
    }

    #[test]
    fn run_until_leaves_future_events_queued() {
        let mut sim = Simulation::new();
        let c = sim.add_component(Counter {
            fired_at: vec![],
            reschedule: false,
        });
        sim.schedule(SimTime::from_ns(10), c, Msg::Tick(1));
        sim.schedule(SimTime::from_ns(100), c, Msg::Tick(2));
        sim.run_until(SimTime::from_ns(50)).unwrap();
        assert_eq!(sim.pending_events(), 1);
        sim.run().unwrap();
        assert_eq!(sim.pending_events(), 0);
        assert_eq!(sim.now(), SimTime::from_ns(100));
    }

    #[test]
    fn recorder_sees_every_fired_event() {
        let recorder = Arc::new(mcm_obs::StatsRecorder::new());
        let mut sim = Simulation::new();
        let c = sim.add_component(Counter {
            fired_at: vec![],
            reschedule: true,
        });
        sim.set_recorder(recorder.clone());
        sim.schedule(SimTime::ZERO, c, Msg::Tick(0));
        sim.run().unwrap();
        let report = recorder.report();
        assert_eq!(report.kernel.events, sim.events_fired());
        assert_eq!(report.kernel.pending.count, sim.events_fired());
        // The self-rescheduling counter schedules its next tick only after
        // the current one fires, so the queue is empty at every fire.
        assert_eq!(report.kernel.pending.max, Some(0));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim: Simulation<Msg> = Simulation::new();
        let c = sim.add_component(Counter {
            fired_at: vec![],
            reschedule: false,
        });
        sim.schedule(SimTime::from_ns(10), c, Msg::Tick(1));
        sim.run().unwrap();
        sim.schedule(SimTime::from_ns(5), c, Msg::Tick(2));
    }
}
