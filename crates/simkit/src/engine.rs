//! A minimal discrete-event simulation driver.
//!
//! [`Simulation`] pairs an [`EventQueue`] with user state implementing
//! [`Actor`]. The driver pops events in timestamp order, advances the clock,
//! and lets the actor schedule follow-up events. The DiffServe end-to-end
//! simulator in `diffserve-core` is built on this loop.

use crate::event::EventQueue;
use crate::time::SimTime;

/// State machine advanced by simulation events.
pub trait Actor<E> {
    /// Handles one event at simulated time `now`, scheduling any follow-up
    /// events on `queue`.
    fn handle(&mut self, now: SimTime, event: E, queue: &mut EventQueue<E>);
}

/// Outcome of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely.
    Drained,
    /// The horizon was reached with events still pending.
    HorizonReached,
    /// The event budget was exhausted (likely a runaway schedule loop).
    EventBudgetExhausted,
}

/// Discrete-event simulation driver.
///
/// # Examples
///
/// ```
/// use diffserve_simkit::engine::{Actor, Simulation};
/// use diffserve_simkit::event::EventQueue;
/// use diffserve_simkit::time::{SimDuration, SimTime};
///
/// struct Counter {
///     ticks: u32,
/// }
///
/// impl Actor<()> for Counter {
///     fn handle(&mut self, now: SimTime, _event: (), queue: &mut EventQueue<()>) {
///         self.ticks += 1;
///         if self.ticks < 5 {
///             queue.push(now + SimDuration::from_secs(1), ());
///         }
///     }
/// }
///
/// let mut sim = Simulation::new(Counter { ticks: 0 });
/// sim.schedule(SimTime::ZERO, ());
/// sim.run_until(SimTime::from_secs(100));
/// assert_eq!(sim.actor().ticks, 5);
/// ```
#[derive(Debug)]
pub struct Simulation<E, A> {
    queue: EventQueue<E>,
    actor: A,
    now: SimTime,
    processed: u64,
}

impl<E, A: Actor<E>> Simulation<E, A> {
    /// Creates a simulation around `actor` with an empty event queue.
    pub fn new(actor: A) -> Self {
        Simulation {
            queue: EventQueue::new(),
            actor,
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// Creates a simulation around `actor`, preallocating queue space for
    /// `capacity` concurrently pending events. Fleet-scale replays size
    /// this at their steady-state in-flight event count so the event
    /// queue never reallocates mid-run.
    pub fn with_capacity(actor: A, capacity: usize) -> Self {
        Simulation {
            queue: EventQueue::with_capacity(capacity),
            actor,
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// Schedules an initial event.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        self.queue.push(time, event);
    }

    /// Reserves a place in the same-instant FIFO order for a stream of
    /// events fed one at a time; see [`EventQueue::reserve_seq`].
    pub fn reserve_seq(&mut self) -> u64 {
        self.queue.reserve_seq()
    }

    /// Schedules an event under a reserved sequence number; see
    /// [`EventQueue::push_at`].
    pub fn schedule_at(&mut self, time: SimTime, seq: u64, event: E) {
        self.queue.push_at(time, seq, event);
    }

    /// Shared access to the event queue (its length and high-water mark).
    pub fn queue(&self) -> &EventQueue<E> {
        &self.queue
    }

    /// Current simulated time (timestamp of the last processed event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Shared access to the actor state.
    pub fn actor(&self) -> &A {
        &self.actor
    }

    /// Exclusive access to the actor state.
    pub fn actor_mut(&mut self) -> &mut A {
        &mut self.actor
    }

    /// Consumes the simulation, returning the actor state.
    pub fn into_actor(self) -> A {
        self.actor
    }

    /// Runs until the queue drains or the next event lies beyond `horizon`.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        self.run_until_with_budget(horizon, u64::MAX)
    }

    /// Runs until the queue drains, the horizon is passed, or `budget`
    /// additional events have been processed.
    pub fn run_until_with_budget(&mut self, horizon: SimTime, budget: u64) -> RunOutcome {
        let mut remaining = budget;
        loop {
            match self.queue.peek_time() {
                None => return RunOutcome::Drained,
                Some(t) if t > horizon => return RunOutcome::HorizonReached,
                Some(_) => {}
            }
            if remaining == 0 {
                return RunOutcome::EventBudgetExhausted;
            }
            remaining -= 1;
            let (t, event) = self.queue.pop().expect("peeked event must pop");
            debug_assert!(t >= self.now, "time went backwards: {t} < {}", self.now);
            self.now = t;
            self.processed += 1;
            self.actor.handle(t, event, &mut self.queue);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Ev {
        Ping,
        Pong,
    }

    struct PingPong {
        pings: u32,
        pongs: u32,
        limit: u32,
    }

    impl Actor<Ev> for PingPong {
        fn handle(&mut self, now: SimTime, event: Ev, queue: &mut EventQueue<Ev>) {
            match event {
                Ev::Ping => {
                    self.pings += 1;
                    queue.push(now + SimDuration::from_millis(1), Ev::Pong);
                }
                Ev::Pong => {
                    self.pongs += 1;
                    if self.pongs < self.limit {
                        queue.push(now + SimDuration::from_millis(1), Ev::Ping);
                    }
                }
            }
        }
    }

    #[test]
    fn ping_pong_alternates_until_limit() {
        let mut sim = Simulation::new(PingPong {
            pings: 0,
            pongs: 0,
            limit: 10,
        });
        sim.schedule(SimTime::ZERO, Ev::Ping);
        let outcome = sim.run_until(SimTime::from_secs(60));
        assert_eq!(outcome, RunOutcome::Drained);
        assert_eq!(sim.actor().pings, 10);
        assert_eq!(sim.actor().pongs, 10);
        assert_eq!(sim.processed(), 20);
        assert_eq!(sim.now(), SimTime::from_millis(19));
    }

    #[test]
    fn horizon_stops_early() {
        let mut sim = Simulation::new(PingPong {
            pings: 0,
            pongs: 0,
            limit: u32::MAX,
        });
        sim.schedule(SimTime::ZERO, Ev::Ping);
        let outcome = sim.run_until(SimTime::from_millis(4));
        assert_eq!(outcome, RunOutcome::HorizonReached);
        // Events at t = 0,1,2,3,4 ms processed.
        assert_eq!(sim.processed(), 5);
    }

    #[test]
    fn event_budget_guards_runaway_loops() {
        struct Forever;
        impl Actor<()> for Forever {
            fn handle(&mut self, now: SimTime, _e: (), queue: &mut EventQueue<()>) {
                queue.push(now, ());
            }
        }
        let mut sim = Simulation::new(Forever);
        sim.schedule(SimTime::ZERO, ());
        let outcome = sim.run_until_with_budget(SimTime::MAX, 1000);
        assert_eq!(outcome, RunOutcome::EventBudgetExhausted);
        assert_eq!(sim.processed(), 1000);
    }

    #[test]
    fn into_actor_returns_state() {
        let sim = Simulation::new(PingPong {
            pings: 3,
            pongs: 0,
            limit: 0,
        });
        assert_eq!(sim.into_actor().pings, 3);
    }
}
