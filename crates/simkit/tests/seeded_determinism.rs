//! Seeded-determinism guarantee at the simulation-substrate level: the same
//! seed must produce a bit-identical event trace (timestamps, payloads, and
//! every sampler draw along the way). This complements the workspace-level
//! `tests/determinism.rs`, which asserts the same property for the full
//! serving pipeline — if that suite ever regresses, this one tells you
//! whether the fault is below or above the simkit boundary.

use diffserve_simkit::prelude::*;

/// A stochastic actor: every event re-schedules itself after an
/// exponentially distributed delay and logs the (time, draw) pair.
struct PoissonLogger {
    rng: rand::rngs::StdRng,
    exp: Exponential,
    trace: Vec<(SimTime, u64)>,
}

impl Actor<u32> for PoissonLogger {
    fn handle(&mut self, now: SimTime, event: u32, queue: &mut EventQueue<u32>) {
        let delay = self.exp.draw(&mut self.rng);
        self.trace.push((now, u64::from(event)));
        if event < 500 {
            queue.push(now + SimDuration::from_secs_f64(delay), event + 1);
        }
    }
}

fn run_trace_with_seed(seed: u64) -> Vec<(SimTime, u64)> {
    let actor = PoissonLogger {
        rng: seeded_rng(seed),
        exp: Exponential::new(25.0).expect("valid rate"),
        trace: Vec::new(),
    };
    let mut sim = Simulation::new(actor);
    sim.schedule(SimTime::ZERO, 0);
    let outcome = sim.run_until(SimTime::from_secs(1_000_000));
    assert_eq!(outcome, RunOutcome::Drained);
    sim.into_actor().trace
}

#[test]
fn same_seed_produces_bit_identical_event_trace() {
    let a = run_trace_with_seed(2025);
    let b = run_trace_with_seed(2025);
    assert_eq!(a.len(), 501);
    // SimTime is integer microseconds, so Eq here is bit-exactness.
    assert_eq!(a, b);
}

#[test]
fn different_seeds_produce_different_traces() {
    let a = run_trace_with_seed(2025);
    let b = run_trace_with_seed(2026);
    assert_eq!(a.len(), b.len(), "trace length is structural, not random");
    assert_ne!(a, b, "timestamps must depend on the seed");
}

#[test]
fn sampler_streams_are_bit_identical_per_seed() {
    fn check<S: Sampler>(name: &str, dist: &S) {
        let mut a = seeded_rng(99);
        let mut b = seeded_rng(99);
        for i in 0..256 {
            let xa = dist.draw(&mut a);
            let xb = dist.draw(&mut b);
            assert_eq!(xa.to_bits(), xb.to_bits(), "{name} diverged at draw {i}");
        }
    }
    check("exp", &Exponential::new(3.0).unwrap());
    check("normal", &Normal::new(1.0, 2.0).unwrap());
    check("gamma", &Gamma::new(2.5, 0.7).unwrap());
    check("beta", &Beta::new(2.0, 5.0).unwrap());
}

#[test]
fn derived_streams_are_independent_but_reproducible() {
    let parent = 7;
    let traces: Vec<Vec<(SimTime, u64)>> = (0..3)
        .map(|stream| run_trace_with_seed(derive_seed(parent, stream)))
        .collect();
    assert_ne!(traces[0], traces[1]);
    assert_ne!(traces[1], traces[2]);
    assert_eq!(traces[0], run_trace_with_seed(derive_seed(parent, 0)));
}
