//! Golden-report fingerprints for the nine standard scenarios.
//!
//! The discrete-event simulator promises bit-determinism, and every change
//! to its hot paths — the arena refactor, the serving kernel, the streamed
//! report — has to show which bits of a report it moved, if any. Each run
//! is therefore pinned by two hashes:
//!
//! * the **decision** hash covers everything that follows from what the
//!   system *did*: counts, latencies, the violation / demand / threshold /
//!   deferral-error series, the incident log, the staged-serving
//!   aggregates, and the length and window keys of the FID series. A perf
//!   or refactoring PR must not move it.
//! * the **FID** hash covers the floating-point FID family (`fid`,
//!   `mean_windowed_fid`, the FID series values), which depends on the
//!   order the covariance is summed in. A PR that changes how the fit is
//!   computed re-pins it once and states the aggregate-level difference in
//!   CHANGES.md. It was re-pinned when the Fréchet distance moved from
//!   rooting the fitted Gaussian with cyclic Jacobi to rooting the
//!   reference once and taking one tridiagonal-QL eigen-solve per distance
//!   (≤ 6e-14 relative on every value, tier FIDs included), and last when
//!   that eigen-solve became a rational QL on the squared couplings, which
//!   calls no `hypot` (≤ 2.1e-15 relative on every value).
//!
//! Regenerating: `cargo test --release --test golden_reports -- --ignored
//! --nocapture` prints the current tables; paste the column that is meant
//! to move over `EXPECTED` / `EXPECTED_RESUME`.

use diffserve::prelude::*;
use diffserve_simkit::time::SimDuration;
use std::sync::OnceLock;

fn runtime() -> &'static CascadeRuntime {
    static RT: OnceLock<CascadeRuntime> = OnceLock::new();
    RT.get_or_init(|| {
        CascadeRuntime::prepare(
            cascade1(FeatureSpec::default()),
            1500,
            2024,
            DiscriminatorConfig {
                train_prompts: 500,
                epochs: 10,
                ..Default::default()
            },
        )
    })
}

fn system() -> SystemConfig {
    SystemConfig {
        num_workers: 8,
        ..Default::default()
    }
}

fn scenarios() -> Vec<Scenario> {
    let base = Trace::constant(6.0, SimDuration::from_secs(90)).unwrap();
    standard_scenarios(&base, system().num_workers)
}

/// FNV-1a over 64-bit words, floats by bit pattern.
struct Fnv(u64);

impl Fnv {
    const PRIME: u64 = 0x1000_0000_01b3;

    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: impl IntoIterator<Item = u8>) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(v.to_le_bytes());
    }

    fn float(&mut self, v: f64) {
        self.word(v.to_bits());
    }
}

/// Everything in a [`RunReport`] that follows from the decisions the system
/// took, and nothing that depends on how a covariance was summed: of the
/// FID series only its length and window keys.
fn decision_fingerprint(report: &RunReport) -> u64 {
    let mut h = Fnv::new();
    h.word(report.total_queries);
    h.word(report.completed);
    h.word(report.dropped);
    h.word(report.late);
    h.float(report.violation_ratio);
    h.float(report.mean_latency);
    h.float(report.heavy_fraction);
    h.word(report.fid_series.len() as u64);
    for &(t, _) in &report.fid_series {
        h.float(t);
    }
    for series in [
        &report.violation_series,
        &report.demand_series,
        &report.threshold_series,
        &report.deferral_error_series,
    ] {
        h.word(series.len() as u64);
        for &(t, v) in series {
            h.float(t);
            h.float(v);
        }
    }
    h.word(report.incident_log.len() as u64);
    for incident in &report.incident_log {
        h.float(incident.at.as_secs_f64());
        // Debug formatting of f64 round-trips exactly, so the encoded
        // event is a faithful stand-in for its bits.
        h.bytes(format!("{:?}", incident.event).bytes());
    }
    // The stage-level-serving aggregates (all zero in restart mode).
    h.word(report.resumed_queries);
    h.float(report.mean_reused_steps);
    h.float(report.mean_heavy_latency);
    h.float(report.gpu_time_per_query);
    h.0
}

/// The FID family of a [`RunReport`]: run FID, mean windowed FID, and the
/// FID series values.
fn fid_fingerprint(report: &RunReport) -> u64 {
    let mut h = Fnv::new();
    h.float(report.fid);
    h.float(report.mean_windowed_fid);
    for &(_, v) in &report.fid_series {
        h.float(v);
    }
    h.0
}

fn run(scenario: &Scenario) -> RunReport {
    let peak = scenario.effective_trace().max_qps();
    run_scenario(
        runtime(),
        &system(),
        &RunSettings::new(Policy::DiffServe, peak),
        scenario,
    )
}

fn run_staged(scenario: &Scenario) -> RunReport {
    let peak = scenario.effective_trace().max_qps();
    let mut sys = system();
    sys.resume_from_latents = true;
    run_scenario(
        runtime(),
        &sys,
        &RunSettings::new(Policy::DiffServe, peak),
        scenario,
    )
}

/// One scenario's pinned hashes.
struct Golden {
    name: &'static str,
    decision: u64,
    fid: u64,
}

/// Captured fingerprints, one per standard scenario, in
/// [`standard_scenarios`] order.
const EXPECTED: [Golden; 9] = [
    Golden {
        name: "steady",
        decision: 0xd446d1f609551f4e,
        fid: 0xcc0735cf303e0007,
    },
    Golden {
        name: "flash-crowd",
        decision: 0x1e061af614c1e045,
        fid: 0x54eca7fd77fb8670,
    },
    Golden {
        name: "worker-failure",
        decision: 0x42f1fbc122da671d,
        fid: 0x6d9b9a362a18e331,
    },
    Golden {
        name: "double-failure",
        decision: 0x150e576693b69b2b,
        fid: 0x2d98eea88041a240,
    },
    Golden {
        name: "cascading-failure",
        decision: 0xc80e927193d43d18,
        fid: 0x44d9b93d279cfc0e,
    },
    Golden {
        name: "demand-shock",
        decision: 0x56b54f7abc344ea4,
        fid: 0xfda7f3054a801c37,
    },
    Golden {
        name: "hard-prompts",
        decision: 0x896b7f5c05d1748c,
        fid: 0xf411a79dd020635d,
    },
    Golden {
        name: "brownout",
        decision: 0x24d257207950ed12,
        fid: 0x0eea5b511db43510,
    },
    Golden {
        name: "load-correlated-cascade",
        decision: 0x08d665af257d3a66,
        fid: 0xec5d47c263930439,
    },
];

/// Captured fingerprints for the same nine scenarios with stage-level
/// serving enabled (`resume_from_latents = true`).
const EXPECTED_RESUME: [Golden; 9] = [
    Golden {
        name: "steady",
        decision: 0xaa7a8d08cbdc98a9,
        fid: 0x31825483b2fbf060,
    },
    Golden {
        name: "flash-crowd",
        decision: 0x0389048e58273415,
        fid: 0x25eab9d36a2ef11c,
    },
    Golden {
        name: "worker-failure",
        decision: 0xe5669b34752cea68,
        fid: 0xa34caf9e552a1bc6,
    },
    Golden {
        name: "double-failure",
        decision: 0x55b3f2e6bb923c49,
        fid: 0x8fddfc8f83a9447e,
    },
    Golden {
        name: "cascading-failure",
        decision: 0x55818502a0572994,
        fid: 0x9db9ddfa86452191,
    },
    Golden {
        name: "demand-shock",
        decision: 0xc3a80caf73689fcb,
        fid: 0xe612f029e2c5dfe1,
    },
    Golden {
        name: "hard-prompts",
        decision: 0x851acdb1757b826b,
        fid: 0x71e8e1db1fd6ad7a,
    },
    Golden {
        name: "brownout",
        decision: 0x1099f0ce27c3db30,
        fid: 0xdda36fa1dbc0e888,
    },
    Golden {
        name: "load-correlated-cascade",
        decision: 0xcf946311c8f06294,
        fid: 0xa701c02261ec567e,
    },
];

fn assert_matches_goldens(expected: &[Golden], run: fn(&Scenario) -> RunReport) {
    for (scenario, golden) in scenarios().iter().zip(expected) {
        let name = golden.name;
        assert_eq!(scenario.name(), name, "scenario order drifted");
        let report = run(scenario);
        let decision = decision_fingerprint(&report);
        assert_eq!(
            decision, golden.decision,
            "{name}: decision fingerprint {decision:#018x} != golden {:#018x} — the \
             simulator served, routed or scheduled differently; if intentional, regenerate \
             with `cargo test --release --test golden_reports -- --ignored --nocapture`",
            golden.decision
        );
        let fid = fid_fingerprint(&report);
        assert_eq!(
            fid, golden.fid,
            "{name}: FID fingerprint {fid:#018x} != golden {:#018x} — same decisions, but \
             the FID arithmetic changed; if intentional, regenerate the FID column and state \
             the aggregate difference",
            golden.fid
        );
    }
}

/// Every standard scenario's report must match its golden fingerprints bit
/// for bit.
#[test]
fn standard_scenario_reports_match_goldens() {
    assert_matches_goldens(&EXPECTED, run);
}

/// Staged-mode runs are just as deterministic as restart-mode runs: every
/// standard scenario with resume enabled must match its golden
/// fingerprints bit for bit, resume aggregates included.
#[test]
fn staged_scenario_reports_match_goldens() {
    assert_matches_goldens(&EXPECTED_RESUME, run_staged);
}

/// Prints the current fingerprint tables for pasting into `EXPECTED` and
/// `EXPECTED_RESUME`, and each report's FID family in full precision (what
/// an aggregate-level diff of a re-pin is computed from).
#[test]
#[ignore = "generator, not a check — run with --ignored --nocapture"]
fn print_current_fingerprints() {
    type Run = fn(&Scenario) -> RunReport;
    for (table, run) in [("EXPECTED", run as Run), ("EXPECTED_RESUME", run_staged)] {
        println!("{table}:");
        for scenario in scenarios() {
            let report = run(&scenario);
            println!(
                "    Golden {{ name: \"{}\", decision: {:#018x}, fid: {:#018x} }},",
                scenario.name(),
                decision_fingerprint(&report),
                fid_fingerprint(&report)
            );
            eprintln!(
                "{table} {} fid={:?} mean_windowed_fid={:?} fid_series={:?}",
                scenario.name(),
                report.fid,
                report.mean_windowed_fid,
                report.fid_series
            );
        }
    }
}
