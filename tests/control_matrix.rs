//! The control-plane decision matrix.
//!
//! The golden reports pin DiffServe alone. This suite pins what the
//! control loop decides for every policy and ablation it serves, so a
//! refactor of the control plane shows exactly which combination it moved:
//!
//! * two tiers (Cascade 1): every policy × the five planner ablations
//!   (default, AIMD batches, no queuing model, nameplate capacity, static
//!   threshold) × both allocator backends × online profile refresh on/off
//!   × latent resume on/off;
//! * three tiers (`ladder3`): the two cascade policies over the same axes,
//!   and once more with every query carrying an explicit prompt — a
//!   dataset prompt, one whose id names a dataset row but whose seed
//!   differs, or one whose id names none — the prompts the runtime's
//!   prepared tables must not answer for.
//!
//! Every run serves one perturbed scenario (a flash crowd, a brownout and a
//! prompt-difficulty shift) and is hashed over its decision fields only:
//! counts, latencies, the violation / demand / threshold /
//! deferral-error series, the resume aggregates and the per-tier
//! breakdown without its FID. One row of the table folds the eight
//! backend × online × resume runs of one (ladder, policy, ablation).
//!
//! Regenerating: `cargo test --release --test control_matrix -- --ignored
//! --nocapture` prints the current table; paste it over `EXPECTED`.

use diffserve::prelude::*;
use diffserve_simkit::rng::{derive_seed, seeded_rng};
use diffserve_simkit::time::SimDuration;
use std::sync::OnceLock;

fn disc_config() -> DiscriminatorConfig {
    DiscriminatorConfig {
        train_prompts: 400,
        epochs: 8,
        ..Default::default()
    }
}

fn cascade_runtime() -> &'static CascadeRuntime {
    static RT: OnceLock<CascadeRuntime> = OnceLock::new();
    RT.get_or_init(|| {
        CascadeRuntime::prepare(cascade1(FeatureSpec::default()), 1000, 2024, disc_config())
    })
}

fn ladder_runtime() -> &'static CascadeRuntime {
    static RT: OnceLock<CascadeRuntime> = OnceLock::new();
    RT.get_or_init(|| {
        CascadeRuntime::prepare_ladder(ladder3(FeatureSpec::default()), 1000, 2024, disc_config())
    })
}

const WORKERS: usize = 8;

/// A flash crowd, a brownout of two workers and a hardening prompt mix on
/// a 120 s constant trace.
fn scenario() -> Scenario {
    let at = SimTime::from_secs;
    let secs = SimDuration::from_secs;
    Scenario::new(
        "control-matrix",
        Trace::constant(4.0, secs(120)).expect("valid trace"),
    )
    .flash_crowd(at(30), secs(6), secs(20), 2.2)
    .worker_degrade(at(50), 2, 2.0)
    .worker_restore(at(90), 2)
    .difficulty_shift(at(70), 0.25)
}

/// The planner ablations of the matrix, by row name.
fn ablations() -> [(&'static str, AblationKnobs); 5] {
    [
        ("default", AblationKnobs::default()),
        ("aimd", AblationKnobs::aimd()),
        ("no-queue-model", AblationKnobs::no_queue_model()),
        ("nameplate", AblationKnobs::nameplate()),
        ("static-threshold", AblationKnobs::static_threshold(0.5)),
    ]
}

/// FNV-1a over 64-bit words, floats by bit pattern.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
        }
    }

    fn float(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    /// Folds in every decision field of `report`, and none of the FID
    /// family.
    fn report(&mut self, report: &RunReport) {
        for v in [
            report.total_queries,
            report.completed,
            report.dropped,
            report.late,
            report.resumed_queries,
        ] {
            self.word(v);
        }
        for v in [
            report.violation_ratio,
            report.mean_latency,
            report.heavy_fraction,
            report.mean_heavy_latency,
            report.mean_reused_steps,
            report.gpu_time_per_query,
        ] {
            self.float(v);
        }
        for series in [
            &report.violation_series,
            &report.demand_series,
            &report.threshold_series,
            &report.deferral_error_series,
        ] {
            self.word(series.len() as u64);
            for &(t, v) in series {
                self.float(t);
                self.float(v);
            }
        }
        self.word(report.tier_breakdown.len() as u64);
        for tier in &report.tier_breakdown {
            self.word(tier.tier as u64);
            self.word(tier.completions);
            self.word(tier.escalated_past);
            self.float(tier.mean_latency);
        }
    }
}

/// One row of the matrix: a runtime, a policy and an ablation, serving
/// dataset queries or explicit prompts.
struct Row {
    ladder: bool,
    policy: Policy,
    ablation: &'static str,
    knobs: AblationKnobs,
    explicit: bool,
}

fn rows() -> Vec<Row> {
    let mut rows = Vec::new();
    for (ladder, policies) in [
        (false, Policy::all().to_vec()),
        (true, vec![Policy::DiffServe, Policy::DiffServeStatic]),
    ] {
        for policy in policies {
            for (ablation, knobs) in ablations() {
                rows.push(Row {
                    ladder,
                    policy,
                    ablation,
                    knobs,
                    explicit: false,
                });
            }
        }
    }
    for policy in [Policy::DiffServe, Policy::DiffServeStatic] {
        rows.push(Row {
            ladder: true,
            policy,
            ablation: "explicit",
            knobs: AblationKnobs::default(),
            explicit: true,
        });
    }
    rows
}

/// The explicit prompt of the `i`-th arrival: the dataset's cyclic prompt
/// as is, with its seed changed, or with an id past the dataset's end.
fn explicit_prompt(dataset: &PromptDataset, i: u64) -> Prompt {
    let p = *dataset.prompt_cyclic(i);
    match i % 3 {
        0 => p,
        1 => Prompt {
            seed: p.seed ^ 0x5EED,
            ..p
        },
        _ => Prompt {
            id: p.id + dataset.len() as u64,
            ..p
        },
    }
}

/// Serves `scenario` with one explicit-prompt query per Poisson arrival of
/// its trace, to the same horizon as `run_scenario`.
fn run_explicit(
    runtime: &CascadeRuntime,
    system: &SystemConfig,
    settings: &RunSettings,
    scenario: &Scenario,
) -> RunReport {
    let mut session = ServingSession::builder()
        .runtime(runtime)
        .config(system.clone())
        .settings(settings.clone())
        .scenario(scenario.clone())
        .build()
        .expect("valid session");
    let trace = scenario.effective_trace();
    let mut rng = seeded_rng(derive_seed(system.seed, 0xE1));
    for t in poisson_arrivals(&trace, &mut rng) {
        let prompt = explicit_prompt(&runtime.dataset, session.submitted());
        session.submit_spec(QuerySpec::new().at(t).prompt(prompt));
    }
    session.run_until(SimTime::ZERO + trace.duration() + system.slo * 4);
    session.finish()
}

impl Row {
    fn name(&self) -> String {
        let tiers = if self.ladder { 3 } else { 2 };
        format!("{tiers}/{}/{}", self.policy.name(), self.ablation)
    }

    /// Serves the scenario under both backends × online refresh × resume
    /// and folds the eight reports into one hash.
    fn fingerprint(&self, scenario: &Scenario) -> u64 {
        let runtime = if self.ladder {
            ladder_runtime()
        } else {
            cascade_runtime()
        };
        let mut h = Fnv::new();
        for backend in [AllocatorBackend::Exhaustive, AllocatorBackend::Milp] {
            for online_profile_refresh in [false, true] {
                for resume_from_latents in [false, true] {
                    let system = SystemConfig {
                        num_workers: WORKERS,
                        online_profile_refresh,
                        resume_from_latents,
                        ..Default::default()
                    };
                    let settings = RunSettings {
                        knobs: self.knobs,
                        backend,
                        ..RunSettings::new(self.policy, scenario.effective_trace().max_qps())
                    };
                    h.report(&if self.explicit {
                        run_explicit(runtime, &system, &settings, scenario)
                    } else {
                        run_scenario(runtime, &system, &settings, scenario)
                    });
                }
            }
        }
        h.0
    }
}

/// `(row name, decision hash)` in [`rows`] order.
const EXPECTED: [(&str, u64); 37] = [
    ("2/Clipper-Light/default", 0x297e2479797e00c5),
    ("2/Clipper-Light/aimd", 0x297e2479797e00c5),
    ("2/Clipper-Light/no-queue-model", 0x297e2479797e00c5),
    ("2/Clipper-Light/nameplate", 0x297e2479797e00c5),
    ("2/Clipper-Light/static-threshold", 0x297e2479797e00c5),
    ("2/Clipper-Heavy/default", 0x589b7a7b08a17375),
    ("2/Clipper-Heavy/aimd", 0x589b7a7b08a17375),
    ("2/Clipper-Heavy/no-queue-model", 0x589b7a7b08a17375),
    ("2/Clipper-Heavy/nameplate", 0x589b7a7b08a17375),
    ("2/Clipper-Heavy/static-threshold", 0x589b7a7b08a17375),
    ("2/Proteus/default", 0x2367219a6346f315),
    ("2/Proteus/aimd", 0xa0d11fae65288fe5),
    ("2/Proteus/no-queue-model", 0xbc29bb9f332e1915),
    ("2/Proteus/nameplate", 0x9c2c764c7a2afd25),
    ("2/Proteus/static-threshold", 0x2367219a6346f315),
    ("2/DiffServe-Static/default", 0xe2b994d9c115c33d),
    ("2/DiffServe-Static/aimd", 0xe2b994d9c115c33d),
    ("2/DiffServe-Static/no-queue-model", 0xe2b994d9c115c33d),
    ("2/DiffServe-Static/nameplate", 0xe2b994d9c115c33d),
    ("2/DiffServe-Static/static-threshold", 0x2f30a17e2fc1e2ad),
    ("2/DiffServe/default", 0x7c27060e7288f931),
    ("2/DiffServe/aimd", 0xcbef4e2606e819d5),
    ("2/DiffServe/no-queue-model", 0x93ecf7e3d7b7c72d),
    ("2/DiffServe/nameplate", 0xc9473041c3f73f75),
    ("2/DiffServe/static-threshold", 0x4ac3945ecba25a55),
    ("3/DiffServe/default", 0x86237bef97045155),
    ("3/DiffServe/aimd", 0x42d2bf1b9a2b3705),
    ("3/DiffServe/no-queue-model", 0x42d2bf1b9a2b3705),
    ("3/DiffServe/nameplate", 0xd48a470a6c624f55),
    ("3/DiffServe/static-threshold", 0x8817920e2db2f3a5),
    ("3/DiffServe-Static/default", 0xf78bee45eb2208ad),
    ("3/DiffServe-Static/aimd", 0xf78bee45eb2208ad),
    ("3/DiffServe-Static/no-queue-model", 0xf78bee45eb2208ad),
    ("3/DiffServe-Static/nameplate", 0xf78bee45eb2208ad),
    ("3/DiffServe-Static/static-threshold", 0x317411c64d31aad5),
    ("3/DiffServe/explicit", 0xfecebc4b1b60ea65),
    ("3/DiffServe-Static/explicit", 0x975ac64526caadc5),
];

/// Every row's eight runs must hash to the value captured before the
/// control plane last changed.
#[test]
fn control_decisions_match_the_matrix() {
    let scenario = scenario();
    let rows = rows();
    assert_eq!(rows.len(), EXPECTED.len(), "matrix shape drifted");
    let mut moved = Vec::new();
    for (row, &(name, expected)) in rows.iter().zip(&EXPECTED) {
        assert_eq!(row.name(), name, "row order drifted");
        let got = row.fingerprint(&scenario);
        if got != expected {
            moved.push(format!("{name}: {got:#018x} != {expected:#018x}"));
        }
    }
    assert!(
        moved.is_empty(),
        "control decisions moved on {} rows — if intentional, regenerate with \
         `cargo test --release --test control_matrix -- --ignored --nocapture`:\n{}",
        moved.len(),
        moved.join("\n")
    );
}

/// Prints the current table for pasting into `EXPECTED`.
#[test]
#[ignore = "generator, not a check — run with --ignored --nocapture"]
fn print_current_matrix() {
    let scenario = scenario();
    for row in rows() {
        println!(
            "    (\"{}\", {:#018x}),",
            row.name(),
            row.fingerprint(&scenario)
        );
    }
}
