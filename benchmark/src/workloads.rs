//! The four workloads: what each one runs, at which size, and how its
//! inputs are made from the seed.
//!
//! Every workload is an open-loop trace replay. `README.md` records why
//! each exists and what sized it.

use diffserve_core::{
    AddonsConfig, AllocatorBackend, CascadeRuntime, LadderConfig, Policy, RunSettings, SystemConfig,
};
use diffserve_imagegen::{cascade1, ladder3, DiscriminatorConfig, FeatureSpec};
use diffserve_simkit::rng::derive_seed;
use diffserve_simkit::time::SimDuration;
use diffserve_trace::{
    standard_scenarios, synthesize_azure_trace, AzureTraceConfig, Hazard, Scenario, Trace,
};

/// Prompts in every runtime (the paper's first 5K text-image pairs).
const DATASET_SIZE: usize = 5000;

/// Wall-clock seconds per simulated second on the threaded testbed: 200×
/// compression, so 1 ms of runtime overhead reads as 0.2 s of latency.
pub const CLUSTER_TIME_SCALE: f64 = 0.01;

/// Seed of every runtime: the repo's experiment seed (`EXPERIMENT_SEED` in
/// `crates/bench`).
const RUNTIME_SEED: u64 = 20250509;

// One seed stream per generated input, so no two inputs share draws.
const STREAM_SYSTEM: u64 = 0xB001;
const STREAM_ADDONS: u64 = 0xB002;
const STREAM_HAZARD: u64 = 0xB003;

/// One of the four benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1000-worker two-tier fleet on a diurnal trace: per-query path.
    FleetDiurnal,
    /// 16-worker three-tier ladder, every feature on, MILP ticks: control
    /// plane.
    LadderControl,
    /// 5 policies × 9 scenarios at 8 workers, MILP, across all cores.
    ScenarioSweep,
    /// 16-worker threaded testbed plus its simulator twin.
    ClusterTestbed,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::FleetDiurnal,
        Workload::LadderControl,
        Workload::ScenarioSweep,
        Workload::ClusterTestbed,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetDiurnal => "fleet_diurnal",
            Workload::LadderControl => "ladder_control",
            Workload::ScenarioSweep => "scenario_sweep",
            Workload::ClusterTestbed => "cluster_testbed",
        }
    }

    /// Why the workload exists, in one line (`why` in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::FleetDiurnal => {
                "1000-worker fleet, ~290K queries: the per-query path (event queue, routing, \
                 generate, discriminator, report) is all the work and control ticks are ~1 %, \
                 so solver changes must not move it"
            }
            Workload::LadderControl => {
                "16-worker 3-tier ladder, every feature on, MILP backend: control ticks are over \
                 99 % of the work and queries under 1 %, so event-loop changes must not move it"
            }
            Workload::ScenarioSweep => {
                "5 policies x 9 fault scenarios at 8 workers on all cores: the legacy two-tier \
                 warm-MILP path under churn, and 45 small reports where the fleet has one large"
            }
            Workload::ClusterTestbed => {
                "16 real threads at 100x time compression next to a simulator twin: wall time is \
                 sleeps, so only the cluster runtime's own overhead can move it"
            }
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated seconds of trace replayed, at full or smoke (≈ 1/10)
    /// size.
    pub fn horizon_secs(self, smoke: bool) -> u64 {
        let full = match self {
            Workload::FleetDiurnal => 1200,
            Workload::LadderControl => 300,
            Workload::ScenarioSweep => 1200,
            Workload::ClusterTestbed => 500,
        };
        if smoke {
            full / 10
        } else {
            full
        }
    }
}

/// Which engine serves a job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Engine {
    /// The discrete-event simulator.
    Sim,
    /// The threaded testbed at [`CLUSTER_TIME_SCALE`].
    Cluster,
}

/// One serving run: a session's complete inputs.
#[derive(Debug, Clone)]
pub struct Job {
    /// `policy/scenario`, for messages.
    pub label: String,
    /// Which engine serves it.
    pub engine: Engine,
    /// Whether its wall time and queries count towards the repetition's.
    /// All but the testbed's simulator twin.
    pub timed: bool,
    /// Whether its report counts towards the simulated-time metrics and its
    /// ticks towards tick latency. The sweep's rows for policies other than
    /// DiffServe do not: they load the same layers, but their quality
    /// answers a different question. Nor does the testbed: its latencies
    /// follow the host's speed (`README.md`, "Noise floor"), so its twin is
    /// scored in its place and its own numbers are per-layer.
    pub scored: bool,
    /// Cluster and controller configuration.
    pub config: SystemConfig,
    /// Policy and allocator backend.
    pub settings: RunSettings,
    /// Perturbation schedule, if any.
    pub scenario: Option<Scenario>,
    /// The demand trace replayed (a scenario's effective trace).
    pub trace: Trace,
}

/// The diurnal demand curve. Its shape noise keeps the library's default
/// seed: the curve is a fixed artefact, like the paper's one Azure trace
/// file.
fn azure(min_qps: f64, max_qps: f64, secs: u64) -> Trace {
    synthesize_azure_trace(&AzureTraceConfig {
        min_qps,
        max_qps,
        duration: SimDuration::from_secs(secs),
        ..Default::default()
    })
    .expect("benchmark trace parameters are valid")
}

fn system(num_workers: usize, seed: u64) -> SystemConfig {
    SystemConfig {
        num_workers,
        seed: derive_seed(seed, STREAM_SYSTEM),
        ..Default::default()
    }
}

fn settings(policy: Policy, backend: AllocatorBackend, trace: &Trace) -> RunSettings {
    RunSettings {
        backend,
        ..RunSettings::new(policy, trace.max_qps())
    }
}

impl Workload {
    /// Prepares the runtime: dataset, discriminators, deferral profiles and
    /// FID reference. A fixed artefact, like the paper's 5K-pair dataset:
    /// the seed does not feed it (see `README.md`, "What the seed feeds").
    pub fn runtime(self) -> CascadeRuntime {
        match self {
            Workload::LadderControl => CascadeRuntime::prepare_ladder(
                ladder3(FeatureSpec::default()),
                DATASET_SIZE,
                RUNTIME_SEED,
                DiscriminatorConfig::default(),
            ),
            _ => CascadeRuntime::prepare(
                cascade1(FeatureSpec::default()),
                DATASET_SIZE,
                RUNTIME_SEED,
                DiscriminatorConfig::default(),
            ),
        }
    }

    /// Whether one repetition spreads its jobs over all cores.
    pub fn parallel(self) -> bool {
        self == Workload::ScenarioSweep
    }

    /// Whether the first repetition is a discarded warm-up.
    pub fn warm_up(self) -> bool {
        matches!(self, Workload::FleetDiurnal | Workload::ScenarioSweep)
    }

    /// Makes the jobs of one repetition from `seed`: the same seed gives
    /// the same jobs.
    pub fn jobs(self, seed: u64, smoke: bool) -> Vec<Job> {
        let secs = self.horizon_secs(smoke);
        match self {
            Workload::FleetDiurnal => {
                let trace = azure(60.0, 500.0, secs);
                vec![Job {
                    label: "DiffServe/diurnal".into(),
                    engine: Engine::Sim,
                    timed: true,
                    scored: true,
                    config: system(1000, seed),
                    settings: settings(Policy::DiffServe, AllocatorBackend::Exhaustive, &trace),
                    scenario: None,
                    trace,
                }]
            }
            Workload::LadderControl => {
                let trace = azure(2.0, 16.0, secs);
                let config = SystemConfig {
                    ladder: Some(LadderConfig::default()),
                    resume_from_latents: true,
                    addons: Some(AddonsConfig::demo(derive_seed(seed, STREAM_ADDONS))),
                    online_profile_refresh: true,
                    ..SystemConfig {
                        num_workers: 16,
                        ..Default::default()
                    }
                };
                vec![Job {
                    label: "DiffServe/ladder3".into(),
                    engine: Engine::Sim,
                    timed: true,
                    scored: true,
                    config,
                    settings: settings(Policy::DiffServe, AllocatorBackend::Milp, &trace),
                    scenario: None,
                    trace,
                }]
            }
            Workload::ScenarioSweep => {
                let config = SystemConfig {
                    num_workers: 8,
                    ..Default::default()
                };
                let base = Trace::constant(6.0, SimDuration::from_secs(secs))
                    .expect("constant base trace is valid");
                let mut jobs = Vec::new();
                for scenario in standard_scenarios(&base, config.num_workers) {
                    // The library pins its hazard's seed; the benchmark's
                    // seed replaces it.
                    let scenario = match scenario.hazard() {
                        Some(hazard) => scenario.with_hazard(Hazard {
                            seed: derive_seed(seed, STREAM_HAZARD),
                            ..hazard
                        }),
                        None => scenario,
                    };
                    let trace = scenario.effective_trace();
                    for policy in Policy::all() {
                        jobs.push(Job {
                            label: format!("{}/{}", policy.name(), scenario.name()),
                            engine: Engine::Sim,
                            timed: true,
                            scored: policy == Policy::DiffServe,
                            config: config.clone(),
                            settings: settings(policy, AllocatorBackend::Milp, &trace),
                            scenario: Some(scenario.clone()),
                            trace: trace.clone(),
                        });
                    }
                }
                jobs
            }
            Workload::ClusterTestbed => {
                let trace = azure(4.0, 14.0, secs);
                let testbed = Job {
                    label: "DiffServe/testbed".into(),
                    engine: Engine::Cluster,
                    timed: true,
                    scored: false,
                    config: system(16, seed),
                    settings: settings(Policy::DiffServe, AllocatorBackend::Exhaustive, &trace),
                    scenario: None,
                    trace,
                };
                let twin = Job {
                    label: "DiffServe/simulator-twin".into(),
                    engine: Engine::Sim,
                    timed: false,
                    scored: true,
                    ..testbed.clone()
                };
                vec![testbed, twin]
            }
        }
    }
}
