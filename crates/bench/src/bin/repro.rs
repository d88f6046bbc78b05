//! Reproduces DiffServe's tables and figures, and gates the extensions.
//!
//! Every experiment is one row of [`EXPERIMENTS`]: an `id`, the paper
//! artefact it reproduces (or "extension"), and a `run` that returns one
//! [`Table`] plus claims. The table is printed and written to
//! `results/<id>.csv`, or under `--smoke` to `results/smoke/<id>.csv`, so a
//! smoke run never writes over a full run's file. A claim is a named
//! predicate over the experiment's runs; any broken claim makes `repro`
//! exit nonzero.
//!
//! Usage: `repro [--smoke] [ID…]` — with no ID, every experiment runs.
//!
//! * `--smoke` — CI scale. The runtime is prepared at [`Scale::Smoke`] and
//!   traces are cut to at most 60 s; `scenarios` and the four gated
//!   extensions keep their own CI configurations (each experiment's doc
//!   says which).

use std::path::Path;
use std::process::ExitCode;

use diffserve_bench::{f2, f3, CascadeId, Scale, Table, EXPERIMENT_SEED};
use diffserve_cluster::run_cluster;
use diffserve_core::{
    run_scenario, run_trace, AblationKnobs, AddonsConfig, CascadeRuntime, LadderConfig, Policy,
    RunReport, RunSettings, SystemConfig,
};
use diffserve_imagegen::{
    easy_query_fraction, evaluate_cascade, evaluate_single_model, fig1a_variants, ladder3,
    quality_differences, ClipScorer, DiscArch, DiscriminatorConfig, FeatureSpec, GeneratedImage,
    PickScorer, Prompt, RealClass, RoutingRule,
};
use diffserve_linalg::Mat;
use diffserve_metrics::{frechet_distance, GaussianStats};
use diffserve_simkit::stats::Welford;
use diffserve_simkit::time::{SimDuration, SimTime};
use diffserve_trace::{
    standard_scenarios, style_shift_flash_crowd, synthesize_azure_trace, AzureTraceConfig, Hazard,
    Scenario, Trace,
};

/// One reproducible experiment.
struct Experiment {
    /// The command-line name, and the stem of its CSV.
    id: &'static str,
    /// The paper section, table or figure it reproduces, or "extension".
    paper: &'static str,
    run: fn(Scale) -> Outcome,
}

const fn experiment(
    id: &'static str,
    paper: &'static str,
    run: fn(Scale) -> Outcome,
) -> Experiment {
    Experiment { id, paper, run }
}

/// Every experiment, paper artefacts first.
const EXPERIMENTS: &[Experiment] = &[
    experiment("table1", "Table 1", table1),
    experiment("fig1a", "Fig. 1a", fig1a),
    experiment("fig1b", "Fig. 1b", fig1b),
    experiment("fig1c", "Fig. 1c", fig1c),
    experiment("fig4", "Fig. 4", fig4),
    experiment("fig5", "Fig. 5", fig5),
    experiment("fig6", "Fig. 6, §4.3", fig6),
    experiment("fig7", "Fig. 7", fig7),
    experiment("fig8", "Fig. 8", fig8),
    experiment("fig9", "Fig. 9", fig9),
    experiment("reuse", "§5", reuse),
    experiment("scenarios", "extension", scenarios),
    experiment("ext_pipeline", "extension", ext_pipeline),
    experiment("ext_addons", "extension", ext_addons),
    experiment("ext_ladder", "extension", ext_ladder),
    experiment("replay_matrix", "extension", replay_matrix),
];

/// What an experiment produced.
struct Outcome {
    table: Table,
    /// Lines worth reading next to the table, such as the paper's value
    /// beside ours.
    notes: Vec<String>,
    claims: Vec<Claim>,
}

impl Outcome {
    fn new(table: Table) -> Self {
        Outcome {
            table,
            notes: Vec::new(),
            claims: Vec::new(),
        }
    }
}

/// A named predicate over an experiment's runs.
struct Claim {
    name: &'static str,
    holds: bool,
    detail: String,
}

impl Claim {
    /// A claim that holds unless `broken`, the condition it guards against.
    fn unless(name: &'static str, broken: bool, detail: String) -> Self {
        Claim {
            name,
            holds: !broken,
            detail,
        }
    }
}

fn main() -> ExitCode {
    let (scale, selected) = match parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\nusage: repro [--smoke] [ID…]");
            return ExitCode::from(2);
        }
    };
    let mut broken = Vec::new();
    for exp in selected {
        println!("\n== {} ({}, {scale:?}) ==", exp.id, exp.paper);
        let outcome = (exp.run)(scale);
        outcome.table.print();
        for note in &outcome.notes {
            println!("{note}");
        }
        let dir = match scale {
            Scale::Full => Path::new("results"),
            Scale::Smoke => Path::new("results/smoke"),
        };
        let path = dir.join(format!("{}.csv", exp.id));
        outcome.table.write_csv(&path);
        println!("wrote {}", path.display());
        for claim in &outcome.claims {
            let verdict = if claim.holds { "PASS" } else { "FAIL" };
            println!("{verdict} {}: {}", claim.name, claim.detail);
            if !claim.holds {
                broken.push(format!("{}: {}", exp.id, claim.name));
            }
        }
    }
    if broken.is_empty() {
        return ExitCode::SUCCESS;
    }
    println!("\n{} broken claim(s):", broken.len());
    for b in &broken {
        println!("  {b}");
    }
    ExitCode::FAILURE
}

/// Reads `[--smoke] [ID…]`; no ID selects every experiment.
fn parse(args: impl Iterator<Item = String>) -> Result<(Scale, Vec<&'static Experiment>), String> {
    let mut scale = Scale::Full;
    let mut selected = Vec::new();
    for arg in args {
        if arg == "--smoke" {
            scale = Scale::Smoke;
            continue;
        }
        match EXPERIMENTS.iter().find(|e| e.id == arg) {
            Some(exp) => selected.push(exp),
            None => {
                let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
                return Err(format!(
                    "unknown experiment `{arg}`; valid IDs: {}",
                    ids.join(", ")
                ));
            }
        }
    }
    if selected.is_empty() {
        selected.extend(EXPERIMENTS);
    }
    Ok((scale, selected))
}

/// A trace horizon of `full`, cut to 60 s at smoke scale.
fn horizon(scale: Scale, full: SimDuration) -> SimDuration {
    match scale {
        Scale::Full => full,
        Scale::Smoke => full.min(SimDuration::from_secs(60)),
    }
}

/// The Azure-style diurnal trace over `min_qps..max_qps`.
fn azure(scale: Scale, min_qps: f64, max_qps: f64) -> Trace {
    synthesize_azure_trace(&AzureTraceConfig {
        min_qps,
        max_qps,
        duration: horizon(scale, AzureTraceConfig::default().duration),
    })
    .expect("valid trace")
}

/// Wall-clock seconds per simulated second on the testbed runs (`fig6`,
/// `fig8`).
const TESTBED_TIME_SCALE: f64 = 0.05;

/// The per-run columns of the diurnal-trace experiments (Figs. 5 and 8).
const DIURNAL_SUMMARY: [&str; 5] = [
    "avg_fid",
    "overall_fid",
    "offpeak_fid",
    "slo_violation",
    "peak_violation",
];

/// A diurnal run's [`DIURNAL_SUMMARY`]: windowed and overall FID, the mean
/// FID of the windows in the first 20 % of the `duration`-second trace
/// (`NaN` with none), and the overall and worst windowed violation ratio.
fn diurnal_summary(r: &RunReport, duration: f64) -> Vec<String> {
    let offpeak: Vec<f64> = r
        .fid_series
        .iter()
        .filter(|(t, _)| *t <= duration * 0.2)
        .map(|(_, f)| *f)
        .collect();
    let offpeak_fid = if offpeak.is_empty() {
        f64::NAN
    } else {
        offpeak.iter().sum::<f64>() / offpeak.len() as f64
    };
    let peak_violation = r
        .violation_series
        .iter()
        .map(|(_, v)| *v)
        .fold(0.0f64, f64::max);
    vec![
        f2(r.mean_windowed_fid),
        f2(r.fid),
        f2(offpeak_fid),
        f3(r.violation_ratio),
        f3(peak_violation),
    ]
}

/// Table 1: taxonomy of DiffServe and the baselines — allocation
/// (static/dynamic) × query-awareness.
fn table1(_: Scale) -> Outcome {
    let mut t = Table::new(&["approach", "allocation", "query_aware"]);
    for p in Policy::all() {
        let allocation = if p.is_dynamic() { "Dynamic" } else { "Static" };
        let aware = if p.is_query_aware() { "Yes" } else { "No" };
        t.row(vec![p.name().into(), allocation.into(), aware.into()]);
    }
    Outcome::new(t)
}

/// Figure 1a: FID vs mean inference latency for independent model variants
/// and for cascades routed by Random / PickScore / CLIPScore /
/// Discriminator, on two light/heavy pairs (SD-Turbo+SDv1.5 and
/// SDXS+SDv1.5).
///
/// Paper claims to reproduce (shape): PickScore- and CLIPScore-routed
/// cascades are no better than random routing; the discriminator-routed
/// cascade dominates; FID worsens again at the all-heavy end of the curve.
fn fig1a(scale: Scale) -> Outcome {
    let mut t = Table::new(&["series", "point", "deferral", "latency_s", "fid"]);
    for id in [CascadeId::One, CascadeId::Two] {
        let runtime = scale.runtime(id);
        let (light, heavy) = (&runtime.spec.light, &runtime.spec.heavy);
        let dataset = &runtime.dataset;
        if id == CascadeId::One {
            for m in fig1a_variants(FeatureSpec::default()) {
                let e = evaluate_single_model(dataset, &m);
                t.row(vec![
                    "variants".into(),
                    m.name().into(),
                    "-".into(),
                    f3(e.mean_latency),
                    f3(e.fid),
                ]);
            }
        }
        let mut sweep = |name: &str, rule: RoutingRule, thresholds: Vec<f64>| {
            for thr in thresholds {
                let e = evaluate_cascade(dataset, light, heavy, &rule, thr);
                t.row(vec![
                    format!("{}-{name}", runtime.spec.name),
                    f3(thr),
                    f3(e.deferral_fraction),
                    f3(e.mean_latency),
                    f3(e.fid),
                ]);
            }
        };
        let tenths: Vec<f64> = (0..=10).map(|i| i as f64 / 10.0).collect();
        sweep(
            "disc",
            RoutingRule::Discriminator(&runtime.discriminator),
            tenths.clone(),
        );
        // PickScore / CLIPScore: thresholds at deciles of the observed
        // light-output scores, so the deferral fraction covers [0, 1].
        let (pick, clip) = (PickScorer::default(), ClipScorer::default());
        sweep(
            "pickscore",
            RoutingRule::PickScore(pick),
            score_deciles(&runtime, |p, img| pick.score(p, img)),
        );
        sweep(
            "clipscore",
            RoutingRule::ClipScore(clip),
            score_deciles(&runtime, |p, img| clip.score(p, img)),
        );

        // Random routing: 20 repetitions per deferral probability; the
        // paper shades the std-dev band of the FID.
        for p in tenths {
            let mut fid_acc = Welford::new();
            let mut lat_acc = Welford::new();
            for rep in 0..20u64 {
                let rule = RoutingRule::Random { seed: 1000 + rep };
                let e = evaluate_cascade(dataset, light, heavy, &rule, p);
                fid_acc.push(e.fid);
                lat_acc.push(e.mean_latency);
            }
            t.row(vec![
                format!("{}-random", runtime.spec.name),
                f3(p),
                f3(p),
                f3(lat_acc.mean()),
                format!("{:.3}±{:.3}", fid_acc.mean(), fid_acc.std()),
            ]);
        }
    }
    Outcome::new(t)
}

/// Threshold values at deciles of `score` over the light model's outputs.
fn score_deciles(
    runtime: &CascadeRuntime,
    score: impl Fn(&Prompt, &GeneratedImage) -> f64,
) -> Vec<f64> {
    let light = &runtime.spec.light;
    let mut scores: Vec<f64> = runtime
        .dataset
        .prompts()
        .iter()
        .map(|p| score(p, &light.generate(p)))
        .collect();
    scores.sort_by(|a, b| a.partial_cmp(b).expect("finite scores"));
    (0..=10)
        .map(|i| scores[((scores.len() - 1) as f64 * (i as f64 / 10.0)) as usize])
        .collect()
}

/// Figure 1b: the per-prompt image-quality difference between the heavy
/// and the light model, measured by PickScore and by discriminator
/// confidence, for both 512px pairs (deciles of the paper's CDFs).
///
/// Paper claim to reproduce: for 20–40% of queries the lightweight model's
/// output is as good as or better than the heavyweight model's ("easy
/// queries" — the mass at or below zero).
fn fig1b(scale: Scale) -> Outcome {
    let mut t = Table::new(&[
        "cascade", "metric", "p10", "p25", "p50", "p75", "p90", "frac<=0",
    ]);
    let mut notes = Vec::new();
    for id in [CascadeId::One, CascadeId::Two] {
        let runtime = scale.runtime(id);
        let (light, heavy) = (&runtime.spec.light, &runtime.spec.heavy);
        let dataset = &runtime.dataset;
        let pick = PickScorer::default();
        let disc = &runtime.discriminator;
        for (name, mut diffs) in [
            (
                "pickscore_diff",
                quality_differences(dataset, light, heavy, |p, img| pick.score(p, img)),
            ),
            (
                "confidence_diff",
                quality_differences(dataset, light, heavy, |_, img| {
                    disc.confidence(&img.features)
                }),
            ),
        ] {
            diffs.sort_by(|a, b| a.partial_cmp(b).expect("finite diffs"));
            let q = |p: f64| f3(diffs[((diffs.len() - 1) as f64 * p) as usize]);
            let frac_le0 = diffs.iter().filter(|&&d| d <= 0.0).count() as f64 / diffs.len() as f64;
            t.row(vec![
                runtime.spec.name.into(),
                name.into(),
                q(0.10),
                q(0.25),
                q(0.50),
                q(0.75),
                q(0.90),
                f3(frac_le0),
            ]);
        }
        notes.push(format!(
            "{}: latent easy-query fraction (light >= heavy quality) {:.3}  [paper: 20-40%]",
            runtime.spec.name,
            easy_query_fraction(dataset, light, heavy)
        ));
    }
    Outcome {
        notes,
        ..Outcome::new(t)
    }
}

/// Figure 1c: FID vs serving throughput for every configuration of a
/// 10-GPU cluster serving Cascade 1 (threshold × batch sizes × placement).
/// The table is the Pareto frontier.
///
/// Paper claim to reproduce: ~9K configurations; only the Pareto frontier
/// matters for allocation, and it spans a wide quality/throughput range.
fn fig1c(scale: Scale) -> Outcome {
    let runtime = scale.runtime(CascadeId::One);
    let (light, heavy) = (&runtime.spec.light, &runtime.spec.heavy);
    let workers = 10usize;
    let batches = [1usize, 2, 4, 8, 16];
    let disc_lat = runtime.discriminator.latency().as_secs_f64();

    // The FID-vs-threshold curve once (21 thresholds); each configuration
    // then reads its FID from its threshold.
    let rule = RoutingRule::Discriminator(&runtime.discriminator);
    let fid_at: Vec<(f64, f64, f64)> = (0..=20)
        .map(|i| {
            let t = i as f64 / 20.0;
            let e = evaluate_cascade(&runtime.dataset, light, heavy, &rule, t);
            (t, e.fid, e.deferral_fraction)
        })
        .collect();

    // (throughput, fid, threshold, b1, b2, x1)
    let mut points: Vec<(f64, f64, f64, usize, usize, usize)> = Vec::new();
    for &(t, fid, f) in &fid_at {
        for &b1 in &batches {
            for &b2 in &batches {
                for x1 in 1..workers {
                    let t1 = b1 as f64
                        / (light.latency().exec_latency(b1).as_secs_f64() + disc_lat * b1 as f64);
                    let t2 = b2 as f64 / heavy.latency().exec_latency(b2).as_secs_f64();
                    let light_cap = x1 as f64 * t1;
                    let heavy_cap = (workers - x1) as f64 * t2;
                    // System throughput: the light stage must pass
                    // everything; the heavy stage must absorb the deferred
                    // fraction.
                    let tp = if f > 0.0 {
                        light_cap.min(heavy_cap / f)
                    } else {
                        light_cap
                    };
                    points.push((tp, fid, t, b1, b2, x1));
                }
            }
        }
    }
    let count = points.len();

    // Pareto frontier: maximize throughput, minimize FID.
    points.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite throughput"));
    let mut frontier = Vec::new();
    let mut best_fid = f64::INFINITY;
    for p in points {
        if p.1 < best_fid - 1e-9 {
            best_fid = p.1;
            frontier.push(p);
        }
    }
    frontier.reverse();

    let mut table = Table::new(&["threshold", "b1", "b2", "x1", "x2", "throughput_qps", "fid"]);
    for &(tp, fid, t, b1, b2, x1) in &frontier {
        table.row(vec![
            f2(t),
            b1.to_string(),
            b2.to_string(),
            x1.to_string(),
            (workers - x1).to_string(),
            f2(tp),
            f3(fid),
        ]);
    }
    let fids = frontier.iter().map(|p| p.1);
    let notes = vec![
        format!("enumerated {count} configurations (paper: ~9K)"),
        format!(
            "frontier spans {:.1}..{:.1} QPS and FID {:.2}..{:.2}",
            frontier.first().map_or(0.0, |p| p.0),
            frontier.last().map_or(0.0, |p| p.0),
            fids.clone().fold(f64::INFINITY, f64::min),
            fids.fold(0.0f64, f64::max),
        ),
    ];
    Outcome {
        notes,
        ..Outcome::new(table)
    }
}

/// Figure 4: FID vs SLO-violation trade-off under static synthetic traces
/// at low / medium / high load, Cascade 1 on 16 workers (120 s traces).
///
/// Paper claims to reproduce (shape): DiffServe traces the Pareto-optimal
/// (lower-left) curve; Clipper-Light has near-zero violations but the worst
/// FID; Clipper-Heavy has the best *model* but 45–74% violations under
/// load; Proteus sits in between. Dynamic systems sweep the
/// over-provisioning factor to trace their curves; DiffServe-Static equals
/// DiffServe under static demand (single point, paper §4.2).
fn fig4(scale: Scale) -> Outcome {
    let runtime = scale.runtime(CascadeId::One);
    let config = SystemConfig::default(); // 16 workers, SLO 5 s
    let lambdas = [1.0, 1.05, 1.2, 1.5, 2.0, 3.0];
    let mut t = Table::new(&["load", "policy", "lambda", "slo_violation", "fid"]);
    for (label, qps) in [("low", 8.0), ("medium", 16.0), ("high", 24.0)] {
        let trace =
            Trace::constant(qps, horizon(scale, SimDuration::from_secs(120))).expect("valid trace");
        let mut run = |policy: Policy, lambda: Option<f64>| {
            let config = SystemConfig {
                over_provision: lambda.unwrap_or(config.over_provision),
                ..config.clone()
            };
            let r = run_trace(&runtime, &config, &RunSettings::new(policy, qps), &trace);
            t.row(vec![
                label.into(),
                policy.name().into(),
                lambda.map_or("-".into(), f2),
                f3(r.violation_ratio),
                f3(r.fid),
            ]);
        };
        for policy in [Policy::ClipperLight, Policy::ClipperHeavy] {
            run(policy, None);
        }
        for policy in [Policy::Proteus, Policy::DiffServe] {
            for &lambda in &lambdas {
                run(policy, Some(lambda));
            }
        }
    }
    Outcome::new(t)
}

/// Figure 5: all five policies on the Azure-style diurnal trace, Cascade 1
/// on 16 workers, every control tick planning the paper's Eq. 1–5
/// allocation by enumeration.
///
/// Paper claims to reproduce (shape): Clipper-Light flat-worst FID, near
/// zero violations; Clipper-Heavy best model but up to ~75% violations at
/// peak; Proteus <5% better than Clipper-Light on quality; DiffServe-Static
/// query-aware but up to ~19% violations at peak; DiffServe best FID
/// off-peak (better than Clipper-Heavy), low violations throughout, quality
/// gracefully degrading toward the peak.
fn fig5(scale: Scale) -> Outcome {
    let runtime = scale.runtime(CascadeId::One);
    let config = SystemConfig::default();
    let trace = azure(scale, 4.0, 32.0);
    let duration = trace.duration().as_secs_f64();
    let mut t = Table::new(&[&["policy"], &DIURNAL_SUMMARY[..]].concat());
    for policy in Policy::all() {
        let settings = RunSettings::new(policy, trace.max_qps());
        let r = run_trace(&runtime, &config, &settings, &trace);
        t.row([vec![policy.name().into()], diurnal_summary(&r, duration)].concat());
    }
    let notes = vec![format!(
        "trace: {:.0}..{:.0} QPS over {duration:.0}s (azure-style diurnal)",
        trace.min_qps(),
        trace.max_qps(),
    )];
    Outcome {
        notes,
        ..Outcome::new(t)
    }
}

/// Figure 6: testbed results for Cascades 2 and 3 — average FID and SLO
/// violations for all five policies — plus the simulator-vs-testbed
/// validation the paper reports alongside (§4.3: average gap of 0.56% FID
/// and 1.1% SLO violations). The testbed is the thread-and-channel cluster
/// runtime (`diffserve-cluster`) at 1/20 of real time.
fn fig6(scale: Scale) -> Outcome {
    let mut t = Table::new(&[
        "cascade",
        "policy",
        "testbed_fid",
        "testbed_viol",
        "sim_fid",
        "sim_viol",
        "fid_gap_%",
        "viol_gap_pp",
    ]);
    let mut notes = Vec::new();
    for (id, min_qps, max_qps, slo) in [
        (CascadeId::Two, 4.0, 32.0, 5u64),
        (CascadeId::Three, 1.0, 8.0, 15u64),
    ] {
        let runtime = scale.runtime(id);
        let system = SystemConfig {
            slo: SimDuration::from_secs(slo),
            ..Default::default()
        };
        let trace = azure(scale, min_qps, max_qps);
        let (mut fid_gap_sum, mut viol_gap_sum) = (0.0, 0.0);
        for policy in Policy::all() {
            let settings = RunSettings::new(policy, max_qps);
            let testbed = run_cluster(&runtime, &system, &settings, &trace, TESTBED_TIME_SCALE);
            let sim = run_trace(&runtime, &system, &settings, &trace);
            let fid_gap = 100.0 * (testbed.fid - sim.fid).abs() / sim.fid;
            let viol_gap = (testbed.violation_ratio - sim.violation_ratio).abs();
            fid_gap_sum += fid_gap;
            viol_gap_sum += viol_gap;
            t.row(vec![
                runtime.spec.name.into(),
                policy.name().into(),
                f3(testbed.fid),
                f3(testbed.violation_ratio),
                f3(sim.fid),
                f3(sim.violation_ratio),
                f2(fid_gap),
                f3(viol_gap),
            ]);
        }
        let n = Policy::all().len() as f64;
        notes.push(format!(
            "{} ({min_qps}->{max_qps} QPS, SLO {slo}s): simulator-vs-testbed gap: \
             avg FID {:.2}% (paper 0.56%), avg SLO {:.3} (paper 0.011)",
            runtime.spec.name,
            fid_gap_sum / n,
            viol_gap_sum / n,
        ));
    }
    Outcome {
        notes,
        ..Outcome::new(t)
    }
}

/// Figure 7: discriminator design ablation — ResNet-34 w/ ground truth,
/// ViT-B16 w/ ground truth, EfficientNet w/ heavy outputs as "real"
/// ("w Fake"), and EfficientNet w/ ground truth (the paper's choice) — as
/// FID-vs-latency curves on both 512px cascades.
///
/// Paper claim to reproduce: EfficientNet trained on ground-truth images
/// achieves the lowest FID at every latency budget.
fn fig7(scale: Scale) -> Outcome {
    let variants: [(&str, DiscArch, RealClass); 4] = [
        ("resnet_w_gt", DiscArch::ResNet34, RealClass::GroundTruth),
        ("vit_w_gt", DiscArch::ViTB16, RealClass::GroundTruth),
        (
            "effnet_w_fake",
            DiscArch::EfficientNetV2,
            RealClass::HeavyOutputs,
        ),
        (
            "effnet_w_gt",
            DiscArch::EfficientNetV2,
            RealClass::GroundTruth,
        ),
    ];
    let mut t = Table::new(&["cascade", "discriminator", "threshold", "latency_s", "fid"]);
    let mut notes = Vec::new();
    for id in [CascadeId::One, CascadeId::Two] {
        for (name, arch, real_class) in variants {
            let runtime = CascadeRuntime::prepare(
                id.spec(),
                scale.dataset_size(),
                EXPERIMENT_SEED,
                DiscriminatorConfig {
                    arch,
                    real_class,
                    ..scale.discriminator()
                },
            );
            let rule = RoutingRule::Discriminator(&runtime.discriminator);
            let mut area = 0.0; // under the FID-latency curve (lower = better)
            let mut prev: Option<(f64, f64)> = None;
            for i in 0..=10 {
                let thr = i as f64 / 10.0;
                let e = evaluate_cascade(
                    &runtime.dataset,
                    &runtime.spec.light,
                    &runtime.spec.heavy,
                    &rule,
                    thr,
                );
                if let Some((pl, pf)) = prev {
                    area += 0.5 * (e.fid + pf) * (e.mean_latency - pl);
                }
                prev = Some((e.mean_latency, e.fid));
                t.row(vec![
                    runtime.spec.name.into(),
                    name.into(),
                    f2(thr),
                    f3(e.mean_latency),
                    f3(e.fid),
                ]);
            }
            notes.push(format!(
                "{} {name}: area under the FID-latency curve {area:.2}",
                runtime.spec.name
            ));
        }
    }
    Outcome {
        notes,
        ..Outcome::new(t)
    }
}

/// Figure 8: resource-allocation ablation on the dynamic trace — full
/// DiffServe vs Static-Threshold, No-queuing-model (2× execution
/// heuristic) and AIMD batching — on both engines: the discrete-event
/// simulator and the thread-based cluster testbed (1/20 of real time).
///
/// Paper claims to reproduce (shape): the static threshold loses quality
/// off-peak (up to 19%); AIMD suffers markedly more SLO violations (up to
/// +20%); the 2×-execution queuing heuristic loses quality off-peak (up to
/// 12%) by mis-estimating queuing delays.
fn fig8(scale: Scale) -> Outcome {
    let runtime = scale.runtime(CascadeId::One);
    let config = SystemConfig::default();
    let trace = azure(scale, 4.0, 32.0);
    let duration = trace.duration().as_secs_f64();
    let mut t = Table::new(&[&["engine", "variant"], &DIURNAL_SUMMARY[..]].concat());
    for (name, knobs) in [
        ("DiffServe", AblationKnobs::default()),
        ("Static threshold", AblationKnobs::static_threshold(0.45)),
        ("No queuing model", AblationKnobs::no_queue_model()),
        ("AIMD", AblationKnobs::aimd()),
    ] {
        let settings = RunSettings {
            knobs,
            ..RunSettings::new(Policy::DiffServe, trace.max_qps())
        };
        for (engine, r) in [
            ("sim", run_trace(&runtime, &config, &settings, &trace)),
            (
                "cluster",
                run_cluster(&runtime, &config, &settings, &trace, TESTBED_TIME_SCALE),
            ),
        ] {
            t.row(
                [
                    vec![engine.into(), name.into()],
                    diurnal_summary(&r, duration),
                ]
                .concat(),
            );
        }
    }
    Outcome::new(t)
}

/// Figure 9: sensitivity to the SLO — average FID and average violation
/// ratio of DiffServe as the latency SLO sweeps 1..10 s, Cascade 1 on the
/// dynamic trace.
///
/// Paper claim to reproduce: DiffServe holds low violations (<5%) across
/// the whole range, with quality improving (FID falling) as the SLO
/// relaxes and plateauing once latency stops binding.
fn fig9(scale: Scale) -> Outcome {
    let runtime = scale.runtime(CascadeId::One);
    let trace = azure(scale, 4.0, 32.0);
    let mut t = Table::new(&["slo_s", "avg_fid", "avg_slo_violation"]);
    for slo_s in 1..=10u64 {
        let config = SystemConfig {
            slo: SimDuration::from_secs(slo_s),
            ..Default::default()
        };
        let settings = RunSettings::new(Policy::DiffServe, trace.max_qps());
        let r = run_trace(&runtime, &config, &settings, &trace);
        t.row(vec![
            slo_s.to_string(),
            f3(r.mean_windowed_fid),
            f3(r.violation_ratio),
        ]);
    }
    Outcome::new(t)
}

/// §5 "Reuse Opportunities": warm-starting the heavyweight model from the
/// lightweight model's intermediate output.
///
/// Paper claim to reproduce: with 50 denoising steps, reusing SD-Turbo
/// latents in SDv1.5 shows no significant FID change, while reusing SDXS
/// latents *hurts* (paper: 18.55 → 19.75 on MS-COCO) because the pair is
/// less compatible.
fn reuse(scale: Scale) -> Outcome {
    let mut t = Table::new(&["cascade", "mode", "fid", "delta"]);
    // Compatibility penalty of warm-starting the heavy model from the light
    // model's latents: none for SD-Turbo (same latent family as SDv1.5), a
    // quality cost for SDXS (the paper observes the FID regression).
    for (id, reuse_shift) in [(CascadeId::One, 0.0), (CascadeId::Two, -0.055)] {
        let runtime = scale.runtime(id);
        let (light, heavy) = (&runtime.spec.light, &runtime.spec.heavy);
        let dataset = &runtime.dataset;
        let rule = RoutingRule::Discriminator(&runtime.discriminator);

        // Baseline: the normal cascade at the threshold the paper's system
        // would run off-peak (high threshold, most queries deferred).
        let thr = 0.7;
        let base = evaluate_cascade(dataset, light, heavy, &rule, thr);

        // Reuse: deferred queries are regenerated by the heavy model
        // *warm-started* from the light latents (quality shift applies).
        let features: Vec<Vec<f64>> = dataset
            .prompts()
            .iter()
            .map(|p| {
                let li = light.generate(p);
                if runtime.discriminator.confidence(&li.features) >= thr {
                    li.features
                } else {
                    heavy.generate_with_quality_shift(p, reuse_shift).features
                }
            })
            .collect();
        let refs: Vec<&[f64]> = features.iter().map(|f| f.as_slice()).collect();
        let generated = GaussianStats::fit(&Mat::from_rows(&refs), 1e-6).expect("two or more rows");
        let reuse_fid =
            frechet_distance(&generated, dataset.reference()).expect("well-conditioned features");

        t.row(vec![
            runtime.spec.name.into(),
            "no-reuse".into(),
            f3(base.fid),
            "-".into(),
        ]);
        t.row(vec![
            runtime.spec.name.into(),
            "reuse".into(),
            f3(reuse_fid),
            format!("{:+.2}", reuse_fid - base.fid),
        ]);
    }
    Outcome {
        notes: vec!["(paper: SD-Turbo reuse ≈ no change; SDXS reuse 18.55 → 19.75)".into()],
        ..Outcome::new(t)
    }
}

/// Violation level considered "recovered" after a perturbation.
const RECOVERY_TARGET: f64 = 0.10;

/// Scenario sweep: every Table 1 policy under the standard stress library
/// (steady control, flash crowd, worker failure with recovery, staggered
/// double failure, cascading failure, persistent demand shock, hard-prompt
/// shift, brownout, and the load-correlated hazard cascade), on a reduced
/// runtime at both scales.
///
/// For each (scenario, policy) pair the table reports the paper's core
/// metrics plus the *recovery time*: seconds after the scenario's first
/// perturbation until the windowed violation ratio returns to ≤ 10%. This
/// is the regime the paper's evaluation does not reach (its demand curves
/// are smooth); query-aware adaptive provisioning should dominate the
/// static baselines exactly here.
///
/// Smoke: DiffServe only, over the steady control, the correlated-failure
/// stressor and the partial degradation (brownout), on a 60 s horizon
/// (240 s at full scale).
fn scenarios(scale: Scale) -> Outcome {
    let smoke = scale == Scale::Smoke;
    let runtime = Scale::Smoke.runtime(CascadeId::One);
    let system = SystemConfig {
        num_workers: 8,
        ..Default::default()
    };
    // A moderately loaded base: ~60% of what 8 workers sustain with the
    // cascade, leaving headroom the perturbations then eat.
    let horizon = if smoke { 60 } else { 240 };
    let base = Trace::constant(6.0, SimDuration::from_secs(horizon)).expect("valid base trace");
    let mut scenarios = standard_scenarios(&base, system.num_workers);
    let policies: Vec<Policy> = if smoke {
        scenarios.retain(|s| matches!(s.name(), "steady" | "cascading-failure" | "brownout"));
        vec![Policy::DiffServe]
    } else {
        Policy::all().to_vec()
    };

    let mut t = Table::new(&[
        "scenario",
        "policy",
        "slo_viol",
        "fid",
        "mean_lat_s",
        "heavy_frac",
        "recovery_s",
    ]);
    for scenario in &scenarios {
        let onsets = scenario.perturbation_onsets();
        // Peak hint: what the scenario can reach, so static policies get a
        // fair peak-provisioned bootstrap.
        let peak = scenario.effective_trace().max_qps();
        for &policy in &policies {
            let report = run_scenario(&runtime, &system, &RunSettings::new(policy, peak), scenario);
            // Worst recovery over all perturbations: a perturbation that
            // never recovers inside the run reports "never".
            let recovery = onsets
                .iter()
                .map(|&at| report.recovery_time_after(at, RECOVERY_TARGET))
                .collect::<Option<Vec<f64>>>()
                .map(|r| r.into_iter().fold(0.0f64, f64::max));
            let recovery_cell = match (onsets.is_empty(), recovery) {
                (true, _) => "n/a".to_string(),
                (false, Some(s)) => f2(s),
                (false, None) => "never".to_string(),
            };
            t.row(vec![
                scenario.name().into(),
                policy.name().into(),
                f3(report.violation_ratio),
                f3(report.fid),
                f3(report.mean_latency),
                f3(report.heavy_fraction),
                recovery_cell,
            ]);
        }
    }
    Outcome::new(t)
}

/// The 8-worker fleet and the base trace the four gated extensions share:
/// 6 QPS, for 40 s at smoke scale and 90 s at full scale. With the default
/// 16 workers the solver has enough slack to push every query to the
/// terminal tier and the comparisons are vacuous.
fn gate_setup(scale: Scale) -> (SystemConfig, Trace) {
    let secs = if scale == Scale::Smoke { 40 } else { 90 };
    let system = SystemConfig {
        num_workers: 8,
        ..Default::default()
    };
    let base = Trace::constant(6.0, SimDuration::from_secs(secs)).expect("valid trace");
    (system, base)
}

/// One scenario run under a baseline and under a variant configuration.
type Paired = (String, RunReport, RunReport);

/// The means of `f` over the scenarios' baseline and variant runs.
fn scenario_means(pairs: &[Paired], f: impl Fn(&RunReport) -> f64) -> (f64, f64) {
    let n = pairs.len() as f64;
    (
        pairs.iter().map(|p| f(&p.1)).sum::<f64>() / n,
        pairs.iter().map(|p| f(&p.2)).sum::<f64>() / n,
    )
}

/// A claim over every scenario: it holds unless `broken` fires for one,
/// and names the scenarios where it does.
fn in_every_scenario(
    name: &'static str,
    pairs: &[Paired],
    broken: impl Fn(&RunReport, &RunReport) -> bool,
) -> Claim {
    let failed: Vec<&str> = pairs
        .iter()
        .filter(|(_, base, variant)| broken(base, variant))
        .map(|(scenario, ..)| scenario.as_str())
        .collect();
    let detail = if failed.is_empty() {
        format!("all {} scenarios", pairs.len())
    } else {
        format!("fails in {}", failed.join(", "))
    };
    Claim::unless(name, !failed.is_empty(), detail)
}

/// Extension: stage-level micro-serving. With the pipeline split into
/// encode → denoise → decode stages, an escalated query *resumes* heavy
/// denoising from the light tier's latents
/// (`SystemConfig::resume_from_latents`) instead of restarting. The nine
/// standard scenarios run under restart and under resume escalation.
///
/// Gate: resume must beat restart on escalated latency and GPU time in
/// every scenario, and must not lose on violations in any scenario or on
/// FID in the scenario mean.
fn ext_pipeline(scale: Scale) -> Outcome {
    let runtime = scale.runtime(CascadeId::One);
    let (system, base) = gate_setup(scale);
    let resume_system = SystemConfig {
        resume_from_latents: true,
        ..system.clone()
    };
    let mut t = Table::new(&[
        "scenario",
        "mode",
        "lat_s",
        "heavy_lat_s",
        "gpu_s_per_q",
        "fid",
        "viol",
        "resumed",
    ]);
    let mut pairs: Vec<Paired> = Vec::new();
    for scenario in standard_scenarios(&base, system.num_workers) {
        let settings = RunSettings::new(Policy::DiffServe, scenario.effective_trace().max_qps());
        let restart = run_scenario(&runtime, &system, &settings, &scenario);
        let resume = run_scenario(&runtime, &resume_system, &settings, &scenario);
        for (mode, r) in [("restart", &restart), ("resume", &resume)] {
            t.row(vec![
                scenario.name().into(),
                mode.into(),
                f3(r.mean_latency),
                f3(r.mean_heavy_latency),
                f3(r.gpu_time_per_query),
                f3(r.fid),
                f3(r.violation_ratio),
                r.resumed_queries.to_string(),
            ]);
        }
        pairs.push((scenario.name().into(), restart, resume));
    }

    let hlat = scenario_means(&pairs, |r| r.mean_heavy_latency);
    let gpu = scenario_means(&pairs, |r| r.gpu_time_per_query);
    let lat = scenario_means(&pairs, |r| r.mean_latency);
    let fid = scenario_means(&pairs, |r| r.fid);
    let viol = scenario_means(&pairs, |r| r.violation_ratio);
    let notes = vec![format!(
        "scenario means (restart -> resume): heavy latency {:.3}s -> {:.3}s ({:.1}%), \
         gpu/query {:.3}s -> {:.3}s ({:.1}%), e2e latency {:.3}s -> {:.3}s, \
         fid {:.2} -> {:.2}, violations {:.4} -> {:.4}",
        hlat.0,
        hlat.1,
        100.0 * (hlat.1 / hlat.0 - 1.0),
        gpu.0,
        gpu.1,
        100.0 * (gpu.1 / gpu.0 - 1.0),
        lat.0,
        lat.1,
        fid.0,
        fid.1,
        viol.0,
        viol.1,
    )];
    let claims = vec![
        in_every_scenario("resume mode resumes escalations", &pairs, |_, resume| {
            resume.resumed_queries == 0
        }),
        in_every_scenario(
            "resume cuts escalated latency",
            &pairs,
            |restart, resume| resume.mean_heavy_latency >= restart.mean_heavy_latency,
        ),
        in_every_scenario(
            "resume cuts GPU-time per query",
            &pairs,
            |restart, resume| resume.gpu_time_per_query >= restart.gpu_time_per_query,
        ),
        in_every_scenario(
            "resume adds no SLO violations",
            &pairs,
            |restart, resume| resume.violation_ratio > restart.violation_ratio,
        ),
        Claim::unless(
            "resume keeps the scenario-mean FID",
            fid.1 > fid.0,
            format!("{:.3} vs restart {:.3}", fid.1, fid.0),
        ),
    ];
    Outcome {
        table: t,
        notes,
        claims,
    }
}

/// The module the style-shift flash crowd pivots onto: deliberately
/// unpopular under the Zipf baseline, so it is cold on most caches when
/// the shift hits.
const SHIFT_MODULE: usize = 9;

/// Extension: add-on-aware serving. Production diffusion traffic carries
/// add-on modules (LoRA styles, ControlNet conditioners) that a worker must
/// load before serving, and a cache miss charges the module's load latency
/// to the whole batch. The affinity-aware router runs against the
/// affinity-blind ablation, at equal fleet size over the same seeded query
/// stream (the per-query add-on draw is routing-independent), in the
/// steady scenario and under `style-shift-flash-crowd`: a flash crowd
/// whose add-on demand pivots onto one previously-cold module.
///
/// Gate: both modes exercise the module caches everywhere, and under the
/// style-shift flash crowd the affinity-aware router strictly beats the
/// blind one on SLO violations and on mean swap time.
fn ext_addons(scale: Scale) -> Outcome {
    let runtime = scale.runtime(CascadeId::One);
    let (system, base) = gate_setup(scale);
    let system = SystemConfig {
        addons: Some(AddonsConfig::demo(EXPERIMENT_SEED)),
        ..system
    };
    let mut t = Table::new(&[
        "scenario",
        "routing",
        "viol",
        "lat_s",
        "hit_rate",
        "mean_swap_s",
        "fid",
    ]);
    let mut pairs: Vec<Paired> = Vec::new();
    for scenario in [
        Scenario::new("steady", base.clone()),
        style_shift_flash_crowd(&base, SHIFT_MODULE),
    ] {
        let aware_settings =
            RunSettings::new(Policy::DiffServe, scenario.effective_trace().max_qps());
        let blind_settings = RunSettings {
            knobs: AblationKnobs::affinity_blind(),
            ..aware_settings.clone()
        };
        let aware = run_scenario(&runtime, &system, &aware_settings, &scenario);
        let blind = run_scenario(&runtime, &system, &blind_settings, &scenario);
        for (mode, r) in [("affinity-aware", &aware), ("affinity-blind", &blind)] {
            t.row(vec![
                scenario.name().into(),
                mode.into(),
                f3(r.violation_ratio),
                f3(r.mean_latency),
                f3(r.addon_stats.total_hit_rate()),
                f3(r.addon_stats.total_mean_swap_secs()),
                f3(r.fid),
            ]);
        }
        pairs.push((scenario.name().into(), blind, aware));
    }

    let (_, blind, aware) = pairs
        .iter()
        .find(|(n, ..)| n == "style-shift-flash-crowd")
        .expect("gate scenario present");
    let (aware_swap, blind_swap) = (
        aware.addon_stats.total_mean_swap_secs(),
        blind.addon_stats.total_mean_swap_secs(),
    );
    let claims = vec![
        // A zero-lookup run means the draw is broken, not that routing is
        // perfect.
        in_every_scenario("both routings look up add-ons", &pairs, |blind, aware| {
            aware.addon_stats.total_lookups() == 0 || blind.addon_stats.total_lookups() == 0
        }),
        Claim::unless(
            "affinity routing cuts violations under the style-shift flash crowd",
            aware.violation_ratio >= blind.violation_ratio,
            format!(
                "{:.4} vs blind {:.4}",
                aware.violation_ratio, blind.violation_ratio
            ),
        ),
        Claim::unless(
            "affinity routing cuts mean swap time under the style-shift flash crowd",
            aware_swap >= blind_swap,
            format!("{aware_swap:.4} vs blind {blind_swap:.4}"),
        ),
    ];
    Outcome {
        claims,
        ..Outcome::new(t)
    }
}

/// Extension: the N-tier quality ladder vs the two-tier cascade. The
/// paper's cascade is a two-rung ladder: every query pays the light model
/// first and escalates at most once. Over an ordered `TierLadder` the
/// controller solves worker counts and a threshold vector over N tiers, mid
/// tiers catch queries too hard for the entry model that do not need the
/// full heavy pass, and the online predictive router sends predicted-hard
/// prompts straight to a deeper tier. The nine standard scenarios run on
/// the two-tier Cascade 1 and on the 3-tier `ladder3` (same entry and
/// terminal models, SDv1.5-DPMS++ in between) with predictive routing.
///
/// Gate: over the scenario means the ladder has equal-or-fewer SLO
/// violations and strictly lower GPU-time per query, and the mid tier
/// serves traffic (otherwise the ladder degenerated to the baseline).
fn ext_ladder(scale: Scale) -> Outcome {
    let two_tier = scale.runtime(CascadeId::One);
    let ladder = scale.ladder_runtime(ladder3(FeatureSpec::default()));
    let (system, base) = gate_setup(scale);
    let ladder_system = SystemConfig {
        ladder: Some(LadderConfig::default()),
        ..system.clone()
    };
    let mut t = Table::new(&[
        "scenario",
        "config",
        "lat_s",
        "gpu_s_per_q",
        "fid",
        "viol",
        "tier_completions",
    ]);
    let mut pairs: Vec<Paired> = Vec::new();
    for scenario in standard_scenarios(&base, system.num_workers) {
        let settings = RunSettings::new(Policy::DiffServe, scenario.effective_trace().max_qps());
        let baseline = run_scenario(&two_tier, &system, &settings, &scenario);
        let laddered = run_scenario(&ladder, &ladder_system, &settings, &scenario);
        for (config, r) in [("two_tier", &baseline), ("ladder3", &laddered)] {
            let completions: Vec<String> = r
                .tier_breakdown
                .iter()
                .map(|s| s.completions.to_string())
                .collect();
            t.row(vec![
                scenario.name().into(),
                config.into(),
                f3(r.mean_latency),
                f3(r.gpu_time_per_query),
                f3(r.fid),
                f3(r.violation_ratio),
                completions.join("/"),
            ]);
        }
        pairs.push((scenario.name().into(), baseline, laddered));
    }

    let gpu = scenario_means(&pairs, |r| r.gpu_time_per_query);
    let viol = scenario_means(&pairs, |r| r.violation_ratio);
    let lat = scenario_means(&pairs, |r| r.mean_latency);
    let fid = scenario_means(&pairs, |r| r.fid);
    let mid_tier_completions: u64 = pairs
        .iter()
        .flat_map(|p| p.2.tier_breakdown.iter())
        .filter(|s| s.tier > 0 && s.tier < 2)
        .map(|s| s.completions)
        .sum();
    let notes = vec![format!(
        "scenario means (two-tier -> ladder3): gpu/query {:.3}s -> {:.3}s ({:+.1}%), \
         violations {:.4} -> {:.4}, e2e latency {:.3}s -> {:.3}s, fid {:.2} -> {:.2}",
        gpu.0,
        gpu.1,
        100.0 * (gpu.1 / gpu.0 - 1.0),
        viol.0,
        viol.1,
        lat.0,
        lat.1,
        fid.0,
        fid.1,
    )];
    let claims = vec![
        Claim::unless(
            "the ladder adds no scenario-mean SLO violations",
            viol.1 > viol.0,
            format!("{:.4} vs two-tier {:.4}", viol.1, viol.0),
        ),
        Claim::unless(
            "the ladder cuts scenario-mean GPU-time per query",
            gpu.1 >= gpu.0,
            format!("{:.3}s vs two-tier {:.3}s", gpu.1, gpu.0),
        ),
        Claim::unless(
            "the mid tier completes queries",
            mid_tier_completions == 0,
            format!("{mid_tier_completions} completions"),
        ),
    ];
    Outcome {
        table: t,
        notes,
        claims,
    }
}

/// Extension: incident record/replay across the policy matrix. One
/// hazard-bearing stress run is *recorded* under DiffServe, and
/// [`Scenario::replay`] lowers its incident log into a scenario that then
/// runs under all five policies — so the comparison isolates policy
/// behaviour under an identical fault timeline instead of letting each
/// policy's load draw its own hazards.
///
/// Gate: the recording fired incidents, DiffServe's replay reproduces the
/// recording bit-exactly (the simulator promises it), and every policy
/// completes queries under the replay.
fn replay_matrix(scale: Scale) -> Outcome {
    let runtime = scale.runtime(CascadeId::One);
    let (system, base) = gate_setup(scale);
    let dur = base.duration().as_secs_f64();
    let stress = Scenario::new("stress", base)
        .flash_crowd(
            SimTime::from_secs_f64(0.3 * dur),
            SimDuration::from_secs_f64(0.05 * dur),
            SimDuration::from_secs_f64(0.2 * dur),
            2.0,
        )
        .with_hazard(Hazard {
            // Hot enough that the recording reliably contains incidents.
            fail_rate: 0.01,
            degrade_rate: 0.03,
            ..Hazard::default()
        });
    let peak = stress.effective_trace().max_qps();
    let recorded = run_scenario(
        &runtime,
        &system,
        &RunSettings::new(Policy::DiffServe, peak),
        &stress,
    );

    let replayed = stress.replay(&recorded.incident_log);
    let mut t = Table::new(&["policy", "viol", "lat_s", "fid", "dropped", "incidents"]);
    let mut diverged = None;
    let mut idle = Vec::new();
    for policy in Policy::all() {
        let r = run_scenario(
            &runtime,
            &system,
            &RunSettings::new(policy, peak),
            &replayed,
        );
        // Same engine, same seed, same fault timeline: the replayed run
        // must reproduce the recording.
        if policy == Policy::DiffServe {
            diverged = Some(
                r.violation_ratio != recorded.violation_ratio
                    || r.total_queries != recorded.total_queries
                    || r.incident_log != recorded.incident_log,
            );
        }
        if r.completed == 0 {
            idle.push(policy.name());
        }
        t.row(vec![
            policy.name().into(),
            f3(r.violation_ratio),
            f3(r.mean_latency),
            f3(r.fid),
            r.dropped.to_string(),
            r.incident_log.len().to_string(),
        ]);
    }
    let incidents = recorded.incident_log.len();
    let claims = vec![
        Claim::unless(
            "the recording fires incidents",
            incidents == 0,
            format!("{incidents} incidents over {dur:.0}s of DiffServe under hazard"),
        ),
        Claim::unless(
            "DiffServe's replay is bit-exact against the recording",
            diverged.expect("DiffServe is a policy"),
            format!(
                "viol {:.6}, {} queries recorded",
                recorded.violation_ratio, recorded.total_queries
            ),
        ),
        Claim::unless(
            "every policy completes queries under the replay",
            !idle.is_empty(),
            if idle.is_empty() {
                "all policies".into()
            } else {
                format!("{} completed nothing", idle.join(", "))
            },
        ),
    ];
    Outcome {
        claims,
        ..Outcome::new(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> impl Iterator<Item = String> {
        list.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn ids_are_unique_and_name_the_binaries_they_replace() {
        let mut ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        let mut replaced = [
            "ext_addons",
            "ext_ladder",
            "ext_pipeline",
            "fig1a",
            "fig1b",
            "fig1c",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "replay_matrix",
            "reuse",
            "scenarios",
            "table1",
        ];
        replaced.sort_unstable();
        assert_eq!(ids, replaced);
    }

    #[test]
    fn every_experiment_names_its_paper_artefact_or_is_an_extension() {
        for e in EXPERIMENTS {
            let artefact = ["Fig. ", "Table ", "§"]
                .iter()
                .any(|prefix| e.paper.starts_with(prefix));
            assert!(
                artefact || e.paper == "extension",
                "{}: `{}` names no paper artefact",
                e.id,
                e.paper
            );
            assert_eq!(
                e.paper == "extension",
                e.id.starts_with("ext_") || ["scenarios", "replay_matrix"].contains(&e.id),
                "{}",
                e.id
            );
        }
    }

    #[test]
    fn no_id_selects_every_experiment_in_table_order() {
        let (scale, selected) = parse(args(&[])).unwrap();
        assert_eq!(scale, Scale::Full);
        assert_eq!(selected.len(), EXPERIMENTS.len());
        let (scale, selected) = parse(args(&["fig9", "--smoke", "table1"])).unwrap();
        assert_eq!(scale, Scale::Smoke);
        let ids: Vec<&str> = selected.iter().map(|e| e.id).collect();
        assert_eq!(ids, ["fig9", "table1"]);
    }

    #[test]
    fn an_unknown_id_is_rejected_with_the_valid_ids() {
        for bad in ["fig2", "--full"] {
            let err = parse(args(&["fig1a", bad])).err().expect("rejected");
            assert!(err.contains(&format!("`{bad}`")), "{err}");
            for e in EXPERIMENTS {
                assert!(err.contains(e.id), "{err} omits {}", e.id);
            }
        }
    }
}
