//! The resource manager (paper §3.3).
//!
//! Given the demand estimate, queue-delay estimates, and the deferral
//! profile `f(t)`, the allocator picks the confidence threshold `t`, worker
//! counts `x₁/x₂`, and batch sizes `b₁/b₂` that maximize `t` subject to the
//! paper's constraints:
//!
//! * throughput: `x₁·T₁(b₁) ≥ D` (Eq. 2) and `x₂·T₂(b₂) ≥ D·f(t)` (Eq. 3)
//! * capacity: `x₁ + x₂ ≤ S` (Eq. 4)
//! * latency: `e(b₁) + q₁ + e(b₂) + q₂ ≤ SLO` (Eq. 1)
//!
//! Every serving tick plans by enumeration — [`solve_exhaustive`],
//! [`solve_proteus`] and [`solve_ladder`] scan the batch tuples, at most
//! 125 at the paper's 5 batch sizes and 3 tiers — reading one table of
//! stage numbers and `f(t_l)` built per tick. The paper solves the same
//! problem as a MILP with Gurobi; here that formulation
//! ([`solve_milp_allocation`], on `diffserve-milp`) and its knapsack
//! searches ([`solve_milp_allocation_warm`], `solve_ladder` with `milp`)
//! are the oracle: tests, and debug builds on every served tick, assert
//! that they plan exactly what the enumerators plan. An oracle search
//! keeps its solver state to itself: its probes share one remembered
//! point, and only the two-tier search's threshold pin
//! ([`AllocWarmState`]) reaches the next tick.
//!
//! Every planner returns a [`LadderAllocation`]; a two-tier plan is the
//! N = 2 one, its `thresholds[0]` the cascade threshold or Proteus's heavy
//! routing fraction. One overload fallback body serves every tier count.

use diffserve_imagegen::{DeferralProfile, LatencyProfile};
use diffserve_milp::{
    find_feasible, solve_milp, solve_milp_warm, Direction, MilpOptions, Problem, Sense, VarKind,
    WarmStart,
};

/// Inputs to one allocation decision.
#[derive(Debug, Clone)]
pub struct AllocatorInputs<'a> {
    /// Over-provisioned demand estimate `λD` in QPS.
    pub demand_qps: f64,
    /// Estimated queuing delay ahead of the light stage, seconds.
    pub queue_delay_light: f64,
    /// Estimated queuing delay ahead of the heavy stage, seconds.
    pub queue_delay_heavy: f64,
    /// Latency SLO in seconds.
    pub slo: f64,
    /// Total workers `S`.
    pub total_workers: usize,
    /// Deferral profile `f(t)`.
    pub deferral: &'a DeferralProfile,
    /// Light-model execution profile.
    pub light: LatencyProfile,
    /// Heavy-model execution profile.
    pub heavy: LatencyProfile,
    /// Effective heavy execution profile for escalations that *resume*
    /// from light-tier latents (stage-level serving). When set, the
    /// cascade latency constraint (Eq. 1) charges this cheaper profile —
    /// every escalated query carries latents, so the discount is exact —
    /// while the throughput constraint (Eq. 3) deliberately stays on the
    /// nameplate [`heavy`](Self::heavy) profile: savings are not banked as
    /// capacity, so the deferral mix the threshold encodes is unchanged.
    /// `None` in restart mode.
    pub resume_heavy: Option<LatencyProfile>,
    /// Per-image discriminator latency in seconds (added to the light stage).
    pub discriminator_latency: f64,
    /// Candidate batch sizes.
    pub batch_sizes: &'a [usize],
    /// Candidate confidence thresholds (ascending).
    pub thresholds: &'a [f64],
}

/// What a planner reads instead of re-deriving it per probe and tuple:
/// every tier's [`StageCell`] at every candidate batch `B_j`, and every
/// boundary's `f_k(t_l)` at every grid level. Built once per tick with
/// [`LatencyProfile`]'s own arithmetic, in its order, so each number is
/// the bits the formula gives; the `f_k(t_l)` are copied from the
/// profile's own grid table ([`DeferralProfile::fractions_deferred`]).
#[derive(Debug, Clone, Default)]
struct StageTable {
    /// Candidate batch sizes `|B|`, the stride of `cells`.
    batches: usize,
    /// Threshold grid levels, the stride of `deferred`.
    levels: usize,
    /// `cells[k·|B| + j]`: tier `k` at batch `B_j`.
    cells: Vec<StageCell>,
    /// `deferred[k·L + l]`: boundary `k`'s `f_k(t_l)`.
    deferred: Vec<f64>,
}

/// One tier at one candidate batch size, as the planners read it.
#[derive(Debug, Clone, Copy)]
struct StageCell {
    /// The tier's term in the cascade latency row (Eq. 1): model
    /// execution plus, on non-terminal tiers, the discriminator's
    /// per-image cost; on the terminal tier of a resuming two-tier
    /// cascade, the discounted profile's execution.
    latency: f64,
    /// One worker's serving throughput, discriminator included and never
    /// discounted (Eqs. 2–3).
    throughput: f64,
    /// The model's own throughput, which the overload fallbacks maximize.
    nameplate: f64,
}

impl StageTable {
    /// Refills the table in place for `tiers` (cheapest first) with
    /// boundary `k` charging `discriminators[k]` seconds per image, the
    /// terminal tier's latency term on `resume` when set, and one
    /// deferral profile per boundary; a refill allocates nothing once the
    /// columns have grown.
    fn fill(
        &mut self,
        tiers: &[LatencyProfile],
        discriminators: &[f64],
        resume: Option<&LatencyProfile>,
        batch_sizes: &[usize],
        deferrals: &[&DeferralProfile],
        thresholds: &[f64],
    ) {
        self.batches = batch_sizes.len();
        self.levels = thresholds.len();
        self.cells.clear();
        self.cells.reserve(tiers.len() * self.batches);
        for (k, profile) in tiers.iter().enumerate() {
            for &b in batch_sizes {
                let exec = profile.exec_latency(b).as_secs_f64();
                let stage = match discriminators.get(k) {
                    Some(d) => exec + d * b as f64,
                    None => exec,
                };
                self.cells.push(StageCell {
                    latency: match resume {
                        Some(r) if k + 1 == tiers.len() => r.exec_latency(b).as_secs_f64(),
                        _ => stage,
                    },
                    throughput: b as f64 / stage,
                    nameplate: b as f64 / exec,
                });
            }
        }
        self.deferred.clear();
        self.deferred.reserve(deferrals.len() * self.levels);
        for f in deferrals {
            self.deferred.extend(f.fractions_deferred(thresholds));
        }
    }

    /// The two-tier cascade's table; `cascade` off (Proteus) charges no
    /// discriminator and no resume discount.
    fn two_tier(inputs: &AllocatorInputs<'_>, cascade: bool) -> Self {
        let mut table = StageTable::default();
        table.fill(
            &[inputs.light, inputs.heavy],
            &[if cascade {
                inputs.discriminator_latency
            } else {
                0.0
            }],
            inputs.resume_heavy.as_ref().filter(|_| cascade),
            inputs.batch_sizes,
            &[inputs.deferral],
            inputs.thresholds,
        );
        table
    }

    /// The N-tier ladder's table.
    fn ladder(inputs: &LadderInputs<'_>) -> Self {
        let mut table = StageTable::default();
        table.fill_ladder(inputs);
        table
    }

    /// Refills the table for `inputs`.
    fn fill_ladder(&mut self, inputs: &LadderInputs<'_>) {
        self.fill(
            &inputs.tiers,
            &inputs.discriminator_latency,
            None,
            inputs.batch_sizes,
            &inputs.deferrals,
            inputs.thresholds,
        );
    }

    fn cell(&self, k: usize, j: usize) -> &StageCell {
        &self.cells[k * self.batches + j]
    }

    /// Index of tier `k`'s nameplate-throughput-maximizing batch (the last
    /// of equals, as `max_by` picks).
    fn fastest_batch(&self, k: usize) -> usize {
        (0..self.batches)
            .max_by(|&a, &b| {
                let (a, b) = (self.cell(k, a).nameplate, self.cell(k, b).nameplate);
                a.partial_cmp(&b).expect("finite throughputs")
            })
            .expect("non-empty batch sizes")
    }

    fn deferred(&self, k: usize, l: usize) -> f64 {
        self.deferred[k * self.levels + l]
    }
}

/// Exhaustive solver: scans every `(b₁, b₂)` pair, gives all spare workers
/// to the heavy tier (the objective only rewards a higher threshold), and
/// reads the largest feasible threshold off the deferral profile.
///
/// Returns `None` when no configuration satisfies the constraints — the
/// caller then falls back to [`overload_fallback`].
pub fn solve_exhaustive(inputs: &AllocatorInputs<'_>) -> Option<LadderAllocation> {
    let table = StageTable::two_tier(inputs, true);
    let d = inputs.demand_qps.max(1e-9);
    let s = inputs.total_workers;
    let sizes = inputs.batch_sizes;
    // The best candidate so far: its threshold level, its light and heavy
    // batch indices and its light workers.
    let mut best: Option<(usize, usize, usize, usize)> = None;

    for j in 0..table.batches {
        let x1_min = min_workers(d, table.cell(0, j).throughput) as usize;
        if x1_min + 1 > s {
            continue; // Need at least one heavy worker too.
        }
        for k in 0..table.batches {
            // Latency constraint (Eq. 1): worst case traverses both stages.
            // An escalated query resumes from latents when stage-level
            // serving is on, so the heavy leg charges the effective profile.
            let latency = table.cell(0, j).latency
                + inputs.queue_delay_light
                + table.cell(1, k).latency
                + inputs.queue_delay_heavy;
            if latency > inputs.slo {
                continue;
            }
            let x2 = s - x1_min;
            let max_fraction = ((x2 as f64 * table.cell(1, k).throughput) / d).min(1.0);
            // Largest grid threshold with f(t) within heavy capacity.
            let Some(l) = (0..table.levels)
                .rev()
                .find(|&l| table.deferred(0, l) <= max_fraction + 1e-12)
            else {
                continue;
            };
            let better = match best {
                None => true,
                Some((bl, bj, bk, _)) => {
                    let (t, bt) = (inputs.thresholds[l], inputs.thresholds[bl]);
                    t > bt + 1e-12
                        // Tie-break: smaller batches → lower latency slack.
                        || ((t - bt).abs() <= 1e-12
                            && (sizes[j], sizes[k]) < (sizes[bj], sizes[bk]))
                }
            };
            if better {
                best = Some((l, j, k, x1_min));
            }
        }
    }
    best.map(|(l, j, k, x1)| {
        two_tier_plan(inputs.thresholds[l], [x1, s - x1], [sizes[j], sizes[k]])
    })
}

/// A feasible two-tier plan: the N = 2 [`LadderAllocation`].
fn two_tier_plan(threshold: f64, workers: [usize; 2], batches: [usize; 2]) -> LadderAllocation {
    LadderAllocation {
        thresholds: vec![threshold],
        workers: workers.to_vec(),
        batches: batches.to_vec(),
        feasible: true,
    }
}

/// Tick-to-tick state for the oracle's [`solve_milp_allocation_warm`]:
/// the threshold the next tick's search starts from (the "pin").
#[derive(Debug, Clone, Default)]
pub struct AllocWarmState {
    pin: Option<f64>,
}

impl AllocWarmState {
    /// An empty state; the first search through it gallops up from the
    /// grid floor.
    pub fn new() -> Self {
        AllocWarmState::default()
    }

    /// Drop the pin; the next search starts from the grid floor.
    pub fn clear(&mut self) {
        self.pin = None;
    }

    /// `true` once a solve has gone through this handle, whatever its
    /// verdict.
    pub fn is_primed(&self) -> bool {
        self.pin.is_some()
    }

    /// Where the next tick's threshold search starts: the previous tick's
    /// optimal threshold, or the grid floor if that tick was infeasible.
    pub fn pinned_threshold(&self) -> Option<f64> {
        self.pin
    }
}

/// Variable handles for the full allocation MILP.
struct MilpVars {
    y: Vec<diffserve_milp::VarId>,
    v: Vec<diffserve_milp::VarId>,
    z: Vec<diffserve_milp::VarId>,
    w1: Vec<diffserve_milp::VarId>,
    w2: Vec<diffserve_milp::VarId>,
}

/// Build the full allocation MILP (paper Eq. 5): binary selectors `y_j`
/// (light batch), `v_k` (heavy batch), `z_l` (threshold level); integer
/// worker counts `w1_j`, `w2_k` active only under their selected batch
/// size, with `S` as the big-M. The products in Eqs. 2–3 linearize
/// because throughput coefficients are constants per batch size.
fn build_allocation_milp(inputs: &AllocatorInputs<'_>) -> (Problem, MilpVars) {
    let table = StageTable::two_tier(inputs, true);
    let d = inputs.demand_qps.max(1e-9);
    let s = inputs.total_workers as f64;
    let nb = inputs.batch_sizes.len();
    let nt = inputs.thresholds.len();

    let mut p = Problem::new(Direction::Maximize);
    let y: Vec<_> = (0..nb).map(|j| p.add_binary(format!("y{j}"))).collect();
    let v: Vec<_> = (0..nb).map(|k| p.add_binary(format!("v{k}"))).collect();
    let z: Vec<_> = (0..nt).map(|l| p.add_binary(format!("z{l}"))).collect();
    let w1: Vec<_> = (0..nb)
        .map(|j| p.add_var(format!("w1_{j}"), VarKind::Integer, 0.0, s))
        .collect();
    let w2: Vec<_> = (0..nb)
        .map(|k| p.add_var(format!("w2_{k}"), VarKind::Integer, 0.0, s))
        .collect();

    // Exactly one batch size per tier, one threshold level.
    let ones = |vars: &[diffserve_milp::VarId]| -> Vec<(diffserve_milp::VarId, f64)> {
        vars.iter().map(|&id| (id, 1.0)).collect()
    };
    p.add_constraint("one-light-batch", &ones(&y), Sense::Eq, 1.0);
    p.add_constraint("one-heavy-batch", &ones(&v), Sense::Eq, 1.0);
    p.add_constraint("one-threshold", &ones(&z), Sense::Eq, 1.0);

    // Workers only under the selected batch size: w1_j ≤ S·y_j.
    for j in 0..nb {
        p.add_constraint(
            format!("light-active-{j}"),
            &[(w1[j], 1.0), (y[j], -s)],
            Sense::Le,
            0.0,
        );
        p.add_constraint(
            format!("heavy-active-{j}"),
            &[(w2[j], 1.0), (v[j], -s)],
            Sense::Le,
            0.0,
        );
    }

    // Eq. 2: Σ_j T1(B_j)·w1_j ≥ D.
    let light_tp: Vec<(diffserve_milp::VarId, f64)> = (0..nb)
        .map(|j| (w1[j], table.cell(0, j).throughput))
        .collect();
    p.add_constraint("light-throughput", &light_tp, Sense::Ge, d);

    // Eq. 3: Σ_k T2(B_k)·w2_k − D·Σ_l f(t_l)·z_l ≥ 0.
    let mut heavy_tp: Vec<(diffserve_milp::VarId, f64)> = (0..nb)
        .map(|k| (w2[k], table.cell(1, k).throughput))
        .collect();
    for (l, &z_l) in z.iter().enumerate() {
        // At (near) zero demand a level's deferred load is below what the
        // solver can price (1e-9), which `Problem` rejects: it is no load.
        let load = d * table.deferred(0, l);
        heavy_tp.push((z_l, if load > 1e-9 { -load } else { 0.0 }));
    }
    p.add_constraint("heavy-throughput", &heavy_tp, Sense::Ge, 0.0);

    // Eq. 4: Σ w1 + Σ w2 ≤ S.
    let mut cap = ones(&w1);
    cap.extend(ones(&w2));
    p.add_constraint("capacity", &cap, Sense::Le, s);
    // At least one worker per tier so routed queries always have a host.
    p.add_constraint("light-nonempty", &ones(&w1), Sense::Ge, 1.0);
    p.add_constraint("heavy-nonempty", &ones(&w2), Sense::Ge, 1.0);

    // Eq. 1: Σ_j e1(B_j)·y_j + Σ_k e2(B_k)·v_k ≤ SLO − q1 − q2. An infinite
    // SLO (the AIMD ablation, where reactive batching owns latency) waives
    // the constraint.
    let lat_budget = two_tier_latency_budget(inputs);
    if lat_budget.is_finite() {
        let mut lat: Vec<(diffserve_milp::VarId, f64)> =
            (0..nb).map(|j| (y[j], table.cell(0, j).latency)).collect();
        for (k, &v_k) in v.iter().enumerate() {
            lat.push((v_k, table.cell(1, k).latency));
        }
        p.add_constraint("latency", &lat, Sense::Le, lat_budget);
    }

    // Objective (Eq. 5): maximize the threshold. Tiny lexicographic
    // penalties make the optimum unique: smaller batches first (ranked by
    // size, whatever order the candidates come in), then minimal light
    // workers with the remainder on the heavy tier. The
    // penalty scales are far below the threshold grid spacing, so they can
    // never trade away objective value. They reproduce the exhaustive
    // solver's tie-break only while `1.1e-6·ΔU1 < 1e-4`, where `ΔU1` is
    // how far the light tier's minimal worker counts spread across batch
    // sizes — below ≈ 91 workers. On larger fleets a bigger light batch
    // can win by needing fewer light workers.
    let mut obj: Vec<(diffserve_milp::VarId, f64)> =
        (0..nt).map(|l| (z[l], inputs.thresholds[l])).collect();
    for j in 0..nb {
        let rank = size_rank(inputs.batch_sizes, j) as f64;
        obj.push((y[j], -1e-4 * rank));
        obj.push((v[j], -1e-5 * rank));
    }
    for j in 0..nb {
        obj.push((w1[j], -1e-6));
        obj.push((w2[j], 1e-7));
    }
    p.set_objective(&obj);

    (p, MilpVars { y, v, z, w1, w2 })
}

/// The paper's full allocation MILP (Eq. 1–5, `build_allocation_milp`),
/// solved cold with `diffserve-milp`: the formulation oracle for tests
/// and the per-layer probe. It plans what [`solve_exhaustive`] plans
/// below ≈ 91 workers, where its penalties still reproduce the
/// exhaustive tie-break; [`solve_milp_allocation_warm`] does at any
/// fleet size.
///
/// Returns `None` if the MILP is infeasible.
pub fn solve_milp_allocation(inputs: &AllocatorInputs<'_>) -> Option<LadderAllocation> {
    let (p, vars) = build_allocation_milp(inputs);
    let values = solve_milp(&p, &MilpOptions::default()).ok()?.values;
    let pick = |sel: &[diffserve_milp::VarId]| -> usize {
        sel.iter()
            .position(|&id| values[id.index()] > 0.5)
            .expect("exactly-one constraint guarantees a selection")
    };
    let workers = |w: &[diffserve_milp::VarId]| -> usize {
        w.iter().map(|id| values[id.index()] as usize).sum()
    };
    Some(two_tier_plan(
        inputs.thresholds[pick(&vars.z)],
        [workers(&vars.w1), workers(&vars.w2)],
        [
            inputs.batch_sizes[pick(&vars.y)],
            inputs.batch_sizes[pick(&vars.v)],
        ],
    ))
}

/// The largest level in `0..nt` at which `feasible` holds, or `None` when
/// not even level 0 does (or `nt` is 0): gallop out from `start`, then
/// binary-search the bracket. Exact from any `start` as long as `feasible`
/// is monotone — true up to some level and false above it. A steady-state
/// tick resolves in two probes (`start` feasible, `start + 1` not).
fn largest_feasible_level(
    nt: usize,
    start: usize,
    mut feasible: impl FnMut(usize) -> bool,
) -> Option<usize> {
    if nt == 0 {
        return None;
    }
    // Establish a bracket: `lo` feasible, `hi` infeasible.
    let (mut lo, mut hi, mut step) = (start, start, 1usize);
    if feasible(start) {
        // Gallop upward for an infeasible ceiling.
        loop {
            if lo + 1 >= nt {
                return Some(lo);
            }
            hi = (lo + step).min(nt - 1);
            if !feasible(hi) {
                break;
            }
            lo = hi;
            step *= 2;
        }
    } else {
        // Gallop downward for a feasible floor.
        loop {
            if hi == 0 {
                return None;
            }
            lo = hi.saturating_sub(step);
            if feasible(lo) {
                break;
            }
            hi = lo;
            step *= 2;
        }
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if feasible(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

/// How many candidate batch sizes are smaller than `sizes[j]`: the rank
/// the two-tier oracles break ties on, so that they rank batches as
/// [`solve_exhaustive`] does (by size) even on unsorted candidates, as
/// AIMD's two operating points come. On sorted candidates it is `j`.
fn size_rank(sizes: &[usize], j: usize) -> usize {
    sizes.iter().filter(|&&b| b < sizes[j]).count()
}

/// Workers a tier needs to serve `demand` at throughput `tp`: the minimal
/// count, and never an empty tier.
fn min_workers(demand: f64, tp: f64) -> f64 {
    (demand / tp).ceil().max(1.0)
}

/// One batch size as a [`BatchKnapsack`] choice.
#[derive(Debug, Clone, Copy)]
struct BatchChoice {
    /// Its latency-row term and one worker's throughput.
    cell: StageCell,
    /// Tie-break cost, added to any per-worker cost.
    penalty: f64,
}

/// The residual the oracle's knapsack searches solve once their
/// thresholds are fixed: a multiple-choice knapsack over batch selectors
/// `y_{g,j}`, one group `g` per tier.
///
/// Choosing batch `j` for group `g` takes `U_{g,j} = max(1, ⌈d_g /
/// T_g(B_j)⌉)` workers, the fewest that serve the group's demand `d_g`.
/// The rows are one `one-batch-g` equality per group, the shared
/// `capacity` row `Σ U_{g,j}·y_{g,j} ≤ S`, and the cascade `latency` row
/// (absent under an infinite SLO, the AIMD case). A selector costs
/// `worker_cost·U_{g,j}` plus its tie-break penalty; one whose `U` alone
/// exceeds `S` is fixed out by its bound. [`aim`](Self::aim) re-points a
/// group at a new demand by patching those numbers in place, so rows,
/// columns and their names never change, and the fleet size is only a
/// coefficient: the problem is the same size at 1000 workers as at 8.
///
/// There are no worker columns because, with every batch fixed, the
/// optimal worker counts are already known:
///
/// * The N-tier ladder ([`solve_ladder`], `worker_cost` 1) minimizes total
///   workers, so each tier takes exactly `U`: fewer miss its demand, more
///   only cost. Geometric batch penalties `1e-4·10^{-k}·j` sum to < 1, so
///   they never trade away a worker, and reproduce the exhaustive
///   tie-break.
/// * The two-tier cascade ([`solve_milp_allocation_warm`], `worker_cost`
///   0) keeps the light tier minimal and hands every spare worker to the
///   heavy tier, so once both batches are fixed the full MILP's worker
///   terms are constants. Only the batch pair is left to rank, at cost
///   `r(j)·B + r(k)`, with `r` a batch's rank by size among the
///   candidates: the exhaustive solver's lexicographic tie-break on batch
///   sizes, in whatever order the candidates come (AIMD passes its two
///   operating points unsorted).
#[derive(Debug, Clone)]
struct BatchKnapsack {
    problem: Problem,
    /// `y[g][j]`: group `g` runs batch choice `j`.
    y: Vec<Vec<diffserve_milp::VarId>>,
    choices: Vec<Vec<BatchChoice>>,
    /// Objective cost of each worker a selector takes.
    worker_cost: f64,
    /// The demand each group was last aimed at.
    demand: Vec<f64>,
    /// Fleet size `S`.
    fleet: f64,
    /// Row of `capacity`, whose `y_{g,j}` coefficient is `U_{g,j}`.
    capacity_row: usize,
}

impl BatchKnapsack {
    /// The problem shape over `table`'s tiers × batches, batch `j` of
    /// group `g` tie-broken at `penalty(g, j)`, for a fleet of
    /// `total_workers` under `lat_budget`, with placeholder costs and
    /// capacity coefficients; [`aim`](Self::aim) every group before
    /// solving.
    fn build(
        table: &StageTable,
        groups: usize,
        penalty: impl Fn(usize, usize) -> f64,
        worker_cost: f64,
        total_workers: usize,
        lat_budget: f64,
    ) -> Self {
        let choices: Vec<Vec<BatchChoice>> = (0..groups)
            .map(|g| {
                (0..table.batches)
                    .map(|j| BatchChoice {
                        cell: *table.cell(g, j),
                        penalty: penalty(g, j),
                    })
                    .collect()
            })
            .collect();
        let s = total_workers as f64;
        let mut p = Problem::new(Direction::Minimize);
        let y: Vec<Vec<_>> = choices
            .iter()
            .enumerate()
            .map(|(g, c)| {
                (0..c.len())
                    .map(|j| p.add_binary(format!("y{g}_{j}")))
                    .collect()
            })
            .collect();
        let mut cap: Vec<(diffserve_milp::VarId, f64)> = Vec::new();
        let mut lat: Vec<(diffserve_milp::VarId, f64)> = Vec::new();
        for (g, (y_g, c_g)) in y.iter().zip(&choices).enumerate() {
            let one: Vec<_> = y_g.iter().map(|&id| (id, 1.0)).collect();
            p.add_constraint(format!("one-batch-{g}"), &one, Sense::Eq, 1.0);
            for (&id, c) in y_g.iter().zip(c_g) {
                cap.push((id, 1.0));
                lat.push((id, c.cell.latency));
            }
        }
        let capacity_row = p.add_constraint("capacity", &cap, Sense::Le, s);
        if lat_budget.is_finite() {
            p.add_constraint("latency", &lat, Sense::Le, lat_budget);
        }
        BatchKnapsack {
            problem: p,
            y,
            demand: vec![0.0; choices.len()],
            choices,
            worker_cost,
            fleet: s,
            capacity_row,
        }
    }

    /// The N-tier ladder's fixed-level residual.
    fn ladder(inputs: &LadderInputs<'_>, table: &StageTable) -> Self {
        BatchKnapsack::build(
            table,
            inputs.num_tiers(),
            |k, j| 1e-4 * 10f64.powi(-(k as i32)) * j as f64,
            1.0,
            inputs.total_workers,
            inputs.slo - inputs.queue_delays.iter().sum::<f64>(),
        )
    }

    /// The two-tier threshold-pinned residual, light group (0) aimed at
    /// the demand; aim the heavy group (1) at a level's deferred load.
    fn two_tier(inputs: &AllocatorInputs<'_>, table: &StageTable) -> Self {
        let sizes = inputs.batch_sizes;
        let mut knapsack = BatchKnapsack::build(
            table,
            2,
            |g, j| {
                let rank = size_rank(sizes, j);
                (if g == 0 { rank * sizes.len() } else { rank }) as f64
            },
            0.0,
            inputs.total_workers,
            two_tier_latency_budget(inputs),
        );
        knapsack.aim(0, inputs.demand_qps.max(1e-9));
        knapsack
    }

    /// Re-aims group `g` at `demand`: each of its selectors' cost,
    /// capacity coefficient and bound.
    fn aim(&mut self, g: usize, demand: f64) {
        self.demand[g] = demand;
        for (&id, c) in self.y[g].iter().zip(&self.choices[g]) {
            let need = min_workers(demand, c.cell.throughput);
            // A batch that alone overflows the fleet is fixed out; capping
            // its numbers at `S` keeps the tableau at the fleet's scale.
            let u = need.min(self.fleet);
            self.problem
                .set_objective_coefficient(id, self.worker_cost * u + c.penalty);
            self.problem.set_coefficient(self.capacity_row, id, u);
            self.problem
                .set_upper_bound(id, if need > self.fleet { 0.0 } else { 1.0 });
        }
    }

    /// Per group, the batch choice `values` selects and the workers it
    /// takes at the demand the group was last aimed at.
    fn plan<'k>(&'k self, values: &'k [f64]) -> impl Iterator<Item = (usize, usize)> + 'k {
        self.y
            .iter()
            .zip(&self.choices)
            .zip(&self.demand)
            .map(|((y_g, c_g), &d)| {
                let j = y_g
                    .iter()
                    .position(|id| values[id.index()] > 0.5)
                    .expect("exactly-one constraint guarantees a selection");
                (j, min_workers(d, c_g[j].cell.throughput) as usize)
            })
    }
}

/// The cascade `latency` row's budget on the two-tier cascade.
fn two_tier_latency_budget(inputs: &AllocatorInputs<'_>) -> f64 {
    inputs.slo - inputs.queue_delay_light - inputs.queue_delay_heavy
}

/// The oracle's search for the two-tier plan: the largest feasible
/// threshold and the optimal plan there, searched over the two-tier
/// `BatchKnapsack` (built on each call), starting from the threshold
/// pinned in an [`AllocWarmState`].
///
/// Feasibility at a fixed threshold level is monotone: the only
/// level-dependent number is Eq. 3's deferred load `D·f(t_l)`, and `f` is
/// nondecreasing over the ascending grid, so every level below a feasible
/// one is feasible. The search gallops + binary-searches from the previous
/// tick's level — the grid floor when the state is cold, its threshold is
/// no longer on the grid, or the previous tick was infeasible — asking
/// each probe only *whether* the level is feasible (`find_feasible`, which
/// re-aims just the heavy selectors), and solves to optimality once, at
/// the largest feasible level. The call's probes and its optimality solve
/// share one [`WarmStart`] of their own: a probe whose level the last
/// witness still fits solves no LP, and the witnesses seed the optimality
/// solve's incumbent. Nothing of it outlives the call.
///
/// The plan is [`solve_exhaustive`]'s at any fleet size: the largest
/// feasible threshold, then the lexicographically smallest batch pair,
/// minimal light workers and every spare on the heavy tier. Below ≈ 91
/// workers it is also the full MILP's ([`solve_milp_allocation`]). The pin
/// changes where the search starts, never the plan.
///
/// Returns `None` if no level is feasible.
pub fn solve_milp_allocation_warm(
    inputs: &AllocatorInputs<'_>,
    state: &mut AllocWarmState,
) -> Option<LadderAllocation> {
    // The pin is only trusted when it still names a grid value exactly.
    let l0 = state
        .pin
        .and_then(|pin| inputs.thresholds.iter().position(|&t| t == pin))
        .unwrap_or(0);
    let options = MilpOptions::default();
    let table = StageTable::two_tier(inputs, true);
    let mut knapsack = BatchKnapsack::two_tier(inputs, &table);
    let d = inputs.demand_qps.max(1e-9);
    let mut warm = WarmStart::new();
    let best = largest_feasible_level(inputs.thresholds.len(), l0, |l| {
        knapsack.aim(1, d * table.deferred(0, l));
        find_feasible(&knapsack.problem, &options, &mut warm).is_ok()
    });
    let alloc = best.map(|l| {
        knapsack.aim(1, d * table.deferred(0, l));
        let sol = solve_milp_warm(&knapsack.problem, &options, &mut warm)
            .expect("the level was just probed feasible");
        let mut plan = knapsack.plan(&sol.values);
        let ((j, light_workers), (k, _)) = (
            plan.next().expect("a light group"),
            plan.next().expect("a heavy group"),
        );
        two_tier_plan(
            inputs.thresholds[l],
            [light_workers, inputs.total_workers - light_workers],
            [inputs.batch_sizes[j], inputs.batch_sizes[k]],
        )
    });
    // An infeasible tick parks the pin at the grid floor: every level is
    // infeasible, so the next search may as well start from the bottom.
    let floor = inputs.thresholds.first().copied();
    state.pin = best.map(|l| inputs.thresholds[l]).or(floor);
    alloc
}

/// The two-tier overload plan: [`ladder_overload_fallback`]'s at N = 2
/// without direct admission — threshold 0 (everything stays on the light
/// model), each tier's throughput-maximizing batch, and one heavy worker
/// kept so stragglers still have a host. The drop policy sheds what this
/// cannot serve.
pub fn overload_fallback(inputs: &AllocatorInputs<'_>) -> LadderAllocation {
    fallback_plan(
        &StageTable::two_tier(inputs, true),
        inputs.batch_sizes,
        inputs.total_workers,
        &[],
    )
}

/// Proteus allocation (query-agnostic model scaling): maximize the fraction
/// `p` of queries routed to the heavy model, subject to per-branch
/// throughput and latency constraints. Queries route *directly* to one
/// model — there is no cascade, so each branch only pays its own latency,
/// and a direct-to-heavy query carries no light-tier latents: the
/// [`resume_heavy`](AllocatorInputs::resume_heavy) discount never applies.
///
/// Every batch pair `(b₁, b₂)` within the latency bound offers the largest
/// `p` on the grid `0, 0.01, …, 1` whose branches fit the fleet,
/// `⌈D(1−p)/T₁⌉ (≥ 1) + ⌈Dp/T₂⌉ (≥ 1) ≤ S`; the first pair in `(b₁, b₂)`
/// order to offer the largest wins. The heavy worker count only grows
/// with `p`, so a binary search per heavy batch finds the largest `p`
/// whose heavy branch leaves a light worker; each pair scans down from
/// there and stops once its `p` cannot beat the best pair's. Only
/// fractions that cannot fit or cannot win are skipped, so the plan is
/// the full 101-point scan's.
///
/// The plan's `thresholds[0]` is the heavy fraction `p`.
pub fn solve_proteus(inputs: &AllocatorInputs<'_>) -> Option<LadderAllocation> {
    const STEPS: usize = 100;
    let table = StageTable::two_tier(inputs, false);
    let d = inputs.demand_qps.max(1e-9);
    let s = inputs.total_workers;
    let frac = |pi: usize| pi as f64 / STEPS as f64;
    let heavy_workers = |pi: usize, t2: f64| ((d * frac(pi)) / t2).ceil() as usize;
    // Per heavy batch within the latency bound, the largest grid step whose
    // heavy branch leaves a light worker: a binary search, since the heavy
    // count never falls as `p` grows (step 0 needs no heavy worker).
    let tops: Vec<Option<usize>> = (0..table.batches)
        .map(|k| {
            let room = s.checked_sub(1)?;
            if table.cell(1, k).latency + inputs.queue_delay_heavy > inputs.slo {
                return None;
            }
            let t2 = table.cell(1, k).throughput;
            let (mut lo, mut hi) = (0, STEPS);
            while lo < hi {
                let mid = (lo + hi).div_ceil(2);
                if heavy_workers(mid, t2) <= room {
                    lo = mid;
                } else {
                    hi = mid - 1;
                }
            }
            Some(lo)
        })
        .collect();
    // The best candidate so far: its grid step, its light and heavy batch
    // indices and its light and heavy workers.
    let mut best: Option<(usize, usize, usize, [usize; 2])> = None;
    for j in 0..table.batches {
        if table.cell(0, j).latency + inputs.queue_delay_light > inputs.slo {
            continue;
        }
        let t1 = table.cell(0, j).throughput;
        for (k, top) in tops.iter().enumerate() {
            let Some(top) = *top else { continue };
            let t2 = table.cell(1, k).throughput;
            for pi in (0..=top).rev() {
                if best.is_some_and(|(bp, ..)| pi <= bp) {
                    break; // this pair cannot beat the best
                }
                let x2 = heavy_workers(pi, t2);
                let x1 = ((d * (1.0 - frac(pi))) / t1).ceil().max(1.0) as usize;
                if x2 >= 1 && x1 <= s - x2 {
                    best = Some((pi, j, k, [x1, x2]));
                    break; // fractions below `pi` are worse for this pair
                }
            }
        }
    }
    let sizes = inputs.batch_sizes;
    best.map(|(pi, j, k, workers)| two_tier_plan(frac(pi), workers, [sizes[j], sizes[k]]))
}

/// Inputs to one N-tier ladder allocation decision.
///
/// Generalizes [`AllocatorInputs`] to a quality ladder: `tiers[k]` is tier
/// `k`'s execution profile (cheapest first), `deferrals[k]` and
/// `discriminator_latency[k]` belong to the escalation boundary between
/// tiers `k` and `k+1` (both have length N-1). Every boundary shares the
/// same candidate `thresholds` grid.
#[derive(Debug, Clone)]
pub struct LadderInputs<'a> {
    /// Over-provisioned demand estimate `λD` in QPS at the entry tier.
    pub demand_qps: f64,
    /// Estimated queuing delay ahead of each tier, seconds (length N).
    pub queue_delays: Vec<f64>,
    /// Latency SLO in seconds.
    pub slo: f64,
    /// Total workers `S`.
    pub total_workers: usize,
    /// Per-boundary deferral profiles `f_k(t)` (length N-1).
    pub deferrals: Vec<&'a DeferralProfile>,
    /// Per-tier execution profiles, cheapest first (length N).
    pub tiers: Vec<LatencyProfile>,
    /// Per-image discriminator latency at each non-terminal tier
    /// (length N-1; the terminal tier runs no discriminator).
    pub discriminator_latency: Vec<f64>,
    /// Candidate batch sizes (shared by every tier).
    pub batch_sizes: &'a [usize],
    /// Candidate confidence thresholds (ascending; shared by every
    /// boundary).
    pub thresholds: &'a [f64],
    /// Cap on how many grid levels any boundary threshold may *rise* in
    /// one solve relative to the warm-start levels (`None` = unlimited,
    /// and cold solves are never capped). Falling is never limited — load
    /// shedding must take effect immediately — but climbing back toward
    /// higher quality is rate-limited so demand-estimate noise cannot flap
    /// workers between adjacent tiers tick after tick, burning fleet
    /// capacity on model-switch delays.
    pub max_raise_per_solve: Option<usize>,
    /// Fraction of total demand admitted *directly* at each tier (length
    /// N, summing to ≤ 1), as observed by the backend under predictive
    /// straight-to-tier routing. Empty means "everything enters at tier
    /// 0" (always-cheapest-first). The per-tier demand model folds these
    /// in so bypassed traffic is capacity-planned at the tier it actually
    /// lands on, not at the tiers it skipped.
    pub direct_fractions: Vec<f64>,
}

impl LadderInputs<'_> {
    /// Number of model tiers (N).
    pub fn num_tiers(&self) -> usize {
        self.tiers.len()
    }

    /// Number of escalation boundaries (N-1).
    pub fn boundaries(&self) -> usize {
        self.tiers.len() - 1
    }

    /// Per-tier demand under a threshold-level vector, written into
    /// `demands`, with `f` read off `table`. Without direct routing, tier 0
    /// sees the full demand and each deeper tier the fraction its boundary
    /// defers. With predictive straight-to-tier routing, tier `k`'s demand
    /// is the flow escalated out of tier `k-1` plus the share of total
    /// demand admitted directly at `k`.
    fn tier_demands(&self, table: &StageTable, levels: &[usize], demands: &mut Vec<f64>) {
        let total = self.demand_qps.max(1e-9);
        demands.clear();
        let mut d = total * direct_share(&self.direct_fractions, 0);
        demands.push(d);
        for (k, &l) in levels.iter().enumerate() {
            d = d * table.deferred(k, l) + total * direct_share(&self.direct_fractions, k + 1);
            demands.push(d);
        }
    }
}

/// Share of total demand admitted directly at tier `k` under the per-tier
/// `direct` fractions ([`LadderInputs::direct_fractions`]): all of it at
/// tier 0 and none deeper without direct routing.
pub(crate) fn direct_share(direct: &[f64], k: usize) -> f64 {
    match (direct.is_empty(), k) {
        (true, 0) => 1.0,
        (true, _) => 0.0,
        (false, _) => direct.get(k).copied().unwrap_or(0.0),
    }
}

/// One allocation decision for a ladder of any size; a two-tier plan is
/// the N = 2 one.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderAllocation {
    /// Per-boundary confidence thresholds (length N-1).
    pub thresholds: Vec<f64>,
    /// Per-tier worker counts (length N; spares sit on the deepest tier).
    pub workers: Vec<usize>,
    /// Per-tier batch sizes (length N).
    pub batches: Vec<usize>,
    /// `true` if every constraint was satisfiable; `false` if this is the
    /// best-effort overload fallback.
    pub feasible: bool,
}

/// Tick-to-tick state for [`solve_ladder`]: the previous tick's optimal
/// threshold levels (seeding the per-boundary gallop), the worker split it
/// actuated, and what the enumeration works in. The MILP oracle carries
/// nothing else from tick to tick.
#[derive(Debug, Clone, Default)]
pub struct LadderWarmState {
    levels: Option<Vec<usize>>,
    /// Worker split actuated by the previous solve; the next solve keeps
    /// it whenever it still covers every tier's minimal need, so demand
    /// noise does not flap workers (each move burns a model-switch delay).
    workers: Option<Vec<usize>>,
    /// What a solve works in, kept so that ticks do not allocate it anew.
    probe: ProbeScratch,
}

impl LadderWarmState {
    /// An empty state; the first solve runs cold.
    pub fn new() -> Self {
        LadderWarmState::default()
    }

    /// Drop all carried state; the next solve runs cold.
    pub fn clear(&mut self) {
        self.levels = None;
        self.workers = None;
    }
}

/// What a [`LadderProbe`] works in, kept from tick to tick: the tick's
/// [`StageTable`], the odometer's buffers, and the probe's fields,
/// documented there.
#[derive(Debug, Clone, Default)]
struct ProbeScratch {
    table: StageTable,
    odometer: Odometer,
    memo_levels: Vec<usize>,
    memo: Vec<bool>,
    demands: Vec<f64>,
}

/// The batch-tuple odometer's buffers: the tuple in hand (batch indices,
/// one per tier) with its workers, and the best tuple so far with its.
#[derive(Debug, Clone, Default)]
struct Odometer {
    idx: Vec<usize>,
    workers: Vec<usize>,
    best_idx: Vec<usize>,
    best_workers: Vec<usize>,
}

/// Whether a worker/batch plan serves fixed per-tier `demands`, by
/// exhaustive scan over batch tuples read off `table`. Without
/// `first_fit` the scan finds the plan with the fewest total workers,
/// tie-breaking on the lexicographically smallest batch tuple, and leaves
/// it in `odo.best_idx` / `odo.best_workers`; with it, the scan stops at
/// the first tuple that fits (a feasibility probe has no use for the
/// minimum).
fn ladder_fixed_exhaustive(
    inputs: &LadderInputs<'_>,
    table: &StageTable,
    demands: &[f64],
    first_fit: bool,
    odo: &mut Odometer,
) -> bool {
    let n = inputs.num_tiers();
    let queue_total: f64 = inputs.queue_delays.iter().sum();
    let mut best_total = None;
    odo.idx.clear();
    odo.idx.resize(n, 0);
    odo.workers.resize(n, 0);
    // Odometer over batch tuples, lexicographic so the first tuple found
    // at the minimal worker count is also the lexicographically smallest.
    'tuples: loop {
        let latency: f64 = (odo.idx.iter().enumerate())
            .map(|(k, &j)| table.cell(k, j).latency)
            .sum::<f64>()
            + queue_total;
        if latency <= inputs.slo {
            let tiers = odo.workers.iter_mut().zip(&odo.idx).zip(demands);
            for (k, ((workers, &j), &demand)) in tiers.enumerate() {
                *workers = min_workers(demand, table.cell(k, j).throughput) as usize;
            }
            let total: usize = odo.workers.iter().sum();
            if total <= inputs.total_workers {
                if first_fit {
                    return true;
                }
                if best_total.is_none_or(|t| total < t) {
                    best_total = Some(total);
                    odo.best_idx.clone_from(&odo.idx);
                    odo.best_workers.clone_from(&odo.workers);
                }
            }
        }
        // Advance the odometer.
        for k in (0..n).rev() {
            odo.idx[k] += 1;
            if odo.idx[k] < table.batches {
                continue 'tuples;
            }
            odo.idx[k] = 0;
        }
        break;
    }
    best_total.is_some()
}

/// One tick's view of the fixed-level residual problem, through the
/// configured inner solver. The threshold search asks
/// [`feasible`](Self::feasible) — answered from an exact-match memo when
/// the same level vector was already probed this tick — and the tick ends
/// with the single [`plan`](Self::plan) call that needs an optimum.
struct LadderProbe<'a, 'i> {
    inputs: &'a LadderInputs<'i>,
    table: &'a StageTable,
    odometer: &'a mut Odometer,
    /// The oracle's fixed-level residual ([`BatchKnapsack::ladder`]),
    /// built for this call; `None` for the enumeration that serves.
    residual: Option<BatchKnapsack>,
    /// The oracle's remembered point, shared by this call's probes and
    /// its optimality solve.
    warm: WarmStart,
    /// Feasibility verdicts of this tick: the level vectors probed, back
    /// to back, and the verdict on each. Only an identical vector hits:
    /// monotonicity could answer more probes from their neighbours, but
    /// the memo must never decide differently from the solver it stands in
    /// for.
    memo_levels: &'a mut Vec<usize>,
    memo: &'a mut Vec<bool>,
    /// The per-tier demands of the probe in hand.
    demands: &'a mut Vec<f64>,
}

impl<'a, 'i> LadderProbe<'a, 'i> {
    fn new(inputs: &'a LadderInputs<'i>, milp: bool, scratch: &'a mut ProbeScratch) -> Self {
        scratch.table.fill_ladder(inputs);
        scratch.memo_levels.clear();
        scratch.memo.clear();
        LadderProbe {
            inputs,
            residual: milp.then(|| BatchKnapsack::ladder(inputs, &scratch.table)),
            table: &scratch.table,
            odometer: &mut scratch.odometer,
            warm: WarmStart::new(),
            memo_levels: &mut scratch.memo_levels,
            memo: &mut scratch.memo,
            demands: &mut scratch.demands,
        }
    }

    /// Sets `demands` to the per-tier demands `levels` implies, with the
    /// residual (if any) aimed at them.
    fn demands_at(&mut self, levels: &[usize]) {
        self.inputs.tier_demands(self.table, levels, self.demands);
        if let Some(residual) = &mut self.residual {
            for (k, &d) in self.demands.iter().enumerate() {
                residual.aim(k, d);
            }
        }
    }

    /// Whether any worker/batch plan serves the demands `levels` implies.
    fn feasible(&mut self, levels: &[usize]) -> bool {
        let known = self
            .memo_levels
            .chunks_exact(levels.len().max(1))
            .position(|probed| probed == levels);
        if let Some(i) = known {
            return self.memo[i];
        }
        self.demands_at(levels);
        let verdict = match &self.residual {
            Some(residual) => {
                find_feasible(&residual.problem, &MilpOptions::default(), &mut self.warm).is_ok()
            }
            None => {
                ladder_fixed_exhaustive(self.inputs, self.table, self.demands, true, self.odometer)
            }
        };
        self.memo_levels.extend_from_slice(levels);
        self.memo.push(verdict);
        verdict
    }

    /// The minimal worker/batch plan at `levels`; `None` when infeasible.
    fn plan(&mut self, levels: &[usize]) -> Option<(Vec<usize>, Vec<usize>)> {
        self.demands_at(levels);
        let batch = |j: usize| self.inputs.batch_sizes[j];
        match &self.residual {
            Some(residual) => {
                let sol =
                    solve_milp_warm(&residual.problem, &MilpOptions::default(), &mut self.warm)
                        .ok()?;
                Some(
                    residual
                        .plan(&sol.values)
                        .map(|(j, w)| (w, batch(j)))
                        .unzip(),
                )
            }
            None => {
                let odo = &mut *self.odometer;
                ladder_fixed_exhaustive(self.inputs, self.table, self.demands, false, odo).then(
                    || {
                        let batches = odo.best_idx.iter().map(|&j| batch(j)).collect();
                        (odo.best_workers.clone(), batches)
                    },
                )
            }
        }
    }
}

/// Solve the N-tier ladder allocation: the threshold *vector* (one level
/// per boundary), per-tier worker counts, and per-tier batch sizes.
///
/// The outer search is coordinate maximization over the boundary
/// thresholds, warm-started from the previous tick's levels: for each
/// boundary in turn it finds the largest feasible grid level by a gallop +
/// binary search (PR 9's pinning, applied per boundary), holding the other
/// boundaries fixed. Feasibility is monotone decreasing in every level —
/// raising `t_k` only raises the demand on tiers deeper than `k` — so the
/// per-coordinate search is exact; two passes settle cross-boundary
/// interactions.
///
/// Every probe of that search — re-anchor, gallop, bisection — asks the
/// fixed-level residual problem only *whether* it is feasible, and asks
/// at most once per level vector per call. Exactly one optimality solve
/// runs, at the final (rate-limited) levels, and its plan is the answer.
/// Serving ticks answer every probe by enumerating batch tuples over the
/// tick's table, kept in `state` with the odometer's buffers. With `milp`
/// — the oracle — the residual is one [`Problem`], built per call and
/// re-aimed per probe, and the call's probes and optimality solve share
/// one [`WarmStart`] of their own; the plan is the same.
///
/// Spare workers land on the deepest tier. Returns `None` when even the
/// all-lowest-levels ladder is infeasible; callers then fall back to
/// [`ladder_overload_fallback`].
pub fn solve_ladder(
    inputs: &LadderInputs<'_>,
    milp: bool,
    state: &mut LadderWarmState,
) -> Option<LadderAllocation> {
    let nb = inputs.boundaries();
    let nt = inputs.thresholds.len();
    let warm_levels = match state.levels.take() {
        Some(l) if l.len() == nb && l.iter().all(|&x| x < nt) => Some(l),
        _ => None,
    };
    let mut probe = LadderProbe::new(inputs, milp, &mut state.probe);
    let mut levels = warm_levels.clone().unwrap_or_else(|| vec![0; nb]);
    // Re-anchor on a feasible point: the warm levels may have drifted
    // infeasible, and all-lowest-levels is the least-demand ladder — if
    // even that fails, no level vector is feasible (monotonicity).
    if !probe.feasible(&levels) {
        levels.fill(0);
        if !probe.feasible(&levels) {
            return None;
        }
    }

    for _pass in 0..2 {
        for k in 0..nb {
            // From the current (feasible) level: the re-probe of it is a
            // memo hit.
            let start = levels[k];
            let best = largest_feasible_level(nt, start, |l| {
                levels[k] = l;
                probe.feasible(&levels)
            });
            levels[k] = best.expect("the start level is feasible");
        }
    }

    // Rate-limit raises against the previous tick's actuated levels:
    // clamping *down* from the coordinate-maximized point only lowers
    // deep-tier demand, so the clamped vector stays feasible
    // (monotonicity) and the final solve below cannot fail.
    if let (Some(cap), Some(prev)) = (inputs.max_raise_per_solve, &warm_levels) {
        for (l, &p) in levels.iter_mut().zip(prev) {
            *l = (*l).min(p + cap);
        }
    }

    let (mut workers, batches) = probe
        .plan(&levels)
        .expect("final levels were verified feasible coordinate-wise");
    // Worker-split hysteresis: if the previously actuated split still
    // covers every tier's minimal need, keep it — extra workers on a tier
    // only add slack, while re-splitting on every demand-estimate wiggle
    // burns a model-switch delay per moved worker.
    let keep_prev = state.workers.take().filter(|prev| {
        prev.len() == workers.len()
            && prev.iter().sum::<usize>() == inputs.total_workers
            && prev.iter().zip(&workers).all(|(&p, &need)| p >= need)
    });
    if let Some(prev) = keep_prev {
        workers = prev;
    } else {
        let spare = inputs.total_workers - workers.iter().sum::<usize>();
        *workers.last_mut().expect("at least two tiers") += spare;
    }
    let thresholds = levels.iter().map(|&l| inputs.thresholds[l]).collect();
    state.levels = Some(levels);
    state.workers = Some(workers.clone());
    Some(LadderAllocation {
        thresholds,
        workers,
        batches,
        feasible: true,
    })
}

/// Best-effort ladder allocation under overload: every boundary threshold
/// drops to 0 (nothing escalates), batches maximize per-tier throughput,
/// one worker stays on each deeper tier so stragglers keep a host, and the
/// rest of the fleet serves the entry tier.
///
/// When the predictive router is bypassing traffic
/// ([`LadderInputs::direct_fractions`] has mass beyond tier 0) the
/// all-entry-tier shape would starve exactly the tiers still receiving
/// direct arrivals, so the fleet is instead apportioned to tiers in
/// proportion to direct load over per-tier service rate (with thresholds
/// floored, a tier's load is exactly its direct-admission share).
pub fn ladder_overload_fallback(inputs: &LadderInputs<'_>) -> LadderAllocation {
    fallback_plan(
        &StageTable::ladder(inputs),
        inputs.batch_sizes,
        inputs.total_workers,
        &inputs.direct_fractions,
    )
}

/// The overload plan both fallbacks serve, over the tick's `table`: its
/// tiers' nameplate-fastest batches among `batch_sizes`, `w` workers split
/// by the `direct` admission fractions as [`ladder_overload_fallback`]
/// documents, and every threshold 0.
fn fallback_plan(
    table: &StageTable,
    batch_sizes: &[usize],
    w: usize,
    direct: &[f64],
) -> LadderAllocation {
    let n = table.cells.len() / table.batches;
    let batches: Vec<usize> = (0..n)
        .map(|k| batch_sizes[table.fastest_batch(k)])
        .collect();
    let has_bypass = direct.iter().skip(1).any(|&f| f > 0.0);
    let mut workers = vec![0usize; n];
    if has_bypass {
        let load: Vec<f64> = (0..n)
            .map(|k| {
                let nameplate = table.cell(k, table.fastest_batch(k)).nameplate;
                direct_share(direct, k) / nameplate.max(1e-9)
            })
            .collect();
        let total_load: f64 = load.iter().sum();
        let quotas: Vec<f64> = load.iter().map(|l| w as f64 * l / total_load).collect();
        for (wk, q) in workers.iter_mut().zip(&quotas) {
            *wk = q.floor() as usize;
        }
        let remaining = w - workers.iter().sum::<usize>();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            (quotas[b] - workers[b] as f64)
                .partial_cmp(&(quotas[a] - workers[a] as f64))
                .expect("finite quotas")
        });
        for &k in order.iter().cycle().take(remaining) {
            workers[k] += 1;
        }
    } else {
        let deep = (n - 1).min(w.saturating_sub(1));
        for k in (n - deep..n).rev() {
            workers[k] = 1;
        }
        workers[0] = w - deep;
    }
    LadderAllocation {
        thresholds: vec![0.0; n - 1],
        workers,
        batches,
        feasible: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffserve_imagegen::DeferralProfile;

    fn uniform_profile() -> DeferralProfile {
        // Calibrated confidences are uniform by construction.
        DeferralProfile::from_confidences((0..1000).map(|i| i as f64 / 1000.0).collect()).unwrap()
    }

    fn cascade1_inputs<'a>(
        deferral: &'a DeferralProfile,
        batches: &'a [usize],
        thresholds: &'a [f64],
        demand: f64,
    ) -> AllocatorInputs<'a> {
        AllocatorInputs {
            demand_qps: demand,
            queue_delay_light: 0.2,
            queue_delay_heavy: 0.5,
            slo: 5.0,
            total_workers: 16,
            deferral,
            light: LatencyProfile::new(0.10, 0.55),
            heavy: LatencyProfile::new(1.78, 0.12),
            resume_heavy: None,
            discriminator_latency: 0.01,
            batch_sizes: batches,
            thresholds,
        }
    }

    fn grid(n: usize, cap: f64) -> Vec<f64> {
        (0..n).map(|i| cap * i as f64 / (n - 1) as f64).collect()
    }

    #[test]
    fn exhaustive_finds_feasible_allocation() {
        let deferral = uniform_profile();
        let batches = [1usize, 2, 4, 8, 16];
        let thresholds = grid(51, 0.9);
        let inputs = cascade1_inputs(&deferral, &batches, &thresholds, 10.0);
        let a = solve_exhaustive(&inputs).expect("feasible at 10 qps");
        assert!(a.feasible);
        assert!(a.workers[0] >= 1 && a.workers[1] >= 1);
        assert!(a.workers[0] + a.workers[1] <= 16);
        assert!(a.thresholds[0] > 0.0);
        // Heavy capacity must cover the deferred fraction.
        let f = deferral.fraction_deferred(a.thresholds[0]);
        let heavy_capacity = a.workers[1] as f64 * inputs.heavy.throughput(a.batches[1]);
        assert!(heavy_capacity >= 10.0 * f - 1e-9);
    }

    #[test]
    fn milp_matches_exhaustive_threshold() {
        let deferral = uniform_profile();
        let batches = [1usize, 2, 4, 8, 16];
        let thresholds = grid(26, 0.9);
        // An idle cascade's deferred loads are below what the solver prices.
        for demand in [0.0, 1e-12, 2.0, 6.0, 12.0, 20.0, 30.0] {
            let inputs = cascade1_inputs(&deferral, &batches, &thresholds, demand);
            let ex = solve_exhaustive(&inputs);
            let milp = solve_milp_allocation(&inputs);
            match (ex, milp) {
                (Some(e), Some(m)) => {
                    assert!(
                        (e.thresholds[0] - m.thresholds[0]).abs() < 1e-9,
                        "demand {demand}: exhaustive t={} vs milp t={}",
                        e.thresholds[0],
                        m.thresholds[0]
                    );
                }
                (None, None) => {}
                (e, m) => panic!("solver disagreement at demand {demand}: {e:?} vs {m:?}"),
            }
        }
    }

    /// Both oracles break threshold ties on batch sizes, as the
    /// enumerator does, even when the candidates come unsorted — as
    /// AIMD's two operating points do.
    #[test]
    fn the_oracles_rank_unsorted_batch_candidates_like_the_enumerator() {
        let deferral = uniform_profile();
        let thresholds = grid(26, 0.9);
        for batches in [[9usize, 4].as_slice(), &[16, 2, 8, 1, 4]] {
            for demand in [0.5, 2.0, 6.0, 12.0, 20.0] {
                let inputs = cascade1_inputs(&deferral, batches, &thresholds, demand);
                let served = solve_exhaustive(&inputs);
                let warm = solve_milp_allocation_warm(&inputs, &mut AllocWarmState::new());
                assert_eq!(warm, served, "{batches:?} at {demand} qps");
                assert_eq!(solve_milp_allocation(&inputs), served);
            }
        }
    }

    #[test]
    fn warm_started_allocations_match_cold_solves_exactly() {
        let deferral = uniform_profile();
        let batches = [1usize, 2, 4, 8, 16];
        let thresholds = grid(26, 0.9);
        let mut warm = AllocWarmState::new();
        // A drifting demand path like a control loop produces, including an
        // infeasible overload spike mid-sequence: carrying the handle across
        // every tick must never change the plan a cold solve would pick.
        for demand in [6.0, 6.3, 6.1, 7.0, 12.0, 500.0, 11.5, 6.0, 6.0] {
            let inputs = cascade1_inputs(&deferral, &batches, &thresholds, demand);
            let cold = solve_milp_allocation(&inputs);
            let warmed = solve_milp_allocation_warm(&inputs, &mut warm);
            assert_eq!(warmed, cold, "demand {demand}");
            // The overload tick parks the pin at the grid floor, so the
            // tick after it gallops up from there, not through the full MILP.
            assert_eq!(
                warm.pinned_threshold(),
                Some(cold.map_or(thresholds[0], |a| a.thresholds[0])),
                "pin must track the optimal threshold at demand {demand}"
            );
        }
        assert!(warm.is_primed());
    }

    #[test]
    fn pinned_search_engages_and_matches_cold_across_large_swings() {
        let deferral = uniform_profile();
        let batches = [1usize, 2, 4, 8, 16];
        let thresholds = grid(51, 0.9);
        let mut warm = AllocWarmState::new();
        // Big jumps force the gallop to cross many grid levels in both
        // directions; every tick after the first runs the pinned path.
        for demand in [4.0, 30.0, 4.0, 18.0, 2.0, 25.0, 25.0] {
            let inputs = cascade1_inputs(&deferral, &batches, &thresholds, demand);
            let cold = solve_milp_allocation(&inputs);
            let warmed = solve_milp_allocation_warm(&inputs, &mut warm);
            assert_eq!(warmed, cold, "demand {demand}");
        }
    }

    #[test]
    fn changing_the_grid_invalidates_the_pin_but_not_the_answer() {
        let deferral = uniform_profile();
        let batches = [1usize, 2, 4, 8, 16];
        let coarse = grid(11, 0.9);
        let fine = grid(51, 0.9);
        let mut warm = AllocWarmState::new();
        let a = solve_milp_allocation_warm(
            &cascade1_inputs(&deferral, &batches, &coarse, 8.0),
            &mut warm,
        )
        .expect("feasible");
        assert_eq!(warm.pinned_threshold(), Some(a.thresholds[0]));
        // Whether or not the coarse optimum happens to sit bit-for-bit on
        // the fine grid, the warm answer must equal cold on the new grid.
        let inputs = cascade1_inputs(&deferral, &batches, &fine, 8.0);
        let cold = solve_milp_allocation(&inputs);
        let warmed = solve_milp_allocation_warm(&inputs, &mut warm);
        assert_eq!(warmed, cold);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// Random demand walks through one carried [`AllocWarmState`]:
        /// the pinned-search fast path must return bit-identical
        /// allocations to a cold full-MILP solve at every tick, demand
        /// spikes into infeasibility included.
        #[test]
        fn warm_allocations_bit_identical_on_random_demand_ladders(
            demands in proptest::collection::vec(1u32..2000, 1..12)
        ) {
            let deferral = uniform_profile();
            let batches = [1usize, 2, 4, 8, 16];
            let thresholds = grid(26, 0.9);
            let mut warm = AllocWarmState::new();
            for &raw in &demands {
                // 0.1 .. 200.0 qps: spans deep feasibility, the boundary,
                // and hopeless overload on the 16-worker fixture.
                let demand = raw as f64 / 10.0;
                let inputs = cascade1_inputs(&deferral, &batches, &thresholds, demand);
                let cold = solve_milp_allocation(&inputs);
                let warmed = solve_milp_allocation_warm(&inputs, &mut warm);
                proptest::prop_assert_eq!(warmed, cold, "demand {}", demand);
            }
        }
    }

    #[test]
    fn cleared_state_resolves_cold_to_the_same_plan() {
        let deferral = uniform_profile();
        let batches = [1usize, 2, 4, 8, 16];
        let thresholds = grid(26, 0.9);
        let inputs = cascade1_inputs(&deferral, &batches, &thresholds, 9.0);
        let mut warm = AllocWarmState::new();
        let first = solve_milp_allocation_warm(&inputs, &mut warm);
        warm.clear();
        assert!(!warm.is_primed());
        let second = solve_milp_allocation_warm(&inputs, &mut warm);
        assert_eq!(first, second);
    }

    #[test]
    fn higher_demand_lowers_threshold() {
        let deferral = uniform_profile();
        let batches = [1usize, 2, 4, 8, 16];
        let thresholds = grid(51, 0.9);
        let low = solve_exhaustive(&cascade1_inputs(&deferral, &batches, &thresholds, 4.0))
            .expect("low demand feasible");
        let high = solve_exhaustive(&cascade1_inputs(&deferral, &batches, &thresholds, 28.0))
            .expect("high demand feasible");
        assert!(
            low.thresholds[0] >= high.thresholds[0],
            "threshold should not increase with demand: {} vs {}",
            low.thresholds[0],
            high.thresholds[0]
        );
    }

    #[test]
    fn infeasible_demand_returns_none_and_fallback_works() {
        let deferral = uniform_profile();
        let batches = [1usize, 2, 4, 8, 16];
        let thresholds = grid(11, 0.9);
        // 16 workers cannot serve 500 qps through the light stage.
        let inputs = cascade1_inputs(&deferral, &batches, &thresholds, 500.0);
        assert!(solve_exhaustive(&inputs).is_none());
        assert!(solve_milp_allocation(&inputs).is_none());
        let fb = overload_fallback(&inputs);
        assert!(!fb.feasible);
        assert_eq!(fb.thresholds[0], 0.0);
        assert_eq!(fb.workers[0] + fb.workers[1], 16);
        assert!(fb.workers[1] >= 1);
    }

    #[test]
    fn tight_slo_forces_small_batches() {
        let deferral = uniform_profile();
        let batches = [1usize, 2, 4, 8, 16];
        let thresholds = grid(11, 0.9);
        let mut inputs = cascade1_inputs(&deferral, &batches, &thresholds, 6.0);
        inputs.slo = 2.5; // e2(2) = 1.78·(0.12+0.88·2) = 3.35 > budget
        inputs.queue_delay_light = 0.0;
        inputs.queue_delay_heavy = 0.0;
        let a = solve_exhaustive(&inputs).expect("feasible with b2 = 1");
        assert_eq!(a.batches[1], 1);
    }

    #[test]
    fn resume_discount_rescues_an_slo_infeasible_at_nameplate() {
        let deferral = uniform_profile();
        let batches = [1usize, 2, 4, 8, 16];
        let thresholds = grid(11, 0.9);
        // Nameplate e2(1) = 1.78 s plus the cheapest light leg (0.11 s)
        // overruns a 1.5 s budget: no cascade configuration fits. The
        // resume discount (50 % of the denoise schedule) serves the heavy
        // leg in 0.89 s, which does.
        let mut inputs = cascade1_inputs(&deferral, &batches, &thresholds, 6.0);
        inputs.slo = 1.5;
        inputs.queue_delay_light = 0.0;
        inputs.queue_delay_heavy = 0.0;
        assert!(solve_exhaustive(&inputs).is_none(), "nameplate infeasible");
        assert!(solve_milp_allocation(&inputs).is_none());
        inputs.resume_heavy = Some(LatencyProfile::new(0.89, 0.24));
        let resume = solve_exhaustive(&inputs).expect("discount makes the SLO reachable");
        assert!(resume.feasible);
        let milp = solve_milp_allocation(&inputs).expect("MILP agrees");
        assert!((milp.thresholds[0] - resume.thresholds[0]).abs() < 1e-9);
    }

    #[test]
    fn resume_discount_threshold_stays_within_restart_bounds() {
        let deferral = uniform_profile();
        let batches = [1usize, 2, 4, 8, 16];
        let thresholds = grid(51, 0.9);
        // The discount only relaxes the latency constraint, so the plan it
        // finds is sandwiched between restart's and the plan restart would
        // pick with the latency constraint waived: it can unlock a larger
        // (more efficient) heavy batch the nameplate bound rejected, but it
        // can never conjure capacity a latency-unconstrained restart solve
        // would not also find.
        for demand in [4.0, 10.0, 20.0] {
            let restart =
                solve_exhaustive(&cascade1_inputs(&deferral, &batches, &thresholds, demand))
                    .expect("restart feasible");
            let mut unconstrained = cascade1_inputs(&deferral, &batches, &thresholds, demand);
            unconstrained.slo = f64::INFINITY;
            let ceiling = solve_exhaustive(&unconstrained).expect("waived latency feasible");
            let mut discounted = cascade1_inputs(&deferral, &batches, &thresholds, demand);
            discounted.resume_heavy = Some(LatencyProfile::new(0.89, 0.24));
            let resume = solve_exhaustive(&discounted).expect("discounted feasible");
            assert!(
                resume.thresholds[0] >= restart.thresholds[0] - 1e-9,
                "demand {demand}: relaxing a constraint cannot lower the optimum: {} vs {}",
                resume.thresholds[0],
                restart.thresholds[0]
            );
            assert!(
                resume.thresholds[0] <= ceiling.thresholds[0] + 1e-9,
                "demand {demand}: discount must not exceed the capacity ceiling: {} vs {}",
                resume.thresholds[0],
                ceiling.thresholds[0]
            );
        }
    }

    #[test]
    fn proteus_prefers_heavy_at_low_demand() {
        let deferral = uniform_profile();
        let batches = [1usize, 2, 4, 8];
        let thresholds = grid(11, 0.9);
        let low = solve_proteus(&cascade1_inputs(&deferral, &batches, &thresholds, 2.0))
            .expect("feasible");
        let high = solve_proteus(&cascade1_inputs(&deferral, &batches, &thresholds, 25.0))
            .expect("feasible");
        let (low, high) = (low.thresholds[0], high.thresholds[0]);
        assert!(low > high, "heavy fraction should fall with demand");
        assert!(low > 0.8, "ample capacity should go mostly heavy: {low}");
    }

    /// Candidate batch sets the fallback tests sweep: the configured
    /// sizes, and AIMD's two operating points in both orders.
    const FALLBACK_BATCHES: [&[usize]; 4] = [&[1, 2, 4, 8, 16], &[1, 4], &[9, 4], &[4, 9]];

    /// Fleets the fallback tests sweep: 1–24 workers, and the fleet scale.
    fn fallback_fleets() -> impl Iterator<Item = usize> {
        (1..=24).chain([1000])
    }

    /// `inputs` as the N = 2 ladder's, without direct admission.
    fn as_ladder<'a>(inputs: &AllocatorInputs<'a>) -> LadderInputs<'a> {
        LadderInputs {
            demand_qps: inputs.demand_qps,
            queue_delays: vec![inputs.queue_delay_light, inputs.queue_delay_heavy],
            slo: inputs.slo,
            total_workers: inputs.total_workers,
            deferrals: vec![inputs.deferral],
            tiers: vec![inputs.light, inputs.heavy],
            discriminator_latency: vec![inputs.discriminator_latency],
            batch_sizes: inputs.batch_sizes,
            thresholds: inputs.thresholds,
            max_raise_per_solve: None,
            direct_fractions: Vec::new(),
        }
    }

    /// The two-tier overload plan for a hopeless demand on `workers`
    /// workers over `batches`, with the resume discount on or off; checked
    /// to be the N = 2 ladder fallback's plan.
    fn two_tier_fallback(batches: &[usize], workers: usize, resume: bool) -> LadderAllocation {
        let deferral = uniform_profile();
        let thresholds = grid(11, 0.9);
        let mut inputs = cascade1_inputs(&deferral, batches, &thresholds, 1e6);
        inputs.total_workers = workers;
        inputs.resume_heavy = resume.then(|| LatencyProfile::new(0.89, 0.24));
        let fb = overload_fallback(&inputs);
        assert_eq!(
            ladder_overload_fallback(&as_ladder(&inputs)),
            fb,
            "{batches:?} on {workers} workers"
        );
        fb
    }

    #[test]
    fn fallback_picks_throughput_maximizing_batches() {
        // The fallback maximizes shed-free throughput per tier: for both
        // profiles (affine latency, overhead < 1) throughput is increasing
        // in batch size, so it must pick the largest candidate, wherever
        // the candidates put it.
        let best = |batches: &[usize], p: LatencyProfile| {
            batches
                .iter()
                .copied()
                .max_by(|&a, &b| p.throughput(a).partial_cmp(&p.throughput(b)).unwrap())
                .unwrap()
        };
        let (light, heavy) = (
            LatencyProfile::new(0.10, 0.55),
            LatencyProfile::new(1.78, 0.12),
        );
        for batches in FALLBACK_BATCHES {
            let largest = *batches.iter().max().unwrap();
            for workers in fallback_fleets() {
                for resume in [false, true] {
                    let fb = two_tier_fallback(batches, workers, resume);
                    assert_eq!(fb.batches, [best(batches, light), best(batches, heavy)]);
                    assert_eq!(fb.batches, [largest, largest], "{batches:?}");
                }
            }
        }
    }

    #[test]
    fn fallback_keeps_exactly_one_heavy_straggler_host() {
        for batches in FALLBACK_BATCHES {
            for workers in fallback_fleets() {
                let fb = two_tier_fallback(batches, workers, false);
                // A single-worker pool is all light; any larger one keeps
                // exactly one heavy host.
                let heavy = usize::from(workers >= 2);
                assert_eq!(fb.workers, [workers - heavy, heavy], "workers={workers}");
                assert!(!fb.feasible);
                assert_eq!(fb.thresholds, [0.0]);
            }
        }
    }

    #[test]
    fn proteus_allocation_satisfies_its_constraints() {
        let deferral = uniform_profile();
        let batches = [1usize, 2, 4, 8, 16];
        let thresholds = grid(11, 0.9);
        for demand in [2.0, 8.0, 16.0, 28.0] {
            let inputs = cascade1_inputs(&deferral, &batches, &thresholds, demand);
            let a = solve_proteus(&inputs).expect("feasible demand");
            let frac = a.thresholds[0];
            // Worker budget.
            assert!(a.workers[0] + a.workers[1] <= inputs.total_workers);
            assert!(a.workers[0] >= 1 && a.workers[1] >= 1);
            // Per-branch throughput: each branch must cover its share.
            let light_cap = a.workers[0] as f64 * inputs.light.throughput(a.batches[0]);
            let heavy_cap = a.workers[1] as f64 * inputs.heavy.throughput(a.batches[1]);
            assert!(
                light_cap >= demand * (1.0 - frac) - 1e-9,
                "demand {demand}: light {light_cap} < {}",
                demand * (1.0 - frac)
            );
            assert!(
                heavy_cap >= demand * frac - 1e-9,
                "demand {demand}: heavy {heavy_cap} < {}",
                demand * frac
            );
            // Per-branch latency (no cascade: each branch pays only itself).
            assert!(
                inputs.light.exec_latency(a.batches[0]).as_secs_f64() + inputs.queue_delay_light
                    <= inputs.slo
            );
            assert!(
                inputs.heavy.exec_latency(a.batches[1]).as_secs_f64() + inputs.queue_delay_heavy
                    <= inputs.slo
            );
        }
    }

    #[test]
    fn proteus_infeasible_when_slo_unreachable() {
        let deferral = uniform_profile();
        let batches = [1usize, 2, 4];
        let thresholds = grid(5, 0.9);
        let mut inputs = cascade1_inputs(&deferral, &batches, &thresholds, 4.0);
        // Heavier queue delays than the SLO on both branches: no batch fits.
        inputs.slo = 1.0;
        inputs.queue_delay_light = 2.0;
        inputs.queue_delay_heavy = 2.0;
        assert!(solve_proteus(&inputs).is_none());
    }

    #[test]
    fn proteus_fraction_is_monotone_in_capacity() {
        let deferral = uniform_profile();
        let batches = [1usize, 2, 4, 8, 16];
        let thresholds = grid(11, 0.9);
        let mut fracs = Vec::new();
        for workers in [4usize, 8, 16, 32] {
            let mut inputs = cascade1_inputs(&deferral, &batches, &thresholds, 10.0);
            inputs.total_workers = workers;
            let plan = solve_proteus(&inputs).expect("feasible");
            fracs.push(plan.thresholds[0]);
        }
        for w in fracs.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-12,
                "more workers should not lower the heavy share: {fracs:?}"
            );
        }
    }

    /// The Proteus planner as it was before its scan was bounded: every
    /// pair within the latency bound walks the 101-point grid down from
    /// `p = 1` to its first fitting fraction.
    fn solve_proteus_scan(inputs: &AllocatorInputs<'_>) -> Option<LadderAllocation> {
        let table = StageTable::two_tier(inputs, false);
        let d = inputs.demand_qps.max(1e-9);
        let s = inputs.total_workers;
        let mut best: Option<(f64, usize, usize, [usize; 2])> = None;
        for j in 0..table.batches {
            if table.cell(0, j).latency + inputs.queue_delay_light > inputs.slo {
                continue;
            }
            for k in 0..table.batches {
                if table.cell(1, k).latency + inputs.queue_delay_heavy > inputs.slo {
                    continue;
                }
                let t1 = table.cell(0, j).throughput;
                let t2 = table.cell(1, k).throughput;
                for pi in (0..=100).rev() {
                    let frac = pi as f64 / 100.0;
                    let x2 = ((d * frac) / t2).ceil() as usize;
                    let x1 = ((d * (1.0 - frac)) / t1).ceil().max(1.0) as usize;
                    if x1 + x2 <= s && x2 >= 1 {
                        if best.is_none_or(|(bf, ..)| frac > bf) {
                            best = Some((frac, j, k, [x1, x2]));
                        }
                        break;
                    }
                }
            }
        }
        let sizes = inputs.batch_sizes;
        best.map(|(frac, j, k, workers)| two_tier_plan(frac, workers, [sizes[j], sizes[k]]))
    }

    /// The bounded scan against the full one at the edges: no worker, one
    /// worker (no room for both branches), overload that no pair fits,
    /// zero and near-zero demand, and a latency bound only some batches
    /// meet.
    #[test]
    fn proteus_matches_the_full_scan_at_the_edges() {
        let deferral = uniform_profile();
        let batches = [1usize, 2, 4, 8, 16];
        let thresholds = grid(11, 0.9);
        for workers in [0usize, 1, 2, 3, 16] {
            for demand in [0.0, 1e-12, 1e-9, 0.5, 10.0, 1e4] {
                for slo in [0.5, 2.5, 5.0] {
                    let mut inputs = cascade1_inputs(&deferral, &batches, &thresholds, demand);
                    inputs.total_workers = workers;
                    inputs.slo = slo;
                    let plan = solve_proteus(&inputs);
                    assert_eq!(
                        plan,
                        solve_proteus_scan(&inputs),
                        "{workers} workers, {demand} qps"
                    );
                    if workers < 2 || demand == 1e4 {
                        assert_eq!(plan, None, "{workers} workers, {demand} qps");
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The bounded scan plans what the full 101-point scan plans, plan
        /// for plan, from an idle fleet to overload, on fleets of 0 to 64
        /// workers, with queue delays that put some batches past the SLO.
        #[test]
        fn proteus_matches_the_full_scan(
            demand_log in 0u32..=1000,
            workers in 0usize..65,
            batch_grid in 0usize..4,
            queues in (0u32..300, 0u32..300),
            light in (1u32..50, 1u32..100),
            heavy in (50u32..300, 1u32..30),
        ) {
            let deferral = uniform_profile();
            let batches: &[usize] = [
                &[1usize, 2, 4, 8, 16][..],
                &[1, 2, 4, 8],
                &[4, 1],
                &[1, 2, 3],
            ][batch_grid];
            let thresholds = grid(11, 0.9);
            // Log-uniform over 1e-3 ..= 1e3 qps.
            let demand = 1e-3 * 1e6f64.powf(demand_log as f64 / 1000.0);
            let mut inputs = cascade1_inputs(&deferral, batches, &thresholds, demand);
            inputs.total_workers = workers;
            inputs.queue_delay_light = queues.0 as f64 / 100.0;
            inputs.queue_delay_heavy = queues.1 as f64 / 100.0;
            inputs.light = LatencyProfile::new(light.0 as f64 / 100.0, light.1 as f64 / 100.0);
            inputs.heavy = LatencyProfile::new(heavy.0 as f64 / 100.0, heavy.1 as f64 / 100.0);
            proptest::prop_assert_eq!(solve_proteus(&inputs), solve_proteus_scan(&inputs));
        }
    }

    fn ladder3_inputs<'a>(
        deferrals: &'a [DeferralProfile],
        batches: &'a [usize],
        thresholds: &'a [f64],
        demand: f64,
    ) -> LadderInputs<'a> {
        LadderInputs {
            demand_qps: demand,
            queue_delays: vec![0.2, 0.3, 0.2],
            slo: 5.0,
            total_workers: 16,
            deferrals: deferrals.iter().collect(),
            tiers: vec![
                LatencyProfile::new(0.10, 0.55),
                LatencyProfile::new(0.85, 0.15),
                LatencyProfile::new(1.78, 0.12),
            ],
            discriminator_latency: vec![0.01, 0.01],
            batch_sizes: batches,
            thresholds,
            max_raise_per_solve: None,
            direct_fractions: Vec::new(),
        }
    }

    fn two_tier_ladder_inputs<'a>(
        deferral: &'a DeferralProfile,
        batches: &'a [usize],
        thresholds: &'a [f64],
        demand: f64,
    ) -> LadderInputs<'a> {
        LadderInputs {
            demand_qps: demand,
            queue_delays: vec![0.2, 0.5],
            slo: 5.0,
            total_workers: 16,
            deferrals: vec![deferral],
            tiers: vec![
                LatencyProfile::new(0.10, 0.55),
                LatencyProfile::new(1.78, 0.12),
            ],
            discriminator_latency: vec![0.01],
            batch_sizes: batches,
            thresholds,
            max_raise_per_solve: None,
            direct_fractions: Vec::new(),
        }
    }

    /// Tier `k`'s stage latency at batch `b`, straight off the profiles.
    fn stage_latency(inputs: &LadderInputs<'_>, k: usize, b: usize) -> f64 {
        let exec = inputs.tiers[k].exec_latency(b).as_secs_f64();
        match inputs.discriminator_latency.get(k) {
            Some(d) => exec + d * b as f64,
            None => exec,
        }
    }

    /// Tier `k`'s stage throughput at batch `b`, straight off the profiles.
    fn stage_throughput(inputs: &LadderInputs<'_>, k: usize, b: usize) -> f64 {
        b as f64 / stage_latency(inputs, k, b)
    }

    /// Every cell of the table every enumerator reads is the profiles'
    /// arithmetic bit for bit: the two-tier cascade's with its resume
    /// discount on and with the discriminator zeroed (Proteus's), and a
    /// three-tier ladder's with and without discriminators.
    #[test]
    fn the_stage_table_is_the_profiles_arithmetic_bit_for_bit() {
        let deferral = uniform_profile();
        let skewed = DeferralProfile::from_confidences(
            (0..700).map(|i| (i as f64 / 700.0).powf(1.7)).collect(),
        )
        .unwrap();
        let batches = [1usize, 2, 3, 4, 8, 16];
        let thresholds = grid(26, 0.9);
        let bits = |x: f64| x.to_bits();
        let mut inputs = cascade1_inputs(&deferral, &batches, &thresholds, 7.0);
        for resume in [None, Some(LatencyProfile::new(0.89, 0.24))] {
            inputs.resume_heavy = resume;
            for cascade in [true, false] {
                let table = StageTable::two_tier(&inputs, cascade);
                for (j, &b) in batches.iter().enumerate() {
                    let exec = inputs.light.exec_latency(b).as_secs_f64();
                    let light = if cascade {
                        exec + inputs.discriminator_latency * b as f64
                    } else {
                        exec
                    };
                    let charged = match resume.filter(|_| cascade) {
                        Some(r) => r.exec_latency(b).as_secs_f64(),
                        None => inputs.heavy.exec_latency(b).as_secs_f64(),
                    };
                    let cell = (cascade, resume.is_some(), b);
                    assert_eq!(bits(table.cell(0, j).latency), bits(light), "{cell:?}");
                    assert_eq!(bits(table.cell(1, j).latency), bits(charged), "{cell:?}");
                    assert_eq!(
                        bits(table.cell(0, j).throughput),
                        bits(b as f64 / light),
                        "{cell:?}"
                    );
                    assert_eq!(
                        bits(table.cell(1, j).throughput),
                        bits(inputs.heavy.throughput(b)),
                        "{cell:?}"
                    );
                    assert_eq!(
                        bits(table.cell(0, j).nameplate),
                        bits(inputs.light.throughput(b)),
                        "{cell:?}"
                    );
                    assert_eq!(
                        bits(table.cell(1, j).nameplate),
                        bits(inputs.heavy.throughput(b)),
                        "{cell:?}"
                    );
                }
                for (l, &t) in thresholds.iter().enumerate() {
                    assert_eq!(
                        bits(table.deferred(0, l)),
                        bits(deferral.fraction_deferred(t))
                    );
                }
            }
        }
        let deferrals = [uniform_profile(), skewed];
        let mut ladder = ladder3_inputs(&deferrals, &batches, &thresholds, 7.0);
        for discriminators in [vec![0.01, 0.02], vec![0.0, 0.0]] {
            ladder.discriminator_latency = discriminators;
            let table = StageTable::ladder(&ladder);
            for k in 0..3 {
                for (j, &b) in batches.iter().enumerate() {
                    let stage = stage_latency(&ladder, k, b);
                    assert_eq!(
                        bits(table.cell(k, j).latency),
                        bits(stage),
                        "tier {k} batch {b}"
                    );
                    assert_eq!(bits(table.cell(k, j).throughput), bits(b as f64 / stage));
                    assert_eq!(
                        bits(table.cell(k, j).nameplate),
                        bits(ladder.tiers[k].throughput(b))
                    );
                }
            }
            for (k, f) in deferrals.iter().enumerate() {
                for (l, &t) in thresholds.iter().enumerate() {
                    assert_eq!(bits(table.deferred(k, l)), bits(f.fraction_deferred(t)));
                }
            }
        }
    }

    #[test]
    fn two_tier_ladder_matches_legacy_threshold() {
        // On a two-tier ladder the boundary threshold the coordinate
        // search maximizes is exactly the legacy objective, so both
        // solvers must land on the same grid level.
        let deferral = uniform_profile();
        let batches = [1usize, 2, 4, 8, 16];
        let thresholds = grid(26, 0.9);
        for demand in [2.0, 6.0, 12.0, 20.0] {
            let legacy =
                solve_exhaustive(&cascade1_inputs(&deferral, &batches, &thresholds, demand))
                    .expect("legacy feasible");
            let ladder = solve_ladder(
                &two_tier_ladder_inputs(&deferral, &batches, &thresholds, demand),
                false,
                &mut LadderWarmState::new(),
            )
            .expect("ladder feasible");
            assert_eq!(ladder.thresholds.len(), 1);
            assert!(
                (ladder.thresholds[0] - legacy.thresholds[0]).abs() < 1e-9,
                "demand {demand}: ladder t={} vs legacy t={}",
                ladder.thresholds[0],
                legacy.thresholds[0]
            );
            assert_eq!(ladder.workers.iter().sum::<usize>(), 16, "spares placed");
        }
    }

    /// What every allocator MILP's searches must agree on: a fresh
    /// optimality search, a feasibility probe and an optimality search
    /// through the carried handle give the same verdict and the same
    /// optimum, every search solves at least one LP per node it expands,
    /// and once the handle remembers the optimum, a probe through it is
    /// answered without an LP. Returns whether `problem` is feasible.
    fn check_searches_agree(problem: &Problem, carried: &mut WarmStart) -> bool {
        use diffserve_milp::SolveEffort;
        let options = MilpOptions::default();
        let cold = solve_milp(problem, &options);
        let probe = find_feasible(problem, &options, &mut carried.clone());
        let warm = solve_milp_warm(problem, &options, carried);
        assert_eq!(probe.is_ok(), cold.is_ok());
        assert_eq!(warm.is_ok(), cold.is_ok());
        let (Ok(cold), Ok(warm)) = (cold, warm) else {
            return false;
        };
        assert!((warm.objective - cold.objective).abs() <= 1e-9);
        for sol in [&cold, &warm] {
            assert!(sol.effort.lp_solves >= sol.nodes, "{sol:?}");
        }
        let again = find_feasible(problem, &options, &mut carried.clone());
        assert_eq!(again, Ok(SolveEffort::default()));
        true
    }

    /// The Eq. 1–5 oracle's branch & bound tree, pinned: four seeded
    /// instances (demand, queue delays, fleet, SLO, resume discount and a
    /// skewed deferral profile all drawn) must expand exactly the nodes and
    /// solve exactly the LPs they did when this was pinned (branching on
    /// the most fractional variable, near-ties within `1e-9` to the lowest
    /// index), and take the pivots the cold solve of each node takes. How
    /// a node is solved may change the pivots, never which nodes are
    /// searched: the node and LP counts held when children stopped
    /// starting from their parent's tableau.
    #[test]
    fn the_oracles_branch_and_bound_tree_is_pinned() {
        use diffserve_milp::SolveEffort;
        use rand::{Rng, SeedableRng};
        let batches = [1usize, 2, 4, 8, 16];
        let thresholds = grid(26, 0.9);
        let effort = |lp_solves, pivots| SolveEffort { lp_solves, pivots };
        let pinned = [
            (11, 682, effort(1129, 11151)),
            (23, 312, effort(377, 5352)),
            (37, 317, effort(425, 6003)),
            (41, 115, effort(165, 1873)),
        ];
        for (seed, nodes, effort) in pinned {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let skew = rng.gen_range(0.5..2.0);
            let deferral = DeferralProfile::from_confidences(
                (0..500).map(|i| (i as f64 / 500.0f64).powf(skew)).collect(),
            )
            .unwrap();
            let mut inputs =
                cascade1_inputs(&deferral, &batches, &thresholds, rng.gen_range(2.0..30.0));
            inputs.queue_delay_light = rng.gen_range(0.0..0.6);
            inputs.queue_delay_heavy = rng.gen_range(0.0..1.2);
            inputs.slo = rng.gen_range(3.0..8.0);
            inputs.total_workers = rng.gen_range(6..40);
            if rng.gen_bool(0.5) {
                inputs.resume_heavy = Some(LatencyProfile::new(0.89, 0.24));
            }
            let sol = solve_milp(&build_allocation_milp(&inputs).0, &MilpOptions::default())
                .expect("the drawn instances are feasible");
            assert_eq!((sol.nodes, sol.effort), (nodes, effort), "seed {seed}");
        }
    }

    /// Eq. 3's right-hand side with the threshold pinned at grid level
    /// `l`: the deferred load `D·f(t_l)`.
    fn deferred_load(inputs: &AllocatorInputs<'_>, l: usize) -> f64 {
        inputs.demand_qps.max(1e-9) * inputs.deferral.fraction_deferred(inputs.thresholds[l])
    }

    /// The two-tier oracle's knapsack for `inputs`.
    fn two_tier_knapsack(inputs: &AllocatorInputs<'_>) -> BatchKnapsack {
        BatchKnapsack::two_tier(inputs, &StageTable::two_tier(inputs, true))
    }

    /// The ladder oracle's knapsack for `inputs`.
    fn ladder_knapsack(inputs: &LadderInputs<'_>) -> BatchKnapsack {
        BatchKnapsack::ladder(inputs, &StageTable::ladder(inputs))
    }

    /// Aims each ladder tier's group of `knapsack` at the demand `levels`
    /// implies.
    fn aim_tiers(knapsack: &mut BatchKnapsack, inputs: &LadderInputs<'_>, levels: &[usize]) {
        let mut demands = Vec::new();
        inputs.tier_demands(&StageTable::ladder(inputs), levels, &mut demands);
        for (k, &d) in demands.iter().enumerate() {
            knapsack.aim(k, d);
        }
    }

    #[test]
    fn the_oracles_searches_agree_and_remembered_optima_answer_probes() {
        let batches = [1usize, 2, 4, 8, 16];
        let thresholds = grid(26, 0.9);
        let deferral = uniform_profile();
        let mut carried = WarmStart::new();
        for demand in [6.0, 6.3, 9.0, 14.0, 22.0, 30.0] {
            let inputs = cascade1_inputs(&deferral, &batches, &thresholds, demand);
            assert!(
                check_searches_agree(&build_allocation_milp(&inputs).0, &mut carried),
                "{demand} qps fits 16 workers"
            );
        }

        let mut carried = WarmStart::new();
        for (workers, demand) in [(8, 3.0), (8, 12.0), (1000, 400.0), (1000, 4000.0)] {
            let mut inputs = cascade1_inputs(&deferral, &batches, &thresholds, demand);
            inputs.total_workers = workers;
            let mut knapsack = two_tier_knapsack(&inputs);
            for level in [0, 6, 13, 25] {
                knapsack.aim(1, deferred_load(&inputs, level));
                check_searches_agree(&knapsack.problem, &mut carried);
            }
        }

        let deferrals = vec![uniform_profile(), uniform_profile()];
        let mut carried = WarmStart::new();
        for demand in [2.0, 5.0, 9.0, 14.0] {
            let inputs = ladder3_inputs(&deferrals, &batches, &thresholds, demand);
            let mut knapsack = ladder_knapsack(&inputs);
            for levels in [[0, 0], [6, 13], [20, 5], [25, 25]] {
                aim_tiers(&mut knapsack, &inputs, &levels);
                check_searches_agree(&knapsack.problem, &mut carried);
            }
        }
    }

    /// The two-tier residual is a multiple-choice knapsack — 2·B binary
    /// selectors and the `one-batch` pair, `capacity` and `latency` rows
    /// (no `latency` row under the AIMD case's infinite SLO) — the same
    /// size at 1000 workers as at 8, and the tick's optimality solve
    /// barely branches. Measured on a 60-step demand walk that keeps the
    /// threshold mid-grid, scaled to the fleet: at 8 workers every solve
    /// ends at the root; at 1000, where no selector is fixed out, the LP
    /// mixes batch sizes more often and the mean stays ≤ 3 nodes.
    #[test]
    fn two_tier_residual_is_a_knapsack_that_barely_branches() {
        let deferral = uniform_profile();
        let batches = [1usize, 2, 4, 8, 16];
        let thresholds = grid(51, 0.9);
        let options = MilpOptions::default();
        let shape = |inputs: &AllocatorInputs<'_>| {
            let p = two_tier_knapsack(inputs).problem;
            (p.num_vars(), p.integer_vars().len(), p.num_constraints())
        };
        for (workers, max_nodes) in [(8usize, 60), (1000, 3 * 60)] {
            let mut inputs = cascade1_inputs(&deferral, &batches, &thresholds, 0.0);
            inputs.total_workers = workers;
            assert_eq!(shape(&inputs), (2 * 5, 2 * 5, 4), "{workers} workers");
            let aimd = AllocatorInputs {
                slo: f64::INFINITY,
                ..inputs.clone()
            };
            assert_eq!(shape(&aimd), (2 * 5, 2 * 5, 3), "{workers} workers");

            // The serving path's search, replayed through a handle of the
            // test's own so its one optimality solve can be read.
            let (mut state, mut carried) = (AllocWarmState::new(), WarmStart::new());
            let (mut level, mut nodes) = (0, Vec::new());
            for step in 0..60 {
                let wave = 0.5 + 0.5 * (step as f64 * 0.2).sin();
                inputs.demand_qps = (1.0 + 9.0 * wave) * workers as f64 / 8.0;
                let served =
                    solve_milp_allocation_warm(&inputs, &mut state).expect("feasible walk");
                let mut knapsack = two_tier_knapsack(&inputs);
                level = largest_feasible_level(thresholds.len(), level, |l| {
                    knapsack.aim(1, deferred_load(&inputs, l));
                    find_feasible(&knapsack.problem, &options, &mut carried).is_ok()
                })
                .expect("feasible walk");
                assert_eq!(thresholds[level], served.thresholds[0], "step {step}");
                knapsack.aim(1, deferred_load(&inputs, level));
                let sol = solve_milp_warm(&knapsack.problem, &options, &mut carried)
                    .expect("the search verified this level feasible");
                nodes.push(sol.nodes);
            }
            // Every solve visits at least the root, so at 8 workers the
            // bound says each one ends there.
            let total: usize = nodes.iter().sum();
            assert!(total <= max_nodes, "{workers} workers: {nodes:?}");
        }
    }

    /// The ladder residual is the same knapsack — N·B binary selectors,
    /// one row per tier plus capacity and latency — and its relaxation is
    /// tight enough that the tick's optimality solve barely branches.
    /// Measured on the final levels of a 60-step demand walk.
    #[test]
    fn ladder_residual_is_a_knapsack_that_barely_branches() {
        let deferrals = vec![uniform_profile(), uniform_profile()];
        let batches = [1usize, 2, 4, 8, 16];
        let thresholds = grid(26, 0.9);
        let mut inputs = ladder3_inputs(&deferrals, &batches, &thresholds, 0.0);
        let mut knapsack = ladder_knapsack(&inputs);
        let shape = (
            knapsack.problem.num_vars(),
            knapsack.problem.integer_vars().len(),
            knapsack.problem.num_constraints(),
        );
        assert_eq!(shape, (3 * 5, 3 * 5, 3 + 2));

        // The tick's optimality solve: at the levels the search settles on,
        // through a handle carried from the previous tick's optimum.
        let (mut state, mut carried) = (LadderWarmState::new(), WarmStart::new());
        let mut nodes = 0;
        for step in 0..60 {
            inputs.demand_qps = 2.0 + 12.0 * (0.5 + 0.5 * (step as f64 * 0.2).sin());
            let plan = solve_ladder(&inputs, true, &mut state).expect("feasible walk");
            let levels: Vec<usize> = plan
                .thresholds
                .iter()
                .map(|t| thresholds.iter().position(|g| g == t).expect("on the grid"))
                .collect();
            aim_tiers(&mut knapsack, &inputs, &levels);
            let sol = solve_milp_warm(&knapsack.problem, &MilpOptions::default(), &mut carried)
                .expect("the search verified these levels feasible");
            nodes += sol.nodes;
        }
        assert!(
            nodes <= 3 * 60,
            "{nodes} B&B nodes over 60 optimality solves"
        );
    }

    #[test]
    fn ladder_milp_and_exhaustive_inner_solvers_agree() {
        let deferrals = vec![uniform_profile(), uniform_profile()];
        let batches = [1usize, 2, 4, 8];
        let thresholds = grid(11, 0.9);
        for demand in [2.0, 5.0, 9.0, 14.0] {
            let inputs = ladder3_inputs(&deferrals, &batches, &thresholds, demand);
            let ex = solve_ladder(&inputs, false, &mut LadderWarmState::new());
            let milp = solve_ladder(&inputs, true, &mut LadderWarmState::new());
            assert_eq!(ex, milp, "demand {demand}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// The two inner solvers are interchangeable tick for tick: over a
        /// random demand walk, each threaded through its own
        /// [`LadderWarmState`], the MILP path (knapsack residual, feasibility
        /// probes through one carried handle, one optimality solve) and
        /// the exhaustive scan return the identical [`LadderAllocation`] —
        /// thresholds, hysteresis-held worker split, batches, and the
        /// infeasible ticks in between. Fleets run from 3 workers to the
        /// 1000-worker fleet scale, where the fleet size is only a
        /// coefficient of the residual.
        #[test]
        fn ladder_milp_matches_exhaustive_on_random_walks(
            demands in proptest::collection::vec(1u32..400, 1..10),
            fleet_scale in 0u32..=100,
            batch_grid in 0usize..4,
            raise in 0usize..3,
            direct in (0u32..=100, 0u32..=100),
            queues in proptest::collection::vec(0u32..60, 3..4),
        ) {
            let deferrals = vec![uniform_profile(), uniform_profile()];
            let batches: &[usize] = [
                &[1usize, 2, 4, 8][..],
                &[1, 2, 4, 8, 16],
                &[1, 4],
                &[1, 2, 3],
            ][batch_grid];
            let thresholds = grid(11, 0.9);
            // Log-uniform over 3..=1000, so small fleets stay well covered.
            let fleet = (3.0 * (1000.0f64 / 3.0).powf(fleet_scale as f64 / 100.0)).round() as usize;
            let mut inputs = ladder3_inputs(&deferrals, batches, &thresholds, 0.0);
            inputs.total_workers = fleet;
            inputs.queue_delays = queues.iter().map(|&q| q as f64 / 100.0).collect();
            inputs.max_raise_per_solve = [None, Some(1), Some(2)][raise];
            if direct != (0, 0) {
                // Up to half the demand enters at tier 1, up to 30 % at tier 2.
                let (d1, d2) = (direct.0 as f64 / 200.0, direct.1 as f64 * 0.003);
                inputs.direct_fractions = vec![1.0 - d1 - d2, d1, d2];
            }
            let mut milp_state = LadderWarmState::new();
            let mut scan_state = LadderWarmState::new();
            for (tick, &raw) in demands.iter().enumerate() {
                // 0.1 .. 40 qps per 16 workers: from an idle fleet to
                // hopeless overload on the small ones.
                inputs.demand_qps = raw as f64 / 10.0 * (fleet as f64 / 16.0).max(1.0);
                let milp = solve_ladder(&inputs, true, &mut milp_state);
                let scan = solve_ladder(&inputs, false, &mut scan_state);
                proptest::prop_assert_eq!(milp, scan, "tick {} at {} qps", tick, inputs.demand_qps);
            }
        }
    }

    #[test]
    fn ladder_warm_solves_match_cold_decisions() {
        // A warm start must never change *what the solver decides*: the
        // coordinate search re-maximizes from the warm point, so
        // thresholds, batches, and feasibility match a cold solve bit
        // for bit. The worker split is the one sanctioned divergence —
        // hysteresis keeps the previously actuated split while it still
        // covers every tier's need — so instead of exact equality we pin
        // the contract: same fleet total, and per-tier capacity covers
        // the deferred demand chain at the (identical) thresholds.
        let deferrals = vec![uniform_profile(), uniform_profile()];
        let batches = [1usize, 2, 4, 8];
        let thresholds = grid(26, 0.9);
        let mut warm = LadderWarmState::new();
        for (i, demand) in [4.0, 4.2, 4.1, 8.0, 500.0, 7.5, 4.0]
            .into_iter()
            .enumerate()
        {
            let inputs = ladder3_inputs(&deferrals, &batches, &thresholds, demand);
            let cold = solve_ladder(&inputs, false, &mut LadderWarmState::new());
            let warmed = solve_ladder(&inputs, false, &mut warm);
            if i == 0 {
                assert_eq!(warmed, cold, "first solve has no warm state to reuse");
            }
            match (&warmed, &cold) {
                (Some(w), Some(c)) => {
                    assert_eq!(w.thresholds, c.thresholds, "demand {demand}");
                    assert_eq!(w.batches, c.batches, "demand {demand}");
                    assert_eq!(w.feasible, c.feasible, "demand {demand}");
                    assert_eq!(
                        w.workers.iter().sum::<usize>(),
                        c.workers.iter().sum::<usize>(),
                        "demand {demand}: fleet total"
                    );
                    let mut d = demand;
                    for k in 0..w.workers.len() {
                        if k > 0 {
                            d *= inputs.deferrals[k - 1].fraction_deferred(w.thresholds[k - 1]);
                        }
                        let cap = w.workers[k] as f64 * stage_throughput(&inputs, k, w.batches[k]);
                        assert!(cap >= d - 1e-9, "demand {demand} tier {k}: {cap} < {d}");
                    }
                }
                (None, None) => {}
                _ => panic!("demand {demand}: warm {warmed:?} vs cold {cold:?}"),
            }
        }
        warm.clear();
        let inputs = ladder3_inputs(&deferrals, &batches, &thresholds, 4.0);
        assert_eq!(
            solve_ladder(&inputs, false, &mut warm),
            solve_ladder(&inputs, false, &mut LadderWarmState::new()),
            "clear() drops the warm split entirely"
        );
    }

    #[test]
    fn ladder_respects_capacity_and_latency() {
        let deferrals = vec![uniform_profile(), uniform_profile()];
        let batches = [1usize, 2, 4, 8];
        let thresholds = grid(11, 0.9);
        let inputs = ladder3_inputs(&deferrals, &batches, &thresholds, 8.0);
        let a = solve_ladder(&inputs, false, &mut LadderWarmState::new()).expect("feasible");
        assert!(a.feasible);
        assert_eq!(a.workers.len(), 3);
        assert_eq!(a.workers.iter().sum::<usize>(), 16);
        assert!(a.workers.iter().all(|&w| w >= 1));
        // Per-tier capacity covers the deferred demand chain.
        let mut d = 8.0f64;
        for k in 0..3 {
            if k > 0 {
                d *= inputs.deferrals[k - 1].fraction_deferred(a.thresholds[k - 1]);
            }
            let cap = a.workers[k] as f64 * stage_throughput(&inputs, k, a.batches[k]);
            assert!(cap >= d - 1e-9, "tier {k}: capacity {cap} < demand {d}");
        }
        // Worst-case cascade latency fits the SLO.
        let lat: f64 = (0..3)
            .map(|k| stage_latency(&inputs, k, a.batches[k]))
            .sum::<f64>()
            + inputs.queue_delays.iter().sum::<f64>();
        assert!(lat <= inputs.slo + 1e-9);
    }

    #[test]
    fn ladder_overload_falls_back() {
        let deferrals = vec![uniform_profile(), uniform_profile()];
        let batches = [1usize, 2, 4, 8];
        let thresholds = grid(11, 0.9);
        let inputs = ladder3_inputs(&deferrals, &batches, &thresholds, 5000.0);
        assert!(solve_ladder(&inputs, false, &mut LadderWarmState::new()).is_none());
        let fb = ladder_overload_fallback(&inputs);
        assert!(!fb.feasible);
        assert_eq!(fb.thresholds, vec![0.0, 0.0]);
        assert_eq!(fb.workers.iter().sum::<usize>(), 16);
        assert_eq!(&fb.workers[1..], &[1, 1], "stragglers keep a host");
    }
}
