//! The shared serving plan updated by the controller and read by workers.

use diffserve_core::kernel::{adopt_batches, worker_moves, worker_targets};
use diffserve_core::LadderAllocation;

/// A snapshot of the controller's decisions: worker tier assignments,
/// per-tier batch sizes, and the per-boundary cascade thresholds. Workers
/// read the current plan at every batch boundary; the controller swaps in
/// new plans atomically behind a lock.
///
/// Tiers are 0-based ladder indices, cheapest first. A legacy two-model
/// cascade is the `num_tiers == 2` special case: tier `0` is the light
/// model, tier `1` the heavy model, and `thresholds` holds the single
/// cascade threshold (which Proteus reuses as its heavy routing fraction).
#[derive(Debug, Clone, PartialEq)]
pub struct ServingPlan {
    /// Ladder tier each worker should host.
    pub tiers: Vec<usize>,
    /// Batch size per ladder tier (length = number of tiers).
    pub batches: Vec<usize>,
    /// Confidence threshold per escalation boundary (length = tiers − 1).
    pub thresholds: Vec<f64>,
    /// `true` while the actuated plan is the overload fallback: the
    /// predictive router stops bypassing so every arrival enters the entry
    /// tier, where the floored thresholds can shed it.
    pub bypass_suspended: bool,
}

impl ServingPlan {
    /// A two-tier plan for a fresh fleet: half the fleet per tier (the
    /// light tier on the lower indices), batch 1, mid threshold.
    pub fn bootstrap(num_workers: usize) -> Self {
        let light = num_workers / 2;
        ServingPlan::new(
            num_workers,
            &LadderAllocation {
                thresholds: vec![0.5],
                workers: vec![light, num_workers - light],
                batches: vec![1, 1],
                feasible: true,
            },
        )
    }

    /// The plan a fresh fleet of `num_workers` takes up under `plan`: the
    /// fleet starts idle on the terminal tier, so the kernel's
    /// [`worker_moves`] place it positionally.
    pub(crate) fn new(num_workers: usize, plan: &LadderAllocation) -> Self {
        let mut fresh = ServingPlan {
            tiers: vec![plan.workers.len() - 1; num_workers],
            batches: Vec::new(),
            thresholds: Vec::new(),
            bypass_suspended: false,
        };
        fresh.adopt(plan, &[], |_| 0);
        fresh
    }

    /// Number of ladder tiers this plan provisions for.
    pub fn num_tiers(&self) -> usize {
        self.batches.len()
    }

    /// Re-derives two-tier assignments from target counts over the workers
    /// whose `excluded` flag is unset — used under scenario-driven worker
    /// churn so a failed worker's slot neither satisfies nor distorts the
    /// allocation. `excluded` may be shorter than the fleet; missing
    /// entries mean "not excluded". Every worker counts as idle, so each
    /// surplus tier gives up its lowest-indexed workers.
    ///
    /// # Examples
    ///
    /// ```
    /// use diffserve_cluster::ServingPlan;
    ///
    /// let mut plan = ServingPlan::bootstrap(4); // 2 light, 2 heavy
    /// // Worker 3 is down: rebalance the 3 alive workers to 1 light / 2 heavy.
    /// plan.retarget_masked(1, 2, &[false, false, false, true]);
    /// let alive_light = (0..3).filter(|&i| plan.tiers[i] == 0).count();
    /// assert_eq!(alive_light, 1);
    /// ```
    pub fn retarget_masked(
        &mut self,
        light_workers: usize,
        heavy_workers: usize,
        excluded: &[bool],
    ) {
        let alive = self.alive(excluded);
        self.place(&[light_workers, heavy_workers], &alive, |_| 0);
    }

    /// Takes over a control plan: the kernel's [`adopt_batches`], its
    /// [`worker_moves`] over the workers not `excluded` (fail-stopped, so
    /// no tier lands on a dead slot) ranking donors by `load` (queued plus
    /// in service), the per-boundary thresholds (Proteus's heavy fraction
    /// in the first) and the bypass suspension under the overload
    /// fallback.
    pub(crate) fn adopt(
        &mut self,
        plan: &LadderAllocation,
        excluded: &[bool],
        load: impl Fn(usize) -> usize,
    ) {
        adopt_batches(&mut self.batches, plan);
        let alive = self.alive(excluded);
        self.place(&plan.workers, &alive, load);
        self.thresholds.clone_from(&plan.thresholds);
        self.bypass_suspended = !plan.feasible;
    }

    /// The workers not `excluded`, in index order.
    fn alive(&self, excluded: &[bool]) -> Vec<usize> {
        (0..self.tiers.len())
            .filter(|&i| !excluded.get(i).copied().unwrap_or(false))
            .collect()
    }

    /// Moves the `alive` workers to the [`worker_targets`] of `planned` by
    /// the kernel's [`worker_moves`], ranking donors by `load`: spare
    /// capacity beyond the plan joins the entry tier, an over-subscribed
    /// plan is cut from the deep end. Debug and `verify` builds then check
    /// that every tier's alive members number its target.
    fn place(&mut self, planned: &[usize], alive: &[usize], load: impl Fn(usize) -> usize) {
        let mut targets = worker_targets(planned, alive.len());
        targets.resize(self.num_tiers(), 0);
        let mut current = vec![0; targets.len()];
        for &i in alive {
            current[self.tiers[i]] += 1;
        }
        let (tiers, load) = (&self.tiers, &load);
        let moves = worker_moves(
            |t| current[t],
            &targets,
            |t| {
                alive
                    .iter()
                    .filter(move |&&i| tiers[i] == t)
                    .map(|&i| (load(i), i))
            },
        );
        for (worker, tier) in moves {
            self.tiers[worker] = tier;
        }
        for (tier, &target) in targets.iter().enumerate() {
            debug_assert_eq!(
                alive.iter().filter(|&&i| self.tiers[i] == tier).count(),
                target,
                "tier {tier} is staffed off its target after a plan"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_tier(workers: Vec<usize>) -> LadderAllocation {
        LadderAllocation {
            thresholds: vec![0.3, 0.6],
            workers,
            batches: vec![1, 2, 8],
            feasible: true,
        }
    }

    #[test]
    fn bootstrap_splits_fleet() {
        let p = ServingPlan::bootstrap(8);
        assert_eq!(p.tiers, [0, 0, 0, 0, 1, 1, 1, 1]);
        assert_eq!(p.batches[0], 1);
        assert_eq!(p.num_tiers(), 2);
    }

    /// A fresh fleet is placed positionally, spare workers on the entry
    /// tier, and takes the plan's parameters.
    #[test]
    fn a_fresh_fleet_takes_the_plan_positionally() {
        let p = ServingPlan::new(6, &three_tier(vec![1, 2, 1]));
        assert_eq!(p.tiers, [0, 0, 0, 1, 1, 2]);
        assert_eq!(p.thresholds, [0.3, 0.6]);
        assert!(!p.bypass_suspended);
    }

    #[test]
    fn retarget_masked_ignores_failed_workers() {
        let mut p = ServingPlan::bootstrap(8); // 0..4 light, 4..8 heavy
        let mut excluded = vec![false; 8];
        excluded[6] = true;
        excluded[7] = true;
        p.retarget_masked(4, 2, &excluded);
        let alive_light = (0..6).filter(|&i| p.tiers[i] == 0).count();
        let alive_heavy = (0..6).filter(|&i| p.tiers[i] == 1).count();
        assert_eq!(alive_light, 4);
        assert_eq!(alive_heavy, 2);
        // Excluded workers were not touched.
        assert_eq!(p.tiers[6], 1);
        assert_eq!(p.tiers[7], 1);
    }

    /// Adopting a plan moves the least-loaded surplus workers.
    #[test]
    fn adopt_moves_the_least_loaded_surplus() {
        let mut p = ServingPlan::bootstrap(6); // 0..3 light, 3..6 heavy
        let loads = [4, 0, 2, 1, 5, 0];
        let next = LadderAllocation {
            thresholds: vec![0.7],
            workers: vec![1, 5],
            batches: vec![2, 1],
            feasible: false,
        };
        p.adopt(&next, &[], |i| loads[i]);
        assert_eq!(p.tiers, [0, 1, 1, 1, 1, 1]);
        assert_eq!((p.batches, p.thresholds), (vec![2, 1], vec![0.7]));
        assert!(p.bypass_suspended);
    }

    #[test]
    fn adopt_floors_batches_at_one_and_lifts_the_suspension() {
        let mut p = ServingPlan::bootstrap(4);
        p.bypass_suspended = true;
        let next = LadderAllocation {
            thresholds: vec![0.4],
            workers: vec![2, 2],
            batches: vec![0, 3],
            feasible: true,
        };
        p.adopt(&next, &[], |_| 0);
        assert_eq!(p.batches, [1, 3]);
        assert!(!p.bypass_suspended);
        assert_eq!(p.tiers, [0, 0, 1, 1], "a settled fleet does not move");
    }

    #[test]
    fn an_oversubscribed_fresh_plan_is_cut_from_the_deep_end() {
        let p = ServingPlan::new(4, &three_tier(vec![2, 2, 2]));
        assert_eq!(p.tiers, [0, 0, 1, 1]);
        assert_eq!(p.num_tiers(), 3);
    }

    #[test]
    fn workers_past_the_exclusion_mask_count_as_alive() {
        let mut p = ServingPlan::bootstrap(4); // 0, 1 light; 2, 3 heavy
                                               // Only worker 2 is excluded; worker 3 lies past the mask.
        p.retarget_masked(3, 0, &[false, false, true]);
        assert_eq!(p.tiers, [0, 0, 1, 0]);
    }
}
