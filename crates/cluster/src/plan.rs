//! The shared serving plan updated by the controller and read by workers.

use diffserve_core::kernel::worker_targets;

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
    /// A two-tier bootstrap plan: half the fleet per tier, batch 1, mid
    /// threshold.
    pub fn bootstrap(num_workers: usize) -> Self {
        ServingPlan::bootstrap_tiers(num_workers, 2)
    }

    /// An N-tier bootstrap plan: half the fleet on the entry tier, half on
    /// the terminal tier (mid tiers start empty — the first control tick
    /// staffs them), batch 1 everywhere, mid thresholds. Mirrors the
    /// simulator's pre-bootstrap worker split.
    ///
    /// # Panics
    ///
    /// Panics if `num_tiers < 2`.
    pub fn bootstrap_tiers(num_workers: usize, num_tiers: usize) -> Self {
        assert!(num_tiers >= 2, "a ladder needs at least two tiers");
        ServingPlan {
            tiers: (0..num_workers)
                .map(|i| {
                    if i < num_workers / 2 {
                        0
                    } else {
                        num_tiers - 1
                    }
                })
                .collect(),
            batches: vec![1; num_tiers],
            thresholds: vec![0.5; num_tiers - 1],
            bypass_suspended: false,
        }
    }

    /// Number of ladder tiers this plan provisions for.
    pub fn num_tiers(&self) -> usize {
        self.batches.len()
    }

    /// Batch size for a ladder tier (clamped to the last tier's slot for
    /// out-of-range indices, which only arise mid-reconfiguration).
    pub fn batch_for(&self, tier: usize) -> usize {
        self.batches[tier.min(self.batches.len() - 1)]
    }

    /// Worker indices currently assigned to a ladder tier.
    pub fn workers_of(&self, tier: usize) -> Vec<usize> {
        self.tiers
            .iter()
            .enumerate()
            .filter(|(_, &t)| t == tier)
            .map(|(i, _)| i)
            .collect()
    }

    /// Re-derives two-tier assignments from target counts, switching as few
    /// workers as possible (stable assignment). Only counts and reassigns
    /// workers whose `excluded` flag is unset — used under scenario-driven
    /// worker churn so a failed worker's slot neither satisfies nor distorts
    /// the allocation. `excluded` may be shorter than the fleet; missing entries
    /// mean "not excluded". The N = 2 case of
    /// [`ServingPlan::retarget_ladder_masked`].
    ///
    /// # Examples
    ///
    /// ```
    /// use diffserve_cluster::ServingPlan;
    ///
    /// let mut plan = ServingPlan::bootstrap(4); // 2 light, 2 heavy
    /// // Worker 3 is down: rebalance the 3 alive workers to 1 light / 2 heavy.
    /// plan.retarget_masked(1, 2, &[false, false, false, true]);
    /// let alive_light = plan.workers_of(0).into_iter().filter(|&i| i != 3).count();
    /// assert_eq!(alive_light, 1);
    /// ```
    pub fn retarget_masked(
        &mut self,
        light_workers: usize,
        heavy_workers: usize,
        excluded: &[bool],
    ) {
        self.retarget_ladder_masked(&[light_workers, heavy_workers], excluded);
    }

    /// Re-derives tier assignments from per-tier target counts over the
    /// non-excluded workers, flipping as few workers as possible. The
    /// targets come from the serving kernel's [`worker_targets`]: spare
    /// capacity beyond the plan joins the entry tier, an over-subscribed
    /// plan is cut from the deep end.
    pub fn retarget_ladder_masked(&mut self, workers: &[usize], excluded: &[bool]) {
        let nt = self.num_tiers();
        let is_excluded = |i: usize| excluded.get(i).copied().unwrap_or(false);
        let avail: Vec<usize> = (0..self.tiers.len()).filter(|&i| !is_excluded(i)).collect();
        let mut planned = workers.to_vec();
        planned.resize(nt, 0);
        let target = worker_targets(&planned, avail.len());
        let mut current = vec![0usize; nt];
        for &i in &avail {
            current[self.tiers[i].min(nt - 1)] += 1;
        }
        // Move workers from surplus tiers to deficit tiers, lowest worker
        // index first.
        for &i in &avail {
            let t = self.tiers[i].min(nt - 1);
            if current[t] <= target[t] {
                continue;
            }
            let Some(d) = (0..nt).find(|&d| current[d] < target[d]) else {
                break;
            };
            self.tiers[i] = d;
            current[t] -= 1;
            current[d] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bootstrap_splits_fleet() {
        let p = ServingPlan::bootstrap(8);
        assert_eq!(p.workers_of(0).len(), 4);
        assert_eq!(p.workers_of(1).len(), 4);
        assert_eq!(p.batch_for(0), 1);
        assert_eq!(p.num_tiers(), 2);
    }

    #[test]
    fn bootstrap_tiers_leaves_mid_tiers_empty() {
        let p = ServingPlan::bootstrap_tiers(8, 4);
        assert_eq!(p.workers_of(0).len(), 4);
        assert_eq!(p.workers_of(1).len(), 0);
        assert_eq!(p.workers_of(2).len(), 0);
        assert_eq!(p.workers_of(3).len(), 4);
        assert_eq!(p.thresholds.len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least two tiers")]
    fn a_one_tier_bootstrap_panics() {
        let _ = ServingPlan::bootstrap_tiers(4, 1);
    }

    #[test]
    fn batch_for_clamps_past_the_last_tier() {
        let mut p = ServingPlan::bootstrap_tiers(4, 3);
        p.batches = vec![1, 2, 8];
        assert_eq!((p.batch_for(2), p.batch_for(5)), (8, 8));
    }

    #[test]
    fn retarget_minimizes_switches() {
        let mut p = ServingPlan::bootstrap(8);
        p.retarget_masked(6, 2, &[]);
        assert_eq!(p.workers_of(0).len(), 6);
        // The original 4 light workers must not have flipped.
        for i in 0..4 {
            assert_eq!(p.tiers[i], 0);
        }
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

    #[test]
    fn retarget_assigns_spare_to_light() {
        let mut p = ServingPlan::bootstrap(8);
        p.retarget_masked(2, 2, &[]); // 4 spare → light
        assert_eq!(p.workers_of(0).len(), 6);
        assert_eq!(p.workers_of(1).len(), 2);
    }

    #[test]
    fn ladder_retarget_staffs_mid_tiers_stably() {
        let mut p = ServingPlan::bootstrap_tiers(8, 3); // 4 on tier 0, 4 on tier 2
        p.retarget_ladder_masked(&[4, 2, 2], &[]);
        assert_eq!(p.workers_of(0).len(), 4);
        assert_eq!(p.workers_of(1).len(), 2);
        assert_eq!(p.workers_of(2).len(), 2);
        // Tier-0 workers were already in place and must not have flipped.
        for i in 0..4 {
            assert_eq!(p.tiers[i], 0);
        }
    }

    #[test]
    fn ladder_retarget_spills_spare_to_entry_tier() {
        let mut p = ServingPlan::bootstrap_tiers(6, 3);
        p.retarget_ladder_masked(&[1, 1, 1], &[]);
        assert_eq!(p.workers_of(0).len(), 4); // 1 target + 3 spare
        assert_eq!(p.workers_of(1).len(), 1);
        assert_eq!(p.workers_of(2).len(), 1);
    }

    #[test]
    fn ladder_retarget_truncates_oversubscription_from_deep_end() {
        let mut p = ServingPlan::bootstrap_tiers(4, 3);
        let mut excluded = vec![false; 4];
        excluded[3] = true;
        p.retarget_ladder_masked(&[2, 1, 1], &excluded); // 4 targets, 3 alive
        let alive: Vec<usize> = (0..3).map(|i| p.tiers[i]).collect();
        assert_eq!(alive.iter().filter(|&&t| t == 0).count(), 2);
        assert_eq!(alive.iter().filter(|&&t| t == 1).count(), 1);
        assert_eq!(alive.iter().filter(|&&t| t == 2).count(), 0);
    }
}
