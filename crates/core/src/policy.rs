//! Serving policies: DiffServe and every baseline from Table 1, plus the
//! resource-allocation ablations of Fig. 8.

/// The serving policies compared in the paper (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Clipper serving only the lightweight model (static, query-agnostic).
    ClipperLight,
    /// Clipper serving only the heavyweight model (static, query-agnostic).
    ClipperHeavy,
    /// Proteus: dynamic allocation between variants, but *random* routing
    /// that ignores query content.
    Proteus,
    /// DiffServe with a cascade but peak-provisioned static allocation and a
    /// fixed confidence threshold.
    DiffServeStatic,
    /// Full DiffServe: query-aware cascade + dynamic MILP allocation.
    DiffServe,
}

impl Policy {
    /// All policies, in the paper's presentation order.
    pub fn all() -> [Policy; 5] {
        [
            Policy::ClipperLight,
            Policy::ClipperHeavy,
            Policy::Proteus,
            Policy::DiffServeStatic,
            Policy::DiffServe,
        ]
    }

    /// Display name used in tables and figures.
    pub fn name(self) -> &'static str {
        match self {
            Policy::ClipperLight => "Clipper-Light",
            Policy::ClipperHeavy => "Clipper-Heavy",
            Policy::Proteus => "Proteus",
            Policy::DiffServeStatic => "DiffServe-Static",
            Policy::DiffServe => "DiffServe",
        }
    }

    /// Whether the policy adapts its allocation to demand (Table 1).
    pub fn is_dynamic(self) -> bool {
        matches!(self, Policy::Proteus | Policy::DiffServe)
    }

    /// Whether the policy routes queries by their content (Table 1).
    pub fn is_query_aware(self) -> bool {
        matches!(self, Policy::DiffServeStatic | Policy::DiffServe)
    }

    /// Whether the policy runs the light→heavy cascade.
    pub fn uses_cascade(self) -> bool {
        self.is_query_aware()
    }
}

/// How queuing delay is estimated in the latency constraint (§3.3 / Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueModel {
    /// Little's law over measured queue lengths and arrival rates — the
    /// DiffServe design.
    LittlesLaw,
    /// Prior-work heuristic: assume queuing delay equals twice the
    /// execution latency (the "No queuing model" ablation).
    TwiceExecution,
}

/// How batch sizes are chosen (§3.3 / Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPolicy {
    /// The MILP co-optimizes batch sizes — the DiffServe design.
    Milp,
    /// Clipper's additive-increase / multiplicative-decrease heuristic,
    /// reacting to observed SLO timeouts.
    Aimd,
}

/// Ablation switches for the resource allocator (all default to the full
/// DiffServe design).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AblationKnobs {
    /// Fix the confidence threshold instead of letting the MILP tune it
    /// (the "Static threshold" ablation). `None` = tuned.
    pub static_threshold: Option<f64>,
    /// Queuing-delay estimator.
    pub queue_model: QueueModel,
    /// Batch-size selection.
    pub batch_policy: BatchPolicy,
    /// Solve the allocation against the fleet's *nameplate* capacity,
    /// ignoring the effective-capacity signal degraded workers report (the
    /// degradation-blindness ablation). `false` = the DiffServe design:
    /// the planner sees effective throughput and sheds deferrals instead
    /// of deadlines under a brownout.
    pub nameplate_capacity: bool,
    /// Route by raw queue depth, ignoring each worker's health speed factor
    /// — the health-blind JSQ this codebase shipped before routing learned
    /// to weigh a degraded worker's queue slots by its slowdown. `false` =
    /// the fixed design (effective-load JSQ). Kept as an ablation so
    /// regression tests can demonstrate the brownout SLO gap.
    pub health_blind_routing: bool,
    /// Route add-on-carrying queries by queue depth alone, ignoring which
    /// workers have the required module cached (the affinity-blindness
    /// ablation). `false` = the add-on-aware design: the router trades
    /// cached-module affinity against speed-weighted queue depth. Only
    /// consulted when [`SystemConfig::addons`] is set — without add-ons
    /// the knob is inert and routing is unchanged.
    ///
    /// [`SystemConfig::addons`]: crate::config::SystemConfig::addons
    pub affinity_blind_routing: bool,
}

impl Default for AblationKnobs {
    fn default() -> Self {
        AblationKnobs {
            static_threshold: None,
            queue_model: QueueModel::LittlesLaw,
            batch_policy: BatchPolicy::Milp,
            nameplate_capacity: false,
            health_blind_routing: false,
            affinity_blind_routing: false,
        }
    }
}

impl AblationKnobs {
    /// The Fig. 8 "Static threshold" variant.
    pub fn static_threshold(t: f64) -> Self {
        AblationKnobs {
            static_threshold: Some(t),
            ..Default::default()
        }
    }

    /// The Fig. 8 "AIMD" variant.
    pub fn aimd() -> Self {
        AblationKnobs {
            batch_policy: BatchPolicy::Aimd,
            ..Default::default()
        }
    }

    /// The Fig. 8 "No queuing model" variant.
    pub fn no_queue_model() -> Self {
        AblationKnobs {
            queue_model: QueueModel::TwiceExecution,
            ..Default::default()
        }
    }

    /// The degradation-blindness ablation: the planner solves against
    /// nameplate capacity even when workers report degraded throughput.
    pub fn nameplate() -> Self {
        AblationKnobs {
            nameplate_capacity: true,
            ..Default::default()
        }
    }

    /// The health-blind routing ablation: JSQ over raw queue depth, as
    /// shipped before the router weighed load by worker slowdown.
    pub fn health_blind() -> Self {
        AblationKnobs {
            health_blind_routing: true,
            ..Default::default()
        }
    }

    /// The affinity-blind routing ablation: add-on-carrying queries route
    /// by queue depth alone, ignoring module-cache residency.
    pub fn affinity_blind() -> Self {
        AblationKnobs {
            affinity_blind_routing: true,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_taxonomy() {
        // Reproduces Table 1 of the paper.
        assert!(!Policy::ClipperLight.is_dynamic());
        assert!(!Policy::ClipperLight.is_query_aware());
        assert!(!Policy::ClipperHeavy.is_dynamic());
        assert!(!Policy::ClipperHeavy.is_query_aware());
        assert!(Policy::Proteus.is_dynamic());
        assert!(!Policy::Proteus.is_query_aware());
        assert!(!Policy::DiffServeStatic.is_dynamic());
        assert!(Policy::DiffServeStatic.is_query_aware());
        assert!(Policy::DiffServe.is_dynamic());
        assert!(Policy::DiffServe.is_query_aware());
    }

    #[test]
    fn names_are_unique() {
        let names: Vec<_> = Policy::all().iter().map(|p| p.name()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn ablation_builders() {
        assert_eq!(
            AblationKnobs::static_threshold(0.5).static_threshold,
            Some(0.5)
        );
        assert_eq!(AblationKnobs::aimd().batch_policy, BatchPolicy::Aimd);
        assert_eq!(
            AblationKnobs::no_queue_model().queue_model,
            QueueModel::TwiceExecution
        );
        assert!(AblationKnobs::nameplate().nameplate_capacity);
        assert!(AblationKnobs::affinity_blind().affinity_blind_routing);
        let d = AblationKnobs::default();
        assert_eq!(d.static_threshold, None);
        assert_eq!(d.queue_model, QueueModel::LittlesLaw);
        assert_eq!(d.batch_policy, BatchPolicy::Milp);
        assert!(!d.nameplate_capacity);
        assert!(!d.affinity_blind_routing);
    }

    #[test]
    fn each_ablation_builder_moves_one_knob_off_the_design() {
        let design = AblationKnobs::default();
        let differs = |k: AblationKnobs| {
            [
                k.static_threshold != design.static_threshold,
                k.queue_model != design.queue_model,
                k.batch_policy != design.batch_policy,
                k.nameplate_capacity != design.nameplate_capacity,
                k.health_blind_routing != design.health_blind_routing,
                k.affinity_blind_routing != design.affinity_blind_routing,
            ]
        };
        let builders = [
            AblationKnobs::static_threshold(0.5),
            AblationKnobs::no_queue_model(),
            AblationKnobs::aimd(),
            AblationKnobs::nameplate(),
            AblationKnobs::health_blind(),
            AblationKnobs::affinity_blind(),
        ];
        for (i, knobs) in builders.into_iter().enumerate() {
            let moved = differs(knobs);
            for (j, &m) in moved.iter().enumerate() {
                assert_eq!(m, i == j, "builder {i}, knob {j}");
            }
        }
    }

    #[test]
    fn only_the_query_aware_policies_run_the_cascade() {
        let cascaded: Vec<&str> = Policy::all()
            .into_iter()
            .filter(|p| p.uses_cascade())
            .map(Policy::name)
            .collect();
        assert_eq!(cascaded, ["DiffServe-Static", "DiffServe"]);
        // The paper's presentation order: baselines first, DiffServe last.
        assert_eq!(Policy::all()[0], Policy::ClipperLight);
        assert_eq!(Policy::all()[4], Policy::DiffServe);
    }
}
