//! Add-on-aware serving: the module catalog, per-worker bounded LRU module
//! caches, and the hit/swap accounting both engines surface.
//!
//! Production diffusion traffic carries add-on modules — LoRA styles,
//! ControlNet conditioners — whose weights a worker must have loaded before
//! it can serve the query. Loading is not free: a cache miss adds the
//! module's load latency to that batch's service time, and under
//! affinity-blind routing the misses dominate tail latency
//! (SwiftDiffusion). This module provides the serving-side vocabulary:
//!
//! * [`AddonCatalog`] — the fleet-wide module table (name, memory
//!   footprint, load latency), indexed by dense ids that
//!   [`AddonMix`] draws from.
//! * [`ModuleCache`] — one worker's bounded LRU over loaded modules. A hit
//!   refreshes recency and costs nothing; a miss evicts
//!   least-recently-used residents until the module fits and charges its
//!   load latency.
//! * [`AddonStats`] — per-tier hit/miss/swap-seconds counters reported in
//!   [`RunReport`](crate::report::RunReport) and
//!   [`SessionSnapshot`](crate::serve::SessionSnapshot).
//! * [`AddonsConfig`] — the opt-in knob on
//!   [`SystemConfig`](crate::config::SystemConfig). `None` (the default)
//!   disables the subsystem entirely: no query carries an add-on, no cache
//!   exists, and every run is bit-identical to a build without this module.

use std::collections::VecDeque;

use diffserve_trace::AddonMix;

use crate::config::ConfigError;

/// One add-on module in the catalog: a LoRA style or ControlNet
/// conditioner with a real memory footprint and load cost.
#[derive(Debug, Clone, PartialEq)]
pub struct AddonModule {
    /// Human-readable name (used in bench tables).
    pub name: String,
    /// Weights footprint in MB, counted against a worker's
    /// [`ModuleCache`] budget.
    pub mem_mb: f64,
    /// Seconds to load the module onto a worker — the latency a cache
    /// miss adds to the batch that needs it.
    pub load_secs: f64,
}

/// The fleet-wide table of add-on modules, indexed by dense id.
///
/// Ids are positions: the seeded per-query draw
/// ([`AddonMix`]) returns indices into this
/// catalog, with id 0 the most popular module under the Zipf ranking.
#[derive(Debug, Clone, PartialEq)]
pub struct AddonCatalog {
    modules: Vec<AddonModule>,
}

impl AddonCatalog {
    /// Creates a catalog from its module table.
    pub fn new(modules: Vec<AddonModule>) -> Self {
        AddonCatalog { modules }
    }

    /// A deterministic synthetic catalog of `n` LoRA-style modules with
    /// staggered footprints (256–512 MB) and load latencies (0.3–0.5 s),
    /// the SwiftDiffusion-reported ballpark for LoRA load costs.
    pub fn demo(n: usize) -> Self {
        AddonCatalog {
            modules: (0..n)
                .map(|i| AddonModule {
                    name: format!("lora-{i}"),
                    mem_mb: 256.0 + 64.0 * (i % 5) as f64,
                    load_secs: 0.3 + 0.1 * (i % 3) as f64,
                })
                .collect(),
        }
    }

    /// The module with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (the mix's `num_modules()` is
    /// validated to match the catalog length).
    pub fn get(&self, id: usize) -> &AddonModule {
        &self.modules[id]
    }

    /// Number of modules.
    pub fn len(&self) -> usize {
        self.modules.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.modules.is_empty()
    }

    /// All modules in id order.
    pub fn modules(&self) -> &[AddonModule] {
        &self.modules
    }

    /// Checks every module's parameters.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.modules.is_empty() {
            return Err(ConfigError::new("add-on catalog must not be empty"));
        }
        for m in &self.modules {
            if !m.mem_mb.is_finite() || m.mem_mb <= 0.0 {
                return Err(ConfigError::new(
                    "add-on module memory must be finite and positive",
                ));
            }
            if !m.load_secs.is_finite() || m.load_secs < 0.0 {
                return Err(ConfigError::new(
                    "add-on module load latency must be finite and non-negative",
                ));
            }
        }
        Ok(())
    }
}

/// One worker's bounded LRU cache over loaded add-on modules.
///
/// Recency order is a deque: front = least recently used, back = most
/// recently used. Beside it a bitset marks the resident ids, so a lookup
/// is one bit test. [`ModuleCache::admit`] is the single mutation point — a
/// hit refreshes recency for free, a miss evicts LRU residents until the
/// module fits and returns its load latency. Eviction is fully
/// deterministic: same admit sequence, same final resident set.
#[derive(Debug, Clone)]
pub struct ModuleCache {
    budget_mb: f64,
    used_mb: f64,
    resident: VecDeque<usize>,
    /// Bit `id % 64` of word `id / 64` is set while module `id` is
    /// resident; grown on the first admit of an id past its end.
    bits: Vec<u64>,
}

impl ModuleCache {
    /// An empty cache with a `budget_mb` memory budget.
    pub fn new(budget_mb: f64) -> Self {
        ModuleCache {
            budget_mb,
            used_mb: 0.0,
            resident: VecDeque::new(),
            bits: Vec::new(),
        }
    }

    /// Whether module `id` is resident (read-only; does not touch recency).
    #[inline]
    pub fn contains(&self, id: usize) -> bool {
        self.bits
            .get(id / 64)
            .is_some_and(|word| word >> (id % 64) & 1 == 1)
    }

    /// The resident set as a bitset over module ids (bit `id % 64` of word
    /// `id / 64`). The words only grow, so a later call returns at least
    /// as many.
    pub(crate) fn resident_bits(&self) -> &[u64] {
        &self.bits
    }

    fn set_resident(&mut self, id: usize, resident: bool) {
        let w = id / 64;
        if w >= self.bits.len() {
            self.bits.resize(w + 1, 0);
        }
        if resident {
            self.bits[w] |= 1 << (id % 64);
        } else {
            self.bits[w] &= !(1 << (id % 64));
        }
    }

    /// Resident module ids in recency order (LRU first).
    pub fn resident(&self) -> impl Iterator<Item = usize> + '_ {
        self.resident.iter().copied()
    }

    /// Memory currently used, in MB.
    pub fn used_mb(&self) -> f64 {
        self.used_mb
    }

    /// Ensures module `id` is loaded, returning the swap latency charged:
    /// `0.0` on a hit (recency refreshed), the module's `load_secs` on a
    /// miss. On a miss, least-recently-used residents are evicted until
    /// the module fits; a module larger than the whole budget is charged
    /// its load latency every time but never cached.
    pub fn admit(&mut self, id: usize, catalog: &AddonCatalog) -> f64 {
        if let Some(pos) = self.resident.iter().position(|&m| m == id) {
            self.resident.remove(pos);
            self.resident.push_back(id);
            return 0.0;
        }
        let module = catalog.get(id);
        while self.used_mb + module.mem_mb > self.budget_mb {
            match self.resident.pop_front() {
                Some(victim) => {
                    self.used_mb -= catalog.get(victim).mem_mb;
                    self.set_resident(victim, false);
                }
                None => break,
            }
        }
        if self.used_mb + module.mem_mb <= self.budget_mb {
            self.resident.push_back(id);
            self.used_mb += module.mem_mb;
            self.set_resident(id, true);
        }
        module.load_secs
    }

    /// Drops every resident module — a fail-stopped worker loses its GPU
    /// memory and rejoins cold.
    pub fn clear(&mut self) {
        self.resident.clear();
        self.used_mb = 0.0;
        self.bits.fill(0);
    }
}

/// Per-tier add-on cache accounting in two tier slots: slot 0 is the entry
/// tier, slot 1 every deeper tier. Both engines record one entry per
/// add-on-carrying query at dispatch time and surface the totals in
/// [`RunReport`](crate::report::RunReport) and
/// [`SessionSnapshot`](crate::serve::SessionSnapshot).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AddonStats {
    /// Cache hits per tier slot.
    pub hits: [u64; 2],
    /// Cache misses per tier slot.
    pub misses: [u64; 2],
    /// Total swap seconds charged per tier slot (each miss contributes
    /// its module's load latency).
    pub swap_secs: [f64; 2],
}

/// The slot ladder tier `tier` is counted in.
fn tier_slot(tier: usize) -> usize {
    tier.min(1)
}

impl AddonStats {
    /// Records one add-on lookup on ladder tier `tier`: a hit, or a miss
    /// that charged `swap_secs` of load latency.
    pub fn record(&mut self, tier: usize, hit: bool, swap_secs: f64) {
        let s = tier_slot(tier);
        if hit {
            self.hits[s] += 1;
        } else {
            self.misses[s] += 1;
            self.swap_secs[s] += swap_secs;
        }
    }

    /// Lookups (hits + misses) in ladder tier `tier`'s slot.
    pub fn lookups(&self, tier: usize) -> u64 {
        let s = tier_slot(tier);
        self.hits[s] + self.misses[s]
    }

    /// Hit rate in ladder tier `tier`'s slot, or `0.0` with no lookups.
    pub fn hit_rate(&self, tier: usize) -> f64 {
        let n = self.lookups(tier);
        if n == 0 {
            0.0
        } else {
            self.hits[tier_slot(tier)] as f64 / n as f64
        }
    }

    /// Total lookups across tiers.
    pub fn total_lookups(&self) -> u64 {
        self.hits.iter().sum::<u64>() + self.misses.iter().sum::<u64>()
    }

    /// Hit rate across tiers, or `0.0` with no lookups.
    pub fn total_hit_rate(&self) -> f64 {
        let n = self.total_lookups();
        if n == 0 {
            0.0
        } else {
            self.hits.iter().sum::<u64>() as f64 / n as f64
        }
    }

    /// Mean swap seconds per add-on lookup across tiers, or `0.0` with no
    /// lookups.
    pub fn total_mean_swap_secs(&self) -> f64 {
        let n = self.total_lookups();
        if n == 0 {
            0.0
        } else {
            self.swap_secs.iter().sum::<f64>() / n as f64
        }
    }

    /// Folds another stats block into this one (the cluster engine merges
    /// per-thread tallies).
    pub fn merge(&mut self, other: &AddonStats) {
        for s in 0..2 {
            self.hits[s] += other.hits[s];
            self.misses[s] += other.misses[s];
            self.swap_secs[s] += other.swap_secs[s];
        }
    }
}

/// The add-on serving configuration: the catalog, the per-worker cache
/// budget, and the seeded traffic mix. Carried as
/// `Option<AddonsConfig>` on [`SystemConfig`](crate::config::SystemConfig);
/// `None` disables the subsystem bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct AddonsConfig {
    /// The module table.
    pub catalog: AddonCatalog,
    /// Per-worker module cache budget in MB.
    pub cache_mem_mb: f64,
    /// The per-query requirement draw. Its `num_modules()` must equal the
    /// catalog length.
    pub mix: AddonMix,
}

impl AddonsConfig {
    /// A ready-to-run demo configuration: a 12-module catalog, a cache
    /// budget fitting roughly four modules, and a 70%-adoption Zipf mix
    /// seeded from `seed`. The tight budget makes routing policy matter:
    /// no worker can hold the working set, so affinity decides the miss
    /// rate.
    pub fn demo(seed: u64) -> Self {
        let catalog = AddonCatalog::demo(12);
        let mix = AddonMix::new(seed, catalog.len(), 0.7);
        AddonsConfig {
            catalog,
            cache_mem_mb: 1536.0,
            mix,
        }
    }

    /// Checks the catalog, budget, and mix.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.catalog.validate()?;
        if !self.cache_mem_mb.is_finite() || self.cache_mem_mb <= 0.0 {
            return Err(ConfigError::new(
                "add-on cache budget must be finite and positive",
            ));
        }
        self.mix.validate().map_err(ConfigError::new)?;
        if self.mix.num_modules() != self.catalog.len() {
            return Err(ConfigError::new(
                "add-on mix must draw over exactly the catalog's modules",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> AddonCatalog {
        AddonCatalog::new(
            (0..4)
                .map(|i| AddonModule {
                    name: format!("m{i}"),
                    mem_mb: 100.0,
                    load_secs: 0.5,
                })
                .collect(),
        )
    }

    #[test]
    fn hit_refreshes_recency_and_costs_nothing() {
        let cat = catalog();
        let mut cache = ModuleCache::new(250.0);
        assert_eq!(cache.admit(0, &cat), 0.5);
        assert_eq!(cache.admit(1, &cat), 0.5);
        // Hit on 0 moves it to MRU...
        assert_eq!(cache.admit(0, &cat), 0.0);
        // ...so admitting 2 evicts 1, not 0.
        assert_eq!(cache.admit(2, &cat), 0.5);
        assert!(cache.contains(0));
        assert!(!cache.contains(1));
        assert!(cache.contains(2));
        assert_eq!(cache.used_mb(), 200.0);
    }

    #[test]
    fn eviction_walks_lru_order() {
        let cat = catalog();
        let mut cache = ModuleCache::new(300.0);
        for id in 0..3 {
            cache.admit(id, &cat);
        }
        // Full: 0,1,2 with 0 the LRU. Admitting 3 evicts 0.
        cache.admit(3, &cat);
        assert_eq!(cache.resident().collect::<Vec<_>>(), vec![1, 2, 3]);
        // The resident bitset follows the evictions.
        assert!((0..4).all(|m| cache.contains(m) == (m != 0)));
    }

    #[test]
    fn oversized_module_charges_but_never_caches() {
        let cat = AddonCatalog::new(vec![AddonModule {
            name: "xl".into(),
            mem_mb: 1000.0,
            load_secs: 2.0,
        }]);
        let mut cache = ModuleCache::new(500.0);
        assert_eq!(cache.admit(0, &cat), 2.0);
        assert!(!cache.contains(0));
        assert_eq!(cache.used_mb(), 0.0);
        // Charged again: it can never become a hit.
        assert_eq!(cache.admit(0, &cat), 2.0);
    }

    #[test]
    fn clear_empties_the_cache() {
        let cat = catalog();
        let mut cache = ModuleCache::new(400.0);
        cache.admit(0, &cat);
        cache.admit(1, &cat);
        cache.clear();
        assert_eq!(cache.used_mb(), 0.0);
        assert_eq!(cache.resident().count(), 0);
        assert!((0..4).all(|m| !cache.contains(m)));
        // Everything misses again after the wipe.
        assert_eq!(cache.admit(0, &cat), 0.5);
    }

    #[test]
    fn stats_accumulate_per_tier() {
        let mut stats = AddonStats::default();
        stats.record(0, true, 0.0);
        stats.record(0, false, 0.4);
        stats.record(1, false, 0.3);
        stats.record(2, true, 0.0);
        assert_eq!(stats.hits, [1, 1], "tier 2 counts in the deeper slot");
        assert_eq!(stats.lookups(0), 2);
        assert_eq!(stats.lookups(1), 2);
        assert_eq!(stats.lookups(2), 2);
        assert_eq!(stats.hit_rate(0), 0.5);
        assert_eq!(stats.hit_rate(1), 0.5);
        assert_eq!(stats.total_lookups(), 4);
        assert!((stats.total_hit_rate() - 0.5).abs() < 1e-12);
        assert!((stats.total_mean_swap_secs() - 0.7 / 4.0).abs() < 1e-12);
        let mut merged = AddonStats::default();
        merged.merge(&stats);
        merged.merge(&stats);
        assert_eq!(merged.total_lookups(), 8);
        assert_eq!(merged.hit_rate(0), 0.5);
        // Empty stats report zeros, not NaN.
        let empty = AddonStats::default();
        assert_eq!(empty.hit_rate(0), 0.0);
        assert_eq!(empty.total_mean_swap_secs(), 0.0);
    }

    #[test]
    fn demo_config_is_valid() {
        let cfg = AddonsConfig::demo(7);
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.catalog.len(), 12);
        assert_eq!(cfg.mix.num_modules(), 12);
        // The budget holds a strict subset of the catalog.
        let total: f64 = cfg.catalog.modules().iter().map(|m| m.mem_mb).sum();
        assert!(cfg.cache_mem_mb < total);
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let base = AddonsConfig::demo(1);
        let mut empty = base.clone();
        empty.catalog = AddonCatalog::new(vec![]);
        assert!(empty.validate().is_err());

        let mut bad_mem = base.clone();
        bad_mem.catalog = AddonCatalog::new(vec![AddonModule {
            name: "bad".into(),
            mem_mb: -1.0,
            load_secs: 0.1,
        }]);
        assert!(bad_mem.validate().is_err());

        let mut bad_budget = base.clone();
        bad_budget.cache_mem_mb = 0.0;
        assert!(bad_budget.validate().is_err());

        let mut bad_adoption = base.clone();
        bad_adoption.mix.adoption = 1.5;
        assert!(bad_adoption.validate().is_err());

        let mut mismatched = base.clone();
        mismatched.mix = AddonMix::new(1, 3, base.mix.adoption);
        assert!(mismatched.validate().is_err());

        assert!(base.validate().is_ok());
    }
}
