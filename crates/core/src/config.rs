//! Tunables of the proposed method (Table II).

use ees_iotrace::{Micros, MIB};

/// Configuration of the energy-efficient storage management method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProposedConfig {
    /// Initial monitoring period (Table II: 520 s — ten times the
    /// break-even time).
    pub initial_period: Micros,
    /// Monitoring-period growth coefficient α > 1 (Table II: 1.2).
    pub alpha: f64,
    /// Cache bytes assigned to the preload function (Table II: 500 MB).
    pub preload_budget: u64,
    /// Cache bytes assigned to the write-delay function (Table II: 500 MB).
    pub write_delay_budget: u64,
    /// Upper bound on the adapted monitoring period. The paper grows the
    /// period multiplicatively; the cap keeps the management function
    /// responsive to late workload changes.
    pub max_period: Micros,
    /// Ablation switch: plan data placement (Algorithms 2–3). Off leaves
    /// every item where it is and derives hot/cold from the initial
    /// layout.
    pub enable_placement: bool,
    /// Ablation switch: select preload sets (§IV.F).
    pub enable_preload: bool,
    /// Ablation switch: select write-delay sets (§IV.E).
    pub enable_write_delay: bool,
}

impl Default for ProposedConfig {
    fn default() -> Self {
        ProposedConfig {
            initial_period: Micros::from_secs(520),
            alpha: 1.2,
            preload_budget: 500 * MIB,
            write_delay_budget: 500 * MIB,
            max_period: Micros::from_secs(3600),
            enable_placement: true,
            enable_preload: true,
            enable_write_delay: true,
        }
    }
}

impl ProposedConfig {
    /// The full method (all levers on) — same as `Default`.
    pub fn full() -> Self {
        Self::default()
    }

    /// Placement only: no cache cooperation.
    pub fn placement_only() -> Self {
        ProposedConfig {
            enable_preload: false,
            enable_write_delay: false,
            ..Self::default()
        }
    }

    /// Cache only: no data movement.
    pub fn cache_only() -> Self {
        ProposedConfig {
            enable_placement: false,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_defaults() {
        let c = ProposedConfig::default();
        assert_eq!(c.initial_period, Micros::from_secs(520));
        assert!((c.alpha - 1.2).abs() < 1e-12);
        assert_eq!(c.preload_budget, 500 * MIB);
        assert_eq!(c.write_delay_budget, 500 * MIB);
        assert!(c.max_period >= c.initial_period);
        assert!(c.enable_placement && c.enable_preload && c.enable_write_delay);
    }

    #[test]
    fn ablation_presets() {
        let p = ProposedConfig::placement_only();
        assert!(p.enable_placement && !p.enable_preload && !p.enable_write_delay);
        let c = ProposedConfig::cache_only();
        assert!(!c.enable_placement && c.enable_preload && c.enable_write_delay);
    }
}
