//! Pre-wired VG registries.
//!
//! The paper stores its VG functions in the database so every
//! Prophet instance sees updated definitions. These helpers are the
//! reproduction's "database install": a registry preloaded with the demo's
//! models (and optionally the auxiliary ones), ready to run Figure 2.

use std::sync::Arc;

use prophet_vg::VgRegistry;

use crate::capacity::{CapacityConfig, CapacityModel};
use crate::demand::{DemandConfig, DemandModel};
use crate::distributions::{LogNormalVg, NormalVg, PoissonVg, TriangularVg};
use crate::inventory::InventoryModel;
use crate::queueing::QueueModel;
use crate::revenue::RevenueModel;

/// Registry with the two demo models (`DemandModel`, `CapacityModel`) at
/// default configurations — everything the paper's Figure-2 scenario needs.
pub fn demo_registry() -> VgRegistry {
    demo_registry_with(DemandConfig::default(), CapacityConfig::default())
}

/// Demo registry with explicit model configurations (the demo's §3.3
/// "guests are invited to vary the simulation characteristics, e.g.
/// starting the simulation with a different initial capacity or a different
/// user growth").
pub fn demo_registry_with(demand: DemandConfig, capacity: CapacityConfig) -> VgRegistry {
    let mut r = VgRegistry::new();
    r.register(Arc::new(DemandModel::new(demand)));
    r.register(Arc::new(CapacityModel::new(capacity)));
    r
}

/// Registry with every bundled model: the demo pair plus revenue,
/// inventory and queueing (used by the non-datacenter examples), and the
/// raw parametric distributions (`Normal`, `LogNormal`, `Poisson`,
/// `Triangular`) callable straight from SQL.
pub fn full_registry() -> VgRegistry {
    let mut r = demo_registry();
    r.register(Arc::new(RevenueModel::default()));
    r.register(Arc::new(InventoryModel::default()));
    r.register(Arc::new(QueueModel::default()));
    r.register(Arc::new(NormalVg));
    r.register(Arc::new(LogNormalVg));
    r.register(Arc::new(PoissonVg));
    r.register(Arc::new(TriangularVg));
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophet_data::Value;
    use prophet_vg::rng::Xoshiro256StarStar;

    #[test]
    fn demo_registry_has_the_figure2_functions() {
        let r = demo_registry();
        assert_eq!(
            r.names(),
            vec!["CapacityModel".to_string(), "DemandModel".to_string()]
        );
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let demand = r
            .invoke("DemandModel", &[Value::Int(0), Value::Int(26)], &mut rng)
            .unwrap();
        assert!(demand.is_finite());
        let capacity = r
            .invoke(
                "CapacityModel",
                &[Value::Int(0), Value::Int(8), Value::Int(24)],
                &mut rng,
            )
            .unwrap();
        assert!(capacity.is_finite());
    }

    #[test]
    fn full_registry_adds_the_extras() {
        let r = full_registry();
        assert_eq!(r.len(), 9);
        assert!(r.get("RevenueModel").is_ok());
        assert!(r.get("InventoryModel").is_ok());
        assert!(r.get("QueueModel").is_ok());
        for dist in ["Normal", "LogNormal", "Poisson", "Triangular"] {
            assert!(r.get(dist).is_ok(), "missing distribution VG `{dist}`");
        }
    }

    #[test]
    fn custom_configs_change_behaviour() {
        let generous = demo_registry_with(
            DemandConfig {
                base_mean: 100.0,
                ..DemandConfig::default()
            },
            CapacityConfig {
                initial_cores: 1_000_000.0,
                ..CapacityConfig::default()
            },
        );
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let cap = generous
            .invoke(
                "CapacityModel",
                &[Value::Int(0), Value::Int(52), Value::Int(52)],
                &mut rng,
            )
            .unwrap();
        assert!(cap > 900_000.0);
    }
}
