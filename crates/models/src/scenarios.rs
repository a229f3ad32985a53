//! The bundled example scenarios, as DSL text.
//!
//! One canonical home for the scenario scripts the repository's examples,
//! benches and differential tests all run, so that "the five bundled
//! scenarios" means the same five scripts everywhere. The models they call
//! live in this crate's [`registry`](crate::registry) — the Figure-2 pair
//! ([`crate::demand`], [`crate::capacity`]) resolves against
//! [`demo_registry`](crate::registry::demo_registry), everything else
//! against [`full_registry`](crate::registry::full_registry).
//!
//! The paper's *full* Figure-2 text lives upstream in
//! `fuzzy_prophet::scenario::FIGURE2_SQL` (it is the paper's artifact, not
//! a model's); the coarse variant here is the reduced grid the sweep-heavy
//! examples and benches use.

/// A reduced-grid Figure 2 used by sweep-heavy examples and tests:
/// identical structure, coarser purchase grid so full sweeps complete in
/// seconds. `{THRESHOLD}` is substituted by the caller (the demo runs both
/// the SQL text's 1% and the prose's 5%).
pub const FIGURE2_COARSE: &str = "\
DECLARE PARAMETER @current AS RANGE 0 TO 52 STEP BY 2;
DECLARE PARAMETER @purchase1 AS RANGE 0 TO 52 STEP BY 8;
DECLARE PARAMETER @purchase2 AS RANGE 0 TO 52 STEP BY 8;
DECLARE PARAMETER @feature AS SET (12,36,44);
SELECT DemandModel(@current, @feature) AS demand,
       CapacityModel(@current, @purchase1, @purchase2) AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload
INTO results;
GRAPH OVER @current
    EXPECT overload WITH bold red,
    EXPECT capacity WITH blue y2,
    EXPECT_STDDEV demand WITH orange y2;
OPTIMIZE SELECT @feature, @purchase1, @purchase2
FROM results
WHERE MAX(EXPECT overload) < {THRESHOLD}
GROUP BY feature, purchase1, purchase2
FOR MAX @purchase1, MAX @purchase2";

/// Inventory policy what-if: pick an (s, Q) reorder policy under uncertain
/// demand with a delivery lead time — the leanest reorder point that keeps
/// stockout probability acceptable across the year.
pub const INVENTORY_POLICY: &str = "\
DECLARE PARAMETER @week AS RANGE 4 TO 52 STEP BY 4;
DECLARE PARAMETER @reorder_point AS RANGE 120 TO 360 STEP BY 40;
DECLARE PARAMETER @reorder_qty AS SET (200, 300, 400);
SELECT InventoryModel(@week, @reorder_point, @reorder_qty) AS on_hand,
       CASE WHEN on_hand <= 0 THEN 1 ELSE 0 END AS stockout
INTO results;
OPTIMIZE SELECT @reorder_point, @reorder_qty
FROM results
WHERE MAX(EXPECT stockout) < 0.05
GROUP BY reorder_point, reorder_qty
FOR MIN @reorder_point, MIN @reorder_qty";

/// Pricing what-if: choose a subscription price and a promo week under
/// uncertain subscriber growth and price elasticity.
pub const PRICING_WHATIF: &str = "\
DECLARE PARAMETER @week AS RANGE 0 TO 52 STEP BY 4;
DECLARE PARAMETER @price AS RANGE 12 TO 40 STEP BY 2;
SELECT RevenueModel(@week, @price) AS revenue,
       CASE WHEN revenue < 200000 THEN 1 ELSE 0 END AS miss
INTO results;
GRAPH OVER @price
    EXPECT revenue WITH green y2,
    EXPECT miss WITH red bold;
OPTIMIZE SELECT @price
FROM results
WHERE MAX(EXPECT miss) < 0.5
GROUP BY price
FOR MAX @price";

/// Support staffing: the smallest team that keeps the average ticket
/// backlog acceptable as volume grows through the year.
pub const SUPPORT_STAFFING: &str = "\
DECLARE PARAMETER @week AS RANGE 0 TO 48 STEP BY 4;
DECLARE PARAMETER @agents AS RANGE 6 TO 20 STEP BY 1;
SELECT QueueModel(@week, @agents) AS backlog,
       CASE WHEN backlog > 25 THEN 1 ELSE 0 END AS breach
INTO results;
GRAPH OVER @week
    EXPECT backlog WITH purple,
    EXPECT breach WITH red bold;
OPTIMIZE SELECT @agents
FROM results
WHERE MAX(EXPECT breach) < 0.2
GROUP BY agents
FOR MIN @agents";

/// The coarse Figure 2 with a concrete overload threshold substituted in.
pub fn figure2_coarse_sql(threshold: f64) -> String {
    FIGURE2_COARSE.replace("{THRESHOLD}", &threshold.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_substitution() {
        let sql = figure2_coarse_sql(0.05);
        assert!(sql.contains("< 0.05"));
        assert!(!sql.contains("{THRESHOLD}"));
    }

    #[test]
    fn scenarios_name_registered_models() {
        use crate::registry::full_registry;
        let registry = full_registry();
        for (src, model) in [
            (FIGURE2_COARSE, "DemandModel"),
            (FIGURE2_COARSE, "CapacityModel"),
            (INVENTORY_POLICY, "InventoryModel"),
            (PRICING_WHATIF, "RevenueModel"),
            (SUPPORT_STAFFING, "QueueModel"),
        ] {
            assert!(src.contains(model));
            assert!(registry.get(model).is_ok(), "{model} must be registered");
        }
    }
}
