//! Inventory / stockout model for the supply-chain example.
//!
//! A weekly (s, Q) reorder policy under Poisson demand with a fixed lead
//! time: when on-hand + on-order inventory falls to the reorder point `s`,
//! an order of `Q` units is placed and arrives `lead_weeks` later. Another
//! Markov chain with event discontinuities — structurally the same shape
//! as the capacity model, exercising fingerprints on a second domain.

use prophet_data::{DataResult, Value};
use prophet_vg::dist::Poisson;
use prophet_vg::rng::{Rng64, Xoshiro256StarStar};
use prophet_vg::VgFunction;

use crate::int_args;

/// Parameters of the inventory simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct InventoryConfig {
    /// Units on hand at week 0.
    pub initial_units: f64,
    /// Mean units demanded per week (Poisson).
    pub weekly_demand: f64,
    /// Order lead time in weeks.
    pub lead_weeks: i64,
}

impl Default for InventoryConfig {
    fn default() -> Self {
        InventoryConfig {
            initial_units: 500.0,
            weekly_demand: 60.0,
            lead_weeks: 3,
        }
    }
}

/// `InventoryModel(@week, @reorder_point, @reorder_qty)` → one sample: units
/// on hand at the end of `@week` (0 when stocked out).
#[derive(Debug, Clone)]
pub struct InventoryModel {
    config: InventoryConfig,
    demand: Poisson,
}

impl InventoryModel {
    /// Build from a config.
    ///
    /// # Panics
    /// Panics if `weekly_demand` is not positive (analyst constant).
    pub fn new(config: InventoryConfig) -> Self {
        let demand = Poisson::new(config.weekly_demand).expect("weekly_demand must be positive");
        InventoryModel { config, demand }
    }

    /// The config in use.
    pub fn config(&self) -> &InventoryConfig {
        &self.config
    }

    /// The longest horizon the model simulates; `@week` beyond it is a
    /// typed error on every entry point.
    pub const MAX_WEEK: i64 = 4_095;

    /// The last simulated week for `@week = week`.
    fn last_week(week: i64) -> DataResult<i64> {
        crate::last_week("InventoryModel horizon @week", week, Self::MAX_WEEK)
    }

    /// Simulate weeks `0..=last_week`; returns end-of-week on-hand levels.
    ///
    /// Stream discipline: exactly one Poisson demand draw per week from the
    /// main stream; policy parameters only gate *when* orders are placed,
    /// never what is drawn, so different (s, Q) policies stay sample-aligned
    /// under common random numbers — and the model can keep a draw ledger
    /// ([`VgFunction::ledger_len`]).
    pub fn trajectory<R: Rng64>(
        &self,
        last_week: i64,
        reorder_point: i64,
        reorder_qty: i64,
        rng: &mut R,
    ) -> DataResult<Vec<f64>> {
        let last_week = Self::last_week(last_week)?;
        let mut on_hand = self.config.initial_units;
        let mut pipeline: Vec<(i64, f64)> = Vec::new(); // (arrival week, qty)
        let mut out = Vec::with_capacity(last_week as usize + 1);
        for week in 0..=last_week {
            // arrivals first
            pipeline.retain(|&(arrive, qty)| {
                if arrive == week {
                    on_hand += qty;
                    false
                } else {
                    true
                }
            });
            // demand
            let demanded = self.demand.sample_with(rng);
            on_hand = (on_hand - demanded).max(0.0);
            // reorder policy on inventory position (on hand + on order)
            let position = on_hand + pipeline.iter().map(|(_, q)| q).sum::<f64>();
            if position <= reorder_point as f64 {
                pipeline.push((
                    week.saturating_add(self.config.lead_weeks),
                    reorder_qty as f64,
                ));
            }
            out.push(on_hand);
        }
        Ok(out)
    }

    /// On-hand units at one week (the VG-visible scalar): the
    /// [`InventoryModel::trajectory`] chain without materializing it, each
    /// week's demand drawn as the walk reaches it.
    pub fn on_hand_at<R: Rng64>(
        &self,
        week: i64,
        reorder_point: i64,
        reorder_qty: i64,
        rng: &mut R,
    ) -> DataResult<f64> {
        let last_week = Self::last_week(week)?;
        Ok(self.walk(last_week, reorder_point, reorder_qty, |_| {
            self.demand.sample_with(rng)
        }))
    }

    /// The (s, Q) walk over weeks `0..=last_week`, asking `demand(week)`
    /// once per week in week order, without allocating: every order has
    /// the same quantity and the same lead time, so the pipeline of
    /// [`InventoryModel::trajectory`] is fully described by *which weeks
    /// ordered* — one bit per week of the bounded horizon — plus how many
    /// orders are still outstanding.
    fn walk(
        &self,
        last_week: i64,
        reorder_point: i64,
        reorder_qty: i64,
        mut demand: impl FnMut(usize) -> f64,
    ) -> f64 {
        let qty = reorder_qty as f64;
        // An order with no positive lead never arrives, as in `trajectory`.
        let lead = usize::try_from(self.config.lead_weeks).ok();
        let lead = lead.filter(|&lead| lead > 0);
        let mut ordered = [0u64; (Self::MAX_WEEK as usize + 1) / 64];
        let mut outstanding = 0u32;
        let mut on_hand = self.config.initial_units;
        for week in 0..=last_week as usize {
            // arrivals first: the order placed `lead` weeks ago, if any
            let placed = lead.and_then(|lead| week.checked_sub(lead));
            if placed.is_some_and(|p| (ordered[p / 64] >> (p % 64)) & 1 == 1) {
                on_hand += qty;
                outstanding -= 1;
            }
            on_hand = (on_hand - demand(week)).max(0.0);
            // reorder policy on inventory position (on hand + on order),
            // summed order by order as `trajectory` sums its pipeline
            let position = on_hand + (0..outstanding).map(|_| qty).sum::<f64>();
            if position <= reorder_point as f64 {
                ordered[week / 64] |= 1 << (week % 64);
                outstanding += 1;
            }
        }
        on_hand
    }
}

impl Default for InventoryModel {
    fn default() -> Self {
        InventoryModel::new(InventoryConfig::default())
    }
}

impl VgFunction for InventoryModel {
    fn name(&self) -> &str {
        "InventoryModel"
    }

    fn arity(&self) -> usize {
        3
    }

    fn invoke(&self, params: &[Value], rng: &mut Xoshiro256StarStar) -> DataResult<f64> {
        let [week, s, q] = int_args(params)?;
        self.on_hand_at(week, s, q, rng)
    }

    /// Ledger cells: one Poisson demand per week, `[demand(week 0),
    /// demand(week 1), …]`; a call reads the weeks `0..=@week`.
    fn ledger_len(&self, params: &[Value]) -> DataResult<Option<usize>> {
        let [week, _, _] = int_args(params)?;
        Ok(Some(Self::last_week(week)? as usize + 1))
    }

    fn draw_ledger(&self, rng: &mut Xoshiro256StarStar, len: usize) -> Vec<f64> {
        (0..len).map(|_| self.demand.sample_with(rng)).collect()
    }

    /// The [`InventoryModel::on_hand_at`] walk reading each week's demand
    /// from its ledger cell.
    fn replay(&self, params: &[Value], ledger: &[f64]) -> DataResult<f64> {
        let [week, s, q] = int_args(params)?;
        let last_week = Self::last_week(week)?;
        let demands = &ledger[..=last_week as usize];
        Ok(self.walk(last_week, s, q, |week| demands[week]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophet_data::DataError;

    #[test]
    fn generous_policy_avoids_stockouts() {
        let m = InventoryModel::default();
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let mut stockouts = 0;
        for _ in 0..200 {
            let t = m.trajectory(52, 400, 400, &mut rng).unwrap();
            stockouts += t.iter().filter(|&&x| x == 0.0).count();
        }
        assert_eq!(
            stockouts, 0,
            "reorder at 400 with lead-time demand ≈180 should never stock out"
        );
    }

    #[test]
    fn stingy_policy_stocks_out() {
        let m = InventoryModel::default();
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        let mut stockout_runs = 0;
        for _ in 0..200 {
            let t = m.trajectory(52, 60, 100, &mut rng).unwrap();
            if t.contains(&0.0) {
                stockout_runs += 1;
            }
        }
        assert!(
            stockout_runs > 100,
            "reorder at 60 with ~180 lead-time demand must usually stock out, got {stockout_runs}/200"
        );
    }

    #[test]
    fn policy_parameters_do_not_perturb_demand_stream() {
        let m = InventoryModel::default();
        let mut a = Xoshiro256StarStar::seed_from_u64(42);
        let mut b = Xoshiro256StarStar::seed_from_u64(42);
        // Different policies, same seed: both consume one draw per week, so
        // the *demand* sequences are identical; inventory differs only via
        // policy. Sanity-check by comparing week-0 levels (no reorder can
        // have arrived yet with lead 3).
        let ta = m.trajectory(10, 200, 300, &mut a).unwrap();
        let tb = m.trajectory(10, 100, 150, &mut b).unwrap();
        assert_eq!(ta[0], tb[0], "week 0 must be identical across policies");
        assert_eq!(ta[1], tb[1]);
        assert_eq!(ta[2], tb[2]);
        // after lead time the generous policy has received more stock
        assert!(ta[9] >= tb[9]);
    }

    #[test]
    fn on_hand_is_never_negative() {
        let m = InventoryModel::default();
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let t = m.trajectory(52, 0, 0, &mut rng).unwrap(); // never reorder
        assert!(t.iter().all(|&x| x >= 0.0));
        assert_eq!(*t.last().unwrap(), 0.0, "no reorders must end stocked out");
    }

    #[test]
    fn vg_interface() {
        let m = InventoryModel::default();
        let mut rng = Xoshiro256StarStar::seed_from_u64(4);
        let on_hand = m
            .invoke(
                &[Value::Int(10), Value::Int(200), Value::Int(300)],
                &mut rng,
            )
            .unwrap();
        assert!(on_hand >= 0.0);
    }

    /// Policies spanning the walk's branches: generous, stingy (stocks
    /// out, the `max(0.0)` clamp fires), never-reorder, reorder-every-week
    /// (the pipeline stays full), and a zero-quantity order.
    const POLICIES: [(i64, i64); 6] = [
        (400, 400),
        (60, 100),
        (0, 0),
        (100_000, 10),
        (200, 0),
        (-5, 300),
    ];

    fn args(week: i64, s: i64, q: i64) -> [Value; 3] {
        [Value::Int(week), Value::Int(s), Value::Int(q)]
    }

    #[test]
    fn on_hand_at_matches_trajectory_last_bit_exactly() {
        // The allocation-free walk against the full `trajectory` chain, for
        // lead times on every side of the walk's arrival test.
        for lead_weeks in [3, 1, 0, -2, 7, 100, i64::MAX] {
            let m = InventoryModel::new(InventoryConfig {
                lead_weeks,
                ..InventoryConfig::default()
            });
            for seed in 0..8 {
                for week in [-3, 0, 1, 2, 3, 4, 12, 52, 130] {
                    for (s, q) in POLICIES {
                        let mut a = Xoshiro256StarStar::seed_from_u64(seed);
                        let mut b = Xoshiro256StarStar::seed_from_u64(seed);
                        let t = m.trajectory(week, s, q, &mut a).unwrap();
                        let x = m.on_hand_at(week, s, q, &mut b).unwrap();
                        assert_eq!(
                            t.last().unwrap().to_bits(),
                            x.to_bits(),
                            "lead {lead_weeks} seed {seed} week {week} policy ({s}, {q})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn replay_matches_on_hand_at_bit_exactly() {
        let m = InventoryModel::default();
        let mut stocked_out = 0;
        for seed in 0..8 {
            for week in [-3, 0, 1, 5, 12, 52, 64] {
                for (s, q) in POLICIES {
                    let params = args(week, s, q);
                    let want = m
                        .on_hand_at(week, s, q, &mut Xoshiro256StarStar::seed_from_u64(seed))
                        .unwrap();
                    stocked_out += (want == 0.0) as u32;
                    let len = m.ledger_len(&params).unwrap().unwrap();
                    for len in [len, len + 11] {
                        let ledger =
                            m.draw_ledger(&mut Xoshiro256StarStar::seed_from_u64(seed), len);
                        assert_eq!(ledger.len(), len);
                        assert_eq!(
                            m.replay(&params, &ledger).unwrap().to_bits(),
                            want.to_bits(),
                            "seed {seed} week {week} policy ({s}, {q}) ledger {len}"
                        );
                    }
                }
            }
        }
        assert!(stocked_out > 0, "the grid must hit the stockout clamp");
    }

    #[test]
    fn ledger_draws_are_prefix_stable() {
        let m = InventoryModel::default();
        for seed in 0..6 {
            let long = m.draw_ledger(&mut Xoshiro256StarStar::seed_from_u64(seed), 64);
            for k in [0, 1, 2, 33, 64] {
                let short = m.draw_ledger(&mut Xoshiro256StarStar::seed_from_u64(seed), k);
                assert_eq!(short, long[..k], "seed {seed} prefix {k}");
            }
        }
    }

    #[test]
    fn horizons_past_the_maximum_are_a_typed_error_on_every_lane() {
        let m = InventoryModel::default();
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let params = args(9_000_000_000_000, 200, 300);
        let errors = [
            m.trajectory(9_000_000_000_000, 200, 300, &mut rng)
                .unwrap_err(),
            m.on_hand_at(9_000_000_000_000, 200, 300, &mut rng)
                .unwrap_err(),
            m.invoke(&params, &mut rng).unwrap_err(),
            m.ledger_len(&params).unwrap_err(),
            m.replay(&params, &[]).unwrap_err(),
        ];
        for e in &errors {
            assert_eq!(e, &errors[0]);
            assert!(
                matches!(e, DataError::InvalidOperation(msg) if msg.contains("4095-week maximum")),
                "{e}"
            );
        }
        // The bound itself is inside the domain.
        let edge = args(InventoryModel::MAX_WEEK, 200, 300);
        assert_eq!(m.ledger_len(&edge).unwrap(), Some(4_096));
        assert!(m.invoke(&edge, &mut rng).is_ok());
    }
}
