//! The capacity model: a Markovian event-driven core-count simulation.
//!
//! Paper §3.1: "The Capacity Model is expressed as an aggregate of many
//! different individual models, each expressing different classes of
//! hardware failures, as well as expected time from new hardware purchase
//! to deployment. The model accepts a set of hardware purchase dates,
//! constructs (stochastically) a series of events that modify the number of
//! cores available during a given week, and tracks the sum of all changes
//! over the course of the entire year."
//!
//! `CapacityModel(@current, @purchase1, @purchase2)` simulates weeks
//! `0..=@current` — each week applying failures (from the
//! [`FailureClass`] fleet) and any purchase deployments — and returns the
//! core count at week `@current`. The chain structure (week `w` depends on
//! week `w−1`) is exactly the Markovian shape §2 discusses; because the
//! chain's draws never read the arguments, the model keeps a draw ledger
//! ([`VgFunction::ledger_len`]) and every later walk replays it draw-free.

use prophet_data::{DataResult, Value};
use prophet_vg::rng::{Pcg32, Rng64, Xoshiro256StarStar};
use prophet_vg::VgFunction;

use crate::deployment::{DeploymentConfig, DeploymentSampler};
use crate::failures::FailureClass;
use crate::int_args;

/// Parameters of the capacity simulation.
#[derive(Debug, Clone)]
pub struct CapacityConfig {
    /// Cores online at week 0.
    pub initial_cores: f64,
    /// Cores added by each purchase when it deploys.
    pub cores_per_purchase: f64,
    /// Failure classes aggregated into the weekly loss.
    pub failure_classes: Vec<FailureClass>,
    /// Purchase-to-deployment lag model.
    pub deployment: DeploymentConfig,
}

impl Default for CapacityConfig {
    fn default() -> Self {
        CapacityConfig {
            initial_cores: 10_000.0,
            cores_per_purchase: 4_000.0,
            failure_classes: FailureClass::default_fleet(),
            deployment: DeploymentConfig::default(),
        }
    }
}

/// `CapacityModel(@current, @purchase1, @purchase2)` → one sample: cores
/// available in week `@current`.
#[derive(Debug, Clone)]
pub struct CapacityModel {
    config: CapacityConfig,
    lag_sampler: DeploymentSampler,
}

impl CapacityModel {
    /// Build from a config.
    pub fn new(config: CapacityConfig) -> Self {
        let lag_sampler = config.deployment.sampler();
        CapacityModel {
            config,
            lag_sampler,
        }
    }

    /// The config in use.
    pub fn config(&self) -> &CapacityConfig {
        &self.config
    }

    /// The longest horizon the model simulates; `@current` beyond it is a
    /// typed error on every entry point. 4,095 weeks is 78 years of weekly
    /// steps.
    pub const MAX_WEEK: i64 = 4_095;

    /// The last simulated week for `@current = current`.
    fn last_week(current: i64) -> DataResult<i64> {
        crate::last_week("CapacityModel horizon @current", current, Self::MAX_WEEK)
    }

    /// The two deployment lags of one call: exactly one `u64` leaves the
    /// main stream, seeding the lag sub-stream both are drawn from.
    fn sample_lags<R: Rng64>(&self, rng: &mut R) -> [i64; 2] {
        let mut lag_rng = Pcg32::new(rng.next_u64(), 0x5851_F42D_4C95_7F2D);
        [(); 2].map(|()| self.lag_sampler.sample_lag(&mut lag_rng))
    }

    /// Simulate the full chain `0..=last_week` and return the capacity at
    /// the *end* of every week.
    ///
    /// Stream discipline (critical for fingerprinting, see crate docs):
    ///
    /// 1. exactly one `u64` is taken from the main stream up front to seed
    ///    the deployment-lag sub-stream — so purchase parameters can never
    ///    desynchronize failure draws;
    /// 2. failure draws then proceed week by week in class order from the
    ///    main stream, identically for *any* purchase parameters.
    ///
    /// Consequence: under a fixed seed, two parameterizations' capacity
    /// series differ only by the deployed-cores step functions — which is
    /// why fingerprint matching finds exact Offset/Identity mappings across
    /// purchase-date changes (the Figure-4 exploration map), and why the
    /// model can keep a draw ledger ([`VgFunction::ledger_len`]).
    pub fn trajectory<R: Rng64>(
        &self,
        last_week: i64,
        purchase1: i64,
        purchase2: i64,
        rng: &mut R,
    ) -> DataResult<Vec<f64>> {
        let last_week = Self::last_week(last_week)?;
        let [lag1, lag2] = self.sample_lags(rng);
        let deploy1 = purchase1.saturating_add(lag1);
        let deploy2 = purchase2.saturating_add(lag2);

        let mut capacity = self.config.initial_cores;
        let mut out = Vec::with_capacity(last_week as usize + 1);
        for week in 0..=last_week {
            if week == deploy1 {
                capacity += self.config.cores_per_purchase;
            }
            if week == deploy2 {
                capacity += self.config.cores_per_purchase;
            }
            for class in &self.config.failure_classes {
                capacity -= class.sample_weekly_loss(rng);
            }
            capacity = capacity.max(0.0);
            out.push(capacity);
        }
        Ok(out)
    }

    /// Capacity at a single week (the VG-visible scalar): the
    /// [`CapacityModel::trajectory`] chain without materializing it, each
    /// loss drawn as the walk reaches it — the draw-by-draw reference
    /// behind [`VgFunction::invoke`].
    pub fn capacity_at<R: Rng64>(
        &self,
        current: i64,
        purchase1: i64,
        purchase2: i64,
        rng: &mut R,
    ) -> DataResult<f64> {
        let last_week = Self::last_week(current)?;
        let lags = self.sample_lags(rng);
        Ok(self.walk(last_week, [purchase1, purchase2], lags, |class| {
            class.sample_weekly_loss(rng)
        }))
    }

    /// The chain over weeks `0..=last_week`, asking `loss(class)` once per
    /// week and failure class in draw order, without allocating.
    fn walk(
        &self,
        last_week: i64,
        purchases: [i64; 2],
        lags: [i64; 2],
        mut loss: impl FnMut(&FailureClass) -> f64,
    ) -> f64 {
        let deploy1 = purchases[0].saturating_add(lags[0]);
        let deploy2 = purchases[1].saturating_add(lags[1]);
        let mut capacity = self.config.initial_cores;
        for week in 0..=last_week {
            if week == deploy1 {
                capacity += self.config.cores_per_purchase;
            }
            if week == deploy2 {
                capacity += self.config.cores_per_purchase;
            }
            for class in &self.config.failure_classes {
                capacity -= loss(class);
            }
            capacity = capacity.max(0.0);
        }
        capacity
    }

    /// Expected weekly failure loss across all classes.
    pub fn mean_weekly_loss(&self) -> f64 {
        self.config
            .failure_classes
            .iter()
            .map(FailureClass::mean_weekly_loss)
            .sum()
    }
}

impl Default for CapacityModel {
    fn default() -> Self {
        CapacityModel::new(CapacityConfig::default())
    }
}

impl VgFunction for CapacityModel {
    fn name(&self) -> &str {
        "CapacityModel"
    }

    fn arity(&self) -> usize {
        3
    }

    fn invoke(&self, params: &[Value], rng: &mut Xoshiro256StarStar) -> DataResult<f64> {
        let [current, p1, p2] = int_args(params)?;
        self.capacity_at(current, p1, p2, rng)
    }

    /// Ledger cells: `[lag1, lag2, loss(week 0, class 0), loss(week 0,
    /// class 1), …]` — the two deployment lags, then every week's loss per
    /// failure class in draw order. Nothing in them depends on the
    /// arguments; a call reads the weeks `0..=@current`.
    fn ledger_len(&self, params: &[Value]) -> DataResult<Option<usize>> {
        let [current, _, _] = int_args(params)?;
        let weeks = Self::last_week(current)? as usize + 1;
        Ok(Some(2 + weeks * self.config.failure_classes.len()))
    }

    fn draw_ledger(&self, rng: &mut Xoshiro256StarStar, len: usize) -> Vec<f64> {
        // Lags are whole weeks out of `f64::floor`, so the cell holds them
        // exactly.
        let lags = self.sample_lags(rng).map(|lag| lag as f64);
        let classes = self.config.failure_classes.iter().cycle();
        let losses = classes.map(|class| class.sample_weekly_loss(rng));
        lags.into_iter().chain(losses).take(len).collect()
    }

    /// The [`CapacityModel::capacity_at`] walk reading each loss from its
    /// ledger cell: same subtractions in the same order.
    fn replay(&self, params: &[Value], ledger: &[f64]) -> DataResult<f64> {
        let [current, p1, p2] = int_args(params)?;
        let last_week = Self::last_week(current)?;
        let lags = [ledger[0] as i64, ledger[1] as i64];
        let cells = (last_week as usize + 1) * self.config.failure_classes.len();
        let mut losses = ledger[2..2 + cells].iter();
        Ok(self.walk(last_week, [p1, p2], lags, |_| {
            *losses
                .next()
                .expect("invariant: one cell per week and class, sliced above")
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophet_data::DataError;

    fn model() -> CapacityModel {
        CapacityModel::default()
    }

    #[test]
    fn capacity_declines_without_deployed_purchases() {
        let m = model();
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let n = 2_000;
        // purchases far in the future → pure decay
        let mean_w40: f64 = (0..n)
            .map(|_| m.capacity_at(40, 52, 52, &mut rng).unwrap())
            .sum::<f64>()
            / n as f64;
        let expected = 10_000.0 - 41.0 * m.mean_weekly_loss();
        let rel = (mean_w40 - expected).abs() / expected;
        assert!(rel < 0.03, "mean={mean_w40:.0} expected={expected:.0}");
    }

    #[test]
    fn purchases_add_cores_after_deployment() {
        let m = model();
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        let n = 2_000;
        let mean = |p1: i64, rng: &mut Xoshiro256StarStar| {
            (0..n)
                .map(|_| m.capacity_at(30, p1, 52, rng).unwrap())
                .sum::<f64>()
                / n as f64
        };
        let early = mean(10, &mut rng);
        let late = mean(52, &mut rng);
        assert!(
            (early - late - 4_000.0).abs() < 150.0,
            "early={early:.0} late={late:.0} (diff should be ≈ one purchase)"
        );
    }

    #[test]
    fn purchase_params_do_not_perturb_failure_stream() {
        // Same seed, different purchase weeks: trajectories must differ by
        // *exactly* the deployed-cores step function — i.e. after
        // subtracting the purchases, they are identical (up to the
        // max(0.0) floor, which defaults never hit).
        let m = model();
        let mut a = Xoshiro256StarStar::seed_from_u64(77);
        let mut b = Xoshiro256StarStar::seed_from_u64(77);
        let ta = m.trajectory(52, 8, 24, &mut a).unwrap();
        let tb = m.trajectory(52, 16, 40, &mut b).unwrap();
        // Deployment lags are also identical (same lag sub-stream seed), so
        // compute them to know where the steps are. Reconstruct by aligning
        // differences: ta - tb must be a step function with values in
        // {-8000, -4000, 0, 4000, 8000}.
        let mut steps: Vec<f64> = ta.iter().zip(&tb).map(|(x, y)| x - y).collect();
        steps.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        assert!(
            steps.len() <= 5,
            "difference should be a coarse step function, got {} levels: {steps:?}",
            steps.len()
        );
        for s in &steps {
            let quantized = s / 4_000.0;
            assert!(
                (quantized - quantized.round()).abs() < 1e-9,
                "step {s} is not a multiple of the purchase size"
            );
        }
    }

    #[test]
    fn trajectory_is_markovian_decreasing_between_events() {
        let m = model();
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let t = m.trajectory(52, 12, 30, &mut rng).unwrap();
        assert_eq!(t.len(), 53);
        // Between deployments, capacity must be non-increasing.
        let mut increases = 0;
        for w in t.windows(2) {
            if w[1] > w[0] {
                increases += 1;
            }
        }
        assert!(
            increases <= 2,
            "at most the two purchase deployments add cores, saw {increases}"
        );
    }

    #[test]
    fn capacity_is_never_negative() {
        let cfg = CapacityConfig {
            initial_cores: 50.0,
            ..CapacityConfig::default()
        };
        let m = CapacityModel::new(cfg);
        let mut rng = Xoshiro256StarStar::seed_from_u64(6);
        for _ in 0..50 {
            assert!(m.capacity_at(52, 52, 52, &mut rng).unwrap() >= 0.0);
        }
    }

    #[test]
    fn vg_interface_round_trip() {
        let m = model();
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        let cap = m
            .invoke(&[Value::Int(10), Value::Int(4), Value::Int(8)], &mut rng)
            .unwrap();
        assert!(cap > 5_000.0, "cap={cap}");
    }

    #[test]
    fn week_zero_and_negative_weeks() {
        let m = model();
        let mut rng = Xoshiro256StarStar::seed_from_u64(10);
        let t = m.trajectory(0, 10, 20, &mut rng).unwrap();
        assert_eq!(t.len(), 1);
        // negative current clamps to week 0
        let mut rng2 = Xoshiro256StarStar::seed_from_u64(10);
        let t2 = m.trajectory(-3, 10, 20, &mut rng2).unwrap();
        assert_eq!(t2.len(), 1);
        assert_eq!(t, t2);
    }

    #[test]
    fn capacity_at_matches_trajectory_last_bit_exactly() {
        // The allocation-free scalar walk must consume the identical draw
        // sequence as the full `trajectory` vector.
        let m = model();
        for seed in 0..20 {
            let mut a = Xoshiro256StarStar::seed_from_u64(seed);
            let mut b = Xoshiro256StarStar::seed_from_u64(seed);
            let t = m.trajectory(30, 8, 20, &mut a).unwrap();
            let c = m.capacity_at(30, 8, 20, &mut b).unwrap();
            assert_eq!(t.last().unwrap().to_bits(), c.to_bits());
        }
    }

    #[test]
    fn same_seed_same_trajectory() {
        let m = model();
        let mut a = Xoshiro256StarStar::seed_from_u64(123);
        let mut b = Xoshiro256StarStar::seed_from_u64(123);
        assert_eq!(
            m.trajectory(52, 8, 20, &mut a).unwrap(),
            m.trajectory(52, 8, 20, &mut b).unwrap()
        );
    }

    fn args(current: i64, p1: i64, p2: i64) -> [Value; 3] {
        [Value::Int(current), Value::Int(p1), Value::Int(p2)]
    }

    /// The ledger pair against the draw-by-draw reference: `replay` over a
    /// ledger of exactly `ledger_len` cells, and over a longer one, equals
    /// `capacity_at` on the same stream bit for bit.
    fn assert_replay_matches(m: &CapacityModel, seed: u64, current: i64, p1: i64, p2: i64) {
        let params = args(current, p1, p2);
        let want = m
            .capacity_at(
                current,
                p1,
                p2,
                &mut Xoshiro256StarStar::seed_from_u64(seed),
            )
            .unwrap();
        let len = m.ledger_len(&params).unwrap().unwrap();
        for len in [len, len + 37] {
            let ledger = m.draw_ledger(&mut Xoshiro256StarStar::seed_from_u64(seed), len);
            assert_eq!(ledger.len(), len);
            let got = m.replay(&params, &ledger).unwrap();
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "seed {seed} @current {current} purchases ({p1}, {p2}) ledger {len}"
            );
        }
    }

    #[test]
    fn replay_matches_capacity_at_bit_exactly() {
        let m = model();
        for seed in 0..12 {
            // A lag lands in 1..=4 weeks: purchases at `current - lag` put a
            // deployment exactly on the evaluated week for some seed.
            for current in [-2, 0, 1, 5, 30, 52, 60] {
                for (p1, p2) in [
                    (0, 0),
                    (8, 8),
                    (4, 36),
                    (current - 2, current - 1),
                    (52, 52),
                ] {
                    assert_replay_matches(&m, seed, current, p1, p2);
                }
            }
        }
        // A purchase week the lag cannot be added to saturates, on both.
        assert_replay_matches(&m, 3, 10, i64::MAX, i64::MIN);
    }

    #[test]
    fn replay_matches_capacity_at_when_the_floor_fires() {
        // 50 cores against ≈ 57 lost per week: the `max(0.0)` clamp fires in
        // the first weeks, and a later deployment lifts capacity off it.
        let m = CapacityModel::new(CapacityConfig {
            initial_cores: 50.0,
            ..CapacityConfig::default()
        });
        let mut floored = 0;
        for seed in 0..12 {
            for (p1, p2) in [(52, 52), (6, 20), (0, 0)] {
                assert_replay_matches(&m, seed, 30, p1, p2);
            }
            let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
            floored += (m.capacity_at(30, 52, 52, &mut rng).unwrap() == 0.0) as u32;
        }
        assert!(floored > 0, "the fixture must actually hit the floor");
    }

    #[test]
    fn a_lag_landing_exactly_on_current_deploys_on_both_lanes() {
        let m = model();
        for seed in 0..8 {
            let current = 20;
            let ledger = m.draw_ledger(&mut Xoshiro256StarStar::seed_from_u64(seed), 2 + 21 * 4);
            let lag = ledger[0] as i64;
            // Deployed in the evaluated week vs one week too late.
            let on = m
                .replay(&args(current, current - lag, 52), &ledger)
                .unwrap();
            let late = m
                .replay(&args(current, current - lag + 1, 52), &ledger)
                .unwrap();
            assert!((on - late - 4_000.0).abs() < 1e-6, "seed {seed}");
            assert_replay_matches(&m, seed, current, current - lag, 52);
        }
    }

    #[test]
    fn ledger_draws_are_prefix_stable() {
        let m = model();
        for seed in 0..6 {
            let long = m.draw_ledger(&mut Xoshiro256StarStar::seed_from_u64(seed), 64);
            for k in [0, 1, 2, 3, 6, 7, 33, 64] {
                let short = m.draw_ledger(&mut Xoshiro256StarStar::seed_from_u64(seed), k);
                let bits = |cells: &[f64]| cells.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&short), bits(&long[..k]), "seed {seed} prefix {k}");
            }
        }
    }

    #[test]
    fn horizons_past_the_maximum_are_a_typed_error_on_every_lane() {
        let m = model();
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let params = args(9_000_000_000_000, 4, 8);
        let errors = [
            m.trajectory(9_000_000_000_000, 4, 8, &mut rng).unwrap_err(),
            m.capacity_at(9_000_000_000_000, 4, 8, &mut rng)
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
        let edge = args(CapacityModel::MAX_WEEK, 4, 8);
        assert_eq!(m.ledger_len(&edge).unwrap(), Some(2 + 4_096 * 4));
        assert!(m.invoke(&edge, &mut rng).is_ok());
    }
}
