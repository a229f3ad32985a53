//! Service-capacity queueing model for the staffing example.
//!
//! A discrete-time M/M/c-style simulation of a support queue: Poisson
//! arrivals per hour, `c` agents each completing work at a Poisson service
//! rate, FIFO backlog. The what-if question — "how many agents keep the
//! backlog acceptable as ticket volume grows?" — is the same
//! risk-vs-cost-of-ownership trade-off as the datacenter demo, in a second
//! domain.

use prophet_data::{DataError, DataResult, Value};
use prophet_vg::dist::Poisson;
use prophet_vg::rng::{Rng64, Xoshiro256StarStar};
use prophet_vg::VgFunction;

use crate::int_args;

/// Parameters of the queue simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueConfig {
    /// Mean tickets arriving per hour at week 0.
    pub base_arrivals_per_hour: f64,
    /// Weekly growth of the arrival rate (percent, e.g. 1.5 = +1.5%/week).
    pub weekly_growth_pct: f64,
    /// Mean tickets one agent resolves per hour.
    pub service_rate: f64,
    /// Hours simulated per evaluation (one work week).
    pub hours: usize,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            base_arrivals_per_hour: 40.0,
            weekly_growth_pct: 1.5,
            service_rate: 6.0,
            hours: 40,
        }
    }
}

/// `QueueModel(@week, @agents)` → one sample: mean backlog (tickets waiting)
/// over the simulated week.
#[derive(Debug, Clone)]
pub struct QueueModel {
    config: QueueConfig,
}

impl QueueModel {
    /// Build from a config.
    pub fn new(config: QueueConfig) -> Self {
        QueueModel { config }
    }

    /// The config in use.
    pub fn config(&self) -> &QueueConfig {
        &self.config
    }

    /// The largest hourly Poisson rate the model simulates, for arrivals
    /// and service alike. Sampling costs one uniform per expected event, so
    /// a rate is also a running time: 10,000 per hour is 250× the default
    /// arrival rate and keeps a world under a millisecond.
    pub const MAX_RATE: f64 = 10_000.0;

    /// Arrival rate at a given week (compounded growth). Far enough from
    /// week 0 the compounding leaves the representable range — 0 or
    /// infinity — which [`QueueModel::mean_backlog`] refuses.
    pub fn arrival_rate(&self, week: i64) -> f64 {
        let week = week.clamp(i32::MIN.into(), i32::MAX.into()) as i32;
        self.config.base_arrivals_per_hour
            * (1.0 + self.config.weekly_growth_pct / 100.0).powi(week)
    }

    /// Offered load ρ = λ / (c·μ); above 1.0 the queue is unstable.
    #[cfg(test)]
    fn utilization(&self, week: i64, agents: i64) -> f64 {
        self.arrival_rate(week) / (agents.max(1) as f64 * self.config.service_rate)
    }

    /// A Poisson at an hourly rate the arguments produced, or the typed
    /// error for a rate no simulation can run at: non-finite, non-positive
    /// or above [`QueueModel::MAX_RATE`].
    fn hourly(what: &str, rate: f64) -> DataResult<Poisson> {
        // The model's own bound, tighter than `Poisson::MAX_RATE`.
        Poisson::new(rate)
            .filter(|_| rate <= Self::MAX_RATE)
            .ok_or_else(|| {
                DataError::InvalidOperation(format!(
                    "QueueModel {what} rate {rate} per hour is outside (0, {}]",
                    Self::MAX_RATE
                ))
            })
    }

    /// Simulate one week; returns the mean backlog across hours.
    ///
    /// Stream discipline: two Poisson draws per hour (arrivals, then
    /// completed work), in fixed order; the agent count scales the service
    /// draw's rate but the *number* of draws is parameter-independent.
    pub fn mean_backlog<R: Rng64>(&self, week: i64, agents: i64, rng: &mut R) -> DataResult<f64> {
        let arrivals = Self::hourly("arrival", self.arrival_rate(week))?;
        let service = Self::hourly(
            "service",
            (agents.max(1) as f64 * self.config.service_rate).max(1e-9),
        )?;
        let mut backlog = 0.0f64;
        let mut total = 0.0;
        for _ in 0..self.config.hours {
            backlog += arrivals.sample_with(rng);
            let served = service.sample_with(rng);
            backlog = (backlog - served).max(0.0);
            total += backlog;
        }
        Ok(total / self.config.hours as f64)
    }
}

impl Default for QueueModel {
    fn default() -> Self {
        QueueModel::new(QueueConfig::default())
    }
}

impl VgFunction for QueueModel {
    fn name(&self) -> &str {
        "QueueModel"
    }

    fn arity(&self) -> usize {
        2
    }

    fn invoke(&self, params: &[Value], rng: &mut Xoshiro256StarStar) -> DataResult<f64> {
        let [week, agents] = int_args(params)?;
        self.mean_backlog(week, agents, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_math() {
        let m = QueueModel::default();
        // week 0: 40 arrivals/h, 10 agents × 6/h = 60 capacity → ρ = 2/3
        assert!((m.utilization(0, 10) - 40.0 / 60.0).abs() < 1e-12);
        assert!(
            m.utilization(52, 10) > m.utilization(0, 10),
            "growth raises load"
        );
        // zero agents clamps rather than dividing by zero
        assert!(m.utilization(0, 0).is_finite());
    }

    #[test]
    fn understaffed_queue_explodes_overstaffed_stays_small() {
        let m = QueueModel::default();
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let n = 200;
        let mean = |agents: i64, rng: &mut Xoshiro256StarStar| {
            (0..n)
                .map(|_| m.mean_backlog(0, agents, rng).unwrap())
                .sum::<f64>()
                / n as f64
        };
        let under = mean(5, &mut rng); // capacity 30 < arrivals 40
        let over = mean(12, &mut rng); // capacity 72 > arrivals 40
        assert!(
            under > 100.0,
            "unstable queue should accumulate, got {under:.1}"
        );
        assert!(over < 15.0, "stable queue should stay small, got {over:.1}");
    }

    #[test]
    fn backlog_grows_with_weeks_at_fixed_staff() {
        let m = QueueModel::default();
        let mut rng = Xoshiro256StarStar::seed_from_u64(8);
        let n = 200;
        let mean = |week: i64, rng: &mut Xoshiro256StarStar| {
            (0..n)
                .map(|_| m.mean_backlog(week, 8, rng).unwrap())
                .sum::<f64>()
                / n as f64
        };
        let early = mean(0, &mut rng); // ρ = 40/48 ≈ 0.83
        let late = mean(40, &mut rng); // ρ ≈ 1.51 → unstable
        assert!(late > early * 3.0, "early={early:.1} late={late:.1}");
    }

    #[test]
    fn deterministic_per_seed() {
        let m = QueueModel::default();
        let mut a = Xoshiro256StarStar::seed_from_u64(9);
        let mut b = Xoshiro256StarStar::seed_from_u64(9);
        assert_eq!(
            m.mean_backlog(10, 8, &mut a).unwrap(),
            m.mean_backlog(10, 8, &mut b).unwrap()
        );
    }

    #[test]
    fn vg_interface() {
        let m = QueueModel::default();
        let mut rng = Xoshiro256StarStar::seed_from_u64(10);
        let backlog = m
            .invoke(&[Value::Int(0), Value::Int(10)], &mut rng)
            .unwrap();
        assert!(backlog >= 0.0);
    }

    #[test]
    fn rates_outside_the_simulable_range_are_a_typed_error_on_both_lanes() {
        let m = QueueModel::default();
        let mut registry = prophet_vg::VgRegistry::new();
        registry.register(std::sync::Arc::new(m.clone()));
        // 1.015^week underflows to 0, overflows to infinity, used to wrap
        // at 2^31, and long before any of that is an hours-long Knuth loop;
        // an agent count can do the same to the service rate.
        assert_eq!(m.arrival_rate(-60_000), 0.0);
        assert_eq!(m.arrival_rate(60_000), f64::INFINITY);
        assert_eq!(m.arrival_rate((1 << 31) + 5), f64::INFINITY);
        let cases = [
            (-60_000, 10, "arrival rate 0 per hour"),
            (60_000, 10, "arrival rate inf per hour"),
            ((1 << 31) + 5, 10, "arrival rate inf per hour"),
            (2_000, 10, "arrival rate 3"),
            (0, i64::MAX, "service rate 5"),
        ];
        for (week, agents, needle) in cases {
            let params = [Value::Int(week), Value::Int(agents)];
            let mut rng = Xoshiro256StarStar::seed_from_u64(1);
            let scalar = m.invoke(&params, &mut rng).unwrap_err();
            let lane = registry
                .invoke_batch_columnar(
                    "QueueModel",
                    &mut [prophet_vg::VgCallF64 {
                        params: &params,
                        rng: &mut rng,
                    }],
                )
                .unwrap_err();
            assert_eq!(scalar, lane, "QueueModel({week}, {agents})");
            assert!(
                matches!(&scalar, DataError::InvalidOperation(msg) if msg.contains(needle)),
                "QueueModel({week}, {agents}): {scalar}"
            );
        }
        // The last week under the bound still simulates.
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        assert!(m.arrival_rate(370) <= QueueModel::MAX_RATE);
        assert!(m.mean_backlog(370, 10, &mut rng).unwrap() > 0.0);
    }
}
