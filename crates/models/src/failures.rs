//! Hardware failure classes.
//!
//! Paper §3.1: the capacity model "is expressed as an aggregate of many
//! different individual models, each expressing different classes of
//! hardware failures". Each [`FailureClass`] is one such individual model:
//! a Poisson-distributed weekly event count and a per-event core loss.

use prophet_vg::dist::{Distribution, LogNormal, Poisson};
use prophet_vg::rng::Rng64;

/// One class of hardware failure.
#[derive(Debug, Clone)]
pub struct FailureClass {
    name: String,
    events_per_week: Poisson,
    cores_per_event: LogNormal,
    mean_cores_per_event: f64,
    weekly_rate: f64,
}

impl FailureClass {
    /// Define a class by its weekly event rate and the median / spread of
    /// the per-event core loss (lognormal, so losses are positive and
    /// right-skewed — most incidents are small, some are not).
    ///
    /// # Panics
    /// Panics on non-positive rate or spread; classes are analyst-authored
    /// constants.
    pub fn new(
        name: impl Into<String>,
        events_per_week: f64,
        median_cores: f64,
        sigma: f64,
    ) -> Self {
        let events = Poisson::new(events_per_week).expect("event rate must be positive");
        let loss = LogNormal::new(median_cores.ln(), sigma).expect("sigma must be positive");
        FailureClass {
            name: name.into(),
            mean_cores_per_event: loss.mean(),
            events_per_week: events,
            cores_per_event: loss,
            weekly_rate: events_per_week,
        }
    }

    /// Class name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Expected cores lost per week (rate × mean loss).
    pub fn mean_weekly_loss(&self) -> f64 {
        self.weekly_rate * self.mean_cores_per_event
    }

    /// Sample this class's total core loss for one week.
    ///
    /// Stream discipline: one Poisson draw, then exactly `count` loss
    /// draws. The count comes first so that identical seeds give identical
    /// event sequences across parameterizations (capacity parameters never
    /// influence failure draws).
    pub fn sample_weekly_loss<R: Rng64>(&self, rng: &mut R) -> f64 {
        let count = self.events_per_week.sample_with(rng) as u64;
        (0..count)
            .map(|_| self.cores_per_event.sample_with(rng))
            .sum()
    }

    /// The default fleet: four classes spanning frequent/small to
    /// rare/large incidents. Total expected loss ≈ 57 cores/week, tuned so
    /// un-replenished capacity decays visibly over a 52-week year.
    pub fn default_fleet() -> Vec<FailureClass> {
        vec![
            // disks die constantly but cost few cores each
            FailureClass::new("disk", 2.0, 7.0, 0.5),
            // a PSU takes a chassis with it
            FailureClass::new("psu", 0.5, 26.0, 0.4),
            // a switch failure takes a rack slice offline
            FailureClass::new("network", 0.2, 90.0, 0.3),
            // rare systemic incidents (bad firmware rollout, cooling)
            FailureClass::new("systemic", 0.02, 550.0, 0.25),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophet_vg::rng::Xoshiro256StarStar;

    #[test]
    fn mean_weekly_loss_matches_simulation() {
        for class in FailureClass::default_fleet() {
            let mut rng = Xoshiro256StarStar::seed_from_u64(11);
            let n = 50_000;
            let sim: f64 = (0..n)
                .map(|_| class.sample_weekly_loss(&mut rng))
                .sum::<f64>()
                / n as f64;
            let analytic = class.mean_weekly_loss();
            let rel = (sim - analytic).abs() / analytic;
            assert!(
                rel < 0.08,
                "{}: sim={sim:.2} analytic={analytic:.2}",
                class.name()
            );
        }
    }

    #[test]
    fn fleet_total_is_moderate() {
        let total: f64 = FailureClass::default_fleet()
            .iter()
            .map(|c| c.mean_weekly_loss())
            .sum();
        // Tuned range: enough to matter over a year, not enough to dominate.
        assert!((40.0..80.0).contains(&total), "total weekly loss {total}");
    }

    #[test]
    fn losses_are_nonnegative_and_deterministic() {
        let class = FailureClass::new("test", 1.5, 10.0, 0.5);
        let mut a = Xoshiro256StarStar::seed_from_u64(3);
        let mut b = Xoshiro256StarStar::seed_from_u64(3);
        for _ in 0..100 {
            let la = class.sample_weekly_loss(&mut a);
            let lb = class.sample_weekly_loss(&mut b);
            assert_eq!(la, lb);
            assert!(la >= 0.0);
        }
    }

    #[test]
    fn zero_event_weeks_cost_nothing() {
        // With a tiny rate, most weeks must be zero-loss.
        let class = FailureClass::new("rare", 0.01, 100.0, 0.3);
        let mut rng = Xoshiro256StarStar::seed_from_u64(4);
        let zeros = (0..1_000)
            .filter(|_| class.sample_weekly_loss(&mut rng) == 0.0)
            .count();
        assert!(zeros > 950, "zeros={zeros}");
    }
}
