//! Subscription-revenue model for the pricing what-if example.
//!
//! Not part of the paper's demo scenario, but representative of the "many
//! enterprises" scenarios the introduction motivates: choose a price point
//! under uncertain subscriber growth and price elasticity.

use prophet_data::{DataResult, Value};
use prophet_vg::dist::{LogNormal, Normal};
use prophet_vg::rng::{Rng64, Xoshiro256StarStar};
use prophet_vg::VgFunction;

/// Parameters of the revenue model.
#[derive(Debug, Clone, PartialEq)]
pub struct RevenueConfig {
    /// Subscribers at week 0 at the anchor price.
    pub base_subscribers: f64,
    /// Weekly subscriber growth at the anchor price.
    pub growth_per_week: f64,
    /// Subscriber noise (std-dev).
    pub subscriber_std: f64,
    /// Anchor price (currency units / month) at which elasticity is zero.
    pub anchor_price: f64,
    /// Subscribers lost per currency-unit of price above the anchor.
    pub elasticity: f64,
    /// Log-scale sigma of per-subscriber engagement revenue multiplier.
    pub engagement_sigma: f64,
}

impl Default for RevenueConfig {
    fn default() -> Self {
        RevenueConfig {
            base_subscribers: 50_000.0,
            growth_per_week: 600.0,
            subscriber_std: 2_000.0,
            anchor_price: 20.0,
            elasticity: 1_500.0,
            engagement_sigma: 0.08,
        }
    }
}

/// `RevenueModel(@week, @price)` → one sample: weekly revenue at the given
/// price point.
#[derive(Debug, Clone)]
pub struct RevenueModel {
    config: RevenueConfig,
    subscriber_noise: Normal,
    engagement: LogNormal,
}

impl RevenueModel {
    /// Build from a config.
    ///
    /// # Panics
    /// Panics if noise parameters are not positive (analyst constants).
    pub fn new(config: RevenueConfig) -> Self {
        let subscriber_noise =
            Normal::new(0.0, config.subscriber_std).expect("subscriber_std must be positive");
        // mean-1 engagement multiplier: mu = -sigma^2/2
        let engagement = LogNormal::new(
            -config.engagement_sigma * config.engagement_sigma / 2.0,
            config.engagement_sigma,
        )
        .expect("engagement_sigma must be positive");
        RevenueModel {
            config,
            subscriber_noise,
            engagement,
        }
    }

    /// Sample weekly revenue (Rust-level API).
    ///
    /// Stream discipline: exactly two draws per invocation (subscriber
    /// noise, then engagement) at every week and price, so fixed seeds give
    /// every point the same `noise` and `eng`. Revenue is
    /// `max(0, c + noise) · price · eng / 4`, with mean subscribers
    /// `c = trend − elasticity·(price − anchor)`.
    ///
    /// Price changes do **not** map affinely under fixed seeds: between two
    /// prices, `y₂ − (p₂/p₁)·y₁ = p₂·eng·(c₂ − c₁)/4` varies with the
    /// engagement draw, so a pricing match is an `Affine` fit with a
    /// residual, never an exact one. The subscriber clamp at 0 bends the
    /// relation further wherever it fires.
    pub fn revenue_at<R: Rng64>(&self, week: i64, price: f64, rng: &mut R) -> f64 {
        let trend = self.config.base_subscribers + self.config.growth_per_week * week as f64;
        let price_penalty = self.config.elasticity * (price - self.config.anchor_price);
        let noise = self.subscriber_noise.sample_with(rng);
        let engagement = self.engagement.sample_with(rng);
        let subscribers = (trend - price_penalty + noise).max(0.0);
        subscribers * price * engagement / 4.0 // monthly price → weekly revenue
    }

    /// Analytic mean subscribers at a week/price.
    #[cfg(test)]
    fn mean_subscribers(&self, week: i64, price: f64) -> f64 {
        (self.config.base_subscribers + self.config.growth_per_week * week as f64
            - self.config.elasticity * (price - self.config.anchor_price))
            .max(0.0)
    }
}

impl Default for RevenueModel {
    fn default() -> Self {
        RevenueModel::new(RevenueConfig::default())
    }
}

impl VgFunction for RevenueModel {
    fn name(&self) -> &str {
        "RevenueModel"
    }

    fn arity(&self) -> usize {
        2
    }

    fn invoke(&self, params: &[Value], rng: &mut Xoshiro256StarStar) -> DataResult<f64> {
        let week = params[0].as_i64()?;
        let price = params[1].as_f64()?;
        Ok(self.revenue_at(week, price, rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn higher_price_loses_subscribers() {
        let m = RevenueModel::default();
        assert!(m.mean_subscribers(0, 25.0) < m.mean_subscribers(0, 20.0));
        assert!(m.mean_subscribers(0, 15.0) > m.mean_subscribers(0, 20.0));
    }

    #[test]
    fn revenue_peaks_at_interior_price() {
        // With linear elasticity, revenue = subs(p)·p is a downward parabola
        // in p; the Monte Carlo means must reflect that shape.
        let m = RevenueModel::default();
        let mut rng = Xoshiro256StarStar::seed_from_u64(21);
        let n = 5_000;
        let mean_rev = |price: f64, rng: &mut Xoshiro256StarStar| {
            (0..n).map(|_| m.revenue_at(0, price, rng)).sum::<f64>() / n as f64
        };
        let low = mean_rev(10.0, &mut rng);
        let mid = mean_rev(26.0, &mut rng);
        let high = mean_rev(48.0, &mut rng);
        assert!(mid > low, "mid={mid:.0} low={low:.0}");
        assert!(mid > high, "mid={mid:.0} high={high:.0}");
    }

    #[test]
    fn subscribers_never_negative() {
        let m = RevenueModel::default();
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        // absurd price: elasticity would drive subscribers negative
        for _ in 0..100 {
            assert!(m.revenue_at(0, 500.0, &mut rng) >= 0.0);
        }
    }

    #[test]
    fn engagement_multiplier_is_mean_one() {
        let cfg = RevenueConfig::default();
        let m = RevenueModel::new(cfg);
        let mut rng = Xoshiro256StarStar::seed_from_u64(13);
        let n = 100_000;
        let mean: f64 = (0..n)
            .map(|_| m.engagement.sample_with(&mut rng))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 1.0).abs() < 0.01, "mean engagement {mean}");
    }

    #[test]
    fn vg_interface_accepts_int_and_float_price() {
        let m = RevenueModel::default();
        let mut rng = Xoshiro256StarStar::seed_from_u64(4);
        let revenue = m
            .invoke(&[Value::Int(0), Value::Int(20)], &mut rng)
            .unwrap();
        assert!(revenue > 0.0);
        let revenue = m
            .invoke(&[Value::Int(0), Value::Float(19.5)], &mut rng)
            .unwrap();
        assert!(revenue > 0.0);
    }
}
