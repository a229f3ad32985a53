//! Purchase-to-deployment lag model.
//!
//! Paper §3.1: the capacity model includes "expected time from new hardware
//! purchase to deployment". Hardware ordered in week `p` comes online in
//! week `p + lag` where the lag is stochastic (logistics, burn-in,
//! integration) — the paper's §2 explicitly calls out "the nondeterministic
//! date when new hardware comes online" as the kind of discontinuity
//! fingerprinting must cope with.

use prophet_vg::dist::Triangular;
use prophet_vg::rng::Rng64;

/// Deployment-lag configuration (weeks, as a min/mode/max triangle).
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentConfig {
    /// Fastest plausible lag.
    pub min_weeks: f64,
    /// Most likely lag.
    pub mode_weeks: f64,
    /// Slowest plausible lag.
    pub max_weeks: f64,
}

impl Default for DeploymentConfig {
    fn default() -> Self {
        DeploymentConfig {
            min_weeks: 1.0,
            mode_weeks: 2.0,
            max_weeks: 5.0,
        }
    }
}

impl DeploymentConfig {
    /// Build the sampler.
    ///
    /// # Panics
    /// Panics on an invalid triangle (analyst-authored constants).
    pub fn sampler(&self) -> DeploymentSampler {
        DeploymentSampler {
            dist: Triangular::new(self.min_weeks, self.mode_weeks, self.max_weeks)
                .expect("deployment lag triangle must satisfy min <= mode <= max, min < max"),
        }
    }

    /// Expected lag in weeks.
    #[cfg(test)]
    fn mean_weeks(&self) -> f64 {
        (self.min_weeks + self.mode_weeks + self.max_weeks) / 3.0
    }
}

/// Samples integer deployment lags.
#[derive(Debug, Clone)]
pub struct DeploymentSampler {
    dist: Triangular,
}

impl DeploymentSampler {
    /// Sample a lag in whole weeks (rounded down; deployment counts from
    /// the start of a week).
    pub fn sample_lag<R: Rng64>(&self, rng: &mut R) -> i64 {
        self.dist.sample_with(rng).floor() as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophet_vg::rng::Xoshiro256StarStar;

    #[test]
    fn lags_fall_in_the_triangle() {
        let s = DeploymentConfig::default().sampler();
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        for _ in 0..10_000 {
            let lag = s.sample_lag(&mut rng);
            assert!((1..=4).contains(&lag), "lag {lag} outside [1, 4]");
        }
    }

    #[test]
    fn mean_lag_is_sane() {
        let cfg = DeploymentConfig::default();
        let s = cfg.sampler();
        let mut rng = Xoshiro256StarStar::seed_from_u64(8);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| s.sample_lag(&mut rng) as f64).sum::<f64>() / n as f64;
        // floor() pulls the continuous mean (8/3 ≈ 2.67) down a bit
        assert!((1.5..2.7).contains(&mean), "mean lag {mean}");
        assert!((cfg.mean_weeks() - 8.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_is_deterministic() {
        let s = DeploymentConfig::default().sampler();
        let mut a = Xoshiro256StarStar::seed_from_u64(5);
        let mut b = Xoshiro256StarStar::seed_from_u64(5);
        for _ in 0..32 {
            assert_eq!(s.sample_lag(&mut a), s.sample_lag(&mut b));
        }
    }
}
