//! Output re-mapping transforms.
//!
//! Once a correlation is detected "these correlations allow us to re-map the
//! simulation's output from one parameterization to the other and reduce the
//! work associated with re-evaluating different permutations of the
//! scenario" (§1). A [`Mapping`] is that re-map: a cheap transform applied
//! to stored Monte Carlo samples in place of fresh VG invocations.

use std::fmt;

/// A detected relationship between two parameterizations' outputs.
#[derive(Debug, Clone, PartialEq)]
pub enum Mapping {
    /// Outputs are identical: reuse samples as-is.
    Identity,
    /// Outputs differ by a constant: `y = x + offset`.
    Offset(f64),
    /// General affine relationship `y = scale·x + offset`, with the fit's
    /// residual standard deviation as the mapped-estimate error bar.
    Affine {
        /// Slope.
        scale: f64,
        /// Intercept.
        offset: f64,
        /// Residual standard deviation of the fit.
        residual_std: f64,
    },
}

impl Mapping {
    /// Apply to a scalar.
    pub fn apply_scalar(&self, x: f64) -> f64 {
        match self {
            Mapping::Identity => x,
            Mapping::Offset(d) => x + d,
            Mapping::Affine { scale, offset, .. } => scale * x + offset,
        }
    }

    /// Apply to a sample vector (Monte Carlo samples of one output column).
    pub fn apply_samples(&self, xs: &[f64]) -> Vec<f64> {
        xs.iter().map(|&x| self.apply_scalar(x)).collect()
    }

    /// The error bar (one standard deviation) this mapping adds to mapped
    /// estimates. Identity/Offset are exact under fixed seeds.
    pub fn error_std(&self) -> f64 {
        match self {
            Mapping::Identity | Mapping::Offset(_) => 0.0,
            Mapping::Affine { residual_std, .. } => *residual_std,
        }
    }

    /// Whether applying this mapping is exact (no residual error).
    pub fn is_exact(&self) -> bool {
        self.error_std() == 0.0
    }
}

impl fmt::Display for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mapping::Identity => write!(f, "identity"),
            Mapping::Offset(d) => write!(
                f,
                "y = x {} {:.4}",
                if *d < 0.0 { "-" } else { "+" },
                d.abs()
            ),
            Mapping::Affine { scale, offset, .. } => write!(f, "y = {scale:.4}·x + {offset:.4}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_applications() {
        assert_eq!(Mapping::Identity.apply_scalar(3.0), 3.0);
        assert_eq!(Mapping::Offset(2.0).apply_scalar(3.0), 5.0);
        assert_eq!(
            Mapping::Affine {
                scale: 2.0,
                offset: 1.0,
                residual_std: 0.0
            }
            .apply_scalar(3.0),
            7.0
        );
    }

    #[test]
    fn sample_vector_application() {
        let m = Mapping::Offset(-1.0);
        assert_eq!(m.apply_samples(&[1.0, 2.0, 3.0]), vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn error_propagation() {
        assert!(Mapping::Identity.is_exact());
        assert!(Mapping::Offset(3.0).is_exact());
        let a = Mapping::Affine {
            scale: 2.0,
            offset: 0.0,
            residual_std: 0.3,
        };
        assert!(!a.is_exact());
        assert_eq!(a.error_std(), 0.3);
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(Mapping::Identity.to_string(), "identity");
        assert_eq!(Mapping::Offset(-2.0).to_string(), "y = x - 2.0000");
    }
}
