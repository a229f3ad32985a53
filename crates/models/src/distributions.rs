//! The bundled parametric distributions as catalog VG functions.
//!
//! MCDB exposes its basic distributions (`Normal(...)`, `Poisson(...)`,
//! …) directly to SQL; these wrappers do the same for the reproduction's
//! [`prophet_vg::dist`] family so a scenario can draw from a raw
//! distribution without writing a model struct:
//!
//! ```sql
//! SELECT Normal(@mu, 25.0) AS noise, Poisson(40) AS arrivals INTO r;
//! ```
//!
//! Every wrapper's [`prophet_vg::VgFunction::invoke`] is one
//! `sample_with` draw on the call's own `(world, function, call index)`
//! substream; a columnar block calls it once per world, straight into a
//! typed `f64` lane.

use prophet_data::{DataError, DataResult, Value};
use prophet_vg::dist::{LogNormal, Normal, Poisson, Triangular};
use prophet_vg::rng::Xoshiro256StarStar;
use prophet_vg::VgFunction;

fn bad_params(name: &str, spec: &str, params: &[Value]) -> DataError {
    DataError::SchemaMismatch(format!("{name}{spec} got invalid parameters {params:?}"))
}

macro_rules! dist_vg {
    ($(#[$doc:meta])* $wrapper:ident, $name:literal, $spec:literal, $arity:literal,
     $dist:ty, |$params:ident| $build:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, Default)]
        pub struct $wrapper;

        impl $wrapper {
            fn dist($params: &[Value]) -> DataResult<$dist> {
                $build.ok_or_else(|| bad_params($name, $spec, $params))
            }
        }

        impl VgFunction for $wrapper {
            fn name(&self) -> &str {
                $name
            }

            fn arity(&self) -> usize {
                $arity
            }

            fn invoke(&self, params: &[Value], rng: &mut Xoshiro256StarStar) -> DataResult<f64> {
                Ok(Self::dist(params)?.sample_with(rng))
            }
        }
    };
}

dist_vg!(
    /// `Normal(@mean, @std)` → one gaussian draw per world.
    NormalVg, "Normal", "(mean, std)", 2,
    Normal, |params| Normal::new(params[0].as_f64()?, params[1].as_f64()?)
);

dist_vg!(
    /// `LogNormal(@mu, @sigma)` → one log-normal draw per world (log-scale
    /// parameters, as in [`prophet_vg::dist::LogNormal`]).
    LogNormalVg, "LogNormal", "(mu, sigma)", 2,
    LogNormal, |params| LogNormal::new(params[0].as_f64()?, params[1].as_f64()?)
);

dist_vg!(
    /// `Poisson(@lambda)` → one Poisson count per world (as a float cell,
    /// like every distribution sample).
    PoissonVg, "Poisson", "(lambda)", 1,
    Poisson, |params| Poisson::new(params[0].as_f64()?)
);

dist_vg!(
    /// `Triangular(@min, @mode, @max)` → one triangular draw per world.
    TriangularVg, "Triangular", "(min, mode, max)", 3,
    Triangular, |params| Triangular::new(
        params[0].as_f64()?,
        params[1].as_f64()?,
        params[2].as_f64()?
    )
);

#[cfg(test)]
mod tests {
    use super::*;
    use prophet_vg::{VgCallF64, VgRegistry};
    use std::sync::Arc;

    fn registry() -> VgRegistry {
        let mut r = VgRegistry::new();
        r.register(Arc::new(NormalVg));
        r.register(Arc::new(LogNormalVg));
        r.register(Arc::new(PoissonVg));
        r.register(Arc::new(TriangularVg));
        r
    }

    fn params_for(name: &str) -> Vec<Value> {
        match name {
            "Normal" => vec![Value::Float(10.0), Value::Float(2.0)],
            "LogNormal" => vec![Value::Float(0.0), Value::Float(0.25)],
            "Poisson" => vec![Value::Float(6.5)],
            "Triangular" => vec![Value::Int(0), Value::Int(3), Value::Int(10)],
            other => panic!("unknown distribution {other}"),
        }
    }

    #[test]
    fn batch_f64_lane_is_bit_identical_to_scalar_invoke() {
        let r = registry();
        for name in ["Normal", "LogNormal", "Poisson", "Triangular"] {
            let params = params_for(name);
            let mut rngs: Vec<_> = (0..16u64).map(Xoshiro256StarStar::seed_from_u64).collect();
            let mut calls: Vec<VgCallF64<'_>> = rngs
                .iter_mut()
                .map(|rng| VgCallF64 {
                    params: &params,
                    rng,
                })
                .collect();
            let lane = r.invoke_batch_columnar(name, &mut calls).unwrap();
            for (world, &sample) in lane.iter().enumerate() {
                let mut rng = Xoshiro256StarStar::seed_from_u64(world as u64);
                let scalar = r.invoke(name, &params, &mut rng).unwrap();
                assert_eq!(
                    sample.to_bits(),
                    scalar.to_bits(),
                    "{name} world {world} lane diverged from scalar invoke"
                );
            }
        }
    }

    #[test]
    fn invalid_parameters_are_rejected_with_the_spec() {
        let r = registry();
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let err = r
            .invoke("Normal", &[Value::Float(0.0), Value::Float(-1.0)], &mut rng)
            .unwrap_err();
        assert!(err.to_string().contains("Normal(mean, std)"), "{err}");
        let err = r
            .invoke("Poisson", &[Value::Float(0.0)], &mut rng)
            .unwrap_err();
        assert!(err.to_string().contains("Poisson(lambda)"), "{err}");
        let err = r
            .invoke(
                "Triangular",
                &[Value::Int(5), Value::Int(1), Value::Int(2)],
                &mut rng,
            )
            .unwrap_err();
        assert!(
            err.to_string().contains("Triangular(min, mode, max)"),
            "{err}"
        );
    }

    #[test]
    fn sample_moments_are_plausible() {
        let r = registry();
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        let n = 4_000;
        let mean = |name: &str, params: &[Value], rng: &mut Xoshiro256StarStar| {
            (0..n)
                .map(|_| r.invoke(name, params, rng).unwrap())
                .sum::<f64>()
                / n as f64
        };
        let m = mean("Normal", &params_for("Normal"), &mut rng);
        assert!((m - 10.0).abs() < 0.2, "Normal mean {m}");
        let m = mean("Poisson", &params_for("Poisson"), &mut rng);
        assert!((m - 6.5).abs() < 0.2, "Poisson mean {m}");
        let m = mean("Triangular", &params_for("Triangular"), &mut rng);
        assert!((m - 13.0 / 3.0).abs() < 0.2, "Triangular mean {m}");
    }
}
