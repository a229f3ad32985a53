//! # prophet-models
//!
//! The VG-Function models of the paper's demonstration scenario (§3.1,
//! "Risk vs Cost of Ownership") plus additional enterprise models used by
//! the repository's examples.
//!
//! The demo data in the paper was "arbitrarily chosen for intellectual
//! property reasons"; the defaults here are likewise synthetic, tuned so the
//! scenario exhibits the dynamics the paper describes: demand grows through
//! the year (with a jump at the feature release), capacity decays through
//! stochastic hardware failures and jumps when purchased hardware deploys,
//! and the overload probability consequently rises until a purchase lands.
//!
//! ## Stream-alignment discipline
//!
//! Every model documents — and tests — how it consumes its PRNG stream,
//! because Fuzzy Prophet's fingerprinting depends on *common random
//! numbers*: with the same seed, changing a parameter must perturb the
//! output only through the parameter's causal path, not by desynchronizing
//! unrelated draws. Two rules implemented throughout:
//!
//! 1. draws that exist regardless of parameter values (weekly failure
//!    events, weekly demand noise) come from the main stream in a fixed
//!    order;
//! 2. draws whose *timing* depends on parameters (deployment lags) come
//!    from a sub-stream seeded once at invocation start, so they cannot
//!    shift the main stream.

pub mod capacity;
pub mod demand;
pub mod deployment;
pub mod distributions;
pub mod failures;
pub mod inventory;
pub mod queueing;
pub mod registry;
pub mod revenue;
pub mod scenarios;

use prophet_data::{DataError, DataResult};

pub use capacity::{CapacityConfig, CapacityModel};
pub use demand::{DemandConfig, DemandModel};
pub use deployment::DeploymentConfig;
pub use distributions::{LogNormalVg, NormalVg, PoissonVg, TriangularVg};
pub use failures::FailureClass;
pub use inventory::{InventoryConfig, InventoryModel};
pub use queueing::{QueueConfig, QueueModel};
pub use registry::{demo_registry, demo_registry_with, full_registry};
pub use revenue::{RevenueConfig, RevenueModel};

/// A model's leading `N` arguments as integers (weeks, counts), failing
/// on the first that is not one.
pub(crate) fn int_args<const N: usize>(params: &[prophet_data::Value]) -> DataResult<[i64; N]> {
    let mut args = [0; N];
    for (arg, value) in args.iter_mut().zip(params) {
        *arg = value.as_i64()?;
    }
    Ok(args)
}

/// The last week a chain model simulates for a horizon argument (`what`
/// names it in the error): negative weeks clamp to week 0, weeks past the
/// model's `max_week` are refused — on every entry point, so neither a
/// walk nor an allocation is ever proportional to an unchecked argument.
pub(crate) fn last_week(what: &str, week: i64, max_week: i64) -> DataResult<i64> {
    if week > max_week {
        return Err(DataError::InvalidOperation(format!(
            "{what} = {week} exceeds the {max_week}-week maximum"
        )));
    }
    Ok(week.max(0))
}
