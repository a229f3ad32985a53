//! Pricing what-if: a non-datacenter enterprise scenario on the same
//! engine — choose a subscription price and a promo week under uncertain
//! subscriber growth and price elasticity.
//!
//! Demonstrates that Fuzzy Prophet's DSL + fingerprint machinery is not
//! specific to the demo models: `RevenueModel` is just another registered
//! VG-Function.
//!
//! ```sh
//! cargo run --release --example pricing_whatif
//! ```

use fuzzy_prophet::prelude::*;
use fuzzy_prophet::render::{ascii_chart, series_csv};
use prophet_models::full_registry;
use prophet_models::scenarios::PRICING_WHATIF;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let prophet = Prophet::builder()
        .scenario_sql("pricing", PRICING_WHATIF)?
        .registry(full_registry())
        .config(EngineConfig {
            worlds_per_point: 250,
            ..EngineConfig::default()
        })
        .build()?;

    // Online view: sweep revenue across the price axis for a mid-year week.
    let mut session = prophet.online("pricing")?;
    session.set_param("week", 24)?;
    println!("=== Revenue vs price (week 24) ===");
    let series: Vec<_> = session.graph().iter().collect();
    println!("{}", ascii_chart(&series, 90, 16));
    print!("{}", series_csv(&series));

    // The revenue curve is a downward parabola in price: the maximizer is
    // interior, the miss probability explodes at both extremes.
    let revenue = session.series("revenue").expect("declared in GRAPH");
    let (best_price, best_revenue) = revenue
        .points
        .iter()
        .map(|p| (p.x, p.y))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("series populated");
    println!("\nrevenue-maximizing price at week 24: {best_price} (≈ {best_revenue:.0}/week)");

    // Offline: the highest price whose worst-case miss risk stays under 50%
    // across the whole year. The sweep job shares the online session's
    // basis store, so the week-24 column is already warm.
    let report = prophet
        .submit(JobSpec::sweep("pricing"))?
        .wait()?
        .into_sweep()?;
    println!(
        "\nOPTIMIZE: highest sustainable price across the year: {:?}",
        report.best.as_ref().map(|b| b.point.get("price").unwrap())
    );
    println!("engine: {}", report.metrics);
    Ok(())
}
