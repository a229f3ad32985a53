//! Inventory policy what-if: pick an (s, Q) reorder policy under uncertain
//! demand with a delivery lead time.
//!
//! A third domain on the same engine — the scenario asks for the *leanest*
//! policy (lowest reorder point, i.e. least working capital) that keeps the
//! stockout probability acceptable across the year, then prints that
//! policy's per-week expectations and standard deviations straight from
//! its sample sets (the paper's `results` relation is never built as a
//! table in this engine).
//!
//! ```sh
//! cargo run --release --example inventory_policy
//! ```

use fuzzy_prophet::prelude::*;
use prophet_models::full_registry;
use prophet_models::scenarios::INVENTORY_POLICY;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let prophet = Prophet::builder()
        .scenario_sql("inventory", INVENTORY_POLICY)?
        .registry(full_registry())
        .config(EngineConfig {
            worlds_per_point: 200,
            ..EngineConfig::default()
        })
        .build()?;

    println!("=== Inventory policy optimization ===\n");
    let report = prophet
        .submit(JobSpec::sweep("inventory"))?
        .wait()?
        .into_sweep()?;
    match &report.best {
        Some(best) => println!(
            "leanest viable policy: reorder at {} units, order {} units \
             (worst-week stockout probability {:.3})",
            best.point.get("reorder_point").unwrap(),
            best.point.get("reorder_qty").unwrap(),
            best.constraint_values[0]
        ),
        None => println!("no policy in the grid keeps stockout risk under 5%"),
    }
    println!(
        "{} policies evaluated ({} feasible) in {:?}; engine: {}\n",
        report.groups_total,
        report.feasible().count(),
        report.wall,
        report.metrics
    );

    // The chosen policy across the year: each week's sample set carries
    // what the paper's `INTO results` rows would aggregate to.
    if let Some(best) = &report.best {
        // Same service, same shared store: every point below was already
        // simulated by the sweep, so these reads are pure cache hits.
        let engine = prophet.engine("inventory")?;
        println!("=== per-week results for the chosen policy (mean ± stddev) ===");
        for week in (4..=52).step_by(4) {
            let (samples, _) = engine.evaluate(&best.point.with("week", week))?;
            let mut row = format!("week {week:>2}");
            for column in samples.columns() {
                let stats = samples.stats(column).ok_or("column without samples")?;
                row += &format!("  {column} {:>8.3} ± {:>7.3}", stats.mean, stats.std_dev);
            }
            println!("{row}");
        }
    }
    Ok(())
}
