//! Support staffing: a queueing what-if on the Fuzzy Prophet engine.
//!
//! Ticket volume grows ~1.5% per week; each agent resolves a Poisson number
//! of tickets per hour. The scenario asks: per quarter, how many agents
//! keep the average backlog under 25 tickets — and what is the cheapest
//! (smallest) such team?
//!
//! Structurally this is the paper's risk-vs-cost-of-ownership trade-off in
//! a second domain: staffing late saves salary but risks an exploding
//! backlog, exactly like deferring hardware purchases.
//!
//! ```sh
//! cargo run --release --example support_staffing
//! ```

use fuzzy_prophet::prelude::*;
use fuzzy_prophet::render::ascii_chart;
use prophet_models::full_registry;
use prophet_models::scenarios::SUPPORT_STAFFING;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let prophet = Prophet::builder()
        .scenario_sql("staffing", SUPPORT_STAFFING)?
        .registry(full_registry())
        .config(EngineConfig {
            worlds_per_point: 200,
            ..EngineConfig::default()
        })
        .build()?;

    // Online: watch the backlog across the year for two staffing levels.
    let mut session = prophet.online("staffing")?;
    for agents in [8i64, 14] {
        let report = session.set_param("agents", agents)?;
        println!("=== Backlog across the year with {agents} agents ===");
        println!(
            "(refresh: {} simulated / {} mapped / {} cached weeks)",
            report.weeks_simulated, report.weeks_mapped, report.weeks_cached
        );
        let series: Vec<_> = session.graph().iter().collect();
        println!("{}", ascii_chart(&series, 80, 12));
    }

    // Offline: smallest team whose worst-quarter breach probability < 20%.
    // Shares the online session's basis store, so the two staffing levels
    // rendered above are already warm.
    let report = prophet
        .submit(JobSpec::sweep("staffing"))?
        .wait()?
        .into_sweep()?;
    match &report.best {
        Some(best) => println!(
            "cheapest viable team: {} agents (worst-week breach probability {:.3})",
            best.point.get("agents").unwrap(),
            best.constraint_values[0]
        ),
        None => println!("no staffing level under 21 agents satisfies the breach constraint"),
    }
    println!(
        "swept {} staffing levels in {:?} — engine: {}",
        report.groups_total, report.wall, report.metrics
    );
    Ok(())
}
