//! Capacity planning: the demo's offline walkthrough (§3.3) in depth.
//!
//! Runs the Figure-2 OPTIMIZE query at both the SQL text's 1% threshold and
//! the prose's 5% threshold, renders the Figure-4 exploration map showing
//! which (purchase1, purchase2) cells were computed vs fingerprint-mapped,
//! and compares engine work with fingerprints on and off.
//!
//! ```sh
//! cargo run --release --example capacity_planning
//! ```

use fuzzy_prophet::prelude::*;
use prophet_models::demo_registry;
use prophet_models::scenarios::figure2_coarse_sql;

fn run_threshold(
    threshold: f64,
    fingerprints: bool,
) -> Result<(OfflineReport, ExplorationMap), Box<dyn std::error::Error>> {
    // Smaller grid than Figure 2 (weeks step 2, purchases step 8) so the
    // example finishes in seconds while preserving the experiment's shape.
    let scenario = Scenario::parse(&figure2_coarse_sql(threshold))?;
    let p1 = scenario.script().param("purchase1").unwrap().clone();
    let p2 = scenario.script().param("purchase2").unwrap().clone();
    let prophet = Prophet::builder()
        .scenario("capacity", scenario)
        .registry(demo_registry())
        .config(EngineConfig {
            worlds_per_point: 150,
            fingerprints_enabled: fingerprints,
            ..EngineConfig::default()
        })
        .build()?;
    // The sweep runs as a job on the service's pool; its chunk stream
    // feeds the exploration map cell by cell as each group finishes.
    let handle = prophet.submit(JobSpec::sweep("capacity"))?;
    let mut map = ExplorationMap::new(&p1, &p2);
    let mut report = None;
    for event in handle.events() {
        match event {
            JobEvent::Chunk(update) => {
                for (full, outcome) in &update.results {
                    map.record(full, outcome);
                }
            }
            JobEvent::Final(output) => report = Some(output.into_sweep()?),
            JobEvent::Cancelled => return Err("sweep cancelled".into()),
            JobEvent::Failed(err) => return Err(err.into()),
        }
    }
    let report = report.ok_or("sweep ended without an answer")?;
    Ok((report, map))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== Offline optimization: risk vs cost of ownership (§3.3) ===\n");
    for threshold in [0.01, 0.05] {
        let (report, _) = run_threshold(threshold, true)?;
        println!("overload risk threshold {:.0}%:", threshold * 100.0);
        match &report.best {
            Some(best) => println!(
                "  latest safe purchases: purchase1=week {}, purchase2=week {} (feature week {}), \
                 max E[overload] = {:.4}",
                best.point.get("purchase1").unwrap(),
                best.point.get("purchase2").unwrap(),
                best.point.get("feature").unwrap(),
                best.constraint_values[0],
            ),
            None => println!("  no feasible plan"),
        }
        println!(
            "  {} groups, {} feasible, wall {:?}",
            report.groups_total,
            report.feasible().count(),
            report.wall
        );
        println!("  engine: {}\n", report.metrics);
    }

    println!("=== Figure 4: fingerprint mappings across (purchase1, purchase2) ===\n");
    let (report, map) = run_threshold(0.05, true)?;
    println!("{}", map.render_ascii());
    let (computed, mapped, cached, pending) = map.tally();
    println!(
        "cells: {computed} computed, {mapped} mapped, {cached} cached, {pending} pending \
         (reuse fraction {:.0}%)\n",
        map.reuse_fraction() * 100.0
    );

    println!("=== Fingerprints on vs off ===\n");
    let (without, _) = run_threshold(0.05, false)?;
    let with_m = &report.metrics;
    let without_m = &without.metrics;
    println!(
        "with fingerprints:    {} worlds simulated, {} probe evaluations, wall {:?}",
        with_m.worlds_simulated, with_m.probe_evaluations, report.wall
    );
    println!(
        "without fingerprints: {} worlds simulated, {} probe evaluations, wall {:?}",
        without_m.worlds_simulated, without_m.probe_evaluations, without.wall
    );
    let saved = 1.0 - (with_m.worlds_simulated as f64 / without_m.worlds_simulated.max(1) as f64);
    println!(
        "Monte Carlo worlds avoided by fingerprinting: {:.0}%",
        saved * 100.0
    );
    Ok(())
}
