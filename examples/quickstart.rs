//! Quickstart: stand up a `Prophet` service on the paper's Figure-2
//! scenario, run it in both modes, and show a second session starting warm
//! off the first session's shared basis store.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use fuzzy_prophet::prelude::*;
use fuzzy_prophet::render::ascii_chart;
use prophet_models::demo_registry;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The scenario, exactly as printed in the paper, registered with a
    //    long-lived service.
    let scenario = Scenario::figure2()?;
    println!("=== Scenario (paper Figure 2) ===");
    println!("{}", scenario.source().trim());
    println!(
        "\nparameter space: {} points ({} parameters)\n",
        scenario.parameter_space_size(),
        scenario.script().params.len()
    );

    let prophet = Prophet::builder()
        .scenario("figure2", scenario.clone())
        .registry(demo_registry())
        .config(EngineConfig {
            worlds_per_point: 300,
            ..EngineConfig::default()
        })
        .build()?;

    // 2. Online mode: set the sliders the demo uses and render the graph.
    let mut session = prophet.online("figure2")?;
    session.set_param("purchase1", 16)?;
    session.set_param("purchase2", 36)?;
    session.set_param("feature", 12)?;
    let report = session.refresh()?;
    println!("=== Online mode (Figure 3) ===");
    println!(
        "refresh: {} weeks ({} simulated, {} mapped, {} cached) in {:?}",
        report.weeks_total,
        report.weeks_simulated,
        report.weeks_mapped,
        report.weeks_cached,
        report.wall
    );
    let series: Vec<_> = session.graph().iter().collect();
    println!("{}", ascii_chart(&series, 100, 18));

    // A second adjustment re-renders only part of the graph (§3.2).
    let adjust = session.set_param("purchase2", 44)?;
    println!(
        "slider moved (@purchase2 36 → 44): re-rendered {:.0}% of the graph ({} of {} weeks)",
        adjust.rerender_fraction() * 100.0,
        adjust.weeks_simulated,
        adjust.weeks_total
    );

    // A *second session* shares the scenario's basis store: its first
    // render re-uses everything the first session computed.
    let mut second = prophet.online("figure2")?;
    second.set_param("purchase1", 16)?;
    second.set_param("purchase2", 44)?;
    second.set_param("feature", 12)?;
    let warm = second.refresh()?;
    println!(
        "second session's first render: {} simulated / {} reused of {} weeks \
         (shared store holds {} entries)\n",
        warm.weeks_simulated,
        warm.weeks_reused(),
        warm.weeks_total,
        prophet.basis_len("figure2")?
    );

    // 3. Offline mode: run the OPTIMIZE directive. The full Figure-2 grid
    // has 31 164 points — fine for a batch job, long for a quickstart — so
    // this demo coarsens the sweep (weeks step 2, purchases step 8) while
    // keeping the scenario and its answer structure identical. Run
    // `prophet --demo --mode offline` for the full-fidelity sweep.
    println!("=== Offline mode (OPTIMIZE, coarsened grid) ===");
    let coarse_src = scenario
        .source()
        .replace("RANGE 0 TO 52 STEP BY 1", "RANGE 0 TO 52 STEP BY 2")
        .replace("RANGE 0 TO 52 STEP BY 4", "RANGE 0 TO 52 STEP BY 8")
        .replace("< 0.01", "< 0.05");
    let batch = Prophet::builder()
        .scenario_sql("figure2-coarse", &coarse_src)?
        .registry(demo_registry())
        .worlds_per_point(120)
        .build()?;
    let result = batch
        .submit(JobSpec::sweep("figure2-coarse"))?
        .wait()?
        .into_sweep()?;
    println!(
        "swept {} groups in {:?} — engine: {}",
        result.groups_total, result.wall, result.metrics
    );
    match &result.best {
        Some(best) => {
            println!(
                "latest safe purchase plan: purchase1=week {}, purchase2=week {}, feature=week {} \
                 (max overload risk {:.3})",
                best.point.get("purchase1").unwrap_or(-1),
                best.point.get("purchase2").unwrap_or(-1),
                best.point.get("feature").unwrap_or(-1),
                best.constraint_values[0]
            );
        }
        None => println!("no feasible plan under the 5% overload constraint"),
    }
    Ok(())
}
