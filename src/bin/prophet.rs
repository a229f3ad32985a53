//! `prophet` — command-line front end for the Fuzzy Prophet engine.
//!
//! ```text
//! prophet <scenario.sql> [options]
//!
//! options:
//!   --mode online|offline|both   which interface to run (default: both,
//!                                gated on which directives the script has)
//!   --worlds N                   Monte Carlo worlds per point (default 300)
//!   --set name=value             set a slider before rendering (repeatable)
//!   --no-fingerprints            disable fingerprint reuse (baseline mode)
//!   --csv                        emit series/answers as CSV instead of text
//!   --map p1,p2                  render the Figure-4 exploration map over
//!                                two parameters after an offline run
//!   --demo                       run the built-in Figure-2 scenario
//!   --trace-out PATH             write the run's flight-recorder events as
//!                                a chrome://tracing / Perfetto JSON file
//! ```
//!
//! The bundled models (`DemandModel`, `CapacityModel`, `RevenueModel`,
//! `InventoryModel`, `QueueModel`) are pre-registered; scenarios reference
//! them by name.

use std::process::ExitCode;

use fuzzy_prophet::prelude::*;
use fuzzy_prophet::render::{ascii_chart, series_csv};
use fuzzy_prophet::scenario::FIGURE2_SQL;
use prophet_models::full_registry;

struct Options {
    scenario_path: Option<String>,
    demo: bool,
    mode: Mode,
    worlds: usize,
    sets: Vec<(String, i64)>,
    fingerprints: bool,
    csv: bool,
    map: Option<(String, String)>,
    trace_out: Option<String>,
}

#[derive(PartialEq, Clone, Copy)]
enum Mode {
    Online,
    Offline,
    Both,
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("prophet: {msg}");
            ExitCode::from(2)
        }
    }
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        scenario_path: None,
        demo: false,
        mode: Mode::Both,
        worlds: 300,
        sets: Vec::new(),
        fingerprints: true,
        csv: false,
        map: None,
        trace_out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--mode" => {
                opts.mode = match args.next().as_deref() {
                    Some("online") => Mode::Online,
                    Some("offline") => Mode::Offline,
                    Some("both") => Mode::Both,
                    other => {
                        return Err(format!("--mode needs online|offline|both, got {other:?}"))
                    }
                };
            }
            "--worlds" => {
                opts.worlds = args
                    .next()
                    .and_then(|w| w.parse().ok())
                    .filter(|&w| w > 0)
                    .ok_or("--worlds needs a positive integer")?;
            }
            "--set" => {
                let spec = args.next().ok_or("--set needs name=value")?;
                let (name, value) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--set `{spec}` is not name=value"))?;
                let value: i64 = value
                    .parse()
                    .map_err(|_| format!("--set `{spec}`: bad integer"))?;
                opts.sets
                    .push((name.trim_start_matches('@').to_owned(), value));
            }
            "--no-fingerprints" => opts.fingerprints = false,
            "--csv" => opts.csv = true,
            "--map" => {
                let spec = args.next().ok_or("--map needs p1,p2")?;
                let (a, b) = spec
                    .split_once(',')
                    .ok_or_else(|| format!("--map `{spec}` is not p1,p2"))?;
                opts.map = Some((a.trim().to_owned(), b.trim().to_owned()));
            }
            "--demo" => opts.demo = true,
            "--trace-out" => {
                opts.trace_out = Some(args.next().ok_or("--trace-out needs a path")?);
            }
            "--help" | "-h" => {
                println!("usage: prophet <scenario.sql> [--demo] [--mode online|offline|both]");
                println!("               [--worlds N] [--set name=value]... [--no-fingerprints]");
                println!("               [--csv] [--map p1,p2] [--trace-out PATH]");
                std::process::exit(0);
            }
            path if !path.starts_with('-') => opts.scenario_path = Some(path.to_owned()),
            other => return Err(format!("unknown option `{other}` (try --help)")),
        }
    }
    Ok(opts)
}

fn run() -> Result<(), String> {
    let opts = parse_args()?;

    let source = if opts.demo {
        FIGURE2_SQL.to_owned()
    } else {
        let path = opts
            .scenario_path
            .as_ref()
            .ok_or("no scenario file given (or pass --demo); see --help")?;
        std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?
    };
    let scenario = Scenario::parse(&source).map_err(|e| e.to_string())?;
    let config = EngineConfig {
        worlds_per_point: opts.worlds,
        fingerprints_enabled: opts.fingerprints,
        ..EngineConfig::default()
    };

    let has_graph = scenario.script().graph.is_some();
    let has_optimize = scenario.script().optimize.is_some();

    // One service instance for both modes: the online render and the
    // offline sweep share the scenario's basis store, so whichever runs
    // second reuses the first one's simulations.
    let prophet = Prophet::builder()
        .scenario(SCENARIO, scenario)
        .registry(full_registry())
        .config(config)
        .build()
        .map_err(|e| e.to_string())?;

    if opts.mode != Mode::Offline {
        if has_graph {
            run_online(&prophet, &opts)?;
        } else if opts.mode == Mode::Online {
            return Err("scenario has no GRAPH OVER directive; online mode unavailable".into());
        }
    }
    if opts.mode != Mode::Online {
        if has_optimize {
            run_offline(&prophet, &opts)?;
        } else if opts.mode == Mode::Offline {
            return Err("scenario has no OPTIMIZE directive; offline mode unavailable".into());
        }
    }
    if !opts.csv {
        let store = prophet.basis_stats(SCENARIO).map_err(|e| e.to_string())?;
        let engine = prophet.engine(SCENARIO).map_err(|e| e.to_string())?;
        let bodies = engine.basis_store().recipe_bodies();
        println!("store:\n{store}\n{:<20}{bodies:>14}", "recipe_bodies");
    }
    if let Some(path) = &opts.trace_out {
        // Job drivers stamp their last events just after the answer returns.
        prophet.scheduler().wait_idle();
        let events = prophet.trace_events();
        std::fs::write(path, chrome_trace_json(&events))
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        eprintln!(
            "trace: {} events written to {path} ({} older ones overwritten); \
             load at chrome://tracing or ui.perfetto.dev",
            events.len(),
            prophet.telemetry().trace.events_dropped
        );
    }
    Ok(())
}

/// The service-local name the CLI registers its single scenario under.
const SCENARIO: &str = "scenario";

fn run_online(prophet: &Prophet, opts: &Options) -> Result<(), String> {
    let mut session = prophet.online(SCENARIO).map_err(|e| e.to_string())?;
    for (name, value) in &opts.sets {
        session.set_param(name, *value).map_err(|e| e.to_string())?;
    }
    let report = session.refresh().map_err(|e| e.to_string())?;

    if opts.csv {
        let series: Vec<_> = session.graph().iter().collect();
        print!("{}", series_csv(&series));
        return Ok(());
    }
    println!("== online: {} ==", describe_sliders(&session));
    println!(
        "render: {} weeks ({} simulated / {} mapped / {} cached) in {:?}",
        report.weeks_total,
        report.weeks_simulated,
        report.weeks_mapped,
        report.weeks_cached,
        report.wall
    );
    let series: Vec<_> = session.graph().iter().collect();
    println!("{}", ascii_chart(&series, 100, 18));
    println!("engine: {}", session.metrics());
    Ok(())
}

fn describe_sliders(session: &OnlineSession) -> String {
    session
        .sliders()
        .iter()
        .map(|(n, v)| format!("@{n}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn run_offline(prophet: &Prophet, opts: &Options) -> Result<(), String> {
    let scenario = prophet.scenario(SCENARIO).map_err(|e| e.to_string())?;

    let mut map = match &opts.map {
        Some((a, b)) => {
            let pa = scenario
                .script()
                .param(a)
                .ok_or_else(|| format!("--map: unknown parameter @{a}"))?
                .clone();
            let pb = scenario
                .script()
                .param(b)
                .ok_or_else(|| format!("--map: unknown parameter @{b}"))?
                .clone();
            Some(ExplorationMap::new(&pa, &pb))
        }
        None => None,
    };

    // The sweep runs as a job on the service's pool (so `--trace-out` sees
    // its chunks and phases); its chunk stream feeds the exploration map.
    let handle = prophet
        .submit(JobSpec::sweep(SCENARIO))
        .map_err(|e| e.to_string())?;
    let mut report = None;
    for event in handle.events() {
        match event {
            JobEvent::Chunk(update) => {
                if let Some(m) = map.as_mut() {
                    for (point, outcome) in &update.results {
                        m.record(point, outcome);
                    }
                }
            }
            JobEvent::Final(output) => {
                report = Some(output.into_sweep().map_err(|e| e.to_string())?)
            }
            JobEvent::Cancelled => return Err("sweep cancelled".into()),
            JobEvent::Failed(err) => return Err(err.to_string()),
        }
    }
    let report = report.ok_or("sweep ended without an answer")?;

    if opts.csv {
        println!(
            "rank,feasible,{},{}",
            join_params(&report),
            join_constraints(&report)
        );
        for (i, a) in report.answers.iter().enumerate() {
            let params: Vec<String> = a.point.iter().map(|(_, v)| v.to_string()).collect();
            let constraints: Vec<String> =
                a.constraint_values.iter().map(|v| v.to_string()).collect();
            println!(
                "{},{},{},{}",
                i + 1,
                a.feasible,
                params.join(","),
                constraints.join(",")
            );
        }
        return Ok(());
    }

    println!(
        "== offline: {} groups ({} feasible) in {:?} ==",
        report.groups_total,
        report.feasible().count(),
        report.wall
    );
    match &report.best {
        Some(best) => {
            let desc: Vec<String> = best
                .point
                .iter()
                .map(|(n, v)| format!("@{n}={v}"))
                .collect();
            println!(
                "best: {} (constraints: {:?})",
                desc.join(" "),
                best.constraint_values
            );
        }
        None => println!("best: none — no feasible group"),
    }
    println!("engine: {}", report.metrics);
    if let Some(m) = map {
        println!("\n{}", m.render_ascii());
    }
    Ok(())
}

fn join_params(report: &OfflineReport) -> String {
    report
        .answers
        .first()
        .map(|a| {
            a.point
                .iter()
                .map(|(n, _)| n.to_owned())
                .collect::<Vec<_>>()
                .join(",")
        })
        .unwrap_or_default()
}

fn join_constraints(report: &OfflineReport) -> String {
    report
        .answers
        .first()
        .map(|a| {
            (0..a.constraint_values.len())
                .map(|i| format!("constraint{}", i + 1))
                .collect::<Vec<_>>()
                .join(",")
        })
        .unwrap_or_default()
}
