//! Seeded inputs: every scenario, configuration, adjustment sequence and
//! spot-check selection the workloads use is a pure function of `--seed`.
//! The program under test receives only what is generated here.

use fuzzy_prophet::scenario::FIGURE2_SQL;
use fuzzy_prophet::{EngineConfig, Prophet, Scenario, TraceConfig};
use prophet_mc::ParamPoint;
use prophet_models::scenarios::{
    figure2_coarse_sql, INVENTORY_POLICY, PRICING_WHATIF, SUPPORT_STAFFING,
};
use prophet_sql::Script;

/// The harness's own generator (splitmix64): input generation must not
/// change when the program's generators do.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Worker-pool size: the hardware's parallelism, capped at 4.
pub fn pool_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

/// What one invocation runs at: the seed, the run length, and whether this
/// is the miniature `--selftest` (coarse grid, 16 worlds).
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    pub seconds: f64,
    pub selftest: bool,
}

impl Plan {
    /// The only engine configuration the harness ever builds: defaults
    /// (400 worlds, fingerprint length 32, columnar, indexed, capacity
    /// 8,192) with the pool size and a root seed derived from `--seed`.
    pub fn config(&self) -> EngineConfig {
        let base = EngineConfig {
            threads: pool_threads(),
            root_seed: SplitMix::new(self.seed ^ 0xF1_2E_9A_77).next_u64(),
            ..EngineConfig::default()
        };
        if self.selftest {
            EngineConfig {
                worlds_per_point: 16,
                ..base
            }
        } else {
            base
        }
    }

    /// How many repetitions of a unit of work costing `nominal_s` seconds
    /// (at the commit that defined the benchmark) fit the run length. The
    /// count depends on `--seconds` alone, never on how fast this build
    /// is, so every commit is measured on identical work.
    pub fn reps(&self, nominal_s: f64, at_least: usize) -> usize {
        if self.selftest {
            return 1;
        }
        ((FILL * self.seconds / nominal_s) as usize).max(at_least)
    }

    /// The paper's Figure 2 (the coarse grid in `--selftest`).
    pub fn figure2(&self) -> Scenario {
        if self.selftest {
            figure2_coarse()
        } else {
            Scenario::parse(FIGURE2_SQL).expect("Figure 2 parses")
        }
    }

    /// A per-process scratch file under the build directory (inside the
    /// checkout, ignored by git).
    pub fn scratch_file(&self, name: &str) -> std::path::PathBuf {
        let base = std::env::var_os("CARGO_TARGET_DIR")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| std::path::PathBuf::from("target"));
        let dir = base.join("perf-scratch");
        std::fs::create_dir_all(&dir).expect("scratch directory is creatable");
        dir.join(format!("{}-{name}", std::process::id()))
    }
}

/// Share of `--seconds` the sized loops aim to fill; the rest is head-room
/// for set-up, verification and slower hosts.
const FILL: f64 = 0.8;

/// The reduced-grid Figure 2 (3,969 points) at the bundled 5 % threshold.
pub fn figure2_coarse() -> Scenario {
    Scenario::parse(&figure2_coarse_sql(0.05)).expect("coarse Figure 2 parses")
}

/// The three low-reuse scenarios, in the order a rep sweeps them.
pub const LOWREUSE: [(&str, &str); 3] = [
    ("inventory", INVENTORY_POLICY),
    ("staffing", SUPPORT_STAFFING),
    ("pricing", PRICING_WHATIF),
];

/// Every bundled script, for the parse probe.
pub fn bundled_sources() -> Vec<String> {
    let mut out = vec![FIGURE2_SQL.to_owned(), figure2_coarse_sql(0.05)];
    out.extend(LOWREUSE.iter().map(|(_, sql)| (*sql).to_owned()));
    out
}

/// A fresh service over `scenarios` and the full bundled catalog.
pub fn service(
    scenarios: &[(&str, &Scenario)],
    config: EngineConfig,
    trace: TraceConfig,
) -> Prophet {
    let mut builder = Prophet::builder()
        .registry(prophet_models::full_registry())
        .config(config)
        .trace(trace);
    for (name, scenario) in scenarios {
        builder = builder.scenario(*name, (*scenario).clone());
    }
    builder.build().expect("service construction")
}

/// The sweep's batches: one per OPTIMIZE group, each the full axis grid,
/// in row-major declaration order (first declared parameter outermost).
pub fn sweep_groups(script: &Script) -> Vec<Vec<ParamPoint>> {
    let spec = script
        .optimize
        .as_ref()
        .expect("bundled scenarios carry an OPTIMIZE directive");
    let domains = |grouped: bool| -> Vec<(String, Vec<i64>)> {
        script
            .params
            .iter()
            .filter(|p| spec.select_params.contains(&p.name) == grouped)
            .map(|p| (p.name.clone(), p.domain.values()))
            .collect()
    };
    let axis = grid(&domains(false));
    grid(&domains(true))
        .into_iter()
        .map(|group| {
            axis.iter()
                .map(|a| {
                    let mut full = group.clone();
                    for (name, value) in a.iter() {
                        full.set(name.to_owned(), value);
                    }
                    full
                })
                .collect()
        })
        .collect()
}

fn grid(domains: &[(String, Vec<i64>)]) -> Vec<ParamPoint> {
    let mut out = vec![ParamPoint::new()];
    for (name, values) in domains {
        out = out
            .iter()
            .flat_map(|p| values.iter().map(|&v| p.with(name.clone(), v)))
            .collect();
    }
    out
}

/// One slider move: the parameter and its new value.
pub type Adjustment = (String, i64);

/// The analyst's slider sequence: `n` single-parameter moves, each a drag
/// of one to three grid steps on a uniformly chosen slider, reflected at
/// the domain's ends — the one-parameter-at-a-time pattern of a
/// sensitivity analysis. Starts from the session's initial sliders (every
/// domain's first value).
pub fn adjustments(script: &Script, seed: u64, n: usize) -> Vec<Adjustment> {
    let axis = &script
        .graph
        .as_ref()
        .expect("online workloads need a GRAPH directive")
        .x_param;
    let sliders: Vec<(String, Vec<i64>)> = script
        .params
        .iter()
        .filter(|p| &p.name != axis)
        .map(|p| (p.name.clone(), p.domain.values()))
        .collect();
    let mut at = vec![0usize; sliders.len()];
    let mut rng = SplitMix::new(seed ^ 0xAD_1057);
    (0..n)
        .map(|_| {
            let s = rng.below(sliders.len());
            let len = sliders[s].1.len() as i64;
            let step = 1 + rng.below(3) as i64;
            let signed = if rng.below(2) == 0 { step } else { -step };
            at[s] = reflect(at[s] as i64 + signed, len, at[s] as i64) as usize;
            (sliders[s].0.clone(), sliders[s].1[at[s]])
        })
        .collect()
}

/// Reflect `idx` into `0..len`; a move that would land back on `from`
/// (possible only in tiny domains) steps to a neighbour instead.
fn reflect(idx: i64, len: i64, from: i64) -> i64 {
    let period = 2 * (len - 1);
    let m = idx.rem_euclid(period);
    let folded = if m < len { m } else { period - m };
    if folded != from {
        folded
    } else if from + 1 < len {
        from + 1
    } else {
        from - 1
    }
}

/// The final slider state after applying `moves` to the initial sliders.
pub fn final_sliders(script: &Script, moves: &[Adjustment]) -> ParamPoint {
    let axis = &script
        .graph
        .as_ref()
        .expect("online workloads need a GRAPH directive")
        .x_param;
    let mut sliders = ParamPoint::new();
    for p in script.params.iter().filter(|p| &p.name != axis) {
        sliders.set(p.name.clone(), p.domain.values()[0]);
    }
    for (name, value) in moves {
        sliders.set(name.clone(), *value);
    }
    sliders
}

/// The graph-axis batch for one slider state, in axis order.
pub fn graph_points(script: &Script, sliders: &ParamPoint) -> Vec<ParamPoint> {
    let axis = script
        .graph
        .as_ref()
        .expect("online workloads need a GRAPH directive")
        .x_param
        .clone();
    script
        .param(&axis)
        .expect("the graph axis is a declared parameter")
        .domain
        .values()
        .into_iter()
        .map(|x| sliders.with(axis.clone(), x))
        .collect()
}

/// The graph batches of the first `n + 1` slider states of the seeded
/// adjustment sequence (state 0 is a session's initial sliders).
pub fn slider_states(script: &Script, seed: u64, n: usize) -> Vec<Vec<ParamPoint>> {
    let moves = adjustments(script, seed, n);
    (0..=n)
        .map(|k| graph_points(script, &final_sliders(script, &moves[..k])))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_a_pure_function_of_the_seed() {
        let a: Vec<u64> = {
            let mut r = SplitMix::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a[0], SplitMix::new(8).next_u64());
    }

    #[test]
    fn figure2_sweeps_588_groups_of_53_weeks() {
        let scenario = Scenario::parse(FIGURE2_SQL).unwrap();
        let groups = sweep_groups(scenario.script());
        assert_eq!(groups.len(), 588);
        assert!(groups.iter().all(|g| g.len() == 53));
        let first = &groups[0][0];
        assert_eq!(first.get("current"), Some(0));
        assert_eq!(first.get("purchase1"), Some(0));
        let all: std::collections::HashSet<_> = groups.iter().flatten().collect();
        assert_eq!(all.len(), 31_164);
    }

    #[test]
    fn lowreuse_scenarios_cover_678_points() {
        let total: usize = LOWREUSE
            .iter()
            .map(|(_, sql)| {
                let s = Scenario::parse(sql).unwrap();
                sweep_groups(s.script()).iter().map(Vec::len).sum::<usize>()
            })
            .sum();
        assert_eq!(total, 678);
    }

    #[test]
    fn adjustments_move_one_slider_within_its_domain() {
        let scenario = Scenario::parse(FIGURE2_SQL).unwrap();
        let script = scenario.script();
        let moves = adjustments(script, 3, 500);
        assert_eq!(moves, adjustments(script, 3, 500));
        assert_ne!(moves, adjustments(script, 4, 500));
        let mut state = final_sliders(script, &[]);
        for (name, value) in &moves {
            assert_ne!(name, "current");
            assert!(script.param(name).unwrap().domain.contains(*value));
            assert_ne!(state.get(name), Some(*value), "every move changes a slider");
            state.set(name.clone(), *value);
        }
        assert_eq!(state, final_sliders(script, &moves));
        assert_eq!(graph_points(script, &state).len(), 53);
    }

    #[test]
    fn reflection_stays_in_range_and_always_moves() {
        for len in 2..6 {
            for from in 0..len {
                for delta in -3..=3 {
                    if delta == 0 {
                        continue;
                    }
                    let to = reflect(from + delta, len, from);
                    assert!((0..len).contains(&to), "{from}+{delta} in {len} -> {to}");
                    assert_ne!(to, from);
                }
            }
        }
    }

    #[test]
    fn rep_counts_depend_on_seconds_alone() {
        let plan = Plan {
            seed: 1,
            seconds: 16.0,
            selftest: false,
        };
        assert_eq!(plan.reps(6.5, 3), 3);
        assert_eq!(plan.reps(0.6, 3), 21);
        let mini = Plan {
            selftest: true,
            ..plan
        };
        assert_eq!(mini.reps(0.6, 3), 1);
        assert_eq!(mini.config().worlds_per_point, 16);
        assert_eq!(plan.config().worlds_per_point, 400);
    }
}
