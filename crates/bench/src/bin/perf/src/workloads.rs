//! The five workloads. Each is one closed loop on one client thread: the
//! analyst (or the sweep's submitter) waits for every reply before sending
//! the next request. See `README.md` for why each exists and which layers
//! it is expected to load.
//!
//! Every workload reports the contract's end-to-end metrics (`setup_s`,
//! `points_per_s`, `reply_p50_ms`, `reply_tail_ms`; `peak_rss_mb` is added
//! by `main`), its operation-specific timings under the issue's names, and
//! the exact work counters read from the outside (`count.*`, `phase.*`).
//! With `traced` set, repetitions alternate between a service built with
//! the default flight recorder and one built with it off; end-to-end
//! numbers always come from the untraced half.

use std::time::Instant;

use fuzzy_prophet::{
    Engine, EngineMetrics, EvalOutcome, JobSpec, OfflineReport, OnlineSession, Priority, Prophet,
    Scenario, TelemetrySnapshot, TraceConfig,
};
use prophet_mc::{simulate_point_columnar, ParamPoint, SampleSet, Series, StoreStatsSnapshot};
use prophet_vg::SeedManager;

use crate::inputs::{self, Adjustment, Plan};
use crate::stats::{tail_percentile, Report};

/// The workload names, in the order `README.md` describes them.
pub const WORKLOADS: [&str; 5] = [
    "sweep_figure2",
    "sweep_lowreuse",
    "online_adjust",
    "restored_serve",
    "interactive_under_sweep",
];

/// Seconds one unit of each workload cost at the commit that defined the
/// benchmark (2 cores); `Plan::reps` sizes the loops from these.
const FIGURE2_SWEEP_S: f64 = 6.5;
const LOWREUSE_REP_S: f64 = 0.6;
const ADJUST_S: f64 = 0.008;
const RESTORED_REP_S: f64 = 0.15;

/// Adjustments one contended sweep lasted for at that commit. The workload
/// is one sweep whatever `--seconds` says, so the percentile its tail is
/// read at is fixed by this and not by the run length.
const ADJUSTS_UNDER_SWEEP: usize = 900;

/// Fresh services whose cold first render `online_adjust` times, and the
/// blocks its adjustment sequence is cut into so they interleave.
const FIRST_RENDERS: usize = 20;

/// Snapshot writes `restored_serve` times.
const SNAPSHOT_SAVES: usize = 10;

/// Mapped (and simulated) points each sweep scenario's spot check compares
/// against direct simulation.
const SPOT_MAPPED: u64 = 64;
const SPOT_SIMULATED: usize = 8;

pub fn run(name: &str, plan: &Plan, traced: bool, report: &mut Report) {
    match name {
        "sweep_figure2" => {
            let source = plan.figure2().source().to_owned();
            sweep_workload(
                plan,
                traced,
                report,
                &[("figure2", &source)],
                FIGURE2_SWEEP_S,
                25,
            );
        }
        "sweep_lowreuse" => {
            sweep_workload(plan, traced, report, &inputs::LOWREUSE, LOWREUSE_REP_S, 501)
        }
        "online_adjust" => online_adjust(plan, traced, report),
        "restored_serve" => restored_serve(plan, traced, report),
        "interactive_under_sweep" => interactive_under_sweep(plan, traced, report),
        other => panic!("unknown workload `{other}`"),
    }
}

// ------------------------------------------------------------- shared parts

/// Run `f` once: its result and how long it took, in seconds.
fn timed<T>(f: &mut impl FnMut() -> T) -> (T, f64) {
    let t = Instant::now();
    let value = f();
    (value, t.elapsed().as_secs_f64())
}

/// Report `setup_s`. `first_s` is the real set-up, timed before the first
/// timed operation; `set_up` then runs `times - 1` more times here, after
/// the last one, so that everything measured in between saw a process set
/// up once, as a user's is. One cold set-up is what that user pays; the
/// driver's contract asks for the median of several so that the number is
/// steady enough to gate.
fn report_setup<T>(report: &mut Report, first_s: f64, times: usize, mut set_up: impl FnMut() -> T) {
    let mut samples = vec![first_s];
    samples.extend((1..times).map(|_| timed(&mut set_up).1));
    report.timing("setup_s", "s", &samples);
}

/// The work counters that must repeat exactly between repetitions of a
/// single-job workload, read from the outside.
const EXACT: [&str; 13] = [
    "points_total",
    "points_simulated",
    "points_mapped",
    "points_cached",
    "worlds_simulated",
    "vector_walks",
    "column_fallbacks",
    "candidates_scanned",
    "candidates_pruned",
    "evictions",
    "store_hits",
    "store_misses",
    "inflight_waits",
];

/// Counters and phase clocks of one repetition, summed over its jobs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Work {
    exact: [u64; 13],
    probe_eval_nanos: u64,
    match_scan_nanos: u64,
    probe_nanos: u64,
    sim_nanos: u64,
}

impl Work {
    fn add(&mut self, m: &EngineMetrics, store: &StoreStatsSnapshot) {
        let add = [
            m.points_cached + m.points_mapped + m.points_simulated,
            m.points_simulated,
            m.points_mapped,
            m.points_cached,
            m.worlds_simulated,
            m.vector_walks,
            m.column_fallbacks,
            m.candidates_scanned,
            m.candidates_pruned,
            store.evictions,
            store.hits,
            store.misses,
            m.inflight_waits,
        ];
        for (slot, x) in self.exact.iter_mut().zip(add) {
            *slot += x;
        }
        self.probe_eval_nanos += m.probe_eval_nanos;
        self.match_scan_nanos += m.match_scan_nanos;
        self.probe_nanos += m.probe_nanos;
        self.sim_nanos += m.sim_nanos;
    }

    fn points_total(&self) -> u64 {
        self.exact[0]
    }

    fn points_simulated(&self) -> u64 {
        self.exact[1]
    }

    fn column_fallbacks(&self) -> u64 {
        self.exact[6]
    }
}

/// Report `count.*`, `phase.*` and `simulated_fraction` from per-repetition
/// work records and their walls.
fn report_work(report: &mut Report, reps: &[(Work, f64)]) {
    let last = &reps.last().expect("at least one repetition").0;
    for (name, value) in EXACT.iter().zip(last.exact) {
        report.scalar(&format!("count.{name}"), "count", value as f64);
    }
    report.scalar(
        "simulated_fraction",
        "ratio",
        last.points_simulated() as f64 / last.points_total().max(1) as f64,
    );
    report.check(last.column_fallbacks() == 0, || {
        format!(
            "column_fallbacks must be 0, got {}",
            last.column_fallbacks()
        )
    });
    let secs =
        |f: fn(&Work) -> u64| -> Vec<f64> { reps.iter().map(|(w, _)| f(w) as f64 / 1e9).collect() };
    report.timing("phase.probe_eval_cpu_s", "s", &secs(|w| w.probe_eval_nanos));
    report.timing("phase.match_scan_s", "s", &secs(|w| w.match_scan_nanos));
    report.timing("phase.probe_wall_s", "s", &secs(|w| w.probe_nanos));
    report.timing("phase.sim_wall_s", "s", &secs(|w| w.sim_nanos));
    let unattributed: Vec<f64> = reps
        .iter()
        .map(|(w, wall)| wall - (w.probe_nanos + w.sim_nanos) as f64 / 1e9)
        .collect();
    report.timing("phase.unattributed_s", "s", &unattributed);
}

/// Single-job workloads: every repetition must have done exactly the same
/// work.
fn check_work_repeats(report: &mut Report, reps: &[(Work, f64)]) {
    let first = reps[0].0.exact;
    for (i, (work, _)) in reps.iter().enumerate().skip(1) {
        report.check(work.exact == first, || {
            format!(
                "repetition {i} counters {:?} differ from repetition 0 {first:?}",
                work.exact
            )
        });
    }
}

/// The traced half of a traced run: overhead against the untraced half,
/// and the flight recorder's own view of the pool.
fn report_trace(
    report: &mut Report,
    traced: &[f64],
    untraced: &[f64],
    telemetry: &TelemetrySnapshot,
) {
    let med = |xs: &[f64]| crate::stats::summarize(xs).median;
    report.scalar(
        "trace.overhead_ratio",
        "ratio",
        med(traced) / med(untraced).max(f64::MIN_POSITIVE),
    );
    let t = &telemetry.trace;
    report.scalar("trace.events_dropped", "count", t.events_dropped as f64);
    report.scalar(
        "core.scheduler.queue_wait_p50_ns.high",
        "ns",
        t.queue_wait[0].p50() as f64,
    );
    report.scalar(
        "core.scheduler.chunk_service_p50_ns",
        "ns",
        t.chunk_service.p50() as f64,
    );
}

/// Which trace configuration repetition `i` of a run uses: always off in
/// a plain run; alternating, recorder first, in a traced one.
fn trace_for(traced: bool, i: usize) -> TraceConfig {
    if traced && i % 2 == 0 {
        TraceConfig::ring()
    } else {
        TraceConfig::Off
    }
}

/// A traced run needs at least one repetition of each kind.
fn paired(traced: bool) -> usize {
    if traced {
        2
    } else {
        1
    }
}

fn is_on(trace: TraceConfig) -> bool {
    trace != TraceConfig::Off
}

/// Closed-loop reply latencies: `reply_p50_ms` and `reply_tail_ms`, the
/// latter at the highest percentile the *planned* sample size supports —
/// planned, so that the percentile is fixed by `--seconds` and does not
/// flip when a faster build completes a few more replies.
fn report_replies(report: &mut Report, replies_ms: &[f64], planned: usize) {
    report.latency("reply_p50_ms", "ms", replies_ms, 50.0);
    report.latency("reply_tail_ms", "ms", replies_ms, tail_percentile(planned));
}

/// A sweep answer reduced to a number two repetitions can be compared by.
fn answer_digest(r: &OfflineReport) -> u64 {
    let mut text = format!(
        "{:?}|{}",
        r.best.as_ref().map(|b| b.point.to_string()),
        r.groups_total
    );
    for a in &r.answers {
        text.push_str(&format!("|{}:{}", a.point, a.feasible));
        for v in &a.constraint_values {
            text.push_str(&format!(":{:016x}", v.to_bits()));
        }
    }
    fnv1a(text.as_bytes())
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// One submitted sweep, waited for: `(report, submit→wait seconds)`.
fn timed_sweep(prophet: &Prophet, name: &str, priority: Priority) -> (OfflineReport, f64) {
    let t = Instant::now();
    let report = prophet
        .submit(JobSpec::sweep(name).with_priority(priority))
        .expect("sweep submits")
        .wait()
        .and_then(|out| out.into_sweep())
        .expect("sweep completes");
    (report, t.elapsed().as_secs_f64())
}

fn refs<'a>(scenarios: &'a [(&'a str, Scenario)]) -> Vec<(&'a str, &'a Scenario)> {
    scenarios.iter().map(|(n, s)| (*n, s)).collect()
}

// ------------------------------------------------------ sweep_figure2 / lowreuse

/// Cold sweeps of `scenarios` back to back on a fresh service per
/// repetition.
fn sweep_workload(
    plan: &Plan,
    traced: bool,
    report: &mut Report,
    sources: &[(&str, &str)],
    nominal_s: f64,
    setups: usize,
) {
    let config = plan.config();
    let mut set_up = || {
        let scenarios: Vec<(&str, Scenario)> = sources
            .iter()
            .map(|(n, sql)| (*n, Scenario::parse(sql).expect("bundled scenario parses")))
            .collect();
        let batches: Vec<Vec<Vec<ParamPoint>>> = scenarios
            .iter()
            .map(|(n, s)| spot_batches(plan, n, s))
            .collect();
        let prophet = inputs::service(&refs(&scenarios), config, trace_for(traced, 0));
        (scenarios, prophet, batches)
    };
    let ((scenarios, prophet, batches), setup_s) = timed(&mut set_up);
    let mut first = Some(prophet);

    let reps = plan.reps(nominal_s, 3).max(paired(traced));
    let mut untraced: Vec<(Work, f64)> = Vec::new();
    let mut traced_walls = Vec::new();
    let mut telemetry = None;
    let mut digests: Vec<u64> = Vec::new();
    for i in 0..reps {
        let trace = trace_for(traced, i);
        let prophet = first
            .take()
            .unwrap_or_else(|| inputs::service(&refs(&scenarios), config, trace));
        let mut work = Work::default();
        let mut wall = 0.0;
        let mut digest = 0u64;
        for (name, _) in &scenarios {
            let (sweep, secs) = timed_sweep(&prophet, name, Priority::Normal);
            wall += secs;
            digest = digest.rotate_left(17) ^ answer_digest(&sweep);
            let store = prophet.basis_stats(name).expect("scenario is registered");
            work.add(&sweep.metrics, &store);
        }
        digests.push(digest);
        if is_on(trace) {
            traced_walls.push(wall);
            telemetry = Some(prophet.telemetry());
            // The recorder must not change what was computed.
            if let Some((reference, _)) = untraced.first() {
                report.check(work.exact == reference.exact, || {
                    "traced and untraced repetitions did different work".to_owned()
                });
            }
        } else {
            untraced.push((work, wall));
        }
    }

    let rates: Vec<f64> = untraced
        .iter()
        .map(|(w, wall)| w.points_total() as f64 / wall)
        .collect();
    report.timing("points_per_s", "1/s", &rates);
    let replies: Vec<f64> = untraced.iter().map(|(_, wall)| wall * 1e3).collect();
    report_replies(report, &replies, reps);
    report_work(report, &untraced);
    check_work_repeats(report, &untraced);
    for (i, d) in digests.iter().enumerate().skip(1) {
        report.check(*d == digests[0], || {
            format!("repetition {i} reached a different sweep answer")
        });
    }
    if let Some(t) = &telemetry {
        let walls: Vec<f64> = untraced.iter().map(|(_, w)| *w).collect();
        report_trace(report, &traced_walls, &walls, t);
    }
    let mut accuracy = Accuracy::default();
    for ((name, scenario), batches) in scenarios.iter().zip(&batches) {
        accuracy.merge(spot_check(plan, name, scenario, batches, report));
    }
    accuracy.report(report);
    report_setup(report, setup_s, setups, set_up);
}

/// Agreement with ground truth, counted rather than asserted: mapped
/// results are approximations by design, and at the commit that defined
/// this benchmark a share of them already sits outside four standard
/// errors (see `README.md`), so the shares are reported as metrics and a
/// change in them is for the reviewer to judge.
#[derive(Debug, Clone, Copy, Default)]
struct Accuracy {
    compared: u64,
    bit_equal: u64,
    within_4se: u64,
}

impl Accuracy {
    fn record(&mut self, bit_equal: bool, within_4se: bool) {
        self.compared += 1;
        self.bit_equal += u64::from(bit_equal);
        self.within_4se += u64::from(bit_equal || within_4se);
    }

    fn merge(&mut self, other: Accuracy) {
        self.compared += other.compared;
        self.bit_equal += other.bit_equal;
        self.within_4se += other.within_4se;
    }

    fn report(&self, report: &mut Report) {
        let share = |x: u64| x as f64 / self.compared.max(1) as f64;
        report.scalar("accuracy.points_compared", "count", self.compared as f64);
        report.scalar("accuracy.bit_equal_share", "ratio", share(self.bit_equal));
        report.scalar("accuracy.within_4se_share", "ratio", share(self.within_4se));
    }
}

/// The sweep batches a scenario's spot check walks: its OPTIMIZE groups in
/// sweep order, rotated to start at a seeded group.
fn spot_batches(plan: &Plan, name: &str, scenario: &Scenario) -> Vec<Vec<ParamPoint>> {
    let mut groups = inputs::sweep_groups(scenario.script());
    let start = inputs::SplitMix::new(plan.seed ^ fnv1a(name.as_bytes())).below(groups.len());
    groups.rotate_left(start);
    groups.truncate(24);
    groups
}

/// Compare mapped points with ground truth. A twin service evaluates
/// `batches` in order as separate point jobs (so later batches map from
/// earlier ones); up to 64 `Mapped` results are compared with a direct
/// `simulate_point_columnar` of the same point and counted into the
/// returned [`Accuracy`]. A few `Simulated` results are compared too, and
/// those are checked: under common random numbers a simulated point must
/// be bit-equal to direct simulation.
fn spot_check(
    plan: &Plan,
    name: &str,
    scenario: &Scenario,
    batches: &[Vec<ParamPoint>],
    report: &mut Report,
) -> Accuracy {
    let config = plan.config();
    let twin = inputs::service(&[(name, scenario)], config, TraceConfig::Off);
    let registry = prophet_models::full_registry();
    let seeds = SeedManager::new(config.root_seed);
    let worlds: Vec<u64> = (0..config.worlds_per_point as u64).collect();
    let mut accuracy = Accuracy::default();
    let mut simulated = 0usize;
    for batch in batches {
        if accuracy.compared >= SPOT_MAPPED {
            break;
        }
        let results = twin
            .submit(JobSpec::points(name, batch.clone()))
            .expect("points job submits")
            .wait()
            .and_then(|out| out.into_points())
            .expect("points job completes");
        for (samples, outcome) in &results {
            let mapped = match outcome {
                EvalOutcome::Mapped { .. } if accuracy.compared < SPOT_MAPPED => true,
                EvalOutcome::Simulated if simulated < SPOT_SIMULATED => false,
                _ => continue,
            };
            let (direct, _) = simulate_point_columnar(
                &scenario.script().select,
                &registry,
                &seeds,
                samples.point(),
                &worlds,
                true,
            )
            .expect("direct simulation succeeds");
            let (bit_equal, within) = compare_samples(samples, &direct);
            if mapped {
                accuracy.record(bit_equal, within);
            } else {
                simulated += 1;
                report.check(bit_equal, || {
                    format!(
                        "{name} {}: simulated samples are not bit-equal to direct simulation",
                        samples.point()
                    )
                });
            }
        }
    }
    report.check(accuracy.compared > 0, || {
        format!("{name}: no mapped point to spot-check")
    });
    accuracy
}

/// `(bit-equal, every column's mean within four standard errors)`.
fn compare_samples(got: &SampleSet, direct: &SampleSet) -> (bool, bool) {
    let (mut bit_equal, mut within) = (true, true);
    for column in direct.columns() {
        let (Some(a), Some(b)) = (got.samples(column), direct.samples(column)) else {
            return (false, false);
        };
        if a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()) {
            continue;
        }
        bit_equal = false;
        let (Some(sa), Some(sb)) = (got.stats(column), direct.stats(column)) else {
            return (false, false);
        };
        let se = ((sa.std_dev.powi(2) + sb.std_dev.powi(2)) / b.len().max(1) as f64).sqrt();
        within &= (sa.mean - sb.mean).abs() <= 4.0 * se + 1e-9 * sb.mean.abs();
    }
    (bit_equal, within)
}

// ------------------------------------------------------------- online_adjust

/// One analyst session being driven through its slider sequence.
struct Analyst {
    prophet: Prophet,
    session: OnlineSession,
    adjust_ms: Vec<f64>,
}

impl Analyst {
    /// Open a session on a fresh service; returns it with the cold first
    /// render's wall in milliseconds.
    fn open(scenario: &Scenario, plan: &Plan, trace: TraceConfig) -> (Analyst, f64) {
        let prophet = inputs::service(&[("figure2", scenario)], plan.config(), trace);
        let mut session = prophet.online("figure2").expect("session opens");
        let t = Instant::now();
        session.refresh().expect("cold render completes");
        let first_ms = t.elapsed().as_secs_f64() * 1e3;
        (
            Analyst {
                prophet,
                session,
                adjust_ms: Vec::new(),
            },
            first_ms,
        )
    }

    fn adjust(&mut self, (name, value): &Adjustment) {
        let t = Instant::now();
        self.session
            .set_param(name, *value)
            .expect("generated adjustments are valid");
        self.adjust_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }

    fn work(&self) -> Work {
        let mut work = Work::default();
        work.add(
            &self.session.metrics(),
            &self
                .prophet
                .basis_stats("figure2")
                .expect("scenario is registered"),
        );
        work
    }

    /// The rendered `(x, y)` of every series, as bits.
    fn graph_bits(&self) -> Vec<(i64, u64)> {
        self.session
            .graph()
            .iter()
            .flat_map(|s| s.points.iter().map(|p| (p.x, p.y.to_bits())))
            .collect()
    }

    /// Check the rendered graph and measure it against ground truth.
    ///
    /// Checked: the session sits on `sliders`, every series covers the
    /// whole axis with finite values, and rendering the same sliders again
    /// is served entirely from the store and changes nothing. Measured:
    /// each series point against a fresh direct engine's for the same
    /// sliders (bit-equal / within four standard errors).
    fn verify_graph(
        &mut self,
        scenario: &Scenario,
        sliders: Option<&ParamPoint>,
        plan: &Plan,
        report: &mut Report,
    ) -> Accuracy {
        let script = scenario.script();
        let graph = script.graph.as_ref().expect("GRAPH directive");
        if let Some(expected) = sliders {
            report.check(self.session.sliders() == expected, || {
                "session ended on the wrong sliders".to_owned()
            });
        }
        let before = self.graph_bits();
        let again = self.session.refresh().expect("re-render completes");
        report.check(
            again.weeks_cached == again.weeks_total && self.graph_bits() == before,
            || format!("re-rendering the final sliders was not a pure cache read: {again:?}"),
        );

        let engine = Engine::new(scenario, prophet_models::full_registry(), plan.config())
            .expect("direct engine builds");
        let points = inputs::graph_points(script, self.session.sliders());
        let direct = engine
            .evaluate_batch(&points)
            .expect("direct evaluation succeeds");
        let mut accuracy = Accuracy::default();
        for (spec, rendered) in graph.series.iter().zip(self.session.graph()) {
            let mut expected = Series::new(spec);
            for (point, (samples, _)) in points.iter().zip(&direct) {
                let x = point
                    .get(&graph.x_param)
                    .expect("graph points carry the axis");
                expected.update_from(x, samples);
            }
            let shape_ok = rendered.points.len() == expected.points.len()
                && rendered
                    .points
                    .iter()
                    .zip(&expected.points)
                    .all(|(got, want)| got.x == want.x && got.y.is_finite());
            report.check(shape_ok, || {
                format!("series `{}` does not cover the graph axis", spec.column)
            });
            for ((got, want), (samples, _)) in
                rendered.points.iter().zip(&expected.points).zip(&direct)
            {
                let sd = samples.expect_std_dev(&spec.column).unwrap_or(0.0);
                let tolerance = 4.0 * sd / (samples.world_count().max(1) as f64).sqrt();
                accuracy.record(
                    got.y.to_bits() == want.y.to_bits(),
                    (got.y - want.y).abs() <= tolerance + 1e-9 * want.y.abs(),
                );
            }
        }
        accuracy
    }
}

fn online_adjust(plan: &Plan, traced: bool, report: &mut Report) {
    let renders = if plan.selftest { 2 } else { FIRST_RENDERS };
    // A traced run drives two sessions, so each gets half the moves.
    let n = if plan.selftest {
        40
    } else {
        plan.reps(ADJUST_S, 1_000) / paired(traced) / renders * renders
    };
    let mut set_up = || {
        let scenario = plan.figure2();
        let moves = inputs::adjustments(scenario.script(), plan.seed, n);
        (scenario, moves)
    };
    let ((scenario, moves), setup_s) = timed(&mut set_up);

    // The main session (untraced) and, in a traced run, a twin driven
    // through the same moves with the recorder on. Blocks of the sequence
    // alternate with cold first renders on fresh services, so a slow host
    // phase lands on every sub-run alike.
    let (mut main, first_ms) = Analyst::open(&scenario, plan, TraceConfig::Off);
    let mut first_render_ms = vec![first_ms];
    let mut twin = traced.then(|| Analyst::open(&scenario, plan, TraceConfig::ring()).0);
    for (b, block) in moves.chunks(n / renders).enumerate() {
        if let Some(twin) = twin.as_mut() {
            block.iter().for_each(|m| twin.adjust(m));
        }
        block.iter().for_each(|m| main.adjust(m));
        if b + 1 < renders {
            first_render_ms.push(Analyst::open(&scenario, plan, TraceConfig::Off).1);
        }
    }

    let total_s: f64 = main.adjust_ms.iter().sum::<f64>() / 1e3;
    let points_per_adjust = inputs::graph_points(scenario.script(), main.session.sliders()).len();
    let block_rates: Vec<f64> = main
        .adjust_ms
        .chunks(n / renders)
        .map(|block| (points_per_adjust * block.len()) as f64 / (block.iter().sum::<f64>() / 1e3))
        .collect();
    report.timing("points_per_s", "1/s", &block_rates);
    report_replies(report, &main.adjust_ms, n);
    report.latency("adjust_p50_ms", "ms", &main.adjust_ms, 50.0);
    report.latency("adjust_p99_ms", "ms", &main.adjust_ms, 99.0);
    report.timing("first_render_ms", "ms", &first_render_ms);
    report_work(report, &[(main.work(), total_s)]);
    if let Some(twin) = &twin {
        report.check(
            twin.work().exact == main.work().exact && twin.graph_bits() == main.graph_bits(),
            || "traced and untraced sessions diverged".to_owned(),
        );
        report_trace(
            report,
            &twin.adjust_ms,
            &main.adjust_ms,
            &twin.prophet.telemetry(),
        );
    }
    let sliders = inputs::final_sliders(scenario.script(), &moves);
    main.verify_graph(&scenario, Some(&sliders), plan, report)
        .report(report);
    report_setup(report, setup_s, 1_001, set_up);
}

// ------------------------------------------------------------ restored_serve

fn restored_serve(plan: &Plan, traced: bool, report: &mut Report) {
    let config = plan.config();
    let path = plan.scratch_file("basis.fpbs");
    // Set-up: warm the coarse Figure 2 once and write the snapshot every
    // repetition restores from.
    let mut set_up = || {
        let scenario = inputs::figure2_coarse();
        let warm = inputs::service(&[("figure2", &scenario)], config, TraceConfig::Off);
        let (sweep, _) = timed_sweep(&warm, "figure2", Priority::Normal);
        let entries = warm.save_basis("figure2", &path).expect("snapshot writes");
        let batches = spot_batches(plan, "figure2", &scenario);
        (scenario, warm, answer_digest(&sweep), entries, batches)
    };
    let ((scenario, warm, warm_digest, entries, batches), setup_s) = timed(&mut set_up);
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    report.scalar(
        "snapshot_bytes_per_entry",
        "B",
        bytes as f64 / entries.max(1) as f64,
    );

    let reps = plan.reps(RESTORED_REP_S, 60).max(paired(traced));
    let save_every = (reps / SNAPSHOT_SAVES).max(1);
    let mut save_ms = Vec::new();
    let mut restore_ms = Vec::new();
    let mut untraced: Vec<(Work, f64)> = Vec::new();
    let mut replies = Vec::new();
    let mut traced_walls = Vec::new();
    let mut telemetry = None;
    for i in 0..reps {
        if i % save_every == 0 && save_ms.len() < SNAPSHOT_SAVES {
            let t = Instant::now();
            let saved = warm.save_basis("figure2", &path).expect("snapshot writes");
            save_ms.push(t.elapsed().as_secs_f64() * 1e3);
            report.check(saved == entries, || {
                "snapshot entry count changed".to_owned()
            });
        }
        let trace = trace_for(traced, i);
        let cold = inputs::service(&[("figure2", &scenario)], config, trace);
        let t = Instant::now();
        let loaded = cold
            .load_basis("figure2", &path)
            .expect("snapshot restores");
        let load_s = t.elapsed().as_secs_f64();
        let (sweep, secs) = timed_sweep(&cold, "figure2", Priority::Normal);
        let mut work = Work::default();
        work.add(
            &sweep.metrics,
            &cold.basis_stats("figure2").expect("scenario is registered"),
        );
        let same_answer = answer_digest(&sweep) == warm_digest;
        report.check(
            loaded == entries && work.points_simulated() == 0 && same_answer,
            || {
                format!(
                    "restored sweep: {loaded}/{entries} entries, {} simulated, same answer: {same_answer}",
                    work.points_simulated(),
                )
            },
        );
        if is_on(trace) {
            traced_walls.push(secs);
            telemetry = Some(cold.telemetry());
        } else {
            restore_ms.push(load_s * 1e3);
            replies.push((load_s + secs) * 1e3);
            untraced.push((work, secs));
        }
    }

    let rates: Vec<f64> = untraced
        .iter()
        .map(|(w, wall)| w.points_total() as f64 / wall)
        .collect();
    report.timing("points_per_s", "1/s", &rates);
    report_replies(report, &replies, reps);
    report.timing("restore_ms", "ms", &restore_ms);
    report.timing("snapshot_save_ms", "ms", &save_ms);
    report_work(report, &untraced);
    check_work_repeats(report, &untraced);
    if let Some(t) = &telemetry {
        let walls: Vec<f64> = untraced.iter().map(|(_, w)| *w).collect();
        report_trace(report, &traced_walls, &walls, t);
    }
    spot_check(plan, "figure2", &scenario, &batches, report).report(report);
    report_setup(report, setup_s, 3, set_up);
    let _ = std::fs::remove_file(&path);
}

// --------------------------------------------------- interactive_under_sweep

/// One repetition: a Low-priority full sweep and an analyst session (already
/// rendered once) on the same scenario and store; the analyst adjusts back
/// to back until the sweep completes.
struct Contended {
    sweep_wall_s: f64,
    work: Work,
    adjust_ms: Vec<f64>,
    accuracy: Accuracy,
    telemetry: TelemetrySnapshot,
}

fn contended_rep(
    mut analyst: Analyst,
    scenario: &Scenario,
    moves: &[Adjustment],
    expected: usize,
    plan: &Plan,
    report: &mut Report,
) -> Contended {
    let t = Instant::now();
    let job = analyst
        .prophet
        .submit(JobSpec::sweep("figure2").with_priority(Priority::Low))
        .expect("sweep submits");
    let mut used = 0;
    while !job.progress().finished {
        analyst.adjust(&moves[used % moves.len()]);
        used += 1;
    }
    let sweep = job
        .wait()
        .and_then(|out| out.into_sweep())
        .expect("sweep completes");
    let sweep_wall_s = t.elapsed().as_secs_f64();
    report.check(sweep.metrics.points_total() == expected as u64, || {
        format!(
            "contended sweep covered {} of {expected} points",
            sweep.metrics.points_total()
        )
    });
    // The session's engine and the sweep's engine count disjoint work; the
    // store's counters are shared, so they are read once.
    let mut work = analyst.work();
    work.add(&sweep.metrics, &StoreStatsSnapshot::default());
    let accuracy = analyst.verify_graph(scenario, None, plan, report);
    Contended {
        sweep_wall_s,
        work,
        adjust_ms: std::mem::take(&mut analyst.adjust_ms),
        accuracy,
        telemetry: analyst.prophet.telemetry(),
    }
}

fn interactive_under_sweep(plan: &Plan, traced: bool, report: &mut Report) {
    // Set-up ends where the contended sweep is submitted, so it includes
    // the session's cold first render.
    let mut set_up = || {
        let scenario = plan.figure2();
        // More moves than any sweep lasts for; the loop wraps if not.
        let moves = inputs::adjustments(scenario.script(), plan.seed, 4_096);
        let (analyst, _) = Analyst::open(&scenario, plan, TraceConfig::Off);
        (scenario, moves, analyst)
    };
    let ((scenario, moves, analyst), setup_s) = timed(&mut set_up);
    let total_points: usize = scenario
        .script()
        .params
        .iter()
        .map(|p| p.domain.cardinality())
        .product();
    let plain = contended_rep(analyst, &scenario, &moves, total_points, plan, report);
    report.scalar(
        "points_per_s",
        "1/s",
        total_points as f64 / plain.sweep_wall_s,
    );
    report_replies(report, &plain.adjust_ms, ADJUSTS_UNDER_SWEEP);
    report.latency("adjust_p50_ms", "ms", &plain.adjust_ms, 50.0);
    report.latency(
        "core.session.adjust_p99_ms_under_sweep",
        "ms",
        &plain.adjust_ms,
        99.0,
    );
    report.scalar(
        "core.session.adjusts_completed",
        "count",
        plain.adjust_ms.len() as f64,
    );
    report_work(report, &[(plain.work, plain.sweep_wall_s)]);
    plain.accuracy.report(report);
    if traced {
        let (analyst, _) = Analyst::open(&scenario, plan, TraceConfig::ring());
        let with = contended_rep(analyst, &scenario, &moves, total_points, plan, report);
        report_trace(
            report,
            &[with.sweep_wall_s],
            &[plain.sweep_wall_s],
            &with.telemetry,
        );
    }
    report_setup(report, setup_s, 25, set_up);
}
