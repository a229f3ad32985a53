//! The batched evaluation pipeline: the paper's Figure-1 cycle, written
//! once, over a whole batch of parameter points.
//!
//! The Figure-1 loop — Guide proposes an instance, the Storage Manager is
//! probed, a fingerprint hit re-maps stored samples, a miss runs the Monte
//! Carlo simulation whose results feed back into the store — always knows
//! dozens of points up front (an offline sweep's group, an online graph's
//! weeks), so the *batch* is the unit of work and each Figure-1 stage is a
//! batch-wide phase of `run_batch`:
//!
//! | Figure-1 stage           | batch phase                                 |
//! |--------------------------|---------------------------------------------|
//! | Guide emits instances    | callers submit `&[ParamPoint]` (deduplicated)|
//! | Storage Manager lookup   | *plan*: per-point exact-cache check plus an  |
//! |                          | in-flight claim                              |
//! |                          | ([`SharedBasisStore::try_claim_stored`]); a  |
//! |                          | cached point is served as its entry's moments|
//! |                          | — a recipe record is rebuilt only if read    |
//! | fingerprint probe        | *probe*: claimed points fingerprint in       |
//! |                          | parallel (fan-out)                           |
//! | correlation search       | *match*: one snapshot of the store's         |
//! |                          | candidate sources                            |
//! |                          | ([`SharedBasisStore::scan_snapshot_shared`]) |
//! |                          | — then                                       |
//! |                          | every probe scans it independently, in       |
//! |                          | parallel, no lock held: first its exact-match|
//! |                          | window (a binary search over the candidates' |
//! |                          | centred keys; the earliest zero-error source |
//! |                          | there is the answer), and only without one   |
//! |                          | the branch-and-bound scan, where candidates  |
//! |                          | whose fingerprint-summary bound cannot beat  |
//! |                          | the probe's best match are pruned            |
//! |                          | (`EngineConfig::match_index`)                |
//! | re-map on a hit          | *remap*: fused with the match — the worker   |
//! |                          | that finds a probe's source takes its mapped |
//! |                          | moments from the engine's recipe memo, or    |
//! |                          | re-maps the source once per recipe to take   |
//! |                          | them, building no reply samples (fan-out)    |
//! | simulate on a miss       | *simulate*: every miss fans out as world     |
//! |                          | spans of `SPAN_WORLDS`; each point's spans   |
//! |                          | are joined in world order on the driver.     |
//! |                          | Under a `StopRule` a point runs in waves     |
//! |                          | of one `batch`-world span and stops at the   |
//! |                          | first prefix the rule accepts                |
//! | results feed the store   | *publish*: completions insert basis entries  |
//! |                          | and wake cross-session waiters, hits first,  |
//! |                          | then misses, each in batch order; a hit's    |
//! |                          | reply is its recipe record, as a later       |
//! |                          | cached read returns it                       |
//! | (another session's point)| *wait*: block on each point another session  |
//! |                          | owns, once this batch holds no claim         |
//!
//! # Rounds
//!
//! The table runs in *rounds*. The first round takes every unique point
//! of the batch; a wait that yields no full-depth samples — the owner was
//! cancelled or failed, the store was cleared, or the owner published
//! fewer worlds than this engine needs — puts its point into the next
//! round's plan, where the claim finds it cached, pending again, or
//! owned. An owned point then goes through the same fingerprint and
//! world-span phases on the same runner as any other: it is cancellable,
//! fans out and is traced. This is the only code that evaluates a claimed
//! point; a batch that never re-claims runs exactly one round.
//!
//! # Stop rules
//!
//! A batch may carry a `StopRule` — one output column, a confidence
//! half-width ε and a prefix step `batch` — which makes every point an
//! anytime estimate ([`OnlineSession::progressive_expect`] runs one such
//! batch of one point as a job). Its plan claims at any depth: a cached
//! entry, or the result of a wait, answers the point when the rule holds
//! on one of its prefixes (or it is full depth); a shallower one sends the
//! point into the next round at full depth, carrying those samples as its
//! resume prefix. A miss then simulates in waves of one `batch`-world
//! span, joined after its prefix in world order, and publishes at the
//! first prefix the rule accepts, or at full depth. No span is ever
//! computed past that depth, so `worlds_simulated` is the fresh worlds at
//! every worker count. A batch without a rule runs the same loop as one
//! wave of `SPAN_WORLDS`-wide spans from world 0.
//!
//! # One pipeline, two runners
//!
//! Everything in that table is sequential on the calling thread except
//! the three fan-outs, and a `Runner` is exactly the part that differs
//! between the two ways a batch executes:
//!
//! * the **inline runner** behind [`Engine::evaluate_batch`] fans a phase
//!   out on per-call `std::thread::scope` workers, is never cancelled,
//!   records no trace and counts into the engine's own counters
//!   ([`Engine::metrics`]). It seizes the caller until the batch
//!   completes: the reference path, and the only path for a bare
//!   [`Engine`];
//! * the **pooled runner** in [`scheduler`](crate::scheduler) fans a phase
//!   out as priority-ordered chunks on the service's long-lived pool,
//!   observes the job's cancel flag between phases, ticks its progress
//!   counter, records phase spans and counts into the job's own counters,
//!   so jobs sharing their scenario's engine never see each other's
//!   work. Every [`Prophet`](crate::service::Prophet) job runs it.
//!
//! Both execute the same function, so a runner may only reorder
//! *independent* items: probe evaluation derives every fingerprint from
//! fixed canonical seeds, match-then-remap is a pure function of one probe
//! and the batch's snapshot, and simulation seeds each world from `(root
//! seed, world, point)`. What fixes the answer is in the skeleton, not the
//! runner:
//!
//! * **Work deduplication.** The plan phase claims each point through the
//!   shared store's in-flight table, so N sessions evaluating the same cold
//!   point perform exactly one simulation — the other N−1 block on the
//!   owner's [`WaitHandle`] and reuse its published samples (counted as
//!   `inflight_waits`). Within one batch, duplicate points collapse to a
//!   single evaluation, and work counters count unique points.
//! * **No deadlock.** A round publishes (or releases) every point it owns
//!   before it waits, so two sessions waiting on each other's points
//!   always find them published or abandoned.
//! * **Snapshot structure.** The candidate snapshot is taken after every
//!   probe has landed, so a batch matches against the store as it stood at
//!   batch start and never against its own siblings.
//! * **Publish order.** Claims complete in batch order (hits, then
//!   misses), so insertion stamps — and every later `(error, stamp)`
//!   tie-break — are the same at every thread count, chunk size and
//!   priority mix. `tests/jobs.rs` diffs the pooled runner against the
//!   inline one; `tests/chaos.rs` does so under adversarial interleavings.
//! * **Cancellation.** A runner reports a skipped item as an empty slot.
//!   Results that did land are published before the batch stops, so the
//!   store only ever sees complete entries (a point missing any world span
//!   is not published); claims of unpublished points are released as
//!   their guards drop, and concurrent waiters re-claim in their next
//!   round.
//!
//! Phase wall-clock lands in `EngineMetrics::probe_nanos` (probe + match +
//! remap + publishing the hits) and `EngineMetrics::sim_nanos` (simulate +
//! publishing the misses); `match_scan_nanos` / `remap_nanos` (CPU sums
//! across workers) and `publish_nanos` (caller wall) split them further.
//!
//! [`SharedBasisStore::try_claim_stored`]: prophet_mc::SharedBasisStore::try_claim_stored
//! [`SharedBasisStore::scan_snapshot_shared`]: prophet_mc::SharedBasisStore::scan_snapshot_shared
//! [`WaitHandle`]: prophet_mc::WaitHandle
//! [`OnlineSession::progressive_expect`]: crate::session::OnlineSession::progressive_expect

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use prophet_fingerprint::{Fingerprint, Mapping};
use prophet_mc::aggregate::{self, converged};
use prophet_mc::trace::{TraceEventKind, Tracer, NO_CHUNK, NO_JOB};
use prophet_mc::{
    BasisHit, ColumnSamples, InflightGuard, ParamPoint, RecipeBody, SampleSet, ScanSnapshot,
    ScanWork, TryClaim, WaitHandle,
};
use prophet_vg::FastBuild;

use crate::engine::{Engine, EvalOutcome};
use crate::error::{ProphetError, ProphetResult};
use crate::metrics::{Counters, Stopwatch};
use crate::session::ProgressiveEstimate;

/// One `(samples, outcome)` per point of a batch.
pub(crate) type BatchResults = Vec<(SampleSet, EvalOutcome)>;

/// What [`run_batch`] answers: one `(samples, outcome)` per input point
/// and, under a [`StopRule`], one anytime estimate per input point.
#[derive(Default)]
pub(crate) struct Evaluated {
    pub(crate) results: BatchResults,
    pub(crate) estimates: Vec<ProgressiveEstimate>,
}

/// A unique point's reply and, under a stop rule, its estimate.
type Answer = ((SampleSet, EvalOutcome), Option<ProgressiveEstimate>);

/// A unique point's index going into a round, with — for a rule point —
/// its resume prefix: shallow samples and their worlds.
type Planned = (usize, Option<(Arc<ColumnSamples>, usize)>);

/// What differs between the two executions of [`run_batch`]; see the
/// [module docs](self).
pub(crate) trait Runner {
    /// The engine whose batch this is.
    fn engine(&self) -> &Engine;

    /// The counters this run's work goes to.
    fn metrics(&self) -> &Counters;

    /// Apply `f` to every item on this runner's workers, with the engine
    /// and this run's counters, results in input order. Slot `i` is `None`
    /// if item `i` never ran: skipped because the job was cancelled, or
    /// lost to a worker panic.
    fn fan_out<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<Option<T>>
    where
        I: Send + 'static,
        T: Send + 'static,
        F: Fn(&Engine, &Counters, I) -> T + Send + Sync + 'static;

    /// Whether the batch should stop at the next phase boundary.
    fn is_cancelled(&self) -> bool {
        false
    }

    /// `n` more input points have their final result.
    fn points_done(&self, _n: u64) {}

    /// Where phase spans and match-scan durations go, and the job they
    /// belong to.
    fn trace(&self) -> (Tracer, u64) {
        (Tracer::off(), NO_JOB)
    }
}

/// The inline runner: scoped threads on the caller, never cancelled,
/// counting into the engine's own counters.
pub(crate) struct Inline<'a>(pub(crate) &'a Engine);

impl Runner for Inline<'_> {
    fn engine(&self) -> &Engine {
        self.0
    }

    fn metrics(&self) -> &Counters {
        &self.0.metrics
    }

    fn fan_out<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<Option<T>>
    where
        I: Send + 'static,
        T: Send + 'static,
        F: Fn(&Engine, &Counters, I) -> T + Send + Sync + 'static,
    {
        parallel_map(items, self.0.config().threads.max(1), |item| {
            Some(f(self.0, &self.0.metrics, item))
        })
    }
}

/// An empty fan-out slot: fine under a cancel, a lost chunk otherwise.
fn lost_slot(runner: &impl Runner) -> ProphetResult<()> {
    if runner.is_cancelled() {
        Ok(())
    } else {
        Err(ProphetError::Internal(
            "a scheduled chunk was lost (worker panic)".into(),
        ))
    }
}

/// Worlds per simulate-phase item without a stop rule: a miss runs as
/// `worlds_per_point / SPAN_WORLDS` (rounded up) spans, the last one
/// possibly shorter.
pub(crate) const SPAN_WORLDS: usize = 100;

/// A batch's anytime criterion (see the [module docs](self)): a point is
/// answered by the first prefix of its `column` samples, growing by
/// `batch` worlds, whose 95 % confidence half-width is at most `epsilon`
/// — or by its samples at full depth.
#[derive(Debug, Clone)]
pub(crate) struct StopRule {
    column: String,
    epsilon: f64,
    batch: usize,
}

impl StopRule {
    /// A rule on `engine`'s output `column`
    /// ([`ProphetError::UnknownColumn`] otherwise), `batch` at least 1.
    pub(crate) fn new(
        engine: &Engine,
        column: &str,
        epsilon: f64,
        batch: usize,
    ) -> ProphetResult<Self> {
        let columns = engine.output_columns();
        if !columns.iter().any(|c| c == column) {
            return Err(ProphetError::unknown_column(column, columns.to_vec()));
        }
        Ok(StopRule {
            column: column.to_owned(),
            epsilon,
            batch: batch.max(1),
        })
    }

    /// The estimate on the whole of a basis reply's rule column — a
    /// cached entry, a waited-for one or a fresh hit, none of whose
    /// worlds this batch simulated — read from the set's moments, so a
    /// recipe record rebuilds nothing. Basis samples are read whole, as
    /// they cost nothing more; they answer a point when the estimate on
    /// them converged or they are full depth, and are otherwise its
    /// resume prefix.
    fn estimate(&self, set: &SampleSet) -> ProgressiveEstimate {
        let column = &self.column;
        let (mean, std_dev) = (set.expect(column).zip(set.expect_std_dev(column)))
            .expect("invariant: a point's samples hold every output column");
        self.judge(mean, std_dev, set.world_count(), 0)
    }

    /// The estimate on the whole of a wave's rule column, `fresh` of
    /// whose worlds this batch simulated: a wave's samples end at its
    /// last span, so the whole column is the newest prefix.
    fn estimate_wave(&self, samples: &ColumnSamples, fresh: usize) -> ProgressiveEstimate {
        let xs = (samples.get(&self.column))
            .expect("invariant: a point's samples hold every output column");
        let mean = aggregate::mean(xs);
        self.judge(mean, aggregate::std_dev(xs, mean), xs.len(), fresh)
    }

    /// The estimate on a rule column's moments over `worlds` worlds and
    /// whether it converged at z = 1.96 — the criterion of
    /// [`SampleStats::converged`](prophet_mc::SampleStats::converged).
    fn judge(&self, mean: f64, std_dev: f64, worlds: usize, fresh: usize) -> ProgressiveEstimate {
        const Z95: f64 = 1.96;
        ProgressiveEstimate {
            estimate: mean,
            worlds_used: fresh,
            used_basis: fresh == 0,
            converged: converged(worlds as u64, std_dev, self.epsilon, Z95),
        }
    }
}

/// The Figure-1 cycle over one batch (see the [module docs](self)),
/// under `rule` if it has one: `Ok(None)` means a cancel was observed —
/// completed results were published, remaining claims released, nothing
/// returned.
pub(crate) fn run_batch<R: Runner>(
    runner: &R,
    points: &[ParamPoint],
    rule: Option<&StopRule>,
) -> ProphetResult<Option<Evaluated>> {
    // ---- dedupe: unique points in first-seen order.
    let (unique, slot_of) = dedupe_points(points);
    let mut answers: Vec<Option<Answer>> = (0..unique.len()).map(|_| None).collect();

    // ---- rounds: each takes the points the last one left unanswered; a
    // batch that never re-claims runs exactly one.
    let mut round: Vec<Planned> = (0..unique.len()).map(|i| (i, None)).collect();
    while !round.is_empty() {
        if runner.is_cancelled() {
            return Ok(None);
        }
        match run_round(runner, &unique, rule, round, &mut answers)? {
            Some(retry) => round = retry,
            None => return Ok(None),
        }
    }

    // ---- scatter: duplicates resolve to their unique point's result.
    runner.points_done((points.len() - unique.len()) as u64);
    let mut evaluated = Evaluated::default();
    for i in slot_of {
        let (reply, estimate) =
            (answers[i].clone()).expect("invariant: every unique point resolves to a result");
        evaluated.results.push(reply);
        evaluated.estimates.extend(estimate);
    }
    Ok(Some(evaluated))
}

/// One round of [`run_batch`] over `round`: plan, fingerprint phase,
/// simulate phase, then the cross-session waits. Returns the points to
/// re-plan — those whose wait yielded no full-depth samples, and rule
/// points whose shallow samples the rule did not accept — or `None` on a
/// cancel.
fn run_round<R: Runner>(
    runner: &R,
    unique: &[ParamPoint],
    rule: Option<&StopRule>,
    round: Vec<Planned>,
    answers: &mut [Option<Answer>],
) -> ProphetResult<Option<Vec<Planned>>> {
    let (engine, metrics) = (runner.engine(), runner.metrics());
    let full = engine.config().worlds_per_point;

    // ---- plan: exact-cache check + in-flight claim per point. A rule
    // point's first claim takes an entry at any depth.
    let mut retry = Vec::new();
    let mut claimed: Vec<(Planned, InflightGuard)> = Vec::new();
    let mut waits: Vec<(Planned, WaitHandle)> = Vec::new();
    for (i, resume) in round {
        let point = &unique[i];
        let any_depth = rule.is_some() && resume.is_none();
        let min_worlds = if any_depth { 1 } else { full };
        match engine.basis_store().try_claim_stored(point, min_worlds) {
            TryClaim::Ready { samples, worlds } => {
                let reply = engine.stored_sample_set(point, samples);
                let estimate = rule.map(|r| r.estimate(&reply));
                if worlds < full && estimate.as_ref().is_some_and(|e| !e.converged) {
                    retry.push((i, Some(resume_prefix(&reply, worlds))));
                    continue;
                }
                metrics.bump(|m| m.points_cached += 1);
                runner.points_done(1);
                answers[i] = Some(((reply, EvalOutcome::Cached), estimate));
            }
            TryClaim::Owner(guard) => claimed.push(((i, resume), guard)),
            TryClaim::Pending(handle) => waits.push(((i, resume), handle)),
        }
    }

    // ---- probe + match + remap, publishing the hits.
    let Some(misses) = fingerprint_phase(runner, unique, rule, claimed, answers)? else {
        return Ok(None);
    };

    // ---- simulate the misses, publishing each once it is done.
    if !simulate_phase(runner, unique, rule, misses, answers)? {
        return Ok(None);
    }

    // ---- resolve cross-session waits last, once this round holds no
    // claim: its own points are published, so two sessions waiting on
    // each other's points cannot deadlock. A wait whose owner abandoned
    // the point (cancel, error, store clear) or published fewer worlds
    // than the point needs (shared store, differing `worlds_per_point`,
    // or an anytime estimate the rule does not accept) goes back to the
    // plan: the next round finds it cached, waits again, or owns it and
    // evaluates it like any other claimed point.
    for ((i, resume), handle) in waits {
        let Some(entry) = handle.wait() else {
            retry.push((i, resume));
            continue;
        };
        let worlds = entry.worlds();
        let reply = engine.stored_sample_set(&unique[i], entry);
        let estimate = rule.map(|r| r.estimate(&reply));
        if worlds < full && !estimate.as_ref().is_some_and(|e| e.converged) {
            // Under a rule, the shallow samples are the resume prefix.
            retry.push((i, rule.map(|_| resume_prefix(&reply, worlds))));
            continue;
        }
        metrics.bump(|m| {
            m.points_cached += 1;
            m.inflight_waits += 1;
        });
        answers[i] = Some(((reply, EvalOutcome::Cached), estimate));
        runner.points_done(1);
    }
    Ok(Some(retry))
}

/// A claimed miss in the simulate phase: its claim, its probe
/// fingerprints and its samples so far, worlds `0..depth` in world order
/// (every output column, once its first span has joined).
struct Simulating {
    /// Index into the batch's unique points.
    i: usize,
    guard: InflightGuard,
    probes: HashMap<String, Fingerprint>,
    samples: ColumnSamples,
    depth: usize,
    /// Worlds of the resume prefix: reused, not fresh work.
    resumed: usize,
}

impl Simulating {
    /// Append one wave's spans in world order. `Ok(false)` means a span
    /// never ran, so the point is released rather than published; the
    /// first error in world order is the one returned.
    fn join(
        &mut self,
        runner: &impl Runner,
        spans: impl Iterator<Item = Option<ProphetResult<SampleSet>>>,
    ) -> ProphetResult<bool> {
        let engine = runner.engine();
        let full = engine.config().worlds_per_point;
        let mut complete = true;
        for slot in spans {
            let Some(span) = slot else {
                lost_slot(runner)?;
                complete = false;
                continue;
            };
            let span = span?;
            for column in engine.output_columns() {
                let xs = span.samples(column).ok_or_else(|| {
                    ProphetError::Internal(format!("simulation lacks column `{column}`"))
                })?;
                (self.samples.entry(column.clone()))
                    .or_insert_with(|| Vec::with_capacity(full))
                    .extend_from_slice(xs);
            }
        }
        Ok(complete)
    }
}

/// The simulate phase over a round's misses, as waves of world spans
/// (see the [module docs](self)): each point is published once done, in
/// batch order within its wave. `Ok(false)` means a cancel was observed;
/// points not yet published are released as their guards drop.
///
/// The span width never depends on `threads`: a lone cold point still
/// spreads across the pool, a cancel stops a point between spans, and —
/// worlds being seeded from `(root seed, world, function, call index)` —
/// every sample and counter is the same however the spans are scheduled.
fn simulate_phase<R: Runner>(
    runner: &R,
    unique: &[ParamPoint],
    rule: Option<&StopRule>,
    mut running: Vec<Simulating>,
    answers: &mut [Option<Answer>],
) -> ProphetResult<bool> {
    if running.is_empty() {
        return Ok(true);
    }
    let (engine, metrics) = (runner.engine(), runner.metrics());
    let (tracer, job) = runner.trace();
    let full = engine.config().worlds_per_point;
    let width = rule.map_or(SPAN_WORLDS, |rule| rule.batch);
    let phase = Stopwatch::start();
    let mut cancelled = false;
    while !(running.is_empty() || cancelled) {
        if runner.is_cancelled() {
            cancelled = true;
            break;
        }
        // A wave takes a point to full depth without a rule, one span
        // further under one.
        let ends: Vec<usize> = (running.iter())
            .map(|s| rule.map_or(full, |_| (s.depth + width).min(full)))
            .collect();
        let spans: Vec<(ParamPoint, Range<u64>)> = (running.iter().zip(&ends))
            .flat_map(|(s, &end)| {
                let point = &unique[s.i];
                (s.depth..end).step_by(width).map(move |start| {
                    (point.clone(), start as u64..(start + width).min(end) as u64)
                })
            })
            .collect();
        let t_sim = tracer.now();
        let simulated = runner.fan_out(spans, |engine, metrics, (p, span)| {
            engine.simulate_world_span(&p, span, metrics)
        });
        tracer.span(TraceEventKind::PhaseSimulate, job, NO_CHUNK, t_sim);
        let t_publish = tracer.now();
        let publish = Stopwatch::start();
        let mut simulated = simulated.into_iter();
        let mut next = Vec::new();
        for (mut s, end) in running.into_iter().zip(ends) {
            let n = (end - s.depth).div_ceil(width);
            if !s.join(runner, simulated.by_ref().take(n))? {
                cancelled = true;
                continue;
            }
            s.depth = end;
            let fresh = end - s.resumed;
            let estimate = rule.map(|r| r.estimate_wave(&s.samples, fresh));
            if end < full && !estimate.as_ref().is_some_and(|e| e.converged) {
                next.push(s);
                continue;
            }
            let samples = Arc::new(s.samples);
            let reply = engine.publish_simulated(&unique[s.i], s.guard, s.probes, samples, end);
            metrics.bump(|m| m.points_simulated += 1);
            answers[s.i] = Some((reply, estimate));
            runner.points_done(1);
        }
        tracer.span(TraceEventKind::PhasePublish, job, NO_CHUNK, t_publish);
        metrics.bump(|m| m.publish_nanos += publish.elapsed_nanos());
        running = next;
    }
    metrics.bump(|m| m.sim_nanos += phase.elapsed_nanos());
    Ok(!cancelled)
}

/// The fingerprint phase over claimed points: probe fan-out, one
/// candidate snapshot, fused match-then-remap fan-out, the scans'
/// accounting, then the hits published and answered in input order.
/// Returns the misses, still claimed, in input order; `Ok(None)` means a
/// cancel was observed (hits that landed are published, every other
/// claim is released as its guard drops). Without fingerprints every
/// point is a miss with no probes.
fn fingerprint_phase<R: Runner>(
    runner: &R,
    unique: &[ParamPoint],
    rule: Option<&StopRule>,
    claimed: Vec<(Planned, InflightGuard)>,
    answers: &mut [Option<Answer>],
) -> ProphetResult<Option<Vec<Simulating>>> {
    let (engine, metrics) = (runner.engine(), runner.metrics());
    // A miss starts from its resume prefix, or from world 0.
    let miss = |((i, resume), guard): (Planned, _), probes| {
        let prefix = resume.map(|(prefix, worlds)| ((*prefix).clone(), worlds));
        let (samples, depth) = prefix.unwrap_or_default();
        Simulating {
            i,
            guard,
            probes,
            samples,
            depth,
            resumed: depth,
        }
    };
    if !engine.uses_fingerprints() || claimed.is_empty() {
        let misses = claimed.into_iter().map(|claim| miss(claim, HashMap::new()));
        return Ok(Some(misses.collect()));
    }
    let (tracer, job) = runner.trace();
    let phase = Stopwatch::start();
    let points: Vec<ParamPoint> = claimed
        .iter()
        .map(|((i, _), _)| unique[*i].clone())
        .collect();
    let n = points.len();
    let t_probe = tracer.now();
    let probe_outputs = runner.fan_out(points, |engine, metrics, p: ParamPoint| {
        let probe = engine.probe_fingerprints(&p, metrics);
        (p, probe)
    });
    tracer.span(TraceEventKind::PhaseProbe, job, NO_CHUNK, t_probe);
    // A cancel during probing published nothing: every claim is simply
    // released (guards drop on return) and waiters recover.
    let mut fused_items: Vec<(ParamPoint, HashMap<String, Fingerprint>)> = Vec::with_capacity(n);
    for slot in probe_outputs {
        let Some((point, probe)) = slot else {
            lost_slot(runner)?;
            return Ok(None);
        };
        fused_items.push((point, probe?));
    }
    metrics.bump(|m| m.batch_probes += n as u64);

    // The candidate snapshot is taken here — after every probe has
    // landed, so no probe ever matches a sibling of its batch — and the
    // store's locks are released before any comparison runs.
    let t_snapshot = tracer.now();
    let snapshot = engine.scan_snapshot(metrics);
    tracer.span(TraceEventKind::PhaseSnapshot, job, NO_CHUNK, t_snapshot);

    // Match-then-remap, one item per probe: each scans the snapshot
    // against its own incumbent and re-maps its hit on the worker that
    // found it.
    let (fused_snapshot, fused_tracer) = (Arc::clone(&snapshot), tracer.clone());
    let t_scan = tracer.now();
    let fused = runner.fan_out(
        fused_items,
        move |engine, metrics, (point, probe): (ParamPoint, HashMap<String, Fingerprint>)| {
            let matched = engine.match_and_remap(&fused_snapshot, &point, &probe, metrics);
            fused_tracer.record_match_scan(matched.scan_nanos);
            // Only a miss publishes its probe. Any other drops it here, on
            // the worker whose allocator built it, not on the driver.
            let probe = matches!(matched.outcome, Ok(None)).then_some(probe);
            (point, probe, matched)
        },
    );
    tracer.span(TraceEventKind::PhaseScan, job, NO_CHUNK, t_scan);
    // Close the scans: their work goes into the run's counters and the
    // store's hit/miss ledger.
    let work = fused.iter().flatten().map(|(.., m)| m.work);
    let scan = engine.basis_store().record_scans(work);
    metrics.bump(|m| {
        m.candidates_scanned += scan.candidates_scanned;
        m.candidates_pruned += scan.candidates_pruned;
        m.window_hits += scan.window_hits;
    });

    // Publish hits in input order.
    let t_publish = tracer.now();
    let publish = Stopwatch::start();
    let mut cancelled = false;
    let mut misses = Vec::new();
    for (claim, slot) in claimed.into_iter().zip(fused) {
        let Some((point, probe, matched)) = slot else {
            lost_slot(runner)?;
            cancelled = true;
            continue;
        };
        let Some(hit) = matched.outcome? else {
            let probe = probe.expect("invariant: a miss keeps its probe");
            misses.push(miss(claim, probe));
            continue;
        };
        let ((i, _), guard) = claim;
        let reply = engine.publish_hit(&point, guard, hit);
        metrics.bump(|m| m.points_mapped += 1);
        let estimate = rule.map(|r| r.estimate(&reply.0));
        answers[i] = Some((reply, estimate));
        runner.points_done(1);
    }
    tracer.span(TraceEventKind::PhasePublish, job, NO_CHUNK, t_publish);
    metrics.bump(|m| {
        m.publish_nanos += publish.elapsed_nanos();
        m.probe_nanos += phase.elapsed_nanos();
    });
    if cancelled || runner.is_cancelled() {
        return Ok(None);
    }
    Ok(Some(misses))
}

impl Engine {
    /// Evaluate the scenario at a batch of parameter points, returning one
    /// `(samples, outcome)` per input point, in input order — `run_batch`
    /// on the inline runner.
    ///
    /// Duplicate points are evaluated once and their result shared. Points
    /// already being simulated by a concurrent session are not duplicated:
    /// this call blocks on the in-flight owner and reuses its result
    /// (outcome [`EvalOutcome::Cached`], counted in
    /// `EngineMetrics::inflight_waits`).
    pub fn evaluate_batch(
        &self,
        points: &[ParamPoint],
    ) -> ProphetResult<Vec<(SampleSet, EvalOutcome)>> {
        let evaluated = run_batch(&Inline(self), points, None)?;
        Ok(evaluated
            .expect("invariant: the inline runner is never cancelled")
            .results)
    }

    /// Whether owned points go through the fingerprint phase at all.
    fn uses_fingerprints(&self) -> bool {
        self.config().fingerprints_enabled && !self.stochastic_columns().is_empty()
    }

    // ------------------------------------------------ match-scan primitives

    /// The basis store's candidate sources for this engine's match scans
    /// (its stochastic columns, detector and `match_index` mode) — the
    /// store's shared snapshot, rebuilt only when a source came or went
    /// since the last batch. The only step of a scan that touches the
    /// store's locks; timed into the run's `match_scan_nanos`.
    fn scan_snapshot(&self, metrics: &Counters) -> Arc<ScanSnapshot> {
        let start = Stopwatch::start();
        let snapshot = self.basis_store().scan_snapshot_shared(
            self.stochastic_columns(),
            &self.config().detector,
            self.config().match_index,
        );
        metrics.bump(|m| m.match_scan_nanos += start.elapsed_nanos());
        snapshot
    }

    /// The per-probe step of the fingerprint phase: scan `snapshot` for
    /// the best source of `probe` and, on a hit, take its body
    /// re-mapped onto `point` ([`Engine::remap_body`]). A pure
    /// function of its arguments, so a batch runs it for every probe in
    /// parallel. Self-times the scan into the run's `match_scan_nanos`
    /// (the remap self-times into `remap_nanos`).
    fn match_and_remap(
        &self,
        snapshot: &ScanSnapshot,
        point: &ParamPoint,
        probe: &HashMap<String, Fingerprint>,
        metrics: &Counters,
    ) -> Matched {
        let start = Stopwatch::start();
        let scan = snapshot.scan_probe(probe);
        let scan_nanos = start.elapsed_nanos();
        metrics.bump(|m| m.match_scan_nanos += scan_nanos);
        let remap = |hit: BasisHit| {
            let body = self.remap_body(point, &hit, metrics)?;
            Ok(MappedHit {
                body,
                worlds: hit.worlds,
                exact: hit.mappings.values().all(Mapping::is_exact),
                source: hit.source,
            })
        };
        Matched {
            work: scan.work,
            scan_nanos,
            outcome: scan.hit.map(remap).transpose(),
        }
    }

    // ------------------------------------------------------------ publish

    /// Publish a fingerprint hit: complete the claim with its recipe
    /// memo body — the mapped moments and what makes the samples. The
    /// store files a recipe record (no samples, no probe fingerprints)
    /// holding that body, shared with every record of the recipe, which
    /// rebuilds them when a reader asks for them; the waiters and the
    /// reply get that record, so `expect` reads its moments and a samples
    /// read rebuilds once, exactly as for a later cached read of the
    /// point.
    fn publish_hit(
        &self,
        point: &ParamPoint,
        guard: InflightGuard,
        hit: MappedHit,
    ) -> (SampleSet, EvalOutcome) {
        let (entry, _) = guard.complete_mapped(hit.worlds, hit.body);
        let outcome = EvalOutcome::Mapped {
            from: hit.source,
            exact: hit.exact,
        };
        (self.stored_sample_set(point, entry), outcome)
    }

    /// Publish a simulation of `worlds` worlds: complete the claim and
    /// hand the same allocation back as the reply. Only a full-depth
    /// entry becomes a matchable basis source; a shallower one (a stop
    /// rule accepting a prefix) is exact-key-reusable, and the store's
    /// min-worlds filters protect full-depth consumers.
    fn publish_simulated(
        &self,
        point: &ParamPoint,
        guard: InflightGuard,
        probes: HashMap<String, Fingerprint>,
        samples: Arc<ColumnSamples>,
        worlds: usize,
    ) -> (SampleSet, EvalOutcome) {
        let full_depth = worlds == self.config().worlds_per_point;
        guard.complete(probes, Arc::clone(&samples), worlds, full_depth);
        (self.to_sample_set(point, samples), EvalOutcome::Simulated)
    }
}

/// A fingerprint hit re-mapped onto the queried point, ready to publish
/// as a recipe record.
struct MappedHit {
    /// The recipe memo's body of the hit's recipe: its moments, and what
    /// rebuilds its samples.
    body: RecipeBody,
    /// Worlds backing the source's (and therefore the mapped) samples.
    worlds: usize,
    /// The basis point the mapping came from.
    source: ParamPoint,
    /// Whether every column's mapping was exact (identity/offset).
    exact: bool,
}

/// One probe's trip through [`Engine::match_and_remap`].
struct Matched {
    /// The scan's accounting, for the store's `record_scans`.
    work: ScanWork,
    /// Nanoseconds the scan took (the tracer's match-scan histogram).
    scan_nanos: u64,
    /// `Ok(None)` is a miss; an `Err` is a hit whose re-map failed.
    outcome: ProphetResult<Option<MappedHit>>,
}

/// A rule point's resume prefix: a shallow basis reply's samples and
/// their worlds. A shallow entry is a samples record, so this rebuilds
/// nothing.
fn resume_prefix(reply: &SampleSet, worlds: usize) -> (Arc<ColumnSamples>, usize) {
    (Arc::clone(reply.shared_samples()), worlds)
}

/// Collapse a point list to unique points in first-seen order plus, per
/// input slot, the index of its unique point.
fn dedupe_points(points: &[ParamPoint]) -> (Vec<ParamPoint>, Vec<usize>) {
    let mut unique: Vec<ParamPoint> = Vec::with_capacity(points.len());
    let mut index_of: HashMap<&ParamPoint, usize, FastBuild> =
        HashMap::with_capacity_and_hasher(points.len(), FastBuild::default());
    let slot_of: Vec<usize> = points
        .iter()
        .map(|p| {
            *index_of.entry(p).or_insert_with(|| {
                unique.push(p.clone());
                unique.len() - 1
            })
        })
        .collect();
    (unique, slot_of)
}

/// Apply `f` to every item, fanning out across up to `threads` scoped
/// workers (contiguous chunks, results in input order). Single-item or
/// single-thread calls run inline with no spawn overhead.
fn parallel_map<I, R, F>(items: Vec<I>, threads: usize, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(I) -> R + Sync,
{
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(workers);
    let slice_count = items.len().div_ceil(chunk);
    let mut rest = items.into_iter();
    let slices: Vec<Vec<I>> = (0..slice_count)
        .map(|_| rest.by_ref().take(chunk).collect())
        .collect();
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = slices
            .into_iter()
            .map(|slice| scope.spawn(move || slice.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("invariant: executor workers do not panic"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::scenario::Scenario;
    use prophet_models::demo_registry;

    fn engine(config: EngineConfig) -> Engine {
        let scenario = Scenario::figure2().unwrap();
        Engine::new(&scenario, demo_registry(), config).unwrap()
    }

    fn small_config() -> EngineConfig {
        EngineConfig {
            worlds_per_point: 60,
            ..EngineConfig::default()
        }
    }

    fn demo_point(current: i64, p1: i64, p2: i64, feature: i64) -> ParamPoint {
        ParamPoint::from_pairs([
            ("current", current),
            ("purchase1", p1),
            ("purchase2", p2),
            ("feature", feature),
        ])
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let e = engine(small_config());
        assert!(e.evaluate_batch(&[]).unwrap().is_empty());
        assert_eq!(e.metrics().points_total(), 0);
    }

    #[test]
    fn duplicate_points_in_one_batch_are_evaluated_once() {
        let e = engine(small_config());
        let p = demo_point(10, 16, 36, 12);
        let results = e.evaluate_batch(&[p.clone(), p.clone(), p]).unwrap();
        assert_eq!(results.len(), 3);
        for (samples, outcome) in &results {
            assert_eq!(*outcome, EvalOutcome::Simulated);
            assert_eq!(samples.samples("demand"), results[0].0.samples("demand"));
        }
        let m = e.metrics();
        assert_eq!(m.points_simulated, 1, "duplicates collapse to one");
        assert_eq!(m.points_total(), 1);
        assert_eq!(m.worlds_simulated, 60);
    }

    #[test]
    fn batch_results_keep_input_order() {
        let e = engine(small_config());
        let a = demo_point(5, 16, 36, 12);
        let b = demo_point(50, 0, 4, 44);
        let results = e
            .evaluate_batch(&[a.clone(), b.clone(), a.clone()])
            .unwrap();
        assert_eq!(results[0].0.point(), &a);
        assert_eq!(results[1].0.point(), &b);
        assert_eq!(results[2].0.point(), &a);
    }

    #[test]
    fn batch_phase_clocks_are_recorded() {
        let e = engine(small_config());
        let results = e
            .evaluate_batch(&[demo_point(5, 16, 36, 12), demo_point(5, 16, 36, 36)])
            .unwrap();
        assert_eq!(results.len(), 2);
        let m = e.metrics();
        assert_eq!(m.batch_probes, 2, "both cold points probed in batch");
        assert!(m.probe_nanos > 0, "probe phase wall-clock recorded");
        assert!(m.sim_nanos > 0, "simulate phase wall-clock recorded");
    }
}
