//! Engine work accounting.
//!
//! The paper's claims are about *work avoided* — fewer VG invocations,
//! fewer re-rendered weeks, faster offline sweeps. [`EngineMetrics`] is the
//! ledger every test and bench row reads its numbers from.

use std::fmt;
use std::time::{Duration, Instant};

use prophet_mc::trace::LatencyHistogram;

use crate::sync::{OrderedMutex, ENGINE_METRICS};

/// A started wall-clock timer. This is the *only* place `crates/core`
/// touches `Instant` (pinned by the `wall-clock` lint rule in
/// `crates/analysis`): wall time is a metric, and keeping every reading
/// behind this one type guarantees no deterministic code path can branch
/// on the clock — timings land in [`EngineMetrics`] counters and report
/// wall fields, nowhere else.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Wall time since [`Stopwatch::start`] (the reports' `wall` fields).
    pub(crate) fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }

    /// Wall time since [`Stopwatch::start`], as the nanosecond counters
    /// [`EngineMetrics`] accumulates.
    pub fn elapsed_nanos(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Counters describing how much simulation work the engine performed and
/// how much it avoided through fingerprint reuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineMetrics {
    /// Parameter points whose results were served from the exact-key cache.
    pub points_cached: u64,
    /// Parameter points whose results were re-mapped from a correlated
    /// basis entry (fingerprint hit).
    pub points_mapped: u64,
    /// Parameter points fully simulated.
    pub points_simulated: u64,
    /// Monte Carlo worlds actually evaluated (full simulation only).
    pub worlds_simulated: u64,
    /// Scenario evaluations spent probing fingerprints. This counts
    /// *logical* per-seed evaluations regardless of execution tier: a
    /// block-tier probe of fingerprint length `L` counts `L`, exactly as
    /// `L` scalar walks would — so the number stays comparable across
    /// engine versions and every
    /// [`EngineConfig::tier`](crate::engine::EngineConfig::tier).
    pub probe_evaluations: u64,
    /// Vectorized probe walks: block evaluations of the scenario SELECT
    /// that produced a whole fingerprint in one AST walk. Zero when the
    /// scalar tier is probing; `probe_evaluations / vector_walks` is the
    /// observed worlds-per-walk amortization (the fingerprint length).
    pub vector_walks: u64,
    /// Nanoseconds spent inside probe *evaluation* alone (the SELECT
    /// walk(s) that produce fingerprint columns), summed across parallel
    /// workers. Unlike [`probe_nanos`](EngineMetrics::probe_nanos), this
    /// excludes the correlation match scan and remapping, so it is the
    /// number the scalar-vs-vector executor comparison reads.
    pub probe_eval_nanos: u64,
    /// Typed-kernel executions inside the columnar tier: expression nodes
    /// whose whole world-block was computed on `f64`/`i64`/`bool` buffers
    /// (straight-line loops over typed slices). Zero unless
    /// [`EngineConfig::tier`](crate::engine::EngineConfig::tier) is
    /// [`ExecTier::Columnar`](crate::engine::ExecTier::Columnar).
    pub columnar_kernels: u64,
    /// Expression nodes the columnar tier had to evaluate through boxed
    /// `Value` cells (mixed/string columns, integer overflow promotion,
    /// VG functions without an `f64` batch lane). Zero on pure-numeric
    /// scenarios — the bench asserts exactly that on the bundled ones.
    pub column_fallbacks: u64,
    /// Alias references the columnar tier read through a selection vector
    /// (lanes copied out by index) instead of borrowing the whole column —
    /// across probe walks, simulation walks and the derived-column walks of
    /// re-mapped points. Zero on the bundled scenarios, whose every node
    /// stays on the whole-block path (`tests/vector_equivalence.rs` pins
    /// it): a non-zero count on them means a walk fell back onto the
    /// selection path.
    pub column_gathers: u64,
    /// VG call sites evaluated by columnar probe walks: one per catalog
    /// function invocation per probed point (Figure 2 has two per point),
    /// whether drawn or memo-served. Zero on the other tiers.
    pub probe_call_sites: u64,
    /// The subset of [`probe_call_sites`](EngineMetrics::probe_call_sites)
    /// answered from the engine's call-site memo — this argument tuple had
    /// already been drawn over the probe seed block — without touching the
    /// VG function. Exact at `threads == 1`; with concurrent probe workers
    /// two first sightings of one tuple may both draw.
    pub probe_call_sites_memoised: u64,
    /// The subset of [`probe_call_sites`](EngineMetrics::probe_call_sites)
    /// the memo did not serve whose lanes were replayed from the engine's
    /// draw-ledger store — the model keeps a ledger, so only streams the
    /// store had not yet seen (far enough) were drawn. What remains,
    /// `probe_call_sites − memoised − replayed`, was drawn call by call.
    pub probe_call_sites_replayed: u64,
    /// (candidate, probe) pairs that ran the full entry-by-entry
    /// correlation comparison during match scans: in a probe's
    /// exact-match window, or among the survivors of its branch-and-bound
    /// scan (a pair the window compared and the scan then kept counts
    /// twice). With the summary index on,
    /// `candidates_pruned / (candidates_scanned + candidates_pruned)` is
    /// the scan's prune rate.
    pub candidates_scanned: u64,
    /// (candidate, probe) pairs whose fingerprint-summary bound ruled the
    /// candidate out in the branch-and-bound scan, counted per probe: the
    /// bound proved it could not match at all, or could not beat the
    /// probe's best match of completed waves. Pairs nobody bounded are
    /// not counted — a probe its exact-match window answered bounds
    /// nothing, and a probe stops bounding at its first exact match.
    /// Zero when
    /// [`EngineConfig::match_index`](crate::engine::EngineConfig::match_index)
    /// is off. Deterministic: the indexed scan's pruning decisions do not
    /// depend on the thread count.
    pub candidates_pruned: u64,
    /// Probes answered from their exact-match window — the earliest
    /// source with total error 0, found by a binary search over the
    /// candidates' centred fingerprint keys — without running the
    /// branch-and-bound scan. Zero when
    /// [`EngineConfig::match_index`](crate::engine::EngineConfig::match_index)
    /// is off.
    pub window_hits: u64,
    /// Nanoseconds inside the correlation match scan (the candidate
    /// snapshot plus every probe's search over it, excluding probe
    /// evaluation and remapping) — the number the indexed-vs-exhaustive
    /// comparison reads. A batch's probes scan as parallel pool chunks, so
    /// like [`probe_eval_nanos`](EngineMetrics::probe_eval_nanos) this is
    /// a CPU sum across workers, not the wall clock a driver spent — but
    /// for the snapshot, which the driver takes alone, once per batch: that
    /// term is driver wall. It is a clone of the store's shared snapshot
    /// unless a source was published or evicted since the previous batch,
    /// so it is the one part of this counter that shrinks as a sweep runs
    /// out of new sources.
    pub match_scan_nanos: u64,
    /// Nanoseconds inside hit re-mapping, summed across parallel workers:
    /// the [`remaps`](EngineMetrics::remaps) — applying the detected
    /// mappings, recomputing the derived columns and taking the moments,
    /// for a recipe the engine's recipe memo had not seen. A memoised
    /// hit's lookup is not counted here; it is
    /// [`recipe_lookup_nanos`](EngineMetrics::recipe_lookup_nanos).
    pub remap_nanos: u64,
    /// Nanoseconds inside the recipe memo's lookups, summed across
    /// parallel workers: for every fingerprint hit, building its recipe
    /// key and finding (or filing) it in the engine's recipe memo — the
    /// remap a miss then runs excluded, which is
    /// [`remap_nanos`](EngineMetrics::remap_nanos). What a memoised hit
    /// costs; it runs in the match item, inside
    /// [`probe_nanos`](EngineMetrics::probe_nanos).
    pub recipe_lookup_nanos: u64,
    /// Fingerprint hits whose moments a remap computed: the engine's
    /// recipe memo had not seen their recipe (source, mappings and the
    /// derived items' parameters). With
    /// [`remaps_memoised`](EngineMetrics::remaps_memoised) it splits
    /// [`points_mapped`](EngineMetrics::points_mapped), except that a hit
    /// a cancel or a failed batch kept from publishing counts here only.
    /// Exact at any worker count while the memo has room: a recipe two
    /// workers miss at once is remapped by one while the other waits.
    pub remaps: u64,
    /// Fingerprint hits answered from the engine's recipe memo: their
    /// recipe's moments were already computed, so they built no samples.
    pub remaps_memoised: u64,
    /// Driver wall-clock nanoseconds publishing results in batch order:
    /// completing each claim into the basis store (insert, eviction,
    /// waking waiters) and assembling the reply. Sequential by design —
    /// publish order fixes insertion stamps — so this is the part of a
    /// batch no worker count shrinks.
    pub publish_nanos: u64,
    /// Evaluations served by blocking on another session's in-flight
    /// simulation of the same point (thundering-herd dedup).
    pub inflight_waits: u64,
    /// Points whose fingerprints were probed as part of a batch's probe
    /// phase (every claimed point of every batch with fingerprints on,
    /// a progressive estimate's included).
    pub batch_probes: u64,
    /// Pipeline wall-clock nanoseconds inside the probe/match/remap phase,
    /// publishing the hits included: the phase as the caller experiences
    /// it. The per-call CPU sums across parallel workers are
    /// [`probe_eval_nanos`](EngineMetrics::probe_eval_nanos),
    /// [`match_scan_nanos`](EngineMetrics::match_scan_nanos) and
    /// [`remap_nanos`](EngineMetrics::remap_nanos).
    pub probe_nanos: u64,
    /// Pipeline wall-clock nanoseconds inside the simulation phase,
    /// publishing the misses included.
    pub sim_nanos: u64,
    /// Nanoseconds inside simulation, summed across parallel workers
    /// — the CPU sum beside the wall-clock
    /// [`sim_nanos`](EngineMetrics::sim_nanos).
    pub sim_cpu_nanos: u64,
    /// Per-point fingerprint-probe latency distribution (one observation
    /// per [`Engine::probe_fingerprints`](crate::engine::Engine) call),
    /// log-bucketed so percentiles survive `since` windows — the totals
    /// above say how much work ran; this says how it was *distributed*,
    /// which is where a slow tail hides.
    pub probe_latency: LatencyHistogram,
    /// World-span simulation latency distribution (one observation per
    /// `Engine::simulate_world_span` call: a span of at most 100 worlds,
    /// or of a stop rule's `batch` worlds — never a whole point), same
    /// bucket table as
    /// [`probe_latency`](EngineMetrics::probe_latency).
    pub sim_latency: LatencyHistogram,
}

impl EngineMetrics {
    /// Total parameter points served.
    pub fn points_total(&self) -> u64 {
        self.points_cached + self.points_mapped + self.points_simulated
    }

    /// Fraction of points served without full simulation (cache + mapped).
    pub fn reuse_fraction(&self) -> f64 {
        let total = self.points_total();
        if total == 0 {
            0.0
        } else {
            (self.points_cached + self.points_mapped) as f64 / total as f64
        }
    }

    /// Difference since an earlier snapshot (for per-operation reporting).
    pub fn since(&self, earlier: &EngineMetrics) -> EngineMetrics {
        EngineMetrics::zip(self, earlier, |a, b| a - b)
    }

    /// The sum of two runs' counters (a session's jobs, one after another).
    pub(crate) fn plus(&self, other: &EngineMetrics) -> EngineMetrics {
        EngineMetrics::zip(self, other, |a, b| a + b)
    }

    /// Combine every counter of `a` and `b`, and every histogram bucket,
    /// with `f`.
    fn zip(a: &EngineMetrics, b: &EngineMetrics, f: impl Fn(u64, u64) -> u64) -> EngineMetrics {
        EngineMetrics {
            points_cached: f(a.points_cached, b.points_cached),
            points_mapped: f(a.points_mapped, b.points_mapped),
            points_simulated: f(a.points_simulated, b.points_simulated),
            worlds_simulated: f(a.worlds_simulated, b.worlds_simulated),
            probe_evaluations: f(a.probe_evaluations, b.probe_evaluations),
            vector_walks: f(a.vector_walks, b.vector_walks),
            probe_eval_nanos: f(a.probe_eval_nanos, b.probe_eval_nanos),
            columnar_kernels: f(a.columnar_kernels, b.columnar_kernels),
            column_fallbacks: f(a.column_fallbacks, b.column_fallbacks),
            column_gathers: f(a.column_gathers, b.column_gathers),
            probe_call_sites: f(a.probe_call_sites, b.probe_call_sites),
            probe_call_sites_memoised: f(a.probe_call_sites_memoised, b.probe_call_sites_memoised),
            probe_call_sites_replayed: f(a.probe_call_sites_replayed, b.probe_call_sites_replayed),
            candidates_scanned: f(a.candidates_scanned, b.candidates_scanned),
            candidates_pruned: f(a.candidates_pruned, b.candidates_pruned),
            window_hits: f(a.window_hits, b.window_hits),
            match_scan_nanos: f(a.match_scan_nanos, b.match_scan_nanos),
            remap_nanos: f(a.remap_nanos, b.remap_nanos),
            recipe_lookup_nanos: f(a.recipe_lookup_nanos, b.recipe_lookup_nanos),
            remaps: f(a.remaps, b.remaps),
            remaps_memoised: f(a.remaps_memoised, b.remaps_memoised),
            publish_nanos: f(a.publish_nanos, b.publish_nanos),
            inflight_waits: f(a.inflight_waits, b.inflight_waits),
            batch_probes: f(a.batch_probes, b.batch_probes),
            probe_nanos: f(a.probe_nanos, b.probe_nanos),
            sim_nanos: f(a.sim_nanos, b.sim_nanos),
            sim_cpu_nanos: f(a.sim_cpu_nanos, b.sim_cpu_nanos),
            probe_latency: a.probe_latency.zip(&b.probe_latency, &f),
            sim_latency: a.sim_latency.zip(&b.sim_latency, &f),
        }
    }
}

impl EngineMetrics {
    /// Fraction of bounded (candidate, probe) pairs the summary index
    /// pruned, in `[0, 1]`.
    pub fn prune_fraction(&self) -> f64 {
        let bounded = self.candidates_scanned + self.candidates_pruned;
        if bounded == 0 {
            0.0
        } else {
            self.candidates_pruned as f64 / bounded as f64
        }
    }
}

/// One run's work counters behind their leaf lock: a bare engine's own
/// (what the inline runner counts into, read by [`Engine::metrics`]), or
/// one job's (read by its handle's `progress`).
///
/// [`Engine::metrics`]: crate::engine::Engine::metrics
pub(crate) struct Counters(OrderedMutex<EngineMetrics>);

impl Counters {
    pub(crate) fn new() -> Self {
        Counters(OrderedMutex::new(ENGINE_METRICS, EngineMetrics::default()))
    }

    pub(crate) fn bump(&self, update: impl FnOnce(&mut EngineMetrics)) {
        update(&mut self.0.lock());
    }

    pub(crate) fn get(&self) -> EngineMetrics {
        *self.0.lock()
    }
}

/// Renders every counter as one `name value` row in two stable, aligned
/// columns (names left-justified to 20, values right-justified to 14), in
/// a fixed order — so bench logs and snapshot diffs line up counter for
/// counter across runs instead of drifting with ad-hoc prose. Times
/// render as milliseconds with two decimals; rates as percentages with
/// one; latency percentiles (the trailing block) as microseconds with
/// two, reporting the log-bucket ceiling each percentile landed in (see
/// `docs/OBSERVABILITY.md`). The exact format is pinned by a snapshot
/// test.
impl fmt::Display for EngineMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = |nanos: u64| nanos as f64 / 1e6;
        let us = |nanos: u64| format!("{:.2}", nanos as f64 / 1e3);
        let rows: [(&str, String); 35] = [
            ("points_simulated", self.points_simulated.to_string()),
            ("points_mapped", self.points_mapped.to_string()),
            ("points_cached", self.points_cached.to_string()),
            ("reuse_pct", format!("{:.1}", self.reuse_fraction() * 100.0)),
            ("worlds_simulated", self.worlds_simulated.to_string()),
            ("probe_evaluations", self.probe_evaluations.to_string()),
            ("vector_walks", self.vector_walks.to_string()),
            ("probe_eval_ms", format!("{:.2}", ms(self.probe_eval_nanos))),
            ("columnar_kernels", self.columnar_kernels.to_string()),
            ("column_fallbacks", self.column_fallbacks.to_string()),
            ("column_gathers", self.column_gathers.to_string()),
            ("probe_call_sites", self.probe_call_sites.to_string()),
            (
                "call_sites_memoised",
                self.probe_call_sites_memoised.to_string(),
            ),
            (
                "call_sites_replayed",
                self.probe_call_sites_replayed.to_string(),
            ),
            ("candidates_scanned", self.candidates_scanned.to_string()),
            ("candidates_pruned", self.candidates_pruned.to_string()),
            ("window_hits", self.window_hits.to_string()),
            ("prune_pct", format!("{:.1}", self.prune_fraction() * 100.0)),
            ("match_scan_ms", format!("{:.2}", ms(self.match_scan_nanos))),
            ("remap_ms", format!("{:.2}", ms(self.remap_nanos))),
            (
                "recipe_lookup_ms",
                format!("{:.2}", ms(self.recipe_lookup_nanos)),
            ),
            ("remaps", self.remaps.to_string()),
            ("remaps_memoised", self.remaps_memoised.to_string()),
            ("publish_ms", format!("{:.2}", ms(self.publish_nanos))),
            ("inflight_waits", self.inflight_waits.to_string()),
            ("batch_probes", self.batch_probes.to_string()),
            ("probe_phase_ms", format!("{:.2}", ms(self.probe_nanos))),
            ("sim_phase_ms", format!("{:.2}", ms(self.sim_nanos))),
            ("sim_cpu_ms", format!("{:.2}", ms(self.sim_cpu_nanos))),
            ("probe_p50_us", us(self.probe_latency.p50())),
            ("probe_p90_us", us(self.probe_latency.p90())),
            ("probe_p99_us", us(self.probe_latency.p99())),
            ("sim_p50_us", us(self.sim_latency.p50())),
            ("sim_p90_us", us(self.sim_latency.p90())),
            ("sim_p99_us", us(self.sim_latency.p99())),
        ];
        for (i, (name, value)) in rows.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{name:<20}{value:>14}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(nanos: &[u64]) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for &n in nanos {
            h.record(n);
        }
        h
    }

    #[test]
    fn totals_and_reuse_fraction() {
        let m = EngineMetrics {
            points_cached: 10,
            points_mapped: 30,
            points_simulated: 60,
            ..EngineMetrics::default()
        };
        assert_eq!(m.points_total(), 100);
        assert!((m.reuse_fraction() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_metrics_have_zero_reuse() {
        let m = EngineMetrics::default();
        assert_eq!(m.reuse_fraction(), 0.0);
        assert_eq!(m.points_total(), 0);
    }

    #[test]
    fn merge_and_since_are_inverse_ish() {
        let a = EngineMetrics {
            points_simulated: 5,
            worlds_simulated: 500,
            probe_evaluations: 32,
            ..EngineMetrics::default()
        };
        let b = EngineMetrics {
            points_mapped: 3,
            probe_evaluations: 32 + 96,
            ..a
        };
        let diff = b.since(&a);
        assert_eq!(diff.points_mapped, 3);
        assert_eq!(diff.probe_evaluations, 96);
        assert_eq!(diff.points_simulated, 0);
    }

    #[test]
    fn executor_counters_merge_and_diff() {
        let a = EngineMetrics {
            inflight_waits: 2,
            batch_probes: 10,
            vector_walks: 7,
            probe_eval_nanos: 2_000,
            columnar_kernels: 20,
            column_fallbacks: 2,
            probe_call_sites: 14,
            probe_call_sites_memoised: 9,
            probe_call_sites_replayed: 3,
            candidates_scanned: 40,
            candidates_pruned: 60,
            window_hits: 7,
            match_scan_nanos: 800,
            remap_nanos: 300,
            recipe_lookup_nanos: 90,
            publish_nanos: 120,
            probe_nanos: 1_000,
            sim_nanos: 5_000,
            ..EngineMetrics::default()
        };
        let b = EngineMetrics {
            inflight_waits: 3,
            batch_probes: 15,
            vector_walks: 10,
            probe_eval_nanos: 3_000,
            columnar_kernels: 25,
            column_fallbacks: 3,
            probe_call_sites: 20,
            probe_call_sites_memoised: 13,
            probe_call_sites_replayed: 5,
            candidates_scanned: 44,
            candidates_pruned: 66,
            window_hits: 9,
            match_scan_nanos: 1_000,
            remap_nanos: 400,
            recipe_lookup_nanos: 130,
            publish_nanos: 150,
            probe_nanos: 1_500,
            sim_nanos: 5_500,
            ..EngineMetrics::default()
        };
        let diff = b.since(&a);
        assert_eq!(diff.inflight_waits, 1);
        assert_eq!(diff.batch_probes, 5);
        assert_eq!(diff.vector_walks, 3);
        assert_eq!(diff.probe_eval_nanos, 1_000);
        assert_eq!(diff.columnar_kernels, 5);
        assert_eq!(diff.column_fallbacks, 1);
        assert_eq!(diff.probe_call_sites, 6);
        assert_eq!(diff.probe_call_sites_memoised, 4);
        assert_eq!(diff.probe_call_sites_replayed, 2);
        assert_eq!(diff.candidates_scanned, 4);
        assert_eq!(diff.candidates_pruned, 6);
        assert_eq!(diff.window_hits, 2);
        assert_eq!(diff.match_scan_nanos, 200);
        assert_eq!(diff.remap_nanos, 100);
        assert_eq!(diff.recipe_lookup_nanos, 40);
        assert_eq!(diff.publish_nanos, 30);
        assert_eq!(diff.probe_nanos, 500);
        assert_eq!(diff.sim_nanos, 500);
    }

    #[test]
    fn display_mentions_the_key_numbers() {
        let m = EngineMetrics {
            points_mapped: 7,
            points_simulated: 3,
            worlds_simulated: 1200,
            ..EngineMetrics::default()
        };
        let s = m.to_string();
        assert!(s.contains("points_simulated"));
        assert!(s.contains("points_mapped"));
        assert!(s.contains("70.0"), "reuse percentage rendered: {s}");
        assert!(s.contains("1200"));
    }

    /// The `Display` format is a stability contract: bench diffs read it.
    /// Every counter is one `name value` row, names padded to 20, values
    /// right-justified to 14, fixed order, times in ms.
    #[test]
    fn display_snapshot_is_stable_and_aligned() {
        let m = EngineMetrics {
            points_cached: 1,
            points_mapped: 2,
            points_simulated: 5,
            worlds_simulated: 320,
            probe_evaluations: 48,
            vector_walks: 6,
            probe_eval_nanos: 1_250_000,
            columnar_kernels: 210,
            column_fallbacks: 0,
            column_gathers: 3,
            probe_call_sites: 12,
            probe_call_sites_memoised: 5,
            probe_call_sites_replayed: 4,
            candidates_scanned: 30,
            candidates_pruned: 90,
            window_hits: 6,
            match_scan_nanos: 2_500_000,
            remap_nanos: 1_750_000,
            recipe_lookup_nanos: 420_000,
            remaps: 1,
            remaps_memoised: 1,
            publish_nanos: 640_000,
            inflight_waits: 4,
            batch_probes: 7,
            probe_nanos: 3_000_000,
            sim_nanos: 12_345_678,
            sim_cpu_nanos: 15_500_000,
            // Log-bucketed: 800 and 1600 ns land in the 1023/2047 buckets,
            // 200 µs in the 262143 bucket — so p50 reads 2047 ns (2.05 µs)
            // and p90/p99 read 262143 ns (262.14 µs).
            probe_latency: hist(&[800, 1_600, 200_000]),
            sim_latency: hist(&[1_000_000, 2_000_000, 4_000_000]),
        };
        let expected = "\
points_simulated                 5
points_mapped                    2
points_cached                    1
reuse_pct                     37.5
worlds_simulated               320
probe_evaluations               48
vector_walks                     6
probe_eval_ms                 1.25
columnar_kernels               210
column_fallbacks                 0
column_gathers                   3
probe_call_sites                12
call_sites_memoised              5
call_sites_replayed              4
candidates_scanned              30
candidates_pruned               90
window_hits                      6
prune_pct                     75.0
match_scan_ms                 2.50
remap_ms                      1.75
recipe_lookup_ms              0.42
remaps                           1
remaps_memoised                  1
publish_ms                    0.64
inflight_waits                   4
batch_probes                     7
probe_phase_ms                3.00
sim_phase_ms                 12.35
sim_cpu_ms                   15.50
probe_p50_us                  2.05
probe_p90_us                262.14
probe_p99_us                262.14
sim_p50_us                 2097.15
sim_p90_us                 4194.30
sim_p99_us                 4194.30";
        assert_eq!(m.to_string(), expected);
        // Alignment invariant: every row is exactly 34 columns wide.
        for line in m.to_string().lines() {
            assert_eq!(line.len(), 34, "row {line:?} drifted");
        }
    }

    /// Completeness audit for `since` and `plus`: construct a metrics
    /// value with **every** field nonzero (no `..Default::default()` —
    /// adding a field to `EngineMetrics` breaks this constructor until the
    /// test is updated), then check `m - 0 == m`, `m - m == 0`,
    /// `0 + m == m` and `m + m - m == m`. A counter `since` zeroes fails
    /// the first; one it copies instead of subtracting fails the second;
    /// `plus` likewise fails the last two.
    #[test]
    fn merge_and_since_cover_every_field() {
        let m = EngineMetrics {
            points_cached: 1,
            points_mapped: 2,
            points_simulated: 3,
            worlds_simulated: 4,
            probe_evaluations: 5,
            vector_walks: 6,
            probe_eval_nanos: 7,
            columnar_kernels: 8,
            column_fallbacks: 9,
            column_gathers: 26,
            probe_call_sites: 21,
            probe_call_sites_memoised: 22,
            probe_call_sites_replayed: 25,
            candidates_scanned: 10,
            candidates_pruned: 11,
            window_hits: 27,
            match_scan_nanos: 12,
            remap_nanos: 23,
            recipe_lookup_nanos: 30,
            remaps: 28,
            remaps_memoised: 29,
            publish_nanos: 24,
            inflight_waits: 13,
            batch_probes: 14,
            probe_nanos: 15,
            sim_nanos: 16,
            sim_cpu_nanos: 17,
            probe_latency: hist(&[19]),
            sim_latency: hist(&[20, 1 << 20]),
        };
        assert_ne!(m, EngineMetrics::default(), "fixture must be nonzero");
        assert_eq!(
            m.since(&EngineMetrics::default()),
            m,
            "since zeroed a field"
        );
        assert_eq!(
            m.since(&m),
            EngineMetrics::default(),
            "since copied a field instead of subtracting it"
        );
        assert_eq!(EngineMetrics::default().plus(&m), m, "plus dropped a field");
        assert_eq!(
            m.plus(&m).since(&m),
            m,
            "plus copied a field instead of adding it"
        );
    }
}
