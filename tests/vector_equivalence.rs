//! Tier differential suite: the typed columnar tier is *defined* by
//! bit-identity with the scalar executor, and this file is the contract's
//! enforcement — columnar against the scalar reference directly.
//!
//! Coverage:
//!
//! * every bundled scenario (Figure 2 plus the four example scenarios),
//!   asserting bit-identical fingerprints *and* estimation samples across
//!   [`ExecTier::Columnar`] and [`ExecTier::Scalar`] engines walking the
//!   same evaluation sequence — and that the columnar tier never falls
//!   back to boxed values on any of them;
//! * a seeded property loop at the SQL layer over random world-block
//!   sizes — 1, 2, the fingerprint length `L`, and non-multiples of `L` —
//!   asserting per-world equality between one block walk and per-world
//!   scalar walks;
//! * a second seeded property loop over *random expressions* — NULL
//!   literals, alias references, conditional VG calls inside CASE arms,
//!   three-valued AND/OR/NOT, CASE masks with and without ELSE, odd block
//!   sizes — and a fixed list of `CASE` shapes on both sides of the dense
//!   blend rule at block lengths straddling the null-mask word, each
//!   SELECT walked three ways: whole-block (dense where the rule allows),
//!   with every item forced under a selection vector naming the same
//!   lanes, and world by world on the scalar tier — lanes, NULL masks,
//!   samples, node accounting, VG invocations and error messages equal;
//! * thread-count independence of the block tier (samples and work
//!   counters equal under `threads: 1` and `threads: 8`, both equal to a
//!   single-threaded scalar engine);
//! * the columnar tier's two fingerprint-phase shortcuts against the
//!   scalar tier, which has neither: the **block remap** (derived columns
//!   of a mapped point recomputed in one walk — every bundled scenario,
//!   plus NaN sample lanes, derived-on-derived aliases and an always-NULL
//!   item) and the **call-site probe memo** (store contents byte-identical
//!   at 1 and 8 threads, forwards and reversed; call sites under a `CASE`
//!   arm or fed by a stochastic alias never memo-served);
//! * the **per-world `invoke` lane**: a model that implements only
//!   `invoke` is a typed kernel — never a boxed fallback, memo-served like
//!   any other — bit-identical across the tiers and across the inline and
//!   pooled runners, NaN samples included;
//! * the **draw-ledger store**, warm as well as cold: one long-lived
//!   columnar engine per bundled scenario walks the grid forwards,
//!   reversed and shuffled, at 1 and 8 threads, against the scalar tier —
//!   outcomes, chosen sources, samples and store bytes; simulation walks
//!   are handed the store as probe walks are.

use std::collections::HashMap;
use std::sync::Arc;

use fuzzy_prophet::prelude::*;
use prophet_data::{DataResult, Value};
use prophet_mc::guide::GridGuide;
use prophet_models::scenarios::{
    figure2_coarse_sql, INVENTORY_POLICY, PRICING_WHATIF, SUPPORT_STAFFING,
};
use prophet_models::{demo_registry, full_registry};
use prophet_sql::columnar::{evaluate_select_columns, to_f64_samples, Column, ColumnarStats};
use prophet_sql::executor::{evaluate_select_with, sample_f64, WorldRng};
use prophet_sql::parser::parse_script;
use prophet_sql::{Expr, SelectInto, SelectItem};
use prophet_vg::rng::{Rng64, Xoshiro256StarStar};
use prophet_vg::{SeedManager, VgFunction, VgRegistry};

/// The five bundled scenarios with a registry factory and a few probe
/// points spread across each parameter space.
fn bundled_scenarios() -> Vec<(&'static str, Scenario, VgRegistryKind, Vec<ParamPoint>)> {
    vec![
        (
            "figure2",
            Scenario::figure2().unwrap(),
            VgRegistryKind::Demo,
            vec![
                ParamPoint::from_pairs([
                    ("current", 5i64),
                    ("purchase1", 16),
                    ("purchase2", 36),
                    ("feature", 12),
                ]),
                ParamPoint::from_pairs([
                    ("current", 5i64),
                    ("purchase1", 16),
                    ("purchase2", 36),
                    ("feature", 36),
                ]),
                ParamPoint::from_pairs([
                    ("current", 50i64),
                    ("purchase1", 0),
                    ("purchase2", 4),
                    ("feature", 44),
                ]),
            ],
        ),
        (
            "figure2-coarse",
            Scenario::parse(&figure2_coarse_sql(0.05)).unwrap(),
            VgRegistryKind::Demo,
            vec![
                ParamPoint::from_pairs([
                    ("current", 10i64),
                    ("purchase1", 8),
                    ("purchase2", 24),
                    ("feature", 12),
                ]),
                ParamPoint::from_pairs([
                    ("current", 10i64),
                    ("purchase1", 8),
                    ("purchase2", 24),
                    ("feature", 36),
                ]),
            ],
        ),
        (
            "inventory",
            Scenario::parse(INVENTORY_POLICY).unwrap(),
            VgRegistryKind::Full,
            vec![
                ParamPoint::from_pairs([
                    ("week", 12i64),
                    ("reorder_point", 200),
                    ("reorder_qty", 300),
                ]),
                ParamPoint::from_pairs([
                    ("week", 12i64),
                    ("reorder_point", 240),
                    ("reorder_qty", 300),
                ]),
            ],
        ),
        (
            "pricing",
            Scenario::parse(PRICING_WHATIF).unwrap(),
            VgRegistryKind::Full,
            vec![
                ParamPoint::from_pairs([("week", 24i64), ("price", 20)]),
                ParamPoint::from_pairs([("week", 24i64), ("price", 22)]),
            ],
        ),
        (
            "staffing",
            Scenario::parse(SUPPORT_STAFFING).unwrap(),
            VgRegistryKind::Full,
            vec![
                ParamPoint::from_pairs([("week", 24i64), ("agents", 10)]),
                ParamPoint::from_pairs([("week", 24i64), ("agents", 11)]),
            ],
        ),
    ]
}

enum VgRegistryKind {
    Demo,
    Full,
}

impl VgRegistryKind {
    fn build(&self) -> prophet_vg::VgRegistry {
        match self {
            VgRegistryKind::Demo => demo_registry(),
            VgRegistryKind::Full => full_registry(),
        }
    }
}

/// One engine per execution tier, identical otherwise.
fn engine_pair(scenario: &Scenario, kind: &VgRegistryKind) -> [Engine; 2] {
    let config = EngineConfig {
        worlds_per_point: 48,
        ..EngineConfig::default()
    };
    TIERS.map(|tier| Engine::new(scenario, kind.build(), EngineConfig { tier, ..config }).unwrap())
}

/// Tier order used throughout: columnar first (the default), then the
/// scalar reference.
const TIERS: [ExecTier; 2] = [ExecTier::Columnar, ExecTier::Scalar];

/// Every bundled scenario: same outcomes, bit-identical samples, and the
/// same store contents (the stored fingerprints drove identical matching)
/// across the columnar and scalar tiers — and the columnar tier stays
/// fully typed (`column_fallbacks == 0`) on all five.
#[test]
fn all_bundled_scenarios_are_bit_identical_across_tiers() {
    for (name, scenario, kind, points) in bundled_scenarios() {
        let [columnar, scalar] = engine_pair(&scenario, &kind);
        let columns = columnar.output_columns();
        for point in &points {
            let (sc, oc) = columnar.evaluate(point).unwrap();
            let (ss, os) = scalar.evaluate(point).unwrap();
            assert_eq!(oc, os, "[{name}] outcome at {point}");
            for col in columns {
                assert_eq!(
                    sc.samples(col),
                    ss.samples(col),
                    "[{name}] column `{col}` at {point}"
                );
            }
        }
        let mc = columnar.metrics();
        let ms = scalar.metrics();
        assert_eq!(
            mc.probe_evaluations, ms.probe_evaluations,
            "[{name}] logical probe accounting must not depend on the tier"
        );
        assert_eq!(mc.points_simulated, ms.points_simulated, "[{name}]");
        assert_eq!(mc.worlds_simulated, ms.worlds_simulated, "[{name}]");
        assert!(
            mc.vector_walks > 0 && ms.vector_walks == 0,
            "[{name}] only the block tier block-walks"
        );
        assert!(
            mc.columnar_kernels > 0,
            "[{name}] the columnar engine ran typed kernels"
        );
        assert_eq!(
            mc.column_fallbacks, 0,
            "[{name}] every bundled scenario is fully typed — no boxed fallbacks"
        );
        assert_eq!(ms.columnar_kernels, 0, "[{name}]");
    }
}

/// Fingerprints are probed under the canonical seed block: force both
/// tiers through a *miss* (distinct stores) and compare what each
/// published to its basis store for matching.
#[test]
fn probed_fingerprints_are_bit_identical() {
    for (name, scenario, kind, points) in bundled_scenarios() {
        let [columnar, scalar] = engine_pair(&scenario, &kind);
        let point = &points[0];
        columnar.evaluate(point).unwrap();
        scalar.evaluate(point).unwrap();
        // The engines now map *from* the published entries: if the
        // stored fingerprints differed at all, matching (which compares
        // probe columns entry-by-entry) would disagree somewhere across
        // the remaining points.
        for p in &points[1..] {
            let (cs, co) = columnar.evaluate(p).unwrap();
            let (ss, so) = scalar.evaluate(p).unwrap();
            assert_eq!(co, so, "[{name}] mapping decision at {p}");
            for col in columnar.output_columns() {
                assert_eq!(cs.samples(col), ss.samples(col), "[{name}] {col} at {p}");
            }
        }
    }
}

/// SQL-layer property loop: for random parameter points and random block
/// sizes (1, 2, the fingerprint length L, and non-multiples of L), one
/// block walk equals per-world scalar walks bit for bit.
#[test]
fn random_world_blocks_match_scalar_walks() {
    let scenario = Scenario::figure2().unwrap();
    let select = &scenario.script().select;
    let registry = demo_registry();
    let fp_len = FingerprintLen::default().0;
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xB10C_5EED);

    // Deterministic seeded loop (the repo's proptest substitute).
    for round in 0..24 {
        let block_len = match round % 6 {
            0 => 1,
            1 => 2,
            2 => fp_len,                             // L
            3 => fp_len + 3,                         // non-multiple of L
            4 => 2 * fp_len - 1,                     // spans >1 "L block"
            _ => 1 + (rng.next_u64() % 97) as usize, // arbitrary
        };
        let worlds: Vec<u64> = (0..block_len).map(|_| rng.next_u64() >> 1).collect();
        let params: HashMap<String, Value> = HashMap::from([
            ("current".into(), Value::Int((rng.next_u64() % 53) as i64)),
            ("purchase1".into(), Value::Int((rng.next_u64() % 53) as i64)),
            ("purchase2".into(), Value::Int((rng.next_u64() % 53) as i64)),
            ("feature".into(), Value::Int(12)),
        ]);
        let seeds = SeedManager::new(rng.next_u64());

        let (typed, _) =
            evaluate_select_columns(select, &registry, &params, seeds, &worlds).unwrap();
        for (slot, &world) in worlds.iter().enumerate() {
            let row =
                evaluate_select_with(select, &registry, &params, WorldRng::per_call(seeds, world))
                    .unwrap();
            assert_eq!(typed.len(), row.len());
            for ((alias, column), (scalar_alias, scalar_value)) in typed.iter().zip(&row) {
                assert_eq!(alias, scalar_alias);
                assert!(
                    bit_eq(&column.value_at(slot), scalar_value),
                    "round {round}, block_len {block_len}, world {world}, column {alias}"
                );
            }
        }
    }
}

/// Bit-level `Value` equality: floats compare by representation so a NaN
/// lane (possible under generated expressions) still counts as equal to
/// itself across tiers.
fn bit_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// Wrapper so the test reads "fingerprint length L" without reaching into
/// engine internals.
struct FingerprintLen(usize);

impl Default for FingerprintLen {
    fn default() -> Self {
        FingerprintLen(EngineConfig::default().fingerprint.length)
    }
}

/// The block tier must stay thread-count independent: same samples, same
/// work counters under 1 and 8 threads, all bit-identical to a
/// single-threaded scalar engine (the acceptance bar for the typed tier).
#[test]
fn block_tiers_are_thread_count_independent() {
    let scenario = Scenario::figure2().unwrap();
    let make = |tier: ExecTier, threads: usize| {
        Engine::new(
            &scenario,
            demo_registry(),
            EngineConfig {
                worlds_per_point: 64,
                threads,
                tier,
                ..EngineConfig::default()
            },
        )
        .unwrap()
    };
    let points: Vec<ParamPoint> = (0..6)
        .map(|i| {
            ParamPoint::from_pairs([
                ("current", 4 * i as i64),
                ("purchase1", 16),
                ("purchase2", 36),
                ("feature", 12),
            ])
        })
        .collect();
    let reference = make(ExecTier::Scalar, 1);
    let expected = reference.evaluate_batch(&points).unwrap();
    for threads in [1usize, 8] {
        let engine = make(ExecTier::Columnar, threads);
        let got = engine.evaluate_batch(&points).unwrap();
        for (i, ((sa, oa), (sb, ob))) in expected.iter().zip(&got).enumerate() {
            assert_eq!(oa, ob, "x{threads} point #{i}");
            for col in reference.output_columns() {
                assert_eq!(
                    sa.samples(col),
                    sb.samples(col),
                    "x{threads} point #{i} {col}"
                );
            }
        }
        assert_eq!(
            engine.metrics().worlds_simulated,
            reference.metrics().worlds_simulated,
            "x{threads}"
        );
        assert_eq!(
            engine.metrics().probe_evaluations,
            reference.metrics().probe_evaluations,
            "x{threads}"
        );
    }
}

/// The block tier's logical VG accounting matches the scalar tier's: a
/// batched call of `n` worlds counts `n` invocations in the catalog.
#[test]
fn vg_invocation_accounting_is_tier_independent() {
    let scenario = Scenario::figure2().unwrap();
    let point = ParamPoint::from_pairs([
        ("current", 10i64),
        ("purchase1", 16),
        ("purchase2", 36),
        ("feature", 12),
    ]);
    let run = |tier: ExecTier| {
        let registry = demo_registry();
        let engine = Engine::new(
            &scenario,
            registry,
            EngineConfig {
                worlds_per_point: 32,
                tier,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        engine.evaluate(&point).unwrap();
        let reg = engine.registry();
        (
            reg.stats("DemandModel").unwrap(),
            reg.stats("CapacityModel").unwrap(),
        )
    };
    let (cd, cc) = run(ExecTier::Columnar);
    let (sd, sc) = run(ExecTier::Scalar);
    assert_eq!(cd.invocations, sd.invocations, "DemandModel logical count");
    assert_eq!(
        cc.invocations, sc.invocations,
        "CapacityModel logical count"
    );
    assert!(cd.batched_calls > 0, "columnar tier used the batch path");
    assert_eq!(sd.batched_calls, 0, "scalar tier never batches");
}

/// Deterministic random-expression generator for the cross-tier property
/// loop. Produces numeric select items mixing NULL literals, parameters,
/// integer/float literals, arithmetic (including `/` and `%`, whose
/// zero-divisor lanes go NULL), `CASE` masks with and without `ELSE`,
/// three-valued AND/OR/NOT conditions, and conditionally-reached VG calls
/// (`Normal`/`Poisson`/`Triangular` — always with valid, non-NULL
/// arguments, since distribution parameters reject NULL by contract).
struct ExprGen {
    rng: Xoshiro256StarStar,
    vg_budget: u32,
    vg_emitted: u32,
    /// Items already generated: `c0..c{aliases}` are in scope.
    aliases: u64,
}

impl ExprGen {
    fn roll(&mut self, n: u64) -> u64 {
        self.rng.next_u64() % n
    }

    fn vg_call(&mut self) -> String {
        self.vg_budget -= 1;
        self.vg_emitted += 1;
        match self.roll(3) {
            0 => "Normal(@a, 2.5)".into(),
            1 => "Poisson(6.5)".into(),
            _ => "Triangular(0.0, 2.0, 10.0)".into(),
        }
    }

    fn numeric(&mut self, depth: u32) -> String {
        if depth == 0 || self.roll(100) < 25 {
            return match self.roll(7) {
                0 => format!("{}", self.roll(2001) as i64 - 1000),
                1 => format!("{}.5", self.roll(40)),
                2 => "@a".into(),
                3 => "@b".into(),
                4 => "NULL".into(),
                5 if self.aliases > 0 => format!("c{}", self.roll(self.aliases)),
                _ => format!("{}", self.roll(7)),
            };
        }
        if self.vg_budget > 0 && self.roll(100) < 25 {
            return self.vg_call();
        }
        if self.roll(100) < 35 {
            let cond = self.boolean(depth - 1);
            let then = self.numeric(depth - 1);
            return if self.roll(2) == 0 {
                let els = self.numeric(depth - 1);
                format!("CASE WHEN {cond} THEN {then} ELSE {els} END")
            } else {
                // No ELSE: unmatched lanes are NULL.
                format!("CASE WHEN {cond} THEN {then} END")
            };
        }
        let op = ["+", "-", "*", "/", "%"][self.roll(5) as usize];
        let lhs = self.numeric(depth - 1);
        let rhs = self.numeric(depth - 1);
        format!("({lhs} {op} {rhs})")
    }

    fn boolean(&mut self, depth: u32) -> String {
        if depth == 0 || self.roll(100) < 45 {
            let op = ["<", "<=", ">", ">=", "=", "<>"][self.roll(6) as usize];
            let lhs = self.numeric(0);
            let rhs = self.numeric(0);
            return format!("{lhs} {op} {rhs}");
        }
        match self.roll(3) {
            0 => format!(
                "({} AND {})",
                self.boolean(depth - 1),
                self.boolean(depth - 1)
            ),
            1 => format!(
                "({} OR {})",
                self.boolean(depth - 1),
                self.boolean(depth - 1)
            ),
            _ => format!("NOT ({})", self.boolean(depth - 1)),
        }
    }
}

/// `CASE WHEN TRUE THEN e END`: `e`'s lanes, evaluated under a selection
/// vector that names every lane of the block.
fn under_selection(e: Expr) -> Expr {
    Expr::Case {
        whens: vec![(Expr::Literal(Value::Bool(true)), e)],
        otherwise: None,
    }
}

/// The same SELECT with every item forced off the whole-block path, and
/// per item the number of `CASE` nodes that took. An arm that is not a
/// leaf keeps its `CASE` on the selection path and is itself evaluated for
/// a lane list; a leaf is first wrapped into such an arm.
fn force_selection(select: &SelectInto) -> (SelectInto, Vec<u64>) {
    let (items, wrappers) = select
        .items
        .iter()
        .map(|item| {
            let leaf = matches!(
                item.expr,
                Expr::Literal(_) | Expr::Param(_) | Expr::Column(_)
            );
            let arm = if leaf {
                under_selection(item.expr.clone())
            } else {
                item.expr.clone()
            };
            let item = SelectItem {
                expr: under_selection(arm),
                alias: item.alias.clone(),
            };
            (item, 1 + leaf as u64)
        })
        .unzip();
    let forced = SelectInto {
        items,
        target: select.target.clone(),
    };
    (forced, wrappers)
}

/// Walk `src`'s SELECT three ways over `worlds` — (a) whole-block, (b)
/// [`force_selection`], (c) world by world on the scalar tier — and hold
/// them to one answer: lanes and NULLs, `f64` samples, column
/// representation, `kernels` / `fallbacks` (b's wrappers accounted for),
/// per-distribution VG invocations (which is where a per-slot call counter
/// gone astray would show, along with every later draw), and — when the
/// SELECT fails — the message. Returns (a)'s and (b)'s accounting.
fn assert_three_walks_agree(
    src: &str,
    params: &HashMap<String, Value>,
    seeds: SeedManager,
    worlds: &[u64],
) -> Option<[ColumnarStats; 2]> {
    let script = parse_script(src).unwrap_or_else(|e| panic!("`{src}`: {e}"));
    let (forced, wrappers) = force_selection(&script.select);
    let [reg_a, reg_b, reg_c] = [(); 3].map(|_| full_registry());
    let dense = evaluate_select_columns(&script.select, &reg_a, params, seeds, worlds);
    let selected = evaluate_select_columns(&forced, &reg_b, params, seeds, worlds);
    let rows: Vec<_> = worlds
        .iter()
        .map(|&world| {
            let rng = WorldRng::per_call(seeds, world);
            evaluate_select_with(&script.select, &reg_c, params, rng)
        })
        .collect();

    let (dense, dense_stats) = match dense {
        Ok(walk) => walk,
        Err(e) => {
            let e = e.to_string();
            assert_eq!(
                selected.err().map(|e| e.to_string()),
                Some(e.clone()),
                "`{src}`"
            );
            let scalar = rows.into_iter().find_map(Result::err);
            assert_eq!(scalar.map(|e| e.to_string()), Some(e), "`{src}`");
            return None;
        }
    };
    let (selected, selected_stats) = selected.unwrap_or_else(|e| panic!("`{src}` forced: {e}"));
    let (mut kernels, mut fallbacks) = (dense_stats.kernels, dense_stats.fallbacks);
    for (((alias, a), (_, b)), nodes) in dense.iter().zip(&selected).zip(&wrappers) {
        assert_eq!(
            std::mem::discriminant(a),
            std::mem::discriminant(b),
            "`{src}` column {alias}: {a:?} vs {b:?}"
        );
        // A wrapper's merge is typed exactly when its one piece is.
        if matches!(a, Column::Boxed(_)) {
            fallbacks += nodes;
        } else {
            kernels += nodes;
        }
        let bits = |c: &Column| {
            to_f64_samples(c)
                .map(|xs| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
                .map_err(|e| e.to_string())
        };
        assert_eq!(bits(a), bits(b), "`{src}` column {alias} samples");
        for (slot, row) in rows.iter().enumerate() {
            let world = worlds[slot];
            let row = row
                .as_ref()
                .unwrap_or_else(|e| panic!("`{src}` world {world}: {e}"));
            let (_, scalar) = row.iter().find(|(name, _)| name == alias).unwrap();
            for (walk, column) in [("whole-block", a), ("selected", b)] {
                let typed = column.value_at(slot);
                assert!(
                    bit_eq(&typed, scalar),
                    "`{src}` world {world} column {alias}: {walk} {typed:?} != scalar {scalar:?}"
                );
            }
            if let Ok(xs) = bits(a) {
                assert_eq!(
                    xs[slot],
                    sample_f64(scalar).unwrap().to_bits(),
                    "`{src}` {alias}"
                );
            }
        }
    }
    assert_eq!(
        (selected_stats.kernels, selected_stats.fallbacks),
        (kernels, fallbacks),
        "`{src}`: node for node, the selected walk is the whole-block walk plus its wrappers"
    );
    for dist in ["Normal", "Poisson", "Triangular"] {
        let [a, b, c] = [&reg_a, &reg_b, &reg_c].map(|r| r.stats(dist).unwrap());
        assert_eq!(
            a.invocations, c.invocations,
            "`{src}`: whole-block {dist} count"
        );
        assert_eq!(
            b.invocations, c.invocations,
            "`{src}`: selected {dist} count"
        );
        assert_eq!(c.batched_calls, 0, "scalar walks never batch");
    }
    Some([dense_stats, selected_stats])
}

/// Seeded property loop over random expressions: the whole-block walk, the
/// forced-selection walk and per-world scalar evaluation must agree bit
/// for bit — values (NaN lanes included), NULL placement, node and
/// per-function VG invocation accounting — across block sizes that are
/// deliberately odd (the autovectorized kernels' tail loops run).
#[test]
fn random_expressions_are_bit_identical_across_tiers() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xC01_FACE);
    let mut total_vg_calls = 0u32;
    let mut gathered = 0u64;
    for round in 0..40u32 {
        let mut gen = ExprGen {
            rng: Xoshiro256StarStar::seed_from_u64(rng.next_u64()),
            vg_budget: 4,
            vg_emitted: 0,
            aliases: 0,
        };
        let n_cols = 1 + gen.roll(3);
        let mut items = Vec::new();
        for i in 0..n_cols {
            items.push(format!("{} AS c{i}", gen.numeric(3)));
            gen.aliases = i + 1;
        }
        let src = format!(
            "DECLARE PARAMETER @a AS SET (0);\nDECLARE PARAMETER @b AS SET (0);\n\
             SELECT {} INTO out;",
            items.join(", ")
        );
        total_vg_calls += gen.vg_emitted;

        let block_len = [1usize, 2, 7, 9, 16, 31, 33, 100][(round % 8) as usize];
        let worlds: Vec<u64> = (0..block_len).map(|_| rng.next_u64() >> 1).collect();
        let params: HashMap<String, Value> = HashMap::from([
            ("a".into(), Value::Int((rng.next_u64() % 91) as i64 - 45)),
            ("b".into(), Value::Int((rng.next_u64() % 13) as i64)),
        ]);
        let seeds = SeedManager::new(rng.next_u64());
        let [_, selected] = assert_three_walks_agree(&src, &params, seeds, &worlds)
            .unwrap_or_else(|| panic!("round {round} `{src}` must evaluate"));
        gathered += selected.gathers;
    }
    assert!(
        total_vg_calls > 20,
        "the generator must actually exercise VG calls (got {total_vg_calls})"
    );
    assert!(gathered > 0, "the forced walks must read aliases by index");
}

/// `CASE` on both sides of the blend rule — leaf arms, which the
/// whole-block walk blends without a selection vector, and every arm
/// shape that must not be — at block lengths around the null mask's
/// 64-lane word. `u` is a draw near `@a`, so both arms are usually
/// reached; `holes` is NULL where `u >= @a`.
#[test]
fn case_shapes_agree_across_dense_selected_and_scalar_walks() {
    // (items after `u` and `holes`, whether the whole-block walk stays
    // gather-free)
    let shapes: [(&str, bool); 16] = [
        ("CASE WHEN u < @a THEN 1 ELSE 0 END AS v", true),
        ("CASE WHEN u < @a THEN u ELSE @b END AS v", true),
        ("CASE WHEN u < @a THEN u END AS v", true),
        (
            "CASE WHEN u < @a THEN 1 ELSE 2.5 END AS mixed_falls_back",
            true,
        ),
        (
            "CASE WHEN u < @a + 100 THEN 1 ELSE 2.5 END AS one_kind_reached",
            true,
        ),
        ("CASE WHEN NULL THEN 1 ELSE 0 END AS v", true),
        (
            "CASE WHEN holes > @a - 1 THEN holes ELSE 0.5 END AS null_condition_lanes",
            true,
        ),
        (
            "CASE WHEN holes > @a - 1 THEN 1 ELSE holes END AS null_arm_lanes",
            true,
        ),
        (
            "u < @a - 1 AS low, CASE WHEN u < @a THEN low ELSE TRUE END AS v",
            true,
        ),
        (
            "CASE WHEN u > @a + 100 THEN @unbound ELSE 7 END AS unreached_leaf",
            true,
        ),
        (
            "CASE WHEN u < @a THEN 1 / 0 ELSE 7 / (@b - @b + 2) END AS v",
            true,
        ),
        (
            "CASE WHEN u < @a THEN 9223372036854775807 * 2 ELSE 1 END AS overflow_in_an_arm",
            true,
        ),
        (
            "CASE WHEN u < @a THEN Poisson(6.5) ELSE 0 END AS v, Normal(@a, 1.0) AS next_draw",
            true,
        ),
        (
            "CASE WHEN u < @a THEN CASE WHEN u < @a - 1 THEN 1 ELSE holes END ELSE 3 END AS v",
            false,
        ),
        (
            "CASE WHEN u < @a THEN u + 1 ELSE -1 END AS operators_in_the_arms",
            false,
        ),
        (
            "CASE WHEN u < @a - 1 THEN 1 WHEN u < @a THEN 2 ELSE 3 END AS two_whens",
            false,
        ),
    ];
    let failing = [
        (
            "CASE WHEN u < @a + 100 THEN @unbound ELSE 7 END AS v",
            "unbound parameter @unbound",
        ),
        (
            "CASE WHEN u < @a + 100 THEN 'a' + 1 ELSE 7 END AS v",
            "invalid operation",
        ),
    ];
    let params: HashMap<String, Value> =
        HashMap::from([("a".into(), Value::Int(4)), ("b".into(), Value::Int(9))]);
    let select = |items: &str| {
        format!(
            "DECLARE PARAMETER @a AS SET (0);\nDECLARE PARAMETER @b AS SET (0);\n\
             DECLARE PARAMETER @unbound AS SET (0);\n\
             SELECT Normal(@a, 2.5) AS u, CASE WHEN u < @a THEN u END AS holes, {items} INTO r;"
        )
    };
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xB1E2D);
    for block_len in [1usize, 32, 63, 64, 65, 400] {
        let worlds: Vec<u64> = (0..block_len).map(|_| rng.next_u64() >> 1).collect();
        let seeds = SeedManager::new(rng.next_u64());
        for (items, dense_is_gather_free) in shapes {
            let src = select(items);
            let [dense, selected] = assert_three_walks_agree(&src, &params, seeds, &worlds)
                .unwrap_or_else(|| panic!("`{src}` must evaluate"));
            assert!(selected.gathers > 0, "`{src}` x{block_len}");
            if dense_is_gather_free {
                assert_eq!(dense.gathers, 0, "`{src}` x{block_len}");
            }
        }
        for (items, message) in failing {
            let src = select(items);
            assert!(assert_three_walks_agree(&src, &params, seeds, &worlds).is_none());
            let script = parse_script(&src).unwrap();
            let err =
                evaluate_select_columns(&script.select, &full_registry(), &params, seeds, &worlds)
                    .unwrap_err();
            assert!(err.to_string().contains(message), "`{src}`: {err}");
        }
    }
}

// ------------------------------------------ block remap + call-site memo

/// Every point of a scenario's parameter space, in grid order (first
/// declared parameter slowest).
fn grid_points(scenario: &Scenario) -> Vec<ParamPoint> {
    GridGuide::new(&scenario.script().params).collect()
}

/// One column's samples as bit patterns (NaN lanes must compare equal).
fn sample_bits(set: &prophet_mc::SampleSet, column: &str) -> Vec<u64> {
    set.samples(column)
        .unwrap_or_else(|| panic!("column `{column}` missing"))
        .iter()
        .map(|x| x.to_bits())
        .collect()
}

/// Walk `batches` through a columnar and a scalar engine, asserting equal
/// outcomes and bit-equal samples point for point and byte-equal store
/// contents (fingerprints, samples, stamps) at the end. Returns how many
/// points mapped, and the columnar engine for counter assertions.
fn assert_columnar_matches_scalar(
    label: &str,
    scenario: &Scenario,
    registry: impl Fn() -> VgRegistry,
    config: EngineConfig,
    batches: &[Vec<ParamPoint>],
) -> (usize, Engine) {
    let columnar = Engine::new(scenario, registry(), config).unwrap();
    let scalar = Engine::new(
        scenario,
        registry(),
        EngineConfig {
            tier: ExecTier::Scalar,
            threads: 1,
            ..config
        },
    )
    .unwrap();
    let columns = columnar.output_columns();
    let mut mapped = 0;
    for batch in batches {
        let got = columnar.evaluate_batch(batch).unwrap();
        let want = scalar.evaluate_batch(batch).unwrap();
        for (point, ((gs, go), (ws, wo))) in batch.iter().zip(got.iter().zip(&want)) {
            assert_eq!(go, wo, "[{label}] outcome at {point}");
            mapped += matches!(go, EvalOutcome::Mapped { .. }) as usize;
            for col in columns {
                assert_eq!(
                    sample_bits(gs, col),
                    sample_bits(ws, col),
                    "[{label}] column `{col}` at {point} ({go:?})"
                );
            }
        }
    }
    assert!(
        columnar.basis_store().snapshot_bytes() == scalar.basis_store().snapshot_bytes(),
        "[{label}] stored fingerprints/samples diverge between the tiers"
    );
    (mapped, columnar)
}

/// (a) The block remap against the per-world reference on all five
/// bundled scenarios: a slice of each grid, enough that points map — with
/// no alias read through a selection vector anywhere (`column_gathers`),
/// the exact-count form of "the production walks are dense".
#[test]
fn block_remap_matches_per_world_remap_on_every_bundled_scenario() {
    for (name, scenario, kind, _) in bundled_scenarios() {
        let slice: Vec<ParamPoint> = grid_points(&scenario).into_iter().take(60).collect();
        let batches: Vec<Vec<ParamPoint>> = slice.chunks(12).map(<[_]>::to_vec).collect();
        let config = EngineConfig {
            worlds_per_point: 24,
            ..EngineConfig::default()
        };
        let (mapped, columnar) =
            assert_columnar_matches_scalar(name, &scenario, || kind.build(), config, &batches);
        assert!(mapped > 0, "[{name}] the slice must exercise the remap");
        // All three walks ran — probes, simulations, derived columns of the
        // mapped points — and none of them left the whole-block path.
        let m = columnar.metrics();
        assert!(m.vector_walks > 0 && m.points_simulated > 0, "[{name}]");
        assert_eq!(
            m.column_gathers, 0,
            "[{name}] a production walk fell back onto the selection path"
        );
    }
}

/// `100·U + p`, except that about one draw in thirty is NaN — a VG
/// function whose samples carry genuine NaN lanes into the basis store.
#[derive(Debug)]
struct Flaky;

impl Flaky {
    fn draw(p: f64, u: f64) -> f64 {
        if u < 0.035 {
            f64::NAN
        } else {
            100.0 * u + p
        }
    }
}

impl VgFunction for Flaky {
    fn name(&self) -> &str {
        "Flaky"
    }
    fn arity(&self) -> usize {
        1
    }
    fn invoke(&self, params: &[Value], rng: &mut Xoshiro256StarStar) -> DataResult<f64> {
        Ok(Flaky::draw(params[0].as_f64()?, rng.next_f64()))
    }
}

/// (a, continued) What the bundled scenarios do not have: source lanes
/// holding NaN, a derived item over an earlier *derived* alias, a derived
/// item that is NULL in every world, and a derived item whose value hinges
/// on NaN being a value rather than NULL (`NOT (x = x)`).
#[test]
fn block_remap_keeps_nan_lanes_derived_chains_and_nulls() {
    let scenario = Scenario::parse(
        "DECLARE PARAMETER @p AS RANGE 0 TO 3 STEP BY 1;\n\
         DECLARE PARAMETER @q AS RANGE 0 TO 3 STEP BY 1;\n\
         SELECT Flaky(@p) AS x,\n\
                CASE WHEN x > 50 THEN 1 ELSE 0 END AS high,\n\
                high * 2 + @q AS twice,\n\
                CASE WHEN x < -1 THEN 1 END AS never,\n\
                NOT (x = x) AS is_nan\n\
         INTO r;",
    )
    .unwrap();
    let registry = || {
        let mut r = VgRegistry::new();
        r.register(Arc::new(Flaky));
        r
    };
    // Root seed 4 keeps the 32 probe lanes NaN-free (a NaN probe lane
    // defeats correlation detection and the point would simulate).
    let config = EngineConfig {
        worlds_per_point: 200,
        root_seed: 4,
        ..EngineConfig::default()
    };
    // One point alone, so that every later point finds it in the store.
    let points = grid_points(&scenario);
    let mut batches = vec![points[..1].to_vec()];
    batches.extend(points[1..].chunks(5).map(<[_]>::to_vec));
    let (mapped, columnar) =
        assert_columnar_matches_scalar("flaky", &scenario, registry, config, &batches);
    // Sixteen points, one draw stream: everything after the first maps
    // (identity along @q, offset along @p).
    assert_eq!(mapped, 15, "the fixture's probe lanes must be NaN-free");

    let point = ParamPoint::from_pairs([("p", 2i64), ("q", 3)]);
    let (set, outcome) = columnar.evaluate(&point).unwrap();
    assert_eq!(outcome, EvalOutcome::Cached);
    let (x, high, twice, never, is_nan) = (
        set.samples("x").unwrap(),
        set.samples("high").unwrap(),
        set.samples("twice").unwrap(),
        set.samples("never").unwrap(),
        set.samples("is_nan").unwrap(),
    );
    let nan_lanes = x.iter().filter(|v| v.is_nan()).count();
    assert!(nan_lanes > 0, "the fixture must carry NaN sample lanes");
    for w in 0..set.world_count() {
        // A NaN lane is a value: comparisons on it are false, not NULL.
        assert_eq!(high[w], if x[w] > 50.0 { 1.0 } else { 0.0 }, "world {w}");
        assert_eq!(twice[w], high[w] * 2.0 + 3.0, "world {w}");
        assert!(never[w].is_nan(), "world {w}: NULL encodes as NaN");
        assert_eq!(is_nan[w], x[w].is_nan() as u8 as f64, "world {w}");
    }
}

/// (b) The probe memo changes no stored fingerprint: a sweep slice of the
/// coarse Figure 2 walked forwards and reversed, at 1 and 8 threads, leaves
/// the columnar engine's store byte-identical to the (memo-less) scalar
/// engine's.
#[test]
fn probe_memo_leaves_fingerprints_identical_in_every_walk_order() {
    let scenario = Scenario::parse(&figure2_coarse_sql(0.05)).unwrap();
    // The first six weeks: 882 points over 18 + 294 distinct call sites.
    let forwards: Vec<ParamPoint> = grid_points(&scenario).into_iter().take(6 * 147).collect();
    let reversed: Vec<ParamPoint> = forwards.iter().rev().cloned().collect();
    for (order, points) in [("forwards", &forwards), ("reversed", &reversed)] {
        let batches: Vec<Vec<ParamPoint>> = points.chunks(147).map(<[_]>::to_vec).collect();
        for threads in [1usize, 8] {
            let config = EngineConfig {
                worlds_per_point: 8,
                threads,
                ..EngineConfig::default()
            };
            let (_, columnar) = assert_columnar_matches_scalar(
                &format!("{order} x{threads}"),
                &scenario,
                demo_registry,
                config,
                &batches,
            );
            let m = columnar.metrics();
            assert_eq!(m.probe_call_sites, 2 * 882, "{order} x{threads}");
            if threads == 1 {
                // Exact single-threaded: every repeat of a tuple is served.
                assert_eq!(m.probe_call_sites_memoised, 2 * 882 - 312, "{order}");
            } else {
                assert!(m.probe_call_sites_memoised <= 2 * 882 - 312, "{order}");
            }
        }
    }
}

/// The "call sites probed vs memo-served" ledger on the whole coarse
/// Figure 2, single-threaded (where it is exact): 3,969 points probe two
/// call sites each; `DemandModel(@current, @feature)` has 27 × 3 distinct
/// argument tuples and `CapacityModel(@current, @purchase1, @purchase2)`
/// 27 × 7 × 7, and everything else is served from the memo.
#[test]
fn figure2_coarse_call_site_counters_are_pinned() {
    let scenario = Scenario::parse(&figure2_coarse_sql(0.05)).unwrap();
    let engine = Engine::new(
        &scenario,
        demo_registry(),
        EngineConfig {
            worlds_per_point: 8,
            threads: 1,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    for group in grid_points(&scenario).chunks(147) {
        engine.evaluate_batch(group).unwrap();
    }
    let m = engine.metrics();
    assert_eq!(m.points_total(), 3_969);
    assert_eq!(m.vector_walks, 3_969);
    assert_eq!(m.probe_evaluations, 3_969 * 32);
    assert_eq!(m.probe_call_sites, 7_938);
    assert_eq!(m.probe_call_sites_memoised, 7_938 - (81 + 1_323));
    // Of the first sightings, `CapacityModel`'s replay the 32 probe
    // streams' ledgers; only `DemandModel`'s 81 draw call by call.
    assert_eq!(m.probe_call_sites_replayed, 1_323);
}

/// (c) Call sites that repeat their arguments at every point yet must not
/// be served from the memo — a VG call under a data-dependent `CASE` arm
/// (it covers part of the block), and one fed by an earlier stochastic
/// alias (its argument column is not constant). With `@p` distinct per
/// point the leading call never repeats either, so nothing is memoised.
#[test]
fn gated_and_alias_fed_call_sites_are_never_memo_served() {
    let cases = [
        (
            "gated",
            "DECLARE PARAMETER @p AS RANGE 0 TO 23 STEP BY 1;\n\
             SELECT CASE WHEN Normal(@p, 1.0) > @p THEN Normal(10.0, 2.0) ELSE 0.0 END AS gated\n\
             INTO r;",
        ),
        (
            "alias-fed",
            "DECLARE PARAMETER @p AS RANGE 0 TO 23 STEP BY 1;\n\
             SELECT Normal(@p, 1.0) AS a, Normal(a, 2.0) AS b INTO r;",
        ),
    ];
    for (label, sql) in cases {
        let scenario = Scenario::parse(sql).unwrap();
        let batches: Vec<Vec<ParamPoint>> = grid_points(&scenario)
            .chunks(6)
            .map(<[_]>::to_vec)
            .collect();
        let config = EngineConfig {
            worlds_per_point: 40,
            ..EngineConfig::default()
        };
        let (_, columnar) =
            assert_columnar_matches_scalar(label, &scenario, full_registry, config, &batches);
        let m = columnar.metrics();
        assert_eq!(m.probe_call_sites, 2 * 24, "[{label}] two sites per point");
        assert_eq!(m.probe_call_sites_memoised, 0, "[{label}]");
    }
}

/// `10·p + U[0,1)`, and NaN in every world at `p = 3`: a model that
/// implements nothing but `name` / `arity` / `invoke`.
#[derive(Debug)]
struct Plain;

impl VgFunction for Plain {
    fn name(&self) -> &str {
        "Plain"
    }
    fn arity(&self) -> usize {
        1
    }
    fn invoke(&self, params: &[Value], rng: &mut Xoshiro256StarStar) -> DataResult<f64> {
        let (p, u) = (params[0].as_i64()?, rng.next_f64());
        Ok(if p == 3 {
            f64::NAN
        } else {
            10.0 * p as f64 + u
        })
    }
}

/// (d) The per-world `invoke` lane. An `invoke`-only model is a typed
/// kernel like any other: bit-identical across the tiers and across the
/// inline and pooled runners, never a boxed fallback, memo-served when its
/// argument tuple repeats — and a NaN it returns stays a NaN sample in
/// both tiers' estimates.
#[test]
fn an_invoke_only_model_is_a_kernel_on_every_path() {
    // Grid order puts @q slowest: the first batch is the @q = 0 slice, the
    // second repeats its four `Plain(@p)` argument tuples at @q = 1.
    let scenario = Scenario::parse(
        "DECLARE PARAMETER @q AS RANGE 0 TO 1 STEP BY 1;\n\
         DECLARE PARAMETER @p AS RANGE 0 TO 3 STEP BY 1;\n\
         SELECT Plain(@p) AS x, x + @q AS shifted INTO r;",
    )
    .unwrap();
    let registry = || {
        let mut r = VgRegistry::new();
        r.register(Arc::new(Plain));
        r
    };
    let config = EngineConfig {
        worlds_per_point: 24,
        threads: 1,
        ..EngineConfig::default()
    };
    let batches: Vec<Vec<ParamPoint>> = grid_points(&scenario)
        .chunks(4)
        .map(<[_]>::to_vec)
        .collect();
    let (mapped, columnar) =
        assert_columnar_matches_scalar("plain", &scenario, registry, config, &batches);
    // x identity-maps along @q wherever its probe lanes are not NaN.
    assert_eq!(mapped, 3);
    let m = columnar.metrics();
    assert_eq!(m.column_fallbacks, 0, "the invoke lane is not a fallback");
    assert!(m.columnar_kernels > 0);
    assert_eq!(m.probe_call_sites, 8);
    assert_eq!(
        m.probe_call_sites_memoised, 4,
        "the second slice repeats the first's argument tuples"
    );

    // The pooled runner: the same batches as jobs on a fresh service leave
    // the same store, byte for byte — every sample of every point.
    let prophet = Prophet::builder()
        .scenario("plain", scenario.clone())
        .registry(registry())
        .config(config)
        .scheduler(SchedulerConfig {
            workers: 2,
            chunk_points: 3,
            ..SchedulerConfig::default()
        })
        .build()
        .unwrap();
    for batch in &batches {
        let job = JobSpec::points("plain", batch.clone());
        prophet.submit(job).unwrap().wait().unwrap();
    }
    let pooled_store = prophet.engine("plain").unwrap().basis_store().clone();
    assert!(pooled_store.snapshot_bytes() == columnar.basis_store().snapshot_bytes());

    // NaN is the model's "no value": it reaches the estimate.
    let point = |q: i64, p: i64| ParamPoint::from_pairs([("q", q), ("p", p)]);
    for q in [0, 1] {
        let (healthy, _) = columnar.evaluate(&point(q, 1)).unwrap();
        assert!(healthy.expect("x").unwrap().is_finite());
        let (nan, _) = columnar.evaluate(&point(q, 3)).unwrap();
        assert!(nan.expect("x").unwrap().is_nan());
        assert!(nan.expect("shifted").unwrap().is_nan());
    }
}

// ------------------------------------------------------ draw-ledger store

/// Evaluate `batches` on a cleared store and return, point for point, the
/// outcome (with the chosen mapping source) and every column's sample
/// bits, plus the store's bytes afterwards.
type Pass = (Vec<(EvalOutcome, Vec<Vec<u64>>)>, Vec<u8>);

fn cold_pass(engine: &Engine, batches: &[Vec<ParamPoint>]) -> Pass {
    engine.clear_basis();
    let mut results = Vec::new();
    for batch in batches {
        for (set, outcome) in engine.evaluate_batch(batch).unwrap() {
            let columns = engine.output_columns();
            let bits = columns.iter().map(|c| sample_bits(&set, c)).collect();
            results.push((outcome, bits));
        }
    }
    (results, engine.basis_store().snapshot_bytes())
}

/// (c) The ledger store never changes an answer, whatever it already
/// holds. One columnar engine per bundled scenario and thread count lives
/// through three passes over a ≈ 200-point stride of the scenario's grid —
/// forwards (`@current`/`@week` ascending: ledgers extend), reversed
/// (descending: the first draw covers everything after it) and shuffled —
/// with the basis store cleared between passes, so each pass probes and
/// simulates again over the ledgers (and probe memo) its predecessors left.
/// Every pass must equal the scalar tier's: outcomes with their chosen
/// sources, sample bits, and the store's bytes.
#[test]
fn ledger_store_is_bit_identical_to_the_scalar_tier_warm_and_cold() {
    for (name, scenario, kind, _) in bundled_scenarios() {
        let grid = grid_points(&scenario);
        let stride = grid.len().div_ceil(200);
        let forwards: Vec<ParamPoint> = grid.into_iter().step_by(stride).collect();
        let reversed: Vec<ParamPoint> = forwards.iter().rev().cloned().collect();
        let mut shuffled = forwards.clone();
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x1ED6E5);
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        let config = EngineConfig {
            worlds_per_point: 16,
            ..EngineConfig::default()
        };
        let engine = |tier: ExecTier, threads: usize| {
            let config = EngineConfig {
                tier,
                threads,
                ..config
            };
            Engine::new(&scenario, kind.build(), config).unwrap()
        };
        let scalar = engine(ExecTier::Scalar, 1);
        let columnar = [1usize, 8].map(|threads| (threads, engine(ExecTier::Columnar, threads)));
        for (order, points) in [
            ("forwards", &forwards),
            ("reversed", &reversed),
            ("shuffled", &shuffled),
        ] {
            let batches: Vec<Vec<ParamPoint>> = points.chunks(24).map(<[_]>::to_vec).collect();
            let (want, want_bytes) = cold_pass(&scalar, &batches);
            for (threads, engine) in &columnar {
                let (got, got_bytes) = cold_pass(engine, &batches);
                for (point, (g, w)) in points.iter().zip(got.iter().zip(&want)) {
                    assert_eq!(g, w, "[{name} {order} x{threads}] at {point}");
                }
                assert!(
                    got_bytes == want_bytes,
                    "[{name} {order} x{threads}] store bytes diverge"
                );
            }
        }
        // The store was in play wherever a model keeps a ledger.
        let ledgered = ["figure2", "figure2-coarse", "inventory"].contains(&name);
        for (threads, engine) in &columnar {
            assert_eq!(
                engine.metrics().probe_call_sites_replayed > 0,
                ledgered,
                "[{name} x{threads}]"
            );
        }
    }
}
