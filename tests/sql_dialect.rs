//! Broad DSL coverage: dialect corners exercised end-to-end through the
//! engine (not just the parser), so that expression semantics, parameter
//! binding and aggregate plumbing are all checked against hand-computable
//! answers — and, at the end, the parser's script corpus: tables of valid
//! inputs with the AST shape they must produce and invalid ones with the
//! line-numbered error they must report. New grammar corners (and shrunk
//! failures of a scenario generator) go into the tables, not into new
//! test functions.

use fuzzy_prophet::prelude::*;
use fuzzy_prophet::scenario::FIGURE2_SQL;
use prophet_models::demo_registry;
use prophet_models::scenarios::{
    figure2_coarse_sql, INVENTORY_POLICY, PRICING_WHATIF, SUPPORT_STAFFING,
};
use prophet_sql::ast::{BinOp, Expr};
use prophet_sql::parser::{parse_expr, parse_script, MAX_EXPR_DEPTH};
use prophet_sql::SqlError;

fn engine_for(src: &str, worlds: usize) -> Engine {
    Engine::new(
        &Scenario::parse(src).unwrap(),
        demo_registry(),
        EngineConfig {
            worlds_per_point: worlds,
            ..EngineConfig::default()
        },
    )
    .unwrap()
}

#[test]
fn deterministic_scenarios_compute_exactly() {
    // No VG calls at all: every world computes the same row, expectations
    // are exact.
    let e = engine_for(
        "DECLARE PARAMETER @x AS RANGE 1 TO 5 STEP BY 1;\n\
         SELECT @x * @x AS square,\n\
                CASE WHEN @x % 2 = 0 THEN 1 ELSE 0 END AS even,\n\
                POWER(2, @x) AS pow2,\n\
                GREATEST(@x, 3) AS clamped\n\
         INTO results;",
        7,
    );
    for x in 1..=5i64 {
        let p = ParamPoint::from_pairs([("x", x)]);
        let (s, _) = e.evaluate(&p).unwrap();
        assert_eq!(s.expect("square").unwrap(), (x * x) as f64);
        assert_eq!(
            s.expect("even").unwrap(),
            if x % 2 == 0 { 1.0 } else { 0.0 }
        );
        assert_eq!(s.expect("pow2").unwrap(), 2f64.powi(x as i32));
        assert_eq!(s.expect("clamped").unwrap(), (x.max(3)) as f64);
        assert_eq!(s.expect_std_dev("square").unwrap(), 0.0);
    }
}

#[test]
fn alias_chains_evaluate_left_to_right() {
    let e = engine_for(
        "DECLARE PARAMETER @x AS SET (10);\n\
         SELECT @x + 1 AS a, a * 2 AS b, b - a AS c INTO results;",
        3,
    );
    let p = ParamPoint::from_pairs([("x", 10i64)]);
    let (s, _) = e.evaluate(&p).unwrap();
    assert_eq!(s.expect("a").unwrap(), 11.0);
    assert_eq!(s.expect("b").unwrap(), 22.0);
    assert_eq!(s.expect("c").unwrap(), 11.0);
}

#[test]
fn boolean_logic_and_comparison_chains() {
    let e = engine_for(
        "DECLARE PARAMETER @x AS RANGE 0 TO 10 STEP BY 1;\n\
         SELECT CASE WHEN @x >= 3 AND @x < 7 THEN 1 ELSE 0 END AS band,\n\
                CASE WHEN NOT (@x = 5) THEN 1 ELSE 0 END AS not5,\n\
                CASE WHEN @x < 2 OR @x > 8 THEN 1 ELSE 0 END AS fringe\n\
         INTO results;",
        2,
    );
    for x in 0..=10i64 {
        let (s, _) = e.evaluate(&ParamPoint::from_pairs([("x", x)])).unwrap();
        assert_eq!(
            s.expect("band").unwrap(),
            f64::from((3..7).contains(&x) as u8),
            "x={x}"
        );
        assert_eq!(
            s.expect("not5").unwrap(),
            f64::from((x != 5) as u8),
            "x={x}"
        );
        assert_eq!(
            s.expect("fringe").unwrap(),
            f64::from(!(2..=8).contains(&x) as u8),
            "x={x}"
        );
    }
}

#[test]
fn float_literals_and_precedence_in_thresholds() {
    let e = engine_for(
        "DECLARE PARAMETER @x AS RANGE 0 TO 4 STEP BY 1;\n\
         SELECT 1.5e2 + @x * 0.5 AS v INTO results;",
        2,
    );
    let (s, _) = e.evaluate(&ParamPoint::from_pairs([("x", 4i64)])).unwrap();
    assert_eq!(s.expect("v").unwrap(), 152.0);
}

#[test]
fn stddev_metric_reflects_model_noise() {
    // demand sd before release is the base noise (400).
    let e = engine_for(
        "DECLARE PARAMETER @w AS SET (5);\n\
         DECLARE PARAMETER @f AS SET (30);\n\
         SELECT DemandModel(@w, @f) AS demand INTO results;",
        3_000,
    );
    let p = ParamPoint::from_pairs([("w", 5i64), ("f", 30)]);
    let (s, _) = e.evaluate(&p).unwrap();
    let sd = s.expect_std_dev("demand").unwrap();
    assert!((sd - 400.0).abs() < 25.0, "sd={sd}");
}

#[test]
fn optimize_with_min_and_avg_aggregates() {
    // MIN over the axis: feasible iff the *best* week satisfies; AVG:
    // feasible iff the year-average satisfies. Both hand-checkable on a
    // deterministic scenario.
    let src = "\
DECLARE PARAMETER @x AS RANGE 0 TO 4 STEP BY 1;
DECLARE PARAMETER @w AS RANGE 0 TO 9 STEP BY 1;
SELECT @x * 10 + @w AS v INTO results;
OPTIMIZE SELECT @x FROM results
WHERE MIN(EXPECT v) <= 20 AND AVG(EXPECT v) <= 27
GROUP BY x
FOR MAX @x";
    let opt = OfflineOptimizer::open(
        Engine::new(
            &Scenario::parse(src).unwrap(),
            demo_registry(),
            EngineConfig {
                worlds_per_point: 2,
                ..EngineConfig::default()
            },
        )
        .unwrap(),
    )
    .unwrap();
    let report = opt.run().unwrap();
    // For group x: MIN over w of (10x + w) = 10x; AVG = 10x + 4.5.
    // MIN <= 20 → x <= 2;  AVG <= 27 → 10x <= 22.5 → x <= 2. Best (MAX) x=2.
    assert_eq!(report.best.as_ref().unwrap().point.get("x"), Some(2));
    assert_eq!(report.feasible().count(), 3);
}

#[test]
fn equality_and_inequality_constraint_operators() {
    let src = "\
DECLARE PARAMETER @x AS RANGE 0 TO 3 STEP BY 1;
DECLARE PARAMETER @w AS SET (0);
SELECT @x AS v INTO results;
OPTIMIZE SELECT @x FROM results
WHERE MAX(EXPECT v) <> 2
GROUP BY x
FOR MAX @x";
    let opt = OfflineOptimizer::open(
        Engine::new(
            &Scenario::parse(src).unwrap(),
            demo_registry(),
            EngineConfig {
                worlds_per_point: 2,
                ..EngineConfig::default()
            },
        )
        .unwrap(),
    )
    .unwrap();
    let report = opt.run().unwrap();
    // all x except 2 are feasible; best is 3
    assert_eq!(report.best.as_ref().unwrap().point.get("x"), Some(3));
    assert_eq!(report.feasible().count(), 3);
}

#[test]
fn whitespace_comments_and_case_insensitivity() {
    let src = "\n\
-- leading comment\n\
declare parameter @X as range 0 to 2 step by 1; -- trailing\n\
select @X as v into results;\n\
graph over @X expect v;\n";
    let scenario = Scenario::parse(src).unwrap();
    assert_eq!(scenario.script().params[0].name, "X");
    assert!(scenario.script().graph.is_some());
}

/// A declared horizon no model should walk is a typed evaluation error on
/// both tiers — not an allocation abort, and not an effectively infinite
/// VG call — while a horizon past the year but inside the bound evaluates.
#[test]
fn declared_horizons_past_a_models_bound_are_typed_errors() {
    let cases = [
        (
            "DECLARE PARAMETER @current AS SET (60, 9000000000000);\n\
             SELECT CapacityModel(@current, 4, 8) AS v INTO results;",
            "current",
            "CapacityModel horizon @current = 9000000000000 exceeds the 4095-week maximum",
        ),
        (
            "DECLARE PARAMETER @week AS SET (60, 9000000000000);\n\
             SELECT InventoryModel(@week, 200, 300) AS v INTO results;",
            "week",
            "InventoryModel horizon @week = 9000000000000 exceeds the 4095-week maximum",
        ),
    ];
    for (src, param, message) in cases {
        for tier in [ExecTier::Columnar, ExecTier::Scalar] {
            let engine = Engine::new(
                &Scenario::parse(src).unwrap(),
                prophet_models::full_registry(),
                EngineConfig {
                    worlds_per_point: 4,
                    tier,
                    ..EngineConfig::default()
                },
            )
            .unwrap();
            let at = |horizon: i64| engine.evaluate(&ParamPoint::from_pairs([(param, horizon)]));
            let (inside, _) = at(60).unwrap();
            assert!(inside.expect("v").unwrap() >= 0.0, "{tier:?}");
            let err = at(9_000_000_000_000).unwrap_err();
            assert!(
                matches!(err, ProphetError::Sql(_) | ProphetError::Data(_)),
                "{tier:?}: {err:?}"
            );
            assert!(err.to_string().contains(message), "{tier:?}: {err}");
        }
    }
}

// ------------------------------------------------------------ script corpus

/// An expression's shape, fully parenthesized in prefix form — what the
/// corpus tables compare against, so precedence and associativity show.
fn shape(e: &Expr) -> String {
    match e {
        Expr::Literal(v) => v.to_string(),
        Expr::Param(name) => format!("@{name}"),
        Expr::Column(name) => name.clone(),
        Expr::Neg(inner) => format!("(neg {})", shape(inner)),
        Expr::Not(inner) => format!("(not {})", shape(inner)),
        Expr::Binary { op, lhs, rhs } => {
            let op = match op {
                BinOp::Add => "+".to_owned(),
                BinOp::Sub => "-".to_owned(),
                BinOp::Mul => "*".to_owned(),
                BinOp::Div => "/".to_owned(),
                BinOp::Rem => "%".to_owned(),
                BinOp::And => "and".to_owned(),
                BinOp::Or => "or".to_owned(),
                BinOp::Cmp(cmp) => cmp.to_string(),
            };
            format!("({op} {} {})", shape(lhs), shape(rhs))
        }
        Expr::Case { whens, otherwise } => {
            let mut out = String::from("(case");
            for (cond, result) in whens {
                out += &format!(" [{} {}]", shape(cond), shape(result));
            }
            if let Some(e) = otherwise {
                out += &format!(" else {}", shape(e));
            }
            out + ")"
        }
        Expr::Call { name, args } => {
            let args: Vec<String> = args.iter().map(shape).collect();
            format!(
                "({name}{}{})",
                if args.is_empty() { "" } else { " " },
                args.join(" ")
            )
        }
    }
}

/// `(source, shape)`: precedence is `OR` < `AND` < `NOT` < comparison <
/// `+ -` < `* / %` < unary minus; binary operators associate left except
/// comparisons, which do not associate.
const VALID_EXPRS: &[(&str, &str)] = &[
    // Atoms.
    ("42", "42"),
    ("@p", "@p"),
    ("demand", "demand"),
    ("F()", "(F)"),
    ("G(H(1), @p + 2)", "(G (H 1) (+ @p 2))"),
    // Associativity.
    ("a - b - c", "(- (- a b) c)"),
    ("a / b * c % d", "(% (* (/ a b) c) d)"),
    ("a OR b OR c", "(or (or a b) c)"),
    ("a AND b AND c", "(and (and a b) c)"),
    // Precedence.
    (
        "1 + 2 * 3 < 10 AND x = 1",
        "(and (< (+ 1 (* 2 3)) 10) (= x 1))",
    ),
    ("a OR b AND c", "(or a (and b c))"),
    ("a AND b OR c AND d", "(or (and a b) (and c d))"),
    ("a + b < c + d", "(< (+ a b) (+ c d))"),
    ("a < b OR c >= d", "(or (< a b) (>= c d))"),
    ("(a < b) < c", "(< (< a b) c)"),
    ("(a OR b) AND c", "(and (or a b) c)"),
    // Prefix operators.
    ("NOT a = b", "(not (= a b))"),
    ("NOT a + 1 < b", "(not (< (+ a 1) b))"),
    ("NOT a AND b", "(and (not a) b)"),
    ("a AND NOT b OR c", "(or (and a (not b)) c)"),
    ("NOT NOT x", "(not (not x))"),
    ("NOT -x < 1", "(not (< (neg x) 1))"),
    ("-x * y", "(* (neg x) y)"),
    ("- -x", "(neg (neg x))"),
    ("a - -b", "(- a (neg b))"),
    ("a * -b + c", "(+ (* a (neg b)) c)"),
    ("-(1 + @x) * 2", "(* (neg (+ 1 @x)) 2)"),
    ("-x < -y", "(< (neg x) (neg y))"),
    // CASE.
    (
        "CASE WHEN capacity < demand THEN 1 ELSE 0 END",
        "(case [(< capacity demand) 1] else 0)",
    ),
    (
        "CASE WHEN a > 1 THEN 1 WHEN a > 0 THEN 2 END",
        "(case [(> a 1) 1] [(> a 0) 2])",
    ),
    (
        "CASE WHEN a THEN CASE WHEN b THEN 1 ELSE 2 END ELSE CASE WHEN c THEN 3 END END + 1",
        "(+ (case [a (case [b 1] else 2)] else (case [c 3])) 1)",
    ),
    (
        "CASE WHEN NOT a OR b THEN -1 * 2 END",
        "(case [(or (not a) b) (* (neg 1) 2)])",
    ),
];

/// `(source, line, message)` — expressions the grammar rejects. A second
/// comparison, or a `NOT` in operand position, is left for the caller to
/// trip over, which is why those errors name the stray token.
const INVALID_EXPRS: &[(&str, usize, &str)] = &[
    ("", 1, "expected expression, found end of input"),
    ("1 +", 1, "expected expression, found end of input"),
    ("a < b < c", 1, "expected `end of input`, found <"),
    ("a = b <> c", 1, "expected `end of input`, found <>"),
    ("NOT a < b < c", 1, "expected `end of input`, found <"),
    ("x AND a < b\n < c", 2, "expected `end of input`, found <"),
    ("a = NOT b", 1, "expected expression, found Not"),
    ("1 + NOT x", 1, "expected expression, found Not"),
    ("- NOT x", 1, "expected expression, found Not"),
    ("a AND", 1, "expected expression, found end of input"),
    ("(1 + 2", 1, "expected `)`, found end of input"),
    ("1 + 2)", 1, "expected `end of input`, found )"),
    ("F(1,)", 1, "expected expression, found )"),
    ("F(1 2)", 1, "expected `)`, found 2"),
    ("CASE 1 END", 1, "expected When, found 1"),
    ("CASE WHEN a THEN 1", 1, "expected End, found end of input"),
    (
        "CASE WHEN a\nTHEN\nEND",
        3,
        "expected expression, found End",
    ),
    ("a b", 1, "expected `end of input`, found identifier `b`"),
];

/// `(source, line, message)` — whole scripts, so the line numbers are the
/// ones a scenario author sees.
const INVALID_SCRIPTS: &[(&str, usize, &str)] = &[
    (
        "DECLARE PARAMETER @p AS SET (1);\nSELECT 1 AS\nINTO r;",
        3,
        "expected identifier, found Into",
    ),
    (
        "DECLARE PARAMETER @p AS SET (1);\nSELECT @p < 1 < 2 AS x INTO r;",
        2,
        "expected As, found <",
    ),
    (
        "DECLARE PARAMETER @p AS SET (1);\nSELECT\n  @p = NOT 1 AS x\nINTO r;",
        3,
        "expected expression, found Not",
    ),
    (
        "DECLARE PARAMETER @p AS RANGE 0 TO 4 STEP BY 0;\nSELECT 1 AS x INTO r;",
        1,
        "STEP BY must be positive",
    ),
    (
        "DECLARE PARAMETER @p AS SET (1);\nSELECT 1 AS x INTO r;\nGRAPH OVER @p EXPECT x;\nGRAPH OVER @p EXPECT x;",
        4,
        "duplicate GRAPH directive",
    ),
    (
        "DECLARE PARAMETER @p AS SET (1);\nSELECT 1 AS x INTO r;\nOPTIMIZE SELECT @p FROM r\nWHERE MAX(EXPECT x) + 1 FOR MAX @p",
        4,
        "expected comparison operator, found +",
    ),
    ("SELECT 1 AS x", 1, "expected Into, found end of input"),
];

fn assert_parse_error<T>(src: &str, result: Result<T, SqlError>, line: usize, message: &str) {
    let want = SqlError::Parse {
        message: message.to_owned(),
        line,
    };
    assert_eq!(result.err(), Some(want), "`{src}`");
}

#[test]
fn valid_expressions_parse_to_their_expected_shape() {
    for (src, want) in VALID_EXPRS {
        let e = parse_expr(src).unwrap_or_else(|err| panic!("`{src}` must parse: {err}"));
        assert_eq!(shape(&e), *want, "`{src}`");
    }
}

#[test]
fn invalid_inputs_report_line_numbered_parse_errors() {
    for (src, line, message) in INVALID_EXPRS {
        assert_parse_error(src, parse_expr(src), *line, message);
    }
    for (src, line, message) in INVALID_SCRIPTS {
        assert_parse_error(src, parse_script(src), *line, message);
    }
}

/// Every bundled scenario parses, to `(parameters, output columns, has
/// GRAPH, has OPTIMIZE)`.
#[test]
fn bundled_scenarios_parse() {
    let coarse = figure2_coarse_sql(0.05);
    let scripts = [
        ("figure2", FIGURE2_SQL, (4, 3, true, true)),
        ("figure2-coarse", coarse.as_str(), (4, 3, true, true)),
        ("inventory", INVENTORY_POLICY, (3, 2, false, true)),
        ("pricing", PRICING_WHATIF, (2, 2, true, true)),
        ("staffing", SUPPORT_STAFFING, (2, 2, true, true)),
    ];
    for (name, src, want) in scripts {
        let s = parse_script(src).unwrap_or_else(|err| panic!("[{name}] must parse: {err}"));
        let got = (
            s.params.len(),
            s.output_columns().len(),
            s.graph.is_some(),
            s.optimize.is_some(),
        );
        assert_eq!(got, want, "[{name}]");
    }
    // The Figure-2 SELECT, shape by shape.
    let figure2 = parse_script(FIGURE2_SQL).unwrap();
    let shapes: Vec<String> = figure2
        .select
        .items
        .iter()
        .map(|i| shape(&i.expr))
        .collect();
    assert_eq!(
        shapes,
        [
            "(DemandModel @current @feature)",
            "(CapacityModel @current @purchase1 @purchase2)",
            "(case [(< capacity demand) 1] else 0)",
        ]
    );
}

/// Nesting is bounded: an expression [`MAX_EXPR_DEPTH`] levels deep parses,
/// one level more is a typed parse error — and so is any amount more,
/// instead of a stack overflow (this runs on a default 2 MiB test thread).
#[test]
fn expression_nesting_is_bounded_not_fatal() {
    let too_deep = format!("expression nests deeper than {MAX_EXPR_DEPTH} levels");
    let parens = |n: usize| format!("{}1{}", "(".repeat(n), ")".repeat(n));
    let nots = |n: usize| format!("{}x", "NOT ".repeat(n));
    let negs = |n: usize| format!("{}x", "- ".repeat(n));
    let calls = |n: usize| format!("{}1{}", "F(".repeat(n), ")".repeat(n));
    let cases = |n: usize| format!("{}1{}", "CASE WHEN ".repeat(n), " THEN 1 END".repeat(n));
    // The expression itself is level one; each wrapper adds one.
    let at_limit = MAX_EXPR_DEPTH - 1;
    for (label, build) in [
        ("parentheses", &parens as &dyn Fn(usize) -> String),
        ("NOT", &nots),
        ("unary minus", &negs),
        ("call arguments", &calls),
        ("CASE arms", &cases),
    ] {
        assert!(parse_expr(&build(at_limit)).is_ok(), "{label} at the limit");
        for n in [at_limit + 1, 100_000] {
            let src = build(n);
            assert_parse_error(&format!("{n} × {label}"), parse_expr(&src), 1, &too_deep);
        }
    }
    // Through `parse_script`, as `prophet <scenario-file>` reaches it.
    for wrapped in [parens(100_000), nots(100_000)] {
        let src = format!("DECLARE PARAMETER @p AS SET (1);\nSELECT {wrapped} AS x INTO r;");
        assert_parse_error("100,000 levels", parse_script(&src), 2, &too_deep);
    }
}

/// Operator chains are bounded like nesting: a left-associative chain
/// builds a spine one AST level per operator, so the longest accepted
/// chain is [`MAX_EXPR_DEPTH`] levels tall — it parses, walks, evaluates
/// on both tiers and drops on this default 2 MiB test thread — and one
/// operator more, or 100,000, is the same typed parse error instead of a
/// stack overflow in a walker. Parentheses add parser depth, not AST
/// height, so the bound is the same inside 100 of them.
#[test]
fn operator_chains_are_bounded_not_fatal() {
    let too_deep = format!("expression nests deeper than {MAX_EXPR_DEPTH} levels");
    let chain = |operand: &str, ops: &[&str], n: usize| {
        let mut src = operand.to_owned();
        for i in 0..n {
            // `ops` in equal runs, tightest first: one spine, n levels.
            src += &format!(" {} {operand}", ops[i * ops.len() / n]);
        }
        src
    };
    let at_limit = MAX_EXPR_DEPTH - 1;
    for (label, operand, ops, value) in [
        ("+", "@p", &["+"][..], MAX_EXPR_DEPTH as f64),
        ("AND", "TRUE", &["AND"], 1.0),
        // 1 × 1 × … − 1 − … at the limit: 64 `*`, then 63 `-`.
        ("* then -", "@p", &["*", "-"], 1.0 - (at_limit / 2) as f64),
    ] {
        for parens in [0, 100] {
            let wrap = |body: String| format!("{}{body}{}", "(".repeat(parens), ")".repeat(parens));
            let label = format!("`{label}` chain in {parens} parentheses");
            let src = wrap(chain(operand, ops, at_limit));
            let e = parse_expr(&src).unwrap_or_else(|err| panic!("{label} at the limit: {err}"));
            let params = if operand == "@p" { vec!["p"] } else { vec![] };
            assert_eq!(e.referenced_params(), params, "{label}");
            assert!(e.referenced_calls().is_empty(), "{label}");
            drop(e);
            let script = format!("DECLARE PARAMETER @p AS SET (1);\nSELECT {src} AS x INTO r;");
            for tier in [ExecTier::Scalar, ExecTier::Columnar] {
                let config = EngineConfig {
                    worlds_per_point: 2,
                    tier,
                    ..EngineConfig::default()
                };
                let engine =
                    Engine::new(&Scenario::parse(&script).unwrap(), demo_registry(), config)
                        .unwrap();
                let (s, _) = engine
                    .evaluate(&ParamPoint::from_pairs([("p", 1i64)]))
                    .unwrap();
                assert_eq!(s.expect("x").unwrap(), value, "{label}, {tier:?}");
            }
            for n in [at_limit + 1, 100_000] {
                let src = wrap(chain(operand, ops, n));
                let label = format!("{n}-operator {label}");
                assert_parse_error(&label, parse_expr(&src), 1, &too_deep);
                let script = format!("DECLARE PARAMETER @p AS SET (1);\nSELECT {src} AS x INTO r;");
                assert_parse_error(&label, parse_script(&script), 2, &too_deep);
            }
        }
    }
}
