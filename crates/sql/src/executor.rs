//! Per-world evaluation of the scenario SELECT.
//!
//! This is the "pure TSQL" tier of the paper's Figure-1 cycle: the Query
//! Generator (in `prophet-mc`) hands this executor one *instance* — a
//! concrete valuation of every `@parameter` plus a world-seeded PRNG — and
//! gets back one row of the results relation. Aggregation across worlds
//! happens upstream.
//!
//! Select items evaluate left to right and later items may reference earlier
//! aliases (`CASE WHEN capacity < demand …` in Figure 2), which is the one
//! deliberate departure from stock TSQL scoping the paper's syntax requires.

use std::collections::HashMap;

use prophet_data::{DataError, Value};
use prophet_vg::rng::{Rng64, Xoshiro256StarStar};
use prophet_vg::{SeedManager, VgRegistry};

use crate::ast::{BinOp, Expr, SelectInto};
use crate::error::{SqlError, SqlResult};

/// Randomness strategy for one world's evaluation.
///
/// * [`WorldRng::PerCall`] — each VG call site gets its own substream
///   derived from `(world, function, call index)`. This is how the engine
///   samples, always with common random numbers: call *k* of world *w*
///   sees identical randomness for every parameter point, which is the
///   property the fingerprint machinery exploits.
/// * [`WorldRng::Shared`] — the stream handed to [`EvalContext::new`]. Its
///   callers evaluate derived items, which never reach a VG call, and pass
///   a generator that must never draw; a VG call under it seeds its own
///   stream from one `next_u64()` of the shared one.
pub enum WorldRng<'a> {
    /// One shared stream for the whole world.
    Shared(&'a mut dyn Rng64),
    /// Derived substream per VG call.
    PerCall {
        /// Seed derivation root.
        seeds: SeedManager,
        /// World id.
        world: u64,
        /// Running call index within this world (starts at 0).
        counter: u64,
    },
}

impl<'a> WorldRng<'a> {
    /// Per-call strategy for a given world.
    pub fn per_call(seeds: SeedManager, world: u64) -> Self {
        WorldRng::PerCall {
            seeds,
            world,
            counter: 0,
        }
    }
}

/// Evaluation context for one possible world.
pub struct EvalContext<'a, 'r> {
    /// VG function catalog.
    pub registry: &'a VgRegistry,
    /// Concrete `@parameter` values for this instance.
    pub params: &'a HashMap<String, Value>,
    /// Randomness strategy.
    rng: WorldRng<'r>,
    /// Aliases of select items already evaluated in this world.
    aliases: HashMap<String, Value>,
}

impl<'a, 'r> EvalContext<'a, 'r> {
    /// Fresh context with a shared stream ([`WorldRng::Shared`]).
    pub fn new(
        registry: &'a VgRegistry,
        params: &'a HashMap<String, Value>,
        rng: &'r mut dyn Rng64,
    ) -> Self {
        EvalContext {
            registry,
            params,
            rng: WorldRng::Shared(rng),
            aliases: HashMap::new(),
        }
    }

    /// Fresh context with an explicit randomness strategy.
    pub fn with_rng(
        registry: &'a VgRegistry,
        params: &'a HashMap<String, Value>,
        rng: WorldRng<'r>,
    ) -> Self {
        EvalContext {
            registry,
            params,
            rng,
            aliases: HashMap::new(),
        }
    }

    /// Record an alias so later select items can reference it.
    pub fn bind_alias(&mut self, name: &str, value: Value) {
        self.aliases.insert(name.to_owned(), value);
    }

    /// Look up an alias.
    pub fn alias(&self, name: &str) -> Option<&Value> {
        self.aliases.get(name)
    }

    /// Invoke a VG function under the context's randomness strategy; the
    /// sample is the world's value at this call site.
    fn invoke_vg(&mut self, name: &str, args: &[Value]) -> SqlResult<Value> {
        let mut rng = match &mut self.rng {
            WorldRng::Shared(rng) => Xoshiro256StarStar::seed_from_u64(rng.next_u64()),
            WorldRng::PerCall {
                seeds,
                world,
                counter,
            } => {
                let rng = seeds.rng_for(*world, name, *counter);
                *counter += 1;
                rng
            }
        };
        Ok(Value::Float(self.registry.invoke(name, args, &mut rng)?))
    }
}

/// Evaluate the scenario SELECT for one world under an explicit randomness
/// strategy, returning `(alias, value)` pairs in declaration order.
pub fn evaluate_select_with(
    select: &SelectInto,
    registry: &VgRegistry,
    params: &HashMap<String, Value>,
    rng: WorldRng<'_>,
) -> SqlResult<Vec<(String, Value)>> {
    let mut ctx = EvalContext::with_rng(registry, params, rng);
    let mut out = Vec::with_capacity(select.items.len());
    for item in &select.items {
        let v = eval_expr(&item.expr, &mut ctx)?;
        ctx.bind_alias(&item.alias, v.clone());
        out.push((item.alias.clone(), v));
    }
    Ok(out)
}

/// Evaluate one scalar expression in a world context.
pub fn eval_expr(expr: &Expr, ctx: &mut EvalContext<'_, '_>) -> SqlResult<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Param(name) => ctx
            .params
            .get(name)
            .cloned()
            .ok_or_else(|| SqlError::Eval(format!("unbound parameter @{name}"))),
        Expr::Column(name) => ctx
            .alias(name)
            .cloned()
            .ok_or_else(|| SqlError::Eval(format!("unknown column or alias `{name}`"))),
        Expr::Neg(e) => {
            let v = eval_expr(e, ctx)?;
            Ok(v.neg()?)
        }
        Expr::Not(e) => {
            let v = eval_expr(e, ctx)?;
            if v.is_null() {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(!v.as_bool().map_err(SqlError::from)?))
            }
        }
        Expr::Binary { op, lhs, rhs } => eval_binary(*op, lhs, rhs, ctx),
        Expr::Case { whens, otherwise } => {
            for (cond, result) in whens {
                let c = eval_expr(cond, ctx)?;
                // SQL: NULL condition is not satisfied.
                if !c.is_null() && c.as_bool().map_err(SqlError::from)? {
                    return eval_expr(result, ctx);
                }
            }
            match otherwise {
                Some(e) => eval_expr(e, ctx),
                None => Ok(Value::Null),
            }
        }
        Expr::Call { name, args } => {
            let mut arg_values = Vec::with_capacity(args.len());
            for a in args {
                arg_values.push(eval_expr(a, ctx)?);
            }
            call_function(name, &arg_values, ctx)
        }
    }
}

fn eval_binary(
    op: BinOp,
    lhs: &Expr,
    rhs: &Expr,
    ctx: &mut EvalContext<'_, '_>,
) -> SqlResult<Value> {
    // AND/OR get SQL three-valued logic with short-circuiting.
    match op {
        BinOp::And => {
            let l = eval_expr(lhs, ctx)?;
            if !l.is_null() && !l.as_bool().map_err(SqlError::from)? {
                return Ok(Value::Bool(false));
            }
            let r = eval_expr(rhs, ctx)?;
            if !r.is_null() && !r.as_bool().map_err(SqlError::from)? {
                return Ok(Value::Bool(false));
            }
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            Ok(Value::Bool(true))
        }
        BinOp::Or => {
            let l = eval_expr(lhs, ctx)?;
            if !l.is_null() && l.as_bool().map_err(SqlError::from)? {
                return Ok(Value::Bool(true));
            }
            let r = eval_expr(rhs, ctx)?;
            if !r.is_null() && r.as_bool().map_err(SqlError::from)? {
                return Ok(Value::Bool(true));
            }
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            Ok(Value::Bool(false))
        }
        _ => {
            let l = eval_expr(lhs, ctx)?;
            let r = eval_expr(rhs, ctx)?;
            apply_binop(op, &l, &r)
        }
    }
}

/// Apply one non-logical binary operator to a single operand pair: NULL
/// absorption, int→float promotion, NULL-propagating comparisons. Shared
/// with the columnar tier's per-value fallback path
/// ([`crate::columnar`]), so both tiers report identical values and
/// identical error messages.
pub(crate) fn apply_binop(op: BinOp, l: &Value, r: &Value) -> SqlResult<Value> {
    Ok(match op {
        BinOp::Add => l.add(r)?,
        BinOp::Sub => l.sub(r)?,
        BinOp::Mul => l.mul(r)?,
        BinOp::Div => l.div(r)?,
        BinOp::Rem => l.rem(r)?,
        BinOp::Cmp(c) => {
            if l.is_null() || r.is_null() {
                Value::Null
            } else {
                Value::Bool(c.test(l.sql_cmp(r)?))
            }
        }
        BinOp::And | BinOp::Or => unreachable!("logical operators use the three-valued path"),
    })
}

/// Dispatch a call: VG functions first (catalog wins over builtins, so
/// analysts can shadow a builtin with a model), then scalar builtins.
fn call_function(name: &str, args: &[Value], ctx: &mut EvalContext<'_, '_>) -> SqlResult<Value> {
    if ctx.registry.get(name).is_ok() {
        return ctx.invoke_vg(name, args);
    }
    scalar_builtin(name, args)
}

/// Scalar builtin functions (TSQL-ish). Shared with the columnar
/// evaluator in [`crate::columnar`], which applies the same builtin per
/// world.
pub(crate) fn scalar_builtin(name: &str, args: &[Value]) -> SqlResult<Value> {
    let upper = name.to_ascii_uppercase();

    fn unary_f64(name: &str, args: &[Value], f: impl Fn(f64) -> f64) -> SqlResult<Value> {
        if args.len() != 1 {
            return Err(SqlError::Eval(format!(
                "{name} takes 1 argument, got {}",
                args.len()
            )));
        }
        if args[0].is_null() {
            return Ok(Value::Null);
        }
        Ok(Value::Float(f(args[0].as_f64().map_err(SqlError::from)?)))
    }

    match upper.as_str() {
        "ABS" => {
            if args.len() != 1 {
                return Err(SqlError::Eval(format!(
                    "ABS takes 1 argument, got {}",
                    args.len()
                )));
            }
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(i.abs())),
                v => Ok(Value::Float(v.as_f64().map_err(SqlError::from)?.abs())),
            }
        }
        "SQRT" => unary_f64("SQRT", args, f64::sqrt),
        "EXP" => unary_f64("EXP", args, f64::exp),
        "LN" => unary_f64("LN", args, f64::ln),
        "FLOOR" => unary_f64("FLOOR", args, f64::floor),
        "CEILING" | "CEIL" => unary_f64("CEILING", args, f64::ceil),
        "POWER" => {
            if args.len() != 2 {
                return Err(SqlError::Eval(format!(
                    "POWER takes 2 arguments, got {}",
                    args.len()
                )));
            }
            if args[0].is_null() || args[1].is_null() {
                return Ok(Value::Null);
            }
            let b = args[0].as_f64().map_err(SqlError::from)?;
            let e = args[1].as_f64().map_err(SqlError::from)?;
            Ok(Value::Float(b.powf(e)))
        }
        "LEAST" | "GREATEST" => {
            if args.is_empty() {
                return Err(SqlError::Eval(format!(
                    "{upper} needs at least one argument"
                )));
            }
            if args.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            let mut best = args[0].clone();
            for v in &args[1..] {
                let ord = best.sql_cmp(v)?;
                let replace = matches!(
                    (upper.as_str(), ord),
                    ("LEAST", Some(std::cmp::Ordering::Greater))
                        | ("GREATEST", Some(std::cmp::Ordering::Less))
                );
                if replace {
                    best = v.clone();
                }
            }
            Ok(best)
        }
        "COALESCE" => {
            for v in args {
                if !v.is_null() {
                    return Ok(v.clone());
                }
            }
            Ok(Value::Null)
        }
        _ => Err(SqlError::Data(DataError::UnknownColumn(format!(
            "function `{name}`"
        )))),
    }
}

/// The `f64` sample encoding of one output cell, as the estimation layers
/// (fingerprint probes, Monte Carlo sample sets) store it: `NULL` becomes
/// `NaN`, everything else goes through [`Value::as_f64`].
///
/// This is the per-value NULL → NaN rule, written once: the scalar tier's
/// callers convert each row's cells through it, and the columnar tier's
/// [`to_f64_samples`](crate::columnar::to_f64_samples) through it for
/// boxed lanes (typed lanes fold their null mask instead, to the same
/// encoding).
pub fn sample_f64(value: &Value) -> SqlResult<f64> {
    match value {
        Value::Null => Ok(f64::NAN),
        v => Ok(v.as_f64()?),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_script};
    use crate::test_vg::test_registry;

    /// Evaluate the SELECT for `world` on per-call streams under root
    /// seed 7.
    fn evaluate_world(
        select: &SelectInto,
        registry: &VgRegistry,
        params: &HashMap<String, Value>,
        world: u64,
    ) -> SqlResult<Vec<(String, Value)>> {
        let rng = WorldRng::per_call(SeedManager::new(7), world);
        evaluate_select_with(select, registry, params, rng)
    }

    /// Evaluate a constant expression (no params, columns, VG functions
    /// or randomness).
    fn eval_const(expr: &Expr) -> SqlResult<Value> {
        struct NullRng;
        impl Rng64 for NullRng {
            fn next_u64(&mut self) -> u64 {
                unreachable!("constant expressions must not consume randomness")
            }
        }
        let registry = VgRegistry::new();
        let params = HashMap::new();
        let mut rng = NullRng;
        let mut ctx = EvalContext::new(&registry, &params, &mut rng);
        eval_expr(expr, &mut ctx)
    }

    fn const_eval(src: &str) -> Value {
        eval_const(&parse_expr(src).unwrap()).unwrap()
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(const_eval("1 + 2 * 3"), Value::Int(7));
        assert_eq!(const_eval("(1 + 2) * 3"), Value::Int(9));
        assert_eq!(const_eval("7 / 2"), Value::Int(3));
        assert_eq!(const_eval("7.0 / 2"), Value::Float(3.5));
        assert_eq!(const_eval("7 % 3"), Value::Int(1));
        assert_eq!(const_eval("-2 * 3"), Value::Int(-6));
    }

    #[test]
    fn comparisons() {
        assert_eq!(const_eval("1 < 2"), Value::Bool(true));
        assert_eq!(const_eval("2 <= 2"), Value::Bool(true));
        assert_eq!(const_eval("3 <> 3"), Value::Bool(false));
        assert_eq!(const_eval("2.5 >= 2"), Value::Bool(true));
        assert_eq!(const_eval("'a' = 'a'"), Value::Bool(true));
        assert_eq!(const_eval("'a' < 'b'"), Value::Bool(true));
    }

    #[test]
    fn three_valued_logic() {
        assert_eq!(const_eval("NULL AND TRUE"), Value::Null);
        assert_eq!(const_eval("NULL AND FALSE"), Value::Bool(false));
        assert_eq!(const_eval("NULL OR TRUE"), Value::Bool(true));
        assert_eq!(const_eval("NULL OR FALSE"), Value::Null);
        assert_eq!(const_eval("NOT NULL"), Value::Null);
        assert_eq!(const_eval("NULL = NULL"), Value::Null);
        assert_eq!(const_eval("NULL + 1"), Value::Null);
    }

    #[test]
    fn case_evaluation_order_and_null_condition() {
        assert_eq!(
            const_eval("CASE WHEN 1 < 2 THEN 10 WHEN 1 < 3 THEN 20 END"),
            Value::Int(10)
        );
        assert_eq!(const_eval("CASE WHEN 2 < 1 THEN 10 END"), Value::Null);
        assert_eq!(
            const_eval("CASE WHEN NULL THEN 10 ELSE 20 END"),
            Value::Int(20)
        );
    }

    #[test]
    fn builtins() {
        assert_eq!(const_eval("ABS(-3)"), Value::Int(3));
        assert_eq!(const_eval("ABS(-3.5)"), Value::Float(3.5));
        assert_eq!(const_eval("SQRT(9)"), Value::Float(3.0));
        assert_eq!(const_eval("FLOOR(2.7)"), Value::Float(2.0));
        assert_eq!(const_eval("CEILING(2.1)"), Value::Float(3.0));
        assert_eq!(const_eval("POWER(2, 10)"), Value::Float(1024.0));
        assert_eq!(const_eval("LEAST(3, 1, 2)"), Value::Int(1));
        assert_eq!(const_eval("GREATEST(3, 1, 2)"), Value::Int(3));
        assert_eq!(const_eval("COALESCE(NULL, NULL, 5)"), Value::Int(5));
        assert_eq!(const_eval("COALESCE(NULL, NULL)"), Value::Null);
        assert_eq!(const_eval("EXP(0)"), Value::Float(1.0));
        let ln_e = const_eval("LN(2.718281828459045)");
        match ln_e {
            Value::Float(f) => assert!((f - 1.0).abs() < 1e-12),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn builtin_null_propagation_and_arity_errors() {
        assert_eq!(const_eval("SQRT(NULL)"), Value::Null);
        assert_eq!(const_eval("POWER(NULL, 2)"), Value::Null);
        assert_eq!(const_eval("LEAST(1, NULL)"), Value::Null);
        assert!(eval_const(&parse_expr("SQRT(1, 2)").unwrap()).is_err());
        assert!(eval_const(&parse_expr("POWER(1)").unwrap()).is_err());
        assert!(eval_const(&parse_expr("NoSuchFn(1)").unwrap()).is_err());
    }

    #[test]
    fn full_select_with_vg_and_alias_references() {
        let script = parse_script(
            "DECLARE PARAMETER @base AS SET (100);\n\
             SELECT Jitter(@base) AS demand,\n\
                    Jitter(@base + 10) AS capacity,\n\
                    CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload\n\
             INTO results;",
        )
        .unwrap();
        let registry = test_registry();
        let mut params = HashMap::new();
        params.insert("base".to_string(), Value::Int(100));
        let row = evaluate_world(&script.select, &registry, &params, 5).unwrap();
        assert_eq!(row.len(), 3);
        assert_eq!(row[0].0, "demand");
        let demand = row[0].1.as_f64().unwrap();
        let capacity = row[1].1.as_f64().unwrap();
        assert!((100.0..101.0).contains(&demand));
        assert!((110.0..111.0).contains(&capacity));
        // capacity > demand here, so no overload
        assert_eq!(row[2].1, Value::Int(0));
    }

    #[test]
    fn select_is_deterministic_per_seed() {
        let script =
            parse_script("DECLARE PARAMETER @b AS SET (0);\nSELECT Jitter(@b) AS v INTO r;")
                .unwrap();
        let registry = test_registry();
        let mut params = HashMap::new();
        params.insert("b".to_string(), Value::Int(0));
        let run = |seed| {
            evaluate_world(&script.select, &registry, &params, seed).unwrap()[0]
                .1
                .clone()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn unbound_parameter_is_reported() {
        let script =
            parse_script("DECLARE PARAMETER @b AS SET (0);\nSELECT @b AS v INTO r;").unwrap();
        let registry = test_registry();
        let params = HashMap::new(); // not bound
        let err = evaluate_world(&script.select, &registry, &params, 1).unwrap_err();
        assert!(err.to_string().contains("unbound parameter @b"), "{err}");
    }

    #[test]
    fn unknown_alias_is_reported() {
        let script = parse_script("SELECT missing + 1 AS v INTO r;").unwrap();
        let registry = test_registry();
        let params = HashMap::new();
        let err = evaluate_world(&script.select, &registry, &params, 1).unwrap_err();
        assert!(
            err.to_string()
                .contains("unknown column or alias `missing`"),
            "{err}"
        );
    }

    #[test]
    fn division_by_zero_flows_as_null_not_error() {
        assert_eq!(const_eval("1 / 0"), Value::Null);
        assert_eq!(
            const_eval("CASE WHEN 1/0 > 1 THEN 1 ELSE 0 END"),
            Value::Int(0)
        );
    }

    /// On a shared stream a VG call still samples a concrete stream of its
    /// own, seeded from one `next_u64()` of the shared one.
    #[test]
    fn a_vg_call_on_the_shared_stream_seeds_its_own_stream() {
        let registry = test_registry();
        let params = HashMap::new();
        let mut shared = Xoshiro256StarStar::seed_from_u64(3);
        let mut ctx = EvalContext::new(&registry, &params, &mut shared);
        let call = parse_expr("Jitter(10)").unwrap();
        let drawn = [(); 2].map(|()| eval_expr(&call, &mut ctx).unwrap());

        let mut reference = Xoshiro256StarStar::seed_from_u64(3);
        let expected = [(); 2].map(|()| {
            let mut own = Xoshiro256StarStar::seed_from_u64(reference.next_u64());
            Value::Float(
                registry
                    .invoke("Jitter", &[Value::Int(10)], &mut own)
                    .unwrap(),
            )
        });
        assert_eq!(drawn, expected);
    }

    #[test]
    fn per_call_streams_isolate_call_sites() {
        // Two Jitter calls in one select: under per-call streams they draw
        // from independent substreams, and the FIRST call's draw must be
        // identical across different parameter values (CRN alignment).
        let script = parse_script(
            "DECLARE PARAMETER @b AS SET (0, 100);\n\
             SELECT Jitter(@b) AS first, Jitter(@b) AS second INTO r;",
        )
        .unwrap();
        let registry = test_registry();
        let seeds = SeedManager::new(7);

        let eval = |b: i64| {
            let mut params = HashMap::new();
            params.insert("b".to_string(), Value::Int(b));
            evaluate_select_with(
                &script.select,
                &registry,
                &params,
                crate::executor::WorldRng::per_call(seeds, 3),
            )
            .unwrap()
        };
        let r0 = eval(0);
        let r100 = eval(100);
        let noise_first_0 = r0[0].1.as_f64().unwrap();
        let noise_first_100 = r100[0].1.as_f64().unwrap() - 100.0;
        assert!(
            (noise_first_0 - noise_first_100).abs() < 1e-12,
            "first-call noise must align across parameter values"
        );
        // and the two call sites see different noise
        let noise_second_0 = r0[1].1.as_f64().unwrap();
        assert_ne!(noise_first_0, noise_second_0);
        // same world twice → identical output
        assert_eq!(eval(0), eval(0));
    }
}
