//! Abstract syntax for Prophet scenario scripts.
//!
//! A [`Script`] is the parsed form of a complete Figure-2 style scenario:
//! parameter declarations, one `SELECT … INTO` scenario query, and the
//! optional online (`GRAPH OVER`) and offline (`OPTIMIZE`) directives.

use std::fmt;

use prophet_data::Value;

/// Binary operators in scalar expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// Comparison.
    Cmp(CmpOp),
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>` / `!=`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Evaluate the comparison on an `Ordering`-like sign. `None` (unknown,
    /// from NULL operands) compares false under SQL semantics.
    pub fn test(self, ord: Option<std::cmp::Ordering>) -> bool {
        use std::cmp::Ordering::*;
        match (self, ord) {
            (_, None) => false,
            (CmpOp::Eq, Some(Equal)) => true,
            (CmpOp::Neq, Some(Less)) | (CmpOp::Neq, Some(Greater)) => true,
            (CmpOp::Lt, Some(Less)) => true,
            (CmpOp::Le, Some(Less)) | (CmpOp::Le, Some(Equal)) => true,
            (CmpOp::Gt, Some(Greater)) => true,
            (CmpOp::Ge, Some(Greater)) | (CmpOp::Ge, Some(Equal)) => true,
            _ => false,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Neq => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal constant.
    Literal(Value),
    /// `@parameter` reference.
    Param(String),
    /// Bare identifier: a reference to an earlier select-item alias (the
    /// Figure-2 query references `capacity` and `demand` this way).
    Column(String),
    /// Unary minus.
    Neg(Box<Expr>),
    /// Logical NOT.
    Not(Box<Expr>),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `CASE WHEN c THEN v [WHEN …] [ELSE e] END`.
    Case {
        /// `(condition, result)` pairs, tested in order.
        whens: Vec<(Expr, Expr)>,
        /// Fallback (`NULL` if absent, as in SQL).
        otherwise: Option<Box<Expr>>,
    },
    /// Function call: either a scalar builtin (`ABS`, `SQRT`, …) or a
    /// VG function from the catalog (`DemandModel(…)`).
    Call {
        /// Function name as written.
        name: String,
        /// Argument expressions.
        args: Vec<Expr>,
    },
}

impl Expr {
    /// All `@parameters` referenced anywhere in the expression.
    pub fn referenced_params(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.walk_params(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn walk_params(&self, out: &mut Vec<String>) {
        match self {
            Expr::Param(p) => out.push(p.clone()),
            Expr::Neg(e) | Expr::Not(e) => e.walk_params(out),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.walk_params(out);
                rhs.walk_params(out);
            }
            Expr::Case { whens, otherwise } => {
                for (c, v) in whens {
                    c.walk_params(out);
                    v.walk_params(out);
                }
                if let Some(e) = otherwise {
                    e.walk_params(out);
                }
            }
            Expr::Call { args, .. } => {
                for a in args {
                    a.walk_params(out);
                }
            }
            Expr::Literal(_) | Expr::Column(_) => {}
        }
    }

    /// All VG/scalar function calls in the expression (name, argument
    /// expressions), in evaluation order. Used by the fingerprint engine to
    /// find the stochastic sub-models of a scenario.
    pub fn referenced_calls(&self) -> Vec<(&str, &[Expr])> {
        let mut out = Vec::new();
        self.walk_calls(&mut out);
        out
    }

    fn walk_calls<'e>(&'e self, out: &mut Vec<(&'e str, &'e [Expr])>) {
        match self {
            Expr::Call { name, args } => {
                out.push((name.as_str(), args.as_slice()));
                for a in args {
                    a.walk_calls(out);
                }
            }
            Expr::Neg(e) | Expr::Not(e) => e.walk_calls(out),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.walk_calls(out);
                rhs.walk_calls(out);
            }
            Expr::Case { whens, otherwise } => {
                for (c, v) in whens {
                    c.walk_calls(out);
                    v.walk_calls(out);
                }
                if let Some(e) = otherwise {
                    e.walk_calls(out);
                }
            }
            Expr::Literal(_) | Expr::Param(_) | Expr::Column(_) => {}
        }
    }

    /// Every earlier select-item alias the expression reads (the bare
    /// identifiers), in evaluation order, repeats included. Lets a caller
    /// that needs only some items of a SELECT keep exactly the items those
    /// depend on.
    pub fn referenced_columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.walk_columns(&mut out);
        out
    }

    fn walk_columns<'e>(&'e self, out: &mut Vec<&'e str>) {
        match self {
            Expr::Column(name) => out.push(name),
            Expr::Neg(e) | Expr::Not(e) => e.walk_columns(out),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.walk_columns(out);
                rhs.walk_columns(out);
            }
            Expr::Case { whens, otherwise } => {
                for (c, v) in whens {
                    c.walk_columns(out);
                    v.walk_columns(out);
                }
                if let Some(e) = otherwise {
                    e.walk_columns(out);
                }
            }
            Expr::Call { args, .. } => {
                for a in args {
                    a.walk_columns(out);
                }
            }
            Expr::Literal(_) | Expr::Param(_) => {}
        }
    }
}

/// The domain of a declared parameter.
#[derive(Debug, Clone, PartialEq)]
pub enum ParameterDomain {
    /// `RANGE lo TO hi STEP BY step` — inclusive arithmetic progression.
    Range {
        /// First value.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
        /// Positive stride.
        step: i64,
    },
    /// `SET (v1, v2, …)` — explicit values.
    Set(Vec<i64>),
}

impl ParameterDomain {
    /// Materialize the domain as a value list (in declaration order).
    pub fn values(&self) -> Vec<i64> {
        match self {
            ParameterDomain::Range { lo, hi, step } => {
                let mut out = Vec::new();
                let mut next = Some(*lo);
                while let Some(v) = next.filter(|v| v <= hi) {
                    out.push(v);
                    next = v.checked_add(*step);
                }
                out
            }
            ParameterDomain::Set(vs) => vs.clone(),
        }
    }

    /// Number of values in the domain. The span `hi - lo` of a range can
    /// exceed `i64` (and the count of the full `i64` range exceeds
    /// `usize`), so the count is taken on the unsigned span and saturates
    /// at `usize::MAX`.
    pub fn cardinality(&self) -> usize {
        match self {
            ParameterDomain::Range { lo, hi, step } => {
                if hi < lo {
                    0
                } else {
                    let steps = hi.abs_diff(*lo) / step.unsigned_abs();
                    usize::try_from(steps).map_or(usize::MAX, |n| n.saturating_add(1))
                }
            }
            ParameterDomain::Set(vs) => vs.len(),
        }
    }

    /// Whether `v` belongs to the domain.
    pub fn contains(&self, v: i64) -> bool {
        match self {
            ParameterDomain::Range { lo, hi, step } => {
                v >= *lo && v <= *hi && v.abs_diff(*lo) % step.unsigned_abs() == 0
            }
            ParameterDomain::Set(vs) => vs.contains(&v),
        }
    }
}

/// `DECLARE PARAMETER @name AS <domain>;`
#[derive(Debug, Clone, PartialEq)]
pub struct ParameterDecl {
    /// Parameter name (without `@`).
    pub name: String,
    /// Its domain.
    pub domain: ParameterDomain,
}

/// One `expr AS alias` item of the scenario SELECT.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    /// The computed expression.
    pub expr: Expr,
    /// Column name in the result relation; later items may reference it.
    pub alias: String,
}

/// `SELECT … INTO target;`
#[derive(Debug, Clone, PartialEq)]
pub struct SelectInto {
    /// Select items, evaluated left to right.
    pub items: Vec<SelectItem>,
    /// Name of the results relation.
    pub target: String,
}

/// Aggregate metrics over the possible-worlds dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggMetric {
    /// `EXPECT col` — Monte Carlo expectation.
    Expect,
    /// `EXPECT_STDDEV col` — Monte Carlo standard deviation.
    ExpectStdDev,
}

impl fmt::Display for AggMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggMetric::Expect => f.write_str("EXPECT"),
            AggMetric::ExpectStdDev => f.write_str("EXPECT_STDDEV"),
        }
    }
}

/// One series of the online graph: `EXPECT overload WITH bold red`.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSpec {
    /// Which aggregate to plot.
    pub metric: AggMetric,
    /// Which result column.
    pub column: String,
    /// Style words, passed through to the renderer (`bold`, `red`, `y2`…).
    pub style: Vec<String>,
}

/// `GRAPH OVER @x EXPECT …, …;`
#[derive(Debug, Clone, PartialEq)]
pub struct GraphDirective {
    /// The parameter swept along the X axis.
    pub x_param: String,
    /// The plotted series.
    pub series: Vec<SeriesSpec>,
}

/// Outer aggregate applied across the graph axis in OPTIMIZE constraints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OuterAgg {
    /// `MAX(…)` over the swept parameter.
    Max,
    /// `MIN(…)`.
    Min,
    /// `AVG(…)`.
    Avg,
}

/// One constraint: `MAX(EXPECT overload) < 0.01`.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Aggregate across the swept axis.
    pub outer: OuterAgg,
    /// Aggregate across worlds.
    pub metric: AggMetric,
    /// Result column the metric applies to.
    pub column: String,
    /// Comparison against the threshold.
    pub op: CmpOp,
    /// Threshold constant.
    pub threshold: f64,
}

/// Objective direction in `FOR MAX @p` / `FOR MIN @p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectiveDirection {
    /// Prefer larger parameter values.
    Max,
    /// Prefer smaller parameter values.
    Min,
}

/// One lexicographic objective: `MAX @purchase1`.
#[derive(Debug, Clone, PartialEq)]
pub struct Objective {
    /// Direction.
    pub direction: ObjectiveDirection,
    /// Parameter being optimized.
    pub param: String,
}

/// `OPTIMIZE SELECT … FROM … WHERE … GROUP BY … FOR …`
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeSpec {
    /// Parameters reported in the answer.
    pub select_params: Vec<String>,
    /// Results relation name (must match the SELECT INTO target).
    pub from: String,
    /// Feasibility constraints (conjunctive).
    pub constraints: Vec<Constraint>,
    /// GROUP BY columns (parameter names, `@`-less as in the paper).
    pub group_by: Vec<String>,
    /// Lexicographic objectives, most significant first.
    pub objectives: Vec<Objective>,
}

/// A complete parsed scenario script.
#[derive(Debug, Clone, PartialEq)]
pub struct Script {
    /// Declared parameters, in order.
    pub params: Vec<ParameterDecl>,
    /// The scenario query.
    pub select: SelectInto,
    /// Online-mode directive, if present.
    pub graph: Option<GraphDirective>,
    /// Offline-mode directive, if present.
    pub optimize: Option<OptimizeSpec>,
}

impl Script {
    /// Look up a parameter declaration by name.
    pub fn param(&self, name: &str) -> Option<&ParameterDecl> {
        self.params.iter().find(|p| p.name == name)
    }

    /// Names of all result columns, in SELECT order.
    pub fn output_columns(&self) -> Vec<&str> {
        self.select.items.iter().map(|i| i.alias.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_op_truth_table() {
        use std::cmp::Ordering::*;
        assert!(CmpOp::Eq.test(Some(Equal)));
        assert!(!CmpOp::Eq.test(Some(Less)));
        assert!(CmpOp::Neq.test(Some(Greater)));
        assert!(!CmpOp::Neq.test(Some(Equal)));
        assert!(CmpOp::Lt.test(Some(Less)));
        assert!(CmpOp::Le.test(Some(Equal)));
        assert!(CmpOp::Gt.test(Some(Greater)));
        assert!(CmpOp::Ge.test(Some(Equal)));
        // NULL comparisons are false for every operator
        for op in [
            CmpOp::Eq,
            CmpOp::Neq,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert!(!op.test(None));
        }
    }

    #[test]
    fn range_domain_materialization() {
        let d = ParameterDomain::Range {
            lo: 0,
            hi: 12,
            step: 4,
        };
        assert_eq!(d.values(), vec![0, 4, 8, 12]);
        assert_eq!(d.cardinality(), 4);
        assert!(d.contains(8));
        assert!(!d.contains(9));
        assert!(!d.contains(16));
    }

    #[test]
    fn range_domain_non_divisible_end() {
        let d = ParameterDomain::Range {
            lo: 0,
            hi: 10,
            step: 4,
        };
        assert_eq!(d.values(), vec![0, 4, 8]);
        assert_eq!(d.cardinality(), 3);
    }

    #[test]
    fn empty_range() {
        let d = ParameterDomain::Range {
            lo: 5,
            hi: 4,
            step: 1,
        };
        assert_eq!(d.values(), Vec::<i64>::new());
        assert_eq!(d.cardinality(), 0);
    }

    #[test]
    fn extreme_range_counts_without_overflow() {
        // `hi - lo` overflows i64 here; the old `(hi - lo) / step + 1`
        // panicked in debug and wrapped in release.
        let full = ParameterDomain::Range {
            lo: i64::MIN,
            hi: i64::MAX,
            step: 1,
        };
        assert_eq!(full.cardinality(), usize::MAX, "saturates");
        assert!(full.contains(i64::MIN) && full.contains(0) && full.contains(i64::MAX));
        let wide = ParameterDomain::Range {
            lo: i64::MIN,
            hi: i64::MAX,
            step: i64::MAX,
        };
        assert_eq!(wide.cardinality(), 3);
        // `v += step` past `hi` overflows too: the walk must stop instead.
        assert_eq!(wide.values(), vec![i64::MIN, -1, i64::MAX - 1]);
        assert!(wide.contains(-1) && !wide.contains(0));
    }

    #[test]
    fn set_domain() {
        let d = ParameterDomain::Set(vec![12, 36, 44]);
        assert_eq!(d.values(), vec![12, 36, 44]);
        assert_eq!(d.cardinality(), 3);
        assert!(d.contains(36));
        assert!(!d.contains(13));
    }

    #[test]
    fn referenced_params_deduplicates() {
        let e = Expr::Binary {
            op: BinOp::Add,
            lhs: Box::new(Expr::Param("current".into())),
            rhs: Box::new(Expr::Call {
                name: "DemandModel".into(),
                args: vec![Expr::Param("current".into()), Expr::Param("feature".into())],
            }),
        };
        assert_eq!(
            e.referenced_params(),
            vec!["current".to_string(), "feature".to_string()]
        );
    }

    #[test]
    fn referenced_columns_reach_every_nesting() {
        let col = |n: &str| Box::new(Expr::Column(n.into()));
        let e = Expr::Case {
            whens: vec![(
                Expr::Binary {
                    op: BinOp::Cmp(CmpOp::Lt),
                    lhs: col("capacity"),
                    rhs: Box::new(Expr::Neg(col("demand"))),
                },
                Expr::Call {
                    name: "Normal".into(),
                    args: vec![Expr::Column("a".into()), Expr::Param("p".into())],
                },
            )],
            otherwise: Some(Box::new(Expr::Not(col("capacity")))),
        };
        assert_eq!(
            e.referenced_columns(),
            ["capacity", "demand", "a", "capacity"]
        );
        assert!(Expr::Param("p".into()).referenced_columns().is_empty());
    }

    #[test]
    fn referenced_calls_nested() {
        let e = Expr::Case {
            whens: vec![(
                Expr::Binary {
                    op: BinOp::Cmp(CmpOp::Lt),
                    lhs: Box::new(Expr::Call {
                        name: "A".into(),
                        args: vec![],
                    }),
                    rhs: Box::new(Expr::Call {
                        name: "B".into(),
                        args: vec![Expr::Call {
                            name: "C".into(),
                            args: vec![],
                        }],
                    }),
                },
                Expr::Literal(Value::Int(1)),
            )],
            otherwise: None,
        };
        let names: Vec<&str> = e.referenced_calls().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["A", "B", "C"]);
    }
}
