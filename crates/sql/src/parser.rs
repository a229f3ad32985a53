//! Parser for Prophet scenario scripts: recursive descent over the
//! statements, precedence climbing over expressions.

use prophet_data::Value;

use crate::ast::{
    AggMetric, BinOp, CmpOp, Constraint, Expr, GraphDirective, Objective, ObjectiveDirection,
    OptimizeSpec, OuterAgg, ParameterDecl, ParameterDomain, Script, SelectInto, SelectItem,
    SeriesSpec,
};
use crate::error::{SqlError, SqlResult};
use crate::lexer::tokenize;
use crate::token::{Keyword, Token, TokenKind};

/// Parse a complete scenario script (the Figure-2 language).
pub fn parse_script(src: &str) -> SqlResult<Script> {
    Parser::new(src)?.script()
}

/// Parse a standalone scalar expression (used by tests and the REPL-style
/// examples).
pub fn parse_expr(src: &str) -> SqlResult<Expr> {
    let mut p = Parser::new(src)?;
    let e = p.expr(prec::OR)?;
    p.expect_kind(&TokenKind::Eof)?;
    Ok(e)
}

/// How deep an expression may nest — parentheses, call arguments, `CASE`
/// arms, and the operand of every operator each count one level. Scenario
/// scripts are outside input: without a bound, a few hundred `(` overflow
/// the parser's stack and abort the process. Bundled scenarios nest in
/// single digits.
///
/// The same bound holds for the tree that comes out: no accepted
/// expression's AST is taller than this, so the recursive walkers
/// (`referenced_params`, both evaluators, `Drop`) are as safe as the
/// parser. A left-associative chain nests one level per operator —
/// `a + b + c` is `((a + b) + c)` — so `1 + 1 + … + 1` is bounded too.
pub const MAX_EXPR_DEPTH: usize = 128;

/// Operator precedence levels, loosest first. `OR` and `AND`, `+ -` and
/// `* / %` associate left; comparisons do not associate; `NOT` and unary
/// minus are prefix operators.
mod prec {
    pub const OR: u8 = 1;
    pub const AND: u8 = 2;
    pub const NOT: u8 = 3;
    pub const CMP: u8 = 4;
    pub const ADD: u8 = 5;
    pub const MUL: u8 = 6;
    pub const NEG: u8 = 7;
}

/// The infix operator a token spells, with its [`prec`] level.
fn infix_op(kind: &TokenKind) -> Option<(BinOp, u8)> {
    Some(match kind {
        TokenKind::Keyword(Keyword::Or) => (BinOp::Or, prec::OR),
        TokenKind::Keyword(Keyword::And) => (BinOp::And, prec::AND),
        TokenKind::Lt => (BinOp::Cmp(CmpOp::Lt), prec::CMP),
        TokenKind::Le => (BinOp::Cmp(CmpOp::Le), prec::CMP),
        TokenKind::Gt => (BinOp::Cmp(CmpOp::Gt), prec::CMP),
        TokenKind::Ge => (BinOp::Cmp(CmpOp::Ge), prec::CMP),
        TokenKind::Eq => (BinOp::Cmp(CmpOp::Eq), prec::CMP),
        TokenKind::Neq => (BinOp::Cmp(CmpOp::Neq), prec::CMP),
        TokenKind::Plus => (BinOp::Add, prec::ADD),
        TokenKind::Minus => (BinOp::Sub, prec::ADD),
        TokenKind::Star => (BinOp::Mul, prec::MUL),
        TokenKind::Slash => (BinOp::Div, prec::MUL),
        TokenKind::Percent => (BinOp::Rem, prec::MUL),
        _ => return None,
    })
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Live [`Parser::expr`] frames, bounded by [`MAX_EXPR_DEPTH`].
    depth: usize,
    /// AST height of the expression parsed last, bounded likewise.
    height: usize,
}

impl Parser {
    fn new(src: &str) -> SqlResult<Self> {
        Ok(Parser {
            tokens: tokenize(src)?,
            pos: 0,
            depth: 0,
            height: 0,
        })
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn advance(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn check_kw(&self, kw: Keyword) -> bool {
        matches!(self.peek().kind, TokenKind::Keyword(k) if k == kw)
    }

    fn eat_kw(&mut self, kw: Keyword) -> bool {
        if self.check_kw(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: Keyword) -> SqlResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            let t = self.peek();
            Err(SqlError::parse_at(
                format!("expected {kw:?}, found {}", t.kind),
                t.span,
            ))
        }
    }

    fn eat_kind(&mut self, kind: &TokenKind) -> bool {
        if &self.peek().kind == kind {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_kind(&mut self, kind: &TokenKind) -> SqlResult<()> {
        if self.eat_kind(kind) {
            Ok(())
        } else {
            let t = self.peek();
            Err(SqlError::parse_at(
                format!("expected `{kind}`, found {}", t.kind),
                t.span,
            ))
        }
    }

    fn expect_param(&mut self) -> SqlResult<String> {
        let t = self.advance();
        match t.kind {
            TokenKind::Param(name) => Ok(name),
            other => Err(SqlError::parse_at(
                format!("expected @parameter, found {other}"),
                t.span,
            )),
        }
    }

    fn expect_ident(&mut self) -> SqlResult<String> {
        let t = self.advance();
        match t.kind {
            TokenKind::Ident(name) => Ok(name),
            other => Err(SqlError::parse_at(
                format!("expected identifier, found {other}"),
                t.span,
            )),
        }
    }

    fn expect_int(&mut self) -> SqlResult<i64> {
        // Accept a leading minus so RANGE/SET can contain negatives.
        let neg = self.eat_kind(&TokenKind::Minus);
        let t = self.advance();
        match t.kind {
            TokenKind::Int(v) => Ok(if neg { -v } else { v }),
            other => Err(SqlError::parse_at(
                format!("expected integer, found {other}"),
                t.span,
            )),
        }
    }

    fn expect_number(&mut self) -> SqlResult<f64> {
        let neg = self.eat_kind(&TokenKind::Minus);
        let t = self.advance();
        let v = match t.kind {
            TokenKind::Int(v) => v as f64,
            TokenKind::Float(v) => v,
            other => {
                return Err(SqlError::parse_at(
                    format!("expected number, found {other}"),
                    t.span,
                ))
            }
        };
        Ok(if neg { -v } else { v })
    }

    // ---------------------------------------------------------- script

    fn script(&mut self) -> SqlResult<Script> {
        let mut params = Vec::new();
        while self.check_kw(Keyword::Declare) {
            params.push(self.parameter_decl()?);
        }
        let select = self.select_into()?;
        let mut graph = None;
        let mut optimize = None;
        loop {
            if self.check_kw(Keyword::Graph) {
                if graph.is_some() {
                    let t = self.peek();
                    return Err(SqlError::parse_at("duplicate GRAPH directive", t.span));
                }
                graph = Some(self.graph_directive()?);
            } else if self.check_kw(Keyword::Optimize) {
                if optimize.is_some() {
                    let t = self.peek();
                    return Err(SqlError::parse_at("duplicate OPTIMIZE directive", t.span));
                }
                optimize = Some(self.optimize_spec()?);
            } else {
                break;
            }
        }
        self.expect_kind(&TokenKind::Eof)?;

        // Semantic checks that need the whole script.
        let script = Script {
            params,
            select,
            graph,
            optimize,
        };
        self.validate(&script)?;
        Ok(script)
    }

    fn validate(&self, script: &Script) -> SqlResult<()> {
        let declared: Vec<&str> = script.params.iter().map(|p| p.name.as_str()).collect();
        for (i, p) in script.params.iter().enumerate() {
            if script.params[..i].iter().any(|q| q.name == p.name) {
                return Err(SqlError::Eval(format!(
                    "parameter @{} declared twice",
                    p.name
                )));
            }
            if p.domain.cardinality() == 0 {
                return Err(SqlError::Eval(format!(
                    "parameter @{} has an empty domain",
                    p.name
                )));
            }
        }
        for item in &script.select.items {
            for used in item.expr.referenced_params() {
                if !declared.contains(&used.as_str()) {
                    return Err(SqlError::Eval(format!("undeclared parameter @{used}")));
                }
            }
        }
        let columns = script.output_columns();
        if let Some(g) = &script.graph {
            if !declared.contains(&g.x_param.as_str()) {
                return Err(SqlError::Eval(format!(
                    "GRAPH OVER undeclared parameter @{}",
                    g.x_param
                )));
            }
            for s in &g.series {
                if !columns.contains(&s.column.as_str()) {
                    return Err(SqlError::Eval(format!(
                        "GRAPH series references unknown column `{}`",
                        s.column
                    )));
                }
            }
        }
        if let Some(o) = &script.optimize {
            if o.from != script.select.target {
                return Err(SqlError::Eval(format!(
                    "OPTIMIZE reads from `{}` but the scenario writes into `{}`",
                    o.from, script.select.target
                )));
            }
            for p in &o.select_params {
                if !declared.contains(&p.as_str()) {
                    return Err(SqlError::Eval(format!(
                        "OPTIMIZE selects undeclared parameter @{p}"
                    )));
                }
            }
            for c in &o.constraints {
                if !columns.contains(&c.column.as_str()) {
                    return Err(SqlError::Eval(format!(
                        "OPTIMIZE constraint references unknown column `{}`",
                        c.column
                    )));
                }
            }
            for obj in &o.objectives {
                if !declared.contains(&obj.param.as_str()) {
                    return Err(SqlError::Eval(format!(
                        "OPTIMIZE objective references undeclared parameter @{}",
                        obj.param
                    )));
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------ statements

    fn parameter_decl(&mut self) -> SqlResult<ParameterDecl> {
        self.expect_kw(Keyword::Declare)?;
        self.expect_kw(Keyword::Parameter)?;
        let name = self.expect_param()?;
        self.expect_kw(Keyword::As)?;
        let domain = if self.eat_kw(Keyword::Range) {
            let lo = self.expect_int()?;
            self.expect_kw(Keyword::To)?;
            let hi = self.expect_int()?;
            self.expect_kw(Keyword::Step)?;
            self.expect_kw(Keyword::By)?;
            let span = self.peek().span;
            let step = self.expect_int()?;
            if step <= 0 {
                return Err(SqlError::parse_at("STEP BY must be positive", span));
            }
            ParameterDomain::Range { lo, hi, step }
        } else if self.eat_kw(Keyword::Set) {
            self.expect_kind(&TokenKind::LParen)?;
            let mut values = vec![self.expect_int()?];
            while self.eat_kind(&TokenKind::Comma) {
                values.push(self.expect_int()?);
            }
            self.expect_kind(&TokenKind::RParen)?;
            ParameterDomain::Set(values)
        } else {
            let t = self.peek();
            return Err(SqlError::parse_at(
                format!("expected RANGE or SET, found {}", t.kind),
                t.span,
            ));
        };
        self.expect_kind(&TokenKind::Semicolon)?;
        Ok(ParameterDecl { name, domain })
    }

    fn select_into(&mut self) -> SqlResult<SelectInto> {
        self.expect_kw(Keyword::Select)?;
        let mut items = vec![self.select_item()?];
        while self.eat_kind(&TokenKind::Comma) {
            items.push(self.select_item()?);
        }
        self.expect_kw(Keyword::Into)?;
        let target = self.expect_ident()?;
        self.expect_kind(&TokenKind::Semicolon)?;
        // Aliases must be unique: later items reference earlier ones by name.
        for (i, it) in items.iter().enumerate() {
            if items[..i].iter().any(|o| o.alias == it.alias) {
                return Err(SqlError::Eval(format!(
                    "duplicate select alias `{}`",
                    it.alias
                )));
            }
        }
        Ok(SelectInto { items, target })
    }

    fn select_item(&mut self) -> SqlResult<SelectItem> {
        let expr = self.expr(prec::OR)?;
        self.expect_kw(Keyword::As)?;
        let alias = self.expect_ident()?;
        Ok(SelectItem { expr, alias })
    }

    fn graph_directive(&mut self) -> SqlResult<GraphDirective> {
        self.expect_kw(Keyword::Graph)?;
        self.expect_kw(Keyword::Over)?;
        let x_param = self.expect_param()?;
        let mut series = vec![self.series_spec()?];
        while self.eat_kind(&TokenKind::Comma) {
            series.push(self.series_spec()?);
        }
        self.expect_kind(&TokenKind::Semicolon)?;
        Ok(GraphDirective { x_param, series })
    }

    fn series_spec(&mut self) -> SqlResult<SeriesSpec> {
        let metric = self.agg_metric()?;
        let column = self.expect_ident()?;
        let mut style = Vec::new();
        if self.eat_kw(Keyword::With) {
            // Style words run until the next comma/semicolon.
            while let TokenKind::Ident(_) = &self.peek().kind {
                style.push(self.expect_ident()?);
            }
            if style.is_empty() {
                let t = self.peek();
                return Err(SqlError::parse_at(
                    "WITH requires at least one style word",
                    t.span,
                ));
            }
        }
        Ok(SeriesSpec {
            metric,
            column,
            style,
        })
    }

    fn agg_metric(&mut self) -> SqlResult<AggMetric> {
        if self.eat_kw(Keyword::Expect) {
            Ok(AggMetric::Expect)
        } else if self.eat_kw(Keyword::ExpectStddev) {
            Ok(AggMetric::ExpectStdDev)
        } else {
            let t = self.peek();
            Err(SqlError::parse_at(
                format!("expected EXPECT or EXPECT_STDDEV, found {}", t.kind),
                t.span,
            ))
        }
    }

    fn optimize_spec(&mut self) -> SqlResult<OptimizeSpec> {
        self.expect_kw(Keyword::Optimize)?;
        self.expect_kw(Keyword::Select)?;
        let mut select_params = vec![self.expect_param()?];
        while self.eat_kind(&TokenKind::Comma) {
            select_params.push(self.expect_param()?);
        }
        self.expect_kw(Keyword::From)?;
        let from = self.expect_ident()?;
        self.expect_kw(Keyword::Where)?;
        let mut constraints = vec![self.constraint()?];
        while self.eat_kw(Keyword::And) {
            constraints.push(self.constraint()?);
        }
        let mut group_by = Vec::new();
        if self.eat_kw(Keyword::Group) {
            self.expect_kw(Keyword::By)?;
            group_by.push(self.expect_ident()?);
            while self.eat_kind(&TokenKind::Comma) {
                group_by.push(self.expect_ident()?);
            }
        }
        self.expect_kw(Keyword::For)?;
        let mut objectives = vec![self.objective()?];
        while self.eat_kind(&TokenKind::Comma) {
            objectives.push(self.objective()?);
        }
        // Trailing semicolon is optional (the paper's Figure 2 omits it).
        self.eat_kind(&TokenKind::Semicolon);
        Ok(OptimizeSpec {
            select_params,
            from,
            constraints,
            group_by,
            objectives,
        })
    }

    fn constraint(&mut self) -> SqlResult<Constraint> {
        let outer = if self.eat_kw(Keyword::Max) {
            OuterAgg::Max
        } else if self.eat_kw(Keyword::Min) {
            OuterAgg::Min
        } else if self.eat_kw(Keyword::Avg) {
            OuterAgg::Avg
        } else {
            let t = self.peek();
            return Err(SqlError::parse_at(
                format!("expected MAX, MIN or AVG, found {}", t.kind),
                t.span,
            ));
        };
        self.expect_kind(&TokenKind::LParen)?;
        let metric = self.agg_metric()?;
        let column = self.expect_ident()?;
        self.expect_kind(&TokenKind::RParen)?;
        let op = self.cmp_op()?;
        let threshold = self.expect_number()?;
        Ok(Constraint {
            outer,
            metric,
            column,
            op,
            threshold,
        })
    }

    fn cmp_op(&mut self) -> SqlResult<CmpOp> {
        let t = self.advance();
        match infix_op(&t.kind) {
            Some((BinOp::Cmp(op), _)) => Ok(op),
            _ => Err(SqlError::parse_at(
                format!("expected comparison operator, found {}", t.kind),
                t.span,
            )),
        }
    }

    fn objective(&mut self) -> SqlResult<Objective> {
        let direction = if self.eat_kw(Keyword::Max) {
            ObjectiveDirection::Max
        } else if self.eat_kw(Keyword::Min) {
            ObjectiveDirection::Min
        } else {
            let t = self.peek();
            return Err(SqlError::parse_at(
                format!("expected MAX or MIN, found {}", t.kind),
                t.span,
            ));
        };
        let param = self.expect_param()?;
        Ok(Objective { direction, param })
    }

    // ----------------------------------------------------- expressions

    /// Parse an expression whose operators all sit at precedence level
    /// `min` or tighter — precedence climbing over the [`prec`] table. This
    /// is the grammar's one recursion point: operands of prefix and infix
    /// operators come back through here directly, and parentheses, call
    /// arguments and `CASE` arms through [`Parser::primary`].
    ///
    /// `max` is the tightest level the *next* infix operator may have. A
    /// left-associative operator leaves its own level open and a
    /// comparison closes it, so `a < b < c` stops before the second `<`
    /// for the caller to reject; every enclosing operator caps `max` at its
    /// own level, so that stop carries outward (`x AND NOT a < b < c`).
    fn expr(&mut self, min: u8) -> SqlResult<Expr> {
        if self.depth == MAX_EXPR_DEPTH {
            return Err(self.too_deep());
        }
        // Restored on success only: an error abandons the whole parse.
        self.depth += 1;
        let (mut lhs, mut max) = match self.peek().kind {
            TokenKind::Keyword(Keyword::Not) if min <= prec::NOT => {
                self.advance();
                let operand = self.expr(prec::NOT)?;
                self.node_over(self.height)?;
                (Expr::Not(Box::new(operand)), prec::NOT)
            }
            TokenKind::Minus => {
                self.advance();
                let operand = self.expr(prec::NEG)?;
                self.node_over(self.height)?;
                (Expr::Neg(Box::new(operand)), prec::NEG)
            }
            _ => (self.primary()?, u8::MAX),
        };
        while let Some((op, level)) = infix_op(&self.peek().kind) {
            if level < min || level > max {
                break;
            }
            self.advance();
            // Each fold puts `lhs` one level further down a left spine.
            let spine = self.height;
            let rhs = self.expr(level + 1)?;
            self.node_over(spine.max(self.height))?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
            max = if level == prec::CMP { level - 1 } else { level };
        }
        self.depth -= 1;
        Ok(lhs)
    }

    fn too_deep(&self) -> SqlError {
        SqlError::parse_at(
            format!("expression nests deeper than {MAX_EXPR_DEPTH} levels"),
            self.peek().span,
        )
    }

    /// Account for an AST node about to be built over operands the tallest
    /// of which is `below` levels tall. Refusing *before* the node exists
    /// keeps every tree this parser ever holds — and drops on an error —
    /// within [`MAX_EXPR_DEPTH`].
    fn node_over(&mut self, below: usize) -> SqlResult<()> {
        if below >= MAX_EXPR_DEPTH {
            return Err(self.too_deep());
        }
        self.height = below + 1;
        Ok(())
    }

    fn primary(&mut self) -> SqlResult<Expr> {
        let t = self.advance();
        // A leaf, unless an arm below parses operands of its own.
        self.height = 1;
        match t.kind {
            TokenKind::Int(v) => Ok(Expr::Literal(Value::Int(v))),
            TokenKind::Float(v) => Ok(Expr::Literal(Value::Float(v))),
            TokenKind::Str(s) => Ok(Expr::Literal(Value::Str(s))),
            TokenKind::Keyword(Keyword::True) => Ok(Expr::Literal(Value::Bool(true))),
            TokenKind::Keyword(Keyword::False) => Ok(Expr::Literal(Value::Bool(false))),
            TokenKind::Keyword(Keyword::Null) => Ok(Expr::Literal(Value::Null)),
            TokenKind::Param(name) => Ok(Expr::Param(name)),
            TokenKind::LParen => {
                let e = self.expr(prec::OR)?;
                self.expect_kind(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Keyword(Keyword::Case) => self.case_tail(),
            TokenKind::Ident(name) => {
                if self.eat_kind(&TokenKind::LParen) {
                    let mut args = Vec::new();
                    let mut tallest = 0;
                    if !self.eat_kind(&TokenKind::RParen) {
                        loop {
                            args.push(self.expr(prec::OR)?);
                            tallest = tallest.max(self.height);
                            if !self.eat_kind(&TokenKind::Comma) {
                                break;
                            }
                        }
                        self.expect_kind(&TokenKind::RParen)?;
                    }
                    self.node_over(tallest)?;
                    Ok(Expr::Call { name, args })
                } else {
                    Ok(Expr::Column(name))
                }
            }
            other => Err(SqlError::parse_at(
                format!("expected expression, found {other}"),
                t.span,
            )),
        }
    }

    /// Parse after the CASE keyword: `WHEN c THEN v … [ELSE e] END`.
    fn case_tail(&mut self) -> SqlResult<Expr> {
        let mut whens = Vec::new();
        let mut tallest = 0;
        self.expect_kw(Keyword::When)?;
        loop {
            let cond = self.expr(prec::OR)?;
            tallest = tallest.max(self.height);
            self.expect_kw(Keyword::Then)?;
            let result = self.expr(prec::OR)?;
            tallest = tallest.max(self.height);
            whens.push((cond, result));
            if !self.eat_kw(Keyword::When) {
                break;
            }
        }
        let otherwise = if self.eat_kw(Keyword::Else) {
            let fallback = self.expr(prec::OR)?;
            tallest = tallest.max(self.height);
            Some(Box::new(fallback))
        } else {
            None
        };
        self.expect_kw(Keyword::End)?;
        self.node_over(tallest)?;
        Ok(Expr::Case { whens, otherwise })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 2, verbatim apart from whitespace.
    pub const FIGURE2: &str = r#"
-- DEFINITION --
DECLARE PARAMETER @current AS RANGE 0 TO 52 STEP BY 1;
DECLARE PARAMETER @purchase1 AS RANGE 0 TO 52 STEP BY 4;
DECLARE PARAMETER @purchase2 AS RANGE 0 TO 52 STEP BY 4;
DECLARE PARAMETER @feature AS SET (12,36,44);

SELECT DemandModel(@current, @feature)
         AS demand,
       CapacityModel(@current, @purchase1, @purchase2)
         AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END
         AS overload
INTO results;

-- ONLINE MODE --
GRAPH OVER @current
    EXPECT overload WITH bold red,
    EXPECT capacity WITH blue y2,
    EXPECT_STDDEV demand WITH orange y2;

-- OFFLINE MODE --
OPTIMIZE SELECT @feature, @purchase1, @purchase2
FROM results
WHERE MAX(EXPECT overload) < 0.01
GROUP BY feature, purchase1, purchase2
FOR MAX @purchase1, MAX @purchase2
"#;

    #[test]
    fn parses_the_papers_figure_2() {
        let s = parse_script(FIGURE2).expect("Figure 2 must parse");
        assert_eq!(s.params.len(), 4);
        assert_eq!(s.params[0].name, "current");
        assert_eq!(s.params[0].domain.cardinality(), 53);
        assert_eq!(s.params[1].domain.cardinality(), 14);
        assert_eq!(s.params[3].domain, ParameterDomain::Set(vec![12, 36, 44]));

        assert_eq!(s.select.target, "results");
        assert_eq!(s.output_columns(), vec!["demand", "capacity", "overload"]);

        let g = s.graph.as_ref().expect("graph directive");
        assert_eq!(g.x_param, "current");
        assert_eq!(g.series.len(), 3);
        assert_eq!(g.series[0].metric, AggMetric::Expect);
        assert_eq!(g.series[0].column, "overload");
        assert_eq!(g.series[0].style, vec!["bold", "red"]);
        assert_eq!(g.series[2].metric, AggMetric::ExpectStdDev);

        let o = s.optimize.as_ref().expect("optimize directive");
        assert_eq!(o.select_params, vec!["feature", "purchase1", "purchase2"]);
        assert_eq!(o.from, "results");
        assert_eq!(o.constraints.len(), 1);
        let c = &o.constraints[0];
        assert_eq!(c.outer, OuterAgg::Max);
        assert_eq!(c.metric, AggMetric::Expect);
        assert_eq!(c.column, "overload");
        assert_eq!(c.op, CmpOp::Lt);
        assert!((c.threshold - 0.01).abs() < 1e-12);
        assert_eq!(o.group_by, vec!["feature", "purchase1", "purchase2"]);
        assert_eq!(o.objectives.len(), 2);
        assert_eq!(o.objectives[0].direction, ObjectiveDirection::Max);
        assert_eq!(o.objectives[0].param, "purchase1");
    }

    #[test]
    fn case_expression_structure() {
        let e = parse_expr("CASE WHEN capacity < demand THEN 1 ELSE 0 END").unwrap();
        match e {
            Expr::Case { whens, otherwise } => {
                assert_eq!(whens.len(), 1);
                assert!(otherwise.is_some());
                match &whens[0].0 {
                    Expr::Binary {
                        op: BinOp::Cmp(CmpOp::Lt),
                        ..
                    } => {}
                    other => panic!("unexpected condition {other:?}"),
                }
            }
            other => panic!("expected CASE, got {other:?}"),
        }
    }

    #[test]
    fn multi_when_case_without_else() {
        let e = parse_expr("CASE WHEN a > 1 THEN 1 WHEN a > 0 THEN 2 END").unwrap();
        match e {
            Expr::Case { whens, otherwise } => {
                assert_eq!(whens.len(), 2);
                assert!(otherwise.is_none());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn precedence_mul_over_add_over_cmp_over_and() {
        let e = parse_expr("1 + 2 * 3 < 10 AND x = 1").unwrap();
        // top must be AND
        match e {
            Expr::Binary {
                op: BinOp::And,
                lhs,
                ..
            } => match *lhs {
                Expr::Binary {
                    op: BinOp::Cmp(CmpOp::Lt),
                    lhs,
                    ..
                } => match *lhs {
                    Expr::Binary {
                        op: BinOp::Add,
                        rhs,
                        ..
                    } => match *rhs {
                        Expr::Binary { op: BinOp::Mul, .. } => {}
                        other => panic!("expected Mul under Add, got {other:?}"),
                    },
                    other => panic!("expected Add under Lt, got {other:?}"),
                },
                other => panic!("expected Lt under And, got {other:?}"),
            },
            other => panic!("expected And at top, got {other:?}"),
        }
    }

    #[test]
    fn unary_minus_and_parens() {
        let e = parse_expr("-(1 + @x) * 2").unwrap();
        match e {
            Expr::Binary {
                op: BinOp::Mul,
                lhs,
                ..
            } => match *lhs {
                Expr::Neg(_) => {}
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn zero_arg_calls_and_nested_calls() {
        let e = parse_expr("F() + G(H(1), 2)").unwrap();
        let calls = e.referenced_calls();
        let names: Vec<&str> = calls.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["F", "G", "H"]);
    }

    #[test]
    fn undeclared_parameter_is_rejected() {
        let src = "SELECT DemandModel(@nope) AS d INTO r;";
        let err = parse_script(src).unwrap_err();
        assert!(
            err.to_string().contains("undeclared parameter @nope"),
            "{err}"
        );
    }

    #[test]
    fn empty_domain_is_rejected() {
        let src = "DECLARE PARAMETER @p AS RANGE 5 TO 4 STEP BY 1;\nSELECT 1 AS x INTO r;";
        let err = parse_script(src).unwrap_err();
        assert!(err.to_string().contains("empty domain"), "{err}");
    }

    #[test]
    fn non_positive_step_is_rejected() {
        let src = "DECLARE PARAMETER @p AS RANGE 0 TO 4 STEP BY 0;\nSELECT 1 AS x INTO r;";
        assert!(parse_script(src).is_err());
    }

    #[test]
    fn duplicate_alias_is_rejected() {
        let src = "SELECT 1 AS x, 2 AS x INTO r;";
        let err = parse_script(src).unwrap_err();
        assert!(err.to_string().contains("duplicate select alias"), "{err}");
    }

    #[test]
    fn duplicate_parameter_is_rejected() {
        let src = "DECLARE PARAMETER @p AS SET (1);\nDECLARE PARAMETER @p AS SET (2);\nSELECT 1 AS x INTO r;";
        let err = parse_script(src).unwrap_err();
        assert!(err.to_string().contains("declared twice"), "{err}");
    }

    #[test]
    fn graph_validation() {
        let src =
            "DECLARE PARAMETER @p AS SET (1);\nSELECT 1 AS x INTO r;\nGRAPH OVER @q EXPECT x;";
        assert!(parse_script(src)
            .unwrap_err()
            .to_string()
            .contains("undeclared parameter @q"));

        let src =
            "DECLARE PARAMETER @p AS SET (1);\nSELECT 1 AS x INTO r;\nGRAPH OVER @p EXPECT y;";
        assert!(parse_script(src)
            .unwrap_err()
            .to_string()
            .contains("unknown column `y`"));
    }

    #[test]
    fn optimize_validation() {
        let base = "DECLARE PARAMETER @p AS SET (1);\nSELECT 1 AS x INTO r;\n";
        let bad_from =
            format!("{base}OPTIMIZE SELECT @p FROM other WHERE MAX(EXPECT x) < 1 FOR MAX @p");
        assert!(parse_script(&bad_from)
            .unwrap_err()
            .to_string()
            .contains("reads from `other`"));

        let bad_col =
            format!("{base}OPTIMIZE SELECT @p FROM r WHERE MAX(EXPECT nope) < 1 FOR MAX @p");
        assert!(parse_script(&bad_col)
            .unwrap_err()
            .to_string()
            .contains("unknown column `nope`"));

        let bad_obj =
            format!("{base}OPTIMIZE SELECT @p FROM r WHERE MAX(EXPECT x) < 1 FOR MAX @zz");
        assert!(parse_script(&bad_obj)
            .unwrap_err()
            .to_string()
            .contains("undeclared parameter @zz"));
    }

    #[test]
    fn multiple_constraints_with_and() {
        let src = "DECLARE PARAMETER @p AS SET (1);\nSELECT 1 AS x, 2 AS y INTO r;\nOPTIMIZE SELECT @p FROM r WHERE MAX(EXPECT x) < 1 AND AVG(EXPECT_STDDEV y) >= 0.5 FOR MIN @p";
        let s = parse_script(src).unwrap();
        let o = s.optimize.unwrap();
        assert_eq!(o.constraints.len(), 2);
        assert_eq!(o.constraints[1].outer, OuterAgg::Avg);
        assert_eq!(o.constraints[1].metric, AggMetric::ExpectStdDev);
        assert_eq!(o.constraints[1].op, CmpOp::Ge);
        assert_eq!(o.objectives[0].direction, ObjectiveDirection::Min);
    }

    #[test]
    fn negative_set_values_and_thresholds() {
        let src = "DECLARE PARAMETER @p AS SET (-4, -2, 0);\nSELECT @p AS x INTO r;\nOPTIMIZE SELECT @p FROM r WHERE MIN(EXPECT x) > -3.5 FOR MAX @p";
        let s = parse_script(src).unwrap();
        assert_eq!(s.params[0].domain, ParameterDomain::Set(vec![-4, -2, 0]));
        let o = s.optimize.unwrap();
        assert!((o.constraints[0].threshold + 3.5).abs() < 1e-12);
    }

    #[test]
    fn error_messages_carry_line_numbers() {
        let src = "DECLARE PARAMETER @p AS SET (1);\nSELECT 1 AS\nINTO r;";
        match parse_script(src) {
            Err(SqlError::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn truncated_input_is_an_error_not_a_hang() {
        assert!(parse_script("SELECT 1 AS x").is_err());
        assert!(parse_script("DECLARE PARAMETER @p AS RANGE 0 TO").is_err());
        assert!(parse_script("SELECT CASE WHEN 1 THEN").is_err());
        assert!(parse_script("").is_err());
    }

    #[test]
    fn graph_series_without_style() {
        let src =
            "DECLARE PARAMETER @p AS SET (1,2);\nSELECT @p AS x INTO r;\nGRAPH OVER @p EXPECT x;";
        let s = parse_script(src).unwrap();
        assert!(s.graph.unwrap().series[0].style.is_empty());
    }

    #[test]
    fn directives_in_either_order() {
        let src = "DECLARE PARAMETER @p AS SET (1,2);\nSELECT @p AS x INTO r;\nOPTIMIZE SELECT @p FROM r WHERE MAX(EXPECT x) < 10 FOR MAX @p;\nGRAPH OVER @p EXPECT x;";
        let s = parse_script(src).unwrap();
        assert!(s.graph.is_some());
        assert!(s.optimize.is_some());
    }
}
