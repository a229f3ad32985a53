//! Scenario: a parsed script plus the canonical demo text.

use prophet_sql::ast::ParameterDecl;
use prophet_sql::parser::parse_script;
use prophet_sql::Script;

use crate::error::{ProphetError, ProphetResult};

/// The paper's Figure 2, verbatim (modulo whitespace): the "Risk vs Cost of
/// Ownership" scenario for a Windows-Azure-style datacenter.
pub const FIGURE2_SQL: &str = r#"
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

/// A business scenario: the parsed script plus its source text.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    source: String,
    script: Script,
}

impl Scenario {
    /// Parse a scenario from DSL text.
    ///
    /// Rejects a parameter space too large to count
    /// ([`ProphetError::ParameterSpaceTooLarge`]), so every size derived
    /// from a parsed scenario — [`Scenario::parameter_space_size`], a
    /// sweep's group and axis totals — is overflow-free.
    pub fn parse(source: &str) -> ProphetResult<Scenario> {
        let script = parse_script(source)?;
        space_size(&script.params)?;
        Ok(Scenario {
            source: source.to_owned(),
            script,
        })
    }

    /// The paper's Figure-2 scenario.
    pub fn figure2() -> ProphetResult<Scenario> {
        Scenario::parse(FIGURE2_SQL)
    }

    /// The parsed script.
    pub fn script(&self) -> &Script {
        &self.script
    }

    /// The original DSL text (the GUI shows "the small fragment of SQL code
    /// required to describe the scenario", §3.2).
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Size of the full parameter space (product of all domains).
    pub fn parameter_space_size(&self) -> usize {
        space_size(&self.script.params).expect("invariant: checked by Scenario::parse")
    }
}

/// Number of points in the grid spanned by `decls` (the product of their
/// domain sizes), or [`ProphetError::ParameterSpaceTooLarge`] when it
/// overflows `usize`.
pub(crate) fn space_size(decls: &[ParameterDecl]) -> ProphetResult<usize> {
    decls
        .iter()
        .try_fold(1usize, |size, d| size.checked_mul(d.domain.cardinality()))
        .ok_or_else(|| ProphetError::ParameterSpaceTooLarge {
            params: decls.iter().map(|d| d.name.clone()).collect(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_parses_and_has_expected_shape() {
        let s = Scenario::figure2().unwrap();
        assert_eq!(s.script().params.len(), 4);
        assert!(s.script().graph.is_some());
        assert!(s.script().optimize.is_some());
        // 53 × 14 × 14 × 3
        assert_eq!(s.parameter_space_size(), 53 * 14 * 14 * 3);
        assert!(s.source().contains("OPTIMIZE"));
    }

    #[test]
    fn a_space_too_large_to_count_is_a_typed_error() {
        // 2⁶³ × 3 overflows usize; each domain alone is fine.
        let src = "\
DECLARE PARAMETER @a AS RANGE 0 TO 9223372036854775807 STEP BY 1;
DECLARE PARAMETER @b AS SET (1, 2, 3);
SELECT @a + @b AS y INTO r;";
        match Scenario::parse(src) {
            Err(ProphetError::ParameterSpaceTooLarge { params }) => {
                assert_eq!(params, ["a", "b"]);
            }
            other => panic!("expected ParameterSpaceTooLarge, got {other:?}"),
        }
        // One huge axis alone still counts (and must not panic).
        let alone = Scenario::parse(
            "DECLARE PARAMETER @a AS RANGE 0 TO 9223372036854775807 STEP BY 1;\n\
             SELECT @a + 0 AS y INTO r;",
        )
        .unwrap();
        assert_eq!(alone.parameter_space_size(), 1usize << 63);
    }

    #[test]
    fn parse_errors_bubble_up() {
        assert!(Scenario::parse("SELECT oops").is_err());
    }
}
