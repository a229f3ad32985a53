//! The Figure-4 exploration map.
//!
//! §3.3: "a live-updated view shows the simulation's progress through the
//! parameter space, as well as any established mappings, as in Figure 4"
//! (which shows a 2D slice of fingerprint mappings for the Capacity model).
//!
//! [`ExplorationMap`] is that view: a 2D grid over two chosen parameters
//! whose cells record whether each point was fully computed, re-mapped from
//! a correlated point, served from cache, or not yet visited — plus the
//! mapping edges themselves.

use std::fmt::Write as _;

use prophet_mc::ParamPoint;
use prophet_sql::ast::ParameterDecl;

use crate::engine::EvalOutcome;

/// Exploration status of one grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CellState {
    /// Not yet visited.
    #[default]
    Pending,
    /// At least one evaluation at this cell ran a full simulation.
    Computed,
    /// Visited exclusively through fingerprint mappings.
    Mapped,
    /// Visited exclusively through the exact cache.
    Cached,
}

impl CellState {
    /// One-character glyph for the ASCII rendering.
    pub fn glyph(self) -> char {
        match self {
            CellState::Pending => '.',
            CellState::Computed => '#',
            CellState::Mapped => '+',
            CellState::Cached => 'o',
        }
    }
}

/// A recorded mapping edge between two cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MappingEdge {
    /// Source cell `(x, y)` parameter values.
    pub from: (i64, i64),
    /// Target cell `(x, y)` parameter values.
    pub to: (i64, i64),
}

/// A 2D slice of the parameter space with per-cell exploration state.
#[derive(Debug, Clone)]
pub struct ExplorationMap {
    x_param: String,
    y_param: String,
    x_values: Vec<i64>,
    y_values: Vec<i64>,
    /// Per-cell counters: (simulated, mapped, cached), row-major by y then x.
    counts: Vec<(u64, u64, u64)>,
    edges: Vec<MappingEdge>,
}

impl ExplorationMap {
    /// Build a map over two declared parameters.
    pub fn new(x_decl: &ParameterDecl, y_decl: &ParameterDecl) -> Self {
        let x_values = x_decl.domain.values();
        let y_values = y_decl.domain.values();
        ExplorationMap {
            x_param: x_decl.name.clone(),
            y_param: y_decl.name.clone(),
            counts: vec![(0, 0, 0); x_values.len() * y_values.len()],
            x_values,
            y_values,
            edges: Vec::new(),
        }
    }

    fn index_of(&self, point: &ParamPoint) -> Option<usize> {
        let x = point.get(&self.x_param)?;
        let y = point.get(&self.y_param)?;
        let xi = self.x_values.iter().position(|&v| v == x)?;
        let yi = self.y_values.iter().position(|&v| v == y)?;
        Some(yi * self.x_values.len() + xi)
    }

    /// Record one engine evaluation. Points lying off this 2D slice are
    /// ignored. Mapping edges are recorded when both endpoints lie on the
    /// slice.
    pub fn record(&mut self, point: &ParamPoint, outcome: &EvalOutcome) {
        let Some(idx) = self.index_of(point) else {
            return;
        };
        match outcome {
            EvalOutcome::Simulated => self.counts[idx].0 += 1,
            EvalOutcome::Mapped { from, .. } => {
                self.counts[idx].1 += 1;
                if let (Some(fx), Some(fy), Some(tx), Some(ty)) = (
                    from.get(&self.x_param),
                    from.get(&self.y_param),
                    point.get(&self.x_param),
                    point.get(&self.y_param),
                ) {
                    let edge = MappingEdge {
                        from: (fx, fy),
                        to: (tx, ty),
                    };
                    if !self.edges.contains(&edge) {
                        self.edges.push(edge);
                    }
                }
            }
            EvalOutcome::Cached => self.counts[idx].2 += 1,
        }
    }

    /// State of the cell at parameter values `(x, y)`.
    pub fn cell(&self, x: i64, y: i64) -> Option<CellState> {
        let point = ParamPoint::from_pairs([(self.x_param.clone(), x), (self.y_param.clone(), y)]);
        let idx = self.index_of(&point)?;
        let (sim, mapped, cached) = self.counts[idx];
        Some(if sim > 0 {
            CellState::Computed
        } else if mapped > 0 {
            CellState::Mapped
        } else if cached > 0 {
            CellState::Cached
        } else {
            CellState::Pending
        })
    }

    /// `(computed, mapped, cached, pending)` cell counts.
    pub fn tally(&self) -> (usize, usize, usize, usize) {
        let mut t = (0, 0, 0, 0);
        for &(sim, mapped, cached) in &self.counts {
            if sim > 0 {
                t.0 += 1;
            } else if mapped > 0 {
                t.1 += 1;
            } else if cached > 0 {
                t.2 += 1;
            } else {
                t.3 += 1;
            }
        }
        t
    }

    /// Recorded mapping edges.
    pub fn edges(&self) -> &[MappingEdge] {
        &self.edges
    }

    /// Fraction of visited cells that avoided full simulation.
    pub fn reuse_fraction(&self) -> f64 {
        let (computed, mapped, cached, _) = self.tally();
        let visited = computed + mapped + cached;
        if visited == 0 {
            0.0
        } else {
            (mapped + cached) as f64 / visited as f64
        }
    }

    /// ASCII rendering (y grows downward): `#` computed, `+` mapped,
    /// `o` cached, `.` pending.
    pub fn render_ascii(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "@{} → (cols), @{} ↓ (rows)   # computed   + mapped   o cached   . pending",
            self.x_param, self.y_param
        );
        for (yi, &y) in self.y_values.iter().enumerate() {
            let _ = write!(out, "{y:>4} |");
            for xi in 0..self.x_values.len() {
                let (sim, mapped, cached) = self.counts[yi * self.x_values.len() + xi];
                let state = if sim > 0 {
                    CellState::Computed
                } else if mapped > 0 {
                    CellState::Mapped
                } else if cached > 0 {
                    CellState::Cached
                } else {
                    CellState::Pending
                };
                let _ = write!(out, " {}", state.glyph());
            }
            out.push('\n');
        }
        let _ = writeln!(out, "      mappings recorded: {}", self.edges.len());
        out
    }

    /// CSV rows `x,y,state` for external plotting.
    // analysis:allow(unreached): Figure 4's data export, library surface beside the ASCII render
    pub fn to_csv(&self) -> String {
        let mut out = format!("{},{},state\n", self.x_param, self.y_param);
        for (yi, &y) in self.y_values.iter().enumerate() {
            for (xi, &x) in self.x_values.iter().enumerate() {
                let (sim, mapped, cached) = self.counts[yi * self.x_values.len() + xi];
                let state = if sim > 0 {
                    "computed"
                } else if mapped > 0 {
                    "mapped"
                } else if cached > 0 {
                    "cached"
                } else {
                    "pending"
                };
                let _ = writeln!(out, "{x},{y},{state}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophet_sql::ast::ParameterDomain;

    fn decl(name: &str, lo: i64, hi: i64, step: i64) -> ParameterDecl {
        ParameterDecl {
            name: name.into(),
            domain: ParameterDomain::Range { lo, hi, step },
        }
    }

    fn map() -> ExplorationMap {
        ExplorationMap::new(&decl("purchase1", 0, 8, 4), &decl("purchase2", 0, 8, 4))
    }

    fn point(p1: i64, p2: i64) -> ParamPoint {
        ParamPoint::from_pairs([("purchase1", p1), ("purchase2", p2), ("current", 0i64)])
    }

    #[test]
    fn records_and_classifies_cells() {
        let mut m = map();
        m.record(&point(0, 0), &EvalOutcome::Simulated);
        m.record(
            &point(4, 0),
            &EvalOutcome::Mapped {
                from: point(0, 0),
                exact: true,
            },
        );
        m.record(&point(8, 0), &EvalOutcome::Cached);
        assert_eq!(m.cell(0, 0), Some(CellState::Computed));
        assert_eq!(m.cell(4, 0), Some(CellState::Mapped));
        assert_eq!(m.cell(8, 0), Some(CellState::Cached));
        assert_eq!(m.cell(0, 4), Some(CellState::Pending));
        assert_eq!(m.tally(), (1, 1, 1, 6));
    }

    #[test]
    fn simulation_dominates_mapping_in_cell_state() {
        let mut m = map();
        m.record(
            &point(0, 0),
            &EvalOutcome::Mapped {
                from: point(4, 0),
                exact: true,
            },
        );
        m.record(&point(0, 0), &EvalOutcome::Simulated);
        assert_eq!(m.cell(0, 0), Some(CellState::Computed));
    }

    #[test]
    fn edges_are_deduplicated() {
        let mut m = map();
        let o = EvalOutcome::Mapped {
            from: point(0, 0),
            exact: true,
        };
        m.record(&point(4, 4), &o);
        m.record(&point(4, 4), &o);
        assert_eq!(m.edges().len(), 1);
        assert_eq!(
            m.edges()[0],
            MappingEdge {
                from: (0, 0),
                to: (4, 4)
            }
        );
    }

    #[test]
    fn off_slice_points_are_ignored() {
        let mut m = map();
        let off = ParamPoint::from_pairs([("purchase1", 2i64), ("purchase2", 0)]); // 2 off-grid
        m.record(&off, &EvalOutcome::Simulated);
        assert_eq!(m.tally(), (0, 0, 0, 9));
        let missing = ParamPoint::from_pairs([("other", 1i64)]);
        m.record(&missing, &EvalOutcome::Simulated);
        assert_eq!(m.tally(), (0, 0, 0, 9));
    }

    #[test]
    fn reuse_fraction_counts_visited_only() {
        let mut m = map();
        assert_eq!(m.reuse_fraction(), 0.0);
        m.record(&point(0, 0), &EvalOutcome::Simulated);
        m.record(
            &point(4, 0),
            &EvalOutcome::Mapped {
                from: point(0, 0),
                exact: true,
            },
        );
        m.record(
            &point(8, 0),
            &EvalOutcome::Mapped {
                from: point(0, 0),
                exact: true,
            },
        );
        assert!((m.reuse_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ascii_and_csv_renderings() {
        let mut m = map();
        m.record(&point(0, 0), &EvalOutcome::Simulated);
        m.record(
            &point(4, 0),
            &EvalOutcome::Mapped {
                from: point(0, 0),
                exact: true,
            },
        );
        let ascii = m.render_ascii();
        assert!(ascii.contains("# computed"));
        assert!(
            ascii.contains("0 | # +"),
            "row 0 shows computed then mapped:\n{ascii}"
        );
        let csv = m.to_csv();
        assert!(csv.starts_with("purchase1,purchase2,state\n"));
        assert!(csv.contains("0,0,computed"));
        assert!(csv.contains("4,0,mapped"));
        assert!(csv.contains("8,8,pending"));
    }
}
