//! The Guide: the two sources of instances to simulate.
//!
//! "The Guide component directs scenario evaluation by producing a sequence
//! of instances, each representing a concrete valuation for each parameter
//! and model variable in the scenario" (§2). Each mode has one:
//!
//! * [`GridGuide`] — the exhaustive cartesian sweep of offline mode, an
//!   [`Iterator`] over the grid's points;
//! * [`PriorityGuide`] — online mode's one prefetch queue: the paper's
//!   *proactive exploration* ("which values are proactively being
//!   explored anticipating their future usage", §3.2) queues the domain
//!   neighbours of the slider the user last touched, first in first out,
//!   for idle time. There is no pluggable strategy. User requests never
//!   pass through it: the scheduler runs them as high-priority jobs ahead
//!   of every prefetch.

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

use prophet_sql::ast::ParameterDecl;
use prophet_vg::ShortList;

use crate::instance::ParamPoint;

/// Exhaustive row-major sweep over the cartesian product of all declared
/// parameter domains. The first declared parameter varies slowest, so runs
/// are reproducible and cache-friendly for per-prefix reuse. A clone
/// shares the grid's names and domains: a sweep builds its axis grid once
/// and binds a clone onto each group.
#[derive(Debug, Clone)]
pub struct GridGuide {
    /// Every parameter at its first value (and whatever [`GridGuide::onto`]
    /// bound besides): each point is this with the cursor's values
    /// stamped in ([`ParamPoint::stamped`]) — one allocation, and all of a
    /// guide's points share one set of names.
    template: ParamPoint,
    names: Arc<[String]>,
    axes: Arc<[Vec<i64>]>,
    /// Mixed-radix counter over `axes`; `None` once exhausted. Inline for
    /// up to eight axes, so binding a clone of a grid copies it.
    cursor: Option<ShortList<usize, 8>>,
}

impl GridGuide {
    /// Build from parameter declarations.
    pub fn new(decls: &[ParameterDecl]) -> Self {
        let names: Arc<[String]> = decls.iter().map(|d| d.name.clone()).collect();
        let axes: Arc<[Vec<i64>]> = decls.iter().map(|d| d.domain.values()).collect();
        let cursor = if axes.iter().any(Vec::is_empty) {
            None
        } else {
            let mut cursor = ShortList::with_capacity(0, axes.len());
            cursor.extend(std::iter::repeat(0).take(axes.len()));
            Some(cursor)
        };
        GridGuide {
            template: names.iter().map(|n| (n, 0)).collect(),
            names,
            axes,
            cursor,
        }
    }

    /// This grid bound onto `base`: every point is `base` with the grid's
    /// parameters set, in the grid's order (a sweep's one group).
    pub fn onto(mut self, base: &ParamPoint) -> Self {
        let mut template = base.clone();
        for name in self.names.iter() {
            template.set(name, 0);
        }
        self.template = template;
        self
    }
}

impl Iterator for GridGuide {
    type Item = ParamPoint;

    fn next(&mut self) -> Option<ParamPoint> {
        let cursor = self.cursor.as_mut()?;
        let (names, axes) = (&self.names, &self.axes);
        // The last declaration of a name wins, as setting them in order would.
        let point = self.template.stamped(|name| {
            let k = names.iter().rposition(|n| n == name)?;
            Some(axes[k][cursor[k]])
        });
        // Mixed-radix increment; last axis spins fastest.
        let mut done = true;
        for i in (0..cursor.len()).rev() {
            cursor[i] += 1;
            if cursor[i] < self.axes[i].len() {
                done = false;
                break;
            }
            cursor[i] = 0;
        }
        if done {
            self.cursor = None;
        }
        Some(point)
    }

    /// Exact, so collecting a grid allocates its vector once.
    fn size_hint(&self) -> (usize, Option<usize>) {
        let Some(cursor) = &self.cursor else {
            return (0, Some(0));
        };
        // The cursor's rank in the grid, and the grid's size.
        let (mut rank, mut total) = (0usize, 1usize);
        for (axis, &i) in self.axes.iter().zip(cursor) {
            let (Some(r), Some(t)) = (rank.checked_mul(axis.len()), total.checked_mul(axis.len()))
            else {
                return (0, None);
            };
            (rank, total) = (r + i, t);
        }
        (total - rank, Some(total - rank))
    }
}

/// Online mode's anticipatory exploration: a FIFO queue of prefetch
/// points, served in the order they were queued so the schedule is
/// deterministic. Points are deduplicated: enqueueing a point already
/// queued is a no-op. Prefetches run at low priority in the scheduler,
/// so a user's adjustment always overtakes them there.
#[derive(Debug)]
pub struct PriorityGuide {
    decls: Vec<ParameterDecl>,
    queue: VecDeque<ParamPoint>,
    queued: HashSet<ParamPoint>,
}

impl PriorityGuide {
    /// Build from declarations.
    pub fn new(decls: &[ParameterDecl]) -> Self {
        PriorityGuide {
            decls: decls.to_vec(),
            queue: VecDeque::new(),
            queued: HashSet::new(),
        }
    }

    /// The longest-queued point, or `None` when nothing is queued.
    pub fn next_point(&mut self) -> Option<ParamPoint> {
        let point = self.queue.pop_front()?;
        self.queued.remove(&point);
        Some(point)
    }

    /// Queue a speculative point behind every point already queued — a
    /// slider neighbour, or a point a progressive estimate left below
    /// full world depth, which idle time then deepens.
    pub fn enqueue_prefetch(&mut self, point: ParamPoint) {
        if self.queued.insert(point.clone()) {
            self.queue.push_back(point);
        }
    }

    /// Anticipatory exploration: queue the domain neighbours of `point`
    /// along parameter `axis` (the slider the user last touched — the most
    /// likely next adjustments).
    pub fn prefetch_neighbours(&mut self, point: &ParamPoint, axis: &str) {
        let Some(current) = point.get(axis) else {
            return;
        };
        let Some(decl) = self.decls.iter().find(|d| d.name == axis) else {
            return;
        };
        let values = decl.domain.values();
        let Some(idx) = values.iter().position(|&v| v == current) else {
            return;
        };
        let mut neighbours = Vec::with_capacity(2);
        if idx > 0 {
            neighbours.push(values[idx - 1]);
        }
        if idx + 1 < values.len() {
            neighbours.push(values[idx + 1]);
        }
        for v in neighbours {
            self.enqueue_prefetch(point.with(axis, v));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophet_sql::ast::ParameterDomain;

    fn decls() -> Vec<ParameterDecl> {
        vec![
            ParameterDecl {
                name: "a".into(),
                domain: ParameterDomain::Range {
                    lo: 0,
                    hi: 2,
                    step: 1,
                },
            },
            ParameterDecl {
                name: "b".into(),
                domain: ParameterDomain::Set(vec![10, 20]),
            },
        ]
    }

    #[test]
    fn grid_enumerates_full_product_once() {
        let mut seen = HashSet::new();
        for p in GridGuide::new(&decls()) {
            assert!(seen.insert(p.clone()), "duplicate point {p}");
        }
        assert_eq!(seen.len(), 6);
        for a in 0..=2i64 {
            for b in [10i64, 20] {
                assert!(seen.contains(&ParamPoint::from_pairs([("a", a), ("b", b)])));
            }
        }
    }

    #[test]
    fn grid_order_is_row_major_and_deterministic() {
        let s1: Vec<ParamPoint> = GridGuide::new(&decls()).collect();
        let s2: Vec<ParamPoint> = GridGuide::new(&decls()).collect();
        assert_eq!(s1, s2);
        // First parameter declared varies slowest.
        assert_eq!(s1[0], ParamPoint::from_pairs([("a", 0i64), ("b", 10)]));
        assert_eq!(s1[1], ParamPoint::from_pairs([("a", 0i64), ("b", 20)]));
        assert_eq!(s1[2], ParamPoint::from_pairs([("a", 1i64), ("b", 10)]));
    }

    #[test]
    fn every_point_of_a_grid_shares_the_first_points_names() {
        let mut g = GridGuide::new(&decls());
        let first = g.next().unwrap();
        let mut rest = 0;
        for p in g {
            rest += 1;
            for ((a, _), (b, _)) in first.iter().zip(p.iter()) {
                assert!(std::ptr::eq(a, b), "{p} allocated `{b}` again");
            }
        }
        assert_eq!(rest, 5);
    }

    #[test]
    fn a_grid_onto_a_point_keeps_its_values_and_shares_one_layout() {
        let base = ParamPoint::from_pairs([("z", 7i64), ("a", 99)]);
        let points: Vec<ParamPoint> = GridGuide::new(&decls()).onto(&base).collect();
        // The grid's order and values, the base's other parameters kept.
        let want: Vec<ParamPoint> = GridGuide::new(&decls())
            .map(|p| p.iter().fold(base.clone(), |q, (n, v)| q.with(n, v)))
            .collect();
        assert_eq!(points, want);
        assert!(points.iter().all(|p| p.shares_names(&points[0])));
    }

    #[test]
    fn a_grid_knows_how_many_points_are_left() {
        let mut g = GridGuide::new(&decls());
        for left in (0..=6).rev() {
            assert_eq!(g.size_hint(), (left, Some(left)));
            assert_eq!(g.next().is_some(), left > 0);
        }
        assert_eq!(GridGuide::new(&[]).size_hint(), (1, Some(1)));
    }

    #[test]
    fn grid_with_no_parameters_yields_one_empty_point() {
        let mut g = GridGuide::new(&[]);
        assert_eq!(g.next(), Some(ParamPoint::new()));
        assert_eq!(g.next(), None);
    }

    #[test]
    fn priority_guide_fifo_within_class() {
        let ds = decls();
        let mut g = PriorityGuide::new(&ds);
        let p1 = ParamPoint::from_pairs([("a", 0i64), ("b", 10)]);
        let p2 = ParamPoint::from_pairs([("a", 1i64), ("b", 10)]);
        let p3 = ParamPoint::from_pairs([("a", 2i64), ("b", 10)]);
        g.enqueue_prefetch(p1.clone());
        g.enqueue_prefetch(p2.clone());
        g.enqueue_prefetch(p3.clone());
        assert_eq!(g.next_point(), Some(p1));
        assert_eq!(g.next_point(), Some(p2));
        assert_eq!(g.next_point(), Some(p3));
    }

    #[test]
    fn priority_guide_deduplicates() {
        let ds = decls();
        let mut g = PriorityGuide::new(&ds);
        let p = ParamPoint::from_pairs([("a", 0i64), ("b", 10)]);
        g.enqueue_prefetch(p.clone());
        g.enqueue_prefetch(p.clone());
        assert_eq!(g.next_point(), Some(p.clone()));
        assert_eq!(g.next_point(), None);
        // after being served, the point may be queued again
        g.enqueue_prefetch(p.clone());
        assert_eq!(g.next_point(), Some(p));
    }

    #[test]
    fn priority_guide_anticipates_neighbours() {
        let ds = vec![ParameterDecl {
            name: "a".into(),
            domain: ParameterDomain::Range {
                lo: 0,
                hi: 8,
                step: 2,
            },
        }];
        let mut g = PriorityGuide::new(&ds);
        let p = ParamPoint::from_pairs([("a", 4i64)]);
        g.enqueue_prefetch(p.clone());
        g.prefetch_neighbours(&p, "a");
        // the queued point first, then the two domain neighbours 2 and 6
        assert_eq!(g.next_point(), Some(p));
        let n1 = g.next_point().unwrap();
        let n2 = g.next_point().unwrap();
        let mut got = vec![n1.get("a").unwrap(), n2.get("a").unwrap()];
        got.sort_unstable();
        assert_eq!(got, vec![2, 6]);
        assert_eq!(g.next_point(), None);
    }

    #[test]
    fn prefetch_neighbours_respects_domain_edges() {
        let ds = vec![ParameterDecl {
            name: "a".into(),
            domain: ParameterDomain::Range {
                lo: 0,
                hi: 8,
                step: 2,
            },
        }];
        let mut g = PriorityGuide::new(&ds);
        let p = ParamPoint::from_pairs([("a", 0i64)]);
        g.prefetch_neighbours(&p, "a");
        // only one neighbour exists (2)
        assert_eq!(g.next_point(), Some(ParamPoint::from_pairs([("a", 2i64)])));
        assert_eq!(g.next_point(), None);
    }

    #[test]
    fn observe_partial_requeues_at_prefetch_priority() {
        let ds = decls();
        let mut g = PriorityGuide::new(&ds);
        let earlier = ParamPoint::from_pairs([("a", 2i64), ("b", 20)]);
        let partial = ParamPoint::from_pairs([("a", 1i64), ("b", 10)]);
        // A progressive estimate's partial point is queued as a prefetch.
        g.enqueue_prefetch(earlier.clone());
        g.enqueue_prefetch(partial.clone());
        g.enqueue_prefetch(partial.clone());
        assert_eq!(
            g.next_point(),
            Some(earlier),
            "queued behind earlier prefetches"
        );
        assert_eq!(g.next_point(), Some(partial));
        assert_eq!(
            g.next_point(),
            None,
            "a queued partial point is not queued twice"
        );
    }

    #[test]
    fn prefetch_neighbours_handles_unknown_axis_and_off_grid_values() {
        let ds = decls();
        let mut g = PriorityGuide::new(&ds);
        let p = ParamPoint::from_pairs([("a", 1i64), ("b", 10)]);
        g.prefetch_neighbours(&p, "zz"); // unknown axis: no-op
        g.prefetch_neighbours(&ParamPoint::from_pairs([("a", 7i64)]), "a"); // off-grid: no-op
        assert_eq!(g.next_point(), None);
    }
}
