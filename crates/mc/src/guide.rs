//! The Guide: strategies that produce the sequence of instances to simulate.
//!
//! "The Guide component directs scenario evaluation by producing a sequence
//! of instances, each representing a concrete valuation for each parameter
//! and model variable in the scenario" (§2). Two strategies:
//!
//! * [`GridGuide`] — exhaustive cartesian sweep (offline mode),
//! * [`PriorityGuide`] — the prefetch queue used by online mode: the
//!   paper's *proactive exploration* ("which values are proactively being
//!   explored anticipating their future usage", §3.2) enqueues the
//!   neighbourhood of recent requests for idle time. User requests never
//!   pass through it: the scheduler runs them as high-priority jobs ahead
//!   of every prefetch.

use std::collections::{HashSet, VecDeque};

use prophet_sql::ast::ParameterDecl;

use crate::instance::ParamPoint;

/// A source of parameter points to evaluate next.
///
/// The trait is object-safe: online sessions hold a `Box<dyn Guide + Send>`
/// so the exploration strategy is pluggable (the
/// `Prophet` builder's `.exploration(…)` hook), not hard-wired to
/// [`PriorityGuide`].
pub trait Guide {
    /// The next point to evaluate, or `None` when the strategy has nothing
    /// pending.
    fn next_point(&mut self) -> Option<ParamPoint>;

    /// Notification that the user explicitly requested `point` by adjusting
    /// the parameter `axis` — the hook anticipatory strategies use to queue
    /// proactive work (paper §3.2). Default: no-op.
    fn observe_adjustment(&mut self, point: &ParamPoint, axis: &str) {
        let _ = (point, axis);
    }

    /// Number of explicitly queued points waiting to be served. Strategies
    /// that *generate* rather than queue (grid, random) report 0.
    fn pending(&self) -> usize {
        0
    }

    /// Notification that `point` was evaluated only partially (a
    /// progressive estimate converged — or its budget ran out — below the
    /// configured world depth): the remaining work is real and should not
    /// be silently discarded. Queueing strategies re-queue the point so
    /// idle time (`prefetch_tick`) can finish it; the default is a no-op.
    fn observe_partial(&mut self, point: &ParamPoint) {
        let _ = point;
    }
}

/// Builds a fresh [`Guide`] for one session over the given parameter
/// declarations. The `Prophet` service holds one factory and invokes it per
/// session, since guides are stateful and session-local.
pub trait GuideFactory: Send + Sync {
    /// Construct a guide for a scenario's parameters.
    fn build(&self, decls: &[ParameterDecl]) -> Box<dyn Guide + Send>;
}

impl<F> GuideFactory for F
where
    F: Fn(&[ParameterDecl]) -> Box<dyn Guide + Send> + Send + Sync,
{
    fn build(&self, decls: &[ParameterDecl]) -> Box<dyn Guide + Send> {
        self(decls)
    }
}

/// Exhaustive row-major sweep over the cartesian product of all declared
/// parameter domains. The first declared parameter varies slowest, so runs
/// are reproducible and cache-friendly for per-prefix reuse.
#[derive(Debug, Clone)]
pub struct GridGuide {
    /// Every parameter at its first value: each point is a clone of this
    /// with the cursor's values stamped in, so all of a guide's points
    /// share one set of names.
    template: ParamPoint,
    names: Vec<String>,
    axes: Vec<Vec<i64>>,
    /// Mixed-radix counter over `axes`; `None` once exhausted.
    cursor: Option<Vec<usize>>,
}

impl GridGuide {
    /// Build from parameter declarations.
    pub fn new(decls: &[ParameterDecl]) -> Self {
        let names: Vec<String> = decls.iter().map(|d| d.name.clone()).collect();
        let axes: Vec<Vec<i64>> = decls.iter().map(|d| d.domain.values()).collect();
        let cursor = if axes.iter().any(Vec::is_empty) {
            None
        } else {
            Some(vec![0; axes.len()])
        };
        GridGuide {
            template: names.iter().map(|n| (n, 0)).collect(),
            names,
            axes,
            cursor,
        }
    }

    /// Total number of points in the sweep.
    pub fn total(&self) -> usize {
        self.axes.iter().map(Vec::len).product()
    }
}

impl Guide for GridGuide {
    fn next_point(&mut self) -> Option<ParamPoint> {
        let cursor = self.cursor.as_mut()?;
        let mut point = self.template.clone();
        for (name, (axis, &i)) in self.names.iter().zip(self.axes.iter().zip(cursor.iter())) {
            point.set(name, axis[i]);
        }
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
}

/// Anticipatory exploration for online mode: a FIFO queue of prefetch
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

    /// Queue a speculative point behind every point already queued.
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

    /// Number of points currently queued.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

impl Guide for PriorityGuide {
    fn next_point(&mut self) -> Option<ParamPoint> {
        let point = self.queue.pop_front()?;
        self.queued.remove(&point);
        Some(point)
    }

    /// Anticipate the user's next move: queue the touched slider's domain
    /// neighbours for idle-time prefetching (paper §3.2).
    fn observe_adjustment(&mut self, point: &ParamPoint, axis: &str) {
        self.prefetch_neighbours(point, axis);
    }

    fn pending(&self) -> usize {
        PriorityGuide::pending(self)
    }

    /// A partially evaluated point is pending work: queue it as a
    /// prefetch so idle time deepens it to full world depth.
    fn observe_partial(&mut self, point: &ParamPoint) {
        self.enqueue_prefetch(point.clone());
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
        let mut g = GridGuide::new(&decls());
        let mut seen = HashSet::new();
        while let Some(p) = g.next_point() {
            assert!(seen.insert(p.clone()), "duplicate point {p}");
        }
        assert_eq!(seen.len(), 6);
        assert_eq!(g.total(), 6);
        for a in 0..=2i64 {
            for b in [10i64, 20] {
                assert!(seen.contains(&ParamPoint::from_pairs([("a", a), ("b", b)])));
            }
        }
    }

    #[test]
    fn grid_order_is_row_major_and_deterministic() {
        let mut g1 = GridGuide::new(&decls());
        let mut g2 = GridGuide::new(&decls());
        let s1: Vec<ParamPoint> = std::iter::from_fn(|| g1.next_point()).collect();
        let s2: Vec<ParamPoint> = std::iter::from_fn(|| g2.next_point()).collect();
        assert_eq!(s1, s2);
        // First parameter declared varies slowest.
        assert_eq!(s1[0], ParamPoint::from_pairs([("a", 0i64), ("b", 10)]));
        assert_eq!(s1[1], ParamPoint::from_pairs([("a", 0i64), ("b", 20)]));
        assert_eq!(s1[2], ParamPoint::from_pairs([("a", 1i64), ("b", 10)]));
    }

    #[test]
    fn every_point_of_a_grid_shares_the_first_points_names() {
        let mut g = GridGuide::new(&decls());
        let first = g.next_point().unwrap();
        let mut rest = 0;
        while let Some(p) = g.next_point() {
            rest += 1;
            for ((a, _), (b, _)) in first.iter().zip(p.iter()) {
                assert!(std::ptr::eq(a, b), "{p} allocated `{b}` again");
            }
        }
        assert_eq!(rest, 5);
    }

    #[test]
    fn grid_with_no_parameters_yields_one_empty_point() {
        let mut g = GridGuide::new(&[]);
        assert_eq!(g.next_point(), Some(ParamPoint::new()));
        assert_eq!(g.next_point(), None);
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
        assert_eq!(g.pending(), 1);
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
        g.enqueue_prefetch(earlier.clone());
        Guide::observe_partial(&mut g, &partial);
        assert_eq!(g.pending(), 2, "partial point queued as pending work");
        Guide::observe_partial(&mut g, &partial);
        assert_eq!(g.pending(), 2, "a queued partial point is not queued twice");
        assert_eq!(
            g.next_point(),
            Some(earlier),
            "queued behind earlier prefetches"
        );
        assert_eq!(g.next_point(), Some(partial));
        // The default implementation is a no-op.
        let mut grid = GridGuide::new(&ds);
        Guide::observe_partial(&mut grid, &ParamPoint::new());
        assert_eq!(grid.pending(), 0);
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
