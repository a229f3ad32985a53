//! The bench-side span recorder of a traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer: name, start, end, the span that caused it, and the
//! batch they belong to. They are kept in memory and written out (as
//! Chrome-trace JSON) only when the run ends. A span's *self time* is its
//! duration minus the part of that interval its child spans cover — the
//! union, because children recorded on worker threads overlap.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::json_escape;

/// `batch` of spans that belong to no batch (the layer probes).
pub const NO_BATCH: u64 = u64::MAX;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub batch: u64,
    /// 0 for the client thread; 1.. for the replay's workers.
    pub thread: u32,
}

/// A leaf interval measured on a worker thread, handed back to the client
/// thread's recorder once the worker is joined.
pub type Leaf = (&'static str, u64, u64);

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The clock worker threads stamp their leaves with.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Record a finished span explicitly; returns its index.
    pub fn add(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        batch: u64,
        thread: u32,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            batch,
            thread,
        });
        self.spans.len() - 1
    }

    /// Run `f` inside a span on the client thread; spans opened (or leaves
    /// attached) inside it become its children.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        batch: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let parent = self.open.last().copied();
        let id = self.add(name, start, start, parent, batch, 0);
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Attach a worker thread's leaves under the innermost open span.
    pub fn attach(&mut self, thread: u32, batch: u64, leaves: &[Leaf]) {
        let parent = self.open.last().copied();
        for &(name, start, end) in leaves {
            self.add(name, start, end, parent, batch, thread);
        }
    }

    fn children_of(&self, id: usize) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// Nanoseconds of span `id`'s interval covered by at least one child.
    pub fn covered_ns(&self, id: usize) -> u64 {
        let mut intervals: Vec<(u64, u64)> = self
            .children_of(id)
            .map(|c| (c.start_ns, c.end_ns))
            .collect();
        intervals.sort_unstable();
        let (mut covered, mut frontier) = (0u64, 0u64);
        for (start, end) in intervals {
            let start = start.max(frontier);
            if end > start {
                covered += end - start;
                frontier = end;
            }
        }
        covered
    }

    /// Span `id`'s duration minus what its children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        (span.end_ns - span.start_ns).saturating_sub(self.covered_ns(id))
    }

    /// Indices of every span called `name`.
    pub fn named(&self, name: &str) -> Vec<usize> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .collect()
    }

    /// Total self time per span name, nanoseconds.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for id in 0..self.spans.len() {
            *out.entry(self.spans[id].name).or_insert(0) += self.self_ns(id);
        }
        out
    }

    /// The spans as a `chrome://tracing` / Perfetto-loadable document.
    pub fn chrome_trace_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let batch = if s.batch == NO_BATCH {
                    String::new()
                } else {
                    format!(", \"args\": {{\"batch\": {}}}", s.batch)
                };
                format!(
                    "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \"dur\": {}{batch}}}",
                    json_escape(s.name),
                    s.thread,
                    s.start_ns as f64 / 1e3,
                    (s.end_ns - s.start_ns) as f64 / 1e3,
                )
            })
            .collect();
        format!("{{\"traceEvents\": [\n{}\n]}}\n", events.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Json;

    #[test]
    fn self_time_is_duration_minus_the_union_of_children() {
        let mut r = Recorder::new();
        let root = r.add("batch", 0, 100, None, 0, 0);
        // Two overlapping worker leaves and one disjoint one: the union
        // covers [10, 40) and [60, 70) — 40 ns of the root's 100.
        r.add("select", 10, 30, Some(root), 0, 1);
        r.add("select", 20, 40, Some(root), 0, 2);
        let scan = r.add("scan", 60, 70, Some(root), 0, 0);
        // A grandchild does not count against the root, only its parent.
        r.add("detect", 62, 66, Some(scan), 0, 0);
        assert_eq!(r.covered_ns(root), 40);
        assert_eq!(r.self_ns(root), 60);
        assert_eq!(r.self_ns(scan), 6);
        let by_name = r.self_by_name();
        assert_eq!(by_name["select"], 40);
        assert_eq!(by_name["scan"], 6);
        assert_eq!(by_name["detect"], 4);
        assert_eq!(by_name["batch"], 60);
    }

    #[test]
    fn children_that_overrun_their_parent_do_not_underflow() {
        let mut r = Recorder::new();
        let root = r.add("batch", 10, 20, None, 0, 0);
        r.add("late", 5, 40, Some(root), 0, 1);
        assert_eq!(r.self_ns(root), 0);
    }

    #[test]
    fn scopes_nest_and_attach_leaves_to_the_innermost_span() {
        let mut r = Recorder::new();
        r.scope("outer", 3, |r| {
            r.scope("inner", 3, |r| r.attach(1, 3, &[("leaf", 1, 2)]));
        });
        assert_eq!(r.len(), 3);
        let outer = r.named("outer")[0];
        let inner = r.named("inner")[0];
        let leaf = r.named("leaf")[0];
        assert_eq!(r.spans[outer].parent, None);
        assert_eq!(r.spans[inner].parent, Some(outer));
        assert_eq!(r.spans[leaf].parent, Some(inner));
        assert!(r.spans[outer].end_ns >= r.spans[inner].end_ns);
    }

    #[test]
    fn chrome_export_is_loadable_json() {
        let mut r = Recorder::new();
        r.add("probe \"x\"", 1_000, 3_000, None, NO_BATCH, 0);
        r.add("leaf", 1_500, 2_000, Some(0), 7, 2);
        let doc = Json::parse(&r.chrome_trace_json()).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0].get("name").and_then(Json::as_str),
            Some("probe \"x\"")
        );
        assert_eq!(events[1].get("dur").and_then(Json::as_f64), Some(0.5));
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("batch"))
                .and_then(Json::as_f64),
            Some(7.0)
        );
    }
}
