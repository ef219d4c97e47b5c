//! The traced run's span recorder.
//!
//! Spans are kept in memory while the workload runs and written out once at
//! the end.  Each span records its name, start, end, parent and request id;
//! a span's *self time* is its duration minus the durations of its direct
//! children, so a stage nested inside another is never counted twice.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// The layer call the span times, e.g. `core.tdsi`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's origin (`>= start_ns`).
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<usize>,
    /// The request (one workload operation) the span belongs to.
    pub request: u64,
}

impl Span {
    /// The span's wall-clock length.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time and call count of every span name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NameTotals {
    /// Sum of self times, nanoseconds.
    pub self_ns: u64,
    /// Sum of whole durations (children included), nanoseconds.
    pub total_ns: u64,
    /// Number of spans with the name.
    pub count: u64,
}

/// An in-memory span recorder for one thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Recorder {
    /// A recorder whose timestamps count from `origin` (share one origin
    /// between threads so their spans line up when merged).
    pub fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Tags every span opened from now on with `request`.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Opens a span nested in the innermost open one; close it with
    /// [`Recorder::exit`].
    pub fn enter(&mut self, name: &'static str) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            request: self.request,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Records an already-measured interval as a closed child of the
    /// innermost open span (for durations the program reports itself, e.g.
    /// a refresh inside an apply).
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            request: self.request,
        });
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves `other`'s spans into `self`, re-pointing their parents.
    pub fn absorb(&mut self, other: Recorder) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Per-name self time and count.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let self_ns = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_ns) {
            let entry = out.entry(span.name).or_default();
            entry.self_ns += own;
            entry.total_ns += span.duration_ns();
            entry.count += 1;
        }
        out
    }

    /// The spans as a JSON array (one object per span, with its self time).
    pub fn to_json(&self) -> String {
        let self_ns = self_times(&self.spans);
        let mut out = String::from("[\n");
        for (i, (s, own)) in self.spans.iter().zip(self_ns).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"request\": {}, \"self_ns\": {own}}}{sep}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out.push(']');
        out
    }
}

/// Each span's duration minus the durations of its direct children
/// (saturating, so clock skew between a parent and an externally reported
/// child never underflows).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    /// solve [0, 100]
    ///   select [0, 10]
    ///   tdsi [10, 80]
    ///     estimate [20, 50]
    ///     estimate [50, 70]
    ///   guard [80, 95]
    fn tree() -> Vec<Span> {
        vec![
            span("solve", 0, 100, None),
            span("select", 0, 10, Some(0)),
            span("tdsi", 10, 80, Some(0)),
            span("estimate", 20, 50, Some(2)),
            span("estimate", 50, 70, Some(2)),
            span("guard", 80, 95, Some(0)),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        assert_eq!(self_times(&tree()), vec![5, 10, 20, 30, 20, 15]);
        // Self times partition the root's wall-clock.
        assert_eq!(self_times(&tree()).iter().sum::<u64>(), 100);
    }

    #[test]
    fn totals_aggregate_by_name() {
        let mut rec = Recorder::new(Instant::now());
        rec.spans = tree();
        let totals = rec.totals();
        let estimate = NameTotals {
            self_ns: 50,
            total_ns: 50,
            count: 2,
        };
        assert_eq!(totals["estimate"], estimate);
        let tdsi = NameTotals {
            self_ns: 20,
            total_ns: 70,
            count: 1,
        };
        assert_eq!(totals["tdsi"], tdsi);
        assert_eq!(totals["solve"].self_ns, 5);
    }

    #[test]
    fn recorder_nests_spans_and_tags_requests() {
        let mut rec = Recorder::new(Instant::now());
        rec.set_request(7);
        let root = rec.enter("root");
        rec.time("child", || std::hint::black_box(1 + 1));
        let start = rec.now_ns();
        rec.record("reported", start, start + 1);
        rec.exit(root);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans
            .iter()
            .all(|s| s.request == 7 && s.end_ns >= s.start_ns));
        assert!(rec.to_json().contains("\"name\": \"reported\""));
    }

    #[test]
    fn absorb_repoints_parents() {
        let mut a = Recorder::new(Instant::now());
        a.spans = tree();
        let mut b = Recorder::new(Instant::now());
        b.spans = vec![span("batch", 0, 4, None), span("decode", 1, 3, Some(0))];
        a.absorb(b);
        assert_eq!(a.spans()[7].parent, Some(6));
        assert_eq!(a.totals()["batch"].self_ns, 2);
    }
}
