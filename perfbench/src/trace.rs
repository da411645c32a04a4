//! In-memory spans recorded from the benchmark's own files, around the calls
//! into each layer (spans inside the engine are a later issue).
//!
//! Every client thread owns a [`SpanLog`]; logs are merged and written as
//! JSON lines when the run ends, so recording never takes a lock or touches
//! a file while a statement is being timed.

use std::time::Instant;

use crate::json::Json;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The span that caused this one (`None` for a statement's root span).
    pub parent: Option<u64>,
    /// The statement the span belongs to; spans of one statement share it.
    pub stmt: u64,
    /// Layer-qualified name, e.g. `core.session.execute`.
    pub name: &'static str,
    /// Start, nanoseconds since the run's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the run's origin.
    pub end_ns: u64,
    /// Whether the span replays the statement's work outside the statement's
    /// own interval (the serial storage/aggregate "shadow" of the engine
    /// call); shadows never count towards their parent's cover.
    pub shadow: bool,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    next_id: u64,
    id_step: u64,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log for recorder `lane` of `lanes`: ids are `lane + k * lanes`, so
    /// logs filled on different threads never collide.
    pub fn new(origin: Instant, lane: u64, lanes: u64) -> Self {
        SpanLog { origin, next_id: lane + 1, id_step: lanes.max(1), spans: Vec::new() }
    }

    /// Nanoseconds since the run's origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Reserves the id of a span whose end is not known yet (a root span is
    /// pushed after its children).
    pub fn reserve_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += self.id_step;
        id
    }

    /// Records a finished span under a reserved id.
    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Times `work` as a child span of `parent` and returns its result.
    pub fn child<R>(
        &mut self,
        parent: u64,
        stmt: u64,
        name: &'static str,
        shadow: bool,
        work: impl FnOnce() -> R,
    ) -> R {
        let id = self.reserve_id();
        let start_ns = self.now_ns();
        let result = work();
        let end_ns = self.now_ns();
        self.spans.push(Span { id, parent: Some(parent), stmt, name, start_ns, end_ns, shadow });
        result
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// A span's self time: its duration minus the part of its interval that its
/// (non-shadow) children cover. Overlapping children are counted once.
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .filter(|c| !c.shadow)
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut reach = span.start_ns;
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    span.duration_ns() - covered
}

/// Per root span named `root`: `(self time, duration)` in nanoseconds.
pub fn root_self_times(spans: &[Span], root: &str) -> Vec<(u64, u64)> {
    let mut by_parent: std::collections::HashMap<u64, Vec<&Span>> =
        std::collections::HashMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            by_parent.entry(parent).or_default().push(span);
        }
    }
    spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == root)
        .map(|s| {
            let children = by_parent.get(&s.id).map_or(&[][..], Vec::as_slice);
            (self_time_ns(s, children), s.duration_ns())
        })
        .collect()
}

/// Total duration in nanoseconds of all spans named `name`, and their count.
pub fn total_ns(spans: &[Span], name: &str) -> (u64, usize) {
    spans.iter().filter(|s| s.name == name).fold((0, 0), |(ns, n), s| (ns + s.duration_ns(), n + 1))
}

/// One JSON line per span: name, start, end, parent, statement id.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let line = Json::obj([
            ("id", Json::Num(s.id as f64)),
            ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
            ("stmt", Json::Num(s.stmt as f64)),
            ("name", Json::str(s.name)),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
            ("shadow", Json::Bool(s.shadow)),
        ]);
        out.push_str(&line.to_line());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64, shadow: bool) -> Span {
        Span { id, parent, stmt: 1, name: "s", start_ns, end_ns, shadow }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let root = span(1, None, 100, 200, false);
        let a = span(2, Some(1), 110, 150, false);
        let b = span(3, Some(1), 140, 170, false); // overlaps a by 10
        let c = span(4, Some(1), 190, 260, false); // sticks out past the root
        let shadow = span(5, Some(1), 300, 900, true); // outside, never counted
                                                       // cover = [110,170) + [190,200) = 70
        assert_eq!(self_time_ns(&root, &[&a, &b, &c, &shadow]), 30);
        assert_eq!(self_time_ns(&root, &[]), 100);
        // A child fully inside an earlier sibling adds nothing.
        let inner = span(6, Some(1), 120, 130, false);
        assert_eq!(self_time_ns(&root, &[&a, &inner]), 60);
    }

    #[test]
    fn logs_on_different_lanes_never_share_an_id_and_children_name_their_parent() {
        let origin = Instant::now();
        let mut a = SpanLog::new(origin, 0, 2);
        let mut b = SpanLog::new(origin, 1, 2);
        let root = a.reserve_id();
        let value = a.child(root, 7, "core.session.execute", false, || 42);
        assert_eq!(value, 42);
        let start_ns = 0;
        let end_ns = a.now_ns();
        a.push(Span {
            id: root,
            parent: None,
            stmt: 7,
            name: "stmt",
            start_ns,
            end_ns,
            shadow: false,
        });
        let other = b.reserve_id();
        assert_ne!(root, other);
        let spans = a.into_spans();
        assert_eq!(spans[0].parent, Some(root));
        assert_eq!(spans[0].stmt, 7);
        let roots = root_self_times(&spans, "stmt");
        assert_eq!(roots.len(), 1);
        assert!(roots[0].0 <= roots[0].1);
        let text = to_jsonl(&spans);
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let parsed = Json::parse(line).unwrap();
            assert!(parsed.get("parent").is_some() && parsed.get("stmt").is_some());
        }
    }
}
