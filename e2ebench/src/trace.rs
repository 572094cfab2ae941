//! In-memory span recorder for the traced run.
//!
//! A span is one call the benchmark makes into a layer: its name, start,
//! end, the span that was open when it began, and the run id shared by
//! every span of one program execution. Spans stay in memory while the
//! run measures and are written out once at the end. A disabled recorder
//! only runs the closure, so untraced passes pay one branch per call.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `interp.run`.
    pub name: String,
    /// Execution this span belongs to (0 outside any execution).
    pub run_id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the recorder's origin.
    pub start_ns: u64,
    /// End, in ns since the recorder's origin.
    pub end_ns: u64,
}

/// Records spans on one thread: the benchmark runs its passes on one.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    run_id: Cell<u64>,
}

impl Tracer {
    /// A recorder; when `enabled` is false, [`span`](Self::span) records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            run_id: Cell::new(0),
        }
    }

    /// Is this recorder keeping spans?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Set the run id stamped on spans opened from now on.
    pub fn set_run(&self, run_id: u64) {
        self.run_id.set(run_id);
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name: name.to_string(),
                run_id: self.run_id.get(),
                parent,
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_ns = self.now_ns();
        out
    }

    /// Number of spans recorded so far (a mark for [`self_ms_since`](Self::self_ms_since)).
    pub fn mark(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Self time in ms per span name, over the spans recorded since `mark`.
    pub fn self_ms_since(&self, mark: usize) -> BTreeMap<String, f64> {
        let spans = self.spans.borrow();
        let mut out = BTreeMap::new();
        for (name, ns) in self_times(&spans, mark) {
            *out.entry(name).or_insert(0.0) += ns as f64 / 1e6;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write as _;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"run_id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.run_id, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Self time of each span from index `from` on: its duration minus the
/// part of its interval covered by its direct children.
pub fn self_times(spans: &[Span], from: usize) -> Vec<(String, u64)> {
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for s in &spans[from..] {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .skip(from)
        .map(|(i, s)| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&i) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(cursor), end.min(s.end_ns));
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
            }
            (
                s.name.clone(),
                (s.end_ns - s.start_ns).saturating_sub(covered),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.into(),
            run_id: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("exec", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 50), // overlaps a: union is 10..50
            span("leaf", Some(1), 15, 20),
        ];
        let got = self_times(&spans, 0);
        assert_eq!(got[0], ("exec".to_string(), 60));
        assert_eq!(got[1], ("a".to_string(), 25));
        assert_eq!(got[2], ("b".to_string(), 20));
        assert_eq!(got[3], ("leaf".to_string(), 5));
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", || 7), 7);
        assert_eq!(t.mark(), 0);
    }

    #[test]
    fn nested_spans_record_parents() {
        let t = Tracer::new(true);
        t.set_run(3);
        t.span("outer", || t.span("inner", || ()));
        let spans = t.spans.borrow();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].run_id, 3);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
