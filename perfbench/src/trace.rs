//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into the library
//! (the library itself is not instrumented). Every span carries its
//! name, start and end (relative to the recorder's origin), its parent
//! and the id of the end-to-end operation it belongs to. Spans are kept
//! in memory and written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Records nested spans in start order.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Starts a new end-to-end operation; spans opened from now on carry
    /// its id. Returns the index its first span will get.
    pub fn begin_op(&mut self) -> usize {
        assert!(self.open.is_empty(), "an operation is still open");
        self.op += 1;
        self.spans.len()
    }

    /// Opens a span named `name`, child of the innermost open span, and
    /// returns its index for [`close`](Recorder::close).
    pub fn open(&mut self, name: &'static str) -> usize {
        let index = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(index);
        index
    }

    /// Closes the innermost open span, which must be `index`.
    pub fn close(&mut self, index: usize) {
        assert_eq!(
            self.open.pop(),
            Some(index),
            "spans must close innermost first"
        );
        self.spans[index].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let index = self.open(name);
        let out = f(self);
        self.close(index);
        out
    }

    /// The spans recorded since `first` (an index from [`begin_op`]).
    ///
    /// [`begin_op`]: Recorder::begin_op
    pub fn since(&self, first: usize) -> &[Span] {
        &self.spans[first..]
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name,
                s.op,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        out.flush()
    }
}

/// Self time per span name over `spans` (one operation's spans, indexed
/// from `first` in the recorder): each span's duration minus the time
/// its direct children cover, summed per name.
pub fn self_times(spans: &[Span], first: usize) -> BTreeMap<&'static str, Duration> {
    let mut child_time = vec![Duration::ZERO; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if p >= first {
                child_time[p - first] += s.duration();
            }
        }
    }
    let mut out = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_time) {
        *out.entry(s.name).or_insert(Duration::ZERO) += s.duration().saturating_sub(children);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new();
        let first = rec.begin_op();
        rec.span("root", |r| {
            r.span("child", |_| std::thread::sleep(Duration::from_millis(20)));
            std::thread::sleep(Duration::from_millis(5));
        });
        let spans = rec.since(first);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(first));
        let selfs = self_times(spans, first);
        assert!(selfs["child"] >= Duration::from_millis(20));
        assert!(selfs["root"] < spans[0].duration() - Duration::from_millis(19));
    }
}
