//! In-memory spans recorded by the benchmark around its calls into each
//! layer of the system.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer's
//! epoch), the span that caused it, and a request id shared by every span
//! of one request. Spans stay in memory while the workload runs and are
//! written out as JSON lines when the run ends. A layer's self time is
//! its span's duration minus the part covered by its child spans.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, e.g. `lang.parse`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer epoch.
    pub start: u64,
    /// End, in nanoseconds since the tracer epoch.
    pub end: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Request id shared by one request's spans.
    pub req: u64,
}

/// Per-name totals derived from the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations, nanoseconds.
    pub total_ns: u64,
    /// Summed self times (duration minus child coverage), nanoseconds.
    pub self_ns: u64,
}

impl LayerTime {
    /// Mean self time per span in the given unit (`1e3` for µs, `1e6`
    /// for ms); 0 when no span has this name.
    pub fn mean_self(&self, ns_per_unit: f64) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / ns_per_unit
        }
    }
}

/// A span recorder for one thread. Spans nest through an explicit stack.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty tracer whose epoch is `epoch` (share one epoch between the
    /// tracers of one run so their spans line up).
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// An empty tracer sharing this one's epoch, for another thread.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.epoch)
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; it becomes the parent of spans opened before its
    /// [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, req: u64) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent,
            req,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end = self.now();
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, req);
        let out = f();
        self.close(id);
        out
    }

    /// Move another tracer's spans into this one (parents re-indexed).
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorbed tracer has open spans");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            let dur = s.end - s.start;
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(child);
        }
        out
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start, s.end, s.req
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(Instant::now());
        let outer = t.open("request", 7);
        t.span("lang.parse", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(outer);
        let times = t.layer_times();
        let req = times["request"];
        let parse = times["lang.parse"];
        assert_eq!((req.count, parse.count), (1, 1));
        assert_eq!(req.self_ns, req.total_ns - parse.total_ns);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].req, 7);
    }

    #[test]
    fn absorb_reindexes_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        a.span("x", 1, || ());
        let mut b = Tracer::new(epoch);
        let o = b.open("request", 2);
        b.span("y", 2, || ());
        b.close(o);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
