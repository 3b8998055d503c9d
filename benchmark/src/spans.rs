//! Bench-side spans: recorded around calls into each layer's public
//! functions, kept in memory, written once when the run ends.

use std::io::Write;
use std::path::Path;

use tracekit::wall::Stopwatch;

/// One recorded interval. `parent` indexes the span that was open when this
/// one started; spans of one operation share `op`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// Handle of an open span, returned by [`Recorder::enter`].
#[derive(Debug)]
#[must_use = "close the span with Recorder::exit"]
pub struct Open(usize);

/// In-memory span recorder over one clock.
#[derive(Debug)]
pub struct Recorder {
    clock: Stopwatch,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Self { clock: Stopwatch::start(), spans: Vec::new(), stack: Vec::new() }
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) -> Open {
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        self.stack.push(id);
        let start_ns = self.clock.elapsed_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op });
        Open(id)
    }

    /// Closes the innermost open span, which must be `open`.
    pub fn exit(&mut self, open: Open) {
        let end_ns = self.clock.elapsed_ns();
        assert_eq!(self.stack.pop(), Some(open.0), "spans close innermost first");
        self.spans[open.0].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, op);
        let out = f();
        self.exit(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part its child spans
    /// cover (children never overlap: one thread records, innermost first).
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Summed self time of the spans called `name`, in nanoseconds.
    pub fn self_ns(&self, name: &str) -> u64 {
        let own = self.self_times();
        self.spans.iter().zip(own).filter(|(s, _)| s.name == name).map(|(_, ns)| ns).sum()
    }

    /// Durations (children included) of the spans called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).collect()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
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
        let mut rec = Recorder::new();
        let outer = rec.enter("outer", 1);
        rec.span("inner", 1, || std::hint::black_box((0..1000u64).sum::<u64>()));
        rec.span("inner", 1, || ());
        rec.exit(outer);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        let own = rec.self_times();
        let inner: u64 = rec.durations("inner").iter().sum();
        assert_eq!(own[0], spans[0].end_ns - spans[0].start_ns - inner);
        assert_eq!(rec.self_ns("inner"), inner);
        assert_eq!(rec.self_ns("outer"), own[0]);
    }
}
