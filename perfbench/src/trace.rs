//! Opt-in spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it and the op
//! it belongs to.  Spans stay in memory during the run; the traced pass
//! writes them out as JSON lines when it ends and folds them into per-layer
//! self times.  With tracing off, [`Tracer::enter`] and [`Tracer::exit`]
//! only test a flag.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.  Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<u32>,
    pub op: u64,
    /// How many calls the span covers: cheap codec calls are timed in
    /// batches so the clock's own cost does not swamp them.
    pub reps: u32,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Tag the spans that follow with op id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        self.enter_reps(name, 1)
    }

    pub fn enter_reps(&mut self, name: &'static str, reps: u32) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            op: self.op,
            reps,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn exit(&mut self, span: SpanId) {
        if let SpanId(Some(id)) = span {
            self.spans[id as usize].end = self.now();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans must close in LIFO order");
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let span = self.enter(name);
        let out = f();
        self.exit(span);
        out
    }

    /// Self time per call of every span, in nanoseconds, grouped by name: a
    /// span's duration minus the part its child spans cover, divided by the
    /// number of calls it timed.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = (s.end - s.start).saturating_sub(child);
            out.entry(s.name)
                .or_default()
                .push(own as f64 / f64::from(s.reps));
        }
        out
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"reps\":{}}}",
                s.name, s.start, s.end, s.op, s.reps
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
        let mut tr = Tracer::new(true);
        let root = tr.enter("root");
        let child = tr.enter("child");
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.exit(child);
        tr.exit(root);
        let times = tr.self_times();
        assert!(times["child"][0] >= 2e6);
        assert!(times["root"][0] < times["child"][0]);
        assert_eq!(tr.spans[1].parent, Some(0));
    }

    #[test]
    fn off_records_nothing() {
        let mut tr = Tracer::new(false);
        let s = tr.enter("x");
        tr.exit(s);
        assert!(tr.self_times().is_empty());
    }
}
