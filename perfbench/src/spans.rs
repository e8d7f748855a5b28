//! In-memory spans: name, start, end, thread CPU and parent, recorded
//! around each call into a layer and written out when the run ends.

use crate::sys::thread_cpu;
use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// One closed span.
struct Span {
    /// Layer (module) name, or a benchmark phase.
    name: &'static str,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// Start, relative to the tracer's creation.
    start: Duration,
    /// End, relative to the tracer's creation.
    end: Duration,
    /// Thread CPU time spent inside the span.
    cpu: Duration,
}

/// Records spans; spans opened inside another span's closure become its
/// children.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let cpu0 = thread_cpu();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            parent,
            start,
            end: start,
            cpu: Duration::ZERO,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let s = &mut self.spans[id];
        s.end = self.origin.elapsed();
        s.cpu = thread_cpu().saturating_sub(cpu0);
        out
    }

    /// Self time of all spans called `name`: their wall and CPU time
    /// minus what their child spans cover.
    pub fn self_time(&self, name: &str) -> (Duration, Duration) {
        let mut wall = Duration::ZERO;
        let mut cpu = Duration::ZERO;
        for (i, s) in self.spans.iter().enumerate() {
            if s.name != name {
                continue;
            }
            let (mut cw, mut cc) = (Duration::ZERO, Duration::ZERO);
            for c in self.spans.iter().filter(|c| c.parent == Some(i)) {
                cw += c.end - c.start;
                cc += c.cpu;
            }
            wall += (s.end - s.start).saturating_sub(cw);
            cpu += s.cpu.saturating_sub(cc);
        }
        (wall, cpu)
    }

    /// Writes one JSON object per span to `path`.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"cpu_ns\": {}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.cpu.as_nanos()
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_are_subtracted_from_self_time() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            std::thread::sleep(Duration::from_millis(5));
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(20)));
        });
        let (outer, _) = t.self_time("outer");
        let (inner, _) = t.self_time("inner");
        assert!(inner >= Duration::from_millis(20));
        assert!(outer >= Duration::from_millis(5));
        assert!(outer < Duration::from_millis(20), "outer self {outer:?}");
        assert_eq!(t.spans[1].parent, Some(0));
    }
}
