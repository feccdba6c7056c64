//! The traced run's span recorder. Spans are opened by the benchmark
//! around each call it makes into a layer's public functions (outside-in:
//! nothing inside the program is instrumented). Each client thread owns
//! one [`Tracer`]; spans stay in memory until the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call. `parent` indexes the enclosing span of the same
/// tracer (`NO_PARENT` for a request's root span).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: u64,
}

pub const NO_PARENT: u32 = u32::MAX;

pub struct Tracer {
    on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Self {
        Self { on, origin, spans: Vec::new(), open: Vec::new() }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; it nests under the innermost open one.
    pub fn begin(&mut self, name: &'static str, req: u64) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, req });
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        let idx = self.open.pop().expect("end() matches a begin()") as usize;
        self.spans[idx].end_ns = end;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, req);
        let out = f();
        self.end();
        out
    }
}

/// Per-request differences derived from two spans of the same request:
/// `(derived name, minuend span, subtrahend span)`.
const DERIVED: [(&str, &str, &str); 1] =
    [("session.admit", "session.submit_async", "batch.compile_probe")];

/// Aggregates over every span of a run.
#[derive(Default)]
pub struct Profile {
    /// Span (or derived) name → durations, µs.
    pub durations: BTreeMap<&'static str, Vec<f64>>,
    /// Span name → self time (duration minus the time its children
    /// cover), µs, summed.
    pub self_us: BTreeMap<&'static str, f64>,
    pub spans: usize,
}

impl Profile {
    /// Folds one client's spans in (a client's requests run one after
    /// another, so the spans of one request are contiguous).
    pub fn add(&mut self, spans: &[Span]) {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut req_spans: Vec<(&'static str, f64)> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            if req_spans.is_empty() || spans[i - 1].req != s.req {
                self.derive(&req_spans);
                req_spans.clear();
            }
            let dur = (s.end_ns - s.start_ns) as f64 / 1e3;
            req_spans.push((s.name, dur));
            self.durations.entry(s.name).or_default().push(dur);
            *self.self_us.entry(s.name).or_insert(0.0) +=
                (s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64 / 1e3;
        }
        self.derive(&req_spans);
        self.spans += spans.len();
    }

    fn derive(&mut self, req_spans: &[(&'static str, f64)]) {
        let total = |name: &str| -> Option<f64> {
            let mut it = req_spans.iter().filter(|(n, _)| *n == name).peekable();
            it.peek()?;
            Some(it.map(|(_, d)| d).sum())
        };
        for (derived, a, b) in DERIVED {
            if let (Some(x), Some(y)) = (total(a), total(b)) {
                self.durations.entry(derived).or_default().push(x - y);
            }
        }
    }

    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.durations.get(name).cloned().unwrap_or_default()
    }

    pub fn total_us(&self, name: &str) -> f64 {
        self.durations.get(name).map_or(0.0, |v| v.iter().sum())
    }
}

/// Writes the first `cap` spans of each client as JSON lines.
pub fn dump(path: &std::path::Path, clients: &[Vec<Span>], cap: usize) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (c, spans) in clients.iter().enumerate() {
        for (i, s) in spans.iter().take(cap).enumerate() {
            let parent =
                if s.parent == NO_PARENT { "null".to_string() } else { s.parent.to_string() };
            writeln!(
                out,
                "{{\"client\":{c},\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            Span { name: "req", start_ns: 0, end_ns: 10_000, parent: NO_PARENT, req: 1 },
            Span { name: "batch.compile_probe", start_ns: 1_000, end_ns: 4_000, parent: 0, req: 1 },
            Span {
                name: "session.submit_async",
                start_ns: 5_000,
                end_ns: 9_000,
                parent: 0,
                req: 1,
            },
        ];
        let mut p = Profile::default();
        p.add(&spans);
        assert_eq!(p.self_us["req"], 3.0);
        assert_eq!(p.self_us["batch.compile_probe"], 3.0);
        assert_eq!(p.durations("session.admit"), vec![1.0]);
    }
}
