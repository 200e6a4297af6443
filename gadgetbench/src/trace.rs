//! In-memory spans around every layer call the benchmark makes.
//!
//! A span records its name, start, end, parent span and the scan it
//! belongs to. Spans are held in memory and written out once, at the
//! end of the run. With tracing off nothing is recorded, but every
//! call still returns the CPU seconds it took, which the end-to-end
//! metrics are built from.
//!
//! Span start and end are wall times, so the written trace is a
//! timeline. The figures the benchmark reports are CPU seconds of the
//! whole process (every thread, user + system): on a shared host a
//! vCPU is regularly not running at all (steal time, other runnable
//! threads), and wall time counts those gaps as the program's cost.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::cpu::cpu_now;

pub struct Span {
    pub name: &'static str,
    pub scan: usize,
    pub parent: Option<usize>,
    /// Seconds since the tracer was created.
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    scan: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            scan: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Tags the spans that follow with scan `id`.
    pub fn set_scan(&mut self, id: usize) {
        self.scan = id;
    }

    /// Runs `f` inside a span named `name` and returns its result with
    /// the CPU seconds the process spent in it.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let cpu = cpu_now();
        let start = self.origin.elapsed().as_secs_f64();
        let idx = self.on.then(|| {
            self.spans.push(Span {
                name,
                scan: self.scan,
                parent: self.open.last().copied(),
                start,
                end: start,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let end = self.origin.elapsed().as_secs_f64();
        let cpu = cpu_now() - cpu;
        if let Some(i) = idx {
            self.spans[i].end = end;
            self.open.pop();
        }
        (out, cpu)
    }

    /// Ends every open span now (after a panic unwound through them).
    pub fn close_open(&mut self) {
        let now = self.origin.elapsed().as_secs_f64();
        for i in self.open.drain(..) {
            self.spans[i].end = now;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"scan\":{},\"parent\":{parent},\"start_s\":{},\"end_s\":{}}}",
                s.name, s.scan, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Self seconds per span name, summed over the run: each span's
/// duration minus the part its children cover. Children of one span
/// run one after another on its thread, so their durations add up.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_secs = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_secs[p] += s.secs();
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_secs) {
        *out.entry(s.name).or_insert(0.0) += s.secs() - c;
    }
    out
}

/// Total seconds and count of spans named `name`.
pub fn total(spans: &[Span], name: &str) -> (f64, usize) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0.0, 0), |(t, n), s| (t + s.secs(), n + 1))
}
