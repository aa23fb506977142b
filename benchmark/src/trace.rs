//! The span recorder of the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions; the program itself is not instrumented.
//! They are held in memory, timed by one [`Stopwatch`], and written out
//! as JSON lines when the run ends.

use mosaic_sim::json::Json;
use mosaic_sim::telemetry::Stopwatch;
use std::io::Write;
use std::path::Path;

/// The unit of work a span belongs to: spans of one harness run, fleet
/// simulation, Monte-Carlo point or figure share it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unit {
    /// What kind of unit (`run`, `link`, `fleet`, `point`, `figure`).
    pub kind: &'static str,
    /// Its index within the pass.
    pub id: u64,
}

/// One closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// 1-based span id.
    pub id: u32,
    /// Id of the enclosing span, `0` at top level.
    pub parent: u32,
    /// The unit of work the span belongs to.
    pub unit: Unit,
    /// Layer-qualified name (`traffic.step`, `bench.figure`, ...).
    pub name: &'static str,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall time the span covers.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder with a stack of open spans.
#[derive(Debug)]
pub struct Tracer {
    clock: Stopwatch,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            clock: Stopwatch::start(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, unit: Unit) {
        let parent = self.open.last().map_or(0, |&i| self.spans[i].id);
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            id: self.spans.len() as u32 + 1,
            parent,
            unit,
            name,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Close the innermost open span and return its duration in ns.
    pub fn exit(&mut self) -> u64 {
        let end_ns = self.now_ns();
        let i = self.open.pop().expect("exit() matches an enter()");
        self.spans[i].end_ns = end_ns;
        self.spans[i].duration_ns()
    }

    /// Every span recorded so far, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Forget every span (the clock keeps running).
    pub fn clear(&mut self) {
        assert!(self.open.is_empty(), "clear() with open spans");
        self.spans.clear();
    }

    /// Durations, in ns, of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Total duration, in ns, of the spans called `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Write every span as one JSON line: `id`, `parent`, `unit`,
    /// `name`, `start_ns`, `end_ns`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = Json::object()
                .with("id", u64::from(s.id))
                .with("parent", u64::from(s.parent))
                .with("unit", format!("{}/{}", s.unit.kind, s.unit.id))
                .with("name", s.name)
                .with("start_ns", s.start_ns)
                .with("end_ns", s.end_ns);
            writeln!(out, "{}", line.to_string_compact())?;
        }
        out.flush()
    }
}

/// Total self time per span name, largest first.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        match totals.iter_mut().find(|(name, _)| *name == s.name) {
            Some(total) => total.1 += t,
            None => totals.push((s.name, t)),
        }
    }
    totals.sort_by_key(|&(_, t)| std::cmp::Reverse(t));
    totals
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover (overlapping children count once). Indexed like
/// `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index_of = |id: u32| id as usize - 1;
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != 0 {
            children[index_of(s.parent)].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}
