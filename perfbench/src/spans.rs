//! In-memory host-time spans for the traced mode.
//!
//! The benchmark wraps its calls into each layer's public functions in
//! spans. Every span has a name, a start and end (host seconds since the
//! recorder was created), the id of its parent span, and the run id shared
//! by all spans of one run. Spans stay in memory until [`Spans::write`]
//! writes them out as JSON lines when the run ends.

use std::io::Write;
use std::time::Instant;

/// One span; `end_s` is NaN while it is still open.
#[derive(Clone, Debug)]
pub struct Span {
    /// Index of the span in its recorder.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// What was timed, e.g. `psort.sort` or `world.traced`.
    pub name: String,
    /// Host seconds since the recorder was created.
    pub start_s: f64,
    /// Host seconds since the recorder was created.
    pub end_s: f64,
}

/// Span recorder. A disabled recorder records nothing (the untraced mode).
pub struct Spans {
    run_id: String,
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder whose spans all carry `run_id`.
    pub fn new(run_id: String, enabled: bool) -> Spans {
        Spans { run_id, origin: Instant::now(), enabled, spans: Vec::new(), open: Vec::new() }
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_s: self.origin.elapsed().as_secs_f64(),
            end_s: f64::NAN,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_s = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Record an already finished interval (timed on another thread, e.g. a
    /// probe on rank 0) as a child of the innermost open span.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let since = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        self.spans.push(Span {
            id: self.spans.len(),
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_s: since(start),
            end_s: since(end),
        });
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The run id shared by every span of this recorder.
    pub fn run_id(&self) -> &str {
        &self.run_id
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run_id\":\"{}\",\"id\":{},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_s\":{},\"end_s\":{}}}",
                self.run_id, s.id, s.name, s.start_s, s.end_s
            )?;
        }
        out.flush()
    }
}
