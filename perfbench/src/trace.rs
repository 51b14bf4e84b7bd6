//! In-memory spans recorded by the benchmark around its calls into each
//! layer (the program itself records nothing).

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `parent` indexes the enclosing span, `run` numbers the
/// iteration the span belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer and call, e.g. `query.pivot.pivot`.
    pub name: &'static str,
    /// Start, in nanoseconds since the trace was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Iteration id shared by every span of one run.
    pub run: u32,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Spans kept in memory until the run ends. A disabled trace records
/// nothing and only calls through, so untraced iterations share the
/// traced code path without paying for it.
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    origin: Instant,
    run: u32,
    spans: Vec<Span>,
}

impl Trace {
    /// A trace that records spans.
    pub fn enabled() -> Trace {
        Trace { enabled: true, origin: Instant::now(), run: 0, spans: Vec::new() }
    }

    /// A trace that records nothing.
    pub fn disabled() -> Trace {
        Trace { enabled: false, ..Trace::enabled() }
    }

    /// Starts a new iteration; later spans carry its id.
    pub fn begin_run(&mut self) -> u32 {
        self.run += 1;
        self.run
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index (`None` when disabled).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, run: self.run });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Trace::open`].
    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed milliseconds of the spans named `name` in iteration `run`.
    pub fn total_ms(&self, run: u32, name: &str) -> f64 {
        self.of(run, name).map(Span::ms).sum()
    }

    /// Spans named `name` in iteration `run`.
    pub fn of<'a>(&'a self, run: u32, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.run == run && s.name == name)
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"run\": {}}}",
                s.name, s.start_ns, s.end_ns, s.run
            );
        }
        out
    }
}
