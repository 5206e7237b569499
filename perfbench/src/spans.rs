//! Benchmark-side spans: one per call the benchmark makes into a public
//! API (fleet bind and shutdown, `dispatch`/`finish`, `map_shuffle`,
//! `map_reduce`, `register_replica`, `recover_worker`), kept in memory
//! and written out as JSON lines when the run ends. Recording is off in
//! the timing run.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

pub struct Spans {
    on: bool,
    t0: Instant,
    next_id: u64,
    open: Vec<(u64, &'static str, u64)>,
    done: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool, t0: Instant) -> Self {
        Spans {
            on,
            t0,
            next_id: 1,
            open: Vec::new(),
            done: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if self.on {
            let start = self.now_ns();
            self.open.push((self.next_id, name, start));
            self.next_id += 1;
        }
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        if let Some((id, name, start_ns)) = self.open.pop() {
            let parent = self.open.last().map(|o| o.0).unwrap_or(0);
            let end_ns = self.now_ns();
            self.done.push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    pub fn len(&self) -> usize {
        self.done.len()
    }

    /// Writes every closed span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.done {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
