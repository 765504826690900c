//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records a name, a start and end clock reading, the span open
//! around it (its parent), and a request id shared by every span of one
//! request or repetition. Spans stay in memory and are written out when the
//! run ends. A tracer that is off records nothing and costs one branch, so
//! the same call sites serve traced and untraced runs.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use bestk_obs::now_nanos;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call name, e.g. `graph.io.parse`.
    pub name: &'static str,
    /// 1-based span id.
    pub id: u64,
    /// Id of the enclosing span; 0 for a root.
    pub parent: u64,
    /// Request (or repetition) the span belongs to.
    pub req: u64,
    /// Clock reading at entry.
    pub start: u64,
    /// Clock reading at exit.
    pub end: u64,
}

/// Records spans and per-request counts while on.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: Vec<(&'static str, u64, u64)>,
}

/// An open span; pass it back to [`Tracer::close`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            ..Tracer::default()
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off (untraced stretches of a traced run).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn parent(&self) -> u64 {
        self.open.last().map_or(0, |&i| self.spans[i].id)
    }

    /// Opens a span; spans opened before it closes name it as parent.
    pub fn open(&mut self, name: &'static str, req: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let parent = self.parent();
        self.spans.push(Span {
            name,
            id: self.spans.len() as u64 + 1,
            parent,
            req,
            start: now_nanos(),
            end: 0,
        });
        self.open.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    /// Closes a span opened by [`open`](Self::open).
    pub fn close(&mut self, open: Open) {
        if let Some(i) = open.0 {
            self.spans[i].end = now_nanos();
            self.open.retain(|&j| j != i);
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let open = self.open(name, req);
        let out = f();
        self.close(open);
        out
    }

    /// Records a span whose clock readings were taken elsewhere (a serve
    /// session's hand-out and reply newline).
    pub fn record(&mut self, name: &'static str, req: u64, start: u64, end: u64) {
        if self.on {
            let parent = self.parent();
            self.spans.push(Span {
                name,
                id: self.spans.len() as u64 + 1,
                parent,
                req,
                start,
                end,
            });
        }
    }

    /// Records a count observed at a layer boundary.
    pub fn count(&mut self, name: &'static str, req: u64, value: u64) {
        if self.on {
            self.counts.push((name, req, value));
        }
    }

    fn per_req(items: impl Iterator<Item = (u64, u64)>) -> Vec<f64> {
        let mut by_req: BTreeMap<u64, u64> = BTreeMap::new();
        for (req, value) in items {
            *by_req.entry(req).or_default() += value;
        }
        by_req.into_values().map(|v| v as f64).collect()
    }

    /// Nanoseconds spent in spans named `name`, summed per request.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        Tracer::per_req(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| (s.req, s.end.saturating_sub(s.start))),
        )
    }

    /// Counts named `name`, summed per request.
    pub fn counts(&self, name: &str) -> Vec<f64> {
        Tracer::per_req(
            self.counts
                .iter()
                .filter(|c| c.0 == name)
                .map(|&(_, req, value)| (req, value)),
        )
    }

    /// Writes every span as one tab-separated line:
    /// `name id parent req start_ns end_ns`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# name\tid\tparent\treq\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.name, s.id, s.parent, s.req, s.start, s.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum_per_request() {
        let mut t = Tracer::new(true);
        let rep = t.open("rep", 0);
        t.time("leaf", 0, || ());
        t.time("leaf", 0, || ());
        t.close(rep);
        t.time("leaf", 1, || ());
        t.count("items", 1, 5);
        assert_eq!(t.spans.len(), 4);
        assert_eq!(t.spans[1].parent, t.spans[0].id);
        assert_eq!(t.spans[3].parent, 0);
        assert_eq!(t.durations("leaf").len(), 2, "one total per request");
        assert_eq!(t.counts("items"), vec![5.0]);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let open = t.open("rep", 0);
        assert_eq!(t.time("leaf", 0, || 7), 7);
        t.close(open);
        t.record("x", 0, 1, 2);
        t.count("items", 0, 1);
        assert!(t.spans.is_empty() && t.counts.is_empty());
    }
}
