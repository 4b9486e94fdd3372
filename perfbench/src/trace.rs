//! Spans around every call the benchmark makes into a crate.
//!
//! A [`Tracer`] belongs to one thread (one worker task) and keeps its spans in
//! memory; finished tracers are merged into a [`Trace`] in worker order and
//! written to one file when the run ends. A disabled tracer records nothing
//! and costs one branch per call, which is how the untraced runs use the same
//! loops. Per-layer numbers are self-times: a span's duration minus the
//! durations of its children.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const ROOT: u32 = u32::MAX;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Stage name (`env.step`, `forward`, ...).
    pub name: &'static str,
    /// Shared by every span of one episode, training run or request.
    pub id: u64,
    /// Index of the enclosing span in the same trace, `u32::MAX` for roots.
    pub parent: u32,
    /// Nanoseconds since the run's epoch.
    pub start: u64,
    /// Nanoseconds since the run's epoch.
    pub end: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Per-thread span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`; `on = false` makes
    /// every call a no-op.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Self {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: u64) {
        if self.on {
            self.begin_at(name, id, Instant::now());
        }
    }

    /// Opens a span that started at `at`.
    pub fn begin_at(&mut self, name: &'static str, id: u64, at: Instant) {
        if self.on {
            let start = self.ns(at);
            self.push(name, id, start, start);
            self.open.push(self.spans.len() as u32 - 1);
        }
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if self.on {
            self.end_at(Instant::now());
        }
    }

    /// Closes the innermost open span at `at`.
    pub fn end_at(&mut self, at: Instant) {
        if self.on {
            let end = self.ns(at);
            let idx = self.open.pop().expect("end() without begin()") as usize;
            self.spans[idx].end = end;
        }
    }

    /// Records a finished span from timestamps taken elsewhere, nested in the
    /// innermost open span.
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        if self.on {
            let (s, e) = (self.ns(start), self.ns(end));
            self.push(name, id, s, e);
        }
    }

    fn push(&mut self, name: &'static str, id: u64, start: u64, end: u64) {
        let parent = self.open.last().copied().unwrap_or(ROOT);
        self.spans.push(Span {
            name,
            id,
            parent,
            start,
            end,
        });
    }

    /// The recorded spans (every span must be closed).
    pub fn finish(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "unclosed spans at the end of a task");
        self.spans
    }
}

/// Aggregate of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Stat {
    /// Number of spans.
    pub count: u64,
    /// Summed durations, ns.
    pub total: u64,
    /// Summed self-times (duration minus children), ns.
    pub self_time: u64,
}

impl Stat {
    /// Mean self-time per span in µs (0 when the stage never ran).
    pub fn self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_time as f64 / self.count as f64 / 1e3
        }
    }
}

/// The merged spans of one run.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Appends one tracer's spans, rebasing their parent links.
    pub fn absorb(&mut self, spans: Vec<Span>) {
        let base = self.spans.len() as u32;
        self.spans.extend(spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    /// Per-name aggregates with self-times.
    pub fn stats(&self) -> BTreeMap<&'static str, Stat> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child[s.parent as usize] += s.dur();
            }
        }
        let mut out: BTreeMap<&'static str, Stat> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child) {
            let st = out.entry(s.name).or_default();
            st.count += 1;
            st.total += s.dur();
            st.self_time += s.dur().saturating_sub(*c);
        }
        out
    }

    /// Share of the time inside `root` spans that their child stage spans
    /// cover (1.0 when no such span exists).
    pub fn coverage(&self, root: &str) -> f64 {
        let stats = self.stats();
        match stats.get(root) {
            Some(s) if s.total > 0 => 1.0 - s.self_time as f64 / s.total as f64,
            _ => 1.0,
        }
    }

    /// Writes every span as one tab-separated line:
    /// `name id parent start_ns end_ns` (parent `-` for roots).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tid\tparent\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.name, s.id, parent, s.start, s.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_merges_in_order() {
        let epoch = Instant::now();
        let at = |ns: u64| epoch + std::time::Duration::from_nanos(ns);
        let mut a = Tracer::new(true, epoch);
        a.begin("step", 1);
        a.record("env.step", 1, at(0), at(30));
        a.record("forward", 1, at(30), at(90));
        a.end();
        let mut b = Tracer::new(true, epoch);
        b.record("env.step", 2, at(0), at(10));
        let mut trace = Trace::default();
        trace.absorb(a.finish());
        trace.absorb(b.finish());
        let stats = trace.stats();
        assert_eq!(stats["env.step"].count, 2);
        assert_eq!(stats["env.step"].self_time, 40);
        assert_eq!(stats["forward"].self_time, 60);
        let step = stats["step"];
        assert_eq!(step.self_time, step.total - 90);
        assert!(trace.spans[3].parent == ROOT);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        t.begin("step", 0);
        t.end();
        assert!(t.finish().is_empty());
    }
}
