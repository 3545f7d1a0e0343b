//! Spans and counters recorded around the calls into each layer.
//!
//! A span has a name (`layer.step`), a start, an end, the span that caused
//! it and the operation it belongs to. Spans stay in memory while the run
//! measures and are written out once it ends. A layer's self time is its
//! spans' durations minus the parts of them their child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// Index of a span within its [`Tracer`]; `NO_PARENT` marks a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub op: u64,
    pub parent: SpanId,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// One thread's span and counter recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    counters: BTreeMap<&'static str, f64>,
    op: u64,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::with_capacity(1 << 16),
            counters: BTreeMap::new(),
            op: 0,
        }
    }

    /// Start attributing spans to operation `op` (ids are unique per run).
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op: self.op,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn end(&mut self, id: SpanId) {
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Duration of a closed span in microseconds.
    pub fn micros(&self, id: SpanId) -> f64 {
        self.spans[id as usize].duration_ns() as f64 / 1e3
    }

    /// Add `value` to a run-wide counter.
    pub fn count(&mut self, name: &'static str, value: f64) {
        *self.counters.entry(name).or_insert(0.0) += value;
    }
}

/// The spans and counters of every thread of a traced run.
#[derive(Default)]
pub struct Trace {
    /// Per-thread span lists; parents index within their own list.
    threads: Vec<Vec<Span>>,
    counters: BTreeMap<&'static str, f64>,
}

impl Trace {
    pub fn absorb(&mut self, tracer: Tracer) {
        for (name, value) in tracer.counters {
            *self.counters.entry(name).or_insert(0.0) += value;
        }
        self.threads.push(tracer.spans);
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Summed duration of every span called `name`, in microseconds.
    pub fn total_us(&self, name: &str) -> f64 {
        self.spans()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .sum()
    }

    fn spans(&self) -> impl Iterator<Item = &Span> {
        self.threads.iter().flatten()
    }

    /// Self time per layer in microseconds: each span's duration minus its
    /// direct children's, summed by layer.
    pub fn self_time_us(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for spans in &self.threads {
            let mut child_ns = vec![0u64; spans.len()];
            for span in spans {
                if span.parent != NO_PARENT {
                    child_ns[span.parent as usize] += span.duration_ns();
                }
            }
            for (span, children) in spans.iter().zip(&child_ns) {
                let own = span.duration_ns().saturating_sub(*children);
                *out.entry(span.layer()).or_insert(0.0) += own as f64 / 1e3;
            }
        }
        out
    }

    /// Write every span as a tab-separated line
    /// (`thread op id parent name start_ns end_ns`).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "thread\top\tid\tparent\tname\tstart_ns\tend_ns")?;
        let mut written = 0;
        for (t, spans) in self.threads.iter().enumerate() {
            for (id, s) in spans.iter().enumerate() {
                let parent = if s.parent == NO_PARENT {
                    "-".to_string()
                } else {
                    s.parent.to_string()
                };
                writeln!(
                    out,
                    "{t}\t{}\t{id}\t{parent}\t{}\t{}\t{}",
                    s.op, s.name, s.start_ns, s.end_ns
                )?;
                written += 1;
            }
        }
        out.flush()?;
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            Span {
                op: 0,
                parent: NO_PARENT,
                name: "engine.query",
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                op: 0,
                parent: 0,
                name: "index.filter",
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                op: 0,
                parent: 0,
                name: "element.verify",
                start_ns: 40,
                end_ns: 90,
            },
            Span {
                op: 0,
                parent: 2,
                name: "element.kernel",
                start_ns: 50,
                end_ns: 60,
            },
        ];
        let trace = Trace {
            threads: vec![spans],
            counters: BTreeMap::new(),
        };
        let own = trace.self_time_us();
        assert_eq!(own["engine"], 0.02);
        assert_eq!(own["index"], 0.03);
        assert_eq!(own["element"], 0.05);
        assert_eq!(trace.total_us("element.verify"), 0.05);
    }
}
