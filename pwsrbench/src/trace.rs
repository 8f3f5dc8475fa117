//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, a parent span and the
//! transaction it served (`0` when it serves none); spans of one
//! transaction share that id. A span's *self time* is its duration
//! minus the durations of its children (the benchmark is
//! single-threaded wherever it records spans, so children never
//! overlap). Spans stay in memory and are written out at exit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Tracer`], plus one; `0` means "no span".
pub type SpanId = u32;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: SpanId,
    pub txn: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per span name: how many spans and their summed self time.
#[derive(Clone, Copy, Debug, Default)]
pub struct SelfTime {
    pub count: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId, txn: u32) -> SpanId {
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            parent,
            txn,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() as SpanId
    }

    pub fn close(&mut self, id: SpanId) {
        let end_ns = self.ns(Instant::now());
        self.spans[id as usize - 1].end_ns = end_ns;
    }

    /// Record a span whose bounds the caller already measured.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        txn: u32,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            parent,
            txn,
            start_ns,
            end_ns,
        });
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        txn: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, txn);
        let out = f();
        self.close(id);
        out
    }

    pub fn duration_ns(&self, id: SpanId) -> u64 {
        self.spans[id as usize - 1].dur_ns()
    }

    /// Summed duration of the direct children of `root`, leaving out
    /// spans named in `exclude`.
    pub fn children_ns(&self, root: SpanId, exclude: &[&str]) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == root && !exclude.contains(&s.name))
            .map(Span::dur_ns)
            .sum()
    }

    /// Self time per span name over every span held.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent > 0 {
                child_ns[s.parent as usize - 1] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.self_ns += s.dur_ns().saturating_sub(children);
        }
        out
    }

    /// The spans as tab-separated text: one header line, then
    /// `id parent txn name start_ns end_ns self_ns` per span.
    pub fn to_tsv(&self) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent > 0 {
                child_ns[s.parent as usize - 1] += s.dur_ns();
            }
        }
        let mut out = String::from("id\tparent\ttxn\tname\tstart_ns\tend_ns\tself_ns\n");
        for (i, (s, children)) in self.spans.iter().zip(child_ns).enumerate() {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                i + 1,
                s.parent,
                s.txn,
                s.name,
                s.start_ns,
                s.end_ns,
                s.dur_ns().saturating_sub(children)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        t.spans.push(Span {
            name: "pass",
            parent: 0,
            txn: 0,
            start_ns: 0,
            end_ns: 100,
        });
        for (a, b) in [(10, 30), (40, 70)] {
            t.spans.push(Span {
                name: "push",
                parent: 1,
                txn: 7,
                start_ns: a,
                end_ns: b,
            });
        }
        let st = t.self_times();
        assert_eq!(st["pass"].self_ns, 50);
        assert_eq!(st["push"].self_ns, 50);
        assert_eq!(st["push"].count, 2);
        assert!(t
            .to_tsv()
            .lines()
            .nth(2)
            .unwrap()
            .starts_with("2\t1\t7\tpush"));
    }
}
