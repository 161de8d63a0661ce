//! The benchmark's own span recorder. Spans are taken around calls the
//! benchmark makes into each module's public functions; nothing is
//! instrumented inside the program. Spans stay in memory and are
//! written once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Spans kept per run; later ones are counted as dropped.
const MAX_SPANS: usize = 100_000;
/// Of those, the most the timed operations may take, so the layer
/// spans recorded after them always fit.
const MAX_OP_SPANS: usize = 50_000;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// This span's id (1-based).
    pub id: u64,
    /// The enclosing span, 0 for a root.
    pub parent: u64,
    /// The operation (request) the span belongs to.
    pub req: u64,
    /// Layer name, e.g. `dse.evaluate`.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Calls of the layer the span covers (small calls are timed in
    /// batches so the clock's own cost stays out of the figure).
    pub calls: u32,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when on; every method is a no-op when off.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    ops: usize,
    dropped: u64,
}

impl Tracer {
    /// A recorder, on or off.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            ops: 0,
            dropped: 0,
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records `[start, end)` covering `calls` calls, returning the new
    /// span's id (0 when off or full).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
        calls: u32,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        let span = Span {
            id,
            parent,
            req,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            calls: calls.max(1),
        };
        self.spans.push(span);
        id
    }

    /// Records one timed operation of the workload as a root span.
    pub fn op(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if self.ops >= MAX_OP_SPANS {
            self.dropped += u64::from(self.on);
            return;
        }
        self.ops += 1;
        self.record(name, 0, req, start, end, 1);
    }

    /// Runs `f` `calls` times inside one span and returns the last
    /// result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        calls: u32,
        mut f: impl FnMut() -> T,
    ) -> T {
        let start = Instant::now();
        let mut out = f();
        for _ in 1..calls {
            out = std::hint::black_box(f());
        }
        let end = Instant::now();
        self.record(name, parent, req, start, end, calls);
        out
    }

    /// Opens a parent span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: u64, req: u64) -> u64 {
        let now = Instant::now();
        self.record(name, parent, req, now, now, 1)
    }

    /// Sets the end of an open span to now.
    pub fn close(&mut self, id: u64) {
        if id == 0 {
            return;
        }
        let end = self.ns(Instant::now());
        self.spans[(id - 1) as usize].end_ns = end;
    }

    /// Self time per call of every span, grouped by name, in ns: a
    /// span's duration minus the part its children cover, divided by
    /// the calls it covers.
    pub fn self_ns_per_call(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            let covered = children.get(&s.id).map_or(0, |c| covered_ns(c));
            let own = s.dur_ns().saturating_sub(covered);
            out.entry(s.name)
                .or_default()
                .push(own as f64 / f64::from(s.calls));
        }
        out
    }

    /// Writes every span as JSON to `path`, once, at the end of a run.
    ///
    /// # Errors
    ///
    /// File-system failures.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut s = String::with_capacity(self.spans.len() * 96 + 64);
        let _ = write!(s, "{{\"dropped\":{},\"spans\":[", self.dropped);
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            let _ = write!(
                s,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"calls\":{}}}",
                sp.id, sp.parent, sp.req, sp.name, sp.start_ns, sp.end_ns, sp.calls
            );
        }
        s.push_str("]}\n");
        std::fs::write(path, s)
    }
}

/// Length of the union of `[start, end)` intervals.
fn covered_ns(intervals: &[(u64, u64)]) -> u64 {
    let mut v = intervals.to_vec();
    v.sort_unstable();
    let (mut total, mut reach) = (0u64, 0u64);
    for (start, end) in v {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_covered_children() {
        let mut t = Tracer::new(true);
        let o = t.origin;
        let at = |ns| o + Duration::from_nanos(ns);
        let root = t.record("op", 0, 1, at(0), at(1000), 1);
        t.record("a", root, 1, at(100), at(300), 2);
        t.record("b", root, 1, at(200), at(400), 1);
        let self_ns = t.self_ns_per_call();
        assert_eq!(self_ns["op"], vec![700.0]); // 1000 - union(100..400)
        assert_eq!(self_ns["a"], vec![100.0]); // 200 ns over 2 calls
        assert_eq!(self_ns["b"], vec![200.0]);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.time("x", 0, 0, 3, || 1 + 1), 2);
        assert!(t.spans.is_empty());
    }
}
