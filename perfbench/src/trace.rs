//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it and the job
//! it belongs to.  Spans stay in memory until the run ends and are then
//! written out as JSON lines, together with a per-name summary of total
//! and self time (a span's duration minus the part its children cover).
//! A disabled tracer records nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span; `NONE` when tracing is off or for a root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    pub const NONE: SpanId = SpanId(usize::MAX);
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: SpanId,
    pub job: u64,
}

pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
}

/// Count, total time and self time of every span with one name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            spans: Vec::new(),
        }
    }

    /// Opens a span at `start`; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, start: Instant, parent: SpanId, job: u64) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            job,
        });
        SpanId(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: SpanId, end: Instant) {
        if let Some(span) = self.spans.get_mut(id.0) {
            span.end = end;
        }
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        job: u64,
    ) {
        let id = self.open(name, start, parent, job);
        self.close(id, end);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total and self time per span name.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, span) in self.spans.iter().enumerate() {
            if let Some(kids) = children.get_mut(span.parent.0) {
                kids.push(i);
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (span, kids) in self.spans.iter().zip(&children) {
            let total = ms(span.start, span.end);
            let mut covered: Vec<(Instant, Instant)> = kids
                .iter()
                .map(|&k| {
                    let kid = &self.spans[k];
                    (kid.start.max(span.start), kid.end.min(span.end))
                })
                .filter(|(s, e)| s < e)
                .collect();
            covered.sort();
            let mut child_ms = 0.0;
            let mut reach: Option<Instant> = None;
            for (s, e) in covered {
                let s = reach.map_or(s, |r| s.max(r));
                if s < e {
                    child_ms += ms(s, e);
                }
                reach = Some(reach.map_or(e, |r| r.max(e)));
            }
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ms += total;
            entry.self_ms += total - child_ms;
        }
        out
    }

    /// Writes every span as one JSON line (times in microseconds from the
    /// first span's start), followed by the per-name summary lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let origin = self.spans.iter().map(|s| s.start).min();
        let us = |t: Instant| origin.map_or(0.0, |o| t.duration_since(o).as_secs_f64() * 1e6);
        for (i, span) in self.spans.iter().enumerate() {
            let parent = if span.parent == SpanId::NONE {
                "null".to_string()
            } else {
                span.parent.0.to_string()
            };
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"job\":{}}}",
                span.name,
                us(span.start),
                us(span.end),
                span.job
            )?;
        }
        for (name, t) in self.layer_times() {
            writeln!(
                out,
                "{{\"layer\":\"{name}\",\"count\":{},\"total_ms\":{:.6},\"self_ms\":{:.6}}}",
                t.count, t.total_ms, t.self_ms
            )?;
        }
        out.flush()
    }
}

fn ms(start: Instant, end: Instant) -> f64 {
    end.saturating_duration_since(start).as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut tracer = Tracer::new(true);
        let job = tracer.open("job", at(0), SpanId::NONE, 1);
        tracer.record("submit", at(0), at(2), job, 1);
        tracer.record("wait", at(5), at(8), job, 1);
        tracer.record("wait", at(7), at(9), job, 1);
        tracer.close(job, at(10));
        let times = tracer.layer_times();
        let job = &times["job"];
        assert_eq!(job.count, 1);
        assert!((job.total_ms - 10.0).abs() < 1e-9);
        // Children cover 0..2 and 5..9: 6 ms of the 10.
        assert!((job.self_ms - 4.0).abs() < 1e-9);
        assert_eq!(times["wait"].count, 2);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let now = Instant::now();
        let id = tracer.open("job", now, SpanId::NONE, 0);
        tracer.record("submit", now, now, id, 0);
        tracer.close(id, now);
        assert!(tracer.spans().is_empty());
        assert!(tracer.layer_times().is_empty());
    }
}
