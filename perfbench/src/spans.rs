//! Spans recorded by the traced run: kept in memory, written out as JSON
//! lines when the run ends.
//!
//! A span is `(name, start, end, parent, request id)`. Self time is a
//! span's duration minus the durations of its direct children. The
//! benchmark times layer calls from outside the program, right after
//! the request they belong to, so a child's interval need not lie inside
//! its parent's in wall time; durations are what the breakdown uses.

use std::io::{self, Write};
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub req: u64,
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        let span = Span {
            id,
            parent,
            req,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        id
    }

    /// Times `f` as a span and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let id = self.record(name, req, parent, start, Instant::now());
        (out, id)
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }
}

/// Self time (ns, signed) of every span, indexed like `spans`. Children
/// are found by `parent`; ids must be `1..=spans.len()` in order, as a
/// [`Recorder`] assigns them.
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut out: Vec<i64> = spans.iter().map(|s| s.dur_ns() as i64).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[(p - 1) as usize] -= s.dur_ns() as i64;
        }
    }
    out
}

/// Writes one JSON object per span.
pub fn write_jsonl(spans: &[Span], w: &mut impl Write) -> io::Result<()> {
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 9,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_times_are_nonnegative_and_sum_to_the_root() {
        // root [0,100) ⊃ a [10,40) ⊃ a1 [12,20), a2 [25,39); b [50,90) ⊃ b1 [60,61)
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(2), 12, 20),
            span(4, Some(2), 25, 39),
            span(5, Some(1), 50, 90),
            span(6, Some(5), 60, 61),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![30, 8, 8, 14, 39, 1]);
        assert!(selfs.iter().all(|&s| s >= 0));
        assert_eq!(selfs.iter().sum::<i64>(), spans[0].dur_ns() as i64);
    }

    #[test]
    fn jsonl_has_one_parseable_line_per_span() {
        let spans = vec![span(1, None, 0, 10), span(2, Some(1), 2, 5)];
        let mut out = Vec::new();
        write_jsonl(&spans, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let v = domatic_telemetry::json::parse(lines[1]).unwrap();
        assert_eq!(v.get("parent").and_then(|p| p.as_int()), Some(1));
        assert_eq!(v.get("end_ns").and_then(|p| p.as_int()), Some(5));
        let root = domatic_telemetry::json::parse(lines[0]).unwrap();
        assert_eq!(
            root.get("parent"),
            Some(&domatic_telemetry::json::Json::Null)
        );
    }
}
