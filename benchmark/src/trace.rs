//! Spans around the calls into each layer.
//!
//! Every timed region of the benchmark goes through [`Tracer::timed`],
//! which always measures the region and, in a traced run, also records a
//! span: name, start, end, the span that contains it, and the iteration
//! it belongs to. Spans stay in memory and are written once, at exit.
//! The spans sit in the benchmark's own code, around calls to public
//! functions; spans inside the measured crates are a later change.

use std::time::{Duration, Instant};

use crate::json::Json;

/// One recorded span. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name (`setup`, `net.run`, `occam.compile`, …).
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` at the top.
    pub parent: Option<usize>,
    /// Identifier shared by all spans of one iteration.
    pub iteration: u64,
}

/// Span recorder. Disabled, it only times.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    iteration: u64,
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            iteration: 0,
        }
    }

    /// Switch span recording on or off (the traced pass alternates, to
    /// measure what recording costs).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether spans are being recorded.
    pub fn is_recording(&self) -> bool {
        self.enabled
    }

    /// Start the next iteration: later spans carry a new identifier.
    pub fn next_iteration(&mut self) {
        self.iteration += 1;
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Run `f`, measure it, and record it as a span named `name` if
    /// recording is on. Spans opened inside `f` become its children.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, Duration) {
        let slot = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.open.last().copied(),
                iteration: self.iteration,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let start = Instant::now();
        let value = f(self);
        let wall = start.elapsed();
        if let Some(slot) = slot {
            let start_ns = (start - self.epoch).as_nanos() as u64;
            self.spans[slot].start_ns = start_ns;
            self.spans[slot].end_ns = start_ns + wall.as_nanos() as u64;
            self.open.pop();
        }
        (value, wall)
    }

    /// Self time of every span: its duration minus the part its children
    /// cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.end_ns - span.start_ns);
            }
        }
        own
    }

    /// Everything recorded, as the `trace.json` document for one
    /// workload: the spans in start order with their self times, and
    /// per-name totals.
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let own = self.self_ns();
        let mut by_name: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (span, &own_ns) in self.spans.iter().zip(&own) {
            let total = span.end_ns - span.start_ns;
            match by_name.iter_mut().find(|row| row.0 == span.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += total;
                    row.3 += own_ns;
                }
                None => by_name.push((span.name, 1, total, own_ns)),
            }
        }
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::from(seed)),
            (
                "by_name",
                Json::Obj(
                    by_name
                        .into_iter()
                        .map(|(name, count, total, own_ns)| {
                            (
                                name.to_string(),
                                Json::obj([
                                    ("count", Json::from(count)),
                                    ("total_ns", Json::from(total)),
                                    ("self_ns", Json::from(own_ns)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .zip(&own)
                        .enumerate()
                        .map(|(id, (span, &own_ns))| {
                            Json::obj([
                                ("id", Json::from(id as u64)),
                                ("name", Json::str(span.name)),
                                ("start_ns", Json::from(span.start_ns)),
                                ("end_ns", Json::from(span.end_ns)),
                                (
                                    "parent",
                                    span.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                                ),
                                ("iteration", Json::from(span.iteration)),
                                ("self_ns", Json::from(own_ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_and_self_time_excludes_them() {
        let mut t = Tracer::new(true);
        t.timed("outer", |t| {
            t.timed("inner", |_| std::thread::sleep(Duration::from_millis(2)));
        });
        assert_eq!(t.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        let own = t.self_ns();
        assert!(own[0] < t.spans[0].end_ns - t.spans[0].start_ns);
        assert_eq!(own[1], t.spans[1].end_ns - t.spans[1].start_ns);
    }

    #[test]
    fn disabled_tracer_only_times() {
        let mut t = Tracer::new(false);
        let ((), wall) = t.timed("x", |_| std::thread::sleep(Duration::from_millis(1)));
        assert!(wall >= Duration::from_millis(1));
        assert!(t.is_empty());
    }
}
