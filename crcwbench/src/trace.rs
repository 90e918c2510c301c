//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out once the run ends (Chrome trace-event format, so
//! `chrome://tracing` or Perfetto can open the file).

use std::time::Instant;

/// One timed interval. `parent` is the id of the span that caused it.
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    /// The layer the span times: `graph`, `exec`, `algos` or `bench`.
    pub layer: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Spans of one run, timed from a common origin.
pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the trace origin to `t`.
    pub fn offset_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a span and return its id.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        layer: &'static str,
        parent: Option<usize>,
        start_ns: u64,
        dur_ns: u64,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name: name.into(),
            layer,
            start_ns,
            dur_ns,
        });
        id
    }

    /// Record the span `[start, end)`.
    pub fn push_interval(
        &mut self,
        name: impl Into<String>,
        layer: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let start_ns = self.offset_ns(start);
        let dur_ns = (end - start).as_nanos() as u64;
        self.push(name, layer, parent, start_ns, dur_ns)
    }

    /// The spans as a JSON array of complete (`"ph": "X"`) trace events,
    /// timestamps in microseconds.
    pub fn events_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
                     \"ts\": {}, \"dur\": {}, \"args\": {{\"id\": {}, \"parent\": {parent}}}}}",
                    s.name,
                    s.layer,
                    s.start_ns as f64 / 1e3,
                    s.dur_ns as f64 / 1e3,
                    s.id
                )
            })
            .collect();
        format!("[{}]", events.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_keep_their_parents() {
        let mut t = Trace::new();
        let call = t.push("call.bfs", "algos", None, 1_000, 5_000);
        let round = t.push("round.push", "algos", Some(call), 2_000, 1_500);
        assert_eq!(t.spans[round].parent, Some(call));
        let json = t.events_json();
        assert!(json.contains("\"name\": \"round.push\""));
        assert!(json.contains("\"ts\": 2, \"dur\": 1.5, \"args\": {\"id\": 1, \"parent\": 0}"));
    }
}
