//! The benchmark's own trace spans: set-up steps, every `launch`, and every
//! layer-probe call, kept in memory and written out with the program's
//! flight-recorder trace as one Chrome trace-event file.

use spbc_trace::json::escape;
use std::cell::RefCell;
use std::time::Instant;

struct Span {
    name: String,
    start_us: u64,
    dur_us: u64,
}

/// Span recorder; a disabled recorder records nothing.
pub struct Spans {
    t0: Instant,
    on: bool,
    spans: RefCell<Vec<Span>>,
}

/// An open span, recorded when dropped. Spans nest by time containment.
pub struct Open<'a> {
    spans: &'a Spans,
    name: &'a str,
    start: Instant,
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        if self.spans.on {
            let start_us = self.start.duration_since(self.spans.t0).as_micros() as u64;
            let dur_us = self.start.elapsed().as_micros() as u64;
            let name = self.name.to_string();
            self.spans.spans.borrow_mut().push(Span { name, start_us, dur_us });
        }
    }
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans { t0: Instant::now(), on, spans: RefCell::new(Vec::new()) }
    }

    /// Open a span called `name`; it closes when the guard drops.
    pub fn enter<'a>(&'a self, name: &'a str) -> Open<'a> {
        Open { spans: self, name, start: Instant::now() }
    }

    /// Merge the spans (process 1, "perfbench") into a Chrome trace the
    /// program rendered (process 0, its ranks) and return the combined JSON.
    pub fn merge_into(&self, program_trace: &str) -> String {
        let mut events: Vec<String> =
            vec![r#"{"ph":"M","name":"process_name","pid":1,"tid":0,"args":{"name":"perfbench"}}"#
                .to_string()];
        for s in self.spans.borrow().iter() {
            events.push(format!(
                r#"{{"ph":"X","name":{},"cat":"perfbench","pid":1,"tid":0,"ts":{},"dur":{}}}"#,
                escape(&s.name),
                s.start_us,
                s.dur_us
            ));
        }
        let ours = events.join(",");
        let marker = "\"traceEvents\":[";
        match program_trace.find(marker) {
            Some(at) => {
                let (head, tail) = program_trace.split_at(at + marker.len());
                let sep = if tail.starts_with(']') { "" } else { "," };
                format!("{head}{ours}{sep}{tail}")
            }
            None => format!("{{\"traceEvents\":[{ours}]}}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_trace_parses_and_keeps_both_sides() {
        let s = Spans::new(true);
        {
            let _outer = s.enter("outer");
            let _inner = s.enter("inner");
        }
        let merged = s.merge_into(r#"{"traceEvents":[{"ph":"i","name":"x","pid":0,"tid":0,"ts":1}],"displayTimeUnit":"ms"}"#);
        let parsed = spbc_trace::json::parse(&merged).expect("valid JSON");
        let n = parsed.get("traceEvents").and_then(|e| e.as_arr()).map(|a| a.len());
        assert_eq!(n, Some(4));
        let empty = s.merge_into(r#"{"traceEvents":[]}"#);
        assert!(spbc_trace::json::parse(&empty).is_ok());
    }
}
