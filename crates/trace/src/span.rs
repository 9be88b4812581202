//! Lightweight span timing — the *non*-deterministic side of tracing.
//!
//! [`Timings`] records named wall-clock spans as a tree: [`Timings::begin`]
//! and [`Timings::end`] (or [`Timings::time`] around a closure) nest
//! spans, and every closed span keeps its start and duration, which place
//! it inside its parent's interval. [`Timings::to_chrome_trace`] exports
//! them as Chrome trace-event JSON, loadable in Perfetto or
//! `chrome://tracing`.
//!
//! It is kept deliberately separate from [`crate::Registry`] and
//! [`crate::EventLog`]: wall time is a property of the machine and the
//! `(shards, threads)` plan, never of the simulated data, so it must not
//! be able to contaminate the byte-identical `--metrics`/`--ledger`
//! output. The `reproduce` CLI writes it to the `--chrome-trace` sidecar
//! instead.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span in the tree: where it sat and how long it ran.
#[derive(Clone, Debug)]
struct SpanNode {
    /// Span name.
    name: &'static str,
    /// Start offset from the `Timings` epoch, in microseconds.
    start_us: u64,
    /// Duration in microseconds.
    dur_us: u64,
}

/// An open span on the stack, closed by [`Timings::end`].
#[derive(Clone, Debug)]
struct OpenSpan {
    name: &'static str,
    start: Instant,
}

/// Named wall-clock spans as a tree.
#[derive(Clone, Debug, Default)]
pub struct Timings {
    /// Instant of the first `begin`; node offsets are relative to it.
    epoch: Option<Instant>,
    stack: Vec<OpenSpan>,
    nodes: Vec<SpanNode>,
}

impl Timings {
    /// Empty set of spans.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open span `name`, nested under whatever is open; pair with
    /// [`Timings::end`].
    pub fn begin(&mut self, name: &'static str) {
        let now = Instant::now();
        let epoch = *self.epoch.get_or_insert(now);
        // `now` can never precede an epoch taken at or before it.
        debug_assert!(now >= epoch);
        self.stack.push(OpenSpan { name, start: now });
    }

    /// Close the innermost open span, recording its tree node. A stray
    /// `end` with nothing open is ignored.
    pub fn end(&mut self) {
        let Some(open) = self.stack.pop() else {
            debug_assert!(false, "Timings::end with no open span");
            return;
        };
        let elapsed = open.start.elapsed();
        let epoch = self.epoch.expect("epoch set by begin");
        self.nodes.push(SpanNode {
            name: open.name,
            start_us: open.start.duration_since(epoch).as_micros() as u64,
            dur_us: elapsed.as_micros() as u64,
        });
    }

    /// Time `f` under span `name`, returning its result. The span lands
    /// in the tree, nested under whatever is currently open.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Chrome trace-event JSON: an array of complete (`"ph": "X"`)
    /// events with µs `ts`/`dur`, loadable in Perfetto or
    /// `chrome://tracing`. Nesting is reconstructed by the viewer from
    /// interval containment on the single `pid`/`tid`.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::new();
        out.push('[');
        let mut first = true;
        for node in &self.nodes {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n  {\"name\": ");
            // Span names are `&'static str` identifiers; escape anyway.
            crate::event::write_json_string(&mut out, node.name);
            let _ = write!(
                out,
                ", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": 1, \"tid\": 1}}",
                node.start_us, node.dur_us
            );
        }
        if !self.nodes.is_empty() {
            out.push('\n');
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn begin_and_end_build_a_nested_tree() {
        let mut t = Timings::new();
        t.begin("outer");
        t.begin("mid");
        t.time("inner", || std::thread::sleep(Duration::from_micros(50)));
        t.end();
        t.end();
        // Close order: innermost first.
        let names: Vec<_> = t.nodes.iter().map(|n| n.name).collect();
        assert_eq!(names, ["inner", "mid", "outer"]);
        // Parents contain their children in time.
        let by_name = |name: &str| t.nodes.iter().find(|n| n.name == name).unwrap().clone();
        let (inner, mid, outer) = (by_name("inner"), by_name("mid"), by_name("outer"));
        assert!(outer.start_us <= mid.start_us);
        assert!(mid.start_us <= inner.start_us);
        assert!(outer.start_us + outer.dur_us >= mid.start_us + mid.dur_us);
        assert!(mid.start_us + mid.dur_us >= inner.start_us + inner.dur_us);
        assert!(inner.dur_us >= 50);
    }

    #[test]
    fn chrome_trace_emits_complete_events() {
        let mut t = Timings::new();
        t.time("alpha", || ());
        t.time("beta", || ());
        let trace = t.to_chrome_trace();
        assert!(trace.starts_with('['), "{trace}");
        assert!(trace.trim_end().ends_with(']'), "{trace}");
        assert_eq!(trace.matches("\"ph\": \"X\"").count(), 2, "{trace}");
        assert!(trace.contains("\"name\": \"alpha\""), "{trace}");
        assert!(trace.contains("\"ts\": "), "{trace}");
        assert!(trace.contains("\"dur\": "), "{trace}");
        assert!(trace.contains("\"pid\": 1, \"tid\": 1"), "{trace}");
    }
}
