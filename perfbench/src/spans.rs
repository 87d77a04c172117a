//! The benchmark's own span recorder.
//!
//! Spans are recorded around calls into the program's layers, from the
//! benchmark's side of the boundary. Each holds name, start, end, parent
//! and round id in a preallocated `Vec` and is written as Chrome
//! trace-event JSON when the run ends. Per-name totals — count, duration
//! and **self time** (duration minus the time its child spans cover) —
//! are kept for every span, including those that no longer fit the `Vec`.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of the parent span, or `NO_PARENT` for a root.
const NO_PARENT: u32 = u32::MAX;

/// One finished span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index into the retained spans; `u32::MAX` for a root (or when the
    /// parent itself was not retained).
    pub parent: u32,
    pub round: u32,
}

/// Totals of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Total {
    /// Mean duration in nanoseconds (0 when the span never ran).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

#[derive(Debug)]
struct Open {
    name: &'static str,
    start_ns: u64,
    children_ns: u64,
    /// Slot reserved in `spans`, if there was room.
    slot: Option<u32>,
}

/// Records properly nested spans of one thread.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
    stack: Vec<Open>,
    totals: Vec<(&'static str, Total)>,
    round: u32,
}

impl Recorder {
    /// A recorder that retains up to `capacity` spans for the trace file.
    pub fn new(capacity: usize) -> Recorder {
        Recorder {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            dropped: 0,
            stack: Vec::with_capacity(16),
            totals: Vec::with_capacity(32),
            round: 0,
        }
    }

    /// A recorder whose `enter`/`exit` do nothing: the untraced run.
    pub fn disabled() -> Recorder {
        Recorder {
            enabled: false,
            ..Recorder::new(0)
        }
    }

    /// Spans opened from now on carry this round id.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::exit`].
    #[inline]
    pub fn enter(&mut self, name: &'static str) {
        if self.enabled {
            let start_ns = self.now_ns();
            self.enter_at(name, start_ns);
        }
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        if self.enabled {
            let end_ns = self.now_ns();
            self.exit_at(end_ns);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    fn enter_at(&mut self, name: &'static str, start_ns: u64) {
        let slot = if self.spans.len() < self.spans.capacity() {
            let parent = self.stack.last().and_then(|p| p.slot).unwrap_or(NO_PARENT);
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                round: self.round,
            });
            Some(self.spans.len() as u32 - 1)
        } else {
            self.dropped += 1;
            None
        };
        self.stack.push(Open {
            name,
            start_ns,
            children_ns: 0,
            slot,
        });
    }

    fn exit_at(&mut self, end_ns: u64) {
        let open = self.stack.pop().expect("exit without a matching enter");
        let dur = end_ns - open.start_ns;
        if let Some(slot) = open.slot {
            self.spans[slot as usize].end_ns = end_ns;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.children_ns += dur;
        }
        let total = match self.totals.iter_mut().find(|(n, _)| *n == open.name) {
            Some((_, t)) => t,
            None => {
                self.totals.push((open.name, Total::default()));
                &mut self.totals.last_mut().expect("just pushed").1
            }
        };
        total.count += 1;
        total.total_ns += dur;
        total.self_ns += dur - open.children_ns;
    }

    /// Totals of the spans named `name` (zero if none ran).
    pub fn total(&self, name: &str) -> Total {
        self.totals
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, t)| *t)
            .unwrap_or_default()
    }

    /// Per-name totals in first-seen order.
    pub fn totals(&self) -> &[(&'static str, Total)] {
        &self.totals
    }

    /// Spans retained for the trace file.
    pub fn retained(&self) -> usize {
        self.spans.len()
    }

    /// Spans that did not fit the retained `Vec` (still in the totals).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained spans as Chrome trace-event JSON (`ph: "X"` complete
    /// events, microsecond timestamps with nanosecond precision; `args`
    /// carry the round id and the parent's index).
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(96 * self.spans.len() + 64);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{}.{:03},\"dur\":{}.{:03},\"args\":{{\"id\":{i},\"round\":{}",
                s.name,
                s.start_ns / 1_000,
                s.start_ns % 1_000,
                dur / 1_000,
                dur % 1_000,
                s.round,
            );
            if s.parent != NO_PARENT {
                let _ = write!(out, ",\"parent\":{}", s.parent);
            }
            out.push_str("}}");
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        let _ = writeln!(out, "],\"droppedSpans\":{}}}", self.dropped);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_and_abutting_children() {
        let mut r = Recorder::new(16);
        // round [0, 100): a [10, 40) holding b [15, 25); c [40, 70) abuts a.
        r.enter_at("round", 0);
        r.enter_at("a", 10);
        r.enter_at("b", 15);
        r.exit_at(25);
        r.exit_at(40);
        r.enter_at("c", 40);
        r.exit_at(70);
        r.exit_at(100);
        assert_eq!(
            r.total("round"),
            Total {
                count: 1,
                total_ns: 100,
                self_ns: 40
            }
        );
        assert_eq!(
            r.total("a"),
            Total {
                count: 1,
                total_ns: 30,
                self_ns: 20
            }
        );
        assert_eq!(
            r.total("b"),
            Total {
                count: 1,
                total_ns: 10,
                self_ns: 10
            }
        );
        assert_eq!(
            r.total("c"),
            Total {
                count: 1,
                total_ns: 30,
                self_ns: 30
            }
        );
        assert_eq!(r.total("never"), Total::default());
        // Self times partition the root's duration.
        let sum: u64 = r.totals().iter().map(|(_, t)| t.self_ns).sum();
        assert_eq!(sum, 100);
        // Parents are recorded by index.
        assert_eq!(r.spans[1].parent, 0);
        assert_eq!(r.spans[2].parent, 1);
        assert_eq!(r.spans[3].parent, 0);
        assert_eq!(r.spans[0].parent, NO_PARENT);
    }

    #[test]
    fn totals_survive_a_full_span_buffer() {
        let mut r = Recorder::new(2);
        r.set_round(7);
        for i in 0..5 {
            r.enter_at("x", i * 10);
            r.exit_at(i * 10 + 4);
        }
        assert_eq!(
            r.total("x"),
            Total {
                count: 5,
                total_ns: 20,
                self_ns: 20
            }
        );
        assert_eq!(r.dropped(), 3);
        let json = r.chrome_json();
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"round\":7"));
        assert!(json.contains("\"droppedSpans\":3"));
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut r = Recorder::disabled();
        r.enter("x");
        r.exit();
        assert!(r.totals().is_empty());
        assert_eq!(r.retained(), 0);
    }
}
