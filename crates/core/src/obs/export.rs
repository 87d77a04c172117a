//! Trace exporters: JSONL and Chrome trace-event format.
//!
//! Both exporters are pure functions of the trace (and metrics), built on
//! integer timestamps, so the same seed yields byte-identical output —
//! the golden-trace tests rely on this.
//!
//! * [`jsonl`] — one JSON object per line; the first line is a meta
//!   record with the event count and ring-drop count. Easy to grep and
//!   to post-process with `jq`.
//! * [`chrome_trace`] — the Chrome trace-event format (the JSON object
//!   form), loadable in Perfetto or `chrome://tracing`. Part executions
//!   become complete ("X") slices grouped by task (pid) and hardware
//!   thread (tid); everything else becomes instant ("i") events; the
//!   `otherData` section embeds the Δm/Δb/Δs/Δe, response-time, jitter
//!   and QoS histogram summaries from the [`MetricsRegistry`].
//!
//! # Cost
//!
//! An export costs what it writes. Each document is built in one buffer
//! reserved once from `trace.len()`; an event appends its bytes to it
//! through one formatter — integers by `push_u64`, names as static
//! strings — without `fmt`, hashing or an allocation. Only what happens
//! once per document (the meta line, the `otherData` summaries) and the
//! `f64` of a WCET fault go through `write!`.

use std::io::{self, Write as _};
use std::path::Path;

use rtseed_model::{HwThreadId, JobId, OptionalOutcome, TaskId, Time};
use rtseed_sim::{FaultTarget, OverheadKind, TimerFault};

use super::{Histogram, MetricsRegistry, Trace, TraceEvent, QOS_PPM};

/// A document under construction. Everything appended is UTF-8; it
/// becomes a `String` once, in `finish`.
type Buf = Vec<u8>;

fn finish(out: Buf) -> String {
    String::from_utf8(out).expect("the exporters append UTF-8 only")
}

fn push_str(out: &mut Buf, s: &str) {
    out.extend_from_slice(s.as_bytes());
}

/// The decimal digits of 00–99, two bytes each.
const DIGIT_PAIRS: &[u8; 200] = b"\
      0001020304050607080910111213141516171819\
      2021222324252627282930313233343536373839\
      4041424344454647484950515253545556575859\
      6061626364656667686970717273747576777879\
      8081828384858687888990919293949596979899";

/// Appends `v` in decimal, two digits a step.
///
/// Never inlined: folded into `push_num` it makes that too big to inline
/// in turn, and every key is then copied with a length unknown at compile
/// time (measured: both exporters a sixth slower).
#[inline(never)]
fn push_u64(out: &mut Buf, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..][..2]);
    }
    if v >= 10 {
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[v as usize * 2..][..2]);
    } else {
        at -= 1;
        buf[at] = b'0' + v as u8;
    }
    out.extend_from_slice(&buf[at..]);
}

/// Appends `key` (its punctuation included) and then `v` in decimal.
fn push_num(out: &mut Buf, key: &str, v: u64) {
    push_str(out, key);
    push_u64(out, v);
}

/// Appends `key`, then `name` and the quote that closes it.
fn push_name(out: &mut Buf, key: &str, name: &str) {
    push_str(out, key);
    push_str(out, name);
    out.push(b'"');
}

/// Escapes `s` as the contents of a JSON string literal. Every byte that
/// needs escaping is ASCII, so the clean prefix (usually all of `s`) is
/// copied whole and the rest byte by byte.
fn escape_into(out: &mut Buf, s: &str) {
    let dirty = |b: u8| b < 0x20 || b == b'"' || b == b'\\';
    let clean = s.bytes().position(dirty).unwrap_or(s.len());
    let (head, tail) = s.as_bytes().split_at(clean);
    out.extend_from_slice(head);
    for &b in tail {
        match b {
            b'"' => push_str(out, "\\\""),
            b'\\' => push_str(out, "\\\\"),
            b'\n' => push_str(out, "\\n"),
            b'\r' => push_str(out, "\\r"),
            b'\t' => push_str(out, "\\t"),
            b if b < 0x20 => {
                push_str(out, "\\u00");
                out.push(b'0' + (b >> 4));
                out.push(b"0123456789abcdef"[usize::from(b & 0xf)]);
            }
            b => out.push(b),
        }
    }
}

/// `{outcome:?}`, as a static string.
const fn outcome_name(outcome: OptionalOutcome) -> &'static str {
    match outcome {
        OptionalOutcome::Completed => "Completed",
        OptionalOutcome::Terminated => "Terminated",
        OptionalOutcome::Discarded => "Discarded",
    }
}

/// `{target:?}`, as a static string.
const fn target_name(target: FaultTarget) -> &'static str {
    match target {
        FaultTarget::Mandatory => "Mandatory",
        FaultTarget::Windup => "Windup",
    }
}

fn push_job(out: &mut Buf, job: JobId) {
    push_num(out, "\"task\":", job.task.0.into());
    push_num(out, ",\"seq\":", job.seq);
}

/// Appends the event-specific fields (without braces) to `out`.
fn push_fields(out: &mut Buf, event: &TraceEvent) {
    match event {
        TraceEvent::JobReleased { job }
        | TraceEvent::MandatoryCompleted { job }
        | TraceEvent::WindupStarted { job }
        | TraceEvent::OptionalDeadlineExpired { job }
        | TraceEvent::TimerCancelled { job }
        | TraceEvent::TaskQuarantined { job } => push_job(out, *job),
        TraceEvent::MandatoryStarted { job, hw } | TraceEvent::JobBound { job, hw } => {
            push_job(out, *job);
            push_num(out, ",\"hw\":", hw.0.into());
        }
        TraceEvent::OptionalStarted { job, part, hw } => {
            push_job(out, *job);
            push_num(out, ",\"part\":", part.0.into());
            push_num(out, ",\"hw\":", hw.0.into());
        }
        TraceEvent::OptionalEnded {
            job,
            part,
            outcome,
            achieved,
        } => {
            push_job(out, *job);
            push_num(out, ",\"part\":", part.0.into());
            push_name(out, ",\"outcome\":\"", outcome_name(*outcome));
            push_num(out, ",\"achieved_ns\":", achieved.as_nanos());
        }
        TraceEvent::WindupCompleted { job, deadline_met } => {
            push_job(out, *job);
            push_str(out, ",\"deadline_met\":");
            push_str(out, if *deadline_met { "true" } else { "false" });
        }
        TraceEvent::Queue { band, op, job, hw } => {
            push_name(out, "\"band\":\"", band.name());
            push_name(out, ",\"op\":\"", op.name());
            out.push(b',');
            push_job(out, *job);
            if let Some(hw) = hw {
                push_num(out, ",\"hw\":", hw.0.into());
            }
        }
        TraceEvent::TimerArmed { job, at } => {
            push_job(out, *job);
            push_num(out, ",\"at_ns\":", at.as_nanos());
        }
        TraceEvent::PolicyDecision {
            task,
            policy,
            parts,
            distinct_cores,
        } => {
            push_num(out, "\"task\":", task.0.into());
            push_str(out, ",\"policy\":\"");
            escape_into(out, policy);
            push_num(out, "\",\"parts\":", (*parts).into());
            push_num(out, ",\"distinct_cores\":", *distinct_cores as u64);
        }
        TraceEvent::Migrated { job, from, to } => {
            push_job(out, *job);
            push_num(out, ",\"from\":", from.0.into());
            push_num(out, ",\"to\":", to.0.into());
        }
        TraceEvent::WcetFaultInjected {
            job,
            target,
            factor,
        } => {
            push_job(out, *job);
            push_name(out, ",\"target\":\"", target_name(*target));
            // Shortest round-trip float printing stays with `fmt`.
            let _ = write!(out, ",\"factor\":{factor}");
        }
        TraceEvent::TimerFaultInjected { job, fault } => {
            push_job(out, *job);
            match fault {
                TimerFault::Delay(by) => {
                    push_num(out, ",\"fault\":\"delay\",\"delay_ns\":", by.as_nanos());
                }
                TimerFault::Lost => push_str(out, ",\"fault\":\"lost\""),
            }
        }
        TraceEvent::CpuStallStarted { hw, duration } => {
            push_num(out, "\"hw\":", hw.0.into());
            push_num(out, ",\"duration_ns\":", duration.as_nanos());
        }
        TraceEvent::BudgetCut { job, target } => {
            push_job(out, *job);
            push_name(out, ",\"target\":\"", target_name(*target));
        }
        TraceEvent::DegradedModeEntered | TraceEvent::DegradedModeExited => {}
        TraceEvent::PipelineStage { cycle, stage, part } => {
            push_num(out, "\"cycle\":", *cycle);
            push_name(out, ",\"stage\":\"", stage.name());
            if let Some(part) = part {
                push_num(out, ",\"part\":", part.0.into());
            }
        }
        TraceEvent::TenantAdmitted { tenant, tasks } => {
            push_num(out, "\"tenant\":", tenant.0.into());
            push_num(out, ",\"tasks\":", (*tasks).into());
        }
        TraceEvent::TenantRejected { tenant, reason } => {
            push_num(out, "\"tenant\":", tenant.0.into());
            push_name(out, ",\"reason\":\"", reason.label());
        }
        TraceEvent::TenantDeparted { tenant }
        | TraceEvent::TenantShed { tenant }
        | TraceEvent::TenantQuarantined { tenant }
        | TraceEvent::TenantEvicted { tenant }
        | TraceEvent::TenantRecovered { tenant } => {
            push_num(out, "\"tenant\":", tenant.0.into());
        }
        TraceEvent::SubmissionDeferred { name } => {
            push_str(out, "\"name\":\"");
            escape_into(out, name);
            out.push(b'"');
        }
        TraceEvent::DeferredAdmitted { tenant, waited } => {
            push_num(out, "\"tenant\":", tenant.0.into());
            push_num(out, ",\"waited_ns\":", waited.as_nanos());
        }
    }
}

/// Exports a trace as JSON Lines: a meta record, then one object per
/// event in time order.
///
/// Cost: one buffer, reserved once at 96 bytes an event (scheduler events
/// average 84 to 87, pipeline events 80), and no allocation per event.
pub fn jsonl(trace: &Trace) -> String {
    let mut buf = Buf::with_capacity(96 * trace.len() + 128);
    let out = &mut buf;
    let _ = writeln!(
        out,
        "{{\"type\":\"meta\",\"format\":\"rtseed-trace\",\"version\":1,\"events\":{},\"dropped\":{}}}",
        trace.len(),
        trace.dropped()
    );
    for (t, e) in trace.events() {
        push_num(out, "{\"t_ns\":", t.as_nanos());
        push_name(out, ",\"ev\":\"", e.name());
        out.push(b',');
        let bare = out.len();
        push_fields(out, e);
        if out.len() == bare {
            // No fields: the object closes after the name.
            out.pop();
        }
        push_str(out, "}\n");
    }
    finish(buf)
}

/// Appends `key` and then `ns` as a Chrome ts value (microseconds with
/// nanosecond precision).
fn push_ts(out: &mut Buf, key: &str, ns: u64) {
    push_num(out, key, ns / 1_000);
    let frac = (ns % 1_000) as usize;
    out.push(b'.');
    out.push(b'0' + (frac / 100) as u8);
    out.extend_from_slice(&DIGIT_PAIRS[frac % 100 * 2..][..2]);
}

fn push_histogram(out: &mut Buf, name: &str, h: &Histogram) {
    let _ = write!(
        out,
        "\"{name}\":{{\"count\":{},\"mean_ns\":{},\"min_ns\":{},\"max_ns\":{},\"p99_bound_ns\":{}}}",
        h.count(),
        h.mean(),
        h.min(),
        h.max(),
        h.quantile_bound(0.99)
    );
}

/// The part of a job a Chrome slice covers.
#[derive(PartialEq, Eq, Clone, Copy)]
enum Lane {
    Mandatory,
    Optional(u32),
    Windup,
}

/// Chrome slice bookkeeping for one task. It behaves as a map from
/// (job, lane) to the open start plus a map from job to the hardware
/// thread of its mandatory part, whatever the event order: a second start
/// of a lane replaces the first, an end without a start finds nothing, and
/// mandatory entries are never removed.
#[derive(Default)]
struct TaskSlices {
    /// Started parts not yet ended: (seq, lane, start, hw). At most
    /// `np + 2` per job in flight.
    open: Vec<(u64, Lane, Time, HwThreadId)>,
    /// (seq, hardware thread number) of every mandatory start seen, sorted
    /// by seq: arrival order, unless the trace was built by hand.
    mandatory: Vec<(u64, u32)>,
}

/// The value under `key` in a table kept sorted by key; an absent key is
/// inserted first, with the default value.
fn slot<K: Ord + Copy, V: Default>(table: &mut Vec<(K, V)>, key: K) -> &mut V {
    let found = table.binary_search_by_key(&key, |entry| entry.0);
    let at = found.unwrap_or_else(|at| {
        table.insert(at, (key, V::default()));
        at
    });
    &mut table[at].1
}

impl TaskSlices {
    fn start(&mut self, seq: u64, lane: Lane, at: Time, hw: HwThreadId) {
        match self.open.iter_mut().find(|o| o.0 == seq && o.1 == lane) {
            Some(open) => *open = (seq, lane, at, hw),
            None => self.open.push((seq, lane, at, hw)),
        }
    }

    fn end(&mut self, seq: u64, lane: Lane) -> Option<(Time, HwThreadId)> {
        let at = self.open.iter().position(|o| o.0 == seq && o.1 == lane)?;
        let (_, _, start, hw) = self.open.swap_remove(at);
        Some((start, hw))
    }
}

/// Exports a trace (plus the run's metric summaries) in the Chrome
/// trace-event format. Open the result in Perfetto (`ui.perfetto.dev`)
/// or `chrome://tracing`: rows are grouped by task, slices are part
/// executions, instants are releases/timers/faults/queue operations.
///
/// Cost: one buffer, reserved once at 128 bytes an event (105 written on a
/// traced desk day), no allocation per event, and part starts paired with
/// their ends through a per-task table rather than by hashing.
pub fn chrome_trace(trace: &Trace, metrics: &MetricsRegistry) -> String {
    let mut buf = Buf::with_capacity(128 * (trace.len() + 8));
    let out = &mut buf;
    push_str(out, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let first = out.len();
    // Searched by task id, not indexed by it: a trace built by hand may
    // name `TaskId(u32::MAX)`, which costs one entry.
    let mut tasks: Vec<(TaskId, TaskSlices)> = Vec::new();

    for (t, e) in trace.events() {
        match e {
            TraceEvent::MandatoryStarted { job, hw } => {
                let task = slot(&mut tasks, job.task);
                task.start(job.seq, Lane::Mandatory, *t, *hw);
                *slot(&mut task.mandatory, job.seq) = hw.0;
            }
            TraceEvent::OptionalStarted { job, part, hw } => {
                slot(&mut tasks, job.task).start(job.seq, Lane::Optional(part.0), *t, *hw);
            }
            TraceEvent::WindupStarted { job } => {
                // The wind-up runs where the mandatory part ran: on the
                // default, thread 0, when the ring dropped that start.
                let task = slot(&mut tasks, job.task);
                let hw = HwThreadId(*slot(&mut task.mandatory, job.seq));
                task.start(job.seq, Lane::Windup, *t, hw);
            }
            TraceEvent::MandatoryCompleted { job }
            | TraceEvent::OptionalEnded { job, .. }
            | TraceEvent::WindupCompleted { job, .. } => {
                let lane = match e {
                    TraceEvent::MandatoryCompleted { .. } => Lane::Mandatory,
                    TraceEvent::OptionalEnded { part, .. } => Lane::Optional(part.0),
                    _ => Lane::Windup,
                };
                let Some((start, hw)) = slot(&mut tasks, job.task).end(job.seq, lane) else {
                    continue;
                };
                if out.len() > first {
                    out.push(b',');
                }
                push_str(out, "{\"name\":\"");
                match e {
                    TraceEvent::MandatoryCompleted { .. } => push_str(out, "mandatory"),
                    TraceEvent::OptionalEnded { part, outcome, .. } => {
                        push_num(out, "optional[", part.0.into());
                        push_str(out, "] ");
                        push_str(out, outcome_name(*outcome));
                    }
                    _ => push_str(out, "wind-up"),
                }
                // `JobId`'s `Display`: τ{task + 1}#{seq}.
                push_num(out, " τ", (job.task.0 + 1).into());
                push_num(out, "#", job.seq);
                push_num(
                    out,
                    "\",\"cat\":\"part\",\"ph\":\"X\",\"pid\":",
                    job.task.0.into(),
                );
                push_num(out, ",\"tid\":", hw.0.into());
                push_ts(out, ",\"ts\":", start.as_nanos());
                push_ts(out, ",\"dur\":", t.as_nanos() - start.as_nanos());
                out.push(b'}');
            }
            _ => {
                // Everything else is an instant with the JSONL fields as args.
                if out.len() > first {
                    out.push(b',');
                }
                let pid = e.job().map_or(0, |j| j.task.0.into());
                push_name(out, "{\"name\":\"", e.name());
                push_num(
                    out,
                    ",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"g\",\"pid\":",
                    pid,
                );
                push_ts(out, ",\"tid\":0,\"ts\":", t.as_nanos());
                push_str(out, ",\"args\":{");
                push_fields(out, e);
                push_str(out, "}}");
            }
        }
    }

    push_str(out, "],\"otherData\":{");
    let _ = write!(out, "\"dropped\":{},\"overheads\":{{", trace.dropped());
    for (i, kind) in OverheadKind::ALL.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        push_histogram(out, kind.symbol(), metrics.overhead(*kind));
    }
    push_str(out, "},");
    push_histogram(out, "response_time", metrics.response_time());
    out.push(b',');
    push_histogram(out, "release_jitter", metrics.release_jitter());
    let q = metrics.qos_level();
    let _ = write!(
        out,
        ",\"qos_level\":{{\"count\":{},\"mean\":{},\"min\":{},\"max\":{}}}",
        q.count(),
        q.mean() as f64 / QOS_PPM as f64,
        q.min() as f64 / QOS_PPM as f64,
        q.max() as f64 / QOS_PPM as f64
    );
    push_str(out, "}}");
    finish(buf)
}

/// Writes [`jsonl`] output to `path`.
///
/// # Errors
///
/// Propagates I/O errors from writing the file.
pub fn write_jsonl(path: impl AsRef<Path>, trace: &Trace) -> io::Result<()> {
    std::fs::write(path, jsonl(trace))
}

/// Writes [`chrome_trace`] output to `path`.
///
/// # Errors
///
/// Propagates I/O errors from writing the file.
pub fn write_chrome_trace(
    path: impl AsRef<Path>,
    trace: &Trace,
    metrics: &MetricsRegistry,
) -> io::Result<()> {
    std::fs::write(path, chrome_trace(trace, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rtseed_model::{PartId, Span};

    fn job(seq: u64) -> JobId {
        JobId {
            task: TaskId(0),
            seq,
        }
    }

    fn t(ns: u64) -> Time {
        Time::from_nanos(ns)
    }

    fn sample_trace() -> Trace {
        let mut tr = Trace::new();
        tr.record(t(0), TraceEvent::JobReleased { job: job(0) });
        tr.record(
            t(100),
            TraceEvent::MandatoryStarted {
                job: job(0),
                hw: HwThreadId(3),
            },
        );
        tr.record(t(900), TraceEvent::MandatoryCompleted { job: job(0) });
        tr.record(
            t(950),
            TraceEvent::OptionalStarted {
                job: job(0),
                part: PartId(0),
                hw: HwThreadId(4),
            },
        );
        tr.record(
            t(1950),
            TraceEvent::OptionalEnded {
                job: job(0),
                part: PartId(0),
                outcome: OptionalOutcome::Completed,
                achieved: Span::from_nanos(1000),
            },
        );
        tr.record(t(2000), TraceEvent::WindupStarted { job: job(0) });
        tr.record(
            t(2500),
            TraceEvent::WindupCompleted {
                job: job(0),
                deadline_met: true,
            },
        );
        tr
    }

    #[test]
    fn jsonl_has_meta_then_one_line_per_event() {
        let tr = sample_trace();
        let text = jsonl(&tr);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), tr.len() + 1);
        assert!(lines[0].contains("\"type\":\"meta\""), "{}", lines[0]);
        assert!(lines[0].contains("\"events\":7"), "{}", lines[0]);
        assert!(lines[1].contains("\"ev\":\"job_released\""), "{}", lines[1]);
        assert!(
            lines[2].contains("\"hw\":3") && lines[2].contains("\"t_ns\":100"),
            "{}",
            lines[2]
        );
        // Every line is a braces-wrapped object.
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn chrome_trace_pairs_parts_into_slices() {
        let tr = sample_trace();
        let json = chrome_trace(&tr, &MetricsRegistry::new());
        // Mandatory: 100 → 900 ns = ts 0.100 µs, dur 0.800 µs.
        assert!(json.contains("\"ts\":0.100,\"dur\":0.800"), "{json}");
        assert!(json.contains("mandatory τ1#0"), "{json}");
        assert!(json.contains("optional[0] Completed τ1#0"), "{json}");
        // Wind-up inherits the mandatory hw thread (tid 3).
        assert!(
            json.contains("wind-up τ1#0\",\"cat\":\"part\",\"ph\":\"X\",\"pid\":0,\"tid\":3"),
            "{json}"
        );
        // The release is an instant event.
        assert!(
            json.contains("\"name\":\"job_released\",\"cat\":\"event\",\"ph\":\"i\""),
            "{json}"
        );
    }

    #[test]
    fn chrome_trace_embeds_metric_summaries() {
        let mut m = MetricsRegistry::new();
        m.record_overhead(OverheadKind::BeginMandatory, Span::from_nanos(2_000));
        m.record_overhead(OverheadKind::BeginMandatory, Span::from_nanos(4_000));
        m.record_qos_level(1.0);
        let json = chrome_trace(&Trace::new(), &m);
        assert!(
            json.contains("\"Δm\":{\"count\":2,\"mean_ns\":3000,\"min_ns\":2000,\"max_ns\":4000"),
            "{json}"
        );
        assert!(
            json.contains("\"qos_level\":{\"count\":1,\"mean\":1,"),
            "{json}"
        );
        assert!(json.contains("\"response_time\":{\"count\":0"), "{json}");
    }

    #[test]
    fn exports_are_deterministic() {
        let tr = sample_trace();
        let m = MetricsRegistry::new();
        assert_eq!(jsonl(&tr), jsonl(&tr));
        assert_eq!(chrome_trace(&tr, &m), chrome_trace(&tr, &m));
    }

    fn escaped(s: &str) -> String {
        let mut out = Buf::new();
        escape_into(&mut out, s);
        finish(out)
    }

    #[test]
    fn string_escaping() {
        assert_eq!(escaped("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
        assert_eq!(escaped("\r\t"), "\\r\\t");
        for c in (0..0x20u8).filter(|c| !b"\n\r\t".contains(c)) {
            assert_eq!(escaped(&char::from(c).to_string()), format!("\\u{c:04x}"));
        }
        assert_eq!(escaped("plain τ₁ 日本"), "plain τ₁ 日本");
    }

    fn decimal(v: u64) -> String {
        let mut out = Buf::new();
        push_u64(&mut out, v);
        finish(out)
    }

    #[test]
    fn push_u64_at_every_digit_count() {
        for v in [0, 9, 10, 99, 100, u64::MAX] {
            assert_eq!(decimal(v), v.to_string());
        }
        for k in 1..20 {
            for v in [10u64.pow(k) - 1, 10u64.pow(k), 10u64.pow(k) + 1] {
                assert_eq!(decimal(v), v.to_string());
            }
        }
    }

    proptest! {
        #[test]
        fn push_u64_matches_to_string(v in any::<u64>(), shift in 0u32..64) {
            prop_assert_eq!(decimal(v >> shift), (v >> shift).to_string());
        }

        #[test]
        fn push_ts_matches_fmt(v in any::<u64>(), shift in 0u32..64) {
            let ns = v >> shift;
            let mut out = Buf::new();
            push_ts(&mut out, "", ns);
            let want = format!("{}.{:03}", ns / 1_000, ns % 1_000);
            prop_assert_eq!(finish(out), want);
        }

        /// The clean prefix is copied whole, the rest byte by byte: both
        /// must write what escaping each character on its own writes.
        #[test]
        fn escaping_a_string_is_escaping_its_characters(
            codes in prop::collection::vec(any::<u32>(), 0..24),
        ) {
            let s: String = codes
                .iter()
                .filter_map(|&c| match c % 4 {
                    0 => char::from_u32((c >> 2) % 0x80),
                    1 => Some(['"', '\\', '\n', '\u{1}'][(c >> 2) as usize % 4]),
                    _ => char::from_u32((c >> 2) % 0x11_0000),
                })
                .collect();
            let by_char: String = s.chars().map(|c| escaped(c.encode_utf8(&mut [0; 4]))).collect();
            prop_assert_eq!(escaped(&s), by_char);
        }
    }

    #[test]
    fn static_names_match_debug() {
        for outcome in [
            OptionalOutcome::Completed,
            OptionalOutcome::Terminated,
            OptionalOutcome::Discarded,
        ] {
            assert_eq!(outcome_name(outcome), format!("{outcome:?}"));
        }
        for target in [FaultTarget::Mandatory, FaultTarget::Windup] {
            assert_eq!(target_name(target), format!("{target:?}"));
        }
    }

    #[test]
    fn slice_names_spell_the_job_as_display_does() {
        let job = JobId {
            task: TaskId(41),
            seq: 1_234_567,
        };
        let mut tr = Trace::new();
        let hw = HwThreadId(0);
        tr.record(t(1), TraceEvent::MandatoryStarted { job, hw });
        tr.record(t(2), TraceEvent::MandatoryCompleted { job });
        tr.record(
            t(3),
            TraceEvent::OptionalStarted {
                job,
                part: PartId(5),
                hw,
            },
        );
        tr.record(
            t(4),
            TraceEvent::OptionalEnded {
                job,
                part: PartId(5),
                outcome: OptionalOutcome::Discarded,
                achieved: Span::ZERO,
            },
        );
        tr.record(t(5), TraceEvent::WindupStarted { job });
        tr.record(
            t(6),
            TraceEvent::WindupCompleted {
                job,
                deadline_met: false,
            },
        );
        let json = chrome_trace(&tr, &MetricsRegistry::new());
        for name in [
            format!("\"mandatory {job}\""),
            format!("\"optional[5] {:?} {job}\"", OptionalOutcome::Discarded),
            format!("\"wind-up {job}\""),
        ] {
            assert!(json.contains(&name), "{name} not in {json}");
        }
    }

    #[test]
    fn an_event_without_fields_closes_after_its_name() {
        let mut tr = Trace::new();
        tr.record(t(5), TraceEvent::DegradedModeEntered);
        tr.record(t(6), TraceEvent::DegradedModeExited);
        let text = jsonl(&tr);
        assert!(
            text.ends_with(
                "{\"t_ns\":5,\"ev\":\"degraded_entered\"}\n{\"t_ns\":6,\"ev\":\"degraded_exited\"}\n"
            ),
            "{text}"
        );
    }

    /// The slice table is keyed by task id, not indexed by it, and keeps
    /// the maps' semantics on sequences no engine produces.
    #[test]
    fn slice_pairing_on_a_hand_built_trace() {
        let far = JobId {
            task: TaskId(u32::MAX),
            seq: u64::MAX,
        };
        let mut tr = Trace::new();
        // Never ended: no slice, one table entry.
        tr.record(
            t(0),
            TraceEvent::MandatoryStarted {
                job: far,
                hw: HwThreadId(9),
            },
        );
        // An end without a start emits nothing.
        tr.record(t(1), TraceEvent::MandatoryCompleted { job: job(3) });
        // A wind-up whose mandatory start was never seen runs on thread 0.
        tr.record(t(2), TraceEvent::WindupStarted { job: job(3) });
        // Job 2's mandatory part arrives after job 3's events, started
        // twice: the second start wins, and its wind-up inherits thread 6.
        for (at, hw) in [(3, 5), (4, 6)] {
            tr.record(
                t(at),
                TraceEvent::MandatoryStarted {
                    job: job(2),
                    hw: HwThreadId(hw),
                },
            );
        }
        tr.record(t(5), TraceEvent::MandatoryCompleted { job: job(2) });
        tr.record(t(6), TraceEvent::WindupStarted { job: job(2) });
        for seq in [3, 2] {
            tr.record(
                t(7),
                TraceEvent::WindupCompleted {
                    job: job(seq),
                    deadline_met: true,
                },
            );
        }
        let json = chrome_trace(&tr, &MetricsRegistry::new());
        let slices: Vec<&str> = json.split("{\"name\":\"").skip(1).collect();
        assert_eq!(slices.len(), 3, "{json}");
        assert!(
            slices[0].starts_with("mandatory τ1#2")
                && slices[0].contains("\"tid\":6,\"ts\":0.004,\"dur\":0.001"),
            "{json}"
        );
        assert!(
            slices[1].starts_with("wind-up τ1#3")
                && slices[1].contains("\"tid\":0,\"ts\":0.002,\"dur\":0.005"),
            "{json}"
        );
        assert!(
            slices[2].starts_with("wind-up τ1#2")
                && slices[2].contains("\"tid\":6,\"ts\":0.006,\"dur\":0.001"),
            "{json}"
        );
    }
}
