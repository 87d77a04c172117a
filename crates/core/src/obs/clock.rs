//! The clock a hot path stamps its records with: one cheap reading a
//! record, converted to nanoseconds only when the records are read.
//!
//! [`ticks`] is a raw counter reading. Where the processor's time-stamp
//! counter is invariant (CPUID leaf `0x8000_0007`, EDX bit 8: it runs at
//! one rate through frequency and sleep states) and, on Linux, the kernel
//! keeps its own time with it (`current_clocksource` is `tsc`, which the
//! kernel only keeps while the counters of all CPUs agree), a reading is
//! one `RDTSC`. Everywhere else it is the nanoseconds an [`Instant`] has
//! advanced since the first reading of the process. Which of the two is
//! decided once, on the first [`Mark`] or reading, and nothing can set it.
//!
//! Readings mean nothing on their own. A [`Scale`] maps them onto
//! nanoseconds since an epoch by the line through two [`Mark`]s, each an
//! `Instant` and a reading taken together: a reading between the two marks
//! is placed within the marks' own error (a few nanoseconds) of where an
//! `Instant` taken with it would have put it, however far apart the marks
//! are.
//!
//! The one `unsafe` block outside [`crate::runtime::posix`] is the
//! `RDTSC` here.

use std::sync::OnceLock;
use std::time::Instant;

/// Where readings come from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Source {
    /// The invariant time-stamp counter.
    Tsc,
    /// Nanoseconds of [`Instant`] since the process's first reading.
    Monotonic,
}

static SOURCE: OnceLock<Source> = OnceLock::new();
static BASE: OnceLock<Instant> = OnceLock::new();

fn source() -> Source {
    *SOURCE.get_or_init(|| {
        if invariant_tsc() && kernel_keeps_time_by_tsc() {
            Source::Tsc
        } else {
            Source::Monotonic
        }
    })
}

#[cfg(target_arch = "x86_64")]
fn invariant_tsc() -> bool {
    use std::arch::x86_64::__cpuid;
    __cpuid(0x8000_0000).eax >= 0x8000_0007 && __cpuid(0x8000_0007).edx & (1 << 8) != 0
}

#[cfg(not(target_arch = "x86_64"))]
fn invariant_tsc() -> bool {
    false
}

/// Read into a stack buffer: the first mark may be taken where a caller
/// counts allocations, as `perfbench`'s trading phase does.
#[cfg(target_os = "linux")]
fn kernel_keeps_time_by_tsc() -> bool {
    use std::io::Read;
    let path = "/sys/devices/system/clocksource/clocksource0/current_clocksource";
    let mut name = [0; 16];
    let read = std::fs::File::open(path).and_then(|mut file| file.read(&mut name));
    read.is_ok_and(|n| name[..n].trim_ascii() == b"tsc")
}

#[cfg(not(target_os = "linux"))]
fn kernel_keeps_time_by_tsc() -> bool {
    true
}

fn read(source: Source) -> u64 {
    match source {
        Source::Tsc => tsc(),
        Source::Monotonic => monotonic(),
    }
}

/// Out of line, so that where a stage inlines [`ticks`] it inlines one
/// flag test and the counter read, not the fallback's arithmetic.
#[cold]
#[inline(never)]
fn monotonic() -> u64 {
    let base = BASE.get_or_init(Instant::now);
    u64::try_from(base.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(target_arch = "x86_64")]
fn tsc() -> u64 {
    // SAFETY: RDTSC reads a counter and touches no memory. Every x86-64
    // processor has it, and `source` picks it only where CPUID says the
    // counter is invariant.
    unsafe { std::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
fn tsc() -> u64 {
    unreachable!("no time-stamp counter off x86-64")
}

/// The clock's current reading: a counter that only a [`Scale`] turns into
/// time. Readings on one thread never decrease.
#[inline]
pub fn ticks() -> u64 {
    read(source())
}

/// An [`Instant`] and a reading of [`ticks`], taken together.
#[derive(Clone, Copy, Debug)]
pub struct Mark {
    instant: Instant,
    ticks: u64,
}

impl Mark {
    /// Takes a mark now: an `Instant` read between two readings, paired
    /// with their midpoint. Of a few tries the one whose readings lie
    /// closest together is kept, so a thread preempted in the middle of
    /// one does not skew the mark.
    pub fn now() -> Mark {
        Mark::with(source())
    }

    fn with(source: Source) -> Mark {
        let take = || {
            let before = read(source);
            let instant = Instant::now();
            let gap = read(source).saturating_sub(before);
            (
                gap,
                Mark {
                    instant,
                    ticks: before + gap / 2,
                },
            )
        };
        let mut best = take();
        for _ in 1..3 {
            let next = take();
            if next.0 < best.0 {
                best = next;
            }
        }
        best.1
    }

    /// The mark's `Instant`.
    pub fn instant(&self) -> Instant {
        self.instant
    }
}

/// Converts readings to nanoseconds since an epoch, by the line through
/// two marks.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// The first mark's reading.
    from: u64,
    /// Nanoseconds from the epoch to the first mark.
    origin: f64,
    /// Nanoseconds a tick.
    rate: f64,
}

impl Scale {
    /// The scale through `from` and `to`, counting from `epoch`. Two marks
    /// with no tick between them give every reading `from`'s time.
    pub fn new(epoch: Instant, from: Mark, to: Mark) -> Scale {
        let span = to
            .instant
            .saturating_duration_since(from.instant)
            .as_nanos() as f64;
        let ticks = to.ticks.saturating_sub(from.ticks);
        Scale {
            from: from.ticks,
            origin: signed_nanos(epoch, from.instant),
            rate: if ticks == 0 { 0.0 } else { span / ticks as f64 },
        }
    }

    /// Nanoseconds since the epoch of `ticks`, never decreasing in it;
    /// zero for a reading before the epoch.
    pub fn nanos(&self, ticks: u64) -> u64 {
        let since = ticks as f64 - self.from as f64;
        // The cast saturates: below zero is zero.
        (self.origin + since * self.rate) as u64
    }
}

/// `at − epoch` in nanoseconds, negative when `at` is earlier.
fn signed_nanos(epoch: Instant, at: Instant) -> f64 {
    match at.checked_duration_since(epoch) {
        Some(after) => after.as_nanos() as f64,
        None => -(epoch.duration_since(at).as_nanos() as f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Both sources this host can read: the fallback everywhere, the
    /// counter where `source` would pick it.
    fn sources() -> Vec<Source> {
        let mut sources = vec![Source::Monotonic];
        if source() == Source::Tsc {
            sources.push(Source::Tsc);
        }
        sources
    }

    #[test]
    fn every_source_reads_non_decreasing_on_one_thread() {
        for source in sources() {
            let mut last = read(source);
            for _ in 0..100_000 {
                let now = read(source);
                assert!(now >= last, "{source:?}: {now} after {last}");
                last = now;
            }
        }
    }

    #[test]
    fn a_scale_gives_back_its_own_marks() {
        for source in sources() {
            let epoch = Instant::now();
            let from = Mark::with(source);
            std::thread::sleep(Duration::from_millis(2));
            let to = Mark::with(source);
            let scale = Scale::new(epoch, from, to);
            for mark in [from, to] {
                let want = mark.instant.duration_since(epoch).as_nanos() as f64;
                let got = scale.nanos(mark.ticks) as f64;
                assert!((got - want).abs() < 1_000.0, "{source:?}: {got} for {want}");
            }
        }
    }

    #[test]
    fn a_reading_between_two_marks_lands_between_them() {
        for source in sources() {
            let epoch = Instant::now();
            let from = Mark::with(source);
            let before = Instant::now();
            let reading = read(source);
            let after = Instant::now();
            let to = Mark::with(source);
            let at = Scale::new(epoch, from, to).nanos(reading);
            let bound = |i: Instant| i.duration_since(epoch).as_nanos() as u64;
            // The marks' own error, a few nanoseconds, either way.
            assert!(at + 1_000 >= bound(before), "{source:?}");
            assert!(at <= bound(after) + 1_000, "{source:?}");
        }
    }

    #[test]
    fn two_marks_with_no_tick_between_them_divide_by_nothing() {
        let epoch = Instant::now();
        let mark = Mark::now();
        let scale = Scale::new(epoch, mark, mark);
        let origin = mark.instant.duration_since(epoch).as_nanos() as u64;
        for ticks in [0, mark.ticks, mark.ticks + 1_000, u64::MAX] {
            assert_eq!(scale.nanos(ticks), origin);
        }
    }

    #[test]
    fn a_scale_never_decreases_and_clamps_at_the_epoch() {
        let from = Mark::now();
        std::thread::sleep(Duration::from_millis(1));
        let to = Mark::now();
        // An epoch after the first mark puts early readings before it.
        let scale = Scale::new(to.instant, from, to);
        assert_eq!(scale.nanos(0), 0);
        assert_eq!(scale.nanos(from.ticks), 0);
        let mut last = 0;
        for ticks in (from.ticks..=to.ticks + (1 << 20)).step_by(997) {
            let at = scale.nanos(ticks);
            assert!(at >= last);
            last = at;
        }
    }
}
