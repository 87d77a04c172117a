//! Thin, fallible wrappers over the POSIX scheduling interfaces the paper's
//! middleware is built on: `sched_setscheduler(SCHED_FIFO)`,
//! `sched_setaffinity`, `sched_getcpu` and the absolute
//! `clock_nanosleep(TIMER_ABSTIME)` release wait (paper §IV-C).
//!
//! All calls degrade gracefully: on `EPERM` (no RT privilege, the common
//! case in containers) or on non-Linux hosts the caller receives an error
//! to *record*, never a panic — RT-Seed then runs with the default policy,
//! which preserves the protocol semantics if not its latency bounds.
//!
//! These calls and the one time-stamp counter read in
//! [`crate::obs::clock`] are the workspace's only `unsafe`.

use std::io;
use std::time::Instant;

/// Sets the calling thread to `SCHED_FIFO` at `priority` (1–99).
///
/// # Errors
///
/// Returns the OS error on failure — typically `EPERM` without
/// `CAP_SYS_NICE`, or `EINVAL` for an out-of-range priority.
pub fn set_sched_fifo(priority: u8) -> io::Result<()> {
    let param = libc::sched_param {
        sched_priority: i32::from(priority),
    };
    // SAFETY: `param` is a valid, initialized sched_param; pid 0 means the
    // calling thread; SCHED_FIFO is a valid policy constant.
    let rc = unsafe { libc::sched_setscheduler(0, libc::SCHED_FIFO, &param) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Pins the calling thread to the given OS CPU.
///
/// # Errors
///
/// Returns the OS error on failure (`EINVAL` for a nonexistent CPU).
pub fn set_affinity(cpu: usize) -> io::Result<()> {
    // SAFETY: zeroed cpu_set_t is a valid empty set; CPU_SET writes within
    // its bounds because we check `cpu` against CPU_SETSIZE first.
    unsafe {
        let mut set: libc::cpu_set_t = std::mem::zeroed();
        if cpu >= libc::CPU_SETSIZE as usize {
            return Err(io::Error::from_raw_os_error(libc::EINVAL));
        }
        libc::CPU_SET(cpu, &mut set);
        let rc = libc::sched_setaffinity(0, std::mem::size_of::<libc::cpu_set_t>(), &set);
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }
}

/// The OS CPU the calling thread is currently executing on, if the kernel
/// exposes it.
pub fn current_cpu() -> Option<usize> {
    // SAFETY: sched_getcpu takes no arguments and returns -1 on error.
    let cpu = unsafe { libc::sched_getcpu() };
    usize::try_from(cpu).ok()
}

/// Sleeps until `target` with one absolute
/// `clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME)`, resumed when a signal
/// handler interrupts it. `Instant` reads `CLOCK_MONOTONIC` on Linux: the
/// clock is read once, after the time left to `target`, so the deadline
/// never falls before it. Returns at once for a target in the past.
///
/// # Errors
///
/// Returns the OS error if the clock cannot be read or the sleep fails for
/// anything but a signal; the target may not have been reached then.
pub fn sleep_until(target: Instant) -> io::Result<()> {
    let left = target.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Ok(());
    }
    let mut now = libc::timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a valid, writable timespec and CLOCK_MONOTONIC a
    // valid clock id.
    if unsafe { libc::clock_gettime(libc::CLOCK_MONOTONIC, &mut now) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let nanos = now.tv_nsec + i64::from(left.subsec_nanos());
    let secs = i64::try_from(left.as_secs()).unwrap_or(i64::MAX / 2);
    let deadline = libc::timespec {
        tv_sec: now
            .tv_sec
            .saturating_add(secs)
            .saturating_add(nanos / 1_000_000_000),
        tv_nsec: nanos % 1_000_000_000,
    };
    loop {
        // SAFETY: `deadline` is a valid timespec with `tv_nsec` below one
        // second; with TIMER_ABSTIME the remainder is unused and may be null.
        let rc = unsafe {
            libc::clock_nanosleep(
                libc::CLOCK_MONOTONIC,
                libc::TIMER_ABSTIME,
                &deadline,
                std::ptr::null_mut(),
            )
        };
        match rc {
            0 => return Ok(()),
            libc::EINTR => continue,
            err => return Err(io::Error::from_raw_os_error(err)),
        }
    }
}

/// Number of online OS CPUs (at least 1).
pub fn online_cpus() -> usize {
    // SAFETY: sysconf with a valid name constant.
    let n = unsafe { libc::sysconf(libc::_SC_NPROCESSORS_ONLN) };
    usize::try_from(n).unwrap_or(1).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_cpus_is_positive() {
        assert!(online_cpus() >= 1);
    }

    #[test]
    fn current_cpu_is_within_range() {
        if let Some(cpu) = current_cpu() {
            assert!(cpu < online_cpus() + 64, "implausible cpu id {cpu}");
        }
    }

    #[test]
    fn set_affinity_to_cpu0_usually_succeeds() {
        // CPU 0 exists on every machine; failure (e.g. restricted cpuset)
        // must still be a clean io::Error, not a crash.
        match set_affinity(0) {
            Ok(()) => {
                if let Some(cpu) = current_cpu() {
                    assert_eq!(cpu, 0);
                }
            }
            Err(e) => {
                assert!(e.raw_os_error().is_some(), "{e}");
            }
        }
    }

    #[test]
    fn set_affinity_rejects_absurd_cpu() {
        let err = set_affinity(1 << 20).unwrap_err();
        assert!(err.raw_os_error().is_some());
    }

    #[test]
    fn sched_fifo_fails_cleanly_without_privilege() {
        // Either we have the privilege (fine) or we get a clean EPERM.
        match set_sched_fifo(50) {
            Ok(()) => {
                // Restore a normal policy so the test runner is unaffected:
                // SCHED_OTHER with priority 0.
                // SAFETY: valid param, calling thread.
                let param = libc::sched_param { sched_priority: 0 };
                unsafe {
                    libc::sched_setscheduler(0, libc::SCHED_OTHER, &param);
                }
            }
            Err(e) => {
                assert_eq!(e.raw_os_error(), Some(libc::EPERM), "{e}");
            }
        }
    }

    #[test]
    fn sched_fifo_rejects_invalid_priority() {
        // 0 is not a valid SCHED_FIFO priority: EINVAL (or EPERM first,
        // depending on the kernel's check order).
        let err = set_sched_fifo(0).unwrap_err();
        assert!(
            matches!(err.raw_os_error(), Some(libc::EINVAL) | Some(libc::EPERM)),
            "{err}"
        );
    }
}
