//! Offline stand-in for the `libc` crate.
//!
//! Declares exactly the glibc scheduling and clock surface `rtseed-core`'s
//! `runtime/posix.rs` uses: `sched_setscheduler`, `sched_setaffinity`,
//! `sched_getcpu`, `sysconf`, `clock_gettime`, `clock_nanosleep`, plus the
//! associated types and constants. Layouts and constant values match glibc
//! on x86_64/aarch64 Linux (`sched_param` is one `int`; `cpu_set_t` is 1024
//! bits of `unsigned long`; `timespec` is two 64-bit words).

#![allow(non_camel_case_types)]

/// C `int`.
pub type c_int = i32;
/// C `long` (LP64).
pub type c_long = i64;
/// C `size_t`.
pub type size_t = usize;
/// POSIX process/thread id.
pub type pid_t = i32;
/// C `time_t` (64-bit).
pub type time_t = i64;
/// POSIX clock id.
pub type clockid_t = i32;

/// `SCHED_OTHER`: the default time-sharing policy.
pub const SCHED_OTHER: c_int = 0;
/// `SCHED_FIFO`: first-in-first-out real-time policy.
pub const SCHED_FIFO: c_int = 1;
/// Number of CPUs representable in a `cpu_set_t`.
pub const CPU_SETSIZE: c_int = 1024;
/// Operation not permitted.
pub const EPERM: c_int = 1;
/// Interrupted system call.
pub const EINTR: c_int = 4;
/// Invalid argument.
pub const EINVAL: c_int = 22;
/// `sysconf` name for the count of online processors (glibc value).
pub const _SC_NPROCESSORS_ONLN: c_int = 84;
/// The clock `std::time::Instant` reads on Linux: monotonic, not set.
pub const CLOCK_MONOTONIC: clockid_t = 1;
/// `clock_nanosleep` flag: the request is an absolute time on the clock.
pub const TIMER_ABSTIME: c_int = 1;

/// A time as seconds and nanoseconds.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct timespec {
    /// Whole seconds.
    pub tv_sec: time_t,
    /// Nanoseconds, below one second.
    pub tv_nsec: c_long,
}

/// Scheduling parameters for `sched_setscheduler`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct sched_param {
    /// Static priority (1–99 for the real-time policies).
    pub sched_priority: c_int,
}

/// CPU affinity mask: `CPU_SETSIZE` bits packed into `unsigned long`s,
/// matching glibc's layout on 64-bit targets.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct cpu_set_t {
    bits: [u64; CPU_SETSIZE as usize / 64],
}

/// Adds `cpu` to the affinity mask `set` (the `CPU_SET` macro).
///
/// # Safety
///
/// Matches the upstream `libc` signature (declared `unsafe` there because
/// it mirrors a C macro); `cpu` must be below [`CPU_SETSIZE`].
#[allow(non_snake_case, clippy::missing_safety_doc)]
pub unsafe fn CPU_SET(cpu: usize, set: &mut cpu_set_t) {
    let (word, bit) = (cpu / 64, cpu % 64);
    if word < set.bits.len() {
        set.bits[word] |= 1u64 << bit;
    }
}

extern "C" {
    /// Sets the scheduling policy and parameters of `pid` (0 = caller).
    pub fn sched_setscheduler(pid: pid_t, policy: c_int, param: *const sched_param) -> c_int;
    /// Sets the CPU affinity mask of `pid` (0 = caller).
    pub fn sched_setaffinity(pid: pid_t, cpusetsize: size_t, cpuset: *const cpu_set_t) -> c_int;
    /// CPU number the caller is currently running on, or -1.
    pub fn sched_getcpu() -> c_int;
    /// POSIX runtime configuration query.
    pub fn sysconf(name: c_int) -> c_long;
    /// Reads `clockid` into `tp`; 0, or -1 with `errno` set.
    pub fn clock_gettime(clockid: clockid_t, tp: *mut timespec) -> c_int;
    /// Sleeps on `clockid` until `request` (with [`TIMER_ABSTIME`]) or for
    /// it; returns 0 or the error number itself, [`EINTR`] when a signal
    /// handler interrupted the sleep.
    pub fn clock_nanosleep(
        clockid: clockid_t,
        flags: c_int,
        request: *const timespec,
        remain: *mut timespec,
    ) -> c_int;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysconf_reports_cpus() {
        let n = unsafe { sysconf(_SC_NPROCESSORS_ONLN) };
        assert!(n >= 1, "{n}");
    }

    #[test]
    fn cpu_set_sets_the_right_bit() {
        let mut set = unsafe { std::mem::zeroed::<cpu_set_t>() };
        unsafe { CPU_SET(65, &mut set) };
        assert_eq!(set.bits[1], 2);
        assert_eq!(set.bits[0], 0);
    }

    #[test]
    fn an_absolute_sleep_to_the_past_returns_at_once() {
        let mut now = timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        assert_eq!(unsafe { clock_gettime(CLOCK_MONOTONIC, &mut now) }, 0);
        assert!(now.tv_sec > 0 || now.tv_nsec > 0);
        let rc =
            unsafe { clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &now, std::ptr::null_mut()) };
        assert_eq!(rc, 0);
    }

    #[test]
    fn getcpu_is_sane() {
        let cpu = unsafe { sched_getcpu() };
        assert!(cpu >= -1);
    }
}
