//! CPU-time clocks. Unlike wall time they leave out time the hypervisor
//! steals from the machine's vCPUs, which on a shared host swings a
//! serve's wall time by a third.

#[repr(C)]
struct Timespec {
    // `time_t` and `long` are both 64-bit on 64-bit Linux.
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `Timespec` laid out as the C
    // `struct timespec`, and `clock_gettime` writes only through `tp`.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds used by every thread of the process, live or exited.
pub fn process_s() -> f64 {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds used by the calling thread.
pub fn thread_s() -> f64 {
    read(CLOCK_THREAD_CPUTIME_ID)
}
