//! Process-wide host meters: CPU seconds over all threads and the
//! resident-set high-water mark, both from `getrusage(RUSAGE_SELF)`.

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen `long`
/// fields of which the first is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage() -> Rusage {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable value laid out exactly as the
    // C `struct rusage` of 64-bit Linux (checked by the compile-time
    // size assertion below), and getrusage writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    usage
}

const _: () = assert!(std::mem::size_of::<Rusage>() == 144);

/// User plus system CPU seconds consumed so far by every thread of this
/// process, finished threads included.
pub fn cpu_seconds() -> f64 {
    let u = rusage();
    let secs = |t: Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(u.utime) + secs(u.stime)
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    rusage().maxrss as f64 / 1024.0
}
