//! CPU time of the process: user plus system time of all its threads
//! (`CLOCK_PROCESS_CPUTIME_ID`). Unlike wall time it leaves out the time
//! the process waits for a CPU, which on a shared host is set by the
//! other tenants rather than by the program. The workloads run on one
//! thread, so an unloaded machine gives the same reading on both clocks.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads the CPU clock of 64-bit Linux");

/// CPU time the process has used so far, in ns.
#[allow(unsafe_code)]
pub fn now_ns() -> u64 {
    /// `struct timespec` of 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the whole
    // call, which writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "Linux always has the process CPU clock");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time of each unit of work a pass is made of (a harness run, a
/// Monte-Carlo point, a fleet batch, a figure), in order.
#[derive(Debug, Clone)]
pub struct Units {
    last: u64,
    times: Vec<f64>,
}

impl Units {
    /// Start timing the first unit now.
    pub fn start() -> Self {
        Units {
            last: now_ns(),
            times: Vec::new(),
        }
    }

    /// End the current unit and start the next.
    pub fn mark(&mut self) {
        let now = now_ns();
        self.times.push(now.saturating_sub(self.last) as f64 / 1e9);
        self.last = now;
    }

    /// CPU time of each unit ended so far, in seconds.
    pub fn times(&self) -> &[f64] {
        &self.times
    }
}
