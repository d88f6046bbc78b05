//! The two things the benchmark asks of the host, both to steady its
//! timings (`README.md`, "Noise floor"). Linux with glibc only; elsewhere
//! they do nothing.

/// Tells glibc malloc to keep freed memory instead of returning it to the
/// kernel, so that repetitions after the first do not fault their pages in
/// again. On the hosts this runs on a page fault goes to the hypervisor,
/// and that churn was half of the repetition-to-repetition noise.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn keep_freed_memory() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_TOP_PAD: i32 = -2;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` is glibc's own setter for these three tunables; it
    // takes two plain integers, rejects values it does not like by
    // returning 0, and is called before this process starts a thread.
    unsafe {
        // The largest threshold glibc accepts: blocks up to 32 MB come from
        // the heap, which is never trimmed and grows 64 MB at a time.
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
        mallopt(M_TOP_PAD, 64 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn keep_freed_memory() {}

/// Moves the calling thread from one of its CPUs to the next, repetition by
/// repetition. The virtual CPUs of these hosts slow down independently of
/// each other, for half a minute at a time and by up to 40 %; a thread left
/// alone stays on the CPU it started on, so a whole run can sit on the slow
/// one. Taking turns gives every call a sample from each CPU, and the
/// fastest sample is the one that counts.
#[derive(Debug)]
pub struct CpuTurns {
    /// The affinity mask found at the start, as `cpu_set_t` has it.
    original: CpuSet,
    /// The CPUs set in it.
    cpus: Vec<usize>,
}

/// glibc's `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

impl CpuTurns {
    /// Reads the calling thread's allowed CPUs; `None` where that cannot be
    /// done or there is only one, and then nothing is ever pinned.
    #[cfg(target_os = "linux")]
    pub fn detect() -> Option<CpuTurns> {
        let mut original: CpuSet = [0; 16];
        // SAFETY: pid 0 is the calling thread; the kernel writes at most
        // `size` bytes, the size of the array the pointer points into.
        let read =
            unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), original.as_mut_ptr()) };
        let cpus: Vec<usize> = (0..1024)
            .filter(|cpu| original[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect();
        (read == 0 && cpus.len() > 1).then_some(CpuTurns { original, cpus })
    }

    #[cfg(not(target_os = "linux"))]
    pub fn detect() -> Option<CpuTurns> {
        None
    }

    fn set(&self, mask: &CpuSet) {
        // SAFETY: pid 0 is the calling thread; the kernel reads `size`
        // bytes, the size of the array the pointer points into. A refusal
        // (the return value) leaves the thread where it was, which is only
        // a noisier measurement.
        #[cfg(target_os = "linux")]
        unsafe {
            sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_ptr());
        }
    }

    /// Pins the calling thread to the CPU whose turn it is.
    pub fn take(&self, turn: usize) {
        let cpu = self.cpus[turn % self.cpus.len()];
        let mut mask: CpuSet = [0; 16];
        mask[cpu / 64] = 1 << (cpu % 64);
        self.set(&mask);
    }

    /// Gives the calling thread all its CPUs back.
    pub fn release(&self) {
        self.set(&self.original);
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn turns_pin_to_one_cpu_and_release_restores_the_mask() {
        let Some(turns) = CpuTurns::detect() else {
            return; // one CPU: nothing to take turns on
        };
        for turn in 0..turns.cpus.len() {
            turns.take(turn);
            let now = CpuTurns::detect();
            // Pinned to one CPU, `detect` finds nothing to take turns on.
            assert!(now.is_none(), "turn {turn}: {now:?}");
        }
        turns.release();
        let after = CpuTurns::detect().expect("all CPUs are back");
        assert_eq!(after.cpus, turns.cpus);
    }
}
