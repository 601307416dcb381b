//! The host the benchmark ran on, and its peak memory.

use crate::Outcome;

/// What a result must record about the host: the core count, the thread
/// and worker counts actually used and the build profile. The library
/// crates are built with their default features, so the `parallel`
/// feature is always on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// Threads the parallel kernels use.
    pub threads: usize,
    /// Daemon workers in the serve workload.
    pub workers: usize,
    /// `release` or `debug`.
    pub profile: &'static str,
}

impl Host {
    /// Reads the host. Thread and worker counts never exceed the cores.
    pub fn detect() -> Host {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        Host {
            cores,
            threads: ccq_tensor::par::num_threads().min(cores),
            workers: cores.min(2),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }

    /// Adds the host line to a report.
    pub fn describe(&self, out: &mut Outcome) {
        out.line(format!(
            "host: available_parallelism={} threads={} workers={} parallel_feature=on profile={}",
            self.cores, self.threads, self.workers, self.profile
        ));
    }
}

/// Kernel threads every workload runs with. The pool spawns its threads
/// per parallel call, and on a 2-core shared host two kernel threads
/// made a descent both slower (1.65–2.09 s against 1.30–1.40 s per
/// descent) and far less repeatable than one, so the end-to-end runs
/// keep the kernels serial and `tensor.par_dispatch_us` measures the
/// pool on its own. Concurrency in `serve-drain` comes from the
/// daemon's workers.
pub const KERNEL_THREADS: usize = 1;

/// Pins the kernels' thread count. Call before any thread starts: the
/// pool reads `RAYON_NUM_THREADS` on every parallel call.
pub fn pin_threads() {
    std::env::set_var("RAYON_NUM_THREADS", KERNEL_THREADS.to_string());
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
