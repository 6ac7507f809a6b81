//! Summary statistics and the process resource counters read from `/proc`.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by linear interpolation
/// between the closest ranks; 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Resource counters of this process at one moment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resources {
    /// Peak resident set (`VmHWM`) in KiB.
    pub peak_rss_kb: u64,
    pub threads: u64,
    pub open_fds: u64,
}

impl Resources {
    pub fn now() -> Self {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        let field = |name: &str| {
            status
                .lines()
                .find_map(|line| line.strip_prefix(name))
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        };
        Resources {
            peak_rss_kb: field("VmHWM:"),
            threads: field("Threads:"),
            open_fds: std::fs::read_dir("/proc/self/fd").map_or(0, |d| d.count() as u64),
        }
    }

    pub fn peak_rss_mb(&self) -> f64 {
        self.peak_rss_kb as f64 / 1024.0
    }
}

/// Pins glibc's allocator to one arena for the whole process.
///
/// By default every thread that allocates may get an arena of its own, and
/// how much freed memory each arena keeps resident depends on thread
/// timing: the same run reads tens of MB apart in `VmHWM`.  With one arena
/// `peak_rss_mb` tracks what the program holds.  The program's buffers are
/// recycled, so the shared arena's lock is rarely taken on the timed path.
/// Call before any thread starts.
pub fn use_one_malloc_arena() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_ARENA_MAX: i32 = -8;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        // SAFETY: `mallopt` takes two plain integers and has no
        // preconditions; M_ARENA_MAX is a documented glibc parameter.
        unsafe {
            mallopt(M_ARENA_MAX, 1);
        }
    }
}

/// Hands memory the allocator holds but no longer uses back to the OS.
///
/// The set-up tears down sessions, services and one-shot machines, whose
/// freed memory the allocator may keep resident.  Releasing it after each
/// teardown keeps `peak_rss_mb` a measure of what the program holds live.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes a plain size, has no
        // preconditions and may be called from any thread at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert!((quantile(&xs, 0.99) - 4.96).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(mean(&xs), 3.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn resource_counters_read_this_process() {
        let r = Resources::now();
        assert!(r.peak_rss_kb > 0);
        assert!(r.threads >= 1);
        assert!(r.open_fds >= 3);
    }
}
