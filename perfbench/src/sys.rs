//! Process and host facts, and the benchmark's seeded generator.

/// Peak resident memory of this process so far, in MiB: the `VmHWM` line
/// of `/proc/self/status`. (`getrusage`'s `ru_maxrss` would not do: it
/// keeps the high-water mark of the address space replaced at `exec`, so a
/// process started by a large parent, `cargo run` for one, reads at least
/// the parent's size at the fork.)
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .expect("a VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Worker threads the host offers (`available_parallelism`, at least 1).
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// SplitMix64: a small seeded generator, so the inputs a seed makes do not
/// depend on any other crate's random-number implementation.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`, salted by `stream` so that independent
    /// choices made from one seed do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> SplitMix64 {
        let mut g = SplitMix64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        g.next_u64();
        g
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// The `model name` line of `/proc/cpuinfo`, or `unknown`. Read only when
/// a result is recorded, never during a plain run.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `git rev-parse HEAD` in the working directory, or `unknown` when the
/// checkout is not a git repository.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The compiler that built this binary (captured by `build.rs`).
pub fn rustc_version() -> &'static str {
    env!("PERFBENCH_RUSTC_VERSION")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_repeats_per_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut g = SplitMix64::new(5, 1);
                move |_| g.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut g = SplitMix64::new(5, 1);
                move |_| g.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..4)
            .map({
                let mut g = SplitMix64::new(5, 2);
                move |_| g.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib() > 0.0);
    }
}
