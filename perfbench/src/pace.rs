//! Host-speed correction for the end-to-end times.
//!
//! On a shared host the same code runs up to about 1.7× slower for seconds
//! at a time while other tenants load the machine; a run of 25 seconds can
//! sit wholly in a slow or a fast stretch, so raw medians of identical runs
//! differ by more than a regression worth catching. The benchmark
//! therefore times a fixed reference kernel (allocation, formatting and
//! sorting of short strings) before and after every unit of work, and
//! scales the unit's time by the kernel's speed at that moment: a unit's
//! corrected time is its raw time × [`REF_KERNEL_S`] ÷ the mean of the two
//! kernel times around it. The kernel is the benchmark's own code, so a
//! change to the simulator moves the corrected time exactly as it moves
//! the raw one.
//!
//! The correction follows the host only as closely as the units are short
//! next to its slow and fast stretches (seconds), so workloads lap between
//! their natural units: a `cache_warm` pass, each `protocol_check` call,
//! each `serve_hot` pool entry, each `paper_sweep` `JobSet` batch. On a
//! loaded 2-vCPU VM, ten 25-second runs each, the run-to-run spread
//! (interquartile range ÷ median) of the median pass went from 4.7% raw to
//! 1.6% corrected on `cache_warm`, 11% to 4.2% on `protocol_check` and 6.2%
//! to 4.3% on `serve_hot`, but only from 9.4% to 9.0% on `paper_sweep`,
//! whose 32-node runs are units of one to two seconds.

use std::time::Instant;

use crate::secs;

/// The kernel's time on the reference host (a 2-vCPU x86-64 VM, unloaded):
/// corrected times are seconds as that host would take them.
pub const REF_KERNEL_S: f64 = 0.000_58;

/// The reference kernel: build, sort and measure 3000 short strings from
/// a fixed xorshift stream.
pub fn kernel() -> usize {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut v: Vec<String> = (0..3000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            format!("{x:x}-{}", x % 977)
        })
        .collect();
    v.sort_unstable();
    v.iter().map(String::len).sum()
}

/// One timed run of the kernel.
fn probe() -> f64 {
    let t = Instant::now();
    std::hint::black_box(kernel());
    secs(t)
}

/// Corrected and raw time over units of work, each closed by
/// [`Pacer::lap`].
pub struct Pacer {
    probe_s: f64,
    start: Instant,
    corrected: f64,
    raw: f64,
}

impl Pacer {
    /// Probe the host and start the first unit.
    pub fn new() -> Pacer {
        Pacer {
            probe_s: probe(),
            start: Instant::now(),
            corrected: 0.0,
            raw: 0.0,
        }
    }

    /// End the current unit: probe the host, add the unit's corrected and
    /// raw time, and start the next unit.
    pub fn lap(&mut self) {
        let unit = secs(self.start);
        let after = probe();
        self.corrected += unit * REF_KERNEL_S / ((self.probe_s + after) / 2.0);
        self.raw += unit;
        self.probe_s = after;
        self.start = Instant::now();
    }

    /// Restart the clock after untimed work, without a probe: the last one
    /// stands for the host's speed.
    pub fn resume(&mut self) {
        self.start = Instant::now();
    }

    /// The (corrected, raw) seconds lapped since the last call.
    pub fn take(&mut self) -> (f64, f64) {
        let out = (self.corrected, self.raw);
        self.corrected = 0.0;
        self.raw = 0.0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_fixed_work() {
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn laps_add_up_and_take_resets() {
        let mut p = Pacer::new();
        std::thread::sleep(std::time::Duration::from_millis(2));
        p.lap();
        std::thread::sleep(std::time::Duration::from_millis(2));
        p.lap();
        let (corrected, raw) = p.take();
        assert!(raw >= 0.004, "raw {raw}");
        assert!(corrected > 0.0);
        assert_eq!(p.take(), (0.0, 0.0));
    }
}
