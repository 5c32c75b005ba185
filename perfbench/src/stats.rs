//! Order statistics, process memory and the host-contention probe.

use std::hint::black_box;
use std::time::Instant;

/// The `q` quantile (0..=1) of `values` by linear interpolation between
/// the closest ranks. `values` must not be empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|line| line.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("VmHWM: {e}"))?;
    Ok(kib / 1024.0)
}

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// The heap policy [`pin_allocator`] sets, recorded with the results.
pub const ALLOCATOR_POLICY: &str = "glibc: trim_threshold 2 GiB, top_pad 64 MiB, mmap_threshold 32 MiB";

/// Pins glibc's heap policy for the run. By default glibc hands freed
/// heap memory back to the kernel and serves large blocks from fresh
/// mappings, so every op faulted its buffers in again: on the 2-vCPU
/// build host a fault-sim run spent 2.0 s of 10.9 s in the kernel, and
/// the cost of those faults moved with the neighbours' load. With the
/// heap kept, an op reuses the pages the previous op freed.
pub fn pin_allocator() -> Result<(), String> {
    // glibc's `M_TRIM_THRESHOLD`, `M_TOP_PAD` and `M_MMAP_THRESHOLD`.
    for (param, value) in [(-1, i32::MAX), (-2, 64 << 20), (-3, 32 << 20)] {
        // SAFETY: `mallopt` takes two integers and only changes the
        // allocator's tuning; no other thread is running yet.
        if unsafe { mallopt(param, value) } != 1 {
            return Err(format!("mallopt({param}, {value}) was refused"));
        }
    }
    Ok(())
}

/// Hands the heap's free memory back to the kernel and resets this
/// process's peak-RSS mark (`VmHWM`) to its current resident size, so
/// the next [`peak_rss_mb`] covers only what ran after this call.
pub fn reset_peak_rss() -> Result<(), String> {
    // SAFETY: `malloc_trim` takes a byte count and only releases free
    // heap pages; it is given no pointer.
    unsafe { malloc_trim(0) };
    // Writing 5 to the process's own `clear_refs` resets `VmHWM`.
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

/// Bytes the contention probe reads from: larger than this host
/// family's 300 MiB last-level cache, so every read can go to DRAM.
pub const PROBE_BYTES: usize = 320 << 20;
/// Random reads per probe.
pub const PROBE_READS: usize = 1 << 23;

/// Times a fixed random-read loop over a [`PROBE_BYTES`] buffer and
/// returns the milliseconds the reads took. The figure tracks how hard
/// neighbours are contending for the memory system; it is printed next
/// to the metrics, never folded into them.
pub fn contention_probe_ms() -> f64 {
    let words = PROBE_BYTES / 8;
    let buffer: Vec<u64> = (0..words as u64).collect();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut sum = 0u64;
    let start = Instant::now();
    for _ in 0..PROBE_READS {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        sum = sum.wrapping_add(buffer[(state >> 33) as usize % words]);
    }
    black_box(sum);
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&values), 2.5);
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 1.0), 4.0);
        assert!((quantile(&values, 0.9) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
