//! Peak-RSS measurement for the memory-bounded benchmarks.
//!
//! Linux exposes a process's resident-set high-water mark as `VmHWM` in
//! `/proc/self/status` — the kernel's own accounting, covering every
//! allocation path (heap, mmap, spill buffers) with no instrumentation.
//! Two caveats shape how the benchmarks use it:
//!
//! * **Monotone per process.** `VmHWM` never decreases, so a value read
//!   after row 7 includes whatever row 3 peaked at. Benchmarks that
//!   compare rows against each other (`shard_bench`) therefore run *one
//!   row per subprocess* and read the child's peak; benchmarks that just
//!   annotate a run (`pipeline_bench`, `churn_bench`) report the
//!   process-wide high water at row completion, documented as such.
//! * **Linux-only.** On other platforms [`peak_rss_mb`] returns `None`
//!   and the JSON field is omitted rather than fabricated.

use std::fs;

fn self_status() -> Option<String> {
    fs::read_to_string("/proc/self/status").ok()
}

/// The `key` field (a `kB` figure) of a `/proc/<pid>/status` text, in
/// mebibytes. The kernel prints every field of one text from one sample,
/// so two fields read from the same text are consistent with each other.
fn status_field_mb(status: &str, key: &str) -> Option<f64> {
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(key) {
            let rest = rest.trim_start_matches(':').trim();
            let kb: u64 = rest.strip_suffix(" kB")?.trim().parse().ok()?;
            return Some(kb as f64 / 1024.0);
        }
    }
    None
}

/// The process's peak resident set size (`VmHWM`) in mebibytes, or
/// `None` where `/proc/self/status` is unavailable. Monotone over the
/// process lifetime — see the module docs before comparing values.
pub fn peak_rss_mb() -> Option<f64> {
    status_field_mb(&self_status()?, "VmHWM")
}

/// The process's current resident set size (`VmRSS`) in mebibytes, or
/// `None` where `/proc/self/status` is unavailable.
pub fn current_rss_mb() -> Option<f64> {
    status_field_mb(&self_status()?, "VmRSS")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(not(target_os = "linux"), ignore)]
    fn peak_rss_is_positive_and_at_least_current() {
        // Both fields from one read: a sibling test thread may grow the
        // heap between two reads, and then the later current reading
        // could exceed the earlier peak.
        let status = self_status().expect("Linux exposes /proc/self/status");
        let peak = status_field_mb(&status, "VmHWM").expect("Linux exposes VmHWM");
        let current = status_field_mb(&status, "VmRSS").expect("Linux exposes VmRSS");
        assert!(peak > 0.0);
        assert!(peak + 1e-9 >= current, "peak {peak} < current {current}");
    }

    #[test]
    #[cfg_attr(not(target_os = "linux"), ignore)]
    fn peak_rss_tracks_a_large_allocation() {
        // VmHWM is process-wide, so a sibling test may already have pushed
        // the peak past anything this allocation adds; assert against the
        // *current* RSS measured while the buffer is resident instead.
        // Touch 64 MiB so the pages actually become resident.
        let v: Vec<u8> = (0..64 * 1024 * 1024).map(|i| i as u8).collect();
        std::hint::black_box(&v);
        let status = self_status().expect("Linux exposes /proc/self/status");
        let current_with = status_field_mb(&status, "VmRSS").expect("VmRSS");
        let peak_with = status_field_mb(&status, "VmHWM").expect("VmHWM");
        drop(v);
        assert!(
            current_with >= 64.0,
            "64 MiB resident buffer missing from VmRSS: {current_with} MB"
        );
        assert!(peak_with + 1e-9 >= current_with);
        // Near-monotone: freeing does not lower the high water, modulo a
        // sub-MB accounting wobble some kernels show on unmap.
        assert!(peak_rss_mb().expect("VmHWM") >= peak_with - 1.0);
    }
}
