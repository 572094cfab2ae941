//! Process CPU time and peak RSS, read from `/proc/self`.

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux
/// reports these in `USER_HZ`, which is 100 on every mainstream
/// architecture.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds consumed by this process so far, across
/// all of its threads (including threads that have exited).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) is parenthesized and may hold spaces;
    // fields after it are space separated, starting with field 3.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 (1-based), i.e. 11 and 12 here.
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / USER_HZ
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_positive_and_cpu_grows() {
        assert!(rss_peak_mb() > 0.0);
        let before = cpu_seconds();
        let mut x = 0u64;
        let started = std::time::Instant::now();
        while started.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds() > before, "{x}");
    }
}
