//! Host-side readings of the benchmark's own process, from `/proc`.

use std::fs;

/// Process CPU time (`utime + stime`, all threads, dead ones included)
/// in clock ticks, from `/proc/self/stat`.
pub fn cpu_ticks() -> u64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; fields are counted
    // from the closing parenthesis: state is field 3, utime 14, stime 15.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut tick = || -> u64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("stat has utime and stime")
    };
    tick() + tick()
}

/// Peak resident set size (`VmHWM`) in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status has VmHWM");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_plausible() {
        let before = cpu_ticks();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_ticks() >= before);
        assert!(peak_rss_mb() > 0.5);
    }
}
