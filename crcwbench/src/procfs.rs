//! Process counters read from Linux `/proc/self`.

use std::fs;

/// Minor page faults this process has taken so far, all threads included.
pub fn minor_faults() -> u64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable on Linux");
    parse_minflt(&stat).expect("/proc/self/stat has a minflt field")
}

/// Field 10 (`minflt`) of a `/proc/<pid>/stat` line.
///
/// Field 2 (`comm`) is the executable name in parentheses and may itself
/// contain spaces and `)`, so fields are counted from the *last* `)`.
pub fn parse_minflt(stat: &str) -> Result<u64, String> {
    let close = stat.rfind(')').ok_or("no `)` closing the comm field")?;
    // After comm: state(3) ppid(4) pgrp(5) session(6) tty_nr(7) tpgid(8)
    // flags(9) minflt(10).
    let field = stat[close + 1..]
        .split_whitespace()
        .nth(7)
        .ok_or("stat line ends before minflt")?;
    field
        .parse()
        .map_err(|e| format!("minflt {field:?} is not a count: {e}"))
}

/// Peak resident set size (`VmHWM`) of this process, in KiB.
pub fn peak_rss_kib() -> u64 {
    let status =
        fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable on Linux");
    parse_vmhwm_kib(&status).expect("/proc/self/status has a VmHWM line")
}

/// The `VmHWM:` value of a `/proc/<pid>/status` file, in KiB.
pub fn parse_vmhwm_kib(status: &str) -> Result<u64, String> {
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .ok_or("no VmHWM line")?;
    let kib = line.trim().trim_end_matches("kB").trim();
    kib.parse()
        .map_err(|e| format!("VmHWM {kib:?} is not a size: {e}"))
}

/// Time the hypervisor ran something else while this machine's CPUs
/// wanted to run ("steal"), summed over CPUs, in seconds.
pub fn steal_secs() -> f64 {
    let stat = fs::read_to_string("/proc/stat").expect("/proc/stat is readable on Linux");
    parse_steal_ticks(&stat).expect("/proc/stat has a cpu line") as f64 / USER_HZ
}

/// Clock ticks per second of `/proc/stat` (`USER_HZ`, 100 on Linux).
const USER_HZ: f64 = 100.0;

/// The steal column (the 8th value) of the aggregate `cpu` line of
/// `/proc/stat`, in clock ticks; 0 on kernels that do not report it.
pub fn parse_steal_ticks(stat: &str) -> Result<u64, String> {
    let line = stat
        .lines()
        .find_map(|l| l.strip_prefix("cpu "))
        .ok_or("no aggregate cpu line")?;
    match line.split_whitespace().nth(7) {
        None => Ok(0),
        Some(f) => f
            .parse()
            .map_err(|e| format!("steal {f:?} is not a count: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TAIL: &str = "S 1 2 3 0 -1 4194560 4242 0 7 0 12 3 0 0 20 0 3 0 100 0 0";

    #[test]
    fn minflt_of_a_plain_comm() {
        assert_eq!(parse_minflt(&format!("123 (crcwbench) {TAIL}")), Ok(4242));
    }

    #[test]
    fn minflt_of_a_comm_with_spaces_and_parens() {
        for comm in ["(my bench)", "(a) b)", "()) ) (x)", "(  )"] {
            let line = format!("123 {comm} {TAIL}");
            assert_eq!(parse_minflt(&line), Ok(4242), "{line}");
        }
    }

    #[test]
    fn minflt_rejects_a_truncated_line() {
        assert!(parse_minflt("123 (x) S 1 2").is_err());
        assert!(parse_minflt("no parens").is_err());
    }

    #[test]
    fn minflt_of_this_process_is_readable() {
        assert!(minor_faults() > 0);
    }

    #[test]
    fn steal_is_the_eighth_value_of_the_cpu_line() {
        let stat = "cpu  78071 0 6830 427241 1365 0 261 5469 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal_ticks(stat), Ok(5469));
        assert_eq!(parse_steal_ticks("cpu  1 2 3 4\n"), Ok(0));
        assert!(parse_steal_ticks("intr 5\n").is_err());
        assert!(steal_secs() >= 0.0);
    }

    #[test]
    fn vmhwm_is_parsed_in_kib() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_vmhwm_kib(status), Ok(5120));
        assert!(parse_vmhwm_kib("Name:\tx\n").is_err());
        assert!(peak_rss_kib() > 0);
    }
}
