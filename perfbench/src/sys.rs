//! Process measurements and the machine description, read from Linux's
//! `/proc`.

use std::time::Duration;

/// Linux reports process CPU time in ticks of `USER_HZ`, which is 100 on
/// every mainstream architecture.
const TICKS_PER_SECOND: u64 = 100;

/// User plus system CPU time of this process: every thread, live or
/// exited, included.
#[must_use]
pub fn cpu_time() -> Option<Duration> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name is parenthesised and may hold spaces; after it,
    // field 0 is the state, 11 is utime and 12 is stime.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(Duration::from_millis(
        (utime + stime) * 1000 / TICKS_PER_SECOND,
    ))
}

/// Peak resident set size of this process, in MB (10⁶ bytes).
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib * 1024.0 / 1e6)
}

/// The machine and build every result was measured on.
#[derive(Debug, Clone)]
pub struct Machine {
    /// `std::thread::available_parallelism`.
    pub parallelism: usize,
    /// The CPU model name from `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// The cargo build profile.
    pub profile: &'static str,
}

impl Machine {
    /// Describes this machine and build.
    #[must_use]
    pub fn detect() -> Machine {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, name)| name.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        Machine {
            parallelism: std::thread::available_parallelism().map_or(1, usize::from),
            cpu,
            rustc: env!("PERFBENCH_RUSTC"),
            profile: env!("PERFBENCH_PROFILE"),
        }
    }
}

impl std::fmt::Display for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "available_parallelism={} cpu=\"{}\" rustc=\"{}\" profile={}",
            self.parallelism, self.cpu, self.rustc, self.profile
        )
    }
}
