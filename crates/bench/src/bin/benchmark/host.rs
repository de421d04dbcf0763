//! What the benchmark reads from the host: process CPU time and peak memory
//! from `/proc`, and the metadata that heads every result document.

use std::fs;
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which is 100 on every
/// supported architecture.
const USER_HZ: f64 = 100.0;

/// CPU seconds (user + system, all threads) this process has used so far.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted from
    // the closing parenthesis: state is field 3, utime 14, stime 15.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after_comm.split_whitespace().skip(11);
    let mut tick = || -> f64 { fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0) };
    (tick() + tick()) / USER_HZ
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn rss_peak_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|line| {
            let (key, value) = line.split_once(':')?;
            (key.trim() == "model name").then(|| value.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `YYYY-MM-DDThh:mm:ssZ` for a Unix timestamp (days-to-civil after Howard
/// Hinnant's algorithm; the standard library has no calendar).
fn utc_string(unix: u64) -> String {
    let (days, secs) = (unix / 86_400, unix % 86_400);
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        secs / 3600,
        secs % 3600 / 60,
        secs % 60
    )
}

/// The header of a result document: the host, and the run's seed.
pub struct Header {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_commit: String,
    pub utc_time: String,
    pub seed: u64,
}

impl Header {
    /// Gathers the header. Spawns `rustc --version` and `git rev-parse HEAD`
    /// (both waited for); either reads `unknown` where it is unavailable.
    pub fn gather(seed: u64) -> Self {
        let unix = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        Header {
            nproc: nproc(),
            cpu_model: cpu_model(),
            rustc: first_line_of("rustc", &["--version"]),
            git_commit: first_line_of("git", &["rev-parse", "HEAD"]),
            utc_time: utc_string(unix),
            seed,
        }
    }
}
