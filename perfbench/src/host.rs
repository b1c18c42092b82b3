//! Host counters from `/proc` and the host fingerprint printed with
//! every result. Results are only comparable between runs with the same
//! fingerprint.

use std::process::{Command, Stdio};

/// Process CPU time (user + system, every thread including exited ones)
/// in ms, from `/proc/self/stat`. Resolution is one clock tick (10 ms at
/// the usual `CLK_TCK` of 100).
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields restart after its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line: indices 11
    // and 12 counting from the state field that follows the ')'.
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) * 10.0
}

/// Resets the kernel's peak-RSS mark (`VmHWM`) so the next
/// [`peak_rss_kib`] covers only what ran since. Returns whether the reset
/// was accepted.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set (`VmHWM`) in KiB, if `/proc` reports it.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One line naming the host: CPU model, cores, compiler and commit.
pub fn fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string());
    let commit = command_line("git", &["rev-parse", "HEAD"])
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    format!(
        "host: cpu=\"{}\" nproc={} rustc=\"{}\" commit={}",
        cpu,
        nproc(),
        rustc,
        commit
    )
}

/// First line of a command's stdout; `None` if it cannot run or fails.
/// `output` waits for the child to exit. Git is kept from searching
/// above the working directory for a repository.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let out = Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout)
        .ok()?
        .lines()
        .next()
        .map(str::to_string)
}
