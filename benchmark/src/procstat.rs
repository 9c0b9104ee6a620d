//! `/proc` accounting: per-thread CPU, bytes written, peak RSS.

use std::path::PathBuf;

/// CPU clock of one thread of this process.
pub struct ThreadCpu {
    /// Kernel thread id; 0 stands for the calling thread.
    pub tid: i32,
    schedstat: PathBuf,
    stat: PathBuf,
}

impl ThreadCpu {
    /// The thread whose `comm` is `name` (the runtime names each worker
    /// thread after its node). `None` if no such thread is alive.
    pub fn by_name(name: &str) -> Option<Self> {
        let tasks = std::fs::read_dir("/proc/self/task").ok()?;
        for task in tasks.flatten() {
            let dir = task.path();
            let comm = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
            if comm.trim_end() == name {
                let tid = task.file_name().to_str()?.parse().ok()?;
                return Some(Self::at(tid, dir));
            }
        }
        None
    }

    /// The calling thread.
    pub fn current() -> Self {
        Self::at(0, PathBuf::from("/proc/thread-self"))
    }

    fn at(tid: i32, dir: PathBuf) -> Self {
        ThreadCpu {
            tid,
            schedstat: dir.join("schedstat"),
            stat: dir.join("stat"),
        }
    }

    /// CPU time consumed so far, in nanoseconds: `schedstat`'s run time,
    /// falling back to `stat`'s utime + stime (clock ticks of 10 ms).
    pub fn ns(&self) -> u64 {
        if let Some(ns) = std::fs::read_to_string(&self.schedstat)
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        {
            return ns;
        }
        let stat = std::fs::read_to_string(&self.stat).unwrap_or_default();
        // Fields after the parenthesised comm: state is field 3, utime
        // and stime fields 14 and 15.
        let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
        let mut fields = after.split_whitespace().skip(11);
        let utime: u64 = fields.next().and_then(|s| s.parse().ok()).unwrap_or(0);
        let stime: u64 = fields.next().and_then(|s| s.parse().ok()).unwrap_or(0);
        (utime + stime) * 10_000_000
    }
}

fn proc_field(file: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(file).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Bytes this process has passed to `write`-family system calls.
pub fn written_bytes() -> u64 {
    proc_field("/proc/self/io", "wchar:").unwrap_or(0)
}

/// Peak resident set size of this process, MiB.
pub fn rss_peak_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").unwrap_or(0) as f64 / 1024.0
}
