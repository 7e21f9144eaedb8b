//! What the benchmark reads from its surroundings: scratch directories
//! (always inside the current directory, removed on drop), the process's
//! own memory and CPU counters, and the stamps printed with every result.

use std::path::{Path, PathBuf};

/// All scratch files live under this directory of the current directory.
pub const TMP_ROOT: &str = ".pdtbench_tmp";
/// Span files of traced runs are kept here, one per workload.
pub const OUT_ROOT: &str = ".pdtbench_out";

/// A scratch directory removed when dropped.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn create(label: &str) -> std::io::Result<TempDir> {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = Path::new(TMP_ROOT).join(format!("{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // the root goes too once the last run's directory is gone
        let _ = std::fs::remove_dir(TMP_ROOT);
    }
}

fn status_kib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:").map_or(0.0, |kib| kib / 1024.0)
}

/// User + system CPU seconds this process (all threads) has used. Linux
/// reports them in clock ticks of 1/100 s.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // the command name (field 2) may hold spaces; fields resume after ')'
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // utime and stime are fields 14 and 15 of the line, 11 and 12 after ')'
    (ticks(11) + ticks(12)) / 100.0
}

/// Total size of the regular files directly inside `dir`, by name.
pub fn file_sizes(dir: &Path) -> std::collections::BTreeMap<String, u64> {
    let mut out = std::collections::BTreeMap::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            if let (Ok(meta), Some(name)) = (e.metadata(), e.file_name().to_str()) {
                if meta.is_file() {
                    out.insert(name.to_string(), meta.len());
                }
            }
        }
    }
    out
}

pub fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Filesystem type of the mount holding `path` (longest mount-point prefix
/// in `/proc/mounts`).
fn filesystem_of(path: &Path) -> String {
    let Ok(abs) = std::fs::canonicalize(path) else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, t)| t)
}

/// The commit this tree is at, read from `.git` without running git; a
/// driver checkout is not a repository and reads "unknown".
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One line describing where and on what this run happened.
pub fn stamp(seed: u64) -> String {
    format!(
        "nproc={} git_rev={} rustc=\"{}\" seed={seed} tmp_fs={} \
         flush_policy=\"WAL: one write+flush to the OS per commit window, no fsync; \
         images: write, fsync, rename (engine defaults, unchanged)\"",
        nproc(),
        git_rev(),
        rustc_version(),
        filesystem_of(Path::new(".")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temp_dirs_are_distinct_and_removed() {
        let (a, b) = (TempDir::create("t").unwrap(), TempDir::create("t").unwrap());
        assert_ne!(a.path(), b.path());
        std::fs::write(a.path().join("x"), b"abc").unwrap();
        assert_eq!(file_sizes(a.path()).get("x"), Some(&3));
        assert_eq!(file_len(&a.path().join("x")), 3);
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists());
        assert!(b.path().exists());
    }

    #[test]
    fn process_counters_read() {
        assert!(peak_rss_mib() > 0.0);
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 30 {
            std::hint::black_box(0);
        }
        assert!(cpu_seconds() > 0.0);
        assert!(stamp(3).contains("seed=3"));
    }
}
